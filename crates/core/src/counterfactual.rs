//! Counterfactual root cause localisation (§3.5).
//!
//! A counterfactual query asks what the trace's duration and error
//! status *would have been* had a subset of spans been in their normal
//! state. Sleuth aggregates spans by service (client spans affiliate
//! with both caller and callee, because network faults at the callee
//! surface in the caller's span), ranks services by exclusive errors
//! plus excess exclusive duration, and restores them one by one —
//! re-predicting the trace with the GNN — until the trace is predicted
//! normal. The restored set is the root cause.
//!
//! # Adaptive pruning (`prune`, on by default)
//!
//! Localisation cost scales with the fault, not with the trace, without
//! changing a single answer:
//!
//! 1. **One [`SubtreeScan`] per localisation** is the only per-span
//!    pass. It records exclusive durations and errors, profile medians
//!    and the restorable spans (anomalous exclusive duration or
//!    exclusive error). Ranking, the candidates' override lists and the
//!    featurizer all read it. Candidates with no restorable affiliated
//!    span are *pruned*: their restoration is the identity, so every
//!    query about them is answered from the observation with zero model
//!    evaluations.
//! 2. **One [`CfSession`] per localisation** replaces per-query
//!    encode+abduce. It abduces lazily: a family's observed pass runs
//!    the first time a query's ancestor closure reaches it, so the
//!    session only ever evaluates families inside the scan's surviving
//!    subgraph. Each query recomputes only the ancestor closure of its
//!    (effective) override frontier. Query results are additionally
//!    memoised on the set of live candidates involved, so prefixes and
//!    elimination probes that differ only in pruned candidates cost
//!    nothing.
//! 3. **Featurization takes no lock.** The embedding table is read-only
//!    after fit, keyed by `(service, name)` symbols, and a miss embeds
//!    deterministically, so any number of RCA workers share one
//!    localiser behind an `Arc`.
//!
//! The candidate ranking and the accept/eliminate control flow are
//! bit-identical in both modes — pruning reduces *work*, never
//! *answers* — which is what lets the property suite assert pruned ≡
//! unpruned across every synthetic scenario rather than approximately.

use std::collections::{HashMap, HashSet};

use sleuth_baselines::common::{OpKey, OpProfile, RootCauseLocator};
use sleuth_gnn::{CfRoot, CfSession, EncodedTrace, Featurizer, SleuthModel};
use sleuth_par::ThreadPool;
use sleuth_trace::{Symbol, Trace};

use crate::prune::{affiliated_with, SubtreeScan};

/// The Sleuth counterfactual localiser: a trained GNN plus the normal
/// profile it restores spans against.
#[derive(Debug)]
pub struct CounterfactualRca {
    model: SleuthModel,
    // Read-only after fit (`Featurizer::encode_with` takes `&self`), so
    // the localiser — and the pipeline holding it — is Sync and serves
    // RCA queries from worker threads behind an `Arc` without a lock.
    featurizer: Featurizer,
    profile: OpProfile,
    /// Maximum number of ranked candidate services *considered* per
    /// localisation. The restoration search only ever probes prefixes
    /// and subsets of this many top-ranked candidates; it does not cap
    /// how many of them end up restored (after elimination, anywhere
    /// from one to all of them can be reported).
    pub max_candidates: usize,
    /// Multiplier on the learned root p95 used as the "normal" bar.
    pub slo_multiplier: f64,
    /// Use the subtree-pruned, session-cached fast path (module docs).
    /// `false` runs every query as an independent full-trace
    /// counterfactual — same answers, legacy cost; kept for equivalence
    /// gates and benchmarking.
    pub prune: bool,
}

/// Outcome of one localisation with its cost/pruning telemetry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RcaReport {
    /// The root-cause services (what [`CounterfactualRca::localize`]
    /// returns).
    pub services: Vec<String>,
    /// Counterfactual model evaluations performed (memo hits and
    /// identity queries are free and not counted).
    pub predict_calls: u64,
    /// Candidate services considered.
    pub candidates: usize,
    /// Candidates pruned outright (no restorable affiliated span).
    pub pruned_candidates: usize,
    /// Fraction of the trace's spans outside the surviving subgraph.
    pub pruned_span_fraction: f64,
    /// Spans in the trace.
    pub spans: usize,
    /// Families (spans with children) whose observed pass the pruned
    /// path's session ran: the abduction work the search paid for. The
    /// legacy path abduces afresh inside every one-shot query and
    /// reports 0.
    pub observed_families: u64,
}

impl CounterfactualRca {
    /// Assemble the localiser from a trained model, its featurizer, and
    /// the normal-state profile.
    pub fn new(model: SleuthModel, featurizer: Featurizer, profile: OpProfile) -> Self {
        CounterfactualRca {
            model,
            featurizer,
            profile,
            max_candidates: 5,
            slo_multiplier: 1.0,
            prune: true,
        }
    }

    /// A copy of this localiser restoring against a different
    /// normal-state `profile` — the incremental-refresh hook: the
    /// trained model and featurizer vocabulary are reused as-is, only
    /// the baselines (median exclusive durations, SLO percentiles)
    /// change.
    pub fn with_profile(&self, profile: OpProfile) -> CounterfactualRca {
        CounterfactualRca {
            model: self.model.clone(),
            featurizer: self.featurizer.clone(),
            profile,
            max_candidates: self.max_candidates,
            slo_multiplier: self.slo_multiplier,
            prune: self.prune,
        }
    }

    /// The trained model.
    pub fn model(&self) -> &SleuthModel {
        &self.model
    }

    /// The featurizer, with the embedding table fitted on the training
    /// corpus.
    pub fn featurizer(&self) -> &Featurizer {
        &self.featurizer
    }

    /// The normal-state profile.
    pub fn profile(&self) -> &OpProfile {
        &self.profile
    }

    /// Services span `i` is affiliated with (§3.5), written to `out`:
    /// every span affiliates with its own service; *client* spans
    /// additionally affiliate with their callee services, because
    /// failures at the callee (e.g. network faults) surface in the
    /// caller's span without touching the callee's own spans.
    fn affiliations(trace: &Trace, i: usize, out: &mut Vec<Symbol>) {
        let s = trace.span(i);
        out.clear();
        out.push(s.service_sym());
        if s.kind.is_caller() {
            for &c in trace.children(i) {
                let callee = trace.span(c).service_sym();
                if !out.contains(&callee) {
                    out.push(callee);
                }
            }
        }
    }

    /// Candidate services as interned symbols, most suspicious first:
    /// ranked by exclusive errors and excess exclusive duration of all
    /// affiliated spans.
    pub fn rank_candidate_syms(&self, trace: &Trace) -> Vec<Symbol> {
        self.rank_top(trace, &SubtreeScan::scan(trace, &self.profile), usize::MAX)
    }

    /// The first `k` services of the [`Self::rank_candidate_syms`]
    /// order, scored from the scan's span facts.
    fn rank_top(&self, trace: &Trace, scan: &SubtreeScan, k: usize) -> Vec<Symbol> {
        if k == 0 {
            return Vec::new();
        }
        let ex_d = scan.exclusive_durations();
        let ex_e = scan.exclusive_errors();
        // Scores are sums of non-negative weights, so a span of weight 0
        // leaves every score as it is: only positive spans are summed.
        // Services they never reach score exactly 0 and rank after all
        // others, by name.
        let mut score: HashMap<Symbol, f64> = HashMap::new();
        let mut affiliated = Vec::new();
        for (i, s) in trace.iter() {
            let excess = (ex_d[i] as f64 - scan.median_us(i) as f64).max(0.0);
            // Exclusive errors whose propagation chain reaches the root
            // explain the trace's failure; broken-chain errors are
            // bystanders and get only a weak bonus.
            let err_bonus = if ex_e[i] {
                if Self::error_chain_to_root(trace, i) {
                    1e9
                } else {
                    1e5
                }
            } else {
                0.0
            };
            let weight = excess + err_bonus;
            if weight == 0.0 {
                continue;
            }
            // A client span's exclusive time is the network round trip
            // to its callee, so its excess is evidence *against the
            // callee* far more than against the caller (whose own
            // compute shows up in its server spans). The caller keeps a
            // small share to cover client-side stalls.
            let is_caller_span = s.kind.is_caller();
            Self::affiliations(trace, i, &mut affiliated);
            for (a, &svc) in affiliated.iter().enumerate() {
                let share = if !is_caller_span {
                    1.0
                } else if a == 0 {
                    0.2
                } else {
                    1.0
                };
                *score.entry(svc).or_default() += weight * share;
            }
        }
        let by_rank = |a: &(Symbol, f64), b: &(Symbol, f64)| {
            b.1.total_cmp(&a.1)
                .then_with(|| a.0.as_str().cmp(b.0.as_str()))
        };
        let mut ranked: Vec<(Symbol, f64)> = score.into_iter().collect();
        if ranked.len() > k {
            ranked.select_nth_unstable_by(k - 1, by_rank);
            ranked.truncate(k);
        }
        ranked.sort_unstable_by(by_rank);
        let mut out: Vec<Symbol> = ranked.into_iter().map(|(s, _)| s).collect();
        if out.len() < k {
            let scored: HashSet<Symbol> = out.iter().copied().collect();
            let mut unscored = HashSet::new();
            for i in 0..trace.len() {
                Self::affiliations(trace, i, &mut affiliated);
                unscored.extend(affiliated.iter().filter(|s| !scored.contains(s)));
            }
            let mut unscored: Vec<Symbol> = unscored.into_iter().collect();
            unscored.sort_unstable_by(|a, b| a.as_str().cmp(b.as_str()));
            out.extend(unscored.into_iter().take(k - out.len()));
        }
        out
    }

    /// Candidate services, most suspicious first, as owned strings
    /// (allocating convenience wrapper over
    /// [`Self::rank_candidate_syms`] — the serve degraded path and
    /// external callers want display names).
    pub fn rank_candidates(&self, trace: &Trace) -> Vec<String> {
        self.rank_candidate_syms(trace)
            .into_iter()
            .map(|s| s.as_str().to_string())
            .collect()
    }

    /// Whether every ancestor of `i` (inclusive) up to the root carries
    /// an error — an unbroken propagation chain.
    fn error_chain_to_root(trace: &Trace, i: usize) -> bool {
        let mut cur = i;
        loop {
            if !trace.span(cur).is_error() {
                return false;
            }
            match trace.parent(cur) {
                Some(p) => cur = p,
                None => return true,
            }
        }
    }

    /// Overrides restoring every span *affiliated with* `service` to its
    /// normal state: exclusive duration = the operation's median, no
    /// exclusive error. Only the scan's restorable spans are emitted —
    /// for the rest the restoration is the identity and the
    /// counterfactual engine would discard it anyway.
    fn restore_overrides(
        trace: &Trace,
        scan: &SubtreeScan,
        service: Symbol,
    ) -> Vec<(usize, f32, f32)> {
        scan.restorable()
            .iter()
            .filter(|&&i| affiliated_with(trace, i, service))
            .filter_map(|&i| scan.restore_target(i).map(|(d, e)| (i, d, e)))
            .collect()
    }

    /// Whether predicted `(duration µs, error prob)` meets the SLO.
    fn is_normal(&self, trace: &Trace, d_us: f32, e: f32) -> bool {
        let slo = self
            .profile
            .robust_root_slo_us(&OpKey::of(trace.span(trace.root())));
        let slow = slo != u64::MAX && d_us as f64 > slo as f64 * self.slo_multiplier;
        e < 0.5 && !slow
    }
}

/// Root-cause verdict at all three granularities (§3.5): services, and
/// the pods/nodes those services' spans ran on, read off the span
/// attributes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InstanceVerdict {
    /// Root-cause services.
    pub services: Vec<String>,
    /// Pods the root-cause services' spans ran on.
    pub pods: Vec<String>,
    /// Cluster nodes those pods were scheduled on.
    pub nodes: Vec<String>,
}

/// Shared query engine for one localisation: owns the session, the
/// candidate-set memo, and the call counter. A candidate set is
/// identified by the bitmask of its *live* (non-pruned) members — two
/// sets differing only in pruned candidates are the same query.
struct QueryEngine<'a> {
    rca: &'a CounterfactualRca,
    enc: &'a EncodedTrace,
    per_cand: &'a [Vec<(usize, f32, f32)>],
    observed: CfRoot,
    session: Option<CfSession<'a>>,
    memo: HashMap<u128, CfRoot>,
    ov_buf: Vec<(usize, f32, f32)>,
    calls: u64,
}

impl QueryEngine<'_> {
    /// Counterfactual root for the candidate subset `sel` (indices into
    /// the ranked candidate list).
    fn query(&mut self, sel: impl Iterator<Item = usize>) -> CfRoot {
        self.ov_buf.clear();
        let maskable = self.per_cand.len() <= 128;
        let mut mask = 0u128;
        for k in sel {
            let ov = &self.per_cand[k];
            if ov.is_empty() {
                continue; // pruned candidate: restoring it is the identity
            }
            if maskable {
                mask |= 1 << k;
            }
            self.ov_buf.extend_from_slice(ov);
        }
        match self.session.as_mut() {
            Some(session) => {
                if self.ov_buf.is_empty() {
                    return self.observed;
                }
                if maskable {
                    if let Some(&r) = self.memo.get(&mask) {
                        return r;
                    }
                }
                self.calls += 1;
                let r = session.predict_root(&self.ov_buf);
                if maskable {
                    self.memo.insert(mask, r);
                }
                r
            }
            // Legacy mode: every query is an independent one-shot
            // full-trace counterfactual (same answers, honest cost).
            None => {
                self.calls += 1;
                let p = self.rca.model().predict_counterfactual(self.enc, &self.ov_buf);
                CfRoot {
                    d_scaled: p.d_scaled[0],
                    error_prob: p.e_prob[0],
                }
            }
        }
    }
}

impl CounterfactualRca {
    /// Fraction of the best-achievable counterfactual savings a
    /// candidate prefix must deliver before it is accepted.
    const SAVINGS_COVERAGE: f32 = 0.9;

    /// Localise the root cause and expand it to pod and node
    /// granularity from the trace's placement attributes.
    pub fn localize_instances(&self, trace: &Trace) -> InstanceVerdict {
        let services = self.localize(trace);
        let mut verdict = InstanceVerdict {
            services,
            ..InstanceVerdict::default()
        };
        for (_, s) in trace.iter() {
            if verdict.services.iter().any(|v| s.service == *v) {
                if !s.pod.is_empty() && !verdict.pods.iter().any(|p| s.pod == *p) {
                    verdict.pods.push(s.pod.to_string());
                }
                if !s.node.is_empty() && !verdict.nodes.iter().any(|n| s.node == *n) {
                    verdict.nodes.push(s.node.to_string());
                }
            }
        }
        verdict
    }

    /// Localise the root cause, returning the services together with
    /// the cost/pruning telemetry of the search.
    pub fn localize_report(&self, trace: &Trace) -> RcaReport {
        let scan = SubtreeScan::scan(trace, &self.profile);
        let candidates = self.rank_top(trace, &scan, self.max_candidates);
        let mut report = RcaReport {
            candidates: candidates.len(),
            pruned_span_fraction: scan.pruned_span_fraction(trace),
            spans: trace.len(),
            ..RcaReport::default()
        };
        if candidates.is_empty() {
            return report;
        }
        let n = candidates.len();

        // The restorable span set is fixed per trace, so each
        // candidate's override list is computed exactly once.
        let per_cand: Vec<Vec<(usize, f32, f32)>> = candidates
            .iter()
            .map(|&svc| Self::restore_overrides(trace, &scan, svc))
            .collect();
        report.pruned_candidates = per_cand.iter().filter(|ov| ov.is_empty()).count();

        let enc = self
            .featurizer
            .encode_with(trace, scan.exclusive_durations(), scan.exclusive_errors());
        let actual = trace.total_duration_us() as f32;
        let mut eng = QueryEngine {
            rca: self,
            enc: &enc,
            per_cand: &per_cand,
            observed: CfRoot {
                d_scaled: enc.d_scaled[0],
                error_prob: enc.e[0],
            },
            session: self.prune.then(|| CfSession::new(&self.model, &enc)),
            memo: HashMap::new(),
            ov_buf: Vec::new(),
            calls: 0,
        };

        // Best the model can explain: all candidates restored. Comparing
        // each prefix against this *relative* ceiling cancels whatever
        // share of the anomaly the model attributes to exogenous noise,
        // so a partially-blind model still separates contributing from
        // non-contributing candidates.
        let best = eng.query(0..n);
        let best_savings = (actual - best.duration_us()).max(0.0);
        let error_explainable = trace.is_error() && best.error_prob < 0.5;

        let accept = |pred: CfRoot| {
            let savings = (actual - pred.duration_us()).max(0.0);
            let duration_ok = savings >= Self::SAVINGS_COVERAGE * best_savings
                || self.is_normal(trace, pred.duration_us(), 0.0);
            let error_ok = !error_explainable || pred.error_prob < 0.5;
            duration_ok && error_ok
        };

        // Smallest prefix of the ranking that explains as much as the
        // whole candidate set.
        let chosen = if self.prune {
            // Sequential with early exit: identity/memoised prefixes are
            // free, and the tail after the first accepted length is
            // never predicted at all.
            (1..=n)
                .find(|&k| accept(eng.query(0..k)))
                .unwrap_or(n)
        } else {
            // Legacy fan-out: all prefixes predicted across the pool,
            // the first accepted length read off the ordered results.
            let lengths: Vec<usize> = (1..=n).collect();
            let prefix_preds = ThreadPool::global().par_map(&lengths, |&k| {
                let mut ov = Vec::new();
                for cand in &per_cand[..k] {
                    ov.extend_from_slice(cand);
                }
                let p = self.model.predict_counterfactual(&enc, &ov);
                CfRoot {
                    d_scaled: p.d_scaled[0],
                    error_prob: p.e_prob[0],
                }
            });
            eng.calls += n as u64;
            prefix_preds
                .iter()
                .position(|&p| accept(p))
                .map(|p| p + 1)
                .unwrap_or(n)
        };
        let mut kept: Vec<usize> = (0..chosen).collect();

        // …then backward-eliminate candidates whose restoration adds
        // nothing (they rode in on the prefix).
        if kept.len() > 1 {
            let mut i = kept.len();
            while i > 0 {
                i -= 1;
                if kept.len() == 1 {
                    break;
                }
                let without: Vec<usize> = kept
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, &k)| k)
                    .collect();
                if accept(eng.query(without.into_iter())) {
                    kept.remove(i);
                }
            }
        }

        report.services = kept
            .into_iter()
            .map(|k| candidates[k].as_str().to_string())
            .collect();
        report.predict_calls = eng.calls;
        report.observed_families = eng.session.map_or(0, |s| s.observed_families());
        report
    }
}

impl RootCauseLocator for CounterfactualRca {
    fn name(&self) -> &str {
        "sleuth"
    }

    fn localize(&self, trace: &Trace) -> Vec<String> {
        self.localize_report(trace).services
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleuth_gnn::{EncodedTrace, ModelConfig, TrainConfig};
    use sleuth_synth::chaos::{ChaosEngine, Fault, FaultKind, FaultPlan, FaultTarget};
    use sleuth_synth::presets;
    use sleuth_synth::workload::CorpusBuilder;
    use sleuth_synth::Simulator;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn trained_rca() -> (CounterfactualRca, sleuth_synth::App) {
        let app = presets::synthetic(16, 1);
        let corpus = CorpusBuilder::new(&app).seed(21).normal_traces(200);
        let traces = corpus.plain_traces();
        let mut featurizer = Featurizer::new(8);
        let encoded: Vec<EncodedTrace> =
            traces.iter().map(|t| featurizer.encode(t)).collect();
        let mut model = SleuthModel::new(&ModelConfig::default(), 33);
        model.train(
            &encoded,
            &TrainConfig {
                epochs: 30,
                batch_traces: 32,
                lr: 1e-2,
                seed: 1,
            },
        );
        let profile = OpProfile::fit(&traces);
        (CounterfactualRca::new(model, featurizer, profile), app)
    }

    #[test]
    fn candidate_ranking_prefers_slow_service() {
        let (rca, app) = trained_rca();
        // Slow down one specific service massively.
        let victim = app.flows[0].nodes[1].service;
        let plan = FaultPlan {
            faults: (0..app.services[victim].pods.len())
                .map(|p| Fault {
                    kind: FaultKind::CpuStress,
                    target: FaultTarget::Pod {
                        service: victim,
                        pod: p,
                    },
                    severity: 60.0,
                })
                .collect(),
        };
        let sim = Simulator::new(&app);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut top_hits = 0;
        for i in 0..10 {
            let st = sim.simulate(0, &plan, 5000 + i, &mut rng);
            if st.ground_truth.services.is_empty() {
                continue;
            }
            let ranked = rca.rank_candidates(&st.trace);
            if ranked
                .first()
                .is_some_and(|s| st.ground_truth.services.contains(s))
            {
                top_hits += 1;
            }
        }
        assert!(top_hits >= 6, "top-ranked candidate hit only {top_hits}/10");
    }

    #[test]
    fn localize_finds_injected_services() {
        let (rca, app) = trained_rca();
        let chaos = ChaosEngine::default();
        let queries = CorpusBuilder::new(&app)
            .seed(22)
            .chaos(chaos)
            .anomaly_queries(10, 15);
        let mut hits = 0;
        let mut total = 0;
        for q in &queries {
            for st in &q.traces {
                total += 1;
                let pred = rca.localize(&st.trace);
                if pred.iter().any(|p| st.ground_truth.services.contains(p)) {
                    hits += 1;
                }
            }
        }
        assert!(
            hits * 3 > total * 2,
            "sleuth found injected service in only {hits}/{total} traces"
        );
    }

    #[test]
    fn pruned_localization_matches_unpruned_exactly() {
        let (mut rca, app) = trained_rca();
        let chaos = ChaosEngine::default();
        let queries = CorpusBuilder::new(&app)
            .seed(29)
            .chaos(chaos)
            .anomaly_queries(6, 9);
        for q in &queries {
            for st in &q.traces {
                rca.prune = true;
                let pruned = rca.localize_report(&st.trace);
                rca.prune = false;
                let unpruned = rca.localize_report(&st.trace);
                assert_eq!(
                    pruned.services, unpruned.services,
                    "pruning changed the verdict"
                );
                assert!(
                    pruned.predict_calls <= unpruned.predict_calls,
                    "pruned path used {} calls vs {} unpruned",
                    pruned.predict_calls,
                    unpruned.predict_calls
                );
            }
        }
    }

    #[test]
    fn healthy_traces_restore_to_few_candidates() {
        let (rca, app) = trained_rca();
        let corpus = CorpusBuilder::new(&app).seed(23).normal_traces(5);
        for st in &corpus.traces {
            let pred = rca.localize(&st.trace);
            assert!(pred.len() <= rca.max_candidates);
        }
    }

    #[test]
    fn instance_verdict_expands_to_pods_and_nodes() {
        let (rca, app) = trained_rca();
        let victim = app.flows[0].nodes[1].service;
        let plan = FaultPlan {
            faults: (0..app.services[victim].pods.len())
                .map(|p| Fault {
                    kind: FaultKind::CpuStress,
                    target: FaultTarget::Pod {
                        service: victim,
                        pod: p,
                    },
                    severity: 60.0,
                })
                .collect(),
        };
        let sim = Simulator::new(&app);
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let st = sim.simulate(0, &plan, 1, &mut rng);
        let verdict = rca.localize_instances(&st.trace);
        assert!(!verdict.services.is_empty());
        // Every predicted service contributes the pods/nodes its spans
        // actually ran on.
        for svc in &verdict.services {
            let spans: Vec<_> = st
                .trace
                .spans()
                .iter()
                .filter(|s| s.service == **svc)
                .collect();
            if !spans.is_empty() {
                assert!(spans.iter().any(|s| verdict.pods.iter().any(|p| s.pod == *p)));
                assert!(spans.iter().any(|s| verdict.nodes.iter().any(|n| s.node == *n)));
            }
        }
    }

    #[test]
    fn network_fault_affiliation_reaches_callee() {
        let (rca, app) = trained_rca();
        // Network fault on a mid-tier service: caller spans slow down.
        let victim = app.flows[0].nodes[1].service;
        let plan = FaultPlan {
            faults: (0..app.services[victim].pods.len())
                .map(|p| Fault {
                    kind: FaultKind::NetworkDelay,
                    target: FaultTarget::Pod {
                        service: victim,
                        pod: p,
                    },
                    severity: 300.0,
                })
                .collect(),
        };
        let sim = Simulator::new(&app);
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let mut hit = false;
        for i in 0..10 {
            let st = sim.simulate(0, &plan, 6000 + i, &mut rng);
            if st.ground_truth.services.is_empty() {
                continue;
            }
            let ranked = rca.rank_candidates(&st.trace);
            if ranked
                .iter()
                .take(3)
                .any(|s| st.ground_truth.services.contains(s))
            {
                hit = true;
                break;
            }
        }
        assert!(hit, "callee never ranked for a network fault");
    }

    /// The ranking as first written: every span scored, zero weights
    /// included, the whole map sorted. `rank_top` must reproduce it.
    fn ranking_oracle(rca: &CounterfactualRca, trace: &Trace) -> Vec<Symbol> {
        let ex_d = sleuth_trace::exclusive::exclusive_durations(trace);
        let ex_e = sleuth_trace::exclusive::exclusive_errors(trace);
        let mut score: HashMap<Symbol, f64> = HashMap::new();
        let mut affiliated = Vec::new();
        for (i, s) in trace.iter() {
            let median = rca
                .profile
                .get(&OpKey::of(s))
                .map(|st| st.median_exclusive_us as f64)
                .unwrap_or(0.0);
            let excess = (ex_d[i] as f64 - median).max(0.0);
            let err_bonus = match (ex_e[i], CounterfactualRca::error_chain_to_root(trace, i)) {
                (false, _) => 0.0,
                (true, true) => 1e9,
                (true, false) => 1e5,
            };
            let weight = excess + err_bonus;
            CounterfactualRca::affiliations(trace, i, &mut affiliated);
            for (a, &svc) in affiliated.iter().enumerate() {
                let share = if s.kind.is_caller() && a == 0 { 0.2 } else { 1.0 };
                *score.entry(svc).or_default() += weight * share;
            }
        }
        let mut ranked: Vec<(Symbol, f64)> = score.into_iter().collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap()
                .then_with(|| a.0.as_str().cmp(b.0.as_str()))
        });
        ranked.into_iter().map(|(s, _)| s).collect()
    }

    fn chaos_traces(app: &sleuth_synth::App, seed: u64) -> Vec<Trace> {
        CorpusBuilder::new(app)
            .seed(seed)
            .chaos(ChaosEngine::default())
            .anomaly_queries(6, 6)
            .into_iter()
            .flat_map(|q| q.traces.into_iter().map(|st| st.trace))
            .collect()
    }

    #[test]
    fn top_k_ranking_matches_full_sort_oracle() {
        let (rca, app) = trained_rca();
        let mut traces = chaos_traces(&app, 31);
        traces.extend(CorpusBuilder::new(&app).seed(32).normal_traces(6).plain_traces());
        for trace in &traces {
            let oracle = ranking_oracle(&rca, trace);
            assert_eq!(rca.rank_candidate_syms(trace), oracle);
            let scan = SubtreeScan::scan(trace, rca.profile());
            for k in 0..=oracle.len() + 1 {
                let top = rca.rank_top(trace, &scan, k);
                assert_eq!(top, oracle[..k.min(oracle.len())], "k = {k}");
            }
        }
    }

    #[test]
    fn traces_without_restorable_spans_abduce_nothing() {
        let (rca, app) = trained_rca();
        let corpus = CorpusBuilder::new(&app).seed(24).normal_traces(20);
        let mut checked = 0;
        for st in &corpus.traces {
            if !SubtreeScan::scan(&st.trace, rca.profile()).restorable().is_empty() {
                continue;
            }
            let report = rca.localize_report(&st.trace);
            assert_eq!(report.observed_families, 0);
            assert_eq!(report.predict_calls, 0);
            checked += 1;
        }
        assert!(checked > 0, "no healthy trace was free of restorable spans");
    }

    #[test]
    fn abduced_families_stay_inside_the_surviving_subgraph() {
        let (rca, app) = trained_rca();
        let mut abduced = 0;
        for trace in chaos_traces(&app, 33) {
            let scan = SubtreeScan::scan(&trace, rca.profile());
            let candidates = rca.rank_top(&trace, &scan, rca.max_candidates);
            let per_cand: Vec<_> = candidates
                .iter()
                .map(|&svc| CounterfactualRca::restore_overrides(&trace, &scan, svc))
                .collect();
            let enc = rca.featurizer.encode_with(
                &trace,
                scan.exclusive_durations(),
                scan.exclusive_errors(),
            );
            // Every candidate subset the search could ask about.
            let mut session = CfSession::new(rca.model(), &enc);
            for mask in 0u32..1 << per_cand.len() {
                let ov: Vec<_> = (0..per_cand.len())
                    .filter(|k| mask & (1 << k) != 0)
                    .flat_map(|k| per_cand[k].iter().copied())
                    .collect();
                session.savings_bound_us(&ov);
                session.predict_root(&ov);
            }
            for i in session.abduced_families() {
                assert!(scan.is_live(i), "span {i} abduced outside the surviving subgraph");
            }
            let report = rca.localize_report(&trace);
            assert!(report.observed_families <= session.observed_families());
            abduced += session.observed_families();
        }
        assert!(abduced > 0, "no query ever reached the model");
    }

    #[test]
    fn shared_localiser_across_threads_matches_single_threaded() {
        let (rca, app) = trained_rca();
        let traces = chaos_traces(&app, 34);
        let expected: Vec<RcaReport> = traces.iter().map(|t| rca.localize_report(t)).collect();
        let rca = std::sync::Arc::new(rca);
        let traces = std::sync::Arc::new(traces);
        let workers: Vec<_> = (0..4)
            .map(|w| {
                let (rca, traces) = (rca.clone(), traces.clone());
                std::thread::spawn(move || {
                    // Each worker walks the corpus from a different start.
                    let n = traces.len();
                    let mut out = vec![RcaReport::default(); n];
                    for k in 0..n {
                        let i = (k + w * n / 4) % n;
                        out[i] = rca.localize_report(&traces[i]);
                    }
                    out
                })
            })
            .collect();
        for w in workers {
            assert_eq!(w.join().expect("worker panicked"), expected);
        }
    }
}
