//! Reusable counterfactual sessions: abduce lazily, re-predict deltas.
//!
//! [`SleuthModel::predict_counterfactual`] runs Pearl's
//! abduction–action–prediction over the trace's causal Bayesian network.
//! The abduction step — evaluating every family on its *observed*
//! features to pin the exogenous residuals — depends only on the trace,
//! not on the intervention, yet the one-shot API recomputes it for every
//! candidate set the RCA tries. On a thousand-service call graph that
//! makes each restoration step O(spans) when the intervention only
//! touches a handful of them.
//!
//! [`CfSession`] factors the localisation loop accordingly:
//!
//! * **Construction** only builds the children CSR and the scratch
//!   buffers. It evaluates no family.
//! * **Abduction is lazy and closure-only.** A family's observed pass
//!   (the observed wait, the node's log-space duration residual and
//!   the observed clipped-ReLU knees `(u, v)` of its child slots) runs
//!   the first time a query puts its parent in the affected set, and is
//!   kept for later queries. A span outside every query's ancestor
//!   closure keeps its observed value, so its family is never needed.
//!   An RCA search that restores only a fault's spans therefore pays
//!   for the fault's ancestor closure, not for the trace.
//!   [`CfSession::observed_families`] counts the families abduced.
//! * **[`CfSession::predict_root`]** applies an override set as a delta.
//!   Overrides equal to the observed exclusive features are discarded
//!   (they cannot change anything); the ancestor closure of the
//!   survivors is the only region recomputed, children before parents.
//!   Every span outside that closure keeps its observed value — which
//!   is exactly what abduction guarantees the full pass would produce
//!   for untouched subtrees, so the delta path is not an approximation
//!   of the one-shot semantics, it *is* the semantics.
//! * **[`CfSession::savings_bound_us`]** exploits the decoder's monotone
//!   structure: for *fixed* knees the clipped ReLU
//!   `clip(d) = (d−u)₊ − (d−v)₊` is nondecreasing and 1-Lipschitz, so a
//!   child whose duration drops by `r` reduces its parent's wait by at
//!   most `clip(d) − clip(d−r)`. Propagating that drop root-ward (scaled
//!   by each node's abduced multiplicative residual) upper-bounds how
//!   much end-to-end latency restoring a subtree could recover. A
//!   subtree whose bound is already ≈0 is provably irrelevant to the
//!   duration channel. The bound is evaluated at the observed knees; the
//!   real counterfactual pass lets knees drift with family features, so
//!   callers treat it as a ranking/diagnostic signal, not a substitute
//!   for the exact pass.
//!
//! An empty (or all-no-op) override set returns the observed trace
//! without touching the model at all — the common case when the RCA
//! probes a candidate whose restoration turns out to be the identity.

use sleuth_trace::transform::{GLOBAL_LOG_MEAN, GLOBAL_LOG_STD};

use sleuth_tensor::Tensor;

use crate::encode::EncodedTrace;
use crate::model::{scale_log_f, unscale_f, AggregatorKind, SleuthModel, TracePrediction};

const SIG: f32 = GLOBAL_LOG_STD;
const _MU: f32 = GLOBAL_LOG_MEAN;

/// Root-span outcome of one counterfactual query (the only part of a
/// [`TracePrediction`] the restoration search looks at).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfRoot {
    /// Counterfactual root duration, scaled.
    pub d_scaled: f32,
    /// Counterfactual root error probability.
    pub error_prob: f32,
}

impl CfRoot {
    /// Counterfactual end-to-end duration in µs.
    pub fn duration_us(&self) -> f32 {
        unscale_f(self.d_scaled)
    }
}

/// A per-trace counterfactual session (see the module docs).
///
/// Holds the abduction state for one encoded trace, filled family by
/// family as queries reach it, and answers override queries by
/// recomputing only the override frontier's ancestor closure. Scratch
/// buffers are epoch-stamped, so repeated queries allocate nothing.
#[derive(Debug)]
pub struct CfSession<'m> {
    model: &'m SleuthModel,
    enc: &'m EncodedTrace,
    /// Children CSR: children of `i` are `child_idx[child_off[i]..child_off[i+1]]`.
    child_off: Vec<u32>,
    child_idx: Vec<u32>,
    /// `abduced[i]` ⇔ `i`'s observed family pass has run (leaves need none).
    abduced: Vec<bool>,
    /// Observed log-space duration residual per abduced node.
    resid_d_log: Vec<f32>,
    /// Observed clipped-ReLU knees for node `j` *as a child of its
    /// parent* (µs), filled when the parent is abduced. Root slot unused.
    u_obs: Vec<f32>,
    v_obs: Vec<f32>,
    observed_families: u64,
    epoch: u32,
    /// `stamp[i] == epoch` ⇔ `i` is in the current query's affected set.
    stamp: Vec<u32>,
    /// `ov_stamp[i] == epoch` ⇔ `i` carries an effective override.
    ov_stamp: Vec<u32>,
    d_star_ov: Vec<f32>,
    e_star_ov: Vec<f32>,
    /// Counterfactual values, valid where `stamp[i] == epoch`.
    d_cf: Vec<f32>,
    e_cf: Vec<f32>,
    /// Monotone-bound scratch, valid where `stamp[i] == epoch`.
    red: Vec<f32>,
    /// Affected set of the current epoch, descending (children first).
    affected: Vec<u32>,
    calls: u64,
    nodes_recomputed: u64,
}

/// One family evaluation of the Eq. 2 decoder (duration channel only;
/// the abduction error channel never reads the gates). Mirrors the
/// arithmetic of the teacher-forced pass operation for operation so the
/// session is bit-compatible with the one-shot counterfactual API.
#[allow(clippy::too_many_arguments)]
fn family_wait(
    model: &SleuthModel,
    enc: &EncodedTrace,
    fam: &[u32],
    d_of: &dyn Fn(usize) -> f32,
    e_of: &dyn Fn(usize) -> f32,
    d_star_i: f32,
    e_star_i: f32,
    mut knees: Option<&mut dyn FnMut(usize, f32, f32)>,
) -> f32 {
    let f = 2 + model.config.sem_dim;
    let in_dim = 2 + f;
    let mut fam_agg = vec![0f32; f];
    for &j in fam {
        let j = j as usize;
        fam_agg[0] += d_of(j);
        fam_agg[1] += e_of(j);
        for (c, s) in fam_agg[2..].iter_mut().zip(enc.sem_row(j)) {
            *c += s;
        }
    }
    if model.config.aggregator == AggregatorKind::Gcn {
        for a in fam_agg.iter_mut() {
            *a /= fam.len() as f32;
        }
    }
    let mut input = Vec::with_capacity(fam.len() * in_dim);
    for &j in fam {
        let j = j as usize;
        let sem = enc.sem_row(j);
        input.push(d_star_i);
        input.push(e_star_i);
        let self_feats = [d_of(j), e_of(j)];
        for c in 0..f {
            let base = fam_agg[c];
            let self_term = if model.config.aggregator == AggregatorKind::Gin {
                let xjc = if c < 2 {
                    self_feats[c]
                } else {
                    sem[c - 2]
                };
                model.config.epsilon * xjc
            } else {
                0.0
            };
            input.push(base + self_term);
        }
    }
    let h = model
        .mlp
        .infer(&model.params, &Tensor::new(vec![fam.len(), in_dim], input));
    let mut wait = 0f32;
    for (r, &j) in fam.iter().enumerate() {
        let u = unscale_f(h.at(r, 0));
        let v = u + unscale_f(h.at(r, 1) + model.config.knee_bias);
        let dj = unscale_f(d_of(j as usize));
        wait += (dj - u).max(0.0) - (dj - v).max(0.0);
        if let Some(k) = knees.as_deref_mut() {
            k(j as usize, u, v);
        }
    }
    wait
}

impl<'m> CfSession<'m> {
    /// A query-ready session. No family is evaluated until a query
    /// needs it (module docs).
    pub fn new(model: &'m SleuthModel, enc: &'m EncodedTrace) -> Self {
        let n = enc.len();
        let mut child_off = vec![0u32; n + 1];
        for p in enc.parent.iter().flatten() {
            child_off[p + 1] += 1;
        }
        for i in 0..n {
            child_off[i + 1] += child_off[i];
        }
        let mut next = child_off.clone();
        let mut child_idx = vec![0u32; child_off[n] as usize];
        for (i, p) in enc.parent.iter().enumerate() {
            if let Some(p) = *p {
                child_idx[next[p] as usize] = i as u32;
                next[p] += 1;
            }
        }

        CfSession {
            model,
            enc,
            child_off,
            child_idx,
            abduced: vec![false; n],
            resid_d_log: vec![0.0; n],
            u_obs: vec![0.0; n],
            v_obs: vec![f32::INFINITY; n],
            observed_families: 0,
            epoch: 0,
            stamp: vec![0; n],
            ov_stamp: vec![0; n],
            d_star_ov: vec![0.0; n],
            e_star_ov: vec![0.0; n],
            d_cf: vec![0.0; n],
            e_cf: vec![0.0; n],
            red: vec![0.0; n],
            affected: Vec::new(),
            calls: 0,
            nodes_recomputed: 0,
        }
    }

    /// Run node `i`'s observed family pass: pin its duration residual
    /// and its children's observed knees.
    fn abduce(&mut self, i: usize) {
        self.abduced[i] = true;
        let fam = &self.child_idx[self.child_off[i] as usize..self.child_off[i + 1] as usize];
        if fam.is_empty() {
            return;
        }
        self.observed_families += 1;
        let enc = self.enc;
        let (u_obs, v_obs) = (&mut self.u_obs, &mut self.v_obs);
        let wait_obs = family_wait(
            self.model,
            enc,
            fam,
            &|j| enc.d_scaled[j],
            &|j| enc.e[j],
            enc.d_star_scaled[i],
            enc.e_star[i],
            Some(&mut |j, u, v| {
                u_obs[j] = u;
                v_obs[j] = v;
            }),
        );
        let d_tf = wait_obs + unscale_f(enc.d_star_scaled[i]);
        self.resid_d_log[i] = enc.d_scaled[i] - scale_log_f(d_tf);
    }

    /// Number of spans in the session's trace.
    pub fn len(&self) -> usize {
        self.enc.len()
    }

    /// Whether the trace is empty (it never is — encoded traces have a root).
    pub fn is_empty(&self) -> bool {
        self.enc.len() == 0
    }

    /// Number of queries that actually evaluated the model (queries whose
    /// overrides were all no-ops are free and not counted).
    pub fn predict_calls(&self) -> u64 {
        self.calls
    }

    /// Families whose observed pass has run so far — the abduction work
    /// the queries paid for. Identity queries abduce nothing.
    pub fn observed_families(&self) -> u64 {
        self.observed_families
    }

    /// Spans whose (non-empty) family has been abduced, ascending.
    pub fn abduced_families(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).filter(|&i| self.abduced[i] && !self.children(i).is_empty())
    }

    /// Total spans recomputed across all counted queries. The ratio to
    /// `predict_calls * len()` is the fraction of work the delta path
    /// saved over full re-prediction.
    pub fn nodes_recomputed(&self) -> u64 {
        self.nodes_recomputed
    }

    fn children(&self, i: usize) -> &[u32] {
        &self.child_idx[self.child_off[i] as usize..self.child_off[i + 1] as usize]
    }

    /// Stage the override set for a new epoch: store per-node override
    /// values, discard no-ops, and stamp the ancestor closure of the
    /// effective ones (descending = children first), abducing each
    /// closure node on first sight. Returns `false` when nothing
    /// effective remains.
    fn mark(&mut self, overrides: &[(usize, f32, f32)]) -> bool {
        self.epoch += 1;
        self.affected.clear();
        for &(i, d, e) in overrides {
            // Later entries for the same span win, as in the one-shot API.
            self.ov_stamp[i] = self.epoch;
            self.d_star_ov[i] = d;
            self.e_star_ov[i] = e;
        }
        let mut any = false;
        for &(i, _, _) in overrides {
            if self.ov_stamp[i] != self.epoch {
                continue; // already judged a no-op
            }
            if self.d_star_ov[i] == self.enc.d_star_scaled[i]
                && self.e_star_ov[i] == self.enc.e_star[i]
            {
                // Identity override: the counterfactual factually equals
                // the observation on this span.
                self.ov_stamp[i] = 0;
                continue;
            }
            any = true;
            let mut cur = i;
            loop {
                if self.stamp[cur] == self.epoch {
                    break;
                }
                self.stamp[cur] = self.epoch;
                self.affected.push(cur as u32);
                if !self.abduced[cur] {
                    self.abduce(cur);
                }
                match self.enc.parent[cur] {
                    Some(p) => cur = p,
                    None => break,
                }
            }
        }
        if any {
            self.affected.sort_unstable_by(|a, b| b.cmp(a));
        }
        any
    }

    fn star_of(&self, i: usize) -> (f32, f32) {
        if self.ov_stamp[i] == self.epoch {
            (self.d_star_ov[i], self.e_star_ov[i])
        } else {
            (self.enc.d_star_scaled[i], self.enc.e_star[i])
        }
    }

    /// Recompute the affected set bottom-up (abduction–action–prediction
    /// restricted to the frontier's ancestor closure).
    fn compute(&mut self) {
        self.calls += 1;
        self.nodes_recomputed += self.affected.len() as u64;
        let enc = self.enc;
        for k in 0..self.affected.len() {
            let i = self.affected[k] as usize;
            let (d_star_i, e_star_i) = self.star_of(i);
            let fam = &self.child_idx[self.child_off[i] as usize..self.child_off[i + 1] as usize];
            if fam.is_empty() {
                // A leaf's duration *is* its exclusive duration.
                self.d_cf[i] = d_star_i;
                self.e_cf[i] = e_star_i;
                continue;
            }
            let (stamp, epoch) = (&self.stamp, self.epoch);
            let (d_cf, e_cf) = (&self.d_cf, &self.e_cf);
            let d_of = |j: usize| if stamp[j] == epoch { d_cf[j] } else { enc.d_scaled[j] };
            let e_of = |j: usize| if stamp[j] == epoch { e_cf[j] } else { enc.e[j] };
            let wait_cf = family_wait(self.model, enc, fam, &d_of, &e_of, d_star_i, e_star_i, None);
            let d_prime_cf = (wait_cf + unscale_f(d_star_i)).max(1.0);
            let new_d = scale_log_f(d_prime_cf) + self.resid_d_log[i];
            // Error channel under abduction: restorations only remove
            // causes, so a healthy span stays healthy and an errored one
            // stays errored exactly while an exclusive or an
            // observed-errored child's counterfactual error persists.
            let new_e = if enc.e[i] < 0.5 {
                0.0
            } else {
                let mut worst = e_star_i;
                for &j in fam {
                    let j = j as usize;
                    if enc.e[j] >= 0.5 {
                        worst = worst.max(e_of(j));
                    }
                }
                worst
            };
            self.d_cf[i] = new_d;
            self.e_cf[i] = new_e;
        }
    }

    /// Counterfactual root outcome under `overrides` (`(span, d*, e*)`
    /// replacements of exclusive features, as in
    /// [`SleuthModel::predict_counterfactual`]).
    pub fn predict_root(&mut self, overrides: &[(usize, f32, f32)]) -> CfRoot {
        if !self.mark(overrides) {
            return CfRoot {
                d_scaled: self.enc.d_scaled[0],
                error_prob: self.enc.e[0],
            };
        }
        self.compute();
        CfRoot {
            d_scaled: self.d_cf[0],
            error_prob: self.e_cf[0],
        }
    }

    /// Full per-span counterfactual prediction under `overrides` —
    /// identical to [`SleuthModel::predict_counterfactual`] (which
    /// delegates here).
    pub fn predict_full(&mut self, overrides: &[(usize, f32, f32)]) -> TracePrediction {
        let changed = self.mark(overrides);
        if changed {
            self.compute();
        }
        let mut d_scaled = self.enc.d_scaled.clone();
        let mut e_prob = self.enc.e.clone();
        if changed {
            for &i in &self.affected {
                let i = i as usize;
                d_scaled[i] = self.d_cf[i];
                e_prob[i] = self.e_cf[i];
            }
        }
        TracePrediction { d_scaled, e_prob }
    }

    /// Upper bound (µs) on how much end-to-end latency the override set
    /// could recover, from the fixed-knee monotone structure (module
    /// docs). Costs O(affected set), never evaluates the MLP.
    pub fn savings_bound_us(&mut self, overrides: &[(usize, f32, f32)]) -> f32 {
        if !self.mark(overrides) {
            return 0.0;
        }
        for k in 0..self.affected.len() {
            let i = self.affected[k] as usize;
            let delta = if self.ov_stamp[i] == self.epoch {
                (unscale_f(self.enc.d_star_scaled[i]) - unscale_f(self.d_star_ov[i])).max(0.0)
            } else {
                0.0
            };
            let fam = self.children(i);
            if fam.is_empty() {
                self.red[i] = delta;
                continue;
            }
            let mut red_in = delta;
            for &j in fam {
                let j = j as usize;
                if self.stamp[j] == self.epoch && self.red[j] > 0.0 {
                    let dj = unscale_f(self.enc.d_scaled[j]);
                    let (u, v) = (self.u_obs[j], self.v_obs[j]);
                    let clip = |d: f32| (d - u).max(0.0) - (d - v).max(0.0);
                    red_in += clip(dj) - clip(dj - self.red[j]);
                }
            }
            // The node's own value is `d_prime × 10^(σ·resid)` modulo
            // clamps; the multiplier rescales the child-side drop.
            let m = 10f32.powf((SIG * self.resid_d_log[i]).clamp(-8.0, 8.0));
            self.red[i] = red_in * m;
        }
        if self.stamp[0] == self.epoch {
            self.red[0]
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::Featurizer;
    use crate::model::ModelConfig;
    use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
    use rand::{Rng, SeedableRng};
    use sleuth_synth::scenario::{Scenario, ScenarioKind, ScenarioParams};
    use sleuth_trace::{Span, SpanKind, Trace};
    use std::sync::OnceLock;

    impl<'m> CfSession<'m> {
        /// The reference the lazy session must reproduce: the eager
        /// observed pass, every family abduced up front, children before
        /// parents.
        fn new_eager(model: &'m SleuthModel, enc: &'m EncodedTrace) -> Self {
            let mut s = CfSession::new(model, enc);
            for i in (0..enc.len()).rev() {
                let fam = &s.child_idx[s.child_off[i] as usize..s.child_off[i + 1] as usize];
                if fam.is_empty() {
                    continue;
                }
                let (u_obs, v_obs) = (&mut s.u_obs, &mut s.v_obs);
                let wait_obs = family_wait(
                    model,
                    enc,
                    fam,
                    &|j| enc.d_scaled[j],
                    &|j| enc.e[j],
                    enc.d_star_scaled[i],
                    enc.e_star[i],
                    Some(&mut |j, u, v| {
                        u_obs[j] = u;
                        v_obs[j] = v;
                    }),
                );
                let d_tf = wait_obs + unscale_f(enc.d_star_scaled[i]);
                s.resid_d_log[i] = enc.d_scaled[i] - scale_log_f(d_tf);
                s.observed_families += 1;
            }
            s.abduced.fill(true);
            s
        }
    }

    fn chain_trace() -> Trace {
        // root -> mid -> {leaf_a (slow), leaf_b}
        let spans = vec![
            Span::builder(1, 1, "frontend", "GET /").time(0, 60_000).build(),
            Span::builder(1, 2, "cart", "GET /cart")
                .parent(1)
                .kind(SpanKind::Client)
                .time(2_000, 56_000)
                .build(),
            Span::builder(1, 3, "redis", "GET k")
                .parent(2)
                .kind(SpanKind::Client)
                .time(3_000, 50_000)
                .build(),
            Span::builder(1, 4, "auth", "POST /verify")
                .parent(2)
                .kind(SpanKind::Client)
                .time(3_000, 6_000)
                .build(),
        ];
        Trace::assemble(spans).unwrap()
    }

    fn model_and_enc() -> (SleuthModel, EncodedTrace) {
        let model = SleuthModel::new(&Default::default(), 7);
        let mut f = Featurizer::new(model.config().sem_dim);
        let enc = f.encode(&chain_trace());
        (model, enc)
    }

    #[test]
    fn session_matches_one_shot_counterfactual_bitwise() {
        let (model, enc) = model_and_enc();
        let mut sess = CfSession::new(&model, &enc);
        let cases: Vec<Vec<(usize, f32, f32)>> = vec![
            vec![],
            vec![(2, enc.d_star_scaled[2] - 1.0, 0.0)],
            vec![(3, -1.0, 0.0), (1, enc.d_star_scaled[1] * 0.5, 0.0)],
            vec![(2, enc.d_star_scaled[2], enc.e_star[2])], // identity
        ];
        for ov in &cases {
            let oracle = CfSession::new_eager(&model, &enc).predict_full(ov);
            assert_eq!(oracle, model.predict_counterfactual(&enc, ov), "one-shot {ov:?}");
            assert_eq!(oracle, sess.predict_full(ov), "reused session {ov:?}");
        }
    }

    #[test]
    fn noop_overrides_reproduce_observation_without_model_calls() {
        let (model, enc) = model_and_enc();
        let mut sess = CfSession::new(&model, &enc);
        let identity = [(2, enc.d_star_scaled[2], enc.e_star[2])];
        let root = sess.predict_root(&identity);
        assert_eq!(root.d_scaled, enc.d_scaled[0]);
        assert_eq!(root.error_prob, enc.e[0]);
        let full = sess.predict_full(&[]);
        assert_eq!(full.d_scaled, enc.d_scaled);
        assert_eq!(full.e_prob, enc.e);
        assert_eq!(sess.predict_calls(), 0, "identity queries are free");
        assert_eq!(sess.savings_bound_us(&identity), 0.0);
        assert_eq!(sess.observed_families(), 0, "identity queries abduce nothing");
    }

    #[test]
    fn delta_path_touches_only_the_ancestor_closure() {
        let (model, enc) = model_and_enc();
        let mut sess = CfSession::new(&model, &enc);
        // Leaf 3 ("auth"): closure is {3, 1, 0} — sibling subtree 2 untouched.
        let _ = sess.predict_root(&[(3, enc.d_star_scaled[3] - 2.0, 0.0)]);
        assert_eq!(sess.predict_calls(), 1);
        assert_eq!(sess.nodes_recomputed(), 3);
        // Only the closure's families were abduced: {1, 0}; leaf 3 has none.
        assert_eq!(sess.abduced_families().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(sess.observed_families(), 2);
    }

    #[test]
    fn savings_bound_dominates_actual_savings() {
        let (model, enc) = model_and_enc();
        let mut sess = CfSession::new(&model, &enc);
        let observed_us = unscale_f(enc.d_scaled[0]);
        // Restore the slow redis leaf to a fast exclusive duration.
        let ov = [(2, scale_log_f(1_000.0), 0.0)];
        let bound = sess.savings_bound_us(&ov);
        let cf_us = sess.predict_root(&ov).duration_us();
        let actual = (observed_us - cf_us).max(0.0);
        assert!(
            bound >= actual * 0.99,
            "monotone bound {bound} must dominate actual savings {actual}"
        );
        // And an untouched-trace query has nothing to recover.
        assert_eq!(sess.savings_bound_us(&[]), 0.0);
    }

    /// A few encoded traces from every scenario generator: the first
    /// faulted ones and one healthy one per schedule.
    fn scenario_encodings() -> &'static [EncodedTrace] {
        static ENC: OnceLock<Vec<EncodedTrace>> = OnceLock::new();
        ENC.get_or_init(|| {
            let mut f = Featurizer::new(ModelConfig::default().sem_dim);
            let mut out = Vec::new();
            for kind in ScenarioKind::ALL {
                let params = if kind == ScenarioKind::ThousandServices {
                    ScenarioParams {
                        num_rpcs: 1100,
                        app_seed: 1,
                        duration_us: 30_000_000,
                        base_rate_per_sec: 0.5,
                    }
                } else {
                    ScenarioParams {
                        duration_us: 120_000_000,
                        ..ScenarioParams::smoke()
                    }
                };
                let schedule = Scenario::generate(kind, &params, 42).schedule();
                let (faulted, healthy): (Vec<_>, Vec<_>) = schedule
                    .traces
                    .iter()
                    .partition(|t| !t.sim.ground_truth.services.is_empty());
                let picked = faulted.iter().take(3).chain(healthy.iter().take(1));
                let before = out.len();
                out.extend(picked.map(|t| f.encode(&t.sim.trace)));
                assert!(out.len() > before, "{} scheduled no traces", kind.name());
            }
            out
        })
    }

    fn models() -> &'static [SleuthModel; 2] {
        static M: OnceLock<[SleuthModel; 2]> = OnceLock::new();
        M.get_or_init(|| {
            let gcn = ModelConfig {
                aggregator: AggregatorKind::Gcn,
                ..ModelConfig::default()
            };
            [SleuthModel::new(&ModelConfig::default(), 5), SleuthModel::new(&gcn, 6)]
        })
    }

    fn bits(p: &TracePrediction) -> Vec<(u32, u32)> {
        p.d_scaled
            .iter()
            .zip(&p.e_prob)
            .map(|(d, e)| (d.to_bits(), e.to_bits()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// On traces of all six scenario generators, a lazily abducing
        /// session answers every query kind bit for bit as the eager
        /// oracle does, whatever order the queries arrive in — including
        /// a savings bound that is the first to reach a family's knees.
        #[test]
        fn lazy_session_matches_eager_oracle_bitwise(seed in 0u64..=u64::MAX) {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let model = &models()[rng.gen_range(0..2usize)];
            for enc in scenario_encodings() {
                let mut lazy = CfSession::new(model, enc);
                let mut eager = CfSession::new_eager(model, enc);
                for _ in 0..6 {
                    let mut ov = Vec::new();
                    for _ in 0..rng.gen_range(1..5usize) {
                        let i = rng.gen_range(0..enc.len());
                        ov.push(if rng.gen_bool(0.25) {
                            (i, enc.d_star_scaled[i], enc.e_star[i]) // identity
                        } else {
                            (i, enc.d_star_scaled[i] - rng.gen_range(0.0..2.0f32), 0.0)
                        });
                    }
                    match rng.gen_range(0..3u8) {
                        0 => {
                            let (a, b) = (lazy.savings_bound_us(&ov), eager.savings_bound_us(&ov));
                            prop_assert_eq!(a.to_bits(), b.to_bits());
                        }
                        1 => {
                            let (a, b) = (lazy.predict_root(&ov), eager.predict_root(&ov));
                            prop_assert_eq!(a.d_scaled.to_bits(), b.d_scaled.to_bits());
                            prop_assert_eq!(a.error_prob.to_bits(), b.error_prob.to_bits());
                        }
                        _ => {
                            let (a, b) = (lazy.predict_full(&ov), eager.predict_full(&ov));
                            prop_assert_eq!(bits(&a), bits(&b));
                        }
                    }
                }
                prop_assert!(lazy.observed_families() <= eager.observed_families());
                prop_assert!(lazy.abduced_families().all(|i| eager.abduced[i]));
            }
        }
    }
}
