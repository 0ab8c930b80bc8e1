//! Subtree pruning for counterfactual RCA (TraceDiag-style).
//!
//! The counterfactual search only ever restores spans whose exclusive
//! state deviates from the normal profile — an anomalous exclusive
//! duration (> 2× the operation's median) or an exclusive error.
//! Everything the search can do to a trace is therefore determined by
//! the set of such *restorable* spans, fixed once per localisation:
//!
//! * a subtree containing no restorable span can never receive an
//!   override, and (because the GNN counterfactual is abduced per node)
//!   can never change value — it is **pruned**: the delta-predict path
//!   in [`sleuth_gnn::CfSession`] never recomputes it;
//! * a candidate service none of whose affiliated spans are restorable
//!   has an empty override set; every counterfactual query about it is
//!   the identity and is answered from the observation with **zero**
//!   model evaluations;
//! * the surviving subgraph — the ancestor closure of the restorable
//!   spans — is exactly the region the session recomputes, so RCA cost
//!   scales with fault size, not trace size.
//!
//! [`SubtreeScan`] runs that analysis in one pass over the trace, and
//! is the localisation's *only* per-span pass. It records the facts
//! every later step reads:
//!
//! * exclusive durations and exclusive errors (§3.2.2), which the
//!   featurizer takes as the exclusive features instead of deriving
//!   them again;
//! * each span's profile median, which candidate ranking weighs excess
//!   duration against;
//! * the restorable spans in trace order, which each candidate's
//!   override list is filtered from, so building a candidate's
//!   overrides costs the fault's size, not a sweep of the trace.
//!
//! The scan prunes *work*, never *answers*: the candidate list and the
//! accept/eliminate control flow are untouched, which is what makes
//! pruned ≡ unpruned provable (and property-tested) rather than
//! approximate.

use sleuth_baselines::common::{OpKey, OpProfile};
use sleuth_trace::{exclusive, transform, Symbol, Trace};

/// Per-trace restorability analysis and span facts (see the module
/// docs).
#[derive(Debug)]
pub struct SubtreeScan {
    /// Exclusive duration per span (µs).
    ex_d: Vec<u64>,
    /// Exclusive error per span.
    ex_e: Vec<bool>,
    /// Normal-profile median exclusive duration per span (µs), 0 for
    /// operations the profile has not seen.
    median_us: Vec<u64>,
    /// Restoration override `(d*, e*)` per span, `None` when the span is
    /// already normal (restoring it would be the identity).
    restore: Vec<Option<(f32, f32)>>,
    /// Spans with a restoration override, ascending.
    restorable: Vec<usize>,
    /// Whether the span's subtree (self included) contains any
    /// restorable span — i.e. whether the branch survives pruning.
    live: Vec<bool>,
    live_spans: usize,
}

impl SubtreeScan {
    /// Scan `trace` against the normal-state `profile`.
    pub fn scan(trace: &Trace, profile: &OpProfile) -> SubtreeScan {
        let n = trace.len();
        let ex_d = exclusive::exclusive_durations(trace);
        let ex_e = exclusive::exclusive_errors(trace);
        let mut median_us = Vec::with_capacity(n);
        let mut restore = vec![None; n];
        let mut restorable = Vec::new();
        let mut live = vec![false; n];
        for (i, s) in trace.iter() {
            let med = profile
                .get(&OpKey::of(s))
                .map(|st| st.median_exclusive_us)
                .unwrap_or(0);
            median_us.push(med);
            // Only spans meaningfully above their normal state are
            // restored: touching already-normal spans would shave
            // ordinary median-to-observation noise off the whole
            // service and masquerade as counterfactual savings.
            let anomalous_duration = ex_d[i] > med.saturating_mul(2);
            if anomalous_duration || ex_e[i] {
                let target = if anomalous_duration { med } else { ex_d[i] };
                restore[i] = Some((transform::scale_duration(target), 0.0));
                restorable.push(i);
                live[i] = true;
            }
        }
        // Spans are stored parents-first, so a reverse sweep folds each
        // child's liveness into its parent: `live` becomes "subtree
        // contains restorable content" = the surviving subgraph.
        for i in (0..n).rev() {
            if live[i] {
                if let Some(p) = trace.parent(i) {
                    live[p] = true;
                }
            }
        }
        let live_spans = live.iter().filter(|&&l| l).count();
        SubtreeScan {
            ex_d,
            ex_e,
            median_us,
            restore,
            restorable,
            live,
            live_spans,
        }
    }

    /// Exclusive duration (µs) of every span.
    pub fn exclusive_durations(&self) -> &[u64] {
        &self.ex_d
    }

    /// Exclusive error flag of every span.
    pub fn exclusive_errors(&self) -> &[bool] {
        &self.ex_e
    }

    /// Normal-profile median exclusive duration (µs) of span `i`'s
    /// operation, 0 when the profile has not seen it.
    pub fn median_us(&self, i: usize) -> u64 {
        self.median_us[i]
    }

    /// Spans whose restoration is not the identity, ascending.
    pub fn restorable(&self) -> &[usize] {
        &self.restorable
    }

    /// The restoration override for span `i`, or `None` if restoring it
    /// is the identity.
    pub fn restore_target(&self, i: usize) -> Option<(f32, f32)> {
        self.restore[i]
    }

    /// Restorable excess exclusive duration of span `i` in µs: how far
    /// above its normal median the span sits, 0 for normal spans.
    pub fn excess_us(&self, i: usize) -> u64 {
        if self.restore[i].is_some() {
            self.ex_d[i].saturating_sub(self.median_us[i])
        } else {
            0
        }
    }

    /// Whether span `i`'s branch survives pruning (its subtree contains
    /// restorable content).
    pub fn is_live(&self, i: usize) -> bool {
        self.live[i]
    }

    /// Number of spans inside the surviving subgraph.
    pub fn live_spans(&self) -> usize {
        self.live_spans
    }

    /// Fraction of the trace's spans pruned away — branches the
    /// counterfactual search provably cannot touch.
    pub fn pruned_span_fraction(&self, trace: &Trace) -> f64 {
        if trace.is_empty() {
            return 0.0;
        }
        1.0 - self.live_spans as f64 / trace.len() as f64
    }

    /// Whether `service` survives pruning: at least one span affiliated
    /// with it (§3.5 affiliation — own spans, plus caller spans for
    /// callees) is restorable. A labelled fault's service must always
    /// survive, which the property suite asserts.
    pub fn service_survives(&self, trace: &Trace, service: Symbol) -> bool {
        self.restorable
            .iter()
            .any(|&i| affiliated_with(trace, i, service))
    }
}

/// Whether span `i` is affiliated with `service` (§3.5): its own
/// service, or — for a client span — any of its callees' services,
/// because failures at the callee (e.g. network faults) surface in the
/// caller's span without touching the callee's own spans.
pub(crate) fn affiliated_with(trace: &Trace, i: usize, service: Symbol) -> bool {
    let s = trace.span(i);
    s.service_sym() == service
        || (s.kind.is_caller()
            && trace
                .children(i)
                .iter()
                .any(|&c| trace.span(c).service_sym() == service))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleuth_trace::{Span, SpanKind};

    fn profile_from(traces: &[Trace]) -> OpProfile {
        OpProfile::fit(traces)
    }

    fn two_branch_trace(slow_us: u64) -> Trace {
        let spans = vec![
            Span::builder(1, 1, "root", "GET /").time(0, 1_000 + slow_us).build(),
            Span::builder(1, 2, "fast", "op")
                .parent(1)
                .kind(SpanKind::Client)
                .time(100, 400)
                .build(),
            Span::builder(1, 3, "slow", "op")
                .parent(1)
                .kind(SpanKind::Client)
                .time(100, 100 + slow_us)
                .build(),
        ];
        Trace::assemble(spans).unwrap()
    }

    #[test]
    fn normal_trace_prunes_everything() {
        let normals: Vec<Trace> = (0..8).map(|_| two_branch_trace(300)).collect();
        let profile = profile_from(&normals);
        let t = two_branch_trace(300);
        let scan = SubtreeScan::scan(&t, &profile);
        assert_eq!(scan.live_spans(), 0);
        assert_eq!(scan.pruned_span_fraction(&t), 1.0);
        assert!(!scan.service_survives(&t, Symbol::intern("slow")));
    }

    #[test]
    fn anomalous_branch_survives_with_its_ancestors() {
        let normals: Vec<Trace> = (0..8).map(|_| two_branch_trace(300)).collect();
        let profile = profile_from(&normals);
        let t = two_branch_trace(50_000);
        let scan = SubtreeScan::scan(&t, &profile);
        // The slow span and the root (its ancestor) are live; the fast
        // sibling branch is pruned.
        assert!(scan.is_live(0), "root must survive as ancestor");
        let slow_idx = (0..t.len())
            .find(|&i| t.span(i).service == "slow")
            .unwrap();
        let fast_idx = (0..t.len())
            .find(|&i| t.span(i).service == "fast")
            .unwrap();
        assert!(scan.is_live(slow_idx));
        assert!(!scan.is_live(fast_idx), "normal sibling branch is pruned");
        assert!(scan.restore_target(slow_idx).is_some());
        assert!(scan.restore_target(fast_idx).is_none());
        assert!(scan.excess_us(slow_idx) > 40_000);
        assert!(scan.service_survives(&t, Symbol::intern("slow")));
        // The caller affiliation keeps the root service alive too: the
        // slow span's parent is a caller of "slow".
        assert!(scan.service_survives(&t, Symbol::intern("root")) || !t.span(0).kind.is_caller());
    }
}
