//! Pruning-soundness property suite for the counterfactual RCA.
//!
//! Across **all six** `sleuth_synth::scenario` generators and multiple
//! seeds:
//!
//! * subtree-pruned localisation returns the *identical* root-cause
//!   service set as the unpruned (legacy full-re-prediction) search —
//!   pruning reduces work, never answers;
//! * the pruned search never issues more counterfactual model
//!   evaluations than the legacy search, and on the thousand-service
//!   scenario uses at most half of them in aggregate;
//! * a labelled fault's subtree is never pruned: whenever a trace
//!   carries ground truth and trips the anomaly detector, every
//!   labelled service survives the [`SubtreeScan`];
//! * the pruned search's session abduces no more families than the
//!   scan's surviving subgraph holds, and none when no span is
//!   restorable.

use std::sync::{Arc, OnceLock};

use sleuth::core::pipeline::SleuthPipeline;
use sleuth::core::{CounterfactualRca, SubtreeScan};
use sleuth::soak::fit_pipeline;
use sleuth::synth::scenario::{Scenario, ScenarioKind, ScenarioParams, ScheduledTrace};
use sleuth::trace::Symbol;

const SEEDS: [u64; 2] = [42, 7];

/// Test-scale params for the five small kinds (shared app ⇒ one fitted
/// pipeline serves them all).
fn params() -> ScenarioParams {
    ScenarioParams {
        duration_us: 240_000_000,
        ..ScenarioParams::smoke()
    }
}

/// Reduced thousand-service scale: the generator still forces the
/// ~1000-service topology; we only shorten the traffic window so the
/// debug-mode test budget holds.
fn thousand_params() -> ScenarioParams {
    ScenarioParams {
        num_rpcs: 1100,
        app_seed: 1,
        duration_us: 60_000_000,
        base_rate_per_sec: 0.5,
    }
}

fn small_pipeline() -> Arc<SleuthPipeline> {
    static P: OnceLock<Arc<SleuthPipeline>> = OnceLock::new();
    Arc::clone(P.get_or_init(|| {
        let probe = Scenario::generate(ScenarioKind::DiurnalFlash, &params(), 0);
        fit_pipeline(&probe, 96, 6, 3.0)
    }))
}

fn thousand_pipeline() -> Arc<SleuthPipeline> {
    static P: OnceLock<Arc<SleuthPipeline>> = OnceLock::new();
    Arc::clone(P.get_or_init(|| {
        let probe = Scenario::generate(ScenarioKind::ThousandServices, &thousand_params(), 0);
        fit_pipeline(&probe, 24, 2, 3.0)
    }))
}

/// Equivalence is a property of the search, not of model quality, so a
/// quickly-fitted model is a fair (and cheap) witness. Sample a
/// bounded mix of fault-carrying and healthy traces per schedule.
fn sample(traces: &[ScheduledTrace]) -> Vec<&ScheduledTrace> {
    let faulted = traces
        .iter()
        .filter(|t| !t.sim.ground_truth.services.is_empty())
        .take(10);
    let healthy = traces
        .iter()
        .filter(|t| t.sim.ground_truth.services.is_empty())
        .take(6);
    faulted.chain(healthy).collect()
}

/// Two localisers off one pipeline: identical model/profile, pruning
/// on vs off.
fn rca_pair(pipeline: &SleuthPipeline) -> (CounterfactualRca, CounterfactualRca) {
    let rca = pipeline.rca();
    let mut pruned = rca.with_profile(rca.profile().clone());
    pruned.prune = true;
    let mut legacy = rca.with_profile(rca.profile().clone());
    legacy.prune = false;
    (pruned, legacy)
}

struct KindStats {
    calls_pruned: u64,
    calls_legacy: u64,
    traces: usize,
    survives_checked: usize,
}

fn check_kind(kind: ScenarioKind, seed: u64, pipeline: &SleuthPipeline) -> KindStats {
    let p = if kind == ScenarioKind::ThousandServices {
        thousand_params()
    } else {
        params()
    };
    let scenario = Scenario::generate(kind, &p, seed);
    let schedule = scenario.schedule();
    let (pruned_rca, legacy_rca) = rca_pair(pipeline);
    let mut stats = KindStats {
        calls_pruned: 0,
        calls_legacy: 0,
        traces: 0,
        survives_checked: 0,
    };
    for st in sample(&schedule.traces) {
        stats.traces += 1;
        let trace = &st.sim.trace;
        let pruned = pruned_rca.localize_report(trace);
        let legacy = legacy_rca.localize_report(trace);
        assert_eq!(
            pruned.services, legacy.services,
            "{}-s{seed} trace {}: pruning changed the verdict",
            kind.name(),
            trace.trace_id()
        );
        assert!(
            pruned.predict_calls <= legacy.predict_calls,
            "{}-s{seed} trace {}: pruned used {} calls, legacy {}",
            kind.name(),
            trace.trace_id(),
            pruned.predict_calls,
            legacy.predict_calls
        );
        stats.calls_pruned += pruned.predict_calls;
        stats.calls_legacy += legacy.predict_calls;

        // The session abduces families only inside the surviving
        // subgraph, and none when nothing is restorable.
        let scan = SubtreeScan::scan(trace, pruned_rca.profile());
        let live_families = (0..trace.len())
            .filter(|&i| scan.is_live(i) && !trace.children(i).is_empty())
            .count();
        assert!(
            pruned.observed_families as usize <= live_families,
            "{}-s{seed} trace {}: abduced {} families, only {live_families} survive the scan",
            kind.name(),
            trace.trace_id(),
            pruned.observed_families
        );
        if scan.restorable().is_empty() {
            assert_eq!(pruned.observed_families, 0);
        }

        // A labelled, detector-visible fault must survive the scan.
        let gt = &st.sim.ground_truth.services;
        if !gt.is_empty() && pipeline.detector().is_anomalous(trace) {
            for svc in gt {
                stats.survives_checked += 1;
                assert!(
                    scan.service_survives(trace, Symbol::intern(svc)),
                    "{}-s{seed} trace {}: labelled fault {svc} was pruned",
                    kind.name(),
                    trace.trace_id()
                );
            }
        }
    }
    stats
}

#[test]
fn pruned_rca_is_equivalent_on_all_small_scenarios() {
    let mut traces = 0;
    let mut survives = 0;
    for kind in ScenarioKind::SMALL {
        for seed in SEEDS {
            let s = check_kind(kind, seed, &small_pipeline());
            assert!(
                s.calls_pruned <= s.calls_legacy,
                "{}-s{seed}: pruned aggregate {} exceeds legacy {}",
                kind.name(),
                s.calls_pruned,
                s.calls_legacy
            );
            assert!(s.traces > 0, "{}-s{seed}: empty schedule", kind.name());
            traces += s.traces;
            survives += s.survives_checked;
        }
    }
    // The suite must not pass vacuously: the fault-survival clause has
    // to have fired on real detector-visible labelled faults.
    assert!(traces >= 50, "only {traces} traces sampled across the suite");
    assert!(survives > 0, "no labelled fault was ever checked for survival");
}

#[test]
fn pruned_rca_is_equivalent_and_halves_calls_on_thousand_services() {
    let mut total_pruned = 0u64;
    let mut total_legacy = 0u64;
    for seed in SEEDS {
        let s = check_kind(ScenarioKind::ThousandServices, seed, &thousand_pipeline());
        assert!(s.traces > 0, "thousand_services-s{seed}: empty schedule");
        total_pruned += s.calls_pruned;
        total_legacy += s.calls_legacy;
    }
    assert!(
        total_legacy > 0,
        "thousand-service schedules produced no counterfactual queries"
    );
    assert!(
        2 * total_pruned <= total_legacy,
        "pruned RCA used {total_pruned} predict calls vs {total_legacy} unpruned — \
         expected at most half"
    );
}
