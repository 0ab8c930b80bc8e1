//! Counterfactual RCA localisation benchmark: adaptive subtree
//! pruning + reusable encodings vs the legacy full-re-prediction
//! search, on the thousand-service soak scenario.
//!
//! Prints machine-readable lines for `scripts/bench.sh` to assemble
//! `BENCH_rca.json`:
//!
//! ```text
//! RCA_BENCH mode=pruned traces=142 calls=169 calls_per_trace=1.19 p50_us=2134 p99_us=4224 pruned_span_fraction=0.94
//! RCA_BENCH mode=unpruned traces=142 calls=882 calls_per_trace=6.21 p50_us=7339 p99_us=14467 pruned_span_fraction=0.94
//! RCA_BENCH summary call_ratio=0.19 speedup=3.4 identical_sets=1 observed_family_fraction=0.019
//! ```
//!
//! Both modes run the *same* candidate ranking and accept logic; the
//! pruned mode reuses one cached trace encoding per localisation and
//! answers repeated counterfactual queries as deltas over the live
//! candidate mask. `identical_sets=1` certifies that every verdict
//! matched span-for-span — the speedup is free.
//! `observed_family_fraction` is the share of the pruned mode's trace
//! families whose observed pass its sessions ran: abduction is lazy and
//! closure-only, so it tracks the fault's size, not the trace's.

use std::time::Instant;

use sleuth_core::pipeline::{PipelineConfig, SleuthPipeline};
use sleuth_core::CounterfactualRca;
use sleuth_gnn::TrainConfig;
use sleuth_synth::scenario::{Scenario, ScenarioKind, ScenarioParams};
use sleuth_trace::Trace;

fn percentile(sorted: &[u128], p: f64) -> u128 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

struct ModeStats {
    calls: u64,
    latencies_us: Vec<u128>,
    pruned_fraction_sum: f64,
    families: u64,
    observed_families: u64,
    verdicts: Vec<Vec<String>>,
}

fn run_mode(rca: &CounterfactualRca, traces: &[&Trace]) -> ModeStats {
    let mut stats = ModeStats {
        calls: 0,
        latencies_us: Vec::with_capacity(traces.len()),
        pruned_fraction_sum: 0.0,
        families: 0,
        observed_families: 0,
        verdicts: Vec::with_capacity(traces.len()),
    };
    for trace in traces {
        let started = Instant::now();
        let report = rca.localize_report(trace);
        stats.latencies_us.push(started.elapsed().as_micros());
        stats.calls += report.predict_calls;
        stats.pruned_fraction_sum += report.pruned_span_fraction;
        stats.families += (0..trace.len())
            .filter(|&i| !trace.children(i).is_empty())
            .count() as u64;
        stats.observed_families += report.observed_families;
        stats.verdicts.push(report.services);
    }
    stats.latencies_us.sort_unstable();
    stats
}

fn main() {
    // The generator forces the ~1000-service topology regardless of
    // the traffic knobs; a short window keeps the schedule bounded.
    let params = ScenarioParams {
        num_rpcs: 1100,
        app_seed: 1,
        duration_us: 300_000_000,
        base_rate_per_sec: 0.5,
    };
    let scenario = Scenario::generate(ScenarioKind::ThousandServices, &params, 42);

    let train = scenario.training_corpus(48);
    let config = PipelineConfig {
        train: TrainConfig { epochs: 4, batch_traces: 32, lr: 1e-2, seed: 0 },
        ..PipelineConfig::default()
    };
    let mut pipeline = SleuthPipeline::fit(&train, &config);
    pipeline.detector_mut().slo_multiplier = 3.0;

    let schedule = scenario.schedule();
    let traces: Vec<&Trace> = schedule.traces.iter().map(|st| &st.sim.trace).collect();
    eprintln!(
        "rca bench: {} services, {} scheduled traces",
        scenario.app.num_services(),
        traces.len()
    );

    let base = pipeline.rca();
    let mut pruned_rca = base.with_profile(base.profile().clone());
    pruned_rca.prune = true;
    let mut legacy_rca = base.with_profile(base.profile().clone());
    legacy_rca.prune = false;

    let pruned = run_mode(&pruned_rca, &traces);
    let unpruned = run_mode(&legacy_rca, &traces);

    let identical = pruned.verdicts == unpruned.verdicts;
    let n = traces.len() as f64;
    for (mode, s) in [("pruned", &pruned), ("unpruned", &unpruned)] {
        println!(
            "RCA_BENCH mode={mode} traces={} calls={} calls_per_trace={:.3} \
             p50_us={} p99_us={} pruned_span_fraction={:.4}",
            traces.len(),
            s.calls,
            s.calls as f64 / n,
            percentile(&s.latencies_us, 0.50),
            percentile(&s.latencies_us, 0.99),
            s.pruned_fraction_sum / n,
        );
    }
    let p50_pruned = percentile(&pruned.latencies_us, 0.50).max(1) as f64;
    let p50_unpruned = percentile(&unpruned.latencies_us, 0.50) as f64;
    println!(
        "RCA_BENCH summary call_ratio={:.4} speedup={:.2} identical_sets={} \
         observed_family_fraction={:.4}",
        pruned.calls as f64 / (unpruned.calls as f64).max(1.0),
        p50_unpruned / p50_pruned,
        u8::from(identical),
        pruned.observed_families as f64 / (pruned.families as f64).max(1.0),
    );
    assert!(identical, "pruned and unpruned verdicts diverged");
}
