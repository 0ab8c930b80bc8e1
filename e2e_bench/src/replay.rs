//! Single-threaded stage replay: the corpus driven through each
//! layer's public functions in the order the serving runtime calls
//! them, with one traced span per call.
//!
//! It is the verdict oracle of every run (the serving phases must
//! reproduce its verdict set exactly, as `ClusterPolicy::PerTrace`
//! guarantees) and, traced, the source of the per-layer metrics.

use std::collections::BTreeMap;

use sleuth_core::{SleuthPipeline, SubtreeScan};
use sleuth_gnn::{CfSession, Featurizer};
use sleuth_store::Collector;
use sleuth_trace::{Assembler, Span, Trace, TraceId};

use crate::corpus::{Corpus, Event, IDLE_TIMEOUT_US, NUM_SHARDS};
use crate::harness::Tracer;

/// Stage names of the replay, in path order.
pub const PARSE: &str = "trace.otlp_parse";
pub const COLLECT: &str = "store.collect";
pub const ASSEMBLE: &str = "trace.assemble";
pub const DETECT: &str = "core.detect";
pub const LOCALIZE: &str = "core.localize";
pub const REPLAY_ROOT: &str = "replay";
pub const LOCALIZE_AGAIN: &str = "core.localize_breakdown";
pub const FEATURIZE: &str = "gnn.featurize";
pub const SCAN: &str = "core.scan";
pub const SESSION: &str = "gnn.session_observed";
pub const BREAKDOWN_ROOT: &str = "localize_breakdown";

/// What one replay produced.
pub struct ReplayOutcome {
    /// Root-cause services per anomalous trace.
    pub verdicts: BTreeMap<TraceId, Vec<String>>,
    pub traces_completed: usize,
    pub assembly_failures: usize,
    /// Peak of pending (open) traces summed over shard collectors.
    pub open_traces_peak: usize,
    /// Per localisation: counterfactual model evaluations and pruned
    /// span fraction.
    pub predict_calls: Vec<f64>,
    pub pruned_span_fraction: Vec<f64>,
    /// The anomalous traces, for the localisation breakdown.
    pub anomalous: Vec<Trace>,
    pub wall_ns: u64,
}

/// Replay `corpus` through parse → collect → assemble → detect →
/// localise, one collector per shard exactly as the runtime routes
/// batches. Decoded batches are copied before the clock starts.
pub fn stage_replay(
    corpus: &Corpus,
    pipeline: &SleuthPipeline,
    tracer: &mut Tracer,
) -> ReplayOutcome {
    let mut owned = corpus.predecoded(&corpus.events);
    let mut collectors: Vec<Collector> = (0..NUM_SHARDS)
        .map(|_| Collector::new(IDLE_TIMEOUT_US))
        .collect();
    let mut assembler = Assembler::new();
    let detector = pipeline.detector();
    let rca = pipeline.rca();
    let mut out = ReplayOutcome {
        verdicts: BTreeMap::new(),
        traces_completed: 0,
        assembly_failures: 0,
        open_traces_peak: 0,
        predict_calls: Vec::new(),
        pruned_span_fraction: Vec::new(),
        anomalous: Vec::new(),
        wall_ns: 0,
    };

    let started = std::time::Instant::now();
    let root = tracer.open(REPLAY_ROOT, None, 0);
    let mut finish = |done: Vec<Vec<Span>>, tracer: &mut Tracer, out: &mut ReplayOutcome| {
        for spans in done {
            let id = spans.first().map_or(0, |s| s.trace_id);
            let trace = match tracer.call(ASSEMBLE, Some(root), id, || assembler.assemble(spans)) {
                Ok(t) => t,
                Err(_) => {
                    out.assembly_failures += 1;
                    continue;
                }
            };
            out.traces_completed += 1;
            if !tracer.call(DETECT, Some(root), id, || detector.is_anomalous(&trace)) {
                continue;
            }
            let report = tracer.call(LOCALIZE, Some(root), id, || rca.localize_report(&trace));
            out.predict_calls.push(report.predict_calls as f64);
            out.pruned_span_fraction.push(report.pruned_span_fraction);
            out.verdicts.insert(id, report.services);
            out.anomalous.push(trace);
        }
    };
    for ev in &corpus.events {
        match *ev {
            Event::Batch(i) => {
                let b = &corpus.batches[i];
                let spans = match owned[i].take() {
                    Some(spans) => spans,
                    None => tracer.call(PARSE, Some(root), 0, || b.spans_owned()),
                };
                let collector = &mut collectors[b.shard];
                let done = tracer.call(COLLECT, Some(root), 0, || {
                    collector.ingest_batch(spans, b.now_us);
                    collector.poll_complete(b.now_us)
                });
                let open: usize = collectors.iter().map(Collector::pending_traces).sum();
                out.open_traces_peak = out.open_traces_peak.max(open);
                finish(done, tracer, &mut out);
            }
            Event::Tick(now_us) => {
                for collector in &mut collectors {
                    let done =
                        tracer.call(COLLECT, Some(root), 0, || collector.poll_complete(now_us));
                    finish(done, tracer, &mut out);
                }
            }
        }
    }
    for collector in &mut collectors {
        let done = tracer.call(COLLECT, Some(root), 0, || collector.flush());
        finish(done, tracer, &mut out);
    }
    tracer.close(root);
    out.wall_ns = started.elapsed().as_nanos() as u64;
    out
}

/// Per-localisation cost split, µs per localisation.
pub struct Breakdown {
    pub localize_us: f64,
    pub featurize_us: f64,
    pub scan_us: f64,
    pub session_observed_us: f64,
}

impl Breakdown {
    /// What `localize_report` spends beyond its first three steps:
    /// candidate ranking, the counterfactual queries and the search.
    pub fn search_us(&self) -> f64 {
        self.localize_us - self.featurize_us - self.scan_us - self.session_observed_us
    }
}

/// Time `localize_report` and, right after it on the same trace, its
/// first three steps — encoding, the subtree scan and the session's
/// observed pass — from outside, on every anomalous trace. The
/// featurizer's embedding cache is warmed first, as the serving
/// pipeline's is by its fit.
pub fn localize_breakdown(
    anomalous: &[Trace],
    pipeline: &SleuthPipeline,
    sem_dim: usize,
    tracer: &mut Tracer,
) -> Breakdown {
    let rca = pipeline.rca();
    let mut featurizer = Featurizer::new(sem_dim);
    for t in anomalous {
        featurizer.encode(t);
    }
    let root = tracer.open(BREAKDOWN_ROOT, None, 0);
    for t in anomalous {
        let id = t.trace_id();
        let report = tracer.call(LOCALIZE_AGAIN, Some(root), id, || rca.localize_report(t));
        std::hint::black_box(&report);
        let enc = tracer.call(FEATURIZE, Some(root), id, || featurizer.encode(t));
        let scan = tracer.call(SCAN, Some(root), id, || SubtreeScan::scan(t, rca.profile()));
        std::hint::black_box(&scan);
        let session = tracer.call(SESSION, Some(root), id, || {
            CfSession::new(rca.model(), &enc)
        });
        std::hint::black_box(&session);
    }
    tracer.close(root);
    let per_loc = |stage| tracer.total_ns(stage) as f64 / 1e3 / anomalous.len().max(1) as f64;
    Breakdown {
        localize_us: per_loc(LOCALIZE_AGAIN),
        featurize_us: per_loc(FEATURIZE),
        scan_us: per_loc(SCAN),
        session_observed_us: per_loc(SESSION),
    }
}
