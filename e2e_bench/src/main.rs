//! End-to-end benchmark of the Sleuth serving stack.
//!
//! ```text
//! sleuth-e2e-bench --workload <thousand_rca|small_otlp|small_wire> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its workload's corpus from the seed (untimed), sets
//! up the pipeline and serving stack several times (`setup_s` is the
//! median), replays the corpus once through the layers' public
//! functions on one thread (the verdict oracle), and then:
//!
//! * `--trace 0`: paced open-loop phases at the workload's offered
//!   span rate and closed-loop capacity phases, interleaved, until
//!   `--seconds` of measurement have passed; prints the end-to-end
//!   metrics: verdict latency percentiles of the paced phases' pooled
//!   samples, the rest medians over phases (CPU time per span over the
//!   capacity phases, where the cores are busy and idle wake-ups do
//!   not count);
//! * `--trace 1`: the stage replay again with a span per call, the
//!   localisation breakdown, a paced phase with every serving call
//!   timed, and probes of the layers off the workload's own path;
//!   prints the per-layer metrics and writes the spans to
//!   `.bench_out/`.
//!
//! Every phase's outputs are checked (span conservation, exactly-once
//! verdicts, verdicts identical to the oracle's); on any failure the
//! run exits non-zero without printing metrics. The last stdout line
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod corpus;
mod harness;
mod replay;
mod serving;

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use sleuth_core::pipeline::{PipelineConfig, SleuthPipeline};
use sleuth_eval::EvalAccumulator;
use sleuth_gnn::TrainConfig;
use sleuth_trace::formats::{from_otel_json, to_otel_json};
use sleuth_trace::{Trace, TraceId};
use sleuth_wire::{
    decode_frame_bytes, encode_frame, fnv1a64, Frame, Msg, DEFAULT_MAX_FRAME_LEN, PROTOCOL_VERSION,
};

use corpus::{Corpus, Path, Workload};
use harness::{mean, median, percentile, Tracer};
use replay::ReplayOutcome;
use serving::{run_phase, DrainTarget, Mode, PhaseResult, Stack};

/// Root-cause services per anomalous trace.
type Verdicts = BTreeMap<TraceId, Vec<String>>;

/// Set-up repeats at least this often and for at least this long
/// (`setup_s` and `gnn.fit_s` are medians over the repeats): a cheap
/// set-up (~0.05 s for the 64-RPC app) gets enough repeats for a
/// steady median.
const MIN_SETUP_REPS: usize = 3;
const MIN_SETUP_SECS: f64 = 5.0;
/// Minimum paced passes per run; more run while the measurement
/// budget lasts.
const MIN_PACED_PASSES: usize = 2;
/// Spans in the bounded samples that probe layers off a workload's
/// own path.
const PROBE_SPANS: usize = 200_000;
/// Detector SLO widening over the learned root p95, as the soak
/// harness serves scenarios.
const SLO_MULTIPLIER: f64 = 3.0;
/// Healthy traces and GNN epochs of the pipeline fit (the soak
/// harness's defaults).
const TRAIN_TRACES: usize = 160;
const TRAIN_EPOCHS: usize = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: sleuth-e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("CHECK FAILED: {e}");
            std::process::exit(1);
        }
    }
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    fn to_json(&self, attempted: usize, failed: usize) -> Result<String, String> {
        let mut body = String::new();
        for (i, m) in self.0.iter().enumerate() {
            if !harness::valid_metric_name(&m.name) {
                return Err(format!("invalid metric name {:?}", m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                body,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
        ))
    }
}

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        train: TrainConfig {
            epochs: TRAIN_EPOCHS,
            batch_traces: 32,
            lr: 1e-2,
            seed: 0,
        },
        ..PipelineConfig::default()
    }
}

fn fit(train: &[Trace]) -> SleuthPipeline {
    let mut pipeline = SleuthPipeline::fit(train, &pipeline_config());
    pipeline.detector_mut().slo_multiplier = SLO_MULTIPLIER;
    pipeline
}

fn run(args: &Args) -> Result<String, String> {
    let workload = Workload::by_name(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let wire = workload.path == Path::OtlpWire;

    // ---- Corpus: untimed, outside set-up. ---------------------------
    let built = Instant::now();
    let (corpus, fit_scenario) = corpus::build(&workload, args.seed);
    let train = fit_scenario.training_corpus(TRAIN_TRACES);
    let bytes_per_span = corpus.otlp_bytes as f64 / corpus.spans as f64;
    println!(
        "CORPUS workload={} seed={} traces={} spans={} spans_per_trace={:.1} faulted_share={:.4} \
         otlp_bytes_per_span={:.1} batches={} events={} build_s={:.2}",
        workload.name,
        args.seed,
        corpus.traces(),
        corpus.spans,
        corpus.spans as f64 / corpus.traces() as f64,
        corpus.faulted_traces as f64 / corpus.traces() as f64,
        bytes_per_span,
        corpus.batches.len(),
        corpus.events.len(),
        built.elapsed().as_secs_f64()
    );
    let serve = if wire {
        serving::shard_server_config()
    } else {
        serving::serve_config()
    };
    println!(
        "CONFIG offered_spans_per_s={} collectors={} shard_queue_capacity={} rca_queue_capacity={} \
         rca_workers={} idle_timeout_us={} shed_policy={:?} cluster_policy={:?} window_us={} \
         tick_us={} train_traces={TRAIN_TRACES} epochs={TRAIN_EPOCHS} \
         slo_multiplier={SLO_MULTIPLIER} setup_min_reps={MIN_SETUP_REPS} setup_min_s={MIN_SETUP_SECS}",
        workload.paced_spans_per_s,
        serving::shards(wire),
        serve.shard_queue_capacity,
        serve.rca_queue_capacity,
        serve.rca_workers,
        serve.idle_timeout_us,
        serve.shed_policy,
        serve.cluster_policy,
        corpus::WINDOW_US,
        corpus::TICK_US,
    );

    // ---- Set-up: pipeline fit plus stack start, repeated. -----------
    let mut setup_s = Vec::new();
    let mut fit_s = Vec::new();
    let mut pipeline = None;
    while setup_s.len() < MIN_SETUP_REPS || setup_s.iter().sum::<f64>() < MIN_SETUP_SECS {
        let t = Instant::now();
        let p = Arc::new(fit(&train));
        fit_s.push(t.elapsed().as_secs_f64());
        let stack = Stack::start(&p, wire);
        setup_s.push(t.elapsed().as_secs_f64());
        stack.shutdown();
        pipeline = Some(p);
    }
    let pipeline = pipeline.expect("at least one set-up");

    // ---- The oracle: single-threaded stage replay. ------------------
    let reference = replay::stage_replay(&corpus, &pipeline, &mut Tracer::new(false));
    if reference.assembly_failures > 0 || reference.traces_completed != corpus.traces() {
        return Err(format!(
            "stage replay assembled {} of {} traces ({} failures)",
            reference.traces_completed,
            corpus.traces(),
            reference.assembly_failures
        ));
    }
    println!(
        "REFERENCE anomalous={} anomalous_share={:.4} replay_s={:.3} verdict_digest={:016x}",
        reference.verdicts.len(),
        reference.verdicts.len() as f64 / corpus.traces() as f64,
        reference.wall_ns as f64 / 1e9,
        digest(&reference.verdicts)
    );

    let mut metrics = Metrics::default();
    let (attempted, failed) = if args.trace {
        traced_run(
            args,
            &workload,
            &corpus,
            &pipeline,
            &reference,
            &fit_s,
            &mut metrics,
        )?
    } else {
        end_to_end_run(
            args,
            &workload,
            &corpus,
            &pipeline,
            &reference,
            &setup_s,
            &mut metrics,
        )?
    };
    metrics.to_json(attempted, failed)
}

/// Order-independent fingerprint of a verdict set, printed so runs in
/// separate processes (`small_otlp` and `small_wire`) can be compared.
fn digest(verdicts: &Verdicts) -> u64 {
    let mut text = String::new();
    for (id, services) in verdicts {
        let _ = writeln!(text, "{id}:{}", services.join(","));
    }
    fnv1a64(text.as_bytes())
}

/// Check one serving phase against the oracle's verdicts on the
/// phase's traces and count its failed traces. Errors are correctness
/// failures; failed traces (refused, quarantined, or anomalous without
/// a full verdict) are not.
fn check_phase(
    label: &str,
    phase: &PhaseResult,
    expected_spans: usize,
    reference: &Verdicts,
) -> Result<usize, String> {
    let m = &phase.finished.metrics;
    let accounted = m.spans_stored
        + m.spans_rejected
        + m.spans_shed
        + m.spans_evicted
        + m.spans_deduped
        + m.spans_quarantined;
    if m.spans_submitted != accounted {
        return Err(format!(
            "{label}: span conservation: submitted {} != stored {} + rejected {} + shed {} + \
             evicted {} + deduped {} + quarantined {}",
            m.spans_submitted,
            m.spans_stored,
            m.spans_rejected,
            m.spans_shed,
            m.spans_evicted,
            m.spans_deduped,
            m.spans_quarantined
        ));
    }
    if m.spans_stored != phase.finished.stored_spans {
        return Err(format!(
            "{label}: {} spans counted stored, {} in the stores",
            m.spans_stored, phase.finished.stored_spans
        ));
    }
    let mut seen = HashSet::new();
    let mut full = HashSet::new();
    for (v, _) in &phase.verdicts {
        if !seen.insert(v.trace_id) {
            return Err(format!(
                "{label}: duplicate verdict for trace {}",
                v.trace_id
            ));
        }
        if v.degraded {
            continue;
        }
        match reference.get(&v.trace_id) {
            Some(services) if *services == v.services => {
                full.insert(v.trace_id);
            }
            Some(services) => {
                return Err(format!(
                    "{label}: trace {} blamed {:?}, the stage replay {:?}",
                    v.trace_id, v.services, services
                ))
            }
            None => {
                return Err(format!(
                    "{label}: verdict for trace {} that the stage replay found normal",
                    v.trace_id
                ))
            }
        }
    }
    let mut failed: HashSet<TraceId> = phase.refused.clone();
    failed.extend(phase.finished.quarantined.iter().filter_map(|q| q.trace_id));
    failed.extend(reference.keys().filter(|id| !full.contains(id)));
    // Spans lost without a trace id (shed or evicted) fail at least one
    // trace each time they occur.
    let lost_untracked = usize::from(m.spans_shed + m.spans_evicted > 0);
    let failed = failed.len() + lost_untracked;
    if m.spans_stored != expected_spans as u64 && failed == 0 {
        return Err(format!(
            "{label}: stored {} spans of {expected_spans} with no failed trace",
            m.spans_stored
        ));
    }
    if phase.drain_timed_out && failed == 0 {
        return Err(format!("{label}: drain timed out with no failed trace"));
    }
    Ok(failed)
}

/// Verdict latency of each full verdict, ms: from the due time of the
/// message that finalized its trace to its receipt.
fn verdict_latencies_ms(
    phase: &PhaseResult,
    finalizing: &std::collections::HashMap<TraceId, usize>,
) -> Vec<f64> {
    phase
        .verdicts
        .iter()
        .filter(|(v, _)| !v.degraded)
        .filter_map(|(v, at)| {
            let due = phase.due[*finalizing.get(&v.trace_id)?];
            Some(at.saturating_duration_since(due).as_secs_f64() * 1e3)
        })
        .collect()
}

fn rca_accuracy(corpus: &Corpus, reference: &ReplayOutcome) -> EvalAccumulator {
    let mut acc = EvalAccumulator::new();
    for (id, services) in &reference.verdicts {
        acc.add_query(services, &corpus.truth[id]);
    }
    acc
}

/// What the passes of an end-to-end run add up to.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    /// Spans per second of each capacity pass.
    capacity: Vec<f64>,
    /// CPU time per span of each capacity pass, us.
    cpu: Vec<f64>,
    /// Peak memory growth of every pass, MB.
    rss: Vec<f64>,
}

/// One checked capacity pass on a fresh stack, added to `tally`;
/// returns its duration from first submit to drain, s.
fn capacity_pass(
    tally: &mut Tally,
    pipeline: &Arc<SleuthPipeline>,
    wire: bool,
    corpus: &Corpus,
    reference: &ReplayOutcome,
) -> Result<f64, String> {
    let target = DrainTarget {
        verdicts: reference.verdicts.len(),
        traces: corpus.traces() as u64,
    };
    let rep = run_phase(
        pipeline,
        wire,
        corpus,
        &corpus.events,
        Mode::Capacity,
        target,
    );
    tally.failed += check_phase("capacity", &rep, corpus.spans, &reference.verdicts)?;
    tally.attempted += corpus.traces();
    let secs = rep.drained.duration_since(rep.first_submit).as_secs_f64();
    let spans_per_s = corpus.spans as f64 / secs;
    let cpu_us_per_span = rep.cpu_us as f64 / corpus.spans as f64;
    tally.capacity.push(spans_per_s);
    tally.cpu.push(cpu_us_per_span);
    tally.rss.push(rep.peak_rss_mb);
    println!(
        "CAPACITY pass={} spans_per_s={spans_per_s:.0} resubmits={} \
         cpu_us_per_span={cpu_us_per_span:.3} rss_growth_mb={:.1}",
        tally.capacity.len(),
        rep.resubmits,
        rep.peak_rss_mb
    );
    Ok(secs)
}

#[allow(clippy::too_many_arguments)]
fn end_to_end_run(
    args: &Args,
    workload: &Workload,
    corpus: &Corpus,
    pipeline: &Arc<SleuthPipeline>,
    reference: &ReplayOutcome,
    setup_s: &[f64],
    metrics: &mut Metrics,
) -> Result<(usize, usize), String> {
    let wire = workload.path == Path::OtlpWire;
    let target = DrainTarget {
        verdicts: reference.verdicts.len(),
        traces: corpus.traces() as u64,
    };
    let paced_mode = Mode::Paced {
        spans_per_s: workload.paced_spans_per_s,
    };
    let finalizing = corpus.finalizing_events(serving::shards(wire));
    // Verdict latencies of every paced pass, pooled: the percentiles
    // have the samples of the whole run behind them.
    let mut latencies = Vec::new();
    let mut tally = Tally::default();
    // Paced and capacity passes, each on a fresh stack, until the
    // budget is spent. Paced passes take three quarters of the time
    // (their latency percentiles need the samples): whichever kind is
    // behind its share runs next if its longest pass so far fits in
    // what is left, else the other kind. Every metric is a median over
    // passes (or pooled over them), so a pass disturbed by other load
    // on the host moves it little.
    let measured = Instant::now();
    let budget_s = args.seconds as f64;
    let mut paced_passes = 0;
    let (mut paced_s, mut capacity_s) = (0.0, 0.0);
    let (mut paced_max_s, mut capacity_max_s) = (0.0f64, 0.0f64);
    loop {
        let left = budget_s - measured.elapsed().as_secs_f64();
        let paced_fits = paced_passes < MIN_PACED_PASSES || paced_max_s <= left;
        let capacity_fits = tally.capacity.is_empty() || capacity_max_s <= left;
        let paced_next = if paced_fits && capacity_fits {
            paced_s <= 3.0 * capacity_s
        } else if paced_fits || capacity_fits {
            paced_fits
        } else {
            break;
        };
        let started = Instant::now();
        if !paced_next {
            capacity_pass(&mut tally, pipeline, wire, corpus, reference)?;
            let pass_s = started.elapsed().as_secs_f64();
            capacity_s += pass_s;
            capacity_max_s = capacity_max_s.max(pass_s);
            continue;
        }
        paced_passes += 1;
        let paced = run_phase(pipeline, wire, corpus, &corpus.events, paced_mode, target);
        tally.failed += check_phase("paced", &paced, corpus.spans, &reference.verdicts)?;
        tally.attempted += corpus.traces();
        let pass = verdict_latencies_ms(&paced, &finalizing);
        let pass_ms = |q| percentile(&pass, q).unwrap_or(f64::NAN);
        tally.rss.push(paced.peak_rss_mb);
        let offered_s = paced
            .drained
            .duration_since(paced.first_submit)
            .as_secs_f64();
        println!(
            "PACED pass={paced_passes} offered_spans_per_s={} achieved_spans_per_s={:.0} verdict_samples={} \
             p50_ms={:.3} p95_ms={:.3} late_p99_ms={:.3} resubmits={} cpu_us_per_span={:.3} rss_growth_mb={:.1}",
            workload.paced_spans_per_s,
            corpus.spans as f64 / offered_s,
            pass.len(),
            pass_ms(0.50),
            pass_ms(0.95),
            paced.lateness.p99_ms().unwrap_or(f64::NAN),
            paced.resubmits,
            paced.cpu_us as f64 / corpus.spans as f64,
            paced.peak_rss_mb
        );
        latencies.extend(pass);
        let pass_s = started.elapsed().as_secs_f64();
        paced_s += pass_s;
        paced_max_s = paced_max_s.max(pass_s);
    }
    let Tally {
        attempted,
        failed,
        capacity,
        cpu,
        rss,
    } = tally;

    let acc = rca_accuracy(corpus, reference);
    metrics.add("setup_s", median(setup_s), "s");
    metrics.add("capacity_spans_per_s", median(&capacity), "spans/s");
    let p50 = percentile(&latencies, 0.50).map_err(|e| format!("verdict latency p50: {e}"))?;
    let p95 = percentile(&latencies, 0.95).map_err(|e| format!("verdict latency p95: {e}"))?;
    println!(
        "LATENCY paced_passes={paced_passes} capacity_passes={} verdict_samples={} p50_ms={p50:.3} p95_ms={p95:.3}",
        capacity.len(),
        latencies.len()
    );
    metrics.add("verdict_latency_p50_ms", p50, "ms");
    metrics.add("verdict_latency_p95_ms", p95, "ms");
    metrics.add("cpu_us_per_span", median(&cpu), "us/span");
    metrics.add("peak_rss_mb", median(&rss), "MB");
    metrics.add(
        "delivered_share",
        1.0 - failed as f64 / attempted as f64,
        "ratio",
    );
    metrics.add("rca_f1", acc.f1(), "ratio");
    metrics.add("rca_acc", acc.accuracy(), "ratio");
    Ok((attempted, failed))
}

#[allow(clippy::too_many_arguments)]
fn traced_run(
    args: &Args,
    workload: &Workload,
    corpus: &Corpus,
    pipeline: &Arc<SleuthPipeline>,
    reference: &ReplayOutcome,
    fit_s: &[f64],
    metrics: &mut Metrics,
) -> Result<(usize, usize), String> {
    let wire = workload.path == Path::OtlpWire;

    // ---- Stage replay: traced, alternating with untraced ones. -------
    // The oracle replay was the first untraced one; tracing overhead
    // compares two traced replays against two untraced ones.
    let mut tracer = Tracer::new(true);
    let traced = replay::stage_replay(corpus, pipeline, &mut tracer);
    let untraced = replay::stage_replay(corpus, pipeline, &mut Tracer::new(false));
    let traced_again = replay::stage_replay(corpus, pipeline, &mut Tracer::new(true));
    for (label, outcome) in [
        ("traced replay", &traced),
        ("untraced replay", &untraced),
        ("second traced replay", &traced_again),
    ] {
        if outcome.verdicts != reference.verdicts {
            return Err(format!(
                "{label}: verdict set differs from the first replay"
            ));
        }
    }
    let trace_overhead = (traced.wall_ns + traced_again.wall_ns) as f64
        / (reference.wall_ns + untraced.wall_ns) as f64
        - 1.0;
    let breakdown = replay::localize_breakdown(
        &traced.anomalous,
        pipeline,
        PipelineConfig::default().model.sem_dim,
        &mut tracer,
    );
    let root = tracer
        .spans()
        .iter()
        .position(|s| s.stage == replay::REPLAY_ROOT)
        .expect("replay root span") as u32;
    let root_ns = tracer.total_ns(replay::REPLAY_ROOT) as f64;
    let spans = corpus.spans as f64;
    let traces = corpus.traces() as f64;
    let locs = traced.verdicts.len();
    let localize_us: Vec<f64> = tracer
        .durations_ns(replay::LOCALIZE)
        .iter()
        .map(|ns| ns / 1e3)
        .collect();

    // ---- The workload's own serving path, paced, calls timed. -------
    let target = DrainTarget {
        verdicts: reference.verdicts.len(),
        traces: corpus.traces() as u64,
    };
    let rate = Mode::Paced {
        spans_per_s: workload.paced_spans_per_s,
    };
    let paced = run_phase(pipeline, wire, corpus, &corpus.events, rate, target);
    let mut failed = check_phase("paced", &paced, corpus.spans, &reference.verdicts)?;
    let latencies = verdict_latencies_ms(&paced, &corpus.finalizing_events(serving::shards(wire)));
    let rca_us: Vec<f64> = paced
        .verdicts
        .iter()
        .filter(|(v, _)| !v.degraded)
        .map(|(v, _)| v.rca_latency_us as f64)
        .collect();

    // ---- Probes of the layers off this workload's path. -------------
    // Whole traces from the head of the corpus, decoded untimed.
    let sample = corpus.sample(PROBE_SPANS);
    let sample_batches: Vec<_> = sample
        .batches
        .iter()
        .map(|b| (b.now_us, b.spans_owned()))
        .collect();
    let sample_spans = sample.spans;
    // Wire codec on this workload's batches.
    let codec = tracer.open("codec_probe", None, 0);
    let mut frame_bytes = 0usize;
    for (seq, (now_us, spans)) in sample_batches.iter().enumerate() {
        let frame = Frame::Data {
            seq: seq as u64 + 1,
            msg: Msg::SpanBatch {
                now_us: *now_us,
                spans: spans.clone(),
            },
        };
        let bytes = tracer.call("wire.encode", Some(codec), 0, || {
            encode_frame(&frame, PROTOCOL_VERSION)
        });
        frame_bytes += bytes.len();
        let decoded = tracer.call("wire.decode", Some(codec), 0, || {
            decode_frame_bytes(&bytes, DEFAULT_MAX_FRAME_LEN)
        });
        if decoded.as_ref() != Ok(&frame) {
            return Err("wire codec probe: frame did not round-trip".into());
        }
    }
    tracer.close(codec);
    // OTLP parse, where the workload's own path carries decoded spans.
    let parse_ns_per_span = if workload.is_otlp() {
        tracer.total_ns(replay::PARSE) as f64 / spans
    } else {
        let docs: Vec<String> = sample_batches
            .iter()
            .map(|(_, s)| to_otel_json(s))
            .collect();
        let probe = tracer.open("otlp_probe", None, 0);
        for doc in &docs {
            let parsed = tracer.call("otlp_probe.parse", Some(probe), 0, || from_otel_json(doc));
            std::hint::black_box(parsed.map_err(|e| format!("OTLP probe: {e}"))?);
        }
        tracer.close(probe);
        tracer.total_ns("otlp_probe.parse") as f64 / sample_spans as f64
    };
    // The other serving path on the sample, paced at the same rate and
    // checked against the oracle's verdicts on the sample's traces.
    let sample_reference: Verdicts = reference
        .verdicts
        .iter()
        .filter(|(id, _)| sample.truth.contains_key(id))
        .map(|(id, services)| (*id, services.clone()))
        .collect();
    let sample_target = DrainTarget {
        verdicts: sample_reference.len(),
        traces: sample.traces() as u64,
    };
    let other = run_phase(
        pipeline,
        !wire,
        &sample,
        &sample.events,
        rate,
        sample_target,
    );
    failed += check_phase("probe", &other, sample_spans, &sample_reference)?;
    let (serve_phase, serve_spans, wire_phase, wire_spans) = if wire {
        (&other, sample_spans, &paced, corpus.spans)
    } else {
        (&paced, corpus.spans, &other, sample_spans)
    };
    let wire_snapshot = wire_phase
        .finished
        .wire
        .as_ref()
        .expect("wire phase has wire metrics");

    // ---- Spans to disk. ---------------------------------------------
    std::fs::create_dir_all(".bench_out").map_err(|e| format!("create .bench_out: {e}"))?;
    let path = format!(".bench_out/stages-{}-s{}.jsonl", workload.name, args.seed);
    std::fs::write(&path, tracer.to_jsonl()).map_err(|e| format!("write {path}: {e}"))?;

    let share = |stage: &str| tracer.total_ns(stage) as f64 / root_ns;
    let late_p99 = paced
        .lateness
        .p99_ms()
        .map_err(|e| format!("lateness: {e}"))?;
    let wait_share = 1.0 - mean(&rca_us) / (mean(&latencies) * 1e3);
    println!(
        "STAGES workload={} parse={:.4} collect={:.4} assemble={:.4} detect={:.4} localize={:.4} \
         unattributed={:.4} localizations={locs} spans_file={path}",
        workload.name,
        share(replay::PARSE),
        share(replay::COLLECT),
        share(replay::ASSEMBLE),
        share(replay::DETECT),
        share(replay::LOCALIZE),
        tracer.self_ns(root) as f64 / root_ns
    );

    metrics.add("trace.otlp_parse_ns_per_span", parse_ns_per_span, "ns/span");
    metrics.add(
        "store.collect_ns_per_span",
        tracer.total_ns(replay::COLLECT) as f64 / spans,
        "ns/span",
    );
    metrics.add(
        "store.open_traces_peak",
        traced.open_traces_peak as f64,
        "count",
    );
    metrics.add(
        "trace.assemble_ns_per_span",
        tracer.total_ns(replay::ASSEMBLE) as f64 / spans,
        "ns/span",
    );
    metrics.add(
        "core.detect_ns_per_trace",
        tracer.total_ns(replay::DETECT) as f64 / traces,
        "ns/trace",
    );
    metrics.add("core.anomalous_share", locs as f64 / traces, "ratio");
    metrics.add(
        "core.localize_us_p50",
        percentile(&localize_us, 0.50).map_err(|e| format!("localize p50: {e}"))?,
        "us",
    );
    metrics.add(
        "core.localize_us_p95",
        percentile(&localize_us, 0.95).map_err(|e| format!("localize p95: {e}"))?,
        "us",
    );
    metrics.add("gnn.featurize_us_per_loc", breakdown.featurize_us, "us");
    metrics.add("core.scan_us_per_loc", breakdown.scan_us, "us");
    metrics.add(
        "gnn.session_observed_us_per_loc",
        breakdown.session_observed_us,
        "us",
    );
    metrics.add("core.search_us_per_loc", breakdown.search_us(), "us");
    metrics.add(
        "core.predict_calls_per_loc",
        mean(&traced.predict_calls),
        "count",
    );
    metrics.add(
        "core.pruned_span_fraction",
        mean(&traced.pruned_span_fraction),
        "ratio",
    );
    metrics.add(
        "serve.submit_ns_per_span",
        serve_phase.submit_ns as f64 / serve_spans as f64,
        "ns/span",
    );
    metrics.add(
        "serve.tick_block_ms",
        serve_phase.tick_ns as f64 / 1e6,
        "ms",
    );
    metrics.add(
        "serve.shutdown_drain_ms",
        serve_phase.finished.shutdown_ns as f64 / 1e6,
        "ms",
    );
    metrics.add(
        "serve.queue_depth_p99",
        paced
            .finished
            .metrics
            .queue_depth
            .quantile_upper_bound(0.99) as f64,
        "count",
    );
    metrics.add(
        "serve.rca_latency_p50_us",
        percentile(&rca_us, 0.5).map_err(|e| format!("rca latency p50: {e}"))?,
        "us",
    );
    metrics.add("serve.verdict_wait_share", wait_share, "ratio");
    metrics.add(
        "wire.encode_ns_per_span",
        tracer.total_ns("wire.encode") as f64 / sample_spans as f64,
        "ns/span",
    );
    metrics.add(
        "wire.decode_ns_per_span",
        tracer.total_ns("wire.decode") as f64 / sample_spans as f64,
        "ns/span",
    );
    metrics.add(
        "wire.bytes_per_span",
        if wire {
            wire_snapshot.bytes_sent as f64 / wire_spans as f64
        } else {
            frame_bytes as f64 / sample_spans as f64
        },
        "B/span",
    );
    metrics.add(
        "wire.router_submit_ns_per_span",
        wire_phase.submit_ns as f64 / wire_spans as f64,
        "ns/span",
    );
    metrics.add(
        "wire.router_shutdown_ms",
        wire_phase.finished.shutdown_ns as f64 / 1e6,
        "ms",
    );
    metrics.add(
        "wire.frames_resent",
        wire_snapshot.frames_resent as f64,
        "count",
    );
    metrics.add("gnn.fit_s", median(fit_s), "s");
    metrics.add(
        "attribution.otlp_parse_share",
        share(replay::PARSE),
        "ratio",
    );
    metrics.add("attribution.collect_share", share(replay::COLLECT), "ratio");
    metrics.add(
        "attribution.assemble_share",
        share(replay::ASSEMBLE),
        "ratio",
    );
    metrics.add("attribution.detect_share", share(replay::DETECT), "ratio");
    metrics.add(
        "attribution.localize_share",
        share(replay::LOCALIZE),
        "ratio",
    );
    metrics.add(
        "attribution.unattributed_share",
        tracer.self_ns(root) as f64 / root_ns,
        "ratio",
    );
    metrics.add("bench.trace_overhead_share", trace_overhead, "ratio");
    metrics.add("bench.late_p99_ms", late_p99, "ms");
    Ok((corpus.traces() + sample.traces(), failed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn at<'a>(v: &'a Value, path: &str) -> &'a Value {
        path.split('.').fold(v, |v, key| {
            v.as_object()
                .and_then(|m| m.get(key))
                .unwrap_or_else(|| panic!("workloads.json has no {path}"))
        })
    }

    fn num(v: &Value, path: &str) -> f64 {
        match at(v, path) {
            Value::Number(n) => n.as_f64(),
            other => panic!("workloads.json {path} is not a number: {other:?}"),
        }
    }

    /// `workloads.json` records the configuration the code runs; this
    /// keeps the record from drifting.
    #[test]
    fn workloads_json_matches_the_code() {
        let doc: Value = serde_json::from_str(include_str!("../workloads.json")).unwrap();
        for name in ["thousand_rca", "small_otlp", "small_wire"] {
            let w = Workload::by_name(name).unwrap();
            let field = |f: &str| num(&doc, &format!("workloads.{name}.{f}"));
            assert_eq!(field("offered_spans_per_s"), w.paced_spans_per_s, "{name}");
            assert_eq!(
                field("scenarios_per_kind"),
                w.seeds_per_kind as f64,
                "{name}"
            );
            assert_eq!(
                field("scenario_duration_us"),
                w.params.duration_us as f64,
                "{name}"
            );
        }
        assert!(Workload::by_name("nope").is_none());

        for (key, c) in [
            ("in_process", serving::serve_config()),
            ("wire_shard_server", serving::shard_server_config()),
        ] {
            let field = |f: &str| num(&doc, &format!("serve_config.{key}.{f}"));
            assert_eq!(field("num_shards"), c.num_shards as f64, "{key}");
            assert_eq!(
                field("shard_queue_capacity"),
                c.shard_queue_capacity as f64,
                "{key}"
            );
            assert_eq!(
                field("rca_queue_capacity"),
                c.rca_queue_capacity as f64,
                "{key}"
            );
            assert_eq!(field("rca_workers"), c.rca_workers as f64, "{key}");
            assert_eq!(field("idle_timeout_us"), c.idle_timeout_us as f64, "{key}");
            let policy = at(&doc, &format!("serve_config.{key}.shed_policy"));
            assert_eq!(
                policy.as_str(),
                Some(format!("{:?}", c.shed_policy).as_str())
            );
            let policy = at(&doc, &format!("serve_config.{key}.cluster_policy"));
            assert_eq!(
                policy.as_str(),
                Some(format!("{:?}", c.cluster_policy).as_str())
            );
            assert!(c.refresh.is_none() && c.rca_deadline_us.is_none());
            assert!(c.rca_queue_high_water.is_none());
            c.validate().unwrap();
        }
        assert_eq!(
            num(&doc, "serve_config.shard_servers"),
            serving::shards(true) as f64
        );
        assert_eq!(
            num(&doc, "serve_config.router.session_cap"),
            serving::ROUTER_SESSION_CAP as f64
        );

        assert_eq!(
            num(&doc, "corpus.export_window_us"),
            corpus::WINDOW_US as f64
        );
        assert_eq!(num(&doc, "corpus.tick_us"), corpus::TICK_US as f64);
        assert_eq!(
            num(&doc, "corpus.idle_timeout_us"),
            corpus::IDLE_TIMEOUT_US as f64
        );

        let train = pipeline_config().train;
        assert_eq!(num(&doc, "pipeline.train_traces"), TRAIN_TRACES as f64);
        assert_eq!(num(&doc, "pipeline.epochs"), train.epochs as f64);
        assert_eq!(
            num(&doc, "pipeline.batch_traces"),
            train.batch_traces as f64
        );
        assert!((num(&doc, "pipeline.lr") - f64::from(train.lr)).abs() < 1e-6);
        assert_eq!(num(&doc, "pipeline.seed"), train.seed as f64);
        assert_eq!(
            num(&doc, "pipeline.detector_slo_multiplier"),
            SLO_MULTIPLIER
        );

        assert_eq!(num(&doc, "run.setup_min_reps"), MIN_SETUP_REPS as f64);
        assert_eq!(num(&doc, "run.setup_min_s"), MIN_SETUP_SECS);
        assert_eq!(num(&doc, "run.min_paced_passes"), MIN_PACED_PASSES as f64);
        assert_eq!(num(&doc, "run.probe_spans"), PROBE_SPANS as f64);
    }
}
