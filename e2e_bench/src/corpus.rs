//! Workload definitions and corpus construction.
//!
//! A corpus is a scenario (or a back-to-back mix of scenarios) from
//! `sleuth_synth::scenario`, expanded into the message stream a
//! collector tier would see: every span is exported when it ends, spans
//! are grouped into fixed logical time windows, each window is split by
//! owning shard (`shard_of`), and ticks advance every shard's clock on a
//! fixed cadence. Everything here is built before any timing starts.

use std::collections::{BTreeSet, HashMap, HashSet};

use sleuth_serve::shard_of;
use sleuth_synth::scenario::{Scenario, ScenarioKind, ScenarioParams};
use sleuth_trace::formats::{from_otel_json, to_otel_json};
use sleuth_trace::{Span, Trace, TraceId};

/// Shards of every serving topology (in-process shards, or wire shard
/// servers behind the router). Equals `nproc` on the reference host.
pub const NUM_SHARDS: usize = 2;

/// How a workload's spans reach the serving stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// Decoded `Span` batches into an in-process `ServeRuntime`.
    InProcess,
    /// OTLP-JSON batches, parsed by the generator, into an in-process
    /// `ServeRuntime`.
    OtlpInProcess,
    /// OTLP-JSON batches, parsed by the generator, through a
    /// `RouterClient` to shard servers over Unix sockets.
    OtlpWire,
}

/// One benchmark workload: which scenarios, how they are batched, and
/// the paced phase's offered rate.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub kinds: Vec<ScenarioKind>,
    pub params: ScenarioParams,
    /// Scenarios generated per kind, back to back, from seeds derived
    /// from the run's seed: more fault episodes (and victims) per run.
    pub seeds_per_kind: u64,
    pub path: Path,
    /// Fixed offered span rate of the paced phase, spans per second.
    pub paced_spans_per_s: f64,
}

/// Logical width of one export window: an exporter that flushes once
/// a second, so a batch carries hundreds of spans (small apps) to
/// thousands (the thousand-service app) and per-batch hand-offs
/// between threads are not most of the work.
pub const WINDOW_US: u64 = 1_000_000;
/// Logical tick cadence.
pub const TICK_US: u64 = 250_000;
/// Collector idle timeout (logical): a trace completes this long after
/// its last span arrived.
pub const IDLE_TIMEOUT_US: u64 = 5_000_000;
/// Logical gap between back-to-back scenarios of a mix, so one
/// scenario's tail never interleaves with the next one's head.
const SCENARIO_GAP_US: u64 = 60_000_000;

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let small = ScenarioParams {
            duration_us: 180_000_000,
            ..ScenarioParams::soak()
        };
        let w = match name {
            "thousand_rca" => Workload {
                name: "thousand_rca",
                kinds: vec![ScenarioKind::ThousandServices],
                params: ScenarioParams {
                    duration_us: 18_750_000,
                    ..ScenarioParams::soak()
                },
                seeds_per_kind: 32,
                path: Path::InProcess,
                paced_spans_per_s: 300_000.0,
            },
            "small_otlp" => Workload {
                name: "small_otlp",
                kinds: ScenarioKind::SMALL.to_vec(),
                params: small,
                seeds_per_kind: 2,
                path: Path::OtlpInProcess,
                paced_spans_per_s: 100_000.0,
            },
            "small_wire" => Workload {
                name: "small_wire",
                kinds: ScenarioKind::SMALL.to_vec(),
                params: small,
                seeds_per_kind: 2,
                path: Path::OtlpWire,
                paced_spans_per_s: 100_000.0,
            },
            _ => return None,
        };
        Some(w)
    }

    pub fn is_otlp(&self) -> bool {
        self.path != Path::InProcess
    }
}

/// One export window's spans for one shard.
pub struct Batch {
    /// Logical observation time (end of the window).
    pub now_us: u64,
    pub shard: usize,
    pub n_spans: usize,
    /// Decoded spans (workloads on the decoded path; empty otherwise).
    pub spans: Vec<Span>,
    /// OTLP-JSON encoding of the same spans (OTLP workloads; empty
    /// otherwise).
    pub otlp: String,
}

impl Batch {
    /// A batch of `spans`, kept decoded or encoded as OTLP-JSON.
    fn new(now_us: u64, shard: usize, spans: Vec<Span>, otlp: bool) -> Batch {
        let n_spans = spans.len();
        if otlp {
            Batch {
                now_us,
                shard,
                n_spans,
                otlp: to_otel_json(&spans),
                spans: Vec::new(),
            }
        } else {
            Batch {
                now_us,
                shard,
                n_spans,
                spans,
                otlp: String::new(),
            }
        }
    }

    /// A fresh copy of the batch's spans: cloned if decoded, parsed if
    /// OTLP.
    pub fn spans_owned(&self) -> Vec<Span> {
        if self.spans.is_empty() {
            from_otel_json(&self.otlp).expect("self-encoded OTLP parses")
        } else {
            self.spans.clone()
        }
    }
}

/// One message of the replay stream, in logical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Index into [`Corpus::batches`].
    Batch(usize),
    /// Advance every shard's clock to this logical time.
    Tick(u64),
}

/// The replay input plus everything the checks need to know about it.
pub struct Corpus {
    pub batches: Vec<Batch>,
    pub events: Vec<Event>,
    /// Per-trace ground-truth root-cause services (empty = healthy).
    pub truth: HashMap<TraceId, BTreeSet<String>>,
    /// Logical time of each trace's last batch.
    pub last_seen_us: HashMap<TraceId, u64>,
    pub spans: usize,
    /// Traces whose ground truth names a root cause.
    pub faulted_traces: usize,
    /// OTLP bytes of the whole corpus (0 on the decoded path).
    pub otlp_bytes: usize,
}

impl Corpus {
    pub fn traces(&self) -> usize {
        self.truth.len()
    }

    /// For every trace, the index in [`Corpus::events`] of the message
    /// that finalizes it on a stack of `num_shards` collectors (1, or
    /// [`NUM_SHARDS`] as the batches are split): the first message
    /// reaching the trace's shard (a batch routed there, or a tick) at
    /// or past its idle deadline.
    pub fn finalizing_events(&self, num_shards: usize) -> HashMap<TraceId, usize> {
        assert!(num_shards == 1 || num_shards == NUM_SHARDS);
        let mut per_shard: Vec<Vec<(u64, usize)>> = vec![Vec::new(); num_shards];
        for (i, ev) in self.events.iter().enumerate() {
            match *ev {
                Event::Batch(b) => {
                    let shard = self.batches[b].shard % num_shards;
                    per_shard[shard].push((self.batches[b].now_us, i))
                }
                Event::Tick(t) => per_shard.iter_mut().for_each(|s| s.push((t, i))),
            }
        }
        self.last_seen_us
            .iter()
            .map(|(&id, &last)| {
                let list = &per_shard[shard_of(id, num_shards)];
                let deadline = last + IDLE_TIMEOUT_US;
                let k = list.partition_point(|&(t, _)| t < deadline);
                (id, list.get(k).map_or(self.events.len() - 1, |&(_, i)| i))
            })
            .collect()
    }

    /// A corpus of whole traces for probing a layer off the workload's
    /// own path: the traces that end by the window in which `spans`
    /// spans have been exported, batched and ticked as here.
    pub fn sample(&self, spans: usize) -> Corpus {
        let mut seen = 0;
        let cutoff_us = self
            .batches
            .iter()
            .find(|b| {
                seen += b.n_spans;
                seen >= spans
            })
            .map_or(u64::MAX, |b| b.now_us);
        let kept: HashSet<TraceId> = self
            .last_seen_us
            .iter()
            .filter(|&(_, &last)| last <= cutoff_us)
            .map(|(&id, _)| id)
            .collect();
        let batches = self
            .batches
            .iter()
            .take_while(|b| b.now_us <= cutoff_us)
            .filter_map(|b| {
                let mut spans = b.spans_owned();
                spans.retain(|s| kept.contains(&s.trace_id));
                (!spans.is_empty())
                    .then(|| Batch::new(b.now_us, b.shard, spans, !b.otlp.is_empty()))
            })
            .collect();
        let truth = kept
            .iter()
            .map(|id| (*id, self.truth[id].clone()))
            .collect();
        let last_seen_us = kept.iter().map(|id| (*id, self.last_seen_us[id])).collect();
        Corpus::from_batches(batches, truth, last_seen_us)
    }

    /// Copies of the decoded batches among `events`, indexed like
    /// [`Corpus::batches`], made before a clock starts. OTLP batches
    /// stay `None`: they are parsed inside the timed loop.
    pub fn predecoded(&self, events: &[Event]) -> Vec<Option<Vec<Span>>> {
        let mut owned = vec![None; self.batches.len()];
        for ev in events {
            if let Event::Batch(i) = *ev {
                let b = &self.batches[i];
                if !b.spans.is_empty() {
                    owned[i] = Some(b.spans.clone());
                }
            }
        }
        owned
    }

    /// The corpus of `batches` (in logical order): ticks interleaved
    /// on a fixed logical cadence, then trailing ticks until every
    /// trace has idled out.
    fn from_batches(
        batches: Vec<Batch>,
        truth: HashMap<TraceId, BTreeSet<String>>,
        last_seen_us: HashMap<TraceId, u64>,
    ) -> Corpus {
        let t_start_us = batches.first().map_or(0, |b| b.now_us);
        let last_batch_us = batches.last().map_or(0, |b| b.now_us);
        let t_end_us = last_batch_us + IDLE_TIMEOUT_US + TICK_US;
        let mut events = Vec::with_capacity(batches.len() + (t_end_us / TICK_US) as usize);
        let mut next_tick = (t_start_us / TICK_US + 1) * TICK_US;
        for (i, b) in batches.iter().enumerate() {
            while next_tick <= b.now_us {
                events.push(Event::Tick(next_tick));
                next_tick += TICK_US;
            }
            events.push(Event::Batch(i));
        }
        while next_tick <= t_end_us {
            events.push(Event::Tick(next_tick));
            next_tick += TICK_US;
        }
        let spans = batches.iter().map(|b| b.n_spans).sum();
        let otlp_bytes = batches.iter().map(|b| b.otlp.len()).sum();
        let faulted_traces = truth.values().filter(|t| !t.is_empty()).count();
        Corpus {
            batches,
            events,
            truth,
            last_seen_us,
            spans,
            faulted_traces,
            otlp_bytes,
        }
    }
}

/// Expand `workload` at `seed` into its replay corpus, and return it
/// with the mix's first scenario (its app fits the pipeline).
pub fn build(workload: &Workload, seed: u64) -> (Corpus, Scenario) {
    // (emit time, span) for every span of every scenario.
    let mut emitted: Vec<(u64, Span)> = Vec::new();
    let mut truth = HashMap::new();
    let mut fit_scenario = None;
    let mut offset = 0u64;
    let scenarios = workload
        .kinds
        .iter()
        .flat_map(|&kind| (0..workload.seeds_per_kind).map(move |k| (kind, k)));
    for (i, (kind, k)) in scenarios.enumerate() {
        let scenario_seed = seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let scenario = Scenario::generate(kind, &workload.params, scenario_seed);
        let schedule = scenario.schedule();
        assert!(!schedule.truncated, "{} schedule truncated", scenario.name);
        let mut scenario_end = offset;
        for st in schedule.traces {
            // Ids are sequential per schedule; the scenario index in
            // the high bits keeps them unique across a mix.
            let id = ((i as u64 + 1) << 40) | st.sim.trace.trace_id();
            truth.insert(id, st.sim.ground_truth.services.clone());
            let trace: Trace = st.sim.trace;
            let t0 = trace.spans().iter().map(|s| s.start_us).min().unwrap_or(0);
            for s in trace.spans() {
                let mut span = s.clone();
                span.trace_id = id;
                let at = offset + st.at_us + (s.end_us - t0);
                scenario_end = scenario_end.max(at);
                emitted.push((at, span));
            }
        }
        offset = scenario_end + SCENARIO_GAP_US;
        if fit_scenario.is_none() {
            fit_scenario = Some(scenario);
        }
    }
    emitted.sort_by_key(|(at, s)| (*at, s.trace_id, s.span_id));

    // Window and shard.
    let mut batches: Vec<Batch> = Vec::new();
    let mut last_seen_us = HashMap::with_capacity(truth.len());
    let mut emitted = emitted.into_iter().peekable();
    while let Some(&(at, _)) = emitted.peek() {
        let window = at / WINDOW_US;
        let now_us = (window + 1) * WINDOW_US;
        let mut per_shard: Vec<Vec<Span>> = (0..NUM_SHARDS).map(|_| Vec::new()).collect();
        while let Some((_, span)) = emitted.next_if(|(at, _)| at / WINDOW_US == window) {
            // A trace split by an intra-trace gap longer than the idle
            // timeout would be assembled in pieces: that is a corpus
            // defect, not a serving failure, so refuse it here.
            if let Some(prev) = last_seen_us.insert(span.trace_id, now_us) {
                assert!(
                    now_us - prev < IDLE_TIMEOUT_US,
                    "trace {} has a {}us export gap (idle timeout {IDLE_TIMEOUT_US}us)",
                    span.trace_id,
                    now_us - prev
                );
            }
            per_shard[shard_of(span.trace_id, NUM_SHARDS)].push(span);
        }
        for (shard, spans) in per_shard.into_iter().enumerate() {
            if !spans.is_empty() {
                batches.push(Batch::new(now_us, shard, spans, workload.is_otlp()));
            }
        }
    }
    (
        Corpus::from_batches(batches, truth, last_seen_us),
        fit_scenario.expect("a workload has at least one scenario"),
    )
}
