//! The serving stack under load: an in-process `ServeRuntime`, or two
//! `serve_shard` servers behind a `RouterClient` over Unix sockets, fed
//! from one generator thread in a paced (open-loop) or capacity
//! (closed-loop) phase.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sleuth_core::SleuthPipeline;
use sleuth_serve::{
    MetricsSnapshot, NoFaults, QuarantinedTrace, ServeConfig, ServeRuntime, SubmitReport, Verdict,
};
use sleuth_trace::{Span, TraceId};
use sleuth_wire::{
    serve_shard, Endpoint, NoWireFaults, RouterClient, RouterConfig, ShardFinal, ShardServerConfig,
    WireError, WireListener, WireMetrics, WireMetricsSnapshot,
};

use crate::corpus::{Corpus, Event, NUM_SHARDS};
use crate::harness::{Lateness, RssWatermark};

/// Collectors a stack routes traces over: the in-process runtime's
/// shards, or the wire's shard servers.
pub fn shards(wire: bool) -> usize {
    if wire {
        NUM_SHARDS
    } else {
        serve_config().num_shards
    }
}

/// The in-process runtime's configuration, sized for two cores: one
/// shard and one RCA worker per core (the generator shares them).
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        num_shards: NUM_SHARDS,
        shard_queue_capacity: 64,
        rca_queue_capacity: 256,
        rca_workers: 2,
        idle_timeout_us: crate::corpus::IDLE_TIMEOUT_US,
        ..ServeConfig::default()
    }
}

/// Each wire shard server's runtime. The router cannot see a shard's
/// queue refusals, so the queue is sized to never refuse; span
/// conservation and stored-span checks prove it did not.
pub fn shard_server_config() -> ServeConfig {
    ServeConfig {
        num_shards: 1,
        shard_queue_capacity: 1 << 20,
        rca_workers: 1,
        ..serve_config()
    }
}

/// The router's per-shard session buffer: frames kept for replay on
/// reconnect.
pub const ROUTER_SESSION_CAP: usize = 1 << 16;

/// What a serving stack hands back when it is shut down.
pub struct Finished {
    pub verdicts: Vec<Verdict>,
    pub metrics: MetricsSnapshot,
    pub quarantined: Vec<QuarantinedTrace>,
    pub wire: Option<WireMetricsSnapshot>,
    /// Spans in the stores at shutdown.
    pub stored_spans: u64,
    pub shutdown_ns: u64,
}

/// One of the two serving topologies.
pub enum Stack {
    InProcess(ServeRuntime),
    Wire(Box<WireFleet>),
}

/// Two shard servers on background threads and the router in front.
pub struct WireFleet {
    router: RouterClient,
    servers: Vec<JoinHandle<Result<ShardFinal, WireError>>>,
    sockets: Vec<PathBuf>,
}

/// Socket directory, relative to the working directory (the checkout).
const SOCKET_DIR: &str = ".bench_out";

impl Stack {
    pub fn start(pipeline: &Arc<SleuthPipeline>, wire: bool) -> Stack {
        if !wire {
            let rt = ServeRuntime::start(Arc::clone(pipeline), serve_config())
                .expect("valid serve config");
            return Stack::InProcess(rt);
        }
        std::fs::create_dir_all(SOCKET_DIR).expect("create socket directory");
        let mut endpoints = Vec::new();
        let mut servers = Vec::new();
        let mut sockets = Vec::new();
        for shard in 0..NUM_SHARDS {
            let path = PathBuf::from(format!("{SOCKET_DIR}/s{}-{shard}.sock", std::process::id()));
            let _ = std::fs::remove_file(&path);
            let endpoint = Endpoint::Unix(path.clone());
            let listener = WireListener::bind(&endpoint).expect("bind shard socket");
            let config = ShardServerConfig::new(shard, shard_server_config());
            let pipeline = Arc::clone(pipeline);
            servers.push(std::thread::spawn(move || {
                serve_shard(
                    &listener,
                    pipeline,
                    config,
                    Arc::new(NoFaults),
                    Arc::new(NoWireFaults),
                    Arc::new(WireMetrics::default()),
                )
            }));
            endpoints.push(endpoint);
            sockets.push(path);
        }
        let mut config = RouterConfig::new(endpoints);
        config.session_cap = ROUTER_SESSION_CAP;
        let router = RouterClient::connect(config).expect("router connects to shard servers");
        Stack::Wire(Box::new(WireFleet {
            router,
            servers,
            sockets,
        }))
    }

    pub fn submit(&mut self, spans: Vec<Span>, now_us: u64) -> SubmitReport {
        match self {
            Stack::InProcess(rt) => rt.submit_batch(spans, now_us),
            Stack::Wire(f) => f.router.submit_batch(spans, now_us),
        }
    }

    pub fn tick(&mut self, now_us: u64) {
        match self {
            Stack::InProcess(rt) => rt.tick(now_us),
            Stack::Wire(f) => f.router.tick(now_us),
        }
    }

    pub fn poll(&mut self) -> Vec<Verdict> {
        match self {
            Stack::InProcess(rt) => rt.poll_verdicts(),
            Stack::Wire(f) => f.router.poll_verdicts(),
        }
    }

    /// Traces the collectors have finished with (assembled or
    /// refused as malformed) so far.
    pub fn traces_finalized(&mut self) -> u64 {
        match self {
            Stack::InProcess(rt) => {
                let m = rt.metrics();
                m.traces_completed.get() + m.traces_malformed.get()
            }
            Stack::Wire(f) => f
                .router
                .fetch_metrics()
                .iter()
                .flatten()
                .map(|m| m.traces_completed + m.traces_malformed)
                .sum(),
        }
    }

    pub fn shutdown(self) -> Finished {
        let started = Instant::now();
        match self {
            Stack::InProcess(rt) => {
                let report = rt.shutdown();
                let shutdown_ns = started.elapsed().as_nanos() as u64;
                Finished {
                    verdicts: report.verdicts,
                    stored_spans: report.store.span_count() as u64,
                    metrics: report.metrics,
                    quarantined: report.quarantined,
                    wire: None,
                    shutdown_ns,
                }
            }
            Stack::Wire(fleet) => {
                let report = fleet.router.shutdown();
                let shutdown_ns = started.elapsed().as_nanos() as u64;
                for server in fleet.servers {
                    server
                        .join()
                        .expect("shard server thread")
                        .expect("clean shard server exit");
                }
                for path in &fleet.sockets {
                    let _ = std::fs::remove_file(path);
                }
                Finished {
                    verdicts: report.verdicts,
                    stored_spans: report
                        .shard_finals
                        .iter()
                        .flatten()
                        .map(|f| f.span_count)
                        .sum(),
                    metrics: report.metrics,
                    quarantined: report.quarantined,
                    wire: Some(report.wire),
                    shutdown_ns,
                }
            }
        }
    }
}

/// Paced (open loop at a fixed offered span rate) or capacity (closed
/// loop).
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    Paced { spans_per_s: f64 },
    Capacity,
}

/// One phase's observations.
pub struct PhaseResult {
    /// Each verdict with the instant the generator received it.
    pub verdicts: Vec<(Verdict, Instant)>,
    pub first_submit: Instant,
    /// When every expected verdict had been drained and every trace
    /// completed (or the drain deadline passed).
    pub drained: Instant,
    pub drain_timed_out: bool,
    /// Due instant of every event (paced phase; the send instant in a
    /// capacity phase).
    pub due: Vec<Instant>,
    pub lateness: Lateness,
    pub submit_ns: u64,
    pub tick_ns: u64,
    pub resubmits: u64,
    /// Traces with a span that was refused and could not be resent.
    pub refused: HashSet<TraceId>,
    pub cpu_us: u64,
    /// Resident memory the phase added at its peak, MB: the stack, the
    /// spans handed to it and the phase's bookkeeping, not the corpus.
    pub peak_rss_mb: f64,
    pub finished: Finished,
}

/// Longest sleep of a paced generator between verdict polls.
const POLL_NAP: Duration = Duration::from_micros(200);

/// How long a phase waits for its last verdicts before giving up.
const DRAIN_DEADLINE: Duration = Duration::from_secs(60);

/// When a phase's work is done: this many verdicts drained and this
/// many traces finalized by the collectors.
#[derive(Debug, Clone, Copy)]
pub struct DrainTarget {
    pub verdicts: usize,
    pub traces: u64,
}

/// Start a stack (`wire` or in-process) on `pipeline`, drive it
/// through `events` of `corpus` and shut it down. Decoded batches are
/// copied before the clock starts; OTLP batches are parsed on the
/// generator thread, inside it.
pub fn run_phase(
    pipeline: &Arc<SleuthPipeline>,
    wire: bool,
    corpus: &Corpus,
    events: &[Event],
    mode: Mode,
    target: DrainTarget,
) -> PhaseResult {
    let rss = RssWatermark::start();
    let mut stack = Stack::start(pipeline, wire);
    let mut owned = corpus.predecoded(events);
    // Wall seconds per span: a message is due when every span before
    // it has been offered at the fixed rate.
    let secs_per_span = match mode {
        Mode::Paced { spans_per_s } => 1.0 / spans_per_s,
        Mode::Capacity => 0.0,
    };
    let mut spans_before = 0usize;
    let expected_verdicts = target.verdicts;

    let mut verdicts = Vec::with_capacity(expected_verdicts);
    let mut lateness = Lateness::default();
    let mut due = Vec::with_capacity(corpus.events.len());
    let mut refused = HashSet::new();
    let (mut submit_ns, mut tick_ns, mut resubmits) = (0u64, 0u64, 0u64);
    let cpu0 = crate::harness::process_cpu_us();
    let t0 = Instant::now();
    for ev in events {
        let due_at = t0 + Duration::from_secs_f64(spans_before as f64 * secs_per_span);
        if let Mode::Paced { .. } = mode {
            // Wait for the due time in short naps, collecting verdicts
            // meanwhile so their receipt is not delayed to the next
            // message.
            loop {
                let polled = stack.poll();
                let now = Instant::now();
                verdicts.extend(polled.into_iter().map(|v| (v, now)));
                if now >= due_at {
                    break;
                }
                std::thread::sleep((due_at - now).min(POLL_NAP));
            }
        }
        let sent = Instant::now();
        match mode {
            Mode::Paced { .. } => {
                lateness.record(due_at, sent);
                due.push(due_at);
            }
            Mode::Capacity => due.push(sent),
        }
        match *ev {
            Event::Batch(i) => {
                let b = &corpus.batches[i];
                spans_before += b.n_spans;
                let mut spans = owned[i].take().unwrap_or_else(|| b.spans_owned());
                loop {
                    let t = Instant::now();
                    let report = stack.submit(spans, b.now_us);
                    submit_ns += t.elapsed().as_nanos() as u64;
                    if report.rejected == 0 {
                        break;
                    }
                    if wire {
                        // The router refuses only when no shard is
                        // live: nothing to resend to.
                        refused.extend(b.spans_owned().iter().map(|s| s.trace_id));
                        break;
                    }
                    // A full shard queue refused the (single-shard)
                    // batch whole: back off briefly and resend it.
                    resubmits += 1;
                    std::thread::sleep(Duration::from_micros(50));
                    spans = b.spans_owned();
                }
            }
            Event::Tick(now_us) => {
                let t = Instant::now();
                stack.tick(now_us);
                tick_ns += t.elapsed().as_nanos() as u64;
            }
        }
        let polled = stack.poll();
        if !polled.is_empty() {
            let at = Instant::now();
            verdicts.extend(polled.into_iter().map(|v| (v, at)));
        }
    }

    // Drain: every expected verdict in, every trace completed.
    let deadline = Instant::now() + DRAIN_DEADLINE;
    let mut drain_timed_out = false;
    loop {
        let polled = stack.poll();
        let at = Instant::now();
        verdicts.extend(polled.into_iter().map(|v| (v, at)));
        if verdicts.len() >= expected_verdicts && stack.traces_finalized() >= target.traces {
            break;
        }
        if at > deadline {
            drain_timed_out = true;
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let drained = Instant::now();
    let cpu_us = crate::harness::process_cpu_us() - cpu0;
    let finished = stack.shutdown();
    let peak_rss_mb = rss.peak_growth_mb();
    let at = Instant::now();
    verdicts.extend(finished.verdicts.iter().cloned().map(|v| (v, at)));
    PhaseResult {
        verdicts,
        first_submit: t0,
        drained,
        drain_timed_out,
        due,
        lateness,
        submit_ns,
        tick_ns,
        resubmits,
        refused,
        cpu_us,
        peak_rss_mb,
        finished,
    }
}
