//! Measurement helpers: percentiles that refuse thin tails, metric-name
//! validation, `/proc` CPU and RSS readers, open-loop lateness
//! bookkeeping, and the in-memory stage tracer.

use std::fmt::Write as _;
use std::time::Instant;

/// Samples a reported percentile must have beyond it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `q` (in `(0, 1]`) of `values`, refused when
/// fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(values: &[f64], q: f64) -> Result<f64, String> {
    let n = values.len();
    if n == 0 {
        return Err("no samples".into());
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < MIN_TAIL_SAMPLES {
        return Err(format!(
            "p{} of {n} samples has {beyond} beyond it (< {MIN_TAIL_SAMPLES})",
            q * 100.0
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median (the p50 rule above, without the tail requirement, for small
/// repeat counts such as set-up repetitions).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Metric names: `[A-Za-z0-9_.-]+`, starting with a letter or digit, at
/// most 64 characters.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// `/proc` reports CPU time in clock ticks of `USER_HZ`, which Linux
/// fixes at 100 for every architecture's userspace ABI.
const USER_HZ: u64 = 100;

/// User + system CPU time, µs, from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_us(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the command name: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.get(14 - 3)?.parse().ok()?;
    let stime: u64 = fields.get(15 - 3)?.parse().ok()?;
    Some((utime + stime) * 1_000_000 / USER_HZ)
}

/// A `kB` field of `/proc/<pid>/status` (`VmHWM`, `VmRSS`), from its
/// text.
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// This process's CPU time so far, µs.
pub fn process_cpu_us() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_us(&s))
        .expect("readable /proc/self/stat")
}

fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, field))
        .expect("readable /proc/self/status")
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc: give free heap pages back to the kernel.
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Return freed heap memory to the kernel, so the resident set counts
/// live data only and memory a later stretch of work reuses is counted
/// as growth.
fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: malloc_trim only releases free pages of the allocator's
    // own arenas; it touches no live allocation.
    unsafe {
        malloc_trim(0);
    }
}

/// Peak resident memory a stretch of work adds. [`RssWatermark::start`]
/// trims the heap, resets the kernel's peak (`VmHWM`) by writing `5` to
/// `/proc/self/clear_refs`, and takes the resident set (`VmRSS`) as the
/// baseline; [`RssWatermark::peak_growth_mb`] is the peak since then
/// less that baseline. Memory held before the start (the corpus) is
/// not counted.
pub struct RssWatermark {
    base_kb: u64,
}

impl RssWatermark {
    pub fn start() -> Self {
        trim_heap();
        std::fs::write("/proc/self/clear_refs", "5")
            .expect("reset peak RSS via /proc/self/clear_refs");
        RssWatermark {
            base_kb: status_kb("VmRSS"),
        }
    }

    /// Peak resident set since [`RssWatermark::start`] less the
    /// resident set then, MB.
    pub fn peak_growth_mb(&self) -> f64 {
        status_kb("VmHWM").saturating_sub(self.base_kb) as f64 / 1024.0
    }
}

/// Open-loop bookkeeping: how late the generator sent each message
/// relative to when it was due. Early sends count as on time.
#[derive(Debug, Default)]
pub struct Lateness {
    late_ms: Vec<f64>,
}

impl Lateness {
    pub fn record(&mut self, due: Instant, sent: Instant) {
        let late = sent.saturating_duration_since(due);
        self.late_ms.push(late.as_secs_f64() * 1e3);
    }

    pub fn p99_ms(&self) -> Result<f64, String> {
        percentile(&self.late_ms, 0.99)
    }
}

/// One recorded call: a stage name, its interval relative to the
/// tracer's epoch, its parent record, and the trace it served (0 when
/// the call is not about one trace).
#[derive(Debug, Clone, Copy)]
pub struct StageSpan {
    pub stage: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub trace_id: u64,
}

/// Records a span per call, in memory; written out at the end. When
/// disabled it records nothing and costs one branch per call.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<StageSpan>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, stage: &'static str, parent: Option<u32>, trace_id: u64) -> u32 {
        if !self.enabled {
            return 0;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(StageSpan {
            stage,
            start_ns: now,
            end_ns: now,
            parent,
            trace_id,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        if self.enabled {
            self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Time `f` as a child span of `parent`.
    pub fn call<T>(
        &mut self,
        stage: &'static str,
        parent: Option<u32>,
        trace_id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(stage, parent, trace_id);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[StageSpan] {
        &self.spans
    }

    /// Total duration, ns, of spans named `stage`.
    pub fn total_ns(&self, stage: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Durations, ns, of spans named `stage`, in record order.
    pub fn durations_ns(&self, stage: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Self time of span `id`: its duration minus the part of it its
    /// children cover (children of one parent never overlap here: the
    /// tracer is single-threaded).
    pub fn self_ns(&self, id: u32) -> u64 {
        let s = &self.spans[id as usize];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"stage\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"trace_id\":{}}}",
                s.stage, s.start_ns, s.end_ns, s.trace_id
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn percentile_refuses_thin_tails() {
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        // p95 of 199 samples: rank 190, 9 beyond.
        assert!(percentile(&v, 0.95).is_err());
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200 samples: rank 190, 10 beyond.
        assert_eq!(percentile(&v, 0.95), Ok(190.0));
        assert!(percentile(&v[..999.min(v.len())], 0.99).is_err());
        assert!(percentile(&[], 0.5).is_err());
        // p50 needs 20 samples.
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert!(percentile(&v, 0.5).is_err());
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Ok(10.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn metric_name_pattern() {
        for ok in ["setup_s", "core.localize_us_p95", "a-b.c_1", "9lives"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "ü", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn proc_stat_cpu_parse() {
        // Command name with spaces and a parenthesis.
        let stat = "4242 (my (bench) x) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 100 \
                    1000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_us(stat), Some(3_000_000));
        assert_eq!(parse_stat_cpu_us("garbage"), None);
        let live = std::fs::read_to_string("/proc/self/stat").unwrap();
        assert!(parse_stat_cpu_us(&live).is_some());
    }

    #[test]
    fn proc_status_rss_parse() {
        let status = "Name:\tbench\nVmPeak:\t  9000 kB\nVmHWM:\t    1536 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(1536));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(1024));
        assert_eq!(parse_status_kb("Name: x\n", "VmHWM"), None);
        // A field name is matched whole, not as a prefix.
        assert_eq!(parse_status_kb("VmHWMx:\t 7 kB\n", "VmHWM"), None);
        assert!(status_kb("VmRSS") > 0);
    }

    #[test]
    fn rss_watermark_counts_only_growth() {
        const MB: usize = 1 << 20;
        let held = vec![1u8; 64 * MB];
        let rss = RssWatermark::start();
        // Held before the start: not counted.
        assert!(rss.peak_growth_mb() < 32.0, "{}", rss.peak_growth_mb());
        let grown = vec![1u8; 64 * MB];
        std::hint::black_box((&held, &grown));
        assert!(rss.peak_growth_mb() >= 60.0, "{}", rss.peak_growth_mb());
        drop(grown);
        // Freed memory stays in the peak.
        assert!(rss.peak_growth_mb() >= 60.0);
        // A new start forgets it.
        assert!(RssWatermark::start().peak_growth_mb() < 32.0);
    }

    #[test]
    fn lateness_counts_from_due_time() {
        let mut l = Lateness::default();
        let t0 = Instant::now();
        // Issued 3 ms late, and once early (counts as on time).
        l.record(t0, t0 + Duration::from_millis(3));
        l.record(t0 + Duration::from_millis(5), t0);
        assert_eq!(l.late_ms, [3.0, 0.0]);
        // Too few samples for a p99.
        assert!(l.p99_ms().is_err());
        for i in 0..1000 {
            l.record(t0, t0 + Duration::from_micros(i));
        }
        assert!(l.p99_ms().unwrap() >= 0.98);
    }

    #[test]
    fn tracer_self_time_and_disable() {
        let mut t = Tracer::new(true);
        let root = t.open("root", None, 0);
        t.call("child", Some(root), 7, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        t.close(root);
        assert_eq!(t.spans().len(), 2);
        assert!(t.self_ns(root) < t.total_ns("root"));
        assert_eq!(t.self_ns(root) + t.total_ns("child"), t.total_ns("root"));
        assert!(t.to_jsonl().contains("\"stage\":\"child\""));
        let mut off = Tracer::new(false);
        let r = off.open("root", None, 0);
        off.call("child", Some(r), 0, || ());
        off.close(r);
        assert!(off.spans().is_empty());
    }
}
