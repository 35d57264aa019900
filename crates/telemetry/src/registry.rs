//! Named counters, gauges, and duration histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`DurationHistogram`]) are cheap
//! `Arc` clones over atomic cells, so they can be resolved once and
//! shared across worker threads without touching the registry again.
//! All state is integers (gauges store `f64` bits), so concurrent
//! updates and merges are exactly order-independent.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Relaxed everywhere: telemetry cells carry no synchronization duty.
const ORDER: Ordering = Ordering::Relaxed;

/// A monotonically increasing `u64` counter.
///
/// By workspace convention counters count **deterministic work** —
/// quantities that are bit-identical at any thread count.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, ORDER);
    }

    /// Adds 1.
    pub fn increment(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn value(&self) -> u64 {
        self.cell.load(ORDER)
    }
}

/// A last-write-wins `f64` gauge (wall-clock territory: never compared
/// across runs).
#[derive(Debug, Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), ORDER);
    }

    /// The current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(ORDER))
    }
}

/// The shared state behind a [`DurationHistogram`]: fixed equal-width
/// bins over `[lo_s, hi_s)` seconds with saturating end bins — the
/// same sketch shape as `usta-fleet`'s aggregation histogram — plus
/// exact count/sum/min/max in nanoseconds.
#[derive(Debug)]
struct HistCell {
    lo_s: f64,
    hi_s: f64,
    bins: Box<[AtomicU64]>,
    count: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl HistCell {
    fn new(lo_s: f64, hi_s: f64, bins: usize) -> HistCell {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(
            lo_s.is_finite() && hi_s.is_finite() && lo_s < hi_s,
            "bad range"
        );
        HistCell {
            lo_s,
            hi_s,
            bins: (0..bins).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Bin index for a duration, with saturating end bins (NaN cannot
    /// occur: nanoseconds are integers).
    fn bin(&self, ns: u64) -> usize {
        let n = self.bins.len();
        let frac = (ns as f64 * 1e-9 - self.lo_s) / (self.hi_s - self.lo_s);
        if frac <= 0.0 {
            0
        } else {
            ((frac * n as f64) as usize).min(n - 1)
        }
    }
}

/// A registered duration histogram (wall-clock territory: reported,
/// never compared).
#[derive(Debug, Clone)]
pub struct DurationHistogram {
    cell: Arc<HistCell>,
}

impl DurationHistogram {
    /// Records one duration.
    pub fn record(&self, duration: Duration) {
        self.record_nanos(duration.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one duration given in nanoseconds.
    pub fn record_nanos(&self, ns: u64) {
        let cell = &self.cell;
        cell.bins[cell.bin(ns)].fetch_add(1, ORDER);
        cell.count.fetch_add(1, ORDER);
        cell.sum_ns.fetch_add(ns, ORDER);
        cell.min_ns.fetch_min(ns, ORDER);
        cell.max_ns.fetch_max(ns, ORDER);
    }

    /// An empty [`LocalTimings`] with this histogram's exact shape —
    /// the hot-loop accumulator to flush back via
    /// [`DurationHistogram::merge_local`].
    pub fn local(&self) -> LocalTimings {
        LocalTimings::new(self.cell.lo_s, self.cell.hi_s, self.cell.bins.len())
    }

    /// Folds a local accumulator in (no-op when empty).
    ///
    /// # Panics
    ///
    /// Panics if `local` has a different shape.
    pub fn merge_local(&self, local: &LocalTimings) {
        if local.count == 0 {
            return;
        }
        let cell = &self.cell;
        assert_eq!(cell.lo_s, local.lo_s, "histogram ranges differ");
        assert_eq!(cell.hi_s, local.hi_s, "histogram ranges differ");
        assert_eq!(cell.bins.len(), local.bins.len(), "bin counts differ");
        for (bin, &n) in cell.bins.iter().zip(&local.bins) {
            if n > 0 {
                bin.fetch_add(n, ORDER);
            }
        }
        cell.count.fetch_add(local.count, ORDER);
        cell.sum_ns.fetch_add(local.sum_ns, ORDER);
        cell.min_ns.fetch_min(local.min_ns, ORDER);
        cell.max_ns.fetch_max(local.max_ns, ORDER);
    }

    /// A point-in-time summary of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let cell = &self.cell;
        let count = cell.count.load(ORDER);
        let bins: Vec<u64> = cell.bins.iter().map(|b| b.load(ORDER)).collect();
        let quantile = |q: f64| -> f64 {
            if count == 0 {
                return f64::NAN;
            }
            let target = (q.clamp(0.0, 1.0) * count as f64).ceil().max(1.0) as u64;
            let mut cum = 0u64;
            for (i, &b) in bins.iter().enumerate() {
                cum += b;
                if cum >= target {
                    let width = (cell.hi_s - cell.lo_s) / bins.len() as f64;
                    return cell.lo_s + width * (i + 1) as f64;
                }
            }
            cell.hi_s
        };
        let total_s = cell.sum_ns.load(ORDER) as f64 * 1e-9;
        HistogramSnapshot {
            count,
            total_s,
            mean_s: if count == 0 {
                f64::NAN
            } else {
                total_s / count as f64
            },
            min_s: if count == 0 {
                f64::NAN
            } else {
                cell.min_ns.load(ORDER) as f64 * 1e-9
            },
            p50_s: quantile(0.50),
            p90_s: quantile(0.90),
            p99_s: quantile(0.99),
            max_s: if count == 0 {
                f64::NAN
            } else {
                cell.max_ns.load(ORDER) as f64 * 1e-9
            },
        }
    }
}

/// A point-in-time summary of one duration histogram (seconds).
/// Quantiles read off the sketch at bin resolution (upper bin edge);
/// min/max/total are exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Exact total, seconds.
    pub total_s: f64,
    /// Exact mean, seconds (NaN when empty).
    pub mean_s: f64,
    /// Exact minimum, seconds (NaN when empty).
    pub min_s: f64,
    /// Median at bin resolution.
    pub p50_s: f64,
    /// 90th percentile at bin resolution.
    pub p90_s: f64,
    /// 99th percentile at bin resolution.
    pub p99_s: f64,
    /// Exact maximum, seconds (NaN when empty).
    pub max_s: f64,
}

/// A plain, thread-local duration accumulator for hot loops: no
/// atomics, no registry traffic. Create one per run (or derive the
/// shape from a registered histogram via [`DurationHistogram::local`]),
/// record into it per step, and flush once at the end with
/// [`Registry::merge_timings`].
#[derive(Debug, Clone)]
pub struct LocalTimings {
    lo_s: f64,
    hi_s: f64,
    bins: Vec<u64>,
    count: u64,
    sum_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl LocalTimings {
    /// An empty accumulator with `bins` equal-width bins over
    /// `[lo_s, hi_s)` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or the range is empty or non-finite.
    pub fn new(lo_s: f64, hi_s: f64, bins: usize) -> LocalTimings {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(
            lo_s.is_finite() && hi_s.is_finite() && lo_s < hi_s,
            "bad range"
        );
        LocalTimings {
            lo_s,
            hi_s,
            bins: vec![0; bins],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Records one duration.
    pub fn record(&mut self, duration: Duration) {
        self.record_nanos(duration.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one duration given in nanoseconds.
    pub fn record_nanos(&mut self, ns: u64) {
        let n = self.bins.len();
        let frac = (ns as f64 * 1e-9 - self.lo_s) / (self.hi_s - self.lo_s);
        let idx = if frac <= 0.0 {
            0
        } else {
            ((frac * n as f64) as usize).min(n - 1)
        };
        self.bins[idx] += 1;
        self.count += 1;
        self.sum_ns += ns;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Drains this accumulator, leaving it empty with the same shape.
    pub fn take(&mut self) -> LocalTimings {
        std::mem::replace(
            self,
            LocalTimings::new(self.lo_s, self.hi_s, self.bins.len()),
        )
    }
}

/// The name → instrument map. One per process behind
/// [`crate::Sink::active`]; tests build private ones.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<HistCell>>>,
}

/// Default duration-histogram shape: `[0, 1 s)` in 1 ms bins.
const DEFAULT_LO_S: f64 = 0.0;
const DEFAULT_HI_S: f64 = 1.0;
const DEFAULT_BINS: usize = 1000;

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &'static str) -> Counter {
        let mut map = self.counters.lock().expect("counter map not poisoned");
        Counter {
            cell: Arc::clone(map.entry(name).or_default()),
        }
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        let mut map = self.gauges.lock().expect("gauge map not poisoned");
        Gauge {
            bits: Arc::clone(
                map.entry(name)
                    .or_insert_with(|| Arc::new(AtomicU64::new(0.0f64.to_bits()))),
            ),
        }
    }

    /// The duration histogram named `name` with the default shape
    /// (`[0, 1 s)` in 1 ms bins). An earlier registration's shape wins.
    pub fn histogram(&self, name: &'static str) -> DurationHistogram {
        self.histogram_with(name, DEFAULT_LO_S, DEFAULT_HI_S, DEFAULT_BINS)
    }

    /// The duration histogram named `name`, created with `bins`
    /// equal-width bins over `[lo_s, hi_s)` seconds on first use. An
    /// earlier registration's shape wins — pick one shape per name.
    pub fn histogram_with(
        &self,
        name: &'static str,
        lo_s: f64,
        hi_s: f64,
        bins: usize,
    ) -> DurationHistogram {
        let mut map = self.histograms.lock().expect("histogram map not poisoned");
        DurationHistogram {
            cell: Arc::clone(
                map.entry(name)
                    .or_insert_with(|| Arc::new(HistCell::new(lo_s, hi_s, bins))),
            ),
        }
    }

    /// Flushes a local accumulator into the histogram named `name`
    /// (registered with the accumulator's own shape on first use).
    /// No-op when `local` is empty, so never-hit paths register
    /// nothing.
    pub fn merge_timings(&self, name: &'static str, local: &LocalTimings) {
        if local.is_empty() {
            return;
        }
        self.histogram_with(name, local.lo_s, local.hi_s, local.bins.len())
            .merge_local(local);
    }

    /// An RAII span timing into the histogram named `name` (default
    /// shape unless registered earlier) and emitting one trace event
    /// on drop.
    pub fn span(&self, name: &'static str) -> crate::Span {
        crate::Span::enter(name, self.histogram(name))
    }

    /// Like [`Registry::span`] with an explicit histogram shape.
    pub fn span_with(&self, name: &'static str, lo_s: f64, hi_s: f64, bins: usize) -> crate::Span {
        crate::Span::enter(name, self.histogram_with(name, lo_s, hi_s, bins))
    }

    /// Every counter, sorted by name.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.counters
            .lock()
            .expect("counter map not poisoned")
            .iter()
            .map(|(&name, cell)| (name, cell.load(ORDER)))
            .collect()
    }

    /// Every gauge, sorted by name.
    pub fn gauges(&self) -> Vec<(&'static str, f64)> {
        self.gauges
            .lock()
            .expect("gauge map not poisoned")
            .iter()
            .map(|(&name, bits)| (name, f64::from_bits(bits.load(ORDER))))
            .collect()
    }

    /// A snapshot of every histogram, sorted by name.
    pub fn histogram_snapshots(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        self.histograms
            .lock()
            .expect("histogram map not poisoned")
            .iter()
            .map(|(&name, cell)| {
                (
                    name,
                    DurationHistogram {
                        cell: Arc::clone(cell),
                    }
                    .snapshot(),
                )
            })
            .collect()
    }

    /// The metrics-JSON export (`usta-telemetry/v1`): deterministic
    /// counters, wall-clock gauges, and wall-clock histogram summaries,
    /// keys sorted, floats in shortest round-trip form (non-finite
    /// values export as `null`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"usta-telemetry/v1\",\n");
        out.push_str("  \"deterministic\": {");
        let counters = self.counters();
        for (i, (name, value)) in counters.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            out.push_str(&format!("{sep}    {}: {value}", json_string(name)));
        }
        out.push_str(if counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"gauges\": {");
        let gauges = self.gauges();
        for (i, (name, value)) in gauges.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            out.push_str(&format!(
                "{sep}    {}: {}",
                json_string(name),
                json_number(*value)
            ));
        }
        out.push_str(if gauges.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"wallclock\": {");
        let snapshots = self.histogram_snapshots();
        for (i, (name, s)) in snapshots.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            out.push_str(&format!(
                "{sep}    {}: {{\"count\": {}, \"total_s\": {}, \"mean_s\": {}, \
                 \"min_s\": {}, \"p50_s\": {}, \"p90_s\": {}, \"p99_s\": {}, \"max_s\": {}}}",
                json_string(name),
                s.count,
                json_number(s.total_s),
                json_number(s.mean_s),
                json_number(s.min_s),
                json_number(s.p50_s),
                json_number(s.p90_s),
                json_number(s.p99_s),
                json_number(s.max_s),
            ));
        }
        out.push_str(if snapshots.is_empty() {
            "}\n"
        } else {
            "\n  }\n"
        });
        out.push('}');
        out.push('\n');
        out
    }
    /// The registry in Prometheus/OpenMetrics text exposition format:
    /// counters and gauges one sample each, histograms as cumulative
    /// `_bucket{le="…"}` series (the fixed-width sketch bins coarsened
    /// to at most [`PROM_MAX_BUCKETS`] edges plus `+Inf`) with exact
    /// `_sum` and `_count`. Metric names flatten to the Prometheus
    /// charset under a `usta_` prefix (`fleet.queue_wait` →
    /// `usta_fleet_queue_wait`); histogram values are seconds, the
    /// conventional Prometheus duration unit.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.counters() {
            let prom = prom_name(name);
            out.push_str(&format!("# TYPE {prom} counter\n{prom} {value}\n"));
        }
        for (name, value) in self.gauges() {
            let prom = prom_name(name);
            out.push_str(&format!(
                "# TYPE {prom} gauge\n{prom} {}\n",
                prom_number(value)
            ));
        }
        let cells: Vec<(&'static str, Arc<HistCell>)> = self
            .histograms
            .lock()
            .expect("histogram map not poisoned")
            .iter()
            .map(|(&name, cell)| (name, Arc::clone(cell)))
            .collect();
        for (name, cell) in cells {
            let prom = prom_name(name);
            out.push_str(&format!("# TYPE {prom} histogram\n"));
            let bins: Vec<u64> = cell.bins.iter().map(|b| b.load(ORDER)).collect();
            let group = bins.len().div_ceil(PROM_MAX_BUCKETS);
            let width = (cell.hi_s - cell.lo_s) / bins.len() as f64;
            let mut cumulative = 0u64;
            for (i, chunk) in bins.chunks(group).enumerate() {
                cumulative += chunk.iter().sum::<u64>();
                let upper = cell.lo_s + width * ((i * group + chunk.len()) as f64);
                out.push_str(&format!(
                    "{prom}_bucket{{le=\"{}\"}} {cumulative}\n",
                    prom_number(upper)
                ));
            }
            let count = cell.count.load(ORDER);
            out.push_str(&format!("{prom}_bucket{{le=\"+Inf\"}} {count}\n"));
            out.push_str(&format!(
                "{prom}_sum {}\n{prom}_count {count}\n",
                prom_number(cell.sum_ns.load(ORDER) as f64 * 1e-9)
            ));
        }
        out
    }
}

/// Most cumulative buckets [`Registry::render_prometheus`] emits per
/// histogram (the 1000-bin sketches coarsen to 20 edges plus `+Inf`).
pub const PROM_MAX_BUCKETS: usize = 20;

/// A registry name flattened to the Prometheus metric-name charset
/// under the workspace prefix.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("usta_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

/// A Prometheus sample value: shortest round-trip floats, with the
/// exposition format's spellings for non-finite values.
fn prom_number(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v == f64::INFINITY {
        "+Inf".to_owned()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else {
        format!("{v}")
    }
}

/// A JSON string literal (quotes and escapes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number literal; non-finite values become `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_share_their_cell() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(2);
        b.increment();
        assert_eq!(a.value(), 3);
        assert_eq!(r.counters(), vec![("x", 3)]);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let r = Registry::new();
        let g = r.gauge("threads");
        assert_eq!(g.value(), 0.0);
        g.set(4.0);
        g.set(2.5);
        assert_eq!(r.gauges(), vec![("threads", 2.5)]);
    }

    #[test]
    fn histogram_records_and_quantiles_bracket_the_data() {
        let r = Registry::new();
        let h = r.histogram_with("step", 0.0, 1.0, 1000);
        for ms in 0..1000u64 {
            h.record_nanos(ms * 1_000_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert!((s.p50_s - 0.5).abs() < 0.005, "p50 {}", s.p50_s);
        assert!((s.p99_s - 0.99).abs() < 0.005, "p99 {}", s.p99_s);
        assert_eq!(s.min_s, 0.0);
        assert!((s.max_s - 0.999).abs() < 1e-12);
        assert!((s.mean_s - 0.4995).abs() < 1e-9);
    }

    #[test]
    fn histogram_saturates_out_of_range() {
        let r = Registry::new();
        let h = r.histogram_with("h", 0.001, 0.002, 10);
        h.record(Duration::from_nanos(1)); // below lo → first bin
        h.record(Duration::from_secs(5)); // above hi → last bin
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert!(s.p99_s <= 0.002);
    }

    #[test]
    fn empty_histogram_snapshot_is_nan_not_garbage() {
        let r = Registry::new();
        let s = r.histogram("never").snapshot();
        assert_eq!(s.count, 0);
        assert!(s.mean_s.is_nan() && s.min_s.is_nan() && s.max_s.is_nan());
        assert!(s.p50_s.is_nan());
    }

    #[test]
    fn local_timings_flush_matches_direct_recording() {
        let r = Registry::new();
        let direct = r.histogram_with("direct", 0.0, 0.01, 100);
        let mut local = direct.local();
        for us in [10u64, 50, 900, 4_000, 20_000] {
            direct.record_nanos(us * 1000);
            local.record_nanos(us * 1000);
        }
        r.merge_timings("flushed", &local);
        let flushed = r.histogram_with("flushed", 0.0, 0.01, 100);
        assert_eq!(direct.snapshot(), flushed.snapshot());
    }

    #[test]
    fn merging_empty_timings_registers_nothing() {
        let r = Registry::new();
        r.merge_timings("never", &LocalTimings::new(0.0, 1.0, 10));
        assert!(r.histogram_snapshots().is_empty());
    }

    #[test]
    fn take_drains_and_keeps_the_shape() {
        let mut local = LocalTimings::new(0.0, 1.0, 10);
        local.record(Duration::from_millis(100));
        let taken = local.take();
        assert_eq!(taken.count(), 1);
        assert!(local.is_empty());
        // Same shape: merging the drained accumulator still works.
        let r = Registry::new();
        r.merge_timings("t", &taken);
        r.merge_timings("t", &local);
        assert_eq!(r.histogram_with("t", 0.0, 1.0, 10).snapshot().count, 1);
    }

    #[test]
    #[should_panic(expected = "ranges differ")]
    fn shape_mismatch_is_loud() {
        let r = Registry::new();
        let h = r.histogram_with("h", 0.0, 1.0, 10);
        let mut wrong = LocalTimings::new(0.0, 2.0, 10);
        wrong.record_nanos(1);
        h.merge_local(&wrong);
    }

    #[test]
    fn to_json_is_valid_and_sorted() {
        let r = Registry::new();
        r.counter("b.second").add(2);
        r.counter("a.first").add(1);
        r.gauge("g").set(1.5);
        r.histogram_with("h", 0.0, 1.0, 10)
            .record(Duration::from_millis(250));
        let text = r.to_json();
        let value = crate::json::parse(&text).expect("valid JSON");
        let obj = value.as_object().expect("top-level object");
        assert_eq!(obj["schema"].as_str(), Some("usta-telemetry/v1"), "{text}");
        let det = obj["deterministic"].as_object().expect("object");
        assert_eq!(det["a.first"].as_f64(), Some(1.0));
        assert_eq!(det["b.second"].as_f64(), Some(2.0));
        // BTreeMap iteration: a.first serializes before b.second.
        assert!(text.find("a.first").unwrap() < text.find("b.second").unwrap());
        assert_eq!(obj["gauges"].as_object().unwrap()["g"].as_f64(), Some(1.5));
        let h = obj["wallclock"].as_object().unwrap()["h"]
            .as_object()
            .expect("histogram object");
        assert_eq!(h["count"].as_f64(), Some(1.0));
        assert!((h["total_s"].as_f64().unwrap() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn empty_registry_exports_valid_json() {
        let text = Registry::new().to_json();
        let value = crate::json::parse(&text).expect("valid JSON");
        let obj = value.as_object().unwrap();
        assert!(obj["deterministic"].as_object().unwrap().is_empty());
        assert!(obj["wallclock"].as_object().unwrap().is_empty());
    }

    #[test]
    fn prometheus_rendering_types_every_instrument() {
        let r = Registry::new();
        r.counter("fleet.triples").add(7);
        r.gauge("fleet.queue_depth").set(3.0);
        let h = r.histogram_with("fleet.queue_wait", 0.0, 0.1, 1000);
        h.record(Duration::from_millis(5));
        h.record(Duration::from_millis(95));
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE usta_fleet_triples counter\nusta_fleet_triples 7\n"));
        assert!(text.contains("# TYPE usta_fleet_queue_depth gauge\nusta_fleet_queue_depth 3\n"));
        assert!(text.contains("# TYPE usta_fleet_queue_wait histogram\n"));
        assert!(text.contains("usta_fleet_queue_wait_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("usta_fleet_queue_wait_count 2\n"));
        let sum: f64 = text
            .lines()
            .find_map(|l| l.strip_prefix("usta_fleet_queue_wait_sum "))
            .unwrap()
            .parse()
            .unwrap();
        assert!((sum - 0.1).abs() < 1e-9, "exact sum survives: {sum}");
    }

    #[test]
    fn prometheus_buckets_are_cumulative_and_bounded() {
        let r = Registry::new();
        let h = r.histogram_with("h", 0.0, 1.0, 1000);
        for ms in 0..1000u64 {
            h.record_nanos(ms * 1_000_000);
        }
        let text = r.render_prometheus();
        let buckets: Vec<(f64, u64)> = text
            .lines()
            .filter_map(|l| l.strip_prefix("usta_h_bucket{le=\""))
            .filter_map(|rest| {
                let (le, count) = rest.split_once("\"} ")?;
                if le == "+Inf" {
                    return None;
                }
                Some((le.parse().ok()?, count.parse().ok()?))
            })
            .collect();
        assert_eq!(buckets.len(), PROM_MAX_BUCKETS, "1000 bins coarsen to 20");
        for pair in buckets.windows(2) {
            assert!(pair[0].0 < pair[1].0, "edges ascend");
            assert!(pair[0].1 <= pair[1].1, "counts are cumulative");
        }
        assert_eq!(buckets.last().unwrap().1, 1000, "last edge holds all");
        assert!((buckets.last().unwrap().0 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prometheus_nonfinite_gauges_use_exposition_spellings() {
        let r = Registry::new();
        r.gauge("a").set(f64::NAN);
        r.gauge("b").set(f64::INFINITY);
        let text = r.render_prometheus();
        assert!(text.contains("usta_a NaN\n"));
        assert!(text.contains("usta_b +Inf\n"));
    }

    #[test]
    fn empty_registry_renders_empty_prometheus_text() {
        assert_eq!(Registry::new().render_prometheus(), "");
    }

    #[test]
    fn concurrent_counting_loses_nothing() {
        let r = Registry::new();
        let counter = r.counter("n");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let counter = counter.clone();
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        counter.increment();
                    }
                });
            }
        });
        assert_eq!(counter.value(), 40_000);
    }
}
