//! Named counters, gauges, and duration histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`DurationHistogram`]) are cheap
//! `Arc` clones over shared cells (atomics; a locked [`Sketch`] for a
//! histogram), so they can be resolved once and shared across worker
//! threads without touching the registry again. All state is integers
//! (gauges store `f64` bits), so concurrent updates and merges are
//! exactly order-independent.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::json::{write_f64, write_json_number, write_json_string, write_u64};
use crate::sketch::Sketch;

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

/// The shared state behind a [`DurationHistogram`]: the sketch of the
/// recorded nanoseconds and their exact sum.
type HistState = Mutex<(Sketch, u64)>;

/// A registered duration histogram (wall-clock territory: reported,
/// never compared).
#[derive(Debug, Clone)]
pub struct DurationHistogram {
    state: Arc<HistState>,
}

impl DurationHistogram {
    fn lock(&self) -> std::sync::MutexGuard<'_, (Sketch, u64)> {
        self.state.lock().expect("histogram not poisoned")
    }

    /// Records one duration.
    pub fn record(&self, duration: Duration) {
        self.record_nanos(duration.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one duration given in nanoseconds.
    pub fn record_nanos(&self, ns: u64) {
        self.record_all_nanos([ns]);
    }

    /// Records every duration in `ns` (nanoseconds) under one lock.
    pub fn record_all_nanos(&self, ns: impl IntoIterator<Item = u64>) {
        let mut state = self.lock();
        let (sketch, sum_ns) = &mut *state;
        for ns in ns {
            sketch.record(ns as f64);
            *sum_ns = sum_ns.wrapping_add(ns);
        }
    }

    /// A point-in-time summary of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let state = self.lock();
        let (sketch, sum_ns) = &*state;
        let count = sketch.count();
        let seconds = |ns: f64| ns * 1e-9;
        let total_s = seconds(*sum_ns as f64);
        let nan_if_empty = |v: f64| if count == 0 { f64::NAN } else { v };
        HistogramSnapshot {
            count,
            total_s,
            mean_s: total_s / count as f64,
            min_s: nan_if_empty(seconds(sketch.min())),
            p50_s: seconds(sketch.quantile(0.50)),
            p90_s: seconds(sketch.quantile(0.90)),
            p99_s: seconds(sketch.quantile(0.99)),
            max_s: nan_if_empty(seconds(sketch.max())),
        }
    }
}

/// A point-in-time summary of one duration histogram (seconds).
/// Quantiles read off the sketch by nearest rank, within 2^-10 relative
/// of the exact quantile and inside the exact `[min_s, max_s]`;
/// min/max/total are exact. Every field but `count` and `total_s` is
/// NaN when empty.
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
    /// Median, within `[min_s, max_s]`.
    pub p50_s: f64,
    /// 90th percentile, within `[min_s, max_s]`.
    pub p90_s: f64,
    /// 99th percentile, within `[min_s, max_s]`.
    pub p99_s: f64,
    /// Exact maximum, seconds (NaN when empty).
    pub max_s: f64,
}

/// The name → instrument map. One per process behind
/// [`crate::Sink::active`]; tests build private ones.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<HistState>>>,
}

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

    /// The duration histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &'static str) -> DurationHistogram {
        let mut map = self.histograms.lock().expect("histogram map not poisoned");
        DurationHistogram {
            state: Arc::clone(map.entry(name).or_default()),
        }
    }

    /// An RAII span timing into the histogram named `name` and emitting
    /// one trace event on drop.
    pub fn span(&self, name: &'static str) -> crate::Span {
        crate::Span::enter(name, self.histogram(name))
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
            .map(|(&name, state)| {
                let state = Arc::clone(state);
                (name, DurationHistogram { state }.snapshot())
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
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            write_json_string(&mut out, name);
            out.push_str(": ");
            write_u64(&mut out, *value);
        }
        out.push_str(if counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"gauges\": {");
        let gauges = self.gauges();
        for (i, (name, value)) in gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            write_json_string(&mut out, name);
            out.push_str(": ");
            write_json_number(&mut out, *value);
        }
        out.push_str(if gauges.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"wallclock\": {");
        let snapshots = self.histogram_snapshots();
        for (i, (name, s)) in snapshots.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            write_json_string(&mut out, name);
            out.push_str(": {\"count\": ");
            write_u64(&mut out, s.count);
            for (key, value) in [
                ("total_s", s.total_s),
                ("mean_s", s.mean_s),
                ("min_s", s.min_s),
                ("p50_s", s.p50_s),
                ("p90_s", s.p90_s),
                ("p99_s", s.p99_s),
                ("max_s", s.max_s),
            ] {
                out.push_str(", \"");
                out.push_str(key);
                out.push_str("\": ");
                write_json_number(&mut out, value);
            }
            out.push('}');
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
    /// `_bucket{le="…"}` series (one edge per populated power of two of
    /// nanoseconds, `2^k − 1` ns, straight from the sketch's keys, plus
    /// `+Inf`) with
    /// exact `_sum` and `_count`. Metric names flatten to the Prometheus
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
        let states: Vec<(&'static str, Arc<HistState>)> = self
            .histograms
            .lock()
            .expect("histogram map not poisoned")
            .iter()
            .map(|(&name, state)| (name, Arc::clone(state)))
            .collect();
        for (name, state) in states {
            let (binades, count, sum_ns) = {
                let state = state.lock().expect("histogram not poisoned");
                (state.0.cumulative_binades(), state.0.count(), state.1)
            };
            let prom = prom_name(name);
            out.push_str(&format!("# TYPE {prom} histogram\n"));
            // Nanoseconds are integers: the most a binade holds is one
            // below its exclusive edge (0 for the binade of zero).
            for (edge_ns, cumulative) in binades {
                out.push_str(&format!(
                    "{prom}_bucket{{le=\"{}\"}} {cumulative}\n",
                    prom_number((edge_ns - 1.0).max(0.0) * 1e-9)
                ));
            }
            out.push_str(&format!("{prom}_bucket{{le=\"+Inf\"}} {count}\n"));
            out.push_str(&format!(
                "{prom}_sum {}\n{prom}_count {count}\n",
                prom_number(sum_ns as f64 * 1e-9)
            ));
        }
        out
    }
}

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
        let mut out = String::new();
        write_f64(&mut out, v);
        out
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
        let h = r.histogram("step");
        for ms in 0..1000u64 {
            h.record_nanos(ms * 1_000_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert!((s.p50_s - 0.499).abs() <= 0.499 / 1024.0, "p50 {}", s.p50_s);
        assert!((s.p99_s - 0.989).abs() <= 0.989 / 1024.0, "p99 {}", s.p99_s);
        assert_eq!(s.min_s, 0.0);
        assert!((s.max_s - 0.999).abs() < 1e-12);
        assert!((s.mean_s - 0.4995).abs() < 1e-9);
    }

    #[test]
    fn quantiles_never_leave_the_observed_range() {
        // One 5 ns lap: every quantile is that lap, exactly.
        let r = Registry::new();
        let h = r.histogram("lap");
        h.record_nanos(5);
        let s = h.snapshot();
        assert!((s.min_s - 5e-9).abs() < 1e-18);
        assert_eq!(s.min_s, s.max_s);
        for q in [s.p50_s, s.p90_s, s.p99_s] {
            assert_eq!(q, s.max_s, "quantile {q} outside [min, max]");
        }
        // Durations from nanoseconds to hours share one histogram.
        let h = r.histogram("wide");
        h.record_all_nanos([1, 7_000, 5_000_000_000, 3_600_000_000_000]);
        let s = h.snapshot();
        assert!(s.min_s <= s.p50_s && s.p50_s <= s.p99_s && s.p99_s <= s.max_s);
        assert_eq!(s.p50_s, 7_000.0 * 1e-9, "7000 ns has 10 significant bits");
    }

    #[test]
    fn triple_sized_durations_spread_their_quantiles() {
        // 800 triples of 0.9-1.4 ms: a fixed 10 ms grid put them all in
        // one bin, so p50 = p99 = max.
        let r = Registry::new();
        let h = r.histogram("fleet.triple");
        h.record_all_nanos((0..800u64).map(|i| 900_000 + i * 625));
        let s = h.snapshot();
        assert!(s.p50_s < s.p99_s && s.p99_s <= s.max_s, "{s:?}");
        assert!((s.p50_s - 1.149_375e-3).abs() <= 1.149_375e-3 / 1024.0);
        assert!((s.p99_s - 1.394_375e-3).abs() <= 1.394_375e-3 / 1024.0);
    }

    #[test]
    fn record_all_matches_one_record_per_lap() {
        let r = Registry::new();
        let laps = [3u64, 250, 250, 9_999, 1_000_001];
        r.histogram("batch").record_all_nanos(laps);
        let one = r.histogram("one");
        laps.iter().for_each(|&ns| one.record_nanos(ns));
        assert_eq!(r.histogram("batch").snapshot(), one.snapshot());
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
    fn to_json_is_valid_and_sorted() {
        let r = Registry::new();
        r.counter("b.second").add(2);
        r.counter("a.first").add(1);
        r.gauge("g").set(1.5);
        r.histogram("h").record(Duration::from_millis(250));
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

    /// The export as `format!` wrote it: the byte-for-byte oracle for
    /// the `core::fmt`-free writer.
    fn reference_json(r: &Registry) -> String {
        use crate::json::{json_number, json_string};
        let mut out = String::from("{\n  \"schema\": \"usta-telemetry/v1\",\n");
        let entries = |out: &mut String, rows: Vec<String>, last: bool| {
            let close = if last { "}\n" } else { "},\n" };
            if rows.is_empty() {
                out.push_str(close);
            } else {
                out.push('\n');
                out.push_str(&rows.join(",\n"));
                out.push_str("\n  ");
                out.push_str(close);
            }
        };
        out.push_str("  \"deterministic\": {");
        let counters = r.counters().into_iter();
        let rows = counters.map(|(n, v)| format!("    {}: {v}", json_string(n)));
        entries(&mut out, rows.collect(), false);
        out.push_str("  \"gauges\": {");
        let gauges = r.gauges().into_iter();
        let rows = gauges.map(|(n, v)| format!("    {}: {}", json_string(n), json_number(v)));
        entries(&mut out, rows.collect(), false);
        out.push_str("  \"wallclock\": {");
        let rows = r.histogram_snapshots().into_iter().map(|(n, s)| {
            format!(
                "    {}: {{\"count\": {}, \"total_s\": {}, \"mean_s\": {}, \"min_s\": {}, \
                 \"p50_s\": {}, \"p90_s\": {}, \"p99_s\": {}, \"max_s\": {}}}",
                json_string(n),
                s.count,
                json_number(s.total_s),
                json_number(s.mean_s),
                json_number(s.min_s),
                json_number(s.p50_s),
                json_number(s.p90_s),
                json_number(s.p99_s),
                json_number(s.max_s),
            )
        });
        entries(&mut out, rows.collect(), true);
        out.push_str("}\n");
        out
    }

    #[test]
    fn to_json_matches_the_formatted_reference_bytes() {
        let r = Registry::new();
        assert_eq!(r.to_json(), reference_json(&r));
        r.counter("b.second").add(u64::MAX);
        r.counter("a.first").add(0);
        r.gauge("g").set(1.5);
        r.gauge("nan").set(f64::NAN);
        r.gauge("tiny").set(-1e-300);
        r.histogram("empty");
        let h = r.histogram("h");
        h.record(Duration::from_nanos(123_456_789));
        h.record(Duration::from_millis(250));
        assert_eq!(r.to_json(), reference_json(&r));
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
        let h = r.histogram("fleet.queue_wait");
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
        let h = r.histogram("h");
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
        // Zero, then 1 ms .. 999 ms: the octaves 2^19 .. 2^29 ns.
        assert_eq!(buckets.len(), 12, "one edge per populated power of two");
        assert_eq!(buckets[0].1, 1, "the zero lap");
        for pair in buckets.windows(2) {
            assert!(pair[0].0 < pair[1].0, "edges ascend");
            assert!(pair[0].1 <= pair[1].1, "counts are cumulative");
        }
        let as_ns = |le: f64| (le * 1e9).round() as u64;
        for &(le, _) in &buckets[1..] {
            assert!((as_ns(le) + 1).is_power_of_two(), "{le} s");
        }
        let last = ((1u64 << 30) - 1) as f64 * 1e-9;
        assert_eq!(
            *buckets.last().unwrap(),
            (last, 1000),
            "last edge holds all"
        );
        // Each edge counts exactly the laps at or below it.
        for &(le, count) in &buckets {
            let at_or_below = (0..1000u64).filter(|ms| ms * 1_000_000 <= as_ns(le));
            assert_eq!(count, at_or_below.count() as u64, "le {le}");
        }
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
