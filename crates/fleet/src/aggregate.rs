//! Streaming, mergeable aggregation for fleet sweeps.
//!
//! A million-triple sweep cannot keep a million [`usta_sim::RunResult`]s
//! alive; each worker folds every finished triple into a small
//! [`FleetAggregate`] and the sweep merges the per-chunk partials
//! afterwards. Two kinds of state compose each metric:
//!
//! * [`OnlineStats`] — count, sum, min, max. Merging adds sums, so the
//!   result is bit-identical **as long as partials are merged in a
//!   fixed order** (the sweep merges chunk 0, 1, 2, … regardless of
//!   which thread produced each chunk).
//! * [`Sketch`] — integer counts of log-spaced buckets, one per value
//!   seen to within 2^-10 relative, with no range to choose. Integer
//!   counts make merging exactly order-independent; quantiles read off
//!   the cumulative counts by nearest rank and stay within the exact
//!   `[min, max]`. Memory grows with the distinct buckets a metric
//!   touches, not with a fixed grid.

use std::collections::BTreeMap;

use usta_telemetry::Sketch;

/// Running count / sum / min / max of one scalar metric.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineStats {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> OnlineStats {
        OnlineStats {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds in one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Folds another accumulator into this one.
    pub fn merge(&mut self, other: &OnlineStats) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the observations (NaN when empty).
    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }

    /// Smallest observation (+∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl Default for OnlineStats {
    fn default() -> OnlineStats {
        OnlineStats::new()
    }
}

/// One metric tracked both exactly (mean/min/max) and as a sketch
/// (quantiles).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricAggregate {
    /// Exact streaming moments.
    pub stats: OnlineStats,
    /// Quantile sketch.
    pub sketch: Sketch,
}

impl MetricAggregate {
    /// Folds in one observation.
    pub fn record(&mut self, x: f64) {
        self.stats.record(x);
        self.sketch.record(x);
    }

    /// Folds another metric aggregate into this one.
    pub fn merge(&mut self, other: &MetricAggregate) {
        self.stats.merge(&other.stats);
        self.sketch.merge(&other.sketch);
    }

    /// One formatted report row: mean, min, p50, p90, p99, max.
    pub fn row(&self) -> String {
        format!(
            "{:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4}",
            self.stats.mean(),
            self.stats.min(),
            self.sketch.quantile(0.50),
            self.sketch.quantile(0.90),
            self.sketch.quantile(0.99),
            self.stats.max(),
        )
    }
}

/// The full per-sweep aggregate: one [`MetricAggregate`] per reported
/// fleet metric, plus totals and per-frequency-domain statistics for
/// multi-domain devices.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetAggregate {
    /// Triples folded in so far.
    pub triples: u64,
    /// Triples folded in so far per device id (a device that ran none
    /// has no entry).
    pub device_triples: BTreeMap<&'static str, u64>,
    /// Total simulated seconds folded in so far.
    pub sim_seconds: f64,
    /// Peak true skin temperature per triple, °C.
    pub peak_skin: MetricAggregate,
    /// Fraction of each session spent above the user's own skin limit.
    pub time_over_limit: MetricAggregate,
    /// QoS per triple: delivered / demanded CPU cycles, 0–1.
    pub qos: MetricAggregate,
    /// Per-domain time-weighted average frequency (GHz), keyed
    /// `"<device>/<domain>"` — recorded only for multi-domain devices
    /// (a single-domain device's frequency story is its aggregate
    /// metrics; the per-domain rows are what the multi-domain control
    /// plane adds). `BTreeMap` keeps report order deterministic.
    pub domain_freq_ghz: BTreeMap<String, MetricAggregate>,
    /// Session-average effective display brightness (0–1), keyed by
    /// device id — recorded only for devices with a governed display
    /// domain (the arbiter can dim the panel, so the fleet reports how
    /// much light users actually got). `BTreeMap` keeps report order
    /// deterministic.
    pub brightness: BTreeMap<String, MetricAggregate>,
    /// Per-die-node peak temperature (°C), keyed `"<device>/<node>"` —
    /// recorded only for multi-cluster devices (the per-cluster
    /// thermal attribution the data-driven topology adds; single-die
    /// devices' thermal story is `peak skin`). `BTreeMap` keeps report
    /// order deterministic.
    pub die_temp_c: BTreeMap<String, MetricAggregate>,
    /// Summed deterministic work counters across every folded triple.
    /// Integer adds are exactly order-independent, so this joins the
    /// thread-count-invariant golden surface (CI asserts it equal at
    /// `--threads 1` vs `4`).
    pub work: usta_sim::RunWork,
}

impl FleetAggregate {
    /// An empty aggregate.
    pub fn new() -> FleetAggregate {
        FleetAggregate::default()
    }

    /// Folds one finished triple into the aggregate.
    pub fn record(&mut self, outcome: &TripleOutcome) {
        self.triples += 1;
        *self.device_triples.entry(outcome.device).or_default() += 1;
        self.sim_seconds += outcome.sim_seconds;
        self.work.merge(&outcome.work);
        self.peak_skin.record(outcome.peak_skin_c);
        self.time_over_limit.record(outcome.time_over_fraction);
        self.qos.record(outcome.qos);
        if outcome.domain_names.len() > 1 {
            for d in 0..outcome.domain_names.len() {
                // The display domain's "frequency" is brightness
                // permille; it reports through the brightness row
                // below, not as a bogus GHz figure.
                if outcome.domain_names[d] == "display" {
                    continue;
                }
                let key = format!("{}/{}", outcome.device, outcome.domain_names[d]);
                self.domain_freq_ghz
                    .entry(key)
                    .or_default()
                    .record(outcome.domain_freq_ghz[d]);
            }
            for d in 0..outcome.die_node_names.len() {
                let key = format!("{}/{}", outcome.device, outcome.die_node_names[d]);
                self.die_temp_c
                    .entry(key)
                    .or_default()
                    .record(outcome.peak_die_c[d]);
            }
        }
        if let Some(b) = outcome.avg_brightness {
            self.brightness
                .entry(outcome.device.to_owned())
                .or_default()
                .record(b);
        }
    }

    /// Folds another aggregate into this one. Call in a fixed partial
    /// order (chunk index) for bit-identical sums.
    pub fn merge(&mut self, other: &FleetAggregate) {
        self.triples += other.triples;
        for (&device, &n) in &other.device_triples {
            *self.device_triples.entry(device).or_default() += n;
        }
        self.sim_seconds += other.sim_seconds;
        self.work.merge(&other.work);
        self.peak_skin.merge(&other.peak_skin);
        self.time_over_limit.merge(&other.time_over_limit);
        self.qos.merge(&other.qos);
        for (rows, other_rows) in [
            (&mut self.domain_freq_ghz, &other.domain_freq_ghz),
            (&mut self.brightness, &other.brightness),
            (&mut self.die_temp_c, &other.die_temp_c),
        ] {
            for (key, metric) in other_rows {
                rows.entry(key.clone()).or_default().merge(metric);
            }
        }
    }

    /// The aggregate as a fixed-width report table. Sweeps that touch
    /// no multi-domain device print exactly the historical three-metric
    /// table; multi-domain devices append one `freq [GHz]` row per
    /// (device, CPU or GPU domain), one `brightness` row per
    /// display-domain device, and one `temp [C]` row per (device, die
    /// node), in key order.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "triples {:>10}   simulated {:>14.1} s\n",
            self.triples, self.sim_seconds
        ));
        out.push_str(&format!(
            "{:<18} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
            "metric", "mean", "min", "p50", "p90", "p99", "max"
        ));
        out.push_str(&format!(
            "{:<18} {}\n",
            "peak skin [C]",
            self.peak_skin.row()
        ));
        out.push_str(&format!(
            "{:<18} {}\n",
            "time over limit",
            self.time_over_limit.row()
        ));
        out.push_str(&format!("{:<18} {}\n", "qos", self.qos.row()));
        for (key, metric) in &self.domain_freq_ghz {
            out.push_str(&format!(
                "{:<18} {}\n",
                format!("freq [GHz] {key}"),
                metric.row()
            ));
        }
        for (key, metric) in &self.brightness {
            out.push_str(&format!(
                "{:<18} {}\n",
                format!("brightness {key}"),
                metric.row()
            ));
        }
        for (key, metric) in &self.die_temp_c {
            out.push_str(&format!(
                "{:<18} {}\n",
                format!("temp [C] {key}"),
                metric.row()
            ));
        }
        out
    }
}

/// The scalar summary of one simulated (user, device, scenario) triple —
/// all the sweep keeps of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TripleOutcome {
    /// Simulated session length, seconds.
    pub sim_seconds: f64,
    /// Peak true skin temperature, °C.
    pub peak_skin_c: f64,
    /// Fraction of the session above the user's skin limit, 0–1.
    pub time_over_fraction: f64,
    /// Delivered / demanded CPU cycles, 0–1.
    pub qos: f64,
    /// Canonical id of the device the triple ran on.
    pub device: &'static str,
    /// The device's frequency-domain names, big-first.
    pub domain_names: usta_soc::PerDomain<&'static str>,
    /// Time-weighted average frequency per domain, GHz, indexed like
    /// `domain_names`.
    pub domain_freq_ghz: usta_soc::PerDomain<f64>,
    /// The device's die-node names, big-first (from the spec's thermal
    /// topology).
    pub die_node_names: usta_soc::PerDomain<&'static str>,
    /// Peak true die temperature per die node over the session, °C,
    /// indexed like `die_node_names`.
    pub peak_die_c: usta_soc::PerDomain<f64>,
    /// Session-average effective display brightness, 0–1; `None` on
    /// devices without a governed display domain.
    pub avg_brightness: Option<f64>,
    /// The run's deterministic work counters.
    pub work: usta_sim::RunWork,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_track_moments() {
        let mut s = OnlineStats::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn chunk_ordered_merge_is_independent_of_completion_order() {
        // The sweep's invariant: partials folded per chunk and merged in
        // chunk-index order give the same bits no matter which worker
        // finished which chunk first. Simulate four chunks produced in
        // two different completion orders.
        let outcome = |i: usize| {
            let x = (i as f64) * 0.37;
            TripleOutcome {
                sim_seconds: 1.0,
                peak_skin_c: 20.0 + x % 30.0,
                time_over_fraction: (x / 40.0).min(1.0),
                qos: 1.0 - (x / 80.0).min(1.0),
                device: "flagship-octa",
                domain_names: usta_soc::PerDomain::from_slice(&["big", "little"]),
                domain_freq_ghz: usta_soc::PerDomain::from_slice(&[
                    1.0 + (x % 1.0),
                    0.3 + (x % 0.7),
                ]),
                die_node_names: usta_soc::PerDomain::from_slice(&["die_big", "die_little"]),
                peak_die_c: usta_soc::PerDomain::from_slice(&[45.0 + x % 20.0, 35.0 + x % 15.0]),
                avg_brightness: Some(0.5 + (x % 0.5)),
                work: usta_sim::RunWork::default(),
            }
        };
        let chunk = |c: usize| {
            let mut partial = FleetAggregate::new();
            for i in c * 25..(c + 1) * 25 {
                partial.record(&outcome(i));
            }
            partial
        };
        let mut completion_a: Vec<(usize, FleetAggregate)> =
            vec![(2, chunk(2)), (0, chunk(0)), (3, chunk(3)), (1, chunk(1))];
        let mut completion_b: Vec<(usize, FleetAggregate)> =
            vec![(1, chunk(1)), (3, chunk(3)), (0, chunk(0)), (2, chunk(2))];
        completion_a.sort_unstable_by_key(|(c, _)| *c);
        completion_b.sort_unstable_by_key(|(c, _)| *c);
        let fold = |partials: &[(usize, FleetAggregate)]| {
            let mut total = FleetAggregate::new();
            for (_, p) in partials {
                total.merge(p);
            }
            total
        };
        let a = fold(&completion_a);
        assert_eq!(a, fold(&completion_b));
        assert_eq!(a.triples, 100);
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let mut m = MetricAggregate::default();
        for i in 0..1000 {
            m.record(i as f64 / 10.0);
        }
        assert_eq!(m.sketch.count(), 1000);
        assert!((m.sketch.quantile(0.5) - 49.9).abs() <= 49.9 / 1024.0);
        assert!((m.sketch.quantile(0.99) - 98.9).abs() <= 98.9 / 1024.0);
        assert!(m.sketch.quantile(0.0) <= m.sketch.quantile(1.0));
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let v = m.sketch.quantile(q);
            assert!(m.stats.min() <= v && v <= m.stats.max(), "q {q} -> {v}");
        }
    }

    #[test]
    fn mostly_zero_fractions_report_a_zero_median() {
        // Most triples never cross their limit: the median time over
        // limit is exactly 0, and no quantile passes the max.
        let mut m = MetricAggregate::default();
        for i in 0..800 {
            m.record(if i % 10 == 0 {
                0.95 * i as f64 / 800.0
            } else {
                0.0
            });
        }
        assert_eq!(m.sketch.quantile(0.5), 0.0);
        assert!(m.sketch.quantile(0.99) <= m.stats.max());
    }

    #[test]
    fn device_triples_count_every_fold_and_merge() {
        let mut a = FleetAggregate::new();
        a.record(&single_domain_outcome());
        a.record(&multi_domain_outcome(1.8, 0.6));
        let mut b = FleetAggregate::new();
        b.record(&single_domain_outcome());
        a.merge(&b);
        assert_eq!(a.device_triples["nexus4"], 2);
        assert_eq!(a.device_triples["flagship-octa"], 1);
        assert_eq!(a.device_triples.values().sum::<u64>(), a.triples);
    }

    #[test]
    fn empty_aggregate_renders() {
        let a = FleetAggregate::new();
        let t = a.table();
        assert!(t.contains("triples"));
        assert!(t.contains("peak skin"));
        assert!(!t.contains("freq [GHz]"), "no domain rows when empty");
    }

    fn single_domain_outcome() -> TripleOutcome {
        TripleOutcome {
            sim_seconds: 60.0,
            peak_skin_c: 36.0,
            time_over_fraction: 0.1,
            qos: 0.95,
            device: "nexus4",
            domain_names: usta_soc::PerDomain::from_slice(&["cpu"]),
            domain_freq_ghz: usta_soc::PerDomain::from_slice(&[1.1]),
            die_node_names: usta_soc::PerDomain::from_slice(&["cpu"]),
            peak_die_c: usta_soc::PerDomain::from_slice(&[52.0]),
            avg_brightness: None,
            work: usta_sim::RunWork::default(),
        }
    }

    fn multi_domain_outcome(big_ghz: f64, little_ghz: f64) -> TripleOutcome {
        TripleOutcome {
            sim_seconds: 60.0,
            peak_skin_c: 38.0,
            time_over_fraction: 0.2,
            qos: 0.9,
            device: "flagship-octa",
            domain_names: usta_soc::PerDomain::from_slice(&["big", "little"]),
            domain_freq_ghz: usta_soc::PerDomain::from_slice(&[big_ghz, little_ghz]),
            die_node_names: usta_soc::PerDomain::from_slice(&["die_big", "die_little"]),
            peak_die_c: usta_soc::PerDomain::from_slice(&[30.0 * big_ghz, 30.0 * little_ghz]),
            avg_brightness: None,
            work: usta_sim::RunWork::default(),
        }
    }

    #[test]
    fn single_domain_devices_leave_the_historical_table_untouched() {
        let mut a = FleetAggregate::new();
        a.record(&single_domain_outcome());
        assert!(a.domain_freq_ghz.is_empty());
        assert!(a.die_temp_c.is_empty());
        assert!(!a.table().contains("freq [GHz]"));
        assert!(!a.table().contains("temp [C]"));
    }

    #[test]
    fn multi_domain_devices_stream_one_frequency_row_per_domain() {
        let mut a = FleetAggregate::new();
        a.record(&single_domain_outcome());
        a.record(&multi_domain_outcome(1.8, 0.6));
        a.record(&multi_domain_outcome(1.6, 0.8));
        assert_eq!(a.domain_freq_ghz.len(), 2);
        let big = &a.domain_freq_ghz["flagship-octa/big"];
        let little = &a.domain_freq_ghz["flagship-octa/little"];
        assert_eq!(big.stats.count(), 2);
        assert!((big.stats.mean() - 1.7).abs() < 1e-12);
        assert!((little.stats.mean() - 0.7).abs() < 1e-12);
        let t = a.table();
        assert!(t.contains("freq [GHz] flagship-octa/big"));
        assert!(t.contains("freq [GHz] flagship-octa/little"));
    }

    #[test]
    fn multi_cluster_devices_stream_one_temp_row_per_die_node() {
        let mut a = FleetAggregate::new();
        a.record(&single_domain_outcome());
        a.record(&multi_domain_outcome(1.8, 0.6));
        a.record(&multi_domain_outcome(1.6, 0.8));
        assert_eq!(a.die_temp_c.len(), 2);
        let big = &a.die_temp_c["flagship-octa/die_big"];
        let little = &a.die_temp_c["flagship-octa/die_little"];
        assert_eq!(big.stats.count(), 2);
        assert!((big.stats.mean() - 51.0).abs() < 1e-12);
        assert!((little.stats.mean() - 21.0).abs() < 1e-12);
        let t = a.table();
        assert!(t.contains("temp [C] flagship-octa/die_big"));
        assert!(t.contains("temp [C] flagship-octa/die_little"));
        // Temperature rows land after the frequency rows.
        assert!(t.find("freq [GHz]").unwrap() < t.find("temp [C]").unwrap());
    }

    #[test]
    fn domain_rows_merge_across_partials_with_disjoint_keys() {
        let mut a = FleetAggregate::new();
        a.record(&multi_domain_outcome(1.8, 0.6));
        let mut b = FleetAggregate::new();
        b.record(&single_domain_outcome());
        // Merging a partial without the keys, then one with them,
        // matches a sequential fold.
        let mut merged = FleetAggregate::new();
        merged.merge(&b);
        merged.merge(&a);
        assert_eq!(merged.domain_freq_ghz.len(), 2);
        assert_eq!(merged.domain_freq_ghz["flagship-octa/big"].stats.count(), 1);
    }
}
