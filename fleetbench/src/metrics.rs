//! The benchmark's metric catalog and the result line it prints.

/// `(metric name, registry id)` of every device whose bare thermal step
/// the traced run times.
pub const THERMAL_DEVICES: [(&str, &str); 6] = [
    ("thermal.step_ns.nexus4", "nexus4"),
    ("thermal.step_ns.flagship-octa", "flagship-octa"),
    ("thermal.step_ns.prime-flagship", "prime-flagship"),
    ("thermal.step_ns.tablet-10in", "tablet-10in"),
    ("thermal.step_ns.budget-quad", "budget-quad"),
    ("thermal.step_ns.sd8s-gen3", "sd8s-gen3"),
];

/// End-to-end metrics (untraced runs): `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("sim_user_s_per_s", "user-s/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (the traced run): `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("workloads.demand_ns", "ns"),
    ("sim.apply_ns", "ns"),
    ("sim.observe_ns", "ns"),
    ("core.tick_ns", "ns"),
    ("core.predict_ns", "ns"),
    ("governors.decide_ns", "ns"),
    ("telemetry.record_span_ns", "ns"),
    ("sim.unattributed_ns", "ns"),
    ("sim.coverage", "frac"),
    ("trace.timer_ns", "ns"),
    ("sim.triple_ms.p50", "ms"),
    ("sim.triple_ms.tail", "ms"),
    ("sim.triple_ms.tail_pct", "%"),
    ("telemetry.record_ns", "ns"),
    ("fleet.busy_frac", "frac"),
    ("ml.campaign_ms", "ms"),
    ("ml.train_ms", "ms"),
    ("ml.fits", "count"),
    ("sim.steps", "count"),
    ("sim.governor_decisions", "count"),
    ("usta.predictions", "count"),
    ("usta.capped_decisions", "count"),
    ("usta.arbiter_invocations", "count"),
    ("fleet.quantile_outside_range", "count"),
    ("catalog.load_ms", "ms"),
    (THERMAL_DEVICES[0].0, "ns"),
    (THERMAL_DEVICES[1].0, "ns"),
    (THERMAL_DEVICES[2].0, "ns"),
    (THERMAL_DEVICES[3].0, "ns"),
    (THERMAL_DEVICES[4].0, "ns"),
    (THERMAL_DEVICES[5].0, "ns"),
    ("telemetry.overhead_frac", "frac"),
    ("telemetry.dump_mb", "MB"),
    ("fleet.flight_dumps", "count"),
    ("failed_frac", "frac"),
];

/// Named metric values, in the order they were measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Records `name = value`.
    pub fn push(&mut self, name: &str, value: f64) {
        self.0.push((name.to_owned(), value));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The result line's `metrics` object over `catalog`, in catalog
    /// order. A metric that is missing or not finite is reported as 0
    /// and named in the returned list, so the caller can count the run
    /// as failed.
    pub fn render(&self, catalog: &[(&str, &str)]) -> (String, Vec<String>) {
        let mut missing = Vec::new();
        let mut entries = Vec::new();
        for &(name, unit) in catalog {
            let value = match self.get(name) {
                Some(v) if v.is_finite() => v,
                _ => {
                    missing.push(name.to_owned());
                    0.0
                }
            };
            // `{:?}` is the shortest round-trip form, every digit kept;
            // its `1e-7` exponent style is valid JSON.
            entries.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        (format!("{{{}}}", entries.join(", ")), missing)
    }
}

/// The benchmark's last stdout line.
pub fn result_line(attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_json}}}",
        failed == 0
    )
}
