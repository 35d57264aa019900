//! Deterministic single-triple replay with a causal account.
//!
//! A sweep's report compresses thousands of triples into aggregate
//! rows; its triage sink dumps the worst offenders' last windows. This
//! module answers the follow-up question — *why was that triple hot?*
//! — by replaying one (user, scenario, device) triple from its sweep
//! coordinates alone: the same per-triple ChaCha8 stream, the same
//! predictor pool training, the same run loop, but with a
//! full-duration flight recorder attached. The replayed outcome is
//! exactly the sweep's recorded outcome (bit for bit — the sweep's
//! determinism contract makes the triple a pure function of config and
//! index), and the recording renders as a human-readable account:
//! band transitions, the worst prediction residuals, arbiter budget
//! changes, and the windows where caps actually bound.

use usta_telemetry::flight::{band_name, BAND_NONE};
use usta_telemetry::{DecisionEvent, FlightRecorder};

use crate::aggregate::TripleOutcome;
use crate::runner::{
    governor_label, run_triple, sweep_inputs, train_pools, FleetError, Sweep, SweepConfig,
};
use usta_sim::RunConfig;

/// A replayed triple: its coordinates, its outcome (identical to what
/// the sweep recorded), and the full-run decision provenance.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Triple index within the configured sweep.
    pub index: usize,
    /// Total triples in that sweep.
    pub total: usize,
    /// Sampled-population user index.
    pub user: usize,
    /// The user's skin-comfort limit, °C.
    pub limit_c: f64,
    /// Scenario name (`benchmark/ambient/…`).
    pub scenario: String,
    /// Device id.
    pub device: &'static str,
    /// Governor stack label (`"usta(ondemand)"` or the baseline).
    pub governor: String,
    /// The replayed outcome — equal to the sweep's recorded row.
    pub outcome: TripleOutcome,
    /// Every governor window's decision event, oldest first.
    pub events: Vec<DecisionEvent>,
}

/// Replays triple `index` of the sweep `config` describes and returns
/// its causal account.
///
/// Trains only the scenario's own device pool (not the whole device
/// axis), so explaining one triple of a large sweep stays cheap.
///
/// # Errors
///
/// Everything [`crate::run_sweep`] rejects, plus
/// [`FleetError::TripleOutOfRange`] when `index` does not name a
/// triple of this sweep.
pub fn explain_triple(config: &SweepConfig, index: usize) -> Result<Explanation, FleetError> {
    let inputs = sweep_inputs(config)?;
    let total = inputs.total();
    if index >= total {
        return Err(FleetError::TripleOutOfRange { index, total });
    }
    let (user, profile, scenario) = inputs.triple(index);
    let pools = train_pools(config, &[scenario.device])?;
    // Capacity for every window of the longest possible run: the
    // workload duration is capped at `max_sim_seconds`.
    let period = RunConfig::default().governor_period_s;
    let capacity = ((config.max_sim_seconds / period).ceil() as usize).max(1);
    let mut ring = FlightRecorder::new(capacity);
    let sweep = Sweep::new(config, &inputs, &pools, None);
    let (outcome, _) = run_triple(&sweep, index, false, Some(&mut ring));
    Ok(Explanation {
        index,
        total,
        user,
        limit_c: profile.skin_limit.value(),
        scenario: scenario.name(),
        device: scenario.device,
        governor: governor_label(config),
        outcome,
        events: ring.events().copied().collect(),
    })
}

/// Transitions printed in full before the timeline elides the rest.
const MAX_TIMELINE_LINES: usize = 24;
/// Residual rows in the "worst residuals" section.
const MAX_RESIDUAL_LINES: usize = 5;
/// Budget-change rows in the arbiter section.
const MAX_BUDGET_LINES: usize = 10;

impl Explanation {
    /// The account as printable text. Deterministic: every number
    /// comes from the replayed events, formatted with fixed precision.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "triple #{} of {}: user {} (skin limit {:.2} C) x {}/{}\n",
            self.index, self.total, self.user, self.limit_c, self.device, self.scenario,
        ));
        out.push_str(&format!(
            "governor: {}, windows: {} x {:.1} s\n",
            self.governor,
            self.events.len(),
            self.events
                .get(1)
                .map(|e| e.t_s - self.events[0].t_s)
                .unwrap_or(0.1),
        ));
        out.push_str(&format!(
            "outcome: peak skin {:.2} C, {:.1}% of time over limit, qos {:.3}\n",
            self.outcome.peak_skin_c,
            self.outcome.time_over_fraction * 100.0,
            self.outcome.qos,
        ));
        out.push('\n');
        self.render_band_timeline(&mut out);
        out.push('\n');
        self.render_residuals(&mut out);
        out.push('\n');
        self.render_arbiter(&mut out);
        out.push('\n');
        self.render_cap_pressure(&mut out);
        out
    }

    fn render_band_timeline(&self, out: &mut String) {
        out.push_str("band timeline:\n");
        let Some(first) = self.events.first() else {
            out.push_str("  (no windows recorded)\n");
            return;
        };
        let transitions: Vec<(f64, u8, u8)> = std::iter::once((first.t_s, first.band, first.band))
            .chain(
                self.events
                    .windows(2)
                    .filter(|pair| pair[1].band != pair[0].band)
                    .map(|pair| (pair[1].t_s, pair[0].band, pair[1].band)),
            )
            .collect();
        for (i, (t, from, to)) in transitions.iter().enumerate() {
            if i >= MAX_TIMELINE_LINES {
                out.push_str(&format!(
                    "  ... {} more transitions\n",
                    transitions.len() - MAX_TIMELINE_LINES
                ));
                break;
            }
            if i == 0 {
                out.push_str(&format!("  t={t:8.1} s  {}\n", band_name(*to)));
            } else {
                out.push_str(&format!(
                    "  t={t:8.1} s  {} -> {}\n",
                    band_name(*from),
                    band_name(*to)
                ));
            }
        }
        // Residency: how much of the run each band actually governed.
        let mut windows_in = [0usize; 5];
        for event in &self.events {
            let slot = if event.band == BAND_NONE {
                4
            } else {
                (event.band as usize).min(4)
            };
            windows_in[slot] += 1;
        }
        let total = self.events.len().max(1) as f64;
        let residency: Vec<String> = [0u8, 1, 2, 3, BAND_NONE]
            .iter()
            .zip(windows_in.iter())
            .filter(|(_, &count)| count > 0)
            .map(|(&code, &count)| {
                format!("{} {:.1}%", band_name(code), count as f64 / total * 100.0)
            })
            .collect();
        out.push_str(&format!("  band residency: {}\n", residency.join(", ")));
    }

    fn render_residuals(&self, out: &mut String) {
        out.push_str("worst prediction residuals (predicted - actual):\n");
        // The residual stream updates only at prediction instants;
        // keep one row per scoring event (the window where the stored
        // residual changed).
        let mut scored: Vec<(f64, f64, f64)> = Vec::new(); // (t, actual, residual)
        let mut last_bits = f64::NAN.to_bits();
        for event in &self.events {
            if event.residual_c.is_finite() && event.residual_c.to_bits() != last_bits {
                scored.push((event.t_s, event.skin_c, event.residual_c));
            }
            if event.residual_c.is_finite() {
                last_bits = event.residual_c.to_bits();
            }
        }
        if scored.is_empty() {
            out.push_str("  (no scored predictions - baseline run or too short)\n");
            return;
        }
        let count = scored.len();
        scored.sort_by(|a, b| b.2.abs().total_cmp(&a.2.abs()).then(a.0.total_cmp(&b.0)));
        for (t, actual, residual) in scored.iter().take(MAX_RESIDUAL_LINES) {
            out.push_str(&format!(
                "  t={t:8.1} s  predicted {:.2} C  actual {:.2} C  residual {:+.2} C\n",
                actual + residual,
                actual,
                residual,
            ));
        }
        let shown = count.min(MAX_RESIDUAL_LINES);
        out.push_str(&format!(
            "  ({shown} worst of {count} scored predictions)\n"
        ));
    }

    fn render_arbiter(&self, out: &mut String) {
        let engaged: Vec<&DecisionEvent> = self
            .events
            .iter()
            .filter(|e| e.budget_w.is_finite())
            .collect();
        if engaged.is_empty() {
            out.push_str("arbiter: not engaged (single-domain device or baseline run)\n");
            return;
        }
        out.push_str("arbiter budget changes:\n");
        let mut changes = 0usize;
        let mut last_bits = f64::NAN.to_bits();
        for event in &engaged {
            if event.budget_w.to_bits() != last_bits {
                changes += 1;
                if changes <= MAX_BUDGET_LINES {
                    out.push_str(&format!(
                        "  t={:8.1} s  budget {:.3} W  allocated {:.3} W  (band {})\n",
                        event.t_s,
                        event.budget_w,
                        event.allocated_w,
                        band_name(event.band),
                    ));
                }
                last_bits = event.budget_w.to_bits();
            }
        }
        if changes > MAX_BUDGET_LINES {
            out.push_str(&format!(
                "  ... {} more budget changes\n",
                changes - MAX_BUDGET_LINES
            ));
        }
        out.push_str(&format!(
            "  ({} of {} windows arbitrated)\n",
            engaged.len(),
            self.events.len(),
        ));
    }

    fn render_cap_pressure(&self, out: &mut String) {
        let total = self.events.len();
        let bound = self.events.iter().filter(|e| e.caps_bound()).count();
        out.push_str(&format!(
            "cap pressure: {bound} of {total} windows ({:.1}%) ran at a binding cap\n",
            bound as f64 / total.max(1) as f64 * 100.0,
        ));
        if bound == 0 {
            return;
        }
        let names = self.outcome.domain_names.as_slice();
        if let Some(first) = self.events.iter().find(|e| e.caps_bound()) {
            if let Some(d) = first.binding_domains().next() {
                out.push_str(&format!(
                    "  first binding window: t={:.1} s, domain {} at level {} = cap {} < max {}\n",
                    first.t_s, names[d], first.level[d], first.cap[d], first.max_level[d],
                ));
            }
        }
        let mut per_domain = vec![0usize; names.len()];
        for event in &self.events {
            for d in event.binding_domains() {
                per_domain[d] += 1;
            }
        }
        let rows: Vec<String> = names
            .iter()
            .zip(per_domain.iter())
            .filter(|(_, &count)| count > 0)
            .map(|(name, count)| format!("{name} {count}"))
            .collect();
        out.push_str(&format!(
            "  binding windows per domain: {}\n",
            rows.join(", ")
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SweepConfig {
        SweepConfig {
            users: 4,
            max_sim_seconds: 30.0,
            predictor_pool: 2,
            training_benchmarks: vec![usta_workloads::Benchmark::GfxBench],
            training_cap_seconds: 60.0,
            smoke: true,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn out_of_range_triple_is_rejected() {
        let config = tiny_config();
        let total = config.total_triples();
        let err = explain_triple(&config, total).unwrap_err();
        assert_eq!(
            err,
            FleetError::TripleOutOfRange {
                index: total,
                total
            }
        );
        assert!(err.to_string().contains("outside the sweep"));
    }

    #[test]
    fn explanation_replays_a_full_recording_with_every_section() {
        let config = tiny_config();
        let explanation = explain_triple(&config, 0).unwrap();
        assert_eq!(explanation.index, 0);
        assert_eq!(explanation.user, 0);
        assert_eq!(explanation.device, "nexus4");
        assert_eq!(explanation.governor, "usta(ondemand)");
        // 30 s at the 100 ms governor period.
        assert_eq!(explanation.events.len(), 300);
        let text = explanation.render();
        for section in [
            "band timeline:",
            "band residency:",
            "worst prediction residuals",
            "arbiter",
            "cap pressure:",
        ] {
            assert!(text.contains(section), "missing {section:?} in:\n{text}");
        }
    }

    #[test]
    fn baseline_explanations_report_no_banding_or_predictions() {
        let config = SweepConfig {
            usta: false,
            ..tiny_config()
        };
        let explanation = explain_triple(&config, 1).unwrap();
        assert_eq!(explanation.governor, "ondemand");
        assert!(explanation
            .events
            .iter()
            .all(|e| e.band == BAND_NONE && !e.predicted_skin_c.is_finite()));
        let text = explanation.render();
        assert!(text.contains("band residency: none 100.0%"), "{text}");
        assert!(text.contains("no scored predictions"), "{text}");
        assert!(text.contains("arbiter: not engaged"), "{text}");
    }
}
