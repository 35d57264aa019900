//! Table 1: peak screen/skin temperature and average frequency for all
//! thirteen benchmarks under baseline DVFS and under USTA at the default
//! user's 37 °C limit.
//!
//! The paper's headline claim for this table: "In all applications where
//! the temperature is within 2 °C or exceeds this threshold for the
//! default DVFS, USTA is able to reduce the peak temperature."

use crate::experiments::common::{
    collect_global_training_log_on, run_baseline_on, run_usta_on, train_predictor, PAPER_TABLE1,
};
use usta_core::predictor::PredictionTarget;
use usta_thermal::Celsius;
use usta_workloads::Benchmark;

/// The default-user limit used by the paper for this table.
pub const TABLE1_LIMIT: Celsius = Celsius(37.0);

/// One governor's numbers for one benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorStats {
    /// Peak screen temperature, °C.
    pub max_screen: Celsius,
    /// Peak skin temperature, °C.
    pub max_skin: Celsius,
    /// Time-weighted average CPU frequency, GHz.
    pub avg_freq_ghz: f64,
}

/// One benchmark's row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// Which benchmark.
    pub benchmark: Benchmark,
    /// Stock ondemand numbers.
    pub baseline: GovernorStats,
    /// USTA numbers (37 °C limit).
    pub usta: GovernorStats,
}

impl Table1Row {
    /// The paper's intervention rule for this row: baseline peak
    /// skin within 2 °C of (or over) the 37 °C limit.
    pub fn usta_should_act(&self) -> bool {
        self.baseline.max_skin > TABLE1_LIMIT - 2.0
    }

    /// Whether USTA reduced the peak skin temperature here.
    pub fn usta_reduced_peak(&self) -> bool {
        self.usta.max_skin < self.baseline.max_skin
    }
}

/// The reproduced table.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// All thirteen rows, in paper column order.
    pub rows: Vec<Table1Row>,
}

impl Table1 {
    /// The rows where the paper's rule says USTA must act.
    pub fn rows_requiring_action(&self) -> impl Iterator<Item = &Table1Row> {
        self.rows.iter().filter(|r| r.usta_should_act())
    }

    /// The paper's headline property: every row requiring action shows a
    /// reduced peak.
    pub fn headline_claim_holds(&self) -> bool {
        self.rows_requiring_action()
            .all(Table1Row::usta_reduced_peak)
    }

    /// Renders the table with the paper's numbers side by side.
    pub fn to_display_string(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<20} | {:>21} | {:>21} | paper (skin: base→usta)",
            "benchmark", "baseline scr/skin/GHz", "usta scr/skin/GHz"
        );
        let _ = writeln!(s, "{}", "-".repeat(95));
        for row in &self.rows {
            let p = PAPER_TABLE1[row.benchmark.column()];
            let _ =
                writeln!(
                s,
                "{:<20} | {:>6.1} {:>6.1} {:>6.2} | {:>6.1} {:>6.1} {:>6.2} | {:>5.1}→{:<5.1}{}",
                row.benchmark.name(),
                row.baseline.max_screen.value(),
                row.baseline.max_skin.value(),
                row.baseline.avg_freq_ghz,
                row.usta.max_screen.value(),
                row.usta.max_skin.value(),
                row.usta.avg_freq_ghz,
                p.1,
                p.4,
                if row.usta_should_act() { "  [USTA acts]" } else { "" },
            );
        }
        s
    }
}

/// Reproduces Table 1. Baseline and USTA sessions are paired on the same
/// workload and sensor seeds (common random numbers): the paper compares
/// separate physical runs, but in simulation, unpaired seeds let jitter
/// noise (±0.01 °C) swamp USTA's effect on benchmarks where the cap
/// rarely binds (e.g. Record), flipping the strict peak-reduction
/// comparison. Pairing isolates exactly the governor's contribution.
pub fn table1(seed: u64) -> Table1 {
    table1_on(usta_device::by_id("nexus4").expect("built-in"), seed)
}

/// [`table1`] on an arbitrary catalog device: the training campaign,
/// the predictor, and both governor sessions all run on `spec`, so the
/// numbers answer "what would the paper's table look like on this
/// hardware".
pub fn table1_on(spec: &usta_device::DeviceSpec, seed: u64) -> Table1 {
    let log = collect_global_training_log_on(spec, seed);
    let predictor = train_predictor(&log, PredictionTarget::Skin, seed);
    let rows = Benchmark::ALL
        .iter()
        .map(|&b| {
            let run_seed = seed.wrapping_add(17 * (b.column() as u64 + 1));
            let base = run_baseline_on(spec, b, run_seed);
            let usta = run_usta_on(spec, b, TABLE1_LIMIT, predictor.clone(), run_seed);
            Table1Row {
                benchmark: b,
                baseline: GovernorStats {
                    max_screen: base.max_screen,
                    max_skin: base.max_skin,
                    avg_freq_ghz: base.avg_freq_ghz,
                },
                usta: GovernorStats {
                    max_screen: usta.max_screen,
                    max_skin: usta.max_skin,
                    avg_freq_ghz: usta.avg_freq_ghz,
                },
            }
        })
        .collect();
    Table1 { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_criteria() {
        let row = Table1Row {
            benchmark: Benchmark::Skype,
            baseline: GovernorStats {
                max_screen: Celsius(40.0),
                max_skin: Celsius(42.8),
                avg_freq_ghz: 1.09,
            },
            usta: GovernorStats {
                max_screen: Celsius(35.0),
                max_skin: Celsius(38.7),
                avg_freq_ghz: 0.72,
            },
        };
        assert!(row.usta_should_act());
        assert!(row.usta_reduced_peak());
        let cool = Table1Row {
            benchmark: Benchmark::Vellamo,
            baseline: GovernorStats {
                max_screen: Celsius(28.0),
                max_skin: Celsius(31.0),
                avg_freq_ghz: 0.97,
            },
            usta: row.usta,
        };
        assert!(!cool.usta_should_act());
    }
}
