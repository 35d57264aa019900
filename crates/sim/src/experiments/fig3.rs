//! Figure 3: average error rates of the four prediction models under
//! 10-fold cross-validation on the pooled 13-benchmark dataset.
//!
//! Paper anchors (§4.A): REPTree 0.95 % (skin) / 0.86 % (screen); M5P
//! 0.96 % / 0.89 %; linear regression and the multilayer perceptron
//! "relatively poor in accuracy". Ignoring errors below 1 °C, M5P drops
//! to 0.26 % / 0.17 % and becomes the best.
//!
//! §4.A also makes two cost claims, which [`fit_time`] and
//! [`prediction_cost`] measure in wall-clock time: REPTree "builds
//! faster" than M5P, and one prediction per 3 s window (5.603 ms skin,
//! 6.708 ms screen on the phone) is negligible against the window.

use crate::experiments::common::collect_global_training_log;
use std::hint::black_box;
use std::time::{Duration, Instant};
use usta_core::predictor::PredictionTarget;
use usta_core::{TemperaturePredictor, TrainingLog};
use usta_ml::{k_fold, Dataset, Learner};

/// The paper's measured cost of one skin prediction on the phone, ms.
pub const PAPER_SKIN_PREDICTION_MS: f64 = 5.603;
/// The paper's measured cost of one screen prediction on the phone, ms.
pub const PAPER_SCREEN_PREDICTION_MS: f64 = 6.708;

/// One learner × target outcome.
#[derive(Debug, Clone)]
pub struct Fig3Entry {
    /// Learner name ("linear regression", "multilayer perceptron",
    /// "M5P", "REPTree").
    pub learner: &'static str,
    /// Which surface was predicted.
    pub target: PredictionTarget,
    /// The paper's Equation (1) error rate, %.
    pub error_rate: f64,
    /// Equation (1) ignoring errors below 1 °C, %.
    pub error_rate_deadband: f64,
    /// Mean absolute error, K.
    pub mae: f64,
    /// Root-mean-square error, K.
    pub rmse: f64,
    /// Correlation between expected and predicted.
    pub correlation: f64,
}

/// The reproduced figure.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// Eight entries: four learners × two targets.
    pub entries: Vec<Fig3Entry>,
    /// Rows in the pooled dataset.
    pub dataset_rows: usize,
}

impl Fig3Result {
    /// The entry for a learner/target pair.
    pub fn entry(&self, learner: &str, target: PredictionTarget) -> &Fig3Entry {
        self.entries
            .iter()
            .find(|e| e.learner == learner && e.target == target)
            .expect("all four learners evaluated on both targets")
    }

    /// The best (lowest-raw-error) learner for a target.
    pub fn best_learner(&self, target: PredictionTarget) -> &Fig3Entry {
        self.entries
            .iter()
            .filter(|e| e.target == target)
            .min_by(|a, b| a.error_rate.partial_cmp(&b.error_rate).expect("finite"))
            .expect("entries non-empty")
    }

    /// Renders the figure as a table.
    pub fn to_display_string(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "dataset: {} samples, 10-fold CV", self.dataset_rows);
        let _ = writeln!(
            s,
            "{:<24} {:<7} {:>8} {:>10} {:>7} {:>7} {:>6}",
            "learner", "target", "err %", "err>1°C %", "MAE K", "RMSE K", "r"
        );
        let _ = writeln!(s, "{}", "-".repeat(75));
        for e in &self.entries {
            let _ = writeln!(
                s,
                "{:<24} {:<7} {:>8.2} {:>10.2} {:>7.3} {:>7.3} {:>6.3}",
                e.learner,
                e.target.name(),
                e.error_rate,
                e.error_rate_deadband,
                e.mae,
                e.rmse,
                e.correlation,
            );
        }
        s
    }
}

/// Runs the full Figure 3 protocol: data collection, 10-fold CV of all
/// four learners on both targets.
pub fn fig3(seed: u64) -> Fig3Result {
    fig3_on(&collect_global_training_log(seed), seed)
}

/// [`fig3`] on an already-collected campaign log, so a caller that
/// also times the learners on it runs the campaign once.
pub fn fig3_on(log: &TrainingLog, seed: u64) -> Fig3Result {
    let mut entries = Vec::new();
    let mut rows = 0;
    for target in [PredictionTarget::Skin, PredictionTarget::Screen] {
        let data: Dataset = log.to_dataset(target).expect("log is finite");
        rows = data.len();
        for learner in Learner::paper_set() {
            let outcome = k_fold(&learner, &data, 10, seed).expect("CV on a large dataset");
            entries.push(Fig3Entry {
                learner: learner.name(),
                target,
                error_rate: outcome.error_rate(),
                error_rate_deadband: outcome.error_rate_with_deadband(1.0),
                mae: outcome.mae(),
                rmse: outcome.rmse(),
                correlation: outcome.correlation(),
            });
        }
    }
    Fig3Result {
        entries,
        dataset_rows: rows,
    }
}

/// The median wall-clock time of `fits` fits of `learner` on `data`.
///
/// # Panics
///
/// Panics if `fits` is 0 or a fit fails.
pub fn fit_time(learner: &Learner, data: &Dataset, fits: usize, seed: u64) -> Duration {
    median(
        (0..fits)
            .map(|_| {
                let start = Instant::now();
                black_box(learner.fit(black_box(data), seed).expect("fit succeeds"));
                start.elapsed()
            })
            .collect(),
    )
}

/// The wall-clock cost of one prediction: the median, over `passes`
/// passes, of the mean cost per sample of predicting every sample of
/// `log`.
///
/// # Panics
///
/// Panics if `passes` is 0 or `log` is empty.
pub fn prediction_cost(
    predictor: &TemperaturePredictor,
    log: &TrainingLog,
    passes: usize,
) -> Duration {
    let samples = u32::try_from(log.len()).expect("a campaign log has fewer than 2^32 samples");
    median(
        (0..passes)
            .map(|_| {
                let start = Instant::now();
                for sample in log.samples() {
                    black_box(predictor.predict(black_box(&sample.features)));
                }
                start.elapsed() / samples
            })
            .collect(),
    )
}

fn median(mut times: Vec<Duration>) -> Duration {
    times.sort_unstable();
    times[times.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    // One shared run: fig3 is the most expensive experiment (full
    // benchmark campaign + 80 model fits).
    fn result() -> &'static Fig3Result {
        use std::sync::OnceLock;
        static RESULT: OnceLock<Fig3Result> = OnceLock::new();
        RESULT.get_or_init(|| fig3(11))
    }

    #[test]
    fn trees_beat_linear_and_mlp_on_skin() {
        let r = result();
        let rep = r.entry("REPTree", PredictionTarget::Skin).error_rate;
        let m5p = r.entry("M5P", PredictionTarget::Skin).error_rate;
        let lin = r
            .entry("linear regression", PredictionTarget::Skin)
            .error_rate;
        let mlp = r
            .entry("multilayer perceptron", PredictionTarget::Skin)
            .error_rate;
        assert!(rep < lin, "REPTree {rep}% should beat linear {lin}%");
        assert!(rep < mlp, "REPTree {rep}% should beat MLP {mlp}%");
        assert!(m5p < lin, "M5P {m5p}% should beat linear {lin}%");
    }

    #[test]
    fn tree_error_rates_are_percent_scale() {
        // The paper's headline: ~1 % error for the trees.
        let r = result();
        for target in [PredictionTarget::Skin, PredictionTarget::Screen] {
            let rep = r.entry("REPTree", target).error_rate;
            assert!(
                rep < 3.0,
                "REPTree {} error {rep}% should be percent-scale",
                target.name()
            );
        }
    }

    #[test]
    fn deadband_shrinks_errors_dramatically() {
        let r = result();
        let e = r.entry("M5P", PredictionTarget::Skin);
        assert!(e.error_rate_deadband < e.error_rate);
        // The paper's 0.26 % anchor: deadband errors are sub-half the raw.
        assert!(e.error_rate_deadband < e.error_rate * 0.8);
    }

    #[test]
    fn predictions_correlate_strongly() {
        let r = result();
        assert!(r.entry("REPTree", PredictionTarget::Skin).correlation > 0.95);
        assert!(r.entry("REPTree", PredictionTarget::Screen).correlation > 0.95);
    }

    #[test]
    fn eight_entries_and_a_real_dataset() {
        let r = result();
        assert_eq!(r.entries.len(), 8);
        assert!(
            r.dataset_rows > 3000,
            "pooled campaign should log thousands of samples, got {}",
            r.dataset_rows
        );
    }
}
