//! The run-time skin/screen temperature predictor.
//!
//! In the paper this is a WEKA REPTree model invoked every 3 seconds,
//! costing 5.6 ms (skin) / 6.7 ms (screen) per prediction on the phone —
//! ~0.4 % overhead (§4.A). Here it wraps any fitted `usta-ml` learner
//! behind a typed [`Celsius`]-in/[`Celsius`]-out API.

use crate::features::FeatureVector;
use crate::training::TrainingLog;
use usta_ml::{Learner, MlError, Regressor};
use usta_thermal::Celsius;

/// Which surface the predictor estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictionTarget {
    /// Middle of the back cover — the paper's "skin temperature".
    Skin,
    /// Middle of the screen.
    Screen,
}

impl PredictionTarget {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PredictionTarget::Skin => "skin",
            PredictionTarget::Screen => "screen",
        }
    }
}

/// A fitted temperature predictor.
#[derive(Debug, Clone)]
pub struct TemperaturePredictor {
    model: Box<dyn Regressor>,
    target: PredictionTarget,
}

impl TemperaturePredictor {
    /// Trains a predictor on a log with the given learner.
    ///
    /// The paper's deployed configuration is
    /// `Learner::RepTree(RepTreeParams::default())`.
    ///
    /// # Errors
    ///
    /// Propagates [`MlError`] from dataset assembly or fitting.
    pub fn train(
        learner: &Learner,
        log: &TrainingLog,
        target: PredictionTarget,
        seed: u64,
    ) -> Result<TemperaturePredictor, MlError> {
        let data = log.to_dataset(target)?;
        let model = learner.fit(&data, seed)?;
        Ok(TemperaturePredictor { model, target })
    }

    /// Wraps an already-fitted model.
    pub fn from_model(model: Box<dyn Regressor>, target: PredictionTarget) -> TemperaturePredictor {
        TemperaturePredictor { model, target }
    }

    /// Predicts the surface temperature for the given observation.
    pub fn predict(&self, features: &FeatureVector) -> Celsius {
        // The flattened row on the stack: three signals, one frequency
        // per domain and three optional columns at most.
        let mut row = [0.0; 6 + usta_soc::MAX_FREQ_DOMAINS];
        let mut n = 0;
        for (slot, value) in row.iter_mut().zip(features.values()) {
            *slot = value;
            n += 1;
        }
        Celsius(self.model.predict(&row[..n]))
    }

    /// The surface this predictor estimates.
    pub fn target(&self) -> PredictionTarget {
        self.target
    }

    /// The underlying algorithm's name.
    pub fn algorithm(&self) -> &'static str {
        self.model.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::LoggedSample;
    use usta_ml::reptree::RepTreeParams;

    /// A synthetic log where skin tracks battery temperature closely and
    /// screen runs 2 K cooler — enough structure for any learner.
    fn synthetic_log(n: usize) -> TrainingLog {
        (0..n)
            .map(|i| {
                let warm = (i % 40) as f64 / 4.0; // 0..10 K of heating
                LoggedSample {
                    t: i as f64 * 3.0,
                    features: FeatureVector::single(
                        Celsius(40.0 + 2.0 * warm),
                        Celsius(30.0 + warm),
                        0.3 + 0.05 * (i % 10) as f64,
                        384_000.0 + 100_000.0 * (i % 12) as f64,
                    ),
                    skin: Celsius(29.0 + warm),
                    screen: Celsius(27.0 + warm),
                }
            })
            .collect()
    }

    #[test]
    fn trained_reptree_predicts_skin_accurately() {
        let log = synthetic_log(400);
        let p = TemperaturePredictor::train(
            &Learner::RepTree(RepTreeParams::default()),
            &log,
            PredictionTarget::Skin,
            7,
        )
        .unwrap();
        assert_eq!(p.target(), PredictionTarget::Skin);
        assert_eq!(p.algorithm(), "REPTree");
        let mut worst: f64 = 0.0;
        for s in log.samples() {
            worst = worst.max((p.predict(&s.features) - s.skin).abs());
        }
        assert!(worst < 0.5, "worst in-sample error {worst} K");
    }

    #[test]
    fn screen_predictor_tracks_the_cooler_surface() {
        let log = synthetic_log(400);
        let p = TemperaturePredictor::train(
            &Learner::RepTree(RepTreeParams::default()),
            &log,
            PredictionTarget::Screen,
            7,
        )
        .unwrap();
        let s = &log.samples()[100];
        assert!((p.predict(&s.features) - s.screen).abs() < 1.0);
        assert_eq!(p.target().name(), "screen");
    }

    #[test]
    fn all_four_learners_train_through_the_same_api() {
        let log = synthetic_log(300);
        for learner in Learner::paper_set() {
            let p = TemperaturePredictor::train(&learner, &log, PredictionTarget::Skin, 1).unwrap();
            let pred = p.predict(&log.samples()[10].features);
            assert!(
                (20.0..50.0).contains(&pred.value()),
                "{} predicted {pred}",
                p.algorithm()
            );
        }
    }

    #[test]
    fn empty_log_fails_to_train() {
        let log = TrainingLog::new();
        assert!(TemperaturePredictor::train(
            &Learner::RepTree(RepTreeParams::default()),
            &log,
            PredictionTarget::Skin,
            0,
        )
        .is_err());
    }
}
