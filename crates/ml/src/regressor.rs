//! The uniform learner interface over the four algorithms.

use crate::dataset::Dataset;
use crate::error::MlError;
use crate::linreg::LinearRegressionParams;
use crate::m5p::M5pParams;
use crate::mlp::MlpParams;
use crate::reptree::RepTreeParams;

/// A fitted regression model.
///
/// `Send + Sync` is part of the contract: fitted models are immutable
/// plain data, and the fleet layer shares one trained predictor pool
/// across its worker threads.
pub trait Regressor: std::fmt::Debug + Send + Sync {
    /// Predicts the target for a feature vector.
    ///
    /// Vectors shorter than the training schema are padded with zeros;
    /// longer ones are truncated. (Callers should pass the right width;
    /// this keeps prediction total.)
    fn predict(&self, features: &[f64]) -> f64;

    /// Algorithm name as used in the paper's Figure 3.
    fn name(&self) -> &'static str;

    /// Clones the fitted model behind the trait object (all fitted
    /// models are plain data, so a deployed predictor can be duplicated
    /// per governor instance without retraining).
    fn boxed_clone(&self) -> Box<dyn Regressor>;
}

impl Clone for Box<dyn Regressor> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// One of the paper's four algorithms plus its hyper-parameters.
///
/// ```
/// use usta_ml::{Dataset, Learner};
///
/// # fn main() -> Result<(), usta_ml::MlError> {
/// let mut d = Dataset::new(vec!["x".into()])?;
/// for i in 0..50 { d.push(vec![i as f64], 2.0 * i as f64 + 1.0)?; }
/// for learner in Learner::paper_set() {
///     let model = learner.fit(&d, 0)?;
///     let p = model.predict(&[25.0]);
///     assert!((p - 51.0).abs() < 6.0, "{} predicted {p}", model.name());
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Learner {
    /// Ordinary least squares (with a tiny ridge for stability).
    Linear(LinearRegressionParams),
    /// Single-hidden-layer perceptron trained by SGD.
    Mlp(MlpParams),
    /// Variance-reduction tree with reduced-error pruning.
    RepTree(RepTreeParams),
    /// M5 model tree: linear models at the leaves, smoothed.
    M5p(M5pParams),
}

impl Learner {
    /// The four learners with the defaults used for Figure 3, in the
    /// paper's presentation order.
    pub fn paper_set() -> Vec<Learner> {
        vec![
            Learner::Linear(LinearRegressionParams::default()),
            Learner::Mlp(MlpParams::default()),
            Learner::M5p(M5pParams::default()),
            Learner::RepTree(RepTreeParams::default()),
        ]
    }

    /// Algorithm name (matches the fitted model's
    /// [`Regressor::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            Learner::Linear(_) => "linear regression",
            Learner::Mlp(_) => "multilayer perceptron",
            Learner::RepTree(_) => "REPTree",
            Learner::M5p(_) => "M5P",
        }
    }

    /// Fits the learner to the data. `seed` controls any internal
    /// randomness (weight init, grow/prune splits) — same seed, same
    /// model.
    ///
    /// # Errors
    ///
    /// Propagates [`MlError`] from the underlying algorithm (typically
    /// [`MlError::NotEnoughRows`]).
    pub fn fit(&self, data: &Dataset, seed: u64) -> Result<Box<dyn Regressor>, MlError> {
        let _span = usta_telemetry::Sink::active().map(|registry| {
            registry.counter("ml.fits").increment();
            registry.span("ml.fit")
        });
        Ok(match self {
            Learner::Linear(p) => Box::new(crate::linreg::LinearModel::fit(p, data)?),
            Learner::Mlp(p) => Box::new(crate::mlp::Mlp::fit(p, data, seed)?),
            Learner::RepTree(p) => Box::new(crate::reptree::RepTree::fit(p, data, seed)?),
            Learner::M5p(p) => Box::new(crate::m5p::M5p::fit(p, data)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_set_has_four_distinct_names() {
        let names: Vec<&str> = Learner::paper_set().iter().map(|l| l.name()).collect();
        assert_eq!(names.len(), 4);
        let set: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn fitted_models_report_matching_names() {
        let mut d = Dataset::new(vec!["x".into()]).unwrap();
        for i in 0..40 {
            d.push(vec![i as f64], i as f64).unwrap();
        }
        for learner in Learner::paper_set() {
            let m = learner.fit(&d, 1).unwrap();
            assert_eq!(m.name(), learner.name());
        }
    }
}
