//! # usta-core — User-specific Skin Temperature-Aware DVFS
//!
//! The primary contribution of Egilmez, Memik, Ogrenci-Memik & Ergin,
//! *User-Specific Skin Temperature-Aware DVFS for Smartphones*
//! (DATE 2015), reimplemented as a library:
//!
//! 1. **A run-time skin/screen temperature predictor** ([`predictor`])
//!    trained on system-level observables — CPU temperature, battery
//!    temperature, CPU utilization, CPU frequency ([`features`]) —
//!    against thermistor ground truth ([`training`]), using the learners
//!    of `usta-ml` (REPTree in deployment, per the paper's §4.A).
//! 2. **The USTA policy** ([`policy`]): every 3 seconds, compare the
//!    predicted skin temperature with the *user's own* comfort limit and
//!    clamp the maximum allowed CPU frequency — one OPP level below max
//!    when within (1, 2] °C of the limit, two levels when within
//!    (0.5, 1] °C, and the minimum frequency when within 0.5 °C or over.
//!    Outside the 2 °C activation band the baseline governor runs
//!    untouched.
//! 3. **The USTA governor** ([`governor`]): the policy wrapped around
//!    any baseline cpufreq governor (the paper uses Android ondemand).
//! 4. **The user model** ([`user`]): the paper's ten-participant
//!    population with their Figure 1 comfort limits, plus the "default
//!    user" whose 37 °C limit is their average; [`comfort`] and
//!    [`rating`] quantify discomfort and reproduce the Figure 5
//!    satisfaction study.
//!
//! ```
//! use usta_core::policy::{FrequencyCap, UstaPolicy};
//! use usta_thermal::Celsius;
//!
//! let policy = UstaPolicy::new(Celsius(37.0));
//! assert_eq!(policy.decide(Celsius(34.0)), FrequencyCap::Unrestricted);
//! assert_eq!(policy.decide(Celsius(35.5)), FrequencyCap::OneLevelBelowMax);
//! assert_eq!(policy.decide(Celsius(36.2)), FrequencyCap::TwoLevelsBelowMax);
//! assert_eq!(policy.decide(Celsius(36.8)), FrequencyCap::MinimumFrequency);
//! assert_eq!(policy.decide(Celsius(38.0)), FrequencyCap::MinimumFrequency);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arbiter;
pub mod comfort;
pub mod decision;
pub mod features;
pub mod governor;
pub mod policy;
pub mod predictor;
pub mod rating;
pub mod training;
pub mod user;

pub use arbiter::{arbitrate, BudgetAllocation};
pub use comfort::ComfortStats;
pub use decision::{ArbiterShare, DecisionRecord};
pub use features::FeatureVector;
pub use governor::UstaGovernor;
pub use policy::{FrequencyCap, UstaPolicy};
pub use predictor::{PredictionTarget, TemperaturePredictor};
pub use training::{LoggedSample, TrainingLog};
pub use user::{UserPopulation, UserProfile};

/// The catalog Nexus 4's twelve-level OPP table, shared by the unit
/// tests.
#[cfg(test)]
pub(crate) fn nexus4_opp() -> usta_soc::OppTable {
    let spec = usta_device::by_id("nexus4").expect("built-in");
    usta_soc::OppTable::new(spec.clusters[0].opp.clone()).expect("valid spec")
}
