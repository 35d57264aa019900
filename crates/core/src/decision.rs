//! Per-decision provenance: what the governor decided and why.
//!
//! [`crate::UstaGovernor`]'s `CpuGovernor::decide` historically
//! returned only the
//! clamped level vector — the band, the cap vector it derived, and the
//! arbiter's budget arithmetic were internal. [`DecisionRecord`]
//! surfaces exactly that state, captured once per `decide` call with
//! no heap traffic ([`usta_soc::PerDomain`] is inline `Copy` storage),
//! so the sim runner's flight recorder and the `explain` CLI can
//! reconstruct the causal chain behind every window.

use crate::policy::FrequencyCap;
use usta_soc::PerDomain;
use usta_thermal::Celsius;

/// The arbiter's budget arithmetic for one decision (absent on
/// CPU-only devices, where the power-share splitter runs instead).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArbiterShare {
    /// The band-derived watt budget the allocation had to fit.
    pub budget_w: f64,
    /// Predicted watts of the emitted caps.
    pub allocated_w: f64,
}

/// Everything one [`crate::UstaGovernor`] `decide` call derived on its
/// way to a level vector.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DecisionRecord {
    /// The banding cap in force when the decision ran.
    pub band: FrequencyCap,
    /// USTA's own per-domain cap vector (before meeting any external
    /// caps), from the arbiter or the power-share splitter.
    pub usta_caps: PerDomain<usize>,
    /// Whether this decision actually tightened below the externally
    /// allowed levels on at least one domain.
    pub tightened: bool,
    /// Budget arithmetic when the watt arbiter ran (`None` on
    /// CPU-only devices).
    pub arbiter: Option<ArbiterShare>,
    /// The standing skin prediction the band was derived from (`None`
    /// before the first prediction).
    pub predicted_skin: Option<Celsius>,
    /// The most recent prediction residual (predicted − actual, °C;
    /// `None` until two predictions have run — the first residual
    /// needs a previous prediction to score).
    pub residual_c: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_plain_copyable_data() {
        let record = DecisionRecord {
            band: FrequencyCap::TwoLevelsBelowMax,
            usta_caps: PerDomain::splat(2, 3),
            tightened: true,
            arbiter: Some(ArbiterShare {
                budget_w: 2.5,
                allocated_w: 2.4,
            }),
            predicted_skin: Some(Celsius(36.0)),
            residual_c: Some(-0.2),
        };
        let copy = record;
        assert_eq!(copy, record);
        assert_eq!(copy.band.code(), 2);
        assert_eq!(copy.usta_caps.as_slice(), &[3, 3]);
    }
}
