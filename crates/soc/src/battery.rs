//! Battery pack: state of charge, currents, and self-heating.
//!
//! The pack heats through two mechanisms the paper's "Charging" benchmark
//! exercises: I²R losses on its internal resistance (both directions) and
//! converter/chemistry inefficiency while charging. Both end up in the
//! battery thermal node, which sits directly under the back cover — which
//! is why charging warms the *skin* location specifically.

use crate::error::SocError;

/// Whether a charger is attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ChargeState {
    /// Running from the battery.
    #[default]
    Discharging,
    /// Charger attached; current tapers as the pack fills.
    Charging,
    /// Charger attached and the pack is full (trickle only).
    Full,
}

/// Static battery description.
#[derive(Debug, Clone, PartialEq)]
pub struct BatteryParams {
    /// Pack capacity, mAh.
    pub capacity_mah: f64,
    /// Nominal pack voltage, V.
    pub nominal_v: f64,
    /// Internal resistance, Ω.
    pub internal_ohm: f64,
    /// Maximum charge current, A.
    pub max_charge_a: f64,
    /// Fraction of charging power lost as heat in the pack/PMIC.
    pub charge_loss_fraction: f64,
}

/// A battery pack with a state of charge and a heat output.
///
/// ```
/// use usta_soc::ChargeState;
///
/// # fn main() -> Result<(), usta_soc::SocError> {
/// let spec = usta_device::by_id("nexus4").expect("built-in");
/// let mut b = usta_soc::spec::battery(spec, 0.5)?;
/// b.set_charge_state(ChargeState::Charging);
/// let heat = b.step(4.0, 60.0); // device draws 4 W for a minute
/// assert!(heat > 0.0);
/// assert!(b.state_of_charge() > 0.5); // charger outpaces the load
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Battery {
    params: BatteryParams,
    soc: f64,
    state: ChargeState,
    last_heat_w: f64,
}

impl Battery {
    /// Builds a pack at the given state of charge (0–1).
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidParameter`] for out-of-range parameters
    /// or state of charge.
    pub fn new(params: BatteryParams, state_of_charge: f64) -> Result<Battery, SocError> {
        let check_pos = |name: &'static str, v: f64| {
            if !v.is_finite() || v <= 0.0 {
                Err(SocError::InvalidParameter { name, value: v })
            } else {
                Ok(())
            }
        };
        check_pos("capacity_mah", params.capacity_mah)?;
        check_pos("nominal_v", params.nominal_v)?;
        check_pos("max_charge_a", params.max_charge_a)?;
        if !params.internal_ohm.is_finite() || params.internal_ohm < 0.0 {
            return Err(SocError::InvalidParameter {
                name: "internal_ohm",
                value: params.internal_ohm,
            });
        }
        if !(0.0..=1.0).contains(&params.charge_loss_fraction) {
            return Err(SocError::InvalidParameter {
                name: "charge_loss_fraction",
                value: params.charge_loss_fraction,
            });
        }
        if !(0.0..=1.0).contains(&state_of_charge) {
            return Err(SocError::InvalidParameter {
                name: "state_of_charge",
                value: state_of_charge,
            });
        }
        Ok(Battery {
            params,
            soc: state_of_charge,
            state: ChargeState::Discharging,
            last_heat_w: 0.0,
        })
    }

    /// Attaches or detaches the charger.
    pub fn set_charge_state(&mut self, state: ChargeState) {
        self.state = state;
    }

    /// Current charger attachment.
    pub fn charge_state(&self) -> ChargeState {
        self.state
    }

    /// State of charge, 0–1.
    pub fn state_of_charge(&self) -> f64 {
        self.soc
    }

    /// Heat generated during the last step, W.
    pub fn last_heat(&self) -> f64 {
        self.last_heat_w
    }

    /// Advances the pack by `dt` seconds while the device draws
    /// `load_w` watts, returning the pack's heat output in watts.
    ///
    /// While charging, the charger supplies the load *and* up to
    /// `max_charge_a` into the pack, tapering above 80 % state of charge
    /// (constant-current → constant-voltage in one knee).
    pub fn step(&mut self, load_w: f64, dt: f64) -> f64 {
        let load_w = load_w.max(0.0);
        let v = self.params.nominal_v;
        let capacity_as = self.params.capacity_mah * 3.6; // mAh → A·s
        let mut heat = 0.0;

        match self.state {
            ChargeState::Discharging => {
                let current = load_w / v;
                heat += current * current * self.params.internal_ohm;
                self.soc -= current * dt / capacity_as;
            }
            ChargeState::Charging | ChargeState::Full => {
                let taper = if self.soc >= 1.0 {
                    0.0
                } else if self.soc > 0.8 {
                    // Linear CV taper from full current at 80 % to 5 % at 100 %.
                    ((1.0 - self.soc) / 0.2).max(0.05)
                } else {
                    1.0
                };
                let charge_a = self.params.max_charge_a * taper;
                let charge_w = charge_a * v;
                heat += charge_w * self.params.charge_loss_fraction;
                heat += charge_a * charge_a * self.params.internal_ohm;
                self.soc += charge_a * dt / capacity_as;
            }
        }
        self.soc = self.soc.clamp(0.0, 1.0);
        if self.soc >= 1.0 && self.state == ChargeState::Charging {
            self.state = ChargeState::Full;
        }
        self.last_heat_w = heat;
        heat
    }

    /// Parameters of the pack.
    pub fn params(&self) -> &BatteryParams {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn battery(soc: f64) -> Battery {
        crate::spec::battery(usta_device::by_id("nexus4").unwrap(), soc).unwrap()
    }

    #[test]
    fn discharging_drains_and_heats() {
        let mut b = battery(0.8);
        let heat = b.step(4.0, 600.0);
        assert!(heat > 0.0);
        assert!(b.state_of_charge() < 0.8);
    }

    #[test]
    fn heavier_load_heats_more_quadratically() {
        let mut b1 = battery(0.8);
        let mut b2 = battery(0.8);
        let h1 = b1.step(2.0, 1.0);
        let h2 = b2.step(4.0, 1.0);
        assert!((h2 / h1 - 4.0).abs() < 1e-9, "I²R heat should be quadratic");
    }

    #[test]
    fn charging_fills_and_heats_more_than_light_discharge() {
        let mut c = battery(0.5);
        c.set_charge_state(ChargeState::Charging);
        let charge_heat = c.step(0.5, 1.0);
        let mut d = battery(0.5);
        let idle_heat = d.step(0.5, 1.0);
        assert!(charge_heat > idle_heat);
        assert!(c.state_of_charge() > 0.5);
    }

    #[test]
    fn charge_tapers_near_full() {
        let mut nearly = battery(0.95);
        nearly.set_charge_state(ChargeState::Charging);
        let taper_heat = nearly.step(0.0, 1.0);
        let mut bulk = battery(0.5);
        bulk.set_charge_state(ChargeState::Charging);
        let bulk_heat = bulk.step(0.0, 1.0);
        assert!(taper_heat < bulk_heat);
    }

    #[test]
    fn full_pack_stops_charging() {
        let mut b = battery(0.999);
        b.set_charge_state(ChargeState::Charging);
        for _ in 0..10_000 {
            b.step(0.0, 1.0);
        }
        assert_eq!(b.charge_state(), ChargeState::Full);
        assert!(b.state_of_charge() <= 1.0);
        // A full pack on the charger produces no charge heat.
        let heat = b.step(0.0, 1.0);
        assert_eq!(heat, 0.0);
    }

    #[test]
    fn soc_never_leaves_unit_interval() {
        let mut b = battery(0.01);
        for _ in 0..100_000 {
            b.step(6.0, 10.0);
        }
        assert!(b.state_of_charge() >= 0.0);
    }

    #[test]
    fn constructor_validates() {
        let good = battery(0.5).params().clone();
        assert!(Battery::new(good.clone(), 1.5).is_err());
        let bad = BatteryParams {
            capacity_mah: 0.0,
            ..good.clone()
        };
        assert!(Battery::new(bad, 0.5).is_err());
        let bad = BatteryParams {
            charge_loss_fraction: 1.5,
            ..good
        };
        assert!(Battery::new(bad, 0.5).is_err());
    }
}
