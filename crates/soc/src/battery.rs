//! Battery pack: state of charge, currents, and self-heating.
//!
//! The pack heats through two mechanisms the paper's "Charging" benchmark
//! exercises: I²R losses on its internal resistance (both directions) and
//! converter/chemistry inefficiency while charging. Both end up in the
//! battery thermal node, which sits directly under the back cover — which
//! is why charging warms the *skin* location specifically.

use crate::error::SocError;
use usta_device::BatterySpec;

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

/// A battery pack with a state of charge and a heat output.
///
/// ```
/// use usta_soc::{Battery, ChargeState};
///
/// # fn main() -> Result<(), usta_soc::SocError> {
/// let spec = usta_device::by_id("nexus4").expect("built-in");
/// let mut b = Battery::new(spec.battery, 0.5)?;
/// b.set_charge_state(ChargeState::Charging);
/// let heat = b.step(4.0, 60.0); // device draws 4 W for a minute
/// assert!(heat > 0.0);
/// assert!(b.state_of_charge() > 0.5); // charger outpaces the load
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Battery {
    spec: BatterySpec,
    soc: f64,
    state: ChargeState,
}

impl Battery {
    /// Builds a pack at the given state of charge (0–1). The pack's own
    /// parameters come from the spec, whose ranges
    /// [`DeviceSpec::validate`](usta_device::DeviceSpec::validate)
    /// checks.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidParameter`] for a state of charge
    /// outside [0, 1] or NaN.
    pub fn new(spec: BatterySpec, state_of_charge: f64) -> Result<Battery, SocError> {
        if !(0.0..=1.0).contains(&state_of_charge) {
            return Err(SocError::InvalidParameter {
                name: "state_of_charge",
                value: state_of_charge,
            });
        }
        Ok(Battery {
            spec,
            soc: state_of_charge,
            state: ChargeState::Discharging,
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

    /// Advances the pack by `dt` seconds while the device draws
    /// `load_w` watts, returning the pack's heat output in watts.
    ///
    /// While charging, the charger supplies the load *and* up to
    /// `max_charge_a` into the pack, tapering above 80 % state of charge
    /// (constant-current → constant-voltage in one knee).
    pub fn step(&mut self, load_w: f64, dt: f64) -> f64 {
        let load_w = load_w.max(0.0);
        let v = self.spec.nominal_v;
        let capacity_as = self.spec.capacity_mah * 3.6; // mAh → A·s
        let mut heat = 0.0;

        match self.state {
            ChargeState::Discharging => {
                let current = load_w / v;
                heat += current * current * self.spec.internal_ohm;
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
                let charge_a = self.spec.max_charge_a * taper;
                let charge_w = charge_a * v;
                heat += charge_w * self.spec.charge_loss_fraction;
                heat += charge_a * charge_a * self.spec.internal_ohm;
                self.soc += charge_a * dt / capacity_as;
            }
        }
        self.soc = self.soc.clamp(0.0, 1.0);
        if self.soc >= 1.0 && self.state == ChargeState::Charging {
            self.state = ChargeState::Full;
        }
        heat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn battery(soc: f64) -> Battery {
        Battery::new(usta_device::by_id("nexus4").unwrap().battery, soc).unwrap()
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
        let spec = usta_device::by_id("nexus4").unwrap().battery;
        for bad in [1.5, -0.1, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    Battery::new(spec, bad),
                    Err(SocError::InvalidParameter {
                        name: "state_of_charge",
                        ..
                    })
                ),
                "{bad}"
            );
        }
        for good in [0.0, 0.5, 1.0] {
            assert!(Battery::new(spec, good).is_ok(), "{good}");
        }
    }
}
