//! The calibrated Nexus-4 preset used throughout the reproduction.
//!
//! The paper's device is a Google Nexus 4: Qualcomm APQ8064 (quad-core
//! Krait 300 + Adreno 320), a 4.7" IPS panel, and a 2100 mAh pack,
//! running Android 4.3 with twelve cpufreq operating points between
//! 384 MHz and 1.512 GHz (§3.B of the paper).
//!
//! Since the device catalog landed, the canonical numbers live in
//! `catalog/nexus4.toml`, the built-in spec [`usta_device::by_id`]
//! resolves for `"nexus4"`; this module keeps the seed's API
//! as thin wrappers over [`crate::spec`] applied to that spec, so
//! existing callers (and the Table-1 reproduction) see bit-identical
//! models.

use crate::battery::Battery;
use crate::cpu::Cpu;
use crate::error::SocError;
use crate::freq::OppTable;
use crate::power::{CpuPowerModel, GpuPowerModel};
use usta_device::DeviceSpec;

/// Number of CPU cores on the APQ8064.
pub const CORES: usize = 4;

/// The registry's Nexus 4 spec.
fn spec() -> &'static DeviceSpec {
    usta_device::by_id("nexus4").expect("nexus4 is a built-in device")
}

/// The twelve APQ8064 operating points (384 MHz … 1.512 GHz), with a
/// linear voltage ramp from 0.95 V to 1.25 V — the documented krait
/// PVS-nominal range.
pub fn opp_table() -> OppTable {
    crate::spec::opp_table(spec(), 0).expect("registry spec is valid")
}

/// CPU power model calibrated so four busy cores at the top OPP burn
/// ≈3.6 W plus leakage — the APQ8064's sustained ballpark.
pub fn cpu_power_model() -> CpuPowerModel {
    crate::spec::cpu_power_model(spec(), 0).expect("registry spec is valid")
}

/// Adreno-320-class GPU: ≈1.6 W flat out, ≈0.05 W idle.
pub fn gpu_power_model() -> GpuPowerModel {
    crate::spec::gpu_power_model(spec()).expect("registry spec is valid")
}

/// The quad-core CPU at the Nexus 4 OPP table.
///
/// # Errors
///
/// Never fails for the registry spec; the `Result` mirrors [`Cpu::new`].
pub fn cpu() -> Result<Cpu, SocError> {
    crate::spec::cpu(spec(), 0)
}

/// The 2100 mAh pack at the given state of charge.
///
/// # Errors
///
/// Returns [`SocError::InvalidParameter`] if `state_of_charge` is outside
/// 0–1.
pub fn battery(state_of_charge: f64) -> Result<Battery, SocError> {
    crate::spec::battery(spec(), state_of_charge)
}

/// The 4.7" IPS display.
///
/// # Errors
///
/// Never fails for the registry spec; the `Result` mirrors
/// [`crate::display::Display::new`].
pub fn display() -> Result<crate::display::Display, SocError> {
    crate::spec::display(spec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use usta_thermal::Celsius;

    #[test]
    fn twelve_levels_matching_the_paper() {
        let t = opp_table();
        assert_eq!(t.len(), 12);
        assert_eq!(t.min().khz, 384_000);
        assert_eq!(t.max().khz, 1_512_000);
    }

    #[test]
    fn voltages_ramp_up_with_frequency() {
        let t = opp_table();
        let mut prev = 0.0;
        for l in t.iter() {
            assert!(l.volts > prev);
            prev = l.volts;
        }
        assert!((t.min().volts - 0.95).abs() < 1e-9);
        assert!((t.max().volts - 1.25).abs() < 1e-9);
    }

    #[test]
    fn full_tilt_cpu_power_is_apq8064_scale() {
        let m = cpu_power_model();
        let p = m.cluster_power(opp_table().max(), &[1.0; 4], Celsius(50.0));
        assert!(
            p > 3.0 && p < 5.0,
            "cluster power {p} W out of APQ8064 band"
        );
    }

    #[test]
    fn idle_cpu_power_is_small() {
        let m = cpu_power_model();
        let p = m.cluster_power(opp_table().min(), &[0.0; 4], Celsius(30.0));
        assert!(p < 0.5, "idle power {p} W too high");
    }

    #[test]
    fn presets_build() {
        assert!(cpu().is_ok());
        assert!(battery(0.8).is_ok());
        assert!(display().is_ok());
        assert!(gpu_power_model().max_power() > 1.0);
    }

    #[test]
    fn spec_built_table_pins_the_seed_values() {
        // Regression pin: the registry-driven table must reproduce the
        // seed's hardcoded constants bit-for-bit — frequencies exactly,
        // voltages as the same `0.95 + 0.30·i/11` expression.
        const SEED_KHZ: [u32; 12] = [
            384_000, 486_000, 594_000, 702_000, 810_000, 918_000, 1_026_000, 1_134_000, 1_242_000,
            1_350_000, 1_458_000, 1_512_000,
        ];
        let t = opp_table();
        for (i, l) in t.iter().enumerate() {
            assert_eq!(l.khz, SEED_KHZ[i]);
            assert_eq!(l.volts, 0.95 + 0.30 * i as f64 / 11.0, "level {i} voltage");
        }
        // And the power model coefficients produce the seed's numbers.
        let m = cpu_power_model();
        assert_eq!(m, CpuPowerModel::new(3.8e-10, 0.056, 0.02, 0.12).unwrap());
    }
}
