//! CMOS power models for the CPU and GPU.
//!
//! Dynamic power follows the classic `P = C_eff · V² · f · activity`
//! switching model; leakage grows with voltage and temperature, which is
//! what couples the thermal state back into power (and keeps sustained
//! workloads from being a pure feed-forward problem).

use crate::freq::OppPoint;
use usta_device::{CpuPowerSpec, GpuPowerSpec};
use usta_thermal::Celsius;

/// Per-core CPU power model.
///
/// ```
/// use usta_device::CpuPowerSpec;
/// use usta_soc::{CpuPowerModel, OppPoint};
/// use usta_thermal::Celsius;
///
/// let model = CpuPowerModel::new(CpuPowerSpec {
///     ceff_farads: 3.8e-10,
///     leak_coeff_a: 0.056,
///     leak_temp_per_k: 0.02,
///     idle_uncore_w: 0.12,
/// });
/// let top = OppPoint { khz: 1_512_000, volts: 1.25 };
/// // A fully busy core at the top OPP burns most of a watt:
/// let p = model.dynamic_power(top, 1.0);
/// assert!(p > 0.7 && p < 1.1);
/// // Leakage grows with temperature:
/// assert!(model.leakage_power(top, Celsius(60.0)) > model.leakage_power(top, Celsius(30.0)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CpuPowerModel {
    spec: CpuPowerSpec,
}

impl CpuPowerModel {
    /// Builds a model from one cluster's coefficients, whose ranges
    /// [`DeviceSpec::validate`](usta_device::DeviceSpec::validate)
    /// checks.
    pub fn new(spec: CpuPowerSpec) -> CpuPowerModel {
        CpuPowerModel { spec }
    }

    /// Switching power of one core at `level` with the given utilization
    /// (0–1), in watts.
    pub fn dynamic_power(&self, level: OppPoint, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        self.spec.ceff_farads * level.volts * level.volts * level.hz() * u
    }

    /// Leakage power of one core at `level` and die temperature, in
    /// watts. Linearized exponential: grows `leak_temp_per_k` per kelvin
    /// above 25 °C and shrinks below (floored at 10 % of nominal).
    pub fn leakage_power(&self, level: OppPoint, die: Celsius) -> f64 {
        let scale = (1.0 + self.spec.leak_temp_per_k * (die - Celsius(25.0))).max(0.1);
        self.spec.leak_coeff_a * level.volts * scale
    }

    /// Total power of a cluster of cores with the given per-core
    /// utilizations, all at the same `level` (one voltage/frequency
    /// domain, as on the APQ8064), in watts.
    pub fn cluster_power(&self, level: OppPoint, utilizations: &[f64], die: Celsius) -> f64 {
        let dynamic: f64 = utilizations
            .iter()
            .map(|&u| self.dynamic_power(level, u))
            .sum();
        let leakage = self.leakage_power(level, die) * utilizations.len() as f64;
        dynamic + leakage + self.spec.idle_uncore_w
    }
}

/// GPU power model: load-proportional with an idle floor.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuPowerModel {
    spec: GpuPowerSpec,
}

impl GpuPowerModel {
    /// Builds a GPU model from the spec's full-load and idle power,
    /// whose ranges
    /// [`DeviceSpec::validate`](usta_device::DeviceSpec::validate)
    /// checks.
    pub fn new(spec: GpuPowerSpec) -> GpuPowerModel {
        GpuPowerModel { spec }
    }

    /// Power at the given load (0–1), in watts.
    pub fn power(&self, load: f64) -> f64 {
        let l = load.clamp(0.0, 1.0);
        self.spec.idle_w + (self.spec.max_w - self.spec.idle_w) * l
    }

    /// Full-load power, in watts.
    pub fn max_power(&self) -> f64 {
        self.spec.max_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CpuPowerModel {
        CpuPowerModel::new(CpuPowerSpec {
            ceff_farads: 3.8e-10,
            leak_coeff_a: 0.056,
            leak_temp_per_k: 0.02,
            idle_uncore_w: 0.12,
        })
    }

    fn top() -> OppPoint {
        OppPoint {
            khz: 1_512_000,
            volts: 1.25,
        }
    }

    fn bottom() -> OppPoint {
        OppPoint {
            khz: 384_000,
            volts: 0.95,
        }
    }

    #[test]
    fn dynamic_power_scales_with_utilization() {
        let m = model();
        let p_full = m.dynamic_power(top(), 1.0);
        let p_half = m.dynamic_power(top(), 0.5);
        assert!((p_half - p_full / 2.0).abs() < 1e-12);
        assert_eq!(m.dynamic_power(top(), 0.0), 0.0);
    }

    #[test]
    fn utilization_is_clamped() {
        let m = model();
        assert_eq!(m.dynamic_power(top(), 2.0), m.dynamic_power(top(), 1.0));
        assert_eq!(m.dynamic_power(top(), -1.0), 0.0);
    }

    #[test]
    fn lower_opp_burns_much_less() {
        let m = model();
        let hi = m.dynamic_power(top(), 1.0);
        let lo = m.dynamic_power(bottom(), 1.0);
        // f ratio 3.9×, V² ratio 1.73× → ~6.8× less power at the bottom.
        assert!(hi / lo > 5.0, "expected large ratio, got {}", hi / lo);
    }

    #[test]
    fn leakage_grows_with_temperature_and_floors() {
        let m = model();
        let cold = m.leakage_power(top(), Celsius(0.0));
        let warm = m.leakage_power(top(), Celsius(50.0));
        let frozen = m.leakage_power(top(), Celsius(-300.0_f64.max(-273.0)));
        assert!(warm > cold);
        assert!(frozen > 0.0, "leakage must stay positive");
    }

    #[test]
    fn cluster_power_includes_uncore_and_all_cores() {
        let m = model();
        let p = m.cluster_power(top(), &[1.0, 1.0, 1.0, 1.0], Celsius(40.0));
        // 4 busy cores at ~0.9 W dynamic each + leakage + uncore.
        assert!(p > 3.5 && p < 5.0, "cluster power {p} W out of band");
        let idle = m.cluster_power(top(), &[0.0, 0.0, 0.0, 0.0], Celsius(30.0));
        assert!(idle > 0.0 && idle < 1.0);
    }

    #[test]
    fn gpu_power_interpolates_between_idle_and_max() {
        let g = GpuPowerModel::new(GpuPowerSpec {
            max_w: 1.6,
            idle_w: 0.1,
        });
        assert_eq!(g.power(0.0), 0.1);
        assert_eq!(g.power(1.0), 1.6);
        assert!((g.power(0.5) - 0.85).abs() < 1e-12);
        assert_eq!(g.power(7.0), 1.6);
        assert_eq!(g.max_power(), 1.6);
    }

    /// The Nexus 4 spec with one mutation applied, run through the spec
    /// validator. The power models trust their specs; this validator,
    /// which `Device::new` runs first, is what keeps bad values out.
    fn validate_nexus4_with(mutate: impl FnOnce(&mut usta_device::DeviceSpec)) -> bool {
        let mut spec = usta_device::by_id("nexus4").unwrap().clone();
        mutate(&mut spec);
        spec.validate().is_ok()
    }

    #[test]
    fn constructor_rejects_bad_parameters() {
        assert!(!validate_nexus4_with(|s| s.clusters[0]
            .cpu_power
            .ceff_farads = 0.0));
        assert!(!validate_nexus4_with(|s| s.clusters[0]
            .cpu_power
            .ceff_farads = f64::NAN));
        assert!(!validate_nexus4_with(|s| s.clusters[0]
            .cpu_power
            .leak_coeff_a = -0.1));
    }

    #[test]
    fn gpu_rejects_inconsistent_parameters() {
        assert!(!validate_nexus4_with(|s| {
            s.gpu_power.max_w = 1.0;
            s.gpu_power.idle_w = 2.0;
        }));
        assert!(!validate_nexus4_with(|s| {
            s.gpu_power.max_w = -1.0;
            s.gpu_power.idle_w = 0.0;
        }));
    }
}
