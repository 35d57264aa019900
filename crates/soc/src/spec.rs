//! The builders that turn a [`usta_device::DeviceSpec`] section into a
//! model of this crate by more than handing it over.
//!
//! Most models hold their spec section as it is:
//! [`CpuPowerModel::new`](crate::CpuPowerModel::new) takes a cluster's
//! [`CpuPowerSpec`](usta_device::CpuPowerSpec),
//! [`Battery::new`](crate::Battery::new) the spec's
//! [`BatterySpec`](usta_device::BatterySpec), and so on. Their ranges
//! are checked once, by
//! [`DeviceSpec::validate`](usta_device::DeviceSpec::validate). This
//! module builds a CPU from a cluster's core count and OPP table, and a
//! pseudo-OPP table from the brightness ladder.
//!
//! ```
//! use usta_device::by_id;
//!
//! # fn main() -> Result<(), usta_soc::SocError> {
//! let spec = by_id("flagship-octa").expect("built-in");
//! let big = usta_soc::spec::cpu(&spec.clusters[0])?;
//! let little = usta_soc::spec::cpu(&spec.clusters[1])?;
//! assert_eq!(big.cores() + little.cores(), 8);
//! assert_eq!(big.opp_table().max().khz, 2_016_000);
//! assert_eq!(little.opp_table().max().khz, 1_363_200);
//! # Ok(())
//! # }
//! ```

use usta_device::ClusterSpec;

use crate::cpu::Cpu;
use crate::error::SocError;
use crate::freq::{OppPoint, OppTable};

/// One cluster's CPU: its cores on its OPP table, idle at the lowest
/// operating point.
///
/// # Errors
///
/// Returns the [`OppTable::new`] error of a cluster whose levels are
/// empty, unsorted, or non-positive (impossible for validated specs).
pub fn cpu(cluster: &ClusterSpec) -> Result<Cpu, SocError> {
    Ok(Cpu::new(cluster.cores, OppTable::new(cluster.opp.clone())?))
}

/// A brightness ladder as a pseudo-OPP table — permille as kHz at a
/// constant 1 V, so the display rides the same cap machinery as every
/// other domain.
///
/// # Errors
///
/// Returns [`SocError`] if the ladder is empty or unsorted (impossible
/// for validated specs).
pub fn brightness_opp_table(ladder: &[u32]) -> Result<OppTable, SocError> {
    OppTable::new(
        ladder
            .iter()
            .map(|&permille| OppPoint {
                khz: permille,
                volts: 1.0,
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::{CpuPowerModel, GpuPowerModel};
    use crate::{Battery, Display};
    use usta_device::{by_id, DeviceSpec, Registry};
    use usta_thermal::Celsius;

    #[test]
    fn every_builtin_spec_builds_every_model_per_cluster() {
        for spec in Registry::builtin().specs() {
            for (d, cluster) in spec.clusters.iter().enumerate() {
                let cpu = cpu(cluster).unwrap_or_else(|e| panic!("{}/{}: {e}", spec.id, d));
                assert_eq!(cpu.cores(), cluster.cores, "{}/{}", spec.id, d);
                assert_eq!(
                    cpu.opp_table().len(),
                    cluster.opp.len(),
                    "{}/{}",
                    spec.id,
                    d
                );
            }
            assert!(Battery::new(spec.battery, 0.5).is_ok(), "{}", spec.id);
            if let Some(gpu) = &spec.gpu {
                let table = OppTable::new(gpu.opp.clone())
                    .unwrap_or_else(|e| panic!("{}/gpu: {e}", spec.id));
                assert_eq!(table.len(), gpu.opp.len());
            }
            if let Some(ladder) = spec.brightness_ladder {
                let table = brightness_opp_table(ladder)
                    .unwrap_or_else(|e| panic!("{}/display: {e}", spec.id));
                assert_eq!(table.max().khz, 1000, "{}", spec.id);
            }
        }
    }

    fn nexus4() -> &'static DeviceSpec {
        by_id("nexus4").expect("built-in")
    }

    fn nexus4_opp() -> OppTable {
        OppTable::new(nexus4().clusters[0].opp.clone()).unwrap()
    }

    fn nexus4_power() -> CpuPowerModel {
        CpuPowerModel::new(nexus4().clusters[0].cpu_power)
    }

    #[test]
    fn twelve_levels_matching_the_paper() {
        let t = nexus4_opp();
        assert_eq!(t.len(), 12);
        assert_eq!(t.min().khz, 384_000);
        assert_eq!(t.max().khz, 1_512_000);
        assert_eq!(nexus4().cores(), 4, "quad-core APQ8064");
    }

    #[test]
    fn voltages_ramp_up_with_frequency() {
        let t = nexus4_opp();
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
        let p = nexus4_power().cluster_power(nexus4_opp().max(), &[1.0; 4], Celsius(50.0));
        assert!(
            p > 3.0 && p < 5.0,
            "cluster power {p} W out of APQ8064 band"
        );
    }

    #[test]
    fn idle_cpu_power_is_small() {
        let p = nexus4_power().cluster_power(nexus4_opp().min(), &[0.0; 4], Celsius(30.0));
        assert!(p < 0.5, "idle power {p} W too high");
    }

    #[test]
    fn presets_build() {
        assert_eq!(cpu(&nexus4().clusters[0]).unwrap().cores(), 4);
        assert!(Battery::new(nexus4().battery, 0.8).is_ok());
        assert_eq!(Display::new(nexus4().display).power(), 0.0);
        assert!(GpuPowerModel::new(nexus4().gpu_power).max_power() > 1.0);
    }
}
