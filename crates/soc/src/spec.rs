//! Building live SoC models from a [`usta_device::DeviceSpec`].
//!
//! `usta-device` holds plain data; this module turns each section of a
//! spec into the corresponding model type of this crate. The CPU side
//! is per-cluster: each [`usta_device::ClusterSpec`] (one frequency
//! domain) yields its own [`OppTable`], [`Cpu`], and [`CpuPowerModel`].
//! Every constructor revalidates through the model's own `new` (the
//! spec was already checked at registry construction, so failures here
//! mean a hand-built spec slipped past
//! [`DeviceSpec::validate`](usta_device::DeviceSpec::validate)).
//!
//! ```
//! use usta_device::by_id;
//!
//! # fn main() -> Result<(), usta_soc::SocError> {
//! let spec = by_id("flagship-octa").expect("built-in");
//! let big = usta_soc::spec::cpu(spec, 0)?;
//! let little = usta_soc::spec::cpu(spec, 1)?;
//! assert_eq!(big.cores() + little.cores(), 8);
//! assert_eq!(big.opp_table().max().khz, 2_016_000);
//! assert_eq!(little.opp_table().max().khz, 1_363_200);
//! # Ok(())
//! # }
//! ```

use usta_device::{ClusterSpec, DeviceSpec};

use crate::battery::{Battery, BatteryParams};
use crate::cpu::{Cpu, CpuParams};
use crate::display::{Display, DisplayParams};
use crate::error::SocError;
use crate::freq::{FrequencyLevel, OppTable};
use crate::power::{CpuPowerModel, GpuPowerModel};

/// The given cluster of the spec, or [`SocError::InvalidParameter`]
/// when the index is out of range.
fn spec_cluster(spec: &DeviceSpec, cluster: usize) -> Result<&ClusterSpec, SocError> {
    spec.clusters
        .get(cluster)
        .ok_or(SocError::InvalidParameter {
            name: "cluster",
            value: cluster as f64,
        })
}

/// One cluster's OPP table as a cpufreq [`OppTable`].
///
/// # Errors
///
/// Returns [`SocError`] if the cluster index is out of range or its
/// levels are empty, unsorted, or non-positive (impossible for
/// registry-validated specs).
pub fn opp_table(spec: &DeviceSpec, cluster: usize) -> Result<OppTable, SocError> {
    OppTable::new(
        spec_cluster(spec, cluster)?
            .opp
            .iter()
            .map(|p| FrequencyLevel {
                khz: p.khz,
                volts: p.volts,
            })
            .collect(),
    )
}

/// One cluster's power coefficients as a [`CpuPowerModel`].
///
/// # Errors
///
/// Returns [`SocError::InvalidParameter`] for a bad cluster index or
/// out-of-range coefficients.
pub fn cpu_power_model(spec: &DeviceSpec, cluster: usize) -> Result<CpuPowerModel, SocError> {
    let c = spec_cluster(spec, cluster)?;
    CpuPowerModel::new(
        c.cpu_power.ceff_farads,
        c.cpu_power.leak_coeff_a,
        c.cpu_power.leak_temp_per_k,
        c.cpu_power.idle_uncore_w,
    )
}

/// One cluster's CPU: its cores on its OPP table, idle at the lowest
/// operating point.
///
/// # Errors
///
/// Propagates OPP-table conversion errors and rejects zero cores.
pub fn cpu(spec: &DeviceSpec, cluster: usize) -> Result<Cpu, SocError> {
    let cores = spec_cluster(spec, cluster)?.cores;
    Cpu::new(CpuParams { cores }, opp_table(spec, cluster)?)
}

/// Every cluster's CPU, in the spec's big-first domain order.
///
/// # Errors
///
/// Propagates the first failing cluster's error.
pub fn cpus(spec: &DeviceSpec) -> Result<Vec<Cpu>, SocError> {
    (0..spec.domains()).map(|d| cpu(spec, d)).collect()
}

/// Every cluster's power model, in the spec's domain order.
///
/// # Errors
///
/// Propagates the first failing cluster's error.
pub fn cpu_power_models(spec: &DeviceSpec) -> Result<Vec<CpuPowerModel>, SocError> {
    (0..spec.domains())
        .map(|d| cpu_power_model(spec, d))
        .collect()
}

/// The spec's GPU power model.
///
/// # Errors
///
/// Returns [`SocError::InvalidParameter`] for out-of-range powers.
pub fn gpu_power_model(spec: &DeviceSpec) -> Result<GpuPowerModel, SocError> {
    GpuPowerModel::new(spec.gpu_power.max_w, spec.gpu_power.idle_w)
}

/// The governed GPU domain's OPP table, when the spec declares one.
///
/// # Errors
///
/// Returns [`SocError`] if the declared table is empty, unsorted, or
/// non-positive (impossible for registry-validated specs).
pub fn gpu_opp_table(spec: &DeviceSpec) -> Option<Result<OppTable, SocError>> {
    spec.gpu.as_ref().map(|gpu| {
        OppTable::new(
            gpu.opp
                .iter()
                .map(|p| FrequencyLevel {
                    khz: p.khz,
                    volts: p.volts,
                })
                .collect(),
        )
    })
}

/// The spec's brightness ladder as a pseudo-OPP table — permille as
/// kHz at a constant 1 V, so the display rides the same cap machinery
/// as every other domain.
///
/// # Errors
///
/// Returns [`SocError`] if the declared ladder is empty or unsorted
/// (impossible for registry-validated specs).
pub fn brightness_opp_table(spec: &DeviceSpec) -> Option<Result<OppTable, SocError>> {
    spec.brightness_ladder.map(|ladder| {
        OppTable::new(
            ladder
                .iter()
                .map(|&permille| FrequencyLevel {
                    khz: permille,
                    volts: 1.0,
                })
                .collect(),
        )
    })
}

/// The spec's display panel.
///
/// # Errors
///
/// Returns [`SocError::InvalidParameter`] for negative powers.
pub fn display(spec: &DeviceSpec) -> Result<Display, SocError> {
    Display::new(DisplayParams {
        base_w: spec.display.base_w,
        full_brightness_w: spec.display.full_brightness_w,
    })
}

/// The spec's battery pack at the given state of charge (0–1).
///
/// # Errors
///
/// Returns [`SocError::InvalidParameter`] for out-of-range pack
/// parameters or state of charge.
pub fn battery(spec: &DeviceSpec, state_of_charge: f64) -> Result<Battery, SocError> {
    Battery::new(
        BatteryParams {
            capacity_mah: spec.battery.capacity_mah,
            nominal_v: spec.battery.nominal_v,
            internal_ohm: spec.battery.internal_ohm,
            max_charge_a: spec.battery.max_charge_a,
            charge_loss_fraction: spec.battery.charge_loss_fraction,
        },
        state_of_charge,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use usta_device::{by_id, Registry};
    use usta_thermal::Celsius;

    #[test]
    fn every_builtin_spec_builds_every_model_per_cluster() {
        for spec in Registry::builtin().specs() {
            for (d, cluster) in spec.clusters.iter().enumerate() {
                let table = opp_table(spec, d).unwrap_or_else(|e| panic!("{}/{}: {e}", spec.id, d));
                assert_eq!(table.len(), cluster.opp.len(), "{}/{}", spec.id, d);
                let cpu = cpu(spec, d).unwrap();
                assert_eq!(cpu.cores(), cluster.cores, "{}/{}", spec.id, d);
                assert!(cpu_power_model(spec, d).is_ok(), "{}/{}", spec.id, d);
            }
            assert_eq!(cpus(spec).unwrap().len(), spec.domains(), "{}", spec.id);
            assert_eq!(
                cpu_power_models(spec).unwrap().len(),
                spec.domains(),
                "{}",
                spec.id
            );
            assert!(gpu_power_model(spec).is_ok(), "{}", spec.id);
            assert!(display(spec).is_ok(), "{}", spec.id);
            assert!(battery(spec, 0.5).is_ok(), "{}", spec.id);
            if let Some(table) = gpu_opp_table(spec) {
                let table = table.unwrap_or_else(|e| panic!("{}/gpu: {e}", spec.id));
                assert_eq!(table.len(), spec.gpu.as_ref().unwrap().opp.len());
            }
            if let Some(table) = brightness_opp_table(spec) {
                let table = table.unwrap_or_else(|e| panic!("{}/display: {e}", spec.id));
                assert_eq!(table.max().khz, 1000, "{}", spec.id);
            }
        }
    }

    fn nexus4() -> &'static DeviceSpec {
        by_id("nexus4").expect("built-in")
    }

    #[test]
    fn twelve_levels_matching_the_paper() {
        let t = opp_table(nexus4(), 0).unwrap();
        assert_eq!(t.len(), 12);
        assert_eq!(t.min().khz, 384_000);
        assert_eq!(t.max().khz, 1_512_000);
        assert_eq!(nexus4().cores(), 4, "quad-core APQ8064");
    }

    #[test]
    fn voltages_ramp_up_with_frequency() {
        let t = opp_table(nexus4(), 0).unwrap();
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
        let m = cpu_power_model(nexus4(), 0).unwrap();
        let top = opp_table(nexus4(), 0).unwrap().max();
        let p = m.cluster_power(top, &[1.0; 4], Celsius(50.0));
        assert!(
            p > 3.0 && p < 5.0,
            "cluster power {p} W out of APQ8064 band"
        );
    }

    #[test]
    fn idle_cpu_power_is_small() {
        let m = cpu_power_model(nexus4(), 0).unwrap();
        let bottom = opp_table(nexus4(), 0).unwrap().min();
        let p = m.cluster_power(bottom, &[0.0; 4], Celsius(30.0));
        assert!(p < 0.5, "idle power {p} W too high");
    }

    #[test]
    fn presets_build() {
        assert!(cpu(nexus4(), 0).is_ok());
        assert!(battery(nexus4(), 0.8).is_ok());
        assert!(display(nexus4()).is_ok());
        assert!(gpu_power_model(nexus4()).unwrap().max_power() > 1.0);
    }

    #[test]
    fn out_of_range_cluster_index_is_an_error() {
        let spec = by_id("nexus4").expect("built-in");
        assert!(opp_table(spec, 1).is_err());
        assert!(cpu(spec, 7).is_err());
        assert!(cpu_power_model(spec, 2).is_err());
    }

    #[test]
    fn hand_built_invalid_spec_is_caught_at_model_construction() {
        let nexus4 = by_id("nexus4").expect("built-in");
        let mut bad = nexus4.clone();
        bad.clusters[0].opp.clear();
        assert!(opp_table(&bad, 0).is_err());
        bad = nexus4.clone();
        bad.clusters[0].cores = 0;
        assert!(cpu(&bad, 0).is_err());
    }
}
