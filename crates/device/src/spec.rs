//! The device spec: everything needed to instantiate one device model.
//!
//! A [`DeviceSpec`] is plain data — no behaviour beyond validation and
//! a few derived summaries. The CPU side is a list of [`ClusterSpec`]s,
//! one per frequency domain (cpufreq policy): single-policy parts like
//! the paper's Nexus 4 declare one cluster, big.LITTLE parts declare
//! two, in **big-first order** (the spill scheduler places threads on
//! the fastest cluster first). `usta-soc`'s models hold these sections
//! as their static description, and `usta-sim` builds whole
//! multi-domain devices from a spec; the thermal side is a declarative
//! [`ThermalSpec`] with **one die node per cluster**, lowered into a
//! `usta_thermal::ThermalTopology` at device construction.

use crate::error::DeviceError;
use crate::thermal::ThermalSpec;
use usta_thermal::materials::Material;

/// The most CPU clusters a device may declare. Three covers every
/// shipping phone topology (LITTLE + big + prime); four leaves
/// headroom.
pub const MAX_CPU_CLUSTERS: usize = 4;

/// The most frequency domains a device may expose to the control
/// plane: up to [`MAX_CPU_CLUSTERS`] CPU clusters plus one GPU domain
/// plus one display (brightness) domain. `usta_soc::MAX_FREQ_DOMAINS`
/// re-exports this so the whole control plane shares one bound.
pub const MAX_FREQ_DOMAINS: usize = MAX_CPU_CLUSTERS + 2;

/// One operating point: a frequency and the voltage the PLL/PMIC pair
/// runs it at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OppPoint {
    /// Core clock, kHz (cpufreq convention; 1 512 000 kHz = 1512 MHz).
    pub khz: u32,
    /// Supply voltage at this point, volts.
    pub volts: f64,
}

impl OppPoint {
    /// Frequency in MHz.
    pub fn mhz(&self) -> f64 {
        self.khz as f64 / 1e3
    }

    /// Frequency in Hz.
    #[inline]
    pub fn hz(&self) -> f64 {
        self.khz as f64 * 1e3
    }
}

/// CPU power coefficients of one cluster (per core, one shared
/// voltage/frequency domain).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuPowerSpec {
    /// Effective switched capacitance per core, farads.
    pub ceff_farads: f64,
    /// Leakage current coefficient at 25 °C, amperes.
    pub leak_coeff_a: f64,
    /// Fractional leakage growth per kelvin above 25 °C.
    pub leak_temp_per_k: f64,
    /// Constant uncore/interconnect power while the cluster is online,
    /// watts.
    pub idle_uncore_w: f64,
}

/// One frequency domain: a set of cores sharing a clock, its OPP table,
/// and its power coefficients.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Cluster name, lower-case `[a-z0-9-]` (`"big"`, `"little"`, or
    /// `"cpu"` on single-domain parts) — used for trace columns and
    /// fleet report rows.
    pub name: &'static str,
    /// Number of cores sharing this cluster's clock.
    pub cores: usize,
    /// The cluster's OPP table, lowest frequency first. Frequencies in
    /// kHz, voltages in volts; frequency must rise strictly, voltage
    /// monotonically.
    pub opp: Vec<OppPoint>,
    /// The cluster's power coefficients (watts-producing).
    pub cpu_power: CpuPowerSpec,
}

impl ClusterSpec {
    /// Full-utilization dynamic power of one core at OPP `index`, watts
    /// (`C_eff · V² · f`). This is the quantity required to rise
    /// strictly with the level index.
    pub fn opp_dynamic_power_w(&self, index: usize) -> f64 {
        let p = self.opp[index];
        self.cpu_power.ceff_farads * p.volts * p.volts * (p.khz as f64 * 1e3)
    }

    /// Full-load dynamic power of the whole cluster at its top OPP,
    /// watts — the weight USTA uses to split a thermal budget across
    /// domains.
    pub fn full_load_w(&self) -> f64 {
        if self.opp.is_empty() {
            return 0.0;
        }
        self.opp_dynamic_power_w(self.opp.len() - 1) * self.cores as f64
    }

    /// Lowest OPP frequency, kHz.
    pub fn min_khz(&self) -> u32 {
        self.opp.first().map_or(0, |p| p.khz)
    }

    /// Highest OPP frequency, kHz.
    pub fn max_khz(&self) -> u32 {
        self.opp.last().map_or(0, |p| p.khz)
    }
}

/// GPU power model: load-proportional with an idle floor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuPowerSpec {
    /// Full-load power, watts.
    pub max_w: f64,
    /// Idle power, watts.
    pub idle_w: f64,
}

/// A GPU frequency domain: an OPP table and power coefficients, so the
/// GPU participates in DVFS like a CPU cluster instead of being a
/// static load-proportional model.
///
/// Devices that declare one (via [`DeviceSpec::gpu`]) expose the GPU
/// as a first-class frequency domain to the governors and the power
/// arbiter; devices that don't keep the legacy [`GpuPowerSpec`] path
/// bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuDomainSpec {
    /// The GPU's OPP table, lowest frequency first — same invariants
    /// as a cluster's ([`validate`](DeviceSpec::validate)).
    pub opp: Vec<OppPoint>,
    /// Effective switched capacitance of the whole GPU, farads.
    pub ceff_farads: f64,
    /// Power while the GPU is online but idle, watts.
    pub idle_w: f64,
}

impl GpuDomainSpec {
    /// Full-utilization dynamic power at OPP `index`, watts
    /// (`C_eff · V² · f`).
    pub fn opp_dynamic_power_w(&self, index: usize) -> f64 {
        let p = self.opp[index];
        self.ceff_farads * p.volts * p.volts * (p.khz as f64 * 1e3)
    }

    /// Full-load power at the top OPP, watts — the GPU's weight in the
    /// arbiter's budget split.
    pub fn full_load_w(&self) -> f64 {
        if self.opp.is_empty() {
            return 0.0;
        }
        self.idle_w + self.opp_dynamic_power_w(self.opp.len() - 1)
    }

    /// Highest OPP frequency, kHz.
    pub fn max_khz(&self) -> u32 {
        self.opp.last().map_or(0, |p| p.khz)
    }
}

/// Display panel power model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisplaySpec {
    /// Panel + driver power at zero backlight, watts.
    pub base_w: f64,
    /// Additional power at full brightness, watts.
    pub full_brightness_w: f64,
}

/// Battery pack description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatterySpec {
    /// Pack capacity, mAh.
    pub capacity_mah: f64,
    /// Nominal pack voltage, volts.
    pub nominal_v: f64,
    /// Internal resistance, ohms.
    pub internal_ohm: f64,
    /// Maximum charge current, amperes.
    pub max_charge_a: f64,
    /// Fraction of charging power lost as heat in the pack/PMIC, 0–1.
    pub charge_loss_fraction: f64,
}

/// A complete device description.
///
/// Field units are stated per field; the thermal network uses J/K for
/// node capacitances and W/K for conductances (see [`ThermalSpec`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Stable registry/CLI id, lower-case `[a-z0-9-]` (e.g. `"nexus4"`).
    pub id: &'static str,
    /// Human-readable description for reports and `--help` text.
    pub description: &'static str,
    /// The frequency domains, **big-first** (non-increasing top
    /// frequency): the spill scheduler fills earlier clusters' cores
    /// before later ones. At most [`MAX_CPU_CLUSTERS`] entries.
    pub clusters: Vec<ClusterSpec>,
    /// GPU power model, watts — the legacy static path, used whenever
    /// [`DeviceSpec::gpu`] is `None`.
    pub gpu_power: GpuPowerSpec,
    /// The GPU as a real frequency domain (OPP table + power
    /// coefficients). `None` keeps the legacy [`GpuPowerSpec`] path
    /// bit-for-bit; `Some` makes the GPU a governed domain.
    pub gpu: Option<GpuDomainSpec>,
    /// Display power model, watts.
    pub display: DisplaySpec,
    /// Discrete backlight ladder, in brightness permille (strictly
    /// increasing, each in 1..=1000). `Some` exposes the display as a
    /// brightness frequency domain the arbiter may dim; `None` keeps
    /// the workload's requested brightness untouched.
    pub brightness_ladder: Option<&'static [u32]>,
    /// Battery pack (mAh, V, Ω, A).
    pub battery: BatterySpec,
    /// Back-cover material — what the user's palm actually touches.
    /// Informational: the material's thermal contribution is already
    /// folded into `thermal` (the back-cover node capacitances and
    /// ambient conductances); changing this field alone does not
    /// change simulation results.
    pub back_cover: Material,
    /// The declarative thermal RC network: named nodes (heat
    /// capacities in J/K), coupling and ambient conductances in W/K,
    /// and role designations — one die node per cluster, big-first.
    pub thermal: ThermalSpec,
}

impl DeviceSpec {
    /// Number of frequency domains.
    pub fn domains(&self) -> usize {
        self.clusters.len()
    }

    /// Total core count across every cluster.
    pub fn cores(&self) -> usize {
        self.clusters.iter().map(|c| c.cores).sum()
    }

    /// Lowest OPP frequency of any cluster, kHz.
    pub fn min_khz(&self) -> u32 {
        self.clusters
            .iter()
            .map(ClusterSpec::min_khz)
            .min()
            .unwrap_or(0)
    }

    /// Highest OPP frequency of any cluster, kHz.
    pub fn max_khz(&self) -> u32 {
        self.clusters
            .iter()
            .map(ClusterSpec::max_khz)
            .max()
            .unwrap_or(0)
    }

    /// The domain topology as a compact string (`"4"`, `"4+4"`) — the
    /// catalog table's topology column.
    pub fn topology(&self) -> String {
        self.clusters
            .iter()
            .map(|c| c.cores.to_string())
            .collect::<Vec<_>>()
            .join("+")
    }

    /// Total heat capacity of the thermal network, J/K — the "thermal
    /// mass" column of the catalog table.
    pub fn thermal_mass_j_per_k(&self) -> f64 {
        self.thermal.total_capacitance()
    }

    /// Validates the spec.
    ///
    /// Checks, in order: the id alphabet, the cluster list (1 to
    /// [`MAX_CPU_CLUSTERS`] clusters, valid unique names, big-first
    /// ordering, per-cluster core counts, CPU power coefficients and
    /// OPP monotonicity — frequency strictly increasing, voltage
    /// non-decreasing, dynamic power strictly increasing), the GPU,
    /// display and battery parameter ranges and the brightness ladder,
    /// and the thermal spec (see [`ThermalSpec::validate`]: node names,
    /// positive capacitances and conductances, one die node per
    /// cluster, resolvable designations, connected graph).
    ///
    /// # Errors
    ///
    /// Returns the first [`DeviceError`] found.
    pub fn validate(&self) -> Result<(), DeviceError> {
        if self.id.is_empty() || !valid_token(self.id) {
            return Err(DeviceError::InvalidId(self.id.to_owned()));
        }
        self.validate_clusters()?;
        self.validate_power_models()?;
        self.thermal.validate(self.clusters.len())
    }

    fn validate_clusters(&self) -> Result<(), DeviceError> {
        if self.clusters.is_empty() {
            return Err(DeviceError::NoClusters);
        }
        if self.clusters.len() > MAX_CPU_CLUSTERS {
            return Err(DeviceError::TooManyClusters {
                count: self.clusters.len(),
            });
        }
        for (i, cluster) in self.clusters.iter().enumerate() {
            if cluster.name.is_empty() || !valid_token(cluster.name) {
                return Err(DeviceError::InvalidClusterName(cluster.name.to_owned()));
            }
            if self.clusters[..i].iter().any(|c| c.name == cluster.name) {
                return Err(DeviceError::DuplicateClusterName(cluster.name.to_owned()));
            }
            if i > 0 && self.clusters[i - 1].max_khz() < cluster.max_khz() {
                return Err(DeviceError::ClustersNotBigFirst { index: i });
            }
            if cluster.cores == 0 {
                return Err(DeviceError::InvalidParameter {
                    name: "cluster.cores",
                    value: 0.0,
                });
            }
            // Coefficients first: the OPP curve check derives dynamic
            // power from them.
            validate_cluster_power(cluster)?;
            validate_cluster_opp(cluster)?;
        }
        Ok(())
    }

    fn validate_power_models(&self) -> Result<(), DeviceError> {
        pos("gpu_power.max_w", self.gpu_power.max_w)?;
        nonneg("gpu_power.idle_w", self.gpu_power.idle_w)?;
        if self.gpu_power.idle_w > self.gpu_power.max_w {
            return Err(DeviceError::InvalidParameter {
                name: "gpu_power.idle_w",
                value: self.gpu_power.idle_w,
            });
        }
        nonneg("display.base_w", self.display.base_w)?;
        nonneg("display.full_brightness_w", self.display.full_brightness_w)?;
        pos("battery.capacity_mah", self.battery.capacity_mah)?;
        pos("battery.nominal_v", self.battery.nominal_v)?;
        nonneg("battery.internal_ohm", self.battery.internal_ohm)?;
        pos("battery.max_charge_a", self.battery.max_charge_a)?;
        if !(0.0..=1.0).contains(&self.battery.charge_loss_fraction) {
            return Err(DeviceError::InvalidParameter {
                name: "battery.charge_loss_fraction",
                value: self.battery.charge_loss_fraction,
            });
        }
        if let Some(gpu) = &self.gpu {
            nonneg("gpu.idle_w", gpu.idle_w)?;
            pos("gpu.ceff_farads", gpu.ceff_farads)?;
            validate_opp_curve(&gpu.opp, |i| gpu.opp_dynamic_power_w(i))?;
        }
        if let Some(ladder) = self.brightness_ladder {
            if ladder.is_empty() {
                return Err(DeviceError::InvalidParameter {
                    name: "brightness_ladder",
                    value: 0.0,
                });
            }
            for (i, &permille) in ladder.iter().enumerate() {
                if permille == 0 || permille > 1000 {
                    return Err(DeviceError::InvalidParameter {
                        name: "brightness_ladder",
                        value: permille as f64,
                    });
                }
                if i > 0 && ladder[i - 1] >= permille {
                    return Err(DeviceError::NonMonotoneOppFrequency { index: i });
                }
            }
        }
        Ok(())
    }
}

fn valid_token(token: &str) -> bool {
    !token.is_empty()
        && token
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
}

fn nonneg(name: &'static str, v: f64) -> Result<(), DeviceError> {
    if v.is_finite() && v >= 0.0 {
        Ok(())
    } else {
        Err(DeviceError::InvalidParameter { name, value: v })
    }
}

fn pos(name: &'static str, v: f64) -> Result<(), DeviceError> {
    if v.is_finite() && v > 0.0 {
        Ok(())
    } else {
        Err(DeviceError::InvalidParameter { name, value: v })
    }
}

fn validate_cluster_opp(cluster: &ClusterSpec) -> Result<(), DeviceError> {
    validate_opp_curve(&cluster.opp, |i| cluster.opp_dynamic_power_w(i))
}

/// Shared OPP-table invariants for any frequency domain (CPU cluster
/// or GPU): frequency strictly increasing, voltage non-decreasing,
/// dynamic power strictly increasing.
fn validate_opp_curve(
    opp: &[OppPoint],
    dyn_power_w: impl Fn(usize) -> f64,
) -> Result<(), DeviceError> {
    if opp.is_empty() {
        return Err(DeviceError::EmptyOppTable);
    }
    for (i, p) in opp.iter().enumerate() {
        if p.khz == 0 {
            return Err(DeviceError::InvalidParameter {
                name: "opp.khz",
                value: 0.0,
            });
        }
        if !p.volts.is_finite() || p.volts <= 0.0 {
            return Err(DeviceError::InvalidParameter {
                name: "opp.volts",
                value: p.volts,
            });
        }
        if i > 0 {
            if opp[i - 1].khz >= p.khz {
                return Err(DeviceError::NonMonotoneOppFrequency { index: i });
            }
            if opp[i - 1].volts > p.volts {
                return Err(DeviceError::NonMonotoneOppPower { index: i });
            }
            if dyn_power_w(i - 1) >= dyn_power_w(i) {
                return Err(DeviceError::NonMonotoneOppPower { index: i });
            }
        }
    }
    Ok(())
}

fn validate_cluster_power(cluster: &ClusterSpec) -> Result<(), DeviceError> {
    pos("cpu_power.ceff_farads", cluster.cpu_power.ceff_farads)?;
    nonneg("cpu_power.leak_coeff_a", cluster.cpu_power.leak_coeff_a)?;
    nonneg(
        "cpu_power.leak_temp_per_k",
        cluster.cpu_power.leak_temp_per_k,
    )?;
    nonneg("cpu_power.idle_uncore_w", cluster.cpu_power.idle_uncore_w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::builtin_spec;

    #[test]
    fn nexus4_spec_validates() {
        assert_eq!(builtin_spec("nexus4").validate(), Ok(()));
    }

    #[test]
    fn bad_ids_are_rejected() {
        for bad in ["", "Nexus4", "nexus 4", "nexus_4", "nexus/4"] {
            let mut s = builtin_spec("nexus4");
            s.id = Box::leak(bad.to_owned().into_boxed_str());
            assert!(
                matches!(s.validate(), Err(DeviceError::InvalidId(_))),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn zero_cores_rejected() {
        let mut s = builtin_spec("nexus4");
        s.clusters[0].cores = 0;
        assert!(matches!(
            s.validate(),
            Err(DeviceError::InvalidParameter {
                name: "cluster.cores",
                ..
            })
        ));
    }

    #[test]
    fn cluster_list_shape_is_validated() {
        let mut s = builtin_spec("nexus4");
        s.clusters.clear();
        assert_eq!(s.validate(), Err(DeviceError::NoClusters));

        let mut s = builtin_spec("nexus4");
        let cluster = s.clusters[0].clone();
        for name in ["a", "b", "c", "d"] {
            let mut extra = cluster.clone();
            extra.name = name;
            s.clusters.push(extra);
        }
        assert_eq!(s.validate(), Err(DeviceError::TooManyClusters { count: 5 }));
    }

    #[test]
    fn cluster_names_are_validated_and_unique() {
        let mut s = builtin_spec("nexus4");
        s.clusters[0].name = "Big";
        assert!(matches!(
            s.validate(),
            Err(DeviceError::InvalidClusterName(_))
        ));

        let mut s = builtin_spec("flagship-octa");
        s.clusters[1].name = s.clusters[0].name;
        // Equalise the top frequency so only the duplicate name trips.
        assert!(matches!(
            s.validate(),
            Err(DeviceError::DuplicateClusterName(_))
        ));
    }

    #[test]
    fn little_before_big_is_rejected() {
        let mut s = builtin_spec("flagship-octa");
        s.clusters.reverse();
        assert!(matches!(
            s.validate(),
            Err(DeviceError::ClustersNotBigFirst { index: 1 })
        ));
    }

    #[test]
    fn empty_and_unsorted_opp_rejected() {
        let mut s = builtin_spec("nexus4");
        s.clusters[0].opp.clear();
        assert_eq!(s.validate(), Err(DeviceError::EmptyOppTable));

        let mut s = builtin_spec("nexus4");
        s.clusters[0].opp.swap(0, 1);
        assert!(matches!(
            s.validate(),
            Err(DeviceError::NonMonotoneOppFrequency { .. })
        ));
    }

    #[test]
    fn non_monotone_power_rejected() {
        // Raise a middle level's voltage above its successor's: power at
        // the next level no longer rises.
        let mut s = builtin_spec("nexus4");
        s.clusters[0].opp[5].volts = s.clusters[0].opp[11].volts + 0.2;
        assert!(matches!(
            s.validate(),
            Err(DeviceError::NonMonotoneOppPower { .. })
        ));
    }

    #[test]
    fn non_positive_capacitance_rejected() {
        let mut s = builtin_spec("nexus4");
        s.thermal.nodes[3].capacitance = 0.0;
        assert!(matches!(
            s.validate(),
            Err(DeviceError::InvalidParameter {
                name: "thermal.capacitance",
                ..
            })
        ));
    }

    #[test]
    fn non_positive_conductance_rejected() {
        let mut s = builtin_spec("nexus4");
        s.thermal.couplings[0].2 = -0.1;
        assert!(matches!(
            s.validate(),
            Err(DeviceError::InvalidParameter {
                name: "thermal.coupling",
                ..
            })
        ));

        let mut s = builtin_spec("nexus4");
        s.thermal.ambient_links.clear();
        assert!(s.validate().is_err());
    }

    #[test]
    fn out_of_range_power_model_parameters_are_rejected() {
        type Mutation = fn(&mut DeviceSpec, f64);
        let fields: [(&str, Mutation, &[f64]); 11] = [
            (
                "battery.capacity_mah",
                |s, v| s.battery.capacity_mah = v,
                &[0.0, -1.0, f64::NAN],
            ),
            (
                "battery.nominal_v",
                |s, v| s.battery.nominal_v = v,
                &[0.0, -3.8, f64::NAN],
            ),
            (
                "battery.max_charge_a",
                |s, v| s.battery.max_charge_a = v,
                &[0.0, -1.0, f64::NAN],
            ),
            (
                "battery.internal_ohm",
                |s, v| s.battery.internal_ohm = v,
                &[-0.01, f64::NAN],
            ),
            (
                "battery.charge_loss_fraction",
                |s, v| s.battery.charge_loss_fraction = v,
                &[-0.1, 1.5, f64::NAN],
            ),
            (
                "display.base_w",
                |s, v| s.display.base_w = v,
                &[-0.1, f64::NAN],
            ),
            (
                "display.full_brightness_w",
                |s, v| s.display.full_brightness_w = v,
                &[-0.1, f64::INFINITY],
            ),
            (
                "cpu_power.ceff_farads",
                |s, v| s.clusters[0].cpu_power.ceff_farads = v,
                &[0.0, -1e-10, f64::NAN],
            ),
            (
                "cpu_power.leak_coeff_a",
                |s, v| s.clusters[0].cpu_power.leak_coeff_a = v,
                &[-0.1, f64::NAN],
            ),
            (
                "cpu_power.leak_temp_per_k",
                |s, v| s.clusters[0].cpu_power.leak_temp_per_k = v,
                &[-0.02, f64::NAN],
            ),
            (
                "cpu_power.idle_uncore_w",
                |s, v| s.clusters[0].cpu_power.idle_uncore_w = v,
                &[-0.1, f64::NAN],
            ),
        ];
        for (want, mutate, values) in fields {
            for &v in values {
                let mut s = builtin_spec("nexus4");
                mutate(&mut s, v);
                match s.validate() {
                    Err(DeviceError::InvalidParameter { name, .. }) => {
                        assert_eq!(name, want, "{want} = {v}")
                    }
                    other => panic!("{want} = {v} gave {other:?}"),
                }
            }
        }
        let mut s = builtin_spec("nexus4");
        s.gpu_power.max_w = 0.0;
        s.gpu_power.idle_w = 0.0;
        assert!(matches!(
            s.validate(),
            Err(DeviceError::InvalidParameter {
                name: "gpu_power.max_w",
                ..
            })
        ));
    }

    #[test]
    fn gpu_idle_above_max_rejected() {
        let mut s = builtin_spec("nexus4");
        s.gpu_power.idle_w = s.gpu_power.max_w + 1.0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn derived_summaries() {
        let s = builtin_spec("nexus4");
        assert_eq!(s.domains(), 1);
        assert_eq!(s.cores(), 4);
        assert_eq!(s.topology(), "4");
        assert_eq!(s.min_khz(), 384_000);
        assert_eq!(s.max_khz(), 1_512_000);
        assert!((s.clusters[0].opp[0].mhz() - 384.0).abs() < 1e-9);
        assert!((s.clusters[0].opp[11].hz() - 1.512e9).abs() < 1e-3);
        assert!(s.thermal_mass_j_per_k() > 100.0);
        // Dynamic power rises strictly across the whole table.
        let c = &s.clusters[0];
        for i in 1..c.opp.len() {
            assert!(c.opp_dynamic_power_w(i) > c.opp_dynamic_power_w(i - 1));
        }
        assert!(c.full_load_w() > 2.0 && c.full_load_w() < 6.0);
    }

    #[test]
    fn flagship_summaries_span_both_clusters() {
        let s = builtin_spec("flagship-octa");
        assert_eq!(s.domains(), 2);
        assert_eq!(s.cores(), 8);
        assert_eq!(s.topology(), "4+4");
        assert_eq!(s.max_khz(), s.clusters[0].max_khz());
        assert_eq!(s.min_khz(), s.clusters[1].min_khz());
        assert!(
            s.clusters[0].full_load_w() > 2.0 * s.clusters[1].full_load_w(),
            "the big cluster dominates the power budget"
        );
    }
}
