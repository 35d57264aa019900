//! The multi-core CPU: frequency state and utilization dynamics.
//!
//! Workloads express what they *want* as per-core compute demand in kHz
//! ("cycles per second I would consume on an infinitely fast core").
//! At a finite operating point the core's utilization over a sampling
//! window is `min(1, demand / frequency)` — exactly the busy-fraction the
//! kernel's `ondemand` governor samples. When demand exceeds the current
//! frequency the surplus is *lost* (a video call drops frames rather than
//! queueing them), which matches the soft-real-time workloads the paper
//! evaluates.

use crate::freq::{OppPoint, OppTable};

/// Per-core compute demand over a sampling window, in kHz of equivalent
/// busy cycles.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CoreDemand {
    demands_khz: Vec<f64>,
}

impl CoreDemand {
    /// Demand for `cores` cores, all at `khz`.
    pub fn uniform(cores: usize, khz: f64) -> CoreDemand {
        CoreDemand {
            demands_khz: vec![khz.max(0.0); cores],
        }
    }

    /// Demand from an explicit per-core list.
    pub fn per_core(demands_khz: Vec<f64>) -> CoreDemand {
        CoreDemand {
            demands_khz: demands_khz.into_iter().map(|d| d.max(0.0)).collect(),
        }
    }

    /// Number of cores with a demand entry.
    pub fn cores(&self) -> usize {
        self.demands_khz.len()
    }

    /// The per-core demands, in kHz.
    pub fn as_slice(&self) -> &[f64] {
        &self.demands_khz
    }

    /// Total demand across cores, in kHz.
    pub fn total_khz(&self) -> f64 {
        self.demands_khz.iter().sum()
    }
}

/// A multi-core CPU with one shared frequency domain.
///
/// ```
/// use usta_soc::CoreDemand;
///
/// # fn main() -> Result<(), usta_soc::SocError> {
/// let spec = usta_device::by_id("nexus4").expect("built-in");
/// let mut cpu = usta_soc::spec::cpu(&spec.clusters[0])?; // four cores, twelve OPPs
/// cpu.set_level(cpu.opp_table().max_index());
/// // A demand of 756 MHz per core at 1.512 GHz is 50 % busy:
/// cpu.apply_demand(&CoreDemand::uniform(4, 756_000.0));
/// assert!((cpu.average_utilization() - 0.5).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cpu {
    opp: OppTable,
    level: usize,
    utilizations: Vec<f64>,
    unserved_khz: f64,
}

impl Cpu {
    /// Builds a CPU of `cores` cores at the lowest operating point,
    /// fully idle. The core count comes from a cluster spec, which
    /// [`DeviceSpec::validate`](usta_device::DeviceSpec::validate)
    /// requires to be positive.
    pub fn new(cores: usize, opp: OppTable) -> Cpu {
        Cpu {
            opp,
            level: 0,
            utilizations: vec![0.0; cores],
            unserved_khz: 0.0,
        }
    }

    /// The OPP table this CPU runs on.
    pub fn opp_table(&self) -> &OppTable {
        &self.opp
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.utilizations.len()
    }

    /// Current operating-point index.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Current operating point.
    pub fn frequency(&self) -> OppPoint {
        self.opp.level(self.level)
    }

    /// Sets the operating point (clamped into the table).
    pub fn set_level(&mut self, level: usize) {
        self.level = self.opp.clamp_index(level);
    }

    /// Applies one sampling window of demand, computing per-core
    /// utilizations at the current frequency. Demand beyond capacity is
    /// recorded as *unserved* (a QoS measure) and dropped.
    ///
    /// Extra demand entries beyond the core count are redistributed
    /// round-robin onto real cores; missing entries mean idle cores.
    pub fn apply_demand(&mut self, demand: &CoreDemand) {
        let freq_khz = self.frequency().khz as f64;
        let n = self.utilizations.len();
        let mut per_core = vec![0.0; n];
        for (i, &d) in demand.as_slice().iter().enumerate() {
            per_core[i % n] += d;
        }
        self.unserved_khz = 0.0;
        for (u, &d) in self.utilizations.iter_mut().zip(&per_core) {
            let raw = d / freq_khz;
            *u = raw.min(1.0);
            if raw > 1.0 {
                self.unserved_khz += d - freq_khz;
            }
        }
    }

    /// Allocation-free variant of [`apply_demand`](Self::apply_demand)
    /// for demand already folded down to exactly one non-negative
    /// entry per core — the fleet hot path. Produces bit-identical
    /// utilizations and unserved demand to `apply_demand` on the same
    /// per-core values.
    ///
    /// # Panics
    ///
    /// Panics if `per_core.len()` differs from the core count.
    pub fn apply_core_demand(&mut self, per_core: &[f64]) {
        assert_eq!(
            per_core.len(),
            self.utilizations.len(),
            "one demand entry per core"
        );
        let freq_khz = self.frequency().khz as f64;
        self.unserved_khz = 0.0;
        for (u, &d) in self.utilizations.iter_mut().zip(per_core) {
            let raw = d / freq_khz;
            *u = raw.min(1.0);
            if raw > 1.0 {
                self.unserved_khz += d - freq_khz;
            }
        }
    }

    /// Per-core utilizations (0–1) for the last window.
    pub fn utilizations(&self) -> &[f64] {
        &self.utilizations
    }

    /// Mean utilization across cores for the last window — the signal
    /// the `ondemand` governor consumes.
    pub fn average_utilization(&self) -> f64 {
        self.utilizations.iter().sum::<f64>() / self.utilizations.len() as f64
    }

    /// Utilization of the busiest core for the last window (what Android
    /// ondemand actually reacts to when deciding to jump to max).
    pub fn max_utilization(&self) -> f64 {
        self.utilizations.iter().copied().fold(0.0, f64::max)
    }

    /// Demand (kHz) that could not be served in the last window.
    pub fn unserved_khz(&self) -> f64 {
        self.unserved_khz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> Cpu {
        crate::spec::cpu(&usta_device::by_id("nexus4").unwrap().clusters[0]).unwrap()
    }

    #[test]
    fn zero_cores_rejected() {
        // `Cpu::new` trusts its core count; the spec validator that
        // `Device::new` runs first is what keeps a zero out.
        let mut spec = usta_device::by_id("nexus4").unwrap().clone();
        spec.clusters[0].cores = 0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn starts_idle_at_lowest_level() {
        let c = cpu();
        assert_eq!(c.level(), 0);
        assert_eq!(c.frequency().khz, 384_000);
        assert_eq!(c.average_utilization(), 0.0);
    }

    #[test]
    fn utilization_is_demand_over_frequency() {
        let mut c = cpu();
        c.set_level(c.opp_table().max_index());
        c.apply_demand(&CoreDemand::uniform(4, 378_000.0));
        assert!((c.average_utilization() - 0.25).abs() < 1e-9);
        assert_eq!(c.unserved_khz(), 0.0);
    }

    #[test]
    fn saturation_records_unserved_demand() {
        let mut c = cpu();
        c.set_level(0); // 384 MHz
        c.apply_demand(&CoreDemand::uniform(4, 800_000.0));
        assert_eq!(c.average_utilization(), 1.0);
        assert!((c.unserved_khz() - 4.0 * (800_000.0 - 384_000.0)).abs() < 1e-6);
    }

    #[test]
    fn surplus_threads_fold_onto_real_cores() {
        let mut c = cpu();
        c.set_level(c.opp_table().max_index());
        // 8 threads of 378 MHz onto 4 cores → 756 MHz per core → 50 %.
        c.apply_demand(&CoreDemand::per_core(vec![378_000.0; 8]));
        assert!((c.average_utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn max_utilization_tracks_busiest_core() {
        let mut c = cpu();
        c.set_level(c.opp_table().max_index());
        c.apply_demand(&CoreDemand::per_core(vec![1_512_000.0, 0.0, 0.0, 0.0]));
        assert_eq!(c.max_utilization(), 1.0);
        assert!((c.average_utilization() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn set_level_clamps() {
        let mut c = cpu();
        c.set_level(999);
        assert_eq!(c.level(), c.opp_table().max_index());
    }

    #[test]
    fn negative_demand_is_treated_as_idle() {
        let mut c = cpu();
        c.apply_demand(&CoreDemand::uniform(4, -5.0));
        assert_eq!(c.average_utilization(), 0.0);
    }

    #[test]
    fn demand_totals() {
        let d = CoreDemand::per_core(vec![100.0, 200.0, 300.0]);
        assert_eq!(d.cores(), 3);
        assert_eq!(d.total_khz(), 600.0);
    }
}
