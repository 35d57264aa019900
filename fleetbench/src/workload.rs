//! The three benchmark workloads and the sweep configurations they run.

use std::path::{Path, PathBuf};

use usta_fleet::{AmbientBand, CaseKind, GridAxes, ScenarioCatalog, SweepConfig};
use usta_workloads::Benchmark;

/// Worker threads every workload's timed sweep runs with. The host is a
/// few shared cores whose speed shifts for seconds at a time; a sweep on
/// two threads waits for the slower core, and at seeds 21-25 spread
/// `mixed_fleet`'s throughput (at 40 users) by 21 % against 9 % on one
/// thread. The
/// cross-thread check still runs each workload on two threads, which
/// keeps the work-stealing scheduler in every run.
pub const THREADS: usize = 1;

/// One benchmark workload. All three run USTA over ondemand with the
/// 180 s per-triple cap and the seed from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The reference sweep: nexus4, 200 users x the 4 scenarios of the
    /// [`scenario_grid`], 1 thread, no observation.
    RefNexus4,
    /// Every catalog device (the five built-ins plus `sd8s-gen3`) on
    /// the [`scenario_grid`], 20 users x 24 scenarios, 1 thread, no
    /// observation.
    MixedFleet,
    /// The reference sweep with telemetry, flight recording, triage
    /// dumps (of every triple, see [`crate::sweep::config_for`]),
    /// `triples.csv` and the metrics-JSON export all on.
    ObservedSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::RefNexus4,
        Workload::MixedFleet,
        Workload::ObservedSweep,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RefNexus4 => "ref_nexus4",
            Workload::MixedFleet => "mixed_fleet",
            Workload::ObservedSweep => "observed_sweep",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload sweeps with observation (telemetry, trace
    /// directory, metrics JSON) turned on.
    pub fn observed(self) -> bool {
        self == Workload::ObservedSweep
    }

    /// Whether set-up loads and installs the `catalog/` directory.
    pub fn uses_catalog(self) -> bool {
        self == Workload::MixedFleet
    }

    /// The same sweep with observation turned on: the workload against
    /// which `telemetry.overhead_frac` compares this one.
    pub fn observed_twin(self) -> Workload {
        match self {
            Workload::RefNexus4 | Workload::ObservedSweep => Workload::ObservedSweep,
            Workload::MixedFleet => Workload::MixedFleet,
        }
    }

    /// `(users, scenarios)` of the sweep.
    pub fn shape(self) -> (usize, usize) {
        let per_device = scenario_grid().len_per_device();
        match self {
            Workload::MixedFleet => (20, MIXED_DEVICES * per_device),
            Workload::RefNexus4 | Workload::ObservedSweep => (200, per_device),
        }
    }

    /// Triples one full sweep runs.
    pub fn triples(self) -> usize {
        let (users, scenarios) = self.shape();
        users * scenarios
    }

    /// The sweep configuration for `seed`. The mixed fleet's device
    /// list is the merged registry, so [`install_catalog`] must run
    /// first. Observation sinks are the caller's to add.
    pub fn config(self, seed: u64) -> SweepConfig {
        let (users, scenarios) = self.shape();
        let devices = match self {
            Workload::MixedFleet => usta_device::merged_ids()
                .iter()
                .map(|&id| id.to_owned())
                .collect(),
            Workload::RefNexus4 | Workload::ObservedSweep => vec!["nexus4".to_owned()],
        };
        SweepConfig {
            users,
            scenarios,
            threads: THREADS,
            seed,
            grid: Some(scenario_grid()),
            devices,
            ..SweepConfig::default()
        }
    }
}

/// Devices the mixed fleet sweeps: the five built-ins plus `sd8s-gen3`.
pub const MIXED_DEVICES: usize = 6;

/// Every workload's scenario axes: a CPU-bound and a GPU-bound
/// benchmark, each at office and summer ambient — four scenarios per
/// device. Each sweep samples exactly the whole grid, so every seed runs
/// every device on the same scenarios (in a seed-shuffled order, with
/// seed-drawn users, sensor noise and jitter). Sampling a few scenarios
/// from the full paper grid instead lets the seed pick the scenario and
/// device mix, and per-step cost differs by more than a third between
/// nexus4 scenarios and severalfold between devices.
pub fn scenario_grid() -> GridAxes {
    GridAxes {
        benchmarks: vec![Benchmark::AntutuCpu, Benchmark::GfxBench],
        ambients: vec![AmbientBand::Office, AmbientBand::Summer],
        cases: vec![CaseKind::Naked],
        charging: vec![false],
        hand_held: vec![false],
    }
}

/// The repository's `catalog/` directory, found from this package's
/// own location so the benchmark runs from any working directory.
pub fn catalog_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../catalog")
}

/// Loads `catalog/` and installs its devices into the process-wide
/// registry, as `fleet_sweep --catalog catalog` does.
///
/// # Errors
///
/// Returns the catalog error's message.
pub fn install_catalog() -> Result<(), String> {
    let catalog = usta_catalog::Catalog::load_dir(catalog_dir()).map_err(|e| e.to_string())?;
    catalog.install().map_err(|e| e.to_string())?;
    Ok(())
}

/// The sweep's scenario catalog, rebuilt from public inputs the way
/// `run_sweep` samples it (full paper grid, seed-derived shuffle).
///
/// # Errors
///
/// Returns the message of an unknown device id.
pub fn scenario_catalog(config: &SweepConfig) -> Result<ScenarioCatalog, String> {
    let devices = config.resolved_devices().map_err(|e| e.to_string())?;
    let axes = config.grid.clone().unwrap_or_default();
    Ok(ScenarioCatalog::sampled_grid_on(
        config.seed ^ 0x5CE4_A210,
        config.scenarios,
        &axes,
        &devices,
    ))
}

/// Simulation steps the sweep must take: every user runs every
/// scenario for its cap-truncated duration at the 100 ms step.
pub fn expected_steps(config: &SweepConfig, catalog: &ScenarioCatalog) -> u64 {
    let per_user: u64 = catalog
        .scenarios()
        .iter()
        .map(|s| (s.benchmark.duration().min(config.max_sim_seconds) / 0.1).round() as u64)
        .sum();
    per_user * config.users as u64
}
