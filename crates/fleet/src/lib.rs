//! # usta-fleet — population-scale concurrent USTA simulation
//!
//! The paper validates USTA on ten study participants, one phone, one
//! room. This crate asks the production question the ROADMAP's north
//! star poses: *what does USTA do across a whole fleet* — thousands to
//! millions of users, in every environment their phones actually meet?
//!
//! Three layers above `usta-sim` deliver that:
//!
//! * **Population** — [`usta_core::UserPopulation::sampled`] draws
//!   per-user comfort limits and sensitivities from distributions fit
//!   to the study; the sweep additionally varies each user's
//!   predictor-training history via a trained predictor pool.
//! * **Scenarios** ([`scenario`]) — a deterministic grid over catalog
//!   devices ([`usta_device::Registry`]) × the paper's 13 workloads ×
//!   ambient bands × phone cases (via [`usta_thermal::materials`]) ×
//!   charging × grip. The device axis defaults to the paper's Nexus 4
//!   alone, which reproduces the pre-axis grid byte for byte.
//! * **Sweep** ([`runner`]) — `std::thread` scoped workers claim
//!   fixed-size chunks of `users × scenarios` triples in index order
//!   from one shared counter, with per-triple ChaCha8 seed derivation
//!   and chunk-ordered merging of streaming aggregates
//!   ([`aggregate`]), so a sweep's report is **bit-identical at any
//!   thread count**. The aggregate grows with the distinct values its
//!   quantile sketches hold, not with users, and the merge buffer holds
//!   only chunks finished ahead of the oldest one still running.
//!
//! The `fleet_sweep` binary fronts it all, and the `explain` binary
//! replays one triple; both read the same sweep flags ([`cli`]):
//!
//! ```text
//! cargo run --release -p usta-fleet --bin fleet_sweep -- \
//!     --users 1000 --scenarios 8 --threads 4 --seed 42
//! ```
//!
//! ```
//! use usta_fleet::{run_sweep, SweepConfig};
//!
//! let mut config = SweepConfig::smoke();
//! config.users = 3;
//! let report = run_sweep(&config).unwrap();
//! assert_eq!(report.aggregate.triples, 12); // 3 users x 4 smoke scenarios
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aggregate;
pub mod cli;
pub mod explain;
pub mod runner;
pub mod scenario;

pub use aggregate::{FleetAggregate, MetricAggregate, OnlineStats, TripleOutcome};
pub use explain::{explain_triple, Explanation};
pub use runner::{
    run_sweep, target_percentile, FleetError, FleetReport, PercentileProbe, PercentileTarget,
    SweepConfig, WorstTriple,
};
pub use scenario::{
    AmbientBand, CaseKind, GridAxes, Scenario, ScenarioCatalog, ScenarioWorkload, DEFAULT_DEVICE,
};
