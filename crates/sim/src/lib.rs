//! # usta-sim — the simulated Nexus 4 and the paper's experiments
//!
//! Ties every substrate together into a time-stepped smartphone:
//! workloads (`usta-workloads`) drive a SoC model (`usta-soc`) whose heat
//! flows through a calibrated RC network (`usta-thermal`), while a
//! cpufreq governor (`usta-governors`) — optionally wrapped by USTA
//! (`usta-core`) — picks one operating point per frequency domain from
//! each domain's sampled utilization (big.LITTLE devices run two
//! domains with big-first spill scheduling; the paper's Nexus 4 runs
//! one).
//!
//! The [`experiments`] module reproduces, one function per artifact,
//! every table and figure of the paper's evaluation:
//!
//! | paper artifact | function |
//! |---|---|
//! | Figure 1 (user comfort limits) | [`experiments::fig1`] |
//! | Figure 2 (% time over threshold) | [`experiments::fig2`] |
//! | Figure 3 (predictor error rates) | [`experiments::fig3`] |
//! | Figure 4 (Skype temperature traces) | [`experiments::fig4`] |
//! | Figure 5 (user ratings) | [`experiments::fig5`] |
//! | Table 1 (13 benchmarks × 2 governors) | [`experiments::table1`] |
//! | §3.A touch study | [`experiments::touch`] |
//!
//! ```
//! use usta_sim::{Device, DeviceConfig};
//! use usta_workloads::{Benchmark, Workload};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut device = Device::new(DeviceConfig::default())?;
//! let mut skype = Benchmark::Skype.workload(42);
//! let demand = skype.demand_at(0.0, 0.1);
//! device.apply_level(&demand, 11, 0.1); // one 100 ms step at the top OPP
//! assert_eq!(device.domains(), 1); // the Nexus 4 has one frequency domain
//! assert!(device.clock() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod device;
pub mod experiments;
pub mod runner;
pub mod trace;

pub use device::{Device, DeviceConfig, DeviceState, Observation};
pub use runner::{run_workload, run_workload_recorded, Governor, RunConfig, RunResult, RunWork};
pub use trace::{to_csv_string, write_csv};
