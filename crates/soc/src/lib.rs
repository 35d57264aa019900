//! # usta-soc — SoC, power, battery, display and sensor models
//!
//! The silicon-side substrate of the USTA reproduction (Egilmez et al.,
//! DATE 2015). It models the parts of a Nexus-4-class smartphone that
//! produce heat and that the paper's predictor observes:
//!
//! * [`freq`] — the cpufreq operating-point (OPP) table over the
//!   catalog's [`OppPoint`]s (the paper's device has twelve levels from
//!   384 MHz to 1.512 GHz);
//! * [`power`] — CMOS dynamic power (`C_eff·V²·f·util`) plus
//!   temperature-dependent leakage for the CPU, and a load-proportional
//!   GPU model;
//! * [`cpu`] — a multi-core CPU whose per-core utilization follows from
//!   workload demand and the current frequency (the quantity the
//!   `ondemand` governor samples);
//! * [`display`] — panel + backlight power;
//! * [`battery`] — state of charge, discharge/charge currents, and the
//!   internal losses that heat the pack;
//! * [`sensors`] — noisy, quantized, lagged thermal sensors standing in
//!   for both the on-device CPU/battery sensors and the paper's external
//!   thermistors, with counter-based noise keyed by (seed, step);
//! * [`domain`] — fixed-capacity [`PerDomain`] vectors carrying
//!   per-frequency-domain state (samples, caps, decisions) through the
//!   hot loop without heap allocation;
//! * [`spec`] — the two builders that do more than hand a spec
//!   section over: a cluster's [`Cpu`] and the brightness ladder's
//!   pseudo-OPP table.
//!
//! The models' static descriptions are the sections of a data-driven
//! [`usta_device::DeviceSpec`] (any catalog device, one CPU model per
//! cluster), held as they are: [`Battery`] holds a
//! [`BatterySpec`](usta_device::BatterySpec), [`Display`] a
//! [`DisplaySpec`](usta_device::DisplaySpec), [`CpuPowerModel`] a
//! [`CpuPowerSpec`](usta_device::CpuPowerSpec) and [`GpuPowerModel`] a
//! [`GpuPowerSpec`](usta_device::GpuPowerSpec).
//! [`DeviceSpec::validate`](usta_device::DeviceSpec::validate) is their
//! one range check, so those constructors cannot fail. The paper's
//! Nexus 4 is the catalog's `nexus4`.
//!
//! ```
//! let nexus4 = usta_device::by_id("nexus4").expect("built-in");
//! let opp = usta_soc::OppTable::new(nexus4.clusters[0].opp.clone()).expect("valid spec");
//! assert_eq!(opp.len(), 12);
//! assert_eq!(opp.min().khz, 384_000);
//! assert_eq!(opp.max().khz, 1_512_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod battery;
pub mod cpu;
pub mod display;
pub mod domain;
pub mod error;
pub mod freq;
pub mod power;
pub mod sensors;
pub mod spec;

pub use battery::{Battery, ChargeState};
pub use cpu::{CoreDemand, Cpu};
pub use display::Display;
pub use domain::{DomainKind, PerDomain, MAX_FREQ_DOMAINS};
pub use error::SocError;
pub use freq::{OppPoint, OppTable};
pub use power::{CpuPowerModel, GpuPowerModel};
pub use sensors::{SensorParams, ThermalSensor};
