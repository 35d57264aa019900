//! # usta-governors — cpufreq governors
//!
//! Reimplementations of the Linux/Android cpufreq governors the USTA
//! paper builds on. The paper's baseline is the stock Android
//! **ondemand** governor (§3.B): it samples CPU utilization every
//! sampling period, jumps to the maximum frequency when utilization
//! crosses ~80 %, and scales down proportionally when load falls.
//!
//! The control plane is **domain-indexed**: a device exposes one
//! [`FreqDomain`] per cpufreq policy (big.LITTLE parts have two), each
//! with its own OPP table and [`DomainSample`], and
//! [`CpuGovernor::decide`] returns a [`DvfsDecision`] holding one level
//! per domain. The paper's single-policy Nexus 4 is the one-domain
//! special case. USTA itself is *not* a governor replacement — it
//! lowers the per-domain **maximum allowed levels** the baseline
//! governor may pick, which is exactly the
//! [`GovernorInput::max_allowed_levels`] vector here.
//!
//! ```
//! use usta_governors::{CpuGovernor, DomainSample, FreqDomain, GovernorInput, OnDemand};
//!
//! let nexus4 = usta_device::by_id("nexus4").expect("built-in");
//! let domains = vec![FreqDomain {
//!     id: 0, name: "cpu", kind: usta_soc::DomainKind::CpuCluster, cores: 4,
//!     opp: usta_soc::spec::opp_table(nexus4, 0).expect("valid spec"), full_load_w: 3.6,
//! }];
//! let top = domains[0].max_index();
//! let mut gov = OnDemand::default();
//! // A saturated domain pushes ondemand straight to its top level…
//! let busy = [DomainSample { avg_utilization: 1.0, max_utilization: 1.0, current_level: 0 }];
//! let free = [top];
//! let input = GovernorInput {
//!     domains: &domains, samples: &busy, max_allowed_levels: &free, die_temp_c: None,
//! };
//! assert_eq!(gov.decide(&input).level(0), top);
//! // …unless the thermal layer caps that domain.
//! let capped = [3usize];
//! let input = GovernorInput { max_allowed_levels: &capped, ..input };
//! assert_eq!(gov.decide(&input).level(0), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod conservative;
pub mod factory;
pub mod gears;
pub mod governor;
pub mod interactive;
pub mod ondemand;
pub mod simple;

pub use conservative::Conservative;
pub use factory::{by_name, try_by_name, UnknownGovernorError, NAMES};
pub use gears::Gears;
pub use governor::{
    demand_following_level, CpuGovernor, DomainSample, DvfsDecision, FreqDomain, GovernorInput,
};
pub use interactive::Interactive;
pub use ondemand::OnDemand;
pub use simple::{Performance, Powersave, Userspace};
pub use usta_soc::DomainKind;
