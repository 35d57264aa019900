//! Name-based governor construction for CLIs and config files.
//!
//! The sweep and repro binaries select their baseline governor from a
//! flag (`--governor ondemand`); this factory maps the sysfs-style name
//! back to a boxed governor with default parameters, the same way
//! `scaling_governor` writes select a registered governor on Linux.

use crate::conservative::Conservative;
use crate::gears::Gears;
use crate::governor::CpuGovernor;
use crate::interactive::Interactive;
use crate::ondemand::OnDemand;
use crate::simple::{Performance, Powersave, Userspace};

/// Sysfs-style names of every governor [`by_name`] can construct, in
/// stable (alphabetical) order — useful for `--help` text.
pub const NAMES: [&str; 7] = [
    "conservative",
    "gears",
    "interactive",
    "ondemand",
    "performance",
    "powersave",
    "userspace",
];

/// Constructs a default-parameter governor from its sysfs-style name.
///
/// Matching is ASCII case-insensitive. `"userspace"` pins the lowest
/// operating point (a caller wanting another level should construct
/// [`Userspace`] directly). Unknown names return `None`.
///
/// ```
/// use usta_governors::by_name;
///
/// assert_eq!(by_name("ondemand").unwrap().name(), "ondemand");
/// assert_eq!(by_name("Performance").unwrap().name(), "performance");
/// assert!(by_name("schedutil").is_none());
/// ```
pub fn by_name(name: &str) -> Option<Box<dyn CpuGovernor>> {
    let lower = name.to_ascii_lowercase();
    let gov: Box<dyn CpuGovernor> = match lower.as_str() {
        "conservative" => Box::new(Conservative::default()),
        "gears" => Box::new(Gears::default()),
        "interactive" => Box::new(Interactive::default()),
        "ondemand" => Box::new(OnDemand::default()),
        "performance" => Box::new(Performance),
        "powersave" => Box::new(Powersave),
        "userspace" => Box::new(Userspace::new(0)),
        _ => return None,
    };
    Some(gov)
}

/// The error [`try_by_name`] returns for unknown governor names. Its
/// `Display` lists [`NAMES`], so CLIs can surface it verbatim.
///
/// ```
/// use usta_governors::try_by_name;
///
/// let err = try_by_name("schedutil").unwrap_err();
/// assert!(err.to_string().contains("ondemand"));
/// assert!(err.to_string().contains("schedutil"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownGovernorError {
    name: String,
}

impl UnknownGovernorError {
    /// An error for the given unresolved name.
    pub fn new(name: impl Into<String>) -> UnknownGovernorError {
        UnknownGovernorError { name: name.into() }
    }

    /// The name that failed to resolve.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl std::fmt::Display for UnknownGovernorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown governor {:?} (known: {})",
            self.name,
            NAMES.join(", ")
        )
    }
}

impl std::error::Error for UnknownGovernorError {}

/// [`by_name`] with a CLI-ready error: ASCII case-insensitive, and the
/// failure message lists every known name.
///
/// # Errors
///
/// Returns [`UnknownGovernorError`] when `name` matches no governor.
pub fn try_by_name(name: &str) -> Result<Box<dyn CpuGovernor>, UnknownGovernorError> {
    by_name(name).ok_or_else(|| UnknownGovernorError::new(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::test_support::nexus4_domain;

    #[test]
    fn every_listed_name_constructs_and_round_trips() {
        for name in NAMES {
            let gov = by_name(name).unwrap_or_else(|| panic!("{name} should construct"));
            assert_eq!(gov.name(), name);
        }
    }

    #[test]
    fn matching_is_case_insensitive() {
        assert_eq!(by_name("OnDemand").unwrap().name(), "ondemand");
        assert_eq!(by_name("POWERSAVE").unwrap().name(), "powersave");
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert!(by_name("schedutil").is_none());
        assert!(by_name("").is_none());
        assert!(by_name("ondemand ").is_none());
    }

    #[test]
    fn try_by_name_error_lists_every_known_governor() {
        let err = try_by_name("schedutil").unwrap_err();
        assert_eq!(err.name(), "schedutil");
        let message = err.to_string();
        assert!(message.contains("\"schedutil\""), "{message:?}");
        for name in NAMES {
            assert!(message.contains(name), "{message:?} should list {name}");
        }
        // And the Ok path matches by_name, case-insensitively.
        assert_eq!(try_by_name("ONDEMAND").unwrap().name(), "ondemand");
    }

    #[test]
    fn constructed_governors_decide_on_every_domain() {
        let domains = vec![nexus4_domain()];
        let samples = [crate::DomainSample {
            avg_utilization: 1.0,
            max_utilization: 1.0,
            current_level: 0,
        }];
        let caps = [domains[0].max_index()];
        for name in NAMES {
            let mut gov = by_name(name).unwrap();
            let input = crate::GovernorInput {
                domains: &domains,
                samples: &samples,
                max_allowed_levels: &caps,
                die_temp_c: None,
            };
            let decision = gov.decide(&input);
            assert_eq!(decision.domain_count(), 1, "{name}");
            let level = decision.level(0);
            assert!(level <= domains[0].max_index(), "{name} returned {level}");
        }
    }
}
