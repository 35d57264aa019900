//! The multi-domain governor interface.
//!
//! Real big.LITTLE SoCs expose one cpufreq *policy per cluster*: each
//! frequency domain has its own OPP table, its own utilization, and its
//! own thermal headroom. The control plane is therefore domain-indexed
//! end to end: a [`FreqDomain`] describes each domain, a
//! [`DomainSample`] carries its sampled utilization, the thermal layer
//! supplies a per-domain cap vector, and [`CpuGovernor::decide`]
//! returns a [`DvfsDecision`] holding one level per domain. A
//! single-domain device (the paper's Nexus 4) is the strict special
//! case `domains.len() == 1`.

use usta_soc::{DomainKind, OppTable, PerDomain};

/// Static description of one frequency domain. CPU clusters map to
/// cpufreq policies; GPU and display domains carry their own OPP (or
/// brightness) ladders through the same structure.
#[derive(Debug, Clone, PartialEq)]
pub struct FreqDomain {
    /// Index of the domain within its device (`0..domains`). Scheduling
    /// order: lower ids are the faster ("big") clusters; non-CPU
    /// domains follow every cluster.
    pub id: usize,
    /// Domain name (`"big"`, `"little"`, `"cpu"` on single-domain
    /// parts, `"gpu"`, `"display"`) — used for trace columns and fleet
    /// report rows.
    pub name: &'static str,
    /// What hardware this domain scales. Factory CPU heuristics apply
    /// only to [`DomainKind::CpuCluster`] domains; others follow
    /// demand under the arbiter's caps.
    pub kind: DomainKind,
    /// Number of cores sharing this domain's clock (1 for GPU/display
    /// domains).
    pub cores: usize,
    /// The domain's operating-point table. Display domains express
    /// brightness permille as kHz.
    pub opp: OppTable,
    /// Full-load power of the whole domain at its top OPP, watts — the
    /// weight the thermal layer uses to split a skin-temperature
    /// budget across domains.
    pub full_load_w: f64,
}

impl FreqDomain {
    /// Index of the domain's highest operating point.
    pub fn max_index(&self) -> usize {
        self.opp.max_index()
    }
}

/// The lowest operating point that serves a domain's sampled demand:
/// the demanded rate is the busiest-core utilization scaled by the
/// current level's frequency plus 25 % headroom (the schedutil
/// margin — without it a saturated domain could never climb, because
/// `1.0 × current` rounds back to the current level), rounded up to
/// the next level. This is the pass-through policy factory governors
/// apply to non-CPU domains — the arbiter, not the CPU heuristic,
/// decides how far those may rise.
pub fn demand_following_level(domain: &FreqDomain, sample: &DomainSample) -> usize {
    const HEADROOM: f64 = 1.25;
    let current = domain
        .opp
        .level(domain.opp.clamp_index(sample.current_level));
    let demanded_khz =
        (sample.max_utilization.clamp(0.0, 1.0) * HEADROOM * current.khz as f64).ceil() as u32;
    domain.opp.level_for_khz(demanded_khz)
}

/// One domain's sampled state at one governor instant.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DomainSample {
    /// Mean utilization across the domain's cores, 0–1.
    pub avg_utilization: f64,
    /// Utilization of the domain's busiest core, 0–1. (Linux ondemand
    /// reacts to the busiest CPU of a policy.)
    pub max_utilization: f64,
    /// The operating-point index currently in effect for this domain.
    pub current_level: usize,
}

/// Everything a governor sees at one sampling instant, for every
/// frequency domain of the device.
///
/// The three slices are parallel: `samples[d]` and
/// `max_allowed_levels[d]` belong to `domains[d]`.
#[derive(Debug, Clone, Copy)]
pub struct GovernorInput<'a> {
    /// The device's frequency domains, in scheduling order.
    pub domains: &'a [FreqDomain],
    /// Per-domain utilization samples.
    pub samples: &'a [DomainSample],
    /// Per-domain highest allowed level (the thermal contract). Plain
    /// DVFS runs with each domain's `max_index()`; USTA lowers these.
    pub max_allowed_levels: &'a [usize],
    /// Hottest CPU die temperature at this instant, °C, when the
    /// caller observes one. Temperature-keyed governors (`gears`) read
    /// it; every other governor ignores it.
    pub die_temp_c: Option<f64>,
}

impl<'a> GovernorInput<'a> {
    /// Number of frequency domains.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// The cap for domain `d`, clamped into its table.
    pub fn cap(&self, d: usize) -> usize {
        self.domains[d].opp.clamp_index(self.max_allowed_levels[d])
    }

    /// The current level for domain `d`, clamped into its table and
    /// under its cap.
    pub fn current(&self, d: usize) -> usize {
        self.domains[d]
            .opp
            .clamp_index(self.samples[d].current_level)
            .min(self.cap(d))
    }
}

/// A per-domain operating-point decision — what [`CpuGovernor::decide`]
/// returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DvfsDecision {
    levels: PerDomain<usize>,
}

impl DvfsDecision {
    /// A decision for a single-domain device.
    pub fn single(level: usize) -> DvfsDecision {
        DvfsDecision {
            levels: PerDomain::splat(1, level),
        }
    }

    /// Builds one level per domain from an index function.
    pub fn from_fn(domains: usize, f: impl FnMut(usize) -> usize) -> DvfsDecision {
        DvfsDecision {
            levels: PerDomain::from_fn(domains, f),
        }
    }

    /// Builds from an explicit per-domain slice.
    pub fn from_levels(levels: &[usize]) -> DvfsDecision {
        DvfsDecision {
            levels: PerDomain::from_slice(levels),
        }
    }

    /// Number of domains decided.
    pub fn domain_count(&self) -> usize {
        self.levels.len()
    }

    /// The level for domain `d`.
    pub fn level(&self, d: usize) -> usize {
        self.levels[d]
    }

    /// All levels, in domain order.
    pub fn levels(&self) -> &[usize] {
        self.levels.as_slice()
    }

    /// A copy with every level clamped to the matching cap.
    pub fn clamped_to(&self, caps: &[usize]) -> DvfsDecision {
        let mut clamped = DvfsDecision::default();
        self.clamp_into(caps, &mut clamped.levels);
        clamped
    }

    /// Writes every level, clamped to the matching cap, into `levels`
    /// in place — the enforcement primitive run loops apply at the
    /// call site.
    pub fn clamp_into(&self, caps: &[usize], levels: &mut PerDomain<usize>) {
        levels.refill(self.levels.len(), |d| self.levels[d].min(caps[d]));
    }
}

/// A cpufreq governor: maps per-domain sampled utilization to one
/// operating point per domain.
///
/// Implementations must be deterministic and must never return a level
/// above the matching `max_allowed_levels[d]` (the thermal contract
/// USTA relies on — the sim runner additionally clamps and
/// `debug_assert!`s it at the call site).
pub trait CpuGovernor: std::fmt::Debug {
    /// Sysfs-style governor name (`"ondemand"`, `"performance"`, …).
    fn name(&self) -> &str;

    /// Picks the next operating-point index for every domain.
    fn decide(&mut self, input: &GovernorInput<'_>) -> DvfsDecision;

    /// Forgets internal state (between experiments).
    fn reset(&mut self) {}

    /// The governor's preferred sampling period, seconds.
    fn sampling_period(&self) -> f64 {
        0.1
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// The catalog Nexus 4's twelve-level OPP table.
    pub fn nexus4_opp() -> usta_soc::OppTable {
        let spec = usta_device::by_id("nexus4").expect("built-in");
        usta_soc::spec::opp_table(spec, 0).expect("valid spec")
    }

    /// One nexus4-table domain — the single-domain test fixture shared
    /// by every governor's unit tests.
    pub fn nexus4_domain() -> FreqDomain {
        FreqDomain {
            id: 0,
            name: "cpu",
            kind: DomainKind::CpuCluster,
            cores: 4,
            opp: nexus4_opp(),
            full_load_w: 3.6,
        }
    }

    /// A two-domain big.LITTLE-style fixture: the nexus4 table as the
    /// big cluster and its lower half as the LITTLE cluster.
    pub fn two_domains() -> Vec<FreqDomain> {
        let big = nexus4_opp();
        let little = usta_soc::OppTable::new(big.iter().take(6).copied().collect())
            .expect("prefix of a valid table is valid");
        vec![
            FreqDomain {
                id: 0,
                name: "big",
                kind: DomainKind::CpuCluster,
                cores: 4,
                opp: big,
                full_load_w: 3.6,
            },
            FreqDomain {
                id: 1,
                name: "little",
                kind: DomainKind::CpuCluster,
                cores: 4,
                opp: little,
                full_load_w: 0.9,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;

    #[derive(Debug)]
    struct AlwaysTop;

    impl CpuGovernor for AlwaysTop {
        fn name(&self) -> &str {
            "always-top"
        }

        fn decide(&mut self, input: &GovernorInput<'_>) -> DvfsDecision {
            DvfsDecision::from_fn(input.domain_count(), |d| {
                input.domains[d]
                    .max_index()
                    .min(input.max_allowed_levels[d])
            })
        }
    }

    #[test]
    fn trait_is_object_safe_and_domain_indexed() {
        let domains = vec![nexus4_domain()];
        let mut g: Box<dyn CpuGovernor> = Box::new(AlwaysTop);
        let samples = [DomainSample::default()];
        let caps = [domains[0].max_index()];
        let input = GovernorInput {
            domains: &domains,
            samples: &samples,
            max_allowed_levels: &caps,
            die_temp_c: None,
        };
        let decision = g.decide(&input);
        assert_eq!(decision.domain_count(), 1);
        assert_eq!(decision.level(0), domains[0].max_index());
        assert_eq!(g.sampling_period(), 0.1);
    }

    #[test]
    fn two_domains_decide_independently() {
        let domains = two_domains();
        let mut g = AlwaysTop;
        let samples = [DomainSample::default(); 2];
        let caps = [3, domains[1].max_index()];
        let input = GovernorInput {
            domains: &domains,
            samples: &samples,
            max_allowed_levels: &caps,
            die_temp_c: None,
        };
        let decision = g.decide(&input);
        assert_eq!(decision.levels(), &[3, domains[1].max_index()]);
    }

    #[test]
    fn decision_clamps_to_caps() {
        let d = DvfsDecision::from_levels(&[11, 5]);
        assert_eq!(d.clamped_to(&[9, 9]).levels(), &[9, 5]);
        assert_eq!(DvfsDecision::single(4).levels(), &[4]);
        let mut levels = PerDomain::from_slice(&[1, 2, 3]);
        d.clamp_into(&[9, 9], &mut levels);
        assert_eq!(
            levels,
            PerDomain::from_slice(d.clamped_to(&[9, 9]).levels())
        );
    }

    #[test]
    fn input_helpers_clamp() {
        let domains = vec![nexus4_domain()];
        let samples = [DomainSample {
            avg_utilization: 0.5,
            max_utilization: 0.5,
            current_level: 99,
        }];
        let caps = [99usize];
        let input = GovernorInput {
            domains: &domains,
            samples: &samples,
            max_allowed_levels: &caps,
            die_temp_c: None,
        };
        assert_eq!(input.cap(0), domains[0].max_index());
        assert_eq!(input.current(0), domains[0].max_index());
        assert_eq!(input.domain_count(), 1);
    }
}
