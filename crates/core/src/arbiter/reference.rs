//! The arbiter as it ran before `PriceTable`: every call
//! re-prices each domain's OPP ladder from its floor. Kept verbatim as
//! the oracle the priced greedy must match bit for bit.
//!
//! Shared by `arbiter`'s unit tests and `tests/multi_domain.rs` (which
//! includes this file by path), so everything it needs from the arbiter
//! comes through `super`, and the utility constants are its own copy.

use super::{power_at_level, BudgetAllocation, FrequencyCap};
use usta_governors::FreqDomain;
use usta_soc::{DomainKind, PerDomain};

fn kind_weight(kind: DomainKind) -> f64 {
    match kind {
        DomainKind::CpuCluster => 1.0,
        DomainKind::Gpu => 2.0,
        DomainKind::Display => 4.0,
    }
}

const CPU_DERATE_START_C: f64 = 40.0;
const CPU_DERATE_SPAN_C: f64 = 60.0;
const CPU_DERATE_FLOOR: f64 = 0.25;
const DEMAND_FLOOR: f64 = 0.05;
const BUDGET_EPSILON: f64 = 1e-9;

/// The utility-per-watt of raising `domain` from `level` to
/// `level + 1`, given its demand signal and the hottest CPU die.
fn marginal_utility(
    domain: &FreqDomain,
    level: usize,
    demand: f64,
    hottest_die_c: Option<f64>,
) -> f64 {
    let delta_w = power_at_level(domain, level + 1) - power_at_level(domain, level);
    // `> 0.0` is false for NaN too — a free (or degenerate) step is
    // taken unconditionally.
    let costs_power = delta_w > 0.0;
    if !costs_power {
        return f64::INFINITY;
    }
    let khz_max = domain.opp.max().khz as f64;
    let delta_capacity =
        (domain.opp.level(level + 1).khz as f64 - domain.opp.level(level).khz as f64) / khz_max;
    let mut weight = kind_weight(domain.kind);
    if domain.kind == DomainKind::CpuCluster {
        if let Some(die_c) = hottest_die_c {
            let derate = 1.0 - ((die_c - CPU_DERATE_START_C) / CPU_DERATE_SPAN_C).clamp(0.0, 1.0);
            weight *= derate.max(CPU_DERATE_FLOOR);
        }
    }
    let demand = DEMAND_FLOOR + (1.0 - DEMAND_FLOOR) * demand.clamp(0.0, 1.0);
    weight * demand * delta_capacity / delta_w
}

/// The band's watt envelope: the predicted full-load power of every
/// domain at its band-capped level.
fn band_budget_w(cap: FrequencyCap, domains: &[FreqDomain]) -> f64 {
    assert!(!domains.is_empty(), "a device has at least one domain");
    let band_caps = cap.max_allowed_levels(domains);
    domains
        .iter()
        .enumerate()
        .map(|(d, domain)| power_at_level(domain, band_caps[d]))
        .sum()
}

/// One arbiter call, pricing every step it considers.
pub fn arbitrate(
    cap: FrequencyCap,
    domains: &[FreqDomain],
    demand: &[f64],
    hottest_die_c: Option<f64>,
) -> BudgetAllocation {
    let budget_w = band_budget_w(cap, domains);
    assert!(!domains.is_empty(), "a device has at least one domain");
    assert_eq!(
        demand.len(),
        domains.len(),
        "one demand signal per frequency domain"
    );

    // Greedy re-spend from the floors.
    let mut levels: PerDomain<usize> = PerDomain::splat(domains.len(), 0);
    let mut allocated_w: f64 = domains.iter().map(|d| power_at_level(d, 0)).sum();
    let slack = budget_w.abs() * BUDGET_EPSILON;
    loop {
        let mut best: Option<(f64, usize, f64)> = None; // (utility, domain, delta_w)
        for (d, domain) in domains.iter().enumerate() {
            if levels[d] >= domain.max_index() {
                continue;
            }
            let delta_w = power_at_level(domain, levels[d] + 1) - power_at_level(domain, levels[d]);
            if allocated_w + delta_w > budget_w + slack {
                continue;
            }
            let utility = marginal_utility(domain, levels[d], demand[d], hottest_die_c);
            // Strict > keeps ties on the lower domain id — deterministic.
            if best.is_none() || utility > best.expect("checked").0 {
                best = Some((utility, d, delta_w));
            }
        }
        match best {
            Some((_, d, delta_w)) => {
                levels[d] += 1;
                allocated_w += delta_w;
            }
            None => break,
        }
    }

    BudgetAllocation {
        caps: levels,
        budget_w,
        allocated_w,
    }
}
