//! The global power-budget arbiter: USTA's band cut as watts,
//! reallocated across every frequency domain by marginal utility.
//!
//! The banding policy ([`crate::policy`]) was conceived for CPU
//! clusters: each band sheds OPP *levels*. With the GPU and the
//! display joining the control plane as first-class frequency domains,
//! a level on a 6-point GPU ladder and a level on a 12-point CPU table
//! are not comparable — but watts are. The arbiter therefore:
//!
//! 1. converts the band's per-domain level caps into a total **watt
//!    budget** (the predicted full-load power of every domain at its
//!    band-capped level),
//! 2. re-spends that budget greedily from the bottom up: every domain
//!    starts at its floor level, and the next OPP step goes to the
//!    domain whose step buys the most *utility per watt* — demanded
//!    capacity, weighted by domain kind (the display dims last, the
//!    GPU outranks a CPU cluster, and a hot die derates its CPU
//!    clusters so they give up headroom before the GPU stalls a
//!    frame),
//! 3. emits the resulting per-domain caps in exactly the shape the
//!    governors already consume.
//!
//! Every price the greedy reads — each step's watts and capacity, the
//! floors, the four band budgets — depends only on the domain set,
//! which is fixed for a run. [`PriceTable`] computes them once per
//! device; a decision then re-prices only the domain it just raised.
//!
//! A decision's own inputs reach the greedy only as the band and the
//! per-domain *weighted* demands (`PriceTable::weighted_demands`):
//! kind weight × derate × floored demand. [`crate::UstaGovernor`]
//! therefore keeps its last allocation keyed on the band and the bits
//! of those weighted demands, and returns it without running the
//! greedy (`PriceTable::allocate`) when both repeat exactly. The key
//! is the weighted demands, not the raw inputs, because the raw
//! hottest-die temperature moves on every step while the derate it
//! feeds is exactly 1 below 40 °C. On the benchmark's six-device
//! `mixed_fleet` sweep at seed 42, no arbiter decision's raw inputs
//! repeated the previous decision's, while the weighted demands (and
//! band) repeated on 349,936 of 432,000 decisions (81 %). Equal bits
//! give an equal allocation, so the reuse is exact.
//!
//! On a CPU-only device the arbiter is never engaged —
//! [`crate::UstaGovernor`] keeps the historical power-share splitter,
//! bit for bit.

use crate::policy::FrequencyCap;
use usta_governors::FreqDomain;
use usta_soc::{DomainKind, PerDomain, MAX_FREQ_DOMAINS};

/// Kind weight: how much one unit of normalised demanded capacity is
/// worth, per watt, on each kind of domain. The ordering encodes the
/// user-facing priority — dimming the panel is the most visible cut,
/// stalling the GPU the next, slowing a CPU cluster the least.
fn kind_weight(kind: DomainKind) -> f64 {
    match kind {
        DomainKind::CpuCluster => 1.0,
        DomainKind::Gpu => 2.0,
        DomainKind::Display => 4.0,
    }
}

/// Die temperature (°C) above which CPU-cluster utility starts to
/// derate, and the span over which it falls to the floor.
const CPU_DERATE_START_C: f64 = 40.0;
const CPU_DERATE_SPAN_C: f64 = 60.0;
/// The hottest die never derates CPU utility below this factor.
const CPU_DERATE_FLOOR: f64 = 0.25;

/// Demand floor: even an idle domain keeps a sliver of utility so a
/// surplus budget can still raise it (its steps are merely last in
/// line).
const DEMAND_FLOOR: f64 = 0.05;

/// Relative slack when testing whether a step still fits the budget —
/// absorbs f64 summation noise, not real watts.
const BUDGET_EPSILON: f64 = 1e-9;

/// What the arbiter decided for one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetAllocation {
    /// Per-domain level caps, in domain order — feed these to the
    /// baseline governor exactly like the splitter's caps.
    pub caps: PerDomain<usize>,
    /// The band-derived watt budget the allocation had to fit.
    pub budget_w: f64,
    /// Predicted watts of the emitted caps (≤ `budget_w` up to float
    /// noise, except when the floors alone exceed the budget — the
    /// arbiter never caps below level 0).
    pub allocated_w: f64,
}

/// Predicted full-load power of `domain` capped at `level`, watts:
/// the domain's full-load power scaled by the dynamic-power ratio
/// `f·V²` of the level against the top of the table. Exact for the
/// dynamic term of every domain model in the workspace; the shared
/// static remainder cancels out of the marginal comparison.
pub fn power_at_level(domain: &FreqDomain, level: usize) -> f64 {
    let top = domain.opp.max();
    let at = domain.opp.level(domain.opp.clamp_index(level));
    let denom = top.khz as f64 * top.volts * top.volts;
    // `> 0.0` is false for NaN too: a degenerate table prices as free.
    let well_formed = denom > 0.0 && domain.full_load_w.is_finite() && domain.full_load_w > 0.0;
    if !well_formed {
        return 0.0;
    }
    domain.full_load_w * (at.khz as f64 * at.volts * at.volts) / denom
}

/// One domain's OPP ladder, priced: per step `l → l + 1`, the watts
/// it costs (`p[l + 1] − p[l]`, [`power_at_level`]) and the capacity it
/// buys, as a fraction of the domain's top frequency.
#[derive(Debug, Clone)]
struct PricedLadder {
    kind: DomainKind,
    /// `(Δw, Δcapacity)` of each step; `steps.len()` is the top level.
    steps: Vec<(f64, f64)>,
}

/// One domain's next OPP step in the greedy: its watts and its
/// utility per watt. `open` is false at the top of the ladder.
#[derive(Debug, Clone, Copy, Default)]
struct Step {
    open: bool,
    delta_w: f64,
    utility: f64,
}

impl PricedLadder {
    fn new(domain: &FreqDomain) -> PricedLadder {
        let khz_max = domain.opp.max().khz as f64;
        let steps = (0..domain.max_index())
            .map(|l| {
                let delta_w = power_at_level(domain, l + 1) - power_at_level(domain, l);
                let delta_capacity =
                    (domain.opp.level(l + 1).khz as f64 - domain.opp.level(l).khz as f64) / khz_max;
                (delta_w, delta_capacity)
            })
            .collect();
        PricedLadder {
            kind: domain.kind,
            steps,
        }
    }

    /// How much one unit of capacity is worth on this domain right now:
    /// its kind weight (derated on a hot die for CPU clusters) times its
    /// floored, clamped demand.
    fn weighted_demand(&self, demand: f64, hottest_die_c: Option<f64>) -> f64 {
        let mut weight = kind_weight(self.kind);
        if self.kind == DomainKind::CpuCluster {
            if let Some(die_c) = hottest_die_c {
                let derate =
                    1.0 - ((die_c - CPU_DERATE_START_C) / CPU_DERATE_SPAN_C).clamp(0.0, 1.0);
                weight *= derate.max(CPU_DERATE_FLOOR);
            }
        }
        let demand = DEMAND_FLOOR + (1.0 - DEMAND_FLOOR) * demand.clamp(0.0, 1.0);
        weight * demand
    }

    /// The step that raises this domain from `level`.
    fn next_step(&self, level: usize, weighted_demand: f64) -> Step {
        let Some(&(delta_w, delta_capacity)) = self.steps.get(level) else {
            return Step::default();
        };
        // `> 0.0` is false for NaN too — a free (or degenerate) step is
        // taken unconditionally.
        let utility = if delta_w > 0.0 {
            weighted_demand * delta_capacity / delta_w
        } else {
            f64::INFINITY
        };
        Step {
            open: true,
            delta_w,
            utility,
        }
    }
}

/// A device's arbiter prices: per domain, each OPP step's watts and
/// capacity, plus the watts of all the floors and the four bands' watt
/// budgets.
///
/// Everything in it is a pure function of the domain set, which is
/// fixed for a run, so [`crate::UstaGovernor`] builds one per device,
/// keeps it across governor periods, and prices again only when the
/// domains differ. Every price is the same expression, and the floors
/// and budgets are summed in the same domain order, as when pricing
/// per call, so an allocation does not depend on the table's reuse.
///
/// The table holds no decision state. The governor's memo of its last
/// allocation (see the module doc) lives beside the table and is
/// dropped with it, so a re-priced device never sees an allocation
/// made from the old prices. Checking the domain set is cheap because
/// a device's OPP tables are shared: the table's copy of each ladder
/// is the caller's allocation, and [`usta_soc::OppTable`] equality
/// returns on that before reading levels.
#[derive(Debug, Clone)]
pub struct PriceTable {
    /// The domain set the table priced — its cache key.
    domains: Vec<FreqDomain>,
    ladders: Vec<PricedLadder>,
    floor_w: f64,
    /// Watt budget per band, indexed by [`FrequencyCap::code`].
    band_budget_w: [f64; 4],
}

impl PriceTable {
    /// Prices `domains`.
    ///
    /// # Panics
    ///
    /// Panics if `domains` is empty.
    pub fn new(domains: &[FreqDomain]) -> PriceTable {
        assert!(!domains.is_empty(), "a device has at least one domain");
        let band_budget_w = [
            FrequencyCap::Unrestricted,
            FrequencyCap::OneLevelBelowMax,
            FrequencyCap::TwoLevelsBelowMax,
            FrequencyCap::MinimumFrequency,
        ]
        .map(|cap| {
            let band_caps = cap.max_allowed_levels(domains);
            domains
                .iter()
                .enumerate()
                .map(|(d, domain)| power_at_level(domain, band_caps[d]))
                .sum()
        });
        PriceTable {
            domains: domains.to_vec(),
            ladders: domains.iter().map(PricedLadder::new).collect(),
            floor_w: domains.iter().map(|d| power_at_level(d, 0)).sum(),
            band_budget_w,
        }
    }

    /// Whether this table priced exactly `domains`.
    pub(crate) fn is_for(&self, domains: &[FreqDomain]) -> bool {
        self.domains == domains
    }

    /// The band's watt envelope: the predicted full-load power of every
    /// domain at its band-capped level (the historical splitter run
    /// over all domains).
    fn budget_w(&self, cap: FrequencyCap) -> f64 {
        self.band_budget_w[usize::from(cap.code())]
    }

    /// Runs the arbiter for one instant on the priced device; see
    /// [`arbitrate`] for the arguments. The composition of
    /// `PriceTable::weighted_demands` and `PriceTable::allocate`.
    ///
    /// # Panics
    ///
    /// Panics if `demand` is not parallel to the priced domains.
    pub fn arbitrate(
        &self,
        cap: FrequencyCap,
        demand: &[f64],
        hottest_die_c: Option<f64>,
    ) -> BudgetAllocation {
        let n = self.ladders.len();
        self.allocate(cap, &self.weighted_demands(demand, hottest_die_c)[..n])
    }

    /// How much one unit of capacity is worth on each priced domain
    /// right now: its kind weight, derated on a hot die for CPU
    /// clusters, times its floored, clamped demand. Entries past the
    /// domain count are zero.
    ///
    /// These are everything the greedy reads of a decision's inputs,
    /// so two decisions with bit-equal weighted demands under one band
    /// allocate the same. They repeat far more often than the raw
    /// inputs: below the derate knee the die temperature drops out
    /// entirely, and clamping folds every demand above 1 onto 1.
    ///
    /// # Panics
    ///
    /// Panics if `demand` is not parallel to the priced domains.
    pub(crate) fn weighted_demands(
        &self,
        demand: &[f64],
        hottest_die_c: Option<f64>,
    ) -> [f64; MAX_FREQ_DOMAINS] {
        assert_eq!(
            demand.len(),
            self.ladders.len(),
            "one demand signal per frequency domain"
        );
        let mut weighted = [0.0; MAX_FREQ_DOMAINS];
        for ((w, ladder), &demand) in weighted.iter_mut().zip(&self.ladders).zip(demand) {
            *w = ladder.weighted_demand(demand, hottest_die_c);
        }
        weighted
    }

    /// The greedy re-spend of `cap`'s watt budget from the floors,
    /// given each domain's weighted demand
    /// (`PriceTable::weighted_demands`).
    ///
    /// # Panics
    ///
    /// Panics if `weighted` is not parallel to the priced domains.
    pub(crate) fn allocate(&self, cap: FrequencyCap, weighted: &[f64]) -> BudgetAllocation {
        let n = self.ladders.len();
        assert_eq!(
            weighted.len(),
            n,
            "one weighted demand per frequency domain"
        );
        let budget_w = self.budget_w(cap);
        let ceiling_w = budget_w + budget_w.abs() * BUDGET_EPSILON;

        // Greedy re-spend from the floors. Each domain's next step is
        // priced once per level it reaches, not once per round. The
        // scratch state is plain arrays: building it through
        // `PerDomain`'s checked pushes more than doubled the cost of a
        // MinimumFrequency call.
        let mut levels: PerDomain<usize> = PerDomain::splat(n, 0);
        let mut next = [Step::default(); MAX_FREQ_DOMAINS];
        for (d, ladder) in self.ladders.iter().enumerate() {
            next[d] = ladder.next_step(0, weighted[d]);
        }
        let mut allocated_w = self.floor_w;
        loop {
            // The best affordable step; strict > keeps ties on the
            // lower domain id — deterministic.
            let mut best = usize::MAX;
            let mut best_utility = 0.0;
            for (d, step) in next[..n].iter().enumerate() {
                if !step.open || allocated_w + step.delta_w > ceiling_w {
                    continue;
                }
                if best == usize::MAX || step.utility > best_utility {
                    best = d;
                    best_utility = step.utility;
                }
            }
            if best == usize::MAX {
                break;
            }
            allocated_w += next[best].delta_w;
            levels[best] += 1;
            next[best] = self.ladders[best].next_step(levels[best], weighted[best]);
        }

        BudgetAllocation {
            caps: levels,
            budget_w,
            allocated_w,
        }
    }
}

/// Runs the arbiter for one instant.
///
/// `demand` is the per-domain demand signal, 0–1, parallel to
/// `domains`: busiest-core utilization for CPU clusters, GPU load for
/// the GPU domain, requested brightness for the display.
/// `hottest_die_c` derates CPU-cluster utility when the die runs hot.
///
/// The watt budget is the predicted power of the band's own per-domain
/// caps (the historical splitter run over all domains), so
/// [`FrequencyCap::Unrestricted`] always affords every domain its top
/// level and [`FrequencyCap::MinimumFrequency`] affords exactly the
/// floors — the band's envelope is preserved, only its distribution
/// changes.
///
/// Prices `domains` afresh; a caller deciding every governor period
/// keeps a [`PriceTable`] instead.
///
/// # Panics
///
/// Panics if `domains` is empty or `demand` is not parallel to it.
pub fn arbitrate(
    cap: FrequencyCap,
    domains: &[FreqDomain],
    demand: &[f64],
    hottest_die_c: Option<f64>,
) -> BudgetAllocation {
    PriceTable::new(domains).arbitrate(cap, demand, hottest_die_c)
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nexus4_opp;

    fn system_domains() -> Vec<FreqDomain> {
        let big = nexus4_opp();
        let little =
            usta_soc::OppTable::new(big.iter().take(6).copied().collect()).expect("valid prefix");
        let gpu = usta_soc::OppTable::new(
            [257_000u32, 414_000, 596_000, 710_000]
                .iter()
                .map(|&khz| usta_soc::OppPoint {
                    khz,
                    volts: 0.7 + khz as f64 / 2_000_000.0,
                })
                .collect(),
        )
        .expect("valid GPU table");
        let display =
            usta_soc::spec::brightness_opp_table(&[100, 400, 700, 1000]).expect("valid ladder");
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
            FreqDomain {
                id: 2,
                name: "gpu",
                kind: DomainKind::Gpu,
                cores: 1,
                opp: gpu,
                full_load_w: 3.2,
            },
            FreqDomain {
                id: 3,
                name: "display",
                kind: DomainKind::Display,
                cores: 1,
                opp: display,
                full_load_w: 1.1,
            },
        ]
    }

    #[test]
    fn unrestricted_budget_affords_every_top_level() {
        let domains = system_domains();
        let a = arbitrate(FrequencyCap::Unrestricted, &domains, &[1.0; 4], None);
        for (d, domain) in domains.iter().enumerate() {
            assert_eq!(a.caps[d], domain.max_index(), "domain {d}");
        }
        assert!(a.allocated_w <= a.budget_w * (1.0 + 1e-9));
    }

    #[test]
    fn minimum_frequency_budget_affords_only_the_floors() {
        let domains = system_domains();
        let a = arbitrate(FrequencyCap::MinimumFrequency, &domains, &[1.0; 4], None);
        assert_eq!(a.caps.as_slice(), &[0, 0, 0, 0]);
        assert!((a.allocated_w - a.budget_w).abs() < 1e-9);
    }

    #[test]
    fn allocation_never_exceeds_the_budget() {
        let domains = system_domains();
        for cap in [
            FrequencyCap::OneLevelBelowMax,
            FrequencyCap::TwoLevelsBelowMax,
        ] {
            for demand in [[1.0; 4], [0.2, 0.9, 0.5, 1.0], [0.0; 4]] {
                let a = arbitrate(cap, &domains, &demand, Some(55.0));
                assert!(
                    a.allocated_w <= a.budget_w * (1.0 + 1e-6) + 1e-12,
                    "{cap:?} {demand:?}: {} > {}",
                    a.allocated_w,
                    a.budget_w
                );
            }
        }
    }

    #[test]
    fn display_dims_last_under_a_tight_budget() {
        let domains = system_domains();
        // Everything saturated under the two-level band: the display's
        // 4× kind weight (and tiny per-step watts) keeps it at full
        // brightness while the CPUs absorb the cut.
        let a = arbitrate(
            FrequencyCap::TwoLevelsBelowMax,
            &domains,
            &[1.0, 1.0, 1.0, 1.0],
            None,
        );
        assert_eq!(a.caps[3], domains[3].max_index(), "display keeps its top");
        assert!(
            a.caps[0] < domains[0].max_index(),
            "the big cluster took a cut: {:?}",
            a.caps.as_slice()
        );
    }

    #[test]
    fn hot_die_shifts_headroom_from_cpu_to_gpu() {
        let domains = system_domains();
        let demand = [1.0, 1.0, 1.0, 0.5];
        let cool = arbitrate(
            FrequencyCap::OneLevelBelowMax,
            &domains,
            &demand,
            Some(35.0),
        );
        let hot = arbitrate(
            FrequencyCap::OneLevelBelowMax,
            &domains,
            &demand,
            Some(95.0),
        );
        // Same budget either way; the hot die derates CPU utility, so
        // the CPU share cannot grow and the GPU share cannot shrink.
        assert!((cool.budget_w - hot.budget_w).abs() < 1e-9);
        let cpu_caps = |a: &BudgetAllocation| a.caps[0] + a.caps[1];
        assert!(cpu_caps(&hot) <= cpu_caps(&cool));
        assert!(hot.caps[2] >= cool.caps[2], "GPU keeps or gains headroom");
    }

    #[test]
    fn idle_domains_yield_their_watts_to_busy_ones() {
        let domains = system_domains();
        let busy_gpu = arbitrate(
            FrequencyCap::TwoLevelsBelowMax,
            &domains,
            &[0.05, 0.05, 1.0, 0.3],
            None,
        );
        let busy_cpu = arbitrate(
            FrequencyCap::TwoLevelsBelowMax,
            &domains,
            &[1.0, 1.0, 0.05, 0.3],
            None,
        );
        assert!(busy_gpu.caps[2] >= busy_cpu.caps[2]);
        assert!(busy_cpu.caps[0] >= busy_gpu.caps[0]);
    }

    #[test]
    fn single_cpu_domain_reproduces_the_band_cap() {
        // The arbiter is not engaged on CPU-only devices, but when run
        // anyway it must agree with the scalar band on one domain.
        let domains = vec![FreqDomain {
            id: 0,
            name: "cpu",
            kind: DomainKind::CpuCluster,
            cores: 4,
            opp: nexus4_opp(),
            full_load_w: 3.6,
        }];
        for cap in [
            FrequencyCap::Unrestricted,
            FrequencyCap::OneLevelBelowMax,
            FrequencyCap::TwoLevelsBelowMax,
            FrequencyCap::MinimumFrequency,
        ] {
            let a = arbitrate(cap, &domains, &[1.0], None);
            assert_eq!(a.caps[0], cap.max_allowed_level(&domains[0].opp), "{cap:?}");
        }
    }

    #[test]
    fn arbitration_is_deterministic() {
        let domains = system_domains();
        let demand = [0.7, 0.3, 0.8, 0.6];
        let a = arbitrate(
            FrequencyCap::OneLevelBelowMax,
            &domains,
            &demand,
            Some(60.0),
        );
        let b = arbitrate(
            FrequencyCap::OneLevelBelowMax,
            &domains,
            &demand,
            Some(60.0),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn priced_arbiter_matches_the_reference_on_degenerate_ladders() {
        // Free steps (a zero-watt domain), a one-level ladder, a twin
        // of the big cluster whose every step ties with it, and
        // non-finite demand: the priced greedy must take the same
        // steps as the per-call reference, to the bit.
        let mut domains = system_domains();
        domains[1].full_load_w = 0.0;
        domains[3].opp =
            usta_soc::OppTable::new(vec![domains[3].opp.max()]).expect("one-level ladder");
        domains.push(FreqDomain {
            id: 4,
            ..domains[0].clone()
        });
        let table = PriceTable::new(&domains);
        for cap in [
            FrequencyCap::Unrestricted,
            FrequencyCap::OneLevelBelowMax,
            FrequencyCap::TwoLevelsBelowMax,
            FrequencyCap::MinimumFrequency,
        ] {
            for demand in [[1.0; 5], [f64::NAN, -2.0, 3.0, 0.5, 2.0], [0.0; 5]] {
                for die in [None, Some(35.0), Some(f64::NAN)] {
                    let priced = table.arbitrate(cap, &demand, die);
                    let oracle = reference::arbitrate(cap, &domains, &demand, die);
                    assert_eq!(priced.caps, oracle.caps, "{cap:?} {demand:?} {die:?}");
                    assert_eq!(priced.budget_w.to_bits(), oracle.budget_w.to_bits());
                    assert_eq!(priced.allocated_w.to_bits(), oracle.allocated_w.to_bits());
                }
            }
        }
    }

    #[test]
    fn price_table_is_keyed_on_the_exact_domain_set() {
        let domains = system_domains();
        let table = PriceTable::new(&domains);
        assert!(table.is_for(&domains));
        let mut hotter = domains.clone();
        hotter[2].full_load_w += 0.5;
        assert!(!table.is_for(&hotter), "same length, different GPU");
        assert!(!table.is_for(&domains[..3]));
    }

    #[test]
    fn power_at_level_is_monotone_and_tops_at_full_load() {
        for domain in system_domains() {
            let mut prev = -1.0;
            for l in 0..=domain.max_index() {
                let p = power_at_level(&domain, l);
                assert!(p > prev, "{}: power must rise with level", domain.name);
                prev = p;
            }
            assert!((prev - domain.full_load_w).abs() < 1e-12, "{}", domain.name);
        }
    }
}
