//! The USTA banding policy (§3.B of the paper, verbatim):
//!
//! > "USTA has a threshold for activation which is set to 2 °C below the
//! > skin temperature limit of the user. If the difference between the
//! > predicted skin temperature and the temperature limit is between
//! > 1 °C and 2 °C, the maximum allowed CPU frequency is decreased by
//! > one level (i.e., from the highest frequency to the one below). If
//! > the difference between the prediction and the temperature limit is
//! > between 0.5 °C and 1 °C, then, the maximum allowed CPU frequency is
//! > decreased by two levels. Finally, if the prediction is closer than
//! > 0.5 °C to the limit or it is exceeding the limit, then, the maximum
//! > CPU frequency is set to the minimum frequency level."

use usta_governors::FreqDomain;
use usta_soc::{OppTable, PerDomain, MAX_FREQ_DOMAINS};
use usta_thermal::Celsius;

/// The cap USTA imposes on the governor's frequency choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FrequencyCap {
    /// Predicted skin temperature is more than 2 °C below the limit:
    /// the baseline governor runs unrestricted.
    #[default]
    Unrestricted,
    /// Within (1, 2] °C of the limit: cap one OPP level below maximum.
    OneLevelBelowMax,
    /// Within (0.5, 1] °C of the limit: cap two OPP levels below maximum.
    TwoLevelsBelowMax,
    /// Within 0.5 °C of the limit or exceeding it: pin to the minimum
    /// frequency.
    MinimumFrequency,
}

impl FrequencyCap {
    /// The band's stable wire code (0 = unrestricted … 3 = minimum),
    /// the value [`usta_telemetry::flight::DecisionEvent::band`]
    /// carries and `usta_telemetry::flight::band_name` names.
    pub fn code(self) -> u8 {
        match self {
            FrequencyCap::Unrestricted => 0,
            FrequencyCap::OneLevelBelowMax => 1,
            FrequencyCap::TwoLevelsBelowMax => 2,
            FrequencyCap::MinimumFrequency => 3,
        }
    }

    /// The highest allowed OPP index under this cap.
    pub fn max_allowed_level(self, opp: &OppTable) -> usize {
        match self {
            FrequencyCap::Unrestricted => opp.max_index(),
            FrequencyCap::OneLevelBelowMax => opp.lower(opp.max_index(), 1),
            FrequencyCap::TwoLevelsBelowMax => opp.lower(opp.max_index(), 2),
            FrequencyCap::MinimumFrequency => 0,
        }
    }

    /// The per-domain cap vector for a multi-domain device: the skin
    /// budget splits across domains by predicted full-load power share.
    ///
    /// The banding bands shed a *total* of `levels × domains` OPP steps
    /// (so a single-domain device reproduces the paper's "one/two
    /// levels below max" exactly), apportioned to domains by their
    /// [`FreqDomain::full_load_w`] share, largest fractional remainder
    /// first (ties to the lower domain id). The big cluster — the one
    /// actually heating the skin — therefore takes most or all of the
    /// cut before a LITTLE cluster loses a step.
    /// [`FrequencyCap::MinimumFrequency`] pins every domain to its
    /// bottom level, [`FrequencyCap::Unrestricted`] frees every domain.
    ///
    /// # Panics
    ///
    /// Panics if `domains` is empty.
    pub fn max_allowed_levels(self, domains: &[FreqDomain]) -> PerDomain<usize> {
        self.max_allowed_levels_with_die_temps(domains, &[])
    }

    /// [`FrequencyCap::max_allowed_levels`] consulting per-cluster die
    /// temperatures (°C, one per domain, big-first) for remainder
    /// tie-breaking: when two domains earn equal fractional shares of
    /// the level cut, the one whose die is actually hotter loses the
    /// step. With no temps — or a temp slice of the wrong length —
    /// ties fall back to the lower domain id, reproducing
    /// [`FrequencyCap::max_allowed_levels`] exactly.
    pub fn max_allowed_levels_with_die_temps(
        self,
        domains: &[FreqDomain],
        die_temp_c: &[f64],
    ) -> PerDomain<usize> {
        let mut levels = PerDomain::new();
        self.max_allowed_levels_into(domains, die_temp_c, &mut levels);
        levels
    }

    /// [`FrequencyCap::max_allowed_levels_with_die_temps`] written into
    /// `levels` in place.
    ///
    /// # Panics
    ///
    /// Panics if `domains` is empty.
    pub fn max_allowed_levels_into(
        self,
        domains: &[FreqDomain],
        die_temp_c: &[f64],
        levels: &mut PerDomain<usize>,
    ) {
        assert!(!domains.is_empty(), "a device has at least one domain");
        let temps = (die_temp_c.len() == domains.len()).then_some(die_temp_c);
        match self {
            FrequencyCap::Unrestricted => levels.refill(domains.len(), |d| domains[d].max_index()),
            FrequencyCap::OneLevelBelowMax => shed_by_power_share(domains, 1, temps, levels),
            FrequencyCap::TwoLevelsBelowMax => shed_by_power_share(domains, 2, temps, levels),
            FrequencyCap::MinimumFrequency => levels.refill(domains.len(), |_| 0),
        }
    }

    /// `true` when USTA is actively restricting the governor.
    pub fn is_active(self) -> bool {
        self != FrequencyCap::Unrestricted
    }
}

/// Sheds `per_domain_steps × domains` OPP steps in total, apportioned
/// by full-load power share with a largest-remainder rounding pass
/// (deterministic: ties break toward the hotter die when per-cluster
/// die temperatures are supplied, then toward the lower domain id).
/// Degenerate weights (zero or non-finite total) fall back to a
/// uniform `per_domain_steps` cut on every domain. The caps are
/// written into `levels`.
fn shed_by_power_share(
    domains: &[FreqDomain],
    per_domain_steps: usize,
    die_temp_c: Option<&[f64]>,
    levels: &mut PerDomain<usize>,
) {
    let n = domains.len();
    if n == 1 {
        let opp = &domains[0].opp;
        levels.refill(1, |_| opp.lower(opp.max_index(), per_domain_steps));
        return;
    }
    let total_steps = per_domain_steps * n;
    let total_w: f64 = domains.iter().map(|d| d.full_load_w).sum();
    let uniform = !total_w.is_finite()
        || total_w <= 0.0
        || domains
            .iter()
            .any(|d| !d.full_load_w.is_finite() || d.full_load_w < 0.0);
    let mut shed = [0usize; MAX_FREQ_DOMAINS];
    if uniform {
        shed[..n].fill(per_domain_steps);
    } else {
        let mut fractions = [(0.0f64, 0usize); MAX_FREQ_DOMAINS];
        let mut assigned = 0usize;
        for (d, domain) in domains.iter().enumerate() {
            let quota = total_steps as f64 * (domain.full_load_w / total_w);
            let base = quota.floor() as usize;
            shed[d] = base;
            assigned += base;
            fractions[d] = (quota - base as f64, d);
        }
        fractions[..n].sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .expect("fractions are finite")
                .then_with(|| match die_temp_c {
                    // Equal shares: the domain whose die actually runs
                    // hotter takes the cut (non-finite temps compare
                    // equal and fall through to the id order).
                    Some(temps) => temps[b.1]
                        .partial_cmp(&temps[a.1])
                        .unwrap_or(std::cmp::Ordering::Equal),
                    None => std::cmp::Ordering::Equal,
                })
                .then(a.1.cmp(&b.1))
        });
        for &(_, d) in fractions[..n]
            .iter()
            .take(total_steps.saturating_sub(assigned))
        {
            shed[d] += 1;
        }
    }
    levels.refill(n, |d| domains[d].opp.lower(domains[d].max_index(), shed[d]));
}

/// The per-user USTA policy: a comfort limit plus the paper's bands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UstaPolicy {
    limit: Celsius,
    activation_margin: f64,
    one_level_margin: f64,
    min_freq_margin: f64,
}

impl UstaPolicy {
    /// The paper's banding around the given comfort limit
    /// (activation at 2 °C, two-level at 1 °C, minimum at 0.5 °C).
    pub fn new(limit: Celsius) -> UstaPolicy {
        UstaPolicy {
            limit,
            activation_margin: 2.0,
            one_level_margin: 1.0,
            min_freq_margin: 0.5,
        }
    }

    /// A policy with custom band margins (for the ablation benches).
    /// Margins must satisfy `min_freq ≤ one_level ≤ activation`.
    ///
    /// # Panics
    ///
    /// Panics if the margins are not ordered or not finite.
    pub fn with_margins(
        limit: Celsius,
        activation: f64,
        one_level: f64,
        min_freq: f64,
    ) -> UstaPolicy {
        assert!(
            min_freq.is_finite() && one_level.is_finite() && activation.is_finite(),
            "margins must be finite"
        );
        assert!(
            0.0 <= min_freq && min_freq <= one_level && one_level <= activation,
            "margins must be ordered 0 ≤ min_freq ≤ one_level ≤ activation"
        );
        UstaPolicy {
            limit,
            activation_margin: activation,
            one_level_margin: one_level,
            min_freq_margin: min_freq,
        }
    }

    /// The user's comfort limit.
    pub fn limit(&self) -> Celsius {
        self.limit
    }

    /// Changes the comfort limit (switching users).
    pub fn set_limit(&mut self, limit: Celsius) {
        self.limit = limit;
    }

    /// Maps a predicted skin temperature to the cap.
    ///
    /// Boundary semantics follow the paper's half-open bands: a margin of
    /// exactly 2 °C caps one level, exactly 1 °C caps two levels, and
    /// exactly 0.5 °C pins the minimum frequency. A non-finite prediction
    /// (NaN margin) fails every `>` comparison and therefore falls
    /// through to [`FrequencyCap::MinimumFrequency`] — a bogus predictor
    /// fails safe (cold), never open (hot).
    pub fn decide(&self, predicted_skin: Celsius) -> FrequencyCap {
        let margin = self.limit - predicted_skin; // kelvins below the limit
        if margin > self.activation_margin {
            FrequencyCap::Unrestricted
        } else if margin > self.one_level_margin {
            FrequencyCap::OneLevelBelowMax
        } else if margin > self.min_freq_margin {
            FrequencyCap::TwoLevelsBelowMax
        } else {
            FrequencyCap::MinimumFrequency
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nexus4_opp;

    #[test]
    fn bands_match_the_paper_exactly() {
        let p = UstaPolicy::new(Celsius(37.0));
        // margin > 2.0 → unrestricted
        assert_eq!(p.decide(Celsius(34.9)), FrequencyCap::Unrestricted);
        // margin in (1, 2] → one level
        assert_eq!(p.decide(Celsius(35.0)), FrequencyCap::OneLevelBelowMax);
        assert_eq!(p.decide(Celsius(35.9)), FrequencyCap::OneLevelBelowMax);
        // margin in (0.5, 1] → two levels
        assert_eq!(p.decide(Celsius(36.0)), FrequencyCap::TwoLevelsBelowMax);
        assert_eq!(p.decide(Celsius(36.4)), FrequencyCap::TwoLevelsBelowMax);
        // margin ≤ 0.5, including exceeding → minimum
        assert_eq!(p.decide(Celsius(36.5)), FrequencyCap::MinimumFrequency);
        assert_eq!(p.decide(Celsius(37.0)), FrequencyCap::MinimumFrequency);
        assert_eq!(p.decide(Celsius(45.0)), FrequencyCap::MinimumFrequency);
    }

    #[test]
    fn band_boundaries_are_half_open_exactly_as_quoted() {
        let p = UstaPolicy::new(Celsius(37.0));
        // margin exactly 2.0 °C: activation threshold is *inclusive*
        // ("threshold for activation which is set to 2 °C below the
        // limit") — the (1, 2] band caps one level.
        assert_eq!(p.decide(Celsius(35.0)), FrequencyCap::OneLevelBelowMax);
        // A hair above 2.0 margin stays unrestricted.
        assert_eq!(
            p.decide(Celsius(35.0 - f64::EPSILON * 64.0)),
            FrequencyCap::Unrestricted
        );
        // margin exactly 1.0 °C belongs to the (0.5, 1] two-level band.
        assert_eq!(p.decide(Celsius(36.0)), FrequencyCap::TwoLevelsBelowMax);
        // margin exactly 0.5 °C: "closer than 0.5 °C … or exceeding" —
        // the closed end of the minimum-frequency band.
        assert_eq!(p.decide(Celsius(36.5)), FrequencyCap::MinimumFrequency);
        // margin exactly 0 (prediction at the limit) pins the minimum.
        assert_eq!(p.decide(Celsius(37.0)), FrequencyCap::MinimumFrequency);
    }

    #[test]
    fn non_finite_predictions_fail_safe_to_minimum_frequency() {
        let p = UstaPolicy::new(Celsius(37.0));
        assert_eq!(p.decide(Celsius(f64::NAN)), FrequencyCap::MinimumFrequency);
        assert_eq!(
            p.decide(Celsius(f64::INFINITY)),
            FrequencyCap::MinimumFrequency
        );
        // -inf predicted skin gives +inf margin: genuinely cold, stays
        // unrestricted (and must not panic).
        assert_eq!(
            p.decide(Celsius(f64::NEG_INFINITY)),
            FrequencyCap::Unrestricted
        );
    }

    #[test]
    fn caps_map_to_levels_on_the_nexus4_table() {
        let opp = nexus4_opp();
        assert_eq!(FrequencyCap::Unrestricted.max_allowed_level(&opp), 11);
        assert_eq!(FrequencyCap::OneLevelBelowMax.max_allowed_level(&opp), 10);
        assert_eq!(FrequencyCap::TwoLevelsBelowMax.max_allowed_level(&opp), 9);
        assert_eq!(FrequencyCap::MinimumFrequency.max_allowed_level(&opp), 0);
    }

    fn test_domains(big_w: f64, little_w: f64) -> Vec<FreqDomain> {
        let big = nexus4_opp();
        let little =
            usta_soc::OppTable::new(big.iter().take(6).copied().collect()).expect("valid prefix");
        vec![
            FreqDomain {
                id: 0,
                name: "big",
                kind: usta_soc::DomainKind::CpuCluster,
                cores: 4,
                opp: big,
                full_load_w: big_w,
            },
            FreqDomain {
                id: 1,
                name: "little",
                kind: usta_soc::DomainKind::CpuCluster,
                cores: 4,
                opp: little,
                full_load_w: little_w,
            },
        ]
    }

    #[test]
    fn single_domain_cap_vector_matches_the_scalar_path() {
        let opp = nexus4_opp();
        let domains = vec![FreqDomain {
            id: 0,
            name: "cpu",
            kind: usta_soc::DomainKind::CpuCluster,
            cores: 4,
            opp: opp.clone(),
            full_load_w: 3.6,
        }];
        for cap in [
            FrequencyCap::Unrestricted,
            FrequencyCap::OneLevelBelowMax,
            FrequencyCap::TwoLevelsBelowMax,
            FrequencyCap::MinimumFrequency,
        ] {
            assert_eq!(
                cap.max_allowed_levels(&domains).as_slice(),
                &[cap.max_allowed_level(&opp)],
                "{cap:?}"
            );
        }
    }

    #[test]
    fn power_share_split_cuts_the_big_cluster_first() {
        // 4:1 split — both one-level steps land on the big cluster.
        let domains = test_domains(3.6, 0.9);
        let caps = FrequencyCap::OneLevelBelowMax.max_allowed_levels(&domains);
        assert_eq!(caps.as_slice(), &[9, 5]);
        // Two-level band: 4 steps total, big floor(3.2)=3 + little
        // floor(0.8)=0, leftover to the larger remainder (little, .8).
        let caps = FrequencyCap::TwoLevelsBelowMax.max_allowed_levels(&domains);
        assert_eq!(caps.as_slice(), &[8, 4]);
    }

    #[test]
    fn equal_power_split_is_uniform() {
        let domains = test_domains(2.0, 2.0);
        let caps = FrequencyCap::OneLevelBelowMax.max_allowed_levels(&domains);
        assert_eq!(caps.as_slice(), &[10, 4]);
    }

    #[test]
    fn degenerate_weights_fall_back_to_uniform() {
        for (a, b) in [(0.0, 0.0), (f64::NAN, 1.0), (-1.0, 3.0)] {
            let domains = test_domains(a, b);
            let caps = FrequencyCap::TwoLevelsBelowMax.max_allowed_levels(&domains);
            assert_eq!(caps.as_slice(), &[9, 3], "weights ({a}, {b})");
        }
    }

    #[test]
    fn extreme_bands_cover_every_domain() {
        let domains = test_domains(3.6, 0.9);
        assert_eq!(
            FrequencyCap::Unrestricted
                .max_allowed_levels(&domains)
                .as_slice(),
            &[11, 5]
        );
        assert_eq!(
            FrequencyCap::MinimumFrequency
                .max_allowed_levels(&domains)
                .as_slice(),
            &[0, 0]
        );
    }

    #[test]
    fn in_place_caps_overwrite_a_stale_vector_exactly() {
        let domains = test_domains(3.6, 0.9);
        for cap in [
            FrequencyCap::Unrestricted,
            FrequencyCap::OneLevelBelowMax,
            FrequencyCap::TwoLevelsBelowMax,
            FrequencyCap::MinimumFrequency,
        ] {
            let mut levels = PerDomain::splat(5, 7);
            cap.max_allowed_levels_into(&domains, &[], &mut levels);
            assert_eq!(levels, cap.max_allowed_levels(&domains), "{cap:?}");
        }
    }

    #[test]
    fn lopsided_split_saturates_at_the_bottom() {
        // A 100:1 split sheds every step from the big cluster; a deep
        // enough cut saturates at level 0 rather than underflowing.
        let domains = test_domains(100.0, 1.0);
        let caps = FrequencyCap::TwoLevelsBelowMax.max_allowed_levels(&domains);
        assert_eq!(caps[1], domains[1].max_index(), "LITTLE keeps its top");
        assert!(caps[0] <= domains[0].max_index() - 3);
    }

    fn three_domains(weights: [f64; 3]) -> Vec<FreqDomain> {
        let big = nexus4_opp();
        let little =
            usta_soc::OppTable::new(big.iter().take(6).copied().collect()).expect("valid prefix");
        let names = ["prime", "big", "little"];
        (0..3)
            .map(|d| FreqDomain {
                id: d,
                name: names[d],
                kind: usta_soc::DomainKind::CpuCluster,
                cores: 1 + d,
                opp: if d == 0 { big.clone() } else { little.clone() },
                full_load_w: weights[d],
            })
            .collect()
    }

    #[test]
    fn die_temps_break_remainder_ties_toward_the_hotter_cluster() {
        // Weights 1:1:6 under the one-level band shed 3 steps: domain 2
        // takes 2 (quota 2.25) and the last step is a dead fractional
        // tie between domains 0 and 1 (0.375 each).
        let domains = three_domains([1.0, 1.0, 6.0]);
        // Without temps the tie goes to the lower id…
        let cold = FrequencyCap::OneLevelBelowMax.max_allowed_levels(&domains);
        assert_eq!(cold.as_slice(), &[10, 5, 3]);
        // …with temps, to the hotter die.
        let caps = FrequencyCap::OneLevelBelowMax
            .max_allowed_levels_with_die_temps(&domains, &[40.0, 70.0, 55.0]);
        assert_eq!(caps.as_slice(), &[11, 4, 3]);
        // A wrong-length temp slice falls back to the id tie-break.
        let caps = FrequencyCap::OneLevelBelowMax
            .max_allowed_levels_with_die_temps(&domains, &[40.0, 70.0]);
        assert_eq!(caps.as_slice(), cold.as_slice());
        // Non-tied splits are unaffected by temps.
        let two = test_domains(3.6, 0.9);
        assert_eq!(
            FrequencyCap::TwoLevelsBelowMax
                .max_allowed_levels_with_die_temps(&two, &[90.0, 20.0])
                .as_slice(),
            FrequencyCap::TwoLevelsBelowMax
                .max_allowed_levels(&two)
                .as_slice()
        );
    }

    #[test]
    fn activity_flag() {
        assert!(!FrequencyCap::Unrestricted.is_active());
        assert!(FrequencyCap::OneLevelBelowMax.is_active());
        assert!(FrequencyCap::MinimumFrequency.is_active());
    }

    #[test]
    fn cap_tightens_monotonically_as_prediction_rises() {
        let p = UstaPolicy::new(Celsius(37.0));
        let opp = nexus4_opp();
        let mut prev = usize::MAX;
        for i in 0..200 {
            let t = Celsius(30.0 + i as f64 * 0.05);
            let level = p.decide(t).max_allowed_level(&opp);
            assert!(level <= prev, "cap must not loosen as prediction rises");
            prev = level;
        }
        assert_eq!(prev, 0);
    }

    #[test]
    fn per_user_limits_shift_the_bands() {
        let tolerant = UstaPolicy::new(Celsius(42.8));
        let sensitive = UstaPolicy::new(Celsius(34.0));
        let t = Celsius(36.0);
        assert_eq!(tolerant.decide(t), FrequencyCap::Unrestricted);
        assert_eq!(sensitive.decide(t), FrequencyCap::MinimumFrequency);
    }

    #[test]
    fn custom_margins_for_ablation() {
        let p = UstaPolicy::with_margins(Celsius(37.0), 4.0, 2.0, 1.0);
        assert_eq!(p.decide(Celsius(33.5)), FrequencyCap::OneLevelBelowMax);
        assert_eq!(p.decide(Celsius(35.5)), FrequencyCap::TwoLevelsBelowMax);
        assert_eq!(p.decide(Celsius(36.5)), FrequencyCap::MinimumFrequency);
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn unordered_margins_panic() {
        let _ = UstaPolicy::with_margins(Celsius(37.0), 1.0, 2.0, 0.5);
    }

    #[test]
    fn set_limit_switches_users() {
        let mut p = UstaPolicy::new(Celsius(37.0));
        assert_eq!(p.decide(Celsius(36.8)), FrequencyCap::MinimumFrequency);
        p.set_limit(Celsius(42.8));
        assert_eq!(p.limit(), Celsius(42.8));
        assert_eq!(p.decide(Celsius(36.8)), FrequencyCap::Unrestricted);
    }
}
