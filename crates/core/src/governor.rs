//! USTA as a governor layer: the banding policy driven by the predictor,
//! wrapped around any baseline cpufreq governor.
//!
//! The paper's structure (§3.B): "USTA performs skin temperature
//! prediction every 3 seconds and intervenes to enforce a DVFS decision
//! on the system only if skin temperature needs to be controlled.
//! Otherwise, the baseline DVFS performs its function for power
//! optimization only."
//!
//! The device loop drives this in two strands:
//! * every governor sampling period (100 ms): [`UstaGovernor::decide`] —
//!   delegates to the baseline, clamped by the current cap, translated
//!   to a per-domain cap vector on multi-domain devices (the skin
//!   budget splits across clusters by predicted power share — see
//!   [`FrequencyCap::max_allowed_levels`]);
//! * every step: [`UstaGovernor::tick_with`], internally rate-limited
//!   to the 3-second prediction cadence. Its feature closure runs only
//!   when a prediction is due ([`UstaGovernor::prediction_due`]), so
//!   the sensors are read on prediction steps alone.

use std::cmp::Ordering;

use crate::arbiter::{BudgetAllocation, PriceTable};
use crate::decision::{ArbiterShare, DecisionRecord};
use crate::features::FeatureVector;
use crate::policy::{FrequencyCap, UstaPolicy};
use crate::predictor::TemperaturePredictor;
use usta_governors::{CpuGovernor, DvfsDecision, GovernorInput};
use usta_ml::ResidualStats;
use usta_soc::{DomainKind, PerDomain, MAX_FREQ_DOMAINS};
use usta_thermal::Celsius;

/// Default prediction cadence, seconds (§3.B).
pub const DEFAULT_PREDICTION_PERIOD_S: f64 = 3.0;

/// The arbiter state kept across decisions. The prices are a pure
/// function of the domain set, which is fixed for a run, so they are
/// built once and rebuilt only when the domains differ. `last` is the
/// most recent allocation with the exact inputs the greedy read for
/// it, the band and the weighted demands' bits (see
/// [`crate::arbiter`]); it belongs to these prices and is dropped with
/// them.
#[derive(Debug)]
struct PricedArbiter {
    prices: PriceTable,
    last: Option<(FrequencyCap, [u64; MAX_FREQ_DOMAINS], BudgetAllocation)>,
}

/// The USTA governor: baseline DVFS + predictor-driven frequency cap.
#[derive(Debug)]
pub struct UstaGovernor {
    baseline: Box<dyn CpuGovernor>,
    predictor: TemperaturePredictor,
    policy: UstaPolicy,
    period_s: f64,
    since_prediction_s: f64,
    cap: FrequencyCap,
    last_prediction: Option<Celsius>,
    predictions_made: u64,
    capped_decisions: u64,
    arbiter_invocations: u64,
    arbiter_reuses: u64,
    die_temps: Option<PerDomain<f64>>,
    /// The arbiter's prices for the device last decided on, with the
    /// last allocation made from them.
    arbiter: Option<Box<PricedArbiter>>,
    /// Provenance of the most recent `decide` call — the flight
    /// recorder's source. Inline `Copy` data, refreshed in place.
    last_record: Option<DecisionRecord>,
    /// Streaming prediction residuals (predicted − actual at each
    /// prediction instant), fed by [`UstaGovernor::score_prediction`].
    residuals: ResidualStats,
}

impl UstaGovernor {
    /// Wraps `baseline` with USTA control for the given user policy.
    pub fn new(
        baseline: Box<dyn CpuGovernor>,
        predictor: TemperaturePredictor,
        policy: UstaPolicy,
    ) -> UstaGovernor {
        UstaGovernor {
            baseline,
            predictor,
            policy,
            period_s: DEFAULT_PREDICTION_PERIOD_S,
            // Force a prediction on the first tick.
            since_prediction_s: f64::INFINITY,
            cap: FrequencyCap::Unrestricted,
            last_prediction: None,
            predictions_made: 0,
            capped_decisions: 0,
            arbiter_invocations: 0,
            arbiter_reuses: 0,
            die_temps: None,
            arbiter: None,
            last_record: None,
            residuals: ResidualStats::new(),
        }
    }

    /// Feeds the latest per-cluster die temperatures (°C, big-first) —
    /// the cap splitter uses them to break power-share ties toward the
    /// hotter cluster. Optional: without them (or with a stale domain
    /// count) ties break toward the lower domain id, and single-domain
    /// devices are unaffected either way.
    pub fn observe_die_temperatures(&mut self, temps: &[Celsius]) {
        self.die_temps
            .get_or_insert_with(PerDomain::new)
            .refill(temps.len(), |d| temps[d].value());
    }

    /// Overrides the 3-second prediction cadence (for the cadence
    /// ablation; the paper suggests lengthening it to cut overhead).
    ///
    /// # Panics
    ///
    /// Panics if `period_s` is not positive.
    pub fn set_prediction_period(&mut self, period_s: f64) {
        assert!(
            period_s > 0.0 && period_s.is_finite(),
            "period must be positive"
        );
        self.period_s = period_s;
    }

    /// Feeds fresh sensor features; runs a prediction if the cadence
    /// elapsed. Returns the new cap when a prediction happened.
    pub fn tick(&mut self, features: &FeatureVector, dt: f64) -> Option<FrequencyCap> {
        self.tick_with(dt, || *features)
    }

    /// Whether the next `tick` (or `tick_with`) of `dt` seconds runs
    /// a prediction: the cadence comparison itself, so a caller can
    /// read sensors only on the steps that need them. Anything not
    /// short of the period is due, the infinite start included.
    pub fn prediction_due(&self, dt: f64) -> bool {
        (self.since_prediction_s + dt).partial_cmp(&self.period_s) != Some(Ordering::Less)
    }

    /// [`UstaGovernor::tick`] with the features built on demand:
    /// `features` runs only when a prediction is due.
    pub fn tick_with(
        &mut self,
        dt: f64,
        features: impl FnOnce() -> FeatureVector,
    ) -> Option<FrequencyCap> {
        if !self.prediction_due(dt) {
            self.since_prediction_s += dt;
            return None;
        }
        self.since_prediction_s = 0.0;
        let predicted = self.predictor.predict(&features());
        self.last_prediction = Some(predicted);
        self.predictions_made += 1;
        self.cap = self.policy.decide(predicted);
        Some(self.cap)
    }

    /// The cap currently in force.
    pub fn cap(&self) -> FrequencyCap {
        self.cap
    }

    /// The most recent skin-temperature prediction.
    pub fn last_prediction(&self) -> Option<Celsius> {
        self.last_prediction
    }

    /// Scores the *previous* prediction against the skin temperature
    /// actually reached by the time the next prediction ran: the run
    /// loop calls this at each prediction instant with the prior
    /// prediction and the current true (or thermistor) skin reading.
    /// The signed residual (predicted − actual) folds into
    /// [`UstaGovernor::residuals`] and surfaces on the next
    /// [`DecisionRecord`].
    pub fn score_prediction(&mut self, predicted: Celsius, actual: Celsius) {
        self.residuals.record(predicted.value() - actual.value());
    }

    /// Streaming residual statistics over every scored prediction.
    pub fn residuals(&self) -> &ResidualStats {
        &self.residuals
    }

    /// Provenance of the most recent [`CpuGovernor::decide`] call
    /// (`None` before the first decision or after a reset).
    pub fn last_decision_record(&self) -> Option<&DecisionRecord> {
        self.last_record.as_ref()
    }

    /// How many predictions have run (for overhead accounting).
    pub fn predictions_made(&self) -> u64 {
        self.predictions_made
    }

    /// How many [`CpuGovernor::decide`] calls this governor actually
    /// tightened — its cap vector cut below the externally allowed
    /// levels on at least one domain. Deterministic work, so it joins
    /// the golden surface.
    pub fn capped_decisions(&self) -> u64 {
        self.capped_decisions
    }

    /// How many decisions engaged the power-budget arbiter (zero on
    /// CPU-only devices). Deterministic work.
    pub fn arbiter_invocations(&self) -> u64 {
        self.arbiter_invocations
    }

    /// How many of those decisions returned the previous allocation
    /// because the band and the weighted demands repeated bit for bit
    /// (at most [`UstaGovernor::arbiter_invocations`]).
    pub fn arbiter_reuses(&self) -> u64 {
        self.arbiter_reuses
    }

    /// The user policy in force.
    pub fn policy(&self) -> &UstaPolicy {
        &self.policy
    }

    /// Switches the comfort limit (configuring USTA for another user).
    pub fn set_limit(&mut self, limit: Celsius) {
        self.policy.set_limit(limit);
    }

    /// The wrapped predictor.
    pub fn predictor(&self) -> &TemperaturePredictor {
        &self.predictor
    }

    /// The system-level branch of [`CpuGovernor::decide`]: the band
    /// re-spent as watts across every domain, priced from the cached
    /// table, and the previous allocation returned when the band and
    /// the weighted demands repeat exactly. Kept out of line so the
    /// CPU-only path stays small.
    #[inline(never)]
    fn arbitrate(&mut self, input: &GovernorInput<'_>) -> (PerDomain<usize>, ArbiterShare) {
        let n = input.domains.len();
        let mut demand = [0.0; MAX_FREQ_DOMAINS];
        for (d, sample) in demand.iter_mut().zip(&input.samples[..n]) {
            *d = sample.max_utilization;
        }
        let hottest = input.die_temp_c.or_else(|| {
            self.die_temps
                .as_ref()
                .and_then(|t| t.iter().copied().reduce(f64::max))
        });
        let arbiter = match &mut self.arbiter {
            Some(arbiter) if arbiter.prices.is_for(input.domains) => arbiter,
            slot => slot.insert(Box::new(PricedArbiter {
                prices: PriceTable::new(input.domains),
                last: None,
            })),
        };
        self.arbiter_invocations += 1;
        let weighted = arbiter.prices.weighted_demands(&demand[..n], hottest);
        let key = weighted.map(f64::to_bits);
        let allocation = match &arbiter.last {
            Some((band, bits, allocation)) if *band == self.cap && *bits == key => {
                self.arbiter_reuses += 1;
                allocation
            }
            _ => {
                let allocation = arbiter.prices.allocate(self.cap, &weighted[..n]);
                &arbiter.last.insert((self.cap, key, allocation)).2
            }
        };
        let share = ArbiterShare {
            budget_w: allocation.budget_w,
            allocated_w: allocation.allocated_w,
        };
        (allocation.caps, share)
    }
}

impl CpuGovernor for UstaGovernor {
    fn name(&self) -> &str {
        "usta"
    }

    fn decide(&mut self, input: &GovernorInput<'_>) -> DvfsDecision {
        // USTA's cap vector meets any external per-domain cap; the
        // baseline sees the tighter of the two and its output is
        // clamped to USTA's caps besides. On devices with system-level
        // domains (GPU, display) the band is converted to a watt
        // budget and re-spent across every domain by the arbiter; a
        // CPU-only device keeps the historical power-share splitter
        // (skin budget split by full-load share, ties to the hotter
        // die when temperatures were observed), bit for bit.
        let system_level = input
            .domains
            .iter()
            .any(|d| d.kind != DomainKind::CpuCluster);
        let arbitrated = system_level.then(|| self.arbitrate(input));
        let n = input.domains.len();
        // The record is kept and rewritten in place.
        let record = self.last_record.get_or_insert_with(DecisionRecord::default);
        record.arbiter = arbitrated.map(|(_, share)| share);
        match arbitrated {
            Some((caps, _)) => record.usta_caps = caps,
            None => self.cap.max_allowed_levels_into(
                input.domains,
                self.die_temps.as_ref().map_or(&[], |t| t.as_slice()),
                &mut record.usta_caps,
            ),
        }
        let usta_caps = &record.usta_caps;
        let tightened = (0..n).any(|d| usta_caps[d] < input.max_allowed_levels[d]);
        if tightened {
            self.capped_decisions += 1;
        }
        record.band = self.cap;
        record.tightened = tightened;
        record.predicted_skin = self.last_prediction;
        record.residual_c = (!self.residuals.is_empty()).then(|| self.residuals.last());
        let mut effective = [0; MAX_FREQ_DOMAINS];
        for ((e, &allowed), &cap) in effective
            .iter_mut()
            .zip(&input.max_allowed_levels[..n])
            .zip(usta_caps.as_slice())
        {
            *e = allowed.min(cap);
        }
        let clamped = GovernorInput {
            max_allowed_levels: &effective[..n],
            ..*input
        };
        self.baseline
            .decide(&clamped)
            .clamped_to(usta_caps.as_slice())
    }

    fn reset(&mut self) {
        self.baseline.reset();
        self.since_prediction_s = f64::INFINITY;
        self.cap = FrequencyCap::Unrestricted;
        self.last_prediction = None;
        self.predictions_made = 0;
        self.capped_decisions = 0;
        self.arbiter_invocations = 0;
        self.arbiter_reuses = 0;
        self.die_temps = None;
        self.arbiter = None;
        self.last_record = None;
        self.residuals = ResidualStats::new();
    }

    fn sampling_period(&self) -> f64 {
        self.baseline.sampling_period()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter;
    use crate::nexus4_opp;
    use crate::predictor::PredictionTarget;
    use crate::training::{LoggedSample, TrainingLog};
    use usta_governors::{DomainSample, FreqDomain, OnDemand};
    use usta_ml::reptree::RepTreeParams;
    use usta_ml::Learner;

    /// A log where skin temperature equals battery temperature — gives a
    /// predictor whose output we can steer precisely in tests.
    fn identity_predictor() -> TemperaturePredictor {
        let log: TrainingLog = (0..600)
            .map(|i| {
                let t = 25.0 + (i % 200) as f64 / 10.0; // 25..45 °C
                LoggedSample {
                    t: i as f64,
                    features: FeatureVector::single(Celsius(t + 8.0), Celsius(t), 0.5, 1_000_000.0),
                    skin: Celsius(t),
                    screen: Celsius(t - 2.0),
                }
            })
            .collect();
        TemperaturePredictor::train(
            &Learner::RepTree(RepTreeParams::default()),
            &log,
            PredictionTarget::Skin,
            3,
        )
        .unwrap()
    }

    fn features(batt: f64) -> FeatureVector {
        FeatureVector::single(Celsius(batt + 8.0), Celsius(batt), 0.5, 1_000_000.0)
    }

    fn single_domain() -> Vec<FreqDomain> {
        vec![FreqDomain {
            id: 0,
            name: "cpu",
            kind: usta_soc::DomainKind::CpuCluster,
            cores: 4,
            opp: nexus4_opp(),
            full_load_w: 3.6,
        }]
    }

    /// A big.LITTLE pair: the nexus4 table as the big cluster, its
    /// lower half as the LITTLE one, with a 4:1 power split.
    fn two_domains() -> Vec<FreqDomain> {
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
                full_load_w: 3.6,
            },
            FreqDomain {
                id: 1,
                name: "little",
                kind: usta_soc::DomainKind::CpuCluster,
                cores: 4,
                opp: little,
                full_load_w: 0.9,
            },
        ]
    }

    /// Saturated-load decision with one domain at `cur`, capped at
    /// `cap`.
    fn decide_single(g: &mut UstaGovernor, cur: usize, cap: usize) -> usize {
        let domains = single_domain();
        let samples = [DomainSample {
            avg_utilization: 1.0,
            max_utilization: 1.0,
            current_level: cur,
        }];
        let caps = [cap];
        g.decide(&GovernorInput {
            domains: &domains,
            samples: &samples,
            max_allowed_levels: &caps,
            die_temp_c: None,
        })
        .level(0)
    }

    fn usta() -> UstaGovernor {
        UstaGovernor::new(
            Box::new(OnDemand::default()),
            identity_predictor(),
            UstaPolicy::new(Celsius(37.0)),
        )
    }

    #[test]
    fn first_tick_predicts_immediately() {
        let mut g = usta();
        let cap = g.tick(&features(30.0), 0.1);
        assert_eq!(cap, Some(FrequencyCap::Unrestricted));
        assert_eq!(g.predictions_made(), 1);
    }

    #[test]
    fn cadence_is_three_seconds() {
        let mut g = usta();
        g.tick(&features(30.0), 0.1); // immediate first prediction
        let mut predictions = 1;
        // 30 simulated seconds at 100 ms ticks → 10 more predictions.
        for _ in 0..300 {
            if g.tick(&features(30.0), 0.1).is_some() {
                predictions += 1;
            }
        }
        assert_eq!(predictions, 11);
    }

    #[test]
    fn hot_prediction_caps_the_baseline() {
        let top = nexus4_opp().max_index();
        let mut g = usta();
        g.tick(&features(36.8), 0.1); // within 0.5 °C of 37 → minimum
        assert_eq!(g.cap(), FrequencyCap::MinimumFrequency);
        assert_eq!(
            decide_single(&mut g, 5, top),
            0,
            "saturated CPU must stay at min level"
        );
    }

    #[test]
    fn cool_prediction_leaves_baseline_alone() {
        let top = nexus4_opp().max_index();
        let mut g = usta();
        g.tick(&features(28.0), 0.1);
        assert_eq!(g.cap(), FrequencyCap::Unrestricted);
        assert_eq!(decide_single(&mut g, 0, top), top);
    }

    #[test]
    fn one_and_two_level_bands_cap_accordingly() {
        let top = nexus4_opp().max_index();
        let mut g = usta();
        g.tick(&features(35.5), 0.1); // margin 1.5 → one level below max
        assert_eq!(g.cap(), FrequencyCap::OneLevelBelowMax);
        assert_eq!(decide_single(&mut g, 5, top), top - 1);
    }

    #[test]
    fn hot_prediction_pins_every_domain() {
        let domains = two_domains();
        let mut g = usta();
        g.tick(&features(36.8), 0.1);
        let samples = [DomainSample {
            avg_utilization: 1.0,
            max_utilization: 1.0,
            current_level: 5,
        }; 2];
        let caps = [domains[0].max_index(), domains[1].max_index()];
        let decision = g.decide(&GovernorInput {
            domains: &domains,
            samples: &samples,
            max_allowed_levels: &caps,
            die_temp_c: None,
        });
        assert_eq!(decision.levels(), &[0, 0]);
    }

    #[test]
    fn one_level_band_cuts_the_big_cluster_first() {
        let domains = two_domains();
        let mut g = usta();
        g.tick(&features(35.5), 0.1); // one-level band
        assert_eq!(g.cap(), FrequencyCap::OneLevelBelowMax);
        let samples = [DomainSample {
            avg_utilization: 1.0,
            max_utilization: 1.0,
            current_level: 5,
        }; 2];
        let caps = [domains[0].max_index(), domains[1].max_index()];
        let decision = g.decide(&GovernorInput {
            domains: &domains,
            samples: &samples,
            max_allowed_levels: &caps,
            die_temp_c: None,
        });
        // 2 total steps, 4:1 power split → both land on the big
        // cluster; the LITTLE one keeps its top level.
        assert_eq!(
            decision.levels(),
            &[domains[0].max_index() - 2, domains[1].max_index()]
        );
    }

    #[test]
    fn cap_releases_when_device_cools() {
        let mut g = usta();
        g.tick(&features(36.9), 0.1);
        assert!(g.cap().is_active());
        // 3 s later the device cooled well below the band.
        g.tick(&features(30.0), 3.0);
        assert_eq!(g.cap(), FrequencyCap::Unrestricted);
    }

    #[test]
    fn respects_external_cap_too() {
        let mut g = usta();
        g.tick(&features(28.0), 0.1); // USTA unrestricted
                                      // Some other thermal layer caps the domain at level 4.
        assert_eq!(decide_single(&mut g, 5, 4), 4);
    }

    #[test]
    fn reset_restores_pristine_state() {
        let mut g = usta();
        g.tick(&features(36.9), 0.1);
        g.reset();
        assert_eq!(g.cap(), FrequencyCap::Unrestricted);
        assert_eq!(g.predictions_made(), 0);
        assert!(g.last_prediction().is_none());
    }

    #[test]
    fn per_user_configuration_changes_behaviour() {
        let mut g = usta();
        g.set_limit(Celsius(42.8)); // the paper's most tolerant user
        g.tick(&features(36.9), 0.1);
        assert_eq!(g.cap(), FrequencyCap::Unrestricted);
        assert_eq!(g.policy().limit(), Celsius(42.8));
    }

    /// One CPU cluster plus a display — the smallest domain set that
    /// engages the arbiter.
    fn cpu_plus_display() -> Vec<FreqDomain> {
        let display =
            usta_soc::spec::brightness_opp_table(&[100, 400, 700, 1000]).expect("valid ladder");
        let mut domains = single_domain();
        domains.push(FreqDomain {
            id: 1,
            name: "display",
            kind: usta_soc::DomainKind::Display,
            cores: 1,
            opp: display,
            full_load_w: 1.1,
        });
        domains
    }

    #[test]
    fn capped_decisions_count_only_tightened_calls() {
        let top = nexus4_opp().max_index();
        let mut g = usta();
        g.tick(&features(28.0), 0.1); // unrestricted
        decide_single(&mut g, 0, top);
        assert_eq!(g.capped_decisions(), 0);
        assert_eq!(
            g.arbiter_invocations(),
            0,
            "CPU-only devices never engage the arbiter"
        );
        g.tick(&features(36.8), 3.0); // minimum-frequency band
        decide_single(&mut g, 5, top);
        assert_eq!(g.capped_decisions(), 1);
    }

    #[test]
    fn arbiter_counters_and_price_table_track_system_decides() {
        let domains = cpu_plus_display();
        let samples = [DomainSample {
            avg_utilization: 1.0,
            max_utilization: 1.0,
            current_level: 0,
        }; 2];
        let caps = [domains[0].max_index(), domains[1].max_index()];
        let input = GovernorInput {
            domains: &domains,
            samples: &samples,
            max_allowed_levels: &caps,
            die_temp_c: None,
        };
        let mut g = usta();
        g.tick(&features(28.0), 0.1); // unrestricted
        let first = g.decide(&input);
        assert_eq!(g.arbiter_invocations(), 1);
        assert_eq!(
            g.capped_decisions(),
            0,
            "unrestricted band tightens nothing"
        );
        // The second decide reuses the price table and must agree.
        let second = g.decide(&input);
        assert_eq!(first.levels(), second.levels());
        assert_eq!(g.arbiter_invocations(), 2);
        // A new cap reads another budget from the same table: the
        // minimum band pins both domains to their floors.
        g.tick(&features(36.8), 3.0);
        assert_eq!(g.cap(), FrequencyCap::MinimumFrequency);
        assert_eq!(g.decide(&input).levels(), &[0, 0]);
        assert_eq!(g.capped_decisions(), 1);
        g.reset();
        assert_eq!(g.arbiter_invocations(), 0);
        assert_eq!(g.capped_decisions(), 0);
    }

    #[test]
    fn reused_governor_reprices_a_different_device_of_equal_domain_count() {
        // Two devices with the same domain count and different power:
        // a governor reused across them without `reset` must spend the
        // second device's budget, not the first's.
        let first = cpu_plus_display();
        let mut second = cpu_plus_display();
        second[0].full_load_w = 5.0;
        second[1].full_load_w = 0.6;
        let samples = [DomainSample {
            avg_utilization: 1.0,
            max_utilization: 1.0,
            current_level: 0,
        }; 2];
        let caps = [first[0].max_index(), first[1].max_index()];
        let mut g = usta();
        g.tick(&features(28.0), 0.1); // unrestricted
        for domains in [&first, &second, &first] {
            g.decide(&GovernorInput {
                domains,
                samples: &samples,
                max_allowed_levels: &caps,
                die_temp_c: None,
            });
            let share = g
                .last_decision_record()
                .and_then(|r| r.arbiter)
                .expect("system-level decide engages the arbiter");
            let fresh = arbiter::arbitrate(g.cap(), domains, &[1.0, 1.0], None);
            assert_eq!(share.budget_w.to_bits(), fresh.budget_w.to_bits());
            assert_eq!(share.allocated_w.to_bits(), fresh.allocated_w.to_bits());
        }
    }

    #[test]
    fn decision_record_surfaces_band_caps_and_tightening() {
        let top = nexus4_opp().max_index();
        let mut g = usta();
        assert!(g.last_decision_record().is_none(), "no decision yet");
        g.tick(&features(28.0), 0.1); // unrestricted
        decide_single(&mut g, 0, top);
        let record = *g.last_decision_record().expect("decision ran");
        assert_eq!(record.band, FrequencyCap::Unrestricted);
        assert!(!record.tightened);
        assert!(record.arbiter.is_none(), "CPU-only path skips the arbiter");
        assert!(record.predicted_skin.is_some());
        assert!(record.residual_c.is_none(), "one prediction has no score");
        g.tick(&features(36.8), 3.0); // minimum band
        decide_single(&mut g, 5, top);
        let record = g.last_decision_record().expect("decision ran");
        assert_eq!(record.band, FrequencyCap::MinimumFrequency);
        assert!(record.tightened);
        assert_eq!(record.usta_caps.as_slice(), &[0]);
        g.reset();
        assert!(
            g.last_decision_record().is_none(),
            "reset clears the record"
        );
    }

    #[test]
    fn decision_record_carries_the_arbiter_budget_on_system_devices() {
        let domains = cpu_plus_display();
        let samples = [DomainSample {
            avg_utilization: 1.0,
            max_utilization: 1.0,
            current_level: 0,
        }; 2];
        let caps = [domains[0].max_index(), domains[1].max_index()];
        let mut g = usta();
        g.tick(&features(28.0), 0.1);
        g.decide(&GovernorInput {
            domains: &domains,
            samples: &samples,
            max_allowed_levels: &caps,
            die_temp_c: None,
        });
        let share = g
            .last_decision_record()
            .and_then(|r| r.arbiter)
            .expect("system-level decide engages the arbiter");
        assert!(share.budget_w > 0.0);
        assert!(share.allocated_w <= share.budget_w + 1e-9);
    }

    #[test]
    fn scored_predictions_surface_as_residuals() {
        let mut g = usta();
        assert!(g.residuals().is_empty());
        g.tick(&features(30.0), 0.1);
        let first = g.last_prediction().expect("prediction ran");
        g.tick(&features(30.0), 3.0);
        g.score_prediction(first, Celsius(first.value() + 0.5));
        assert_eq!(g.residuals().count(), 1);
        assert!((g.residuals().last() + 0.5).abs() < 1e-12);
        let top = nexus4_opp().max_index();
        decide_single(&mut g, 0, top);
        let record = g.last_decision_record().expect("decision ran");
        assert_eq!(record.residual_c, Some(g.residuals().last()));
    }

    #[test]
    fn prediction_due_agrees_with_the_next_tick() {
        for dt in [0.05, 0.1, 0.3] {
            for period in [0.25, 1.0, 3.0, 10.0] {
                let mut g = usta();
                g.set_prediction_period(period);
                // The eager cadence `tick` always ran: accumulate, then
                // predict unless still short of the period.
                let mut since = f64::INFINITY;
                let mut predictions = 0;
                for i in 0..10_000 {
                    if i == 5_000 {
                        // A reset restarts the cadence: due at once.
                        g.reset();
                        since = f64::INFINITY;
                        assert!(g.prediction_due(dt), "dt {dt}, period {period}");
                    }
                    since += dt;
                    let reference = if since < period {
                        false
                    } else {
                        since = 0.0;
                        true
                    };
                    let due = g.prediction_due(dt);
                    assert_eq!(due, reference, "dt {dt}, period {period}, tick {i}");
                    let predicted = if i % 2 == 0 {
                        g.tick(&features(30.0), dt).is_some()
                    } else {
                        let mut built = false;
                        let predicted = g
                            .tick_with(dt, || {
                                built = true;
                                features(30.0)
                            })
                            .is_some();
                        assert_eq!(built, predicted, "features built only when due");
                        predicted
                    };
                    assert_eq!(due, predicted, "dt {dt}, period {period}, tick {i}");
                    predictions += usize::from(predicted);
                }
                assert!(predictions >= 2, "one prediction opens each half");
            }
        }
    }

    #[test]
    fn custom_cadence_is_respected() {
        let mut g = usta();
        g.set_prediction_period(10.0);
        g.tick(&features(30.0), 0.1);
        let mut predictions = 1;
        for _ in 0..305 {
            // ~30.5 s at 100 ms; the extra ticks absorb f64 accumulation
            // drift (100 × 0.1 sums just below 10.0).
            if g.tick(&features(30.0), 0.1).is_some() {
                predictions += 1;
            }
        }
        assert_eq!(predictions, 4, "≈30 s / 10 s cadence = 3 more predictions");
    }
}
