//! The multi-domain control plane's cross-crate guarantees.
//!
//! 1. **Thermal contract, everywhere:** every governor the factory can
//!    construct (plus USTA wrapped around ondemand), on every builtin
//!    device, never exceeds any per-domain cap across random
//!    utilization sequences and random cap vectors.
//! 2. **Seed regression:** the nexus4 single-domain path through the
//!    redesigned plane reproduces the pre-redesign trajectory **bit
//!    for bit** — the golden constants below were captured from the
//!    single-`GovernorInput` implementation immediately before the
//!    multi-domain refactor.
//! 3. **Genuine two-domain behaviour:** flagship-octa's clusters run
//!    at distinct frequencies, and the big cluster absorbs USTA's
//!    one-level band before the LITTLE cluster loses anything.
//! 4. **The priced arbiter is the per-call arbiter:** a
//!    [`PriceTable`] allocates exactly what the reference greedy, which
//!    re-prices every step it considers, allocates — to the bit.
//! 5. **The governor's reused allocation is a fresh one:** every
//!    decision of a [`UstaGovernor`], whether it ran the greedy or
//!    returned its last allocation, records what a fresh
//!    [`arbitrate`] allocates — to the bit.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::path::Path;
use std::sync::OnceLock;
use usta_catalog::Catalog;
use usta_core::arbiter::{power_at_level, PriceTable};
use usta_core::governor::DEFAULT_PREDICTION_PERIOD_S;
use usta_core::policy::FrequencyCap;
use usta_core::{
    arbitrate, BudgetAllocation, FeatureVector, PredictionTarget, TemperaturePredictor,
    UstaGovernor, UstaPolicy,
};
use usta_governors::{
    by_name, CpuGovernor, DomainKind, DomainSample, FreqDomain, GovernorInput, OnDemand, NAMES,
};
use usta_ml::Regressor;
use usta_sim::runner::DvfsLoop;
use usta_sim::{run_workload, Device, DeviceConfig, Governor, RunConfig};
use usta_soc::{FrequencyLevel, OppTable};
use usta_thermal::Celsius;
use usta_workloads::{Benchmark, ConstantLoad, Workload};

/// The arbiter as it ran before the price table, shared with
/// `usta-core`'s unit tests.
#[path = "../crates/core/src/arbiter/reference.rs"]
mod reference;

fn freq_domains_of(id: &str) -> Vec<FreqDomain> {
    let device = Device::new(DeviceConfig::for_device_id(id).expect("builtin id"))
        .expect("catalog device builds");
    device.freq_domains()
}

/// Every built-in device's domain set, plus the file-only sd8s-gen3
/// loaded from the committed catalog.
fn arbiter_devices() -> &'static [(&'static str, Vec<FreqDomain>)] {
    static DEVICES: OnceLock<Vec<(&'static str, Vec<FreqDomain>)>> = OnceLock::new();
    DEVICES.get_or_init(|| {
        let catalog =
            Catalog::load_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("../../catalog"))
                .expect("committed catalog loads");
        let sd8s = catalog
            .device("sd8s-gen3")
            .expect("sd8s-gen3 is committed")
            .clone();
        usta_device::NAMES
            .iter()
            .map(|id| DeviceConfig::for_device_id(id).expect("builtin id"))
            .chain([DeviceConfig::for_device(sd8s)])
            .map(|config| {
                let id = config.spec.id;
                let device = Device::new(config).expect("catalog device builds");
                (id, device.freq_domains())
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Satellite: no governor, on any builtin device, ever exceeds any
    /// per-domain cap — across random utilization sequences, random
    /// starting levels, and random per-step cap vectors.
    #[test]
    fn no_governor_exceeds_any_per_domain_cap(
        device_index in 0usize..usta_device::NAMES.len(),
        loads in proptest::collection::vec(0.0f64..1.0, 24),
        caps_raw in proptest::collection::vec(0usize..16, 24),
        start in 0usize..16,
    ) {
        let id = usta_device::NAMES[device_index];
        let domains = freq_domains_of(id);
        let n = domains.len();
        for name in NAMES {
            let mut governor = by_name(name).expect("factory name");
            let mut levels: Vec<usize> = domains
                .iter()
                .map(|d| d.opp.clamp_index(start))
                .collect();
            for (step, &load) in loads.iter().enumerate() {
                // A different cap per domain per step: rotate the raw
                // cap sequence by domain id.
                let caps: Vec<usize> = (0..n)
                    .map(|d| domains[d].opp.clamp_index(caps_raw[(step + d) % caps_raw.len()]))
                    .collect();
                let samples: Vec<DomainSample> = (0..n)
                    .map(|d| DomainSample {
                        avg_utilization: load,
                        max_utilization: (load * 1.2).min(1.0),
                        current_level: levels[d],
                    })
                    .collect();
                let input = GovernorInput {
                    domains: &domains,
                    samples: &samples,
                    max_allowed_levels: &caps,
                    die_temp_c: None,
                };
                let decision = governor.decide(&input);
                prop_assert_eq!(decision.domain_count(), n, "{}/{}", id, name);
                for d in 0..n {
                    prop_assert!(
                        decision.level(d) <= caps[d],
                        "{}/{} domain {} level {} above cap {}",
                        id, name, d, decision.level(d), caps[d]
                    );
                    levels[d] = decision.level(d);
                }
            }
        }
    }
}

fn band_of(index: usize) -> FrequencyCap {
    match index {
        0 => FrequencyCap::Unrestricted,
        1 => FrequencyCap::OneLevelBelowMax,
        2 => FrequencyCap::TwoLevelsBelowMax,
        _ => FrequencyCap::MinimumFrequency,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Satellite: the power-budget arbiter never spends more watts than
    /// the band budget and never emits a cap above any domain's OPP
    /// ceiling — on every catalog device, for every USTA band, across
    /// random demand vectors and die temperatures.
    #[test]
    fn arbiter_respects_budget_and_opp_ceilings(
        device_index in 0usize..usta_device::NAMES.len(),
        band_index in 0usize..4,
        demand_raw in proptest::collection::vec(0.0f64..1.0, 8),
        die_raw in 15.0f64..95.0,
        has_die in proptest::bool::ANY,
    ) {
        let die_c = has_die.then_some(die_raw);
        let id = usta_device::NAMES[device_index];
        let domains = freq_domains_of(id);
        let demand: Vec<f64> = (0..domains.len())
            .map(|d| demand_raw[d % demand_raw.len()])
            .collect();
        let band = band_of(band_index);
        let allocation: BudgetAllocation = arbitrate(band, &domains, &demand, die_c);
        prop_assert_eq!(allocation.caps.len(), domains.len(), "{}", id);
        for (d, domain) in domains.iter().enumerate() {
            prop_assert!(
                allocation.caps[d] <= domain.max_index(),
                "{}/{:?} domain {} cap {} above OPP ceiling {}",
                id, band, d, allocation.caps[d], domain.max_index()
            );
        }
        prop_assert!(
            allocation.allocated_w <= allocation.budget_w * (1.0 + 1e-9) + 1e-12,
            "{}/{:?} allocated {} W over budget {} W",
            id, band, allocation.allocated_w, allocation.budget_w
        );
    }

    /// The arbiter is a pure function of its inputs: identical calls
    /// yield identical allocations (fleet determinism rides on this).
    #[test]
    fn arbiter_is_deterministic(
        device_index in 0usize..usta_device::NAMES.len(),
        band_index in 0usize..4,
        demand_raw in proptest::collection::vec(0.0f64..1.0, 8),
        die_raw in 15.0f64..95.0,
        has_die in proptest::bool::ANY,
    ) {
        let die_c = has_die.then_some(die_raw);
        let id = usta_device::NAMES[device_index];
        let domains = freq_domains_of(id);
        let demand: Vec<f64> = (0..domains.len())
            .map(|d| demand_raw[d % demand_raw.len()])
            .collect();
        let band = band_of(band_index);
        let a = arbitrate(band, &domains, &demand, die_c);
        let b = arbitrate(band, &domains, &demand, die_c);
        prop_assert_eq!(a.caps.as_slice(), b.caps.as_slice(), "{}", id);
        prop_assert_eq!(a.allocated_w.to_bits(), b.allocated_w.to_bits(), "{}", id);
        prop_assert_eq!(a.budget_w.to_bits(), b.budget_w.to_bits(), "{}", id);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The price table changes how often the arbiter prices a step,
    /// not what it decides: on every device (sd8s-gen3 from the
    /// catalog included), every band, demand in and out of [0, 1] or
    /// NaN, with and without a die temperature, its allocation equals
    /// the reference's bit for bit.
    #[test]
    fn priced_arbiter_matches_the_reference_bit_for_bit(
        device_index in 0usize..usta_device::NAMES.len() + 1,
        band_index in 0usize..4,
        demand_raw in proptest::collection::vec(-0.5f64..1.5, 8),
        nan_at in 0usize..16,
        die_raw in 15.0f64..95.0,
        has_die in proptest::bool::ANY,
    ) {
        let (id, domains) = &arbiter_devices()[device_index];
        let mut demand: Vec<f64> = (0..domains.len())
            .map(|d| demand_raw[d % demand_raw.len()])
            .collect();
        if let Some(slot) = demand.get_mut(nan_at) {
            *slot = f64::NAN;
        }
        let die_c = has_die.then_some(die_raw);
        let band = band_of(band_index);
        let priced = PriceTable::new(domains).arbitrate(band, &demand, die_c);
        let oracle = reference::arbitrate(band, domains, &demand, die_c);
        prop_assert_eq!(priced.caps.as_slice(), oracle.caps.as_slice(), "{}/{:?}", id, band);
        prop_assert_eq!(priced.budget_w.to_bits(), oracle.budget_w.to_bits(), "{}", id);
        prop_assert_eq!(priced.allocated_w.to_bits(), oracle.allocated_w.to_bits(), "{}", id);
    }
}

/// The devices with a GPU or display domain: the ones whose USTA
/// decisions run the arbiter.
fn system_level_devices() -> Vec<&'static (&'static str, Vec<FreqDomain>)> {
    arbiter_devices()
        .iter()
        .filter(|(_, domains)| domains.iter().any(|d| d.kind != DomainKind::CpuCluster))
        .collect()
}

/// The skin temperature [`ConstantSkin`] predicts.
const PREDICTED_SKIN_C: f64 = 30.0;

/// A model that predicts [`PREDICTED_SKIN_C`] whatever it reads, so a
/// governor's band follows its comfort limit alone.
#[derive(Debug, Clone)]
struct ConstantSkin;

impl Regressor for ConstantSkin {
    fn predict(&self, _features: &[f64]) -> f64 {
        PREDICTED_SKIN_C
    }

    fn name(&self) -> &'static str {
        "constant"
    }

    fn boxed_clone(&self) -> Box<dyn Regressor> {
        Box::new(ConstantSkin)
    }
}

/// USTA over ondemand, steered between bands by [`set_band`].
fn steerable_usta() -> UstaGovernor {
    UstaGovernor::new(
        Box::new(OnDemand::default()),
        TemperaturePredictor::from_model(Box::new(ConstantSkin), PredictionTarget::Skin),
        UstaPolicy::new(Celsius(PREDICTED_SKIN_C + 3.0)),
    )
}

/// Moves `g` into `band`: a comfort limit whose margin over the
/// constant prediction lies inside the band, then a tick long enough
/// to run a prediction.
fn set_band(g: &mut UstaGovernor, band: FrequencyCap) {
    let margin = match band {
        FrequencyCap::Unrestricted => 3.0,
        FrequencyCap::OneLevelBelowMax => 1.5,
        FrequencyCap::TwoLevelsBelowMax => 0.75,
        FrequencyCap::MinimumFrequency => 0.25,
    };
    g.set_limit(Celsius(PREDICTED_SKIN_C + margin));
    let features = FeatureVector::single(Celsius(40.0), Celsius(30.0), 0.5, 1_000_000.0);
    g.tick(&features, DEFAULT_PREDICTION_PERIOD_S);
    assert_eq!(g.cap(), band);
}

/// One decision of `g` on `domains` with every domain's utilization
/// from `demand`; asserts the recorded caps and budget arithmetic
/// equal a fresh [`arbitrate`] of the same inputs, bit for bit.
fn decide_and_check(
    g: &mut UstaGovernor,
    id: &str,
    domains: &[FreqDomain],
    demand: &[f64],
    die_c: Option<f64>,
) -> Result<(), TestCaseError> {
    let samples: Vec<DomainSample> = demand
        .iter()
        .map(|&u| DomainSample {
            avg_utilization: u,
            max_utilization: u,
            current_level: 0,
        })
        .collect();
    let caps: Vec<usize> = domains.iter().map(FreqDomain::max_index).collect();
    g.decide(&GovernorInput {
        domains,
        samples: &samples,
        max_allowed_levels: &caps,
        die_temp_c: die_c,
    });
    let record = *g.last_decision_record().expect("the decision ran");
    let fresh = arbitrate(g.cap(), domains, demand, die_c);
    let share = record
        .arbiter
        .expect("a system-level decision runs the arbiter");
    prop_assert_eq!(record.band, g.cap(), "{}", id);
    prop_assert_eq!(
        record.usta_caps,
        fresh.caps,
        "{}/{:?} {:?} {:?}",
        id,
        g.cap(),
        demand,
        die_c
    );
    prop_assert_eq!(share.budget_w.to_bits(), fresh.budget_w.to_bits(), "{}", id);
    prop_assert_eq!(
        share.allocated_w.to_bits(),
        fresh.allocated_w.to_bits(),
        "{}",
        id
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The governor's one-entry allocation memo is exact: on every
    /// arbiter device (sd8s-gen3 from the catalog included), across
    /// decision sequences that revisit three sample vectors (two of
    /// them one domain away from the first, and demand beyond 1 folds
    /// onto 1, so raw inputs differ where weighted ones repeat), change
    /// band now and then, and move the hottest die across the 40 °C
    /// derate knee, every decision records what a fresh arbitration of
    /// its inputs allocates.
    #[test]
    fn memoized_decisions_equal_a_fresh_arbitration(
        device_index in 0usize..3,
        base in proptest::collection::vec(0.0f64..1.3, 8),
        moved in proptest::collection::vec(0usize..8, 2),
        moved_to in proptest::collection::vec(0.0f64..1.3, 2),
        die_pool in proptest::collection::vec(25.0f64..55.0, 2),
        len in 1usize..48,
        sample_picks in proptest::collection::vec(0usize..3, 48),
        die_picks in proptest::collection::vec(0usize..4, 48),
        band_picks in proptest::collection::vec(0usize..12, 48),
    ) {
        let devices = system_level_devices();
        prop_assert_eq!(devices.len(), 3, "flagship-octa, prime-flagship and sd8s-gen3");
        let (id, domains) = devices[device_index];
        let n = domains.len();
        let mut pool = vec![base[..n].to_vec(); 3];
        for v in 0..2 {
            pool[v + 1][moved[v] % n] = moved_to[v];
        }
        let mut g = steerable_usta();
        for step in 0..len {
            let (sample, die, band) = (sample_picks[step], die_picks[step], band_picks[step]);
            if band < 4 {
                set_band(&mut g, band_of(band));
            }
            // The knee itself, both sides of it, and no temperature.
            let die_c = match die {
                0 => Some(40.0),
                1 | 2 => Some(die_pool[die - 1]),
                _ => None,
            };
            decide_and_check(&mut g, id, domains, &pool[sample], die_c)?;
        }
        prop_assert_eq!(g.arbiter_invocations(), len as u64, "{}", id);
        prop_assert!(g.arbiter_reuses() <= g.arbiter_invocations(), "{}", id);
    }
}

#[test]
fn reset_and_band_changes_clear_the_arbiter_memo() {
    let domains = freq_domains_of("flagship-octa");
    let demand = [0.9, 0.2, 0.6, 0.8];
    let mut g = steerable_usta();
    set_band(&mut g, FrequencyCap::OneLevelBelowMax);
    for _ in 0..3 {
        decide_and_check(&mut g, "flagship-octa", &domains, &demand, Some(45.0)).unwrap();
    }
    assert_eq!((g.arbiter_invocations(), g.arbiter_reuses()), (3, 2));
    // A hotter die derates the CPU clusters: new weighted demands.
    decide_and_check(&mut g, "flagship-octa", &domains, &demand, Some(46.0)).unwrap();
    assert_eq!((g.arbiter_invocations(), g.arbiter_reuses()), (4, 2));
    // Another band is another budget, whatever the demands.
    set_band(&mut g, FrequencyCap::TwoLevelsBelowMax);
    decide_and_check(&mut g, "flagship-octa", &domains, &demand, Some(46.0)).unwrap();
    assert_eq!((g.arbiter_invocations(), g.arbiter_reuses()), (5, 2));

    // After a reset the same band and inputs run the greedy again.
    g.reset();
    assert_eq!((g.arbiter_invocations(), g.arbiter_reuses()), (0, 0));
    set_band(&mut g, FrequencyCap::TwoLevelsBelowMax);
    decide_and_check(&mut g, "flagship-octa", &domains, &demand, Some(46.0)).unwrap();
    assert_eq!((g.arbiter_invocations(), g.arbiter_reuses()), (1, 0));
    decide_and_check(&mut g, "flagship-octa", &domains, &demand, Some(46.0)).unwrap();
    assert_eq!((g.arbiter_invocations(), g.arbiter_reuses()), (2, 1));
}

#[test]
fn opp_tables_compare_by_levels_whether_shared_or_not() {
    let first = freq_domains_of("flagship-octa");
    let second = freq_domains_of("flagship-octa");
    for (a, b) in first.iter().zip(&second) {
        // A table and its clone share levels; two devices built from
        // one spec hold separately built, equal tables.
        assert_eq!(a.opp, a.opp.clone(), "{}", a.name);
        assert_eq!(a.opp, b.opp, "{}", a.name);
    }
    assert_eq!(first, second);
    // Different ladders, and one volt apart on the same frequencies.
    assert_ne!(first[0].opp, first[1].opp);
    let mut levels: Vec<FrequencyLevel> = first[0].opp.iter().copied().collect();
    levels.last_mut().expect("non-empty").volts += 0.01;
    let nudged = OppTable::new(levels).expect("still valid");
    assert_ne!(nudged, first[0].opp);
    assert_ne!(first[0].opp, nudged);
}

/// Satellite: the nexus4 single-domain path is bit-identical to the
/// pre-redesign control plane. Golden bits captured from the
/// single-domain implementation at the commit immediately before the
/// multi-domain refactor (same workload, seeds, and config). The
/// temperature pins were recaptured once when the thermal step became
/// an exact zero-order hold (about 1e-4 K moved); the frequency,
/// unserved-demand and trace-length pins are the original bits.
#[test]
fn nexus4_trajectory_is_bit_identical_to_the_single_domain_era() {
    let mut device = Device::with_seed(0xD0E).expect("builds");
    let mut workload = Benchmark::Skype.workload(7);
    let mut governor = Governor::Baseline(Box::new(OnDemand::default()));
    let r = run_workload(
        &mut device,
        &mut workload,
        &mut governor,
        &RunConfig::default(),
    );
    assert_eq!(r.avg_freq_ghz.to_bits(), 0x3ff373c659a46f6f);
    assert_eq!(r.max_skin.value().to_bits(), 0x40446563707ee2b9);
    assert_eq!(r.max_screen.value().to_bits(), 0x404269774dad1cf0);
    assert_eq!(r.unserved_fraction.to_bits(), 0x3f34b6e2a0374805);
    assert_eq!(r.skin_trace.len(), 600);
    assert_eq!(
        r.skin_trace[r.skin_trace.len() / 2].1.value().to_bits(),
        0x4043388b86bdcfc0
    );
    let freq_sum: f64 = r.freq_trace.iter().map(|(_, f)| f).sum();
    assert_eq!(freq_sum.to_bits(), 0x41c5e10360000000);
    // The per-domain trace of the one domain is the aggregate trace.
    assert_eq!(r.domain_freq_traces[0], r.freq_trace);
    assert_eq!(r.avg_domain_freq_ghz, vec![r.avg_freq_ghz]);
}

/// Same pin for the raw device layer driven through a fixed level
/// ladder (no governor in the loop); the true skin temperature was
/// recaptured with the zero-order-hold thermal step.
#[test]
fn nexus4_device_layer_is_bit_identical_to_the_single_domain_era() {
    let mut d = Device::with_seed(0xBEEF).expect("builds");
    let mut w = Benchmark::GfxBench.workload(3);
    let mut t = 0.0;
    while t < 90.0 {
        let demand = w.demand_at(t, 0.1);
        let level = ((t / 7.0) as usize) % 12;
        d.apply_level(&demand, level, 0.1);
        t += 0.1;
    }
    let o = d.observe();
    assert_eq!(o.skin_true.value().to_bits(), 0x403cc5772db0d543);
    assert_eq!(o.cpu_temp.value().to_bits(), 0x4040000000000000);
    assert_eq!(d.unserved_fraction().to_bits(), 0x3f8ac8a64653355d);
    assert_eq!(o.avg_utilization.to_bits(), 0x3fdc4fb77ddfcd51);
}

/// flagship-octa is genuinely two-domain: under an asymmetric load the
/// clusters settle at distinct frequencies, and the run traces both.
#[test]
fn flagship_domains_settle_at_distinct_frequencies() {
    let mut device = Device::new(DeviceConfig {
        sensor_seed: 5,
        ..DeviceConfig::for_device_id("flagship-octa").expect("builtin")
    })
    .expect("builds");
    // Three heavy threads: all land on the big cluster (big-first
    // spill), so the LITTLE cluster idles at its floor.
    let mut workload = ConstantLoad::new("asym", 60.0, 1_200_000.0, 3);
    let mut governor = Governor::Baseline(Box::new(OnDemand::default()));
    let r = run_workload(
        &mut device,
        &mut workload,
        &mut governor,
        &RunConfig::default(),
    );
    assert_eq!(r.domain_names, vec!["big", "little", "gpu", "display"]);
    assert!(
        r.avg_domain_freq_ghz[0] > 2.0 * r.avg_domain_freq_ghz[1],
        "big {} GHz should dwarf idle LITTLE {} GHz",
        r.avg_domain_freq_ghz[0],
        r.avg_domain_freq_ghz[1]
    );
    // The aggregate frequency is the capacity-weighted mean.
    let expected = (r.avg_domain_freq_ghz[0] * 4.0 + r.avg_domain_freq_ghz[1] * 4.0) / 8.0;
    assert!((r.avg_freq_ghz - expected).abs() < 1e-9);
}

/// The DvfsLoop helper drives a multi-domain governor the same way the
/// runner does — and its decisions respect each domain's table.
#[test]
fn dvfs_loop_drives_flagship_per_domain() {
    let mut device = Device::new(DeviceConfig {
        sensor_seed: 9,
        ..DeviceConfig::for_device_id("flagship-octa").expect("builtin")
    })
    .expect("builds");
    let dvfs = DvfsLoop::for_device(&device);
    let mut governor = OnDemand::default();
    let mut levels = usta_soc::PerDomain::splat(device.domains(), 0);
    let demand = usta_workloads::DeviceDemand {
        cpu_threads_khz: vec![900_000.0; 8],
        gpu_load: 0.2,
        display_on: true,
        brightness: 0.5,
        board_w: 0.2,
        charging: false,
    };
    for _ in 0..100 {
        device.apply(&demand, levels.as_slice(), 0.1);
        let obs = device.observe();
        levels = dvfs.decide(&mut governor, &obs, &levels);
        for (d, domain) in dvfs.domains().iter().enumerate() {
            assert!(levels[d] <= domain.max_index());
        }
    }
    // Both clusters ended up governed above their floor under load.
    assert!(levels[0] > 0);
    assert!(levels[1] > 0);
}
