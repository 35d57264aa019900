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

use proptest::prelude::*;
use std::path::Path;
use std::sync::OnceLock;
use usta_catalog::Catalog;
use usta_core::arbiter::{power_at_level, PriceTable};
use usta_core::policy::FrequencyCap;
use usta_core::{arbitrate, BudgetAllocation};
use usta_governors::{by_name, DomainSample, FreqDomain, GovernorInput, OnDemand, NAMES};
use usta_sim::runner::DvfsLoop;
use usta_sim::{run_workload, Device, DeviceConfig, Governor, RunConfig};
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
