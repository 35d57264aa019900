//! The data-driven thermal topology's cross-crate guarantees.
//!
//! 1. **Physicality, every device:** per-node temperatures stay finite
//!    and above the ambient floor for every catalog device under
//!    random governor/utilization sequences.
//! 2. **Attribution:** sustained extra load on one cluster raises that
//!    cluster's own die node at least as much as any other die node —
//!    the property that makes per-cluster die nodes worth having.
//! 3. **Hotspots are real:** flagship-octa's big die runs hotter than
//!    its LITTLE die under a big-heavy load, and prime-flagship's
//!    single-threaded burst lands on (and heats) the prime die.

use proptest::prelude::*;
use usta_governors::by_name;
use usta_sim::runner::DvfsLoop;
use usta_sim::{Device, DeviceConfig};
use usta_soc::PerDomain;
use usta_workloads::DeviceDemand;

fn device(id: &str, seed: u64) -> Device {
    Device::new(DeviceConfig {
        sensor_seed: seed,
        ..DeviceConfig::for_device_id(id).expect("catalog id")
    })
    .expect("catalog device builds")
}

/// Per-cluster core ranges `(offset, cores)` in virtual-core order.
/// Only CPU clusters carry schedulable cores; GPU and display domains
/// are excluded.
fn core_ranges(device: &Device) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut offset = 0;
    for fd in device.freq_domains().iter().take(device.cpu_domains()) {
        ranges.push((offset, fd.cores));
        offset += fd.cores;
    }
    ranges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every node of every catalog device stays physical — finite,
    /// above the ambient floor, below silicon-melting absurdity —
    /// under random governed load sequences.
    #[test]
    fn per_node_temperatures_stay_finite_and_above_ambient(
        device_index in 0usize..usta_device::NAMES.len(),
        governor_index in 0usize..usta_governors::NAMES.len(),
        loads in proptest::collection::vec(0.0f64..2_000_000.0, 8),
        threads in 1usize..9,
    ) {
        let id = usta_device::NAMES[device_index];
        let mut d = device(id, 7);
        let ambient = d.thermal_model().ambient();
        let mut governor = by_name(usta_governors::NAMES[governor_index]).expect("factory name");
        let dvfs = DvfsLoop::for_device(&d);
        let mut levels: PerDomain<usize> = PerDomain::splat(d.domains(), 0);
        for (i, &khz) in loads.iter().enumerate() {
            let demand = DeviceDemand {
                cpu_threads_khz: vec![khz; threads],
                gpu_load: (i as f64 / 8.0).min(1.0),
                display_on: i % 2 == 0,
                brightness: 0.7,
                board_w: 0.2,
                charging: i % 3 == 0,
            };
            // A few governor periods per load level, then minutes of
            // soak so slow nodes move too.
            for _ in 0..5 {
                d.apply(&demand, levels.as_slice(), 0.1);
                let obs = d.observe();
                levels = dvfs.decide(governor.as_mut(), &obs, &levels);
            }
            d.apply(&demand, levels.as_slice(), 30.0);
        }
        let topology = d.thermal_model().topology();
        for (i, t) in d.thermal_model().temperatures().iter().enumerate() {
            prop_assert!(t.is_physical(), "{id}/{}: {t}", topology.node_name(i));
            prop_assert!(
                t.value() >= ambient.value() - 1e-6,
                "{id}/{}: {t} fell below ambient {ambient}",
                topology.node_name(i)
            );
            prop_assert!(t.value() < 200.0, "{id}/{}: {t}", topology.node_name(i));
        }
    }

    /// Extra sustained load on cluster `c` raises die `c` at least as
    /// much as any other die node (and strictly raises it).
    #[test]
    fn extra_cluster_load_heats_its_own_die_most(
        multi_index in 0usize..2,
        cluster_pick in 0usize..4,
        base_khz in 50_000.0f64..250_000.0,
        extra_khz in 300_000.0f64..900_000.0,
    ) {
        let id = ["flagship-octa", "prime-flagship"][multi_index];
        let mut base = device(id, 3);
        let mut loaded = device(id, 3);
        let ranges = core_ranges(&base);
        let total_cores: usize = ranges.iter().map(|&(_, n)| n).sum();
        let cluster = cluster_pick % ranges.len();
        let tops: Vec<usize> = base
            .freq_domains()
            .iter()
            .map(|fd| fd.opp.max_index())
            .collect();

        // One thread per virtual core: the spill scheduler maps thread
        // i to core i, so the demand vector addresses clusters exactly.
        let base_threads = vec![base_khz; total_cores];
        let mut loaded_threads = base_threads.clone();
        let (offset, cores) = ranges[cluster];
        for t in loaded_threads.iter_mut().skip(offset).take(cores) {
            *t += extra_khz;
        }
        let base_demand = DeviceDemand {
            cpu_threads_khz: base_threads,
            gpu_load: 0.1,
            display_on: true,
            brightness: 0.5,
            board_w: 0.2,
            charging: false,
        };
        let loaded_demand = DeviceDemand {
            cpu_threads_khz: loaded_threads,
            ..base_demand.clone()
        };
        for _ in 0..40 {
            base.apply(&base_demand, &tops, 10.0);
            loaded.apply(&loaded_demand, &tops, 10.0);
        }
        let rise: Vec<f64> = (0..base.cpu_domains())
            .map(|d| loaded.die_temperature(d).value() - base.die_temperature(d).value())
            .collect();
        prop_assert!(
            rise[cluster] > 1e-6,
            "{id}: extra load on cluster {cluster} must heat its die, rises {rise:?}"
        );
        for (d, &r) in rise.iter().enumerate() {
            prop_assert!(
                rise[cluster] >= r - 1e-9,
                "{id}: die {cluster} rise {} must be >= die {d} rise {r}",
                rise[cluster]
            );
        }
    }
}

/// The acceptance anchor: a big-cluster-heavy sustained load makes
/// flagship-octa's big die measurably hotter than its LITTLE die.
#[test]
fn flagship_big_die_runs_hotter_than_little_under_big_load() {
    let mut d = device("flagship-octa", 5);
    let tops: Vec<usize> = d
        .freq_domains()
        .iter()
        .map(|fd| fd.opp.max_index())
        .collect();
    // Four heavy threads: big-first spill keeps them all on big.
    let demand = DeviceDemand {
        cpu_threads_khz: vec![1_500_000.0; 4],
        gpu_load: 0.3,
        display_on: true,
        brightness: 0.8,
        board_w: 0.2,
        charging: false,
    };
    for _ in 0..600 {
        d.apply(&demand, &tops, 1.0);
    }
    let big = d.die_temperature(0);
    let little = d.die_temperature(1);
    assert!(
        big - little > 0.5,
        "big die {big} should run measurably hotter than LITTLE {little}"
    );
    assert_eq!(d.die_node_names(), vec!["die_big", "die_little"]);
    let obs = d.observe();
    assert_eq!(obs.hottest_die(), big.max(little));
    let features = obs.features();
    assert_eq!(features.hottest_die, Some(obs.hottest_die()));
    // 3 base features + 2 CPU domain frequencies + hottest die
    // + GPU frequency + display brightness.
    assert_eq!(features.to_vec().len(), 8);
}

/// A single-threaded burst on prime-flagship lands on the prime core
/// (big-first spill) and its die node becomes the hotspot.
#[test]
fn prime_flagship_single_thread_burst_heats_the_prime_die() {
    let mut d = device("prime-flagship", 5);
    let tops: Vec<usize> = d
        .freq_domains()
        .iter()
        .map(|fd| fd.opp.max_index())
        .collect();
    let demand = DeviceDemand {
        cpu_threads_khz: vec![2_500_000.0],
        gpu_load: 0.0,
        display_on: true,
        brightness: 0.5,
        board_w: 0.1,
        charging: false,
    };
    for _ in 0..600 {
        d.apply(&demand, &tops, 1.0);
    }
    assert_eq!(
        d.die_node_names(),
        vec!["die_prime", "die_big", "die_little"]
    );
    let prime = d.die_temperature(0);
    assert!(prime > d.die_temperature(1), "prime die is the hotspot");
    assert!(prime > d.die_temperature(2), "prime die is the hotspot");
}

/// The nexus4 working topology is exactly the historical calibrated
/// network, and its single-die observations keep the paper's 4-feature
/// shape.
#[test]
fn nexus4_topology_and_features_are_the_single_die_special_case() {
    let d = device("nexus4", 1);
    assert_eq!(
        *d.thermal_model().topology(),
        usta_thermal::PhoneThermalParams::default().topology()
    );
    assert_eq!(d.die_node_names(), vec!["cpu"]);
    assert_eq!(d.node_temperature("cpu"), Some(d.die_temperature(0)));
    assert_eq!(d.node_temperature("no_such_node"), None);
    let obs = d.observe();
    assert_eq!(obs.features().hottest_die, None);
    assert_eq!(obs.features().to_vec().len(), 4);
}
