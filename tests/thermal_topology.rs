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
//! 4. **The paper's handset behaves like one:** on the catalog Nexus 4
//!    the skin rises over minutes, touch barely matters while the phone
//!    is busy, a palm warms an idle cover, the display heats the screen
//!    and charging heats the back.

use proptest::prelude::*;
use usta_governors::by_name;
use usta_sim::runner::DvfsLoop;
use usta_sim::{Device, DeviceConfig};
use usta_soc::PerDomain;
use usta_thermal::{Celsius, DeviceThermalModel, HeatLoad, ThermalTopology};
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

/// The nexus4 device runs its catalog topology unchanged — the paper's
/// seven nodes with one `cpu` die and `back_mid` as the skin — and its
/// single-die observations keep the paper's 4-feature shape.
#[test]
fn nexus4_topology_and_features_are_the_single_die_special_case() {
    let d = device("nexus4", 1);
    let topology = d.thermal_model().topology();
    assert_eq!(*topology, nexus4_topology());
    assert_eq!(topology.nodes.len(), 7);
    assert_eq!(topology.node_name(topology.roles.skin), "back_mid");
    assert_eq!(d.die_node_names(), vec!["cpu"]);
    assert_eq!(d.node_temperature("cpu"), Some(d.die_temperature(0)));
    assert_eq!(d.node_temperature("no_such_node"), None);
    let obs = d.observe();
    assert_eq!(obs.features().hottest_die, None);
    assert_eq!(obs.features().to_vec().len(), 4);
}

/// The catalog Nexus 4's thermal topology.
fn nexus4_topology() -> ThermalTopology {
    usta_device::by_id("nexus4")
        .expect("built-in")
        .thermal
        .topology()
}

/// The catalog Nexus 4's thermal model, on its own.
fn nexus4_phone() -> DeviceThermalModel {
    DeviceThermalModel::new(nexus4_topology()).expect("catalog topology builds")
}

fn heavy() -> HeatLoad {
    HeatLoad::single(3.4, 1.3, 1.0, 0.35, 0.25)
}

fn node(p: &DeviceThermalModel, name: &str) -> Celsius {
    p.node_temperature_by_name(name).expect("nexus4 node")
}

#[test]
fn default_params_build() {
    let p = nexus4_phone();
    assert_eq!(p.skin_temperature(), Celsius(28.0));
    assert!((p.ambient() - Celsius(24.0)).abs() < 1e-12);
}

#[test]
fn heavy_load_reaches_hot_skin_in_minutes_not_hours() {
    let mut p = nexus4_phone();
    p.set_heat(heavy());
    p.step(12.0 * 60.0);
    let skin = p.skin_temperature();
    assert!(
        skin > Celsius(38.0) && skin < Celsius(47.0),
        "12-minute heavy-load skin temperature {skin} outside plausible band"
    );
}

#[test]
fn die_is_hottest_then_interior_then_surfaces() {
    let mut p = nexus4_phone();
    p.set_heat(heavy());
    p.step(900.0);
    let die = p.die_temperature(0);
    let pkg = node(&p, "package");
    let skin = p.skin_temperature();
    assert!(die > pkg, "die {die} should exceed package {pkg}");
    assert!(pkg > skin, "package {pkg} should exceed skin {skin}");
    assert!(skin > p.ambient());
}

#[test]
fn idle_phone_cools_toward_ambient() {
    let mut p = nexus4_phone();
    p.set_heat(HeatLoad::single(0.0, 0.0, 0.0, 0.0, 0.0));
    p.step(3600.0 * 4.0);
    assert!((p.skin_temperature() - p.ambient()).abs() < 0.05);
}

#[test]
fn steady_state_matches_long_run() {
    let mut p = nexus4_phone();
    p.set_heat(heavy());
    let ss = p.steady_state().unwrap();
    p.step(3600.0 * 6.0);
    for (i, expected) in ss.iter().enumerate() {
        let got = p.node_temperature(i);
        assert!(
            (got - *expected).abs() < 0.05,
            "{}: long-run {got} vs steady-state {expected}",
            p.topology().node_name(i)
        );
    }
}

#[test]
fn rise_time_constant_is_minutes() {
    // The defining property of the skin-temperature problem: the skin
    // responds on a minutes scale, much slower than the die.
    let mut p = nexus4_phone();
    p.set_heat(heavy());
    let ss = p.steady_state().unwrap()[p.topology().roles.skin];
    let start = p.skin_temperature();
    let target = start.value() + 0.63 * (ss - start);
    let mut t = 0.0;
    while p.skin_temperature().value() < target && t < 3600.0 {
        p.step(5.0);
        t += 5.0;
    }
    assert!(
        (120.0..1800.0).contains(&t),
        "skin 63% rise time {t} s should be minutes-scale"
    );
}

#[test]
fn touch_changes_exterior_temperature_only_slightly() {
    // Reproduces the paper's §3.A observation: holding the phone
    // while it is actively used barely moves the skin temperature.
    let mut held = nexus4_phone();
    let mut free = nexus4_phone();
    held.set_hand_contact(true);
    for p in [&mut held, &mut free] {
        p.set_heat(heavy());
        p.step(600.0);
    }
    let delta = (held.skin_temperature() - free.skin_temperature()).abs();
    assert!(
        delta < 0.8,
        "touch shifted skin temperature by {delta} K — should be minor"
    );
}

#[test]
fn hand_warms_a_cold_idle_phone() {
    // Off and not touched vs off and held: the hand warms the cover
    // toward palm temperature (the paper's turned-off experiments).
    let mut held = nexus4_phone();
    held.reset_to(Celsius(24.0));
    held.set_hand_contact(true);
    held.step(1200.0);
    assert!(
        held.skin_temperature() > Celsius(24.3),
        "palm should warm an idle cover, got {}",
        held.skin_temperature()
    );
}

#[test]
fn display_power_heats_screen_more_than_skin() {
    let mut p = nexus4_phone();
    p.set_heat(HeatLoad::single(0.0, 0.0, 1.2, 0.0, 0.0));
    p.step(1200.0);
    assert!(p.screen_temperature() > p.skin_temperature());
}

#[test]
fn battery_charging_heats_the_back() {
    let mut p = nexus4_phone();
    p.set_heat(HeatLoad::single(0.0, 0.0, 0.0, 1.0, 0.0));
    p.step(1800.0);
    assert!(p.skin_temperature() > p.screen_temperature());
}

#[test]
fn reset_clears_state() {
    let mut p = nexus4_phone();
    p.set_heat(heavy());
    p.step(600.0);
    p.reset_to(Celsius(26.0));
    assert_eq!(p.skin_temperature(), Celsius(26.0));
    assert_eq!(p.elapsed(), 0.0);
}
