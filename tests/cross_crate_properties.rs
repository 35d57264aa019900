//! Property-based tests spanning crates: the contracts that keep the
//! whole stack honest regardless of parameter choices.

use proptest::prelude::*;
use usta_core::policy::UstaPolicy;
use usta_governors::{
    Conservative, CpuGovernor, DomainSample, FreqDomain, GovernorInput, OnDemand, Performance,
    Powersave,
};
use usta_soc::nexus4;
use usta_thermal::Celsius;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// No governor ever exceeds the thermal cap, for any load/cap/state.
    #[test]
    fn governors_never_exceed_the_cap(
        load in 0.0f64..1.0,
        cur in 0usize..12,
        cap in 0usize..12,
    ) {
        let domains = vec![FreqDomain {
            id: 0,
            name: "cpu",
            kind: usta_soc::DomainKind::CpuCluster,
            cores: 4,
            opp: nexus4::opp_table(),
            full_load_w: 3.6,
        }];
        let samples = [DomainSample {
            avg_utilization: load,
            max_utilization: load,
            current_level: cur,
        }];
        let caps = [cap];
        let input = GovernorInput {
            domains: &domains,
            samples: &samples,
            max_allowed_levels: &caps,
            die_temp_c: None,
        };
        let mut governors: Vec<Box<dyn CpuGovernor>> = vec![
            Box::new(OnDemand::default()),
            Box::new(Conservative::default()),
            Box::new(Performance),
            Box::new(Powersave),
        ];
        for g in &mut governors {
            let level = g.decide(&input).level(0);
            prop_assert!(level <= cap, "{} returned {level} above cap {cap}", g.name());
            prop_assert!(level < domains[0].opp.len());
        }
    }

    /// The USTA banding policy is monotone: a hotter prediction never
    /// loosens the cap, for any limit.
    #[test]
    fn usta_policy_is_monotone(limit in 30.0f64..45.0, t0 in 20.0f64..50.0, dt in 0.0f64..10.0) {
        let opp = nexus4::opp_table();
        let policy = UstaPolicy::new(Celsius(limit));
        let cooler = policy.decide(Celsius(t0)).max_allowed_level(&opp);
        let hotter = policy.decide(Celsius(t0 + dt)).max_allowed_level(&opp);
        prop_assert!(hotter <= cooler);
    }

    /// The policy's activation threshold is exactly 2 °C below the limit.
    #[test]
    fn usta_policy_activation_boundary(limit in 30.0f64..45.0) {
        let policy = UstaPolicy::new(Celsius(limit));
        prop_assert!(!policy.decide(Celsius(limit - 2.01)).is_active());
        prop_assert!(policy.decide(Celsius(limit - 1.99)).is_active());
    }

    /// ondemand settles below its up-threshold for any steady demand: at
    /// the settled frequency the load never exceeds 80 %, or the demand
    /// saturates the table.
    #[test]
    fn ondemand_settles_under_threshold(demand_khz in 50_000.0f64..1_600_000.0) {
        let domains = vec![FreqDomain {
            id: 0,
            name: "cpu",
            kind: usta_soc::DomainKind::CpuCluster,
            cores: 4,
            opp: nexus4::opp_table(),
            full_load_w: 3.6,
        }];
        let opp = &domains[0].opp;
        let caps = [opp.max_index()];
        let mut g = OnDemand::default();
        let mut level = 0usize;
        for _ in 0..100 {
            let load = (demand_khz / opp.level(level).khz as f64).min(1.0);
            let samples = [DomainSample {
                avg_utilization: load,
                max_utilization: load,
                current_level: level,
            }];
            let input = GovernorInput {
                domains: &domains,
                samples: &samples,
                max_allowed_levels: &caps,
                die_temp_c: None,
            };
            level = g.decide(&input).level(0);
        }
        let settled_load = demand_khz / opp.level(level).khz as f64;
        prop_assert!(
            settled_load <= 0.80 + 1e-9 || level == opp.max_index(),
            "settled at level {level} with load {settled_load}"
        );
    }

    /// Hotter heat input never cools any phone node (steady-state
    /// monotonicity through the full phone model).
    #[test]
    fn phone_steady_state_monotone_in_cpu_power(base in 0.0f64..3.0, extra in 0.01f64..2.0) {
        use usta_thermal::{DeviceThermalModel, HeatLoad, PhoneThermalParams};
        let topology = PhoneThermalParams::default().topology();
        let mut cool = DeviceThermalModel::new(topology.clone()).expect("builds");
        let mut hot = DeviceThermalModel::new(topology).expect("builds");
        cool.set_heat(HeatLoad::single(base, 0.0, 0.0, 0.0, 0.0));
        hot.set_heat(HeatLoad::single(base + extra, 0.0, 0.0, 0.0, 0.0));
        let cool_ss = cool.steady_state().expect("solvable");
        let hot_ss = hot.steady_state().expect("solvable");
        for (c, h) in cool_ss.iter().zip(&hot_ss) {
            prop_assert!(h.value() >= c.value() - 1e-9);
        }
    }

    /// Device simulation stays physical for arbitrary (bounded) demand:
    /// temperatures finite and inside sane bounds after minutes of load.
    #[test]
    fn device_stays_physical(
        threads in proptest::collection::vec(0.0f64..2_000_000.0, 1..6),
        gpu in 0.0f64..1.0,
        brightness in 0.0f64..1.0,
        board in 0.0f64..2.0,
        level in 0usize..12,
    ) {
        use usta_sim::Device;
        use usta_workloads::DeviceDemand;
        let mut device = Device::with_seed(1).expect("builds");
        let demand = DeviceDemand {
            cpu_threads_khz: threads,
            gpu_load: gpu,
            display_on: true,
            brightness,
            board_w: board,
            charging: false,
        };
        for _ in 0..120 {
            device.apply_level(&demand, level, 1.0);
        }
        let obs = device.observe();
        for t in [obs.skin_true, obs.screen_true, obs.cpu_temp, obs.battery_temp] {
            prop_assert!(t.is_physical());
            prop_assert!(t.value() > 10.0 && t.value() < 120.0, "temperature {t} out of band");
        }
        prop_assert!((0.0..=1.0).contains(&obs.avg_utilization));
    }
}
