//! Property-based tests for the SoC models' invariants.

use proptest::prelude::*;
use usta_device::DeviceSpec;
use usta_soc::spec::{battery, cpu, cpu_power_model, opp_table};
use usta_soc::{ChargeState, CoreDemand};
use usta_thermal::Celsius;

fn nexus4() -> &'static DeviceSpec {
    usta_device::by_id("nexus4").expect("built-in")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Dynamic power grows monotonically with both OPP level and
    /// utilization.
    #[test]
    fn cpu_power_monotone(level_a in 0usize..12, level_b in 0usize..12, u in 0.0f64..1.0) {
        let (lo, hi) = if level_a <= level_b { (level_a, level_b) } else { (level_b, level_a) };
        let opp = opp_table(nexus4(), 0).unwrap();
        let model = cpu_power_model(nexus4(), 0).unwrap();
        prop_assert!(
            model.dynamic_power(opp.level(hi), u) >= model.dynamic_power(opp.level(lo), u)
        );
        prop_assert!(
            model.dynamic_power(opp.level(hi), u) <= model.dynamic_power(opp.level(hi), 1.0)
        );
    }

    /// Leakage is positive and monotone in die temperature.
    #[test]
    fn leakage_monotone_in_temperature(t in -20.0f64..110.0, dt in 0.0f64..40.0) {
        let opp = opp_table(nexus4(), 0).unwrap();
        let model = cpu_power_model(nexus4(), 0).unwrap();
        let cold = model.leakage_power(opp.max(), Celsius(t));
        let warm = model.leakage_power(opp.max(), Celsius(t + dt));
        prop_assert!(cold > 0.0);
        prop_assert!(warm >= cold);
    }

    /// Utilization is always within [0, 1] and unserved demand is
    /// non-negative, for arbitrary thread demands and levels.
    #[test]
    fn utilization_bounds(
        threads in proptest::collection::vec(0.0f64..3_000_000.0, 0..9),
        level in 0usize..12,
    ) {
        let mut cpu = cpu(nexus4(), 0).expect("builds");
        cpu.set_level(level);
        cpu.apply_demand(&CoreDemand::per_core(threads));
        for &u in cpu.utilizations() {
            prop_assert!((0.0..=1.0).contains(&u));
        }
        prop_assert!(cpu.unserved_khz() >= 0.0);
        prop_assert!(cpu.max_utilization() >= cpu.average_utilization() - 1e-12);
    }

    /// Energy conservation at the demand level: served + unserved equals
    /// what was asked (when demand folds cleanly onto the cores).
    #[test]
    fn served_plus_unserved_is_demand(
        per_core in proptest::collection::vec(0.0f64..3_000_000.0, 4),
        level in 0usize..12,
    ) {
        let mut cpu = cpu(nexus4(), 0).expect("builds");
        cpu.set_level(level);
        cpu.apply_demand(&CoreDemand::per_core(per_core.clone()));
        let freq = cpu.frequency().khz as f64;
        let served: f64 = cpu.utilizations().iter().map(|u| u * freq).sum();
        let asked: f64 = per_core.iter().sum();
        prop_assert!(
            (served + cpu.unserved_khz() - asked).abs() < 1e-6 * (1.0 + asked),
            "served {served} + unserved {} != asked {asked}",
            cpu.unserved_khz()
        );
    }

    /// Battery state of charge stays in [0, 1] under any load sequence,
    /// and heat output is never negative.
    #[test]
    fn battery_soc_bounded(
        soc0 in 0.0f64..1.0,
        loads in proptest::collection::vec(0.0f64..8.0, 1..60),
        charging in proptest::bool::ANY,
    ) {
        let mut b = battery(nexus4(), soc0).expect("valid soc");
        if charging {
            b.set_charge_state(ChargeState::Charging);
        }
        for load in loads {
            let heat = b.step(load, 30.0);
            prop_assert!(heat >= 0.0);
            prop_assert!((0.0..=1.0).contains(&b.state_of_charge()));
        }
    }

    /// OPP table lookups are consistent: `level_for_khz` always returns
    /// a level whose frequency covers the request (or the max level).
    #[test]
    fn opp_lookup_covers_demand(khz in 1u32..2_000_000) {
        let opp = opp_table(nexus4(), 0).unwrap();
        let idx = opp.level_for_khz(khz);
        prop_assert!(idx < opp.len());
        if opp.level(idx).khz < khz {
            prop_assert_eq!(idx, opp.max_index());
        }
        if idx > 0 {
            prop_assert!(opp.level(idx - 1).khz < khz);
        }
    }
}
