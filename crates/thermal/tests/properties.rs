//! Property-based tests for the thermal network invariants.

use proptest::prelude::*;
use usta_thermal::{Celsius, ThermalNetworkBuilder};

/// Builds a random star network: `n` leaf nodes all coupled to a hub,
/// hub linked to ambient.
fn star(
    n: usize,
    caps: &[f64],
    couplings: &[f64],
    g_amb: f64,
    initial: &[f64],
    ambient: f64,
) -> usta_thermal::ThermalNetwork {
    let mut b = ThermalNetworkBuilder::new(Celsius(ambient));
    let hub = b.add_node("hub", caps[0], Celsius(initial[0])).unwrap();
    b.link_ambient(hub, g_amb).unwrap();
    for i in 0..n {
        let leaf = b
            .add_node(&format!("leaf{i}"), caps[i + 1], Celsius(initial[i + 1]))
            .unwrap();
        b.couple(hub, leaf, couplings[i]).unwrap();
    }
    b.build().unwrap()
}

fn plausible_cap() -> impl Strategy<Value = f64> {
    0.5f64..60.0
}

fn plausible_g() -> impl Strategy<Value = f64> {
    0.05f64..2.0
}

fn plausible_t() -> impl Strategy<Value = f64> {
    0.0f64..80.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With no power, all temperatures stay inside the initial
    /// min/max envelope extended by the ambient (comparison principle).
    #[test]
    fn unpowered_temperatures_stay_in_envelope(
        caps in proptest::collection::vec(plausible_cap(), 4),
        gs in proptest::collection::vec(plausible_g(), 3),
        g_amb in plausible_g(),
        init in proptest::collection::vec(plausible_t(), 4),
        ambient in plausible_t(),
        steps in 1usize..50,
    ) {
        let mut net = star(3, &caps, &gs, g_amb, &init, ambient);
        let lo = init.iter().copied().fold(ambient, f64::min);
        let hi = init.iter().copied().fold(ambient, f64::max);
        for _ in 0..steps {
            net.step(7.5);
            for id in net.node_ids().collect::<Vec<_>>() {
                let t = net.temperature(id).value();
                prop_assert!(t >= lo - 1e-6, "node below envelope: {t} < {lo}");
                prop_assert!(t <= hi + 1e-6, "node above envelope: {t} > {hi}");
            }
        }
    }

    /// A closed network (no ambient link) only moves heat between its
    /// nodes, so every exact step stores all the power:
    /// ΔΣC·T == P·dt.
    #[test]
    fn energy_is_conserved(
        caps in proptest::collection::vec(plausible_cap(), 4),
        gs in proptest::collection::vec(plausible_g(), 3),
        init in proptest::collection::vec(plausible_t(), 4),
        power in 0.0f64..8.0,
        dt in 0.01f64..30.0,
    ) {
        let mut b = ThermalNetworkBuilder::new(Celsius(24.0));
        let hub = b.add_node("hub", caps[0], Celsius(init[0])).unwrap();
        for i in 0..3 {
            let leaf = b
                .add_node(&format!("leaf{i}"), caps[i + 1], Celsius(init[i + 1]))
                .unwrap();
            b.couple(hub, leaf, gs[i]).unwrap();
        }
        let mut net = b.build().unwrap();
        net.set_power(hub, power);
        for _ in 0..20 {
            let before = net.stored_energy();
            net.step(dt);
            let stored = net.stored_energy() - before;
            prop_assert!(
                (stored - power * dt).abs() < 1e-9,
                "energy drift: stored {stored} J vs {} J in", power * dt
            );
        }
    }

    /// Steady state solved linearly equals the long-run simulation.
    #[test]
    fn steady_state_is_attractor(
        caps in proptest::collection::vec(plausible_cap(), 4),
        gs in proptest::collection::vec(plausible_g(), 3),
        g_amb in plausible_g(),
        power in 0.0f64..6.0,
    ) {
        let init = vec![25.0; 4];
        let mut net = star(3, &caps, &gs, g_amb, &init, 25.0);
        let hub = net.node_by_name("hub").unwrap();
        net.set_power(hub, power);
        let predicted = usta_thermal::analysis::steady_state(&net).unwrap();
        // Run at least 15 of the slowest time constant. The slowest mode
        // is bounded by the slower of (a) the whole network relaxing
        // through the ambient link and (b) any single leaf relaxing
        // through its coupling.
        let tau_net = caps.iter().sum::<f64>() / g_amb;
        let tau_leaf = caps[1..]
            .iter()
            .zip(&gs)
            .map(|(c, g)| c / g)
            .fold(0.0f64, f64::max);
        net.run(tau_net.max(tau_leaf) * 15.0);
        for (id, p) in net.node_ids().collect::<Vec<_>>().into_iter().zip(&predicted) {
            let got = net.temperature(id).value();
            prop_assert!(
                (got - p.value()).abs() < 0.02 * (1.0 + p.value().abs()),
                "node {}: {got} vs steady {p}", net.node_name(id)
            );
        }
    }

    /// More power never yields lower temperatures (monotonicity of the
    /// steady state in the power input).
    #[test]
    fn steady_state_monotone_in_power(
        caps in proptest::collection::vec(plausible_cap(), 4),
        gs in proptest::collection::vec(plausible_g(), 3),
        g_amb in plausible_g(),
        p_low in 0.0f64..3.0,
        extra in 0.01f64..3.0,
    ) {
        let init = vec![25.0; 4];
        let mut net = star(3, &caps, &gs, g_amb, &init, 25.0);
        let hub = net.node_by_name("hub").unwrap();
        net.set_power(hub, p_low);
        let low = usta_thermal::analysis::steady_state(&net).unwrap();
        net.set_power(hub, p_low + extra);
        let high = usta_thermal::analysis::steady_state(&net).unwrap();
        for (l, h) in low.iter().zip(&high) {
            prop_assert!(h.value() >= l.value() - 1e-9);
        }
    }

    /// Elapsed time accumulates exactly the requested durations.
    #[test]
    fn elapsed_time_accumulates(durations in proptest::collection::vec(0.1f64..30.0, 1..20)) {
        let caps = vec![1.0, 2.0, 3.0, 4.0];
        let gs = vec![0.5, 0.5, 0.5];
        let init = vec![25.0; 4];
        let mut net = star(3, &caps, &gs, 0.2, &init, 25.0);
        let mut total = 0.0;
        for d in &durations {
            net.step(*d);
            total += d;
        }
        prop_assert!((net.elapsed() - total).abs() < 1e-9);
    }
}
