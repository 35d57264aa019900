//! The exact zero-order-hold thermal step against an independent
//! fine-step reference, on every catalog device's topology.

use usta_device::{parse_device, DeviceSpec, Registry};
use usta_thermal::{DeviceThermalModel, HeatLoad, ThermalTopology};

/// The five built-ins plus the file-only `sd8s-gen3`.
fn catalog_specs() -> Vec<DeviceSpec> {
    let mut specs = Registry::builtin().specs().to_vec();
    specs.push(parse_device(include_str!("../../../catalog/sd8s-gen3.toml")).expect("sd8s-gen3"));
    specs
}

/// A load that moves every input every step: sines on the dies, the
/// display and the battery, and a square wave on the GPU.
fn load(step: usize, dies: usize) -> HeatLoad {
    let k = step as f64;
    HeatLoad {
        die_w: (0..dies)
            .map(|d| 1.5 * (1.0 + (0.013 * k * (d + 1) as f64).sin()))
            .collect(),
        gpu_w: if (step / 37).is_multiple_of(2) {
            1.2
        } else {
            0.1
        },
        display_w: 0.6 + 0.3 * (0.007 * k).cos(),
        battery_w: 0.2 + 0.1 * (0.021 * k).sin(),
        board_w: 0.4 + 0.2 * (0.003 * k).sin(),
    }
}

/// Node powers of `heat` routed the way `DeviceThermalModel` routes
/// them, plus the hand's power on the skin node evaluated at `temps`.
fn node_powers(topo: &ThermalTopology, heat: &HeatLoad, hand: bool, temps: &[f64]) -> Vec<f64> {
    let roles = &topo.roles;
    let mut p = vec![0.0; topo.nodes.len()];
    for (&node, &w) in roles.dies.iter().zip(&heat.die_w) {
        p[node] += w;
    }
    p[roles.gpu.unwrap_or(roles.package)] += heat.gpu_w;
    p[roles.board] += heat.board_w;
    p[roles.battery] += heat.battery_w;
    p[roles.screen] += heat.display_w;
    if hand {
        let t_skin = temps[roles.skin];
        let g_skin: f64 = topo
            .ambient_links
            .iter()
            .filter(|&&(node, _)| node == roles.skin)
            .map(|&(_, g)| g)
            .sum();
        p[roles.skin] += topo.hand.contact_conductance
            * (topo.hand.palm_temperature.value() - t_skin)
            + topo.hand.blocked_fraction * g_skin * (t_skin - topo.ambient.value());
    }
    p
}

/// dT/dt of the topology's RC network under node powers `p`.
fn derivative(topo: &ThermalTopology, p: &[f64], t: &[f64]) -> Vec<f64> {
    let amb = topo.ambient.value();
    let mut flow = p.to_vec();
    for &(node, g) in &topo.ambient_links {
        flow[node] += g * (amb - t[node]);
    }
    for &(a, b, g) in &topo.couplings {
        let q = g * (t[a] - t[b]);
        flow[a] -= q;
        flow[b] += q;
    }
    flow.iter()
        .zip(&topo.nodes)
        .map(|(q, node)| q / node.capacitance)
        .collect()
}

/// Classical RK4 over one held-input step of `dt`, in `substeps` parts.
fn rk4(topo: &ThermalTopology, p: &[f64], t: &mut [f64], dt: f64, substeps: usize) {
    let h = dt / substeps as f64;
    let shifted = |t: &[f64], k: &[f64], s: f64| -> Vec<f64> {
        t.iter().zip(k).map(|(t, k)| t + s * k).collect()
    };
    for _ in 0..substeps {
        let k1 = derivative(topo, p, t);
        let k2 = derivative(topo, p, &shifted(t, &k1, h / 2.0));
        let k3 = derivative(topo, p, &shifted(t, &k2, h / 2.0));
        let k4 = derivative(topo, p, &shifted(t, &k3, h));
        for (i, ti) in t.iter_mut().enumerate() {
            *ti += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
    }
}

#[test]
fn every_catalog_topology_tracks_a_fine_step_reference() {
    const DT: f64 = 0.1;
    const STEPS: usize = 6_000; // 600 s
    for spec in catalog_specs() {
        let topo = spec.thermal.topology();
        for hand in [false, true] {
            let mut model = DeviceThermalModel::new(topo.clone()).unwrap();
            model.set_hand_contact(hand);
            let mut reference = vec![topo.initial.value(); topo.nodes.len()];
            let mut worst = 0.0f64;
            for step in 0..STEPS {
                let heat = load(step, topo.dies());
                let p = node_powers(&topo, &heat, hand, &reference);
                rk4(&topo, &p, &mut reference, DT, 10);
                model.set_heat(heat);
                model.step(DT);
                for (t, r) in model.temperatures().iter().zip(&reference) {
                    worst = worst.max((t.value() - r).abs());
                }
            }
            assert!(
                worst < 1e-6,
                "{} (hand {hand}): max |ZOH − reference| = {worst:e} K",
                spec.id
            );
            // The load really heated the device.
            assert!(model.hottest_die_temperature().value() > topo.initial.value() + 1.0);
        }
    }
}
