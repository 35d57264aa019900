//! Static analysis of thermal networks: steady state, effective thermal
//! resistance, and dominant time-constant estimation.

use crate::error::ThermalError;
use crate::network::{NodeId, ThermalNetwork};
use crate::units::Celsius;

/// Solves the steady-state temperatures of the network for its *current*
/// power inputs by Gaussian elimination of the conductance matrix.
///
/// Boundary nodes keep their fixed temperature; dynamic nodes solve
/// `Σ_j G_ij (T_j − T_i) + G_amb,i (T_amb − T_i) + P_i = 0`.
///
/// # Errors
///
/// Returns [`ThermalError::SingularSystem`] when some dynamic node has no
/// conductance path to the ambient or to any boundary node (its steady
/// state would be unbounded for non-zero power).
pub fn steady_state(net: &ThermalNetwork) -> Result<Vec<Celsius>, ThermalError> {
    let n = net.node_count();
    let p = net.params();

    // Solve K·T = P + g_amb·T_amb over all nodes; boundary rows are
    // identity.
    let mut a = p.conductance_matrix();
    let mut b = vec![0.0; n];
    for i in 0..n {
        if p.boundary[i] {
            a[i * n + i] = 1.0;
            b[i] = net.temperature(NodeId(i)).value();
        } else {
            b[i] = p.ambient_conductance[i] * p.ambient + p.power[i];
        }
    }

    let t = solve_dense(&mut a, &mut b, n).ok_or(ThermalError::SingularSystem)?;
    Ok(t.into_iter().map(Celsius).collect())
}

/// Effective thermal resistance (K/W) from `node` to the ambient:
/// the steady-state temperature rise of `node` per watt injected into it,
/// with all other power inputs at zero.
///
/// # Errors
///
/// Propagates [`ThermalError::SingularSystem`] from the steady-state
/// solve.
pub fn thermal_resistance(net: &ThermalNetwork, node: NodeId) -> Result<f64, ThermalError> {
    let mut probe = net.clone();
    probe.clear_power();
    probe.set_power(node, 1.0);
    let t = steady_state(&probe)?;
    Ok(t[node.index()] - probe.ambient())
}

/// Estimates the dominant (slowest) time constant of the network in
/// seconds: the time for the heat stored above ambient to relax to 1/e
/// of a uniform +10 K start with no power (exactly `C/G` for a single
/// RC node).
///
/// This is the time scale on which skin temperature approaches steady
/// state — minutes for a phone, which is why the paper's user study needed
/// multi-minute holds.
///
/// # Errors
///
/// Returns [`ThermalError::SingularSystem`] when the stored heat does not
/// fall to 1/e within 10⁷ s (no path to a fixed temperature).
pub fn dominant_time_constant(net: &ThermalNetwork) -> Result<f64, ThermalError> {
    const MAX_T: f64 = 1e7;
    let mut probe = net.clone();
    probe.clear_power();
    let amb = probe.ambient();
    for i in 0..probe.node_count() {
        if !probe.params().boundary[i] {
            probe.set_temperature(NodeId(i), amb + 10.0)?;
        }
    }
    let start = probe.stored_energy();
    if start <= 0.0 {
        return Err(ThermalError::SingularSystem);
    }
    let target = start / std::f64::consts::E;
    // A step is exact at any length, so the heat left after `t` seconds
    // is one step of `t` from the start.
    let above_target = |t: f64| {
        let mut relaxed = probe.clone();
        relaxed.step(t);
        relaxed.stored_energy() > target
    };
    // Bracket the crossing by doubling, then bisect it.
    let (mut lo, mut hi) = (0.0, 1e-3);
    while above_target(hi) {
        if hi >= MAX_T {
            return Err(ThermalError::SingularSystem);
        }
        lo = hi;
        hi = (2.0 * hi).min(MAX_T);
    }
    while hi - lo > 1e-9 * hi {
        let mid = 0.5 * (lo + hi);
        if above_target(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// Gaussian elimination with partial pivoting on a row-major dense
/// system. Returns `None` when the matrix is (numerically) singular.
fn solve_dense(a: &mut [f64], b: &mut [f64], n: usize) -> Option<Vec<f64>> {
    for col in 0..n {
        // Pivot.
        let mut pivot = col;
        let mut best = a[col * n + col].abs();
        for row in (col + 1)..n {
            let v = a[row * n + col].abs();
            if v > best {
                best = v;
                pivot = row;
            }
        }
        if best < 1e-12 {
            return None;
        }
        if pivot != col {
            for k in 0..n {
                a.swap(pivot * n + k, col * n + k);
            }
            b.swap(pivot, col);
        }
        // Eliminate below.
        let diag = a[col * n + col];
        for row in (col + 1)..n {
            let factor = a[row * n + col] / diag;
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row * n + k] -= factor * a[col * n + k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut sum = b[row];
        for k in (row + 1)..n {
            sum -= a[row * n + k] * x[k];
        }
        x[row] = sum / a[row * n + row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ThermalNetworkBuilder;

    fn chain() -> (ThermalNetwork, NodeId, NodeId) {
        let mut b = ThermalNetworkBuilder::new(Celsius(20.0));
        let hot = b.add_node("hot", 1.0, Celsius(20.0)).unwrap();
        let mid = b.add_node("mid", 5.0, Celsius(20.0)).unwrap();
        b.couple(hot, mid, 2.0).unwrap();
        b.link_ambient(mid, 0.5).unwrap();
        (b.build().unwrap(), hot, mid)
    }

    #[test]
    fn steady_state_matches_hand_calculation() {
        let (mut net, hot, mid) = chain();
        net.set_power(hot, 1.0);
        let t = steady_state(&net).unwrap();
        // Series resistances: mid = amb + 1/0.5 = 22; hot = mid + 1/2 = 22.5.
        assert!((t[mid.index()].value() - 22.0).abs() < 1e-9);
        assert!((t[hot.index()].value() - 22.5).abs() < 1e-9);
    }

    #[test]
    fn steady_state_agrees_with_long_simulation() {
        let (mut net, hot, _) = chain();
        net.set_power(hot, 1.5);
        let predicted = steady_state(&net).unwrap();
        net.run(3600.0);
        for (i, p) in predicted.iter().enumerate() {
            let simulated = net.temperature(NodeId(i)).value();
            assert!(
                (simulated - p.value()).abs() < 1e-3,
                "node {i}: simulated {simulated} vs predicted {p}"
            );
        }
    }

    #[test]
    fn isolated_node_is_singular() {
        let mut b = ThermalNetworkBuilder::new(Celsius(20.0));
        let _iso = b.add_node("iso", 1.0, Celsius(20.0)).unwrap();
        let net = b.build().unwrap();
        assert!(matches!(
            steady_state(&net),
            Err(ThermalError::SingularSystem)
        ));
    }

    #[test]
    fn thermal_resistance_is_series_sum() {
        let (net, hot, mid) = chain();
        let r_hot = thermal_resistance(&net, hot).unwrap();
        let r_mid = thermal_resistance(&net, mid).unwrap();
        assert!((r_hot - 2.5).abs() < 1e-9);
        assert!((r_mid - 2.0).abs() < 1e-9);
    }

    #[test]
    fn boundary_node_pins_steady_state() {
        let mut b = ThermalNetworkBuilder::new(Celsius(20.0));
        let die = b.add_node("die", 1.0, Celsius(20.0)).unwrap();
        let hand = b.add_boundary_node("hand", Celsius(33.0)).unwrap();
        b.couple(die, hand, 1.0).unwrap();
        let net = b.build().unwrap();
        let t = steady_state(&net).unwrap();
        assert!((t[die.index()].value() - 33.0).abs() < 1e-9);
        assert!((t[hand.index()].value() - 33.0).abs() < 1e-9);
    }

    #[test]
    fn time_constant_of_single_rc_is_c_over_g() {
        let mut b = ThermalNetworkBuilder::new(Celsius(20.0));
        let n = b.add_node("n", 10.0, Celsius(20.0)).unwrap();
        b.link_ambient(n, 0.5).unwrap();
        let net = b.build().unwrap();
        let tau = dominant_time_constant(&net).unwrap();
        assert!(
            (tau - 20.0).abs() < 1.0,
            "tau {tau} should be close to C/G = 20 s"
        );
    }
}
