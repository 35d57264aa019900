//! Data-driven device thermal topology.
//!
//! A [`ThermalTopology`] declares the nodes (named capacitances),
//! the conductance edges between them and to ambient, and — crucially —
//! the **roles** the device simulator needs to route heat and read
//! sensors: one die node *per CPU cluster* (so a big.LITTLE part's big
//! and LITTLE clusters heat separate RC nodes), the package/board/
//! battery/screen injection points, the skin node (what the user's palm
//! touches, and where the hand model attaches), and the exterior
//! back-cover nodes that cases re-parameterise.
//!
//! [`DeviceThermalModel`] is the runtime: it builds a
//! [`ThermalNetwork`] from the topology and steps it under a
//! [`HeatLoad`] whose CPU term is a per-die vector. Topologies are
//! declared as data in `usta-device` (the catalog files); the paper's
//! seven-node Nexus 4 is the single-die special case.

use crate::error::ThermalError;
use crate::network::{NodeId, ThermalNetwork, ThermalNetworkBuilder};
use crate::units::Celsius;

/// One node of a topology: a named heat capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalNode {
    /// Stable node name (becomes the network node name, trace columns,
    /// and fleet report rows).
    pub name: String,
    /// Heat capacity, J/K.
    pub capacitance: f64,
}

/// Functional designations of a topology's nodes, by node index.
///
/// Roles are what decouple the simulator from any fixed node set: heat
/// routing, sensor reads, and scenario re-parameterisation all go
/// through here instead of through a hardcoded enum.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRoles {
    /// One CPU die node per frequency domain, in the device's big-first
    /// cluster order. Cluster `d`'s CPU power lands on `dies[d]`.
    pub dies: Vec<usize>,
    /// SoC package node — GPU heat lands here unless a dedicated GPU
    /// node is designated.
    pub package: usize,
    /// Dedicated GPU die node, when the topology declares one — GPU
    /// heat is routed here instead of onto the package.
    pub gpu: Option<usize>,
    /// Main-board node — radios, camera ISP, PMIC heat.
    pub board: usize,
    /// Battery pack node — charge/discharge losses.
    pub battery: usize,
    /// Screen node — display panel heat, and the paper's **screen
    /// temperature** reading.
    pub screen: usize,
    /// The paper's **skin temperature** node: what the user touches and
    /// where [`HandContact`] attaches.
    pub skin: usize,
    /// Exterior back-cover nodes (skin-side), in declaration order —
    /// the nodes scenario layers (cases) add mass to and whose ambient
    /// links they scale.
    pub back: Vec<usize>,
}

impl NodeRoles {
    /// Every role index, for bounds checking.
    fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.dies
            .iter()
            .copied()
            .chain([
                self.package,
                self.board,
                self.battery,
                self.screen,
                self.skin,
            ])
            .chain(self.gpu)
            .chain(self.back.iter().copied())
    }
}

/// How a hand holds the device.
///
/// A hand is close to a fixed-temperature reservoir (blood perfusion pins
/// the palm near 33.5 °C) that simultaneously *blocks* part of the skin
/// node's convective surface. The two effects nearly cancel at typical
/// operating temperatures — which is exactly the paper's §3.A finding
/// that touch barely changes exterior temperatures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HandContact {
    /// Palm temperature (°C). Human palms sit near 33–34 °C.
    pub palm_temperature: Celsius,
    /// Conductance of the palm–cover contact, W/K.
    pub contact_conductance: f64,
    /// Fraction of the skin node's ambient conductance blocked by the
    /// palm.
    pub blocked_fraction: f64,
}

/// A device's thermal network as plain data: nodes, edges, ambient
/// couplings, the hand model, and the node roles.
///
/// Deep validation (connectivity, designation consistency with the
/// cluster list) lives in `usta-device`, where topologies are declared;
/// [`DeviceThermalModel::new`] re-checks the physical basics (positive
/// C/G, in-range indices) through the network builder.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalTopology {
    /// The nodes, in network order.
    pub nodes: Vec<ThermalNode>,
    /// Internal couplings `(a, b, conductance)` by node index, W/K.
    pub couplings: Vec<(usize, usize, f64)>,
    /// Ambient links `(node, conductance)` by node index, W/K.
    pub ambient_links: Vec<(usize, f64)>,
    /// Ambient (room) temperature.
    pub ambient: Celsius,
    /// Initial temperature of every node.
    pub initial: Celsius,
    /// Hand model used when contact is enabled.
    pub hand: HandContact,
    /// The node roles (heat routing and sensor designations).
    pub roles: NodeRoles,
}

impl ThermalTopology {
    /// Number of CPU die nodes (= frequency domains served).
    pub fn dies(&self) -> usize {
        self.roles.dies.len()
    }

    /// Name of the given node.
    pub fn node_name(&self, index: usize) -> &str {
        &self.nodes[index].name
    }

    /// Node index by name.
    pub fn node_index(&self, name: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.name == name)
    }

    /// Names of the die nodes, in big-first cluster order.
    pub fn die_node_names(&self) -> Vec<String> {
        self.roles
            .dies
            .iter()
            .map(|&i| self.nodes[i].name.clone())
            .collect()
    }

    /// Total heat capacity, J/K.
    pub fn total_capacitance(&self) -> f64 {
        self.nodes.iter().map(|n| n.capacitance).sum()
    }

    /// Sum of all ambient conductances, W/K.
    pub fn total_ambient_conductance(&self) -> f64 {
        self.ambient_links.iter().map(|&(_, g)| g).sum()
    }

    /// Sum of the ambient conductances attached to the skin node, W/K —
    /// the surface the hand model partially blocks.
    fn skin_ambient_conductance(&self) -> f64 {
        self.ambient_links
            .iter()
            .filter(|&&(n, _)| n == self.roles.skin)
            .map(|&(_, g)| g)
            .sum()
    }

    /// Checks index ranges: every coupling, ambient link, and role must
    /// reference a declared node, and at least one die node must exist.
    fn check_indices(&self) -> Result<(), ThermalError> {
        let n = self.nodes.len();
        if self.roles.dies.is_empty() {
            return Err(ThermalError::NoDieNode);
        }
        let coupling_ends = self.couplings.iter().flat_map(|&(a, b, _)| [a, b]);
        let link_ends = self.ambient_links.iter().map(|&(i, _)| i);
        for index in coupling_ends.chain(link_ends).chain(self.roles.indices()) {
            if index >= n {
                return Err(ThermalError::UnknownNode { index });
            }
        }
        Ok(())
    }
}

/// Heat entering the device for the current step, in watts, keyed by
/// node role — the CPU term is one entry **per die node** so each
/// cluster heats its own region of the die.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HeatLoad {
    /// Per-cluster CPU power (dynamic + leakage), big-first — routed to
    /// [`NodeRoles::dies`] index for index.
    pub die_w: Vec<f64>,
    /// GPU → package node.
    pub gpu_w: f64,
    /// Display panel and backlight → screen node.
    pub display_w: f64,
    /// Battery internal losses → battery node.
    pub battery_w: f64,
    /// Everything else on the main board → board node.
    pub board_w: f64,
}

impl HeatLoad {
    /// A single-die load: CPU, GPU, display, battery and board watts.
    pub fn single(
        cpu_w: f64,
        gpu_w: f64,
        display_w: f64,
        battery_w: f64,
        board_w: f64,
    ) -> HeatLoad {
        HeatLoad {
            die_w: vec![cpu_w],
            gpu_w,
            display_w,
            battery_w,
            board_w,
        }
    }

    /// Total heat entering the device, in watts.
    pub fn total(&self) -> f64 {
        self.die_w.iter().sum::<f64>() + self.gpu_w + self.display_w + self.battery_w + self.board_w
    }
}

/// A device as a thermal object: a [`ThermalNetwork`] built from a
/// [`ThermalTopology`], stepped under a [`HeatLoad`].
///
/// ```
/// use usta_thermal::{
///     Celsius, DeviceThermalModel, HandContact, HeatLoad, NodeRoles, ThermalNode, ThermalTopology,
/// };
///
/// # fn main() -> Result<(), usta_thermal::ThermalError> {
/// // A three-node slab: die → cover (the skin) and die → screen.
/// let node = |name: &str, capacitance| ThermalNode { name: name.to_owned(), capacitance };
/// let topology = ThermalTopology {
///     nodes: vec![node("die", 1.2), node("cover", 20.0), node("screen", 18.0)],
///     couplings: vec![(0, 1, 0.5), (0, 2, 0.4)],
///     ambient_links: vec![(1, 0.1), (2, 0.12)],
///     ambient: Celsius(24.0),
///     initial: Celsius(26.0),
///     hand: HandContact {
///         palm_temperature: Celsius(33.5),
///         contact_conductance: 0.025,
///         blocked_fraction: 0.12,
///     },
///     roles: NodeRoles {
///         dies: vec![0],
///         package: 0,
///         gpu: None,
///         board: 0,
///         battery: 1,
///         screen: 2,
///         skin: 1,
///         back: vec![1],
///     },
/// };
/// let mut model = DeviceThermalModel::new(topology)?;
/// model.set_heat(HeatLoad::single(3.0, 1.0, 1.0, 0.0, 0.0));
/// model.step(300.0); // five hot minutes
/// assert!(model.skin_temperature() > model.ambient());
/// assert!(model.hottest_die_temperature() > model.skin_temperature());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DeviceThermalModel {
    net: ThermalNetwork,
    ids: Vec<NodeId>,
    topology: ThermalTopology,
    heat: HeatLoad,
    hand_on: bool,
}

impl DeviceThermalModel {
    /// Builds the network from the topology.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::NoDieNode`] for a topology without die
    /// nodes, [`ThermalError::UnknownNode`] for out-of-range indices,
    /// and propagates builder errors (invalid capacitances,
    /// conductances, temperatures, duplicate names or couplings).
    pub fn new(topology: ThermalTopology) -> Result<DeviceThermalModel, ThermalError> {
        topology.check_indices()?;
        let mut b = ThermalNetworkBuilder::new(topology.ambient);
        let mut ids = Vec::with_capacity(topology.nodes.len());
        for node in &topology.nodes {
            ids.push(b.add_node(&node.name, node.capacitance, topology.initial)?);
        }
        for &(a, c, g) in &topology.couplings {
            b.couple(ids[a], ids[c], g)?;
        }
        for &(n, g) in &topology.ambient_links {
            b.link_ambient(ids[n], g)?;
        }
        let heat = HeatLoad {
            die_w: vec![0.0; topology.roles.dies.len()],
            ..HeatLoad::default()
        };
        Ok(DeviceThermalModel {
            net: b.build()?,
            ids,
            topology,
            heat,
            hand_on: false,
        })
    }

    /// Sets the heat entering the device; stays in effect until changed.
    ///
    /// # Panics
    ///
    /// Panics if `heat.die_w` does not carry exactly one entry per die
    /// node of the topology.
    pub fn set_heat(&mut self, heat: HeatLoad) {
        assert_eq!(
            heat.die_w.len(),
            self.topology.roles.dies.len(),
            "one CPU power entry per die node"
        );
        self.heat = heat;
    }

    /// Heat load currently applied.
    pub fn heat(&self) -> &HeatLoad {
        &self.heat
    }

    /// Mutable access to the heat load, for in-place updates on the
    /// hot path (reusing the `die_w` allocation instead of rebuilding
    /// a [`HeatLoad`] every step). Callers must keep `die_w` at one
    /// entry per die node; [`step`](Self::step) debug-asserts it.
    pub fn heat_mut(&mut self) -> &mut HeatLoad {
        &mut self.heat
    }

    /// Enables or disables palm contact on the skin node.
    pub fn set_hand_contact(&mut self, held: bool) {
        self.hand_on = held;
    }

    /// Whether a hand currently holds the device.
    pub fn hand_contact(&self) -> bool {
        self.hand_on
    }

    /// Routes the current heat load to its role nodes as power
    /// injections (skin/hand power excluded).
    fn apply_powers(net: &mut ThermalNetwork, ids: &[NodeId], roles: &NodeRoles, heat: &HeatLoad) {
        net.clear_power();
        for (&node, &watts) in roles.dies.iter().zip(&heat.die_w) {
            net.add_power(ids[node], watts);
        }
        net.add_power(ids[roles.gpu.unwrap_or(roles.package)], heat.gpu_w);
        net.add_power(ids[roles.board], heat.board_w);
        net.add_power(ids[roles.battery], heat.battery_w);
        net.add_power(ids[roles.screen], heat.display_w);
    }

    /// Advances the thermal state by `dt` seconds.
    ///
    /// The hand, when present, is applied as an equivalent power term on
    /// the skin node: it conducts toward palm temperature and blocks part
    /// of the node's convective path (see [`HandContact`]). The term is
    /// evaluated from the temperatures at the start of the step and held
    /// for the whole step, like every other input of the exact
    /// zero-order-hold step; for the sub-second steps of the device
    /// simulator this explicit coupling is indistinguishable from a true
    /// network edge.
    pub fn step(&mut self, dt: f64) {
        debug_assert_eq!(
            self.heat.die_w.len(),
            self.topology.roles.dies.len(),
            "one CPU power entry per die node"
        );
        Self::apply_powers(&mut self.net, &self.ids, &self.topology.roles, &self.heat);
        if self.hand_on {
            let hand = self.topology.hand;
            let skin = self.ids[self.topology.roles.skin];
            let t_skin = self.net.temperature(skin);
            // Conduction toward the palm…
            let mut skin_power = hand.contact_conductance * (hand.palm_temperature - t_skin);
            // …while the palm blocks part of the convective surface.
            let g_amb_skin = self.topology.skin_ambient_conductance();
            skin_power += hand.blocked_fraction * g_amb_skin * (t_skin - self.net.ambient());
            self.net.add_power(skin, skin_power);
        }
        self.net.step(dt);
    }

    /// Temperature of an arbitrary node, by topology index.
    pub fn node_temperature(&self, index: usize) -> Celsius {
        self.net.temperature(self.ids[index])
    }

    /// Temperature of a node by name, when it exists.
    pub fn node_temperature_by_name(&self, name: &str) -> Option<Celsius> {
        self.topology
            .node_index(name)
            .map(|i| self.node_temperature(i))
    }

    /// All node temperatures, in topology node order.
    pub fn temperatures(&self) -> Vec<Celsius> {
        self.ids
            .iter()
            .map(|&id| self.net.temperature(id))
            .collect()
    }

    /// The paper's **skin temperature**: the topology's skin node.
    pub fn skin_temperature(&self) -> Celsius {
        self.node_temperature(self.topology.roles.skin)
    }

    /// The paper's **screen temperature**: the topology's screen node.
    pub fn screen_temperature(&self) -> Celsius {
        self.node_temperature(self.topology.roles.screen)
    }

    /// Die temperature of frequency domain `d` (that cluster's die
    /// node).
    pub fn die_temperature(&self, d: usize) -> Celsius {
        self.node_temperature(self.topology.roles.dies[d])
    }

    /// The hottest die node's temperature — what a kernel CPU thermal
    /// zone reports on a multi-cluster part. Ties resolve to the
    /// earlier (bigger) cluster, deterministically.
    pub fn hottest_die_temperature(&self) -> Celsius {
        let mut best = self.die_temperature(0);
        for d in 1..self.topology.roles.dies.len() {
            let t = self.die_temperature(d);
            if t > best {
                best = t;
            }
        }
        best
    }

    /// Battery temperature (what the on-device battery sensor reports).
    pub fn battery_temperature(&self) -> Celsius {
        self.node_temperature(self.topology.roles.battery)
    }

    /// Ambient (room) temperature.
    pub fn ambient(&self) -> Celsius {
        self.net.ambient()
    }

    /// Simulated seconds elapsed.
    pub fn elapsed(&self) -> f64 {
        self.net.elapsed()
    }

    /// Resets every node to `t` and restarts the clock (fresh
    /// experiment).
    pub fn reset_to(&mut self, t: Celsius) {
        self.net.reset_to(t);
    }

    /// Steady-state temperatures for the current heat load (ignores the
    /// hand), in topology node order.
    ///
    /// # Errors
    ///
    /// Propagates [`ThermalError::SingularSystem`] for topologies with
    /// no path to ambient.
    pub fn steady_state(&self) -> Result<Vec<Celsius>, ThermalError> {
        let mut probe = self.net.clone();
        Self::apply_powers(&mut probe, &self.ids, &self.topology.roles, &self.heat);
        crate::analysis::steady_state(&probe)
    }

    /// The topology this model was built from.
    pub fn topology(&self) -> &ThermalTopology {
        &self.topology
    }

    /// Access to the underlying network (read-only diagnostics).
    pub fn network(&self) -> &ThermalNetwork {
        &self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_die_topology() -> ThermalTopology {
        // A minimal big.LITTLE slab: two dies on one package, one
        // exterior cover that is both skin and the only back node.
        ThermalTopology {
            nodes: vec![
                ThermalNode {
                    name: "die_big".to_owned(),
                    capacitance: 1.2,
                },
                ThermalNode {
                    name: "die_little".to_owned(),
                    capacitance: 0.5,
                },
                ThermalNode {
                    name: "package".to_owned(),
                    capacitance: 8.0,
                },
                ThermalNode {
                    name: "cover".to_owned(),
                    capacitance: 20.0,
                },
                ThermalNode {
                    name: "screen".to_owned(),
                    capacitance: 18.0,
                },
            ],
            couplings: vec![(0, 2, 2.5), (1, 2, 1.5), (2, 3, 0.5), (2, 4, 0.4)],
            ambient_links: vec![(3, 0.1), (4, 0.12)],
            ambient: Celsius(24.0),
            initial: Celsius(26.0),
            hand: HandContact {
                palm_temperature: Celsius(33.5),
                contact_conductance: 0.025,
                blocked_fraction: 0.12,
            },
            roles: NodeRoles {
                dies: vec![0, 1],
                package: 2,
                gpu: None,
                board: 2,
                battery: 3,
                screen: 4,
                skin: 3,
                back: vec![3],
            },
        }
    }

    #[test]
    fn each_cluster_heats_its_own_die() {
        let mut big_loaded = DeviceThermalModel::new(two_die_topology()).unwrap();
        let mut little_loaded = DeviceThermalModel::new(two_die_topology()).unwrap();
        big_loaded.set_heat(HeatLoad {
            die_w: vec![2.0, 0.0],
            ..HeatLoad::default()
        });
        little_loaded.set_heat(HeatLoad {
            die_w: vec![0.0, 2.0],
            ..HeatLoad::default()
        });
        big_loaded.step(600.0);
        little_loaded.step(600.0);
        assert!(big_loaded.die_temperature(0) > big_loaded.die_temperature(1));
        assert!(little_loaded.die_temperature(1) > little_loaded.die_temperature(0));
        assert_eq!(
            big_loaded.hottest_die_temperature(),
            big_loaded.die_temperature(0)
        );
        assert_eq!(
            little_loaded.hottest_die_temperature(),
            little_loaded.die_temperature(1)
        );
    }

    #[test]
    fn node_lookup_by_name_and_temperature_listing() {
        let model = DeviceThermalModel::new(two_die_topology()).unwrap();
        assert_eq!(model.topology().node_index("die_little"), Some(1));
        assert_eq!(
            model.node_temperature_by_name("die_big"),
            Some(model.die_temperature(0))
        );
        assert_eq!(model.node_temperature_by_name("nope"), None);
        assert_eq!(model.temperatures().len(), 5);
        assert_eq!(
            model.topology().die_node_names(),
            vec!["die_big", "die_little"]
        );
    }

    #[test]
    fn steady_state_matches_long_run() {
        let mut model = DeviceThermalModel::new(two_die_topology()).unwrap();
        model.set_heat(HeatLoad {
            die_w: vec![1.5, 0.5],
            gpu_w: 0.8,
            display_w: 0.6,
            battery_w: 0.1,
            board_w: 0.1,
        });
        let ss = model.steady_state().unwrap();
        model.step(3600.0 * 8.0);
        for (i, expected) in ss.iter().enumerate() {
            let got = model.node_temperature(i);
            assert!(
                (got - *expected).abs() < 0.05,
                "{}: long-run {got} vs steady-state {expected}",
                model.topology().node_name(i)
            );
        }
    }

    #[test]
    fn bad_topologies_are_rejected() {
        let mut t = two_die_topology();
        t.roles.dies.clear();
        assert_eq!(
            DeviceThermalModel::new(t).unwrap_err(),
            ThermalError::NoDieNode
        );

        let mut t = two_die_topology();
        t.couplings.push((0, 9, 1.0));
        assert_eq!(
            DeviceThermalModel::new(t).unwrap_err(),
            ThermalError::UnknownNode { index: 9 }
        );

        let mut t = two_die_topology();
        t.roles.skin = 17;
        assert_eq!(
            DeviceThermalModel::new(t).unwrap_err(),
            ThermalError::UnknownNode { index: 17 }
        );

        let mut t = two_die_topology();
        t.nodes[0].capacitance = -1.0;
        assert!(matches!(
            DeviceThermalModel::new(t),
            Err(ThermalError::InvalidCapacitance { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "one CPU power entry per die node")]
    fn heat_load_must_match_die_count() {
        let mut model = DeviceThermalModel::new(two_die_topology()).unwrap();
        model.set_heat(HeatLoad::single(1.0, 0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn heat_load_totals_add_up() {
        let h = HeatLoad {
            die_w: vec![1.0, 0.5],
            gpu_w: 0.7,
            display_w: 0.6,
            battery_w: 0.2,
            board_w: 0.1,
        };
        assert!((h.total() - 3.1).abs() < 1e-12);
        assert_eq!(HeatLoad::single(1.0, 0.0, 0.0, 0.0, 0.0).die_w, vec![1.0]);
    }
}
