//! The thermal side of a device spec: a declarative, validated RC
//! topology with **one die node per CPU cluster**.
//!
//! [`ThermalSpec`] declares named nodes, by-name conductance edges,
//! and explicit role designations (die nodes big-first, skin, screen,
//! exterior back nodes), so a big.LITTLE part's clusters heat separate
//! nodes. Every device's spec, the paper's seven-node Nexus 4
//! included, is read from its catalog file. Validation at
//! registry construction guarantees positive capacitances and
//! conductances, resolvable names, one die node per declared cluster,
//! and a connected graph (every node has a path to ambient);
//! [`ThermalSpec::topology`] lowers the validated spec into the
//! index-based [`usta_thermal::ThermalTopology`] the simulator runs.

use crate::error::DeviceError;
use usta_thermal::{Celsius, HandContact, NodeRoles, ThermalNode, ThermalTopology};

/// One named node of the thermal network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalNodeSpec {
    /// Node name, lower-case `[a-z0-9_-]` — becomes the network node
    /// name, step-trace `temp_c_<node>` columns, and fleet
    /// `temp [C] <device>/<node>` report rows.
    pub name: &'static str,
    /// Heat capacity, J/K.
    pub capacitance: f64,
}

/// The declarative thermal network of one device.
///
/// All capacitances in J/K, conductances in W/K. Edges and role
/// designations reference nodes **by name**; [`ThermalSpec::validate`]
/// checks resolvability so [`ThermalSpec::topology`] cannot fail on a
/// registry spec.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalSpec {
    /// The nodes, in network order.
    pub nodes: Vec<ThermalNodeSpec>,
    /// Internal couplings `(a, b, conductance)` by node name.
    pub couplings: Vec<(&'static str, &'static str, f64)>,
    /// Ambient links `(node, conductance)` by node name.
    pub ambient_links: Vec<(&'static str, f64)>,
    /// One CPU die node per cluster, in the spec's big-first cluster
    /// order — cluster `d`'s power heats `die_nodes[d]`.
    pub die_nodes: Vec<&'static str>,
    /// SoC package node (GPU heat, unless [`ThermalSpec::gpu_node`]
    /// routes it elsewhere).
    pub package_node: &'static str,
    /// Dedicated GPU die node, when the device gives the GPU its own
    /// RC node — GPU heat lands here instead of on the package.
    pub gpu_node: Option<&'static str>,
    /// Main-board node (radios, ISP, PMIC heat).
    pub board_node: &'static str,
    /// Battery pack node (charge/discharge losses).
    pub battery_node: &'static str,
    /// Screen node: display heat, and the paper's **screen
    /// temperature** designation.
    pub screen_node: &'static str,
    /// The paper's **skin temperature** designation: the node the
    /// user's palm touches (and the hand model attaches to).
    pub skin_node: &'static str,
    /// Exterior back-cover nodes — what scenario layers (cases) add
    /// mass to and whose ambient links they scale.
    pub back_nodes: Vec<&'static str>,
    /// Ambient (room) temperature.
    pub ambient: Celsius,
    /// Initial temperature of every node.
    pub initial: Celsius,
    /// Hand model used when contact is enabled.
    pub hand: HandContact,
}

impl ThermalSpec {
    /// Index of a node by name.
    pub fn node_index(&self, name: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.name == name)
    }

    /// Total heat capacity, J/K — the catalog table's "thermal mass".
    pub fn total_capacitance(&self) -> f64 {
        self.nodes.iter().map(|n| n.capacitance).sum()
    }

    /// Sum of all ambient conductances, W/K.
    pub fn total_ambient_conductance(&self) -> f64 {
        self.ambient_links.iter().map(|&(_, g)| g).sum()
    }

    /// Lowers the spec into the index-based runtime topology.
    ///
    /// # Panics
    ///
    /// Panics if an edge or designation references an undeclared node —
    /// impossible for a spec that passed [`ThermalSpec::validate`]
    /// (which every registry spec has).
    pub fn topology(&self) -> ThermalTopology {
        let index = |name: &str| {
            self.node_index(name)
                .unwrap_or_else(|| panic!("thermal node {name:?} not declared (unvalidated spec)"))
        };
        ThermalTopology {
            nodes: self
                .nodes
                .iter()
                .map(|n| ThermalNode {
                    name: n.name.to_owned(),
                    capacitance: n.capacitance,
                })
                .collect(),
            couplings: self
                .couplings
                .iter()
                .map(|&(a, b, g)| (index(a), index(b), g))
                .collect(),
            ambient_links: self
                .ambient_links
                .iter()
                .map(|&(n, g)| (index(n), g))
                .collect(),
            ambient: self.ambient,
            initial: self.initial,
            hand: self.hand,
            roles: NodeRoles {
                dies: self.die_nodes.iter().map(|&n| index(n)).collect(),
                package: index(self.package_node),
                gpu: self.gpu_node.map(index),
                board: index(self.board_node),
                battery: index(self.battery_node),
                screen: index(self.screen_node),
                skin: index(self.skin_node),
                back: self.back_nodes.iter().map(|&n| index(n)).collect(),
            },
        }
    }

    /// Validates the spec against the device's cluster count.
    ///
    /// Checks, in order: node-name alphabet and uniqueness, positive
    /// finite capacitances, coupling shape (known ends, no self or
    /// duplicate edges, positive conductance), ambient links (at least
    /// one, known nodes, positive conductance), die designations (one
    /// per cluster, known, distinct), the remaining role designations
    /// (known; at least one back node), graph connectivity (every node
    /// reaches ambient), finite temperatures, and the hand model's
    /// ranges.
    ///
    /// # Errors
    ///
    /// Returns the first [`DeviceError`] found.
    pub fn validate(&self, clusters: usize) -> Result<(), DeviceError> {
        self.validate_nodes()?;
        self.validate_edges()?;
        self.validate_roles(clusters)?;
        self.validate_connectivity()?;
        self.validate_scalars()
    }

    fn validate_nodes(&self) -> Result<(), DeviceError> {
        if self.nodes.is_empty() {
            return Err(DeviceError::InvalidParameter {
                name: "thermal.nodes",
                value: 0.0,
            });
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if !valid_node_name(node.name) {
                return Err(DeviceError::InvalidThermalNodeName(node.name.to_owned()));
            }
            if self.nodes[..i].iter().any(|n| n.name == node.name) {
                return Err(DeviceError::DuplicateThermalNode(node.name.to_owned()));
            }
            if !node.capacitance.is_finite() || node.capacitance <= 0.0 {
                return Err(DeviceError::InvalidParameter {
                    name: "thermal.capacitance",
                    value: node.capacitance,
                });
            }
        }
        Ok(())
    }

    fn validate_edges(&self) -> Result<(), DeviceError> {
        let known = |name: &'static str| -> Result<(), DeviceError> {
            if self.node_index(name).is_none() {
                return Err(DeviceError::UnknownThermalNode(name.to_owned()));
            }
            Ok(())
        };
        for (i, &(a, b, g)) in self.couplings.iter().enumerate() {
            known(a)?;
            known(b)?;
            if a == b {
                return Err(DeviceError::InvalidThermalCoupling(format!(
                    "{a}\u{2014}{b}: node coupled to itself"
                )));
            }
            if self.couplings[..i]
                .iter()
                .any(|&(x, y, _)| (x == a && y == b) || (x == b && y == a))
            {
                return Err(DeviceError::InvalidThermalCoupling(format!(
                    "{a}\u{2014}{b}: pair coupled twice"
                )));
            }
            if !g.is_finite() || g <= 0.0 {
                return Err(DeviceError::InvalidParameter {
                    name: "thermal.coupling",
                    value: g,
                });
            }
        }
        if self.ambient_links.is_empty() {
            // Without any path to ambient, the steady state is singular
            // and the device would heat without bound.
            return Err(DeviceError::InvalidParameter {
                name: "thermal.ambient_links",
                value: 0.0,
            });
        }
        for &(n, g) in &self.ambient_links {
            known(n)?;
            if !g.is_finite() || g <= 0.0 {
                return Err(DeviceError::InvalidParameter {
                    name: "thermal.ambient_link",
                    value: g,
                });
            }
        }
        Ok(())
    }

    fn validate_roles(&self, clusters: usize) -> Result<(), DeviceError> {
        if self.die_nodes.len() != clusters {
            return Err(DeviceError::DieNodeMismatch {
                die_nodes: self.die_nodes.len(),
                clusters,
            });
        }
        for (i, &die) in self.die_nodes.iter().enumerate() {
            if self.node_index(die).is_none() {
                return Err(DeviceError::UnknownThermalNode(die.to_owned()));
            }
            if self.die_nodes[..i].contains(&die) {
                return Err(DeviceError::DuplicateThermalNode(die.to_owned()));
            }
        }
        for name in [
            self.package_node,
            self.board_node,
            self.battery_node,
            self.screen_node,
            self.skin_node,
        ]
        .into_iter()
        .chain(self.gpu_node)
        {
            if self.node_index(name).is_none() {
                return Err(DeviceError::UnknownThermalNode(name.to_owned()));
            }
        }
        if self.back_nodes.is_empty() {
            return Err(DeviceError::InvalidParameter {
                name: "thermal.back_nodes",
                value: 0.0,
            });
        }
        for &name in &self.back_nodes {
            if self.node_index(name).is_none() {
                return Err(DeviceError::UnknownThermalNode(name.to_owned()));
            }
        }
        Ok(())
    }

    /// Every node must reach ambient through the coupling graph —
    /// otherwise its steady state is unbounded under any sustained
    /// power. BFS from the ambient-linked seed set across couplings.
    fn validate_connectivity(&self) -> Result<(), DeviceError> {
        let n = self.nodes.len();
        let mut reached = vec![false; n];
        let mut frontier: Vec<usize> = Vec::new();
        for &(name, _) in &self.ambient_links {
            let i = self.node_index(name).expect("links validated");
            if !reached[i] {
                reached[i] = true;
                frontier.push(i);
            }
        }
        while let Some(i) = frontier.pop() {
            for &(a, b, _) in &self.couplings {
                let (ia, ib) = (
                    self.node_index(a).expect("couplings validated"),
                    self.node_index(b).expect("couplings validated"),
                );
                let next = if ia == i {
                    ib
                } else if ib == i {
                    ia
                } else {
                    continue;
                };
                if !reached[next] {
                    reached[next] = true;
                    frontier.push(next);
                }
            }
        }
        if let Some(i) = reached.iter().position(|&r| !r) {
            return Err(DeviceError::DisconnectedThermalNode(
                self.nodes[i].name.to_owned(),
            ));
        }
        Ok(())
    }

    fn validate_scalars(&self) -> Result<(), DeviceError> {
        for (name, v) in [
            ("thermal.ambient", self.ambient.value()),
            ("thermal.initial", self.initial.value()),
            ("thermal.hand.palm", self.hand.palm_temperature.value()),
        ] {
            if !v.is_finite() {
                return Err(DeviceError::InvalidParameter { name, value: v });
            }
        }
        if !self.hand.contact_conductance.is_finite() || self.hand.contact_conductance < 0.0 {
            return Err(DeviceError::InvalidParameter {
                name: "thermal.hand.contact_conductance",
                value: self.hand.contact_conductance,
            });
        }
        if !(0.0..=1.0).contains(&self.hand.blocked_fraction) {
            return Err(DeviceError::InvalidParameter {
                name: "thermal.hand.blocked_fraction",
                value: self.hand.blocked_fraction,
            });
        }
        Ok(())
    }
}

/// Node names become network names, trace columns, and report rows, so
/// they share the id alphabet plus `_` (as in `back_mid`).
fn valid_node_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-' || b == b'_')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::builtin_spec;

    #[test]
    fn validation_catches_unknown_names() {
        let mut s = builtin_spec("nexus4").thermal;
        s.couplings[0].0 = "die";
        assert_eq!(
            s.validate(1),
            Err(DeviceError::UnknownThermalNode("die".to_owned()))
        );

        let mut s = builtin_spec("nexus4").thermal;
        s.skin_node = "palm";
        assert_eq!(
            s.validate(1),
            Err(DeviceError::UnknownThermalNode("palm".to_owned()))
        );

        let mut s = builtin_spec("nexus4").thermal;
        s.die_nodes = vec!["hotspot"];
        assert_eq!(
            s.validate(1),
            Err(DeviceError::UnknownThermalNode("hotspot".to_owned()))
        );
    }

    #[test]
    fn validation_requires_one_die_node_per_cluster() {
        let s = builtin_spec("nexus4").thermal;
        assert_eq!(
            s.validate(2),
            Err(DeviceError::DieNodeMismatch {
                die_nodes: 1,
                clusters: 2
            })
        );
        let mut two = builtin_spec("flagship-octa").thermal;
        two.die_nodes.pop();
        assert_eq!(
            two.validate(2),
            Err(DeviceError::DieNodeMismatch {
                die_nodes: 1,
                clusters: 2
            })
        );
    }

    #[test]
    fn duplicate_die_designations_are_rejected() {
        let mut s = builtin_spec("flagship-octa").thermal;
        s.die_nodes[1] = s.die_nodes[0];
        assert_eq!(
            s.validate(2),
            Err(DeviceError::DuplicateThermalNode("die_big".to_owned()))
        );
    }

    #[test]
    fn bad_node_names_and_duplicates_are_rejected() {
        let mut s = builtin_spec("nexus4").thermal;
        s.nodes[0].name = "CPU";
        assert_eq!(
            s.validate(1),
            Err(DeviceError::InvalidThermalNodeName("CPU".to_owned()))
        );

        let mut s = builtin_spec("nexus4").thermal;
        s.nodes[1].name = s.nodes[0].name;
        assert!(matches!(
            s.validate(1),
            Err(DeviceError::DuplicateThermalNode(_))
        ));
    }

    #[test]
    fn self_and_duplicate_couplings_are_rejected() {
        let mut s = builtin_spec("nexus4").thermal;
        s.couplings.push(("board", "board", 0.5));
        assert!(matches!(
            s.validate(1),
            Err(DeviceError::InvalidThermalCoupling(ref m)) if m.contains("itself")
        ));

        let mut s = builtin_spec("nexus4").thermal;
        let (a, b, g) = s.couplings[0];
        s.couplings.push((b, a, g));
        assert!(matches!(
            s.validate(1),
            Err(DeviceError::InvalidThermalCoupling(ref m)) if m.contains("twice")
        ));
    }

    #[test]
    fn disconnected_nodes_are_rejected() {
        let mut s = builtin_spec("nexus4").thermal;
        s.nodes.push(ThermalNodeSpec {
            name: "camera",
            capacitance: 2.0,
        });
        assert_eq!(
            s.validate(1),
            Err(DeviceError::DisconnectedThermalNode("camera".to_owned()))
        );
        // Coupling it into the network fixes the rejection.
        s.couplings.push(("camera", "board", 0.2));
        assert_eq!(s.validate(1), Ok(()));
    }

    #[test]
    fn non_positive_parameters_are_rejected() {
        let mut s = builtin_spec("nexus4").thermal;
        s.nodes[3].capacitance = 0.0;
        assert!(matches!(
            s.validate(1),
            Err(DeviceError::InvalidParameter {
                name: "thermal.capacitance",
                ..
            })
        ));

        let mut s = builtin_spec("nexus4").thermal;
        s.couplings[0].2 = -0.1;
        assert!(matches!(
            s.validate(1),
            Err(DeviceError::InvalidParameter {
                name: "thermal.coupling",
                ..
            })
        ));

        let mut s = builtin_spec("nexus4").thermal;
        s.ambient_links.clear();
        assert!(s.validate(1).is_err());

        let mut s = builtin_spec("nexus4").thermal;
        s.hand.blocked_fraction = 1.5;
        assert!(matches!(
            s.validate(1),
            Err(DeviceError::InvalidParameter {
                name: "thermal.hand.blocked_fraction",
                ..
            })
        ));
    }

    #[test]
    fn summaries_and_lookups() {
        let s = builtin_spec("nexus4").thermal;
        assert_eq!(s.node_index("cpu"), Some(0));
        assert_eq!(s.node_index("screen"), Some(6));
        assert_eq!(s.node_index("palm"), None);
        assert!(s.total_capacitance() > 100.0);
        assert!(s.total_ambient_conductance() > 0.2);
    }
}
