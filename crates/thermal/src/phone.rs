//! Calibrated smartphone thermal parameters.
//!
//! [`PhoneThermalParams`] describes a seven-node RC network shaped like
//! the paper's Nexus 4: CPU die, SoC package, main board, battery, back
//! cover (mid and upper sections — the two thermistor positions of the
//! paper), and screen. The **back-cover mid** node is the paper's "skin
//! temperature" (the spot users touch); the **screen** node is the
//! paper's "screen temperature".
//!
//! Default parameters are calibrated (see `usta-sim`'s calibration
//! experiment) so that the baseline-governor benchmark suite reproduces
//! the temperature *ranges* of the paper's Table 1: peak skin
//! temperatures from ~29 °C (light workloads) to ~43 °C (AnTuTu Tester /
//! Skype video call), multi-minute rise time constants, and screen
//! temperatures a few kelvin below the skin except for display-heavy
//! workloads. [`PhoneThermalParams::topology`] turns the parameters
//! into the [`ThermalTopology`] that [`DeviceThermalModel`] steps.
//!
//! [`DeviceThermalModel`]: crate::DeviceThermalModel

use crate::topology::{NodeRoles, ThermalNode, ThermalTopology};
use crate::units::Celsius;

/// The physical locations modelled by [`PhoneThermalParams`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhoneNode {
    /// CPU die (the on-device "CPU temperature" sensor location).
    Cpu,
    /// SoC package (CPU + GPU + memory package and heat spreader).
    Package,
    /// Main PCB including PMIC, radios, camera ISP.
    Board,
    /// Battery pack (the on-device "battery temperature" sensor location).
    Battery,
    /// Middle of the back cover — the paper's **skin temperature**.
    BackMid,
    /// Upper back cover, over the SoC — the paper's second thermistor.
    BackUpper,
    /// Middle of the screen — the paper's **screen temperature**.
    Screen,
}

impl PhoneNode {
    /// All modelled locations, in network order.
    pub const ALL: [PhoneNode; 7] = [
        PhoneNode::Cpu,
        PhoneNode::Package,
        PhoneNode::Board,
        PhoneNode::Battery,
        PhoneNode::BackMid,
        PhoneNode::BackUpper,
        PhoneNode::Screen,
    ];

    /// Index of this node in [`PhoneNode::ALL`] — also the node's slot
    /// in [`PhoneThermalParams::capacitance`], so callers building
    /// modified phones (cases, accessories) can address it directly.
    ///
    /// Derived from the node's position in [`PhoneNode::ALL`] (the
    /// single source of truth for node order); a compile-time check
    /// below keeps the scan total.
    pub const fn index(self) -> usize {
        let mut i = 0;
        while i < PhoneNode::ALL.len() {
            if PhoneNode::ALL[i] as usize == self as usize {
                return i;
            }
            i += 1;
        }
        panic!("PhoneNode::ALL must list every variant")
    }

    /// Stable lower-case name (also the network node name).
    pub fn name(self) -> &'static str {
        match self {
            PhoneNode::Cpu => "cpu",
            PhoneNode::Package => "package",
            PhoneNode::Board => "board",
            PhoneNode::Battery => "battery",
            PhoneNode::BackMid => "back_mid",
            PhoneNode::BackUpper => "back_upper",
            PhoneNode::Screen => "screen",
        }
    }
}

// `index` scans `ALL`, so `ALL` is the single source of truth — this
// compile-time check guarantees the scan terminates for every variant
// (i.e. `ALL` is a permutation covering the whole enum).
const _: () = {
    let mut i = 0;
    while i < PhoneNode::ALL.len() {
        assert!(PhoneNode::ALL[i].index() == i, "ALL order disagrees");
        i += 1;
    }
};

/// How a hand holds the phone.
///
/// A hand is close to a fixed-temperature reservoir (blood perfusion pins
/// the palm near 33.5 °C) that simultaneously *blocks* part of the back
/// cover's convective surface. The two effects nearly cancel at typical
/// operating temperatures — which is exactly the paper's §3.A finding
/// that touch barely changes exterior temperatures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HandContact {
    /// Palm temperature (°C). Human palms sit near 33–34 °C.
    pub palm_temperature: Celsius,
    /// Conductance of the palm–cover contact, W/K.
    pub contact_conductance: f64,
    /// Fraction of the back-mid ambient conductance blocked by the palm.
    pub blocked_fraction: f64,
}

impl Default for HandContact {
    fn default() -> HandContact {
        // Balanced so conduction to the palm cancels the blocked
        // convection near 40 °C — the operating region of an actively
        // used phone — reproducing the paper's "touch barely matters"
        // observation while still letting a palm warm a cold idle cover.
        HandContact {
            palm_temperature: Celsius(33.5),
            contact_conductance: 0.025,
            blocked_fraction: 0.12,
        }
    }
}

/// Parameters of the seven-node phone network.
///
/// All capacitances in J/K, conductances in W/K. The defaults are the
/// calibrated Nexus-4-like values used throughout the reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct PhoneThermalParams {
    /// Heat capacity of each node, indexed like [`PhoneNode::ALL`].
    pub capacitance: [f64; 7],
    /// Internal couplings `(a, b, conductance)`.
    pub couplings: Vec<(PhoneNode, PhoneNode, f64)>,
    /// Ambient links `(node, conductance)`.
    pub ambient_links: Vec<(PhoneNode, f64)>,
    /// Ambient (room) temperature.
    pub ambient: Celsius,
    /// Initial temperature of every node.
    pub initial: Celsius,
    /// Hand model used when contact is enabled.
    pub hand: HandContact,
}

impl Default for PhoneThermalParams {
    fn default() -> PhoneThermalParams {
        use PhoneNode::*;
        PhoneThermalParams {
            // [cpu, package, board, battery, back_mid, back_upper, screen]
            capacitance: [1.2, 7.0, 30.0, 55.0, 10.0, 8.0, 26.0],
            couplings: vec![
                (Cpu, Package, 3.0),
                (Package, Board, 1.1),
                (Package, BackUpper, 0.30),
                (Board, Battery, 0.60),
                (Board, BackMid, 0.22),
                (Board, Screen, 0.12),
                (Battery, BackMid, 0.55),
                (Battery, Screen, 0.03),
                (BackUpper, BackMid, 0.10),
            ],
            ambient_links: vec![
                (BackMid, 0.075),
                (BackUpper, 0.055),
                (Screen, 0.130),
                (Board, 0.020),
                (Battery, 0.005),
            ],
            ambient: Celsius(24.0),
            initial: Celsius(28.0),
            hand: HandContact::default(),
        }
    }
}

impl PhoneThermalParams {
    /// Sum of all ambient conductances, W/K — the phone's total ability
    /// to shed heat to the room.
    pub fn total_ambient_conductance(&self) -> f64 {
        self.ambient_links.iter().map(|&(_, g)| g).sum()
    }

    /// Total heat capacity, J/K.
    pub fn total_capacitance(&self) -> f64 {
        self.capacitance.iter().sum()
    }

    /// These parameters as a data-driven [`ThermalTopology`]: the seven
    /// [`PhoneNode`]s in `ALL` order with the single `cpu` die node,
    /// `back_mid` as the skin, and the two back-cover nodes as the
    /// exterior.
    ///
    /// ```
    /// use usta_thermal::{DeviceThermalModel, HeatLoad, PhoneNode, PhoneThermalParams};
    ///
    /// # fn main() -> Result<(), usta_thermal::ThermalError> {
    /// let mut phone = DeviceThermalModel::new(PhoneThermalParams::default().topology())?;
    /// phone.set_heat(HeatLoad::single(3.0, 1.0, 1.0, 0.0, 0.0));
    /// phone.step(300.0); // five hot minutes
    /// assert!(phone.skin_temperature() > phone.ambient());
    /// assert!(phone.node_temperature(PhoneNode::Cpu.index()) > phone.skin_temperature());
    /// # Ok(())
    /// # }
    /// ```
    pub fn topology(&self) -> ThermalTopology {
        use PhoneNode::*;
        ThermalTopology {
            nodes: PhoneNode::ALL
                .iter()
                .map(|n| ThermalNode {
                    name: n.name().to_owned(),
                    capacitance: self.capacitance[n.index()],
                })
                .collect(),
            couplings: self
                .couplings
                .iter()
                .map(|&(a, b, g)| (a.index(), b.index(), g))
                .collect(),
            ambient_links: self
                .ambient_links
                .iter()
                .map(|&(n, g)| (n.index(), g))
                .collect(),
            ambient: self.ambient,
            initial: self.initial,
            hand: self.hand,
            roles: NodeRoles {
                dies: vec![Cpu.index()],
                package: Package.index(),
                gpu: None,
                board: Board.index(),
                battery: Battery.index(),
                screen: Screen.index(),
                skin: BackMid.index(),
                back: vec![BackMid.index(), BackUpper.index()],
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{DeviceThermalModel, HeatLoad};

    fn phone() -> DeviceThermalModel {
        DeviceThermalModel::new(PhoneThermalParams::default().topology()).unwrap()
    }

    fn heavy() -> HeatLoad {
        HeatLoad::single(3.4, 1.3, 1.0, 0.35, 0.25)
    }

    fn temperature(p: &DeviceThermalModel, node: PhoneNode) -> Celsius {
        p.node_temperature(node.index())
    }

    #[test]
    fn index_is_position_in_all() {
        // The const-consistency contract: `index` is defined as the
        // position in `ALL`, so the two must agree for every variant,
        // in both directions.
        for (i, node) in PhoneNode::ALL.iter().enumerate() {
            assert_eq!(node.index(), i, "{}", node.name());
            assert_eq!(PhoneNode::ALL[node.index()], *node);
        }
    }

    #[test]
    fn default_params_build() {
        let p = phone();
        assert_eq!(p.skin_temperature(), Celsius(28.0));
        assert!((p.ambient() - Celsius(24.0)).abs() < 1e-12);
    }

    #[test]
    fn heavy_load_reaches_hot_skin_in_minutes_not_hours() {
        let mut p = phone();
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
        let mut p = phone();
        p.set_heat(heavy());
        p.step(900.0);
        let die = p.die_temperature(0);
        let pkg = temperature(&p, PhoneNode::Package);
        let skin = p.skin_temperature();
        assert!(die > pkg, "die {die} should exceed package {pkg}");
        assert!(pkg > skin, "package {pkg} should exceed skin {skin}");
        assert!(skin > p.ambient());
    }

    #[test]
    fn idle_phone_cools_toward_ambient() {
        let mut p = phone();
        p.set_heat(HeatLoad::single(0.0, 0.0, 0.0, 0.0, 0.0));
        p.step(3600.0 * 4.0);
        assert!((p.skin_temperature() - p.ambient()).abs() < 0.05);
    }

    #[test]
    fn steady_state_matches_long_run() {
        let mut p = phone();
        p.set_heat(heavy());
        let ss = p.steady_state().unwrap();
        p.step(3600.0 * 6.0);
        for (node, expected) in PhoneNode::ALL.iter().zip(&ss) {
            let got = temperature(&p, *node);
            assert!(
                (got - *expected).abs() < 0.05,
                "{}: long-run {got} vs steady-state {expected}",
                node.name()
            );
        }
    }

    #[test]
    fn rise_time_constant_is_minutes() {
        // The defining property of the skin-temperature problem: the skin
        // responds on a minutes scale, much slower than the die.
        let mut p = phone();
        p.set_heat(heavy());
        let ss = p.steady_state().unwrap()[PhoneNode::BackMid.index()];
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
        let mut held = phone();
        let mut free = phone();
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
        let mut held = phone();
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
        let mut p = phone();
        p.set_heat(HeatLoad::single(0.0, 0.0, 1.2, 0.0, 0.0));
        p.step(1200.0);
        assert!(p.screen_temperature() > p.skin_temperature());
    }

    #[test]
    fn battery_charging_heats_the_back() {
        let mut p = phone();
        p.set_heat(HeatLoad::single(0.0, 0.0, 0.0, 1.0, 0.0));
        p.step(1800.0);
        assert!(p.skin_temperature() > p.screen_temperature());
    }

    #[test]
    fn total_heat_input_adds_up() {
        let h = heavy();
        assert!((h.total() - (3.4 + 1.3 + 1.0 + 0.35 + 0.25)).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_state() {
        let mut p = phone();
        p.set_heat(heavy());
        p.step(600.0);
        p.reset_to(Celsius(26.0));
        assert_eq!(p.skin_temperature(), Celsius(26.0));
        assert_eq!(p.elapsed(), 0.0);
    }
}
