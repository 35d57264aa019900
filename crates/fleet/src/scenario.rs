//! The scenario catalog: every environment a phone meets in the field.
//!
//! The paper evaluates USTA in one room (24 °C), one bare Nexus 4, on
//! thirteen workloads. Bhat et al. (arXiv:1904.09814, arXiv:2003.11081)
//! show that skin-temperature dynamics shift strongly with ambient
//! temperature, enclosure, and charging state — and across *devices*
//! (commercial platforms differ widely in power/thermal behaviour) —
//! so a population-scale sweep must cross those axes too. A
//! [`Scenario`] fixes one point of that grid: a catalog device, a
//! workload, an ambient band, a phone case, and charging / grip state.
//! [`ScenarioCatalog`] enumerates the full cartesian grid (device
//! outermost) or a deterministic sample of it.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use usta_device::DeviceSpec;
use usta_sim::DeviceConfig;
use usta_thermal::materials::Material;
use usta_thermal::Celsius;
use usta_workloads::{Benchmark, DeviceDemand, PhasedWorkload, Workload};

/// The device every single-device catalog runs on: the paper's.
pub const DEFAULT_DEVICE: &str = "nexus4";

/// Ambient (room) temperature bands for the sweep grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AmbientBand {
    /// Cold outdoors / unheated room, 5 °C.
    Winter,
    /// The paper's lab condition, 24 °C.
    Office,
    /// Warm outdoors, 32 °C.
    Summer,
    /// Parked-car / direct-sun extreme, 40 °C.
    HotCar,
}

impl AmbientBand {
    /// All bands, coldest first.
    pub const ALL: [AmbientBand; 4] = [
        AmbientBand::Winter,
        AmbientBand::Office,
        AmbientBand::Summer,
        AmbientBand::HotCar,
    ];

    /// The band's ambient temperature.
    pub fn temperature(self) -> Celsius {
        match self {
            AmbientBand::Winter => Celsius(5.0),
            AmbientBand::Office => Celsius(24.0),
            AmbientBand::Summer => Celsius(32.0),
            AmbientBand::HotCar => Celsius(40.0),
        }
    }

    /// Short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            AmbientBand::Winter => "winter",
            AmbientBand::Office => "office",
            AmbientBand::Summer => "summer",
            AmbientBand::HotCar => "hot-car",
        }
    }
}

/// Phone enclosure. A case adds thermal mass to the back-cover nodes and
/// throttles (or, for metal, slightly helps) their convective path to
/// ambient — the dominant reason identical phones feel different in
/// different cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CaseKind {
    /// Bare phone — the paper's configuration.
    Naked,
    /// Thin snap-on polycarbonate shell.
    SlimShell,
    /// Thick two-layer rugged polycarbonate case.
    Rugged,
    /// Open aluminium bumper + thin back plate: conducts well, spreads
    /// heat, costs little convective area.
    AluminiumBumper,
}

impl CaseKind {
    /// All cases, barest first.
    pub const ALL: [CaseKind; 4] = [
        CaseKind::Naked,
        CaseKind::SlimShell,
        CaseKind::Rugged,
        CaseKind::AluminiumBumper,
    ];

    /// Short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CaseKind::Naked => "naked",
            CaseKind::SlimShell => "slim-shell",
            CaseKind::Rugged => "rugged",
            CaseKind::AluminiumBumper => "alu-bumper",
        }
    }

    /// The case body material, when there is a case.
    pub fn material(self) -> Option<Material> {
        match self {
            CaseKind::Naked => None,
            CaseKind::SlimShell | CaseKind::Rugged => Some(Material::Polycarbonate),
            CaseKind::AluminiumBumper => Some(Material::Aluminium),
        }
    }

    /// Case mass sitting over the back cover, grams.
    fn back_mass_grams(self) -> f64 {
        match self {
            CaseKind::Naked => 0.0,
            CaseKind::SlimShell => 18.0,
            CaseKind::Rugged => 48.0,
            CaseKind::AluminiumBumper => 22.0,
        }
    }

    /// Multiplier on the back-cover nodes' ambient conductance.
    fn ambient_scale(self) -> f64 {
        match self {
            CaseKind::Naked => 1.0,
            // Plastic shells insulate the back; a rugged case severely.
            CaseKind::SlimShell => 0.72,
            CaseKind::Rugged => 0.45,
            // Aluminium spreads heat over more radiating area.
            CaseKind::AluminiumBumper => 1.10,
        }
    }
}

/// One point of the sweep grid: device × workload × environment ×
/// device state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Canonical registry id of the device the scenario runs on
    /// (see [`usta_device::NAMES`]).
    pub device: &'static str,
    /// The workload being run.
    pub benchmark: Benchmark,
    /// Room temperature band.
    pub ambient: AmbientBand,
    /// Phone enclosure.
    pub case: CaseKind,
    /// Whether the charger is attached for the whole session.
    pub charging: bool,
    /// Whether a hand holds the phone throughout.
    pub hand_held: bool,
}

impl Scenario {
    /// Stable human-readable name, e.g. `"Skype/summer/rugged/charging"`.
    /// Deliberately device-free — reports and trace sinks carry the
    /// device id as its own column.
    pub fn name(&self) -> String {
        let mut s = format!(
            "{}/{}/{}",
            self.benchmark.name(),
            self.ambient.name(),
            self.case.name()
        );
        if self.charging {
            s.push_str("/charging");
        }
        if self.hand_held {
            s.push_str("/held");
        }
        s
    }

    /// The registry spec of this scenario's device.
    ///
    /// # Panics
    ///
    /// Panics if `device` is not a registry id; catalogs only hold
    /// canonical ids, so this can only trip on a hand-built scenario.
    pub fn spec(&self) -> &'static DeviceSpec {
        usta_device::by_id(self.device).expect("scenario device is a registry id")
    }

    /// The device configuration this scenario runs on: the scenario's
    /// catalog device with its thermal topology re-parameterised for
    /// the ambient band and case, soaked to room temperature at
    /// power-on. Case handling goes through the topology's exterior
    /// back-node designation, so it works for any node layout.
    pub fn device_config(&self, sensor_seed: u64) -> DeviceConfig {
        let mut config = DeviceConfig {
            sensor_seed,
            hand_held: self.hand_held,
            ..DeviceConfig::for_device(self.spec().clone())
        };
        let thermal = &mut config.thermal;
        thermal.ambient = self.ambient.temperature();
        // A phone picked up in the field starts barely above the room.
        thermal.initial = self.ambient.temperature() + 2.0;
        let backs = thermal.roles.back.clone();
        if let Some(material) = self.case.material() {
            // Case mass splits over the designated back-cover nodes in
            // proportion to their bare capacitance.
            let added = material.capacitance_of_grams(self.case.back_mass_grams());
            let total: f64 = backs.iter().map(|&i| thermal.nodes[i].capacitance).sum();
            for &i in &backs {
                thermal.nodes[i].capacitance += added * thermal.nodes[i].capacitance / total;
            }
        }
        let scale = self.case.ambient_scale();
        for (node, g) in thermal.ambient_links.iter_mut() {
            if backs.contains(node) {
                *g *= scale;
            }
        }
        config
    }

    /// Instantiates the scenario's workload with the given jitter seed,
    /// capped at `max_seconds` of simulated time (fleet sweeps truncate
    /// long benchmarks so every triple costs a bounded number of steps).
    pub fn workload(&self, seed: u64, max_seconds: f64) -> ScenarioWorkload {
        ScenarioWorkload {
            inner: self.benchmark.workload(seed),
            charging: self.charging,
            duration: self.benchmark.duration().min(max_seconds),
        }
    }
}

/// A benchmark workload adapted to its scenario: duration-capped and,
/// when the scenario charges, with the charger demand forced on.
#[derive(Debug, Clone)]
pub struct ScenarioWorkload {
    inner: PhasedWorkload,
    charging: bool,
    duration: f64,
}

impl Workload for ScenarioWorkload {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn duration(&self) -> f64 {
        self.duration
    }

    fn demand_into(&mut self, t: f64, dt: f64, out: &mut DeviceDemand) {
        if t < self.duration {
            self.inner.demand_into(t, dt, out);
        } else {
            *out = DeviceDemand::idle();
        }
        out.charging |= self.charging;
    }
}

/// The benchmark/environment axes a sweep grid crosses. The default is
/// the paper's full grid (every benchmark, ambient, case, and both
/// charging/grip states); a catalog file's [`ScenarioGridSpec`]
/// restricts it via [`GridAxes::from_spec`].
///
/// [`ScenarioGridSpec`]: usta_catalog::ScenarioGridSpec
#[derive(Debug, Clone, PartialEq)]
pub struct GridAxes {
    /// Benchmarks to cross, in grid order.
    pub benchmarks: Vec<Benchmark>,
    /// Ambient bands to cross.
    pub ambients: Vec<AmbientBand>,
    /// Enclosures to cross.
    pub cases: Vec<CaseKind>,
    /// Charging states to cross.
    pub charging: Vec<bool>,
    /// Grip states to cross.
    pub hand_held: Vec<bool>,
}

impl Default for GridAxes {
    fn default() -> GridAxes {
        GridAxes {
            benchmarks: Benchmark::ALL.to_vec(),
            ambients: AmbientBand::ALL.to_vec(),
            cases: CaseKind::ALL.to_vec(),
            charging: vec![false, true],
            hand_held: vec![false, true],
        }
    }
}

impl GridAxes {
    /// Resolves a catalog grid's axis strings against the fleet enums:
    /// benchmarks by their display name (`"AnTuTu Full"`, see
    /// [`Benchmark::name`]), ambients and cases by their report name
    /// (`"hot-car"`, `"slim-shell"`). Axis order in the file is grid
    /// order.
    ///
    /// # Errors
    ///
    /// Returns a CLI-ready message naming the grid, the bad value, and
    /// every known value for that axis.
    pub fn from_spec(spec: &usta_catalog::ScenarioGridSpec) -> Result<GridAxes, String> {
        fn axis<T: Copy>(
            grid: &str,
            axis_name: &str,
            values: &[String],
            known: &[T],
            name_of: impl Fn(T) -> &'static str,
        ) -> Result<Vec<T>, String> {
            values
                .iter()
                .map(|value| {
                    known
                        .iter()
                        .copied()
                        .find(|&k| name_of(k) == value)
                        .ok_or_else(|| {
                            format!(
                                "grid {grid:?}: unknown {axis_name} {value:?} (known: {})",
                                known
                                    .iter()
                                    .map(|&k| name_of(k))
                                    .collect::<Vec<_>>()
                                    .join(", ")
                            )
                        })
                })
                .collect()
        }
        Ok(GridAxes {
            benchmarks: axis(
                &spec.name,
                "benchmark",
                &spec.benchmarks,
                &Benchmark::ALL,
                Benchmark::name,
            )?,
            ambients: axis(
                &spec.name,
                "ambient",
                &spec.ambients,
                &AmbientBand::ALL,
                AmbientBand::name,
            )?,
            cases: axis(
                &spec.name,
                "case",
                &spec.cases,
                &CaseKind::ALL,
                CaseKind::name,
            )?,
            charging: spec.charging.clone(),
            hand_held: spec.hand_held.clone(),
        })
    }

    /// Scenarios the axes generate per device (the axis-length
    /// product).
    pub fn len_per_device(&self) -> usize {
        self.benchmarks.len()
            * self.ambients.len()
            * self.cases.len()
            * self.charging.len()
            * self.hand_held.len()
    }
}

/// A deterministic list of scenarios to sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioCatalog {
    scenarios: Vec<Scenario>,
}

impl ScenarioCatalog {
    /// The full cartesian grid on the paper's device: 13 benchmarks ×
    /// 4 ambients × 4 cases × charging × hand — 832 scenarios,
    /// benchmark-major order.
    pub fn full() -> ScenarioCatalog {
        ScenarioCatalog::full_on(&[DEFAULT_DEVICE])
    }

    /// The full cartesian grid across the given devices (canonical
    /// registry ids), device-major then benchmark-major: 832 scenarios
    /// per device. With a single device the order is exactly the
    /// single-device grid's.
    pub fn full_on(devices: &[&'static str]) -> ScenarioCatalog {
        ScenarioCatalog::full_grid_on(&GridAxes::default(), devices)
    }

    /// The cartesian grid of the given axes across the given devices,
    /// device-major then axis-major in [`GridAxes`] field order. With
    /// the default axes this is exactly [`ScenarioCatalog::full_on`].
    pub fn full_grid_on(axes: &GridAxes, devices: &[&'static str]) -> ScenarioCatalog {
        let mut scenarios = Vec::new();
        for &device in devices {
            for &benchmark in &axes.benchmarks {
                for &ambient in &axes.ambients {
                    for &case in &axes.cases {
                        for &charging in &axes.charging {
                            for &hand_held in &axes.hand_held {
                                scenarios.push(Scenario {
                                    device,
                                    benchmark,
                                    ambient,
                                    case,
                                    charging,
                                    hand_held,
                                });
                            }
                        }
                    }
                }
            }
        }
        ScenarioCatalog { scenarios }
    }

    /// A deterministic `n`-scenario sample of the paper's-device grid.
    pub fn sampled(seed: u64, n: usize) -> ScenarioCatalog {
        ScenarioCatalog::sampled_on(seed, n, &[DEFAULT_DEVICE])
    }

    /// A deterministic `n`-scenario sample of the multi-device grid: a
    /// seeded shuffle of [`ScenarioCatalog::full_on`], cycled when `n`
    /// exceeds the grid size. The sample is a pure function of
    /// `(seed, n, devices)`. An empty device list yields an empty
    /// catalog.
    pub fn sampled_on(seed: u64, n: usize, devices: &[&'static str]) -> ScenarioCatalog {
        ScenarioCatalog::sampled_grid_on(seed, n, &GridAxes::default(), devices)
    }

    /// A deterministic `n`-scenario sample of an arbitrary-axes grid:
    /// a seeded shuffle of [`ScenarioCatalog::full_grid_on`], cycled
    /// when `n` exceeds the grid size. The sample is a pure function
    /// of `(seed, n, axes, devices)`; with the default axes it is
    /// exactly [`ScenarioCatalog::sampled_on`]'s. An empty device list
    /// or empty axis yields an empty catalog.
    pub fn sampled_grid_on(
        seed: u64,
        n: usize,
        axes: &GridAxes,
        devices: &[&'static str],
    ) -> ScenarioCatalog {
        let mut grid = ScenarioCatalog::full_grid_on(axes, devices).scenarios;
        if grid.is_empty() {
            return ScenarioCatalog { scenarios: grid };
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5CE0_4A71);
        grid.shuffle(&mut rng);
        let scenarios = (0..n).map(|i| grid[i % grid.len()]).collect();
        ScenarioCatalog { scenarios }
    }

    /// A fixed four-scenario catalog of short benchmarks for smoke runs
    /// and CI, on the paper's device.
    pub fn smoke() -> ScenarioCatalog {
        ScenarioCatalog::smoke_on(&[DEFAULT_DEVICE])
    }

    /// The fixed smoke catalog replicated per device (device-major):
    /// one cold, one paper-condition, one hot-and-cased, one
    /// charging-while-held — four short scenarios per device.
    pub fn smoke_on(devices: &[&'static str]) -> ScenarioCatalog {
        let mut scenarios = Vec::new();
        for &device in devices {
            let mk = |benchmark, ambient, case, charging, hand_held| Scenario {
                device,
                benchmark,
                ambient,
                case,
                charging,
                hand_held,
            };
            scenarios.extend([
                mk(
                    Benchmark::GfxBench,
                    AmbientBand::Winter,
                    CaseKind::Naked,
                    false,
                    false,
                ),
                mk(
                    Benchmark::AntutuCpuGpuRam,
                    AmbientBand::Office,
                    CaseKind::Naked,
                    false,
                    true,
                ),
                mk(
                    Benchmark::Vellamo,
                    AmbientBand::HotCar,
                    CaseKind::Rugged,
                    false,
                    false,
                ),
                mk(
                    Benchmark::GfxBench,
                    AmbientBand::Summer,
                    CaseKind::SlimShell,
                    true,
                    true,
                ),
            ]);
        }
        ScenarioCatalog { scenarios }
    }

    /// The scenarios, in sweep order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// `true` when the catalog holds no scenarios.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grid_has_the_cartesian_size() {
        let c = ScenarioCatalog::full();
        assert_eq!(c.len(), 13 * 4 * 4 * 2 * 2);
        assert!(c.scenarios().iter().all(|s| s.device == DEFAULT_DEVICE));
    }

    #[test]
    fn multi_device_grid_is_device_major() {
        let c = ScenarioCatalog::full_on(&["nexus4", "tablet-10in"]);
        assert_eq!(c.len(), 2 * 832);
        assert!(c.scenarios()[..832].iter().all(|s| s.device == "nexus4"));
        assert!(c.scenarios()[832..]
            .iter()
            .all(|s| s.device == "tablet-10in"));
        // Per-device blocks are the single-device grid exactly.
        let single = ScenarioCatalog::full();
        for (a, b) in single.scenarios().iter().zip(c.scenarios()) {
            assert_eq!(
                (a.benchmark, a.ambient, a.case),
                (b.benchmark, b.ambient, b.case)
            );
        }
    }

    #[test]
    fn sampling_is_deterministic_and_cycles() {
        let a = ScenarioCatalog::sampled(9, 20);
        let b = ScenarioCatalog::sampled(9, 20);
        assert_eq!(a, b);
        assert_ne!(a, ScenarioCatalog::sampled(10, 20));
        let big = ScenarioCatalog::sampled(9, 900);
        assert_eq!(big.len(), 900);
        assert_eq!(big.scenarios()[0], big.scenarios()[832]);
    }

    #[test]
    fn sampling_an_empty_device_list_yields_an_empty_catalog() {
        let c = ScenarioCatalog::sampled_on(42, 8, &[]);
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn single_device_sampling_matches_the_legacy_sampler() {
        // The device axis must not disturb the default sample: the same
        // seed over a ["nexus4"] grid is the pre-axis catalog verbatim.
        assert_eq!(
            ScenarioCatalog::sampled(42, 64),
            ScenarioCatalog::sampled_on(42, 64, &[DEFAULT_DEVICE])
        );
    }

    #[test]
    fn default_axes_generate_the_legacy_grid_and_sample() {
        let axes = GridAxes::default();
        assert_eq!(axes.len_per_device(), 13 * 4 * 4 * 2 * 2);
        assert_eq!(
            ScenarioCatalog::full_grid_on(&axes, &[DEFAULT_DEVICE]),
            ScenarioCatalog::full()
        );
        assert_eq!(
            ScenarioCatalog::sampled_grid_on(42, 64, &axes, &[DEFAULT_DEVICE]),
            ScenarioCatalog::sampled(42, 64)
        );
    }

    #[test]
    fn grid_axes_resolve_catalog_names() {
        let spec = usta_catalog::ScenarioGridSpec {
            name: "extremes".to_owned(),
            benchmarks: vec!["GFXBench".to_owned(), "AnTuTu Full".to_owned()],
            ambients: vec!["hot-car".to_owned()],
            cases: vec!["rugged".to_owned(), "naked".to_owned()],
            charging: vec![true],
            hand_held: vec![false, true],
        };
        let axes = GridAxes::from_spec(&spec).expect("all names resolve");
        assert_eq!(
            axes.benchmarks,
            vec![Benchmark::GfxBench, Benchmark::AntutuFull]
        );
        assert_eq!(axes.ambients, vec![AmbientBand::HotCar]);
        assert_eq!(axes.cases, vec![CaseKind::Rugged, CaseKind::Naked]);
        // 2 benchmarks × 1 ambient × 2 cases × 1 charging × 2 grips.
        assert_eq!(axes.len_per_device(), 8);
        let catalog = ScenarioCatalog::full_grid_on(&axes, &[DEFAULT_DEVICE]);
        assert_eq!(catalog.len(), 8);
        assert!(catalog.scenarios().iter().all(|s| s.charging));
        assert!(catalog
            .scenarios()
            .iter()
            .all(|s| s.ambient == AmbientBand::HotCar));
        // File order is grid order, not enum order.
        assert_eq!(catalog.scenarios()[0].benchmark, Benchmark::GfxBench);
        assert_eq!(catalog.scenarios()[0].case, CaseKind::Rugged);
    }

    #[test]
    fn grid_axes_reject_unknown_values_listing_the_known_ones() {
        let mut spec = usta_catalog::ScenarioGridSpec {
            name: "bad".to_owned(),
            benchmarks: vec!["Quake".to_owned()],
            ambients: vec!["office".to_owned()],
            cases: vec!["naked".to_owned()],
            charging: vec![false],
            hand_held: vec![false],
        };
        let message = GridAxes::from_spec(&spec).unwrap_err();
        assert!(message.contains("unknown benchmark \"Quake\""), "{message}");
        assert!(message.contains("AnTuTu Full"), "{message}");
        assert!(message.contains("GFXBench"), "{message}");
        spec.benchmarks = vec!["Skype".to_owned()];
        spec.ambients = vec!["tundra".to_owned()];
        let message = GridAxes::from_spec(&spec).unwrap_err();
        assert!(message.contains("unknown ambient \"tundra\""), "{message}");
        assert!(message.contains("hot-car"), "{message}");
        spec.ambients = vec!["winter".to_owned()];
        spec.cases = vec!["leather".to_owned()];
        let message = GridAxes::from_spec(&spec).unwrap_err();
        assert!(message.contains("unknown case \"leather\""), "{message}");
        assert!(message.contains("slim-shell"), "{message}");
    }

    #[test]
    fn smoke_replicates_per_device() {
        let multi = ScenarioCatalog::smoke_on(&["nexus4", "budget-quad"]);
        assert_eq!(multi.len(), 2 * ScenarioCatalog::smoke().len());
        assert_eq!(multi.scenarios()[4].device, "budget-quad");
        assert_eq!(
            multi.scenarios()[0].benchmark,
            multi.scenarios()[4].benchmark
        );
    }

    #[test]
    fn scenario_device_drives_the_device_config() {
        let tablet = Scenario {
            device: "tablet-10in",
            benchmark: Benchmark::GfxBench,
            ambient: AmbientBand::Office,
            case: CaseKind::Naked,
            charging: false,
            hand_held: false,
        };
        let phone = Scenario {
            device: DEFAULT_DEVICE,
            ..tablet
        };
        let t = tablet.device_config(1);
        let p = phone.device_config(1);
        assert_eq!(t.spec.id, "tablet-10in");
        assert_eq!(t.spec.cores(), 6);
        assert!(t.thermal.total_capacitance() > 3.0 * p.thermal.total_capacitance());
    }

    #[test]
    fn case_changes_back_cover_parameters_only_plausibly() {
        let naked = Scenario {
            device: DEFAULT_DEVICE,
            benchmark: Benchmark::GfxBench,
            ambient: AmbientBand::Office,
            case: CaseKind::Naked,
            charging: false,
            hand_held: false,
        };
        let rugged = Scenario {
            case: CaseKind::Rugged,
            ..naked
        };
        let a = naked.device_config(1).thermal;
        let b = rugged.device_config(1).thermal;
        assert!(b.total_capacitance() > a.total_capacitance());
        assert!(b.total_ambient_conductance() < a.total_ambient_conductance());
    }

    #[test]
    fn ambient_band_sets_room_and_initial_temperature() {
        let s = Scenario {
            device: DEFAULT_DEVICE,
            benchmark: Benchmark::Vellamo,
            ambient: AmbientBand::HotCar,
            case: CaseKind::Naked,
            charging: false,
            hand_held: false,
        };
        let t = s.device_config(0).thermal;
        assert_eq!(t.ambient, Celsius(40.0));
        assert_eq!(t.initial, Celsius(42.0));
    }

    #[test]
    fn scenario_workload_caps_duration_and_forces_charging() {
        let s = Scenario {
            device: DEFAULT_DEVICE,
            benchmark: Benchmark::Skype, // 1800 s uncapped
            ambient: AmbientBand::Office,
            case: CaseKind::Naked,
            charging: true,
            hand_held: false,
        };
        let mut w = s.workload(7, 120.0);
        assert_eq!(w.duration(), 120.0);
        assert!(w.demand_at(10.0, 0.1).charging);
        // Past the cap the workload idles (runner overshoot contract).
        let late = w.demand_at(130.0, 0.1);
        assert!(!late.display_on);
    }

    #[test]
    fn names_are_stable() {
        let s = Scenario {
            device: DEFAULT_DEVICE,
            benchmark: Benchmark::Skype,
            ambient: AmbientBand::Summer,
            case: CaseKind::Rugged,
            charging: true,
            hand_held: true,
        };
        assert_eq!(s.name(), "Skype/summer/rugged/charging/held");
    }
}
