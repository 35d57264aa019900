//! Id-based spec lookup for CLIs, sweeps, and benches.
//!
//! Two registries live here: the immutable built-in catalog
//! ([`Registry::builtin`], [`NAMES`]) and a process-wide *merged* view
//! that overlays extras [`install`]ed at runtime — typically file
//! entries loaded by `usta-catalog`. The free functions
//! ([`by_id`], [`try_by_id`], [`merged`], [`merged_ids`]) consult the
//! merged view, so a CLI that installs a catalog once at startup makes
//! every downstream lookup, `--device all` expansion, and "unknown
//! device" listing see the merged set. With nothing installed the
//! merged view **is** the built-in catalog, bit for bit.

use std::path::Path;
use std::sync::{OnceLock, RwLock};

use crate::device::parse_device;
use crate::error::DeviceError;
use crate::spec::DeviceSpec;

/// Ids of every built-in device, in catalog order (the paper's device
/// first) — useful for `--help` text and CI loops.
pub const NAMES: [&str; 5] = [
    "nexus4",
    "flagship-octa",
    "prime-flagship",
    "tablet-10in",
    "budget-quad",
];

/// The built-in device files, in [`NAMES`] order. The committed
/// `catalog/<id>.toml` files are the only definition of the built-ins.
const FILES: [&str; 5] = [
    include_str!("../../../catalog/nexus4.toml"),
    include_str!("../../../catalog/flagship-octa.toml"),
    include_str!("../../../catalog/prime-flagship.toml"),
    include_str!("../../../catalog/tablet-10in.toml"),
    include_str!("../../../catalog/budget-quad.toml"),
];

/// A validated set of device specs addressable by id.
///
/// Construction validates every spec and rejects duplicate ids, so a
/// spec obtained from a registry never needs re-checking.
#[derive(Debug, Clone, PartialEq)]
pub struct Registry {
    specs: Vec<DeviceSpec>,
}

impl Registry {
    /// Builds a registry from specs, validating each.
    ///
    /// # Errors
    ///
    /// Returns the first failing spec's [`DeviceError`], or
    /// [`DeviceError::DuplicateId`] when two specs share an id.
    pub fn new(specs: Vec<DeviceSpec>) -> Result<Registry, DeviceError> {
        for (i, spec) in specs.iter().enumerate() {
            spec.validate()?;
            if specs[..i]
                .iter()
                .any(|s| s.id.eq_ignore_ascii_case(spec.id))
            {
                return Err(DeviceError::DuplicateId(spec.id.to_owned()));
            }
        }
        Ok(Registry { specs })
    }

    /// The built-in catalog ([`NAMES`] order), parsed from the
    /// compiled-in `catalog/<id>.toml` files and validated once per
    /// process.
    pub fn builtin() -> &'static Registry {
        static BUILTIN: OnceLock<Registry> = OnceLock::new();
        BUILTIN.get_or_init(|| {
            let specs = NAMES
                .iter()
                .zip(FILES)
                .map(|(id, text)| {
                    parse_device(text).unwrap_or_else(|e| {
                        panic!("{}", e.with_file(Path::new(&format!("catalog/{id}.toml"))))
                    })
                })
                .collect();
            Registry::new(specs).expect("built-in catalog validates")
        })
    }

    /// Looks a spec up by id, ASCII case-insensitively.
    pub fn by_id(&self, id: &str) -> Option<&DeviceSpec> {
        self.specs.iter().find(|s| s.id.eq_ignore_ascii_case(id))
    }

    /// The specs, in registry order.
    pub fn specs(&self) -> &[DeviceSpec] {
        &self.specs
    }

    /// The ids, in registry order.
    pub fn ids(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.specs.iter().map(|s| s.id)
    }

    /// Number of registered devices.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// `true` when the registry holds no specs.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// Runtime-installed extras overlaying the built-in catalog, in
/// install order. Leaked `&'static` specs: installs are rare (one
/// catalog load per CLI invocation) and specs live for the process
/// anyway.
fn extras() -> &'static RwLock<Vec<&'static DeviceSpec>> {
    static EXTRAS: OnceLock<RwLock<Vec<&'static DeviceSpec>>> = OnceLock::new();
    EXTRAS.get_or_init(|| RwLock::new(Vec::new()))
}

/// Validates `spec` and installs it into the process-wide merged
/// registry: a spec whose id matches an earlier install replaces it; a
/// new id is appended after the built-ins. Ids are matched ASCII
/// case-insensitively.
///
/// The spec is leaked to `'static` — intended for one-shot catalog
/// loads at CLI startup, not for churning specs in a loop.
///
/// # Errors
///
/// Returns the [`DeviceError`] when `spec` fails validation; the
/// registry is unchanged.
pub fn install(spec: DeviceSpec) -> Result<&'static DeviceSpec, DeviceError> {
    spec.validate()?;
    let leaked: &'static DeviceSpec = Box::leak(Box::new(spec));
    let mut extras = extras().write().expect("device registry lock poisoned");
    match extras
        .iter_mut()
        .find(|s| s.id.eq_ignore_ascii_case(leaked.id))
    {
        Some(slot) => *slot = leaked,
        None => extras.push(leaked),
    }
    Ok(leaked)
}

/// The merged registry view: the built-ins in [`NAMES`] order (each
/// replaced by a same-id [`install`]ed extra, if any), followed by
/// extras with new ids in install order.
pub fn merged() -> Vec<&'static DeviceSpec> {
    let extras = extras().read().expect("device registry lock poisoned");
    let mut specs: Vec<&'static DeviceSpec> = Registry::builtin()
        .specs()
        .iter()
        .map(|builtin| {
            extras
                .iter()
                .copied()
                .find(|e| e.id.eq_ignore_ascii_case(builtin.id))
                .unwrap_or(builtin)
        })
        .collect();
    for &extra in extras.iter() {
        if !specs.iter().any(|s| s.id.eq_ignore_ascii_case(extra.id)) {
            specs.push(extra);
        }
    }
    specs
}

/// Ids of the merged registry, in [`merged`] order. Equals [`NAMES`]
/// until something is [`install`]ed.
pub fn merged_ids() -> Vec<&'static str> {
    merged().iter().map(|s| s.id).collect()
}

/// Looks a spec up by id in the merged registry (installed extras
/// override built-ins), ASCII case-insensitively.
///
/// ```
/// use usta_device::by_id;
///
/// assert_eq!(by_id("nexus4").unwrap().cores(), 4);
/// assert_eq!(by_id("Tablet-10in").unwrap().cores(), 6);
/// assert_eq!(by_id("flagship-octa").unwrap().domains(), 2);
/// assert!(by_id("pixel-9").is_none());
/// ```
pub fn by_id(id: &str) -> Option<&'static DeviceSpec> {
    if let Some(&spec) = extras()
        .read()
        .expect("device registry lock poisoned")
        .iter()
        .find(|s| s.id.eq_ignore_ascii_case(id))
    {
        return Some(spec);
    }
    Registry::builtin().by_id(id)
}

/// The error [`try_by_id`] returns for unknown device ids. Its
/// `Display` lists the *merged* registry's ids ([`merged_ids`] —
/// [`NAMES`] plus anything [`install`]ed), so CLIs can surface it
/// verbatim — the single source of the "unknown device" wording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownDeviceError {
    name: String,
}

impl UnknownDeviceError {
    /// An error for the given unresolved name.
    pub fn new(name: impl Into<String>) -> UnknownDeviceError {
        UnknownDeviceError { name: name.into() }
    }

    /// The name that failed to resolve.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl std::fmt::Display for UnknownDeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown device {:?} (known: {})",
            self.name,
            merged_ids().join(", ")
        )
    }
}

impl std::error::Error for UnknownDeviceError {}

/// [`by_id`] with a CLI-ready error: ASCII case-insensitive, and the
/// failure message lists every merged-registry id.
///
/// # Errors
///
/// Returns [`UnknownDeviceError`] when `id` matches no merged spec.
pub fn try_by_id(id: &str) -> Result<&'static DeviceSpec, UnknownDeviceError> {
    by_id(id).ok_or_else(|| UnknownDeviceError::new(id))
}

/// A clone of the built-in spec `id`, for tests that mutate one.
#[cfg(test)]
pub(crate) fn builtin_spec(id: &str) -> DeviceSpec {
    Registry::builtin()
        .by_id(id)
        .unwrap_or_else(|| panic!("{id} is built in"))
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn builtin(id: &str) -> &'static DeviceSpec {
        Registry::builtin()
            .by_id(id)
            .unwrap_or_else(|| panic!("{id} is built in"))
    }

    #[test]
    fn names_round_trip_through_by_id() {
        for name in NAMES {
            let spec = by_id(name).unwrap_or_else(|| panic!("{name} should resolve"));
            assert_eq!(spec.id, name);
            // Case-insensitive lookup resolves to the same spec.
            assert_eq!(by_id(&name.to_ascii_uppercase()), Some(spec));
        }
        assert_eq!(Registry::builtin().len(), NAMES.len());
        assert_eq!(Registry::builtin().ids().collect::<Vec<_>>(), NAMES);
    }

    #[test]
    fn unknown_ids_are_none() {
        assert!(by_id("").is_none());
        assert!(by_id("nexus4 ").is_none());
        assert!(by_id("iphone").is_none());
    }

    #[test]
    fn try_by_id_error_lists_every_builtin_id() {
        let err = try_by_id("iphone").unwrap_err();
        assert_eq!(err.name(), "iphone");
        let message = err.to_string();
        assert!(message.contains("\"iphone\""), "{message:?}");
        for name in NAMES {
            assert!(message.contains(name), "{message:?} should list {name}");
        }
        assert_eq!(try_by_id("NEXUS4").unwrap().id, "nexus4");
    }

    #[test]
    fn duplicate_ids_rejected_case_insensitively() {
        let err = Registry::new(vec![builtin_spec("nexus4"), builtin_spec("nexus4")]);
        assert_eq!(err, Err(DeviceError::DuplicateId("nexus4".to_owned())));
    }

    #[test]
    fn invalid_spec_rejected_at_registry_construction() {
        let mut bad = builtin_spec("nexus4");
        bad.clusters[0].opp.clear();
        assert_eq!(Registry::new(vec![bad]), Err(DeviceError::EmptyOppTable));
    }

    #[test]
    fn install_overlays_and_replaces_extras() {
        // Unique ids: the extras overlay is process-global and other
        // tests in this binary observe it.
        let mut spec = builtin_spec("budget-quad");
        spec.id = "registry-test-extra";
        spec.description = "first install";
        let installed = install(spec.clone()).expect("valid spec installs");
        assert_eq!(installed.id, "registry-test-extra");
        assert_eq!(by_id("REGISTRY-TEST-EXTRA"), Some(installed));
        assert!(merged_ids().contains(&"registry-test-extra"));
        // Built-ins stay in NAMES order at the front of the merged view.
        assert_eq!(&merged_ids()[..NAMES.len()], &NAMES);
        // Unknown-device errors now list the extra.
        let message = try_by_id("iphone").unwrap_err().to_string();
        assert!(message.contains("registry-test-extra"), "{message:?}");

        // A same-id re-install replaces, not duplicates.
        spec.description = "second install";
        install(spec).expect("replacement installs");
        assert_eq!(
            by_id("registry-test-extra").map(|s| s.description),
            Some("second install")
        );
        assert_eq!(
            merged_ids()
                .iter()
                .filter(|&&id| id == "registry-test-extra")
                .count(),
            1
        );
    }

    #[test]
    fn install_rejects_invalid_specs_without_registering() {
        let mut bad = builtin_spec("budget-quad");
        bad.id = "registry-test-bad";
        bad.clusters[0].opp.clear();
        assert_eq!(install(bad), Err(DeviceError::EmptyOppTable));
        assert!(by_id("registry-test-bad").is_none());
    }

    #[test]
    fn custom_registry_is_independent_of_builtin() {
        let r = Registry::new(vec![builtin_spec("budget-quad")]).unwrap();
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
        assert!(r.by_id("nexus4").is_none());
        assert!(r.by_id("BUDGET-QUAD").is_some());
        assert_eq!(r.specs()[0].id, "budget-quad");
    }

    // The built-ins are hand-editable files, so the invariants their
    // numbers must keep are checked on the loaded specs: an edit that
    // breaks one fails here.

    #[test]
    fn every_catalog_device_validates() {
        for spec in Registry::builtin().specs() {
            assert_eq!(spec.validate(), Ok(()), "{} must validate", spec.id);
        }
    }

    #[test]
    fn catalog_spans_the_intended_classes() {
        let flagship = builtin("flagship-octa");
        let tablet = builtin("tablet-10in");
        let budget = builtin("budget-quad");
        let phone = builtin("nexus4");
        assert_eq!(flagship.cores(), 8);
        assert_eq!(flagship.domains(), 2);
        assert!(flagship.max_khz() > phone.max_khz());
        assert!(tablet.thermal_mass_j_per_k() > 3.0 * phone.thermal_mass_j_per_k());
        assert!(budget.clusters[0].opp.len() < phone.clusters[0].opp.len());
        assert!(budget.max_khz() < phone.max_khz());
        // Every single-domain catalog device keeps the historical
        // single `cpu` die node.
        for single in [phone, tablet, budget] {
            assert_eq!(single.domains(), 1, "{}", single.id);
            assert_eq!(single.clusters[0].name, "cpu");
            assert_eq!(single.thermal.die_nodes, vec!["cpu"], "{}", single.id);
            assert_eq!(single.thermal.nodes.len(), 7, "{}", single.id);
        }
    }

    #[test]
    fn flagship_clusters_are_big_first_and_asymmetric() {
        let s = builtin("flagship-octa");
        assert_eq!(s.clusters[0].name, "big");
        assert_eq!(s.clusters[1].name, "little");
        assert!(s.clusters[0].max_khz() > s.clusters[1].max_khz());
        // Efficiency cores: far less switched capacitance per core.
        assert!(
            s.clusters[1].cpu_power.ceff_farads < s.clusters[0].cpu_power.ceff_farads / 2.0,
            "LITTLE cores must be markedly more efficient"
        );
    }

    #[test]
    fn multi_cluster_devices_get_one_die_node_per_cluster() {
        let s = builtin("flagship-octa");
        assert_eq!(s.thermal.die_nodes, vec!["die_big", "die_little"]);
        assert_eq!(s.thermal.nodes.len(), 9);
        let p = builtin("prime-flagship");
        assert_eq!(
            p.thermal.die_nodes,
            vec!["die_prime", "die_big", "die_little"]
        );
        assert_eq!(p.thermal.nodes.len(), 10);
    }

    #[test]
    fn governed_gpus_declare_a_domain_a_ladder_and_their_own_node() {
        for spec in [builtin("flagship-octa"), builtin("prime-flagship")] {
            let gpu = spec.gpu.as_ref().unwrap_or_else(|| panic!("{}", spec.id));
            // The governed domain's full-load power matches the legacy
            // static model it replaces to within a few percent, so
            // budgets stay comparable across the catalog.
            let legacy = spec.gpu_power.max_w;
            assert!(
                (gpu.full_load_w() - legacy).abs() / legacy < 0.05,
                "{}: governed {} W vs legacy {} W",
                spec.id,
                gpu.full_load_w(),
                legacy
            );
            assert_eq!(spec.thermal.gpu_node, Some("gpu"), "{}", spec.id);
            assert!(spec.thermal.node_index("gpu").is_some(), "{}", spec.id);
            let ladder = spec.brightness_ladder.expect("ladder");
            assert_eq!(*ladder.last().unwrap(), 1000, "{}", spec.id);
        }
        // Legacy devices declare neither.
        for spec in [
            builtin("nexus4"),
            builtin("tablet-10in"),
            builtin("budget-quad"),
        ] {
            assert!(spec.gpu.is_none(), "{}", spec.id);
            assert!(spec.brightness_ladder.is_none(), "{}", spec.id);
            assert_eq!(spec.thermal.gpu_node, None, "{}", spec.id);
        }
    }

    #[test]
    fn die_splits_are_ceff_proportional() {
        // (device, total die capacitance J/K, total die–package
        // conductance W/K) for every multi-cluster built-in.
        let totals = [("flagship-octa", 1.6, 3.5), ("prime-flagship", 1.9, 3.8)];
        let multi: Vec<&str> = Registry::builtin()
            .specs()
            .iter()
            .filter(|s| s.domains() > 1)
            .map(|s| s.id)
            .collect();
        assert_eq!(multi, totals.map(|(id, _, _)| id));
        for (id, die_c, die_g) in totals {
            let s = builtin(id);
            let capacitance =
                |name: &str| s.thermal.nodes[s.thermal.node_index(name).unwrap()].capacitance;
            let conductance = |name: &str| {
                s.thermal
                    .couplings
                    .iter()
                    .find(|&&(a, b, _)| a == name && b == "package")
                    .map(|&(_, _, g)| g)
                    .unwrap()
            };
            // Die area (heat capacity and package coupling) scales
            // with each cluster's total switched capacitance.
            let weight = |c: &crate::ClusterSpec| c.cpu_power.ceff_farads * c.cores as f64;
            let total_w: f64 = s.clusters.iter().map(weight).sum();
            let (mut sum_c, mut sum_g) = (0.0, 0.0);
            for (cluster, &node) in s.clusters.iter().zip(&s.thermal.die_nodes) {
                let share = weight(cluster) / total_w;
                assert!(
                    (capacitance(node) / die_c - share).abs() < 1e-9,
                    "{id}/{node} capacitance"
                );
                assert!(
                    (conductance(node) / die_g - share).abs() < 1e-9,
                    "{id}/{node} conductance"
                );
                sum_c += capacitance(node);
                sum_g += conductance(node);
            }
            // Total die mass and coupling are preserved.
            assert!((sum_c - die_c).abs() < 1e-12, "{id}: {sum_c}");
            assert!((sum_g - die_g).abs() < 1e-12, "{id}: {sum_g}");
        }
    }

    #[test]
    fn prime_flagship_is_three_domain_and_big_first() {
        let s = builtin("prime-flagship");
        assert_eq!(s.domains(), 3);
        assert_eq!(s.cores(), 8);
        assert_eq!(s.topology(), "1+3+4");
        assert_eq!(s.clusters[0].name, "prime");
        assert!(s.clusters[0].max_khz() > s.clusters[1].max_khz());
        assert!(s.clusters[1].max_khz() > s.clusters[2].max_khz());
        // The prime core is a single hot core: its die node is smaller
        // than big's (1 core vs 3) but hotter per core.
        let die = |name: &str| s.thermal.nodes[s.thermal.node_index(name).unwrap()].capacitance;
        assert!(die("die_prime") < die("die_big"));
        assert!(die("die_little") < die("die_big"));
    }
}
