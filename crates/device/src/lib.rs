//! # usta-device — the data-driven device catalog
//!
//! The paper evaluates USTA on exactly one handset (a Google Nexus 4),
//! but nothing in the idea is device-specific: any platform with a
//! cpufreq OPP table, a power model, and an exterior the user touches
//! can run a user-specific skin-temperature governor — and commercial
//! platforms differ widely in power and thermal behaviour (Bhat et al.,
//! *Power and Thermal Analysis of Commercial Mobile Platforms*). This
//! crate keeps every device, the Nexus 4 included, as data: a
//! [`DeviceSpec`] bundles everything the simulator needs to
//! instantiate a device —
//!
//! * one [`ClusterSpec`] per frequency domain — its core count, OPP
//!   table (frequency/voltage pairs), and per-frequency power
//!   coefficients; big.LITTLE parts declare two clusters, big first,
//! * display and battery power models,
//! * the back-cover material and a declarative [`ThermalSpec`] —
//!   named RC nodes with **one die node per cluster**, conductance
//!   edges, and skin/screen/back designations — lowered to a
//!   `usta_thermal::ThermalTopology` at device construction,
//!
//! and a [`Registry`] validates specs at construction (monotone OPP
//! power, positive capacitances and conductances, per-cluster die
//! nodes, connected thermal graph) and resolves ids for CLIs.
//!
//! This crate also owns the device-file format, since it is
//! `DeviceSpec`'s own: a zero-dependency, strict TOML-subset parser
//! ([`toml`]) that reads `schema = "usta-catalog/device/v1"` files into
//! validated specs ([`parse_device`]) and writes them back
//! ([`device_to_toml`]) exactly, plus scenario-grid files
//! ([`parse_grid`]). Every failure is a [`CatalogError`] carrying
//! file, line and key context. The built-in catalog ([`NAMES`]) is
//! five such files, `catalog/<id>.toml` at the repository root,
//! compiled in with `include_str!` and parsed once per process: the
//! files are the only definition of the built-ins. It ships five
//! devices:
//!
//! | id | domains | die nodes | class |
//! |---|---|---|---|
//! | `nexus4` | 1 (`cpu`, 4 cores) | `cpu` | the paper's quad-core handset (§3.B), calibrated to its measured skin-temperature behaviour |
//! | `flagship-octa` | 2 (`big`+`little`, 4+4 cores) | `die_big`, `die_little` | a big.LITTLE octa-core flagship with per-cluster frequency domains |
//! | `prime-flagship` | 3 (`prime`+`big`+`little`, 1+3+4 cores) | `die_prime`, `die_big`, `die_little` | a three-domain flagship with a 2.84 GHz prime core |
//! | `tablet-10in` | 1 (`cpu`, 6 cores) | `cpu` | a tablet with several times the phone's thermal mass |
//! | `budget-quad` | 1 (`cpu`, 4 cores) | `cpu` | a low-end quad-core with a shallow OPP table |
//!
//! ```
//! use usta_device::{by_id, device_to_toml, parse_device, Registry, NAMES};
//!
//! let nexus4 = by_id("nexus4").expect("built-in");
//! assert_eq!(nexus4.domains(), 1);
//! assert_eq!(nexus4.cores(), 4);
//! assert_eq!(nexus4.clusters[0].opp.len(), 12);
//! let flagship = by_id("flagship-octa").expect("built-in");
//! assert_eq!(flagship.topology(), "4+4");
//! assert!(Registry::builtin().by_id("FLAGSHIP-OCTA").is_some()); // case-insensitive
//! assert_eq!(NAMES.len(), Registry::builtin().len());
//! // The file round trip is exact.
//! assert_eq!(&parse_device(&device_to_toml(nexus4)).unwrap(), nexus4);
//! ```
//!
//! Dependency direction: this crate sits between `usta-thermal` (whose
//! topology types its `ThermalSpec` lowers into) and `usta-soc` (which
//! builds its `OppTable`/`CpuPowerModel`/`Battery`/`Display` instances
//! *from* a spec — see `usta_soc::spec`). `usta-catalog` sits above
//! it and adds catalog directories: loading every file of one and
//! installing its devices over the built-ins.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod device;
pub mod error;
pub mod grid;
mod intern;
pub mod registry;
pub mod spec;
pub mod thermal;
pub mod toml;

pub use device::{device_to_toml, material_name, parse_device};
pub use error::{CatalogError, DeviceError, ErrorKind};
pub use grid::{grid_to_toml, parse_grid, ScenarioGridSpec};
pub use registry::{
    by_id, install, merged, merged_ids, try_by_id, Registry, UnknownDeviceError, NAMES,
};
pub use spec::{
    BatterySpec, ClusterSpec, CpuPowerSpec, DeviceSpec, DisplaySpec, GpuDomainSpec, GpuPowerSpec,
    OppPoint, MAX_CPU_CLUSTERS, MAX_FREQ_DOMAINS,
};
pub use thermal::{ThermalNodeSpec, ThermalSpec};

/// The `schema` value of a device file.
pub const DEVICE_SCHEMA: &str = "usta-catalog/device/v1";
/// The `schema` value of a scenario-grid file.
pub const GRID_SCHEMA: &str = "usta-catalog/grid/v1";

/// What one catalog file parsed into, by its `schema` key.
#[derive(Debug, Clone, PartialEq)]
pub enum CatalogFile {
    /// A validated device spec ([`DEVICE_SCHEMA`]), boxed: it is
    /// several times the size of a grid.
    Device(Box<DeviceSpec>),
    /// A scenario grid ([`GRID_SCHEMA`]).
    Grid(ScenarioGridSpec),
}

/// Parses one catalog file of either schema, dispatching on its
/// `schema` key.
///
/// # Errors
///
/// Returns a [`CatalogError`] (without file context — the caller
/// attaches the path) for malformed TOML, an unknown schema, or a
/// file that [`parse_device`] / [`parse_grid`] would reject.
pub fn parse_file(text: &str) -> Result<CatalogFile, CatalogError> {
    let doc = toml::parse(text).map_err(|e| CatalogError::parse(e.line, e.message))?;
    let root = device::Section::new(&doc, "");
    match root.string("schema")?.as_str() {
        DEVICE_SCHEMA => {
            device::device_from_document(&doc).map(|spec| CatalogFile::Device(Box::new(spec)))
        }
        GRID_SCHEMA => grid::grid_from_document(&doc).map(CatalogFile::Grid),
        other => Err(CatalogError::schema(
            root.require_item("schema")?.line,
            "schema",
            format!("unsupported schema {other:?} (known: {DEVICE_SCHEMA:?}, {GRID_SCHEMA:?})"),
        )),
    }
}
