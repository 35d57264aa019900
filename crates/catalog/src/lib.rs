//! # usta-catalog — catalog directories
//!
//! Growing the fleet toward "hundreds of devices × scenarios without
//! recompiling" needs catalogs on disk. The file format itself — the
//! strict TOML-subset parser, [`parse_device`] / [`device_to_toml`],
//! scenario grids, and the structured [`CatalogError`] — belongs to
//! `usta-device`, because it is `DeviceSpec`'s own format and the
//! built-in devices are parsed from it. This crate adds what is about
//! directories: a [`Catalog`] is what one directory of `.toml` files
//! parses into, and [`Catalog::install`] merges its devices over the
//! built-ins in the process-wide registry (`usta_device::install`),
//! after which every consumer of `usta_device::by_id` — scenario
//! resolution, sweeps, `--device all` expansion, error listings — sees
//! the merged set. [`RegistryExt::from_dir`] builds the same merge as a
//! local registry instead. The format items are re-exported here
//! too.
//!
//! The committed `catalog/` directory holds the five built-in files
//! themselves, so installing it leaves every built-in unchanged.
//!
//! ```
//! use usta_catalog::{device_to_toml, parse_device};
//! use usta_device::Registry;
//!
//! let nexus4 = Registry::builtin().by_id("nexus4").expect("built-in");
//! let text = device_to_toml(nexus4);
//! assert_eq!(&parse_device(&text).expect("round-trips"), nexus4);
//! ```
//!
//! Dependency direction: this crate sits above `usta-device` (whose
//! file format and merged registry it uses) and below `usta-fleet`
//! (which resolves grid axis strings against its scenario enums and
//! exposes the CLI flags).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fs;
use std::path::{Path, PathBuf};

use usta_device::{parse_file, CatalogFile, DeviceSpec, Registry};

pub use usta_device::{device, error, grid, toml};
pub use usta_device::{
    device_to_toml, grid_to_toml, material_name, parse_device, parse_grid, CatalogError, ErrorKind,
    ScenarioGridSpec, DEVICE_SCHEMA, GRID_SCHEMA,
};

/// Everything one catalog directory parsed into: validated device
/// specs and scenario grids, in filename order.
///
/// Loading does **not** touch the process-wide registry — call
/// [`Catalog::install`] for that (CLIs do it once at startup; the
/// `catalog_load` bench loads repeatedly without installing).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Catalog {
    /// Device specs, validated, in filename order.
    pub devices: Vec<DeviceSpec>,
    /// Scenario grids, in filename order.
    pub grids: Vec<ScenarioGridSpec>,
}

impl Catalog {
    /// Loads every `*.toml` file in `dir` (non-recursive, filename
    /// order), dispatching on each file's `schema` key.
    ///
    /// # Errors
    ///
    /// Returns the first [`CatalogError`] encountered — unreadable
    /// directory or file, malformed TOML, unknown schema, a spec that
    /// fails validation, or a device id / grid name duplicated
    /// *within the directory* (overriding a built-in is fine; two
    /// files claiming the same id is a mistake).
    pub fn load_dir(dir: impl AsRef<Path>) -> Result<Catalog, CatalogError> {
        let dir = dir.as_ref();
        let entries = fs::read_dir(dir)
            .map_err(|e| CatalogError::io(format!("cannot read {}: {e}", dir.display())))?;
        let mut paths: Vec<PathBuf> = Vec::new();
        for entry in entries {
            let entry = entry
                .map_err(|e| CatalogError::io(format!("cannot read {}: {e}", dir.display())))?;
            let path = entry.path();
            if path.extension().is_some_and(|ext| ext == "toml") {
                paths.push(path);
            }
        }
        paths.sort();
        let mut catalog = Catalog::default();
        for path in &paths {
            catalog.load_file(path)?;
        }
        Ok(catalog)
    }

    fn load_file(&mut self, path: &Path) -> Result<(), CatalogError> {
        let text = fs::read_to_string(path)
            .map_err(|e| CatalogError::io(format!("cannot read file: {e}")).with_file(path))?;
        match parse_file(&text).map_err(|e| e.with_file(path))? {
            CatalogFile::Device(spec) => {
                if let Some(previous) = self
                    .devices
                    .iter()
                    .find(|d| d.id.eq_ignore_ascii_case(spec.id))
                {
                    return Err(CatalogError::schema(
                        0,
                        "device.id",
                        format!(
                            "device {:?} is defined by another file in this catalog",
                            previous.id
                        ),
                    )
                    .with_file(path));
                }
                self.devices.push(*spec);
            }
            CatalogFile::Grid(spec) => {
                if self.grids.iter().any(|g| g.name == spec.name) {
                    return Err(CatalogError::schema(
                        0,
                        "grid.name",
                        format!(
                            "grid {:?} is defined by another file in this catalog",
                            spec.name
                        ),
                    )
                    .with_file(path));
                }
                self.grids.push(spec);
            }
        }
        Ok(())
    }

    /// Installs every device into the process-wide merged registry
    /// (`usta_device::install`): file entries override same-id
    /// built-ins, new ids are appended. Returns the installed
    /// `&'static` specs in catalog order.
    ///
    /// # Errors
    ///
    /// Returns a [`CatalogError`] if a spec fails validation — only
    /// possible for specs mutated after loading, since `load_dir`
    /// validates.
    pub fn install(&self) -> Result<Vec<&'static DeviceSpec>, CatalogError> {
        self.devices
            .iter()
            .map(|spec| {
                usta_device::install(spec.clone()).map_err(|e| CatalogError::device(0, "device", e))
            })
            .collect()
    }

    /// The loaded device with this id (case-insensitive), if any.
    pub fn device(&self, id: &str) -> Option<&DeviceSpec> {
        self.devices.iter().find(|d| d.id.eq_ignore_ascii_case(id))
    }

    /// The loaded grid with this name, if any.
    pub fn grid(&self, name: &str) -> Option<&ScenarioGridSpec> {
        self.grids.iter().find(|g| g.name == name)
    }
}

/// Catalog-aware construction for [`usta_device::Registry`].
///
/// An extension trait because inherent impls cannot cross crates:
/// `usta-device` knows nothing about files, `usta-catalog` adds the
/// file-driven constructor.
pub trait RegistryExt: Sized {
    /// Builds a registry holding the built-ins with the catalog
    /// directory's entries merged over them (same-id file entries
    /// replace built-ins, new ids append).
    ///
    /// This is a *local* registry — unlike [`Catalog::install`] it
    /// does not touch the process-wide one.
    ///
    /// # Errors
    ///
    /// Returns a [`CatalogError`] for any load failure (see
    /// [`Catalog::load_dir`]).
    fn from_dir(dir: impl AsRef<Path>) -> Result<Self, CatalogError>;
}

impl RegistryExt for Registry {
    fn from_dir(dir: impl AsRef<Path>) -> Result<Registry, CatalogError> {
        let catalog = Catalog::load_dir(dir)?;
        let mut specs: Vec<DeviceSpec> = Registry::builtin().specs().to_vec();
        for device in &catalog.devices {
            match specs
                .iter_mut()
                .find(|s| s.id.eq_ignore_ascii_case(device.id))
            {
                Some(slot) => *slot = device.clone(),
                None => specs.push(device.clone()),
            }
        }
        Registry::new(specs).map_err(|e| CatalogError::device(0, "device", e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn builtin(id: &str) -> DeviceSpec {
        Registry::builtin().by_id(id).expect("built-in").clone()
    }

    fn write_dir(files: &[(&str, String)]) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "usta-catalog-test-{}-{:p}",
            std::process::id(),
            files.as_ptr()
        ));
        fs::create_dir_all(&dir).expect("create temp dir");
        for (name, text) in files {
            fs::write(dir.join(name), text).expect("write catalog file");
        }
        dir
    }

    #[test]
    fn load_dir_collects_devices_and_grids_in_filename_order() {
        let grid = ScenarioGridSpec {
            name: "tiny".to_owned(),
            benchmarks: vec!["YouTube".to_owned()],
            ambients: vec!["office".to_owned()],
            cases: vec!["naked".to_owned()],
            charging: vec![false],
            hand_held: vec![true],
        };
        let dir = write_dir(&[
            ("b-nexus4.toml", device_to_toml(&builtin("nexus4"))),
            ("a-octa.toml", device_to_toml(&builtin("flagship-octa"))),
            ("z-grid.toml", grid_to_toml(&grid)),
        ]);
        let catalog = Catalog::load_dir(&dir).expect("loads");
        let ids: Vec<&str> = catalog.devices.iter().map(|d| d.id).collect();
        assert_eq!(ids, ["flagship-octa", "nexus4"]);
        assert_eq!(catalog.grids, vec![grid]);
        assert_eq!(catalog.device("NEXUS4").map(|d| d.id), Some("nexus4"));
        assert!(catalog.grid("tiny").is_some());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_id_across_files_is_rejected() {
        let dir = write_dir(&[
            ("one.toml", device_to_toml(&builtin("nexus4"))),
            ("two.toml", device_to_toml(&builtin("nexus4"))),
        ]);
        let error = Catalog::load_dir(&dir).unwrap_err();
        assert_eq!(error.key.as_deref(), Some("device.id"));
        assert!(error.to_string().contains("two.toml"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_schema_is_rejected_with_file_context() {
        let dir = write_dir(&[("odd.toml", "schema = \"usta-catalog/odd/v1\"\n".to_owned())]);
        let error = Catalog::load_dir(&dir).unwrap_err();
        assert!(error.to_string().contains("odd.toml"));
        assert!(error.to_string().contains("unsupported schema"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_is_an_io_error() {
        let error = Catalog::load_dir("/nonexistent/usta-catalog").unwrap_err();
        assert!(matches!(error.kind, ErrorKind::Io(_)));
    }

    #[test]
    fn registry_from_dir_merges_over_builtins() {
        let mut renamed = builtin("nexus4");
        renamed.description = "overridden from file";
        let fresh = {
            let mut spec = builtin("budget-quad");
            spec.id = "from-dir-only";
            spec
        };
        let dir = write_dir(&[
            ("nexus4.toml", device_to_toml(&renamed)),
            ("fresh.toml", device_to_toml(&fresh)),
        ]);
        let registry = Registry::from_dir(&dir).expect("merges");
        assert_eq!(registry.len(), usta_device::NAMES.len() + 1);
        assert_eq!(
            registry.by_id("nexus4").map(|d| d.description),
            Some("overridden from file")
        );
        assert!(registry.by_id("from-dir-only").is_some());
        fs::remove_dir_all(&dir).ok();
    }
}
