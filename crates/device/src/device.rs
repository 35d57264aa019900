//! Device file de/serialization: `DeviceSpec` ⇄ catalog TOML.
//!
//! A device file is one document with `schema = "usta-catalog/device/v1"`
//! and a `[device]` tree mirroring [`DeviceSpec`] field-for-field:
//! `[[device.cluster]]` per frequency domain (parallel `opp-khz` /
//! `opp-volts` arrays), `[device.gpu-power]`, an optional
//! `[device.gpu]` domain, `[device.display]`, `[device.battery]`, and
//! `[device.thermal]` with its named-node rows and role designations.
//!
//! The serializer and parser are exact inverses: floats are written
//! with Rust's shortest-round-trip formatting (`{:?}`) and re-read via
//! `str::parse::<f64>`, so `parse_device(device_to_toml(spec))`
//! returns a spec **equal** to the original. The built-in registry is
//! parsed from the committed `catalog/` files, and a test keeps each
//! of them in this canonical form.
//!
//! Every parsed spec runs the full [`DeviceSpec::validate`] before it
//! is returned; validation failures are attributed back to the file
//! section that declared the offending data (best effort: device
//! errors carry no key context of their own).

use std::fmt::Write as _;

use usta_thermal::materials::Material;
use usta_thermal::{Celsius, HandContact};

use crate::error::{CatalogError, DeviceError};
use crate::intern::{intern_str, intern_u32s};
use crate::spec::{
    BatterySpec, ClusterSpec, CpuPowerSpec, DeviceSpec, DisplaySpec, GpuDomainSpec, GpuPowerSpec,
    OppPoint,
};
use crate::thermal::{ThermalNodeSpec, ThermalSpec};
use crate::toml::{self, Item, Node, Table, Value};
use crate::DEVICE_SCHEMA;

/// Back-cover material names as they appear in catalog files.
const MATERIALS: [(&str, Material); 7] = [
    ("silicon", Material::Silicon),
    ("fr4", Material::Fr4),
    ("lithium-ion", Material::LithiumIon),
    ("polycarbonate", Material::Polycarbonate),
    ("cover-glass", Material::CoverGlass),
    ("aluminium", Material::Aluminium),
    ("copper", Material::Copper),
];

/// The catalog-file (kebab-case) name of a back-cover material —
/// the inverse of what the `[device]` section's `back-cover` key
/// accepts.
pub fn material_name(material: Material) -> &'static str {
    MATERIALS
        .iter()
        .find(|&&(_, m)| m == material)
        .map(|&(name, _)| name)
        .expect("every material variant is named")
}

fn material_from_name(name: &str) -> Option<Material> {
    MATERIALS.iter().find(|&&(n, _)| n == name).map(|&(_, m)| m)
}

/// Parses one device file (text of a whole `.toml` document) into a
/// validated [`DeviceSpec`].
///
/// # Errors
///
/// Returns a [`CatalogError`] (without file context — the caller
/// attaches the path) for malformed TOML, schema mismatches, or a spec
/// that fails [`DeviceSpec::validate`].
pub fn parse_device(text: &str) -> Result<DeviceSpec, CatalogError> {
    let doc = toml::parse(text).map_err(|e| CatalogError::parse(e.line, e.message))?;
    let root = Section::new(&doc, "");
    let schema = root.string("schema")?;
    if schema != DEVICE_SCHEMA {
        return Err(CatalogError::schema(
            root.require_item("schema")?.line,
            "schema",
            format!("expected {DEVICE_SCHEMA:?}, found {schema:?}"),
        ));
    }
    device_from_document(&doc)
}

/// Deserializes an already-parsed document (schema key assumed
/// checked) into a validated [`DeviceSpec`].
pub(crate) fn device_from_document(doc: &Table) -> Result<DeviceSpec, CatalogError> {
    let root = Section::new(doc, "");
    root.check_keys(&["schema", "device"])?;
    let device = root.table("device")?;
    device.check_keys(&[
        "id",
        "description",
        "back-cover",
        "cluster",
        "gpu-power",
        "gpu",
        "display",
        "battery",
        "thermal",
    ])?;

    let mut lines = SectionLines {
        device: device.table.line,
        cluster: device.table.line,
        gpu_power: device.table.line,
        gpu: device.table.line,
        display: device.table.line,
        battery: device.table.line,
        thermal: device.table.line,
    };

    let id = intern_str(&device.string("id")?);
    let description = intern_str(&device.string("description")?);
    let back_cover = {
        let item = device.require_item("back-cover")?;
        let name = device.string("back-cover")?;
        material_from_name(&name).ok_or_else(|| {
            let known: Vec<&str> = MATERIALS.iter().map(|&(n, _)| n).collect();
            CatalogError::schema(
                item.line,
                device.key_path("back-cover"),
                format!("unknown material {name:?} (known: {})", known.join(", ")),
            )
        })?
    };

    let cluster_sections = device.tables("cluster")?;
    if let Some(first) = cluster_sections.first() {
        lines.cluster = first.table.line;
    }
    let mut clusters = Vec::with_capacity(cluster_sections.len());
    for section in &cluster_sections {
        section.check_keys(&[
            "name",
            "cores",
            "opp-khz",
            "opp-volts",
            "ceff-farads",
            "leak-coeff-a",
            "leak-temp-per-k",
            "idle-uncore-w",
        ])?;
        clusters.push(ClusterSpec {
            name: intern_str(&section.string("name")?),
            cores: section.usize("cores")?,
            opp: opp_table(section)?,
            cpu_power: CpuPowerSpec {
                ceff_farads: section.f64("ceff-farads")?,
                leak_coeff_a: section.f64("leak-coeff-a")?,
                leak_temp_per_k: section.f64("leak-temp-per-k")?,
                idle_uncore_w: section.f64("idle-uncore-w")?,
            },
        });
    }

    let gpu_power_section = device.table("gpu-power")?;
    lines.gpu_power = gpu_power_section.table.line;
    gpu_power_section.check_keys(&["max-w", "idle-w"])?;
    let gpu_power = GpuPowerSpec {
        max_w: gpu_power_section.f64("max-w")?,
        idle_w: gpu_power_section.f64("idle-w")?,
    };

    let gpu = match device.opt_table("gpu")? {
        Some(section) => {
            lines.gpu = section.table.line;
            section.check_keys(&["opp-khz", "opp-volts", "ceff-farads", "idle-w"])?;
            Some(GpuDomainSpec {
                opp: opp_table(&section)?,
                ceff_farads: section.f64("ceff-farads")?,
                idle_w: section.f64("idle-w")?,
            })
        }
        None => None,
    };

    let display_section = device.table("display")?;
    lines.display = display_section.table.line;
    display_section.check_keys(&["base-w", "full-brightness-w", "brightness-ladder"])?;
    let display = DisplaySpec {
        base_w: display_section.f64("base-w")?,
        full_brightness_w: display_section.f64("full-brightness-w")?,
    };
    let brightness_ladder = display_section
        .opt_u32_list("brightness-ladder")?
        .map(|ladder| intern_u32s(&ladder));

    let battery_section = device.table("battery")?;
    lines.battery = battery_section.table.line;
    battery_section.check_keys(&[
        "capacity-mah",
        "nominal-v",
        "internal-ohm",
        "max-charge-a",
        "charge-loss-fraction",
    ])?;
    let battery = BatterySpec {
        capacity_mah: battery_section.f64("capacity-mah")?,
        nominal_v: battery_section.f64("nominal-v")?,
        internal_ohm: battery_section.f64("internal-ohm")?,
        max_charge_a: battery_section.f64("max-charge-a")?,
        charge_loss_fraction: battery_section.f64("charge-loss-fraction")?,
    };

    let thermal_section = device.table("thermal")?;
    lines.thermal = thermal_section.table.line;
    thermal_section.check_keys(&[
        "nodes",
        "couplings",
        "ambient-links",
        "die-nodes",
        "package-node",
        "gpu-node",
        "board-node",
        "battery-node",
        "screen-node",
        "skin-node",
        "back-nodes",
        "ambient-c",
        "initial-c",
        "hand",
    ])?;
    let nodes = pair_rows(&thermal_section, "nodes")?
        .into_iter()
        .map(|(name, capacitance)| ThermalNodeSpec {
            name: intern_str(&name),
            capacitance,
        })
        .collect();
    let couplings = triple_rows(&thermal_section, "couplings")?
        .into_iter()
        .map(|(a, b, g)| (intern_str(&a), intern_str(&b), g))
        .collect();
    let ambient_links = pair_rows(&thermal_section, "ambient-links")?
        .into_iter()
        .map(|(node, g)| (intern_str(&node), g))
        .collect();
    let hand_section = thermal_section.table("hand")?;
    hand_section.check_keys(&["palm-c", "contact-conductance", "blocked-fraction"])?;
    let thermal = ThermalSpec {
        nodes,
        couplings,
        ambient_links,
        die_nodes: intern_all(&thermal_section.str_list("die-nodes")?),
        package_node: intern_str(&thermal_section.string("package-node")?),
        gpu_node: thermal_section
            .opt_string("gpu-node")?
            .map(|s| intern_str(&s)),
        board_node: intern_str(&thermal_section.string("board-node")?),
        battery_node: intern_str(&thermal_section.string("battery-node")?),
        screen_node: intern_str(&thermal_section.string("screen-node")?),
        skin_node: intern_str(&thermal_section.string("skin-node")?),
        back_nodes: intern_all(&thermal_section.str_list("back-nodes")?),
        ambient: Celsius(thermal_section.f64("ambient-c")?),
        initial: Celsius(thermal_section.f64("initial-c")?),
        hand: HandContact {
            palm_temperature: Celsius(hand_section.f64("palm-c")?),
            contact_conductance: hand_section.f64("contact-conductance")?,
            blocked_fraction: hand_section.f64("blocked-fraction")?,
        },
    };

    let spec = DeviceSpec {
        id,
        description,
        clusters,
        gpu_power,
        gpu,
        display,
        brightness_ladder,
        battery,
        back_cover,
        thermal,
    };
    spec.validate().map_err(|e| attribute(e, &lines))?;
    Ok(spec)
}

fn intern_all(names: &[String]) -> Vec<&'static str> {
    names.iter().map(|n| intern_str(n)).collect()
}

/// Parallel `opp-khz` / `opp-volts` arrays → an OPP table.
fn opp_table(section: &Section<'_>) -> Result<Vec<OppPoint>, CatalogError> {
    let khz = section.u32_list("opp-khz")?;
    let volts = section.f64_list("opp-volts")?;
    if khz.len() != volts.len() {
        return Err(CatalogError::schema(
            section.require_item("opp-volts")?.line,
            section.key_path("opp-volts"),
            format!(
                "opp-volts has {} entries but opp-khz has {}",
                volts.len(),
                khz.len()
            ),
        ));
    }
    Ok(khz
        .into_iter()
        .zip(volts)
        .map(|(khz, volts)| OppPoint { khz, volts })
        .collect())
}

/// Source lines of each device-file section, for attributing
/// validation errors back to the file.
struct SectionLines {
    device: usize,
    cluster: usize,
    gpu_power: usize,
    gpu: usize,
    display: usize,
    battery: usize,
    thermal: usize,
}

/// Maps a [`DeviceError`] onto the file section that declared the
/// offending data (best effort — device errors carry no key context).
fn attribute(error: DeviceError, lines: &SectionLines) -> CatalogError {
    let (key, line) = match &error {
        DeviceError::InvalidId(_) | DeviceError::DuplicateId(_) => ("device.id", lines.device),
        DeviceError::NoClusters
        | DeviceError::TooManyClusters { .. }
        | DeviceError::InvalidClusterName(_)
        | DeviceError::DuplicateClusterName(_)
        | DeviceError::ClustersNotBigFirst { .. }
        | DeviceError::EmptyOppTable
        | DeviceError::NonMonotoneOppFrequency { .. }
        | DeviceError::NonMonotoneOppPower { .. } => ("device.cluster", lines.cluster),
        DeviceError::InvalidParameter { name, .. } => {
            if let Some((key, line)) = attribute_parameter(name, lines) {
                (key, line)
            } else {
                ("device.cluster", lines.cluster)
            }
        }
        _ => ("device.thermal", lines.thermal),
    };
    CatalogError::device(line, key, error)
}

fn attribute_parameter(name: &str, lines: &SectionLines) -> Option<(&'static str, usize)> {
    if name.starts_with("thermal.") {
        Some(("device.thermal", lines.thermal))
    } else if name.starts_with("gpu_power.") {
        Some(("device.gpu-power", lines.gpu_power))
    } else if name.starts_with("gpu.") {
        Some(("device.gpu", lines.gpu))
    } else if name.starts_with("display.") || name == "brightness_ladder" {
        Some(("device.display", lines.display))
    } else if name.starts_with("battery.") {
        Some(("device.battery", lines.battery))
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Typed access over a parsed table, producing schema errors that carry
// the full dotted key path and the source line. Shared with the grid
// deserializer.
// ---------------------------------------------------------------------------

/// A parsed table plus the dotted path it sits at, for error context.
pub(crate) struct Section<'a> {
    pub(crate) table: &'a Table,
    path: String,
}

impl<'a> Section<'a> {
    pub(crate) fn new(table: &'a Table, path: impl Into<String>) -> Self {
        Section {
            table,
            path: path.into(),
        }
    }

    pub(crate) fn key_path(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_owned()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    fn item(&self, key: &str) -> Result<Option<&'a Item>, CatalogError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(Node::Item(item)) => Ok(Some(item)),
            Some(node) => Err(CatalogError::schema(
                node.line(),
                self.key_path(key),
                "expected a value, found a table",
            )),
        }
    }

    pub(crate) fn require_item(&self, key: &str) -> Result<&'a Item, CatalogError> {
        self.item(key)?.ok_or_else(|| {
            CatalogError::schema(
                self.table.line,
                self.key_path(key),
                "required key is missing",
            )
        })
    }

    fn type_error(&self, key: &str, item: &Item, want: &str) -> CatalogError {
        CatalogError::schema(
            item.line,
            self.key_path(key),
            format!("expected {want}, found {}", item.value.type_name()),
        )
    }

    /// Errors on any key not in `allowed`, naming the key and its line.
    pub(crate) fn check_keys(&self, allowed: &[&str]) -> Result<(), CatalogError> {
        for (key, node) in self.table.entries() {
            if !allowed.contains(&key) {
                return Err(CatalogError::schema(
                    node.line(),
                    self.key_path(key),
                    format!("unknown key (expected one of: {})", allowed.join(", ")),
                ));
            }
        }
        Ok(())
    }

    pub(crate) fn string(&self, key: &str) -> Result<String, CatalogError> {
        let item = self.require_item(key)?;
        match &item.value {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(self.type_error(key, item, "a string")),
        }
    }

    pub(crate) fn opt_string(&self, key: &str) -> Result<Option<String>, CatalogError> {
        match self.item(key)? {
            None => Ok(None),
            Some(item) => match &item.value {
                Value::Str(s) => Ok(Some(s.clone())),
                _ => Err(self.type_error(key, item, "a string")),
            },
        }
    }

    pub(crate) fn f64(&self, key: &str) -> Result<f64, CatalogError> {
        let item = self.require_item(key)?;
        as_f64(&item.value).ok_or_else(|| self.type_error(key, item, "a number"))
    }

    pub(crate) fn usize(&self, key: &str) -> Result<usize, CatalogError> {
        let item = self.require_item(key)?;
        match item.value {
            Value::Int(v) if v >= 0 => Ok(v as usize),
            Value::Int(_) => Err(self.type_error(key, item, "a non-negative integer")),
            _ => Err(self.type_error(key, item, "an integer")),
        }
    }

    fn list(&self, key: &str) -> Result<(&'a Item, &'a [Value]), CatalogError> {
        let item = self.require_item(key)?;
        match &item.value {
            Value::Arr(values) => Ok((item, values)),
            _ => Err(self.type_error(key, item, "an array")),
        }
    }

    pub(crate) fn u32_list(&self, key: &str) -> Result<Vec<u32>, CatalogError> {
        let (item, values) = self.list(key)?;
        values
            .iter()
            .map(|v| {
                as_u32(v).ok_or_else(|| {
                    self.type_error(key, item, "an array of unsigned 32-bit integers")
                })
            })
            .collect()
    }

    pub(crate) fn opt_u32_list(&self, key: &str) -> Result<Option<Vec<u32>>, CatalogError> {
        if self.item(key)?.is_none() {
            return Ok(None);
        }
        self.u32_list(key).map(Some)
    }

    pub(crate) fn f64_list(&self, key: &str) -> Result<Vec<f64>, CatalogError> {
        let (item, values) = self.list(key)?;
        values
            .iter()
            .map(|v| as_f64(v).ok_or_else(|| self.type_error(key, item, "an array of numbers")))
            .collect()
    }

    pub(crate) fn str_list(&self, key: &str) -> Result<Vec<String>, CatalogError> {
        let (item, values) = self.list(key)?;
        values
            .iter()
            .map(|v| match v {
                Value::Str(s) => Ok(s.clone()),
                _ => Err(self.type_error(key, item, "an array of strings")),
            })
            .collect()
    }

    pub(crate) fn bool_list(&self, key: &str) -> Result<Vec<bool>, CatalogError> {
        let (item, values) = self.list(key)?;
        values
            .iter()
            .map(|v| match v {
                Value::Bool(b) => Ok(*b),
                _ => Err(self.type_error(key, item, "an array of booleans")),
            })
            .collect()
    }

    pub(crate) fn table(&self, key: &str) -> Result<Section<'a>, CatalogError> {
        match self.table.get(key) {
            Some(Node::Table(table)) => Ok(Section::new(table, self.key_path(key))),
            Some(node) => Err(CatalogError::schema(
                node.line(),
                self.key_path(key),
                "expected a table",
            )),
            None => Err(CatalogError::schema(
                self.table.line,
                self.key_path(key),
                "required table is missing",
            )),
        }
    }

    pub(crate) fn opt_table(&self, key: &str) -> Result<Option<Section<'a>>, CatalogError> {
        match self.table.get(key) {
            None => Ok(None),
            _ => self.table(key).map(Some),
        }
    }

    /// An array-of-tables entry (`[[key]]`), paths indexed `key[i]`.
    pub(crate) fn tables(&self, key: &str) -> Result<Vec<Section<'a>>, CatalogError> {
        match self.table.get(key) {
            Some(Node::Array(tables)) => Ok(tables
                .iter()
                .enumerate()
                .map(|(i, table)| Section::new(table, format!("{}[{i}]", self.key_path(key))))
                .collect()),
            Some(node) => Err(CatalogError::schema(
                node.line(),
                self.key_path(key),
                "expected an array of tables",
            )),
            None => Err(CatalogError::schema(
                self.table.line,
                self.key_path(key),
                "required key is missing",
            )),
        }
    }
}

fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::Float(v) => Some(*v),
        Value::Int(v) => Some(*v as f64),
        _ => None,
    }
}

fn as_u32(value: &Value) -> Option<u32> {
    match value {
        Value::Int(v) => u32::try_from(*v).ok(),
        _ => None,
    }
}

/// `[["name", value], ...]` rows (thermal nodes, ambient links).
fn pair_rows(section: &Section<'_>, key: &str) -> Result<Vec<(String, f64)>, CatalogError> {
    let item = section.require_item(key)?;
    let row_error = || {
        CatalogError::schema(
            item.line,
            section.key_path(key),
            "expected [\"name\", value] rows",
        )
    };
    let Value::Arr(rows) = &item.value else {
        return Err(row_error());
    };
    rows.iter()
        .map(|row| match row {
            Value::Arr(cells) => match &cells[..] {
                [Value::Str(name), value] => as_f64(value)
                    .map(|v| (name.clone(), v))
                    .ok_or_else(row_error),
                _ => Err(row_error()),
            },
            _ => Err(row_error()),
        })
        .collect()
}

/// `[["a", "b", value], ...]` rows (thermal couplings).
fn triple_rows(
    section: &Section<'_>,
    key: &str,
) -> Result<Vec<(String, String, f64)>, CatalogError> {
    let item = section.require_item(key)?;
    let row_error = || {
        CatalogError::schema(
            item.line,
            section.key_path(key),
            "expected [\"a\", \"b\", value] rows",
        )
    };
    let Value::Arr(rows) = &item.value else {
        return Err(row_error());
    };
    rows.iter()
        .map(|row| match row {
            Value::Arr(cells) => match &cells[..] {
                [Value::Str(a), Value::Str(b), value] => as_f64(value)
                    .map(|v| (a.clone(), b.clone(), v))
                    .ok_or_else(row_error),
                _ => Err(row_error()),
            },
            _ => Err(row_error()),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

/// Quotes a string for a catalog file, escaping what the parser
/// unescapes.
pub(crate) fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            _ => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Shortest decimal that round-trips to the same f64 bits.
fn float(v: f64) -> String {
    format!("{v:?}")
}

fn u32_array(values: impl IntoIterator<Item = u32>) -> String {
    let cells: Vec<String> = values.into_iter().map(|v| v.to_string()).collect();
    format!("[{}]", cells.join(", "))
}

fn f64_array(values: impl IntoIterator<Item = f64>) -> String {
    let cells: Vec<String> = values.into_iter().map(float).collect();
    format!("[{}]", cells.join(", "))
}

fn str_array(values: impl IntoIterator<Item = &'static str>) -> String {
    let cells: Vec<String> = values.into_iter().map(quoted).collect();
    format!("[{}]", cells.join(", "))
}

/// Serializes a [`DeviceSpec`] as a catalog device file.
///
/// The output parses back (`parse_device`) to a spec equal to `spec`.
pub fn device_to_toml(spec: &DeviceSpec) -> String {
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(
        w,
        "# {} — device spec in the canonical form of usta_device::device_to_toml.",
        spec.id
    );
    let _ = writeln!(w, "schema = {}", quoted(DEVICE_SCHEMA));
    let _ = writeln!(w);
    let _ = writeln!(w, "[device]");
    let _ = writeln!(w, "id = {}", quoted(spec.id));
    let _ = writeln!(w, "description = {}", quoted(spec.description));
    let _ = writeln!(w, "back-cover = {}", quoted(material_name(spec.back_cover)));
    for cluster in &spec.clusters {
        let _ = writeln!(w);
        let _ = writeln!(w, "[[device.cluster]]");
        let _ = writeln!(w, "name = {}", quoted(cluster.name));
        let _ = writeln!(w, "cores = {}", cluster.cores);
        let _ = writeln!(
            w,
            "opp-khz = {}",
            u32_array(cluster.opp.iter().map(|p| p.khz))
        );
        let _ = writeln!(
            w,
            "opp-volts = {}",
            f64_array(cluster.opp.iter().map(|p| p.volts))
        );
        let _ = writeln!(w, "ceff-farads = {}", float(cluster.cpu_power.ceff_farads));
        let _ = writeln!(
            w,
            "leak-coeff-a = {}",
            float(cluster.cpu_power.leak_coeff_a)
        );
        let _ = writeln!(
            w,
            "leak-temp-per-k = {}",
            float(cluster.cpu_power.leak_temp_per_k)
        );
        let _ = writeln!(
            w,
            "idle-uncore-w = {}",
            float(cluster.cpu_power.idle_uncore_w)
        );
    }
    let _ = writeln!(w);
    let _ = writeln!(w, "[device.gpu-power]");
    let _ = writeln!(w, "max-w = {}", float(spec.gpu_power.max_w));
    let _ = writeln!(w, "idle-w = {}", float(spec.gpu_power.idle_w));
    if let Some(gpu) = &spec.gpu {
        let _ = writeln!(w);
        let _ = writeln!(w, "[device.gpu]");
        let _ = writeln!(w, "opp-khz = {}", u32_array(gpu.opp.iter().map(|p| p.khz)));
        let _ = writeln!(
            w,
            "opp-volts = {}",
            f64_array(gpu.opp.iter().map(|p| p.volts))
        );
        let _ = writeln!(w, "ceff-farads = {}", float(gpu.ceff_farads));
        let _ = writeln!(w, "idle-w = {}", float(gpu.idle_w));
    }
    let _ = writeln!(w);
    let _ = writeln!(w, "[device.display]");
    let _ = writeln!(w, "base-w = {}", float(spec.display.base_w));
    let _ = writeln!(
        w,
        "full-brightness-w = {}",
        float(spec.display.full_brightness_w)
    );
    if let Some(ladder) = spec.brightness_ladder {
        let _ = writeln!(
            w,
            "brightness-ladder = {}",
            u32_array(ladder.iter().copied())
        );
    }
    let _ = writeln!(w);
    let _ = writeln!(w, "[device.battery]");
    let _ = writeln!(w, "capacity-mah = {}", float(spec.battery.capacity_mah));
    let _ = writeln!(w, "nominal-v = {}", float(spec.battery.nominal_v));
    let _ = writeln!(w, "internal-ohm = {}", float(spec.battery.internal_ohm));
    let _ = writeln!(w, "max-charge-a = {}", float(spec.battery.max_charge_a));
    let _ = writeln!(
        w,
        "charge-loss-fraction = {}",
        float(spec.battery.charge_loss_fraction)
    );
    let _ = writeln!(w);
    let _ = writeln!(w, "[device.thermal]");
    let _ = writeln!(w, "nodes = [");
    for node in &spec.thermal.nodes {
        let _ = writeln!(
            w,
            "    [{}, {}],",
            quoted(node.name),
            float(node.capacitance)
        );
    }
    let _ = writeln!(w, "]");
    let _ = writeln!(w, "couplings = [");
    for &(a, b, g) in &spec.thermal.couplings {
        let _ = writeln!(w, "    [{}, {}, {}],", quoted(a), quoted(b), float(g));
    }
    let _ = writeln!(w, "]");
    let _ = writeln!(w, "ambient-links = [");
    for &(node, g) in &spec.thermal.ambient_links {
        let _ = writeln!(w, "    [{}, {}],", quoted(node), float(g));
    }
    let _ = writeln!(w, "]");
    let _ = writeln!(
        w,
        "die-nodes = {}",
        str_array(spec.thermal.die_nodes.iter().copied())
    );
    let _ = writeln!(w, "package-node = {}", quoted(spec.thermal.package_node));
    if let Some(gpu_node) = spec.thermal.gpu_node {
        let _ = writeln!(w, "gpu-node = {}", quoted(gpu_node));
    }
    let _ = writeln!(w, "board-node = {}", quoted(spec.thermal.board_node));
    let _ = writeln!(w, "battery-node = {}", quoted(spec.thermal.battery_node));
    let _ = writeln!(w, "screen-node = {}", quoted(spec.thermal.screen_node));
    let _ = writeln!(w, "skin-node = {}", quoted(spec.thermal.skin_node));
    let _ = writeln!(
        w,
        "back-nodes = {}",
        str_array(spec.thermal.back_nodes.iter().copied())
    );
    let _ = writeln!(w, "ambient-c = {}", float(spec.thermal.ambient.0));
    let _ = writeln!(w, "initial-c = {}", float(spec.thermal.initial.0));
    let _ = writeln!(w);
    let _ = writeln!(w, "[device.thermal.hand]");
    let _ = writeln!(
        w,
        "palm-c = {}",
        float(spec.thermal.hand.palm_temperature.0)
    );
    let _ = writeln!(
        w,
        "contact-conductance = {}",
        float(spec.thermal.hand.contact_conductance)
    );
    let _ = writeln!(
        w,
        "blocked-fraction = {}",
        float(spec.thermal.hand.blocked_fraction)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::builtin_spec;
    use crate::Registry;

    #[test]
    fn every_builtin_round_trips_to_an_equal_spec() {
        for spec in Registry::builtin().specs() {
            let text = device_to_toml(spec);
            let parsed = parse_device(&text)
                .unwrap_or_else(|e| panic!("{} serialization re-parses: {e}", spec.id));
            assert_eq!(&parsed, spec, "{} round-trips", spec.id);
        }
    }

    #[test]
    fn serialization_is_deterministic() {
        assert_eq!(
            device_to_toml(&builtin_spec("nexus4")),
            device_to_toml(&builtin_spec("nexus4"))
        );
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let text = device_to_toml(&builtin_spec("nexus4")).replace("device/v1", "device/v9");
        let error = parse_device(&text).unwrap_err();
        assert_eq!(error.key.as_deref(), Some("schema"));
    }

    #[test]
    fn unknown_key_is_rejected_with_its_path() {
        let text = device_to_toml(&builtin_spec("nexus4")).replace("nominal-v", "nominal-volts");
        let error = parse_device(&text).unwrap_err();
        assert_eq!(error.key.as_deref(), Some("device.battery.nominal-volts"));
        assert!(error.line > 0, "error carries a line");
        assert!(error.to_string().contains("unknown key"));
    }

    #[test]
    fn missing_required_key_is_rejected() {
        let text = device_to_toml(&builtin_spec("nexus4")).replace("cores = 4\n", "");
        let error = parse_device(&text).unwrap_err();
        assert_eq!(error.key.as_deref(), Some("device.cluster[0].cores"));
    }

    #[test]
    fn mismatched_opp_arrays_are_rejected() {
        let spec = builtin_spec("nexus4");
        let first_volts = float(spec.clusters[0].opp[0].volts);
        let text = device_to_toml(&spec).replace(&format!("[{first_volts}, "), "[");
        let error = parse_device(&text).unwrap_err();
        assert_eq!(error.key.as_deref(), Some("device.cluster[0].opp-volts"));
        assert!(error.to_string().contains("11 entries"));
    }

    #[test]
    fn non_monotone_opp_is_a_device_error_with_context() {
        let text = device_to_toml(&builtin_spec("nexus4"))
            .replace("opp-khz = [384000,", "opp-khz = [999000,");
        let error = parse_device(&text).unwrap_err();
        assert_eq!(error.key.as_deref(), Some("device.cluster"));
        assert!(matches!(
            error.kind,
            crate::ErrorKind::Device(DeviceError::NonMonotoneOppFrequency { .. })
        ));
        assert!(error.line > 0);
    }

    #[test]
    fn unknown_material_lists_known_names() {
        let text =
            device_to_toml(&builtin_spec("nexus4")).replace("\"polycarbonate\"", "\"adamantium\"");
        let error = parse_device(&text).unwrap_err();
        assert_eq!(error.key.as_deref(), Some("device.back-cover"));
        assert!(error.to_string().contains("polycarbonate"));
    }

    #[test]
    fn every_material_name_round_trips() {
        for &(name, material) in &MATERIALS {
            assert_eq!(material_from_name(name), Some(material));
            assert_eq!(material_name(material), name);
        }
    }
}
