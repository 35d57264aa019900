//! Scenario-grid files: named sweep axes loaded from a catalog.
//!
//! A grid file (`schema = "usta-catalog/grid/v1"`) declares the axes a
//! sweep crosses — benchmark names, ambient bands, case kinds, and the
//! charging/grip booleans. Axis values stay **strings** here: this
//! crate sits below `usta-workloads`/`usta-fleet` in the dependency
//! order, so resolution against the real `Benchmark` /
//! `AmbientBand` / `CaseKind` enums happens in the fleet crate
//! (`usta_fleet::GridAxes::from_spec`), which also rejects unknown
//! names with the known values listed.

use std::fmt::Write as _;

use crate::device::{quoted, Section};
use crate::error::CatalogError;
use crate::toml;
use crate::GRID_SCHEMA;

/// A named scenario grid: the axes a sweep crosses, as written in the
/// file (unresolved strings).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioGridSpec {
    /// Grid name, lower-case `[a-z0-9-]` — what `--grid NAME` selects.
    pub name: String,
    /// Benchmark display names (e.g. `"AnTuTu Full"`, `"YouTube"`).
    pub benchmarks: Vec<String>,
    /// Ambient band names (`winter`, `office`, `summer`, `hot-car`).
    pub ambients: Vec<String>,
    /// Case names (`naked`, `slim-shell`, `rugged`, `alu-bumper`).
    pub cases: Vec<String>,
    /// Charging axis values.
    pub charging: Vec<bool>,
    /// Hand-held (grip) axis values.
    pub hand_held: Vec<bool>,
}

impl ScenarioGridSpec {
    /// Scenarios per device this grid produces (product of axis sizes).
    pub fn len_per_device(&self) -> usize {
        self.benchmarks.len()
            * self.ambients.len()
            * self.cases.len()
            * self.charging.len()
            * self.hand_held.len()
    }
}

/// Parses one grid file into a [`ScenarioGridSpec`].
///
/// # Errors
///
/// Returns a [`CatalogError`] for malformed TOML, a wrong schema, an
/// empty or duplicated axis, or a bad grid name.
pub fn parse_grid(text: &str) -> Result<ScenarioGridSpec, CatalogError> {
    let doc = toml::parse(text).map_err(|e| CatalogError::parse(e.line, e.message))?;
    let root = Section::new(&doc, "");
    let schema = root.string("schema")?;
    if schema != GRID_SCHEMA {
        return Err(CatalogError::schema(
            root.require_item("schema")?.line,
            "schema",
            format!("expected {GRID_SCHEMA:?}, found {schema:?}"),
        ));
    }
    grid_from_document(&doc)
}

/// Deserializes an already-parsed grid document (schema key assumed
/// checked).
pub(crate) fn grid_from_document(doc: &toml::Table) -> Result<ScenarioGridSpec, CatalogError> {
    let root = Section::new(doc, "");
    root.check_keys(&["schema", "grid"])?;
    let grid = root.table("grid")?;
    grid.check_keys(&[
        "name",
        "benchmarks",
        "ambients",
        "cases",
        "charging",
        "hand-held",
    ])?;
    let name = grid.string("name")?;
    if name.is_empty()
        || !name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
    {
        return Err(CatalogError::schema(
            grid.require_item("name")?.line,
            grid.key_path("name"),
            format!("grid name {name:?} must be lower-case [a-z0-9-]"),
        ));
    }
    let spec = ScenarioGridSpec {
        name,
        benchmarks: grid.str_list("benchmarks")?,
        ambients: grid.str_list("ambients")?,
        cases: grid.str_list("cases")?,
        charging: grid.bool_list("charging")?,
        hand_held: grid.bool_list("hand-held")?,
    };
    for (axis, len) in [
        ("benchmarks", spec.benchmarks.len()),
        ("ambients", spec.ambients.len()),
        ("cases", spec.cases.len()),
        ("charging", spec.charging.len()),
        ("hand-held", spec.hand_held.len()),
    ] {
        if len == 0 {
            return Err(CatalogError::schema(
                grid.require_item(axis)?.line,
                grid.key_path(axis),
                "axis must list at least one value",
            ));
        }
    }
    for (axis, values) in [
        ("benchmarks", &spec.benchmarks),
        ("ambients", &spec.ambients),
        ("cases", &spec.cases),
    ] {
        for (i, value) in values.iter().enumerate() {
            if values[..i].contains(value) {
                return Err(CatalogError::schema(
                    grid.require_item(axis)?.line,
                    grid.key_path(axis),
                    format!("duplicate axis value {value:?}"),
                ));
            }
        }
    }
    for (axis, values) in [("charging", &spec.charging), ("hand-held", &spec.hand_held)] {
        if values.len() > 2 || (values.len() == 2 && values[0] == values[1]) {
            return Err(CatalogError::schema(
                grid.require_item(axis)?.line,
                grid.key_path(axis),
                "boolean axis may list each value at most once",
            ));
        }
    }
    Ok(spec)
}

/// Serializes a [`ScenarioGridSpec`] as a catalog grid file. The
/// output parses back (`parse_grid`) to an equal spec.
pub fn grid_to_toml(spec: &ScenarioGridSpec) -> String {
    fn str_array(values: &[String]) -> String {
        let cells: Vec<String> = values.iter().map(|v| quoted(v)).collect();
        format!("[{}]", cells.join(", "))
    }
    fn bool_array(values: &[bool]) -> String {
        let cells: Vec<String> = values.iter().map(|v| v.to_string()).collect();
        format!("[{}]", cells.join(", "))
    }
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(
        w,
        "# {} — a scenario grid for fleet_sweep --grid.",
        spec.name
    );
    let _ = writeln!(w, "schema = \"{GRID_SCHEMA}\"");
    let _ = writeln!(w);
    let _ = writeln!(w, "[grid]");
    let _ = writeln!(w, "name = {}", quoted(&spec.name));
    let _ = writeln!(w, "benchmarks = {}", str_array(&spec.benchmarks));
    let _ = writeln!(w, "ambients = {}", str_array(&spec.ambients));
    let _ = writeln!(w, "cases = {}", str_array(&spec.cases));
    let _ = writeln!(w, "charging = {}", bool_array(&spec.charging));
    let _ = writeln!(w, "hand-held = {}", bool_array(&spec.hand_held));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScenarioGridSpec {
        ScenarioGridSpec {
            name: "paper-extremes".to_owned(),
            benchmarks: vec!["AnTuTu Full".to_owned(), "YouTube".to_owned()],
            ambients: vec!["winter".to_owned(), "hot-car".to_owned()],
            cases: vec!["naked".to_owned(), "rugged".to_owned()],
            charging: vec![false, true],
            hand_held: vec![true],
        }
    }

    #[test]
    fn grid_round_trips() {
        let spec = sample();
        let text = grid_to_toml(&spec);
        assert_eq!(parse_grid(&text).expect("re-parses"), spec);
        assert_eq!(spec.len_per_device(), 16);
    }

    #[test]
    fn empty_axis_is_rejected() {
        let mut spec = sample();
        spec.cases.clear();
        let error = parse_grid(&grid_to_toml(&spec)).unwrap_err();
        assert_eq!(error.key.as_deref(), Some("grid.cases"));
        assert!(error.to_string().contains("at least one value"));
    }

    #[test]
    fn duplicate_axis_value_is_rejected() {
        let mut spec = sample();
        spec.ambients.push("winter".to_owned());
        let error = parse_grid(&grid_to_toml(&spec)).unwrap_err();
        assert_eq!(error.key.as_deref(), Some("grid.ambients"));
    }

    #[test]
    fn duplicate_bool_value_is_rejected() {
        let mut spec = sample();
        spec.hand_held = vec![true, true];
        let error = parse_grid(&grid_to_toml(&spec)).unwrap_err();
        assert_eq!(error.key.as_deref(), Some("grid.hand-held"));
    }

    #[test]
    fn bad_grid_name_is_rejected() {
        let mut spec = sample();
        spec.name = "Paper Extremes".to_owned();
        let error = parse_grid(&grid_to_toml(&spec)).unwrap_err();
        assert_eq!(error.key.as_deref(), Some("grid.name"));
    }
}
