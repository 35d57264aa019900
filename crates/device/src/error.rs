//! Errors: [`DeviceError`] for specs and registries that fail
//! validation, and [`CatalogError`] for catalog files that fail to
//! load, carrying file / line / key context.
//!
//! Every failure mode of the file loader — unreadable file, malformed
//! TOML, schema mismatch, or a spec that fails `DeviceSpec::validate` —
//! maps onto one [`CatalogError`]. It renders as
//! `path.toml:LINE: key a.b.c: message`, each piece of context omitted
//! gracefully when unknown, so a CLI can print it verbatim and the user
//! lands on the offending line.

use std::fmt;
use std::path::{Path, PathBuf};

/// Why a [`crate::DeviceSpec`] (or a [`crate::Registry`]) was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceError {
    /// The id is empty or contains characters outside `[a-z0-9-]`
    /// (ids double as CLI tokens and file-name fragments).
    InvalidId(String),
    /// The spec declares no frequency domains.
    NoClusters,
    /// The spec declares more clusters than
    /// [`crate::spec::MAX_FREQ_DOMAINS`].
    TooManyClusters {
        /// How many clusters the spec declared.
        count: usize,
    },
    /// A cluster name is empty or contains characters outside
    /// `[a-z0-9-]` (names become trace-CSV columns and report rows).
    InvalidClusterName(String),
    /// Two clusters of one device share a name.
    DuplicateClusterName(String),
    /// Clusters are not in big-first order (non-increasing top
    /// frequency) at this index — the spill scheduler depends on it.
    ClustersNotBigFirst {
        /// Index of the cluster that out-clocks its predecessor.
        index: usize,
    },
    /// A cluster has no OPP levels.
    EmptyOppTable,
    /// OPP frequencies are not strictly increasing at this index.
    NonMonotoneOppFrequency {
        /// Index of the offending level.
        index: usize,
    },
    /// Full-utilization dynamic power is not strictly increasing in
    /// frequency at this index — a table like that would make "lower
    /// the cap one level" meaningless for the banding policy.
    NonMonotoneOppPower {
        /// Index of the offending level.
        index: usize,
    },
    /// A scalar parameter is non-finite or out of its physical range.
    InvalidParameter {
        /// Which parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A thermal node name is empty or contains characters outside
    /// `[a-z0-9_-]` (names become trace columns and report rows).
    InvalidThermalNodeName(String),
    /// Two thermal nodes share a name, or one node was designated as
    /// the die of two different clusters.
    DuplicateThermalNode(String),
    /// A thermal edge or role designation references a node the spec
    /// never declared.
    UnknownThermalNode(String),
    /// The spec does not declare exactly one die node per cluster, so
    /// cluster power could not be attributed to the die.
    DieNodeMismatch {
        /// How many die nodes the thermal spec designates.
        die_nodes: usize,
        /// How many clusters the device declares.
        clusters: usize,
    },
    /// A thermal node has no path to ambient through the coupling
    /// graph — its steady state would be unbounded.
    DisconnectedThermalNode(String),
    /// A thermal coupling is malformed (self-loop or duplicate pair).
    InvalidThermalCoupling(String),
    /// Two registry specs share an id (after ASCII lowercasing).
    DuplicateId(String),
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::InvalidId(id) => {
                write!(f, "device id {id:?} must be non-empty [a-z0-9-]")
            }
            DeviceError::NoClusters => write!(f, "device spec declares no frequency domains"),
            DeviceError::TooManyClusters { count } => {
                write!(f, "device spec declares {count} clusters (max 4)")
            }
            DeviceError::InvalidClusterName(name) => {
                write!(f, "cluster name {name:?} must be non-empty [a-z0-9-]")
            }
            DeviceError::DuplicateClusterName(name) => {
                write!(f, "duplicate cluster name {name:?}")
            }
            DeviceError::ClustersNotBigFirst { index } => {
                write!(
                    f,
                    "cluster {index} out-clocks its predecessor (clusters must be big-first)"
                )
            }
            DeviceError::EmptyOppTable => write!(f, "cluster has no OPP levels"),
            DeviceError::NonMonotoneOppFrequency { index } => {
                write!(f, "OPP frequency not strictly increasing at level {index}")
            }
            DeviceError::NonMonotoneOppPower { index } => {
                write!(
                    f,
                    "OPP dynamic power not strictly increasing at level {index}"
                )
            }
            DeviceError::InvalidParameter { name, value } => {
                write!(f, "device parameter {name} = {value} out of range")
            }
            DeviceError::InvalidThermalNodeName(name) => {
                write!(f, "thermal node name {name:?} must be non-empty [a-z0-9_-]")
            }
            DeviceError::DuplicateThermalNode(name) => {
                write!(f, "thermal node {name:?} declared or designated twice")
            }
            DeviceError::UnknownThermalNode(name) => {
                write!(f, "thermal spec references undeclared node {name:?}")
            }
            DeviceError::DieNodeMismatch {
                die_nodes,
                clusters,
            } => {
                write!(
                    f,
                    "thermal spec designates {die_nodes} die node(s) for {clusters} cluster(s)"
                )
            }
            DeviceError::DisconnectedThermalNode(name) => {
                write!(f, "thermal node {name:?} has no path to ambient")
            }
            DeviceError::InvalidThermalCoupling(what) => {
                write!(f, "invalid thermal coupling {what}")
            }
            DeviceError::DuplicateId(id) => write!(f, "duplicate device id {id:?}"),
        }
    }
}

impl std::error::Error for DeviceError {}

/// What went wrong while loading a catalog file.
#[derive(Debug, Clone, PartialEq)]
pub enum ErrorKind {
    /// The file (or directory) could not be read.
    Io(String),
    /// The text is not valid catalog TOML (lexical/structural).
    Parse(String),
    /// The TOML parsed but does not match the catalog schema
    /// (missing key, wrong type, unknown key, bad enum name, ...).
    Schema(String),
    /// The spec deserialized but failed device validation.
    Device(DeviceError),
}

/// A catalog loading error with best-effort source context.
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogError {
    /// The file being loaded, when known.
    pub file: Option<PathBuf>,
    /// 1-based source line the error is attributed to; 0 when the
    /// error is not tied to a specific line (e.g. I/O failures).
    pub line: usize,
    /// Dotted key path the error is attributed to, when known
    /// (e.g. `device.cluster[1].opp-khz`).
    pub key: Option<String>,
    /// The failure itself.
    pub kind: ErrorKind,
}

impl CatalogError {
    /// An I/O failure with no line context.
    pub fn io(message: impl Into<String>) -> Self {
        CatalogError {
            file: None,
            line: 0,
            key: None,
            kind: ErrorKind::Io(message.into()),
        }
    }

    /// A lexical/structural TOML failure at `line`.
    pub fn parse(line: usize, message: impl Into<String>) -> Self {
        CatalogError {
            file: None,
            line,
            key: None,
            kind: ErrorKind::Parse(message.into()),
        }
    }

    /// A schema failure at `line`, attributed to dotted key `key`.
    pub fn schema(line: usize, key: impl Into<String>, message: impl Into<String>) -> Self {
        CatalogError {
            file: None,
            line,
            key: Some(key.into()),
            kind: ErrorKind::Schema(message.into()),
        }
    }

    /// A device-validation failure attributed to `key` at `line`.
    pub fn device(line: usize, key: impl Into<String>, error: DeviceError) -> Self {
        CatalogError {
            file: None,
            line,
            key: Some(key.into()),
            kind: ErrorKind::Device(error),
        }
    }

    /// Attaches the source file path (kept if already set).
    #[must_use]
    pub fn with_file(mut self, path: &Path) -> Self {
        if self.file.is_none() {
            self.file = Some(path.to_path_buf());
        }
        self
    }
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(file) = &self.file {
            write!(f, "{}", file.display())?;
            if self.line > 0 {
                write!(f, ":{}", self.line)?;
            }
            write!(f, ": ")?;
        } else if self.line > 0 {
            write!(f, "line {}: ", self.line)?;
        }
        if let Some(key) = &self.key {
            write!(f, "key {key}: ")?;
        }
        match &self.kind {
            ErrorKind::Io(message) => write!(f, "{message}"),
            ErrorKind::Parse(message) => write!(f, "{message}"),
            ErrorKind::Schema(message) => write!(f, "{message}"),
            ErrorKind::Device(error) => write!(f, "invalid device spec: {error}"),
        }
    }
}

impl std::error::Error for CatalogError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_file_line_and_key() {
        let error = CatalogError::schema(12, "device.cluster[0].opp-khz", "expected an array")
            .with_file(Path::new("catalog/nexus4.toml"));
        assert_eq!(
            error.to_string(),
            "catalog/nexus4.toml:12: key device.cluster[0].opp-khz: expected an array"
        );
    }

    #[test]
    fn display_degrades_without_file() {
        let error = CatalogError::parse(3, "unterminated string");
        assert_eq!(error.to_string(), "line 3: unterminated string");
    }

    #[test]
    fn display_io_has_no_line_prefix() {
        let error = CatalogError::io("cannot read catalog/: not a directory");
        assert_eq!(error.to_string(), "cannot read catalog/: not a directory");
    }
}
