//! Error type for SoC model construction.

use std::error::Error;
use std::fmt;

/// Errors produced by the SoC-side models.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SocError {
    /// An OPP table was built with no levels.
    EmptyOppTable,
    /// OPP levels must be strictly increasing in frequency.
    UnsortedOppTable {
        /// Index of the offending level.
        index: usize,
    },
    /// An OPP level had a non-positive frequency or voltage.
    InvalidOppLevel {
        /// Index of the offending level.
        index: usize,
    },
    /// A model input that no device spec carries (a sensor parameter or
    /// the battery's initial state of charge) was non-finite or out of
    /// its physical range. Device parameters are range-checked once, by
    /// [`DeviceSpec::validate`](usta_device::DeviceSpec::validate).
    InvalidParameter {
        /// Which parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for SocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SocError::EmptyOppTable => write!(f, "OPP table has no levels"),
            SocError::UnsortedOppTable { index } => {
                write!(f, "OPP table not strictly increasing at index {index}")
            }
            SocError::InvalidOppLevel { index } => {
                write!(f, "OPP level {index} has non-positive frequency or voltage")
            }
            SocError::InvalidParameter { name, value } => {
                write!(f, "parameter `{name}` has invalid value {value}")
            }
        }
    }
}

impl Error for SocError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = SocError::UnsortedOppTable { index: 7 };
        assert!(e.to_string().contains("index 7"));
        let e = SocError::InvalidParameter {
            name: "state_of_charge",
            value: 1.5,
        };
        assert!(e.to_string().contains("state_of_charge"));
        assert!(e.to_string().contains("1.5"));
    }

    #[test]
    fn implements_error_send_sync() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<SocError>();
    }
}
