//! The cpufreq operating-point (OPP) table.
//!
//! Linux cpufreq exposes a discrete set of frequency/voltage operating
//! points; governors pick one, and USTA clamps the *maximum allowed*
//! index. Each catalog cluster declares its table, and
//! [`crate::spec::opp_table`] builds it; the paper's Nexus 4 exposes
//! twelve levels between 384 MHz and 1.512 GHz (§3.B).

use std::sync::Arc;

use crate::error::SocError;

/// One operating point: a frequency and the voltage the PLL/PMIC pair
/// runs it at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrequencyLevel {
    /// Core clock in kHz (cpufreq convention).
    pub khz: u32,
    /// Supply voltage in volts.
    pub volts: f64,
}

impl FrequencyLevel {
    /// Frequency in MHz.
    #[inline]
    pub fn mhz(&self) -> f64 {
        self.khz as f64 / 1e3
    }

    /// Frequency in GHz.
    #[inline]
    pub fn ghz(&self) -> f64 {
        self.khz as f64 / 1e6
    }

    /// Frequency in Hz.
    #[inline]
    pub fn hz(&self) -> f64 {
        self.khz as f64 * 1e3
    }
}

/// An ordered table of operating points (lowest frequency first).
///
/// ```
/// use usta_soc::{FrequencyLevel, OppTable};
///
/// # fn main() -> Result<(), usta_soc::SocError> {
/// let table = OppTable::new(vec![
///     FrequencyLevel { khz: 300_000, volts: 0.9 },
///     FrequencyLevel { khz: 600_000, volts: 1.0 },
///     FrequencyLevel { khz: 900_000, volts: 1.1 },
/// ])?;
/// assert_eq!(table.len(), 3);
/// assert_eq!(table.max().khz, 900_000);
/// // The level best serving an 800 MHz demand is the 900 MHz point:
/// assert_eq!(table.level_for_khz(800_000), 2);
/// # Ok(())
/// # }
/// ```
///
/// A table is immutable once built, so its levels are shared: a clone
/// is a reference-count bump, and every clone of one table compares
/// equal without reading its levels.
#[derive(Debug, Clone)]
pub struct OppTable {
    levels: Arc<[FrequencyLevel]>,
}

impl PartialEq for OppTable {
    /// Level-by-level equality, short-cut for clones of one table.
    /// The short cut agrees with the full comparison because
    /// [`OppTable::new`] rejects non-finite volts, so every table
    /// equals itself.
    fn eq(&self, other: &OppTable) -> bool {
        Arc::ptr_eq(&self.levels, &other.levels) || self.levels == other.levels
    }
}

impl OppTable {
    /// Builds a table from levels sorted by increasing frequency.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::EmptyOppTable`] for an empty list,
    /// [`SocError::UnsortedOppTable`] if frequencies are not strictly
    /// increasing, and [`SocError::InvalidOppLevel`] for non-positive
    /// frequencies or voltages.
    pub fn new(levels: Vec<FrequencyLevel>) -> Result<OppTable, SocError> {
        if levels.is_empty() {
            return Err(SocError::EmptyOppTable);
        }
        for (i, l) in levels.iter().enumerate() {
            if l.khz == 0 || !(l.volts.is_finite() && l.volts > 0.0) {
                return Err(SocError::InvalidOppLevel { index: i });
            }
            if i > 0 && levels[i - 1].khz >= l.khz {
                return Err(SocError::UnsortedOppTable { index: i });
            }
        }
        Ok(OppTable {
            levels: levels.into(),
        })
    }

    /// Number of levels.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// `true` when the table has no levels (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// The level at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`; use [`get`](Self::get) for a checked
    /// lookup.
    pub fn level(&self, index: usize) -> FrequencyLevel {
        self.levels[index]
    }

    /// Checked lookup.
    pub fn get(&self, index: usize) -> Option<FrequencyLevel> {
        self.levels.get(index).copied()
    }

    /// The lowest operating point.
    pub fn min(&self) -> FrequencyLevel {
        self.levels[0]
    }

    /// The highest operating point.
    pub fn max(&self) -> FrequencyLevel {
        *self.levels.last().expect("table is non-empty")
    }

    /// Index of the highest level.
    pub fn max_index(&self) -> usize {
        self.levels.len() - 1
    }

    /// Iterates over the levels, lowest first.
    pub fn iter(&self) -> impl Iterator<Item = &FrequencyLevel> {
        self.levels.iter()
    }

    /// The smallest level index whose frequency is at least `khz`
    /// (saturates at the top level) — "what level do I need to serve
    /// this demand".
    pub fn level_for_khz(&self, khz: u32) -> usize {
        self.levels
            .iter()
            .position(|l| l.khz >= khz)
            .unwrap_or(self.levels.len() - 1)
    }

    /// The index of the exact frequency, if present.
    pub fn index_of_khz(&self, khz: u32) -> Option<usize> {
        self.levels.iter().position(|l| l.khz == khz)
    }

    /// Clamps an index into the valid range.
    pub fn clamp_index(&self, index: usize) -> usize {
        index.min(self.max_index())
    }

    /// `levels_down` levels below `index`, saturating at the bottom.
    ///
    /// This is the primitive USTA's banding policy uses ("decrease the
    /// maximum allowed CPU frequency by one level").
    pub fn lower(&self, index: usize, levels_down: usize) -> usize {
        index.saturating_sub(levels_down)
    }
}

impl<'a> IntoIterator for &'a OppTable {
    type Item = &'a FrequencyLevel;
    type IntoIter = std::slice::Iter<'a, FrequencyLevel>;

    fn into_iter(self) -> Self::IntoIter {
        self.levels.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> OppTable {
        OppTable::new(vec![
            FrequencyLevel {
                khz: 300_000,
                volts: 0.9,
            },
            FrequencyLevel {
                khz: 600_000,
                volts: 1.0,
            },
            FrequencyLevel {
                khz: 900_000,
                volts: 1.1,
            },
        ])
        .unwrap()
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(
            OppTable::new(vec![]),
            Err(SocError::EmptyOppTable)
        ));
    }

    #[test]
    fn rejects_unsorted_and_duplicate() {
        let r = OppTable::new(vec![
            FrequencyLevel {
                khz: 600_000,
                volts: 1.0,
            },
            FrequencyLevel {
                khz: 300_000,
                volts: 0.9,
            },
        ]);
        assert!(matches!(r, Err(SocError::UnsortedOppTable { index: 1 })));
        let r = OppTable::new(vec![
            FrequencyLevel {
                khz: 600_000,
                volts: 1.0,
            },
            FrequencyLevel {
                khz: 600_000,
                volts: 1.0,
            },
        ]);
        assert!(matches!(r, Err(SocError::UnsortedOppTable { index: 1 })));
    }

    #[test]
    fn rejects_bad_levels() {
        let r = OppTable::new(vec![FrequencyLevel { khz: 0, volts: 1.0 }]);
        assert!(matches!(r, Err(SocError::InvalidOppLevel { index: 0 })));
        let r = OppTable::new(vec![FrequencyLevel {
            khz: 100,
            volts: -1.0,
        }]);
        assert!(matches!(r, Err(SocError::InvalidOppLevel { index: 0 })));
    }

    #[test]
    fn level_for_khz_rounds_up_and_saturates() {
        let t = table();
        assert_eq!(t.level_for_khz(1), 0);
        assert_eq!(t.level_for_khz(300_000), 0);
        assert_eq!(t.level_for_khz(300_001), 1);
        assert_eq!(t.level_for_khz(899_999), 2);
        assert_eq!(t.level_for_khz(5_000_000), 2);
    }

    #[test]
    fn lower_saturates_at_bottom() {
        let t = table();
        assert_eq!(t.lower(2, 1), 1);
        assert_eq!(t.lower(2, 2), 0);
        assert_eq!(t.lower(1, 5), 0);
    }

    #[test]
    fn unit_conversions() {
        let l = FrequencyLevel {
            khz: 1_512_000,
            volts: 1.25,
        };
        assert!((l.mhz() - 1512.0).abs() < 1e-9);
        assert!((l.ghz() - 1.512).abs() < 1e-9);
        assert!((l.hz() - 1.512e9).abs() < 1e-3);
    }

    #[test]
    fn iteration_is_low_to_high() {
        let t = table();
        let freqs: Vec<u32> = t.iter().map(|l| l.khz).collect();
        assert_eq!(freqs, vec![300_000, 600_000, 900_000]);
        let freqs2: Vec<u32> = (&t).into_iter().map(|l| l.khz).collect();
        assert_eq!(freqs, freqs2);
    }

    #[test]
    fn index_of_khz_exact_only() {
        let t = table();
        assert_eq!(t.index_of_khz(600_000), Some(1));
        assert_eq!(t.index_of_khz(600_001), None);
    }
}
