//! A mergeable relative-error quantile sketch.
//!
//! After DDSketch (Masson et al., VLDB 2019): values fall into buckets
//! whose width is a fixed fraction of their magnitude, so every quantile
//! carries the same relative error whatever the scale, and no range has
//! to be chosen up front. Here a bucket is simply the value's sign,
//! exponent and top 10 mantissa bits, read as one integer key: every
//! non-NaN `f64` has a bucket, zero is exact, and negative values work.
//!
//! Counts are integers, so [`Sketch::merge`] is exact, associative and
//! commutative: partials merged in any order give the same sketch, bit
//! for bit.

/// Mantissa bits a bucket keeps. A bucket's value is its inputs with the
/// remaining low bits cleared, within 2^-10 relative of each of them
/// (exact for integers below 2048).
const PRECISION_BITS: u32 = 10;

/// Low mantissa bits a bucket drops.
const DROPPED_BITS: u32 = 52 - PRECISION_BITS;

/// The bucket key of a non-NaN value: its sign, exponent and top
/// mantissa bits as one integer that rises with the value. Negative
/// values complement their magnitude bits, so they sort below zero and
/// larger magnitudes sort lower.
fn key(x: f64) -> i32 {
    let bits = x.to_bits();
    let magnitude = ((bits & !(1 << 63)) >> DROPPED_BITS) as i32;
    if bits >> 63 == 1 {
        !magnitude
    } else {
        magnitude
    }
}

/// The value a bucket stands for: any input of the bucket with its
/// dropped mantissa bits cleared (so rounded toward zero).
fn value(key: i32) -> f64 {
    let (sign, magnitude) = if key < 0 { (1 << 63, !key) } else { (0, key) };
    f64::from_bits(sign | (magnitude as u64) << DROPPED_BITS)
}

/// Integer bucket counts (sorted by key, so a record is one binary
/// search) plus the exact count, min and max of the non-NaN values, and
/// the count of NaNs (recorded, never bucketed).
#[derive(Debug, Clone, PartialEq)]
pub struct Sketch {
    buckets: Vec<(i32, u64)>,
    count: u64,
    nan: u64,
    min: f64,
    max: f64,
}

impl Sketch {
    /// An empty sketch.
    pub fn new() -> Sketch {
        Sketch {
            buckets: Vec::new(),
            count: 0,
            nan: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds in one observation. NaN is counted apart; −0 counts as +0.
    pub fn record(&mut self, x: f64) {
        if x.is_nan() {
            self.nan += 1;
            return;
        }
        let x = x + 0.0;
        self.add(key(x), 1);
        self.count += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Folds another sketch into this one (exact, in any order).
    pub fn merge(&mut self, other: &Sketch) {
        for &(key, n) in &other.buckets {
            self.add(key, n);
        }
        self.count += other.count;
        self.nan += other.nan;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Adds `n` to bucket `key`, inserting it in key order if new.
    fn add(&mut self, key: i32, n: u64) {
        match self.buckets.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.buckets[i].1 += n,
            Err(i) => self.buckets.insert(i, (key, n)),
        }
    }

    /// Non-NaN observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// NaN observations (recorded, but in no quantile).
    pub fn nan_count(&self) -> u64 {
        self.nan
    }

    /// Smallest non-NaN observation, exact (+∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest non-NaN observation, exact (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of the non-NaN observations by
    /// nearest rank (`ceil(q·n)`, at least 1): the value of the bucket
    /// holding that rank, clamped to `[min, max]`. Within 2^-10
    /// relative of the exact quantile for normal values and exact for
    /// zero; NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        let bucket = self.buckets.iter().find_map(|&(key, n)| {
            seen += n;
            (seen >= rank).then_some(key)
        });
        bucket.map_or(self.max, value).max(self.min).min(self.max)
    }

    /// Per populated power of two, ascending: the exclusive upper edge
    /// of that binade and the count of observations in it and every
    /// binade below (cumulative). Read straight from the keys, whose
    /// high bits are the sign and exponent.
    pub(crate) fn cumulative_binades(&self) -> Vec<(f64, u64)> {
        let mut out: Vec<(f64, u64)> = Vec::new();
        let mut seen = 0;
        let mut last = None;
        for &(k, n) in &self.buckets {
            seen += n;
            let binade = k >> PRECISION_BITS;
            if last == Some(binade) {
                out.last_mut().expect("binade pushed").1 = seen;
                continue;
            }
            last = Some(binade);
            // A positive binade ends where the next begins; a negative
            // one ends at its own smallest magnitude.
            let edge = if binade < 0 {
                value((binade << PRECISION_BITS) | ((1 << PRECISION_BITS) - 1))
            } else {
                value(((binade + 1) << PRECISION_BITS).min(key(f64::INFINITY)))
            };
            out.push((edge, seen));
        }
        out
    }
}

impl Default for Sketch {
    fn default() -> Sketch {
        Sketch::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Relative error a bucket may add to a normal value.
    const REL: f64 = 1.0 / 1024.0;

    fn sketch_of(values: &[f64]) -> Sketch {
        let mut s = Sketch::new();
        values.iter().for_each(|&x| s.record(x));
        s
    }

    /// The exact nearest-rank quantile of the non-NaN values.
    fn exact(values: &[f64], q: f64) -> f64 {
        let mut sorted: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
        sorted.sort_by(f64::total_cmp);
        let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank - 1]
    }

    const QS: [f64; 7] = [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0];

    /// Finite values over many magnitudes, both signs, zeros included:
    /// `kinds[i]` picks how `unit[i]` (in [−1, 1)) and `exp[i]` make
    /// value `i`.
    fn mixed(kinds: &[u8], unit: &[f64], exp: &[i32]) -> Vec<f64> {
        let parts = kinds.iter().zip(unit).zip(exp);
        parts
            .map(|((kind, &u), &e)| match kind {
                0 => u * 1e6,
                1 => u,
                2 => (u.abs() * 5000.0).floor(),
                3 => u.signum() * 1.5f64.powi(e),
                4 => 0.0,
                _ => -0.0,
            })
            .collect()
    }

    const MAX_LEN: usize = 200;

    proptest! {
        #[test]
        fn quantiles_stay_in_range_and_ascend(
            kinds in proptest::collection::vec(0u8..6, 1..MAX_LEN),
            unit in proptest::collection::vec(-1.0f64..1.0, MAX_LEN),
            exp in proptest::collection::vec(-300i32..300, MAX_LEN),
        ) {
            let s = sketch_of(&mixed(&kinds, &unit, &exp));
            let mut last = f64::NEG_INFINITY;
            for q in QS {
                let v = s.quantile(q);
                prop_assert!(s.min() <= v && v <= s.max(), "q {} -> {} outside", q, v);
                prop_assert!(v >= last, "not monotone at q {}", q);
                last = v;
            }
        }

        #[test]
        fn quantiles_are_within_the_relative_bound(
            kinds in proptest::collection::vec(0u8..6, 1..MAX_LEN),
            unit in proptest::collection::vec(-1.0f64..1.0, MAX_LEN),
            exp in proptest::collection::vec(-300i32..300, MAX_LEN),
        ) {
            let values = mixed(&kinds, &unit, &exp);
            let s = sketch_of(&values);
            for q in QS {
                let (got, want) = (s.quantile(q), exact(&values, q));
                prop_assert!(
                    (got - want).abs() <= want.abs() * REL,
                    "q {}: {} vs exact {}", q, got, want
                );
            }
        }

        #[test]
        fn merge_is_associative_and_commutative_bit_for_bit(
            kinds in proptest::collection::vec(0u8..6, 0..MAX_LEN),
            unit in proptest::collection::vec(-1.0f64..1.0, MAX_LEN),
            exp in proptest::collection::vec(-300i32..300, MAX_LEN),
            cut_a in 0usize..MAX_LEN,
            cut_b in 0usize..MAX_LEN,
        ) {
            let all = mixed(&kinds, &unit, &exp);
            let (cut_a, cut_b) = (cut_a.min(cut_b).min(all.len()), cut_a.max(cut_b).min(all.len()));
            let (a, b, c) = (&all[..cut_a], &all[cut_a..cut_b], &all[cut_b..]);
            let (sa, sb, sc) = (sketch_of(a), sketch_of(b), sketch_of(c));
            let mut left = sa.clone();
            left.merge(&sb);
            left.merge(&sc);
            let mut right = sb.clone();
            right.merge(&sc);
            let mut right_first = sa.clone();
            right_first.merge(&right);
            let mut reversed = sc.clone();
            reversed.merge(&sb);
            reversed.merge(&sa);
            prop_assert_eq!(&left, &right_first);
            prop_assert_eq!(&left, &reversed);
            prop_assert_eq!(&left, &sketch_of(&all));
            for q in QS {
                prop_assert_eq!(
                    left.quantile(q).to_bits(),
                    reversed.quantile(q).to_bits()
                );
            }
        }
    }

    #[test]
    fn integers_below_2048_and_zero_are_exact() {
        for n in 0..2048u32 {
            assert_eq!(value(key(f64::from(n))), f64::from(n));
        }
        assert_ne!(value(key(2049.0)), 2049.0, "past 11 significant bits");
    }

    #[test]
    fn signed_zeros_share_one_bucket() {
        let s = sketch_of(&[-0.0, 0.0, -0.0]);
        assert_eq!(s.count(), 3);
        assert_eq!(s.buckets.len(), 1);
        for q in QS {
            assert_eq!(s.quantile(q).to_bits(), 0.0f64.to_bits(), "+0, not -0");
        }
        assert_eq!(s.min().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn keys_rise_with_the_value_across_signs_and_scales() {
        let ladder = [
            f64::NEG_INFINITY,
            -f64::MAX,
            -3.5,
            -1.0,
            -f64::MIN_POSITIVE,
            -1e-310,
            0.0,
            1e-310,
            f64::MIN_POSITIVE,
            1.0,
            1.001,
            3.5,
            f64::MAX,
            f64::INFINITY,
        ];
        for pair in ladder.windows(2) {
            assert!(key(pair[0]) < key(pair[1]), "{pair:?}");
        }
        // The smallest subnormals keep no mantissa bit: zero's bucket.
        assert_eq!(key(1e-320), key(0.0));
    }

    #[test]
    fn subnormals_and_infinities_stay_in_range() {
        let tiny = f64::from_bits(1); // smallest subnormal
        let s = sketch_of(&[tiny, 3.0 * tiny, 1e-310]);
        assert_eq!(s.quantile(0.0), tiny, "clamped up to the exact min");
        assert!(s.min() <= s.quantile(0.5) && s.quantile(0.5) <= s.max());
        // A subnormal bucket keeps the top 10 bits of the 52-bit field:
        // the absolute error is below 2^-1064.
        let err = (s.quantile(1.0) - 1e-310).abs();
        assert!(err <= f64::from_bits(1) * (1u64 << DROPPED_BITS) as f64);

        let s = sketch_of(&[f64::NEG_INFINITY, -2.0, 5.0, f64::INFINITY]);
        assert_eq!(s.quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(s.quantile(0.5), -2.0);
        assert_eq!(s.quantile(0.75), 5.0);
        assert_eq!(s.quantile(1.0), f64::INFINITY);
    }

    #[test]
    fn negative_values_round_toward_zero_within_the_bound() {
        let s = sketch_of(&[-1000.7, -3.3, -0.001]);
        assert_eq!(s.quantile(0.0), -1000.5, "toward zero, 10 mantissa bits");
        let mid = s.quantile(0.5);
        assert!(mid >= -3.3 && (mid + 3.3).abs() <= 3.3 * REL, "{mid}");
        assert_eq!(s.quantile(1.0), -0.001, "clamped to the exact max");
    }

    #[test]
    fn nan_is_counted_not_bucketed() {
        let s = sketch_of(&[f64::NAN, 1.0, f64::NAN, 2.0]);
        assert_eq!((s.count(), s.nan_count()), (2, 2));
        assert_eq!(s.buckets.iter().map(|b| b.1).sum::<u64>(), 2);
        assert_eq!(s.quantile(0.5), 1.0);
        assert_eq!((s.min(), s.max()), (1.0, 2.0));
        let only_nan = sketch_of(&[f64::NAN]);
        assert_eq!((only_nan.count(), only_nan.nan_count()), (0, 1));
        assert!(only_nan.quantile(0.5).is_nan());
    }

    #[test]
    fn empty_sketch_has_no_quantile() {
        let s = Sketch::new();
        assert!(s.quantile(0.5).is_nan());
        assert!(s.cumulative_binades().is_empty());
        assert_eq!(s, Sketch::default());
    }

    #[test]
    fn binades_are_cumulative_powers_of_two() {
        let s = sketch_of(&[0.0, 1.0, 1.5, 3.0, 1000.0]);
        assert_eq!(
            s.cumulative_binades(),
            vec![(f64::MIN_POSITIVE, 1), (2.0, 3), (4.0, 4), (1024.0, 5)]
        );
        let s = sketch_of(&[-5.0, -4.0, -0.75]);
        assert_eq!(s.cumulative_binades(), vec![(-4.0, 2), (-0.5, 3)]);
    }
}
