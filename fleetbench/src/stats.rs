//! Order statistics over samples.

/// The median (mean of the two middle values for an even count; NaN
/// when empty). Sorts `values` in place.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => values[n / 2],
        _ => 0.5 * (values[n / 2 - 1] + values[n / 2]),
    }
}

/// The mean of the middle half: the samples from the first to the third
/// quartile position, the two ends weighted by the share of them inside
/// (NaN when empty). Unlike the median it moves smoothly when samples
/// come from two host speeds in varying proportion; unlike the mean it
/// ignores a stray slow sample. Sorts `values` in place.
pub fn interquartile_mean(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len() as f64;
    let (lo, hi) = (0.25 * n, 0.75 * n);
    let (mut sum, mut weight) = (0.0, 0.0);
    for (i, &v) in values.iter().enumerate() {
        // Sample i covers [i, i + 1) of the sorted range.
        let w = ((i + 1) as f64).min(hi) - (i as f64).max(lo);
        if w > 0.0 {
            sum += w * v;
            weight += w;
        }
    }
    sum / weight
}

/// The highest percentile with at least ten samples beyond it:
/// `(value, percentile)`, the value being the 11th largest sample. With
/// ten samples or fewer it is the maximum, at percentile 100. Sorts
/// `values` in place.
pub fn tail(values: &mut [f64]) -> (f64, f64) {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n <= 10 {
        return (values.last().copied().unwrap_or(f64::NAN), 100.0);
    }
    (values[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

/// First and third quartiles, by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`. Sorts `values` in place; needs
/// at least two samples (NaN otherwise).
pub fn quartiles(values: &mut [f64]) -> (f64, f64) {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n < 2 {
        return (f64::NAN, f64::NAN);
    }
    let at = |i: usize| {
        // Position i*(n+1)/4 (1-based); the bracketing pair is clamped
        // to the sample range and extrapolated from, as Python does.
        let m = (n + 1) as f64 * i as f64 / 4.0;
        let j = (m.floor() as usize).clamp(1, n - 1);
        values[j - 1] + (values[j] - values[j - 1]) * (m - j as f64)
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn interquartile_mean_averages_the_middle_half() {
        assert_eq!(interquartile_mean(&mut [100.0, 2.0, 3.0, -50.0]), 2.5);
        // Eight samples: the middle four, 3 to 6.
        let mut values: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(interquartile_mean(&mut values), 4.5);
        // Five samples: 1.25 of the range each side is cut, so 2 and 4
        // count three quarters each, 3 in full.
        assert_eq!(interquartile_mean(&mut [1.0, 2.0, 3.0, 4.0, 5.0]), 3.0);
        assert_eq!(interquartile_mean(&mut [7.0]), 7.0);
        assert!(interquartile_mean(&mut []).is_nan());
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let mut values: Vec<f64> = (1..=800).map(f64::from).collect();
        let (value, pct) = tail(&mut values);
        assert_eq!(value, 790.0);
        assert_eq!(pct, 98.75);
        assert_eq!(values.iter().filter(|&&v| v > value).count(), 10);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let mut values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut values), (2.75, 8.25));
    }
}
