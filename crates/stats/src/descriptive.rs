//! Descriptive statistics over integer-valued sequences.
//!
//! SPES works on sequences of waiting times measured in whole minutes, so
//! the entry points take `&[u32]`. Percentiles use the nearest-rank method
//! with linear interpolation (the same convention as `numpy.percentile`'s
//! default), which is what the reference implementation of the paper used.

/// Arithmetic mean. Returns 0.0 for an empty slice.
#[must_use]
pub fn mean(xs: &[u32]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().map(|&x| f64::from(x)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation. Returns 0.0 for slices shorter than 2.
#[must_use]
pub fn stddev(xs: &[u32]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs
        .iter()
        .map(|&x| {
            let d = f64::from(x) - m;
            d * d
        })
        .sum::<f64>()
        / xs.len() as f64;
    var.sqrt()
}

/// Coefficient of variation: `stddev / mean`.
///
/// The "regular" rule of SPES (Table I) declares a WT sequence regular when
/// `CV <= 0.01`. A zero mean (all-zero sequence) yields a CV of 0.0 because
/// a constant sequence is maximally regular.
#[must_use]
pub fn coefficient_of_variation(xs: &[u32]) -> f64 {
    let m = mean(xs);
    if m == 0.0 {
        return 0.0;
    }
    stddev(xs) / m
}

/// Linear-interpolation percentile of `xs` at `p` in `[0, 100]`.
///
/// Returns `None` for an empty slice. Does not require `xs` to be sorted.
#[must_use]
pub fn percentile(xs: &[u32], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted: Vec<u32> = xs.to_vec();
    sorted.sort_unstable();
    Some(percentile_sorted(&sorted, p))
}

/// Percentile of an already-sorted slice; panics if the slice is empty.
///
/// Useful when many percentiles of the same sequence are needed, as in the
/// categorisation pipeline which evaluates P5, P90, and P95 together.
#[must_use]
pub fn percentile_sorted(sorted: &[u32], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    let p = p.clamp(0.0, 100.0);
    if sorted.len() == 1 {
        return f64::from(sorted[0]);
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        return f64::from(sorted[lo]);
    }
    let frac = rank - lo as f64;
    f64::from(sorted[lo]) * (1.0 - frac) + f64::from(sorted[hi]) * frac
}

/// A one-pass bundle of the statistics the categoriser needs from a WT
/// sequence: selected percentiles, mean, stddev, CV, and length.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub len: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Coefficient of variation (`stddev / mean`, 0 when mean is 0).
    pub cv: f64,
    /// 5th percentile.
    pub p5: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Minimum value.
    pub min: u32,
    /// Maximum value.
    pub max: u32,
}

impl Summary {
    /// Computes the summary. Returns `None` for an empty sequence.
    #[must_use]
    pub fn of(xs: &[u32]) -> Option<Self> {
        let mut sorted: Vec<u32> = xs.to_vec();
        sorted.sort_unstable();
        let (&min, &max) = (sorted.first()?, sorted.last()?);
        let m = mean(xs);
        let sd = stddev(xs);
        Some(Self {
            len: xs.len(),
            mean: m,
            stddev: sd,
            cv: if m == 0.0 { 0.0 } else { sd / m },
            p5: percentile_sorted(&sorted, 5.0),
            median: percentile_sorted(&sorted, 50.0),
            p90: percentile_sorted(&sorted, 90.0),
            p95: percentile_sorted(&sorted, 95.0),
            min,
            max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn mean_of_constant() {
        assert_eq!(mean(&[7, 7, 7, 7]), 7.0);
    }

    #[test]
    fn mean_simple() {
        assert_eq!(mean(&[1, 2, 3, 4]), 2.5);
    }

    #[test]
    fn stddev_of_constant_is_zero() {
        assert_eq!(stddev(&[5, 5, 5]), 0.0);
    }

    #[test]
    fn stddev_of_short_is_zero() {
        assert_eq!(stddev(&[9]), 0.0);
        assert_eq!(stddev(&[]), 0.0);
    }

    #[test]
    fn stddev_known_value() {
        // Population stddev of [2, 4, 4, 4, 5, 5, 7, 9] is exactly 2.
        assert!((stddev(&[2, 4, 4, 4, 5, 5, 7, 9]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cv_zero_mean() {
        assert_eq!(coefficient_of_variation(&[0, 0, 0]), 0.0);
    }

    #[test]
    fn cv_constant_sequence_is_zero() {
        assert_eq!(coefficient_of_variation(&[1440, 1440, 1440]), 0.0);
    }

    #[test]
    fn cv_known_value() {
        let xs = [2, 4, 4, 4, 5, 5, 7, 9];
        assert!((coefficient_of_variation(&xs) - 2.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_empty_is_none() {
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile(&[42], 0.0), Some(42.0));
        assert_eq!(percentile(&[42], 100.0), Some(42.0));
    }

    #[test]
    fn percentile_median_even() {
        assert_eq!(percentile(&[1, 2, 3, 4], 50.0), Some(2.5));
    }

    #[test]
    fn percentile_interpolates() {
        // P25 of [10, 20, 30, 40]: rank = 0.75 -> 10 * 0.25 + 20 * 0.75 = 17.5
        assert_eq!(percentile(&[10, 20, 30, 40], 25.0), Some(17.5));
    }

    #[test]
    fn percentile_unsorted_input() {
        assert_eq!(percentile(&[4, 1, 3, 2], 50.0), Some(2.5));
    }

    #[test]
    fn percentile_clamps_out_of_range() {
        assert_eq!(percentile(&[1, 2, 3], -5.0), Some(1.0));
        assert_eq!(percentile(&[1, 2, 3], 150.0), Some(3.0));
    }

    #[test]
    fn summary_matches_parts() {
        let xs = [3, 1, 4, 1, 5, 9, 2, 6];
        let s = Summary::of(&xs).unwrap();
        assert_eq!(s.len, 8);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 9);
        assert!((s.mean - mean(&xs)).abs() < 1e-12);
        assert!((s.median - percentile(&xs, 50.0).unwrap()).abs() < 1e-12);
        assert!((s.p95 - percentile(&xs, 95.0).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn regular_rule_example() {
        // A near-daily WT sequence like the paper's 1439-minute example
        // should satisfy P95 - P5 <= 1.
        let wts = [1439, 1439, 1440, 1439, 1440, 1439];
        let s = Summary::of(&wts).unwrap();
        assert!(s.p95 - s.p5 <= 1.0);
    }
}
