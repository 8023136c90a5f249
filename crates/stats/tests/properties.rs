//! Property-based tests for the statistics substrate.

use proptest::prelude::*;
use spes_stats::{
    descriptive::{coefficient_of_variation, mean, percentile, stddev, Summary},
    histogram::Histogram,
    kstest::{kolmogorov_p_value, ks_statistic, poisson_cdf},
    modes::{mode_coverage, mode_table, top_modes, ModeEntry},
    online::OnlineStats,
};
use std::collections::HashMap;

/// `Histogram::percentile` as a full scan over every bin, the way it was
/// computed before queries walked only the occupied bins.
fn reference_percentile(h: &Histogram, p: f64) -> Option<u32> {
    let in_range = h.in_range();
    if in_range == 0 {
        return None;
    }
    let p = p.clamp(0.0, 100.0);
    let target = (p / 100.0 * in_range as f64).ceil().max(1.0) as u64;
    let mut cum = 0u64;
    for bin in 0..h.bins() {
        cum += h.count(bin);
        if cum >= target {
            return Some(bin as u32);
        }
    }
    (0..h.bins())
        .rev()
        .find(|&bin| h.count(bin) > 0)
        .map(|bin| bin as u32)
}

/// `Histogram::cv` as a full scan over every bin.
fn reference_cv(h: &Histogram) -> Option<f64> {
    let n = h.in_range();
    if n == 0 {
        return None;
    }
    let mut sum = 0.0;
    for bin in 0..h.bins() {
        sum += bin as f64 * h.count(bin) as f64;
    }
    let mean = sum / n as f64;
    if mean == 0.0 {
        return Some(0.0);
    }
    let mut var = 0.0;
    for bin in 0..h.bins() {
        let d = bin as f64 - mean;
        var += d * d * h.count(bin) as f64;
    }
    Some((var / n as f64).sqrt() / mean)
}

/// `mode_table` as a `HashMap` count, the way it was computed before it
/// counted runs in a sorted copy. Entries are taken out in first-seen
/// order rather than by iterating the map; the sort decides the order.
fn reference_mode_table(xs: &[u32]) -> Vec<ModeEntry> {
    let mut freq: HashMap<u32, usize> = HashMap::with_capacity(xs.len());
    for &x in xs {
        *freq.entry(x).or_insert(0) += 1;
    }
    let mut table: Vec<ModeEntry> = xs
        .iter()
        .filter_map(|&value| freq.remove(&value).map(|count| ModeEntry { value, count }))
        .collect();
    table.sort_unstable_by(|a, b| b.count.cmp(&a.count).then(a.value.cmp(&b.value)));
    table
}

/// Bin counts of the histogram equivalence test: one, around a word
/// boundary, and the two ranges the policies use (neither a multiple of
/// 64).
const BIN_COUNTS: [usize; 6] = [1, 63, 64, 65, 240, 720];

proptest! {
    #[test]
    fn percentile_within_min_max(xs in prop::collection::vec(0u32..10_000, 1..200), p in 0.0f64..100.0) {
        let v = percentile(&xs, p).unwrap();
        let min = f64::from(*xs.iter().min().unwrap());
        let max = f64::from(*xs.iter().max().unwrap());
        prop_assert!(v >= min && v <= max, "p{p} = {v} outside [{min}, {max}]");
    }

    #[test]
    fn percentile_monotone_in_p(xs in prop::collection::vec(0u32..10_000, 1..100)) {
        let p25 = percentile(&xs, 25.0).unwrap();
        let p50 = percentile(&xs, 50.0).unwrap();
        let p75 = percentile(&xs, 75.0).unwrap();
        prop_assert!(p25 <= p50 && p50 <= p75);
    }

    #[test]
    fn mean_bounded_by_extremes(xs in prop::collection::vec(0u32..1_000_000, 1..200)) {
        let m = mean(&xs);
        let min = f64::from(*xs.iter().min().unwrap());
        let max = f64::from(*xs.iter().max().unwrap());
        prop_assert!(m >= min - 1e-9 && m <= max + 1e-9);
    }

    #[test]
    fn stddev_nonnegative_and_translation_invariant(
        xs in prop::collection::vec(0u32..10_000, 2..100),
        shift in 0u32..1000,
    ) {
        let sd = stddev(&xs);
        prop_assert!(sd >= 0.0);
        let shifted: Vec<u32> = xs.iter().map(|&x| x + shift).collect();
        prop_assert!((stddev(&shifted) - sd).abs() < 1e-6);
    }

    #[test]
    fn cv_of_constant_is_zero(v in 1u32..10_000, n in 2usize..50) {
        let xs = vec![v; n];
        prop_assert_eq!(coefficient_of_variation(&xs), 0.0);
    }

    #[test]
    fn summary_consistent(xs in prop::collection::vec(0u32..5_000, 1..150)) {
        let s = Summary::of(&xs).unwrap();
        prop_assert_eq!(s.len, xs.len());
        prop_assert!(s.p5 <= s.median && s.median <= s.p90 && s.p90 <= s.p95);
        prop_assert!(f64::from(s.min) <= s.mean && s.mean <= f64::from(s.max));
    }

    #[test]
    fn mode_table_counts_sum_to_len(xs in prop::collection::vec(0u32..50, 0..200)) {
        let total: usize = mode_table(&xs).iter().map(|m| m.count).sum();
        prop_assert_eq!(total, xs.len());
    }

    #[test]
    fn mode_coverage_monotone_in_n(xs in prop::collection::vec(0u32..20, 1..100)) {
        let mut prev = 0;
        for n in 0..6 {
            let c = mode_coverage(&xs, n);
            prop_assert!(c >= prev);
            prev = c;
        }
        prop_assert!(mode_coverage(&xs, xs.len()) == xs.len());
    }

    #[test]
    fn top_modes_sorted_by_count(xs in prop::collection::vec(0u32..30, 1..150), n in 1usize..6) {
        let t = top_modes(&xs, n);
        for w in t.windows(2) {
            prop_assert!(w[0].count >= w[1].count);
        }
    }

    #[test]
    fn histogram_percentile_within_range(
        xs in prop::collection::vec(0u32..100, 1..150),
        p in 0.0f64..100.0,
    ) {
        let mut h = Histogram::new(100);
        for &x in &xs {
            h.observe(x);
        }
        let v = h.percentile(p).unwrap();
        prop_assert!(xs.contains(&v) || xs.iter().any(|&x| x >= v));
        prop_assert!(v <= *xs.iter().max().unwrap());
        prop_assert!(v >= *xs.iter().min().unwrap() || p == 0.0);
    }

    #[test]
    fn histogram_total_counts(xs in prop::collection::vec(0u32..500, 0..200)) {
        let mut h = Histogram::new(100);
        for &x in &xs {
            h.observe(x);
        }
        prop_assert_eq!(h.total(), xs.len() as u64);
        let oob = xs.iter().filter(|&&x| x >= 100).count() as u64;
        prop_assert_eq!(h.in_range(), xs.len() as u64 - oob);
    }

    #[test]
    fn histogram_queries_match_the_full_scan(
        which in 0usize..BIN_COUNTS.len(),
        ops in prop::collection::vec((0u32..16, 0u32..1_000), 0..200),
        p_random in 0.0f64..100.0,
    ) {
        let bins = BIN_COUNTS[which];
        let mut h = Histogram::new(bins);
        for (op, value) in ops {
            match op {
                // An occasional clear between observations.
                0 => h.clear(),
                // Mostly values near the range, one or two bins past it.
                1..=11 => h.observe(value % (bins as u32 + 2)),
                // Far out-of-bounds values, and in-range ones for 720 bins.
                _ => h.observe(value),
            }
            prop_assert_eq!(
                h.cv().map(f64::to_bits),
                reference_cv(&h).map(f64::to_bits),
                "cv, bins = {}", bins
            );
            for p in [0.0, 5.0, 50.0, 50.5, 95.0, 99.0, 99.9, 100.0, p_random] {
                prop_assert_eq!(
                    h.percentile(p),
                    reference_percentile(&h, p),
                    "p{}, bins = {}", p, bins
                );
            }
        }
    }

    #[test]
    fn cv_at_most_agrees_with_cv(
        which in 0usize..BIN_COUNTS.len(),
        ops in prop::collection::vec((0u32..16, 0u32..1_000), 0..200),
        limit_random in 0.0f64..3.0,
    ) {
        let bins = BIN_COUNTS[which];
        let mut h = Histogram::new(bins);
        for (op, value) in ops {
            match op {
                0 => h.clear(),
                1..=11 => h.observe(value % (bins as u32 + 2)),
                _ => h.observe(value),
            }
            let cv = h.cv();
            // The CV itself and its neighbours put the limit inside the
            // rounding margin, where the answer must come from `cv`.
            let at = cv.unwrap_or(1.0);
            for limit in [
                0.0, 0.01, 0.5, 1.0, limit_random, at, at.next_up(), at.next_down(),
                -1.0, f64::INFINITY, f64::NAN,
            ] {
                prop_assert_eq!(
                    h.cv_at_most(limit),
                    cv.map(|c| c <= limit),
                    "limit {}, bins = {}", limit, bins
                );
            }
        }
    }

    /// `copies` observations each of 0 and `2k`: a CV of exactly 1, the
    /// Hybrid policy's limit, which the exact moments cannot decide alone.
    #[test]
    fn cv_at_most_on_an_exact_unit_cv(
        which in 0usize..BIN_COUNTS.len(),
        k in 1u32..400,
        copies in 1usize..40,
        oob in 0usize..3,
    ) {
        let bins = BIN_COUNTS[which];
        let mut h = Histogram::new(bins);
        for _ in 0..copies {
            h.observe(0);
            h.observe(2 * k);
        }
        for _ in 0..oob {
            h.observe(u32::MAX);
        }
        let cv = h.cv();
        for limit in [1.0, 1.0f64.next_up(), 1.0f64.next_down(), 0.0] {
            prop_assert_eq!(h.cv_at_most(limit), cv.map(|c| c <= limit), "limit {}", limit);
        }
    }

    #[test]
    fn mode_table_matches_the_hash_count(xs in prop::collection::vec(0u32..40, 0..120)) {
        prop_assert_eq!(mode_table(&xs), reference_mode_table(&xs));
    }

    #[test]
    fn ks_statistic_bounded(xs in prop::collection::vec(0u32..100, 1..100)) {
        let d = ks_statistic(&xs, |x| (x / 100.0).clamp(0.0, 1.0)).unwrap();
        prop_assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    fn kolmogorov_p_value_in_unit_interval(d in 0.0f64..1.0, n in 1usize..10_000) {
        let p = kolmogorov_p_value(d, n);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn poisson_cdf_monotone(lambda in 0.01f64..50.0) {
        let mut prev = 0.0;
        for k in 0..100 {
            let c = poisson_cdf(k, lambda);
            prop_assert!(c >= prev - 1e-12);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&c));
            prev = c;
        }
    }

    #[test]
    fn online_stats_match_batch(xs in prop::collection::vec(0u32..10_000, 0..200)) {
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(f64::from(x));
        }
        prop_assert_eq!(s.count(), xs.len() as u64);
        if !xs.is_empty() {
            prop_assert!((s.mean() - mean(&xs)).abs() < 1e-6);
            prop_assert!((s.stddev() - stddev(&xs)).abs() < 1e-6);
        }
    }
}
