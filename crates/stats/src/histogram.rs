//! Fixed-bin histograms of idle times, as used by the Hybrid baseline.
//!
//! Shahrad et al. (ATC'20) track per-function (or per-application) idle
//! times in a histogram of 1-minute bins covering a bounded range (4 hours
//! in the original paper). Observations beyond the range are counted as
//! out-of-bounds. The policy derives a pre-warm window from a head/tail
//! percentile pair of the histogram and falls back to a fixed keep-alive
//! when the distribution is not "representative" (high CV) or dominated by
//! out-of-bounds observations.

/// Relative rounding margin of [`Histogram::cv_at_most`]: an exact
/// squared CV this close to the squared limit is decided by
/// [`Histogram::cv`] itself. `cv`'s floating-point sums over `k` occupied
/// bins stay within about `k · 2⁻⁵²` (relative) of the exact value, far
/// inside the margin below millions of bins, so outside it both sides of
/// the comparison agree.
const CV_MARGIN_REL: f64 = 1e-9;
/// Absolute part of the same margin, covering the rounding of `cv`'s
/// mean, which shifts its variance by up to `mean² · 2⁻¹⁰⁶`.
const CV_MARGIN_ABS: f64 = 1e-24;

/// A histogram over `0..bins` minute-valued observations with an
/// out-of-bounds overflow counter.
///
/// Queries cost far less than O(bins):
/// - [`Histogram::cv_at_most`] is O(1): `observe` keeps the exact integer
///   moments `Σ bin·count` and `Σ bin²·count`, and only a squared CV
///   within a rounding margin of the limit falls back to [`Histogram::cv`].
/// - [`Histogram::percentile`] walks the occupied-bin bitset from the
///   nearer end (upward for `p <= 50`, downward above), so a head or tail
///   percentile visits the few bins in its tail, not every occupied bin.
/// - [`Histogram::cv`] visits every occupied bin twice; empty bins add
///   nothing to its sums and are skipped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    /// One bit per bin, set while the bin's count is non-zero.
    occupied: Vec<u64>,
    oob: u64,
    total: u64,
    /// `Σ bin·count` over the in-range observations.
    s1: u64,
    /// `Σ bin²·count` over the in-range observations.
    s2: u128,
}

impl Histogram {
    /// Creates an empty histogram with `bins` in-range buckets
    /// (one bucket per minute).
    #[must_use]
    pub fn new(bins: usize) -> Self {
        Self {
            counts: vec![0; bins],
            occupied: vec![0; bins.div_ceil(64)],
            oob: 0,
            total: 0,
            s1: 0,
            s2: 0,
        }
    }

    /// Number of in-range buckets.
    #[must_use]
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Records an observation, bucketing values `>= bins` as out-of-bounds.
    pub fn observe(&mut self, value: u32) {
        self.total += 1;
        let bin = value as usize;
        match self.counts.get_mut(bin) {
            Some(slot) => {
                *slot += 1;
                if let Some(word) = self.occupied.get_mut(bin / 64) {
                    *word |= 1 << (bin % 64);
                }
                self.s1 += u64::from(value);
                self.s2 += u128::from(value) * u128::from(value);
            }
            None => self.oob += 1,
        }
    }

    /// The occupied bins with their counts, in ascending bin order.
    fn occupied_bins(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.occupied
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| {
                let mut rest = word;
                std::iter::from_fn(move || {
                    (rest != 0).then(|| {
                        let bit = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        w * 64 + bit
                    })
                })
            })
            .map(|bin| (bin, self.count(bin)))
    }

    /// The occupied bins with their counts, in descending bin order.
    fn occupied_bins_rev(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.occupied
            .iter()
            .enumerate()
            .rev()
            .flat_map(|(w, &word)| {
                let mut rest = word;
                std::iter::from_fn(move || {
                    (rest != 0).then(|| {
                        let bit = 63 - rest.leading_zeros() as usize;
                        rest &= !(1 << bit);
                        w * 64 + bit
                    })
                })
            })
            .map(|bin| (bin, self.count(bin)))
    }

    /// Total number of observations, including out-of-bounds ones.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of in-range observations.
    #[must_use]
    pub fn in_range(&self) -> u64 {
        self.total - self.oob
    }

    /// Fraction of observations that fell outside the tracked range.
    /// Zero when the histogram is empty.
    #[must_use]
    pub fn oob_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.oob as f64 / self.total as f64
        }
    }

    /// Raw count of bucket `bin`.
    #[must_use]
    pub fn count(&self, bin: usize) -> u64 {
        self.counts.get(bin).copied().unwrap_or(0)
    }

    /// The value at percentile `p` of the *in-range* observations, or
    /// `None` when there are none. Uses the cumulative-count convention of
    /// the Hybrid policy: the smallest bin whose cumulative count reaches
    /// `p`% of the in-range total.
    ///
    /// Walks only occupied bins, from the nearer end. For `p <= 50` it
    /// walks upward and returns the first bin whose cumulative count
    /// reaches the target. Above 50 it walks downward and returns the
    /// first bin whose cumulative count *without its own count* falls
    /// below the target: the same bin, found from the top.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<u32> {
        let in_range = self.in_range();
        if in_range == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        let target = (p / 100.0 * in_range as f64).ceil().max(1.0) as u64;
        if p > 50.0 {
            // `below` is the count of the bins under `bin`. It reaches 0,
            // below any target, at the lowest occupied bin; a target past
            // `in_range` stops at the top bin, the upward walk's fallback.
            let mut below = in_range;
            for (bin, c) in self.occupied_bins_rev() {
                below -= c;
                if below < target {
                    return Some(bin as u32);
                }
            }
            return None;
        }
        let mut cum = 0u64;
        let mut last = None;
        for (bin, c) in self.occupied_bins() {
            cum += c;
            if cum >= target {
                return Some(bin as u32);
            }
            last = Some(bin as u32);
        }
        // All in-range mass consumed without reaching target can only
        // happen through floating-point edge cases; return the last
        // non-empty bin.
        last
    }

    /// Coefficient of variation of the in-range observations.
    ///
    /// The Hybrid policy treats a histogram as "representative" when its CV
    /// is low enough; otherwise it falls back to a fixed keep-alive.
    /// Returns `None` when the histogram holds no in-range observations.
    /// Both sums visit only occupied bins; an empty bin would add exactly
    /// `+0.0` to either, so the result is the same as a full scan's.
    #[must_use]
    pub fn cv(&self) -> Option<f64> {
        let n = self.in_range();
        if n == 0 {
            return None;
        }
        let mut sum = 0.0;
        for (bin, c) in self.occupied_bins() {
            sum += bin as f64 * c as f64;
        }
        let mean = sum / n as f64;
        if mean == 0.0 {
            return Some(0.0);
        }
        let mut var = 0.0;
        for (bin, c) in self.occupied_bins() {
            let d = bin as f64 - mean;
            var += d * d * c as f64;
        }
        Some((var / n as f64).sqrt() / mean)
    }

    /// Whether [`Histogram::cv`] is at most `limit`: `cv().map(|cv| cv <=
    /// limit)`, decided in O(1) from the exact squared CV
    /// `(n·s2 − s1²) / s1²` of the integer moments. When that value lies
    /// within a rounding margin of `limit²`, or does not decide the
    /// question (an empty or all-zero histogram, a negative or non-finite
    /// `limit`), the answer is `cv()`'s own comparison, so the two always
    /// agree.
    #[must_use]
    pub fn cv_at_most(&self, limit: f64) -> Option<bool> {
        let s1_sq = u128::from(self.s1) * u128::from(self.s1);
        // An empty or all-zero histogram (`s1 = 0`) and a limit whose
        // square cannot stand for it go straight to `cv`.
        if s1_sq > 0 && limit >= 0.0 && limit.is_finite() {
            if let Some(n_s2) = u128::from(self.in_range()).checked_mul(self.s2) {
                // `n·s2 >= s1²` by Cauchy-Schwarz, so this cannot underflow.
                let cv_sq = (n_s2 - s1_sq) as f64 / s1_sq as f64;
                let limit_sq = limit * limit;
                let margin = CV_MARGIN_REL * cv_sq.max(limit_sq) + CV_MARGIN_ABS;
                if (cv_sq - limit_sq).abs() > margin {
                    return Some(cv_sq <= limit_sq);
                }
            }
        }
        self.cv().map(|cv| cv <= limit)
    }

    /// Drains the histogram back to empty without reallocating.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.occupied.fill(0);
        self.oob = 0;
        self.total = 0;
        self.s1 = 0;
        self.s2 = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new(10);
        assert_eq!(h.total(), 0);
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.cv(), None);
        assert_eq!(h.oob_fraction(), 0.0);
    }

    #[test]
    fn observe_and_count() {
        let mut h = Histogram::new(4);
        h.observe(0);
        h.observe(2);
        h.observe(2);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(2), 2);
        assert_eq!(h.total(), 3);
        assert_eq!(h.in_range(), 3);
    }

    #[test]
    fn oob_counting() {
        let mut h = Histogram::new(4);
        h.observe(3);
        h.observe(4); // first out-of-range value
        h.observe(100);
        assert_eq!(h.in_range(), 1);
        assert!((h.oob_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_single_bin() {
        let mut h = Histogram::new(10);
        for _ in 0..5 {
            h.observe(7);
        }
        assert_eq!(h.percentile(0.0), Some(7));
        assert_eq!(h.percentile(50.0), Some(7));
        assert_eq!(h.percentile(100.0), Some(7));
    }

    #[test]
    fn percentile_head_and_tail() {
        let mut h = Histogram::new(100);
        // 90 observations at 10, 10 observations at 50.
        for _ in 0..90 {
            h.observe(10);
        }
        for _ in 0..10 {
            h.observe(50);
        }
        assert_eq!(h.percentile(5.0), Some(10));
        assert_eq!(h.percentile(90.0), Some(10));
        assert_eq!(h.percentile(99.0), Some(50));
    }

    #[test]
    fn percentile_ignores_oob() {
        let mut h = Histogram::new(5);
        h.observe(1);
        h.observe(1);
        h.observe(99); // oob
        assert_eq!(h.percentile(100.0), Some(1));
    }

    #[test]
    fn cv_constant_is_zero() {
        let mut h = Histogram::new(100);
        for _ in 0..10 {
            h.observe(30);
        }
        assert_eq!(h.cv(), Some(0.0));
    }

    #[test]
    fn cv_matches_sample_cv() {
        let xs = [2, 4, 4, 4, 5, 5, 7, 9];
        let mut h = Histogram::new(16);
        for &x in &xs {
            h.observe(x);
        }
        let sample = crate::descriptive::coefficient_of_variation(&xs);
        assert!((h.cv().unwrap() - sample).abs() < 1e-12);
    }

    #[test]
    fn cv_at_most_decides_an_exact_boundary_like_cv() {
        // {0, 2k} has a CV of exactly 1; {k, k} of exactly 0.
        for k in [1u32, 3, 7, 60, 119] {
            let mut h = Histogram::new(240);
            h.observe(0);
            h.observe(2 * k);
            assert_eq!(h.cv(), Some(1.0));
            for limit in [0.0, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0] {
                assert_eq!(h.cv_at_most(limit), h.cv().map(|cv| cv <= limit), "k = {k}");
            }
            h.clear();
            assert_eq!(h.cv_at_most(1.0), None);
            h.observe(k);
            h.observe(k);
            assert_eq!(h.cv_at_most(0.0), Some(true));
        }
    }

    #[test]
    fn occupied_walk_visits_exactly_the_occupied_bins() {
        // Neither bin count is a multiple of 64, so the last word is partial.
        for bins in [240usize, 720] {
            let mut h = Histogram::new(bins);
            let hits = [bins - 1, 64, 0, 63, 64, 130, bins - 1];
            for &b in &hits {
                h.observe(b as u32);
            }
            h.observe(bins as u32); // out of bounds: no bin
            h.observe(u32::MAX);
            let mut expected: Vec<usize> = hits.to_vec();
            expected.sort_unstable();
            expected.dedup();
            let walked: Vec<(usize, u64)> = h.occupied_bins().collect();
            let want: Vec<(usize, u64)> = expected.iter().map(|&b| (b, h.count(b))).collect();
            assert_eq!(walked, want, "bins = {bins}");
            // Every bin with a count is walked, and nothing else.
            let scanned = (0..bins).filter(|&b| h.count(b) > 0).count();
            assert_eq!(walked.len(), scanned);
            h.clear();
            assert_eq!(h.occupied_bins().count(), 0, "bins = {bins}");
        }
    }

    #[test]
    fn clear_resets() {
        let mut h = Histogram::new(4);
        h.observe(1);
        h.observe(9);
        h.clear();
        assert_eq!(h.total(), 0);
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.bins(), 4);
    }
}
