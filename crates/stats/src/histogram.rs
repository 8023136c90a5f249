//! Fixed-bin histograms of idle times, as used by the Hybrid baseline.
//!
//! Shahrad et al. (ATC'20) track per-function (or per-application) idle
//! times in a histogram of 1-minute bins covering a bounded range (4 hours
//! in the original paper). Observations beyond the range are counted as
//! out-of-bounds. The policy derives a pre-warm window from a head/tail
//! percentile pair of the histogram and falls back to a fixed keep-alive
//! when the distribution is not "representative" (high CV) or dominated by
//! out-of-bounds observations.

use crate::descriptive;

/// A histogram over `0..bins` minute-valued observations with an
/// out-of-bounds overflow counter.
///
/// Queries ([`Histogram::percentile`], [`Histogram::cv`]) cost
/// O(occupied bins), not O(bins): an occupied-bin bitset lets them skip
/// empty bins, which add nothing to any sum they compute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    /// One bit per bin, set while the bin's count is non-zero.
    occupied: Vec<u64>,
    oob: u64,
    total: u64,
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
    /// `p`% of the in-range total. Visits only occupied bins: the first
    /// bin to reach a target of at least one observation is occupied.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<u32> {
        let in_range = self.in_range();
        if in_range == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        let target = (p / 100.0 * in_range as f64).ceil().max(1.0) as u64;
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

    /// Drains the histogram back to empty without reallocating.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.occupied.fill(0);
        self.oob = 0;
        self.total = 0;
    }
}

/// Convenience: CV of a sample using the same definition as
/// [`Histogram::cv`], for cross-checking in tests.
#[must_use]
pub fn sample_cv(xs: &[u32]) -> f64 {
    descriptive::coefficient_of_variation(xs)
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
        assert!((h.cv().unwrap() - sample_cv(&xs)).abs() < 1e-12);
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
