//! Online (streaming) mean/variance via Welford's algorithm.
//!
//! SPES's adaptive "adjusting" strategy (Section IV-C1) keeps collecting
//! online waiting times during the simulation and compares their statistics
//! with the offline predictive values without buffering the full history.

/// Numerically stable streaming mean/variance accumulator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0.0 with fewer than 2 observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive;

    #[test]
    fn empty_stats() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn matches_batch_computation() {
        let xs = [2u32, 4, 4, 4, 5, 5, 7, 9];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(f64::from(x));
        }
        assert!((s.mean() - descriptive::mean(&xs)).abs() < 1e-12);
        assert!((s.stddev() - descriptive::stddev(&xs)).abs() < 1e-12);
    }

    #[test]
    fn single_observation() {
        let mut s = OnlineStats::new();
        s.push(42.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.variance(), 0.0);
    }
}
