//! The "forgetting" strategy (Section IV-B1).
//!
//! Function behaviour drifts; a function that looks uncategorisable over
//! the full training window may fit a deterministic definition on its
//! recent history. The paper slices the observations by day and re-checks
//! the definitions on the suffix windows `[d, end)` for `d = 1, 2, ...`
//! up to half the observed days, keeping the first match.

use crate::categorize::categorize_deterministic;
use crate::patterns::Categorized;
use spes_trace::{Slot, SparseSeries, SLOTS_PER_DAY};

/// Re-checks the deterministic definitions on day-sliced suffixes of
/// `[start, end)`. Suffixes start at day 1 and go up to `⌊days / 2⌋`.
/// Returns the first categorisation found together with the suffix start
/// used (so adaptive state can be fitted on the same window).
#[must_use]
pub fn forget_and_recheck(
    series: &SparseSeries,
    start: Slot,
    end: Slot,
) -> Option<(Categorized, Slot)> {
    if end <= start {
        return None;
    }
    let days = (end - start) / SLOTS_PER_DAY;
    if days < 2 {
        return None;
    }
    for skip in 1..=(days / 2) {
        let suffix_start = start + skip * SLOTS_PER_DAY;
        if suffix_start >= end {
            break;
        }
        if let Some(cat) = categorize_deterministic(series, suffix_start, end) {
            return Some((cat, suffix_start));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::FunctionType;

    /// Erratic gaps dense enough that the noise exceeds both the P5/P95
    /// interpolation slack and the appro-regular mode coverage.
    fn noisy_pairs(start: Slot, end: Slot) -> Vec<(Slot, u32)> {
        let mut pairs = Vec::new();
        let mut slot = start;
        let mut i = 0u32;
        while slot < end {
            pairs.push((slot, 1));
            slot += 23 + (i * i * 7) % 211; // erratic gaps, ~23-233 slots
            i += 1;
        }
        pairs
    }

    #[test]
    fn shifted_function_recovered_by_forgetting() {
        // Erratic during day 0, perfectly periodic (every 5h) afterwards.
        let mut pairs = noisy_pairs(0, SLOTS_PER_DAY);
        let mut slot = SLOTS_PER_DAY;
        while slot < 6 * SLOTS_PER_DAY {
            pairs.push((slot, 1));
            slot += 300;
        }
        let s = SparseSeries::from_pairs(pairs);
        let end = 6 * SLOTS_PER_DAY;

        // Full window fails the deterministic definitions...
        assert!(categorize_deterministic(&s, 0, end).is_none());
        // ...but forgetting day 0 recovers "regular".
        let (cat, suffix_start) = forget_and_recheck(&s, 0, end).unwrap();
        assert_eq!(cat.ty, FunctionType::Regular);
        assert_eq!(suffix_start, SLOTS_PER_DAY);
    }

    #[test]
    fn forgetting_limited_to_half_the_days() {
        // Noise for the first 5 of 6 days, periodic only on the last day:
        // suffixes up to day 3 are checked, and all still contain two or
        // more noisy days.
        let mut pairs = noisy_pairs(0, 5 * SLOTS_PER_DAY);
        let mut t = 5 * SLOTS_PER_DAY;
        while t < 6 * SLOTS_PER_DAY {
            pairs.push((t, 1));
            t += 30;
        }
        let s = SparseSeries::from_pairs(pairs);
        assert!(forget_and_recheck(&s, 0, 6 * SLOTS_PER_DAY).is_none());
    }

    #[test]
    fn short_window_returns_none() {
        let s = SparseSeries::from_pairs(vec![(0, 1)]);
        assert!(forget_and_recheck(&s, 0, SLOTS_PER_DAY).is_none());
        assert!(forget_and_recheck(&s, 5, 5).is_none());
    }

    #[test]
    fn already_regular_function_found_at_first_suffix() {
        let pairs: Vec<(Slot, u32)> = (0..4 * SLOTS_PER_DAY).step_by(60).map(|s| (s, 1)).collect();
        let s = SparseSeries::from_pairs(pairs);
        let (cat, suffix_start) = forget_and_recheck(&s, 0, 4 * SLOTS_PER_DAY).unwrap();
        assert_eq!(cat.ty, FunctionType::Regular);
        assert_eq!(suffix_start, SLOTS_PER_DAY);
    }
}
