//! Waiting-time / active-time / active-number sequence extraction.
//!
//! The three definitions of Section IV of the paper, illustrated there with
//! the invocation sequence `(28, 0, 12, 1, 0, 0, 0, 7)`:
//!
//! * **WT** (waiting time): lengths of the idle gaps *between* successive
//!   active runs — `(1, 3)` for the example. Leading idle slots (before the
//!   first invocation) and trailing idle slots (after the last) are not
//!   waiting times.
//! * **AT** (active time): lengths of the maximal runs of consecutive
//!   invoked slots — `(1, 2, 1)`.
//! * **AN** (active number): total invocations within each active run —
//!   `(28, 13, 7)`.

use crate::model::{Slot, SparseSeries};

/// The WT, AT, and AN sequences of a series restricted to `[start, end)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sequences {
    /// Idle-gap lengths between active runs, in slots.
    pub wt: Vec<u32>,
    /// Lengths of the active runs, in slots.
    pub at: Vec<u32>,
    /// Invocation totals of the active runs.
    pub an: Vec<u64>,
}

impl Sequences {
    /// Extracts all three sequences from `series` within `[start, end)`.
    #[must_use]
    pub fn extract(series: &SparseSeries, start: Slot, end: Slot) -> Self {
        let events = series.events_in(start, end);
        if events.is_empty() {
            return Self::default();
        }
        let mut wt = Vec::new();
        let mut at = Vec::new();
        let mut an: Vec<u64> = Vec::new();

        let mut run_start = events[0].0;
        let mut run_prev = events[0].0;
        let mut run_count = u64::from(events[0].1);

        for &(slot, count) in &events[1..] {
            if slot == run_prev + 1 {
                run_prev = slot;
                run_count += u64::from(count);
            } else {
                at.push(run_prev - run_start + 1);
                an.push(run_count);
                wt.push(slot - run_prev - 1);
                run_start = slot;
                run_prev = slot;
                run_count = u64::from(count);
            }
        }
        at.push(run_prev - run_start + 1);
        an.push(run_count);

        Self { wt, at, an }
    }

    /// Extracts only the WT sequence (the hot path for categorisation).
    #[must_use]
    pub fn waiting_times(series: &SparseSeries, start: Slot, end: Slot) -> Vec<u32> {
        Self::extract(series, start, end).wt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series_from_dense(counts: &[u32]) -> SparseSeries {
        SparseSeries::from_pairs(
            counts
                .iter()
                .enumerate()
                .map(|(i, &c)| (i as Slot, c))
                .collect(),
        )
    }

    #[test]
    fn paper_example() {
        // (28, 0, 12, 1, 0, 0, 0, 7) -> WT (1, 3), AT (1, 2, 1), AN (28, 13, 7)
        let s = series_from_dense(&[28, 0, 12, 1, 0, 0, 0, 7]);
        let seq = Sequences::extract(&s, 0, 8);
        assert_eq!(seq.wt, vec![1, 3]);
        assert_eq!(seq.at, vec![1, 2, 1]);
        assert_eq!(seq.an, vec![28, 13, 7]);
    }

    #[test]
    fn empty_series() {
        let s = SparseSeries::new();
        assert_eq!(Sequences::extract(&s, 0, 100), Sequences::default());
    }

    #[test]
    fn single_invocation_has_no_wt() {
        let s = series_from_dense(&[0, 0, 5, 0, 0]);
        let seq = Sequences::extract(&s, 0, 5);
        assert!(seq.wt.is_empty());
        assert_eq!(seq.at, vec![1]);
        assert_eq!(seq.an, vec![5]);
    }

    #[test]
    fn leading_and_trailing_gaps_ignored() {
        let s = series_from_dense(&[0, 0, 1, 0, 1, 0, 0, 0]);
        let seq = Sequences::extract(&s, 0, 8);
        assert_eq!(seq.wt, vec![1]);
        assert_eq!(seq.at, vec![1, 1]);
    }

    #[test]
    fn fully_active_has_single_run() {
        let s = series_from_dense(&[1, 2, 3, 4]);
        let seq = Sequences::extract(&s, 0, 4);
        assert!(seq.wt.is_empty());
        assert_eq!(seq.at, vec![4]);
        assert_eq!(seq.an, vec![10]);
    }

    #[test]
    fn range_restriction_changes_sequences() {
        let s = series_from_dense(&[1, 0, 1, 0, 0, 1]);
        // Full range: WT (1, 2).
        assert_eq!(Sequences::extract(&s, 0, 6).wt, vec![1, 2]);
        // Restricted to [2, 6): runs at 2 and 5 -> WT (2).
        assert_eq!(Sequences::extract(&s, 2, 6).wt, vec![2]);
        // Restricted to [0, 3): runs at 0 and 2 -> WT (1).
        assert_eq!(Sequences::extract(&s, 0, 3).wt, vec![1]);
    }

    #[test]
    fn periodic_wt() {
        // Invoked every 10 slots: WT constant 9.
        let pairs: Vec<(Slot, u32)> = (0..10).map(|i| (i * 10, 1)).collect();
        let s = SparseSeries::from_pairs(pairs);
        let seq = Sequences::extract(&s, 0, 100);
        assert_eq!(seq.wt, vec![9; 9]);
        assert_eq!(seq.at, vec![1; 10]);
    }
}
