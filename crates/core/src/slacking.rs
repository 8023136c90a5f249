//! WT slacking rules (Section IV-A2).
//!
//! A genuinely periodic function rarely produces a perfectly constant WT
//! sequence: the first/last WTs of the window are truncated, events get
//! delayed, and stray invocations split a long gap into pieces. The paper
//! applies two slacking transformations before re-testing the "regular"
//! definition:
//!
//! 1. **Trim** — drop the first and last WT.
//! 2. **Merge adjacent small WTs** — for each WT close in value to the WT
//!    mode, gradually absorb its adjacent small WTs until reaching the
//!    sequence end, another near-mode WT, or an already-merged WT. The
//!    paper's example: `(1439, 1438, 1, 1439, 1438, 1)` becomes
//!    `(1439, 1439, 1439, 1439)`.

/// A WT is "closely valued to the mode" within this absolute tolerance,
/// in slots (the paper gives no number; its example merges 1438 into a
/// 1439 mode, so 1).
pub const MERGE_MODE_TOLERANCE: u32 = 1;
/// A WT is "small" (eligible for merging into a neighbour) when at most
/// this many slots (the paper gives no number; its example merges 1s).
pub const MERGE_SMALL_MAX: u32 = 2;

/// Drops the first and last WT (slacking rule 1). Returns `None` when the
/// sequence is too short for trimming to leave anything meaningful.
#[must_use]
pub fn trim_ends(wts: &[u32]) -> Option<Vec<u32>> {
    if wts.len() < 3 {
        return None;
    }
    Some(wts[1..wts.len() - 1].to_vec())
}

/// The mode used by the merge rule. Ties are broken towards the *largest*
/// value: a quasi-periodic WT sequence polluted by stray small gaps should
/// anchor on the period, not on the pollution (cf. the paper's example,
/// where 1439, 1438, and 1 all appear twice and the intended mode is the
/// near-daily period).
#[must_use]
pub fn merge_mode(wts: &[u32]) -> Option<u32> {
    let table = spes_stats::mode_table(wts);
    let best_count = table.first()?.count;
    table
        .iter()
        .filter(|e| e.count == best_count)
        .map(|e| e.value)
        .max()
}

/// Merges adjacent small WTs into near-mode WTs (slacking rule 2).
///
/// Walks the sequence once. Every WT within [`MERGE_MODE_TOLERANCE`] of
/// the mode absorbs the small WTs (at most [`MERGE_SMALL_MAX`] slots
/// each) that immediately follow it, stopping at the sequence end, at the
/// next near-mode WT, or once the accumulated value reaches the mode.
/// Small WTs not adjacent to a near-mode WT are left untouched.
#[must_use]
pub fn merge_adjacent(wts: &[u32]) -> Vec<u32> {
    let Some(mode) = merge_mode(wts) else {
        return wts.to_vec();
    };
    let near = |v: u32| v.abs_diff(mode) <= MERGE_MODE_TOLERANCE;

    let mut merged = Vec::with_capacity(wts.len());
    let mut i = 0;
    while i < wts.len() {
        let w = wts[i];
        if near(w) {
            let mut value = w;
            let mut j = i + 1;
            while j < wts.len() && wts[j] <= MERGE_SMALL_MAX && !near(wts[j]) && value < mode {
                value = value.saturating_add(wts[j]);
                j += 1;
            }
            merged.push(value);
            i = j;
        } else {
            merged.push(w);
            i += 1;
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trim_drops_ends() {
        assert_eq!(trim_ends(&[5, 9, 9, 9, 7]), Some(vec![9, 9, 9]));
    }

    #[test]
    fn trim_too_short_is_none() {
        assert_eq!(trim_ends(&[1, 2]), None);
        assert_eq!(trim_ends(&[]), None);
    }

    #[test]
    fn merge_mode_prefers_larger_on_tie() {
        assert_eq!(merge_mode(&[1439, 1438, 1, 1439, 1438, 1]), Some(1439));
        assert_eq!(merge_mode(&[]), None);
        assert_eq!(merge_mode(&[3, 3, 7]), Some(3));
    }

    #[test]
    fn paper_merge_example() {
        // (1439, 1438, 1, 1439, 1438, 1) -> (1439, 1439, 1439, 1439)
        let wts = [1439, 1438, 1, 1439, 1438, 1];
        let merged = merge_adjacent(&wts);
        assert_eq!(merged, vec![1439, 1439, 1439, 1439]);
    }

    #[test]
    fn merge_stops_at_near_mode_wt() {
        // The small WT after a full-mode WT is only absorbed if the
        // accumulator is still below the mode.
        let wts = [10, 10, 1, 10];
        let merged = merge_adjacent(&wts);
        // First 10 is already at the mode -> absorbs nothing; second 10
        // likewise; the stray 1 is not adjacent *after* a below-mode WT,
        // so it survives.
        assert_eq!(merged, vec![10, 10, 1, 10]);
    }

    #[test]
    fn merge_absorbs_after_slightly_low_wt() {
        let wts = [9, 1, 10, 10];
        // Mode 10, tolerance 1: 9 is near-mode and below it -> absorbs 1.
        let merged = merge_adjacent(&wts);
        assert_eq!(merged, vec![10, 10, 10]);
    }

    #[test]
    fn merge_without_small_neighbours_is_identity() {
        let wts = [30, 30, 30];
        assert_eq!(merge_adjacent(&wts), vec![30, 30, 30]);
    }

    #[test]
    fn merge_ignores_far_from_mode_values() {
        let wts = [100, 100, 55, 2, 100];
        // 55 is not near the mode and not small: untouched. The 2 after it
        // is not preceded by a near-mode WT: untouched.
        assert_eq!(merge_adjacent(&wts), vec![100, 100, 55, 2, 100]);
    }

    #[test]
    fn merge_empty_is_empty() {
        assert!(merge_adjacent(&[]).is_empty());
    }
}
