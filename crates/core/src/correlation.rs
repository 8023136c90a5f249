//! Co-occurrence rate (COR) and its T-lagged variant (Sections III-B2 and
//! IV-B2).
//!
//! For a target function, COR with a candidate is the fraction of the
//! target's invoked slots at which the candidate is also invoked. The
//! T-lagged COR shifts the candidate's sequence forward: a candidate
//! invocation up to `T` slots *before* the target's counts, capturing
//! chained / fan-out workflows where the upstream function is a predictive
//! indicator of the downstream one.
//!
//! # Cost
//!
//! Every function here is one forward merge of two sorted event slices,
//! located by one binary search each; nothing is hashed. With `t` the
//! target's events in the window, `c` the candidate's and `m` the
//! (target, candidate) pairs whose distance falls inside the lags asked
//! for:
//!
//! - [`cor`] and [`lagged_cor`]: O(t + c).
//! - [`best_lagged_cor`]: O(t + c + m) time and at most `max_lag + 1`
//!   counters for all lags at once, instead of one scan of the candidate per
//!   lag.
//! - [`windowed_cor`]: O(t + c).
//! - [`link_precision`]: O(c + the target's events it passes over), which
//!   may run past `end` by up to `hold` slots.
//!
//! # Exactness
//!
//! Each result is an integer hit count divided by the same denominator as
//! the per-lag definition (the target's, or for precision the candidate's,
//! event count in the window), so every `f64` equals the definition's bit
//! for bit. A target event at `s` is a hit at lag `d` exactly when the
//! candidate has an event at `s - d`: the merge visits each candidate event
//! in `[s - max_lag, s]` once and credits the lag it sits at, and a
//! [`SparseSeries`] holds each slot at most once, so no lag is credited
//! twice for one target event. [`best_lagged_cor`] then scans the lags in
//! ascending order with a strict `>`, so a tie still goes to the smallest
//! lag.

use spes_trace::{Slot, SparseSeries};

/// Adds to `hits[d - min_lag]` every target event at `s` that has a
/// candidate event at `s - d`, for each lag `d` in `min_lag..=max_lag`.
///
/// One pass: the candidate cursor only moves forward, and the inner loop
/// visits only candidates inside the lag window of the current target
/// event. Both slices must hold strictly increasing slots, as every
/// [`SparseSeries`] constructor guarantees.
fn count_lag_hits(
    target: &[(Slot, u32)],
    candidate: &[(Slot, u32)],
    min_lag: u32,
    max_lag: u32,
    hits: &mut [usize],
) {
    debug_assert_eq!(hits.len() as u64, u64::from(max_lag - min_lag) + 1);
    let mut first = 0usize;
    for &(s, _) in target {
        let lo = s.saturating_sub(max_lag);
        while first < candidate.len() && candidate[first].0 < lo {
            first += 1;
        }
        let Some(hi) = s.checked_sub(min_lag) else {
            continue;
        };
        for &(c, _) in &candidate[first..] {
            if c > hi {
                break;
            }
            hits[(s - c - min_lag) as usize] += 1;
        }
    }
}

/// Plain co-occurrence rate of `target` with `candidate` over
/// `[start, end)`: `|slots where both invoked| / |slots target invoked|`.
/// Returns 0.0 when the target is never invoked in the window.
#[must_use]
pub fn cor(target: &SparseSeries, candidate: &SparseSeries, start: Slot, end: Slot) -> f64 {
    lagged_cor(target, candidate, 0, start, end)
}

/// COR of `target` against the candidate's sequence lagged by `lag` slots:
/// a target invocation at slot `s` co-occurs when the candidate was
/// invoked at `s - lag`.
#[must_use]
pub fn lagged_cor(
    target: &SparseSeries,
    candidate: &SparseSeries,
    lag: u32,
    start: Slot,
    end: Slot,
) -> f64 {
    let target_events = target.events_in(start, end);
    if target_events.is_empty() {
        return 0.0;
    }
    let mut hits = [0usize];
    count_lag_hits(
        target_events,
        candidate.events_in(start.saturating_sub(lag), end),
        lag,
        lag,
        &mut hits,
    );
    hits[0] as f64 / target_events.len() as f64
}

/// The best lag in `0..=max_lag` and its COR: the candidate is the most
/// useful predictive indicator at this lead time. Lag 0 still helps (the
/// instance is warm for the same-minute tail), larger lags give pre-warm
/// lead time. Ties go to the smallest lag; an empty target gives `(0, 0.0)`.
#[must_use]
pub fn best_lagged_cor(
    target: &SparseSeries,
    candidate: &SparseSeries,
    max_lag: u32,
    start: Slot,
    end: Slot,
) -> (u32, f64) {
    let target_events = target.events_in(start, end);
    let Some(&(last, _)) = target_events.last() else {
        return (0, 0.0);
    };
    // No candidate slot lies before 0, so no lag beyond the last target
    // slot can hit; those lags score 0.0 and never beat lag 0.
    let span = max_lag.min(last);
    let mut hits = vec![0usize; span as usize + 1];
    count_lag_hits(
        target_events,
        candidate.events_in(start.saturating_sub(span), end),
        0,
        span,
        &mut hits,
    );
    let n = target_events.len() as f64;
    let mut best = (0u32, f64::MIN);
    for (lag, &h) in (0..=span).zip(&hits) {
        let c = h as f64 / n;
        if c > best.1 {
            best = (lag, c);
        }
    }
    best
}

/// COR where a candidate invocation *anywhere* in the trailing window
/// `[s - window, s]` counts. This is the operational check the online
/// correlation strategy uses (a pre-load triggered by the candidate keeps
/// the target warm for `window` slots).
#[must_use]
pub fn windowed_cor(
    target: &SparseSeries,
    candidate: &SparseSeries,
    window: u32,
    start: Slot,
    end: Slot,
) -> f64 {
    let target_events = target.events_in(start, end);
    if target_events.is_empty() {
        return 0.0;
    }
    let cand = candidate.events_in(start.saturating_sub(window), end);
    // `next` is the first candidate at or after the current window's left
    // edge; both edges only move forward as `s` grows.
    let mut next = 0usize;
    let mut hits = 0usize;
    for &(s, _) in target_events {
        let lo = s.saturating_sub(window);
        while next < cand.len() && cand[next].0 < lo {
            next += 1;
        }
        if next < cand.len() && cand[next].0 <= s {
            hits += 1;
        }
    }
    hits as f64 / target_events.len() as f64
}

/// Precision of a candidate as a predictor: the fraction of its
/// invocations followed by a target invocation within `(c, c + hold]`.
/// A hyper-frequent candidate has near-perfect lagged COR against any
/// target but terrible precision — pre-loading off it would keep the
/// target pinned in memory for nothing. Target invocations after `end`
/// count for candidates near the window's end.
#[must_use]
pub fn link_precision(
    target: &SparseSeries,
    candidate: &SparseSeries,
    hold: u32,
    start: Slot,
    end: Slot,
) -> f64 {
    let cand_events = candidate.events_in(start, end);
    let Some(&(first, _)) = cand_events.first() else {
        return 0.0;
    };
    let target_events = target.events();
    // `next` is the first target event after the current candidate `c`.
    let mut next = target_events.partition_point(|&(s, _)| s <= first);
    let mut hits = 0usize;
    for &(c, _) in cand_events {
        while next < target_events.len() && target_events[next].0 <= c {
            next += 1;
        }
        if next < target_events.len()
            && target_events[next].0 < c.saturating_add(hold).saturating_add(1)
        {
            hits += 1;
        }
    }
    hits as f64 / cand_events.len() as f64
}

/// A discovered predictive link: `candidate`'s invocations predict the
/// target's, `lag` slots later, with strength `cor`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Index of the candidate (predictor) function.
    pub candidate: usize,
    /// Most predictive lag in slots.
    pub lag: u32,
    /// COR at that lag.
    pub cor: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(slots: &[Slot]) -> SparseSeries {
        SparseSeries::from_pairs(slots.iter().map(|&s| (s, 1)).collect())
    }

    #[test]
    fn cor_identical_series_is_one() {
        let a = series(&[1, 5, 9]);
        assert_eq!(cor(&a, &a, 0, 10), 1.0);
    }

    #[test]
    fn cor_disjoint_is_zero() {
        let a = series(&[1, 5]);
        let b = series(&[2, 6]);
        assert_eq!(cor(&a, &b, 0, 10), 0.0);
    }

    #[test]
    fn cor_partial_overlap() {
        let target = series(&[1, 5, 9, 13]);
        let cand = series(&[1, 9]);
        assert_eq!(cor(&target, &cand, 0, 20), 0.5);
    }

    #[test]
    fn cor_is_asymmetric() {
        // COR divides by the *target's* invocations.
        let a = series(&[1]);
        let b = series(&[1, 2, 3, 4]);
        assert_eq!(cor(&a, &b, 0, 10), 1.0);
        assert_eq!(cor(&b, &a, 0, 10), 0.25);
    }

    #[test]
    fn cor_empty_target_is_zero() {
        let a = SparseSeries::new();
        let b = series(&[1, 2]);
        assert_eq!(cor(&a, &b, 0, 10), 0.0);
    }

    #[test]
    fn lagged_cor_finds_chain() {
        // Candidate fires 2 slots before the target, every time.
        let cand = series(&[10, 20, 30]);
        let target = series(&[12, 22, 32]);
        assert_eq!(lagged_cor(&target, &cand, 2, 0, 40), 1.0);
        assert_eq!(lagged_cor(&target, &cand, 0, 0, 40), 0.0);
    }

    #[test]
    fn best_lagged_cor_picks_true_lag() {
        let cand = series(&[10, 20, 30, 40]);
        let target = series(&[13, 23, 33, 43]);
        let (lag, c) = best_lagged_cor(&target, &cand, 10, 0, 50);
        assert_eq!(lag, 3);
        assert_eq!(c, 1.0);
    }

    #[test]
    fn best_lagged_cor_no_signal() {
        let cand = series(&[100]);
        let target = series(&[1, 2]);
        let (_, c) = best_lagged_cor(&target, &cand, 5, 0, 200);
        assert_eq!(c, 0.0);
    }

    #[test]
    fn lag_respects_window_left_edge() {
        // Candidate invocation before the window still counts for a
        // target invocation just inside it.
        let cand = series(&[8]);
        let target = series(&[10]);
        assert_eq!(lagged_cor(&target, &cand, 2, 10, 20), 1.0);
    }

    #[test]
    fn best_lagged_cor_unbounded_lag_counts_only_reachable_lags() {
        // Lags beyond the last target slot cannot hit, so an unbounded
        // `max_lag` costs no more than the reachable ones and agrees
        // with them.
        let cand = series(&[3, 40]);
        let target = series(&[45, 90]);
        assert_eq!(best_lagged_cor(&target, &cand, Slot::MAX, 0, 100), (5, 0.5));
        assert_eq!(
            best_lagged_cor(&target, &cand, Slot::MAX, 0, 100),
            best_lagged_cor(&target, &cand, 90, 0, 100)
        );
    }

    #[test]
    fn windowed_cor_any_lag_hits() {
        let cand = series(&[10, 27]);
        let target = series(&[12, 30, 50]);
        // Window 5: 12 sees 10, 30 sees 27, 50 sees nothing -> 2/3.
        let c = windowed_cor(&target, &cand, 5, 0, 60);
        assert!((c - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn precision_perfect_chain_is_one() {
        let cand = series(&[10, 50, 90]);
        let target = series(&[12, 52, 92]);
        assert_eq!(link_precision(&target, &cand, 4, 0, 100), 1.0);
    }

    #[test]
    fn precision_busy_candidate_is_low() {
        // Candidate fires every slot; target fires twice.
        let cand_slots: Vec<Slot> = (0..100).collect();
        let cand = series(&cand_slots);
        let target = series(&[20, 70]);
        let p = link_precision(&target, &cand, 3, 0, 100);
        assert!(p < 0.1, "precision {p}");
    }

    #[test]
    fn precision_empty_candidate_is_zero() {
        let cand = SparseSeries::new();
        let target = series(&[1]);
        assert_eq!(link_precision(&target, &cand, 5, 0, 10), 0.0);
    }

    #[test]
    fn windowed_cor_zero_window_is_plain_cor() {
        let cand = series(&[5, 9]);
        let target = series(&[5, 10]);
        assert_eq!(
            windowed_cor(&target, &cand, 0, 0, 20),
            cor(&target, &cand, 0, 20)
        );
    }
}
