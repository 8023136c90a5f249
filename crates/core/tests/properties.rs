//! Property-based tests of the SPES core: slacking rules, categorisation
//! priority, correlation metrics, and indeterminate scoring.

use proptest::prelude::*;
use spes_core::correlation::{best_lagged_cor, cor, lagged_cor, link_precision, windowed_cor};
use spes_core::indeterminate::{choose_strategy, score_pulsed, StrategyScore};
use spes_core::patterns::{FunctionType, PredictiveValues};
use spes_core::slacking::{merge_adjacent, merge_mode, trim_ends};
use spes_core::{categorize::categorize_deterministic, SpesConfig};
use spes_trace::{Slot, SparseSeries};
use std::collections::HashSet;

fn wt_seq() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(1u32..2000, 0..60)
}

fn sparse(max_slot: Slot) -> impl Strategy<Value = SparseSeries> {
    prop::collection::vec((0..max_slot, 1u32..10), 0..50).prop_map(SparseSeries::from_pairs)
}

/// Series dense enough that most lags in a small window hit.
fn dense(max_slot: Slot) -> impl Strategy<Value = SparseSeries> {
    prop::collection::vec((0..max_slot, 1u32..10), 0..120).prop_map(SparseSeries::from_pairs)
}

/// Series of at most three events, so a single pair decides the best lag.
fn few(max_slot: Slot) -> impl Strategy<Value = SparseSeries> {
    prop::collection::vec((0..max_slot, 1u32..10), 0..4).prop_map(SparseSeries::from_pairs)
}

// ---- reference definitions of the correlation metrics ----
//
// The straightforward forms the merge kernels in `spes_core::correlation`
// must equal bit for bit: one hash set of the candidate's slots per lag,
// and one range lookup per event.

fn reference_lagged_cor(
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
    let candidate_slots: HashSet<Slot> = candidate
        .events_in(start.saturating_sub(lag), end)
        .iter()
        .map(|&(s, _)| s)
        .collect();
    let hits = target_events
        .iter()
        .filter(|&&(s, _)| s >= lag && candidate_slots.contains(&(s - lag)))
        .count();
    hits as f64 / target_events.len() as f64
}

fn reference_best_lagged_cor(
    target: &SparseSeries,
    candidate: &SparseSeries,
    max_lag: u32,
    start: Slot,
    end: Slot,
) -> (u32, f64) {
    let mut best = (0u32, f64::MIN);
    for lag in 0..=max_lag {
        let c = reference_lagged_cor(target, candidate, lag, start, end);
        if c > best.1 {
            best = (lag, c);
        }
    }
    if best.1 < 0.0 {
        (0, 0.0)
    } else {
        best
    }
}

fn reference_windowed_cor(
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
    let hits = target_events
        .iter()
        .filter(|&&(s, _)| {
            !candidate
                .events_in(s.saturating_sub(window), s + 1)
                .is_empty()
        })
        .count();
    hits as f64 / target_events.len() as f64
}

fn reference_link_precision(
    target: &SparseSeries,
    candidate: &SparseSeries,
    hold: u32,
    start: Slot,
    end: Slot,
) -> f64 {
    let cand_events = candidate.events_in(start, end);
    if cand_events.is_empty() {
        return 0.0;
    }
    let hits = cand_events
        .iter()
        .filter(|&&(c, _)| {
            !target
                .events_in(c + 1, c.saturating_add(hold).saturating_add(1))
                .is_empty()
        })
        .count();
    hits as f64 / cand_events.len() as f64
}

#[test]
fn correlation_metrics_match_the_reference_on_empty_sides() {
    let empty = SparseSeries::new();
    let busy = SparseSeries::from_pairs((0..60).map(|s| (s, 1)).collect());
    for (a, b) in [(&empty, &busy), (&busy, &empty), (&empty, &empty)] {
        for (start, end) in [(0, 60), (5, 40), (30, 30)] {
            assert_eq!(
                best_lagged_cor(a, b, 10, start, end),
                reference_best_lagged_cor(a, b, 10, start, end)
            );
            assert_eq!(
                lagged_cor(a, b, 3, start, end).to_bits(),
                reference_lagged_cor(a, b, 3, start, end).to_bits()
            );
            assert_eq!(
                windowed_cor(a, b, 4, start, end).to_bits(),
                reference_windowed_cor(a, b, 4, start, end).to_bits()
            );
            assert_eq!(
                link_precision(a, b, 0, start, end).to_bits(),
                reference_link_precision(a, b, 0, start, end).to_bits()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // ---- slacking ----

    #[test]
    fn trim_removes_exactly_the_ends(wts in wt_seq()) {
        match trim_ends(&wts) {
            Some(trimmed) => {
                prop_assert_eq!(trimmed.len(), wts.len() - 2);
                prop_assert_eq!(&trimmed[..], &wts[1..wts.len() - 1]);
            }
            None => prop_assert!(wts.len() < 3),
        }
    }

    #[test]
    fn merge_preserves_total_waiting_time(wts in wt_seq()) {
        let config = SpesConfig::default();
        let merged = merge_adjacent(&wts, &config);
        let before: u64 = wts.iter().map(|&w| u64::from(w)).sum();
        let after: u64 = merged.iter().map(|&w| u64::from(w)).sum();
        prop_assert_eq!(before, after, "merging must only regroup WTs");
        prop_assert!(merged.len() <= wts.len());
    }

    #[test]
    fn merge_mode_is_a_mode(wts in wt_seq()) {
        if let Some(mode) = merge_mode(&wts) {
            let mode_count = wts.iter().filter(|&&w| w == mode).count();
            for &v in &wts {
                let c = wts.iter().filter(|&&w| w == v).count();
                prop_assert!(c <= mode_count);
            }
        } else {
            prop_assert!(wts.is_empty());
        }
    }

    // ---- categorisation ----

    #[test]
    fn categorisation_is_stable_and_valued_consistently(s in sparse(800)) {
        let config = SpesConfig::default();
        let a = categorize_deterministic(&s, 0, 800, &config);
        let b = categorize_deterministic(&s, 0, 800, &config);
        prop_assert_eq!(&a, &b);
        if let Some(cat) = a {
            prop_assert!(cat.ty.is_deterministic());
            // Value-bearing types carry values; the others never do.
            match cat.ty {
                FunctionType::Regular | FunctionType::ApproRegular => {
                    prop_assert!(matches!(cat.values, PredictiveValues::Discrete(ref v) if !v.is_empty()));
                }
                FunctionType::Dense => {
                    prop_assert!(matches!(cat.values, PredictiveValues::Range(lo, hi) if lo <= hi));
                }
                _ => prop_assert!(cat.values.is_none()),
            }
        }
    }

    #[test]
    fn perfectly_periodic_series_is_always_caught(period in 2u32..200, n in 6u32..40) {
        let s = SparseSeries::from_pairs((0..n).map(|i| (i * period, 1)).collect());
        let end = n * period;
        let config = SpesConfig::default();
        let cat = categorize_deterministic(&s, 0, end, &config);
        prop_assert!(cat.is_some(), "period {period} x{n} uncategorised");
        let cat = cat.unwrap();
        prop_assert!(
            matches!(cat.ty, FunctionType::Regular | FunctionType::Dense | FunctionType::AlwaysWarm),
            "unexpected type {:?}",
            cat.ty
        );
    }

    // ---- predictions ----

    #[test]
    fn predicted_slots_follow_definitions(values in prop::collection::vec(0u32..5000, 1..6), last in 0u32..100_000) {
        let p = PredictiveValues::Discrete(values.clone());
        let predicted = p.predicted_slots(last);
        prop_assert_eq!(predicted.len(), values.len());
        for (&v, &slot) in values.iter().zip(&predicted) {
            prop_assert_eq!(slot, last + v + 1);
        }
        let (lo, hi) = p.predicted_span(last).unwrap();
        prop_assert!(predicted.iter().all(|&s| (lo..=hi).contains(&s)));
    }

    // ---- correlation ----

    #[test]
    fn cor_is_bounded_and_self_is_one(a in sparse(500), b in sparse(500)) {
        let c = cor(&a, &b, 0, 500);
        prop_assert!((0.0..=1.0).contains(&c));
        if !a.is_empty() {
            prop_assert_eq!(cor(&a, &a, 0, 500), 1.0);
        }
    }

    #[test]
    fn best_lagged_cor_dominates_each_lag(a in sparse(400), b in sparse(400), max_lag in 0u32..12) {
        let (best_lag, best) = best_lagged_cor(&a, &b, max_lag, 0, 400);
        prop_assert!(best_lag <= max_lag);
        for lag in 0..=max_lag {
            prop_assert!(lagged_cor(&a, &b, lag, 0, 400) <= best + 1e-12);
        }
    }

    #[test]
    fn link_precision_bounded(a in sparse(400), b in sparse(400), hold in 0u32..20) {
        let p = link_precision(&a, &b, hold, 0, 400);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn exact_chain_has_perfect_lagged_cor(base in sparse(300), lag in 1u32..8) {
        prop_assume!(!base.is_empty());
        let child = SparseSeries::from_pairs(
            base.events().iter().map(|&(s, c)| (s + lag, c)).collect(),
        );
        let c = lagged_cor(&child, &base, lag, 0, 400);
        prop_assert_eq!(c, 1.0);
    }

    // Windows start anywhere in `0..300` (so also before `max_lag`, with
    // candidate events before `start` and target events after `end`), and
    // may be empty.

    #[test]
    fn best_lagged_cor_matches_the_per_lag_scan(
        a in dense(400), b in dense(400),
        start in 0u32..300, len in 0u32..200, max_lag in 0u32..24,
    ) {
        let end = start + len;
        let (lag, c) = best_lagged_cor(&a, &b, max_lag, start, end);
        let (ref_lag, ref_c) = reference_best_lagged_cor(&a, &b, max_lag, start, end);
        prop_assert_eq!(lag, ref_lag);
        prop_assert_eq!(c.to_bits(), ref_c.to_bits());
    }

    #[test]
    fn best_lagged_cor_matches_when_lags_reach_before_slot_zero(
        a in few(24), b in few(24), max_lag in 0u32..40,
    ) {
        let (lag, c) = best_lagged_cor(&a, &b, max_lag, 0, 24);
        let (ref_lag, ref_c) = reference_best_lagged_cor(&a, &b, max_lag, 0, 24);
        prop_assert_eq!(lag, ref_lag);
        prop_assert_eq!(c.to_bits(), ref_c.to_bits());
    }

    #[test]
    fn best_lagged_cor_matches_on_chains(
        base in dense(300), lag in 0u32..12, start in 0u32..200, max_lag in 0u32..16,
    ) {
        // A child that repeats `base` `lag` slots later, plus `base`'s own
        // events, so several lags tie or nearly tie.
        let child = SparseSeries::from_pairs(
            base.events()
                .iter()
                .flat_map(|&(s, c)| [(s + lag, c), (s, 1)])
                .collect(),
        );
        let got = best_lagged_cor(&child, &base, max_lag, start, 400);
        let want = reference_best_lagged_cor(&child, &base, max_lag, start, 400);
        prop_assert_eq!(got.0, want.0);
        prop_assert_eq!(got.1.to_bits(), want.1.to_bits());
    }

    #[test]
    fn lagged_cor_and_cor_match_the_reference(
        a in dense(400), b in dense(400),
        start in 0u32..300, len in 0u32..200, lag in 0u32..40,
    ) {
        let end = start + len;
        prop_assert_eq!(
            lagged_cor(&a, &b, lag, start, end).to_bits(),
            reference_lagged_cor(&a, &b, lag, start, end).to_bits()
        );
        prop_assert_eq!(
            cor(&a, &b, start, end).to_bits(),
            reference_lagged_cor(&a, &b, 0, start, end).to_bits()
        );
    }

    #[test]
    fn windowed_cor_matches_the_reference(
        a in dense(400), b in sparse(400),
        start in 0u32..300, len in 0u32..200, window in 0u32..40,
    ) {
        let end = start + len;
        prop_assert_eq!(
            windowed_cor(&a, &b, window, start, end).to_bits(),
            reference_windowed_cor(&a, &b, window, start, end).to_bits()
        );
    }

    #[test]
    fn link_precision_matches_the_reference(
        a in sparse(400), b in dense(400),
        start in 0u32..300, len in 0u32..200, hold in 0u32..30,
    ) {
        let end = start + len;
        prop_assert_eq!(
            link_precision(&a, &b, hold, start, end).to_bits(),
            reference_link_precision(&a, &b, hold, start, end).to_bits()
        );
    }

    #[test]
    fn correlation_metrics_match_at_the_end_of_time(
        a in sparse(40), b in sparse(40), lag in 0u32..12, hold in 0u32..12,
    ) {
        // Shift both series to the top of the slot range, up to
        // `Slot::MAX` itself, so every saturating edge (`c + hold + 1`,
        // `s + 1`) is exercised.
        let top = |s: &SparseSeries| SparseSeries::from_pairs(
            s.events().iter().map(|&(slot, c)| (Slot::MAX - 39 + slot, c)).collect(),
        );
        let (a, b) = (top(&a), top(&b));
        let (start, end) = (Slot::MAX - 39, Slot::MAX);
        prop_assert_eq!(
            best_lagged_cor(&a, &b, lag, start, end),
            reference_best_lagged_cor(&a, &b, lag, start, end)
        );
        prop_assert_eq!(
            windowed_cor(&a, &b, lag, start, end).to_bits(),
            reference_windowed_cor(&a, &b, lag, start, end).to_bits()
        );
        prop_assert_eq!(
            link_precision(&a, &b, hold, start, end).to_bits(),
            reference_link_precision(&a, &b, hold, start, end).to_bits()
        );
    }

    // ---- indeterminate scoring ----

    #[test]
    fn pulsed_score_monotone_in_keepalive(s in sparse(600), keep_a in 0u32..10, extra in 1u32..10) {
        let a = score_pulsed(&s, 0, 600, keep_a);
        let b = score_pulsed(&s, 0, 600, keep_a + extra);
        // Longer keep-alive: never more cold starts.
        prop_assert!(b.cold_starts <= a.cold_starts);
    }

    #[test]
    fn choose_strategy_picks_a_listed_option(
        cs in prop::collection::vec(0u64..100, 1..4),
        wm in prop::collection::vec(0u64..1000, 1..4),
    ) {
        let types = [FunctionType::Pulsed, FunctionType::Correlated, FunctionType::Possible];
        let n = cs.len().min(wm.len());
        let options: Vec<(FunctionType, StrategyScore)> = (0..n)
            .map(|i| {
                (
                    types[i],
                    StrategyScore {
                        cold_starts: cs[i],
                        wasted: wm[i],
                    },
                )
            })
            .collect();
        let chosen = choose_strategy(&options, 0.5);
        prop_assert!(options.iter().any(|&(ty, _)| ty == chosen));
        // A strict double-winner must be chosen.
        let min_cs = options.iter().map(|&(_, s)| s.cold_starts).min().unwrap();
        let min_wm = options.iter().map(|&(_, s)| s.wasted).min().unwrap();
        if let Some(&(ty, _)) = options
            .iter()
            .find(|&&(_, s)| s.cold_starts == min_cs && s.wasted == min_wm)
        {
            prop_assert_eq!(chosen, ty);
        }
    }
}
