//! Property-based tests of the SPES core: slacking rules, categorisation
//! priority, the adaptive strategies, correlation metrics, and
//! indeterminate scoring.

use proptest::prelude::*;
use spes_core::adaptive::{adjust_values, try_online_categorize, AdjustOutcome};
use spes_core::categorize::categorize_deterministic;
use spes_core::correlation::{best_lagged_cor, cor, lagged_cor, link_precision, windowed_cor};
use spes_core::indeterminate::{choose_strategy, score_pulsed, StrategyScore};
use spes_core::patterns::{Categorized, FunctionType, PredictiveValues};
use spes_core::slacking::{merge_adjacent, merge_mode, trim_ends};
use spes_core::window::{WtWindow, WT_WINDOW_CAPACITY};
use spes_stats::{modes, percentile, Summary};
use spes_trace::{Slot, SparseSeries};
use std::collections::BTreeSet;

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
    let candidate_slots: BTreeSet<Slot> = candidate
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

// ---- reference definitions of the adaptive strategies ----
//
// S2 (`adjust_values`) and S3 (`try_online_categorize`) as they stood
// when each re-implemented Table I's rules with thresholds read from the
// config, the default values inlined. The shared rule implementation in
// `spes_core::categorize` must reproduce them exactly.

fn reference_is_regular(wts: &[u32]) -> bool {
    if wts.len() < 4 {
        return false;
    }
    let Some(summary) = Summary::of(wts) else {
        return false;
    };
    summary.p95 - summary.p5 <= 1.0 || summary.cv <= 0.01
}

fn reference_try_online_categorize(online_wts: &[u32]) -> Option<Categorized> {
    if online_wts.len() < 5 {
        return None;
    }
    if reference_is_regular(online_wts) {
        let median = percentile(online_wts, 50.0)?.round() as u32;
        return Some(Categorized::new(
            FunctionType::Regular,
            PredictiveValues::Discrete(vec![median]),
        ));
    }
    let coverage = modes::mode_coverage(online_wts, 3);
    if coverage as f64 >= 0.9 * online_wts.len() as f64 {
        let vals: Vec<u32> = modes::top_modes(online_wts, 3)
            .into_iter()
            .map(|m| m.value)
            .collect();
        return Some(Categorized::new(
            FunctionType::ApproRegular,
            PredictiveValues::Discrete(vals),
        ));
    }
    let p90 = percentile(online_wts, 90.0)?;
    if p90 <= 5.0 {
        let fresh = modes::top_modes(online_wts, 3);
        let lo = fresh.iter().map(|m| m.value).min()?;
        let hi = fresh.iter().map(|m| m.value).max()?;
        return Some(Categorized::new(
            FunctionType::Dense,
            PredictiveValues::Range(lo, hi),
        ));
    }
    let repeated = modes::repeated_values(online_wts);
    if !repeated.is_empty() {
        return Some(Categorized::new(
            FunctionType::NewlyPossible,
            PredictiveValues::Discrete(repeated),
        ));
    }
    None
}

fn reference_echoes_value(wt: u32, base: u32, tol: f64) -> bool {
    (2..=3u32).any(|m| {
        let echo = f64::from(m) * f64::from(base) + f64::from(m - 1);
        (f64::from(wt) - echo).abs() <= tol
    })
}

fn reference_adjust_values(
    ty: FunctionType,
    values: &mut PredictiveValues,
    online_wts: &[u32],
    offline_std: f64,
) -> AdjustOutcome {
    if online_wts.len() < 5 {
        return AdjustOutcome::Unchanged;
    }
    let drift_threshold = offline_std.max(1.0);
    let live = |base: u32| {
        let near = online_wts
            .iter()
            .filter(|&&wt| (f64::from(wt) - f64::from(base)).abs() <= drift_threshold)
            .count();
        near * 4 >= online_wts.len()
    };
    match (ty, &mut *values) {
        (FunctionType::Regular, PredictiveValues::Discrete(vals)) if vals.len() == 1 => {
            let old = f64::from(vals[0]);
            let new = percentile(online_wts, 50.0).expect("non-empty online wts");
            if (new - old).abs() <= drift_threshold {
                return AdjustOutcome::Unchanged;
            }
            if live(vals[0]) && reference_echoes_value(new.round() as u32, vals[0], drift_threshold)
            {
                return AdjustOutcome::Unchanged;
            }
            let support = online_wts
                .iter()
                .filter(|&&wt| (f64::from(wt) - new).abs() <= drift_threshold)
                .count();
            if (support as f64) < 0.5 * online_wts.len() as f64 {
                return AdjustOutcome::Unchanged;
            }
            vals[0] = ((old + new) / 2.0).round() as u32;
            AdjustOutcome::Updated
        }
        (FunctionType::ApproRegular, PredictiveValues::Discrete(vals)) => {
            let fresh: Vec<u32> = modes::top_modes(online_wts, 3)
                .into_iter()
                .map(|m| m.value)
                .collect();
            let drifted = fresh.iter().any(|&nv| {
                vals.iter()
                    .all(|&ov| f64::from(nv.abs_diff(ov)) > drift_threshold)
            });
            if drifted && !fresh.is_empty() {
                *vals = fresh;
                AdjustOutcome::Updated
            } else {
                AdjustOutcome::Unchanged
            }
        }
        (FunctionType::Dense, PredictiveValues::Range(lo, hi)) => {
            let fresh = modes::top_modes(online_wts, 3);
            let new_lo = fresh.iter().map(|m| m.value).min().expect("non-empty");
            let new_hi = fresh.iter().map(|m| m.value).max().expect("non-empty");
            let bound_drifted = |nv: u32, ov: u32| f64::from(nv.abs_diff(ov)) > drift_threshold;
            if bound_drifted(new_lo, *lo) || bound_drifted(new_hi, *hi) {
                *lo = (f64::from(*lo) + f64::from(new_lo)).div_euclid(2.0).round() as u32;
                *hi = ((f64::from(*hi) + f64::from(new_hi)) / 2.0).round() as u32;
                if lo > hi {
                    std::mem::swap(lo, hi);
                }
                AdjustOutcome::Updated
            } else {
                AdjustOutcome::Unchanged
            }
        }
        (
            FunctionType::Possible | FunctionType::NewlyPossible,
            PredictiveValues::Discrete(vals),
        ) => {
            let mut changed = false;
            for v in modes::repeated_values(online_wts) {
                if vals.len() >= 5 {
                    break;
                }
                if !vals.contains(&v) {
                    vals.push(v);
                    changed = true;
                }
            }
            if changed {
                AdjustOutcome::Updated
            } else {
                AdjustOutcome::Unchanged
            }
        }
        _ => AdjustOutcome::Unchanged,
    }
}

/// Online WT buffers that reach every S2/S3 branch: small values make the
/// dense, appro-regular and possible rules fire, wide ones the regular and
/// no-match paths.
fn online_wts() -> impl Strategy<Value = Vec<u32>> {
    (
        0u8..2,
        prop::collection::vec(0u32..12, 0..=64),
        prop::collection::vec(1u32..2000, 0..=64),
    )
        .prop_map(|(pick, small, wide)| if pick == 0 { small } else { wide })
}

/// A `WtWindow` holding `wts` (at most the last 64 of them).
fn window_of(wts: &[u32]) -> WtWindow {
    wts.iter().copied().collect()
}

/// Push/clear sequences for `WtWindow`: `None` clears, and the pushed WTs
/// mix small values (duplicates), zero, values near `u32::MAX` and wide
/// ones. Up to 200 operations, so the window fills and evicts.
fn window_ops() -> impl Strategy<Value = Vec<Option<u32>>> {
    prop::collection::vec(
        (0u8..24, 0u32..12, 1u32..2000, 0u32..4).prop_map(|(pick, small, wide, below_max)| {
            match pick {
                0 => None,
                1 => Some(0),
                2 => Some(u32::MAX - below_max),
                3..=12 => Some(small),
                _ => Some(wide),
            }
        }),
        0..=200,
    )
}

fn wt_value() -> impl Strategy<Value = u32> {
    (0u8..2, 0u32..12, 1u32..2000)
        .prop_map(|(pick, small, wide)| if pick == 0 { small } else { wide })
}

/// Every function type, with predictive values of the shape the fit
/// gives it.
fn typed_values() -> impl Strategy<Value = (FunctionType, PredictiveValues)> {
    (
        0..FunctionType::ALL.len(),
        prop::collection::vec(wt_value(), 1..=8),
        wt_value(),
        wt_value(),
    )
        .prop_map(|(i, vals, a, b)| {
            let ty = FunctionType::ALL[i];
            let values = match ty {
                FunctionType::Regular => PredictiveValues::Discrete(vals[..1].to_vec()),
                FunctionType::ApproRegular => {
                    PredictiveValues::Discrete(vals.into_iter().take(3).collect())
                }
                FunctionType::Dense => PredictiveValues::Range(a.min(b), a.max(b)),
                FunctionType::Possible | FunctionType::NewlyPossible => {
                    PredictiveValues::Discrete(vals)
                }
                _ => PredictiveValues::None,
            };
            (ty, values)
        })
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
    // Cheap cases: enough of them that every S2/S3 branch, including the
    // regular blend's support test, is reached many times.
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn online_categorize_matches_the_reference(wts in online_wts()) {
        prop_assert_eq!(
            try_online_categorize(&window_of(&wts)),
            reference_try_online_categorize(&wts)
        );
    }

    #[test]
    fn adjust_values_matches_the_reference(
        (ty, values) in typed_values(),
        wts in online_wts(),
        offline_std in 0.0f64..20.0,
    ) {
        let mut got = values.clone();
        let mut want = values;
        let outcome = adjust_values(ty, &mut got, &window_of(&wts), offline_std);
        prop_assert_eq!(outcome, reference_adjust_values(ty, &mut want, &wts, offline_std));
        prop_assert_eq!(got, want);
    }

    /// The premise that lets SPES skip S2 until its WT buffer changes: a
    /// call that returns `Unchanged` leaves the values as they were, so a
    /// second call on the same buffer sees the same inputs and returns
    /// `Unchanged` again.
    #[test]
    fn unchanged_adjustment_is_a_fixed_point(
        (ty, values) in typed_values(),
        wts in online_wts(),
        offline_std in 0.0f64..20.0,
    ) {
        let window = window_of(&wts);
        let mut got = values.clone();
        if adjust_values(ty, &mut got, &window, offline_std) == AdjustOutcome::Unchanged {
            prop_assert_eq!(&got, &values);
            prop_assert_eq!(
                adjust_values(ty, &mut got, &window, offline_std),
                AdjustOutcome::Unchanged
            );
            prop_assert_eq!(got, values);
        }
    }

    /// A regular cadence `base` whose online buffer mixes the period with
    /// its chain echoes `m*base + (m - 1)`: the case the echo and support
    /// guards of the regular blend exist for.
    #[test]
    fn regular_blend_on_chain_mixtures_matches_the_reference(
        base in 1u32..700,
        skips in prop::collection::vec(1u32..=4, 0..=64),
        offline_std in 0.0f64..5.0,
    ) {
        let wts: Vec<u32> = skips.iter().map(|&m| m * base + (m - 1)).collect();
        let mut got = PredictiveValues::Discrete(vec![base]);
        let mut want = got.clone();
        let outcome = adjust_values(FunctionType::Regular, &mut got, &window_of(&wts), offline_std);
        prop_assert_eq!(
            outcome,
            reference_adjust_values(FunctionType::Regular, &mut want, &wts, offline_std)
        );
        prop_assert_eq!(got, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `WtWindow` against the buffer it replaced: a `Vec` that drops its
    /// oldest WT with `remove(0)` once it holds 64. After every push or
    /// clear the window's arrival order and sorted mirror equal the
    /// buffer and its sorted copy, and S2/S3 on the window equal the
    /// reference rules on the buffer.
    #[test]
    fn wt_window_matches_the_naive_buffer(
        ops in window_ops(),
        (ty, values) in typed_values(),
        offline_std in 0.0f64..20.0,
    ) {
        let mut window = WtWindow::new();
        let mut naive: Vec<u32> = Vec::new();
        for op in ops {
            match op {
                Some(wt) => {
                    window.push(wt);
                    if naive.len() == WT_WINDOW_CAPACITY {
                        naive.remove(0);
                    }
                    naive.push(wt);
                }
                None => {
                    window.clear();
                    naive.clear();
                }
            }
            prop_assert_eq!(window.arrival(), naive.as_slice());
            let mut sorted = naive.clone();
            sorted.sort_unstable();
            prop_assert_eq!(window.sorted(), sorted.as_slice());
            prop_assert_eq!(
                try_online_categorize(&window),
                reference_try_online_categorize(&naive)
            );
            let mut got = values.clone();
            let mut want = values.clone();
            prop_assert_eq!(
                adjust_values(ty, &mut got, &window, offline_std),
                reference_adjust_values(ty, &mut want, &naive, offline_std)
            );
            prop_assert_eq!(got, want);
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
        let merged = merge_adjacent(&wts);
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
        let a = categorize_deterministic(&s, 0, 800);
        let b = categorize_deterministic(&s, 0, 800);
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
        let cat = categorize_deterministic(&s, 0, end);
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
