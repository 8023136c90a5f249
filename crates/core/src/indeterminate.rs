//! Indeterminate function assignment (Section IV-B2).
//!
//! Functions that fail the five deterministic definitions (even after
//! forgetting) are scored against three candidate strategies on a
//! validation suffix of the training window:
//!
//! * **D1 pulsed** — tolerate a cold start per flurry, keep the instance
//!   warm for the pulsed give-up threshold after each invocation.
//! * **D2 correlated** — pre-load the function whenever a linked function
//!   (T-lagged COR >= threshold, sharing the app/user) is invoked.
//! * **D3 possible** — use repeated WT values as predictive values and
//!   pre-warm around the implied times.
//!
//! If one strategy wins on both cold starts and wasted memory it is
//! chosen outright; otherwise the paper's α rise-rate rule arbitrates.
//! Functions with no validation-window invocations stay "unknown".

use crate::config::SpesConfig;
use crate::correlation::Link;
use crate::patterns::{Categorized, FunctionType, PredictiveValues};
use crate::provision::{THETA_GIVENUP_DEFAULT, THETA_GIVENUP_PULSED};
use spes_trace::{Slot, SparseSeries, SLOTS_PER_DAY};

/// Rise-rate scaling factor α in (0, 1); smaller weights cold starts more
/// heavily (Section IV-B2; the paper leaves the value open, 0.5 weighs
/// both rise rates equally).
pub const ALPHA: f64 = 0.5;
/// Length of the validation suffix of the training window, in slots, used
/// to score the pulsed/correlated/possible strategies (two days).
pub const VALIDATION_SLOTS: Slot = 2 * SLOTS_PER_DAY;

const _: () = assert!(ALPHA > 0.0 && ALPHA < 1.0, "α must lie in (0, 1)");

/// Cold-start / wasted-memory score of one strategy on the validation
/// window. Lower is better on both axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrategyScore {
    /// Cold starts incurred.
    pub cold_starts: u64,
    /// Wasted (loaded-but-idle) slots incurred.
    pub wasted: u64,
}

/// Scores the pulsed strategy: keep the instance loaded for `keep_alive`
/// slots after every invocation.
#[must_use]
pub fn score_pulsed(
    series: &SparseSeries,
    vstart: Slot,
    vend: Slot,
    keep_alive: u32,
) -> StrategyScore {
    let events = series.events_in(vstart, vend);
    let mut cold = 0u64;
    let mut wasted = 0u64;
    let mut last: Option<Slot> = None;
    for &(s, _) in events {
        match last {
            None => cold += 1,
            Some(prev) => {
                let gap = s - prev - 1;
                if gap <= keep_alive {
                    wasted += u64::from(gap);
                } else {
                    wasted += u64::from(keep_alive);
                    cold += 1;
                }
            }
        }
        last = Some(s);
    }
    if let Some(prev) = last {
        // Trailing keep-alive at the window end.
        wasted += u64::from(keep_alive.min(vend - prev - 1));
    }
    StrategyScore {
        cold_starts: cold,
        wasted,
    }
}

/// Scores the possible strategy: `values` are candidate WTs; an
/// invocation with actual gap `g` is warm when some value is within
/// `theta_prewarm` of `g` (the pre-load window would cover it) or when
/// the gap is within the default give-up threshold. Each prediction
/// attempt costs up to a `2 * theta_prewarm + 1` slot window of idle
/// memory (an upper bound; overlapping windows are not merged).
#[must_use]
pub fn score_possible(
    values: &[u32],
    series: &SparseSeries,
    vstart: Slot,
    vend: Slot,
    config: &SpesConfig,
) -> StrategyScore {
    let theta = config.theta_prewarm;
    let keep = THETA_GIVENUP_DEFAULT;
    let events = series.events_in(vstart, vend);
    let mut cold = 0u64;
    let mut wasted = 0u64;
    let mut last: Option<Slot> = None;
    for &(s, _) in events {
        match last {
            None => cold += 1,
            Some(prev) => {
                let gap = s - prev - 1;
                let predicted_hit = values.iter().any(|&v| v.abs_diff(gap) <= theta);
                if gap <= keep {
                    wasted += u64::from(gap);
                } else if predicted_hit {
                    // Loaded from the window start until the invocation.
                    wasted += u64::from(theta);
                } else {
                    cold += 1;
                    wasted += u64::from(keep);
                }
                // Mis-predicted values each burn their whole window.
                for &v in values {
                    if v.abs_diff(gap) > theta && prev + v + 1 < vend {
                        wasted += u64::from(2 * theta + 1);
                    }
                }
            }
        }
        last = Some(s);
    }
    StrategyScore {
        cold_starts: cold,
        wasted,
    }
}

/// Scores the correlated strategy: each linked candidate's invocations
/// pre-load the target, which is then held for that link's hold window
/// (its discovered lag plus the pre-warm margin). A target invocation is
/// warm when some linked candidate fired within its hold window; every
/// candidate-triggered hold contributes its idle slots.
#[must_use]
pub fn score_correlated(
    target: &SparseSeries,
    linked: &[(&SparseSeries, u32)],
    vstart: Slot,
    vend: Slot,
) -> StrategyScore {
    let events = target.events_in(vstart, vend);
    let mut cold = 0u64;
    for &(s, _) in events {
        let covered = linked.iter().any(|&(cand, hold)| {
            let lo = s.saturating_sub(hold);
            !cand.events_in(lo, s + 1).is_empty()
        });
        if !covered {
            cold += 1;
        }
    }
    // Wasted memory: for every candidate invocation, the target is held
    // for the link's hold window; slots where the target actually ran are
    // useful.
    let mut wasted = 0u64;
    for &(cand, hold) in linked {
        for &(c, _) in cand.events_in(vstart, vend) {
            let span_end = (c + hold + 1).min(vend);
            let useful = target.events_in(c, span_end).len() as u64;
            let span = u64::from(span_end - c);
            wasted += span.saturating_sub(useful);
        }
    }
    StrategyScore {
        cold_starts: cold,
        wasted,
    }
}

/// Outcome of indeterminate assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// The categorisation (pulsed / correlated / possible / unknown).
    pub categorized: Categorized,
    /// The links retained when the outcome is "correlated".
    pub links: Vec<Link>,
}

/// Assigns an indeterminate function to pulsed / correlated / possible
/// via validation scoring and the α rise-rate rule, or leaves it unknown
/// when it was never invoked during validation.
///
/// `link_series` resolves a link's candidate index to its series (links
/// were discovered by the caller over same-app/user functions).
pub fn assign_indeterminate<'a, F>(
    series: &SparseSeries,
    train_start: Slot,
    train_end: Slot,
    links: Vec<Link>,
    link_series: F,
    config: &SpesConfig,
) -> Assignment
where
    F: Fn(usize) -> &'a SparseSeries,
{
    let vstart = train_end.saturating_sub(VALIDATION_SLOTS).max(train_start);
    let vend = train_end;

    if series.events_in(vstart, vend).is_empty() {
        return Assignment {
            categorized: Categorized::plain(FunctionType::Unknown),
            links: Vec::new(),
        };
    }

    // Candidate strategies and their scores.
    let d1 = score_pulsed(series, vstart, vend, THETA_GIVENUP_PULSED);

    let possible_values = spes_stats::modes::repeated_values(
        &spes_trace::Sequences::waiting_times(series, train_start, vend),
    );
    let d3 = (!possible_values.is_empty())
        .then(|| score_possible(&possible_values, series, vstart, vend, config));

    let linked_series: Vec<(&SparseSeries, u32)> = links
        .iter()
        .map(|l| (link_series(l.candidate), l.lag + config.theta_prewarm))
        .collect();
    let d2 = (config.enable_correlated && !links.is_empty())
        .then(|| score_correlated(series, &linked_series, vstart, vend));

    let mut options: Vec<(FunctionType, StrategyScore)> = vec![(FunctionType::Pulsed, d1)];
    if let Some(score) = d2 {
        options.push((FunctionType::Correlated, score));
    }
    if let Some(score) = d3 {
        options.push((FunctionType::Possible, score));
    }

    let choice = choose_strategy(&options, ALPHA);
    let categorized = match choice {
        FunctionType::Possible => Categorized::new(
            FunctionType::Possible,
            PredictiveValues::Discrete(possible_values),
        ),
        ty => Categorized::plain(ty),
    };
    let links = if choice == FunctionType::Correlated {
        links
    } else {
        Vec::new()
    };
    Assignment { categorized, links }
}

/// Applies the paper's selection rule over the scored strategies: a
/// strategy minimal in both cold starts and wasted memory wins outright;
/// otherwise the rise rates between the cold-start winner and the
/// wasted-memory winner are compared with scaling factor α
/// (`∆cs × α <= ∆wm` assigns the cold-start winner).
#[must_use]
pub fn choose_strategy(options: &[(FunctionType, StrategyScore)], alpha: f64) -> FunctionType {
    assert!(!options.is_empty(), "no strategies to choose from");
    #[expect(clippy::unwrap_used, reason = "options is asserted non-empty above")]
    let min_cs = options.iter().map(|&(_, s)| s.cold_starts).min().unwrap();
    #[expect(clippy::unwrap_used, reason = "options is asserted non-empty above")]
    let min_wm = options.iter().map(|&(_, s)| s.wasted).min().unwrap();
    if let Some(&(ty, _)) = options
        .iter()
        .find(|&&(_, s)| s.cold_starts == min_cs && s.wasted == min_wm)
    {
        return ty;
    }
    #[expect(clippy::expect_used, reason = "options is asserted non-empty above")]
    let (cs_ty, cs_score) = *options
        .iter()
        .min_by_key(|&&(_, s)| (s.cold_starts, s.wasted))
        .expect("non-empty");
    #[expect(clippy::expect_used, reason = "options is asserted non-empty above")]
    let (wm_ty, wm_score) = *options
        .iter()
        .min_by_key(|&&(_, s)| (s.wasted, s.cold_starts))
        .expect("non-empty");
    // Rise in cold starts when switching to the memory winner, and rise in
    // wasted memory when staying with the cold-start winner. Zero
    // denominators are clamped to 1 (the paper does not define this case).
    let d_cs = (wm_score.cold_starts.saturating_sub(cs_score.cold_starts)) as f64
        / cs_score.cold_starts.max(1) as f64;
    let d_wm =
        (cs_score.wasted.saturating_sub(wm_score.wasted)) as f64 / wm_score.wasted.max(1) as f64;
    if d_cs * alpha <= d_wm {
        cs_ty
    } else {
        wm_ty
    }
}

#[cfg(test)]
#[expect(clippy::unreachable, reason = "two tests' scorers are never called")]
mod tests {
    use super::*;

    fn series(slots: &[Slot]) -> SparseSeries {
        SparseSeries::from_pairs(slots.iter().map(|&s| (s, 1)).collect())
    }

    fn cfg() -> SpesConfig {
        SpesConfig::default()
    }

    #[test]
    fn pulsed_score_counts_flurries() {
        // Flurry at 10-11, then 100. Keep-alive 5.
        let s = series(&[10, 11, 100]);
        let score = score_pulsed(&s, 0, 200, 5);
        // Cold at 10; 11 is warm (gap 0); 100 cold (gap 88 > 5).
        assert_eq!(score.cold_starts, 2);
        // Wasted: keep-alive 5 after flurry + trailing 5 after 100.
        assert_eq!(score.wasted, 10);
    }

    #[test]
    fn pulsed_score_short_gap_is_warm() {
        let s = series(&[10, 13]);
        let score = score_pulsed(&s, 0, 100, 5);
        assert_eq!(score.cold_starts, 1);
        // Gap of 2 idle slots stayed loaded + trailing 5.
        assert_eq!(score.wasted, 7);
    }

    #[test]
    fn pulsed_empty_window() {
        let s = series(&[500]);
        let score = score_pulsed(&s, 0, 100, 5);
        assert_eq!(
            score,
            StrategyScore {
                cold_starts: 0,
                wasted: 0
            }
        );
    }

    #[test]
    fn possible_score_rewards_correct_values() {
        // Gaps of exactly 49 idle slots; predictive value 49.
        let s = series(&[0, 50, 100, 150]);
        let good = score_possible(&[49], &s, 0, 200, &cfg());
        // Only the first invocation is cold.
        assert_eq!(good.cold_starts, 1);
        let bad = score_possible(&[10], &s, 0, 200, &cfg());
        assert!(bad.cold_starts > good.cold_starts);
    }

    #[test]
    fn possible_score_wrong_values_waste_memory() {
        let s = series(&[0, 50, 100]);
        let wrong = score_possible(&[10, 20, 30], &s, 0, 200, &cfg());
        let right = score_possible(&[49], &s, 0, 200, &cfg());
        assert!(wrong.wasted > right.wasted);
    }

    #[test]
    fn correlated_score_perfect_chain() {
        let cand = series(&[10, 50, 90]);
        let target = series(&[12, 52, 92]);
        let score = score_correlated(&target, &[(&cand, 4)], 0, 100);
        assert_eq!(score.cold_starts, 0);
        // Each hold spans 5 slots with 1 useful slot; the last span is
        // clipped by the window end to 5 as well: 3 * (5 - 1) = 12.
        assert_eq!(score.wasted, 12);
    }

    #[test]
    fn correlated_score_uncovered_invocations_cold() {
        let cand = series(&[10]);
        let target = series(&[12, 80]);
        let score = score_correlated(&target, &[(&cand, 10)], 0, 100);
        assert_eq!(score.cold_starts, 1);
    }

    #[test]
    fn choose_strategy_double_winner() {
        let options = vec![
            (
                FunctionType::Pulsed,
                StrategyScore {
                    cold_starts: 1,
                    wasted: 5,
                },
            ),
            (
                FunctionType::Possible,
                StrategyScore {
                    cold_starts: 3,
                    wasted: 9,
                },
            ),
        ];
        assert_eq!(choose_strategy(&options, 0.5), FunctionType::Pulsed);
    }

    #[test]
    fn choose_strategy_rise_rate_favors_cold_start_winner_with_small_alpha() {
        // Pulsed: 2 cold / 100 wasted. Possible: 4 cold / 50 wasted.
        // d_cs = (4-2)/2 = 1.0, d_wm = (100-50)/50 = 1.0.
        let options = vec![
            (
                FunctionType::Pulsed,
                StrategyScore {
                    cold_starts: 2,
                    wasted: 100,
                },
            ),
            (
                FunctionType::Possible,
                StrategyScore {
                    cold_starts: 4,
                    wasted: 50,
                },
            ),
        ];
        // alpha 0.5: 0.5 * 1.0 <= 1.0 -> cold-start winner (pulsed).
        assert_eq!(choose_strategy(&options, 0.5), FunctionType::Pulsed);
        // With the wasted gap shrunk, the memory winner prevails.
        let options2 = vec![
            (
                FunctionType::Pulsed,
                StrategyScore {
                    cold_starts: 2,
                    wasted: 60,
                },
            ),
            (
                FunctionType::Possible,
                StrategyScore {
                    cold_starts: 40,
                    wasted: 50,
                },
            ),
        ];
        // d_cs = 19, d_wm = 0.2: 0.5 * 19 > 0.2 -> memory winner.
        assert_eq!(choose_strategy(&options2, 0.5), FunctionType::Possible);
    }

    #[test]
    fn assign_never_invoked_in_validation_is_unknown() {
        let s = series(&[10]); // invoked long before the validation suffix
        let config = cfg();
        let a = assign_indeterminate(&s, 0, 20_000, Vec::new(), |_| unreachable!(), &config);
        assert_eq!(a.categorized.ty, FunctionType::Unknown);
    }

    #[test]
    fn assign_repeating_gap_becomes_possible() {
        // Gap 499 repeated throughout training including validation.
        let slots: Vec<Slot> = (0..40).map(|i| i * 500).collect();
        let s = series(&slots);
        let config = cfg();
        let a = assign_indeterminate(&s, 0, 20_000, Vec::new(), |_| unreachable!(), &config);
        assert_eq!(a.categorized.ty, FunctionType::Possible);
        match &a.categorized.values {
            PredictiveValues::Discrete(v) => assert!(v.contains(&499)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn assign_correlated_when_linked_and_winning() {
        // Target fires 2 slots after its candidate, bursts are one slot,
        // gaps irregular so neither pulsed nor possible scores well.
        let cand_slots: Vec<Slot> = vec![
            17_500, 17_630, 17_890, 18_200, 18_460, 18_900, 19_300, 19_700, 20_050,
        ];
        let target_slots: Vec<Slot> = cand_slots.iter().map(|&s| s + 2).collect();
        let cand = series(&cand_slots);
        let target = series(&target_slots);
        let links = vec![Link {
            candidate: 0,
            lag: 2,
            cor: 1.0,
        }];
        let config = cfg();
        let a = assign_indeterminate(&target, 0, 20_160, links, |_| &cand, &config);
        assert_eq!(a.categorized.ty, FunctionType::Correlated);
        assert_eq!(a.links.len(), 1);
    }

    #[test]
    fn ablation_disables_correlated() {
        let cand = series(&[19_000]);
        let target = series(&[19_002]);
        let links = vec![Link {
            candidate: 0,
            lag: 2,
            cor: 1.0,
        }];
        let config = SpesConfig {
            enable_correlated: false,
            ..cfg()
        };
        let a = assign_indeterminate(&target, 0, 20_160, links, |_| &cand, &config);
        assert_ne!(a.categorized.ty, FunctionType::Correlated);
        assert!(a.links.is_empty());
    }
}
