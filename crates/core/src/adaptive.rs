//! Adaptive strategy application (Section IV-C1): adjusting predictive
//! values from online WTs and re-categorising unknown/unseen functions.
//!
//! * **S1** — online WTs are recorded during provision: the policy keeps a
//!   [`WtWindow`] per function, the most recent WTs in arrival order with
//!   a sorted mirror, so S2/S3 read medians, percentiles and mode tables
//!   off the mirror instead of sorting a copy per call.
//! * **S2** — once enough WTs accumulate, a predictive value whose online
//!   counterpart drifted beyond the offline standard deviation is updated
//!   to the mean of old and new (the paper's "regular" recipe; the other
//!   value-bearing types adopt the analogous update).
//! * **S3** — an unknown or unseen function whose fresh WTs satisfy one of
//!   the definitions is categorised accordingly; failing that, a repeated
//!   WT promotes it to "newly-possible".

use crate::categorize::{self, is_regular_with_sorted, ModeRules};
use crate::patterns::{Categorized, FunctionType, PredictiveValues};
use crate::window::WtWindow;
use spes_stats::percentile_sorted;

/// Number of online WTs required before adaptive updates fire ("if there
/// are enough WTs"; the paper gives no number). It also gates the S3
/// re-categorisation, in place of the offline
/// [`categorize::MIN_WT_SAMPLES`].
pub const ADJUST_MIN_SAMPLES: usize = 5;
/// Chain-echo awareness of the S2 *regular* drift test: a median within
/// the drift threshold of `m*v + (m-1)` for the known cadence `v` and a
/// skip multiple `m <= ADJUST_ECHO_HARMONICS` is attributed to intra-app
/// chaining (the child missed `m-1` parent firings) rather than to drift
/// — provided the old cadence is still the common case in the buffer —
/// so it cannot drag the single regular cadence toward the chain echo.
/// Values below 2 disable the echo test. Appro-regular and dense updates
/// are deliberately unguarded: they extend a set/range and chain echoes
/// are predictive there.
pub const ADJUST_ECHO_HARMONICS: u32 = 3;
/// Fraction of the online WT buffer that must sit within the drift
/// threshold of the new median before a "regular" blend fires. The median
/// of a bimodal chain-mixture buffer (parent period plus skip echoes)
/// interpolates between the clusters and is supported by neither;
/// requiring majority support rejects it.
pub const ADJUST_NEW_SUPPORT: f64 = 0.5;

/// Outcome of an S2 adjustment attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdjustOutcome {
    /// Nothing changed (not enough drift or not enough samples).
    Unchanged,
    /// Predictive values were updated.
    Updated,
}

/// Maximum size of a "possible" function's predictive-value set once it
/// grows online (the paper's possible functions use duplicated WTs only).
/// Offline-fitted sets may legitimately be larger; they are never shrunk,
/// only stopped from growing.
const POSSIBLE_VALUE_CAP: usize = 5;

/// Whether `wt` is explained by the chain echo of a known cadence `base`:
/// a chained child that misses `m - 1` consecutive parent firings waits
/// `m*base + (m - 1)` slots (each skipped period contributes `base + 1`
/// slots), so such WTs carry no drift information about the cadence
/// itself. Skip multiples up to [`ADJUST_ECHO_HARMONICS`] are tested.
fn echoes_value(wt: u32, base: u32, tol: f64) -> bool {
    (2..=ADJUST_ECHO_HARMONICS).any(|m| {
        let echo = f64::from(m) * f64::from(base) + f64::from(m - 1);
        (f64::from(wt) - echo).abs() <= tol
    })
}

/// How many of the ascending `sorted` WTs lie within `tol` of `centre`.
/// The distance `f64::from(wt) - centre` never decreases as `wt` grows, so
/// the WTs within `tol` form one run of `sorted`, bounded by two binary
/// searches.
fn count_near(sorted: &[u32], centre: f64, tol: f64) -> usize {
    let below = sorted.partition_point(|&wt| f64::from(wt) - centre < -tol);
    let through = sorted.partition_point(|&wt| f64::from(wt) - centre <= tol);
    through - below
}

/// Applies the S2 adjusting rule to one function's predictive values.
///
/// `offline_std` is the standard deviation of the training-window WTs; a
/// drift larger than it (with a floor of 1 slot) triggers the update.
///
/// The **regular** drift test is chain-aware: intra-app chained children
/// fire with WTs that mirror the parent's cadence, and when the chain
/// occasionally skips a firing the buffer becomes a mixture of the true
/// period and its skip echoes (`2p + 1`, `3p + 2`, ...). The regular
/// recipe blends its *single* cadence toward the median, so an
/// echo-contaminated median destroys the one value that still predicts
/// most invocations. Two guards prevent that: a median supported by less
/// than [`ADJUST_NEW_SUPPORT`] of the buffer (the
/// interpolated midpoint of a bimodal mixture) is ignored, and an
/// echo-valued median is ignored **while the old cadence is still the
/// common case in the buffer** — after a genuine shift onto a
/// near-harmonic period (`p -> 2p + 1`) the old period decays to a few
/// stragglers and the update proceeds.
///
/// The appro-regular and dense recipes are deliberately *not* guarded:
/// they extend a value set / range rather than moving a single point, and
/// for a thinned chain the echo slots are genuinely predictive (the child
/// really does wait `2p + 1` when it misses a parent firing), so adopting
/// them reduces cold starts.
pub fn adjust_values(
    ty: FunctionType,
    values: &mut PredictiveValues,
    online_wts: &WtWindow,
    offline_std: f64,
) -> AdjustOutcome {
    if online_wts.len() < ADJUST_MIN_SAMPLES {
        return AdjustOutcome::Unchanged;
    }
    let sorted = online_wts.sorted();
    let drift_threshold = offline_std.max(1.0);
    // Whether a known cadence is still the common case in the online
    // buffer (at least a quarter of it). Echo discounting only applies
    // while it is: a thinned chain keeps firing at the parent period so
    // its cadence stays dominant, whereas after a real shift the old
    // period decays to a few stragglers — however harmonic the new
    // period looks, the update must then proceed.
    let live = |base: u32| count_near(sorted, f64::from(base), drift_threshold) * 4 >= sorted.len();
    match (ty, &mut *values) {
        (FunctionType::Regular, PredictiveValues::Discrete(vals)) if vals.len() == 1 => {
            let old = f64::from(vals[0]);
            let new = percentile_sorted(sorted, 50.0);
            if (new - old).abs() <= drift_threshold {
                return AdjustOutcome::Unchanged;
            }
            if live(vals[0]) && echoes_value(new.round() as u32, vals[0], drift_threshold) {
                return AdjustOutcome::Unchanged;
            }
            // A chained child that sporadically misses parent firings has
            // a bimodal WT buffer (period + skip echoes) whose median
            // interpolates between the clusters; only blend toward a
            // cadence the buffer actually supports. A genuine concept
            // shift concentrates the buffer on the new period and passes.
            let support = count_near(sorted, new, drift_threshold);
            if (support as f64) < ADJUST_NEW_SUPPORT * sorted.len() as f64 {
                return AdjustOutcome::Unchanged;
            }
            vals[0] = ((old + new) / 2.0).round() as u32;
            AdjustOutcome::Updated
        }
        (FunctionType::ApproRegular, PredictiveValues::Discrete(vals)) => {
            let fresh = ModeRules::from_sorted(sorted).appro_modes();
            // A fresh mode counts as drift when it is far from every known
            // value. Chain echoes are allowed through on purpose: the
            // replacement keeps the dominant (parent-period) modes and the
            // echo slots it adds are genuinely predictive for a thinned
            // chain.
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
            let Some((new_lo, new_hi)) = ModeRules::from_sorted(sorted).dense_range() else {
                return AdjustOutcome::Unchanged;
            };
            let bound_drifted = |nv: u32, ov: u32| f64::from(nv.abs_diff(ov)) > drift_threshold;
            let drifted = bound_drifted(new_lo, *lo) || bound_drifted(new_hi, *hi);
            if drifted {
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
            let fresh = ModeRules::from_sorted(sorted).repeated_values();
            let mut changed = false;
            // Grow the value set up to the cap but never shrink it:
            // offline-fitted "possible" sets can legitimately hold far
            // more values, and truncating them on the first online
            // adjustment would destroy the predictive set wholesale.
            for v in fresh {
                if vals.len() >= POSSIBLE_VALUE_CAP {
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

/// S3: attempts to categorise an unknown/unseen function from its online
/// WTs. Checks the value-bearing definitions in priority order — regular
/// without slacking, then Table I's mode rules — and falls back to
/// "newly-possible" when only a repeated WT exists.
#[must_use]
pub fn try_online_categorize(online_wts: &WtWindow) -> Option<Categorized> {
    if online_wts.len() < ADJUST_MIN_SAMPLES {
        return None;
    }
    let sorted = online_wts.sorted();
    if is_regular_with_sorted(online_wts.arrival(), sorted) {
        return categorize::regular(sorted);
    }
    let rules = ModeRules::from_sorted(sorted);
    rules.categorize().or_else(|| {
        let repeated = rules.repeated_values();
        (!repeated.is_empty()).then(|| {
            Categorized::new(
                FunctionType::NewlyPossible,
                PredictiveValues::Discrete(repeated),
            )
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(wts: &[u32]) -> WtWindow {
        wts.iter().copied().collect()
    }

    #[test]
    fn regular_adjusts_on_drift() {
        let mut values = PredictiveValues::Discrete(vec![29]);
        // Online WTs now centre on 59 (period doubled).
        let online = vec![59, 59, 58, 59, 60];
        let out = adjust_values(FunctionType::Regular, &mut values, &window(&online), 0.5);
        assert_eq!(out, AdjustOutcome::Updated);
        assert_eq!(values, PredictiveValues::Discrete(vec![44])); // mean(29, 59)
    }

    #[test]
    fn regular_no_adjust_within_std() {
        let mut values = PredictiveValues::Discrete(vec![29]);
        let online = vec![29, 30, 29, 29, 30];
        let out = adjust_values(FunctionType::Regular, &mut values, &window(&online), 2.0);
        assert_eq!(out, AdjustOutcome::Unchanged);
        assert_eq!(values, PredictiveValues::Discrete(vec![29]));
    }

    #[test]
    fn too_few_samples_never_adjusts() {
        let mut values = PredictiveValues::Discrete(vec![29]);
        let out = adjust_values(FunctionType::Regular, &mut values, &window(&[99, 99]), 0.1);
        assert_eq!(out, AdjustOutcome::Unchanged);
    }

    #[test]
    fn appro_regular_replaces_modes_on_drift() {
        let mut values = PredictiveValues::Discrete(vec![3, 4, 5]);
        let online = vec![20, 21, 20, 21, 20, 21];
        let out = adjust_values(
            FunctionType::ApproRegular,
            &mut values,
            &window(&online),
            1.0,
        );
        assert_eq!(out, AdjustOutcome::Updated);
        match values {
            PredictiveValues::Discrete(v) => {
                assert!(v.contains(&20) && v.contains(&21));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dense_blends_range() {
        let mut values = PredictiveValues::Range(1, 3);
        let online = vec![8, 9, 8, 9, 10, 9];
        let out = adjust_values(FunctionType::Dense, &mut values, &window(&online), 1.0);
        assert_eq!(out, AdjustOutcome::Updated);
        match values {
            PredictiveValues::Range(lo, hi) => {
                assert!(lo >= 1 && hi <= 10 && lo <= hi, "[{lo}, {hi}]");
                // Blended towards the online values.
                assert!(hi > 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn regular_ignores_interpolated_chain_mixture_median() {
        // Chained child on a 704-slot parent cadence, thinned so the
        // buffer is a period/skip-echo mixture (1409 = 2*704 + 1). The
        // median interpolates between the clusters; no actual WT supports
        // it, so the blend must not fire.
        let mut values = PredictiveValues::Discrete(vec![704]);
        let online = vec![704, 1409, 704, 1409, 704, 1409];
        let out = adjust_values(FunctionType::Regular, &mut values, &window(&online), 2.0);
        assert_eq!(out, AdjustOutcome::Unchanged);
        assert_eq!(values, PredictiveValues::Discrete(vec![704]));
    }

    #[test]
    fn regular_ignores_echo_majority_while_cadence_live() {
        // Heavier thinning: echoes outnumber the period, so the median
        // lands on 2p + 1 with majority support — but the old cadence is
        // still the common case in the buffer, so the drift is chaining,
        // not a shift.
        let mut values = PredictiveValues::Discrete(vec![704]);
        let online = vec![1409, 1409, 1409, 1409, 1409, 704, 704, 704];
        let out = adjust_values(FunctionType::Regular, &mut values, &window(&online), 2.0);
        assert_eq!(out, AdjustOutcome::Unchanged);
        assert_eq!(values, PredictiveValues::Discrete(vec![704]));
    }

    #[test]
    fn regular_adjusts_on_genuine_shift_to_harmonic_period() {
        // The new period happens to be the chain echo of the old one, but
        // the old cadence has vanished from the buffer: that is a real
        // concept shift and must still blend.
        let mut values = PredictiveValues::Discrete(vec![704]);
        let online = vec![1409, 1409, 1409, 1409, 1409, 1409];
        let out = adjust_values(FunctionType::Regular, &mut values, &window(&online), 2.0);
        assert_eq!(out, AdjustOutcome::Updated);
        assert_eq!(values, PredictiveValues::Discrete(vec![1057])); // mean(704, 1409)
    }

    #[test]
    fn appro_regular_parent_echo_modes_not_spurious_drift() {
        // A chained appro-regular child whose value set already covers the
        // parent period and its skip echo: the same mixture online carries
        // no drift, so the set must not be reset.
        let mut values = PredictiveValues::Discrete(vec![10, 21]);
        let online = vec![10, 21, 10, 10, 21, 10];
        let out = adjust_values(
            FunctionType::ApproRegular,
            &mut values,
            &window(&online),
            1.0,
        );
        assert_eq!(out, AdjustOutcome::Unchanged);
        assert_eq!(values, PredictiveValues::Discrete(vec![10, 21]));
    }

    #[test]
    fn dense_parent_echo_tail_not_spurious_drift() {
        // A dense function with an occasional chain-echo straggler: the
        // straggler is too rare to make the top modes, so the range must
        // hold still.
        let mut values = PredictiveValues::Range(1, 4);
        let online = vec![1, 2, 3, 1, 2, 3, 9];
        let out = adjust_values(FunctionType::Dense, &mut values, &window(&online), 1.0);
        assert_eq!(out, AdjustOutcome::Unchanged);
        assert_eq!(values, PredictiveValues::Range(1, 4));
    }

    #[test]
    fn possible_never_truncates_offline_fitted_sets() {
        // Offline-fitted "possible" sets may hold many values; an online
        // adjustment must never shrink them (the old recipe truncated to
        // the first five, destroying the predictive set wholesale).
        let offline: Vec<u32> = vec![10, 20, 30, 40, 50, 60, 70];
        let mut values = PredictiveValues::Discrete(offline.clone());
        let online = vec![80, 80, 15, 80, 90];
        let out = adjust_values(FunctionType::Possible, &mut values, &window(&online), 1.0);
        assert_eq!(out, AdjustOutcome::Unchanged);
        assert_eq!(values, PredictiveValues::Discrete(offline));
    }

    #[test]
    fn possible_growth_stops_at_cap() {
        let mut values = PredictiveValues::Discrete(vec![10, 20, 30, 40]);
        let online = vec![80, 80, 90, 90, 95, 95];
        let out = adjust_values(FunctionType::Possible, &mut values, &window(&online), 1.0);
        assert_eq!(out, AdjustOutcome::Updated);
        match &values {
            PredictiveValues::Discrete(v) => {
                assert_eq!(v.len(), POSSIBLE_VALUE_CAP);
                assert_eq!(v[..4], [10, 20, 30, 40]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn possible_accumulates_new_repeated_values() {
        let mut values = PredictiveValues::Discrete(vec![100]);
        let online = vec![40, 40, 7, 40, 100];
        let out = adjust_values(FunctionType::Possible, &mut values, &window(&online), 1.0);
        assert_eq!(out, AdjustOutcome::Updated);
        match &values {
            PredictiveValues::Discrete(v) => assert!(v.contains(&40) && v.contains(&100)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn non_value_types_unchanged() {
        let mut values = PredictiveValues::None;
        let out = adjust_values(
            FunctionType::Successive,
            &mut values,
            &window(&[1, 1, 1, 1, 1]),
            1.0,
        );
        assert_eq!(out, AdjustOutcome::Unchanged);
    }

    #[test]
    fn online_categorize_regular() {
        let online = vec![29, 29, 29, 30, 29, 29];
        let c = try_online_categorize(&window(&online)).unwrap();
        assert_eq!(c.ty, FunctionType::Regular);
    }

    #[test]
    fn online_categorize_dense() {
        let online = vec![1, 3, 2, 4, 1, 2, 3, 1, 4, 2];
        let c = try_online_categorize(&window(&online)).unwrap();
        // Modes cover >= 90%? values 1,2,3 cover 8/10 = 0.8 < 0.9, so not
        // appro-regular; P90 <= 5 -> dense.
        assert_eq!(c.ty, FunctionType::Dense);
    }

    #[test]
    fn online_categorize_newly_possible() {
        let online = vec![500, 17, 500, 90, 2000];
        let c = try_online_categorize(&window(&online)).unwrap();
        assert_eq!(c.ty, FunctionType::NewlyPossible);
        assert_eq!(c.values, PredictiveValues::Discrete(vec![500]));
    }

    #[test]
    fn online_categorize_nothing() {
        assert!(try_online_categorize(&window(&[1, 900, 40, 7000, 23])).is_none());
        assert!(try_online_categorize(&window(&[5, 5])).is_none());
    }
}
