//! Deterministic function categorisation (Section IV-A, Table I).
//!
//! Definitions are checked from easy to difficult — always-warm, regular,
//! appro-regular, dense, successive — and the first match wins, exactly as
//! the paper prescribes ("if a function fits a former type, it will not
//! fit any latter type"). Every threshold the rules read is a named
//! constant below, and [`ModeRules`] implements rules 3–4 once for the
//! offline fit and the online strategies of [`crate::adaptive`].

use crate::patterns::{Categorized, FunctionType, PredictiveValues};
use crate::slacking;
use spes_stats::{coefficient_of_variation, mode_table_sorted, percentile_sorted, ModeEntry};
use spes_trace::{Sequences, Slot, SparseSeries};

/// "Always warm" alternative rule: the idle slots of the observing window
/// must be at most this fraction of it (paper: 1/1000).
pub const ALWAYS_WARM_IDLE_FRACTION: f64 = 1e-3;
/// "Regular" rule 1: `P95(WT) - P5(WT)` must be at most this (paper: 1).
pub const REGULAR_SPREAD_MAX: f64 = 1.0;
/// "Regular" rule 2: coefficient of variation of WTs at most this
/// (paper: 0.01).
pub const REGULAR_CV_MAX: f64 = 0.01;
/// Minimum number of WT observations before the regular, appro-regular
/// and dense rules apply offline. The paper gives no minimum; four WTs
/// are the fewest on which a spread, a CV or a 90% mode coverage says
/// anything.
pub const MIN_WT_SAMPLES: usize = 4;
/// "Appro-regular": number of top WT modes considered (the paper's `n`,
/// left unspecified; 3).
pub const APPRO_N_MODES: usize = 3;
/// "Appro-regular": required coverage of the top modes (paper: 0.9).
pub const APPRO_COVERAGE: f64 = 0.9;
/// "Dense": P90 of WTs must be at most this "small constant", in slots
/// (unspecified in the paper; 5).
pub const DENSE_P90_MAX: f64 = 5.0;
/// "Dense": number of top WT modes whose range forms the predictive
/// values (the paper's `k`, left unspecified; 3).
pub const DENSE_K_MODES: usize = 3;
/// "Successive": minimum active-run length γ1, in slots.
///
/// Table I prints both bounds (every active run at least γ1 slots long
/// *and* at least γ2 invocations heavy) while the prose joins them with
/// "or"; the rule here follows the prose: a function is successive when
/// every run is long **or** every run is heavy.
pub const SUCCESSIVE_MIN_AT: u32 = 3;
/// "Successive": minimum invocations per active run γ2 (γ1 < γ2).
pub const SUCCESSIVE_MIN_AN: u64 = 10;
/// Minimum number of active runs before the successive rule applies.
pub const SUCCESSIVE_MIN_RUNS: usize = 2;

const _: () = assert!(
    (SUCCESSIVE_MIN_AT as u64) < SUCCESSIVE_MIN_AN,
    "successive bounds require γ1 < γ2"
);

/// Whether a WT sequence satisfies the "regular" rule: the 5th-95th
/// percentile spread is at most [`REGULAR_SPREAD_MAX`] or the coefficient
/// of variation is at most [`REGULAR_CV_MAX`].
#[must_use]
pub fn is_regular_sequence(wts: &[u32]) -> bool {
    let mut sorted = wts.to_vec();
    sorted.sort_unstable();
    is_regular_with_sorted(wts, &sorted)
}

/// [`is_regular_sequence`] given `wts` together with its values in
/// ascending order: the percentiles read `sorted`, while the mean and
/// standard deviation sum `wts` in its own order, which fixes their
/// floating-point rounding.
#[must_use]
pub(crate) fn is_regular_with_sorted(wts: &[u32], sorted: &[u32]) -> bool {
    if wts.len() < MIN_WT_SAMPLES {
        return false;
    }
    percentile_sorted(sorted, 95.0) - percentile_sorted(sorted, 5.0) <= REGULAR_SPREAD_MAX
        || coefficient_of_variation(wts) <= REGULAR_CV_MAX
}

/// Applies the "regular" definition with the two slacking fallbacks
/// (trim, then merge-adjacent). Returns the processed WT sequence that
/// passed, so the caller derives the predictive value from it.
#[must_use]
pub fn regular_with_slack(wts: &[u32]) -> Option<Vec<u32>> {
    if is_regular_sequence(wts) {
        return Some(wts.to_vec());
    }
    if let Some(trimmed) = slacking::trim_ends(wts) {
        if is_regular_sequence(&trimmed) {
            return Some(trimmed);
        }
    }
    let merged = slacking::merge_adjacent(wts);
    if merged.len() != wts.len() && is_regular_sequence(&merged) {
        return Some(merged);
    }
    None
}

/// The "regular" outcome for a WT sequence that passed the rule, given
/// in ascending order: its rounded median is the single predictive
/// value. `None` only for an empty sequence.
#[must_use]
pub fn regular(sorted: &[u32]) -> Option<Categorized> {
    if sorted.is_empty() {
        return None;
    }
    let median = percentile_sorted(sorted, 50.0).round() as u32;
    Some(Categorized::new(
        FunctionType::Regular,
        PredictiveValues::Discrete(vec![median]),
    ))
}

/// Table I's two mode rules over one WT sequence, read off one mode
/// table: rule 3 (appro-regular) and rule 4 (dense). Offline
/// categorisation, the S3 online re-categorisation and the S2
/// appro-regular/dense/possible updates all derive their values here.
#[derive(Debug, Clone)]
pub struct ModeRules<'a> {
    /// The WTs in ascending order.
    sorted: &'a [u32],
    /// Modes by descending count, ties by ascending value.
    table: Vec<ModeEntry>,
}

impl<'a> ModeRules<'a> {
    /// Builds the mode table of a WT sequence given in ascending order.
    #[must_use]
    pub fn from_sorted(sorted: &'a [u32]) -> Self {
        Self {
            sorted,
            table: mode_table_sorted(sorted),
        }
    }

    /// Rule 3's predictive values: the top [`APPRO_N_MODES`] modes, most
    /// frequent first.
    #[must_use]
    pub fn appro_modes(&self) -> Vec<u32> {
        self.table
            .iter()
            .take(APPRO_N_MODES)
            .map(|m| m.value)
            .collect()
    }

    /// Rule 4's predictive values: the range spanned by the top
    /// [`DENSE_K_MODES`] modes; `None` for an empty sequence.
    #[must_use]
    pub fn dense_range(&self) -> Option<(u32, u32)> {
        let top = || self.table.iter().take(DENSE_K_MODES).map(|m| m.value);
        Some((top().min()?, top().max()?))
    }

    /// The "possible" predictive values: every WT occurring more than
    /// once, most frequent first.
    #[must_use]
    pub fn repeated_values(&self) -> Vec<u32> {
        self.table
            .iter()
            .take_while(|m| m.count > 1)
            .map(|m| m.value)
            .collect()
    }

    /// Rules 3 then 4: appro-regular when the top modes cover
    /// [`APPRO_COVERAGE`] of the WTs, otherwise dense when `P90(WT)` is at
    /// most [`DENSE_P90_MAX`], otherwise `None`. The caller enforces its
    /// own sample minimum first.
    #[must_use]
    pub fn categorize(&self) -> Option<Categorized> {
        let coverage: usize = self.table.iter().take(APPRO_N_MODES).map(|m| m.count).sum();
        if coverage as f64 >= APPRO_COVERAGE * self.sorted.len() as f64 {
            return Some(Categorized::new(
                FunctionType::ApproRegular,
                PredictiveValues::Discrete(self.appro_modes()),
            ));
        }
        if !self.sorted.is_empty() && percentile_sorted(self.sorted, 90.0) <= DENSE_P90_MAX {
            let (lo, hi) = self.dense_range()?;
            return Some(Categorized::new(
                FunctionType::Dense,
                PredictiveValues::Range(lo, hi),
            ));
        }
        None
    }
}

/// Categorises one function from its invocation history in
/// `[start, end)`. Returns `None` when none of the five deterministic
/// definitions matches (the function proceeds to indeterminate
/// assignment, Section IV-B).
#[must_use]
pub fn categorize_deterministic(
    series: &SparseSeries,
    start: Slot,
    end: Slot,
) -> Option<Categorized> {
    if end <= start {
        return None;
    }
    let window = u64::from(end - start);
    let active = series.events_in(start, end).len() as u64;
    if active == 0 {
        return None;
    }

    // 1. Always warm: invoked at every slot, or idle for at most a
    // thousandth of the observing window. We count *all* idle slots
    // (including leading/trailing ones) so that a briefly-seen function
    // cannot masquerade as always-warm.
    let idle = window - active;
    if active == window || (idle as f64) <= ALWAYS_WARM_IDLE_FRACTION * window as f64 {
        return Some(Categorized::plain(FunctionType::AlwaysWarm));
    }

    let seq = Sequences::extract(series, start, end);

    // 2. Regular (with slacking).
    if let Some(mut processed) = regular_with_slack(&seq.wt) {
        processed.sort_unstable();
        return regular(&processed);
    }

    // 3-4. Approximatively regular, then dense.
    if seq.wt.len() >= MIN_WT_SAMPLES {
        let mut sorted = seq.wt.clone();
        sorted.sort_unstable();
        if let Some(cat) = ModeRules::from_sorted(&sorted).categorize() {
            return Some(cat);
        }
    }

    // 5. Successive: every active run is long (>= γ1 slots) or heavy
    // (>= γ2 invocations); see [`SUCCESSIVE_MIN_AT`] for the reading.
    if seq.at.len() >= SUCCESSIVE_MIN_RUNS {
        let min_at = seq.at.iter().copied().min().unwrap_or(0);
        let min_an = seq.an.iter().copied().min().unwrap_or(0);
        if min_at >= SUCCESSIVE_MIN_AT || min_an >= SUCCESSIVE_MIN_AN {
            return Some(Categorized::plain(FunctionType::Successive));
        }
    }

    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series_every(period: Slot, end: Slot) -> SparseSeries {
        SparseSeries::from_pairs((0..end).step_by(period as usize).map(|s| (s, 1)).collect())
    }

    fn dense_series(end: Slot) -> SparseSeries {
        // Invoked at every slot except every 7th -> WTs of 1, P90 = 1.
        SparseSeries::from_pairs((0..end).filter(|s| s % 7 != 0).map(|s| (s, 2)).collect())
    }

    #[test]
    fn empty_series_uncategorised() {
        let s = SparseSeries::new();
        assert!(categorize_deterministic(&s, 0, 100).is_none());
    }

    #[test]
    fn every_slot_is_always_warm() {
        let s = series_every(1, 500);
        let c = categorize_deterministic(&s, 0, 500).unwrap();
        assert_eq!(c.ty, FunctionType::AlwaysWarm);
        assert!(c.values.is_none());
    }

    #[test]
    fn tiny_idle_fraction_is_always_warm() {
        // 10,000 slots, idle at ~0.1%: 10 idle slots spread out.
        let pairs: Vec<(Slot, u32)> = (0..10_000)
            .filter(|s| s % 1000 != 0)
            .map(|s| (s, 1))
            .collect();
        let s = SparseSeries::from_pairs(pairs);
        let c = categorize_deterministic(&s, 0, 10_000).unwrap();
        assert_eq!(c.ty, FunctionType::AlwaysWarm);
    }

    #[test]
    fn single_invocation_is_not_always_warm() {
        let s = SparseSeries::from_pairs(vec![(5, 1)]);
        assert!(categorize_deterministic(&s, 0, 10_000).is_none());
    }

    #[test]
    fn periodic_is_regular_with_median() {
        let s = series_every(30, 3000);
        let c = categorize_deterministic(&s, 0, 3000).unwrap();
        assert_eq!(c.ty, FunctionType::Regular);
        assert_eq!(c.values, PredictiveValues::Discrete(vec![29]));
    }

    #[test]
    fn regular_via_trim() {
        // Constant WTs except a deviant first and last entry. The sequence
        // is short enough that the P5/P95 interpolation cannot hide the
        // outliers (long sequences absorb <5% outliers by design).
        let wts = vec![100u32, 29, 29, 29, 29, 29, 29, 3];
        assert!(!is_regular_sequence(&wts));
        let processed = regular_with_slack(&wts).unwrap();
        assert_eq!(processed, vec![29; 6]);
    }

    #[test]
    fn regular_via_merge() {
        // The paper's merge example padded to satisfy the sample minimum.
        let wts = vec![1439, 1438, 1, 1439, 1438, 1, 1439, 1438, 1];
        let processed = regular_with_slack(&wts).unwrap();
        assert!(processed.iter().all(|&w| w == 1439));
    }

    #[test]
    fn appro_regular_three_modes() {
        // Gaps alternating 3/4/5 (WTs 2/3/4) -> top-3 modes cover all.
        let mut pairs = Vec::new();
        let mut slot = 0;
        for i in 0..60 {
            pairs.push((slot, 1));
            slot += 3 + (i % 3);
        }
        let s = SparseSeries::from_pairs(pairs);
        let c = categorize_deterministic(&s, 0, slot + 1).unwrap();
        assert_eq!(c.ty, FunctionType::ApproRegular);
        match c.values {
            PredictiveValues::Discrete(v) => {
                let mut v = v;
                v.sort_unstable();
                assert_eq!(v, vec![2, 3, 4]);
            }
            other => panic!("unexpected values {other:?}"),
        }
    }

    #[test]
    fn dense_small_wts() {
        let s = dense_series(2000);
        let c = categorize_deterministic(&s, 0, 2000).unwrap();
        // All WTs are exactly 1 -> CV = 0 -> caught by the *regular* rule
        // first, by priority. Widen the gaps to make it dense instead.
        assert_eq!(c.ty, FunctionType::Regular);

        // Irregular small gaps: WT values {1, 2, 3, 4} mixed.
        let mut pairs = Vec::new();
        let mut slot = 0u32;
        for i in 0..200u32 {
            pairs.push((slot, 1));
            slot += 2 + (i * i + i / 3) % 4; // gaps 2-5 in a scrambled order
        }
        let s = SparseSeries::from_pairs(pairs);
        let c = categorize_deterministic(&s, 0, slot + 1).unwrap();
        assert_eq!(c.ty, FunctionType::Dense);
        match c.values {
            PredictiveValues::Range(lo, hi) => {
                assert!(lo >= 1 && hi <= 4 && lo < hi, "range [{lo}, {hi}]");
            }
            other => panic!("unexpected values {other:?}"),
        }
    }

    #[test]
    fn successive_long_bursts() {
        // Bursts of 5 consecutive slots separated by long scrambled gaps.
        let mut pairs = Vec::new();
        let mut slot = 0u32;
        for i in 0..10u32 {
            for j in 0..5 {
                pairs.push((slot + j, 1));
            }
            slot += 5 + 200 + (i * 97) % 400;
        }
        let s = SparseSeries::from_pairs(pairs);
        let c = categorize_deterministic(&s, 0, slot + 1).unwrap();
        assert_eq!(c.ty, FunctionType::Successive);
    }

    #[test]
    fn successive_heavy_single_slot_bursts_via_an() {
        // One-slot bursts of 50 invocations: min(AT) = 1 < γ1 but
        // min(AN) = 50 >= γ2 -> successive under the OR rule.
        let mut pairs = Vec::new();
        let mut slot = 0u32;
        for i in 0..8u32 {
            pairs.push((slot, 50));
            slot += 150 + (i * 131) % 300;
        }
        let s = SparseSeries::from_pairs(pairs);
        let c = categorize_deterministic(&s, 0, slot + 1).unwrap();
        assert_eq!(c.ty, FunctionType::Successive);
    }

    #[test]
    fn irregular_rare_function_uncategorised() {
        // A handful of invocations at wildly varying gaps with light bursts.
        let s = SparseSeries::from_pairs(vec![(0, 1), (50, 1), (51, 1), (700, 1), (3000, 1)]);
        assert!(categorize_deterministic(&s, 0, 5000).is_none());
    }

    #[test]
    fn priority_regular_beats_appro() {
        // A perfectly periodic function also satisfies the appro-regular
        // coverage rule; priority must give "regular".
        let s = series_every(10, 1000);
        let c = categorize_deterministic(&s, 0, 1000).unwrap();
        assert_eq!(c.ty, FunctionType::Regular);
    }

    #[test]
    fn window_restriction_changes_outcome() {
        // Periodic only within the first half, then silent: the full
        // window has a giant final gap (still regular via trim? no --
        // trailing idle is not a WT), so both windows say regular.
        let s = series_every(20, 1000);
        let full = categorize_deterministic(&s, 0, 2000).unwrap();
        assert_eq!(full.ty, FunctionType::Regular);
        let first_half = categorize_deterministic(&s, 0, 1000).unwrap();
        assert_eq!(first_half.ty, FunctionType::Regular);
        // A window covering only silence finds nothing.
        assert!(categorize_deterministic(&s, 1000, 2000).is_none());
    }
}
