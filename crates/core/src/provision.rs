//! The SPES provisioning policy: offline fitting plus the online
//! Algorithm 1 of the paper.
//!
//! **Offline** ([`SpesPolicy::fit`]): every function with training history
//! runs through deterministic categorisation (Section IV-A), then the
//! forgetting re-check (IV-B1), then indeterminate assignment via
//! validation scoring (IV-B2); functions silent during validation stay
//! "unknown". T-lagged-COR links against same-app/user candidates feed the
//! "correlated" strategy.
//!
//! **Online** (the [`Policy`] impl): per minute, invoked functions update
//! their waiting-time state and predictive values (adaptive adjusting,
//! IV-C1), schedule pre-warm windows from their predicted next invocation
//! (IV-D), trigger correlated pre-loads, and feed the online-correlation
//! tracker for unseen functions (IV-C2); loaded-but-idle instances are
//! evicted once their idle time exceeds the per-type give-up threshold
//! unless a pre-warm window holds them.

use crate::adaptive::{self, AdjustOutcome};
use crate::categorize::categorize_deterministic;
use crate::config::SpesConfig;
use crate::correlation::{best_lagged_cor, Link};
use crate::forgetting::forget_and_recheck;
use crate::indeterminate::assign_indeterminate;
use crate::online_corr::{
    OnlineCorrelation, ONLINE_CORR_MAX_CANDIDATES, ONLINE_CORR_MAX_CANDIDATE_RATE,
};
use crate::patterns::{Categorized, FunctionType, PredictiveValues};
use crate::window::WtWindow;
use spes_sim::{Agenda, Holds, MemoryPool, Policy};
use spes_stats::stddev;
use spes_trace::{FunctionId, Sequences, Slot, Trace, TriggerType};
use std::collections::BTreeMap;

/// Give-up threshold for "dense" functions, in idle slots (paper: 5).
pub const THETA_GIVENUP_DENSE: u32 = 5;
/// Give-up threshold for "pulsed" functions, in idle slots (paper: 5).
pub const THETA_GIVENUP_PULSED: u32 = 5;
/// Give-up threshold for every other type, in idle slots (paper: 1).
pub const THETA_GIVENUP_DEFAULT: u32 = 1;
/// "Possible" functions: when the spread of predictive values exceeds
/// this, they are treated as discrete points; otherwise the whole integer
/// range is pre-warmed (Section IV-D; the paper leaves the bound open).
pub const POSSIBLE_RANGE_THRESHOLD: u32 = 10;

/// T-lagged co-occurrence threshold for linking functions (paper: 0.5).
pub const COR_THRESHOLD: f64 = 0.5;
/// Maximum considered lag `T` in slots (paper: T <= 10); also the hold
/// window of an online-correlation pre-load.
pub const COR_MAX_LAG: u32 = 10;
/// Maximum number of same-app/user candidates examined per function.
pub const COR_MAX_CANDIDATES: usize = 50;
/// Minimum *precision* of a link: the fraction of candidate invocations
/// followed by a target invocation within the hold window. Guards against
/// hyper-frequent candidates, whose lagged COR is trivially 1.0 for any
/// target but whose invocations carry no information (pre-loading off
/// them would pin the target in memory). Not in the paper.
pub const COR_MIN_PRECISION: f64 = 0.25;

/// Summary of the offline fit, used by the figures and ablation studies.
#[derive(Debug, Clone, Default)]
pub struct FitStats {
    /// Function count per assigned type.
    pub per_type: BTreeMap<&'static str, usize>,
    /// Functions recovered by the forgetting strategy.
    pub recovered_by_forgetting: usize,
    /// Functions assigned "correlated" with at least one link.
    pub correlated_links: usize,
    /// Functions with zero training invocations (candidates for online
    /// correlation).
    pub unseen: usize,
}

/// Online counters (Section V-E narrative: how many functions the adaptive
/// strategies touched).
#[derive(Debug, Clone, Default)]
pub struct OnlineStatsCounters {
    /// S2 predictive-value updates applied.
    pub adjustments: usize,
    /// S3 online re-categorisations (unknown/unseen -> typed).
    pub online_categorized: usize,
    /// Unseen functions registered with the online-correlation tracker.
    pub unseen_registered: usize,
}

/// The SPES scheduler, ready to drive [`spes_sim::try_simulate`].
#[derive(Debug, Clone)]
pub struct SpesPolicy {
    config: SpesConfig,
    types: Vec<FunctionType>,
    values: Vec<PredictiveValues>,
    offline_std: Vec<f64>,
    /// candidate index -> correlated targets pre-loaded on its invocation,
    /// with the per-link hold window (discovered lag + pre-warm margin).
    preload_on_invoke: Vec<Vec<(FunctionId, u32)>>,
    /// Triggers, for same-trigger candidate discovery of unseen functions.
    triggers: Vec<TriggerType>,
    /// Functions with zero training invocations.
    unseen: Vec<bool>,
    /// Last training-window invocation per function; seeds the pre-warm
    /// agenda at simulation start so the first simulated invocation of an
    /// infrequent function is already predicted.
    train_last_invoked: Vec<Option<Slot>>,
    /// Fraction of training slots with an invocation, per function; used
    /// to exclude uninformative hyper-frequent online-correlation
    /// candidates.
    train_active_rate: Vec<f64>,

    // ---- online state (Algorithm 1's FState) ----
    last_invoked: Vec<Option<Slot>>,
    /// Invocation sequence number; stale agenda entries are skipped.
    generation: Vec<u32>,
    /// S1's online WTs, the most recent ones per function with their
    /// sorted mirror, which S2/S3 read.
    online_wts: Vec<WtWindow>,
    /// Whether S2/S3 may act on the function: set when its WT buffer or
    /// predictive state changed since the last call left it unchanged.
    /// Both rules are pure in (type, values, buffer, offline std), so a
    /// call on the inputs of a call that changed nothing would change
    /// nothing either and is skipped.
    adapt_pending: Vec<bool>,
    /// Pre-warm and pre-load windows that keep an instance from eviction.
    holds: Holds,
    /// Pre-warm agenda: first predicted slot -> (function, hold-until,
    /// generation at scheduling time).
    agenda: Agenda<(FunctionId, Slot, u32)>,
    ucorr: OnlineCorrelation,
    started: bool,

    fit_stats: FitStats,
    online_stats: OnlineStatsCounters,
}

impl SpesPolicy {
    /// Fits SPES on the training window `[train_start, train_end)` of
    /// `trace`.
    ///
    /// # Panics
    /// Panics if the window is empty.
    #[must_use]
    pub fn fit(trace: &Trace, train_start: Slot, train_end: Slot, config: SpesConfig) -> Self {
        assert!(train_start < train_end, "empty training window");
        let n = trace.n_functions();

        let mut categorized: Vec<Option<Categorized>> = Vec::with_capacity(n);
        let mut fit_stats = FitStats::default();

        // Phase 1: deterministic categorisation (+ forgetting).
        for f in trace.function_ids() {
            let series = trace.series_of(f);
            let mut cat = categorize_deterministic(series, train_start, train_end);
            if cat.is_none() && config.enable_forgetting {
                if let Some((recovered, _suffix)) =
                    forget_and_recheck(series, train_start, train_end)
                {
                    fit_stats.recovered_by_forgetting += 1;
                    cat = Some(recovered);
                }
            }
            categorized.push(cat);
        }

        // Phase 2: link discovery for the still-indeterminate functions.
        let by_app = trace.functions_by_app();
        let by_user = trace.functions_by_user();
        let mut preload_on_invoke: Vec<Vec<(FunctionId, u32)>> = vec![Vec::new(); n];
        let mut types: Vec<FunctionType> = Vec::with_capacity(n);
        let mut values: Vec<PredictiveValues> = Vec::with_capacity(n);

        for f in trace.function_ids() {
            let series = trace.series_of(f);
            let outcome = if let Some(cat) = categorized[f.index()].clone() {
                cat
            } else {
                let links = if config.enable_correlated {
                    discover_links(trace, f, &by_app, &by_user, train_start, train_end, &config)
                } else {
                    Vec::new()
                };
                let assignment = assign_indeterminate(
                    series,
                    train_start,
                    train_end,
                    links,
                    |idx| trace.series_of(FunctionId(idx as u32)),
                    &config,
                );
                if assignment.categorized.ty == FunctionType::Correlated {
                    fit_stats.correlated_links += 1;
                    for link in &assignment.links {
                        preload_on_invoke[link.candidate]
                            .push((f, link.lag + config.theta_prewarm));
                    }
                }
                assignment.categorized
            };
            types.push(outcome.ty);
            values.push(outcome.values);
        }

        // Phase 3: offline dispersion (drives the adjusting threshold),
        // unseen detection, and the per-function training state that seeds
        // the online phase.
        let mut offline_std = vec![0.0f64; n];
        let mut unseen = vec![false; n];
        let mut train_last_invoked: Vec<Option<Slot>> = vec![None; n];
        let mut train_active_rate = vec![0.0f64; n];
        let train_len = f64::from(train_end - train_start).max(1.0);
        for f in trace.function_ids() {
            let series = trace.series_of(f);
            let events = series.events_in(train_start, train_end);
            if events.is_empty() {
                unseen[f.index()] = true;
                fit_stats.unseen += 1;
                continue;
            }
            train_last_invoked[f.index()] = events.last().map(|&(s, _)| s);
            train_active_rate[f.index()] = events.len() as f64 / train_len;
            let wts = Sequences::waiting_times(series, train_start, train_end);
            offline_std[f.index()] = stddev(&wts);
        }

        for &ty in &types {
            *fit_stats.per_type.entry(ty.label()).or_insert(0) += 1;
        }

        let triggers = trace.metas.iter().map(|m| m.trigger).collect();
        let ucorr = OnlineCorrelation::new();
        Self {
            types,
            values,
            offline_std,
            preload_on_invoke,
            triggers,
            unseen,
            train_last_invoked,
            train_active_rate,
            last_invoked: vec![None; n],
            generation: vec![0; n],
            online_wts: vec![WtWindow::new(); n],
            adapt_pending: vec![true; n],
            holds: Holds::default(),
            agenda: Agenda::default(),
            ucorr,
            started: false,
            fit_stats,
            online_stats: OnlineStatsCounters::default(),
            config,
        }
    }

    /// Offline fit summary.
    #[must_use]
    pub fn fit_stats(&self) -> &FitStats {
        &self.fit_stats
    }

    /// Online adaptive counters.
    #[must_use]
    pub fn online_stats(&self) -> &OnlineStatsCounters {
        &self.online_stats
    }

    /// Current type of a function (may change online via S3).
    #[must_use]
    pub fn type_of(&self, f: FunctionId) -> FunctionType {
        self.types[f.index()]
    }

    /// Current predictive values of a function.
    #[must_use]
    pub fn values_of(&self, f: FunctionId) -> &PredictiveValues {
        &self.values[f.index()]
    }

    /// Schedules the pre-warm window(s) implied by `f`'s predictive values
    /// after an invocation at `now`.
    fn schedule_predictions(&mut self, f: FunctionId, now: Slot) {
        let theta = self.config.theta_prewarm;
        let gen = self.generation[f.index()];
        let ty = self.types[f.index()];
        // Predicted next invocation in `[lo, hi]` slots of idle time: load
        // at the earliest and hold past the latest by the pre-warm margin.
        let agenda = &mut self.agenda;
        let mut window = |lo: u32, hi: u32| {
            let start = now.saturating_add(lo).saturating_add(1);
            let hold = now
                .saturating_add(hi)
                .saturating_add(1)
                .saturating_add(theta);
            agenda.schedule(start, (f, hold, gen));
        };
        match &self.values[f.index()] {
            PredictiveValues::None => {}
            PredictiveValues::Discrete(vals) => {
                let (Some(&lo), Some(&hi)) = (vals.iter().min(), vals.iter().max()) else {
                    return;
                };
                let narrow_possible =
                    matches!(ty, FunctionType::Possible | FunctionType::NewlyPossible)
                        && hi - lo <= POSSIBLE_RANGE_THRESHOLD;
                if narrow_possible {
                    // Treat as one continuous range (Section IV-D).
                    window(lo, hi);
                } else {
                    for &v in vals {
                        window(v, v);
                    }
                }
            }
            PredictiveValues::Range(lo, hi) => window(*lo, *hi),
        }
    }

    /// Same-trigger candidates invoked within the correlation window
    /// before `now` — the initial candidate set for an unseen function.
    /// Hyper-frequent functions are excluded: they co-occur with
    /// everything and would pin the target in memory.
    fn unseen_candidates(&self, target: FunctionId, now: Slot) -> Vec<FunctionId> {
        let trigger = self.triggers[target.index()];
        let lo = now.saturating_sub(COR_MAX_LAG);
        let mut out = Vec::new();
        for (i, &t) in self.triggers.iter().enumerate() {
            if i == target.index() || t != trigger {
                continue;
            }
            if self.train_active_rate[i] > ONLINE_CORR_MAX_CANDIDATE_RATE {
                continue;
            }
            if let Some(last) = self.last_invoked[i] {
                if last >= lo {
                    out.push(FunctionId(i as u32));
                    if out.len() >= ONLINE_CORR_MAX_CANDIDATES {
                        break;
                    }
                }
            }
        }
        out
    }

    /// Seeds the pre-warm agenda at simulation start from the training
    /// history: the provisioner's `FState` (last invocation, predictive
    /// values) carries over the train/simulate boundary, so a function
    /// whose next predicted invocation falls early in the simulated window
    /// is pre-warmed for it. Periodic predictions overdue at `start` are
    /// rolled forward by whole periods.
    fn seed_from_training(&mut self, start: Slot) {
        let theta = self.config.theta_prewarm;
        for i in 0..self.types.len() {
            let Some(last) = self.train_last_invoked[i] else {
                continue;
            };
            let f = FunctionId(i as u32);
            let gen = self.generation[i];
            // The first predicted slot `last + lo + 1` at or after `start`,
            // held for `width` more slots plus the pre-warm margin.
            let agenda = &mut self.agenda;
            let mut window = |lo: u32, width: u32| {
                let step = u64::from(lo) + 1;
                let mut p = u64::from(last) + step;
                if p < u64::from(start) {
                    p += (u64::from(start) - p).div_ceil(step) * step;
                }
                if let Ok(p) = Slot::try_from(p) {
                    let hold = p.saturating_add(width).saturating_add(theta);
                    agenda.schedule(p, (f, hold, gen));
                }
            };
            match &self.values[i] {
                PredictiveValues::None => {}
                PredictiveValues::Discrete(vals) => vals.iter().for_each(|&v| window(v, 0)),
                PredictiveValues::Range(lo, hi) => window(*lo, hi - lo),
            }
        }
    }
}

/// Discovers predictive links for an indeterminate function among
/// same-app/user candidates via the best T-lagged COR.
fn discover_links(
    trace: &Trace,
    f: FunctionId,
    by_app: &std::collections::BTreeMap<spes_trace::AppId, Vec<FunctionId>>,
    by_user: &std::collections::BTreeMap<spes_trace::UserId, Vec<FunctionId>>,
    train_start: Slot,
    train_end: Slot,
    config: &SpesConfig,
) -> Vec<Link> {
    let series = trace.series_of(f);
    if series.events_in(train_start, train_end).is_empty() {
        return Vec::new();
    }
    let meta = trace.meta_of(f);
    let mut candidates: Vec<FunctionId> = Vec::new();
    let push_unique = |cand: FunctionId, candidates: &mut Vec<FunctionId>| {
        if cand != f && !candidates.contains(&cand) {
            candidates.push(cand);
        }
    };
    if let Some(app_members) = by_app.get(&meta.app) {
        for &c in app_members {
            push_unique(c, &mut candidates);
        }
    }
    if candidates.len() < COR_MAX_CANDIDATES {
        if let Some(user_members) = by_user.get(&meta.user) {
            for &c in user_members {
                if candidates.len() >= COR_MAX_CANDIDATES {
                    break;
                }
                push_unique(c, &mut candidates);
            }
        }
    }
    candidates.truncate(COR_MAX_CANDIDATES);

    let mut links = Vec::new();
    for cand in candidates {
        let cand_series = trace.series_of(cand);
        if cand_series.events_in(train_start, train_end).is_empty() {
            continue;
        }
        let (lag, cor) = best_lagged_cor(series, cand_series, COR_MAX_LAG, train_start, train_end);
        if cor < COR_THRESHOLD {
            continue;
        }
        // The lagged COR alone is trivially 1.0 against hyper-frequent
        // candidates; require the link to also be *precise* so pre-loads
        // off it are usually justified.
        let precision = crate::correlation::link_precision(
            series,
            cand_series,
            lag + config.theta_prewarm,
            train_start,
            train_end,
        );
        if precision < COR_MIN_PRECISION {
            continue;
        }
        links.push(Link {
            candidate: cand.index(),
            lag,
            cor,
        });
    }
    links
}

impl Policy for SpesPolicy {
    fn name(&self) -> &str {
        "spes"
    }

    fn on_start(&mut self, start: Slot, pool: &mut MemoryPool) {
        self.started = true;
        // Always-warm functions are kept permanently loaded, starting from
        // the first provisioned minute.
        for i in 0..self.types.len() {
            if self.types[i] == FunctionType::AlwaysWarm {
                pool.load(FunctionId(i as u32), start);
            }
        }
        self.seed_from_training(start);
    }

    fn on_slot(&mut self, now: Slot, invoked: &[(FunctionId, u32)], pool: &mut MemoryPool) {
        // --- 1. Invoked functions: state update, adaptation, prediction.
        for &(f, _count) in invoked {
            let idx = f.index();
            let prev = self.last_invoked[idx];

            // Waiting-time bookkeeping (a gap of zero means the active run
            // continues; only completed idle gaps are WTs).
            if let Some(p) = prev {
                let gap = now - p - 1;
                if gap > 0 {
                    self.online_wts[idx].push(gap);
                    self.adapt_pending[idx] = true;
                }
            }
            self.last_invoked[idx] = Some(now);
            self.generation[idx] = self.generation[idx].wrapping_add(1);

            // Adaptive strategies (Section IV-C1).
            if self.config.enable_adjusting && self.adapt_pending[idx] {
                self.adapt_pending[idx] = false;
                match self.types[idx] {
                    FunctionType::Unknown => {
                        if let Some(cat) = adaptive::try_online_categorize(&self.online_wts[idx]) {
                            self.types[idx] = cat.ty;
                            self.values[idx] = cat.values;
                            self.online_stats.online_categorized += 1;
                            // The next call is S2 on the new type.
                            self.adapt_pending[idx] = true;
                        }
                    }
                    ty => {
                        let outcome = adaptive::adjust_values(
                            ty,
                            &mut self.values[idx],
                            &self.online_wts[idx],
                            self.offline_std[idx],
                        );
                        if outcome == AdjustOutcome::Updated {
                            self.online_stats.adjustments += 1;
                            self.online_wts[idx].clear();
                            self.adapt_pending[idx] = true;
                        }
                    }
                }
            }

            // Predict the next invocation and schedule pre-warming.
            self.schedule_predictions(f, now);

            // Correlated targets fire off this invocation.
            for &(tgt, link_hold) in &self.preload_on_invoke[idx] {
                pool.load(tgt, now);
                self.holds.extend(tgt, now.saturating_add(link_hold));
            }

            // Online correlation for unseen functions (Section IV-C2).
            if self.config.enable_online_corr {
                if self.unseen[idx] {
                    if prev.is_none() {
                        let candidates = self.unseen_candidates(f, now);
                        if !candidates.is_empty() {
                            self.ucorr.register(f, candidates);
                            self.online_stats.unseen_registered += 1;
                        }
                    }
                    if self.ucorr.is_tracked(f) {
                        let last = &self.last_invoked;
                        self.ucorr.on_target_invoked(f, now, |cand| {
                            last[cand.index()]
                                .is_some_and(|t| t >= now.saturating_sub(COR_MAX_LAG) && t <= now)
                        });
                    }
                }
                // Any invoked function may be a candidate of a tracked
                // unseen target; its pre-load is held for the correlation
                // window.
                for tgt in self.ucorr.preload_targets(f) {
                    pool.load(tgt, now);
                    self.holds.extend(tgt, now.saturating_add(COR_MAX_LAG));
                }
            }
        }

        // --- 2. Pre-warm agenda: trigger every window whose first
        // predicted slot is within reach (p - theta <= now).
        let reach = now.saturating_add(self.config.theta_prewarm);
        for (f, hold, gen) in self.agenda.drain_through(reach) {
            // Skip predictions superseded by a newer invocation.
            if self.generation[f.index()] != gen || hold < now {
                continue;
            }
            pool.load(f, now);
            self.holds.extend(f, hold);
        }

        // --- 3. Eviction sweep over loaded instances (Algorithm 1,
        // lines 14-19).
        pool.evict_where(|f, loaded_since| {
            let idx = f.index();
            let ty = self.types[idx];
            if ty == FunctionType::AlwaysWarm
                || self.last_invoked[idx] == Some(now)
                || self.holds.is_held(f, now)
            {
                return false;
            }
            let idle = match self.last_invoked[idx] {
                Some(last) => now - last,
                None => now.saturating_sub(loaded_since),
            };
            idle >= self.config.givenup_for(ty)
        });
    }

    fn category_of(&self, f: FunctionId) -> Option<&'static str> {
        Some(self.types[f.index()].label())
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        // Suite harnesses downcast the boxed policy back to `SpesPolicy`
        // for fit-report access ([`SpesPolicy::fit_stats`]).
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spes_sim::{try_simulate, SimConfig};
    use spes_trace::{AppId, FunctionMeta, SparseSeries, Trace, UserId};

    fn meta(trigger: TriggerType) -> FunctionMeta {
        FunctionMeta {
            app: AppId(0),
            user: UserId(0),
            trigger,
        }
    }

    fn periodic(period: Slot, end: Slot) -> SparseSeries {
        SparseSeries::from_pairs((0..end).step_by(period as usize).map(|s| (s, 1)).collect())
    }

    /// A two-function trace: one periodic timer, one silent.
    fn small_trace() -> Trace {
        let horizon = 4 * spes_trace::SLOTS_PER_DAY;
        Trace::new(
            horizon,
            vec![meta(TriggerType::Timer), meta(TriggerType::Http)],
            vec![periodic(60, horizon), SparseSeries::new()],
        )
    }

    #[test]
    fn fit_categorizes_regular_timer() {
        let trace = small_trace();
        let train_end = 3 * spes_trace::SLOTS_PER_DAY;
        let policy = SpesPolicy::fit(&trace, 0, train_end, SpesConfig::default());
        assert_eq!(policy.type_of(FunctionId(0)), FunctionType::Regular);
        assert_eq!(policy.type_of(FunctionId(1)), FunctionType::Unknown);
        assert_eq!(policy.fit_stats().per_type["regular"], 1);
        assert_eq!(policy.fit_stats().unseen, 1);
    }

    #[test]
    fn regular_function_mostly_warm_in_simulation() {
        let trace = small_trace();
        let train_end = 3 * spes_trace::SLOTS_PER_DAY;
        let horizon = trace.n_slots;
        let mut policy = SpesPolicy::fit(&trace, 0, train_end, SpesConfig::default());
        let result = try_simulate(&trace, &mut policy, SimConfig::new(train_end, horizon)).unwrap();
        // 24 invocations on the simulated day; pre-warming makes nearly
        // all of them warm (the first may be cold).
        let csr = result.csr_of(0).unwrap();
        assert!(csr <= 0.1, "csr = {csr}");
        // Pre-warm windows are short: memory should be far below
        // keep-forever levels (1440 loaded-slots/day for this function).
        assert!(
            result.mean_loaded() < 0.5,
            "mean loaded {}",
            result.mean_loaded()
        );
    }

    #[test]
    fn always_warm_function_loaded_throughout() {
        let horizon = 2 * spes_trace::SLOTS_PER_DAY;
        let trace = Trace::new(
            horizon,
            vec![meta(TriggerType::Timer)],
            vec![periodic(1, horizon)],
        );
        let mut policy = SpesPolicy::fit(&trace, 0, horizon / 2, SpesConfig::default());
        assert_eq!(policy.type_of(FunctionId(0)), FunctionType::AlwaysWarm);
        let result =
            try_simulate(&trace, &mut policy, SimConfig::new(horizon / 2, horizon)).unwrap();
        assert_eq!(result.total_cold_starts(), 0);
    }

    #[test]
    fn dense_function_rides_small_gaps() {
        let horizon = 2 * spes_trace::SLOTS_PER_DAY;
        // Scrambled gaps of 2-5 slots: dense.
        let mut pairs = Vec::new();
        let mut slot = 0u32;
        let mut i = 0u32;
        while slot < horizon {
            pairs.push((slot, 1));
            slot += 2 + (i * i + i / 3) % 4;
            i += 1;
        }
        let trace = Trace::new(
            horizon,
            vec![meta(TriggerType::Queue)],
            vec![SparseSeries::from_pairs(pairs)],
        );
        let mut policy = SpesPolicy::fit(&trace, 0, horizon / 2, SpesConfig::default());
        assert_eq!(policy.type_of(FunctionId(0)), FunctionType::Dense);
        let result =
            try_simulate(&trace, &mut policy, SimConfig::new(horizon / 2, horizon)).unwrap();
        let csr = result.csr_of(0).unwrap();
        // Idle gaps never exceed the give-up threshold of 5, so after the
        // first load the function stays warm.
        assert!(csr < 0.05, "csr = {csr}");
    }

    #[test]
    fn successive_tolerates_one_cold_start_per_wave() {
        let horizon = 2 * spes_trace::SLOTS_PER_DAY;
        // Bursts of 6 slots with ~300-slot gaps.
        let mut pairs = Vec::new();
        let mut slot = 10u32;
        let mut i = 0u32;
        while slot + 6 < horizon {
            for j in 0..6 {
                pairs.push((slot + j, 3));
            }
            slot += 6 + 250 + (i * 131) % 200;
            i += 1;
        }
        let trace = Trace::new(
            horizon,
            vec![meta(TriggerType::Storage)],
            vec![SparseSeries::from_pairs(pairs.clone())],
        );
        let mut policy = SpesPolicy::fit(&trace, 0, horizon / 2, SpesConfig::default());
        assert_eq!(policy.type_of(FunctionId(0)), FunctionType::Successive);
        let result =
            try_simulate(&trace, &mut policy, SimConfig::new(horizon / 2, horizon)).unwrap();
        // One cold start per wave, 6 slots (18 invocations) per wave:
        // CSR ~ 1/18.
        let csr = result.csr_of(0).unwrap();
        assert!(csr < 0.1, "csr = {csr}");
        // And idle instances are dropped quickly: WMT per wave is ~1 slot.
        let waves = result.cold_starts[0];
        assert!(
            result.wmt[0] <= 3 * waves,
            "wmt {} for {} waves",
            result.wmt[0],
            waves
        );
    }

    #[test]
    fn correlated_child_preloaded_by_parent() {
        let horizon = 2 * spes_trace::SLOTS_PER_DAY;
        // Parent: irregular but fairly busy. Child: parent + 2 slots.
        let parent_slots: Vec<Slot> = (0..140)
            .map(|i| 10 + i * 20 + (i * i) % 7)
            .take_while(|&s| s + 2 < horizon)
            .collect();
        let child_slots: Vec<Slot> = parent_slots.iter().map(|&s| s + 2).collect();
        let parent = SparseSeries::from_pairs(parent_slots.iter().map(|&s| (s, 1)).collect());
        let child = SparseSeries::from_pairs(child_slots.iter().map(|&s| (s, 1)).collect());
        let trace = Trace::new(
            horizon,
            vec![meta(TriggerType::Http), meta(TriggerType::Orchestration)],
            vec![parent, child],
        );
        let train_end = horizon / 2;
        let mut policy = SpesPolicy::fit(&trace, 0, train_end, SpesConfig::default());
        // The child's irregular gaps defeat the deterministic types; the
        // parent link should categorise it "correlated".
        assert_eq!(policy.type_of(FunctionId(1)), FunctionType::Correlated);
        let result = try_simulate(&trace, &mut policy, SimConfig::new(train_end, horizon)).unwrap();
        let csr = result.csr_of(1).unwrap();
        assert!(csr < 0.1, "child csr = {csr}");
    }

    #[test]
    fn unknown_functions_not_preloaded() {
        let trace = small_trace();
        let train_end = 3 * spes_trace::SLOTS_PER_DAY;
        let mut policy = SpesPolicy::fit(&trace, 0, train_end, SpesConfig::default());
        let result = try_simulate(
            &trace,
            &mut policy,
            SimConfig::new(train_end, trace.n_slots),
        )
        .unwrap();
        // The silent function is never invoked or loaded.
        assert_eq!(result.invocations[1], 0);
        assert_eq!(result.wmt[1], 0);
    }

    #[test]
    fn category_labels_exposed() {
        let trace = small_trace();
        let policy = SpesPolicy::fit(&trace, 0, trace.n_slots / 2, SpesConfig::default());
        assert_eq!(policy.category_of(FunctionId(0)), Some("regular"));
        assert_eq!(policy.category_of(FunctionId(1)), Some("unknown"));
    }

    #[test]
    fn adjusting_follows_concept_shift() {
        let horizon = 6 * spes_trace::SLOTS_PER_DAY;
        let train_end = 4 * spes_trace::SLOTS_PER_DAY;
        // Period 30 during training, 60 afterwards.
        let mut pairs: Vec<(Slot, u32)> = (0..train_end).step_by(30).map(|s| (s, 1)).collect();
        pairs.extend((train_end..horizon).step_by(60).map(|s| (s, 1)));
        let trace = Trace::new(
            horizon,
            vec![meta(TriggerType::Timer)],
            vec![SparseSeries::from_pairs(pairs)],
        );
        let mut policy = SpesPolicy::fit(&trace, 0, train_end, SpesConfig::default());
        assert_eq!(
            policy.values_of(FunctionId(0)),
            &PredictiveValues::Discrete(vec![29])
        );
        let _ = try_simulate(&trace, &mut policy, SimConfig::new(train_end, horizon)).unwrap();
        assert!(policy.online_stats().adjustments > 0, "no adjustment fired");
        match policy.values_of(FunctionId(0)) {
            PredictiveValues::Discrete(v) => {
                assert!(v[0] > 29, "predictive value did not move: {v:?}")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unseen_function_rides_online_correlation() {
        let horizon = 4 * spes_trace::SLOTS_PER_DAY;
        let train_end = 2 * spes_trace::SLOTS_PER_DAY;
        // Candidate: active throughout. Target: unseen in training, then
        // always fires 1 slot after the candidate.
        let cand_slots: Vec<Slot> = (0..horizon).step_by(45).collect();
        let target_slots: Vec<Slot> = cand_slots
            .iter()
            .filter(|&&s| s >= train_end + 10)
            .map(|&s| s + 1)
            .collect();
        let trace = Trace::new(
            horizon,
            vec![meta(TriggerType::Http), meta(TriggerType::Http)],
            vec![
                SparseSeries::from_pairs(cand_slots.iter().map(|&s| (s, 1)).collect()),
                SparseSeries::from_pairs(target_slots.iter().map(|&s| (s, 1)).collect()),
            ],
        );
        let mut policy = SpesPolicy::fit(&trace, 0, train_end, SpesConfig::default());
        assert!(policy.fit_stats().unseen >= 1);
        let result = try_simulate(&trace, &mut policy, SimConfig::new(train_end, horizon)).unwrap();
        assert!(policy.online_stats().unseen_registered >= 1);
        let csr = result.csr_of(1).unwrap();
        // After the first (tolerated) cold start the candidate's
        // invocations pre-load the target.
        assert!(csr < 0.2, "unseen target csr = {csr}");

        // Ablation: without online correlation the target is always cold
        // (gap 45 with givenup 1 and no predictions ... until S3 kicks in,
        // which needs repeated WTs; the candidate cadence produces WT 44
        // repeatedly, so allow some improvement but demand it be worse).
        let cfg = SpesConfig {
            enable_online_corr: false,
            enable_adjusting: false,
            ..SpesConfig::default()
        };
        let mut ablated = SpesPolicy::fit(&trace, 0, train_end, cfg);
        let ablated_result =
            try_simulate(&trace, &mut ablated, SimConfig::new(train_end, horizon)).unwrap();
        assert!(ablated_result.csr_of(1).unwrap() > csr);
    }

    #[test]
    fn stale_predictions_skipped() {
        // A regular function that suddenly goes quiet: agenda entries from
        // its final invocation must not keep re-loading it forever.
        let horizon = 3 * spes_trace::SLOTS_PER_DAY;
        let train_end = 2 * spes_trace::SLOTS_PER_DAY;
        let pairs: Vec<(Slot, u32)> = (0..train_end + 100).step_by(30).map(|s| (s, 1)).collect();
        let trace = Trace::new(
            horizon,
            vec![meta(TriggerType::Timer)],
            vec![SparseSeries::from_pairs(pairs)],
        );
        let mut policy = SpesPolicy::fit(&trace, 0, train_end, SpesConfig::default());
        let result = try_simulate(&trace, &mut policy, SimConfig::new(train_end, horizon)).unwrap();
        // After the function stops, at most one stale pre-warm window
        // burns memory; WMT stays tiny relative to the idle tail.
        assert!(
            result.wmt[0] < 40,
            "stale predictions leaked wmt = {}",
            result.wmt[0]
        );
    }
}
