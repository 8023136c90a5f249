//! The Hybrid histogram policy of Shahrad et al. (ATC'20, "Serverless in
//! the Wild"), at function (HF) and application (HA) granularity.
//!
//! Each unit (function or app) tracks a histogram of idle times (gaps
//! between invocations) over a bounded range (4 hours, 1-minute bins).
//! When the histogram is representative, the unit is *unloaded right
//! after execution*, *pre-warmed* shortly before the head percentile of
//! the idle-time distribution, and kept until the tail percentile:
//! `pre-warm = P5 * (1 - margin)`, `keep-alive = P99 * (1 + margin)`.
//! Units with too few observations or dominated by out-of-bounds idle
//! times fall back to a fixed keep-alive (the original uses an ARIMA
//! forecast for the OOB case; the published reproduction (reference 41
//! of the SPES paper) and the
//! SPES authors use the fixed fallback, and so do we).
//!
//! The original operates per *application* (HA); the SPES paper derives
//! HF by applying the same design per function, following Defuse.

use spes_sim::{Agenda, MemoryPool, Policy};
use spes_stats::Histogram;
use spes_trace::{FunctionId, Slot, Trace};
use std::collections::BTreeMap;

/// Histogram range: 4 hours of 1-minute bins, as in the original paper.
pub const HISTOGRAM_BINS: usize = 4 * 60;

/// Head/tail percentiles and margins of the pre-warm window.
const HEAD_PERCENTILE: f64 = 5.0;
const TAIL_PERCENTILE: f64 = 99.0;
const HEAD_MARGIN: f64 = 0.15;
const TAIL_MARGIN: f64 = 0.10;

/// Minimum in-range observations before the histogram is trusted.
const MIN_OBSERVATIONS: u64 = 5;
/// Maximum tolerated out-of-bounds fraction.
const MAX_OOB_FRACTION: f64 = 0.5;
/// Maximum coefficient of variation for a histogram to count as
/// "representative" (the original paper's pattern check); more dispersed
/// units fall back to the fixed keep-alive.
const MAX_REPRESENTATIVE_CV: f64 = 1.0;

/// Granularity at which the histogram policy operates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// One histogram and load/unload unit per function (HF).
    Function,
    /// One histogram per application; all of an app's functions are
    /// pre-warmed and evicted together (HA).
    Application,
}

#[derive(Debug, Clone)]
struct UnitState {
    histogram: Histogram,
    last_invoked: Option<Slot>,
    /// Functions belonging to this unit.
    members: Vec<FunctionId>,
    /// Cached decision, refreshed on every invocation.
    prewarm: u32,
    keep_alive: u32,
    representative: bool,
}

impl UnitState {
    fn new(members: Vec<FunctionId>, bins: usize) -> Self {
        Self {
            histogram: Histogram::new(bins),
            last_invoked: None,
            members,
            prewarm: 0,
            keep_alive: 10,
            representative: false,
        }
    }

    fn refresh_decision(&mut self, fallback_keep_alive: u32) {
        let trusted = self.histogram.in_range() >= MIN_OBSERVATIONS
            && self.histogram.oob_fraction() <= MAX_OOB_FRACTION
            && self.histogram.cv_at_most(MAX_REPRESENTATIVE_CV) == Some(true);
        if !trusted {
            self.representative = false;
            self.prewarm = 0;
            self.keep_alive = fallback_keep_alive;
            return;
        }
        let head = self.histogram.percentile(HEAD_PERCENTILE).unwrap_or(0);
        let tail = self
            .histogram
            .percentile(TAIL_PERCENTILE)
            .unwrap_or(fallback_keep_alive);
        self.representative = true;
        self.prewarm = (f64::from(head) * (1.0 - HEAD_MARGIN)).floor() as u32;
        self.keep_alive = ((f64::from(tail) * (1.0 + TAIL_MARGIN)).ceil() as u32).max(1);
    }
}

/// The Hybrid histogram policy.
#[derive(Debug, Clone)]
pub struct HybridHistogram {
    granularity: Granularity,
    /// Function index -> unit index.
    unit_of: Vec<usize>,
    units: Vec<UnitState>,
    fallback_keep_alive: u32,
    /// Pre-warm agenda: slot -> unit indices to load then.
    agenda: Agenda<usize>,
    name: &'static str,
}

impl HybridHistogram {
    /// Builds the policy and trains the histograms on
    /// `[train_start, train_end)` of `trace`, with the original 4-hour
    /// histogram range.
    #[must_use]
    pub fn fit(
        trace: &Trace,
        train_start: Slot,
        train_end: Slot,
        granularity: Granularity,
    ) -> Self {
        Self::fit_with_bins(trace, train_start, train_end, granularity, HISTOGRAM_BINS)
    }

    /// As [`HybridHistogram::fit`] with a custom histogram range in
    /// 1-minute bins (Defuse passes `12 * 60`, a 12-hour range, so idle
    /// periods past the original 4 hours stay in range).
    #[must_use]
    pub fn fit_with_bins(
        trace: &Trace,
        train_start: Slot,
        train_end: Slot,
        granularity: Granularity,
        bins: usize,
    ) -> Self {
        let n = trace.n_functions();
        let (unit_of, members): (Vec<usize>, Vec<Vec<FunctionId>>) = match granularity {
            Granularity::Function => (
                (0..n).collect(),
                (0..n).map(|i| vec![FunctionId(i as u32)]).collect(),
            ),
            Granularity::Application => {
                let mut unit_of = vec![0usize; n];
                let mut members: Vec<Vec<FunctionId>> = Vec::new();
                let mut app_to_unit = BTreeMap::new();
                for f in trace.function_ids() {
                    let app = trace.meta_of(f).app;
                    let unit = *app_to_unit.entry(app).or_insert_with(|| {
                        members.push(Vec::new());
                        members.len() - 1
                    });
                    unit_of[f.index()] = unit;
                    members[unit].push(f);
                }
                (unit_of, members)
            }
        };

        let mut units: Vec<UnitState> = members
            .into_iter()
            .map(|m| UnitState::new(m, bins))
            .collect();

        // Train: feed per-unit idle times from the training window.
        let fallback = 10;
        for unit in &mut units {
            let mut slots: Vec<Slot> = Vec::new();
            for &f in &unit.members {
                for &(s, _) in trace.series_of(f).events_in(train_start, train_end) {
                    slots.push(s);
                }
            }
            slots.sort_unstable();
            slots.dedup();
            for w in slots.windows(2) {
                unit.histogram.observe(w[1] - w[0]);
            }
            unit.refresh_decision(fallback);
        }

        Self {
            granularity,
            unit_of,
            units,
            fallback_keep_alive: fallback,
            agenda: Agenda::default(),
            name: match granularity {
                Granularity::Function => "hybrid-function",
                Granularity::Application => "hybrid-application",
            },
        }
    }

    /// The operating granularity.
    #[must_use]
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }
}

impl Policy for HybridHistogram {
    fn name(&self) -> &str {
        self.name
    }

    fn on_slot(&mut self, now: Slot, invoked: &[(FunctionId, u32)], pool: &mut MemoryPool) {
        // 1. Record invocations, update histograms online, schedule the
        // next pre-warm for representative units.
        for &(f, _) in invoked {
            let unit_idx = self.unit_of[f.index()];
            let unit = &mut self.units[unit_idx];
            if let Some(last) = unit.last_invoked {
                if now > last {
                    unit.histogram.observe(now - last);
                }
            }
            if unit.last_invoked == Some(now) {
                continue; // another member already processed this slot
            }
            unit.last_invoked = Some(now);
            unit.refresh_decision(self.fallback_keep_alive);
            if unit.representative && unit.prewarm > 1 {
                // Unload after execution, reload shortly before the head
                // of the idle-time distribution.
                self.agenda
                    .schedule(now.saturating_add(unit.prewarm), unit_idx);
            }
        }

        // 2. Fire due pre-warms.
        for unit_idx in self.agenda.drain_through(now) {
            let unit = &self.units[unit_idx];
            // Skip stale pre-warms (unit invoked again meanwhile).
            if unit
                .last_invoked
                .is_some_and(|last| last.saturating_add(unit.prewarm) > now)
            {
                continue;
            }
            for &f in &unit.members {
                pool.load(f, now);
            }
        }

        // 3. Evict expired units.
        pool.evict_where(|f, _| {
            let unit = &self.units[self.unit_of[f.index()]];
            match unit.last_invoked {
                Some(last) => {
                    let idle = now - last;
                    if unit.representative && unit.prewarm > 1 {
                        // Instance lives in [last, last + a short linger]
                        // and again in [last + prewarm, last + keep_alive].
                        let in_prewarm_window =
                            idle >= unit.prewarm && idle <= unit.keep_alive.max(unit.prewarm);
                        !(idle < 1 || in_prewarm_window)
                    } else {
                        idle >= unit.keep_alive
                    }
                }
                None => true,
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spes_sim::{try_simulate, SimConfig};
    use spes_trace::{AppId, FunctionMeta, SparseSeries, Trace, TriggerType, UserId};

    fn meta(app: u32) -> FunctionMeta {
        FunctionMeta {
            app: AppId(app),
            user: UserId(0),
            trigger: TriggerType::Http,
        }
    }

    fn periodic(period: Slot, start: Slot, end: Slot) -> SparseSeries {
        SparseSeries::from_pairs(
            (start..end)
                .step_by(period as usize)
                .map(|s| (s, 1))
                .collect(),
        )
    }

    /// Fraction of units using the fixed fallback (Defuse reports >32% of
    /// functions end up there).
    fn fallback_fraction(p: &HybridHistogram) -> f64 {
        let fallback = p.units.iter().filter(|u| !u.representative).count();
        fallback as f64 / p.units.len() as f64
    }

    #[test]
    fn representative_unit_prewarns() {
        // Period 60 over 4 days; idle times all 60 < 240 bins.
        let horizon = 4 * 1440;
        let trace = Trace::new(horizon, vec![meta(0)], vec![periodic(60, 0, horizon)]);
        let mut p = HybridHistogram::fit(&trace, 0, 2 * 1440, Granularity::Function);
        assert!(fallback_fraction(&p) < 1.0);
        let r = try_simulate(&trace, &mut p, SimConfig::new(2 * 1440, horizon)).unwrap();
        let csr = r.csr_of(0).unwrap();
        // Pre-warm lands before each invocation: nearly all warm.
        assert!(csr <= 0.1, "csr = {csr}");
        // Memory: loaded ~ (60 - prewarm + 1) of every 60 slots, far less
        // than keep-forever.
        assert!(r.mean_loaded() < 0.5, "mean loaded = {}", r.mean_loaded());
    }

    #[test]
    fn sparse_unit_falls_back_to_fixed() {
        let horizon = 6 * 1440;
        // Only two invocations in training: not enough observations.
        let trace = Trace::new(
            horizon,
            vec![meta(0)],
            vec![SparseSeries::from_pairs(vec![
                (100, 1),
                (3000, 1),
                (6000, 1),
            ])],
        );
        let p = HybridHistogram::fit(&trace, 0, 2 * 1440, Granularity::Function);
        assert_eq!(fallback_fraction(&p), 1.0);
    }

    #[test]
    fn oob_dominated_unit_falls_back() {
        let horizon = 20 * 1440;
        // Idle times of ~10 hours: every observation lands out of bounds.
        let trace = Trace::new(horizon, vec![meta(0)], vec![periodic(600, 0, horizon)]);
        let p = HybridHistogram::fit(&trace, 0, horizon, Granularity::Function);
        assert_eq!(fallback_fraction(&p), 1.0);
    }

    #[test]
    fn application_granularity_groups_functions() {
        let horizon = 4 * 1440;
        // Two functions of one app, invoked alternately every 30 slots.
        let a = periodic(60, 0, horizon);
        let b = periodic(60, 30, horizon);
        let trace = Trace::new(horizon, vec![meta(7), meta(7)], vec![a, b]);
        let mut p = HybridHistogram::fit(&trace, 0, 2 * 1440, Granularity::Application);
        assert_eq!(p.granularity(), Granularity::Application);
        let r = try_simulate(&trace, &mut p, SimConfig::new(2 * 1440, horizon)).unwrap();
        // The app's combined idle time is 30; both functions ride the
        // shared window, so cold starts are rare for both.
        assert!(r.csr_of(0).unwrap() < 0.2);
        assert!(r.csr_of(1).unwrap() < 0.2);
    }

    #[test]
    fn ha_uses_more_memory_than_hf() {
        let horizon = 4 * 1440;
        // One busy + one rare function in the same app: HA loads both.
        let busy = periodic(30, 0, horizon);
        let rare = SparseSeries::from_pairs(vec![(50, 1), (4000, 1)]);
        let trace = Trace::new(horizon, vec![meta(3), meta(3)], vec![busy, rare]);
        let train_end = 2 * 1440;

        let mut hf = HybridHistogram::fit(&trace, 0, train_end, Granularity::Function);
        let r_hf = try_simulate(&trace, &mut hf, SimConfig::new(train_end, horizon)).unwrap();
        let mut ha = HybridHistogram::fit(&trace, 0, train_end, Granularity::Application);
        let r_ha = try_simulate(&trace, &mut ha, SimConfig::new(train_end, horizon)).unwrap();
        assert!(
            r_ha.mean_loaded() > r_hf.mean_loaded(),
            "HA {} <= HF {}",
            r_ha.mean_loaded(),
            r_hf.mean_loaded()
        );
    }
}
