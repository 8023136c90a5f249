//! The Defuse baseline (Shen et al., ICDCS'21): a dependency-guided
//! function scheduler.
//!
//! Defuse mines inter-function dependencies from invocation histories —
//! strong dependencies from frequent sequential episodes and weak ones
//! from positive point-wise mutual information — and pre-loads a
//! function's dependents when it is invoked. Keep-alive decisions
//! otherwise follow the histogram scheme (the paper notes Defuse "relies
//! on the statistical histogram and turns to a fixed keep-alive policy for
//! more than 32% of the functions").
//!
//! Scope of this reproduction: episode mining is restricted to
//! same-application/user pairs (the overwhelmingly dominant source of
//! chains in the trace; a global O(n²) scan adds nothing but cost), with
//! support computed over lagged co-occurrence, and the histogram layer is
//! shared with [`crate::hybrid`] at function granularity.

use crate::hybrid::{Granularity, HybridHistogram};
use spes_sim::{Holds, MemoryPool, Policy};
use spes_trace::{FunctionId, Slot, Trace};

/// Minimum number of source invocations before a dependency is trusted.
const MIN_SUPPORT_EVENTS: usize = 5;

/// Both the lagged correlation and the episode confidence of a mined
/// dependency must reach this threshold, as in the SPES comparison.
const MIN_CONFIDENCE: f64 = 0.5;

/// Longest lag, in slots (minutes), a mined dependency may span: a
/// 10-minute window, as in the SPES comparison.
const MAX_LAG: u32 = 10;

/// A mined dependency edge, stored under its source: invoking the
/// source predicts `target` within `lag` slots.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Dependency {
    /// Downstream function pre-loaded when the source fires.
    target: FunctionId,
    /// Expected lag in slots.
    lag: u32,
}

/// The Defuse policy: histogram keep-alive plus dependency pre-loading.
#[derive(Debug, Clone)]
pub struct Defuse {
    histogram: HybridHistogram,
    /// source index -> outgoing dependencies.
    dependents: Vec<Vec<Dependency>>,
    /// Pre-loaded dependents are protected from the histogram layer's
    /// eviction until this slot (their own histogram knows nothing about
    /// the dependency that loaded them).
    holds: Holds,
    edges: usize,
}

impl Defuse {
    /// Mines dependencies with the thresholds used in the SPES
    /// comparison (`MIN_CONFIDENCE`, `MAX_LAG`) and trains the
    /// histogram layer on `[train_start, train_end)`.
    #[must_use]
    pub fn paper_default(trace: &Trace, train_start: Slot, train_end: Slot) -> Self {
        // Defuse derives keep-alive windows from day-scale invocation
        // histories rather than Shahrad's 4-hour histogram, which is what
        // lets it cover overnight idle periods (at a memory premium).
        let histogram = HybridHistogram::fit_with_bins(
            trace,
            train_start,
            train_end,
            Granularity::Function,
            12 * 60,
        );
        let n = trace.n_functions();
        let mut dependents: Vec<Vec<Dependency>> = vec![Vec::new(); n];
        let mut edges = 0usize;

        // Candidate pairs: functions sharing an application or user.
        let by_app = trace.functions_by_app();
        let by_user = trace.functions_by_user();
        let mut groups: Vec<&Vec<FunctionId>> = Vec::new();
        groups.extend(by_app.values());
        groups.extend(by_user.values());

        // Each function's training-window support, sliced once rather
        // than once per pair.
        let supported: Vec<bool> = trace
            .series
            .iter()
            .map(|s| s.events_in(train_start, train_end).len() >= MIN_SUPPORT_EVENTS)
            .collect();
        let mut seen: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
        for group in groups {
            if group.len() < 2 || group.len() > 64 {
                // Very large same-user groups would mine quadratically and
                // mostly produce noise.
                continue;
            }
            for &target in group {
                if !supported[target.index()] {
                    continue;
                }
                let target_series = trace.series_of(target);
                for &source in group {
                    if source == target || !seen.insert((source.0, target.0)) {
                        continue;
                    }
                    if !supported[source.index()] {
                        continue;
                    }
                    let source_series = trace.series_of(source);
                    let (lag, cor) = spes_core::best_lagged_cor(
                        target_series,
                        source_series,
                        MAX_LAG,
                        train_start,
                        train_end,
                    );
                    // Episode confidence, as in the original mining: the
                    // fraction of source invocations actually followed by
                    // the target (P(target | source)). Without it, a
                    // hyper-frequent source trivially "predicts" anything.
                    let episode_confidence = spes_core::correlation::link_precision(
                        target_series,
                        source_series,
                        lag + 1,
                        train_start,
                        train_end,
                    );
                    if cor >= MIN_CONFIDENCE && episode_confidence >= MIN_CONFIDENCE && lag > 0 {
                        dependents[source.index()].push(Dependency { target, lag });
                        edges += 1;
                    }
                }
            }
        }

        Self {
            histogram,
            dependents,
            holds: Holds::default(),
            edges,
        }
    }

    /// Number of mined dependency edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges
    }
}

impl Policy for Defuse {
    fn name(&self) -> &str {
        "defuse"
    }

    fn on_slot(&mut self, now: Slot, invoked: &[(FunctionId, u32)], pool: &mut MemoryPool) {
        // Dependency pre-loading: fire the dependents of everything that
        // just ran, holding each across its expected lag (plus one slot of
        // slack).
        for &(f, _) in invoked {
            for dep in &self.dependents[f.index()] {
                pool.load(dep.target, now);
                self.holds
                    .extend(dep.target, now.saturating_add(dep.lag).saturating_add(1));
            }
        }
        // Keep-alive / eviction: delegate to the histogram layer (which
        // also observes `invoked` here), then restore any held dependents
        // the histogram evicted — it has no idea they were pre-loaded for
        // an imminent chained invocation.
        self.histogram.on_slot(now, invoked, pool);
        self.holds.reload_held(now, pool);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spes_sim::{try_simulate, SimConfig};
    use spes_trace::{AppId, FunctionMeta, SparseSeries, Trace, TriggerType, UserId};

    fn meta(app: u32, user: u32) -> FunctionMeta {
        FunctionMeta {
            app: AppId(app),
            user: UserId(user),
            trigger: TriggerType::Http,
        }
    }

    /// Parent/child chain: child fires 2 slots after parent.
    fn chain_trace(horizon: Slot) -> Trace {
        let parent_slots: Vec<Slot> = (0..horizon / 40).map(|i| i * 40 + (i * i) % 11).collect();
        let child_slots: Vec<Slot> = parent_slots.iter().map(|&s| s + 2).collect();
        Trace::new(
            horizon,
            vec![meta(1, 1), meta(1, 1)],
            vec![
                SparseSeries::from_pairs(parent_slots.iter().map(|&s| (s, 1)).collect()),
                SparseSeries::from_pairs(child_slots.iter().map(|&s| (s, 1)).collect()),
            ],
        )
    }

    #[test]
    fn mines_chain_dependency() {
        let trace = chain_trace(4 * 1440);
        let d = Defuse::paper_default(&trace, 0, 2 * 1440);
        assert!(d.edge_count() >= 1);
        let deps = &d.dependents[0];
        assert!(deps.iter().any(|e| e.target == FunctionId(1) && e.lag == 2));
    }

    #[test]
    fn dependency_preloading_warms_child() {
        let trace = chain_trace(4 * 1440);
        let mut d = Defuse::paper_default(&trace, 0, 2 * 1440);
        let r = try_simulate(&trace, &mut d, SimConfig::new(2 * 1440, 4 * 1440)).unwrap();
        let child_csr = r.csr_of(1).unwrap();
        assert!(child_csr < 0.1, "child csr = {child_csr}");
    }

    #[test]
    fn no_edges_across_unrelated_functions() {
        // Same schedule but different app AND user: no candidate pair.
        let horizon = 4 * 1440;
        let a: Vec<Slot> = (0..50).map(|i| i * 40).collect();
        let b: Vec<Slot> = a.iter().map(|&s| s + 2).collect();
        let trace = Trace::new(
            horizon,
            vec![meta(1, 1), meta(2, 2)],
            vec![
                SparseSeries::from_pairs(a.iter().map(|&s| (s, 1)).collect()),
                SparseSeries::from_pairs(b.iter().map(|&s| (s, 1)).collect()),
            ],
        );
        let d = Defuse::paper_default(&trace, 0, 2 * 1440);
        assert_eq!(d.edge_count(), 0);
    }

    #[test]
    fn infrequent_functions_not_mined() {
        let horizon = 4 * 1440;
        let trace = Trace::new(
            horizon,
            vec![meta(1, 1), meta(1, 1)],
            vec![
                SparseSeries::from_pairs(vec![(10, 1), (900, 1)]),
                SparseSeries::from_pairs(vec![(12, 1), (902, 1)]),
            ],
        );
        let d = Defuse::paper_default(&trace, 0, 2 * 1440);
        assert_eq!(d.edge_count(), 0);
    }
}
