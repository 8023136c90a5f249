//! Online correlation for unseen functions (Section IV-C2).
//!
//! Functions that never appeared in training cannot be categorised
//! offline. When such a function is first invoked online, SPES correlates
//! it with candidate functions sharing its trigger type: initially every
//! candidate invocation pre-loads the target; the pair-wise COR is then
//! tracked per invocation, and candidates whose COR falls too far below
//! the running maximum are suspended (resuming if their COR recovers).

use spes_trace::{FunctionId, Slot};
use std::collections::BTreeMap;

/// Candidate pruning: a candidate is suspended when its COR falls this
/// far below the current maximum ("too far" is left open by the paper).
pub const ONLINE_CORR_DROP_GAP: f64 = 0.3;
/// Maximum candidates tracked per unseen function.
pub const ONLINE_CORR_MAX_CANDIDATES: usize = 20;
/// Candidates active in more than this fraction of training slots are
/// ignored: a hyper-frequent function co-occurs with everything, so its
/// COR is trivially high while its invocations carry no information
/// (pre-loading off them would pin the target in memory).
pub const ONLINE_CORR_MAX_CANDIDATE_RATE: f64 = 0.1;

#[derive(Debug, Clone)]
struct CandidateState {
    id: FunctionId,
    /// Target invocations at which this candidate fired within the window.
    hits: u64,
    active: bool,
}

#[derive(Debug, Clone, Default)]
struct TargetState {
    candidates: Vec<CandidateState>,
    /// Target invocations observed since registration.
    invocations: u64,
}

/// Tracker of unseen-function correlations ("UCorr" in Algorithm 1).
#[derive(Debug, Clone, Default)]
pub struct OnlineCorrelation {
    targets: BTreeMap<FunctionId, TargetState>,
    /// Reverse index: candidate -> targets it may pre-load.
    by_candidate: BTreeMap<FunctionId, Vec<FunctionId>>,
}

impl OnlineCorrelation {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new unseen target with its initial candidate set
    /// (same-trigger functions invoked around its first appearance).
    pub fn register(&mut self, target: FunctionId, candidates: Vec<FunctionId>) {
        if self.targets.contains_key(&target) || candidates.is_empty() {
            return;
        }
        for &c in &candidates {
            self.by_candidate.entry(c).or_default().push(target);
        }
        self.targets.insert(
            target,
            TargetState {
                candidates: candidates
                    .into_iter()
                    .map(|id| CandidateState {
                        id,
                        hits: 0,
                        active: true,
                    })
                    .collect(),
                invocations: 0,
            },
        );
    }

    /// Whether `target` is being tracked.
    #[must_use]
    pub fn is_tracked(&self, target: FunctionId) -> bool {
        self.targets.contains_key(&target)
    }

    /// Targets that should be pre-loaded because `candidate` was invoked.
    /// Only targets for which the candidate is still active are returned.
    #[must_use]
    pub fn preload_targets(&self, candidate: FunctionId) -> Vec<FunctionId> {
        let Some(targets) = self.by_candidate.get(&candidate) else {
            return Vec::new();
        };
        targets
            .iter()
            .copied()
            .filter(|t| {
                self.targets.get(t).is_some_and(|state| {
                    state
                        .candidates
                        .iter()
                        .any(|c| c.id == candidate && c.active)
                })
            })
            .collect()
    }

    /// Records an invocation of a tracked target at slot `now`.
    /// `was_recent` reports whether a candidate was invoked within the
    /// trailing window `[now - T, now]`, `T` =
    /// [`COR_MAX_LAG`](crate::provision::COR_MAX_LAG) (the policy consults
    /// its last-invocation table).
    pub fn on_target_invoked<F: Fn(FunctionId) -> bool>(
        &mut self,
        target: FunctionId,
        _now: Slot,
        was_recent: F,
    ) {
        let Some(state) = self.targets.get_mut(&target) else {
            return;
        };
        state.invocations += 1;
        for cand in &mut state.candidates {
            if was_recent(cand.id) {
                cand.hits += 1;
            }
        }
        // Prune: suspend candidates whose COR dropped far below the
        // maximum; re-activate those that recovered.
        let n = state.invocations as f64;
        let max_cor = state
            .candidates
            .iter()
            .map(|c| c.hits as f64 / n)
            .fold(0.0f64, f64::max);
        for cand in &mut state.candidates {
            let cor = cand.hits as f64 / n;
            cand.active = max_cor - cor <= ONLINE_CORR_DROP_GAP;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> OnlineCorrelation {
        OnlineCorrelation::new()
    }

    fn f(i: u32) -> FunctionId {
        FunctionId(i)
    }

    #[test]
    fn register_and_preload() {
        let mut t = tracker();
        t.register(f(100), vec![f(1), f(2)]);
        assert!(t.is_tracked(f(100)));
        assert_eq!(t.preload_targets(f(1)), vec![f(100)]);
        assert_eq!(t.preload_targets(f(2)), vec![f(100)]);
        assert!(t.preload_targets(f(3)).is_empty());
    }

    #[test]
    fn register_empty_candidates_is_noop() {
        let mut t = tracker();
        t.register(f(100), vec![]);
        assert!(!t.is_tracked(f(100)));
    }

    #[test]
    fn duplicate_register_keeps_first() {
        let mut t = tracker();
        t.register(f(100), vec![f(1)]);
        t.register(f(100), vec![f(2)]);
        assert_eq!(t.preload_targets(f(1)), vec![f(100)]);
        assert!(t.preload_targets(f(2)).is_empty());
    }

    #[test]
    fn uncorrelated_candidate_is_pruned() {
        let mut t = tracker();
        t.register(f(100), vec![f(1), f(2)]);
        // Candidate 1 always co-fires, candidate 2 never.
        for i in 0..10 {
            t.on_target_invoked(f(100), i * 50, |c| c == f(1));
        }
        // COR = hits / invocations: 1.0 for candidate 1, 0.0 for 2.
        let state = &t.targets[&f(100)];
        assert_eq!(state.invocations, 10);
        let hits: Vec<(FunctionId, u64)> =
            state.candidates.iter().map(|c| (c.id, c.hits)).collect();
        assert_eq!(hits, vec![(f(1), 10), (f(2), 0)]);
        assert_eq!(t.preload_targets(f(1)), vec![f(100)]);
        assert!(t.preload_targets(f(2)).is_empty(), "candidate 2 not pruned");
    }

    #[test]
    fn pruned_candidate_can_recover() {
        let mut t = tracker();
        t.register(f(100), vec![f(1), f(2)]);
        // First two invocations only candidate 1 co-fires -> 2 is pruned.
        t.on_target_invoked(f(100), 10, |c| c == f(1));
        t.on_target_invoked(f(100), 20, |c| c == f(1));
        assert!(t.preload_targets(f(2)).is_empty());
        // Candidate 2 co-fires many times; its COR returns close to max.
        for i in 0..8 {
            t.on_target_invoked(f(100), 30 + i, |_| true);
        }
        assert!(!t.preload_targets(f(2)).is_empty(), "candidate 2 recovered");
    }

    #[test]
    fn untracked_target_invocation_is_noop() {
        let mut t = tracker();
        t.on_target_invoked(f(7), 0, |_| true);
        assert!(t.targets.is_empty());
    }

    #[test]
    fn multiple_targets_share_candidate() {
        let mut t = tracker();
        t.register(f(100), vec![f(1)]);
        t.register(f(200), vec![f(1)]);
        let mut targets = t.preload_targets(f(1));
        targets.sort_by_key(|x| x.0);
        assert_eq!(targets, vec![f(100), f(200)]);
    }
}
