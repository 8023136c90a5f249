//! The fixed keep-alive baseline.
//!
//! The industry-standard policy (and the paper's simplest baseline): every
//! instance is kept loaded for a fixed number of minutes after its last
//! invocation — 10 minutes in the paper's experiments, matching the
//! well-known AWS Lambda / OpenWhisk default.

use spes_sim::{MemoryPool, Policy};
use spes_trace::{FunctionId, Slot};

/// Fixed keep-alive policy.
#[derive(Debug, Clone)]
pub struct FixedKeepAlive {
    keep_alive: u32,
    last_invoked: Vec<Option<Slot>>,
}

impl FixedKeepAlive {
    /// Creates the policy for `n_functions` functions with the given
    /// keep-alive window in minutes.
    #[must_use]
    pub fn new(n_functions: usize, keep_alive: u32) -> Self {
        Self {
            keep_alive,
            last_invoked: vec![None; n_functions],
        }
    }

    /// The paper's configuration: a 10-minute keep-alive.
    #[must_use]
    pub fn paper_default(n_functions: usize) -> Self {
        Self::new(n_functions, 10)
    }

    /// The configured keep-alive window.
    #[must_use]
    pub fn keep_alive(&self) -> u32 {
        self.keep_alive
    }
}

impl Policy for FixedKeepAlive {
    fn name(&self) -> &str {
        "fixed-keep-alive"
    }

    fn on_slot(&mut self, now: Slot, invoked: &[(FunctionId, u32)], pool: &mut MemoryPool) {
        for &(f, _) in invoked {
            self.last_invoked[f.index()] = Some(now);
        }
        pool.evict_where(|f, _| match self.last_invoked[f.index()] {
            Some(last) => now - last >= self.keep_alive,
            // Loaded but never invoked (cannot happen under this policy,
            // but stay safe): drop immediately.
            None => true,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spes_sim::{try_simulate, SimConfig};
    use spes_trace::{AppId, FunctionMeta, SparseSeries, Trace, TriggerType, UserId};

    fn trace_of(series: Vec<SparseSeries>, n_slots: Slot) -> Trace {
        let meta = FunctionMeta {
            app: AppId(0),
            user: UserId(0),
            trigger: TriggerType::Http,
        };
        let n = series.len();
        Trace::new(n_slots, vec![meta; n], series)
    }

    #[test]
    fn keeps_warm_within_window() {
        let trace = trace_of(vec![SparseSeries::from_pairs(vec![(0, 1), (9, 1)])], 20);
        let mut p = FixedKeepAlive::new(1, 10);
        let r = try_simulate(&trace, &mut p, SimConfig::new(0, 20)).unwrap();
        // Second invocation at gap 9 < 10: warm.
        assert_eq!(r.cold_starts[0], 1);
    }

    #[test]
    fn evicts_after_window() {
        let trace = trace_of(vec![SparseSeries::from_pairs(vec![(0, 1), (10, 1)])], 30);
        let mut p = FixedKeepAlive::new(1, 10);
        let r = try_simulate(&trace, &mut p, SimConfig::new(0, 30)).unwrap();
        // Gap of exactly the keep-alive: evicted at slot 10's sweep...
        // the invocation at slot 10 arrives before the sweep, so it is
        // warm only if eviction happened strictly earlier. Eviction at
        // slot 10 would be after the invocation; the instance was still
        // loaded -> warm. Gap > keep_alive is cold:
        assert_eq!(r.cold_starts[0], 1);

        let trace2 = trace_of(vec![SparseSeries::from_pairs(vec![(0, 1), (11, 1)])], 30);
        let mut p2 = FixedKeepAlive::new(1, 10);
        let r2 = try_simulate(&trace2, &mut p2, SimConfig::new(0, 30)).unwrap();
        assert_eq!(r2.cold_starts[0], 2);
    }

    #[test]
    fn wmt_bounded_by_keep_alive() {
        let trace = trace_of(vec![SparseSeries::from_pairs(vec![(0, 1)])], 100);
        let mut p = FixedKeepAlive::new(1, 10);
        let r = try_simulate(&trace, &mut p, SimConfig::new(0, 100)).unwrap();
        // Loaded at 0, idle slots 1..9, evicted at the slot-10 sweep.
        assert_eq!(r.wmt[0], 9);
    }

    #[test]
    fn paper_default_is_ten_minutes() {
        assert_eq!(FixedKeepAlive::paper_default(3).keep_alive(), 10);
    }
}
