//! The FaaSCache baseline (Fuerst & Sharma, ASPLOS'21): keep-alive as
//! caching under Greedy-Dual-Size-Frequency (GDSF).
//!
//! FaaSCache treats warm instances as cache objects against a fixed
//! memory budget. Instances are never evicted voluntarily — memory is
//! used up to the limit — and under pressure the instance with the lowest
//! GDSF priority is evicted:
//!
//! ```text
//! priority = clock + frequency * cost / size
//! ```
//!
//! Under the paper's simulation assumptions (uniform cold-start cost and
//! uniform instance size) this degenerates to `clock + frequency`. The
//! `clock` is the classic aging term: it jumps to the evicted victim's
//! priority, so long-idle instances eventually lose to fresh ones. The
//! SPES experiments give FaaSCache a memory budget equal to the maximum
//! memory SPES used during the whole simulation.

use spes_sim::{MemoryPool, Policy};
use spes_trace::{FunctionId, Slot};

/// The FaaSCache GDSF keep-alive policy. Must be run with a
/// capacity-limited pool ([`spes_sim::SimConfig::with_capacity`]); with an
/// unbounded pool it degenerates to keep-forever.
#[derive(Debug, Clone)]
pub struct FaasCache {
    /// Global aging clock.
    clock: f64,
    /// Per-function access frequency.
    frequency: Vec<u64>,
    /// Per-function cached priority (clock + frequency at last access).
    priority: Vec<f64>,
}

impl FaasCache {
    /// Creates the policy for `n_functions` functions.
    #[must_use]
    pub fn new(n_functions: usize) -> Self {
        Self {
            clock: 0.0,
            frequency: vec![0; n_functions],
            priority: vec![0.0; n_functions],
        }
    }

    /// Current aging-clock value.
    #[must_use]
    pub fn clock(&self) -> f64 {
        self.clock
    }
}

impl Policy for FaasCache {
    fn name(&self) -> &str {
        "faascache"
    }

    fn on_slot(&mut self, _now: Slot, invoked: &[(FunctionId, u32)], _pool: &mut MemoryPool) {
        // Access refreshes frequency and priority; nothing is evicted
        // voluntarily — eviction happens only via pick_victim under
        // memory pressure.
        for &(f, count) in invoked {
            let idx = f.index();
            self.frequency[idx] += u64::from(count);
            self.priority[idx] = self.clock + self.frequency[idx] as f64;
        }
    }

    fn pick_victim(&mut self, pool: &MemoryPool) -> Option<FunctionId> {
        let victim = pool.loaded().iter().copied().min_by(|&a, &b| {
            self.priority[a.index()]
                .total_cmp(&self.priority[b.index()])
                .then(a.0.cmp(&b.0))
        })?;
        // GDSF aging: the clock jumps to the evicted priority.
        self.clock = self.clock.max(self.priority[victim.index()]);
        Some(victim)
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
    fn hot_function_survives_pressure() {
        // f0 invoked every slot; f1 and f2 take turns forcing pressure in
        // a capacity-2 pool. f0 must never be the victim.
        let n_slots = 60;
        let f0 = SparseSeries::from_pairs((0..n_slots).map(|s| (s, 1)).collect());
        let f1 = SparseSeries::from_pairs((0..n_slots).step_by(4).map(|s| (s, 1)).collect());
        let f2 = SparseSeries::from_pairs((2..n_slots).step_by(4).map(|s| (s, 1)).collect());
        let trace = trace_of(vec![f0, f1, f2], n_slots);
        let mut p = FaasCache::new(3);
        let r = try_simulate(&trace, &mut p, SimConfig::new(0, n_slots).with_capacity(2)).unwrap();
        assert_eq!(r.cold_starts[0], 1, "hot function should stay cached");
        assert!(r.cold_starts[1] > 1);
        assert!(r.cold_starts[2] > 1);
    }

    #[test]
    fn unbounded_pool_never_evicts() {
        let trace = trace_of(vec![SparseSeries::from_pairs(vec![(0, 1), (50, 1)])], 100);
        let mut p = FaasCache::new(1);
        let r = try_simulate(&trace, &mut p, SimConfig::new(0, 100)).unwrap();
        assert_eq!(r.cold_starts[0], 1);
        // Kept loaded for the entire window after first load.
        assert_eq!(r.wmt[0], 98);
    }

    #[test]
    fn clock_advances_on_eviction() {
        let mut p = FaasCache::new(2);
        let mut pool = MemoryPool::with_capacity(2, Some(2));
        pool.load(FunctionId(0), 0);
        pool.load(FunctionId(1), 0);
        p.on_slot(0, &[(FunctionId(0), 3), (FunctionId(1), 1)], &mut pool);
        assert_eq!(p.priority[0], 3.0);
        assert_eq!(p.priority[1], 1.0);
        let victim = p.pick_victim(&pool).unwrap();
        assert_eq!(victim, FunctionId(1));
        assert_eq!(p.clock(), 1.0);
    }

    #[test]
    fn aging_lets_new_functions_beat_stale_ones() {
        let mut p = FaasCache::new(3);
        let mut pool = MemoryPool::with_capacity(3, Some(3));
        // f0 accessed heavily early on.
        pool.load(FunctionId(0), 0);
        p.on_slot(0, &[(FunctionId(0), 5)], &mut pool);
        // Lots of churn raises the clock past f0's priority.
        for i in 1..10u32 {
            pool.load(FunctionId(1), i);
            p.on_slot(i, &[(FunctionId(1), 1)], &mut pool);
            // Evict something to advance the clock.
            let v = p.pick_victim(&pool).unwrap();
            pool.evict(v);
        }
        assert!(p.clock() > 0.0);
    }

    #[test]
    fn victim_requires_loaded_instances() {
        let mut p = FaasCache::new(1);
        let pool = MemoryPool::with_capacity(1, Some(1));
        assert_eq!(p.pick_victim(&pool), None);
    }
}
