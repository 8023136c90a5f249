//! Property-based tests of the simulation engine: pool algebra and
//! engine accounting invariants under arbitrary workloads and policies.

mod common;

use common::trace_strategy;
use proptest::prelude::*;
use spes_sim::{try_simulate, KeepForever, MemoryPool, NoKeepAlive, Policy, SimConfig};
use spes_trace::{FunctionId, Slot};

/// A policy that takes pseudo-random load/evict actions, to fuzz the
/// engine's accounting from the policy side.
struct ChaoticPolicy {
    state: u64,
}

impl ChaoticPolicy {
    fn next(&mut self) -> u64 {
        // xorshift64*
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        self.state = self.state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        self.state
    }
}

impl Policy for ChaoticPolicy {
    fn name(&self) -> &str {
        "chaotic"
    }

    fn on_slot(&mut self, now: Slot, _invoked: &[(FunctionId, u32)], pool: &mut MemoryPool) {
        let n = pool.n_functions() as u64;
        if n == 0 {
            return;
        }
        for _ in 0..4 {
            let f = FunctionId((self.next() % n) as u32);
            if self.next().is_multiple_of(2) {
                if !pool.is_full() {
                    pool.load(f, now);
                }
            } else {
                pool.evict(f);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pool_operations_preserve_invariants(ops in prop::collection::vec((0u32..20, any::<bool>()), 0..200)) {
        let mut pool = MemoryPool::unbounded(20);
        let mut reference = std::collections::HashSet::new();
        for (f, load) in ops {
            let id = FunctionId(f);
            if load {
                pool.load(id, 0);
                reference.insert(f);
            } else {
                pool.evict(id);
                reference.remove(&f);
            }
            prop_assert_eq!(pool.loaded_count(), reference.len());
            prop_assert_eq!(pool.contains(id), reference.contains(&f));
        }
        let mut loaded: Vec<u32> = pool.loaded().iter().map(|f| f.0).collect();
        loaded.sort_unstable();
        let mut expected: Vec<u32> = reference.into_iter().collect();
        expected.sort_unstable();
        prop_assert_eq!(loaded, expected);
    }

    #[test]
    fn evict_where_matches_the_snapshot_sweep(
        ops in prop::collection::vec((0u32..20, any::<bool>()), 0..120),
        doomed in prop::collection::vec(any::<bool>(), 20),
        cutoff in 0u32..120,
    ) {
        let mut pool = MemoryPool::unbounded(20);
        for (t, &(f, load)) in ops.iter().enumerate() {
            if load {
                pool.load(FunctionId(f), t as Slot);
            } else {
                pool.evict(FunctionId(f));
            }
        }
        let evict = |f: FunctionId, since: Slot| doomed[f.index()] || since < cutoff;

        // Reference: evict one by one over a copy of the loaded list.
        let mut reference = pool.clone();
        for f in reference.loaded().to_vec() {
            if evict(f, reference.loaded_since(f)) {
                reference.evict(f);
            }
        }

        let before = pool.loaded().to_vec();
        let mut visited = Vec::new();
        pool.evict_where(|f, since| {
            visited.push(f);
            evict(f, since)
        });
        prop_assert_eq!(visited, before);
        prop_assert_eq!(pool.loaded(), reference.loaded());
        for &f in pool.loaded() {
            prop_assert_eq!(pool.loaded_since(f), reference.loaded_since(f));
        }
        prop_assert_eq!(pool.oldest_loaded(), reference.oldest_loaded());
    }

    #[test]
    fn engine_accounting_invariants(trace in trace_strategy(12, 1, 40, 120), seed in 1u64..5000) {
        let mut policy = ChaoticPolicy { state: seed };
        let run = try_simulate(&trace, &mut policy, SimConfig::new(0, 120)).unwrap();
        let window = 120u64;
        for f in 0..trace.n_functions() {
            let invoked_slots =
                trace.series_of(FunctionId(f as u32)).events_in(0, 120).len() as u64;
            prop_assert!(run.cold_starts[f] <= invoked_slots);
            prop_assert!(run.wmt[f] <= window);
            prop_assert_eq!(
                run.invocations[f],
                trace.series_of(FunctionId(f as u32)).total_invocations()
            );
        }
        prop_assert!(run.loaded_integral >= run.total_wmt());
        prop_assert!(run.peak_loaded <= trace.n_functions());
        prop_assert!((0.0..=1.0).contains(&run.emcr()));
    }

    #[test]
    fn keep_forever_is_cold_start_optimal(trace in trace_strategy(8, 1, 40, 100)) {
        // No policy can have fewer cold starts than keep-forever with
        // unbounded memory: exactly one per invoked function.
        let run = try_simulate(&trace, &mut KeepForever, SimConfig::new(0, 100)).unwrap();
        for f in 0..trace.n_functions() {
            let expected = u64::from(!trace.series_of(FunctionId(f as u32)).is_empty());
            prop_assert_eq!(run.cold_starts[f], expected);
        }
    }

    #[test]
    fn no_keep_alive_is_memory_optimal(trace in trace_strategy(8, 1, 40, 100)) {
        // Dropping everything immediately wastes zero memory and pays a
        // cold start for every active slot.
        let run = try_simulate(&trace, &mut NoKeepAlive, SimConfig::new(0, 100)).unwrap();
        prop_assert_eq!(run.total_wmt(), 0);
        for f in 0..trace.n_functions() {
            let active = trace.series_of(FunctionId(f as u32)).active_slots() as u64;
            prop_assert_eq!(run.cold_starts[f], active);
        }
    }

    #[test]
    fn metrics_window_is_consistent_with_full_run(
        trace in trace_strategy(6, 1, 40, 100),
        split in 1u32..99,
    ) {
        // Cold starts measured in [split, 100) can never exceed the
        // full-window count for a stateless-warmup policy.
        let full = try_simulate(&trace, &mut NoKeepAlive, SimConfig::new(0, 100)).unwrap();
        let windowed = try_simulate(
            &trace,
            &mut NoKeepAlive,
            SimConfig::new(0, 100).with_metrics_start(split),
        )
        .unwrap();
        prop_assert!(windowed.total_cold_starts() <= full.total_cold_starts());
        prop_assert!(windowed.total_invocations() <= full.total_invocations());
    }

    #[test]
    fn capacity_bounds_peak(trace in trace_strategy(10, 1, 40, 80), cap in 1usize..10) {
        let run = try_simulate(
            &trace,
            &mut KeepForever,
            SimConfig::new(0, 80).with_capacity(cap),
        )
        .unwrap();
        prop_assert!(run.peak_loaded <= cap);
        // Same invocations are served regardless of memory.
        let direct: u64 = trace.series.iter().map(|s| s.total_invocations()).sum();
        prop_assert_eq!(run.total_invocations(), direct);
    }
}
