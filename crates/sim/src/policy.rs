//! The provisioning-policy interface.
//!
//! A policy decides, minute by minute, which function instances to keep
//! loaded, pre-load, or evict. The engine owns warm/cold accounting so
//! every policy is measured identically; policies only mutate the
//! [`MemoryPool`].

use crate::memory::MemoryPool;
use spes_trace::{FunctionId, Slot};

/// A function-provisioning policy (SPES or one of the baselines).
pub trait Policy {
    /// Human-readable policy name used in reports.
    fn name(&self) -> &str;

    /// Called once before the first simulated slot; policies that keep a
    /// standing set of instances (e.g. SPES's always-warm functions) load
    /// them here so the first slot's invocations find them warm.
    fn on_start(&mut self, _start: Slot, _pool: &mut MemoryPool) {}

    /// Called once per simulated minute, after the engine has recorded the
    /// slot's invocations and force-loaded every invoked function (cold
    /// starts are charged by the engine at that point).
    ///
    /// `invoked` lists `(function, count)` for every function invoked at
    /// `now`. The policy updates its internal state and may evict idle
    /// instances or pre-load instances for predicted future invocations.
    fn on_slot(&mut self, now: Slot, invoked: &[(FunctionId, u32)], pool: &mut MemoryPool);

    /// Called by the engine when an invoked function must be loaded into a
    /// full pool: return a loaded victim to evict. Returning `None` makes
    /// the engine drop the oldest-loaded instance as a last resort.
    ///
    /// Only meaningful for capacity-limited runs (FaaSCache).
    fn pick_victim(&mut self, _pool: &MemoryPool) -> Option<FunctionId> {
        None
    }

    /// Optional per-function category label (SPES exposes its function
    /// types here) for the per-type metrics of Figs. 10 and 12.
    fn category_of(&self, _f: FunctionId) -> Option<&'static str> {
        None
    }

    /// Type-erased view of the concrete policy, for harnesses that need
    /// to recover policy-specific state from a suite-built
    /// `Box<dyn Policy>` after its run (e.g. SPES's offline fit report).
    /// Policies opt in by returning `Some(self)`; the default opts out.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Serialises the policy's *mutable run state* for
    /// [`crate::engine::SimDriver::snapshot`]. `None` (the default)
    /// declares the state non-snapshottable: a resumed run must then be
    /// handed a policy instance the caller warmed up itself (e.g. by
    /// re-driving the journal prefix through a throwaway driver — what
    /// `spes-replay --check --snapshot` does), and any state the caller
    /// gets wrong is caught by the replay-divergence checker rather
    /// than silently altering the run. Stateless policies return
    /// `Some(Vec::new())`.
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state captured by [`Policy::snapshot_state`]. Only
    /// called when the snapshot actually carried a state blob. The
    /// default accepts the stateless empty blob and rejects anything
    /// else.
    ///
    /// # Errors
    /// Returns a description of the mismatch when `state` cannot be
    /// decoded.
    fn restore_state(&mut self, state: &[u8]) -> Result<(), String> {
        if state.is_empty() {
            Ok(())
        } else {
            Err("policy does not implement state restore".to_owned())
        }
    }
}

/// The trivial always-evict policy: nothing is ever kept warm. Every
/// invocation after the first slot of an active run is a cold start. This
/// is the "no keep-alive" lower bound, useful in tests and sanity checks.
#[derive(Debug, Default, Clone)]
pub struct NoKeepAlive;

impl Policy for NoKeepAlive {
    fn name(&self) -> &str {
        "no-keep-alive"
    }

    fn on_slot(&mut self, _now: Slot, _invoked: &[(FunctionId, u32)], pool: &mut MemoryPool) {
        // Evict everything that is loaded; invoked functions were loaded by
        // the engine this slot and are dropped immediately after serving.
        pool.clear();
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        Some(Vec::new())
    }
}

/// The trivial keep-everything policy: once loaded, an instance is never
/// evicted ("keep all functions warm", which the paper rules out as
/// infeasible). Useful as the zero-cold-start / maximal-memory bound.
#[derive(Debug, Default, Clone)]
pub struct KeepForever;

impl Policy for KeepForever {
    fn name(&self) -> &str {
        "keep-forever"
    }

    fn on_slot(&mut self, _now: Slot, _invoked: &[(FunctionId, u32)], _pool: &mut MemoryPool) {}

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        Some(Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_keep_alive_evicts_all() {
        let mut pool = MemoryPool::unbounded(3);
        pool.load(FunctionId(0), 0);
        pool.load(FunctionId(2), 0);
        NoKeepAlive.on_slot(0, &[], &mut pool);
        assert_eq!(pool.loaded_count(), 0);
    }

    #[test]
    fn keep_forever_keeps() {
        let mut pool = MemoryPool::unbounded(3);
        pool.load(FunctionId(1), 0);
        KeepForever.on_slot(5, &[], &mut pool);
        assert!(pool.contains(FunctionId(1)));
    }

    #[test]
    fn default_victim_is_none() {
        let pool = MemoryPool::unbounded(1);
        assert_eq!(KeepForever.pick_victim(&pool), None);
    }

    #[test]
    fn default_category_is_none() {
        assert_eq!(NoKeepAlive.category_of(FunctionId(0)), None);
    }
}
