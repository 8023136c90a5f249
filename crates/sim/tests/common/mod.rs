//! Fixtures shared by the engine's property tests: the random-trace
//! strategy and the in-test policies.

// Each test binary compiles this module and uses only part of it.
#![allow(dead_code)]

use proptest::prelude::*;
use spes_sim::{MemoryPool, Policy};
use spes_trace::{AppId, FunctionId, FunctionMeta, Slot, SparseSeries, Trace, TriggerType, UserId};

/// Random traces of `n_functions` functions spread round-robin over
/// `n_apps` applications, each with up to `max_events` (slot, count)
/// draws inside `horizon`.
pub fn trace_strategy(
    n_functions: usize,
    n_apps: u32,
    max_events: usize,
    horizon: Slot,
) -> impl Strategy<Value = Trace> {
    prop::collection::vec(
        prop::collection::vec((0..horizon, 1u32..20), 0..max_events),
        n_functions,
    )
    .prop_map(move |all| {
        let metas = (0..n_functions as u32)
            .map(|i| FunctionMeta {
                app: AppId(i % n_apps),
                user: UserId(0),
                trigger: TriggerType::Http,
            })
            .collect();
        let series = all.into_iter().map(SparseSeries::from_pairs).collect();
        Trace::new(horizon, metas, series)
    })
}

/// Keep-alive for a fixed number of slots after the last invocation —
/// deliberately *without* `snapshot_state`, so the snapshot properties
/// also cover the caller-warmed-policy path of the resume contract.
pub struct FixedKeepAlive {
    last_invoked: Vec<Option<Slot>>,
    keep: u32,
}

impl FixedKeepAlive {
    pub fn new(n: usize, keep: u32) -> Self {
        Self {
            last_invoked: vec![None; n],
            keep,
        }
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
        for f in pool.loaded().to_vec() {
            match self.last_invoked[f.index()] {
                Some(last) if now - last >= self.keep => {
                    pool.evict(f);
                }
                None => {
                    pool.evict(f);
                }
                _ => {}
            }
        }
    }
}

/// Pre-warms a rotating window of functions each slot on top of fixed
/// keep-alive eviction: churny enough that pressure-admission
/// rejections and, under a hard capacity, the engine's make-room
/// fallback fire mid-slot.
pub struct ChurningPrewarm {
    keep: FixedKeepAlive,
    width: u32,
}

impl Policy for ChurningPrewarm {
    fn name(&self) -> &str {
        "churning-prewarm"
    }

    fn on_slot(&mut self, now: Slot, invoked: &[(FunctionId, u32)], pool: &mut MemoryPool) {
        let n = pool.n_functions() as u32;
        for i in 0..self.width.min(n) {
            if pool.is_full() {
                break;
            }
            pool.load(FunctionId((now + i) % n), now);
        }
        self.keep.on_slot(now, invoked, pool);
    }
}

/// Policy `kind`: 0 no keep-alive, 1 keep forever, 2 fixed keep-alive
/// of `keep` slots, otherwise a churning pre-warmer over it.
pub fn make_policy(kind: u8, n: usize, keep: u32) -> Box<dyn Policy> {
    match kind {
        0 => Box::new(spes_sim::NoKeepAlive),
        1 => Box::new(spes_sim::KeepForever),
        2 => Box::new(FixedKeepAlive::new(n, keep)),
        _ => Box::new(ChurningPrewarm {
            keep: FixedKeepAlive::new(n, keep),
            width: 3,
        }),
    }
}
