//! [`ShardCounts`], the per-slot pool-count observer.
//!
//! Its module path is its v1 snapshot label: the blob of a run that
//! attached it files the state under `spes_sim::shard::ShardCounts`
//! ([`crate::events::Observer::state_label`]), which stays fixed
//! wherever the type lives.

use crate::events::{EventCtx, Observer, SimEvent};
use spes_trace::FunctionId;

/// Per-slot `(loaded, invoked-and-loaded)` integer counts, recorded at
/// every measured `SlotEnd`.
///
/// `loaded` is the pool's size at the end of the slot; the second count
/// is how many of the functions invoked in that slot are still loaded
/// then. They are the integers behind the global per-slot metrics of a
/// [`crate::RunResult`]: summed over slots, `loaded` is
/// `loaded_integral`, its maximum is `peak_loaded`, and each slot with
/// `loaded > 0` adds `invoked-and-loaded / loaded` to the EMCR sum. It
/// is kept for the v1 snapshot format, whose golden blob carries its
/// state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardCounts {
    counts: Vec<(u64, u64)>,
    invoked_this_slot: Vec<FunctionId>,
}

impl ShardCounts {
    /// Creates an empty recorder; it fills itself during the run.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded `(loaded, invoked-and-loaded)` pairs, one per
    /// measured slot in slot order.
    #[must_use]
    pub fn counts(&self) -> &[(u64, u64)] {
        &self.counts
    }
}

impl Observer for ShardCounts {
    fn on_event(&mut self, ctx: &EventCtx<'_>, event: &SimEvent) {
        match *event {
            SimEvent::ColdStart { f, .. } | SimEvent::WarmStart { f, .. } => {
                self.invoked_this_slot.push(f);
            }
            SimEvent::Load { .. } | SimEvent::Evict { .. } | SimEvent::LoadRejected { .. } => {}
            SimEvent::SlotEnd { .. } => {
                if ctx.measured {
                    let loaded = ctx.pool.loaded_count() as u64;
                    let invoked_loaded = self
                        .invoked_this_slot
                        .iter()
                        .filter(|&&f| ctx.pool.contains(f))
                        .count() as u64;
                    self.counts.push((loaded, invoked_loaded));
                }
                self.invoked_this_slot.clear();
            }
        }
    }

    observer_state!("spes_sim::shard::ShardCounts");
}

wire_record!(ShardCounts {
    counts,
    invoked_this_slot,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;

    /// A corrupt blob that declares 2^40 count pairs fails at the end of
    /// its payload instead of reserving terabytes up front.
    #[test]
    fn restore_rejects_an_impossible_length_without_allocating_it() {
        let blob = wire::encode(&[&(1u64 << 40)]);
        let err = ShardCounts::new().restore(&blob).unwrap_err();
        assert!(err.contains("end of payload"), "{err}");
    }

    #[test]
    fn shard_counts_snapshot_round_trips() {
        let mut counts = ShardCounts::new();
        counts.counts = vec![(3, 1), (0, 0), (7, 7)];
        counts.invoked_this_slot = vec![FunctionId(2), FunctionId(5)];
        let blob = counts.snapshot();
        let mut restored = ShardCounts::new();
        restored.restore(&blob).expect("restore");
        assert_eq!(restored, counts);
        assert!(restored.restore(&[1, 2, 3]).is_err());
    }
}
