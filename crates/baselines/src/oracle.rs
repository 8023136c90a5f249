//! A clairvoyant oracle policy — the provisioning upper bound.
//!
//! Not part of the paper's comparison, but the natural yardstick its
//! "ideal scheduler" paragraph describes (Section IV): *"decide to load a
//! function exactly before its invocation and evict it from memory after
//! the execution if no more invocations are imminent."* The oracle reads
//! the future from the trace: an instance is kept across a gap only when
//! the gap is at most `keep_horizon` (modelling the break-even point
//! between keep-alive cost and cold-start cost); otherwise it is evicted
//! immediately and re-loaded exactly at the next invocation — zero cold
//! starts after the first, with minimal wasted memory.
//!
//! Use it to normalise how close any realisable policy gets to the
//! achievable frontier.

use spes_sim::{Agenda, MemoryPool, Policy};
use spes_trace::{FunctionId, Slot, Trace};

/// The clairvoyant keep-or-reload oracle.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// Per function, all invoked slots (sorted), read from the trace.
    schedule: Vec<Vec<Slot>>,
    /// Cursor into each function's schedule.
    cursor: Vec<usize>,
    /// Re-load agenda: slot -> functions to load just before invocation.
    agenda: Agenda<FunctionId>,
    /// Gaps of at most this many slots are ridden out in memory.
    keep_horizon: u32,
}

impl Oracle {
    /// Builds the oracle from the full trace. `keep_horizon` is the
    /// longest idle gap worth keeping an instance loaded for (1 mimics a
    /// perfectly frugal scheduler; larger values trade memory for fewer
    /// load operations, not fewer cold starts — the oracle never misses).
    #[must_use]
    pub fn new(trace: &Trace, keep_horizon: u32) -> Self {
        let schedule: Vec<Vec<Slot>> = trace
            .series
            .iter()
            .map(|s| s.events().iter().map(|&(slot, _)| slot).collect())
            .collect();
        Self {
            cursor: vec![0; schedule.len()],
            schedule,
            agenda: Agenda::default(),
            keep_horizon,
        }
    }

    /// The frugal oracle: evict after every gap longer than one slot.
    #[must_use]
    pub fn frugal(trace: &Trace) -> Self {
        Self::new(trace, 1)
    }

    fn next_invocation_after(&self, f: FunctionId, now: Slot) -> Option<Slot> {
        let slots = &self.schedule[f.index()];
        let mut i = self.cursor[f.index()];
        while i < slots.len() && slots[i] <= now {
            i += 1;
        }
        slots.get(i).copied()
    }
}

impl Policy for Oracle {
    fn name(&self) -> &str {
        "oracle"
    }

    fn on_start(&mut self, start: Slot, pool: &mut MemoryPool) {
        // Pre-load everything invoked at the very first slot.
        for (i, slots) in self.schedule.iter().enumerate() {
            if let Some(&first) = slots.iter().find(|&&s| s >= start) {
                if first == start {
                    pool.load(FunctionId(i as u32), start);
                } else {
                    self.agenda.schedule(first, FunctionId(i as u32));
                }
            }
        }
    }

    fn on_slot(&mut self, now: Slot, invoked: &[(FunctionId, u32)], pool: &mut MemoryPool) {
        // Serve the agenda for the next slot: load exactly one slot ahead
        // of each upcoming invocation.
        for f in self.agenda.drain_through(now.saturating_add(1)) {
            pool.load(f, now);
        }

        for &(f, _) in invoked {
            // Advance the cursor past `now`.
            let slots = &self.schedule[f.index()];
            let mut i = self.cursor[f.index()];
            while i < slots.len() && slots[i] <= now {
                i += 1;
            }
            self.cursor[f.index()] = i;

            match self.next_invocation_after(f, now) {
                Some(next) if next - now <= self.keep_horizon => {
                    // Short gap: ride it out in memory.
                }
                Some(next) => {
                    // Long gap: evict now, schedule an exact re-load.
                    pool.evict(f);
                    self.agenda.schedule(next, f);
                }
                None => {
                    // Never invoked again: evict for good.
                    pool.evict(f);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spes_sim::{try_simulate, SimConfig};
    use spes_trace::{AppId, FunctionMeta, SparseSeries, TriggerType, UserId};

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
    fn oracle_never_misses_after_start() {
        let trace = trace_of(
            vec![SparseSeries::from_pairs(vec![(3, 1), (50, 2), (90, 1)])],
            100,
        );
        let mut oracle = Oracle::frugal(&trace);
        let run = try_simulate(&trace, &mut oracle, SimConfig::new(0, 100)).unwrap();
        assert_eq!(
            run.total_cold_starts(),
            0,
            "the oracle pre-loads everything"
        );
    }

    #[test]
    fn frugal_oracle_wastes_one_slot_per_reload() {
        let trace = trace_of(vec![SparseSeries::from_pairs(vec![(10, 1), (60, 1)])], 100);
        let mut oracle = Oracle::frugal(&trace);
        let run = try_simulate(&trace, &mut oracle, SimConfig::new(0, 100)).unwrap();
        assert_eq!(run.total_cold_starts(), 0);
        // Pre-loaded at 9 and 59 (one idle slot each), evicted right after
        // serving.
        assert_eq!(run.total_wmt(), 2);
    }

    #[test]
    fn keep_horizon_rides_short_gaps() {
        let trace = trace_of(
            vec![SparseSeries::from_pairs(vec![(10, 1), (14, 1), (80, 1)])],
            100,
        );
        let mut oracle = Oracle::new(&trace, 5);
        let run = try_simulate(&trace, &mut oracle, SimConfig::new(0, 100)).unwrap();
        assert_eq!(run.total_cold_starts(), 0);
        // Gap 10->14 (3 idle slots) ridden out; gap to 80 re-loaded with
        // one pre-warm slot.
        assert_eq!(run.total_wmt(), 3 + 1 + 1);
    }

    #[test]
    fn oracle_lower_bounds_spes() {
        use spes_core::{SpesConfig, SpesPolicy};
        use spes_trace::{synth, SynthConfig};

        let data = synth::generate(&SynthConfig {
            n_functions: 200,
            seed: 77,
            ..SynthConfig::default()
        });
        let trace = &data.trace;
        let train_end = 12 * spes_trace::SLOTS_PER_DAY;
        let window = SimConfig::new(0, trace.n_slots).with_metrics_start(train_end);

        let mut oracle = Oracle::frugal(trace);
        let oracle_run = try_simulate(trace, &mut oracle, window).unwrap();
        let mut spes = SpesPolicy::fit(trace, 0, train_end, SpesConfig::default());
        let spes_run = try_simulate(trace, &mut spes, window).unwrap();

        assert_eq!(oracle_run.total_cold_starts(), 0);
        assert!(oracle_run.total_wmt() <= spes_run.total_wmt());
        assert!(spes_run.total_cold_starts() > 0, "realisable policies miss");
    }

    #[test]
    fn empty_trace_is_a_noop() {
        let trace = trace_of(vec![SparseSeries::new()], 50);
        let mut oracle = Oracle::frugal(&trace);
        let run = try_simulate(&trace, &mut oracle, SimConfig::new(0, 50)).unwrap();
        assert_eq!(run.total_cold_starts(), 0);
        assert_eq!(run.total_wmt(), 0);
        assert_eq!(run.mean_loaded(), 0.0);
    }
}
