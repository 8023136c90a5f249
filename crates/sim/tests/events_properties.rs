//! Event-stream completeness: every paper metric can be reconstructed
//! from the [`EventLog`] alone.
//!
//! The reconstructor below knows nothing about the engine's pool — it
//! replays Load/Evict events into its own loaded-set and re-derives
//! invocations, cold starts, WMT, the loaded-instance integral, EMCR,
//! and the overhead total with the *old* per-slot accounting walk. If
//! the stream ever dropped or misordered a transition, or the
//! span-based [`RunCollector`] accounting diverged from the per-slot
//! definition, these properties would catch it on random traces ×
//! {no-keep-alive, keep-forever, fixed-keep-alive} policies.

use proptest::prelude::*;
use spes_sim::{
    EventLog, LoadCause, MemoryPool, Policy, RunCollector, SimConfig, SimEvent, Simulation,
    SlotSeries,
};
use spes_trace::{AppId, FunctionId, FunctionMeta, Slot, SparseSeries, Trace, TriggerType, UserId};
use std::collections::HashSet;

fn trace_strategy(n_functions: usize, horizon: Slot) -> impl Strategy<Value = Trace> {
    prop::collection::vec(
        prop::collection::vec((0..horizon, 1u32..20), 0..40),
        n_functions,
    )
    .prop_map(move |all| {
        let meta = FunctionMeta {
            app: AppId(0),
            user: UserId(0),
            trigger: TriggerType::Http,
        };
        let series = all.into_iter().map(SparseSeries::from_pairs).collect();
        Trace::new(horizon, vec![meta; n_functions], series)
    })
}

/// Keep-alive for a fixed number of slots after the last invocation.
struct FixedKeepAlive {
    last_invoked: Vec<Option<Slot>>,
    keep: u32,
}

impl FixedKeepAlive {
    fn new(n: usize, keep: u32) -> Self {
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

/// Aggressively pre-warms a rotating window of functions each slot on
/// top of fixed keep-alive eviction — churny enough to exercise
/// admission control from both sides (loads racing the budget, evictions
/// re-opening headroom).
struct ChurningPrewarm {
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

fn make_policy(kind: u8, n: usize, keep: u32) -> Box<dyn Policy> {
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

/// The old per-slot accounting, re-derived purely from a recorded event
/// stream (no pool access).
struct Reconstructed {
    invocations: Vec<u64>,
    cold_starts: Vec<u64>,
    wmt: Vec<u64>,
    loaded_integral: u64,
    emcr_sum: f64,
    emcr_slots: u64,
    overhead_secs: f64,
    peak_loaded: usize,
}

fn reconstruct(log: &EventLog) -> Reconstructed {
    let n = log.n_functions;
    let mut r = Reconstructed {
        invocations: vec![0; n],
        cold_starts: vec![0; n],
        wmt: vec![0; n],
        loaded_integral: 0,
        emcr_sum: 0.0,
        emcr_slots: 0,
        overhead_secs: 0.0,
        peak_loaded: 0,
    };
    let mut loaded: HashSet<FunctionId> = HashSet::new();
    let mut invoked_this_slot: HashSet<FunctionId> = HashSet::new();
    for logged in &log.events {
        match logged.event {
            SimEvent::ColdStart { f, count } => {
                invoked_this_slot.insert(f);
                if logged.measured {
                    r.invocations[f.index()] += u64::from(count);
                    r.cold_starts[f.index()] += 1;
                }
            }
            SimEvent::WarmStart { f, count } => {
                invoked_this_slot.insert(f);
                if logged.measured {
                    r.invocations[f.index()] += u64::from(count);
                }
            }
            SimEvent::Load { f, .. } => {
                loaded.insert(f);
            }
            SimEvent::Evict { f, .. } => {
                loaded.remove(&f);
            }
            // Rejected loads change nothing; the loaded set is untouched.
            SimEvent::LoadRejected { .. } => {}
            SimEvent::SlotEnd { policy_secs } => {
                if logged.measured {
                    r.overhead_secs += policy_secs;
                    let loaded_now = loaded.len();
                    r.loaded_integral += loaded_now as u64;
                    r.peak_loaded = r.peak_loaded.max(loaded_now);
                    if loaded_now > 0 {
                        let mut invoked_loaded = 0usize;
                        // lint: allow(D001) order-insensitive: per-function counters plus a count
                        for &f in &loaded {
                            if invoked_this_slot.contains(&f) {
                                invoked_loaded += 1;
                            } else {
                                r.wmt[f.index()] += 1;
                            }
                        }
                        r.emcr_sum += invoked_loaded as f64 / loaded_now as f64;
                        r.emcr_slots += 1;
                    }
                }
                invoked_this_slot.clear();
            }
        }
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn event_stream_reconstructs_the_run_result(
        trace in trace_strategy(10, 120),
        kind in 0u8..3,
        keep in 1u32..8,
        split in 0u32..120,
    ) {
        let mut policy = make_policy(kind, trace.n_functions(), keep);
        let mut observers = Simulation::new(&trace, SimConfig::new(0, 120).with_metrics_start(split))
            .with_observer(Box::new(RunCollector::new()))
            .with_observer(Box::new(EventLog::new()))
            .run(policy.as_mut())
            .unwrap();
        let run = observers.take::<RunCollector>().unwrap().into_result();
        let log: EventLog = observers.take().unwrap();
        let rebuilt = reconstruct(&log);

        prop_assert_eq!(&rebuilt.invocations, &run.invocations);
        prop_assert_eq!(&rebuilt.cold_starts, &run.cold_starts);
        prop_assert_eq!(&rebuilt.wmt, &run.wmt, "span-based WMT diverged from per-slot WMT");
        prop_assert_eq!(rebuilt.loaded_integral, run.loaded_integral);
        prop_assert_eq!(rebuilt.emcr_slots, run.emcr_slots);
        prop_assert_eq!(rebuilt.peak_loaded, run.peak_loaded);
        // Identical per-slot terms summed in identical order.
        prop_assert_eq!(rebuilt.emcr_sum.to_bits(), run.emcr_sum.to_bits());
        prop_assert_eq!(rebuilt.overhead_secs.to_bits(), run.overhead_secs.to_bits());
    }

    #[test]
    fn event_stream_reconstructs_capacity_limited_runs(
        trace in trace_strategy(10, 80),
        cap in 1usize..8,
    ) {
        let mut policy = spes_sim::KeepForever;
        let mut observers = Simulation::new(&trace, SimConfig::new(0, 80).with_capacity(cap))
            .with_observer(Box::new(RunCollector::new()))
            .with_observer(Box::new(EventLog::new()))
            .run(&mut policy)
            .unwrap();
        let run = observers.take::<RunCollector>().unwrap().into_result();
        let log: EventLog = observers.take().unwrap();
        let rebuilt = reconstruct(&log);
        prop_assert_eq!(&rebuilt.wmt, &run.wmt);
        prop_assert_eq!(rebuilt.loaded_integral, run.loaded_integral);
        prop_assert!(rebuilt.peak_loaded <= cap);
        prop_assert_eq!(rebuilt.peak_loaded, run.peak_loaded);
    }

    #[test]
    fn admission_control_reconstructs_and_respects_the_budget(
        trace in trace_strategy(10, 100),
        kind in 0u8..4,
        budget in 0usize..6,
        cap_raw in 0usize..9,
        split in 0u32..100,
    ) {
        let mut policy = make_policy(kind, trace.n_functions(), 3);
        let mut config = SimConfig::new(0, 100)
            .with_metrics_start(split)
            .with_pressure_budget(budget);
        // Values below 3 mean "no hard capacity"; the rest combine the
        // soft budget with a capacity-limited pool.
        if cap_raw >= 3 {
            config = config.with_capacity(cap_raw);
        }
        let mut observers = Simulation::new(&trace, config)
            .with_observer(Box::new(RunCollector::new()))
            .with_observer(Box::new(EventLog::new()))
            .run(policy.as_mut())
            .unwrap();
        let run = observers.take::<RunCollector>().unwrap().into_result();
        let log: EventLog = observers.take().unwrap();
        let rebuilt = reconstruct(&log);

        // With admission enabled the stream is still the complete source
        // of truth: every paper metric reconstructs bit-identically.
        prop_assert_eq!(&rebuilt.invocations, &run.invocations);
        prop_assert_eq!(&rebuilt.cold_starts, &run.cold_starts);
        prop_assert_eq!(&rebuilt.wmt, &run.wmt);
        prop_assert_eq!(rebuilt.loaded_integral, run.loaded_integral);
        prop_assert_eq!(rebuilt.emcr_slots, run.emcr_slots);
        prop_assert_eq!(rebuilt.peak_loaded, run.peak_loaded);
        prop_assert_eq!(rebuilt.emcr_sum.to_bits(), run.emcr_sum.to_bits());

        // Replaying occupancy from the stream: policy loads are admitted
        // only below the budget, rejections only happen at or above it,
        // and demand loads are never rejected.
        let mut occ = 0usize;
        for logged in &log.events {
            match logged.event {
                SimEvent::Load { cause, .. } => {
                    if cause == LoadCause::Policy {
                        prop_assert!(
                            occ < budget,
                            "policy load admitted at occupancy {} >= budget {}",
                            occ,
                            budget
                        );
                    }
                    occ += 1;
                }
                SimEvent::Evict { .. } => occ -= 1,
                SimEvent::LoadRejected { .. } => {
                    prop_assert!(
                        occ >= budget,
                        "load rejected with headroom: occupancy {} < budget {}",
                        occ,
                        budget
                    );
                }
                _ => {}
            }
        }
    }

    #[test]
    fn slot_series_totals_match_the_run(
        trace in trace_strategy(8, 100),
        kind in 0u8..3,
    ) {
        let mut policy = make_policy(kind, trace.n_functions(), 3);
        let mut observers = Simulation::new(&trace, SimConfig::new(0, 100))
            .with_observer(Box::new(RunCollector::new()))
            .with_observer(Box::new(SlotSeries::new()))
            .run(policy.as_mut())
            .unwrap();
        let run = observers.take::<RunCollector>().unwrap().into_result();
        let series: SlotSeries = observers.take().unwrap();
        prop_assert_eq!(series.n_slots() as u64, run.n_slots());
        let cold: u64 = series.cold.iter().map(|&c| u64::from(c)).sum();
        prop_assert_eq!(cold, run.total_cold_starts());
        let loaded: u64 = series.loaded.iter().map(|&l| u64::from(l)).sum();
        prop_assert_eq!(loaded, run.loaded_integral);
        let peak = series.loaded.iter().copied().max().unwrap_or(0) as usize;
        prop_assert_eq!(peak, run.peak_loaded);
    }
}
