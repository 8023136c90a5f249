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
//!
//! The last properties pin slot-at-a-time delivery: every batch's
//! [`SlotBatch`] facts equal a naive walk of its events, live, resumed
//! and replayed, and every workspace observer ends each slot in the
//! same state whether it takes the slot's batch through its own
//! [`Observer::on_slot_events`] or one event at a time, under every
//! registry policy.

mod common;

use common::{make_policy, trace_strategy};
use proptest::prelude::*;
use spes_bench::policies::{policy_names, PolicyCell};
use spes_sim::{
    DynObserver, EventCtx, EventLog, EvictionAudit, Fairness, JournalMeta, JournalObserver,
    JournalReader, LoadCause, MemoryPool, MemoryPressure, Observer, ObserverSet, RunCollector,
    RunMeta, ShardCounts, SimConfig, SimDriver, SimEvent, Simulation, SlotBatch, SlotSeries,
};
use spes_trace::{FunctionId, Slot, SynthTrace, Trace};
use std::collections::HashSet;

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
        trace in trace_strategy(10, 1, 40, 120),
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
        trace in trace_strategy(10, 1, 40, 80),
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
        trace in trace_strategy(10, 1, 40, 100),
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
        trace in trace_strategy(8, 1, 40, 100),
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

/// Forces per-event delivery: it implements `on_event` and not
/// `on_slot_events`, so the default batch loop hands the wrapped
/// observer one event at a time, as a forwarding wrapper that times
/// each event does.
struct PerEvent<T>(T);

impl<T: Observer> Observer for PerEvent<T> {
    fn on_run_start(&mut self, meta: &RunMeta<'_>, pool: &MemoryPool) {
        self.0.on_run_start(meta, pool);
    }

    fn on_event(&mut self, ctx: &EventCtx<'_>, event: &SimEvent) {
        self.0.on_event(ctx, event);
    }

    fn on_run_end(&mut self, end: Slot, pool: &MemoryPool) {
        self.0.on_run_end(end, pool);
    }

    fn snapshot(&self) -> Vec<u8> {
        self.0.snapshot()
    }

    fn restore(&mut self, state: &[u8]) -> Result<(), String> {
        self.0.restore(state)
    }
}

/// Records every delivered batch as `(slot, events, SlotEnd position)`
/// and refuses per-event delivery.
#[derive(Default)]
struct BatchLog(Vec<(Slot, usize, Option<usize>)>);

impl Observer for BatchLog {
    fn on_event(&mut self, _ctx: &EventCtx<'_>, _event: &SimEvent) {
        panic!("an event bypassed slot-at-a-time delivery");
    }

    fn on_slot_events(&mut self, ctx: &EventCtx<'_>, batch: &SlotBatch<'_>) {
        let events = batch.events();
        let ends: Vec<usize> = (0..events.len())
            .filter(|&i| matches!(events[i], SimEvent::SlotEnd { .. }))
            .collect();
        assert!(ends.len() <= 1, "one batch holds {} slots", ends.len());
        self.0.push((ctx.slot, events.len(), ends.first().copied()));
    }
}

impl BatchLog {
    /// Checks one batch per slot of `[start, end)`, in order, each ending
    /// with its `SlotEnd`, after at most one pre-start batch (with
    /// `pre_start`) that holds no `SlotEnd`.
    fn check(&self, start: Slot, end: Slot, pre_start: bool) -> Result<(), TestCaseError> {
        let mut batches = self.0.as_slice();
        if pre_start && batches.len() as u64 == u64::from(end - start) + 1 {
            prop_assert_eq!((batches[0].0, batches[0].2), (start, None));
            batches = &batches[1..];
        }
        prop_assert_eq!(batches.len() as u64, u64::from(end - start));
        for (slot, &(at, len, slot_end)) in (start..end).zip(batches) {
            prop_assert_eq!(at, slot);
            prop_assert_eq!(slot_end, Some(len - 1), "slot {} ends mid-batch", slot);
        }
        Ok(())
    }
}

/// Checks every delivered batch's [`SlotBatch`] facts against a naive
/// walk of its events. The walk starts from an occupancy the observer
/// counts itself, from the run start through every `Load` and `Evict`;
/// its snapshot carries that count across a resume.
#[derive(Default)]
struct FactsCheck {
    occupancy: usize,
    batches: u64,
    /// The first batch whose facts differed from the walk.
    mismatch: Option<String>,
}

impl FactsCheck {
    fn walk(&mut self, ctx: &EventCtx<'_>, batch: &SlotBatch<'_>) -> Result<(), String> {
        let (mut cold, mut warm) = (0u32, 0u32);
        let (mut evictions, mut rejected, mut invoked_loaded) = (0usize, 0usize, 0usize);
        let (mut demand, mut policy) = (Vec::new(), Vec::new());
        let mut peak = self.occupancy;
        for event in batch.events() {
            match *event {
                SimEvent::ColdStart { f, .. } => {
                    cold += 1;
                    invoked_loaded += usize::from(ctx.measured && ctx.pool.contains(f));
                }
                SimEvent::WarmStart { f, .. } => {
                    warm += 1;
                    invoked_loaded += usize::from(ctx.measured && ctx.pool.contains(f));
                }
                SimEvent::Load { f, cause } => {
                    match cause {
                        LoadCause::Demand => demand.push(f),
                        LoadCause::Policy => policy.push(f),
                    }
                    self.occupancy += 1;
                    peak = peak.max(self.occupancy);
                }
                SimEvent::Evict { .. } => {
                    evictions += 1;
                    self.occupancy -= 1;
                }
                SimEvent::LoadRejected { .. } => rejected += 1,
                SimEvent::SlotEnd { .. } => {}
            }
        }
        let walked = (
            (cold, warm, evictions, rejected),
            (demand.as_slice(), policy.as_slice()),
            (peak, invoked_loaded, self.occupancy),
        );
        let facts = (
            (
                batch.cold_starts(),
                batch.warm_starts(),
                batch.evictions(),
                batch.rejected_loads(),
            ),
            (batch.demand_loads(), batch.policy_loads()),
            (
                batch.peak_occupancy(),
                batch.invoked_loaded(),
                ctx.pool.loaded_count(),
            ),
        );
        if facts == walked {
            Ok(())
        } else {
            Err(format!(
                "slot {} (measured {}): facts {facts:?}, walk {walked:?}",
                ctx.slot, ctx.measured
            ))
        }
    }
}

impl Observer for FactsCheck {
    fn on_run_start(&mut self, _meta: &RunMeta<'_>, pool: &MemoryPool) {
        self.occupancy = pool.loaded_count();
    }

    fn on_event(&mut self, _ctx: &EventCtx<'_>, _event: &SimEvent) {
        panic!("an event bypassed slot-at-a-time delivery");
    }

    fn on_slot_events(&mut self, ctx: &EventCtx<'_>, batch: &SlotBatch<'_>) {
        self.batches += 1;
        if let Err(mismatch) = self.walk(ctx, batch) {
            self.mismatch.get_or_insert(mismatch);
        }
    }

    /// The occupancy and the batch count, as two little-endian `u64`s.
    fn snapshot(&self) -> Vec<u8> {
        [self.occupancy as u64, self.batches]
            .iter()
            .flat_map(|word| word.to_le_bytes())
            .collect()
    }

    fn restore(&mut self, state: &[u8]) -> Result<(), String> {
        let word = |i: usize| -> Result<u64, String> {
            let bytes = state
                .get(8 * i..8 * i + 8)
                .ok_or("short FactsCheck state")?;
            Ok(u64::from_le_bytes(bytes.try_into().unwrap()))
        };
        self.occupancy = word(0)? as usize;
        self.batches = word(1)?;
        Ok(())
    }
}

/// Fails with the first batch whose facts differed from the walk.
fn facts_hold(check: Option<&FactsCheck>) -> Result<u64, TestCaseError> {
    let check = check.unwrap();
    prop_assert!(
        check.mismatch.is_none(),
        "{}",
        check.mismatch.as_deref().unwrap()
    );
    Ok(check.batches)
}

/// A journal of `config`'s run over `n_functions` functions.
fn journal_meta(name: &str, n_functions: usize, config: SimConfig) -> JournalMeta {
    JournalMeta {
        policy_name: name.to_owned(),
        n_functions,
        config,
        trace_digest: 0,
        seed: 0,
        extra: Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The facts handed over without walking a batch (the slot's
    /// ledger from the batch's marks on, the pool's occupancy high-water
    /// mark, the invoked-and-loaded count) against a naive walk of the
    /// batch's events: plain, under a hard capacity and under a pressure
    /// budget, resumed from a snapshot at a random boundary, and
    /// replayed from the prefix's journal (which fills the same ledger
    /// as it emits).
    #[test]
    fn batch_facts_match_a_naive_walk_of_the_events(
        trace in trace_strategy(10, 1, 40, 60),
        kind in 0u8..4,
        limit in 1usize..6,
        split in 0u32..60,
        cut in 0u32..61,
    ) {
        let n = trace.n_functions();
        let plain = SimConfig::new(0, 60).with_metrics_start(split);
        let batches = trace.slot_batches(0, 60);
        for config in [
            plain,
            plain.with_capacity(limit),
            plain.with_pressure_budget(limit),
        ] {
            let meta = journal_meta("hunt", n, config);
            let mut policy = make_policy(kind, n, 3);
            let observers: Vec<Box<dyn DynObserver>> = vec![
                Box::new(FactsCheck::default()),
                Box::new(Journal::new(Vec::new(), &meta).unwrap()),
            ];
            let mut driver = SimDriver::new(n, config, policy.as_mut(), observers).unwrap();
            facts_hold(driver.observer())?;
            for t in 0..cut {
                driver.step(t, batches.batch(t)).unwrap();
                facts_hold(driver.observer())?;
            }
            let snapshot = driver.snapshot();
            let (_, mut prefix) = driver.finish_with_observers();
            let bytes = prefix.take::<Journal>().unwrap().into_inner().unwrap();
            let reader = JournalReader::new(bytes.as_slice()).unwrap();
            let replayed =
                spes_sim::journal::replay(reader, vec![Box::new(FactsCheck::default())]).unwrap();
            let replayed_batches = facts_hold(replayed.get())?;
            prop_assert!(replayed_batches >= u64::from(cut));

            let resumed: Vec<Box<dyn DynObserver>> = vec![Box::new(FactsCheck::default())];
            let mut driver = SimDriver::resume_from(&snapshot, policy.as_mut(), resumed).unwrap();
            for t in cut..60 {
                driver.step(t, batches.batch(t)).unwrap();
                facts_hold(driver.observer())?;
            }
            let checked = facts_hold(driver.observer())?;
            prop_assert!(checked >= 60, "{} batches checked", checked);
        }
    }
}

/// Boxes `observer`, inside a [`PerEvent`] when `per_event`.
fn attach<T: Observer + 'static>(observer: T, per_event: bool) -> Box<dyn DynObserver> {
    if per_event {
        Box::new(PerEvent(observer))
    } else {
        Box::new(observer)
    }
}

type Journal = JournalObserver<Vec<u8>>;

/// Every workspace observer, each inside a [`PerEvent`] when
/// `per_event`.
fn workspace_observers(
    trace: &Trace,
    meta: &JournalMeta,
    per_event: bool,
) -> Vec<Box<dyn DynObserver>> {
    vec![
        attach(RunCollector::new(), per_event),
        attach(SlotSeries::new(), per_event),
        attach(EvictionAudit::new(5), per_event),
        attach(MemoryPressure::new(), per_event),
        attach(Fairness::from_trace(trace), per_event),
        attach(EventLog::new(), per_event),
        attach(ShardCounts::new(), per_event),
        attach(Journal::new(Vec::new(), meta).unwrap(), per_event),
    ]
}

/// Whether `T` took its batches into the same state as its per-event
/// twin; a journal compares its event count.
fn same_state<T: Observer + 'static>(driver: &SimDriver<'_>) -> Result<(), TestCaseError> {
    let batched = driver.observer::<T>().unwrap();
    let per_event = &driver.observer::<PerEvent<T>>().unwrap().0;
    prop_assert!(
        batched.snapshot() == per_event.snapshot(),
        "{} differs at slot boundary {}",
        std::any::type_name::<T>(),
        driver.next_slot()
    );
    Ok(())
}

fn all_same_state(driver: &SimDriver<'_>) -> Result<(), TestCaseError> {
    same_state::<RunCollector>(driver)?;
    same_state::<SlotSeries>(driver)?;
    same_state::<EvictionAudit>(driver)?;
    same_state::<MemoryPressure>(driver)?;
    same_state::<Fairness>(driver)?;
    same_state::<EventLog>(driver)?;
    same_state::<ShardCounts>(driver)?;
    let journal = driver.observer::<Journal>().unwrap();
    let twin = &driver.observer::<PerEvent<Journal>>().unwrap().0;
    prop_assert_eq!(journal.events_written(), twin.events_written());
    Ok(())
}

/// Every workspace observer twice, batched and per event, then a
/// [`BatchLog`].
fn twinned_observers(trace: &Trace, meta: &JournalMeta) -> Vec<Box<dyn DynObserver>> {
    let mut observers = workspace_observers(trace, meta, false);
    observers.extend(workspace_observers(trace, meta, true));
    observers.push(Box::new(BatchLog::default()));
    observers
}

/// Checks a finished run's [`BatchLog`] over `[start, end)` and that the
/// batched journal's bytes equal its per-event twin's; returns them.
fn journal_of(
    observers: &mut ObserverSet,
    start: Slot,
    end: Slot,
    pre_start: bool,
) -> Result<Vec<u8>, TestCaseError> {
    observers
        .take::<BatchLog>()
        .unwrap()
        .check(start, end, pre_start)?;
    let bytes = observers.take::<Journal>().unwrap().into_inner().unwrap();
    let twin = observers
        .take::<PerEvent<Journal>>()
        .unwrap()
        .0
        .into_inner()
        .unwrap();
    prop_assert!(bytes == twin, "journals differ over [{}, {})", start, end);
    Ok(bytes)
}

/// Runs `cell`'s policy under `config` with [`twinned_observers`],
/// comparing the twins at every slot boundary; the run is snapshotted
/// at `cut` and resumed with fresh observers (a cut of 0 resumes before
/// the first step, which then folds the `on_start` ops into its outcome
/// scratch).
fn delivery_matches(
    trace: &Trace,
    cell: &PolicyCell<'_>,
    name: &str,
    config: SimConfig,
    cut: Slot,
) -> Result<(), TestCaseError> {
    let n_slots = trace.n_slots;
    let batches = trace.slot_batches(0, n_slots);
    let meta = JournalMeta {
        trace_digest: trace.digest64(),
        ..journal_meta(name, trace.n_functions(), config)
    };
    let mut policy = cell.build();
    let mut driver = SimDriver::new(
        trace.n_functions(),
        config,
        policy.as_mut(),
        twinned_observers(trace, &meta),
    )
    .unwrap();
    all_same_state(&driver)?;
    for t in 0..cut {
        driver.step(t, batches.batch(t)).unwrap();
        all_same_state(&driver)?;
    }
    let snapshot = driver.snapshot();
    let (_, mut prefix) = driver.finish_with_observers();
    let bytes = journal_of(&mut prefix, 0, cut, true)?;

    // A replay delivers one batch per recorded slot, with the pre-start
    // loads folded into the first (or, before any slot, delivered as a
    // tail of their own).
    let reader = JournalReader::new(bytes.as_slice()).unwrap();
    let mut replayed =
        spes_sim::journal::replay(reader, vec![Box::new(BatchLog::default())]).unwrap();
    replayed
        .take::<BatchLog>()
        .unwrap()
        .check(0, cut, cut == 0)?;

    let mut driver =
        SimDriver::resume_from(&snapshot, policy.as_mut(), twinned_observers(trace, &meta))
            .unwrap();
    all_same_state(&driver)?;
    for t in cut..n_slots {
        driver.step(t, batches.batch(t)).unwrap();
        all_same_state(&driver)?;
    }
    let (_, mut tail) = driver.finish_with_observers();
    journal_of(&mut tail, cut, n_slots, false)?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Batched against per-event delivery under every registry policy,
    /// plain, under a hard capacity and under a pressure budget. The
    /// policies fit on `[0, train_end)`, which SPES needs non-empty;
    /// each run is measured once from slot 0, so the policy's `on_start`
    /// batch is measured too, and once from `train_end`. Each run is
    /// resumed before its first step and again at `cut`.
    #[test]
    fn batch_delivery_equals_per_event_delivery(
        trace in trace_strategy(9, 3, 40, 72),
        train_end in 1u32..60,
        limit in 1usize..6,
        cut in 1u32..73,
    ) {
        let data = SynthTrace {
            trace,
            specs: Vec::new(),
            train_end,
        };
        let trace = &data.trace;
        for name in policy_names() {
            let cell = PolicyCell::new(name, &data).unwrap();
            for metrics_start in [0, train_end] {
                let plain = SimConfig::new(0, trace.n_slots).with_metrics_start(metrics_start);
                for config in [
                    plain,
                    plain.with_capacity(limit),
                    plain.with_pressure_budget(limit),
                ] {
                    for at in [0, cut] {
                        delivery_matches(trace, &cell, name, config, at)?;
                    }
                }
            }
        }
    }
}
