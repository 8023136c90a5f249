//! Snapshot/resume fidelity: cutting a run at *any* slot boundary,
//! serialising the driver with [`SimDriver::snapshot`], and continuing
//! via [`SimDriver::resume_from`] reproduces the uninterrupted run
//! bit-identically — the `RunResult`, the full `EventLog`, and every
//! attached observer's state.
//!
//! The cut is exhaustive, not sampled: each property case replays the
//! run once per possible boundary (including slot 0, before any step,
//! and the final boundary, after the last step). Policies with live
//! in-memory state (`FixedKeepAlive`, `ChurningPrewarm`) are carried
//! across the cut as the same instance — the crash-resume contract is
//! that the *driver* state round-trips through bytes while the caller
//! supplies an equivalently-warmed policy. Only the wall-clock
//! stopwatches (`SlotEnd::policy_secs`, `RunResult::overhead_secs`) are
//! normalised before comparison.

mod common;

use common::{make_policy, trace_strategy};
use proptest::prelude::*;
use spes_sim::{
    DynObserver, EventLog, EvictionAudit, Fairness, JournalEvent, JournalMeta, JournalObserver,
    JournalReader, MemoryPressure, SimConfig, SimDriver, SlotSeries, SnapshotError,
};
use spes_trace::{AppId, FunctionMeta, Slot, SparseSeries, Trace, TriggerType, UserId};

/// The full snapshot-bearing observer suite, in a fixed attachment
/// order (resume matches serialized observer state to the supplied
/// observers positionally by type name).
fn observer_suite(apps: &[AppId]) -> Vec<Box<dyn DynObserver>> {
    vec![
        Box::new(EventLog::new()),
        Box::new(SlotSeries::new()),
        Box::new(MemoryPressure::new()),
        Box::new(EvictionAudit::new(5)),
        Box::new(Fairness::new(apps)),
    ]
}

/// Every observer's end-of-run state, cloned/reported out of a driver
/// before `finish` consumes it.
struct SuiteState {
    log: EventLog,
    series: SlotSeries,
    pressure: MemoryPressure,
    audit: EvictionAudit,
    fairness: Fairness,
}

fn suite_state(driver: &SimDriver<'_>) -> SuiteState {
    SuiteState {
        log: driver.observer::<EventLog>().cloned().unwrap(),
        series: driver.observer::<SlotSeries>().cloned().unwrap(),
        pressure: driver.observer::<MemoryPressure>().cloned().unwrap(),
        audit: driver.observer::<EvictionAudit>().cloned().unwrap(),
        fairness: driver.observer::<Fairness>().cloned().unwrap(),
    }
}

/// For every boundary `k`, runs slots `0..k` fresh, snapshots, resumes
/// from the bytes with fresh observers, finishes slots `k..end`, and
/// asserts the result is indistinguishable from the uninterrupted run.
fn assert_snapshot_resume_identical(trace: &Trace, config: SimConfig, kind: u8, keep: u32) {
    let n = trace.n_functions();
    let apps: Vec<AppId> = trace.metas.iter().map(|m| m.app).collect();
    let batches = trace.slot_batches(config.start, config.end);

    // Uninterrupted reference run.
    let mut ref_policy = make_policy(kind, n, keep);
    let mut reference =
        SimDriver::new(n, config, ref_policy.as_mut(), observer_suite(&apps)).unwrap();
    for (slot, batch) in batches.iter() {
        reference.step(slot, batch).unwrap();
    }
    let ref_state = suite_state(&reference);
    let mut ref_result = reference.finish();
    ref_result.overhead_secs = 0.0;

    for k in 0..=batches.n_slots() {
        // Fresh prefix run up to the cut; the prefix driver is dropped
        // un-finished, exactly like a crash after the snapshot.
        let mut policy = make_policy(kind, n, keep);
        let snapshot = {
            let mut prefix =
                SimDriver::new(n, config, policy.as_mut(), observer_suite(&apps)).unwrap();
            for (slot, batch) in batches.iter().take(k) {
                prefix.step(slot, batch).unwrap();
            }
            prefix.snapshot()
        };

        let mut resumed =
            SimDriver::resume_from(&snapshot, policy.as_mut(), observer_suite(&apps)).unwrap();
        assert_eq!(resumed.next_slot(), config.start + k as Slot);
        for (slot, batch) in batches.iter().skip(k) {
            resumed.step(slot, batch).unwrap();
        }
        let state = suite_state(&resumed);
        let mut result = resumed.finish();
        result.overhead_secs = 0.0;

        assert_eq!(
            result, ref_result,
            "RunResult diverged at cut {k} (kind {kind})"
        );
        assert_eq!(
            state
                .log
                .events
                .iter()
                .map(JournalEvent::untimed)
                .collect::<Vec<_>>(),
            ref_state
                .log
                .events
                .iter()
                .map(JournalEvent::untimed)
                .collect::<Vec<_>>(),
            "event stream diverged at cut {k} (kind {kind})"
        );
        assert_eq!(state.log.policy_name, ref_state.log.policy_name);
        assert_eq!(state.log.start, ref_state.log.start);
        assert_eq!(state.log.metrics_start, ref_state.log.metrics_start);
        assert_eq!(state.log.end, ref_state.log.end);
        assert_eq!(state.log.n_functions, ref_state.log.n_functions);
        assert_eq!(
            state.series, ref_state.series,
            "SlotSeries diverged at cut {k}"
        );
        assert_eq!(
            state.pressure, ref_state.pressure,
            "MemoryPressure diverged at cut {k}"
        );
        assert_eq!(
            state.audit, ref_state.audit,
            "EvictionAudit diverged at cut {k}"
        );
        assert_eq!(
            state.fairness, ref_state.fairness,
            "Fairness diverged at cut {k}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Unlimited-memory runs with a warm-up window: the snapshot carries
    /// unmeasured prefix state (spans opened before `metrics_start`)
    /// that the resumed run must keep attributing correctly.
    #[test]
    fn snapshot_resume_is_bit_identical_unlimited(
        trace in trace_strategy(5, 2, 24, 24),
        kind in 0u8..4,
        keep in 1u32..6,
        warmup in 0u32..8,
    ) {
        let config = SimConfig::new(0, 24).with_metrics_start(warmup);
        assert_snapshot_resume_identical(&trace, config, kind, keep);
    }

    /// Capacity-limited runs: the pool's loaded *order* (the make-room
    /// fallback's oldest-loaded tie-break) must survive the round-trip.
    #[test]
    fn snapshot_resume_is_bit_identical_with_capacity(
        trace in trace_strategy(5, 2, 24, 24),
        kind in 0u8..4,
        keep in 1u32..6,
        capacity in 1usize..4,
    ) {
        let config = SimConfig::new(0, 24).with_capacity(capacity);
        assert_snapshot_resume_identical(&trace, config, kind, keep);
    }

    /// Admission-limited runs: the pressure budget and rejection
    /// counters round-trip.
    #[test]
    fn snapshot_resume_is_bit_identical_with_admission_budget(
        trace in trace_strategy(5, 2, 24, 24),
        kind in 0u8..4,
        keep in 1u32..6,
        budget in 1usize..4,
    ) {
        let config = SimConfig::new(0, 24).with_pressure_budget(budget);
        assert_snapshot_resume_identical(&trace, config, kind, keep);
    }
}

fn tiny_trace() -> Trace {
    let meta = FunctionMeta {
        app: AppId(0),
        user: UserId(0),
        trigger: TriggerType::Http,
    };
    Trace::new(
        6,
        vec![meta; 2],
        vec![
            SparseSeries::from_pairs(vec![(0, 2), (3, 1)]),
            SparseSeries::from_pairs(vec![(1, 1), (4, 2)]),
        ],
    )
}

fn mid_run_snapshot() -> Vec<u8> {
    let trace = tiny_trace();
    let config = SimConfig::new(0, 6);
    let mut policy = spes_sim::KeepForever;
    let mut driver = SimDriver::new(2, config, &mut policy, Vec::new()).unwrap();
    for (slot, batch) in trace.slot_batches(0, 3).iter() {
        driver.step(slot, batch).unwrap();
    }
    driver.snapshot()
}

#[test]
fn snapshot_rejects_foreign_bytes_and_tampering() {
    let snap = mid_run_snapshot();

    let mut policy = spes_sim::KeepForever;
    assert!(matches!(
        SimDriver::resume_from(b"not a snapshot at all", &mut policy, Vec::new()),
        Err(SnapshotError::BadMagic)
    ));

    // Future version: magic intact, version bumped.
    let mut future = snap.clone();
    future[8..12].copy_from_slice(&2u32.to_le_bytes());
    assert!(matches!(
        SimDriver::resume_from(&future, &mut policy, Vec::new()),
        Err(SnapshotError::UnsupportedVersion(2))
    ));

    // A flipped payload byte fails the checksum, not the decoder.
    let mut corrupt = snap.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0xff;
    assert!(matches!(
        SimDriver::resume_from(&corrupt, &mut policy, Vec::new()),
        Err(SnapshotError::Checksum)
    ));

    // A truncated blob is corrupt (length prefix no longer matches).
    assert!(matches!(
        SimDriver::resume_from(&snap[..snap.len() - 4], &mut policy, Vec::new()),
        Err(SnapshotError::Corrupt(_))
    ));
}

#[test]
fn resume_rejects_a_mismatched_policy() {
    let snap = mid_run_snapshot();
    let mut wrong = spes_sim::NoKeepAlive;
    match SimDriver::resume_from(&snap, &mut wrong, Vec::new()) {
        Err(SnapshotError::PolicyMismatch { expected, got }) => {
            assert_eq!(expected, "keep-forever");
            assert_eq!(got, "no-keep-alive");
        }
        Err(other) => panic!("expected PolicyMismatch, got {other}"),
        Ok(_) => panic!("expected PolicyMismatch, got a resumed driver"),
    }
}

#[test]
fn resume_rejects_dropped_observer_state() {
    let trace = tiny_trace();
    let config = SimConfig::new(0, 6);
    let mut policy = spes_sim::KeepForever;
    let observers: Vec<Box<dyn DynObserver>> = vec![Box::new(EventLog::new())];
    let mut driver = SimDriver::new(2, config, &mut policy, observers).unwrap();
    for (slot, batch) in trace.slot_batches(0, 3).iter() {
        driver.step(slot, batch).unwrap();
    }
    let snap = driver.snapshot();

    // Resuming without the EventLog would silently lose its recorded
    // prefix — the driver refuses instead.
    match SimDriver::resume_from(&snap, &mut policy, Vec::new()) {
        Err(SnapshotError::UnmatchedObserverState(name)) => {
            assert!(name.contains("EventLog"), "unexpected observer: {name}");
        }
        Err(other) => panic!("expected UnmatchedObserverState, got {other}"),
        Ok(_) => panic!("expected UnmatchedObserverState, got a resumed driver"),
    }
}

/// The converse hole: an observer the snapshot has no state for never
/// sees `on_run_start`, so a stateful one (`EvictionAudit` sizes itself
/// there) is refused instead of panicking at its first event. A
/// stateless sink still attaches mid-run.
#[test]
fn resume_rejects_a_stateful_observer_it_cannot_start() {
    let trace = tiny_trace();
    let config = SimConfig::new(0, 6);
    let batches = trace.slot_batches(0, 6);
    let mut policy = spes_sim::KeepForever;
    let observers: Vec<Box<dyn DynObserver>> = vec![Box::new(MemoryPressure::new())];
    let mut driver = SimDriver::new(2, config, &mut policy, observers).unwrap();
    for (slot, batch) in batches.iter().take(3) {
        driver.step(slot, batch).unwrap();
    }
    let snap = driver.snapshot();

    let extra: Vec<Box<dyn DynObserver>> = vec![
        Box::new(MemoryPressure::new()),
        Box::new(EvictionAudit::new(3)),
    ];
    match SimDriver::resume_from(&snap, &mut policy, extra) {
        Err(SnapshotError::UnstartedObserver(name)) => {
            assert!(
                name.contains("EvictionAudit"),
                "unexpected observer: {name}"
            );
        }
        Err(other) => panic!("expected UnstartedObserver, got {other}"),
        Ok(_) => panic!("expected UnstartedObserver, got a resumed driver"),
    }

    let meta = JournalMeta {
        policy_name: "keep-forever".to_owned(),
        n_functions: 2,
        config,
        trace_digest: 0,
        seed: 0,
        extra: Vec::new(),
    };
    let sink: Vec<Box<dyn DynObserver>> = vec![
        Box::new(MemoryPressure::new()),
        Box::new(JournalObserver::new(Vec::new(), &meta).unwrap()),
    ];
    let mut resumed = SimDriver::resume_from(&snap, &mut policy, sink).unwrap();
    for (slot, batch) in batches.iter().skip(3) {
        resumed.step(slot, batch).unwrap();
    }
    let (_, mut observers) = resumed.finish_with_observers();
    let journal = observers
        .take::<JournalObserver<Vec<u8>>>()
        .unwrap()
        .into_inner()
        .unwrap();
    let events = JournalReader::new(journal.as_slice())
        .unwrap()
        .read_all()
        .unwrap();
    assert_eq!(events.first().map(|e| e.slot), Some(3));
}

/// A snapshot taken before the first step (cut at slot 0) still carries
/// the policy's pre-start loads in scratch, so slot one's outcome and
/// stream are unchanged.
#[test]
fn snapshot_before_first_step_preserves_prestart_loads() {
    let trace = tiny_trace();
    let config = SimConfig::new(0, 6);
    let batches = trace.slot_batches(0, 6);

    let mut ref_policy = spes_sim::KeepForever;
    let observers: Vec<Box<dyn DynObserver>> = vec![Box::new(EventLog::new())];
    let mut reference = SimDriver::new(2, config, &mut ref_policy, observers).unwrap();
    for (slot, batch) in batches.iter() {
        reference.step(slot, batch).unwrap();
    }
    let ref_log = reference.observer::<EventLog>().cloned().unwrap();
    let mut ref_result = reference.finish();
    ref_result.overhead_secs = 0.0;

    let mut policy = spes_sim::KeepForever;
    let observers: Vec<Box<dyn DynObserver>> = vec![Box::new(EventLog::new())];
    let snap = SimDriver::new(2, config, &mut policy, observers)
        .unwrap()
        .snapshot();
    let fresh: Vec<Box<dyn DynObserver>> = vec![Box::new(EventLog::new())];
    let mut resumed = SimDriver::resume_from(&snap, &mut policy, fresh).unwrap();
    for (slot, batch) in batches.iter() {
        resumed.step(slot, batch).unwrap();
    }
    let log = resumed.observer::<EventLog>().cloned().unwrap();
    let mut result = resumed.finish();
    result.overhead_secs = 0.0;

    assert_eq!(result, ref_result);
    assert_eq!(
        log.events
            .iter()
            .map(JournalEvent::untimed)
            .collect::<Vec<_>>(),
        ref_log
            .events
            .iter()
            .map(JournalEvent::untimed)
            .collect::<Vec<_>>()
    );
}
