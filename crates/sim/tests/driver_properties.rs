//! Step/batch parity: driving [`SimDriver::step`] slot-by-slot is the
//! same engine as the batch `Simulation::run` loop.
//!
//! The batch path is now itself a thin loop over the driver, so these
//! properties pin the *public* stepping contract: an external caller
//! feeding slots one at a time (the serving path) reproduces the
//! `RunResult` and the full `EventLog` of `try_simulate` bit-identically
//! — including on capacity-limited and admission-limited runs, where the
//! engine's make-room fallback and pressure rejections fire mid-slot.
//! Only the wall-clock policy-overhead stopwatch is exempt (normalised
//! to zero on both sides before comparison).

mod common;

use common::{make_policy, trace_strategy};
use proptest::prelude::*;
use spes_sim::{
    try_simulate, DynObserver, EventLog, EvictionAudit, JournalEvent, MemoryPressure, RunCollector,
    SimConfig, SimDriver, Simulation,
};
use spes_trace::{AppId, FunctionMeta, SparseSeries, Trace, TriggerType, UserId};

/// Runs the batch path and the hand-stepped driver path over the same
/// trace/config/policy and asserts `RunResult` + `EventLog` parity.
fn assert_step_parity(trace: &Trace, config: SimConfig, kind: u8, keep: u32) {
    let n = trace.n_functions();

    // Batch side: try_simulate's metrics plus a recorded stream.
    let mut batch_policy = make_policy(kind, n, keep);
    let mut observers = Simulation::new(trace, config)
        .with_observer(Box::new(RunCollector::new()))
        .with_observer(Box::new(EventLog::new()))
        .run(batch_policy.as_mut())
        .unwrap();
    let mut batch = observers.take::<RunCollector>().unwrap().into_result();
    let batch_log: EventLog = observers.take().unwrap();

    // Stepped side: an externally driven SimDriver over the same slots.
    let mut stepped_policy = make_policy(kind, n, keep);
    let observers: Vec<Box<dyn DynObserver>> = vec![Box::new(EventLog::new())];
    let mut driver = SimDriver::new(n, config, stepped_policy.as_mut(), observers).unwrap();
    for (slot, batch) in trace.slot_batches(config.start, config.end).iter() {
        let outcome = driver.step(slot, batch).unwrap();
        assert_eq!(outcome.slot, slot);
        let expected: u64 = batch.iter().map(|&(_, c)| u64::from(c)).sum();
        assert_eq!(outcome.invocations, expected);
    }
    let stepped_log = driver.observer::<EventLog>().cloned().unwrap();
    let mut stepped = driver.finish();

    batch.overhead_secs = 0.0;
    stepped.overhead_secs = 0.0;
    assert_eq!(stepped, batch, "RunResult diverged (kind {kind})");

    assert_eq!(
        stepped_log
            .events
            .iter()
            .map(JournalEvent::untimed)
            .collect::<Vec<_>>(),
        batch_log
            .events
            .iter()
            .map(JournalEvent::untimed)
            .collect::<Vec<_>>(),
        "event stream diverged (kind {kind})"
    );
    assert_eq!(stepped_log.policy_name, batch_log.policy_name);
    assert_eq!(stepped_log.start, batch_log.start);
    assert_eq!(stepped_log.metrics_start, batch_log.metrics_start);
    assert_eq!(stepped_log.end, batch_log.end);
    assert_eq!(stepped_log.n_functions, batch_log.n_functions);
}

/// Derived observers see the same stream on both paths: a batch
/// `Simulation::run` and a hand-stepped driver, each carrying an
/// `EvictionAudit` + `MemoryPressure` pair, agree on every eviction and
/// pressure counter.
fn assert_observer_combo_parity(trace: &Trace, config: SimConfig, kind: u8, keep: u32) {
    let n = trace.n_functions();
    let pair = || -> Vec<Box<dyn DynObserver>> {
        vec![
            Box::new(EvictionAudit::new(3)),
            Box::new(MemoryPressure::new()),
        ]
    };

    let mut batch_policy = make_policy(kind, n, keep);
    let mut batch = pair()
        .into_iter()
        .fold(Simulation::new(trace, config), Simulation::with_observer)
        .run(batch_policy.as_mut())
        .unwrap();

    let mut stepped_policy = make_policy(kind, n, keep);
    let mut driver = SimDriver::new(n, config, stepped_policy.as_mut(), pair()).unwrap();
    for (slot, batch) in trace.slot_batches(config.start, config.end).iter() {
        driver.step(slot, batch).unwrap();
    }
    let (_, mut stepped) = driver.finish_with_observers();

    assert_eq!(
        stepped.take::<EvictionAudit>().unwrap(),
        batch.take::<EvictionAudit>().unwrap(),
        "eviction audit diverged (kind {kind})"
    );
    assert_eq!(
        stepped.take::<MemoryPressure>().unwrap(),
        batch.take::<MemoryPressure>().unwrap(),
        "memory pressure diverged (kind {kind})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Unlimited-memory runs, with and without a warm-up window.
    #[test]
    fn stepping_matches_batch_unlimited(
        trace in trace_strategy(6, 1, 40, 40),
        kind in 0u8..4,
        keep in 1u32..6,
        warmup in 0u32..10,
    ) {
        let config = SimConfig::new(0, 40).with_metrics_start(warmup);
        assert_step_parity(&trace, config, kind, keep);
    }

    /// Capacity-limited runs: the make-room fallback (oldest-loaded
    /// eviction) fires inside `step` exactly as it did inside the batch
    /// loop.
    #[test]
    fn stepping_matches_batch_with_capacity(
        trace in trace_strategy(6, 1, 40, 40),
        kind in 0u8..4,
        keep in 1u32..6,
        capacity in 1usize..4,
    ) {
        let config = SimConfig::new(0, 40).with_capacity(capacity);
        assert_step_parity(&trace, config, kind, keep);
    }

    /// Admission-limited runs: pressure rejections of pre-warm loads are
    /// emitted at the same points of the stream.
    #[test]
    fn stepping_matches_batch_with_admission_budget(
        trace in trace_strategy(6, 1, 40, 40),
        kind in 0u8..4,
        keep in 1u32..6,
        budget in 1usize..4,
    ) {
        let config = SimConfig::new(0, 40).with_pressure_budget(budget);
        assert_step_parity(&trace, config, kind, keep);
    }

    /// Observer combinations: `EvictionAudit` + `MemoryPressure` derive
    /// identical state whether attached to the batch loop or to a
    /// hand-stepped driver, across unconstrained, capacity-limited, and
    /// admission-limited configs.
    #[test]
    fn observer_combos_match_between_batch_and_stepped(
        trace in trace_strategy(6, 1, 40, 40),
        kind in 0u8..4,
        keep in 1u32..6,
        mode in 0u8..3,
        limit in 1usize..4,
    ) {
        let config = match mode {
            0 => SimConfig::new(0, 40),
            1 => SimConfig::new(0, 40).with_capacity(limit),
            _ => SimConfig::new(0, 40).with_pressure_budget(limit),
        };
        assert_observer_combo_parity(&trace, config, kind, keep);
    }
}

/// A non-property pin of the fallible wrappers' agreement: `try_simulate`
/// is the batch loop, and a driver stepped over the same window returns
/// the same `RunResult` through `finish`.
#[test]
fn try_simulate_is_the_stepped_driver() {
    let meta = FunctionMeta {
        app: AppId(0),
        user: UserId(0),
        trigger: TriggerType::Http,
    };
    let trace = Trace::new(
        8,
        vec![meta; 2],
        vec![
            SparseSeries::from_pairs(vec![(0, 3), (4, 1)]),
            SparseSeries::from_pairs(vec![(2, 2)]),
        ],
    );
    let config = SimConfig::new(0, 8).with_capacity(1);
    let mut batch = try_simulate(&trace, &mut spes_sim::KeepForever, config).unwrap();
    let mut policy = spes_sim::KeepForever;
    let mut driver = SimDriver::new(2, config, &mut policy, Vec::new()).unwrap();
    for (slot, batch) in trace.slot_batches(0, 8).iter() {
        driver.step(slot, batch).unwrap();
    }
    let mut stepped = driver.finish();
    batch.overhead_secs = 0.0;
    stepped.overhead_secs = 0.0;
    assert_eq!(stepped, batch);
}
