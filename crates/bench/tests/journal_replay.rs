//! A journal replays to the live run: for every standalone registry
//! policy on the quick scenario — and for three of them under a hard
//! capacity and under a pressure budget — replaying the run's journal
//! with `spes_sim::journal::replay` leaves every workspace observer's
//! `snapshot()` byte-identical to the live run's, and a journal replayed
//! into a `JournalObserver` re-encodes to the recorded bytes.

use spes_bench::{Experiment, PolicyCell};
use spes_sim::journal::replay;
use spes_sim::{
    DynObserver, EventLog, EvictionAudit, Fairness, JournalMeta, JournalObserver, JournalReader,
    MemoryPressure, Observer, ObserverSet, RunCollector, ShardCounts, SimConfig, Simulation,
    SlotSeries, PREMATURE_RELOAD_WINDOW,
};
use spes_trace::SynthTrace;

/// The seven observers the workspace ships, fresh.
fn workspace_observers(data: &SynthTrace) -> Vec<Box<dyn DynObserver>> {
    vec![
        Box::new(RunCollector::new()),
        Box::new(SlotSeries::new()),
        Box::new(EvictionAudit::new(PREMATURE_RELOAD_WINDOW)),
        Box::new(MemoryPressure::new()),
        Box::new(Fairness::from_trace(&data.trace)),
        Box::new(ShardCounts::new()),
        Box::new(EventLog::new()),
    ]
}

/// Every workspace observer's state blob, by type name.
fn snapshots(set: &ObserverSet) -> Vec<(&'static str, Vec<u8>)> {
    fn blob<T: Observer + 'static>(set: &ObserverSet) -> (&'static str, Vec<u8>) {
        let observer = set
            .get::<T>()
            .expect("every workspace observer is attached");
        (std::any::type_name::<T>(), observer.snapshot())
    }
    vec![
        blob::<RunCollector>(set),
        blob::<SlotSeries>(set),
        blob::<EvictionAudit>(set),
        blob::<MemoryPressure>(set),
        blob::<Fairness>(set),
        blob::<ShardCounts>(set),
        blob::<EventLog>(set),
    ]
}

fn quick_data() -> SynthTrace {
    Experiment::cell("quick", 60, 7, true).unwrap().generate()
}

/// Runs `policy` live with every workspace observer and a journal
/// attached, replays the journal and compares, and returns the replayed
/// observers.
fn assert_replay_matches_live(
    data: &SynthTrace,
    policy: &str,
    limit: fn(SimConfig) -> SimConfig,
) -> ObserverSet {
    let trace = &data.trace;
    let config = limit(SimConfig::new(0, trace.n_slots).with_metrics_start(data.train_end));
    let mut policy = PolicyCell::new(policy, data).unwrap().build();
    let meta = JournalMeta {
        policy_name: policy.name().to_owned(),
        n_functions: trace.n_functions(),
        config,
        trace_digest: trace.digest64(),
        seed: 7,
        extra: Vec::new(),
    };
    let case = format!("{} under {config:?}", meta.policy_name);
    let mut live = workspace_observers(data)
        .into_iter()
        .fold(Simulation::new(trace, config), Simulation::with_observer)
        .with_observer(Box::new(JournalObserver::new(Vec::new(), &meta).unwrap()))
        .run(policy.as_mut())
        .unwrap();
    let journal = live
        .take::<JournalObserver<Vec<u8>>>()
        .unwrap()
        .into_inner()
        .unwrap();

    let reader = JournalReader::new(journal.as_slice()).unwrap();
    let replayed = replay(reader, workspace_observers(data)).unwrap();
    for ((name, live), (_, replayed)) in snapshots(&live).into_iter().zip(snapshots(&replayed)) {
        assert!(live == replayed, "{case}: {name} replays differently");
    }

    let reader = JournalReader::new(journal.as_slice()).unwrap();
    let rewriter = JournalObserver::new(Vec::new(), reader.meta()).unwrap();
    let reencoded = replay(reader, vec![Box::new(rewriter)])
        .unwrap()
        .take::<JournalObserver<Vec<u8>>>()
        .unwrap()
        .into_inner()
        .unwrap();
    assert!(
        reencoded == journal,
        "{case}: the journal re-encodes differently"
    );
    replayed
}

#[test]
fn every_standalone_policy_replays_to_its_live_observers() {
    let data = quick_data();
    for policy in [
        "spes",
        "defuse",
        "hybrid-function",
        "hybrid-application",
        "fixed-keep-alive",
        "oracle",
        "keep-forever",
        "no-keep-alive",
    ] {
        assert_replay_matches_live(&data, policy, |config| config);
    }
}

/// Capacity 5 forces capacity evictions and, for the pre-warming SPES,
/// pre-warms refused by a full pool (which panicked before a full pool
/// refused policy loads).
#[test]
fn capacity_limited_runs_replay_to_their_live_observers() {
    let data = quick_data();
    for policy in ["keep-forever", "fixed-keep-alive", "spes"] {
        let replayed = assert_replay_matches_live(&data, policy, |config| config.with_capacity(5));
        let audit = replayed.get::<EvictionAudit>().unwrap();
        assert!(
            audit.capacity_evictions > 0,
            "{policy} never hit capacity 5"
        );
        let pressure = replayed.get::<MemoryPressure>().unwrap();
        assert_eq!(pressure.peak_occupancy, 5, "{policy}");
        if policy == "spes" {
            assert!(pressure.rejected_loads > 0, "spes pre-warmed into room");
        }
    }
}

#[test]
fn pressure_budgeted_runs_replay_to_their_live_observers() {
    let data = quick_data();
    for policy in ["keep-forever", "fixed-keep-alive", "spes"] {
        let replayed =
            assert_replay_matches_live(&data, policy, |config| config.with_pressure_budget(3));
        if policy == "spes" {
            let pressure = replayed.get::<MemoryPressure>().unwrap();
            assert!(
                pressure.rejected_loads > 0,
                "spes pre-warmed under budget 3"
            );
        }
    }
}
