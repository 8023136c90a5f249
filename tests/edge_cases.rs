//! Failure-injection and edge-case tests across the workspace: degenerate
//! traces, single-slot horizons, capacity-1 pools, and pathological
//! function behaviour must not panic or corrupt accounting.

use spes::baselines::{FixedKeepAlive, Oracle};
use spes::core::{SpesConfig, SpesPolicy};
use spes::sim::{try_simulate, KeepForever, SimConfig};
use spes::trace::{AppId, FunctionMeta, SparseSeries, Trace, TriggerType, UserId, SLOTS_PER_DAY};

fn meta() -> FunctionMeta {
    FunctionMeta {
        app: AppId(0),
        user: UserId(0),
        trigger: TriggerType::Http,
    }
}

#[test]
fn all_silent_trace_runs_cleanly() {
    let trace = Trace::new(
        3 * SLOTS_PER_DAY,
        vec![meta(); 10],
        vec![SparseSeries::new(); 10],
    );
    let mut spes = SpesPolicy::fit(&trace, 0, 2 * SLOTS_PER_DAY, SpesConfig::default());
    let run = try_simulate(
        &trace,
        &mut spes,
        SimConfig::new(0, trace.n_slots).with_metrics_start(2 * SLOTS_PER_DAY),
    )
    .unwrap();
    assert_eq!(run.total_invocations(), 0);
    assert_eq!(run.total_cold_starts(), 0);
    assert_eq!(run.total_wmt(), 0);
    assert_eq!(run.csr_percentile(75.0), None);
    assert_eq!(run.always_cold_fraction(), 0.0);
}

#[test]
fn single_slot_horizon() {
    let trace = Trace::new(
        2,
        vec![meta()],
        vec![SparseSeries::from_pairs(vec![(1, 3)])],
    );
    let mut spes = SpesPolicy::fit(&trace, 0, 1, SpesConfig::default());
    let run = try_simulate(&trace, &mut spes, SimConfig::new(1, 2)).unwrap();
    assert_eq!(run.total_invocations(), 3);
    assert_eq!(run.total_cold_starts(), 1);
}

#[test]
fn capacity_one_pool_thrashes_but_accounts_correctly() {
    // Two functions alternating every slot with capacity 1: every
    // invocation after a swap is cold, the pool never exceeds 1.
    let a = SparseSeries::from_pairs((0..40).step_by(2).map(|s| (s, 1)).collect());
    let b = SparseSeries::from_pairs((1..40).step_by(2).map(|s| (s, 1)).collect());
    let trace = Trace::new(40, vec![meta(); 2], vec![a, b]);
    let mut keep = KeepForever;
    let run = try_simulate(&trace, &mut keep, SimConfig::new(0, 40).with_capacity(1)).unwrap();
    assert_eq!(run.peak_loaded, 1);
    assert_eq!(run.total_cold_starts(), 40);
}

#[test]
fn hyperactive_single_function() {
    // One function invoked 10k times per slot: counts must not overflow
    // accounting and CSR stays tiny.
    let series = SparseSeries::from_pairs((0..2000).map(|s| (s, 10_000)).collect());
    let trace = Trace::new(2000, vec![meta()], vec![series]);
    let mut spes = SpesPolicy::fit(&trace, 0, 1000, SpesConfig::default());
    let run = try_simulate(&trace, &mut spes, SimConfig::new(1000, 2000)).unwrap();
    assert_eq!(run.total_invocations(), 1000 * 10_000);
    assert!(run.csr_of(0).unwrap() < 1e-3);
}

#[test]
fn function_that_stops_forever() {
    // Active through training, silent in simulation: SPES must not leak
    // pre-warm windows forever.
    let series = SparseSeries::from_pairs((0..1000).step_by(10).map(|s| (s, 1)).collect());
    let trace = Trace::new(3000, vec![meta()], vec![series]);
    let mut spes = SpesPolicy::fit(&trace, 0, 1500, SpesConfig::default());
    let run = try_simulate(&trace, &mut spes, SimConfig::new(1500, 3000)).unwrap();
    assert_eq!(run.total_invocations(), 0);
    // At most a handful of stale pre-warm slots, never the whole window.
    assert!(run.total_wmt() < 20, "leaked wmt = {}", run.total_wmt());
}

#[test]
fn function_born_in_simulation_window() {
    // Unseen function: silent in training, bursts in simulation.
    let series = SparseSeries::from_pairs((2000..2060).map(|s| (s, 1)).collect());
    let trace = Trace::new(3000, vec![meta()], vec![series]);
    let mut spes = SpesPolicy::fit(&trace, 0, 1500, SpesConfig::default());
    assert_eq!(spes.fit_stats().unseen, 1);
    let run = try_simulate(&trace, &mut spes, SimConfig::new(1500, 3000)).unwrap();
    // One cold start, then the active run keeps it warm.
    assert_eq!(run.total_cold_starts(), 1);
}

#[test]
fn training_window_shorter_than_validation_suffix() {
    // Training shorter than the validation window must clamp, not panic.
    let series = SparseSeries::from_pairs((0..1000).step_by(7).map(|s| (s, 1)).collect());
    let trace = Trace::new(1000, vec![meta()], vec![series]);
    let cfg = SpesConfig::default(); // VALIDATION_SLOTS = 2 days > 500
    let mut spes = SpesPolicy::fit(&trace, 0, 500, cfg);
    let run = try_simulate(&trace, &mut spes, SimConfig::new(500, 1000)).unwrap();
    assert!(run.csr_of(0).is_some());
}

#[test]
fn oracle_and_fixed_agree_on_empty_window() {
    let trace = Trace::new(100, vec![meta()], vec![SparseSeries::new()]);
    let mut oracle = Oracle::frugal(&trace);
    let o = try_simulate(&trace, &mut oracle, SimConfig::new(50, 50)).unwrap();
    let mut fixed = FixedKeepAlive::paper_default(1);
    let f = try_simulate(&trace, &mut fixed, SimConfig::new(50, 50)).unwrap();
    assert_eq!(o.n_slots(), 0);
    assert_eq!(f.n_slots(), 0);
}

#[test]
fn duplicate_invocation_counts_saturate_not_overflow() {
    let mut s = SparseSeries::new();
    s.add(5, u32::MAX);
    s.add(5, u32::MAX); // would overflow without saturation
    assert_eq!(s.count_at(5), u32::MAX);
}
