//! App-sharded simulation: one engine per application partition,
//! deterministically merged.
//!
//! The event-stream engine is single-threaded by design — determinism
//! comes from one pinned event order. Sharding recovers parallelism
//! without giving that up, by exploiting a structural fact of the
//! workload: every cross-function interaction the simulator models
//! (intra-app chaining, dependency pre-warming) stays **within one
//! application**. Partition the functions by app and the runs are
//! independent: each shard gets its own [`crate::MemoryPool`], its own policy
//! instance fitted on its own sub-trace, its own observers, and its own
//! engine run — which means per-shard snapshot/replay (through a
//! [`crate::SimDriver`]) and the binary journal keep working unchanged,
//! because a shard *is* an ordinary run.
//!
//! # Determinism and merge order
//!
//! Shards run on [`std::thread::scope`] workers, chunked by
//! [`std::thread::available_parallelism`] and joined **in spawn order** —
//! the same pinned join discipline `fold_matrix` uses for the benchmark
//! matrix. The merge itself never depends on completion order:
//! per-function vectors scatter through the plan's disjoint id maps, and
//! the global per-slot quantities (EMCR, peak loaded) are recomputed from
//! per-shard **integer** slot counts in slot order, so the floating-point
//! additions happen in the same sequence as an unsharded run and the
//! merged [`RunResult`] is bit-identical to it (pinned by the
//! `shard_parity` integration tests).
//!
//! # When sharding applies
//!
//! Only configs with unlimited capacity and no pressure budget can be
//! sharded: a global memory bound couples shards through eviction and
//! admission decisions, which no per-shard policy can reproduce.
//! [`run_sharded`] rejects such configs up front. Policies must be
//! app-decomposable — their decisions for a function may depend only on
//! functions of the same app (true for every registered baseline; see
//! `docs/SCALING.md`).
//!
//! ```
//! use spes_sim::{run_sharded, try_simulate, KeepForever, ShardPlan, SimConfig};
//! use spes_trace::synth::small_test_trace;
//!
//! let trace = small_test_trace(60, 3).trace;
//! let config = SimConfig::new(0, trace.n_slots);
//! let plan = ShardPlan::by_app(&trace, 4).expect("at least one shard");
//! let sharded = run_sharded(&trace, config, &plan, &|_, _| Box::new(KeepForever)).unwrap();
//! let mut unsharded = try_simulate(&trace, &mut KeepForever, config).unwrap();
//! unsharded.overhead_secs = 0.0; // wall-clock noise is the one non-deterministic field
//! let mut merged = sharded;
//! merged.overhead_secs = 0.0;
//! assert_eq!(merged, unsharded);
//! ```

use crate::engine::{SimConfig, SimError, Simulation};
use crate::events::{EventCtx, Observer, RunCollector, SimEvent};
use crate::metrics::RunResult;
use crate::policy::Policy;
use spes_trace::{FunctionId, Slot, Trace};

/// Why a sharded run could not be executed or merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// A plan or merge was asked for zero shards.
    NoShards,
    /// The config sets a global memory capacity; capacity eviction
    /// couples shards and cannot be decomposed per app.
    CapacityUnsupported,
    /// The config sets a pressure-admission budget; global admission
    /// control couples shards and cannot be decomposed per app.
    PressureUnsupported,
    /// The window extends past the trace horizon.
    BeyondHorizon {
        /// Requested window end.
        end: Slot,
        /// Trace horizon.
        n_slots: Slot,
    },
    /// A shard's driver rejected the run.
    Sim(SimError),
    /// A shard worker panicked; no partial results are merged.
    WorkerPanicked {
        /// Index of the failed shard.
        shard: usize,
    },
    /// A shard run came back without its [`ShardCounts`] observer.
    MissingCounts {
        /// Index of the offending shard.
        shard: usize,
    },
    /// A shard's result does not match the plan (wrong function count or
    /// a different number of measured slots than its siblings).
    ShapeMismatch {
        /// Index of the offending shard.
        shard: usize,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoShards => write!(f, "a sharded run needs at least one shard"),
            Self::CapacityUnsupported => {
                write!(f, "global memory capacity cannot be sharded by app")
            }
            Self::PressureUnsupported => {
                write!(f, "global pressure admission cannot be sharded by app")
            }
            Self::BeyondHorizon { end, n_slots } => {
                write!(f, "window end {end} exceeds the trace horizon {n_slots}")
            }
            Self::Sim(e) => write!(f, "shard driver error: {e}"),
            Self::WorkerPanicked { shard } => write!(f, "shard {shard} worker panicked"),
            Self::MissingCounts { shard } => {
                write!(f, "shard {shard} returned no ShardCounts observer")
            }
            Self::ShapeMismatch { shard } => {
                write!(f, "shard {shard} result does not match the plan")
            }
        }
    }
}

impl std::error::Error for ShardError {}

impl From<SimError> for ShardError {
    fn from(e: SimError) -> Self {
        Self::Sim(e)
    }
}

/// A partition of a trace's functions into app-aligned shards.
///
/// Apps are walked in ascending [`spes_trace::AppId`] order and dealt
/// round-robin onto shards, so the plan is a pure function of the trace
/// and the shard count. Within a shard, function ids stay ascending
/// (apps occupy contiguous id ranges), which keeps each sub-trace's
/// local-to-global map monotone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    n_functions: usize,
    shards: Vec<Vec<FunctionId>>,
}

impl ShardPlan {
    /// Partitions `trace` by application onto at most `n_shards` shards
    /// (fewer when there are fewer apps than shards).
    ///
    /// # Errors
    /// [`ShardError::NoShards`] when `n_shards == 0`.
    pub fn by_app(trace: &Trace, n_shards: usize) -> Result<Self, ShardError> {
        if n_shards == 0 {
            return Err(ShardError::NoShards);
        }
        let by_app = trace.functions_by_app();
        let n = n_shards.min(by_app.len()).max(1);
        let mut shards = vec![Vec::new(); n];
        for (rank, fns) in by_app.into_values().enumerate() {
            shards[rank % n].extend(fns);
        }
        Ok(Self {
            n_functions: trace.n_functions(),
            shards,
        })
    }

    /// Number of shards in the plan.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total functions across all shards.
    #[must_use]
    pub fn n_functions(&self) -> usize {
        self.n_functions
    }

    /// Global ids of one shard's functions; index `i` is local id `i` in
    /// that shard's sub-trace.
    #[must_use]
    pub fn functions_of(&self, shard: usize) -> &[FunctionId] {
        &self.shards[shard]
    }

    /// Extracts one shard's sub-trace: the shard's functions re-indexed
    /// densely from zero, over the full slot horizon.
    #[must_use]
    pub fn sub_trace(&self, trace: &Trace, shard: usize) -> Trace {
        let fns = &self.shards[shard];
        let metas = fns.iter().map(|f| trace.metas[f.index()]).collect();
        let series = fns
            .iter()
            .map(|f| trace.series[f.index()].clone())
            .collect();
        Trace::new(trace.n_slots, metas, series)
    }
}

/// Per-slot `(loaded, invoked-and-loaded)` integer counts of one shard,
/// recorded at every measured `SlotEnd`.
///
/// The global per-slot quantities in a [`RunResult`] — EMCR and peak
/// loaded — are ratios/maxima over the *whole* pool and cannot be merged
/// from per-shard aggregates. These counts are the merge-safe raw
/// material: integers sum exactly across shards, and
/// [`merge_shard_runs`] recomputes the ratio per slot in slot order, so
/// the merged floating-point accumulation matches an unsharded run bit
/// for bit. Implements [`Observer::snapshot`]/[`Observer::restore`], so
/// shard drivers stay fully snapshot/resume-capable.
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

    /// Consumes the recorder, returning the per-slot pairs.
    #[must_use]
    pub fn into_counts(self) -> Vec<(u64, u64)> {
        self.counts
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

    observer_state!();
}

wire_record!(ShardCounts {
    counts,
    invoked_this_slot,
});

/// One shard's finished run: its local [`RunResult`] (function indices
/// are shard-local) plus the per-slot counts the merge needs.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRun {
    /// The shard's own collector result, indexed by local function id.
    pub result: RunResult,
    /// Per measured slot: `(loaded, invoked-and-loaded)` in this shard.
    pub counts: Vec<(u64, u64)>,
}

/// Runs one shard to completion on the current thread: a plain
/// [`Simulation`] over the shard's sub-trace with a [`RunCollector`] and
/// a [`ShardCounts`] observer riding along. Exposed so callers can drive
/// shards manually — e.g. stepping one shard through a
/// [`crate::SimDriver`], snapshotting and resuming it — and still merge
/// with [`merge_shard_runs`].
///
/// # Errors
/// [`ShardError::BeyondHorizon`] when the window exceeds the sub-trace
/// horizon, [`ShardError::Sim`] for other window errors, and
/// [`ShardError::MissingCounts`] if an attached observer disappears
/// (unreachable in practice).
pub fn run_shard(
    sub: &Trace,
    config: SimConfig,
    policy: &mut dyn Policy,
) -> Result<ShardRun, ShardError> {
    let mut observers = Simulation::new(sub, config)
        .with_observer(Box::new(RunCollector::new()))
        .with_observer(Box::new(ShardCounts::new()))
        .run(policy)
        .map_err(|e| match e {
            SimError::BeyondHorizon { end, n_slots } => ShardError::BeyondHorizon { end, n_slots },
            e => ShardError::Sim(e),
        })?;
    let missing = ShardError::MissingCounts { shard: 0 };
    let result = observers
        .take::<RunCollector>()
        .ok_or_else(|| missing.clone())?
        .into_result();
    let counts: ShardCounts = observers.take().ok_or(missing)?;
    Ok(ShardRun {
        result,
        counts: counts.into_counts(),
    })
}

/// Merges per-shard runs (in plan order) into one global [`RunResult`],
/// bit-identical to an unsharded run of the same config and an
/// app-decomposable policy.
///
/// # Errors
/// [`ShardError::NoShards`] on an empty run list and
/// [`ShardError::ShapeMismatch`] when a shard's vectors disagree with
/// the plan or its siblings.
pub fn merge_shard_runs(plan: &ShardPlan, runs: &[ShardRun]) -> Result<RunResult, ShardError> {
    let first = runs.first().ok_or(ShardError::NoShards)?;
    if runs.len() != plan.n_shards() {
        return Err(ShardError::ShapeMismatch { shard: runs.len() });
    }
    let n = plan.n_functions();
    let mut invocations = vec![0u64; n];
    let mut cold_starts = vec![0u64; n];
    let mut wmt = vec![0u64; n];
    for (s, run) in runs.iter().enumerate() {
        let fns = plan.functions_of(s);
        if run.result.invocations.len() != fns.len() || run.counts.len() != first.counts.len() {
            return Err(ShardError::ShapeMismatch { shard: s });
        }
        for (local, &f) in fns.iter().enumerate() {
            invocations[f.index()] = run.result.invocations[local];
            cold_starts[f.index()] = run.result.cold_starts[local];
            wmt[f.index()] = run.result.wmt[local];
        }
    }

    // Global per-slot quantities, recomputed from summed integer counts
    // in slot order so the f64 accumulation sequence matches an
    // unsharded RunCollector exactly.
    let mut emcr_sum = 0.0f64;
    let mut emcr_slots = 0u64;
    let mut peak_loaded = 0usize;
    for t in 0..first.counts.len() {
        let mut loaded = 0u64;
        let mut invoked_loaded = 0u64;
        for run in runs {
            loaded += run.counts[t].0;
            invoked_loaded += run.counts[t].1;
        }
        peak_loaded = peak_loaded.max(loaded as usize);
        if loaded > 0 {
            emcr_sum += invoked_loaded as f64 / loaded as f64;
            emcr_slots += 1;
        }
    }

    Ok(RunResult {
        policy_name: first.result.policy_name.clone(),
        start: first.result.start,
        end: first.result.end,
        invocations,
        cold_starts,
        wmt,
        loaded_integral: runs.iter().map(|r| r.result.loaded_integral).sum(),
        emcr_sum,
        emcr_slots,
        overhead_secs: runs.iter().map(|r| r.result.overhead_secs).sum(),
        peak_loaded,
    })
}

/// Runs `trace` sharded by `plan` and merges the results. `build_policy`
/// is called once per shard — on that shard's worker thread — with the
/// shard index and its sub-trace, and must return a policy fitted on
/// that sub-trace (shard-local function indices).
///
/// Workers are chunked by [`std::thread::available_parallelism`] and
/// joined in spawn order, so the merge input order — and therefore the
/// merged result — is a pure function of trace, config, plan, and
/// policies.
///
/// # Errors
/// Rejects capacity/pressure configs ([`ShardError::CapacityUnsupported`],
/// [`ShardError::PressureUnsupported`]) and windows beyond the horizon;
/// propagates the first per-shard failure in shard order.
pub fn run_sharded(
    trace: &Trace,
    config: SimConfig,
    plan: &ShardPlan,
    build_policy: &(dyn Fn(usize, &Trace) -> Box<dyn Policy> + Sync),
) -> Result<RunResult, ShardError> {
    if config.capacity.is_some() {
        return Err(ShardError::CapacityUnsupported);
    }
    if config.pressure_budget.is_some() {
        return Err(ShardError::PressureUnsupported);
    }
    if config.end > trace.n_slots {
        return Err(ShardError::BeyondHorizon {
            end: config.end,
            n_slots: trace.n_slots,
        });
    }

    let batch = std::thread::available_parallelism().map_or(4, usize::from);
    let mut runs: Vec<ShardRun> = Vec::with_capacity(plan.n_shards());
    let shard_ids: Vec<usize> = (0..plan.n_shards()).collect();
    for chunk in shard_ids.chunks(batch) {
        let chunk_runs = std::thread::scope(|scope| {
            let handles: Vec<_> = chunk
                .iter()
                .map(|&s| {
                    scope.spawn(move || {
                        let sub = plan.sub_trace(trace, s);
                        let mut policy = build_policy(s, &sub);
                        run_shard(&sub, config, policy.as_mut())
                    })
                })
                .collect();
            // Joined in spawn order: the merge input order is pinned.
            handles
                .into_iter()
                .zip(chunk)
                .map(|(handle, &s)| {
                    handle
                        .join()
                        .map_err(|_| ShardError::WorkerPanicked { shard: s })?
                })
                .collect::<Result<Vec<_>, ShardError>>()
        })?;
        runs.extend(chunk_runs);
    }
    merge_shard_runs(plan, &runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{try_simulate, SimDriver};
    use crate::policy::{KeepForever, NoKeepAlive};
    use crate::wire;
    use spes_trace::synth::small_test_trace;

    fn quickish() -> Trace {
        small_test_trace(80, 11).trace
    }

    /// A corrupt blob that declares 2^40 count pairs fails at the end of
    /// its payload instead of reserving terabytes up front.
    #[test]
    fn restore_rejects_an_impossible_length_without_allocating_it() {
        let blob = wire::encode(&[&(1u64 << 40)]);
        let err = ShardCounts::new().restore(&blob).unwrap_err();
        assert!(err.contains("end of payload"), "{err}");
    }

    #[test]
    fn plan_partitions_every_function_once() {
        let trace = quickish();
        let plan = ShardPlan::by_app(&trace, 4).expect("plan");
        let mut seen = vec![false; trace.n_functions()];
        for s in 0..plan.n_shards() {
            for &f in plan.functions_of(s) {
                assert!(!seen[f.index()], "function {f:?} in two shards");
                seen[f.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "function missing from the plan");
    }

    #[test]
    fn plan_keeps_apps_whole() {
        let trace = quickish();
        let plan = ShardPlan::by_app(&trace, 3).expect("plan");
        for s in 0..plan.n_shards() {
            for &f in plan.functions_of(s) {
                let app = trace.meta_of(f).app;
                let all = trace.functions_by_app();
                for sibling in &all[&app] {
                    assert!(
                        plan.functions_of(s).contains(sibling),
                        "app {app:?} split across shards"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_shards_rejected() {
        let trace = quickish();
        assert_eq!(ShardPlan::by_app(&trace, 0), Err(ShardError::NoShards));
    }

    #[test]
    fn capacity_and_pressure_rejected() {
        let trace = quickish();
        let plan = ShardPlan::by_app(&trace, 2).expect("plan");
        let build: &(dyn Fn(usize, &Trace) -> Box<dyn Policy> + Sync) =
            &|_, _| Box::new(KeepForever);
        let capped = SimConfig::new(0, trace.n_slots).with_capacity(8);
        assert_eq!(
            run_sharded(&trace, capped, &plan, build),
            Err(ShardError::CapacityUnsupported)
        );
        let budgeted = SimConfig::new(0, trace.n_slots).with_pressure_budget(8);
        assert_eq!(
            run_sharded(&trace, budgeted, &plan, build),
            Err(ShardError::PressureUnsupported)
        );
    }

    #[test]
    fn sharded_matches_unsharded_keep_forever() {
        let trace = quickish();
        let config = SimConfig::new(0, trace.n_slots).with_metrics_start(trace.n_slots / 2);
        let plan = ShardPlan::by_app(&trace, 4).expect("plan");
        let mut sharded =
            run_sharded(&trace, config, &plan, &|_, _| Box::new(KeepForever)).expect("sharded");
        let mut unsharded = try_simulate(&trace, &mut KeepForever, config).expect("unsharded");
        sharded.overhead_secs = 0.0;
        unsharded.overhead_secs = 0.0;
        assert_eq!(sharded, unsharded);
    }

    #[test]
    fn sharded_matches_unsharded_no_keep_alive() {
        let trace = quickish();
        let config = SimConfig::new(0, trace.n_slots);
        let plan = ShardPlan::by_app(&trace, 3).expect("plan");
        let mut sharded =
            run_sharded(&trace, config, &plan, &|_, _| Box::new(NoKeepAlive)).expect("sharded");
        let mut unsharded = try_simulate(&trace, &mut NoKeepAlive, config).expect("unsharded");
        sharded.overhead_secs = 0.0;
        unsharded.overhead_secs = 0.0;
        assert_eq!(sharded, unsharded);
    }

    #[test]
    fn single_shard_equals_whole_run() {
        let trace = quickish();
        let config = SimConfig::new(0, trace.n_slots);
        let plan = ShardPlan::by_app(&trace, 1).expect("plan");
        assert_eq!(plan.n_shards(), 1);
        let mut sharded =
            run_sharded(&trace, config, &plan, &|_, _| Box::new(KeepForever)).expect("sharded");
        let mut unsharded = try_simulate(&trace, &mut KeepForever, config).expect("unsharded");
        sharded.overhead_secs = 0.0;
        unsharded.overhead_secs = 0.0;
        assert_eq!(sharded, unsharded);
    }

    #[test]
    fn shard_snapshot_resume_merges_identically() {
        let trace = quickish();
        let config = SimConfig::new(0, trace.n_slots).with_metrics_start(trace.n_slots / 4);
        let plan = ShardPlan::by_app(&trace, 2).expect("plan");
        let boundary = trace.n_slots / 2;

        // Straight-through shard runs.
        let straight: Vec<ShardRun> = (0..plan.n_shards())
            .map(|s| {
                let sub = plan.sub_trace(&trace, s);
                run_shard(&sub, config, &mut KeepForever).expect("straight shard run")
            })
            .collect();

        // Shard 0 snapshotted mid-run, resumed, and finished.
        let sub = plan.sub_trace(&trace, 0);
        let batches = sub.slot_batches(config.start, config.end);
        let mut policy = KeepForever;
        let mut driver = SimDriver::new(
            sub.n_functions(),
            config,
            &mut policy,
            vec![Box::new(ShardCounts::new())],
        )
        .expect("driver");
        for t in config.start..boundary {
            driver.step(t, batches.batch(t)).expect("step");
        }
        let blob = driver.snapshot();
        drop(driver);
        let mut resumed_policy = KeepForever;
        let mut resumed = SimDriver::resume_from(
            &blob,
            &mut resumed_policy,
            vec![Box::new(ShardCounts::new())],
        )
        .expect("resume");
        for t in boundary..config.end {
            resumed.step(t, batches.batch(t)).expect("step");
        }
        let (result, mut observers) = resumed.finish_with_observers();
        let counts: ShardCounts = observers.take().expect("counts observer");
        let resumed_run = ShardRun {
            result,
            counts: counts.into_counts(),
        };

        let mut via_resume =
            merge_shard_runs(&plan, &[resumed_run, straight[1].clone()]).expect("merge resumed");
        let mut via_straight = merge_shard_runs(&plan, &straight).expect("merge straight");
        via_resume.overhead_secs = 0.0;
        via_straight.overhead_secs = 0.0;
        assert_eq!(via_resume, via_straight);
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
