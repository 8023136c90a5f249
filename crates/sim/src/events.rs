//! The event-stream layer of the simulation engine.
//!
//! The engine used to be a closed loop: every metric the paper reports
//! was hand-accumulated inline in `simulate()`, and any consumer that
//! wanted a different view of a run (per-slot curves, eviction
//! forensics) had to re-implement the loop. This module turns
//! the run into a first-class **event stream**: while driving the policy,
//! the engine emits a [`SimEvent`] for everything that happens —
//! invocations ([`SimEvent::ColdStart`] / [`SimEvent::WarmStart`]), pool
//! transitions ([`SimEvent::Load`] / [`SimEvent::Evict`], each tagged
//! with its cause), and a [`SimEvent::SlotEnd`] tick with snapshot access
//! to the [`MemoryPool`] — and any number of [`Observer`]s consume it.
//!
//! The paper's metrics are themselves just one observer now:
//! [`RunCollector`] rebuilds a [`RunResult`] from the stream, using
//! span-based idle accounting (WMT is charged per load/evict/invoke
//! transition rather than by iterating the loaded set every slot, so
//! sparse workloads cost `O(events)` per slot instead of `O(loaded)`).
//! [`SlotSeries`] records per-slot loaded/cold/EMCR curves for the
//! figures, [`EvictionAudit`] keeps eviction forensics, and [`EventLog`]
//! captures the raw stream for tests and offline analysis.
//!
//! Event order within one slot is deterministic: for each invoked
//! function (trace bucket order) a `ColdStart`/`WarmStart`, then any
//! capacity `Evict`s and the demand `Load` it forced; then the policy's
//! own `Load`s/`Evict`s in the order the policy performed them; then one
//! `SlotEnd`. Each observer receives a slot's events in one
//! [`Observer::on_slot_events`] call once the slot is over, against the
//! end-of-slot pool, as a [`SlotBatch`] that also carries the counts the
//! engine kept while serving the slot. Observers never mutate the pool —
//! only the policy does.
//!
//! Observers attach to a run by value through the [`crate::Simulation`]
//! builder (or a [`crate::SimDriver`] for step-driven runs) and come
//! back in an [`ObserverSet`]; any number can ride one simulation:
//!
//! ```
//! use spes_sim::{EventLog, NoKeepAlive, RunCollector, SimConfig, Simulation};
//! use spes_trace::synth::small_test_trace;
//!
//! let trace = small_test_trace(40, 1).trace;
//! let mut observers = Simulation::new(&trace, SimConfig::new(0, trace.n_slots))
//!     .with_observer(Box::new(RunCollector::new()))
//!     .with_observer(Box::new(EventLog::new()))
//!     .run(&mut NoKeepAlive)
//!     .unwrap();
//! let run = observers.take::<RunCollector>().unwrap().into_result();
//! let log: EventLog = observers.take().unwrap();
//! // The paper metrics and the raw stream describe the same run: the
//! // log carries the window, and exactly one SlotEnd tick per slot.
//! assert_eq!(run.n_slots(), u64::from(trace.n_slots));
//! let ticks = log
//!     .events
//!     .iter()
//!     .filter(|e| matches!(e.event, spes_sim::SimEvent::SlotEnd { .. }))
//!     .count();
//! assert_eq!(ticks, trace.n_slots as usize);
//! ```

use crate::engine::{OutcomeScratch, ScratchMarks};
use crate::journal::JournalEvent;
use crate::memory::MemoryPool;
use crate::metrics::RunResult;
use crate::wire::{self, Wire};
use spes_trace::{AppId, FunctionId, Slot, Trace};

/// Why an instance was loaded into the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadCause {
    /// The engine force-loaded an invoked-but-unloaded function (a cold
    /// start is being served).
    Demand,
    /// The policy loaded it (pre-warming) in `on_start` or `on_slot`.
    Policy,
}

/// Why an instance was evicted from the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictCause {
    /// The engine evicted it to make room for a demand load in a
    /// capacity-limited pool (the policy's victim, or the oldest-loaded
    /// fallback).
    Capacity,
    /// The policy evicted it in `on_start` or `on_slot`.
    Policy,
}

/// One event of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimEvent {
    /// A function was invoked while unloaded; the engine is about to
    /// force-load it. `count` is the slot's invocation count.
    ColdStart {
        /// The invoked function.
        f: FunctionId,
        /// Invocations of `f` in this slot.
        count: u32,
    },
    /// A function was invoked while already loaded.
    WarmStart {
        /// The invoked function.
        f: FunctionId,
        /// Invocations of `f` in this slot.
        count: u32,
    },
    /// An instance entered the pool.
    Load {
        /// The loaded function.
        f: FunctionId,
        /// Who loaded it.
        cause: LoadCause,
    },
    /// An instance left the pool.
    Evict {
        /// The evicted function.
        f: FunctionId,
        /// Who evicted it.
        cause: EvictCause,
    },
    /// A policy load was refused, so the pool is unchanged: the pool was
    /// at its capacity ([`crate::engine::SimConfig::capacity`]) or at the
    /// pressure-admission budget
    /// ([`crate::engine::SimConfig::with_pressure_budget`]). Demand loads
    /// (serving a cold start) are never rejected, so this event only ever
    /// follows a policy's own `load` call.
    LoadRejected {
        /// The function whose load was refused.
        f: FunctionId,
    },
    /// The slot is over: invocations served, policy hook run, pool in its
    /// end-of-slot state (snapshot via [`EventCtx::pool`]).
    SlotEnd {
        /// Wall-clock seconds the policy's decision hook took this slot
        /// (the RQ2 overhead measure).
        policy_secs: f64,
    },
}

/// Static facts about a run, handed to observers before the first event.
#[derive(Debug, Clone, Copy)]
pub struct RunMeta<'a> {
    /// Name of the policy driving the run.
    pub policy_name: &'a str,
    /// First simulated slot (inclusive).
    pub start: Slot,
    /// First measured slot; earlier slots are warm-up.
    pub metrics_start: Slot,
    /// End of the simulated window (exclusive).
    pub end: Slot,
}

/// Per-event context: when the event happened and a read-only snapshot of
/// the pool.
#[derive(Debug)]
pub struct EventCtx<'a> {
    /// The slot during which the event happened.
    pub slot: Slot,
    /// Whether the slot is inside the metrics window.
    pub measured: bool,
    /// The pool at the end of the event's batch. Events are delivered a
    /// slot at a time ([`Observer::on_slot_events`]): the engine hands a
    /// slot's events over after its [`SimEvent::SlotEnd`], and the
    /// policy's `on_start` transitions as one batch before the first
    /// slot. Every event of a batch therefore sees the same pool — the
    /// end-of-slot pool for a batch ending in `SlotEnd` — live and
    /// replayed ([`crate::journal::replay`]) alike. The batch's mid-slot
    /// peak occupancy is [`SlotBatch::peak_occupancy`].
    pub pool: &'a MemoryPool,
}

/// One delivered batch: a slot's events in emission order, plus the
/// counts kept while they were emitted.
///
/// Every emitted event is also sorted into the slot's ledger (the lists
/// behind [`crate::SlotOutcome`]), and the pool keeps a high-water mark
/// of its occupancy, so these facts come without a walk of the events;
/// an observer that needs only counts reads them here.
/// [`crate::journal::replay`] emits what it reads through the same
/// ledger, so live and replayed observers take one path.
#[derive(Debug, Clone, Copy)]
pub struct SlotBatch<'a> {
    pub(crate) events: &'a [SimEvent],
    pub(crate) ledger: &'a OutcomeScratch,
    pub(crate) marks: ScratchMarks,
    pub(crate) peak_occupancy: usize,
    pub(crate) invoked_loaded: usize,
}

impl<'a> SlotBatch<'a> {
    /// The batch's events, in emission order.
    #[must_use]
    pub fn events(&self) -> &'a [SimEvent] {
        self.events
    }

    /// Whether the batch closes its slot with a [`SimEvent::SlotEnd`]
    /// (every batch but the policy's `on_start` transitions and a
    /// replayed journal's tail).
    #[must_use]
    pub fn ends_slot(&self) -> bool {
        matches!(self.events.last(), Some(SimEvent::SlotEnd { .. }))
    }

    /// [`SimEvent::ColdStart`]s in the batch.
    #[must_use]
    pub fn cold_starts(&self) -> u32 {
        self.ledger.cold_starts
    }

    /// [`SimEvent::WarmStart`]s in the batch.
    #[must_use]
    pub fn warm_starts(&self) -> u32 {
        self.ledger.warm_starts
    }

    /// [`SimEvent::Evict`]s in the batch, of either cause.
    #[must_use]
    pub fn evictions(&self) -> usize {
        self.ledger.policy_evictions.len() - self.marks.policy_evictions
            + self.ledger.capacity_evictions.len()
    }

    /// [`SimEvent::LoadRejected`]s in the batch.
    #[must_use]
    pub fn rejected_loads(&self) -> usize {
        self.ledger.rejected_loads.len() - self.marks.rejected_loads
    }

    /// The functions of the batch's demand [`SimEvent::Load`]s, in
    /// event order.
    #[must_use]
    pub fn demand_loads(&self) -> &'a [FunctionId] {
        &self.ledger.demand_loads
    }

    /// The functions of the batch's policy [`SimEvent::Load`]s, in
    /// event order.
    #[must_use]
    pub fn policy_loads(&self) -> &'a [FunctionId] {
        &self.ledger.policy_loads[self.marks.policy_loads..]
    }

    /// The highest pool occupancy at any point of the batch, its start
    /// included: exact mid-slot, although [`EventCtx::pool`] is the
    /// batch-end pool.
    #[must_use]
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// How many of the batch's invocation events name a function loaded
    /// in the batch-end pool (the numerator of the slot's EMCR). Counted
    /// only in a measured batch; 0 in an unmeasured one.
    #[must_use]
    pub fn invoked_loaded(&self) -> usize {
        self.invoked_loaded
    }
}

/// A consumer of the engine's event stream.
///
/// Observers are attached to a [`crate::engine::Simulation`] and receive
/// every event of the run in order. They never mutate the pool; they
/// accumulate whatever view of the run they care about.
pub trait Observer {
    /// Called once before the first event, with the run's window and the
    /// (still empty) pool.
    fn on_run_start(&mut self, _meta: &RunMeta<'_>, _pool: &MemoryPool) {}

    /// Called for every event of the run, by the default
    /// [`Observer::on_slot_events`].
    fn on_event(&mut self, ctx: &EventCtx<'_>, event: &SimEvent);

    /// Called once per delivered batch: one batch per simulated slot,
    /// ending with its [`SimEvent::SlotEnd`], plus one before the first
    /// slot when the policy's `on_start` changed the pool. All events of
    /// a batch share `ctx` (see [`EventCtx::pool`]). The default loops
    /// over [`Observer::on_event`] in emission order; an observer
    /// overrides it to read the batch's [`SlotBatch`] facts instead of
    /// walking the events, or to skip work a whole batch makes dead,
    /// such as an unmeasured slot. Either way it must end each batch in
    /// the state the per-event loop would leave.
    fn on_slot_events(&mut self, ctx: &EventCtx<'_>, batch: &SlotBatch<'_>) {
        for event in batch.events() {
            self.on_event(ctx, event);
        }
    }

    /// Called once after the last slot, with the pool in its final state.
    /// `end` is the first unsimulated slot — the configured window end for
    /// batch runs, or wherever a step-driven run actually stopped.
    fn on_run_end(&mut self, _end: Slot, _pool: &MemoryPool) {}

    /// Serialises the observer's accumulated state for
    /// [`crate::engine::SimDriver::snapshot`]. Must capture everything
    /// [`Observer::restore`] needs to continue the run as if it had
    /// never stopped — including mid-run scratch, since snapshots are
    /// taken at slot boundaries, not run ends. The default returns an
    /// empty blob, which marks the observer as carrying no state (fine
    /// for write-through sinks like [`crate::journal::JournalObserver`];
    /// wrong for accumulators, which should implement both hooks). An
    /// observer that needs [`Observer::on_run_start`] must implement
    /// it too: `resume_from` refuses an observer it has no state for
    /// only when its snapshot is non-empty.
    fn snapshot(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores state captured by [`Observer::snapshot`] on a freshly
    /// constructed observer, as part of
    /// [`crate::engine::SimDriver::resume_from`]. The default accepts
    /// only the default `snapshot()`'s empty blob, so stateful
    /// observers that forget to implement `restore` fail loudly at
    /// resume instead of silently resetting.
    ///
    /// # Errors
    /// Returns a description of the mismatch when `state` cannot be
    /// decoded (wrong observer, corrupt blob, incompatible shape).
    fn restore(&mut self, state: &[u8]) -> Result<(), String> {
        if state.is_empty() {
            Ok(())
        } else {
            Err("observer does not implement state restore".to_owned())
        }
    }
}

/// An [`Observer`] that can be recovered by concrete type after the run.
///
/// Blanket-implemented for every `'static` observer, so any observer can
/// be handed to [`crate::engine::Simulation::with_observer`] /
/// [`crate::engine::SimDriver::new`] by value and taken back out of the
/// resulting [`ObserverSet`] (or peeked mid-run via
/// [`crate::engine::SimDriver::observer`]) without implementing anything
/// beyond [`Observer`] itself.
pub trait DynObserver: Observer {
    /// Type-erased view, for downcasting by reference.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Type-erased conversion, for downcasting by value.
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any>;

    /// The observer's concrete type name
    /// ([`std::any::type_name`]), used by
    /// [`crate::engine::SimDriver::snapshot`] to label state blobs so
    /// [`crate::engine::SimDriver::resume_from`] can match them back to
    /// freshly constructed observers.
    fn type_name(&self) -> &'static str;
}

impl<T: Observer + 'static> DynObserver for T {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }

    fn type_name(&self) -> &'static str {
        std::any::type_name::<T>()
    }
}

/// The owned observers of a completed run, recoverable by concrete type.
///
/// Returned by [`crate::engine::Simulation::run`]: every observer that
/// was attached by value via
/// [`crate::engine::Simulation::with_observer`] comes back here, in
/// attachment order, and [`ObserverSet::take`] moves one out by type.
#[derive(Default)]
pub struct ObserverSet {
    observers: Vec<Box<dyn DynObserver>>,
}

impl ObserverSet {
    pub(crate) fn new(observers: Vec<Box<dyn DynObserver>>) -> Self {
        Self { observers }
    }

    /// Number of owned observers still in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.observers.len()
    }

    /// Whether the set holds no observers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.observers.is_empty()
    }

    /// A shared reference to the first observer of concrete type `T`.
    #[must_use]
    pub fn get<T: Observer + 'static>(&self) -> Option<&T> {
        self.observers
            .iter()
            .find_map(|o| o.as_any().downcast_ref::<T>())
    }

    /// Removes and returns the first observer of concrete type `T`.
    /// Attachment order is preserved for the rest, so repeated calls
    /// recover same-typed observers in the order they were attached.
    pub fn take<T: Observer + 'static>(&mut self) -> Option<T> {
        let index = self.observers.iter().position(|o| o.as_any().is::<T>())?;
        let boxed = self.observers.remove(index).into_any();
        boxed.downcast::<T>().ok().map(|observer| *observer)
    }
}

impl std::fmt::Debug for ObserverSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObserverSet")
            .field("len", &self.observers.len())
            .finish()
    }
}

// ---------------------------------------------------------------------
// RunCollector: the paper's metrics as an observer
// ---------------------------------------------------------------------

/// Rebuilds the paper's [`RunResult`] from the event stream.
///
/// Idle accounting is span-based: a load opens a residency span, an
/// eviction (or the end of the run) closes it, and the closed span is
/// charged to the function's loaded-slot total in one subtraction. WMT
/// then falls out as `loaded slots - invoked-while-loaded slots`, so a
/// slot costs `O(invoked + transitions)` instead of `O(loaded)` — the
/// numbers are bit-identical to the old per-slot walk (the pinned
/// determinism test in `spes_bench` holds through this collector).
#[derive(Debug, Default)]
pub struct RunCollector {
    policy_name: String,
    start: Slot,
    metrics_start: Slot,
    end: Slot,
    invocations: Vec<u64>,
    cold_starts: Vec<u64>,
    /// Measured slots during which each function was loaded at slot end.
    loaded_slots: Vec<u64>,
    /// Measured slots during which each function was invoked *and* still
    /// loaded at slot end.
    invoked_loaded_slots: Vec<u64>,
    /// Open residency span start per function (valid while loaded).
    span_start: Vec<Slot>,
    /// Functions invoked in the current slot (scratch, cleared at SlotEnd).
    invoked_this_slot: Vec<FunctionId>,
    loaded_integral: u64,
    emcr_sum: f64,
    emcr_slots: u64,
    overhead_secs: f64,
    peak_loaded: usize,
}

impl RunCollector {
    /// Creates an empty collector; it sizes itself at run start.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Measured slots of a residency span that started at `from` and is
    /// being closed during slot `until` (exclusive).
    fn span_slots(&self, from: Slot, until: Slot) -> u64 {
        let clamped = from.max(self.metrics_start);
        u64::from(until.saturating_sub(clamped))
    }

    /// The finished [`RunResult`]. Call after the run completed.
    #[must_use]
    pub fn into_result(self) -> RunResult {
        let wmt = self
            .loaded_slots
            .iter()
            .zip(&self.invoked_loaded_slots)
            .map(|(&loaded, &invoked)| loaded - invoked)
            .collect();
        RunResult {
            policy_name: self.policy_name,
            start: self.metrics_start,
            end: self.end,
            invocations: self.invocations,
            cold_starts: self.cold_starts,
            wmt,
            loaded_integral: self.loaded_integral,
            emcr_sum: self.emcr_sum,
            emcr_slots: self.emcr_slots,
            overhead_secs: self.overhead_secs,
            peak_loaded: self.peak_loaded,
        }
    }
}

impl Observer for RunCollector {
    fn on_run_start(&mut self, meta: &RunMeta<'_>, pool: &MemoryPool) {
        let n = pool.n_functions();
        self.policy_name = meta.policy_name.to_owned();
        self.start = meta.start;
        self.metrics_start = meta.metrics_start;
        self.end = meta.end;
        self.invocations = vec![0; n];
        self.cold_starts = vec![0; n];
        self.loaded_slots = vec![0; n];
        self.invoked_loaded_slots = vec![0; n];
        self.span_start = vec![0; n];
    }

    fn on_event(&mut self, ctx: &EventCtx<'_>, event: &SimEvent) {
        match *event {
            SimEvent::ColdStart { f, count } => {
                self.invoked_this_slot.push(f);
                if ctx.measured {
                    self.invocations[f.index()] += u64::from(count);
                    self.cold_starts[f.index()] += 1;
                }
            }
            SimEvent::WarmStart { f, count } => {
                self.invoked_this_slot.push(f);
                if ctx.measured {
                    self.invocations[f.index()] += u64::from(count);
                }
            }
            SimEvent::Load { f, .. } => {
                self.span_start[f.index()] = ctx.slot;
            }
            SimEvent::Evict { f, .. } => {
                let span = self.span_slots(self.span_start[f.index()], ctx.slot);
                self.loaded_slots[f.index()] += span;
            }
            SimEvent::LoadRejected { .. } => {}
            SimEvent::SlotEnd { policy_secs } => {
                if ctx.measured {
                    self.overhead_secs += policy_secs;
                    let loaded_now = ctx.pool.loaded_count();
                    self.loaded_integral += loaded_now as u64;
                    self.peak_loaded = self.peak_loaded.max(loaded_now);
                    if loaded_now > 0 {
                        let invoked = std::mem::take(&mut self.invoked_this_slot);
                        let mut invoked_loaded = 0usize;
                        for &f in &invoked {
                            if ctx.pool.contains(f) {
                                invoked_loaded += 1;
                                self.invoked_loaded_slots[f.index()] += 1;
                            }
                        }
                        self.invoked_this_slot = invoked;
                        self.emcr_sum += invoked_loaded as f64 / loaded_now as f64;
                        self.emcr_slots += 1;
                    }
                }
                self.invoked_this_slot.clear();
            }
        }
    }

    fn on_slot_events(&mut self, ctx: &EventCtx<'_>, batch: &SlotBatch<'_>) {
        if ctx.measured {
            for event in batch.events() {
                self.on_event(ctx, event);
            }
            return;
        }
        // Before `metrics_start` only the span starts outlive the slot:
        // an `Evict` closes a span of 0 measured slots, the counters are
        // measured-only, and the invoked scratch is cleared at `SlotEnd`.
        // Every `Load` of the batch is in one of its two load lists.
        for &f in batch.demand_loads().iter().chain(batch.policy_loads()) {
            self.span_start[f.index()] = ctx.slot;
        }
    }

    fn on_run_end(&mut self, end: Slot, pool: &MemoryPool) {
        // Adopt the actual end: step-driven runs may stop short of (or be
        // configured without) a meaningful window end. For batch runs this
        // is the configured end, so nothing changes there.
        self.end = end;
        // Close the residency span of everything still loaded.
        for &f in pool.loaded() {
            let span = self.span_slots(self.span_start[f.index()], end);
            self.loaded_slots[f.index()] += span;
        }
    }

    observer_state!();
}

wire_record!(RunCollector {
    policy_name,
    start,
    metrics_start,
    end,
    invocations,
    cold_starts,
    loaded_slots,
    invoked_loaded_slots,
    span_start,
    invoked_this_slot,
    loaded_integral,
    emcr_sum,
    emcr_slots,
    overhead_secs,
    peak_loaded,
});

// ---------------------------------------------------------------------
// SlotSeries: per-slot time series for figures
// ---------------------------------------------------------------------

/// Per-slot curves over the measured window, recorded from a single run.
///
/// Figures that want time series (memory timeline, cold-start bursts,
/// per-slot EMCR) read them from here instead of re-instrumenting or
/// re-running the engine. Index `i` corresponds to slot `start + i`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SlotSeries {
    /// First measured slot (the run's `metrics_start`).
    pub start: Slot,
    /// Loaded instances at the end of each measured slot.
    pub loaded: Vec<u32>,
    /// Cold starts charged in each measured slot.
    pub cold: Vec<u32>,
    /// Warm starts served in each measured slot.
    pub warm: Vec<u32>,
    /// Evictions (any cause) during each measured slot.
    pub evictions: Vec<u32>,
    /// Per-slot EMCR (invoked / loaded; `0` when nothing is loaded).
    pub emcr: Vec<f64>,
    cold_now: u32,
    warm_now: u32,
    evict_now: u32,
    invoked_now: Vec<FunctionId>,
}

impl SlotSeries {
    /// Creates an empty series; it fills itself during the run.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded (measured) slots.
    #[must_use]
    pub fn n_slots(&self) -> usize {
        self.loaded.len()
    }
}

impl Observer for SlotSeries {
    fn on_run_start(&mut self, meta: &RunMeta<'_>, _pool: &MemoryPool) {
        self.start = meta.metrics_start;
        // Cap the guess: an open-ended (step-driven) run declares a huge
        // window end, and a pre-allocation of that size would be absurd.
        let measured = ((meta.end - meta.metrics_start) as usize).min(1 << 20);
        self.loaded = Vec::with_capacity(measured);
        self.cold = Vec::with_capacity(measured);
        self.warm = Vec::with_capacity(measured);
        self.evictions = Vec::with_capacity(measured);
        self.emcr = Vec::with_capacity(measured);
    }

    fn on_event(&mut self, ctx: &EventCtx<'_>, event: &SimEvent) {
        match *event {
            SimEvent::ColdStart { f, .. } => {
                self.cold_now += 1;
                self.invoked_now.push(f);
            }
            SimEvent::WarmStart { f, .. } => {
                self.warm_now += 1;
                self.invoked_now.push(f);
            }
            SimEvent::Evict { .. } => self.evict_now += 1,
            SimEvent::Load { .. } | SimEvent::LoadRejected { .. } => {}
            SimEvent::SlotEnd { .. } => {
                if ctx.measured {
                    let loaded_now = ctx.pool.loaded_count();
                    let invoked_loaded = self
                        .invoked_now
                        .iter()
                        .filter(|&&f| ctx.pool.contains(f))
                        .count();
                    self.loaded.push(loaded_now as u32);
                    self.cold.push(self.cold_now);
                    self.warm.push(self.warm_now);
                    self.evictions.push(self.evict_now);
                    self.emcr.push(if loaded_now == 0 {
                        0.0
                    } else {
                        invoked_loaded as f64 / loaded_now as f64
                    });
                }
                self.cold_now = 0;
                self.warm_now = 0;
                self.evict_now = 0;
                self.invoked_now.clear();
            }
        }
    }

    /// A batch that ends its slot is recorded from the batch's counts in
    /// O(1); only a batch without a `SlotEnd` (the policy's `on_start`
    /// transitions, a replayed tail) is walked, into the running
    /// counters the next `SlotEnd` records.
    fn on_slot_events(&mut self, ctx: &EventCtx<'_>, batch: &SlotBatch<'_>) {
        if !batch.ends_slot() {
            for event in batch.events() {
                self.on_event(ctx, event);
            }
            return;
        }
        if ctx.measured {
            let loaded_now = ctx.pool.loaded_count();
            let invoked_loaded = batch.invoked_loaded()
                + self
                    .invoked_now
                    .iter()
                    .filter(|&&f| ctx.pool.contains(f))
                    .count();
            self.loaded.push(loaded_now as u32);
            self.cold.push(self.cold_now + batch.cold_starts());
            self.warm.push(self.warm_now + batch.warm_starts());
            self.evictions
                .push(self.evict_now + batch.evictions() as u32);
            self.emcr.push(if loaded_now == 0 {
                0.0
            } else {
                invoked_loaded as f64 / loaded_now as f64
            });
        }
        self.cold_now = 0;
        self.warm_now = 0;
        self.evict_now = 0;
        self.invoked_now.clear();
    }

    observer_state!();
}

wire_record!(SlotSeries {
    start,
    loaded,
    cold,
    warm,
    evictions,
    emcr,
    cold_now,
    warm_now,
    evict_now,
    invoked_now,
});

// ---------------------------------------------------------------------
// EvictionAudit: eviction forensics
// ---------------------------------------------------------------------

/// Eviction forensics over the full simulated horizon.
///
/// Counts evictions by cause and tracks what happened to evicted
/// instances afterwards: how many were re-loaded at all, and how many
/// were re-loaded within `premature_window` slots — evictions the policy
/// would have been better off not making.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictionAudit {
    /// Evictions decided by the policy.
    pub policy_evictions: u64,
    /// Evictions forced by pool capacity.
    pub capacity_evictions: u64,
    /// Loads of a function that had been evicted earlier in the run.
    pub reloads: u64,
    /// Re-loads within `premature_window` slots of the eviction.
    pub premature_reloads: u64,
    premature_window: Slot,
    evicted_at: Vec<Option<Slot>>,
}

impl EvictionAudit {
    /// Creates an audit counting re-loads within `premature_window` slots
    /// of an eviction as premature.
    #[must_use]
    pub fn new(premature_window: Slot) -> Self {
        Self {
            policy_evictions: 0,
            capacity_evictions: 0,
            reloads: 0,
            premature_reloads: 0,
            premature_window,
            evicted_at: Vec::new(),
        }
    }

    /// Total evictions of any cause.
    #[must_use]
    pub fn total_evictions(&self) -> u64 {
        self.policy_evictions + self.capacity_evictions
    }

    /// Fraction of evictions whose instance was re-loaded within the
    /// premature window (0 when nothing was evicted).
    #[must_use]
    pub fn premature_fraction(&self) -> f64 {
        let total = self.total_evictions();
        if total == 0 {
            0.0
        } else {
            self.premature_reloads as f64 / total as f64
        }
    }
}

impl Observer for EvictionAudit {
    fn on_run_start(&mut self, _meta: &RunMeta<'_>, pool: &MemoryPool) {
        self.evicted_at = vec![None; pool.n_functions()];
    }

    fn on_event(&mut self, ctx: &EventCtx<'_>, event: &SimEvent) {
        match *event {
            SimEvent::Evict { f, cause } => {
                match cause {
                    EvictCause::Policy => self.policy_evictions += 1,
                    EvictCause::Capacity => self.capacity_evictions += 1,
                }
                self.evicted_at[f.index()] = Some(ctx.slot);
            }
            SimEvent::Load { f, .. } => {
                if let Some(evicted) = self.evicted_at[f.index()] {
                    self.reloads += 1;
                    if ctx.slot - evicted <= self.premature_window {
                        self.premature_reloads += 1;
                    }
                }
            }
            _ => {}
        }
    }

    observer_state!();
}

wire_record!(EvictionAudit {
    policy_evictions,
    capacity_evictions,
    reloads,
    premature_reloads,
    premature_window,
    evicted_at,
});

// ---------------------------------------------------------------------
// MemoryPressure: pool headroom and admission forensics
// ---------------------------------------------------------------------

/// Tracks pool headroom against a pressure budget over the full
/// simulated horizon.
///
/// The budget is the occupancy level the operator considers "full": by
/// default the observer adopts the run's own limit at run start — the
/// engine's pressure-admission budget when one is configured
/// ([`crate::engine::SimConfig::with_pressure_budget`]), else the pool's
/// hard capacity, else none. It reads each batch's facts in O(1): the
/// mid-slot peak from [`SlotBatch::peak_occupancy`] (exact, although
/// every event of a slot sees the end-of-slot pool), the refusals from
/// [`SlotBatch::rejected_loads`], and the end-of-slot statistics from
/// the pool of a batch that ends its slot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryPressure {
    budget: Option<usize>,
    budget_is_explicit: bool,
    occupancy: usize,
    /// Highest occupancy observed at any point of the run (mid-slot
    /// included).
    pub peak_occupancy: usize,
    /// Policy loads refused because the pool was full or at the
    /// admission budget.
    pub rejected_loads: u64,
    /// Simulated slots observed.
    pub slots: u64,
    /// Sum of end-of-slot occupancy over all observed slots.
    pub loaded_integral: u64,
    /// Slots that ended at or above the budget (0 without a budget).
    pub slots_at_budget: u64,
    /// Sum of end-of-slot occupancy in excess of the budget — the
    /// pressure demand loads created that admission control could not
    /// prevent (0 without a budget).
    pub over_budget_integral: u64,
    /// Smallest end-of-slot headroom `budget - occupancy` seen, clamped
    /// at 0; `None` without a budget (or before the first slot).
    pub min_headroom: Option<usize>,
}

impl MemoryPressure {
    /// Creates an observer that adopts the run's own budget at run start
    /// (admission budget, else hard capacity, else none).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an observer tracking headroom against an explicit budget.
    #[must_use]
    pub fn with_budget(budget: usize) -> Self {
        Self {
            budget: Some(budget),
            budget_is_explicit: true,
            ..Self::default()
        }
    }

    /// The budget headroom is tracked against, once the run started.
    #[must_use]
    pub fn budget(&self) -> Option<usize> {
        self.budget
    }

    /// Mean end-of-slot occupancy (0 before the first slot).
    #[must_use]
    pub fn mean_occupancy(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.loaded_integral as f64 / self.slots as f64
        }
    }

    /// Fraction of observed slots that ended at or above the budget
    /// (0 without a budget or before the first slot).
    #[must_use]
    pub fn pressure_fraction(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.slots_at_budget as f64 / self.slots as f64
        }
    }

    /// Records a slot that ended with `loaded` instances in the pool.
    fn end_slot(&mut self, loaded: usize) {
        self.slots += 1;
        self.loaded_integral += loaded as u64;
        if let Some(budget) = self.budget {
            if loaded >= budget {
                self.slots_at_budget += 1;
            }
            self.over_budget_integral += loaded.saturating_sub(budget) as u64;
            let headroom = budget.saturating_sub(loaded);
            self.min_headroom = Some(match self.min_headroom {
                Some(h) => h.min(headroom),
                None => headroom,
            });
        }
    }
}

impl Observer for MemoryPressure {
    fn on_run_start(&mut self, _meta: &RunMeta<'_>, pool: &MemoryPool) {
        if !self.budget_is_explicit {
            self.budget = pool.admission_budget().or(pool.capacity());
        }
        self.occupancy = pool.loaded_count();
        self.peak_occupancy = self.occupancy;
    }

    fn on_event(&mut self, ctx: &EventCtx<'_>, event: &SimEvent) {
        match *event {
            SimEvent::Load { .. } => {
                self.occupancy += 1;
                self.peak_occupancy = self.peak_occupancy.max(self.occupancy);
            }
            SimEvent::Evict { .. } => self.occupancy -= 1,
            SimEvent::LoadRejected { .. } => self.rejected_loads += 1,
            SimEvent::SlotEnd { .. } => self.end_slot(ctx.pool.loaded_count()),
            SimEvent::ColdStart { .. } | SimEvent::WarmStart { .. } => {}
        }
    }

    fn on_slot_events(&mut self, ctx: &EventCtx<'_>, batch: &SlotBatch<'_>) {
        self.peak_occupancy = self.peak_occupancy.max(batch.peak_occupancy());
        self.occupancy = ctx.pool.loaded_count();
        self.rejected_loads += batch.rejected_loads() as u64;
        if batch.ends_slot() {
            self.end_slot(ctx.pool.loaded_count());
        }
    }

    observer_state!();
}

wire_record!(MemoryPressure {
    budget,
    budget_is_explicit,
    occupancy,
    peak_occupancy,
    rejected_loads,
    slots,
    loaded_integral,
    slots_at_budget,
    over_budget_integral,
    min_headroom,
});

// ---------------------------------------------------------------------
// Fairness: per-app cold-start burden vs. invocation share
// ---------------------------------------------------------------------

/// One application's share of the measured workload and of the cold
/// starts, as reported by [`Fairness::shares`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppShare {
    /// The application.
    pub app: AppId,
    /// Measured invocations of the app's functions.
    pub invocations: u64,
    /// Measured cold starts charged to the app's functions.
    pub cold_starts: u64,
    /// `invocations / total invocations` (0 when the run saw none).
    pub invocation_share: f64,
    /// `cold_starts / total cold starts` (0 when the run saw none).
    pub cold_share: f64,
    /// The app-level cold-start rate `cold_starts / invocations`
    /// (0 for apps without invocations).
    pub csr: f64,
}

impl AppShare {
    /// How disproportionate the app's cold-start burden is:
    /// `cold_share / invocation_share`. Above 1, the app absorbs more of
    /// the cold starts than its traffic share would predict. 0 for apps
    /// without invocations.
    #[must_use]
    pub fn burden_ratio(&self) -> f64 {
        if self.invocation_share > 0.0 {
            self.cold_share / self.invocation_share
        } else {
            0.0
        }
    }
}

/// Per-application fairness accounting over the measured window.
///
/// A policy can post a good aggregate cold-start rate while
/// concentrating the misses on a few applications; this observer makes
/// that visible. It attributes every measured invocation and cold start
/// to the owning application (the static function→app map is taken from
/// the trace metadata) and summarises the distribution with a Gini
/// coefficient over app-level cold-start rates and the worst
/// cold-share : invocation-share ratio.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fairness {
    /// Dense app index per function.
    app_index: Vec<u32>,
    /// App id per dense index, ascending.
    apps: Vec<AppId>,
    invocations: Vec<u64>,
    cold_starts: Vec<u64>,
}

impl Fairness {
    /// Builds the observer from an explicit function→app assignment
    /// (`apps_of_functions[i]` is function `i`'s owning app).
    #[must_use]
    pub fn new(apps_of_functions: &[AppId]) -> Self {
        // Functions sorted by app: each run of equal apps is one dense
        // index, handed out in ascending app order.
        let mut by_app: Vec<usize> = (0..apps_of_functions.len()).collect();
        by_app.sort_unstable_by_key(|&i| apps_of_functions[i]);
        let mut apps: Vec<AppId> = Vec::new();
        let mut app_index = vec![0u32; apps_of_functions.len()];
        for i in by_app {
            let app = apps_of_functions[i];
            if apps.last() != Some(&app) {
                apps.push(app);
            }
            app_index[i] = (apps.len() - 1) as u32;
        }
        let n_apps = apps.len();
        Self {
            app_index,
            apps,
            invocations: vec![0; n_apps],
            cold_starts: vec![0; n_apps],
        }
    }

    /// Builds the observer from the trace's own function metadata.
    #[must_use]
    pub fn from_trace(trace: &Trace) -> Self {
        let apps: Vec<AppId> = trace.metas.iter().map(|m| m.app).collect();
        Self::new(&apps)
    }

    /// Number of applications tracked.
    #[must_use]
    pub fn n_apps(&self) -> usize {
        self.apps.len()
    }

    /// Total measured invocations across all apps.
    #[must_use]
    pub fn total_invocations(&self) -> u64 {
        self.invocations.iter().sum()
    }

    /// Total measured cold starts across all apps.
    #[must_use]
    pub fn total_cold_starts(&self) -> u64 {
        self.cold_starts.iter().sum()
    }

    /// Per-app shares, in ascending app-id order.
    #[must_use]
    pub fn shares(&self) -> Vec<AppShare> {
        let total_inv = self.total_invocations();
        let total_cold = self.total_cold_starts();
        self.apps
            .iter()
            .enumerate()
            .map(|(i, &app)| {
                let invocations = self.invocations[i];
                let cold_starts = self.cold_starts[i];
                AppShare {
                    app,
                    invocations,
                    cold_starts,
                    invocation_share: if total_inv == 0 {
                        0.0
                    } else {
                        invocations as f64 / total_inv as f64
                    },
                    cold_share: if total_cold == 0 {
                        0.0
                    } else {
                        cold_starts as f64 / total_cold as f64
                    },
                    csr: if invocations == 0 {
                        0.0
                    } else {
                        cold_starts as f64 / invocations as f64
                    },
                }
            })
            .collect()
    }

    /// Gini coefficient of app-level cold-start rates over apps with at
    /// least one measured invocation: 0 when every app experiences the
    /// same CSR, approaching 1 when the cold-start burden concentrates
    /// on a vanishing fraction of apps. 0 when no app was invoked or
    /// every invoked app has CSR 0.
    #[must_use]
    pub fn gini_csr(&self) -> f64 {
        let rates: Vec<f64> = self
            .invocations
            .iter()
            .zip(&self.cold_starts)
            .filter(|&(&inv, _)| inv > 0)
            .map(|(&inv, &cold)| cold as f64 / inv as f64)
            .collect();
        gini(&rates)
    }

    /// The worst per-app [`AppShare::burden_ratio`] (0 when nothing was
    /// invoked or no cold start occurred).
    #[must_use]
    pub fn max_burden_ratio(&self) -> f64 {
        self.shares()
            .iter()
            .map(AppShare::burden_ratio)
            .fold(0.0, f64::max)
    }
}

/// Gini coefficient of a set of non-negative values (0 for empty input
/// or an all-zero set).
fn gini(values: &[f64]) -> f64 {
    let n = values.len();
    let total: f64 = values.iter().sum();
    if n == 0 || total <= 0.0 {
        return 0.0;
    }
    let mut abs_diff_sum = 0.0;
    for (i, &a) in values.iter().enumerate() {
        for &b in &values[i + 1..] {
            abs_diff_sum += (a - b).abs();
        }
    }
    // Standard form: sum_ij |xi - xj| / (2 n^2 mean), with the upper
    // triangle counted once above (hence the doubling).
    2.0 * abs_diff_sum / (2.0 * n as f64 * total)
}

impl Observer for Fairness {
    fn on_event(&mut self, ctx: &EventCtx<'_>, event: &SimEvent) {
        if !ctx.measured {
            return;
        }
        match *event {
            SimEvent::ColdStart { f, count } => {
                let a = self.app_index[f.index()] as usize;
                self.invocations[a] += u64::from(count);
                self.cold_starts[a] += 1;
            }
            SimEvent::WarmStart { f, count } => {
                let a = self.app_index[f.index()] as usize;
                self.invocations[a] += u64::from(count);
            }
            _ => {}
        }
    }

    fn on_slot_events(&mut self, ctx: &EventCtx<'_>, batch: &SlotBatch<'_>) {
        if ctx.measured {
            for event in batch.events() {
                self.on_event(ctx, event);
            }
        }
    }

    observer_state!();
}

wire_record!(Fairness {
    app_index,
    apps,
    invocations,
    cold_starts,
});

// ---------------------------------------------------------------------
// EventLog: the raw stream, recorded
// ---------------------------------------------------------------------

/// Records the complete event stream of a run, plus the run's window.
///
/// The stream is self-contained: the tests reconstruct every paper
/// metric from an [`EventLog`] alone and compare against the engine's
/// [`RunCollector`], which is what makes "the event stream is the source
/// of truth" an enforced property rather than a convention.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    /// Name of the policy that drove the run.
    pub policy_name: String,
    /// First simulated slot.
    pub start: Slot,
    /// First measured slot.
    pub metrics_start: Slot,
    /// End of the simulated window (exclusive).
    pub end: Slot,
    /// Number of functions in the trace.
    pub n_functions: usize,
    /// Every event, in emission order.
    pub events: Vec<JournalEvent>,
}

impl EventLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Observer for EventLog {
    fn on_run_start(&mut self, meta: &RunMeta<'_>, pool: &MemoryPool) {
        self.policy_name = meta.policy_name.to_owned();
        self.start = meta.start;
        self.metrics_start = meta.metrics_start;
        self.end = meta.end;
        self.n_functions = pool.n_functions();
    }

    fn on_event(&mut self, ctx: &EventCtx<'_>, event: &SimEvent) {
        self.events.push(JournalEvent {
            slot: ctx.slot,
            measured: ctx.measured,
            event: *event,
        });
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut buf = wire::encode(&[
            &self.policy_name,
            &self.start,
            &self.metrics_start,
            &self.end,
            &self.n_functions,
            &self.events.len(),
        ]);
        // The journal's own event codec; the `measured` flags are
        // re-derived on restore (they are always `slot >= metrics_start`).
        let (mut prev_slot, mut prev_f) = (0, 0);
        for logged in &self.events {
            crate::journal::encode_event(
                &mut buf,
                &mut prev_slot,
                &mut prev_f,
                logged.slot,
                &logged.event,
            );
        }
        buf
    }

    fn restore(&mut self, state: &[u8]) -> Result<(), String> {
        let mut cur = wire::Cursor::new(state);
        let n_events: usize;
        (
            self.policy_name,
            self.start,
            self.metrics_start,
            self.end,
            self.n_functions,
            n_events,
        ) = Wire::take(&mut cur)?;
        let (mut prev_slot, mut prev_f) = (0, 0);
        self.events = (0..n_events)
            .map(|_| {
                let (slot, event) =
                    crate::journal::decode_event(&mut cur, &mut prev_slot, &mut prev_f)?;
                Ok(JournalEvent {
                    slot,
                    measured: slot >= self.metrics_start,
                    event,
                })
            })
            .collect::<Result<_, String>>()?;
        cur.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, Simulation};
    use crate::policy::{KeepForever, NoKeepAlive};
    use spes_trace::{AppId, FunctionMeta, SparseSeries, Trace, TriggerType, UserId};

    fn trace_of(series: Vec<SparseSeries>, n_slots: Slot) -> Trace {
        let meta = FunctionMeta {
            app: AppId(0),
            user: UserId(0),
            trigger: TriggerType::Http,
        };
        let n = series.len();
        Trace::new(n_slots, vec![meta; n], series)
    }

    /// Runs `policy` over `trace` with `observer` attached and hands the
    /// observer back.
    fn observed<T: Observer + 'static>(
        trace: &Trace,
        config: SimConfig,
        policy: &mut dyn crate::policy::Policy,
        observer: T,
    ) -> T {
        Simulation::new(trace, config)
            .with_observer(Box::new(observer))
            .run(policy)
            .unwrap()
            .take()
            .unwrap()
    }

    #[test]
    fn slot_series_matches_run_totals() {
        let trace = trace_of(
            vec![
                SparseSeries::from_pairs(vec![(0, 2), (3, 1), (5, 1)]),
                SparseSeries::from_pairs(vec![(1, 1)]),
            ],
            6,
        );
        let mut observers = Simulation::new(&trace, SimConfig::new(0, 6))
            .with_observer(Box::new(RunCollector::new()))
            .with_observer(Box::new(SlotSeries::new()))
            .run(&mut KeepForever)
            .unwrap();
        let run = observers.take::<RunCollector>().unwrap().into_result();
        let series: SlotSeries = observers.take().unwrap();
        assert_eq!(series.n_slots(), 6);
        assert_eq!(series.start + 2, 2);
        let cold: u64 = series.cold.iter().map(|&c| u64::from(c)).sum();
        assert_eq!(cold, run.total_cold_starts());
        let loaded: u64 = series.loaded.iter().map(|&l| u64::from(l)).sum();
        assert_eq!(loaded, run.loaded_integral);
        let warm_plus_cold: u64 = series
            .warm
            .iter()
            .zip(&series.cold)
            .map(|(&w, &c)| u64::from(w + c))
            .sum();
        // One start event per (function, active slot).
        assert_eq!(warm_plus_cold, 4);
    }

    #[test]
    fn eviction_audit_counts_causes_and_premature_reloads() {
        // Capacity 1: f0 and f1 alternate, every load evicts the other.
        let trace = trace_of(
            vec![
                SparseSeries::from_pairs(vec![(0, 1), (2, 1)]),
                SparseSeries::from_pairs(vec![(1, 1), (3, 1)]),
            ],
            4,
        );
        let audit = observed(
            &trace,
            SimConfig::new(0, 4).with_capacity(1),
            &mut KeepForever,
            EvictionAudit::new(5),
        );
        assert_eq!(audit.capacity_evictions, 3);
        assert_eq!(audit.policy_evictions, 0);
        assert_eq!(audit.reloads, 2);
        assert_eq!(audit.premature_reloads, 2);
        assert!((audit.premature_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn eviction_audit_attributes_policy_evictions() {
        let trace = trace_of(vec![SparseSeries::from_pairs(vec![(0, 1), (1, 1)])], 3);
        let audit = observed(
            &trace,
            SimConfig::new(0, 3),
            &mut NoKeepAlive,
            EvictionAudit::new(1),
        );
        // No-keep-alive evicts after each of the two active slots.
        assert_eq!(audit.policy_evictions, 2);
        assert_eq!(audit.capacity_evictions, 0);
        assert_eq!(audit.reloads, 1);
        assert_eq!(audit.premature_reloads, 1);
    }

    /// Pre-warms every function each slot and never evicts.
    struct PrewarmAll;

    impl crate::policy::Policy for PrewarmAll {
        fn name(&self) -> &str {
            "prewarm-all"
        }

        fn on_slot(&mut self, now: Slot, _invoked: &[(FunctionId, u32)], pool: &mut MemoryPool) {
            for i in 0..pool.n_functions() as u32 {
                pool.load(FunctionId(i), now);
            }
        }
    }

    #[test]
    fn memory_pressure_adopts_the_run_budget_and_counts_rejections() {
        // Three functions, pressure budget 1: the demand load of f0 fills
        // the pool, every pre-warm of f1/f2 is rejected, each slot.
        let trace = trace_of(
            vec![
                SparseSeries::from_pairs(vec![(0, 1)]),
                SparseSeries::new(),
                SparseSeries::new(),
            ],
            4,
        );
        let pressure = observed(
            &trace,
            SimConfig::new(0, 4).with_pressure_budget(1),
            &mut PrewarmAll,
            MemoryPressure::new(),
        );
        assert_eq!(pressure.budget(), Some(1));
        // 2 rejects per slot (f1, f2); f0's re-load attempt is a no-op.
        assert_eq!(pressure.rejected_loads, 8);
        assert_eq!(pressure.peak_occupancy, 1);
        assert_eq!(pressure.slots, 4);
        assert_eq!(pressure.slots_at_budget, 4);
        assert_eq!(pressure.min_headroom, Some(0));
        assert_eq!(pressure.over_budget_integral, 0);
        assert!((pressure.pressure_fraction() - 1.0).abs() < 1e-12);
        let budget = pressure.budget().unwrap() as f64;
        assert!((pressure.mean_occupancy() / budget - 1.0).abs() < 1e-12);
    }

    #[test]
    fn memory_pressure_tracks_headroom_without_rejections() {
        let trace = trace_of(
            vec![
                SparseSeries::from_pairs(vec![(0, 1)]),
                SparseSeries::from_pairs(vec![(1, 1)]),
            ],
            4,
        );
        let pressure = observed(
            &trace,
            SimConfig::new(0, 4),
            &mut KeepForever,
            MemoryPressure::with_budget(3),
        );
        assert_eq!(pressure.budget(), Some(3));
        assert_eq!(pressure.rejected_loads, 0);
        assert_eq!(pressure.peak_occupancy, 2);
        // Slot 0 ends with 1 loaded, slots 1-3 with 2: min headroom 1.
        assert_eq!(pressure.min_headroom, Some(1));
        assert_eq!(pressure.slots_at_budget, 0);
        assert!((pressure.mean_occupancy() - 7.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn memory_pressure_without_any_budget_still_tracks_occupancy() {
        let trace = trace_of(vec![SparseSeries::from_pairs(vec![(1, 2)])], 3);
        let pressure = observed(
            &trace,
            SimConfig::new(0, 3),
            &mut KeepForever,
            MemoryPressure::new(),
        );
        assert_eq!(pressure.budget(), None);
        assert_eq!(pressure.min_headroom, None);
        assert_eq!(pressure.peak_occupancy, 1);
        assert_eq!(pressure.loaded_integral, 2);
    }

    fn two_app_trace() -> Trace {
        // App 0 owns f0/f1, app 7 owns f2. Sparse activity so that
        // no-keep-alive makes every active slot a cold start.
        let metas = vec![
            FunctionMeta {
                app: AppId(0),
                user: UserId(0),
                trigger: TriggerType::Http,
            },
            FunctionMeta {
                app: AppId(0),
                user: UserId(0),
                trigger: TriggerType::Http,
            },
            FunctionMeta {
                app: AppId(7),
                user: UserId(1),
                trigger: TriggerType::Timer,
            },
        ];
        let series = vec![
            SparseSeries::from_pairs(vec![(0, 2), (2, 2)]),
            SparseSeries::from_pairs(vec![(1, 1)]),
            SparseSeries::from_pairs(vec![(0, 5), (1, 5), (2, 5)]),
        ];
        Trace::new(3, metas, series)
    }

    #[test]
    fn fairness_attributes_shares_per_app() {
        let trace = two_app_trace();
        let fairness = observed(
            &trace,
            SimConfig::new(0, 3),
            &mut crate::policy::NoKeepAlive,
            Fairness::from_trace(&trace),
        );
        assert_eq!(fairness.n_apps(), 2);
        assert_eq!(fairness.total_invocations(), 20);
        // Every active (function, slot) is cold under no-keep-alive.
        assert_eq!(fairness.total_cold_starts(), 6);
        let shares = fairness.shares();
        assert_eq!(shares[0].app, AppId(0));
        assert_eq!(shares[0].invocations, 5);
        assert_eq!(shares[0].cold_starts, 3);
        assert!((shares[0].invocation_share - 0.25).abs() < 1e-12);
        assert!((shares[0].cold_share - 0.5).abs() < 1e-12);
        assert!((shares[0].burden_ratio() - 2.0).abs() < 1e-12);
        assert_eq!(shares[1].app, AppId(7));
        assert!((shares[1].csr - 0.2).abs() < 1e-12);
        // App 0 bears double its traffic share in cold starts.
        assert!((fairness.max_burden_ratio() - 2.0).abs() < 1e-12);
        // CSRs are 0.6 (app 0) and 0.2 (app 7): Gini = 0.4/(2*2*0.4) = 0.25.
        assert!(
            (fairness.gini_csr() - 0.25).abs() < 1e-12,
            "{}",
            fairness.gini_csr()
        );
    }

    #[test]
    fn fairness_is_zero_when_burden_matches_traffic() {
        // One app only: its cold share equals its invocation share and
        // the Gini over a single CSR is 0.
        let trace = trace_of(vec![SparseSeries::from_pairs(vec![(0, 1), (2, 1)])], 3);
        let fairness = observed(
            &trace,
            SimConfig::new(0, 3),
            &mut KeepForever,
            Fairness::from_trace(&trace),
        );
        assert_eq!(fairness.gini_csr(), 0.0);
        assert!((fairness.max_burden_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fairness_respects_the_measurement_window() {
        let trace = two_app_trace();
        let fairness = observed(
            &trace,
            SimConfig::new(0, 3).with_metrics_start(2),
            &mut crate::policy::NoKeepAlive,
            Fairness::from_trace(&trace),
        );
        // Only slot 2 is measured: f0 (app 0) and f2 (app 7).
        assert_eq!(fairness.total_invocations(), 7);
        assert_eq!(fairness.total_cold_starts(), 2);
    }

    #[test]
    fn gini_handles_degenerate_inputs() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0.0, 0.0]), 0.0);
        assert_eq!(gini(&[0.5, 0.5, 0.5]), 0.0);
        // Perfect concentration on one of n approaches (n-1)/n.
        assert!((gini(&[1.0, 0.0, 0.0, 0.0]) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn event_log_captures_the_window_and_ordered_stream() {
        let trace = trace_of(vec![SparseSeries::from_pairs(vec![(1, 2)])], 3);
        let log = observed(
            &trace,
            SimConfig::new(0, 3).with_metrics_start(2),
            &mut KeepForever,
            EventLog::new(),
        );
        assert_eq!(log.policy_name, "keep-forever");
        assert_eq!((log.start, log.metrics_start, log.end), (0, 2, 3));
        assert_eq!(log.n_functions, 1);
        // 3 SlotEnds plus one ColdStart and one Load.
        let slot_ends = log
            .events
            .iter()
            .filter(|e| matches!(e.event, SimEvent::SlotEnd { .. }))
            .count();
        assert_eq!(slot_ends, 3);
        let cold = log
            .events
            .iter()
            .find(|e| matches!(e.event, SimEvent::ColdStart { .. }))
            .expect("one cold start");
        assert_eq!(cold.slot, 1);
        assert!(!cold.measured, "slot 1 is warm-up");
        // The demand load follows its cold start.
        let positions: Vec<usize> = log
            .events
            .iter()
            .enumerate()
            .filter_map(|(i, e)| {
                matches!(
                    e.event,
                    SimEvent::ColdStart { .. }
                        | SimEvent::Load {
                            cause: LoadCause::Demand,
                            ..
                        }
                )
                .then_some(i)
            })
            .collect();
        assert_eq!(positions.len(), 2);
        assert!(positions[0] < positions[1]);
    }
}
