//! The per-slot simulation engine: a pure driver over the event stream.
//!
//! Implements the paper's simulation principles (Section V-A): minute
//! slots, every execution finishes within its slot, uniform cold-start
//! latency (so only counts matter), and one node that holds all loaded
//! instances (optionally capacity-limited for FaaSCache).
//!
//! Per slot `t` the engine:
//! 1. serves every invocation (emitting [`SimEvent::WarmStart`] /
//!    [`SimEvent::ColdStart`]), force-loading cold functions and asking
//!    the policy for victims when the pool is full;
//! 2. invokes the policy's decision hook (timed, for the RQ2 overhead
//!    metric);
//! 3. emits [`SimEvent::SlotEnd`] with snapshot access to the pool.
//!
//! The slot loop itself is resumable: [`SimDriver`] owns the run state
//! (pool, policy borrow, observers) and exposes it one slot at a time —
//! [`SimDriver::step`] consumes a slot's invocations and returns a
//! [`SlotOutcome`] describing every decision made during the slot, and
//! [`SimDriver::finish`] closes the run into a [`RunResult`]. Batch
//! simulation ([`Simulation::run`], [`try_simulate`]) is a thin loop over
//! `step` across a trace window — bit-identical to the pre-driver engine
//! by the step-parity property tests — while an online consumer (the
//! `spes_sim::serve` line protocol) feeds the same driver from a socket
//! with no window known in advance.
//!
//! All accounting lives in observers ([`crate::events`]): the engine
//! itself only drives the policy and narrates what happened. Observers
//! are attached by value (a `Box<dyn DynObserver>`) and handed back in
//! an [`ObserverSet`] when the run ends. A run is assembled with the
//! [`Simulation`] builder; [`try_simulate`] is the one-observer
//! convenience that returns the paper's [`RunResult`].
//!
//! # Scaling
//!
//! The per-slot hot path is `O(active)`, not `O(n_functions)`: the batch
//! loop reads invocations from [`spes_trace::SlotBatches`] — a slot-major
//! CSR index built in one counting-sort pass over the trace — so a slot
//! in which 300 of a million functions fire costs ~300 lookups, and the
//! span-based collectors charge idle time per transition rather than per
//! loaded instance. `bench_engine --scale` tracks one `SimDriver`'s
//! throughput on this path from 1k to 1M functions; see
//! `docs/SCALING.md`.

use crate::events::{
    DynObserver, EventCtx, EvictCause, LoadCause, Observer, ObserverSet, RunCollector, RunMeta,
    SimEvent, SlotBatch,
};
use crate::memory::{MemoryPool, PoolOp};
use crate::metrics::RunResult;
use crate::policy::Policy;
use crate::wire;
use spes_trace::{FunctionId, Slot, Trace};
use std::time::Instant;

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// First simulated slot (inclusive).
    pub start: Slot,
    /// End of the simulated window (exclusive). Step-driven runs that do
    /// not know their end in advance use a far-future end (e.g.
    /// `Slot::MAX`) and simply stop stepping.
    pub end: Slot,
    /// First slot contributing to metrics; slots in `[start,
    /// metrics_start)` are simulated as warm-up (policies act, nothing is
    /// recorded). The paper's protocol simulates the whole 14-day trace
    /// and reports on the final 2 days, with warm state carried across.
    pub metrics_start: Slot,
    /// Memory capacity in instances, at least 1; `None` means unlimited
    /// (the paper's default assumption). Demand loads make room by
    /// evicting; a policy load into a full pool is refused and surfaced
    /// as [`SimEvent::LoadRejected`].
    pub capacity: Option<usize>,
    /// Pressure-admission budget in instances; `None` disables admission
    /// control. With a budget, policy loads (pre-warms) that would push
    /// occupancy past it are refused and surfaced as
    /// [`SimEvent::LoadRejected`] events; demand loads — an invoked
    /// function must be served — always go through, so occupancy can
    /// still exceed the budget under demand pressure. Unlike `capacity`,
    /// the budget is soft: nothing is ever force-evicted for it.
    pub pressure_budget: Option<usize>,
}

impl SimConfig {
    /// Simulates `[start, end)` with unlimited memory, measuring from
    /// `start`.
    #[must_use]
    pub fn new(start: Slot, end: Slot) -> Self {
        Self {
            start,
            end,
            metrics_start: start,
            capacity: None,
            pressure_budget: None,
        }
    }

    /// Sets a memory capacity (used for FaaSCache).
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Enables admission control: policy pre-warm loads that would push
    /// occupancy past `budget` are rejected (emitted as
    /// [`SimEvent::LoadRejected`]); demand loads still go through.
    #[must_use]
    pub fn with_pressure_budget(mut self, budget: usize) -> Self {
        self.pressure_budget = Some(budget);
        self
    }

    /// Treats `[start, metrics_start)` as warm-up: simulated, unmeasured.
    #[must_use]
    pub fn with_metrics_start(mut self, metrics_start: Slot) -> Self {
        self.metrics_start = metrics_start;
        self
    }
}

wire_record!(SimConfig {
    start,
    end,
    metrics_start,
    capacity,
    pressure_budget,
});

/// Why a simulation could not run (or a step could not be taken).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// `start > end`.
    InvalidWindow {
        /// Requested window start.
        start: Slot,
        /// Requested window end.
        end: Slot,
    },
    /// The window extends past the trace's last slot.
    BeyondHorizon {
        /// Requested window end.
        end: Slot,
        /// The trace horizon.
        n_slots: Slot,
    },
    /// `metrics_start` lies outside `[start, end]`.
    MetricsStartOutsideWindow {
        /// Requested metrics start.
        metrics_start: Slot,
        /// Requested window start.
        start: Slot,
        /// Requested window end.
        end: Slot,
    },
    /// [`SimDriver::step`] was called with a slot other than the next
    /// expected one — slots must be stepped contiguously so that every
    /// policy hook fires exactly once per simulated minute.
    StepOutOfOrder {
        /// The slot the driver expected next.
        expected: Slot,
        /// The slot that was passed.
        got: Slot,
    },
    /// [`SimDriver::step`] was called at or past the configured window
    /// end, or after the driver was closed.
    StepAfterEnd {
        /// The slot that was passed.
        slot: Slot,
        /// The first slot that can no longer be stepped.
        end: Slot,
    },
    /// `capacity` is `Some(0)`: the first cold start would have nowhere
    /// to go.
    ZeroCapacity,
    /// [`SimDriver::step`] was handed an invocation of a function outside
    /// the driver's universe; the batch is rejected before anything in it
    /// is served.
    UnknownFunction {
        /// The out-of-range function id.
        f: FunctionId,
        /// Number of functions the driver was built over.
        n_functions: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Self::InvalidWindow { start, end } => {
                write!(f, "invalid simulation window [{start}, {end})")
            }
            Self::BeyondHorizon { end, n_slots } => {
                write!(
                    f,
                    "window beyond trace horizon: end {end} > {n_slots} slots"
                )
            }
            Self::MetricsStartOutsideWindow {
                metrics_start,
                start,
                end,
            } => write!(
                f,
                "metrics_start outside the simulated window: \
                 {metrics_start} not in [{start}, {end}]"
            ),
            Self::StepOutOfOrder { expected, got } => {
                write!(f, "out-of-order step: expected slot {expected}, got {got}")
            }
            Self::StepAfterEnd { slot, end } => {
                write!(f, "step at slot {slot} beyond the run end {end}")
            }
            Self::ZeroCapacity => write!(f, "pool capacity must be at least 1 instance"),
            Self::UnknownFunction {
                f: function,
                n_functions,
            } => write!(
                f,
                "unknown function {} in a run over {n_functions} functions",
                function.0
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Checks a run's window: `start <= end`, then (when a trace bounds the
/// run) `end <= horizon`, then `metrics_start` in `[start, end]`, then a
/// capacity of at least 1. The one check behind [`Simulation::run`],
/// [`SimDriver::new`] and the snapshot decoder.
pub(crate) fn validate_window(config: &SimConfig, horizon: Option<Slot>) -> Result<(), SimError> {
    let SimConfig {
        start,
        end,
        metrics_start,
        capacity,
        ..
    } = *config;
    if start > end {
        return Err(SimError::InvalidWindow { start, end });
    }
    if let Some(n_slots) = horizon.filter(|&n_slots| end > n_slots) {
        return Err(SimError::BeyondHorizon { end, n_slots });
    }
    if !(start..=end).contains(&metrics_start) {
        return Err(SimError::MetricsStartOutsideWindow {
            metrics_start,
            start,
            end,
        });
    }
    if capacity == Some(0) {
        return Err(SimError::ZeroCapacity);
    }
    Ok(())
}

/// A configured run: the trace, the window, and any number of attached
/// observers. Built with [`Simulation::new`] plus
/// [`Simulation::with_observer`] per observer; executed with
/// [`Simulation::run`], which hands the observers back in an
/// [`ObserverSet`].
///
/// ```
/// use spes_sim::{KeepForever, RunCollector, SimConfig, Simulation, SlotSeries};
/// # use spes_trace::{AppId, FunctionMeta, SparseSeries, Trace, TriggerType, UserId};
/// # let meta = FunctionMeta { app: AppId(0), user: UserId(0), trigger: TriggerType::Http };
/// # let trace = Trace::new(4, vec![meta], vec![SparseSeries::from_pairs(vec![(1, 2)])]);
/// let mut observers = Simulation::new(&trace, SimConfig::new(0, 4))
///     .with_observer(Box::new(RunCollector::new()))
///     .with_observer(Box::new(SlotSeries::new()))
///     .run(&mut KeepForever)
///     .unwrap();
/// let run = observers.take::<RunCollector>().unwrap().into_result();
/// assert_eq!(run.total_cold_starts(), 1);
/// let series: SlotSeries = observers.take().unwrap();
/// assert_eq!(series.n_slots(), 4);
/// ```
pub struct Simulation<'t> {
    trace: &'t Trace,
    config: SimConfig,
    observers: Vec<Box<dyn DynObserver>>,
}

impl<'t> Simulation<'t> {
    /// Starts building a run of `trace` over `config`'s window.
    #[must_use]
    pub fn new(trace: &'t Trace, config: SimConfig) -> Self {
        Self {
            trace,
            config,
            observers: Vec::new(),
        }
    }

    /// Attaches an observer; events are delivered in attachment order.
    /// It rides the run and comes back in the [`ObserverSet`] returned by
    /// [`Simulation::run`], recoverable by concrete type via
    /// [`ObserverSet::take`].
    #[must_use]
    pub fn with_observer(mut self, observer: Box<dyn DynObserver>) -> Self {
        self.observers.push(observer);
        self
    }

    /// Drives `policy` over the trace, feeding every attached observer —
    /// a thin loop over [`SimDriver::step`]. Returns the owned observers.
    ///
    /// # Errors
    /// Returns a [`SimError`] when the window is malformed or extends
    /// beyond the trace horizon. Nothing is simulated in that case.
    pub fn run(self, policy: &mut dyn Policy) -> Result<ObserverSet, SimError> {
        let SimConfig { start, end, .. } = self.config;
        validate_window(&self.config, Some(self.trace.n_slots))?;
        // One CSR active-set index for the whole window: each slot's batch
        // is a contiguous slice of a single flat allocation, so the hot
        // loop below touches only the functions invoked that slot —
        // O(active) per slot, never O(total) — with function ids
        // ascending within each slot, the order the event stream pins.
        let batches = self.trace.slot_batches(start, end);
        let mut driver = SimDriver::assemble(
            self.trace.n_functions(),
            self.config,
            policy,
            self.observers,
            false,
        );
        for t in start..end {
            driver
                .step(t, batches.batch(t))
                .expect("contiguous in-window steps cannot fail");
        }
        driver.close();
        Ok(ObserverSet::new(driver.sinks.observers))
    }
}

/// Everything that happened during one stepped slot, borrowed from the
/// driver's scratch space (so stepping allocates nothing per slot once
/// the buffers are warm). The borrows are valid until the next call to
/// [`SimDriver::step`].
///
/// Pre-warm loads a policy makes in `on_start` (before the first slot)
/// are folded into the first step's outcome.
#[derive(Debug, Clone, Copy)]
pub struct SlotOutcome<'a> {
    /// The stepped slot.
    pub slot: Slot,
    /// Whether the slot is inside the metrics window.
    pub measured: bool,
    /// Invocations served this slot (sum of per-function counts).
    pub invocations: u64,
    /// Functions whose first arrival found them unloaded.
    pub cold_starts: u32,
    /// Functions served warm.
    pub warm_starts: u32,
    /// Demand loads forced by cold starts, in event order.
    pub demand_loads: &'a [FunctionId],
    /// Pre-warm loads the policy made, in event order.
    pub policy_loads: &'a [FunctionId],
    /// Evictions the policy decided, in event order.
    pub policy_evictions: &'a [FunctionId],
    /// Evictions forced by pool capacity to admit demand loads.
    pub capacity_evictions: &'a [FunctionId],
    /// Policy loads refused by pressure admission control.
    pub rejected_loads: &'a [FunctionId],
    /// Loaded instances at the end of the slot.
    pub occupancy: usize,
    /// Wall-clock seconds the policy's decision hook took this slot.
    pub policy_secs: f64,
}

/// The ledger of a slot: every transition emitted, sorted into counts
/// and lists by [`OutcomeScratch::record`]. It backs both the step's
/// [`SlotOutcome`] and the facts of each delivered [`SlotBatch`], live
/// and replayed alike.
#[derive(Debug, Default, Clone)]
pub(crate) struct OutcomeScratch {
    pub(crate) invocations: u64,
    pub(crate) cold_starts: u32,
    pub(crate) warm_starts: u32,
    pub(crate) demand_loads: Vec<FunctionId>,
    pub(crate) policy_loads: Vec<FunctionId>,
    pub(crate) policy_evictions: Vec<FunctionId>,
    pub(crate) capacity_evictions: Vec<FunctionId>,
    pub(crate) rejected_loads: Vec<FunctionId>,
}

wire_record!(OutcomeScratch {
    invocations,
    cold_starts,
    warm_starts,
    demand_loads,
    policy_loads,
    policy_evictions,
    capacity_evictions,
    rejected_loads,
});

/// Where the undelivered batch's share of the ledger's policy lists
/// starts: 0 after a clear, past the `on_start` ops in the engine's
/// first step (they went out as a batch of their own). Demand loads,
/// capacity evictions and the cold and warm counts only come from
/// steps, so they are always the batch's own.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ScratchMarks {
    pub(crate) policy_loads: usize,
    pub(crate) policy_evictions: usize,
    pub(crate) rejected_loads: usize,
}

impl OutcomeScratch {
    /// Sorts one emitted event into its count or list: the one place a
    /// slot's transitions are counted. Inlined, it folds to one update
    /// at each emit site; a call costs ~3 ns per `scale-stream` event.
    #[inline(always)]
    pub(crate) fn record(&mut self, event: &SimEvent) {
        match *event {
            SimEvent::ColdStart { count, .. } => {
                self.invocations += u64::from(count);
                self.cold_starts += 1;
            }
            SimEvent::WarmStart { count, .. } => {
                self.invocations += u64::from(count);
                self.warm_starts += 1;
            }
            SimEvent::Load { f, cause } => match cause {
                LoadCause::Demand => self.demand_loads.push(f),
                LoadCause::Policy => self.policy_loads.push(f),
            },
            SimEvent::Evict { f, cause } => match cause {
                EvictCause::Capacity => self.capacity_evictions.push(f),
                EvictCause::Policy => self.policy_evictions.push(f),
            },
            SimEvent::LoadRejected { f } => self.rejected_loads.push(f),
            SimEvent::SlotEnd { .. } => {}
        }
    }

    /// Marks the policy lists' current ends as the start of a new batch.
    fn marks(&self) -> ScratchMarks {
        ScratchMarks {
            policy_loads: self.policy_loads.len(),
            policy_evictions: self.policy_evictions.len(),
            rejected_loads: self.rejected_loads.len(),
        }
    }

    fn clear(&mut self) {
        self.invocations = 0;
        self.cold_starts = 0;
        self.warm_starts = 0;
        self.demand_loads.clear();
        self.policy_loads.clear();
        self.policy_evictions.clear();
        self.capacity_evictions.clear();
        self.rejected_loads.clear();
    }
}

/// The attached event sinks of one run: the attached observers, the
/// driver's own optional metrics collector, and the slot's ledger.
/// [`crate::journal::replay`] delivers a recorded run through the same
/// sinks.
///
/// Events are buffered, not dispatched one by one: [`Sinks::emit`]
/// records each in the ledger and appends it to the current slot's
/// batch, and [`Sinks::deliver`] hands the whole batch with its facts to
/// each sink in one [`Observer::on_slot_events`] call, against the pool
/// as it stands at the end of the batch. The driver delivers at the end
/// of every step (after `SlotEnd`) and at the end of its constructor
/// (the policy's `on_start` transitions), so no snapshot boundary ever
/// holds an undelivered event; `replay` delivers its tail before
/// [`Sinks::run_end`].
pub(crate) struct Sinks {
    pub(crate) observers: Vec<Box<dyn DynObserver>>,
    pub(crate) collector: Option<RunCollector>,
    /// Every transition since the ledger was last emptied.
    pub(crate) ledger: OutcomeScratch,
    /// Where the undelivered batch starts in the ledger.
    marks: ScratchMarks,
    /// The undelivered events, all of slot `batch_slot`.
    batch: Vec<SimEvent>,
    batch_slot: Slot,
    batch_measured: bool,
}

impl Sinks {
    /// Sinks whose `ledger` has been delivered up to its end.
    pub(crate) fn new(
        observers: Vec<Box<dyn DynObserver>>,
        collector: Option<RunCollector>,
        ledger: OutcomeScratch,
    ) -> Self {
        Self {
            observers,
            collector,
            marks: ledger.marks(),
            ledger,
            batch: Vec::new(),
            batch_slot: 0,
            batch_measured: false,
        }
    }

    pub(crate) fn run_start(&mut self, meta: &RunMeta<'_>, pool: &MemoryPool) {
        for observer in self.observers.iter_mut() {
            observer.on_run_start(meta, pool);
        }
        if let Some(collector) = self.collector.as_mut() {
            collector.on_run_start(meta, pool);
        }
    }

    /// Records `event` of `slot` in the ledger and appends it to the
    /// batch; a batch holds one slot.
    #[inline(always)]
    pub(crate) fn emit(&mut self, slot: Slot, measured: bool, event: SimEvent) {
        debug_assert!(
            self.batch.is_empty() || self.batch_slot == slot,
            "a batch spans slots {} and {slot}",
            self.batch_slot
        );
        self.ledger.record(&event);
        self.batch_slot = slot;
        self.batch_measured = measured;
        self.batch.push(event);
    }

    /// Starts a batch, live or replayed: the pool's high-water mark
    /// restarts at its occupancy, and the ledger empties if
    /// `fresh_ledger` (the engine's first step keeps the `on_start` ops).
    pub(crate) fn start_batch(&mut self, pool: &mut MemoryPool, fresh_ledger: bool) {
        pool.reset_peak();
        if fresh_ledger {
            self.ledger.clear();
            self.marks = ScratchMarks::default();
        }
    }

    /// The slot of the undelivered events, if any.
    pub(crate) fn pending_slot(&self) -> Option<Slot> {
        (!self.batch.is_empty()).then_some(self.batch_slot)
    }

    /// Hands the batch to every sink with its facts: the ledger from the
    /// batch's marks on, the pool's high-water mark since the batch
    /// started, and, in a measured batch, how many invocation events
    /// name a function loaded in the batch-end `pool`. Then empties the
    /// batch; a no-op when nothing is pending.
    pub(crate) fn deliver(&mut self, pool: &MemoryPool) {
        if self.batch.is_empty() {
            return;
        }
        let ctx = EventCtx {
            slot: self.batch_slot,
            measured: self.batch_measured,
            pool,
        };
        let still_loaded = |event: &&SimEvent| match **event {
            SimEvent::ColdStart { f, .. } | SimEvent::WarmStart { f, .. } => pool.contains(f),
            _ => false,
        };
        let batch = SlotBatch {
            events: &self.batch,
            ledger: &self.ledger,
            marks: self.marks,
            peak_occupancy: pool.peak(),
            invoked_loaded: if self.batch_measured {
                self.batch.iter().filter(still_loaded).count()
            } else {
                0
            },
        };
        for observer in self.observers.iter_mut() {
            observer.on_slot_events(&ctx, &batch);
        }
        if let Some(collector) = self.collector.as_mut() {
            collector.on_slot_events(&ctx, &batch);
        }
        self.batch.clear();
        self.marks = self.ledger.marks();
    }

    /// Fires `on_run_end` on every sink; the batch must be delivered.
    pub(crate) fn run_end(&mut self, end: Slot, pool: &MemoryPool) {
        debug_assert!(self.batch.is_empty(), "run end with undelivered events");
        for observer in self.observers.iter_mut() {
            observer.on_run_end(end, pool);
        }
        if let Some(collector) = self.collector.as_mut() {
            collector.on_run_end(end, pool);
        }
    }
}

/// A resumable simulation: the engine's slot loop, externally driven.
///
/// Where [`Simulation::run`] consumes a whole trace window at once, a
/// `SimDriver` is fed one slot at a time — the caller decides when the
/// next slot's invocations are complete (e.g. when a later-slot event
/// arrives on a socket) and calls [`SimDriver::step`]. Slots must be
/// stepped contiguously from `config.start`; the run may stop anywhere
/// short of `config.end`, so open-ended serving uses a far-future end.
///
/// ```
/// use spes_sim::{MemoryPressure, NoKeepAlive, SimConfig, SimDriver};
/// use spes_trace::{FunctionId, Slot};
/// let mut policy = NoKeepAlive;
/// let mut driver = SimDriver::new(
///     2,
///     SimConfig::new(0, Slot::MAX),
///     &mut policy,
///     vec![Box::new(MemoryPressure::new())],
/// )
/// .unwrap();
/// let outcome = driver.step(0, &[(FunctionId(1), 3)]).unwrap();
/// assert_eq!((outcome.cold_starts, outcome.invocations), (1, 3));
/// let run = driver.finish();
/// assert_eq!(run.total_cold_starts(), 1);
/// assert_eq!(run.end, 1); // the run ended where stepping stopped
/// ```
pub struct SimDriver<'p> {
    config: SimConfig,
    policy: &'p mut dyn Policy,
    sinks: Sinks,
    pool: MemoryPool,
    ops: Vec<PoolOp>,
    /// Whether `step` must clear the ledger before recording (false only
    /// while it still holds the pre-start flush, folded into step one).
    clear_scratch: bool,
    next_slot: Slot,
    finished: bool,
}

impl std::fmt::Debug for SimDriver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimDriver")
            .field("policy", &self.policy.name())
            .field("config", &self.config)
            .field("next_slot", &self.next_slot)
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

impl<'p> SimDriver<'p> {
    /// Builds a driver over `n_functions` functions with owned observers,
    /// fires `on_run_start` and the policy's `on_start` hook, and installs
    /// an internal [`RunCollector`] behind [`SimDriver::finish`].
    ///
    /// # Errors
    /// Returns a [`SimError`] when the window is malformed. There is no
    /// trace here, so no horizon check: the caller owns the decision of
    /// how far to step.
    pub fn new(
        n_functions: usize,
        config: SimConfig,
        policy: &'p mut dyn Policy,
        observers: Vec<Box<dyn DynObserver>>,
    ) -> Result<Self, SimError> {
        validate_window(&config, None)?;
        Ok(Self::assemble(n_functions, config, policy, observers, true))
    }

    /// The shared constructor behind [`SimDriver::new`] (with an internal
    /// collector) and [`Simulation::run`] (without one — batch callers
    /// attach their own [`RunCollector`]). `config` has been through
    /// [`validate_window`].
    fn assemble(
        n_functions: usize,
        config: SimConfig,
        policy: &'p mut dyn Policy,
        observers: Vec<Box<dyn DynObserver>>,
        collect: bool,
    ) -> Self {
        let SimConfig {
            start,
            end,
            metrics_start,
            capacity,
            pressure_budget,
        } = config;
        let mut pool = MemoryPool::with_capacity(n_functions, capacity);
        pool.enable_journal();
        pool.set_admission_budget(pressure_budget);
        let mut driver = Self {
            config,
            policy,
            sinks: Sinks::new(
                observers,
                collect.then(RunCollector::new),
                Default::default(),
            ),
            pool,
            ops: Vec::new(),
            clear_scratch: false,
            next_slot: start,
            finished: false,
        };
        let meta = RunMeta {
            policy_name: driver.policy.name(),
            start,
            metrics_start,
            end,
        };
        driver.sinks.run_start(&meta, &driver.pool);

        // Pre-run pre-warming: anything the policy loads in `on_start`
        // becomes a policy Load at the first slot.
        driver.policy.on_start(start, &mut driver.pool);
        driver.flush(start, start >= metrics_start);
        driver.sinks.deliver(&driver.pool);
        driver
    }

    /// The next slot [`SimDriver::step`] expects.
    #[must_use]
    pub fn next_slot(&self) -> Slot {
        self.next_slot
    }

    /// The run's configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The driven policy's name.
    #[must_use]
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// Read-only view of the pool as it currently stands.
    #[must_use]
    pub fn pool(&self) -> &MemoryPool {
        &self.pool
    }

    /// A shared reference to the first owned observer of concrete type
    /// `T` — lets an online consumer snapshot observer state mid-run.
    #[must_use]
    pub fn observer<T: Observer + 'static>(&self) -> Option<&T> {
        self.sinks
            .observers
            .iter()
            .find_map(|o| o.as_any().downcast_ref::<T>())
    }

    /// Simulates one slot: serves `invoked` (cold/warm classification,
    /// demand loads, capacity evictions), runs the policy's timed
    /// decision hook, and emits `SlotEnd`. Slots must be stepped in
    /// order, starting at `config.start`.
    ///
    /// # Errors
    /// [`SimError::StepOutOfOrder`] when `slot` is not the next expected
    /// slot; [`SimError::StepAfterEnd`] at or past the window end or
    /// after the driver was closed; [`SimError::UnknownFunction`] when
    /// `invoked` names a function outside the driver's universe. A
    /// rejected step emits nothing and changes no state.
    pub fn step(
        &mut self,
        slot: Slot,
        invoked: &[(FunctionId, u32)],
    ) -> Result<SlotOutcome<'_>, SimError> {
        if self.finished {
            return Err(SimError::StepAfterEnd {
                slot,
                end: self.next_slot,
            });
        }
        if slot >= self.config.end {
            return Err(SimError::StepAfterEnd {
                slot,
                end: self.config.end,
            });
        }
        if slot != self.next_slot {
            return Err(SimError::StepOutOfOrder {
                expected: self.next_slot,
                got: slot,
            });
        }
        let n_functions = self.pool.n_functions();
        if let Some(&(f, _)) = invoked.iter().find(|(f, _)| f.index() >= n_functions) {
            return Err(SimError::UnknownFunction { f, n_functions });
        }
        self.sinks.start_batch(&mut self.pool, self.clear_scratch);
        self.clear_scratch = true;
        let measured = slot >= self.config.metrics_start;

        // 1. Serve invocations: first arrival on an unloaded function is a
        // cold start; the instance is then resident for the rest of the
        // minute (and beyond, until the policy evicts it).
        for &(f, count) in invoked {
            if self.pool.contains(f) {
                self.sinks
                    .emit(slot, measured, SimEvent::WarmStart { f, count });
            } else {
                self.sinks
                    .emit(slot, measured, SimEvent::ColdStart { f, count });
                self.serve_cold(f, slot, measured);
            }
        }

        // 2. Policy decision hook (timed for the RQ2 overhead
        // comparison); its pool transitions become policy events.
        // lint: allow(D002) RQ2 overhead timing only; JournalEvent::untimed zeroes policy_secs before diffing
        let begin = Instant::now();
        self.policy.on_slot(slot, invoked, &mut self.pool);
        let policy_secs = begin.elapsed().as_secs_f64();
        self.flush(slot, measured);

        // 3. The slot is over: its events go to the observers as one
        // batch, against the end-of-slot pool, with the facts the ledger
        // and the pool's high-water mark already hold.
        self.sinks
            .emit(slot, measured, SimEvent::SlotEnd { policy_secs });
        self.sinks.deliver(&self.pool);
        self.next_slot = slot + 1;
        let ledger = &self.sinks.ledger;
        Ok(SlotOutcome {
            slot,
            measured,
            invocations: ledger.invocations,
            cold_starts: ledger.cold_starts,
            warm_starts: ledger.warm_starts,
            demand_loads: &ledger.demand_loads,
            policy_loads: &ledger.policy_loads,
            policy_evictions: &ledger.policy_evictions,
            capacity_evictions: &ledger.capacity_evictions,
            rejected_loads: &ledger.rejected_loads,
            occupancy: self.pool.loaded_count(),
            policy_secs,
        })
    }

    /// Serves a cold start of `f`: evicts instances (policy-chosen
    /// victims, falling back to the oldest-loaded instance via
    /// [`MemoryPool::oldest_loaded`]) until the pool has room, then
    /// demand-loads `f`, emitting each transition as it is made.
    fn serve_cold(&mut self, f: FunctionId, slot: Slot, measured: bool) {
        while self.pool.is_full() {
            let victim = self
                .policy
                .pick_victim(&self.pool)
                .filter(|&v| self.pool.contains(v))
                .or_else(|| self.pool.oldest_loaded());
            // A full pool of capacity >= 1 is non-empty, so a victim exists.
            let Some(v) = victim else { break };
            self.pool.capacity_evict(v);
            self.sinks.emit(
                slot,
                measured,
                SimEvent::Evict {
                    f: v,
                    cause: EvictCause::Capacity,
                },
            );
        }
        self.pool.demand_load(f, slot);
        self.sinks.emit(
            slot,
            measured,
            SimEvent::Load {
                f,
                cause: LoadCause::Demand,
            },
        );
    }

    /// Drains the pool's transition journal (the policy's loads,
    /// evictions and refused loads) and emits it as policy events,
    /// preserving transition order.
    fn flush(&mut self, slot: Slot, measured: bool) {
        self.pool.drain_journal_into(&mut self.ops);
        for op in &self.ops {
            let event = match *op {
                PoolOp::Load(f) => SimEvent::Load {
                    f,
                    cause: LoadCause::Policy,
                },
                PoolOp::Evict(f) => SimEvent::Evict {
                    f,
                    cause: EvictCause::Policy,
                },
                PoolOp::Reject(f) => SimEvent::LoadRejected { f },
            };
            self.sinks.emit(slot, measured, event);
        }
        self.ops.clear();
    }

    /// Fires `on_run_end` on every sink at the current position. Safe to
    /// call once; later `step` calls fail with [`SimError::StepAfterEnd`].
    fn close(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.sinks.run_end(self.next_slot, &self.pool);
    }

    /// Ends the run where stepping stopped and returns the paper's
    /// metrics over the slots actually simulated (the result's `end` is
    /// the first unstepped slot, not the configured window end).
    #[must_use]
    pub fn finish(self) -> RunResult {
        self.finish_with_observers().0
    }

    /// Ends the run like [`SimDriver::finish`] but also hands back the
    /// owned observers, for callers that must recover ownership — e.g.
    /// taking a [`crate::JournalObserver`]'s buffer after the run-end
    /// hook flushed its tail frame.
    pub fn finish_with_observers(mut self) -> (RunResult, ObserverSet) {
        self.close();
        let result = self
            .sinks
            .collector
            .take()
            .expect("SimDriver::new always installs a collector")
            .into_result();
        (result, ObserverSet::new(self.sinks.observers))
    }

    /// Serialises the run's full mutable state at the current slot
    /// boundary into a versioned, checksummed binary blob: the config,
    /// the pool's loaded set (in order — eviction tie-breaks depend on
    /// it), the slot scratch, the internal collector, the policy's
    /// state (when it implements [`Policy::snapshot_state`]), and every
    /// owned observer's [`Observer::snapshot`] blob labelled with its
    /// concrete type name.
    ///
    /// Call between [`SimDriver::step`]s (any slot boundary works,
    /// including before the first step). [`SimDriver::resume_from`]
    /// restores the blob; property tests pin resume-at-every-boundary
    /// bit-identical to the uninterrupted run.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u8> {
        let payload = wire::encode(&[&Payload {
            policy_name: self.policy.name().to_owned(),
            n_functions: self.pool.n_functions(),
            config: self.config,
            next_slot: self.next_slot,
            finished: self.finished,
            clear_scratch: self.clear_scratch,
            scratch: self.sinks.ledger.clone(),
            loaded: self
                .pool
                .loaded()
                .iter()
                .map(|&f| (f, self.pool.loaded_since(f)))
                .collect(),
            collector: self.sinks.collector.as_ref().map(Observer::snapshot),
            policy_state: self.policy.snapshot_state(),
            observers: self
                .sinks
                .observers
                .iter()
                .map(|o| (o.type_name().to_owned(), o.snapshot()))
                .collect(),
        }]);
        let mut out = Vec::with_capacity(payload.len() + 20);
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&wire::crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Rebuilds a driver from a [`SimDriver::snapshot`] blob and
    /// continues the run exactly where it stopped — no `on_run_start`,
    /// no policy `on_start`; the next [`SimDriver::step`] expects the
    /// slot the original driver would have stepped next.
    ///
    /// The caller supplies the policy and fresh observer instances:
    ///
    /// - `policy` must have the snapshotted run's name. If the snapshot
    ///   carries policy state ([`Policy::snapshot_state`]), it is
    ///   restored into the instance; otherwise the caller is
    ///   responsible for handing over a policy already in the right
    ///   state (e.g. warmed by re-driving the journal prefix — any
    ///   mismatch is the replay-divergence checker's job to catch).
    /// - `observers` are matched to the snapshot's state blobs by
    ///   concrete type name, in order; matched observers are restored
    ///   via [`Observer::restore`]. A stored non-empty blob with no
    ///   matching observer is an error (state would be silently lost).
    ///   An extra observer joins mid-run without its `on_run_start`,
    ///   so it is refused when its [`Observer::snapshot`] is non-empty
    ///   and attached as-is when it is empty. An empty snapshot is the
    ///   only test: an observer that needs `on_run_start` is protected
    ///   only if it also implements `snapshot`, and one that keeps
    ///   state behind the default empty snapshot joins fresh.
    ///   Observer order — the event delivery order — follows
    ///   `observers`, so pass them in the original attachment order to
    ///   keep replays bit-identical.
    ///
    /// # Errors
    /// Returns a [`SnapshotError`] on foreign/corrupt/truncated blobs
    /// (including a window or resume slot [`SimDriver::new`] would
    /// refuse), a checksum mismatch, a policy name mismatch, a failed
    /// policy/observer state restore, or a stateful observer without
    /// state in the blob.
    pub fn resume_from(
        snapshot: &[u8],
        policy: &'p mut dyn Policy,
        mut observers: Vec<Box<dyn DynObserver>>,
    ) -> Result<Self, SnapshotError> {
        let payload = decode_snapshot(snapshot)?;
        if payload.policy_name != policy.name() {
            return Err(SnapshotError::PolicyMismatch {
                expected: payload.policy_name,
                got: policy.name().to_owned(),
            });
        }
        let collector = payload
            .collector
            .map(|blob| {
                let mut collector = RunCollector::new();
                collector.restore(&blob).map(|()| collector)
            })
            .transpose()
            .map_err(|message| SnapshotError::ObserverRestore {
                observer: "RunCollector".to_owned(),
                message,
            })?;
        if let Some(state) = payload.policy_state {
            policy
                .restore_state(&state)
                .map_err(SnapshotError::PolicyRestore)?;
        }
        let mut matched = vec![false; observers.len()];
        for (type_name, blob) in payload.observers {
            let slot = (0..observers.len())
                .find(|&i| !matched[i] && observers[i].type_name() == type_name);
            match slot {
                Some(i) => {
                    matched[i] = true;
                    observers[i].restore(&blob).map_err(|message| {
                        SnapshotError::ObserverRestore {
                            observer: type_name.clone(),
                            message,
                        }
                    })?;
                }
                None if blob.is_empty() => {} // stateless; nothing lost
                None => return Err(SnapshotError::UnmatchedObserverState(type_name)),
            }
        }
        // An unmatched observer never sees `on_run_start`; only a
        // stateless sink can start mid-run.
        if let Some(i) =
            (0..observers.len()).find(|&i| !matched[i] && !observers[i].snapshot().is_empty())
        {
            return Err(SnapshotError::UnstartedObserver(
                observers[i].type_name().to_owned(),
            ));
        }

        let config = payload.config;
        let mut pool = MemoryPool::with_capacity(payload.n_functions, config.capacity);
        pool.restore_loaded(&payload.loaded)
            .map_err(SnapshotError::Corrupt)?;
        pool.enable_journal();
        pool.set_admission_budget(config.pressure_budget);
        Ok(Self {
            config,
            policy,
            sinks: Sinks::new(observers, collector, payload.scratch),
            pool,
            ops: Vec::new(),
            clear_scratch: payload.clear_scratch,
            next_slot: payload.next_slot,
            finished: payload.finished,
        })
    }
}

/// Leading magic of a [`SimDriver::snapshot`] blob.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"SPESSNAP";
/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Why a [`SimDriver::resume_from`] rejected a snapshot blob.
#[derive(Debug)]
pub enum SnapshotError {
    /// The blob does not start with the snapshot magic.
    BadMagic,
    /// The blob's format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The payload checksum did not match (torn or corrupted blob).
    Checksum,
    /// The byte stream is structurally malformed.
    Corrupt(String),
    /// The supplied policy is not the one the snapshot was taken under.
    PolicyMismatch {
        /// Policy name recorded in the snapshot.
        expected: String,
        /// Name of the policy handed to `resume_from`.
        got: String,
    },
    /// The policy rejected its state blob.
    PolicyRestore(String),
    /// An observer rejected its state blob.
    ObserverRestore {
        /// Concrete type name of the failing observer.
        observer: String,
        /// What went wrong.
        message: String,
    },
    /// The snapshot carries state for an observer type the caller did
    /// not supply — resuming would silently drop accumulated state.
    UnmatchedObserverState(String),
    /// The caller supplied a stateful observer (one whose
    /// [`Observer::snapshot`] is non-empty) that the snapshot has no
    /// state for. It would join mid-run without its `on_run_start`.
    UnstartedObserver(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a snapshot blob (bad magic)"),
            Self::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads {SNAPSHOT_VERSION})"
                )
            }
            Self::Checksum => write!(f, "snapshot checksum mismatch"),
            Self::Corrupt(message) => write!(f, "corrupt snapshot: {message}"),
            Self::PolicyMismatch { expected, got } => {
                write!(
                    f,
                    "snapshot was taken under policy {expected:?}, got {got:?}"
                )
            }
            Self::PolicyRestore(message) => write!(f, "policy state restore failed: {message}"),
            Self::ObserverRestore { observer, message } => {
                write!(f, "observer {observer} state restore failed: {message}")
            }
            Self::UnmatchedObserverState(observer) => {
                write!(
                    f,
                    "snapshot carries state for unprovided observer {observer}"
                )
            }
            Self::UnstartedObserver(observer) => {
                write!(
                    f,
                    "snapshot has no state for stateful observer {observer}, which cannot start mid-run"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The header of a [`SimDriver::snapshot`] blob — enough to know what
/// run it belongs to and where it would resume, without restoring it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Name of the snapshotted run's policy.
    pub policy_name: String,
    /// Number of functions in the run's universe.
    pub n_functions: usize,
    /// The run's simulation window and pool limits.
    pub config: SimConfig,
    /// The slot the resumed driver will step next.
    pub next_slot: Slot,
    /// Whether the blob carries the policy's state
    /// ([`Policy::snapshot_state`]); without it, resuming needs a policy
    /// the caller already warmed to the cut.
    pub has_policy_state: bool,
}

/// Reads a snapshot blob's header (validating magic, version, checksum,
/// and the payload's structure) without restoring the run — what tools
/// like `spes-replay` use to warm a policy up to the resume point before
/// calling [`SimDriver::resume_from`].
///
/// # Errors
/// Returns a [`SnapshotError`] on foreign, corrupt, or truncated blobs,
/// including a window or resume slot [`SimDriver::new`] would refuse.
pub fn snapshot_info(snapshot: &[u8]) -> Result<SnapshotInfo, SnapshotError> {
    let payload = decode_snapshot(snapshot)?;
    Ok(SnapshotInfo {
        policy_name: payload.policy_name,
        n_functions: payload.n_functions,
        config: payload.config,
        next_slot: payload.next_slot,
        has_policy_state: payload.policy_state.is_some(),
    })
}

/// A [`SimDriver::snapshot`] payload: the driver's whole mutable state.
pub(crate) struct Payload {
    pub(crate) policy_name: String,
    /// The population.
    pub(crate) n_functions: usize,
    pub(crate) config: SimConfig,
    pub(crate) next_slot: Slot,
    pub(crate) finished: bool,
    pub(crate) clear_scratch: bool,
    /// The last step's outcome.
    pub(crate) scratch: OutcomeScratch,
    /// The loaded set with load slots, in pool order.
    pub(crate) loaded: Vec<(FunctionId, Slot)>,
    /// The internal collector's state.
    pub(crate) collector: Option<Vec<u8>>,
    pub(crate) policy_state: Option<Vec<u8>>,
    /// Observer states by concrete type name.
    pub(crate) observers: Vec<(String, Vec<u8>)>,
}

wire_record!(Payload {
    policy_name,
    n_functions,
    config,
    next_slot,
    finished,
    clear_scratch,
    scratch,
    loaded,
    collector,
    policy_state,
    observers,
});

/// Decodes a [`SimDriver::snapshot`] blob — checking its magic, version,
/// length and checksum first — and checks the window like
/// [`SimDriver::new`] checks its config: a window or resume point the
/// driver would refuse is [`SnapshotError::Corrupt`].
fn decode_snapshot(snapshot: &[u8]) -> Result<Payload, SnapshotError> {
    let corrupt = SnapshotError::Corrupt;
    let header = snapshot
        .strip_prefix(SNAPSHOT_MAGIC)
        .ok_or(SnapshotError::BadMagic)?;
    let mut cur = wire::Cursor::new(header);
    let mut word = || cur.take_array().map(u32::from_le_bytes);
    let (Ok(version), Ok(len), Ok(crc)) = (word(), word(), word()) else {
        return Err(corrupt("truncated snapshot header".to_owned()));
    };
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let bytes = cur
        .take_slice(len as usize)
        .map_err(|_| corrupt("truncated snapshot payload".to_owned()))?;
    cur.finish()
        .map_err(|_| corrupt("trailing bytes after the snapshot payload".to_owned()))?;
    if wire::crc32(bytes) != crc {
        return Err(SnapshotError::Checksum);
    }
    let payload: Payload = wire::decode(bytes).map_err(corrupt)?;
    let (config, next_slot) = (payload.config, payload.next_slot);
    validate_window(&config, None).map_err(|e| corrupt(e.to_string()))?;
    if !(config.start..=config.end).contains(&next_slot) {
        return Err(corrupt(format!(
            "next slot {next_slot} outside the window [{}, {}]",
            config.start, config.end
        )));
    }
    Ok(payload)
}

/// Runs `policy` over `trace` for the window in `config`, collecting the
/// paper's metrics.
///
/// # Errors
/// Returns a [`SimError`] when the window is malformed or extends beyond
/// the trace horizon.
pub fn try_simulate(
    trace: &Trace,
    policy: &mut dyn Policy,
    config: SimConfig,
) -> Result<RunResult, SimError> {
    let mut observers = Simulation::new(trace, config)
        .with_observer(Box::new(RunCollector::new()))
        .run(policy)?;
    Ok(observers
        .take::<RunCollector>()
        .expect("the collector attached above comes back")
        .into_result())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{EventLog, MemoryPressure, SlotSeries};
    use crate::policy::{KeepForever, NoKeepAlive};
    use spes_trace::{AppId, FunctionId, FunctionMeta, SparseSeries, TriggerType, UserId};

    fn trace_of(series: Vec<SparseSeries>, n_slots: Slot) -> Trace {
        let meta = FunctionMeta {
            app: AppId(0),
            user: UserId(0),
            trigger: TriggerType::Http,
        };
        let n = series.len();
        Trace::new(n_slots, vec![meta; n], series)
    }

    fn run_of(trace: &Trace, policy: &mut dyn Policy, config: SimConfig) -> RunResult {
        try_simulate(trace, policy, config).unwrap()
    }

    /// Keep-alive for a fixed number of slots after the last invocation —
    /// a tiny inline policy used to validate engine accounting.
    struct TinyKeepAlive {
        last_invoked: Vec<Option<Slot>>,
        keep: u32,
    }

    impl TinyKeepAlive {
        fn new(n: usize, keep: u32) -> Self {
            Self {
                last_invoked: vec![None; n],
                keep,
            }
        }
    }

    impl Policy for TinyKeepAlive {
        fn name(&self) -> &str {
            "tiny"
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

    #[test]
    fn first_invocation_is_cold() {
        let trace = trace_of(vec![SparseSeries::from_pairs(vec![(2, 3)])], 5);
        let r = run_of(&trace, &mut KeepForever, SimConfig::new(0, 5));
        assert_eq!(r.invocations[0], 3);
        assert_eq!(r.cold_starts[0], 1);
    }

    #[test]
    fn keep_forever_warm_after_first() {
        let trace = trace_of(
            vec![SparseSeries::from_pairs(vec![(0, 1), (3, 1), (4, 1)])],
            6,
        );
        let r = run_of(&trace, &mut KeepForever, SimConfig::new(0, 6));
        assert_eq!(r.cold_starts[0], 1);
        // WMT: loaded at 0, idle at slots 1, 2, 5 -> 3.
        assert_eq!(r.wmt[0], 3);
        assert_eq!(r.csr_of(0), Some(1.0 / 3.0));
    }

    #[test]
    fn no_keep_alive_every_active_slot_is_cold() {
        let trace = trace_of(
            vec![SparseSeries::from_pairs(vec![(0, 2), (1, 2), (5, 1)])],
            6,
        );
        let r = run_of(&trace, &mut NoKeepAlive, SimConfig::new(0, 6));
        // 3 active slots, each cold (instance dropped immediately).
        assert_eq!(r.cold_starts[0], 3);
        assert_eq!(r.invocations[0], 5);
        assert_eq!(r.total_wmt(), 0);
        assert_eq!(r.mean_loaded(), 0.0);
    }

    #[test]
    fn tiny_keep_alive_wmt_accounting() {
        // Invocations at slots 0 and 4; keep-alive 2 slots.
        let trace = trace_of(vec![SparseSeries::from_pairs(vec![(0, 1), (4, 1)])], 8);
        let r = run_of(&trace, &mut TinyKeepAlive::new(1, 2), SimConfig::new(0, 8));
        // Slot 0: invoked (cold). Slot 1: idle (wmt). Slot 2: evicted at
        // on_slot since now-last=2. Slot 4: invoked again -> cold. Slot 5
        // idle, slot 6 evicted.
        assert_eq!(r.cold_starts[0], 2);
        assert_eq!(r.wmt[0], 2);
    }

    #[test]
    fn warm_when_preloaded_by_keepalive() {
        let trace = trace_of(
            vec![SparseSeries::from_pairs(vec![(0, 1), (1, 1), (2, 1)])],
            4,
        );
        let r = run_of(&trace, &mut TinyKeepAlive::new(1, 3), SimConfig::new(0, 4));
        assert_eq!(r.cold_starts[0], 1);
        assert_eq!(r.invocations[0], 3);
    }

    #[test]
    fn emcr_counts_invoked_over_loaded() {
        // Two functions; f0 invoked every slot, f1 loaded but idle.
        let trace = trace_of(
            vec![
                SparseSeries::from_pairs((0..4).map(|s| (s, 1)).collect()),
                SparseSeries::from_pairs(vec![(0, 1)]),
            ],
            4,
        );
        let r = run_of(&trace, &mut KeepForever, SimConfig::new(0, 4));
        // Slot 0: both invoked & loaded -> EMCR 1.0. Slots 1-3: f0 invoked,
        // f1 idle -> EMCR 0.5. Mean = (1.0 + 3 * 0.5) / 4.
        assert!((r.emcr() - 0.625).abs() < 1e-12);
        assert_eq!(r.wmt[1], 3);
        assert_eq!(r.wmt[0], 0);
    }

    #[test]
    fn capacity_forces_eviction_of_oldest() {
        // Three functions invoked in turn with capacity 2; the engine's
        // fallback evicts the oldest-loaded instance.
        let trace = trace_of(
            vec![
                SparseSeries::from_pairs(vec![(0, 1), (3, 1)]),
                SparseSeries::from_pairs(vec![(1, 1)]),
                SparseSeries::from_pairs(vec![(2, 1)]),
            ],
            4,
        );
        let r = run_of(
            &trace,
            &mut KeepForever,
            SimConfig::new(0, 4).with_capacity(2),
        );
        assert_eq!(r.peak_loaded, 2);
        // f0 loaded at 0, f1 at 1; loading f2 at slot 2 evicts f0 (oldest);
        // f0's return at slot 3 is cold again and evicts f1.
        assert_eq!(r.cold_starts[0], 2);
        assert_eq!(r.cold_starts[1], 1);
        assert_eq!(r.cold_starts[2], 1);
    }

    #[test]
    fn window_restricts_accounting() {
        let trace = trace_of(vec![SparseSeries::from_pairs(vec![(0, 5), (8, 5)])], 10);
        let r = run_of(&trace, &mut KeepForever, SimConfig::new(5, 10));
        // Only the slot-8 invocation is inside the window.
        assert_eq!(r.total_invocations(), 5);
        assert_eq!(r.total_cold_starts(), 1);
        assert_eq!(r.n_slots(), 5);
    }

    #[test]
    fn empty_window_is_empty_result() {
        let trace = trace_of(vec![SparseSeries::new()], 10);
        let r = run_of(&trace, &mut KeepForever, SimConfig::new(3, 3));
        assert_eq!(r.n_slots(), 0);
        assert_eq!(r.total_invocations(), 0);
        assert_eq!(r.mean_loaded(), 0.0);
    }

    #[test]
    fn warmup_carries_state_but_not_metrics() {
        // Invocations at slots 2 and 6; metrics start at 5. With
        // keep-forever, the slot-6 invocation finds the instance loaded
        // during warm-up -> warm, and the warm-up invocation is not
        // counted.
        let trace = trace_of(vec![SparseSeries::from_pairs(vec![(2, 4), (6, 1)])], 10);
        let r = run_of(
            &trace,
            &mut KeepForever,
            SimConfig::new(0, 10).with_metrics_start(5),
        );
        assert_eq!(r.total_invocations(), 1);
        assert_eq!(r.total_cold_starts(), 0);
        assert_eq!(r.n_slots(), 5);
        // WMT counted only from slot 5: idle at 5, 7, 8, 9.
        assert_eq!(r.wmt[0], 4);
    }

    #[test]
    fn try_simulate_rejects_bad_metrics_start() {
        let trace = trace_of(vec![SparseSeries::new()], 10);
        let err = try_simulate(
            &trace,
            &mut KeepForever,
            SimConfig::new(2, 8).with_metrics_start(9),
        )
        .unwrap_err();
        assert_eq!(
            err,
            SimError::MetricsStartOutsideWindow {
                metrics_start: 9,
                start: 2,
                end: 8,
            }
        );
        assert!(err.to_string().contains("metrics_start outside"), "{err}");
    }

    #[test]
    fn try_simulate_rejects_window_beyond_horizon() {
        let trace = trace_of(vec![SparseSeries::new()], 10);
        let err = try_simulate(&trace, &mut KeepForever, SimConfig::new(0, 11)).unwrap_err();
        assert_eq!(
            err,
            SimError::BeyondHorizon {
                end: 11,
                n_slots: 10
            }
        );
    }

    #[test]
    fn zero_capacity_is_rejected_before_anything_runs() {
        let trace = trace_of(vec![SparseSeries::from_pairs(vec![(0, 1)])], 10);
        let config = SimConfig::new(0, 10).with_capacity(0);
        let err = try_simulate(&trace, &mut KeepForever, config).unwrap_err();
        assert_eq!(err, SimError::ZeroCapacity);
        assert!(err.to_string().contains("at least 1"), "{err}");
        let err = SimDriver::new(1, config, &mut KeepForever, Vec::new()).unwrap_err();
        assert_eq!(err, SimError::ZeroCapacity);
    }

    #[test]
    fn prestart_loads_into_a_full_pool_are_rejected() {
        let mut policy = StandingSet(vec![FunctionId(0), FunctionId(2)]);
        let config = SimConfig::new(0, Slot::MAX).with_capacity(1);
        let mut driver = SimDriver::new(3, config, &mut policy, Vec::new()).unwrap();
        let outcome = driver.step(0, &[(FunctionId(1), 1)]).unwrap();
        assert_eq!(outcome.policy_loads, &[FunctionId(0)]);
        assert_eq!(outcome.rejected_loads, &[FunctionId(2)]);
        // The demand load made room for f1 by evicting f0.
        assert_eq!(outcome.capacity_evictions, &[FunctionId(0)]);
        assert_eq!(outcome.occupancy, 1);
    }

    #[test]
    fn try_simulate_rejects_inverted_window() {
        let trace = trace_of(vec![SparseSeries::new()], 10);
        let err = try_simulate(&trace, &mut KeepForever, SimConfig::new(5, 3)).unwrap_err();
        assert!(matches!(err, SimError::InvalidWindow { .. }));
    }

    /// Pre-warms one fixed function every slot and never evicts.
    struct Prewarm {
        target: FunctionId,
    }

    impl Policy for Prewarm {
        fn name(&self) -> &str {
            "prewarm"
        }

        fn on_slot(&mut self, now: Slot, _invoked: &[(FunctionId, u32)], pool: &mut MemoryPool) {
            pool.load(self.target, now);
        }
    }

    #[test]
    fn pressure_budget_rejects_prewarms_but_not_demand() {
        // f0 is invoked at slots 0 and 2; the policy tries to pre-warm f1
        // every slot. With a budget of 1 the demand load of f0 fills the
        // pool, so every pre-warm attempt is rejected.
        let trace = trace_of(
            vec![
                SparseSeries::from_pairs(vec![(0, 1), (2, 1)]),
                SparseSeries::new(),
            ],
            4,
        );
        let mut observers = Simulation::new(&trace, SimConfig::new(0, 4).with_pressure_budget(1))
            .with_observer(Box::new(RunCollector::new()))
            .with_observer(Box::new(EventLog::new()))
            .run(&mut Prewarm {
                target: FunctionId(1),
            })
            .unwrap();
        let run = observers.take::<RunCollector>().unwrap().into_result();
        let log: EventLog = observers.take().unwrap();
        // The demand load went through despite the budget being reached.
        assert_eq!(run.cold_starts[0], 1);
        assert_eq!(run.invocations[0], 2);
        // f1 never made it into the pool.
        assert_eq!(run.wmt[1], 0);
        let rejected = log
            .events
            .iter()
            .filter(|e| matches!(e.event, SimEvent::LoadRejected { f } if f == FunctionId(1)))
            .count();
        assert_eq!(rejected, 4, "one rejection per slot");
    }

    #[test]
    fn prewarms_admitted_under_the_budget() {
        let trace = trace_of(
            vec![
                SparseSeries::from_pairs(vec![(0, 1), (2, 1)]),
                SparseSeries::new(),
            ],
            4,
        );
        let log: EventLog = Simulation::new(&trace, SimConfig::new(0, 4).with_pressure_budget(2))
            .with_observer(Box::new(EventLog::new()))
            .run(&mut Prewarm {
                target: FunctionId(1),
            })
            .unwrap()
            .take()
            .unwrap();
        let policy_loads = log
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.event,
                    SimEvent::Load {
                        cause: LoadCause::Policy,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(policy_loads, 1, "admitted once, resident thereafter");
        assert!(!log
            .events
            .iter()
            .any(|e| matches!(e.event, SimEvent::LoadRejected { .. })));
    }

    #[test]
    fn overhead_is_recorded() {
        let trace = trace_of(vec![SparseSeries::from_pairs(vec![(0, 1)])], 100);
        let r = run_of(&trace, &mut KeepForever, SimConfig::new(0, 100));
        assert!(r.overhead_secs >= 0.0);
        assert!(r.overhead_per_slot() >= 0.0);
    }

    // -----------------------------------------------------------------
    // SimDriver: the step-driven path
    // -----------------------------------------------------------------

    #[test]
    fn driver_steps_match_batch_simulation() {
        let trace = trace_of(
            vec![
                SparseSeries::from_pairs(vec![(0, 2), (2, 1), (5, 3)]),
                SparseSeries::from_pairs(vec![(1, 1), (2, 2)]),
            ],
            6,
        );
        let config = SimConfig::new(0, 6);
        let mut batch = run_of(&trace, &mut TinyKeepAlive::new(2, 2), config);

        let mut policy = TinyKeepAlive::new(2, 2);
        let mut driver = SimDriver::new(2, config, &mut policy, Vec::new()).unwrap();
        for (t, batch) in trace.slot_batches(0, 6).iter() {
            driver.step(t, batch).unwrap();
        }
        let mut stepped = driver.finish();
        // The policy-overhead stopwatch is wall-clock and thus never
        // reproducible; everything else must agree exactly.
        batch.overhead_secs = 0.0;
        stepped.overhead_secs = 0.0;
        assert_eq!(stepped, batch);
    }

    #[test]
    fn driver_rejects_out_of_order_and_late_steps() {
        let mut policy = KeepForever;
        let mut driver = SimDriver::new(1, SimConfig::new(0, 3), &mut policy, Vec::new()).unwrap();
        assert_eq!(
            driver.step(1, &[]).unwrap_err(),
            SimError::StepOutOfOrder {
                expected: 0,
                got: 1
            }
        );
        driver.step(0, &[]).unwrap();
        // Repeating a slot is out of order too.
        assert_eq!(
            driver.step(0, &[]).unwrap_err(),
            SimError::StepOutOfOrder {
                expected: 1,
                got: 0
            }
        );
        assert_eq!(
            driver.step(3, &[]).unwrap_err(),
            SimError::StepAfterEnd { slot: 3, end: 3 }
        );
        let err = SimError::StepOutOfOrder {
            expected: 1,
            got: 0,
        };
        assert!(err.to_string().contains("out-of-order"), "{err}");
    }

    #[test]
    fn driver_rejects_bad_windows_like_the_batch_path() {
        let mut policy = KeepForever;
        assert!(matches!(
            SimDriver::new(1, SimConfig::new(5, 3), &mut policy, Vec::new()).unwrap_err(),
            SimError::InvalidWindow { .. }
        ));
        assert!(matches!(
            SimDriver::new(
                1,
                SimConfig::new(0, 8).with_metrics_start(9),
                &mut policy,
                Vec::new()
            )
            .unwrap_err(),
            SimError::MetricsStartOutsideWindow { .. }
        ));
    }

    #[test]
    fn driver_rejects_unknown_functions_without_side_effects() {
        let mut policy = KeepForever;
        let mut driver = SimDriver::new(
            2,
            SimConfig::new(0, Slot::MAX),
            &mut policy,
            vec![Box::new(EventLog::new())],
        )
        .unwrap();
        // The in-range invocation ahead of the bad one is not served
        // either: the whole batch is refused up front.
        let err = driver
            .step(0, &[(FunctionId(0), 1), (FunctionId(2), 1)])
            .unwrap_err();
        assert_eq!(
            err,
            SimError::UnknownFunction {
                f: FunctionId(2),
                n_functions: 2
            }
        );
        assert!(err.to_string().contains("unknown function 2"), "{err}");
        assert_eq!(driver.next_slot(), 0);
        assert_eq!(driver.pool().loaded_count(), 0);
        assert!(driver.observer::<EventLog>().unwrap().events.is_empty());
        // The driver is still usable at the same slot.
        let outcome = driver.step(0, &[(FunctionId(1), 2)]).unwrap();
        assert_eq!((outcome.cold_starts, outcome.invocations), (1, 2));
        assert_eq!(driver.finish().total_cold_starts(), 1);
    }

    #[test]
    fn snapshot_info_reports_whether_policy_state_travels() {
        let mut stateless = KeepForever;
        let driver = SimDriver::new(2, SimConfig::new(0, 10), &mut stateless, Vec::new()).unwrap();
        assert!(snapshot_info(&driver.snapshot()).unwrap().has_policy_state);

        let mut stateful = TinyKeepAlive::new(2, 3);
        let mut driver =
            SimDriver::new(2, SimConfig::new(0, 10), &mut stateful, Vec::new()).unwrap();
        driver.step(0, &[(FunctionId(1), 1)]).unwrap();
        let info = snapshot_info(&driver.snapshot()).unwrap();
        assert!(!info.has_policy_state);
        assert_eq!((info.policy_name.as_str(), info.next_slot), ("tiny", 1));
    }

    #[test]
    fn resume_rejects_a_window_the_driver_would_refuse() {
        let mut policy = KeepForever;
        let mut driver = SimDriver::new(
            1,
            SimConfig::new(0, 10).with_metrics_start(4),
            &mut policy,
            Vec::new(),
        )
        .unwrap();
        driver.step(0, &[(FunctionId(0), 1)]).unwrap();
        let mut blob = driver.snapshot();
        // Payload: policy name (varint length + bytes), n_functions, then
        // start, end, metrics_start as one-byte varints.
        let metrics_start_at = 20 + 1 + "keep-forever".len() + 1 + 2;
        assert_eq!(blob[metrics_start_at], 4);
        blob[metrics_start_at] = 11; // past the window end
        let crc = wire::crc32(&blob[20..]);
        blob[16..20].copy_from_slice(&crc.to_le_bytes());
        for err in [
            snapshot_info(&blob).unwrap_err(),
            SimDriver::resume_from(&blob, &mut KeepForever, Vec::new()).unwrap_err(),
        ] {
            assert!(
                matches!(&err, SnapshotError::Corrupt(m) if m.contains("metrics_start outside")),
                "{err}"
            );
        }
    }

    #[test]
    fn partial_run_ends_where_stepping_stopped() {
        let mut policy = KeepForever;
        let mut driver =
            SimDriver::new(1, SimConfig::new(0, Slot::MAX), &mut policy, Vec::new()).unwrap();
        driver.step(0, &[(FunctionId(0), 2)]).unwrap();
        driver.step(1, &[]).unwrap();
        driver.step(2, &[]).unwrap();
        let run = driver.finish();
        assert_eq!((run.start, run.end), (0, 3));
        assert_eq!(run.n_slots(), 3);
        assert_eq!(run.total_invocations(), 2);
        // Loaded at slot 0, idle at 1 and 2.
        assert_eq!(run.wmt[0], 2);
    }

    #[test]
    fn slot_outcome_reports_decisions_and_occupancy() {
        let mut policy = NoKeepAlive;
        let mut driver =
            SimDriver::new(2, SimConfig::new(0, Slot::MAX), &mut policy, Vec::new()).unwrap();
        let outcome = driver.step(0, &[(FunctionId(1), 4)]).unwrap();
        assert_eq!(outcome.slot, 0);
        assert!(outcome.measured);
        assert_eq!(outcome.invocations, 4);
        assert_eq!((outcome.cold_starts, outcome.warm_starts), (1, 0));
        assert_eq!(outcome.demand_loads, &[FunctionId(1)]);
        // No-keep-alive dropped the instance in its decision hook.
        assert_eq!(outcome.policy_evictions, &[FunctionId(1)]);
        assert_eq!(outcome.occupancy, 0);
        assert!(outcome.policy_secs >= 0.0);
        // The next slot's outcome starts from clean scratch.
        let outcome = driver.step(1, &[]).unwrap();
        assert_eq!(outcome.invocations, 0);
        assert!(outcome.demand_loads.is_empty());
    }

    /// Loads a fixed set in `on_start` and never evicts.
    struct StandingSet(Vec<FunctionId>);

    impl Policy for StandingSet {
        fn name(&self) -> &str {
            "standing-set"
        }

        fn on_start(&mut self, start: Slot, pool: &mut MemoryPool) {
            for &f in &self.0 {
                pool.load(f, start);
            }
        }

        fn on_slot(&mut self, _now: Slot, _invoked: &[(FunctionId, u32)], _pool: &mut MemoryPool) {}
    }

    #[test]
    fn prestart_loads_fold_into_the_first_outcome() {
        let mut policy = StandingSet(vec![FunctionId(0), FunctionId(2)]);
        let mut driver =
            SimDriver::new(3, SimConfig::new(0, Slot::MAX), &mut policy, Vec::new()).unwrap();
        let outcome = driver.step(0, &[]).unwrap();
        assert_eq!(outcome.policy_loads, &[FunctionId(0), FunctionId(2)]);
        assert_eq!(outcome.occupancy, 2);
    }

    #[test]
    fn driver_exposes_owned_observers_mid_run() {
        let mut policy = KeepForever;
        let mut driver = SimDriver::new(
            2,
            SimConfig::new(0, Slot::MAX).with_pressure_budget(5),
            &mut policy,
            vec![Box::new(MemoryPressure::new()), Box::new(EventLog::new())],
        )
        .unwrap();
        driver.step(0, &[(FunctionId(0), 1)]).unwrap();
        let pressure = driver.observer::<MemoryPressure>().unwrap();
        assert_eq!(pressure.budget(), Some(5));
        assert_eq!(pressure.peak_occupancy, 1);
        let log = driver.observer::<EventLog>().unwrap();
        assert!(!log.events.is_empty());
        assert!(driver.observer::<SlotSeries>().is_none());
        assert_eq!(driver.next_slot(), 1);
        assert_eq!(driver.pool().loaded_count(), 1);
    }

    #[test]
    fn observer_set_takes_by_concrete_type() {
        let trace = trace_of(vec![SparseSeries::from_pairs(vec![(1, 2)])], 3);
        let mut observers = Simulation::new(&trace, SimConfig::new(0, 3))
            .with_observer(Box::new(SlotSeries::new()))
            .with_observer(Box::new(EventLog::new()))
            .run(&mut KeepForever)
            .unwrap();
        assert_eq!(observers.len(), 2);
        assert!(observers.get::<EventLog>().is_some());
        let series: SlotSeries = observers.take().unwrap();
        assert_eq!(series.n_slots(), 3);
        assert!(observers.take::<SlotSeries>().is_none());
        let log: EventLog = observers.take().unwrap();
        assert_eq!(log.end, 3);
        assert!(observers.is_empty());
    }
}
