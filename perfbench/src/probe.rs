//! Instrumentation that times the layers from outside, through their
//! public interfaces: delegating [`Policy`], [`Observer`],
//! [`PolicyFactory`] and [`Write`] wrappers, plus the small statistics
//! the report needs. Nothing here changes what a wrapped component
//! computes: every wrapper forwards each call unchanged, and the timed
//! observer set at most delays a slot's events to that slot's end.

use spes_sim::suite::{CapacityRule, FitContext, PolicyFactory, PolicySpec};
use spes_sim::{
    DynObserver, EventCtx, EvictCause, LoadCause, MemoryPool, Observer, Policy, RunMeta, SimEvent,
    SlotOutcome,
};
use spes_trace::{FunctionId, Slot};
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Linear-interpolated percentile `p` (0–100) of `values` (sorts in
/// place); 0 for an empty slice.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (values.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (rank - lo as f64)
}

/// Per-slot times of a simulation repeated on identical inputs: slot by
/// slot, the least time any repeat took. Every repeat does the same work
/// in each slot, and a busy host only ever adds time, so the minimum
/// keeps each slot's own cost and drops the stalls a neighbour caused.
pub fn per_slot_min(repeats: &[Vec<f64>]) -> Vec<f64> {
    let slots = repeats.iter().map(Vec::len).min().unwrap_or(0);
    (0..slots)
        .map(|i| {
            repeats
                .iter()
                .map(|times| times[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

// ---------------------------------------------------------------------
// Host speed
// ---------------------------------------------------------------------

/// Bytes the reference kernel parses per pass.
const REF_BUFFER: usize = 4 << 20;
/// Passes over the buffer per sample: a few milliseconds of work.
const REF_PASSES: usize = 2;
/// A run is sampled at most this often.
const SAMPLE_EVERY: Duration = Duration::from_millis(250);

/// Samples how fast the host runs this thread while a workload runs, and
/// expresses the workload's time in units of a fixed reference kernel.
///
/// A shared host changes speed from one second to the next: the same
/// serving session takes 0.55 s in one second and 1.0 s in the next, with
/// no run-queue wait and no steal time, so neither the scheduler nor the
/// hypervisor accounts for it. Each sample times a reference kernel that
/// shares nothing with the workspace: it parses comma-separated decimals
/// from a 4 MiB buffer and counts them in a 64 Ki-entry table, the
/// byte-parsing and table-update mix the workloads run, over more memory
/// than a core's private caches hold, as theirs is. (A kernel that stays
/// in a 256 KiB buffer missed the slowdown of the memory-bound suite.)
///
/// Consecutive samples bound a segment of the workload. A segment's
/// length in reference units is its wall time divided by the mean of its
/// two samples, so each stretch of the run is measured against the
/// host's speed at that moment rather than against the run's average.
pub struct HostClock {
    buffer: Vec<u8>,
    table: Vec<u32>,
    /// `(seconds, seconds in reference units)` per closed segment.
    segments: Vec<(f64, f64)>,
    /// End and time of the sample that opened the current segment.
    open: Option<(Instant, f64)>,
    spent: Duration,
}

impl Default for HostClock {
    fn default() -> Self {
        Self::new()
    }
}

impl HostClock {
    pub fn new() -> Self {
        let mut buffer = Vec::with_capacity(REF_BUFFER + 8);
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        while buffer.len() < REF_BUFFER {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            buffer.extend_from_slice((x % 100_000).to_string().as_bytes());
            buffer.push(b',');
        }
        Self {
            buffer,
            table: vec![0; 1 << 16],
            segments: Vec::new(),
            open: None,
            spent: Duration::ZERO,
        }
    }

    /// Times one run of the reference kernel; closes the open segment
    /// and opens the next.
    pub fn sample(&mut self) {
        let begin = Instant::now();
        let mut acc: u64 = 0;
        for _ in 0..REF_PASSES {
            for &b in std::hint::black_box(&self.buffer) {
                if b == b',' {
                    let h = (acc.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) as usize;
                    self.table[h] = self.table[h].wrapping_add(1);
                    acc = 0;
                } else {
                    acc = acc * 10 + u64::from(b.wrapping_sub(b'0'));
                }
            }
        }
        std::hint::black_box(&self.table);
        let end = Instant::now();
        let took = (end - begin).as_secs_f64();
        if let Some((opened, before)) = self.open {
            let secs = (begin - opened).as_secs_f64();
            self.segments.push((secs, secs / (0.5 * (before + took))));
        }
        self.open = Some((end, took));
        self.spent += end - begin;
    }

    /// Drops the open segment: what runs until the next sample is not
    /// part of the measured work (a policy's fit, a set-up).
    pub fn pause(&mut self) {
        self.open = None;
    }

    /// Whether a sample is due: none is open, or the open one ended at
    /// least [`SAMPLE_EVERY`] ago.
    pub fn due(&self) -> bool {
        self.open
            .is_none_or(|(opened, _)| opened.elapsed() >= SAMPLE_EVERY)
    }

    /// Samples if one is [`due`](Self::due).
    pub fn tick(&mut self) {
        if self.due() {
            self.sample();
        }
    }

    /// Wall time spent sampling, to be taken out of the span it fell in.
    pub fn spent_s(&self) -> f64 {
        self.spent.as_secs_f64()
    }

    /// `secs` of sampled work in reference units, at the segments'
    /// time-weighted rate.
    pub fn in_ref(&self, secs: f64) -> f64 {
        let wall: f64 = self.segments.iter().map(|s| s.0).sum();
        let units: f64 = self.segments.iter().map(|s| s.1).sum();
        if wall > 0.0 {
            secs * units / wall
        } else {
            f64::NAN
        }
    }
}

// ---------------------------------------------------------------------
// Policies
// ---------------------------------------------------------------------

/// A delegating policy that times every hook call.
pub struct TracedPolicy {
    inner: Box<dyn Policy>,
    /// Time inside `on_start` and `on_slot`.
    pub on_slot: Duration,
    /// Time inside `pick_victim`.
    pub pick_victim: Duration,
}

impl TracedPolicy {
    pub fn new(inner: Box<dyn Policy>) -> Self {
        Self {
            inner,
            on_slot: Duration::ZERO,
            pick_victim: Duration::ZERO,
        }
    }

    /// Total hook time, seconds.
    pub fn hook_secs(&self) -> f64 {
        (self.on_slot + self.pick_victim).as_secs_f64()
    }
}

impl Policy for TracedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_start(&mut self, start: Slot, pool: &mut MemoryPool) {
        let begin = Instant::now();
        self.inner.on_start(start, pool);
        self.on_slot += begin.elapsed();
    }

    fn on_slot(&mut self, now: Slot, invoked: &[(FunctionId, u32)], pool: &mut MemoryPool) {
        let begin = Instant::now();
        self.inner.on_slot(now, invoked, pool);
        self.on_slot += begin.elapsed();
    }

    fn pick_victim(&mut self, pool: &MemoryPool) -> Option<FunctionId> {
        let begin = Instant::now();
        let victim = self.inner.pick_victim(pool);
        self.pick_victim += begin.elapsed();
        victim
    }

    fn category_of(&self, f: FunctionId) -> Option<&'static str> {
        self.inner.category_of(f)
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}

/// A delegating policy that records the wall time between consecutive
/// `on_slot` calls: one full slot of the engine (serving, hook,
/// observers). One clock read per slot; the gaps, in microseconds, go to
/// the shared log when the policy is dropped.
struct SlotClock {
    inner: Box<dyn Policy>,
    last: Option<Instant>,
    gaps_us: Vec<f64>,
    log: Arc<Mutex<FitLog>>,
}

impl Drop for SlotClock {
    fn drop(&mut self) {
        let name = self.inner.name().to_owned();
        if let Ok(mut log) = self.log.lock() {
            log.slot_gaps_us
                .push((name, std::mem::take(&mut self.gaps_us)));
        }
    }
}

impl Policy for SlotClock {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_start(&mut self, start: Slot, pool: &mut MemoryPool) {
        self.inner.on_start(start, pool);
    }

    fn on_slot(&mut self, now: Slot, invoked: &[(FunctionId, u32)], pool: &mut MemoryPool) {
        let tick = Instant::now();
        if let Some(last) = self.last {
            self.gaps_us.push((tick - last).as_secs_f64() * 1e6);
        }
        self.last = Some(tick);
        // Sample the host's speed now and then; the slot clock restarts
        // after a sample, so no gap holds one.
        if let Ok(mut log) = self.log.lock() {
            if log.host.due() {
                log.host.sample();
                self.last = Some(Instant::now());
            }
        }
        self.inner.on_slot(now, invoked, pool);
    }

    fn pick_victim(&mut self, pool: &MemoryPool) -> Option<FunctionId> {
        self.inner.pick_victim(pool)
    }

    fn category_of(&self, f: FunctionId) -> Option<&'static str> {
        self.inner.category_of(f)
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}

/// Shared record of a [`MeteredFactory`]'s builds.
#[derive(Default)]
pub struct FitLog {
    /// `(policy, seconds)` per `build` call, in call order.
    pub fits: Vec<(&'static str, f64)>,
    /// Slot gaps (µs) per policy run, with the policy's name.
    pub slot_gaps_us: Vec<(String, Vec<f64>)>,
    /// Sampled while the policies run.
    pub host: HostClock,
}

/// A delegating factory that times each `build` (the policy's fit) and
/// wraps the built policy in a slot clock.
pub struct MeteredFactory {
    spec: PolicySpec,
    log: Arc<Mutex<FitLog>>,
}

impl MeteredFactory {
    /// Wraps every spec of `suite`. Returns the wrapped suite and the log
    /// its builds and runs fill.
    pub fn wrap_suite(suite: &[PolicySpec]) -> (Vec<PolicySpec>, Arc<Mutex<FitLog>>) {
        let log = Arc::new(Mutex::new(FitLog::default()));
        let specs = suite
            .iter()
            .map(|spec| {
                PolicySpec::new(Self {
                    spec: spec.clone(),
                    log: Arc::clone(&log),
                })
            })
            .collect();
        (specs, log)
    }
}

impl PolicyFactory for MeteredFactory {
    fn name(&self) -> &'static str {
        self.spec.name()
    }

    fn build(&self, ctx: &FitContext) -> Box<dyn Policy> {
        if let Ok(mut log) = self.log.lock() {
            log.host.pause();
        }
        let begin = Instant::now();
        let policy = self.spec.build(ctx);
        let secs = begin.elapsed().as_secs_f64();
        self.log
            .lock()
            .expect("fit log lock")
            .fits
            .push((self.spec.name(), secs));
        Box::new(SlotClock {
            inner: policy,
            last: None,
            gaps_us: Vec::new(),
            log: Arc::clone(&self.log),
        })
    }

    fn capacity_rule(&self) -> CapacityRule {
        self.spec.capacity().clone()
    }
}

// ---------------------------------------------------------------------
// Observers
// ---------------------------------------------------------------------

/// Timed slots: one in this many. Only their events are held back.
const TIMED_SLOT_STRIDE: u64 = 8;

/// A set of observers attached as one, timing each of them.
///
/// An observer spends a few nanoseconds per event, less than one clock
/// read (about 45 ns on a virtualised x86-64 host), so events are not
/// timed one by one. Instead, on one slot in [`TIMED_SLOT_STRIDE`] the
/// slot's events are held back and, when its `SlotEnd` arrives, delivered
/// to each observer in turn as one timed span; the other slots are
/// delivered as they happen, untimed. Each observer's event time is its
/// timed-slot time scaled by all events over timed-slot events; its
/// run-start and run-end hooks are always timed.
///
/// Every observer in this workspace reads the pool only at `SlotEnd`,
/// when the snapshot is exact (the engine documents earlier snapshots as
/// approximate), so a held-back observer computes exactly what it would
/// have computed live; the traced runs check that.
pub struct TimedSet {
    observers: Vec<Box<dyn DynObserver>>,
    hook_time: Vec<Duration>,
    slot_time: Vec<Duration>,
    held: Vec<(Slot, bool, SimEvent)>,
    slots: u64,
    events: u64,
    timed_events: u64,
}

impl TimedSet {
    pub fn new(observers: Vec<Box<dyn DynObserver>>) -> Self {
        let n = observers.len();
        Self {
            observers,
            hook_time: vec![Duration::ZERO; n],
            slot_time: vec![Duration::ZERO; n],
            held: Vec::new(),
            slots: 0,
            events: 0,
            timed_events: 0,
        }
    }

    /// Events delivered to every observer.
    pub fn events(&self) -> u64 {
        self.events
    }

    fn timing(&self) -> bool {
        self.slots.is_multiple_of(TIMED_SLOT_STRIDE)
    }

    /// Removes the first observer of type `T`, with its estimated
    /// seconds.
    pub fn take<T: Observer + 'static>(&mut self) -> Option<(T, f64)> {
        let i = self.observers.iter().position(|o| o.as_any().is::<T>())?;
        let scale = if self.timed_events == 0 {
            0.0
        } else {
            self.events as f64 / self.timed_events as f64
        };
        let secs =
            self.hook_time.remove(i).as_secs_f64() + self.slot_time.remove(i).as_secs_f64() * scale;
        let observer = self
            .observers
            .remove(i)
            .into_any()
            .downcast::<T>()
            .expect("position() matched this concrete type");
        Some((*observer, secs))
    }

    /// Delivers the held events, then `last` if given, to each observer,
    /// timing each one.
    fn deliver_held(&mut self, pool: &MemoryPool, last: Option<(&EventCtx<'_>, &SimEvent)>) {
        for (observer, time) in self.observers.iter_mut().zip(&mut self.slot_time) {
            let begin = Instant::now();
            for &(slot, measured, event) in &self.held {
                let ctx = EventCtx {
                    slot,
                    measured,
                    pool,
                };
                observer.on_event(&ctx, &event);
            }
            if let Some((ctx, event)) = last {
                observer.on_event(ctx, event);
            }
            *time += begin.elapsed();
        }
        self.held.clear();
    }
}

impl Observer for TimedSet {
    fn on_run_start(&mut self, meta: &RunMeta<'_>, pool: &MemoryPool) {
        for (observer, time) in self.observers.iter_mut().zip(&mut self.hook_time) {
            let begin = Instant::now();
            observer.on_run_start(meta, pool);
            *time += begin.elapsed();
        }
    }

    fn on_event(&mut self, ctx: &EventCtx<'_>, event: &SimEvent) {
        self.events += 1;
        let slot_end = matches!(event, SimEvent::SlotEnd { .. });
        if self.timing() {
            self.timed_events += 1;
            if slot_end {
                self.deliver_held(ctx.pool, Some((ctx, event)));
            } else {
                self.held.push((ctx.slot, ctx.measured, *event));
            }
        } else {
            for observer in &mut self.observers {
                observer.on_event(ctx, event);
            }
        }
        if slot_end {
            self.slots += 1;
        }
    }

    fn on_run_end(&mut self, end: Slot, pool: &MemoryPool) {
        self.deliver_held(pool, None);
        for (observer, time) in self.observers.iter_mut().zip(&mut self.hook_time) {
            let begin = Instant::now();
            observer.on_run_end(end, pool);
            *time += begin.elapsed();
        }
    }
}

/// What the policy and the engine did to the pool over one run.
#[derive(Default, Clone, Copy)]
pub struct PoolCounts {
    pub policy_loads: u64,
    pub policy_evictions: u64,
    pub capacity_evictions: u64,
    /// Pre-warm loads that an invocation hit before they were evicted.
    pub prewarm_hits: u64,
}

/// Counts [`PoolCounts`] from the event stream. Attached as an observer
/// where the engine is driven by `Simulation::run`, which hands out no
/// per-slot outcomes.
pub struct LayerCounts {
    pub counts: PoolCounts,
    pending_prewarm: Vec<bool>,
}

impl LayerCounts {
    pub fn new(n_functions: usize) -> Self {
        Self {
            counts: PoolCounts::default(),
            pending_prewarm: vec![false; n_functions],
        }
    }
}

impl Observer for LayerCounts {
    fn on_event(&mut self, _ctx: &EventCtx<'_>, event: &SimEvent) {
        match *event {
            SimEvent::Load {
                f,
                cause: LoadCause::Policy,
            } => {
                self.counts.policy_loads += 1;
                self.pending_prewarm[f.0 as usize] = true;
            }
            SimEvent::Evict { f, cause } => {
                match cause {
                    EvictCause::Policy => self.counts.policy_evictions += 1,
                    EvictCause::Capacity => self.counts.capacity_evictions += 1,
                }
                self.pending_prewarm[f.0 as usize] = false;
            }
            SimEvent::WarmStart { f, .. } => {
                let pending = &mut self.pending_prewarm[f.0 as usize];
                if *pending {
                    self.counts.prewarm_hits += 1;
                    *pending = false;
                }
            }
            _ => {}
        }
    }
}

/// Counts [`PoolCounts`] from `SimDriver::step` outcomes, at no per-event
/// cost. An outcome lists a slot's policy loads and evictions separately,
/// so for a function in both lists the pool decides whether its pre-warm
/// is still pending: call [`StepCounts::settle`] after each
/// [`StepCounts::record`].
pub struct StepCounts {
    pub counts: PoolCounts,
    pending_prewarm: Vec<bool>,
    /// Slot (plus one) of each function's last policy eviction.
    evicted_at: Vec<u32>,
    both: Vec<FunctionId>,
}

impl StepCounts {
    pub fn new(n_functions: usize) -> Self {
        Self {
            counts: PoolCounts::default(),
            pending_prewarm: vec![false; n_functions],
            evicted_at: vec![0; n_functions],
            both: Vec::new(),
        }
    }

    pub fn record(&mut self, invoked: &[(FunctionId, u32)], outcome: &SlotOutcome<'_>) {
        for &(f, _) in invoked {
            let pending = &mut self.pending_prewarm[f.0 as usize];
            if *pending {
                self.counts.prewarm_hits += 1;
                *pending = false;
            }
        }
        for &f in outcome.capacity_evictions {
            self.pending_prewarm[f.0 as usize] = false;
        }
        let stamp = outcome.slot + 1;
        for &f in outcome.policy_evictions {
            self.pending_prewarm[f.0 as usize] = false;
            self.evicted_at[f.0 as usize] = stamp;
        }
        for &f in outcome.policy_loads {
            self.pending_prewarm[f.0 as usize] = true;
            if self.evicted_at[f.0 as usize] == stamp {
                self.both.push(f);
            }
        }
        self.counts.policy_loads += outcome.policy_loads.len() as u64;
        self.counts.policy_evictions += outcome.policy_evictions.len() as u64;
        self.counts.capacity_evictions += outcome.capacity_evictions.len() as u64;
    }

    /// Resolves the functions both loaded and evicted in the last
    /// recorded slot against the pool as the slot left it.
    pub fn settle(&mut self, pool: &MemoryPool) {
        for f in self.both.drain(..) {
            self.pending_prewarm[f.0 as usize] = pool.contains(f);
        }
    }
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

/// The `Write` end of a serving session. Keeps the last complete line,
/// counts lines, bytes and `error` records, and records the time between
/// consecutive `slot` decision records. With `timed`, also accumulates
/// the time spent inside `write`; with a host clock, ticks it at slot
/// records (a sample falls in no slot gap).
pub struct RecordSink {
    timed: bool,
    line: Vec<u8>,
    last_line: Vec<u8>,
    pub lines: u64,
    pub bytes: u64,
    pub error_records: u64,
    last_slot: Option<Instant>,
    slot_gaps_us: Vec<f64>,
    pub write_time: Duration,
    pub host: Option<HostClock>,
}

const SLOT_PREFIX: &[u8] = br#"{"type":"slot""#;
const ERROR_PREFIX: &[u8] = br#"{"type":"error""#;

impl RecordSink {
    pub fn new(timed: bool) -> Self {
        Self {
            timed,
            line: Vec::new(),
            last_line: Vec::new(),
            lines: 0,
            bytes: 0,
            error_records: 0,
            last_slot: None,
            slot_gaps_us: Vec::new(),
            write_time: Duration::ZERO,
            host: None,
        }
    }

    /// The last complete line written.
    pub fn last_line(&self) -> &[u8] {
        &self.last_line
    }

    /// Microseconds between consecutive `slot` records.
    pub fn slot_gaps_us(&self) -> &[f64] {
        &self.slot_gaps_us
    }

    fn absorb(&mut self, buf: &[u8]) {
        self.bytes += buf.len() as u64;
        let mut rest = buf;
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            self.line.extend_from_slice(&rest[..nl]);
            self.lines += 1;
            if self.line.starts_with(SLOT_PREFIX) {
                let mut now = Instant::now();
                if let Some(last) = self.last_slot {
                    self.slot_gaps_us.push((now - last).as_secs_f64() * 1e6);
                }
                if let Some(host) = self.host.as_mut().filter(|h| h.due()) {
                    host.sample();
                    now = Instant::now();
                }
                self.last_slot = Some(now);
            } else if self.line.starts_with(ERROR_PREFIX) {
                self.error_records += 1;
            }
            std::mem::swap(&mut self.line, &mut self.last_line);
            self.line.clear();
            rest = &rest[nl + 1..];
        }
        self.line.extend_from_slice(rest);
    }
}

impl Write for RecordSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.timed {
            let begin = Instant::now();
            self.absorb(buf);
            self.write_time += begin.elapsed();
        } else {
            self.absorb(buf);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
