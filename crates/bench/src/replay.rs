//! Time-travel tooling over run journals: record, inspect, explain,
//! and re-verify simulation runs from their binary event journals.
//!
//! A journal (see [`spes_sim::journal`]) carries everything needed to
//! rebuild its run deterministically: the scenario name, seed, quick
//! flag, policy name, simulation window, and a digest of the driving
//! trace. This module turns that into tooling — the `spes-replay`
//! binary is a thin CLI over it:
//!
//! - [`record`] runs a registered (scenario, policy) cell with a
//!   journal write-through and an optional mid-run snapshot;
//! - [`summarize`] replays a journal through the observers a live run
//!   reports with, and [`slot_events`] lists one slot, without
//!   re-simulating anything;
//! - [`why_evict`] walks the causal chain around one eviction — what
//!   loaded the instance, when it was last used, what displaced it,
//!   and whether the eviction proved premature;
//! - [`check`] re-simulates the run from its metadata (optionally
//!   resuming from a snapshot) and diffs the regenerated event stream
//!   against the journal, reporting the first divergence.

use crate::policies::PolicyCell;
use crate::scenario::Experiment;
use spes_sim::{
    snapshot_info, DynObserver, EventCtx, EvictCause, EvictionAudit, JournalEvent, JournalMeta,
    JournalObserver, JournalReader, LoadCause, MemoryPressure, Observer, ObserverSet, Policy,
    RunCollector, RunResult, SimDriver, SimEvent, PREMATURE_RELOAD_WINDOW,
};
use spes_trace::{FunctionId, Slot, SynthTrace};

/// What [`record`] should run.
#[derive(Debug, Clone)]
pub struct RecordConfig {
    /// Workload scenario registry name.
    pub scenario: String,
    /// Policy registry name (must be capacity-self-contained).
    pub policy: String,
    /// Population of the generated trace (capped at 200 under `quick`,
    /// see [`Experiment::cell`]).
    pub n_functions: usize,
    /// Workload seed.
    pub seed: u64,
    /// Apply the scenario's CI shrink (7-day horizon, capped population).
    pub quick: bool,
    /// Also snapshot the driver at this slot boundary (before the slot
    /// is stepped; the trace horizon itself is a valid boundary).
    pub snapshot_slot: Option<Slot>,
}

/// A recorded run: the journal bytes, the optional snapshot blob, and
/// the run's summary.
#[derive(Debug)]
pub struct Recording {
    /// The complete binary journal of the run.
    pub journal: Vec<u8>,
    /// The snapshot taken at [`RecordConfig::snapshot_slot`].
    pub snapshot: Option<Vec<u8>>,
    /// The run's summary, from the live observers; [`summarize`] of
    /// [`Recording::journal`] returns the same value.
    pub summary: JournalSummary,
}

/// The journal-meta keys [`record`] stamps so [`check`] can rebuild the
/// workload.
const EXTRA_SCENARIO: &str = "scenario";
const EXTRA_QUICK: &str = "quick";

fn build_policy(name: &str, data: &SynthTrace) -> Result<Box<dyn Policy>, String> {
    Ok(PolicyCell::new(name, data)?.standalone()?.build())
}

/// Runs one registered (scenario, policy) cell with a journal
/// write-through, optionally snapshotting at a slot boundary. The
/// journal header carries the scenario/seed/quick context [`check`]
/// needs to rebuild the identical run.
///
/// # Errors
/// Returns a message for unknown names, a capacity-coupled policy, an
/// out-of-range snapshot slot, or a journal encoding failure.
pub fn record(cfg: &RecordConfig) -> Result<Recording, String> {
    let data = Experiment::cell(&cfg.scenario, cfg.n_functions, cfg.seed, cfg.quick)?.generate();
    let trace = &data.trace;
    if let Some(slot) = cfg.snapshot_slot {
        if slot > trace.n_slots {
            return Err(format!(
                "snapshot slot {slot} is beyond the trace horizon {}",
                trace.n_slots
            ));
        }
    }
    let window = spes_sim::SimConfig::new(0, trace.n_slots).with_metrics_start(data.train_end);
    let mut policy = build_policy(&cfg.policy, &data)?;
    let meta = JournalMeta {
        policy_name: policy.name().to_owned(),
        n_functions: trace.n_functions(),
        config: window,
        trace_digest: trace.digest64(),
        seed: cfg.seed,
        extra: vec![
            (EXTRA_SCENARIO.to_owned(), cfg.scenario.clone()),
            (
                EXTRA_QUICK.to_owned(),
                if cfg.quick { "1" } else { "0" }.to_owned(),
            ),
        ],
    };
    let mut observers = summary_observers();
    observers.push(Box::new(
        JournalObserver::new(Vec::new(), &meta).map_err(|e| format!("journal header: {e}"))?,
    ));
    let mut driver = SimDriver::new(trace.n_functions(), window, policy.as_mut(), observers)
        .map_err(|e| e.to_string())?;
    let mut snapshot = None;
    for (slot, batch) in trace.slot_batches(0, trace.n_slots).iter() {
        if cfg.snapshot_slot == Some(slot) {
            snapshot = Some(driver.snapshot());
        }
        driver.step(slot, batch).map_err(|e| e.to_string())?;
    }
    if cfg.snapshot_slot == Some(trace.n_slots) {
        snapshot = Some(driver.snapshot());
    }
    let (run, mut observers) = driver.finish_with_observers();
    let journal = take::<JournalObserver<Vec<u8>>>(&mut observers)?
        .into_inner()
        .map_err(|e| format!("journal flush: {e}"))?;
    Ok(Recording {
        journal,
        snapshot,
        summary: JournalSummary::collect(meta, run, &mut observers)?,
    })
}

/// Moves the observer of type `T` out of a finished run's set.
fn take<T: Observer + 'static>(observers: &mut ObserverSet) -> Result<T, String> {
    observers
        .take()
        .ok_or_else(|| format!("observer {} is missing", std::any::type_name::<T>()))
}

// ---------------------------------------------------------------------
// Inspection: --summary and --slot
// ---------------------------------------------------------------------

/// One run as `--record` and `--summary` report it, from the live run's
/// observers ([`record`]) or the same observers replayed over its
/// journal ([`summarize`]) — the two are equal.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalSummary {
    /// The journal's header metadata.
    pub meta: JournalMeta,
    /// Events in the stream.
    pub events: u64,
    /// First and last slot with an event, when there is one.
    pub span: Option<(Slot, Slot)>,
    /// Policy pre-warm loads over the whole horizon.
    pub prewarm_loads: u64,
    /// The paper's metrics over the measured window.
    pub run: RunResult,
    /// Evictions and re-loads over the whole horizon.
    pub audit: EvictionAudit,
    /// Occupancy and refused loads over the whole horizon.
    pub pressure: MemoryPressure,
}

/// What no workspace observer keeps: the event count, the slot span and
/// the pre-warm loads.
#[derive(Debug, Default)]
struct StreamCounts {
    events: u64,
    span: Option<(Slot, Slot)>,
    prewarm_loads: u64,
}

impl Observer for StreamCounts {
    fn on_event(&mut self, ctx: &EventCtx<'_>, event: &SimEvent) {
        self.events += 1;
        self.span = Some((self.span.map_or(ctx.slot, |(first, _)| first), ctx.slot));
        if let SimEvent::Load { cause, .. } = event {
            self.prewarm_loads += u64::from(*cause == LoadCause::Policy);
        }
    }

    /// Four little-endian `u64`s: events, pre-warm loads, and the span's
    /// first and last slot (a span exists exactly when events > 0).
    fn snapshot(&self) -> Vec<u8> {
        let (first, last) = self.span.unwrap_or_default();
        [self.events, self.prewarm_loads, first.into(), last.into()]
            .iter()
            .flat_map(|word| word.to_le_bytes())
            .collect()
    }

    /// Restores [`Observer::snapshot`]'s four words; the empty blob a
    /// snapshot recorded before `StreamCounts` kept state restores to
    /// zero.
    fn restore(&mut self, state: &[u8]) -> Result<(), String> {
        if state.is_empty() {
            *self = Self::default();
            return Ok(());
        }
        let words = state
            .chunks(8)
            .map(|chunk| chunk.try_into().map(u64::from_le_bytes))
            .collect::<Result<Vec<u64>, _>>();
        let Ok(&[events, prewarm_loads, first, last]) = words.as_deref() else {
            return Err(format!(
                "stream counts need 32 bytes, the snapshot has {}",
                state.len()
            ));
        };
        let slot = |word: u64| Slot::try_from(word).map_err(|e| format!("span slot {word}: {e}"));
        let span = if events == 0 {
            None
        } else {
            Some((slot(first)?, slot(last)?))
        };
        *self = Self {
            events,
            span,
            prewarm_loads,
        };
        Ok(())
    }
}

/// The observers behind a [`JournalSummary`], besides the run's
/// [`spes_sim::RunCollector`].
fn summary_observers() -> Vec<Box<dyn DynObserver>> {
    vec![
        Box::new(EvictionAudit::new(PREMATURE_RELOAD_WINDOW)),
        Box::new(MemoryPressure::new()),
        Box::new(StreamCounts::default()),
    ]
}

impl JournalSummary {
    /// Assembles the summary from a finished run's [`summary_observers`].
    fn collect(meta: JournalMeta, run: RunResult, set: &mut ObserverSet) -> Result<Self, String> {
        let counts: StreamCounts = take(set)?;
        Ok(Self {
            meta,
            events: counts.events,
            span: counts.span,
            prewarm_loads: counts.prewarm_loads,
            run,
            audit: take(set)?,
            pressure: take(set)?,
        })
    }
}

/// Replays a journal through the observers [`record`] reports with (see
/// [`spes_sim::journal::replay`]).
///
/// # Errors
/// Returns a message for corrupt or truncated journals, or for a stream
/// no run from an empty pool can record.
pub fn summarize(journal: &[u8]) -> Result<JournalSummary, String> {
    let reader = JournalReader::new(journal).map_err(|e| e.to_string())?;
    let meta = reader.meta().clone();
    let mut observers = summary_observers();
    observers.push(Box::new(RunCollector::new()));
    let mut observers = spes_sim::journal::replay(reader, observers).map_err(|e| e.to_string())?;
    let run = take::<RunCollector>(&mut observers)?.into_result();
    JournalSummary::collect(meta, run, &mut observers)
}

impl std::fmt::Display for JournalSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let meta = &self.meta;
        writeln!(
            f,
            "policy {} over {} functions, window [{}, {}) (metrics from {})",
            meta.policy_name,
            meta.n_functions,
            meta.config.start,
            meta.config.end,
            meta.config.metrics_start
        )?;
        if let Some(scenario) = meta.extra_value(EXTRA_SCENARIO) {
            writeln!(
                f,
                "scenario {scenario} seed {}{}",
                meta.seed,
                if meta.extra_value(EXTRA_QUICK) == Some("1") {
                    " (quick)"
                } else {
                    ""
                }
            )?;
        }
        writeln!(
            f,
            "{} events over {} slots{}",
            self.events,
            self.pressure.slots,
            self.span.map_or_else(String::new, |(first, last)| format!(
                " (slots {first}..={last})"
            ))
        )?;
        let run = &self.run;
        writeln!(
            f,
            "measured slots [{}, {}): {} invocations, {} cold starts, Q3-CSR {}, WMT {}, EMCR {:.4}, peak {} loaded",
            run.start,
            run.end,
            run.total_invocations(),
            run.total_cold_starts(),
            run.csr_percentile(75.0)
                .map_or_else(|| "n/a".to_owned(), |csr| format!("{csr:.4}")),
            run.total_wmt(),
            run.emcr(),
            run.peak_loaded
        )?;
        writeln!(
            f,
            "pre-warm loads: {} ({} rejected)",
            self.prewarm_loads, self.pressure.rejected_loads
        )?;
        let audit = &self.audit;
        write!(
            f,
            "evictions: {} policy, {} capacity; {} reloaded, {} within {PREMATURE_RELOAD_WINDOW} slots",
            audit.policy_evictions, audit.capacity_evictions, audit.reloads, audit.premature_reloads
        )
    }
}

/// The events of one slot, in engine emission order.
///
/// # Errors
/// Returns a message for corrupt journals or a slot outside the
/// journalled range.
pub fn slot_events(journal: &[u8], slot: Slot) -> Result<Vec<JournalEvent>, String> {
    let mut reader = JournalReader::new(journal).map_err(|e| e.to_string())?;
    let config = reader.meta().config;
    if slot < config.start || slot >= config.end {
        return Err(format!(
            "slot {slot} is outside the journalled window [{}, {})",
            config.start, config.end
        ));
    }
    let mut events = Vec::new();
    while let Some(event) = reader.next_event().map_err(|e| e.to_string())? {
        if event.slot > slot {
            break;
        }
        if event.slot == slot {
            events.push(event);
        }
    }
    Ok(events)
}

/// Renders one event as a short human-readable line (for `--slot`).
#[must_use]
pub fn describe_event(event: &SimEvent) -> String {
    match *event {
        SimEvent::ColdStart { f, count } => format!("cold-start   f{} ×{count}", f.0),
        SimEvent::WarmStart { f, count } => format!("warm-start   f{} ×{count}", f.0),
        SimEvent::Load { f, cause } => format!(
            "load         f{} ({})",
            f.0,
            match cause {
                LoadCause::Demand => "demand",
                LoadCause::Policy => "pre-warm",
            }
        ),
        SimEvent::Evict { f, cause } => format!(
            "evict        f{} ({})",
            f.0,
            match cause {
                EvictCause::Policy => "policy",
                EvictCause::Capacity => "capacity",
            }
        ),
        SimEvent::LoadRejected { f } => format!("load-reject  f{} (admission)", f.0),
        SimEvent::SlotEnd { policy_secs } => {
            format!("slot-end     (policy {:.1}µs)", policy_secs * 1e6)
        }
    }
}

// ---------------------------------------------------------------------
// --why-evict: the causal chain around one eviction
// ---------------------------------------------------------------------

/// The causal chain around one eviction, extracted from the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct EvictExplanation {
    /// The evicted function.
    pub f: FunctionId,
    /// The slot the eviction happened in.
    pub evicted_at: Slot,
    /// Who decided it.
    pub cause: EvictCause,
    /// For capacity evictions: the load that needed the room (the next
    /// load event in the same slot — the engine emits the make-room
    /// eviction immediately before the load that forced it).
    pub displaced_by: Option<FunctionId>,
    /// The load that created the evicted instance.
    pub loaded_at: Option<(Slot, LoadCause)>,
    /// The function's last service before the eviction (slot, and
    /// whether it was warm).
    pub last_invoked: Option<(Slot, bool)>,
    /// Slots the instance sat idle between its last service and the
    /// eviction (`None` when it was never invoked while resident).
    pub idle_slots: Option<Slot>,
    /// The function's next load after the eviction, if any.
    pub reloaded_at: Option<(Slot, LoadCause)>,
    /// Slots between eviction and reload (0 = same slot: the eviction
    /// was immediately repaid with a cold start).
    pub reload_gap: Option<Slot>,
}

impl std::fmt::Display for EvictExplanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let id = self.f.0;
        writeln!(
            f,
            "f{id} evicted at slot {} by {}",
            self.evicted_at,
            match self.cause {
                EvictCause::Policy => "the policy".to_owned(),
                EvictCause::Capacity => match self.displaced_by {
                    Some(g) => format!("capacity pressure (displaced by f{}'s load)", g.0),
                    None => "capacity pressure".to_owned(),
                },
            }
        )?;
        match self.loaded_at {
            Some((slot, cause)) => writeln!(
                f,
                "  instance created at slot {slot} by a {} load",
                match cause {
                    LoadCause::Demand => "demand",
                    LoadCause::Policy => "pre-warm",
                }
            )?,
            None => writeln!(f, "  instance was resident since before the journal began")?,
        }
        match self.last_invoked {
            Some((slot, warm)) => writeln!(
                f,
                "  last served at slot {slot} ({}); idle {} slot(s) at eviction",
                if warm { "warm" } else { "cold" },
                self.idle_slots.unwrap_or(0)
            )?,
            None => writeln!(f, "  never served while resident")?,
        }
        match self.reloaded_at {
            Some((slot, cause)) => write!(
                f,
                "  reloaded at slot {slot} by a {} load — gap {} slot(s){}",
                match cause {
                    LoadCause::Demand => "demand",
                    LoadCause::Policy => "pre-warm",
                },
                self.reload_gap.unwrap_or(0),
                if matches!(cause, LoadCause::Demand) {
                    " (the eviction cost a cold start)"
                } else {
                    ""
                }
            ),
            None => write!(f, "  never reloaded — the eviction was free"),
        }
    }
}

/// Explains the eviction of function `f` at `slot` by walking the
/// journal's causal chain around it.
///
/// # Errors
/// Returns a message for corrupt journals, an out-of-range function,
/// or no eviction of `f` at `slot` (listing the slots where `f` *was*
/// evicted, so the caller can re-aim).
pub fn why_evict(journal: &[u8], f: FunctionId, slot: Slot) -> Result<EvictExplanation, String> {
    let mut reader = JournalReader::new(journal).map_err(|e| e.to_string())?;
    let meta = reader.meta().clone();
    if f.index() >= meta.n_functions {
        return Err(format!(
            "function f{} is out of range (the journal covers {} functions)",
            f.0, meta.n_functions
        ));
    }
    let mut last_load: Option<(Slot, LoadCause)> = None;
    let mut last_invoked: Option<(Slot, bool)> = None;
    let mut evictions_of_f: Vec<Slot> = Vec::new();
    let mut explanation: Option<EvictExplanation> = None;
    while let Some(event) = reader.next_event().map_err(|e| e.to_string())? {
        if let Some(exp) = explanation.as_mut() {
            // Post-eviction scan: the displacing load (same slot, first
            // load after the eviction) and f's eventual reload.
            match event.event {
                SimEvent::Load { f: g, .. }
                    if exp.displaced_by.is_none()
                        && exp.cause == EvictCause::Capacity
                        && event.slot == exp.evicted_at
                        && g != f =>
                {
                    exp.displaced_by = Some(g);
                }
                SimEvent::Load { f: g, cause } if g == f && exp.reloaded_at.is_none() => {
                    exp.reloaded_at = Some((event.slot, cause));
                    exp.reload_gap = Some(event.slot - exp.evicted_at);
                    break;
                }
                _ => {}
            }
            continue;
        }
        match event.event {
            SimEvent::Load { f: g, cause } if g == f => last_load = Some((event.slot, cause)),
            SimEvent::ColdStart { f: g, .. } if g == f => {
                last_invoked = Some((event.slot, false));
            }
            SimEvent::WarmStart { f: g, .. } if g == f => {
                last_invoked = Some((event.slot, true));
            }
            SimEvent::Evict { f: g, cause } if g == f => {
                if event.slot == slot {
                    let idle_slots = last_invoked.map(|(at, _)| event.slot - at);
                    explanation = Some(EvictExplanation {
                        f,
                        evicted_at: event.slot,
                        cause,
                        displaced_by: None,
                        loaded_at: last_load,
                        last_invoked,
                        idle_slots,
                        reloaded_at: None,
                        reload_gap: None,
                    });
                } else {
                    evictions_of_f.push(event.slot);
                }
            }
            _ => {}
        }
    }
    explanation.ok_or_else(|| {
        if evictions_of_f.is_empty() {
            format!("f{} is never evicted in this journal", f.0)
        } else {
            format!(
                "f{} is not evicted at slot {slot}; its evictions are at slot(s) {}",
                f.0,
                evictions_of_f
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        }
    })
}

// ---------------------------------------------------------------------
// --check: re-simulate and diff
// ---------------------------------------------------------------------

/// The first point where the re-simulated stream stopped matching the
/// journal.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// 0-based index into the compared stream.
    pub index: u64,
    /// Slot of the mismatching position (from whichever side has an
    /// event there).
    pub slot: Slot,
    /// What the journal recorded (`None`: the journal ended early).
    pub expected: Option<JournalEvent>,
    /// What the re-simulation produced (`None`: it ended early).
    pub got: Option<JournalEvent>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "first divergence at event {} (slot {}):",
            self.index, self.slot
        )?;
        match &self.expected {
            Some(event) => writeln!(f, "  journal : {}", describe_event(&event.event))?,
            None => writeln!(f, "  journal : <stream ended>")?,
        }
        match &self.got {
            Some(event) => write!(f, "  re-sim  : {}", describe_event(&event.event)),
            None => write!(f, "  re-sim  : <stream ended>"),
        }
    }
}

/// Outcome of a [`check`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckReport {
    /// Events compared (up to and including the divergence point).
    pub events: u64,
    /// Where the re-simulation resumed (`None`: full re-run from the
    /// window start).
    pub resumed_at: Option<Slot>,
    /// The first mismatch, if any.
    pub divergence: Option<Divergence>,
}

impl CheckReport {
    /// Whether the re-simulation reproduced the journal exactly.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.divergence.is_none()
    }
}

fn diff_streams(expected: &[JournalEvent], got: &[JournalEvent]) -> (u64, Option<Divergence>) {
    let n = expected.len().max(got.len());
    for i in 0..n {
        let e = expected.get(i);
        let g = got.get(i);
        // Everything but the wall-clock stopwatch must match bit for bit.
        if e.map(JournalEvent::untimed) != g.map(JournalEvent::untimed) {
            let slot = e.or(g).map_or(0, |event| event.slot);
            return (
                (i + 1) as u64,
                Some(Divergence {
                    index: i as u64,
                    slot,
                    expected: e.copied(),
                    got: g.copied(),
                }),
            );
        }
    }
    (n as u64, None)
}

/// Rebuilds the workload a journal was recorded on, verifying the trace
/// digest so a drifted generator or edited header is caught before any
/// event comparison.
fn rebuild_workload(meta: &JournalMeta) -> Result<SynthTrace, String> {
    let scenario = meta
        .extra_value(EXTRA_SCENARIO)
        .ok_or_else(|| "journal has no scenario metadata (recorded from a live stream?); --check needs a scenario-recorded journal".to_owned())?;
    let quick = meta.extra_value(EXTRA_QUICK) == Some("1");
    let data = Experiment::cell(scenario, meta.n_functions, meta.seed, quick)?.generate();
    if data.trace.n_functions() != meta.n_functions {
        return Err(format!(
            "regenerated trace has {} functions, the journal expects {}",
            data.trace.n_functions(),
            meta.n_functions
        ));
    }
    let digest = data.trace.digest64();
    if digest != meta.trace_digest {
        return Err(format!(
            "trace digest mismatch: journal {:#018x}, regenerated {digest:#018x} — the workload generator has drifted since this journal was recorded",
            meta.trace_digest
        ));
    }
    Ok(data)
}

/// The events a re-run emits, kept in memory rather than written
/// through the journal codec, so [`check`] compares the recorded
/// journal's decoding against events that never went through the
/// encoder — a defect the encoder and decoder share still shows.
/// Keeps the default empty `snapshot`, so `resume_from` attaches it to
/// a snapshot that has no state for it.
#[derive(Debug, Default)]
struct Tail(Vec<JournalEvent>);

impl Observer for Tail {
    fn on_event(&mut self, ctx: &EventCtx<'_>, event: &SimEvent) {
        self.0.push(JournalEvent {
            slot: ctx.slot,
            measured: ctx.measured,
            event: *event,
        });
    }
}

/// Re-runs a recorded run over the slots from `from` on, with the
/// observers [`record`] attached plus a [`Tail`] of its events, and
/// returns the finished run and observers. When `resume` carries a
/// snapshot blob, the policy is first warmed by driving the slots before
/// `from` through a throwaway driver, then the run continues from the
/// snapshot.
fn resimulate(
    meta: &JournalMeta,
    data: &SynthTrace,
    resume: Option<&[u8]>,
    from: Slot,
) -> Result<(RunResult, ObserverSet), String> {
    let trace = &data.trace;
    let batches = trace.slot_batches(meta.config.start, meta.config.end);
    let mut policy = build_policy(&meta.policy_name, data)?;
    let mut observers = summary_observers();
    observers.push(Box::new(Tail::default()));
    let cut = (from - meta.config.start) as usize;
    let mut driver = match resume {
        Some(snapshot) => {
            // Warm the policy's in-memory state over the prefix: the
            // snapshot restores the *driver*, while policies without
            // `snapshot_state` rely on the caller handing over an
            // equivalently-warmed instance. Any warm-up mistake shows
            // up as a divergence below, never as silent drift.
            {
                let mut warmup = SimDriver::new(
                    trace.n_functions(),
                    meta.config,
                    policy.as_mut(),
                    Vec::new(),
                )
                .map_err(|e| e.to_string())?;
                for (slot, batch) in batches.iter().take(cut) {
                    warmup.step(slot, batch).map_err(|e| e.to_string())?;
                }
            }
            SimDriver::resume_from(snapshot, policy.as_mut(), observers)
                .map_err(|e| format!("resume: {e}"))?
        }
        None => SimDriver::new(trace.n_functions(), meta.config, policy.as_mut(), observers)
            .map_err(|e| e.to_string())?,
    };
    for (slot, batch) in batches.iter().skip(cut) {
        driver.step(slot, batch).map_err(|e| e.to_string())?;
    }
    Ok(driver.finish_with_observers())
}

/// Re-simulates a journalled run from its own metadata and diffs the
/// regenerated event stream against the journal, reporting the first
/// divergence. With `snapshot`, the run resumes from the blob instead
/// of replaying from the window start — verifying the snapshot/resume
/// path end to end (the journal prefix before the snapshot's cut is
/// skipped; the tail must match exactly).
///
/// # Errors
/// Returns a message for corrupt inputs, a non-scenario journal, a
/// trace-digest mismatch, or a snapshot that does not belong to the
/// journalled run.
pub fn check(journal: &[u8], snapshot: Option<&[u8]>) -> Result<CheckReport, String> {
    let reader = JournalReader::new(journal).map_err(|e| e.to_string())?;
    let meta = reader.meta().clone();
    let data = rebuild_workload(&meta)?;
    let recorded = reader.read_all().map_err(|e| e.to_string())?;

    let (from, resumed_at) = match snapshot {
        Some(blob) => {
            let info = snapshot_info(blob).map_err(|e| e.to_string())?;
            if info.policy_name != meta.policy_name {
                return Err(format!(
                    "snapshot policy {:?} does not match the journal's {:?}",
                    info.policy_name, meta.policy_name
                ));
            }
            if info.n_functions != meta.n_functions || info.config != meta.config {
                return Err(
                    "snapshot run shape does not match the journal (population or window differ)"
                        .to_owned(),
                );
            }
            (info.next_slot, Some(info.next_slot))
        }
        None => (meta.config.start, None),
    };
    let (_, mut observers) = resimulate(&meta, &data, snapshot, from)?;
    let resimulated = take::<Tail>(&mut observers)?.0;
    let expected: Vec<JournalEvent> = recorded
        .into_iter()
        .filter(|event| event.slot >= from)
        .collect();
    let (events, divergence) = diff_streams(&expected, &resimulated);
    Ok(CheckReport {
        events,
        resumed_at,
        divergence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_recording(snapshot_slot: Option<Slot>) -> Recording {
        record(&RecordConfig {
            scenario: "quick".to_owned(),
            policy: "fixed-keep-alive".to_owned(),
            n_functions: 30,
            seed: 11,
            quick: true,
            snapshot_slot,
        })
        .unwrap()
    }

    #[test]
    fn record_rejects_unknown_names_and_donors() {
        let config = |scenario: &str, policy: &str| RecordConfig {
            scenario: scenario.to_owned(),
            policy: policy.to_owned(),
            n_functions: 30,
            seed: 11,
            quick: true,
            snapshot_slot: None,
        };
        let err = record(&config("no-such", "fixed-keep-alive")).unwrap_err();
        assert!(err.contains("unknown scenario"), "{err}");
        let err = record(&config("quick", "no-such")).unwrap_err();
        assert!(err.contains("registered: spes"), "{err}");
        let err = record(&config("quick", "faascache")).unwrap_err();
        assert!(err.contains("capacity donor"), "{err}");
    }

    #[test]
    fn check_rejects_a_donor_coupled_journal() {
        // A journal whose header names a donor-coupled policy cannot be
        // re-simulated standalone, whoever wrote it.
        let recording = quick_recording(None);
        let reader = JournalReader::new(recording.journal.as_slice()).unwrap();
        let mut meta = reader.meta().clone();
        meta.policy_name = "faascache".to_owned();
        let mut writer = spes_sim::JournalWriter::new(Vec::new(), &meta).unwrap();
        for event in reader.read_all().unwrap() {
            writer.append(event.slot, &event.event).unwrap();
        }
        let err = check(&writer.finish().unwrap(), None).unwrap_err();
        assert!(err.contains("capacity donor"), "{err}");
    }

    #[test]
    fn recorded_journals_summarize() {
        let recording = quick_recording(None);
        let summary = summarize(&recording.journal).unwrap();
        assert_eq!(summary.meta.policy_name, "fixed-keep-alive");
        assert_eq!(summary.meta.extra_value("scenario"), Some("quick"));
        assert!(summary.pressure.slots > 0);
        assert!(summary.run.total_invocations() > 0);
        // The replayed summary is the live run's, bit for bit: each
        // SlotEnd journals its policy_secs exactly.
        let (live, replayed) = (&recording.summary.run, &summary.run);
        assert_eq!(replayed.emcr_sum.to_bits(), live.emcr_sum.to_bits());
        assert_eq!(
            replayed.overhead_secs.to_bits(),
            live.overhead_secs.to_bits()
        );
        assert_eq!(summary, recording.summary);
        let text = summary.to_string();
        assert!(text.contains("fixed-keep-alive"), "{text}");
        assert!(text.contains("scenario quick"), "{text}");
        assert!(
            text.contains(&format!("{} cold starts", live.total_cold_starts())),
            "{text}"
        );
    }

    #[test]
    fn slot_listing_matches_the_slot() {
        let recording = quick_recording(None);
        let summary = summarize(&recording.journal).unwrap();
        let slot = summary.meta.config.metrics_start;
        let events = slot_events(&recording.journal, slot).unwrap();
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.slot == slot));
        assert!(matches!(
            events.last().unwrap().event,
            SimEvent::SlotEnd { .. }
        ));
        assert!(slot_events(&recording.journal, summary.meta.config.end).is_err());
    }

    #[test]
    fn why_evict_walks_the_chain() {
        let recording = quick_recording(None);
        // Find some eviction to explain.
        let reader = JournalReader::new(recording.journal.as_slice()).unwrap();
        let (f, slot) = reader
            .read_all()
            .unwrap()
            .iter()
            .find_map(|e| match e.event {
                SimEvent::Evict { f, .. } => Some((f, e.slot)),
                _ => None,
            })
            .expect("fixed-keep-alive evicts");
        let explanation = why_evict(&recording.journal, f, slot).unwrap();
        assert_eq!(explanation.f, f);
        assert_eq!(explanation.evicted_at, slot);
        assert!(explanation.loaded_at.is_some(), "{explanation}");
        // Asking about the wrong slot lists the real ones.
        let err = why_evict(&recording.journal, f, slot + 100_000).unwrap_err();
        assert!(err.contains(&format!("{slot}")), "{err}");
    }

    #[test]
    fn check_passes_on_an_untouched_journal() {
        let recording = quick_recording(None);
        let report = check(&recording.journal, None).unwrap();
        assert!(report.passed(), "{:?}", report.divergence);
        assert!(report.events > 0);
        assert_eq!(report.resumed_at, None);
    }

    #[test]
    fn check_resumes_from_a_snapshot() {
        let summary = summarize(&quick_recording(None).journal).unwrap();
        let cut = summary.meta.config.metrics_start + 10;
        let recording = quick_recording(Some(cut));
        let snapshot = recording.snapshot.as_deref().unwrap();
        let report = check(&recording.journal, Some(snapshot)).unwrap();
        assert!(report.passed(), "{:?}", report.divergence);
        assert_eq!(report.resumed_at, Some(cut));
    }

    #[test]
    fn a_resumed_run_reports_the_recorded_summary() {
        let cut = Experiment::cell("quick", 30, 11, true).unwrap().train_end() + 10;
        // SPES pre-warms, so every stream count is non-zero by the end.
        let recording = record(&RecordConfig {
            scenario: "quick".to_owned(),
            policy: "spes".to_owned(),
            n_functions: 30,
            seed: 11,
            quick: true,
            snapshot_slot: Some(cut),
        })
        .unwrap();
        assert!(recording.summary.prewarm_loads > 0);
        let meta = recording.summary.meta.clone();
        let data = rebuild_workload(&meta).unwrap();
        let (run, mut observers) =
            resimulate(&meta, &data, recording.snapshot.as_deref(), cut).unwrap();
        let mut resumed = JournalSummary::collect(meta, run, &mut observers).unwrap();
        resumed.run.overhead_secs = recording.summary.run.overhead_secs;
        assert_eq!(resumed, recording.summary);
    }

    #[test]
    fn stream_counts_restore_an_empty_blob_to_zero() {
        let mut counts = StreamCounts {
            events: 3,
            span: Some((4, 9)),
            prewarm_loads: 1,
        };
        let blob = counts.snapshot();
        let mut restored = StreamCounts::default();
        restored.restore(&blob).unwrap();
        assert_eq!(
            (restored.events, restored.span, restored.prewarm_loads),
            (3, Some((4, 9)), 1)
        );
        counts.restore(&[]).unwrap();
        assert_eq!(
            (counts.events, counts.span, counts.prewarm_loads),
            (0, None, 0)
        );
        assert!(counts.restore(&blob[..31]).is_err());
        assert!(counts.restore(&[blob.as_slice(), &[0]].concat()).is_err());
    }

    #[test]
    fn check_reports_a_divergence_on_a_doctored_journal() {
        let recording = quick_recording(None);
        // Re-encode the journal with one event's slot intact but its
        // payload swapped: append everything, flipping the first cold
        // start into a warm start.
        let reader = JournalReader::new(recording.journal.as_slice()).unwrap();
        let meta = reader.meta().clone();
        let events = reader.read_all().unwrap();
        let mut writer = spes_sim::JournalWriter::new(Vec::new(), &meta).unwrap();
        let mut flipped = false;
        for event in &events {
            let payload = match event.event {
                SimEvent::ColdStart { f, count } if !flipped => {
                    flipped = true;
                    SimEvent::WarmStart { f, count }
                }
                other => other,
            };
            writer.append(event.slot, &payload).unwrap();
        }
        assert!(flipped, "the quick scenario has cold starts");
        let doctored = writer.finish().unwrap();
        let report = check(&doctored, None).unwrap();
        let divergence = report.divergence.expect("must diverge");
        assert!(matches!(
            divergence.expected.unwrap().event,
            SimEvent::WarmStart { .. }
        ));
        assert!(matches!(
            divergence.got.unwrap().event,
            SimEvent::ColdStart { .. }
        ));
        assert!(!divergence.to_string().is_empty());
    }
}
