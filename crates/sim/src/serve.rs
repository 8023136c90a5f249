//! Online serving: drive a [`SimDriver`] from a newline-JSON event
//! stream.
//!
//! Where the batch paths replay a whole [`spes_trace::Trace`], [`serve`]
//! consumes invocation events *as they happen* — one JSON record per
//! line — and answers with the policy's decisions as they are made. It
//! is the transport-agnostic core of the `spes-serve` binary: the binary
//! wires it to stdin/stdout or a TCP connection, this module only sees
//! `BufRead` in and `Write` out.
//!
//! ## Input protocol (one JSON object per line)
//!
//! | record | shape | meaning |
//! |---|---|---|
//! | init | `{"type":"init","functions":N,"apps":[a0,…]}` | first record; declares the function universe (`apps` is optional: app id per function, for fairness accounting) |
//! | inv | `{"type":"inv","slot":S,"f":F,"count":C}` | `count` invocations of function `F` at slot `S` (`count` defaults to 1) |
//! | tick | `{"type":"tick","slot":S}` | time passed: close every slot up to and including `S` even if idle |
//!
//! Slots only move forward: an `inv` for a slot later than the open one
//! first closes everything before it (stepping the driver through the
//! idle gap), and an `inv` for an already-closed slot is answered with
//! an error record instead of silently reordering history. Malformed
//! lines likewise get error records; the stream keeps going.
//!
//! ## Output records
//!
//! One `ready` record after init, a `slot` decision record per closed
//! slot with activity (every slot with `emit_idle_slots`), periodic
//! `snapshot` records of the attached observers
//! ([`MemoryPressure`], [`Fairness`], [`EvictionAudit`]), `error`
//! records for rejected input, and a final `summary` when the stream
//! ends.
//!
//! ## Crash-safe serving
//!
//! With [`ServeConfig::journal`] every engine event is written through
//! to a binary journal (the [`crate::journal`] format) as it happens,
//! so a crashed session leaves a replayable record for `spes-replay`.
//! [`ServeConfig::snapshot_out`] persists a [`SimDriver::snapshot`]
//! when the stream ends, and [`ServeConfig::resume`] starts the next
//! session from such a blob — metrics, observers, pool and policy state
//! continue where the previous session stopped. Only policies that
//! snapshot their own state ([`Policy::snapshot_state`]) can resume;
//! for any other, [`serve`] returns [`ServeError::Resume`] rather than
//! continue with a policy that never saw the first session.

use crate::engine::{snapshot_info, SimConfig, SimDriver, SimError, SlotOutcome, SnapshotError};
use crate::events::{DynObserver, EvictionAudit, Fairness, MemoryPressure, Observer};
use crate::journal::{JournalMeta, JournalObserver};
use crate::metrics::RunResult;
use crate::policy::Policy;
use crate::suite::PREMATURE_RELOAD_WINDOW;
use serde::{Serialize, Value};
use spes_trace::{AppId, FunctionId, Slot};
use std::io::{BufRead, Write};
use std::path::PathBuf;

/// The concrete journal observer type serve attaches for `journal`
/// write-through.
type FileJournal = JournalObserver<std::io::BufWriter<std::fs::File>>;

/// The declared function universe from the stream's init record.
#[derive(Debug, Clone)]
pub struct InitRecord {
    /// Number of functions invocation records may reference.
    pub functions: usize,
    /// Owning app per function (all [`AppId`] 0 when the init record
    /// does not declare them); drives the fairness observer.
    pub apps: Vec<AppId>,
}

/// Serving knobs, independent of policy choice.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The simulation window and pool limits. The default window is
    /// `[0, Slot::MAX)` — open-ended, the stream decides when to stop.
    pub sim: SimConfig,
    /// Emit a `snapshot` record every this many closed slots (`None`
    /// disables snapshots).
    pub snapshot_every: Option<Slot>,
    /// Emit a `slot` decision record for every closed slot, idle ones
    /// included (by default only slots with invocations or decisions
    /// produce a record, so long idle gaps stay cheap).
    pub emit_idle_slots: bool,
    /// Write every engine event through to a binary journal at this
    /// path (the [`crate::journal`] format) as the session runs —
    /// crash forensics and `spes-replay` time-travel work off this
    /// file. The file is created (truncated) per session.
    pub journal: Option<PathBuf>,
    /// Resume a previous session from a [`SimDriver::snapshot`] blob
    /// instead of starting fresh. The snapshot's own window and pool
    /// limits rule — `sim` is ignored on resume — the init record must
    /// declare the snapshotted population, and the blob must carry the
    /// policy's state ([`crate::SnapshotInfo::has_policy_state`]).
    pub resume: Option<Vec<u8>>,
    /// Write a final [`SimDriver::snapshot`] here when the stream
    /// ends, so the next session can `resume` where this one stopped.
    pub snapshot_out: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            sim: SimConfig::new(0, Slot::MAX),
            snapshot_every: None,
            emit_idle_slots: false,
            journal: None,
            resume: None,
            snapshot_out: None,
        }
    }
}

/// Why a serving session could not run (stream-level failures; malformed
/// individual records are answered in-band with error records instead).
#[derive(Debug)]
pub enum ServeError {
    /// Reading the input or writing a record failed.
    Io(std::io::Error),
    /// The stream violated the line protocol in a way that prevents a
    /// session from existing at all (no init record).
    Protocol(String),
    /// The policy factory rejected the init record.
    Policy(String),
    /// The session's simulation window is malformed or refused a step.
    Window(SimError),
    /// The `resume` snapshot could not be restored.
    Resume(SnapshotError),
    /// The write-through journal could not be opened or written.
    Journal(String),
    /// The driver lost one of the observers every session attaches
    /// (named by type).
    MissingObserver(&'static str),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "serve i/o error: {e}"),
            Self::Protocol(message) => write!(f, "protocol error: {message}"),
            Self::Policy(message) => write!(f, "policy construction failed: {message}"),
            Self::Window(e) => write!(f, "invalid serving window: {e}"),
            Self::Resume(e) => write!(f, "resume failed: {e}"),
            Self::Journal(message) => write!(f, "journal write-through failed: {message}"),
            Self::MissingObserver(observer) => {
                write!(f, "the session lost its {observer} observer")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// What a completed serving session amounted to.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// The paper's metrics over the slots actually served.
    pub run: RunResult,
    /// Slots closed (stepped) during the session.
    pub slots: u64,
    /// Accepted protocol events (`inv` + `tick` records).
    pub events: u64,
    /// `slot` decision records emitted.
    pub decisions: u64,
    /// `snapshot` records emitted.
    pub snapshots: u64,
    /// Input lines answered with an error record.
    pub rejected_lines: u64,
}

#[derive(Debug, Default)]
struct Stats {
    slots: u64,
    events: u64,
    decisions: u64,
    snapshots: u64,
    rejected_lines: u64,
}

/// A parsed input record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProtoEvent {
    Init,
    Inv {
        slot: Slot,
        f: FunctionId,
        count: u32,
    },
    Tick {
        slot: Slot,
    },
}

/// Runs one serving session: reads the init record, builds the policy
/// through `make_policy`, then feeds every subsequent line to a
/// [`SimDriver`] and writes decision records as slots close. Returns the
/// session's [`ServeSummary`] (also written as the final output record).
///
/// # Errors
/// Returns a [`ServeError`] for stream-level failures: I/O, a missing or
/// malformed init record, a rejected policy, a malformed window, or a
/// `resume` snapshot that cannot be restored or carries no policy state.
/// Malformed *event* lines do not fail the session — they are answered
/// in-band with `{"type":"error",…}` records.
pub fn serve<R: BufRead, W: Write>(
    input: R,
    mut output: W,
    config: &ServeConfig,
    make_policy: impl FnOnce(&InitRecord) -> Result<Box<dyn Policy>, String>,
) -> Result<ServeSummary, ServeError> {
    let mut lines = input.lines();
    let init = loop {
        let Some(line) = lines.next() else {
            return Err(ServeError::Protocol(
                "stream ended before an init record".to_owned(),
            ));
        };
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        break parse_init(line.trim()).map_err(ServeError::Protocol)?;
    };
    let mut policy = make_policy(&init).map_err(ServeError::Policy)?;
    let resume = match &config.resume {
        Some(snapshot) => {
            let info = snapshot_info(snapshot).map_err(ServeError::Resume)?;
            if info.n_functions != init.functions {
                return Err(ServeError::Protocol(format!(
                    "init declares {} functions but the resume snapshot has {}",
                    init.functions, info.n_functions
                )));
            }
            if !info.has_policy_state {
                return Err(ServeError::Resume(SnapshotError::PolicyRestore(format!(
                    "policy {:?} does not snapshot its state, so its session cannot be resumed",
                    info.policy_name
                ))));
            }
            Some((snapshot, info.config))
        }
        None => None,
    };
    let mut observers: Vec<Box<dyn DynObserver>> = vec![
        Box::new(MemoryPressure::new()),
        Box::new(Fairness::new(&init.apps)),
        Box::new(EvictionAudit::new(PREMATURE_RELOAD_WINDOW)),
    ];
    if let Some(path) = &config.journal {
        let meta = JournalMeta {
            policy_name: policy.name().to_owned(),
            n_functions: init.functions,
            // On resume the snapshot's window rules; stamp the journal
            // header with what the session will actually run under.
            config: resume.map_or(config.sim, |(_, sim)| sim),
            trace_digest: 0,
            seed: 0,
            extra: vec![("source".to_owned(), "spes-serve".to_owned())],
        };
        let file = std::fs::File::create(path)?;
        let journal = FileJournal::new(std::io::BufWriter::new(file), &meta)
            .map_err(|e| ServeError::Journal(e.to_string()))?;
        observers.push(Box::new(journal));
    }
    let mut driver = match resume {
        Some((snapshot, _)) => SimDriver::resume_from(snapshot, policy.as_mut(), observers)
            .map_err(ServeError::Resume)?,
        None => SimDriver::new(init.functions, config.sim, policy.as_mut(), observers)
            .map_err(ServeError::Window)?,
    };
    writeln!(output, "{}", render_ready(&driver, &init))?;

    let mut stats = Stats::default();
    let mut pending: Vec<(FunctionId, u32)> = Vec::new();
    for line in lines {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let event = match parse_event(trimmed, init.functions) {
            Ok(event) => event,
            Err(message) => {
                stats.rejected_lines += 1;
                writeln!(output, "{}", render_error(&message))?;
                continue;
            }
        };
        match event {
            ProtoEvent::Init => {
                stats.rejected_lines += 1;
                writeln!(output, "{}", render_error("duplicate init record"))?;
            }
            ProtoEvent::Inv { slot, f, count } => {
                if slot < driver.next_slot() {
                    stats.rejected_lines += 1;
                    writeln!(
                        output,
                        "{}",
                        render_error(&format!(
                            "slot {slot} is already closed (the open slot is {})",
                            driver.next_slot()
                        ))
                    )?;
                    continue;
                }
                let end = driver.config().end;
                if slot >= end {
                    stats.rejected_lines += 1;
                    writeln!(
                        output,
                        "{}",
                        render_error(&format!(
                            "slot {slot} is beyond the session's window end {end}"
                        ))
                    )?;
                    continue;
                }
                stats.events += 1;
                advance_to(
                    &mut driver,
                    &mut pending,
                    slot,
                    config,
                    &mut output,
                    &mut stats,
                )?;
                pending.push((f, count));
            }
            ProtoEvent::Tick { slot } => {
                stats.events += 1;
                let target = slot.saturating_add(1).min(driver.config().end);
                advance_to(
                    &mut driver,
                    &mut pending,
                    target,
                    config,
                    &mut output,
                    &mut stats,
                )?;
            }
        }
    }
    // End of stream: the open slot still holds undelivered invocations —
    // close it so they are served before the books are closed.
    if !pending.is_empty() {
        let target = driver.next_slot() + 1;
        advance_to(
            &mut driver,
            &mut pending,
            target,
            config,
            &mut output,
            &mut stats,
        )?;
    }

    // Surface a mid-run journal write failure instead of finishing a
    // session whose journal silently stopped short. (The run-end tail
    // flush happens inside `finish` and cannot be checked here — a
    // truncated tail frame is caught by the reader's typed error.)
    if config.journal.is_some() {
        if let Some(error) = driver
            .observer::<FileJournal>()
            .and_then(FileJournal::error)
        {
            return Err(ServeError::Journal(error.to_string()));
        }
    }
    // Persist the end-of-stream snapshot before `finish` consumes the
    // driver, so a follow-up session can resume at this exact boundary.
    if let Some(path) = &config.snapshot_out {
        std::fs::write(path, driver.snapshot())?;
    }

    // Snapshot the observers before the driver consumes itself (their
    // run-end hooks are no-ops, so pre-finish clones are complete).
    let (pressure, fairness, audit) = suite_observers(&driver)?;
    let (pressure, fairness, audit) = (pressure.clone(), fairness.clone(), audit.clone());
    let run = driver.finish();
    writeln!(
        output,
        "{}",
        render_summary(&run, &pressure, &fairness, &audit, &stats)
    )?;
    Ok(ServeSummary {
        run,
        slots: stats.slots,
        events: stats.events,
        decisions: stats.decisions,
        snapshots: stats.snapshots,
        rejected_lines: stats.rejected_lines,
    })
}

/// Steps the driver until `target` is the open slot, emitting decision
/// and snapshot records along the way. The pending invocations belong to
/// the currently open slot and are delivered when it closes.
fn advance_to<W: Write>(
    driver: &mut SimDriver<'_>,
    pending: &mut Vec<(FunctionId, u32)>,
    target: Slot,
    config: &ServeConfig,
    output: &mut W,
    stats: &mut Stats,
) -> Result<(), ServeError> {
    while driver.next_slot() < target {
        let slot = driver.next_slot();
        let invoked = std::mem::take(pending);
        let outcome = driver.step(slot, &invoked).map_err(ServeError::Window)?;
        stats.slots += 1;
        let active = outcome.invocations > 0
            || !outcome.policy_loads.is_empty()
            || !outcome.policy_evictions.is_empty()
            || !outcome.capacity_evictions.is_empty()
            || !outcome.rejected_loads.is_empty();
        let record = (active || config.emit_idle_slots).then(|| render_slot(&outcome));
        if let Some(record) = record {
            stats.decisions += 1;
            writeln!(output, "{record}")?;
        }
        if let Some(every) = config.snapshot_every {
            if every > 0 && (slot - driver.config().start + 1).is_multiple_of(every) {
                stats.snapshots += 1;
                let snapshot = render_snapshot(driver, slot)?;
                writeln!(output, "{snapshot}")?;
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Input parsing (over the serde shim's Value model)
// ---------------------------------------------------------------------

fn get_u64(value: &Value, key: &str) -> Result<u64, String> {
    match value.get(key) {
        Some(Value::Number(n)) => n
            .parse()
            .map_err(|_| format!("field {key:?} must be a non-negative integer, got {n}")),
        Some(other) => Err(format!(
            "field {key:?} must be a number, found {}",
            other.kind()
        )),
        None => Err(format!("missing field {key:?}")),
    }
}

fn parse_init(line: &str) -> Result<InitRecord, String> {
    let value: Value =
        serde_json::from_str(line).map_err(|e| format!("malformed init record: {e}"))?;
    match value.get("type").and_then(Value::as_str) {
        Some("init") => {}
        Some(other) => {
            return Err(format!(
                "first record must have type \"init\", got {other:?}"
            ))
        }
        None => return Err("first record must have a string \"type\" field".to_owned()),
    }
    let functions = usize::try_from(get_u64(&value, "functions")?)
        .map_err(|_| "field \"functions\" does not fit usize".to_owned())?;
    if functions == 0 {
        return Err("init record must declare at least one function".to_owned());
    }
    let apps = match value.get("apps") {
        None | Some(Value::Null) => vec![AppId(0); functions],
        Some(Value::Array(items)) => {
            if items.len() != functions {
                return Err(format!(
                    "\"apps\" length {} does not match \"functions\" {functions}",
                    items.len()
                ));
            }
            items
                .iter()
                .map(|item| match item {
                    Value::Number(n) => n
                        .parse()
                        .map(AppId)
                        .map_err(|_| format!("app id {n} must be a u32")),
                    other => Err(format!("app ids must be numbers, found {}", other.kind())),
                })
                .collect::<Result<Vec<_>, _>>()?
        }
        Some(other) => {
            return Err(format!(
                "field \"apps\" must be an array, found {}",
                other.kind()
            ))
        }
    };
    Ok(InitRecord { functions, apps })
}

fn parse_event(line: &str, n_functions: usize) -> Result<ProtoEvent, String> {
    let value: Value = serde_json::from_str(line).map_err(|e| format!("malformed record: {e}"))?;
    let ty = value
        .get("type")
        .and_then(Value::as_str)
        .ok_or_else(|| "record is missing a string \"type\" field".to_owned())?;
    match ty {
        "init" => Ok(ProtoEvent::Init),
        "inv" => {
            let slot = Slot::try_from(get_u64(&value, "slot")?)
                .map_err(|_| "field \"slot\" does not fit a slot index".to_owned())?;
            let f = get_u64(&value, "f")?;
            if f >= n_functions as u64 {
                return Err(format!(
                    "function {f} out of range (init declared {n_functions} functions)"
                ));
            }
            let count = match value.get("count") {
                None => 1,
                Some(_) => u32::try_from(get_u64(&value, "count")?)
                    .map_err(|_| "field \"count\" does not fit u32".to_owned())?,
            };
            if count == 0 {
                return Err("field \"count\" must be at least 1".to_owned());
            }
            Ok(ProtoEvent::Inv {
                slot,
                f: FunctionId(f as u32),
                count,
            })
        }
        "tick" => {
            let slot = Slot::try_from(get_u64(&value, "slot")?)
                .map_err(|_| "field \"slot\" does not fit a slot index".to_owned())?;
            Ok(ProtoEvent::Tick { slot })
        }
        other => Err(format!("unknown record type {other:?}")),
    }
}

// ---------------------------------------------------------------------
// Output rendering (hand-built Value objects: the derive shim cannot
// name a field `type`, and explicit objects pin the schema anyway)
// ---------------------------------------------------------------------

fn obj(fields: Vec<(&str, Value)>) -> String {
    let value = Value::Object(
        fields
            .into_iter()
            .map(|(key, value)| (key.to_owned(), value))
            .collect(),
    );
    serde_json::to_string(&value).expect("shim rendering is infallible")
}

fn ids(functions: &[FunctionId]) -> Value {
    Value::Array(functions.iter().map(|f| f.0.to_value()).collect())
}

fn render_ready(driver: &SimDriver<'_>, init: &InitRecord) -> String {
    let fairness = driver.observer::<Fairness>();
    obj(vec![
        ("type", "ready".to_value()),
        ("policy", driver.policy_name().to_value()),
        ("functions", init.functions.to_value()),
        ("apps", fairness.map_or(0, Fairness::n_apps).to_value()),
        ("start", driver.config().start.to_value()),
        ("capacity", driver.config().capacity.to_value()),
        (
            "pressure_budget",
            driver.config().pressure_budget.to_value(),
        ),
    ])
}

fn render_slot(outcome: &SlotOutcome<'_>) -> String {
    obj(vec![
        ("type", "slot".to_value()),
        ("slot", outcome.slot.to_value()),
        ("invocations", outcome.invocations.to_value()),
        ("cold_starts", outcome.cold_starts.to_value()),
        ("warm_starts", outcome.warm_starts.to_value()),
        ("demand_loads", ids(outcome.demand_loads)),
        ("prewarm_loads", ids(outcome.policy_loads)),
        ("policy_evictions", ids(outcome.policy_evictions)),
        ("capacity_evictions", ids(outcome.capacity_evictions)),
        ("rejected_loads", ids(outcome.rejected_loads)),
        ("occupancy", outcome.occupancy.to_value()),
        ("policy_us", (outcome.policy_secs * 1e6).to_value()),
    ])
}

/// The [`MemoryPressure`], [`Fairness`] and [`EvictionAudit`] that
/// [`serve`] attaches to every session.
fn suite_observers<'d>(
    driver: &'d SimDriver<'_>,
) -> Result<(&'d MemoryPressure, &'d Fairness, &'d EvictionAudit), ServeError> {
    fn get<'d, T: Observer + 'static>(driver: &'d SimDriver<'_>) -> Result<&'d T, ServeError> {
        driver
            .observer()
            .ok_or(ServeError::MissingObserver(std::any::type_name::<T>()))
    }
    Ok((get(driver)?, get(driver)?, get(driver)?))
}

fn render_snapshot(driver: &SimDriver<'_>, slot: Slot) -> Result<String, ServeError> {
    let (pressure, fairness, audit) = suite_observers(driver)?;
    Ok(obj(vec![
        ("type", "snapshot".to_value()),
        ("slot", slot.to_value()),
        ("occupancy", driver.pool().loaded_count().to_value()),
        ("peak_occupancy", pressure.peak_occupancy.to_value()),
        ("mean_occupancy", pressure.mean_occupancy().to_value()),
        ("budget", pressure.budget().to_value()),
        ("pressure_fraction", pressure.pressure_fraction().to_value()),
        ("rejected_loads", pressure.rejected_loads.to_value()),
        ("invocations", fairness.total_invocations().to_value()),
        ("cold_starts", fairness.total_cold_starts().to_value()),
        ("gini_csr", fairness.gini_csr().to_value()),
        ("max_burden_ratio", fairness.max_burden_ratio().to_value()),
        ("policy_evictions", audit.policy_evictions.to_value()),
        ("capacity_evictions", audit.capacity_evictions.to_value()),
        ("reloads", audit.reloads.to_value()),
        ("premature_reloads", audit.premature_reloads.to_value()),
    ]))
}

fn render_error(message: &str) -> String {
    obj(vec![
        ("type", "error".to_value()),
        ("message", message.to_value()),
    ])
}

fn render_summary(
    run: &RunResult,
    pressure: &MemoryPressure,
    fairness: &Fairness,
    audit: &EvictionAudit,
    stats: &Stats,
) -> String {
    let invocations = run.total_invocations();
    let cold = run.total_cold_starts();
    let csr = if invocations == 0 {
        0.0
    } else {
        cold as f64 / invocations as f64
    };
    obj(vec![
        ("type", "summary".to_value()),
        ("policy", run.policy_name.to_value()),
        ("slots", stats.slots.to_value()),
        ("events", stats.events.to_value()),
        ("decisions", stats.decisions.to_value()),
        ("snapshots", stats.snapshots.to_value()),
        ("rejected_lines", stats.rejected_lines.to_value()),
        ("invocations", invocations.to_value()),
        ("cold_starts", cold.to_value()),
        ("csr", csr.to_value()),
        ("wmt", run.total_wmt().to_value()),
        ("mean_loaded", run.mean_loaded().to_value()),
        ("peak_loaded", run.peak_loaded.to_value()),
        ("emcr", run.emcr().to_value()),
        ("peak_occupancy", pressure.peak_occupancy.to_value()),
        ("gini_csr", fairness.gini_csr().to_value()),
        ("premature_reloads", audit.premature_reloads.to_value()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::try_simulate;
    use crate::memory::MemoryPool;
    use crate::policy::{KeepForever, NoKeepAlive};
    use spes_trace::{FunctionMeta, SparseSeries, Trace, TriggerType, UserId};

    fn keep_forever(_init: &InitRecord) -> Result<Box<dyn Policy>, String> {
        Ok(Box::new(KeepForever))
    }

    fn run_session(input: &str, config: &ServeConfig) -> (ServeSummary, Vec<Value>) {
        let mut output = Vec::new();
        let summary = serve(input.as_bytes(), &mut output, config, keep_forever).unwrap();
        let records = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|line| serde_json::from_str(line).unwrap())
            .collect();
        (summary, records)
    }

    fn record_types(records: &[Value]) -> Vec<String> {
        records
            .iter()
            .map(|r| r.get("type").unwrap().as_str().unwrap().to_owned())
            .collect()
    }

    #[test]
    fn replays_a_stream_end_to_end() {
        let input = r#"{"type":"init","functions":2,"apps":[0,1]}
{"type":"inv","slot":0,"f":0,"count":3}
{"type":"inv","slot":0,"f":1}
{"type":"inv","slot":2,"f":0}
{"type":"tick","slot":4}
"#;
        let (summary, records) = run_session(input, &ServeConfig::default());
        assert_eq!(summary.slots, 5, "tick 4 closes slots 0..=4");
        assert_eq!(summary.events, 4);
        assert_eq!(summary.decisions, 2, "slots 0 and 2 had activity");
        assert_eq!(summary.rejected_lines, 0);
        assert_eq!(summary.run.total_invocations(), 5);
        // keep-forever: cold once per function.
        assert_eq!(summary.run.total_cold_starts(), 2);
        assert_eq!(summary.run.end, 5);
        assert_eq!(record_types(&records), ["ready", "slot", "slot", "summary"]);
        // The first decision record carries the slot-0 decisions.
        let slot0 = &records[1];
        assert_eq!(slot0.get("slot").unwrap(), &Value::Number("0".into()));
        assert_eq!(
            slot0.get("invocations").unwrap(),
            &Value::Number("4".into())
        );
        assert_eq!(
            slot0.get("demand_loads").unwrap().as_array().unwrap().len(),
            2
        );
        assert_eq!(slot0.get("occupancy").unwrap(), &Value::Number("2".into()));
        let summary_record = records.last().unwrap();
        assert_eq!(
            summary_record.get("cold_starts").unwrap(),
            &Value::Number("2".into())
        );
    }

    #[test]
    fn pending_invocations_flush_at_end_of_stream() {
        let input = r#"{"type":"init","functions":1}
{"type":"inv","slot":7,"f":0,"count":2}
"#;
        let (summary, records) = run_session(input, &ServeConfig::default());
        // Slots 0..=6 were stepped idle to reach slot 7; slot 7 itself is
        // closed by the end-of-stream flush.
        assert_eq!(summary.slots, 8);
        assert_eq!(summary.run.total_invocations(), 2);
        assert_eq!(summary.decisions, 1);
        assert_eq!(record_types(&records), ["ready", "slot", "summary"]);
    }

    #[test]
    fn malformed_and_stale_lines_get_error_records() {
        let input = r#"{"type":"init","functions":1}
not json at all
{"type":"inv","slot":1,"f":0}
{"type":"inv","slot":0,"f":0}
{"type":"inv","slot":1,"f":9}
{"type":"wat","slot":1}
{"type":"init","functions":1}
{"type":"inv","slot":1,"f":0,"count":0}
"#;
        let (summary, records) = run_session(input, &ServeConfig::default());
        assert_eq!(summary.rejected_lines, 6);
        assert_eq!(summary.events, 1);
        let types = record_types(&records);
        assert_eq!(types.iter().filter(|t| *t == "error").count(), 6);
        assert_eq!(*types.last().unwrap(), "summary");
        // The stale-slot error names both slots.
        let stale = records
            .iter()
            .find(|r| {
                r.get("message")
                    .and_then(Value::as_str)
                    .is_some_and(|m| m.contains("already closed"))
            })
            .expect("stale-slot error record");
        assert!(stale
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("slot 0"));
    }

    #[test]
    fn snapshots_and_idle_slots_are_emitted_on_request() {
        let input = r#"{"type":"init","functions":1}
{"type":"inv","slot":0,"f":0}
{"type":"tick","slot":3}
"#;
        let config = ServeConfig {
            snapshot_every: Some(2),
            emit_idle_slots: true,
            ..ServeConfig::default()
        };
        let (summary, records) = run_session(input, &config);
        assert_eq!(summary.slots, 4);
        assert_eq!(summary.decisions, 4, "idle slots emitted too");
        assert_eq!(summary.snapshots, 2, "after slots 1 and 3");
        let types = record_types(&records);
        assert_eq!(
            types,
            ["ready", "slot", "slot", "snapshot", "slot", "slot", "snapshot", "summary"]
        );
        let snapshot = records
            .iter()
            .find(|r| r.get("type").unwrap().as_str() == Some("snapshot"))
            .unwrap();
        assert_eq!(
            snapshot.get("peak_occupancy").unwrap(),
            &Value::Number("1".into())
        );
    }

    #[test]
    fn stream_without_init_is_a_protocol_error() {
        let mut output = Vec::new();
        let err = serve(
            "{\"type\":\"inv\",\"slot\":0,\"f\":0}\n".as_bytes(),
            &mut output,
            &ServeConfig::default(),
            keep_forever,
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::Protocol(_)), "{err}");
        let err = serve(
            "".as_bytes(),
            &mut output,
            &ServeConfig::default(),
            keep_forever,
        )
        .unwrap_err();
        assert!(err.to_string().contains("before an init record"), "{err}");
    }

    #[test]
    fn policy_rejection_surfaces_as_serve_error() {
        let mut output = Vec::new();
        let err = serve(
            "{\"type\":\"init\",\"functions\":1}\n".as_bytes(),
            &mut output,
            &ServeConfig::default(),
            |_| Err("nope".to_owned()),
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::Policy(_)), "{err}");
    }

    /// A per-test scratch file that cleans up after itself.
    struct ScratchPath(std::path::PathBuf);

    impl ScratchPath {
        fn new(name: &str) -> Self {
            Self(std::env::temp_dir().join(format!("spes-serve-{}-{name}", std::process::id())))
        }
    }

    impl Drop for ScratchPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn journal_write_through_records_the_session() {
        let path = ScratchPath::new("wt.journal");
        let input = r#"{"type":"init","functions":2}
{"type":"inv","slot":0,"f":0,"count":3}
{"type":"inv","slot":1,"f":1}
{"type":"tick","slot":3}
"#;
        let config = ServeConfig {
            journal: Some(path.0.clone()),
            ..ServeConfig::default()
        };
        let mut output = Vec::new();
        let summary = serve(input.as_bytes(), &mut output, &config, keep_forever).unwrap();

        let reader =
            crate::journal::JournalReader::new(std::fs::File::open(&path.0).unwrap()).unwrap();
        assert_eq!(reader.meta().policy_name, "keep-forever");
        assert_eq!(reader.meta().n_functions, 2);
        assert_eq!(reader.meta().extra_value("source"), Some("spes-serve"));
        let events = reader.read_all().unwrap();
        let slot_ends = events
            .iter()
            .filter(|e| matches!(e.event, crate::SimEvent::SlotEnd { .. }))
            .count() as u64;
        assert_eq!(slot_ends, summary.slots);
        // One cold start is charged per cold function per slot, so the
        // metric equals the number of ColdStart events in the stream.
        let cold = events
            .iter()
            .filter(|e| matches!(e.event, crate::SimEvent::ColdStart { .. }))
            .count() as u64;
        assert_eq!(cold, summary.run.total_cold_starts());
    }

    /// A session split in two — snapshot at the cut, resume in a fresh
    /// session — produces the same books as serving the stream in one go.
    #[test]
    fn split_session_resumes_where_the_first_stopped() {
        let full = r#"{"type":"init","functions":2}
{"type":"inv","slot":0,"f":0,"count":2}
{"type":"inv","slot":2,"f":1}
{"type":"inv","slot":4,"f":0}
{"type":"tick","slot":5}
"#;
        let (reference, _) = run_session(full, &ServeConfig::default());

        let snap_path = ScratchPath::new("cut.snapshot");
        let part_one = r#"{"type":"init","functions":2}
{"type":"inv","slot":0,"f":0,"count":2}
{"type":"inv","slot":2,"f":1}
{"type":"tick","slot":2}
"#;
        let config = ServeConfig {
            snapshot_out: Some(snap_path.0.clone()),
            ..ServeConfig::default()
        };
        let mut output = Vec::new();
        let first = serve(part_one.as_bytes(), &mut output, &config, keep_forever).unwrap();
        assert_eq!(first.slots, 3);

        let part_two = r#"{"type":"init","functions":2}
{"type":"inv","slot":4,"f":0}
{"type":"tick","slot":5}
"#;
        let config = ServeConfig {
            resume: Some(std::fs::read(&snap_path.0).unwrap()),
            ..ServeConfig::default()
        };
        let mut output = Vec::new();
        let second = serve(part_two.as_bytes(), &mut output, &config, keep_forever).unwrap();

        let mut resumed = second.run.clone();
        let mut one_shot = reference.run.clone();
        resumed.overhead_secs = 0.0;
        one_shot.overhead_secs = 0.0;
        assert_eq!(resumed, one_shot);
        assert_eq!(second.slots, 3, "slots 3..=5 served after the cut");
    }

    /// Keeps a function warm for one slot after its last invocation —
    /// run state that, like most fitted policies, is not snapshotted.
    struct KeepOneSlot(Vec<Option<Slot>>);

    impl Policy for KeepOneSlot {
        fn name(&self) -> &str {
            "keep-one-slot"
        }

        fn on_slot(&mut self, now: Slot, invoked: &[(FunctionId, u32)], pool: &mut MemoryPool) {
            for &(f, _) in invoked {
                self.0[f.index()] = Some(now);
            }
            for f in pool.loaded().to_vec() {
                if self.0[f.index()].is_some_and(|last| last < now) {
                    pool.evict(f);
                }
            }
        }
    }

    /// Resuming would hand the second session a policy that never saw
    /// the first session's invocations, so serve refuses it.
    #[test]
    fn resume_refuses_a_snapshot_without_policy_state() {
        let keep_one_slot = |init: &InitRecord| -> Result<Box<dyn Policy>, String> {
            Ok(Box::new(KeepOneSlot(vec![None; init.functions])))
        };
        let snap_path = ScratchPath::new("stateful.snapshot");
        let config = ServeConfig {
            snapshot_out: Some(snap_path.0.clone()),
            ..ServeConfig::default()
        };
        let first = r#"{"type":"init","functions":2}
{"type":"inv","slot":0,"f":0}
{"type":"inv","slot":1,"f":1}
"#;
        serve(first.as_bytes(), &mut Vec::new(), &config, keep_one_slot).unwrap();

        let config = ServeConfig {
            resume: Some(std::fs::read(&snap_path.0).unwrap()),
            ..ServeConfig::default()
        };
        let second = "{\"type\":\"init\",\"functions\":2}\n{\"type\":\"tick\",\"slot\":4}\n";
        let mut output = Vec::new();
        let err = serve(second.as_bytes(), &mut output, &config, keep_one_slot).unwrap_err();
        assert!(
            matches!(&err, ServeError::Resume(SnapshotError::PolicyRestore(m)) if m.contains("\"keep-one-slot\"")),
            "{err}"
        );
        assert!(
            output.is_empty(),
            "nothing is served after a refused resume"
        );
    }

    /// On resume the snapshot's window rules, not `ServeConfig::sim`:
    /// every slot check, the tick clamp and the snapshot cadence read it.
    #[test]
    fn a_resumed_session_serves_inside_the_snapshot_window() {
        let snap_path = ScratchPath::new("window.snapshot");
        let config = ServeConfig {
            sim: SimConfig::new(1, 10),
            snapshot_out: Some(snap_path.0.clone()),
            ..ServeConfig::default()
        };
        let first = r#"{"type":"init","functions":1}
{"type":"inv","slot":2,"f":0}
"#;
        serve(first.as_bytes(), &mut Vec::new(), &config, keep_forever).unwrap();

        let config = ServeConfig {
            snapshot_every: Some(4),
            resume: Some(std::fs::read(&snap_path.0).unwrap()),
            ..ServeConfig::default()
        };
        let second = r#"{"type":"init","functions":1}
{"type":"inv","slot":12,"f":0}
{"type":"tick","slot":50}
"#;
        let (summary, records) = run_session(second, &config);
        assert_eq!(summary.slots, 7, "slots 3..=9 close; the window ends at 10");
        let snapshot_slots: Vec<&Value> = records
            .iter()
            .filter(|r| r.get("type").unwrap().as_str() == Some("snapshot"))
            .map(|r| r.get("slot").unwrap())
            .collect();
        assert_eq!(
            snapshot_slots,
            [&Value::Number("4".into()), &Value::Number("8".into())],
            "every fourth slot from the snapshot's window start 1"
        );
        assert_eq!(summary.rejected_lines, 1);
        assert_eq!(summary.run.end, 10);
        let error = records
            .iter()
            .find_map(|r| r.get("message").and_then(Value::as_str))
            .expect("an error record for slot 12");
        assert!(error.contains("window end 10"), "{error}");
    }

    #[test]
    fn resume_rejects_a_population_mismatch() {
        let snap_path = ScratchPath::new("pop.snapshot");
        let config = ServeConfig {
            snapshot_out: Some(snap_path.0.clone()),
            ..ServeConfig::default()
        };
        let mut output = Vec::new();
        serve(
            "{\"type\":\"init\",\"functions\":2}\n{\"type\":\"tick\",\"slot\":0}\n".as_bytes(),
            &mut output,
            &config,
            keep_forever,
        )
        .unwrap();

        let config = ServeConfig {
            resume: Some(std::fs::read(&snap_path.0).unwrap()),
            ..ServeConfig::default()
        };
        let err = serve(
            "{\"type\":\"init\",\"functions\":5}\n".as_bytes(),
            &mut Vec::new(),
            &config,
            keep_forever,
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::Protocol(_)), "{err}");
        assert!(err.to_string().contains("resume snapshot"), "{err}");
    }

    /// The serving path and the batch path are the same engine: replaying
    /// a trace over the line protocol must reproduce `try_simulate`'s
    /// metrics exactly.
    #[test]
    fn served_stream_matches_batch_simulation() {
        let metas = vec![
            FunctionMeta {
                app: AppId(0),
                user: UserId(0),
                trigger: TriggerType::Http,
            };
            3
        ];
        let series = vec![
            SparseSeries::from_pairs(vec![(0, 2), (3, 1), (7, 4)]),
            SparseSeries::from_pairs(vec![(1, 1), (2, 1), (3, 2)]),
            SparseSeries::from_pairs(vec![(5, 1)]),
        ];
        let trace = Trace::new(10, metas, series);
        for make in [
            (|_: &InitRecord| Ok(Box::new(KeepForever) as Box<dyn Policy>))
                as fn(&InitRecord) -> Result<Box<dyn Policy>, String>,
            |_| Ok(Box::new(NoKeepAlive) as Box<dyn Policy>),
        ] {
            // Render the trace as protocol lines.
            let mut input = String::from("{\"type\":\"init\",\"functions\":3}\n");
            for (t, batch) in trace.slot_batches(0, 10).iter() {
                for &(f, count) in batch {
                    input.push_str(&format!(
                        "{{\"type\":\"inv\",\"slot\":{t},\"f\":{},\"count\":{count}}}\n",
                        f.0
                    ));
                }
            }
            input.push_str("{\"type\":\"tick\",\"slot\":9}\n");

            let mut output = Vec::new();
            let summary =
                serve(input.as_bytes(), &mut output, &ServeConfig::default(), make).unwrap();
            let mut probe = make(&InitRecord {
                functions: 3,
                apps: vec![AppId(0); 3],
            })
            .unwrap();
            let mut batch = try_simulate(&trace, probe.as_mut(), SimConfig::new(0, 10)).unwrap();
            let mut served = summary.run.clone();
            batch.overhead_secs = 0.0;
            served.overhead_secs = 0.0;
            assert_eq!(served, batch);
        }
    }
}
