//! `serve-online`: SPES, fitted the way `spes-serve` fits it, serves the
//! first two days of the 2000-function paper-default trace through
//! `spes_sim::serve::serve`: every invocation is one protocol line,
//! parsed by the `serde_json` shim, answered with slot and snapshot
//! records, and written through to a binary journal.

use crate::checks::{invocations_per_function, Checks};
use crate::inputs::{self, FUNCTIONS};
use crate::layers::{self, Layers, ObserverPlan};
use crate::probe::{self, HostClock, RecordSink, StepCounts, TracedPolicy};
use crate::{mean_of, median_of, repeat, Report};
use spes_bench::spec_of;
use spes_core::{SpesConfig, SpesPolicy};
use spes_sim::suite::FitContext;
use spes_sim::{
    serve, DynObserver, EvictionAudit, Fairness, JournalMeta, JournalObserver, MemoryPressure,
    Policy, RunResult, ServeConfig, ServeSummary, SimConfig, SimDriver,
};
use spes_trace::{AppId, Slot, SlotBatches, SynthTrace};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Snapshot records are written every this many slots.
const SNAPSHOT_EVERY: Slot = 60;
/// Slots a session serves, from slot 0: two days, about 360 000 protocol
/// lines. A session then takes about a second, so one run holds a score
/// of them, each sampled by the host clock a few times.
const SERVED_SLOTS: Slot = 2 * 1440;
/// Sessions served on each set-up.
const SESSIONS_PER_SETUP: usize = 4;
/// Scratch directory for the write-through journal, under the working
/// directory; removed when the run ends.
const SCRATCH_DIR: &str = ".perfbench-tmp";

/// Everything a session needs, made before the first slot.
struct Setup {
    data: SynthTrace,
    spes: SpesPolicy,
    batches: SlotBatches,
    input: Vec<u8>,
    generate_s: f64,
    fit_s: f64,
    render_s: f64,
}

impl Setup {
    fn secs(&self) -> f64 {
        self.generate_s + self.fit_s + self.render_s
    }

    fn apps(&self) -> Vec<AppId> {
        self.data.trace.metas.iter().map(|m| m.app).collect()
    }

    /// Slots a session serves.
    fn n_slots(&self) -> Slot {
        SERVED_SLOTS.min(self.data.trace.n_slots)
    }
}

/// Renders the first `slots` slots of the trace as protocol lines: the
/// init record, one `inv` per (slot, function) event in slot order, and a
/// closing `tick`.
fn render(data: &SynthTrace, batches: &SlotBatches, slots: Slot) -> Result<Vec<u8>, String> {
    let trace = &data.trace;
    let mut out = Vec::with_capacity(batches.n_events() * 48);
    let apps: Vec<String> = trace.metas.iter().map(|m| m.app.0.to_string()).collect();
    let io = |e: std::io::Error| e.to_string();
    writeln!(
        out,
        "{{\"type\":\"init\",\"functions\":{},\"apps\":[{}]}}",
        trace.n_functions(),
        apps.join(",")
    )
    .map_err(io)?;
    for slot in 0..slots {
        for &(f, count) in batches.batch(slot) {
            writeln!(
                out,
                "{{\"type\":\"inv\",\"slot\":{slot},\"f\":{},\"count\":{count}}}",
                f.0
            )
            .map_err(io)?;
        }
    }
    writeln!(
        out,
        "{{\"type\":\"tick\",\"slot\":{}}}",
        slots.saturating_sub(1)
    )
    .map_err(io)?;
    Ok(out)
}

fn setup(trace_seed: u64) -> Result<Setup, String> {
    let begin = Instant::now();
    let data = inputs::generate(trace_seed)?;
    let generate_s = begin.elapsed().as_secs_f64();

    // As `spes-serve` does: build the registered policy on the fit trace.
    let begin = Instant::now();
    let spec = spec_of("spes", &SpesConfig::default()).ok_or("spes is registered")?;
    let built = spec.build(&FitContext {
        trace: &data.trace,
        train_start: 0,
        train_end: data.train_end,
        prior: &[],
    });
    let fit_s = begin.elapsed().as_secs_f64();
    let spes = built
        .as_any()
        .and_then(|any| any.downcast_ref::<SpesPolicy>())
        .ok_or("the spes factory builds a SpesPolicy")?
        .clone();

    let begin = Instant::now();
    let slots = SERVED_SLOTS.min(data.trace.n_slots);
    let batches = data.trace.slot_batches(0, slots);
    let input = render(&data, &batches, slots)?;
    let render_s = begin.elapsed().as_secs_f64();
    Ok(Setup {
        data,
        spes,
        batches,
        input,
        generate_s,
        fit_s,
        render_s,
    })
}

fn journal_path() -> PathBuf {
    Path::new(SCRATCH_DIR).join(format!("serve-{}.journal", std::process::id()))
}

/// One serving session over the rendered input; returns the summary and
/// the session's wall time.
fn session(
    setup: &Setup,
    sink: &mut RecordSink,
    policy: Box<dyn Policy>,
) -> Result<(ServeSummary, f64), String> {
    let journal = journal_path();
    std::fs::create_dir_all(SCRATCH_DIR).map_err(|e| format!("{SCRATCH_DIR}: {e}"))?;
    let config = ServeConfig {
        snapshot_every: Some(SNAPSHOT_EVERY),
        journal: Some(journal.clone()),
        ..ServeConfig::default()
    };
    let n = FUNCTIONS;
    let begin = Instant::now();
    let summary = serve(&setup.input[..], &mut *sink, &config, move |init| {
        if init.functions == n {
            Ok(policy)
        } else {
            Err(format!(
                "init declares {} functions, not {n}",
                init.functions
            ))
        }
    });
    let secs = begin.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&journal);
    summary.map(|s| (s, secs)).map_err(|e| e.to_string())
}

/// The serving window: open-ended, measured from slot 0.
fn serve_window() -> SimConfig {
    ServeConfig::default().sim
}

/// A direct driver replay of the batches a session is fed.
struct Replay {
    run: RunResult,
    observers: spes_sim::ObserverSet,
    /// Wall time of the whole replay.
    secs: f64,
    /// Of which inside driver calls (construction, steps, finish).
    in_driver_secs: f64,
}

/// Steps a driver over the same batches a session is fed, with the same
/// window, timing every driver call and optionally counting pool
/// decisions.
fn replay(
    setup: &Setup,
    policy: &mut dyn Policy,
    observers: Vec<Box<dyn DynObserver>>,
    mut counts: Option<&mut StepCounts>,
) -> Result<Replay, String> {
    let begin = Instant::now();
    let mut driver =
        SimDriver::new(FUNCTIONS, serve_window(), policy, observers).map_err(|e| e.to_string())?;
    let mut in_driver = begin.elapsed();
    for t in 0..setup.n_slots() {
        let batch = setup.batches.batch(t);
        let step = Instant::now();
        let outcome = driver.step(t, batch).map_err(|e| e.to_string())?;
        in_driver += step.elapsed();
        if let Some(counts) = counts.as_deref_mut() {
            counts.record(batch, &outcome);
            counts.settle(driver.pool());
        }
    }
    let finish = Instant::now();
    let (run, observers) = driver.finish_with_observers();
    in_driver += finish.elapsed();
    Ok(Replay {
        run,
        observers,
        secs: begin.elapsed().as_secs_f64(),
        in_driver_secs: in_driver.as_secs_f64(),
    })
}

/// The observers a session attaches, plus a journal to memory.
fn session_observers(apps: &[AppId]) -> Result<Vec<Box<dyn DynObserver>>, String> {
    Ok(vec![
        Box::new(MemoryPressure::new()),
        Box::new(Fairness::new(apps)),
        Box::new(EvictionAudit::new(spes_sim::PREMATURE_RELOAD_WINDOW)),
        Box::new(memory_journal()?),
    ])
}

fn memory_journal() -> Result<JournalObserver<Vec<u8>>, String> {
    let meta = JournalMeta {
        policy_name: "spes".to_owned(),
        n_functions: FUNCTIONS,
        config: serve_window(),
        trace_digest: 0,
        seed: 0,
        extra: Vec::new(),
    };
    JournalObserver::new(Vec::new(), &meta).map_err(|e| e.to_string())
}

/// Checks one session's output and counts its operations.
fn check_session(
    report: &mut Report,
    label: &str,
    setup: &Setup,
    summary: &ServeSummary,
    sink: &RecordSink,
) {
    let expected = invocations_per_function(&setup.batches, FUNCTIONS, 0, setup.n_slots());
    let checks: &mut Checks = &mut report.checks;
    checks.run_invariants(label, &summary.run, &expected);
    checks.check(summary.slots == u64::from(setup.n_slots()), || {
        format!(
            "{label}: {} slots closed of {}",
            summary.slots,
            setup.n_slots()
        )
    });
    checks.check(
        sink.last_line().starts_with(br#"{"type":"summary""#),
        || format!("{label}: the last record is not the summary"),
    );
    report.ops += summary.events;
    report.failed_ops += summary.rejected_lines + sink.error_records;
}

/// What one untraced serving session measured.
struct Session {
    /// Wall time, sampling the host clock excluded.
    run_s: f64,
    summary: ServeSummary,
    sink: RecordSink,
}

fn q3(run: &RunResult) -> f64 {
    run.csr_percentile(75.0).unwrap_or(f64::NAN)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let result = inputs::trace_seed_for(seed).and_then(|trace_seed| {
        if trace {
            traced(trace_seed)
        } else {
            untraced(trace_seed, seconds)
        }
    });
    let _ = std::fs::remove_dir(SCRATCH_DIR);
    result
}

fn untraced(trace_seed: u64, seconds: f64) -> Result<Report, String> {
    // Only the last set-up is kept, for the checks below.
    let mut last_setup = None;
    // The sink of the running session holds the host clock.
    let mut host = Some(HostClock::new());
    let iterations = repeat(seconds, 2, || {
        last_setup = None;
        let setup = setup(trace_seed)?;
        let mut sessions = Vec::with_capacity(SESSIONS_PER_SETUP);
        for _ in 0..SESSIONS_PER_SETUP {
            let mut sink = RecordSink::new(false);
            sink.host = host.take();
            let sampled_before = sink.host.as_ref().map_or(0.0, HostClock::spent_s);
            let (summary, secs) = session(&setup, &mut sink, Box::new(setup.spes.clone()))?;
            let clock = sink.host.take().ok_or("the sink keeps the host clock")?;
            let run_s = secs - (clock.spent_s() - sampled_before);
            host = Some(clock);
            sessions.push(Session {
                run_s,
                summary,
                sink,
            });
        }
        // The next set-up is not part of any session.
        if let Some(clock) = host.as_mut() {
            clock.pause();
        }
        let setup_s = setup.secs();
        last_setup = Some(setup);
        Ok((setup_s, sessions))
    })?;
    let setup = last_setup.ok_or("no iteration ran")?;
    let setup_s = median_of(&iterations, |(setup_s, _)| *setup_s);
    let sessions: Vec<Session> = iterations.into_iter().flat_map(|(_, s)| s).collect();

    let mut report = Report::default();
    for (i, s) in sessions.iter().enumerate() {
        check_session(
            &mut report,
            &format!("session {i}"),
            &setup,
            &s.summary,
            &s.sink,
        );
    }
    // The session must equal a direct driver replay of the same batches
    // with the same fitted policy, and every session must repeat.
    let mut spes = setup.spes.clone();
    let replayed = replay(&setup, &mut spes, session_observers(&setup.apps())?, None)?.run;
    let served = &sessions[0].summary.run;
    report
        .checks
        .same_run("session vs replay", served, &replayed);
    for s in &sessions[1..] {
        report
            .checks
            .same_run("repeat session", served, &s.summary.run);
    }

    let repeats: Vec<Vec<f64>> = sessions
        .iter()
        .map(|s| s.sink.slot_gaps_us().to_vec())
        .collect();
    let mut gaps = probe::per_slot_min(&repeats);
    report.metric("setup_s", setup_s, "s");
    let host = host.ok_or("the host clock came back")?;
    report.run_time(
        median_of(&sessions, |s| s.run_s),
        host.in_ref(mean_of(&sessions, |s| s.run_s)),
    );
    report.slot_times(&mut gaps);
    report.metric(
        "peak_rss_mb",
        probe::peak_rss_mb().unwrap_or(f64::NAN),
        "MiB",
    );
    Ok(report)
}

fn traced(trace_seed: u64) -> Result<Report, String> {
    let mut layers = Layers::default();
    let mut report = Report::default();
    let setup = setup(trace_seed)?;
    layers.generate_s = setup.generate_s;
    layers.add_fit("spes", setup.fit_s);
    let begin = Instant::now();
    std::hint::black_box(setup.data.trace.slot_batches(0, setup.n_slots()));
    layers.slot_batches_s = begin.elapsed().as_secs_f64();

    let mut plain = RecordSink::new(false);
    let (reference, untraced_s) = session(&setup, &mut plain, Box::new(setup.spes.clone()))?;
    check_session(&mut report, "untraced session", &setup, &reference, &plain);

    // The traced session: the writer is wrapped. The policy's hook time
    // is the engine's own RQ2 reading, `overhead_secs`, which covers
    // every slot here because serving measures from slot 0.
    let mut sink = RecordSink::new(true);
    let (summary, session_s) = session(&setup, &mut sink, Box::new(setup.spes.clone()))?;
    check_session(&mut report, "traced session", &setup, &summary, &sink);
    report
        .checks
        .same_run("traced vs untraced session", &reference.run, &summary.run);
    let session_hook_s = summary.run.overhead_secs;

    // Replay A: the session's engine, policy and observers without the
    // protocol.
    let plain_replay = replay(
        &setup,
        &mut setup.spes.clone(),
        session_observers(&setup.apps())?,
        None,
    )?;
    report
        .checks
        .same_run("session vs replay", &summary.run, &plain_replay.run);
    let replay_engine_s = plain_replay.secs - plain_replay.run.overhead_secs;

    // Replay B: every observer and the journal encoder wrapped.
    let mut traced_policy = TracedPolicy::new(Box::new(setup.spes.clone()));
    let plan = ObserverPlan {
        slot_series: false,
        counts: false,
    };
    let observers = vec![layers::traced_observers(
        plan,
        &setup.apps(),
        vec![Box::new(memory_journal()?)],
    )];
    let mut counts = StepCounts::new(FUNCTIONS);
    let Replay {
        run: traced_run,
        observers: mut set,
        secs: traced_replay_s,
        in_driver_secs,
    } = replay(&setup, &mut traced_policy, observers, Some(&mut counts))?;
    report
        .checks
        .same_run("session vs traced replay", &summary.run, &traced_run);
    let mut observed = layers::take_observed(&mut set)?;
    let (journal, journal_s) = observed
        .rest
        .take::<JournalObserver<Vec<u8>>>()
        .ok_or("the traced replay attaches a journal")?;
    layers.journal_events = observed.events;
    layers.journal_encode_s = journal_s;
    layers.journal_bytes = journal.into_inner().map_err(|e| e.to_string())?.len() as u64;
    // The driver's internal collector does the same work as its timed
    // twin; the journal is its own layer.
    let internal_collector_s = observed.observer_secs[0];
    layers.add_run(
        &traced_policy,
        &observed,
        counts.counts,
        in_driver_secs,
        internal_collector_s + journal_s,
    );

    layers.serve_write_s = sink.write_time.as_secs_f64();
    layers.serve_output_bytes = sink.bytes;
    layers.serve_lines = sink.lines;
    layers.serve_protocol_s = session_s - session_hook_s - layers.serve_write_s - replay_engine_s;
    layers.overhead_pct = (session_s - untraced_s) / untraced_s * 100.0;
    layers.unattributed_s = traced_replay_s - in_driver_secs;
    // The headline's gain is measured against fixed keep-alive on the
    // same trace, fitted the same way.
    let fixed_spec = spec_of("fixed-keep-alive", &SpesConfig::default()).ok_or("registered")?;
    let mut fixed = fixed_spec.build(&FitContext {
        trace: &setup.data.trace,
        train_start: 0,
        train_end: setup.data.train_end,
        prior: &[],
    });
    let baseline = replay(&setup, fixed.as_mut(), Vec::new(), None)?.run;
    layers.csr_p75 = q3(&summary.run);
    layers.wmt_min = summary.run.total_wmt() as f64;
    layers.csr_p75_gain_pct = (q3(&baseline) - q3(&summary.run)) / q3(&baseline) * 100.0;
    report.ops += 4 * u64::from(setup.n_slots());
    report.metrics = layers.metrics();
    Ok(report)
}
