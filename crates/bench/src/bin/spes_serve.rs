//! `spes-serve`: an online serving daemon over the line protocol of
//! [`mod@spes_sim::serve`].
//!
//! ```text
//! spes-serve [--policy NAME] [--fit-scenario NAME] [--functions N]
//!            [--fit-seed S] [--quick] [--capacity N] [--budget N]
//!            [--snapshot-every K] [--all-slots] [--listen ADDR] [--once]
//!            [--journal PATH] [--resume PATH] [--snapshot-out PATH]
//! spes-serve --emit-trace SCENARIO [--functions N] [--fit-seed S] [--quick]
//!
//!   --policy         registered policy to serve (default fixed-keep-alive;
//!                    see `repro --list-policies`)
//!   --fit-scenario   workload scenario the policy is fitted on before
//!                    serving (default paper-default)
//!   --functions      population size of the fit trace; sessions may
//!                    declare fewer functions in their init record
//!   --fit-seed       seed of the fit trace (default 7)
//!   --quick          CI mode: shrink the fit trace to the 7-day quick
//!                    variant (the init record's population still rules)
//!   --capacity       hard pool capacity for served sessions
//!   --budget         soft pressure budget for served sessions
//!   --snapshot-every emit an observer snapshot record every K slots
//!   --all-slots      emit a slot record for idle slots too
//!   --listen ADDR    serve the line protocol on a TCP socket instead of
//!                    stdin/stdout; one session per connection
//!   --once           with --listen: exit after the first session
//!   --journal PATH   write every session's event stream through to a
//!                    binary journal at PATH (created/truncated per
//!                    session; inspect with spes-replay)
//!   --resume PATH    resume the session from a snapshot blob written by
//!                    --snapshot-out (the init record must declare the
//!                    snapshotted population); only policies that
//!                    snapshot their state (keep-forever, no-keep-alive)
//!                    can resume, any other exits with an error
//!   --snapshot-out   write a snapshot of the final driver state at
//!                    stream end, for a later --resume
//!   --emit-trace     print a registered scenario as protocol lines and
//!                    exit (for piping into another spes-serve)
//! ```
//!
//! Crash-safe serving is the combination: `--journal` makes the session
//! replayable after the fact, `--snapshot-out` + `--resume` splits it
//! across process restarts without replaying from slot zero (for
//! policies that snapshot their state).
//!
//! Without `--listen` the daemon reads one session from stdin and writes
//! newline-JSON records to stdout, so a replay is a plain pipe:
//!
//! ```text
//! spes-serve --emit-trace quick --quick | spes-serve --quick
//! ```

use spes_bench::policies::{self, PolicyCell};
use spes_bench::scenario::Experiment;
use spes_core::SpesConfig;
use spes_sim::{serve, InitRecord, Policy, ServeConfig, SimConfig};
use spes_trace::Slot;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::process::ExitCode;

struct Args {
    policy: String,
    fit_scenario: String,
    functions: usize,
    fit_seed: u64,
    quick: bool,
    capacity: Option<usize>,
    budget: Option<usize>,
    snapshot_every: Option<Slot>,
    all_slots: bool,
    listen: Option<String>,
    once: bool,
    emit_trace: Option<String>,
    journal: Option<std::path::PathBuf>,
    resume: Option<std::path::PathBuf>,
    snapshot_out: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        policy: "fixed-keep-alive".to_owned(),
        fit_scenario: "paper-default".to_owned(),
        functions: 400,
        fit_seed: 7,
        quick: false,
        capacity: None,
        budget: None,
        snapshot_every: None,
        all_slots: false,
        listen: None,
        once: false,
        emit_trace: None,
        journal: None,
        resume: None,
        snapshot_out: None,
    };
    let mut it = std::env::args().skip(1);
    let value = |flag: &str, it: &mut dyn Iterator<Item = String>| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--policy" => args.policy = value("--policy", &mut it)?,
            "--fit-scenario" => args.fit_scenario = value("--fit-scenario", &mut it)?,
            "--functions" => {
                args.functions = value("--functions", &mut it)?
                    .parse()
                    .map_err(|e| format!("--functions: {e}"))?;
            }
            "--fit-seed" => {
                args.fit_seed = value("--fit-seed", &mut it)?
                    .parse()
                    .map_err(|e| format!("--fit-seed: {e}"))?;
            }
            "--quick" => args.quick = true,
            "--capacity" => {
                args.capacity = Some(
                    value("--capacity", &mut it)?
                        .parse()
                        .map_err(|e| format!("--capacity: {e}"))?,
                );
            }
            "--budget" => {
                args.budget = Some(
                    value("--budget", &mut it)?
                        .parse()
                        .map_err(|e| format!("--budget: {e}"))?,
                );
            }
            "--snapshot-every" => {
                args.snapshot_every = Some(
                    value("--snapshot-every", &mut it)?
                        .parse()
                        .map_err(|e| format!("--snapshot-every: {e}"))?,
                );
            }
            "--all-slots" => args.all_slots = true,
            "--listen" => args.listen = Some(value("--listen", &mut it)?),
            "--once" => args.once = true,
            "--emit-trace" => args.emit_trace = Some(value("--emit-trace", &mut it)?),
            "--journal" => args.journal = Some(value("--journal", &mut it)?.into()),
            "--resume" => args.resume = Some(value("--resume", &mut it)?.into()),
            "--snapshot-out" => args.snapshot_out = Some(value("--snapshot-out", &mut it)?.into()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.functions == 0 {
        return Err("--functions must be at least 1".to_owned());
    }
    if args.once && args.listen.is_none() {
        return Err("--once only applies with --listen".to_owned());
    }
    if args.resume.is_some() && args.listen.is_some() {
        // A snapshot is one session's state; it cannot seed an open-ended
        // sequence of TCP sessions.
        return Err("--resume only applies to a single stdio session".to_owned());
    }
    Ok(args)
}

/// The scenario experiment named by the CLI, quick-shrunk on request.
fn experiment_of(args: &Args, scenario: &str) -> Result<Experiment, String> {
    Experiment::cell(scenario, args.functions, args.fit_seed, args.quick)
}

/// Prints a generated scenario as serve-protocol lines: the init record,
/// one `inv` per (slot, function) event in slot order, and a closing
/// `tick` so a downstream session flushes without relying on EOF.
fn emit_trace(args: &Args, scenario: &str) -> Result<(), String> {
    let data = experiment_of(args, scenario)?.generate();
    let trace = &data.trace;
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let apps: Vec<String> = trace.metas.iter().map(|m| m.app.0.to_string()).collect();
    writeln!(
        out,
        "{{\"type\":\"init\",\"functions\":{},\"apps\":[{}]}}",
        trace.n_functions(),
        apps.join(",")
    )
    .map_err(|e| e.to_string())?;

    for (slot, batch) in trace.slot_batches(0, trace.n_slots).iter() {
        for &(f, count) in batch {
            writeln!(
                out,
                "{{\"type\":\"inv\",\"slot\":{slot},\"f\":{},\"count\":{count}}}",
                f.0
            )
            .map_err(|e| e.to_string())?;
        }
    }
    writeln!(
        out,
        "{{\"type\":\"tick\",\"slot\":{}}}",
        trace.n_slots.saturating_sub(1)
    )
    .map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())
}

/// Builds the serving policy for one session: fits the registered policy
/// on a synthetic trace of the fit scenario, sized to the session's
/// declared population.
fn build_policy(args: &Args, init: &InitRecord) -> Result<Box<dyn Policy>, String> {
    let mut exp = experiment_of(args, &args.fit_scenario)?;
    exp.synth.n_functions = init.functions;
    let data = exp.generate();
    Ok(PolicyCell::new(&args.policy, &data)?.build())
}

fn serve_config(args: &Args) -> Result<ServeConfig, String> {
    let mut sim = SimConfig::new(0, Slot::MAX);
    if let Some(capacity) = args.capacity {
        sim = sim.with_capacity(capacity);
    }
    if let Some(budget) = args.budget {
        sim = sim.with_pressure_budget(budget);
    }
    let resume = args
        .resume
        .as_ref()
        .map(|path| std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display())))
        .transpose()?;
    Ok(ServeConfig {
        sim,
        snapshot_every: args.snapshot_every,
        emit_idle_slots: args.all_slots,
        journal: args.journal.clone(),
        resume,
        snapshot_out: args.snapshot_out.clone(),
    })
}

/// One stdin/stdout session.
fn serve_stdio(args: &Args) -> Result<(), String> {
    let config = serve_config(args)?;
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let summary = serve(stdin.lock(), &mut out, &config, |init| {
        build_policy(args, init)
    })
    .map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    eprintln!(
        "served {} slots / {} events with {}: {} decision records, {} snapshots, {} rejected lines",
        summary.slots,
        summary.events,
        summary.run.policy_name,
        summary.decisions,
        summary.snapshots,
        summary.rejected_lines
    );
    Ok(())
}

/// TCP mode: one protocol session per connection, sequentially. A failed
/// session is reported and the daemon keeps listening (unless `--once`).
fn serve_tcp(args: &Args, addr: &str) -> Result<(), String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    eprintln!("spes-serve listening on {local} (policy {})", args.policy);
    let config = serve_config(args)?;
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(s) => s,
            Err(e) => {
                eprintln!("accept failed: {e}");
                continue;
            }
        };
        let peer = stream
            .peer_addr()
            .map_or_else(|_| "<unknown>".to_owned(), |a| a.to_string());
        let reader = match stream.try_clone() {
            Ok(r) => BufReader::new(r),
            Err(e) => {
                eprintln!("session {peer}: clone failed: {e}");
                continue;
            }
        };
        let mut writer = std::io::BufWriter::new(stream);
        match serve_session(args, &config, reader, &mut writer) {
            Ok(summary) => eprintln!(
                "session {peer}: {} slots, {} decision records",
                summary.slots, summary.decisions
            ),
            Err(e) => eprintln!("session {peer}: {e}"),
        }
        let _ = writer.flush();
        if args.once {
            break;
        }
    }
    Ok(())
}

fn serve_session<R: BufRead, W: Write>(
    args: &Args,
    config: &ServeConfig,
    reader: R,
    writer: &mut W,
) -> Result<spes_sim::ServeSummary, String> {
    serve(reader, writer, config, |init| build_policy(args, init)).map_err(|e| e.to_string())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if let Some(scenario) = args.emit_trace.clone() {
        return emit_trace(&args, &scenario);
    }
    // Fail on unknown names before the first session, not inside it.
    policies::try_spec_of(&args.policy, &SpesConfig::default())?;
    experiment_of(&args, &args.fit_scenario)?;
    match args.listen.clone() {
        Some(addr) => serve_tcp(&args, &addr),
        None => serve_stdio(&args),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
