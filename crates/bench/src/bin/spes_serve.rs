//! `spes-serve`: an online serving daemon over the line protocol of
//! [`mod@spes_sim::serve`].
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
//!
//! `spes-serve --help` lists the flags.

use spes_bench::bench_cli::{self, Args};
use spes_bench::policies::{self, PolicyCell};
use spes_bench::scenario::Experiment;
use spes_core::SpesConfig;
use spes_sim::{serve, InitRecord, Policy, ServeConfig, SimConfig};
use spes_trace::Slot;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
spes-serve [--policy NAME] [--fit-scenario NAME] [--functions N]
           [--fit-seed S] [--quick] [--capacity N] [--budget N]
           [--snapshot-every K] [--all-slots] [--listen ADDR] [--once]
           [--journal PATH] [--resume PATH] [--snapshot-out PATH]
spes-serve --emit-trace SCENARIO [--functions N] [--fit-seed S] [--quick]

  --policy         registered policy to serve (default fixed-keep-alive;
                   see `repro --list-policies`); faascache sizes its pool
                   from another policy's run and needs --capacity
  --fit-scenario   workload scenario the policy is fitted on before
                   serving (default paper-default)
  --functions      population size of the fit trace (default 400);
                   sessions may declare fewer functions in their init
                   record
  --fit-seed       seed of the fit trace, decimal or 0x hex (default 7)
  --quick          CI mode: shrink the fit trace to the 7-day quick
                   variant (the init record's population still rules)
  --capacity       hard pool capacity for served sessions
  --budget         soft pressure budget for served sessions
  --snapshot-every emit an observer snapshot record every K slots
  --all-slots      emit a slot record for idle slots too
  --listen ADDR    serve the line protocol on a TCP socket instead of
                   stdin/stdout; one session per connection
  --once           with --listen: exit after the first session
  --journal PATH   write every session's event stream through to a
                   binary journal at PATH (created/truncated per
                   session; inspect with spes-replay)
  --resume PATH    resume the session from a snapshot blob written by
                   --snapshot-out (the init record must declare the
                   snapshotted population); only policies that
                   snapshot their state (keep-forever, no-keep-alive)
                   can resume, any other exits with an error
  --snapshot-out   write a snapshot of the final driver state at
                   stream end, for a later --resume
  --emit-trace     print a registered scenario as protocol lines and
                   exit (for piping into another spes-serve)";

struct Options {
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
    journal: Option<PathBuf>,
    resume: Option<PathBuf>,
    snapshot_out: Option<PathBuf>,
}

impl Options {
    fn read(mut args: Args) -> Result<Self, String> {
        let options = Self {
            policy: args
                .value("--policy")?
                .unwrap_or_else(|| "fixed-keep-alive".to_owned()),
            fit_scenario: args
                .value("--fit-scenario")?
                .unwrap_or_else(|| "paper-default".to_owned()),
            functions: args.value("--functions")?.unwrap_or(400),
            fit_seed: args.seed("--fit-seed")?.unwrap_or(7),
            quick: args.flag("--quick"),
            capacity: args.value("--capacity")?,
            budget: args.value("--budget")?,
            snapshot_every: args.value("--snapshot-every")?,
            all_slots: args.flag("--all-slots"),
            listen: args.value("--listen")?,
            once: args.flag("--once"),
            emit_trace: args.value("--emit-trace")?,
            journal: args.value("--journal")?,
            resume: args.value("--resume")?,
            snapshot_out: args.value("--snapshot-out")?,
        };
        args.finish()?;
        if options.once && options.listen.is_none() {
            return Err("--once only applies with --listen".to_owned());
        }
        if options.resume.is_some() && options.listen.is_some() {
            // A snapshot is one session's state; it cannot seed an
            // open-ended sequence of TCP sessions.
            return Err("--resume only applies to a single stdio session".to_owned());
        }
        Ok(options)
    }
}

/// The scenario experiment named by the CLI, quick-shrunk on request.
fn experiment_of(args: &Options, scenario: &str) -> Result<Experiment, String> {
    Experiment::cell(scenario, args.functions, args.fit_seed, args.quick)
}

/// Prints a generated scenario as serve-protocol lines: the init record,
/// one `inv` per (slot, function) event in slot order, and a closing
/// `tick` so a downstream session flushes without relying on EOF.
fn emit_trace(args: &Options, scenario: &str) -> Result<(), String> {
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
fn build_policy(args: &Options, init: &InitRecord) -> Result<Box<dyn Policy>, String> {
    let mut exp = experiment_of(args, &args.fit_scenario)?;
    exp.synth.n_functions = init.functions;
    let data = exp.generate();
    Ok(PolicyCell::new(&args.policy, &data)?.build())
}

fn serve_config(args: &Options) -> Result<ServeConfig, String> {
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
fn serve_stdio(args: &Options) -> Result<(), String> {
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
fn serve_tcp(args: &Options, addr: &str) -> Result<(), String> {
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
    args: &Options,
    config: &ServeConfig,
    reader: R,
    writer: &mut W,
) -> Result<spes_sim::ServeSummary, String> {
    serve(reader, writer, config, |init| build_policy(args, init)).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    bench_cli::main(USAGE, |args| {
        let options = Options::read(args)?;
        run(&options)?;
        Ok(ExitCode::SUCCESS)
    })
}

fn run(args: &Options) -> Result<(), String> {
    if let Some(scenario) = &args.emit_trace {
        return emit_trace(args, scenario);
    }
    // Fail on unknown names and unservable policies before the first
    // session, not inside it.
    let spec = policies::try_spec_of(&args.policy, &SpesConfig::default())?;
    if args.capacity.is_none() && !spec.capacity().is_self_contained() {
        // FaaSCache's pool is SPES's peak in a suite run; a served
        // session has no SPES run to take it from.
        return Err(format!(
            "--policy {} sizes its pool from another policy's run; give its pool with --capacity",
            args.policy
        ));
    }
    experiment_of(args, &args.fit_scenario)?;
    match &args.listen {
        Some(addr) => serve_tcp(args, addr),
        None => serve_stdio(args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(argv: &[&str]) -> Result<Options, String> {
        Options::read(Args::new(argv.iter().map(|&a| a.to_owned())).unwrap())
    }

    #[test]
    fn a_policy_sized_by_another_run_needs_a_capacity() {
        let err = run(&options(&["--policy", "faascache"]).unwrap()).unwrap_err();
        assert!(err.contains("--capacity"), "{err}");
        let err = options(&["--once"]).err().unwrap();
        assert_eq!(err, "--once only applies with --listen");
    }
}
