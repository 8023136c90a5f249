//! `spes-replay`: time-travel tooling over binary run journals.
//!
//! A full record → verify round trip:
//!
//! ```text
//! spes-replay --record --quick --journal-out run.jnl \
//!             --snapshot-slot 8700 --snapshot-out run.snap
//! spes-replay --summary run.jnl
//! spes-replay --check run.jnl --snapshot run.snap
//! ```
//!
//! `spes-replay --help` lists the flags.

use spes_bench::bench_cli::{self, Args};
use spes_bench::replay::{self, RecordConfig};
use spes_trace::{FunctionId, Slot};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
spes-replay --record --journal-out J [--scenario S] [--policy P]
            [--functions N] [--seed K] [--quick]
            [--snapshot-slot T --snapshot-out SNAP]
spes-replay --summary JOURNAL
spes-replay --slot N JOURNAL
spes-replay --why-evict f@slot JOURNAL
spes-replay --check JOURNAL [--snapshot SNAP]

  --record         run a registered (scenario, policy) cell with a
                   journal write-through and write it to --journal-out
                   (defaults: --scenario quick, --policy
                   fixed-keep-alive, --functions 400, --seed 7, decimal
                   or 0x hex); prints the run's summary, the same
                   text --summary prints for the journal
  --snapshot-slot  while recording, also snapshot the driver at this
                   slot boundary (written to --snapshot-out)
  --summary        replay the journal through the live run's observers:
                   header metadata, event and slot counts, the paper's
                   metrics over the measured window (equal to the live
                   run's), pre-warm loads, and eviction forensics
  --slot N         print every event of slot N in emission order
  --why-evict      explain one eviction causally: who loaded the
                   instance, when it was last used, what displaced
                   it, and what the eviction cost (format: 12@340
                   for function 12 at slot 340)
  --check          re-simulate the run from the journal's own
                   metadata and diff the regenerated event stream;
                   with --snapshot, resume from the blob instead of
                   replaying from the start. Exits 1 on divergence.";

const PICK_ONE: &str = "pick one of --record / --summary / --slot / --why-evict / --check";

enum Mode {
    Record,
    Summary,
    Slot(Slot),
    WhyEvict(FunctionId, Slot),
    Check,
}

/// Parses `12@340` into (function 12, slot 340).
fn parse_target(spec: &str) -> Result<(FunctionId, Slot), String> {
    let (f, slot) = spec
        .split_once('@')
        .ok_or_else(|| format!("--why-evict wants f@slot (e.g. 12@340), got {spec:?}"))?;
    let f = f
        .trim_start_matches('f')
        .parse()
        .map_err(|e| format!("--why-evict function: {e}"))?;
    let slot = slot.parse().map_err(|e| format!("--why-evict slot: {e}"))?;
    Ok((FunctionId(f), slot))
}

fn read_file(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn journal_bytes(journal: Option<&Path>) -> Result<Vec<u8>, String> {
    read_file(journal.ok_or("this mode needs a JOURNAL path argument")?)
}

fn record(
    config: &RecordConfig,
    journal_out: Option<&Path>,
    snapshot_out: Option<&Path>,
) -> Result<(), String> {
    let journal_out = journal_out.ok_or("--record needs --journal-out PATH")?;
    if config.snapshot_slot.is_some() && snapshot_out.is_none() {
        return Err("--snapshot-slot needs --snapshot-out PATH".to_owned());
    }
    let recording = replay::record(config)?;
    std::fs::write(journal_out, &recording.journal)
        .map_err(|e| format!("{}: {e}", journal_out.display()))?;
    if let Some(path) = snapshot_out {
        let snapshot = recording
            .snapshot
            .as_ref()
            .ok_or("record() produced no snapshot despite --snapshot-slot")?;
        std::fs::write(path, snapshot).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "snapshot at slot {}: {} bytes -> {}",
            config.snapshot_slot.unwrap_or(0),
            snapshot.len(),
            path.display()
        );
    }
    println!("{}", recording.summary);
    Ok(())
}

fn main() -> ExitCode {
    bench_cli::main(USAGE, run)
}

fn run(mut args: Args) -> Result<ExitCode, String> {
    let mut modes = Vec::new();
    if args.flag("--record") {
        modes.push(Mode::Record);
    }
    if args.flag("--summary") {
        modes.push(Mode::Summary);
    }
    if let Some(slot) = args.value("--slot")? {
        modes.push(Mode::Slot(slot));
    }
    if let Some(target) = args.value::<String>("--why-evict")? {
        let (f, slot) = parse_target(&target)?;
        modes.push(Mode::WhyEvict(f, slot));
    }
    if args.flag("--check") {
        modes.push(Mode::Check);
    }
    let config = RecordConfig {
        scenario: args
            .value("--scenario")?
            .unwrap_or_else(|| "quick".to_owned()),
        policy: args
            .value("--policy")?
            .unwrap_or_else(|| "fixed-keep-alive".to_owned()),
        n_functions: args.value("--functions")?.unwrap_or(400),
        seed: args.seed("--seed")?.unwrap_or(7),
        quick: args.flag("--quick"),
        snapshot_slot: args.value("--snapshot-slot")?,
    };
    let journal_out: Option<PathBuf> = args.value("--journal-out")?;
    let snapshot_out: Option<PathBuf> = args.value("--snapshot-out")?;
    let snapshot: Option<PathBuf> = args.value("--snapshot")?;
    let journal = args.positional().map(PathBuf::from);
    args.finish()?;
    let [mode] = <[Mode; 1]>::try_from(modes).map_err(|_| PICK_ONE)?;

    match mode {
        Mode::Record => record(&config, journal_out.as_deref(), snapshot_out.as_deref())?,
        Mode::Summary => println!(
            "{}",
            replay::summarize(&journal_bytes(journal.as_deref())?)?
        ),
        Mode::Slot(slot) => {
            let events = replay::slot_events(&journal_bytes(journal.as_deref())?, slot)?;
            if events.is_empty() {
                println!("slot {slot}: no events (idle slot)");
            }
            for event in &events {
                let marker = if event.measured { " " } else { "~" };
                println!("{marker} {}", replay::describe_event(&event.event));
            }
        }
        Mode::WhyEvict(f, slot) => {
            let journal = journal_bytes(journal.as_deref())?;
            println!("{}", replay::why_evict(&journal, f, slot)?);
        }
        Mode::Check => {
            let journal = journal_bytes(journal.as_deref())?;
            let snapshot = snapshot.as_deref().map(read_file).transpose()?;
            let report = replay::check(&journal, snapshot.as_deref())?;
            let Some(divergence) = &report.divergence else {
                println!(
                    "OK: {} events reproduced bit-identically{}",
                    report.events,
                    report
                        .resumed_at
                        .map_or_else(String::new, |at| format!(" (resumed at slot {at})"))
                );
                return Ok(ExitCode::SUCCESS);
            };
            println!("{divergence}");
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}
