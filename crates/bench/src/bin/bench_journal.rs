//! Journal codec benchmark: events encoded and decoded per second by the
//! binary journal, per (scenario, policy) cell, written to
//! `BENCH_journal.json` — and, against a committed baseline, a
//! regression gate on that rate.
//!
//! Each cell's journal is round-trip verified against the engine's event
//! stream before anything is timed, so the rate is that of a codec that
//! demonstrably reproduces the run. `bench_journal --help` lists the
//! flags.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::panic, clippy::unreachable)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

use spes_bench::bench_cli::{self, BenchArgs, BenchTool, Gate};
use spes_bench::perf::{bench_journal, JournalBenchReport, JournalBenchRow};
use std::process::ExitCode;

const USAGE: &str = "\
bench_journal [--functions N] [--seed S] [--iters K] [--out DIR]
              [--quick] [--baseline FILE] [--gate PCT]

  --functions  population size of each generated trace (default 800)
  --seed       workload seed, decimal or 0x hex (default 7)
  --iters      timed iterations per (scenario, policy) cell (default 5)
  --out        directory for BENCH_journal.json (default: .)
  --quick      CI mode: shrink scenarios to tiny 7-day traces of at
               most 120 functions
  --baseline   committed BENCH_journal.json to diff against; prints the
               per-cell events/sec delta table
  --gate       with --baseline: fail (exit 1) when any cell encodes and
               decodes more than PCT percent slower than the baseline
               (or the baseline is missing/stale for a measured cell)";

const SCENARIOS: [&str; 2] = ["quick", "chain-heavy"];
const POLICIES: [&str; 2] = ["keep-forever", "fixed-keep-alive"];

const TOOL: BenchTool<JournalBenchReport> = BenchTool {
    bin: "bench_journal",
    file: "BENCH_journal.json",
    title: "journal codec (events encoded and decoded per second)",
    columns: &[
        "scenario", "policy", "events", "bytes", "encode s", "decode s", "events/s",
    ],
    cells: |r| {
        vec![
            r.scenario.clone(),
            r.policy.clone(),
            r.events.to_string(),
            r.bytes.to_string(),
            format!("{:.4}", r.encode_secs),
            format!("{:.4}", r.decode_secs),
            format!("{:.0}", r.events_per_sec),
        ]
    },
    gate: Gate {
        heading: "events/sec delta",
        label: "journal gate",
        unit: "events/sec",
        throughput: |r| r.events_per_sec,
    },
};

fn main() -> ExitCode {
    bench_cli::main(USAGE, |mut args| {
        let iters = args.value("--iters")?.unwrap_or(5);
        TOOL.run(args, |bench| measure(bench, iters))
    })
}

fn measure(args: BenchArgs, iters: u32) -> Result<Vec<JournalBenchRow>, String> {
    let mut rows = Vec::new();
    for scenario in SCENARIOS {
        println!(
            "benchmarking journal codec on {scenario} ({} functions, {iters} iters{}) ...",
            args.functions,
            if args.quick { ", quick" } else { "" }
        );
        rows.extend(bench_journal(
            scenario,
            args.functions,
            args.seed,
            &POLICIES,
            args.quick,
            iters,
        )?);
    }
    Ok(rows)
}
