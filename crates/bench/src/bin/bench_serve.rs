//! Serving-latency benchmark: per-slot decision latency on the
//! `spes-serve` hot path, per (scenario, policy) cell, written to
//! `BENCH_serve.json`.
//!
//! Each cell replays the scenario's pre-parsed invocation stream through
//! a [`spes_sim::SimDriver`], timing every `step` call individually — the
//! per-decision latency a protocol client waits when a slot closes,
//! excluding JSON parse and socket I/O. The same engine-dominated policy
//! set as `bench_engine` keeps the numbers about the serving path, not a
//! policy's own cost. `bench_serve --help` lists the flags.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::panic, clippy::unreachable)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

use spes_bench::bench_cli::{self, BenchArgs, BenchTool, Gate};
use spes_bench::perf::{bench_serve, ServeBenchReport, ServeBenchRow};
use std::process::ExitCode;

const USAGE: &str = "\
bench_serve [--functions N] [--seed S] [--out DIR] [--quick]
            [--baseline FILE] [--gate PCT]

  --functions  population size of each replayed trace (default 800)
  --seed       workload seed, decimal or 0x hex (default 7)
  --out        directory for BENCH_serve.json (default: .)
  --quick      CI mode: shrink scenarios to tiny 7-day traces of at
               most 120 functions
  --baseline   committed BENCH_serve.json to diff against; prints the
               per-cell events/sec delta table
  --gate       with --baseline: exit non-zero when any cell ingests
               more than PCT percent slower than the baseline (or the
               baseline is missing/stale for a measured cell)";

const SCENARIOS: [&str; 2] = ["paper-default", "chain-heavy"];
const POLICIES: [&str; 3] = ["keep-forever", "fixed-keep-alive", "no-keep-alive"];

const TOOL: BenchTool<ServeBenchReport> = BenchTool {
    bin: "bench_serve",
    file: "BENCH_serve.json",
    title: "serving decision latency (per-slot step)",
    columns: &[
        "scenario", "policy", "slots", "events", "p50 µs", "p99 µs", "max µs", "events/s",
    ],
    cells: |r| {
        vec![
            r.scenario.clone(),
            r.policy.clone(),
            r.slots.to_string(),
            r.events.to_string(),
            format!("{:.2}", r.p50_us),
            format!("{:.2}", r.p99_us),
            format!("{:.2}", r.max_us),
            format!("{:.0}", r.events_per_sec),
        ]
    },
    gate: Some(Gate {
        heading: "events/sec delta",
        label: "serve gate",
        unit: "events/sec",
        throughput: |r| r.events_per_sec,
    }),
    floors: None,
};

fn main() -> ExitCode {
    bench_cli::main(USAGE, |args| TOOL.run(args, measure))
}

fn measure(args: BenchArgs) -> Result<Vec<ServeBenchRow>, String> {
    let mut rows = Vec::new();
    for scenario in SCENARIOS {
        rows.extend(bench_serve(
            scenario,
            args.functions,
            args.seed,
            &POLICIES,
            args.quick,
        )?);
    }
    Ok(rows)
}
