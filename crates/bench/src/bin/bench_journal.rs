//! Journal codec benchmark: the binary event codec against the
//! serde-shim JSON-lines path, per (scenario, policy) cell, written to
//! `BENCH_journal.json`.
//!
//! Both codecs are round-trip verified against the engine's event
//! stream before anything is timed, so the table compares formats that
//! demonstrably reproduce the run. `bench_journal --help` lists the
//! flags.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::panic, clippy::unreachable)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

use spes_bench::bench_cli::{self, BenchArgs, BenchTool, Floors};
use spes_bench::perf::{bench_journal, JournalBenchReport, JournalBenchRow};
use std::process::ExitCode;

const USAGE: &str = "\
bench_journal [--functions N] [--seed S] [--iters K] [--out DIR]
              [--quick] [--assert]

  --functions  population size of each generated trace (default 800)
  --seed       workload seed, decimal or 0x hex (default 7)
  --iters      timed iterations per (scenario, policy) cell (default 5)
  --out        directory for BENCH_journal.json (default: .)
  --quick      CI mode: shrink scenarios to tiny 7-day traces of at
               most 120 functions
  --assert     fail (exit 1) unless every cell is >=10x smaller and
               >=5x faster (encode and decode) than the JSON path";

const SCENARIOS: [&str; 2] = ["quick", "chain-heavy"];
const POLICIES: [&str; 2] = ["keep-forever", "fixed-keep-alive"];

/// The tentpole claims `--assert` enforces.
const MIN_SIZE_RATIO: f64 = 10.0;
const MIN_SPEEDUP: f64 = 5.0;

const TOOL: BenchTool<JournalBenchReport> = BenchTool {
    bin: "bench_journal",
    file: "BENCH_journal.json",
    title: "journal codec vs serde-shim JSON lines",
    columns: &[
        "scenario",
        "policy",
        "events",
        "binary B",
        "json B",
        "smaller",
        "enc speedup",
        "dec speedup",
    ],
    cells: |r| {
        vec![
            r.scenario.clone(),
            r.policy.clone(),
            r.events.to_string(),
            r.binary_bytes.to_string(),
            r.json_bytes.to_string(),
            format!("{:.1}x", r.size_ratio),
            format!("{:.1}x", r.encode_speedup),
            format!("{:.1}x", r.decode_speedup),
        ]
    },
    gate: None,
    floors: Some(Floors {
        label: "codec claim",
        check: codec_claims,
    }),
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

fn codec_claims(row: &JournalBenchRow) -> Vec<String> {
    let mut complaints = Vec::new();
    if row.size_ratio < MIN_SIZE_RATIO {
        complaints.push(format!(
            "size ratio {:.1}x < {MIN_SIZE_RATIO}x",
            row.size_ratio
        ));
    }
    if row.encode_speedup < MIN_SPEEDUP {
        complaints.push(format!(
            "encode speedup {:.1}x < {MIN_SPEEDUP}x",
            row.encode_speedup
        ));
    }
    if row.decode_speedup < MIN_SPEEDUP {
        complaints.push(format!(
            "decode speedup {:.1}x < {MIN_SPEEDUP}x",
            row.decode_speedup
        ));
    }
    complaints
}
