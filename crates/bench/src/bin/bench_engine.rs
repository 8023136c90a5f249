//! Engine-throughput benchmark: slots simulated per second, per
//! (scenario, policy) cell, written to `BENCH_engine.json` — and,
//! against a committed baseline, the CI perf-regression gate.
//!
//! ```text
//! bench_engine [--functions N] [--seed S] [--iters K] [--out DIR]
//!              [--quick] [--scale] [--scale-full] [--baseline FILE]
//!              [--gate PCT]
//!
//!   --functions  population size of each generated trace (default 800)
//!   --seed       workload seed (default 7)
//!   --iters      timed iterations per (scenario, policy) cell (default 5)
//!   --out        directory for BENCH_engine.json (default: .)
//!   --quick      CI mode: shrink scenarios to tiny 7-day traces of at
//!                most 120 functions
//!   --scale      scale sweep instead of the scenario matrix: 1k/10k/100k
//!                functions on the 7-day paper-default shape, streamed
//!                through the step-driven engine (no materialised trace);
//!                rows carry scale-1k/... scenario labels
//!   --scale-full with --scale: add the million-function cell (local
//!                runs; too heavy for shared CI runners)
//!   --baseline   committed BENCH_engine.json to diff against; prints the
//!                per-cell delta table
//!   --gate       with --baseline: fail (exit 1) when any cell's
//!                slots/sec regresses more than PCT percent, or when the
//!                baseline is missing/stale for a measured cell
//! ```
//!
//! The policies are engine-dominated by construction (keep-forever,
//! fixed-keep-alive, no-keep-alive): their decision hooks are trivial,
//! so the slots/sec numbers track the engine's event loop rather than a
//! policy's own cost. keep-forever in particular exercises the sparse
//! case the span-based idle accounting exists for — a large loaded set
//! with few invocations per slot. Each cell is timed over `--iters`
//! fresh simulations and reported with mean/min/max/stddev, so a single
//! noisy iteration is visible instead of silently skewing the number.

use spes_bench::bench_cli::{BenchArgs, BenchTool, Flag, Gate};
use spes_bench::perf::{bench_engine, bench_engine_scale, EngineBenchReport, EngineBenchRow};
use std::process::ExitCode;

const SCENARIOS: [&str; 2] = ["paper-default", "chain-heavy"];
const POLICIES: [&str; 3] = ["keep-forever", "fixed-keep-alive", "no-keep-alive"];

const TOOL: BenchTool<EngineBenchReport> = BenchTool {
    bin: "bench_engine",
    file: "BENCH_engine.json",
    flags: &[Flag::Iters, Flag::Scale],
    title: "engine throughput (slots simulated per second)",
    columns: &[
        "scenario",
        "policy",
        "slots",
        "mean s",
        "min s",
        "max s",
        "std s",
        "slots/sec",
    ],
    cells: |r| {
        vec![
            r.scenario.clone(),
            r.policy.clone(),
            r.slots.to_string(),
            format!("{:.3}", r.secs),
            format!("{:.3}", r.secs_min),
            format!("{:.3}", r.secs_max),
            format!("{:.4}", r.secs_std),
            format!("{:.0}", r.slots_per_sec),
        ]
    },
    gate: Some(Gate {
        heading: "delta",
        label: "perf gate",
        unit: "slots/sec",
        throughput: |r| r.slots_per_sec,
    }),
    floors: None,
};

fn main() -> ExitCode {
    TOOL.main(measure)
}

fn measure(args: &BenchArgs) -> Result<Vec<EngineBenchRow>, String> {
    if args.scale {
        let sizes: &[usize] = if args.scale_full {
            &[1_000, 10_000, 100_000, 1_000_000]
        } else {
            &[1_000, 10_000, 100_000]
        };
        println!(
            "benchmarking engine scale sweep ({} cells, streamed paper-default quick shape) ...",
            sizes.len()
        );
        return bench_engine_scale(sizes, args.seed);
    }
    let mut rows = Vec::new();
    for scenario in SCENARIOS {
        // Quick mode applies each scenario's CI shrink (7-day horizon),
        // so both cells measure in seconds.
        println!(
            "benchmarking engine on {scenario} ({} functions, {} iters{}) ...",
            args.functions,
            args.iters,
            if args.quick { ", quick" } else { "" }
        );
        rows.extend(bench_engine(
            scenario,
            args.functions,
            args.seed,
            &POLICIES,
            args.quick,
            args.iters,
        )?);
    }
    Ok(rows)
}
