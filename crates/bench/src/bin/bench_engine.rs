//! Engine-throughput benchmark: slots simulated per second, per
//! (scenario, policy) cell, written to `BENCH_engine.json` — and,
//! against a committed baseline, the CI perf-regression gate.
//!
//! Two kinds of policy share the quick cells. keep-forever,
//! fixed-keep-alive and no-keep-alive have trivial decision hooks, so
//! their slots/sec track the engine's event loop; keep-forever in
//! particular exercises the sparse case the span-based idle accounting
//! exists for — a large loaded set with few invocations per slot. spes,
//! defuse and hybrid-function are the hooks a `repro` run spends most of
//! its time in (histogram queries, S2/S3 adaptation), so their cells gate
//! the policy layer as well as the engine. Fitting stays outside the
//! timed section. Each cell is timed over `--iters` fresh simulations and
//! reported with mean/min/max/stddev, so a single noisy iteration is
//! visible instead of silently skewing the number.
//! `bench_engine --help` lists the flags.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::panic, clippy::unreachable)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

use spes_bench::bench_cli::{self, BenchArgs, BenchTool, Gate};
use spes_bench::perf::{bench_engine, bench_engine_scale, EngineBenchReport, EngineBenchRow};
use std::process::ExitCode;

const USAGE: &str = "\
bench_engine [--functions N] [--seed S] [--iters K] [--out DIR]
             [--quick] [--scale] [--scale-full] [--baseline FILE]
             [--gate PCT]

  --functions  population size of each generated trace (default 800)
  --seed       workload seed, decimal or 0x hex (default 7)
  --iters      timed iterations per (scenario, policy) cell (default 5)
  --out        directory for BENCH_engine.json (default: .)
  --quick      CI mode: shrink scenarios to tiny 7-day traces of at
               most 120 functions
  --scale      scale sweep instead of the scenario matrix: 1k/10k/100k
               functions on the 7-day paper-default shape, streamed
               through the step-driven engine (no materialised trace);
               rows carry scale-1k/... scenario labels
  --scale-full with --scale: add the million-function cell (local
               runs; too heavy for shared CI runners)
  --baseline   committed BENCH_engine.json to diff against; prints the
               per-cell delta table
  --gate       with --baseline: fail (exit 1) when any cell's
               slots/sec regresses more than PCT percent, or when the
               baseline is missing/stale for a measured cell";

const SCENARIOS: [&str; 2] = ["paper-default", "chain-heavy"];
const POLICIES: [&str; 6] = [
    "keep-forever",
    "fixed-keep-alive",
    "no-keep-alive",
    "spes",
    "defuse",
    "hybrid-function",
];

const TOOL: BenchTool<EngineBenchReport> = BenchTool {
    bin: "bench_engine",
    file: "BENCH_engine.json",
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
    gate: Gate {
        heading: "delta",
        label: "perf gate",
        unit: "slots/sec",
        throughput: |r| r.slots_per_sec,
    },
};

/// The populations of the `--scale` sweep; `--scale-full` adds the last.
const SCALE: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];

fn main() -> ExitCode {
    bench_cli::main(USAGE, |mut args| {
        let iters = args.value("--iters")?.unwrap_or(5);
        let sweep = sweep(args.flag("--scale"), args.flag("--scale-full"))?;
        TOOL.run(args, |bench| measure(bench, iters, sweep))
    })
}

/// The populations `--scale` and `--scale-full` select; `None` measures
/// the scenario cells instead.
fn sweep(scale: bool, full: bool) -> Result<Option<&'static [usize]>, String> {
    match (scale, full) {
        (false, false) => Ok(None),
        (false, true) => Err("--scale-full requires --scale".to_owned()),
        (true, false) => Ok(Some(&SCALE[..3])),
        (true, true) => Ok(Some(&SCALE)),
    }
}

fn measure(
    args: BenchArgs,
    iters: u32,
    sweep: Option<&[usize]>,
) -> Result<Vec<EngineBenchRow>, String> {
    if let Some(sizes) = sweep {
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
            "benchmarking engine on {scenario} ({} functions, {iters} iters{}) ...",
            args.functions,
            if args.quick { ", quick" } else { "" }
        );
        rows.extend(bench_engine(
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_full_only_extends_the_scale_sweep() {
        assert_eq!(sweep(false, false), Ok(None));
        assert_eq!(sweep(true, false), Ok(Some(&SCALE[..3])));
        assert_eq!(sweep(true, true), Ok(Some(&SCALE[..])));
        assert_eq!(
            sweep(false, true),
            Err("--scale-full requires --scale".to_owned())
        );
    }
}
