//! `spes-fuzz`: adversarial scenario search over the synthetic-workload
//! knobs, written to `FUZZ_report.json`.
//!
//! Walks hill-climb on SPES regret vs the clairvoyant oracle; any point
//! where full SPES loses to the `w/o Adjusting` ablation by more than
//! the threshold is minimised toward paper-default knobs and reported
//! with a paste-ready scenario-registry snippet. `spes-fuzz --help`
//! lists the flags.

use spes_bench::bench_cli::{self, read_json, write_json, Args, Seed};
use spes_bench::fuzz::{run_fuzz, scenario_snippet, validate_report, FuzzConfig, FuzzReport};
use spes_sim::text_table;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
spes-fuzz [--seed S] [--walks N] [--steps N] [--functions N]
          [--eval-seeds CSV] [--threshold X] [--quick] [--out DIR]
spes-fuzz --validate FILE

  --seed        master seed of the walk RNG, decimal or 0x hex
                (default 57); the same seed reproduces the same walks
                and byte-identical JSON
  --walks       independent hill-climbing walks (default 8); walk 0
                always starts at the chain-heavy preset, the seed-57
                inversion's neighbourhood
  --steps       mutation steps per walk (default 4)
  --functions   starting population size per trace (default 150)
  --eval-seeds  comma-separated workload seeds per evaluation
                (default 57)
  --threshold   minimum adjusting inversion to count as a finding
                (default 0.005)
  --quick       CI mode: 7-day horizon per trace
  --out         directory for FUZZ_report.json (default: .)
  --validate    parse FILE as a FUZZ_report.json and check its
                structural invariants; exits non-zero on violation";

fn main() -> ExitCode {
    bench_cli::main(USAGE, run)
}

fn run(mut args: Args) -> Result<ExitCode, String> {
    let defaults = FuzzConfig::default();
    let eval_seeds = args.list::<Seed>("--eval-seeds")?;
    let config = FuzzConfig {
        master_seed: args.seed("--seed")?.unwrap_or(defaults.master_seed),
        walks: args.value("--walks")?.unwrap_or(defaults.walks),
        steps: args.value("--steps")?.unwrap_or(defaults.steps),
        n_functions: args.value("--functions")?.unwrap_or(defaults.n_functions),
        quick: args.flag("--quick") || defaults.quick,
        eval_seeds: eval_seeds.map_or(defaults.eval_seeds, |seeds| {
            seeds.into_iter().map(|Seed(seed)| seed).collect()
        }),
        inversion_threshold: args
            .value("--threshold")?
            .unwrap_or(defaults.inversion_threshold),
        minimise_budget: defaults.minimise_budget,
    };
    let out: PathBuf = args.value("--out")?.unwrap_or_else(|| PathBuf::from("."));
    let validate: Option<PathBuf> = args.value("--validate")?;
    args.finish()?;

    if let Some(path) = &validate {
        let report: FuzzReport = read_json(path)?;
        validate_report(&report).map_err(|e| format!("invalid report {path:?}: {e}"))?;
        println!(
            "{}: valid (seed {}, {} walks, {} evals, {} findings)",
            path.display(),
            report.master_seed,
            report.walks,
            report.evals,
            report.findings.len()
        );
        return Ok(ExitCode::SUCCESS);
    }

    let report = run_fuzz(&config, |line| println!("{line}"))?;

    println!("\n== spes-fuzz findings (adjusting inversions) ==");
    if report.findings.is_empty() {
        println!(
            "none above threshold {:.3} — the searched region is clean",
            report.inversion_threshold
        );
    } else {
        let table: Vec<Vec<String>> = report
            .findings
            .iter()
            .map(|f| {
                vec![
                    f.scenario_name.clone(),
                    format!("{:+.4}", f.score.inversion),
                    format!("{:+.4}", f.minimised_score.inversion),
                    format!("{:.2}", f.minimised.chain_prob),
                    format!("{:.2}", f.minimised.burst_bias),
                    format!("{:.2}", f.minimised.diurnal_fraction),
                    format!("{:.3}", f.minimised.unseen_fraction),
                    format!("{:.2}", f.minimised.shift_fraction),
                    f.minimised.n_functions.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            text_table(
                &[
                    "name", "inv", "min inv", "chain", "burst", "diurnal", "unseen", "shift",
                    "funcs"
                ],
                &table
            )
        );
        println!("\npaste-ready registry entries (crates/trace/src/synth/scenarios.rs):\n");
        for finding in &report.findings {
            println!("{}\n", scenario_snippet(finding));
        }
    }
    println!(
        "best regret {:.4} (inversion {:+.4}) at {:?} after {} evals",
        report.best.score.regret, report.best.score.inversion, report.best.point, report.evals
    );

    write_json(&out, "FUZZ_report.json", &report)?;
    Ok(ExitCode::SUCCESS)
}
