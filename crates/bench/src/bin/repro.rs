//! Regenerates every table and figure of the SPES paper's evaluation by
//! looping over the figure registry ([`spes_bench::figures::FIGURES`]).
//! The policy suite runs once, and only when a selected figure reads it.
//! Figures that describe SPES's fit (table1, 10, 12) are skipped with a
//! note when `--policies` leaves SPES out. `repro --help` lists the flags
//! and the scenario, policy and figure registries.

use spes_bench::bench_cli::{self, write_json, Args};
use spes_bench::figures;
use spes_bench::policies;
use spes_bench::scenario::{run_suite_comparison, Experiment, POLICY_ORDER};
use spes_core::SpesConfig;
use spes_trace::{synth, SynthTrace};
use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
repro [--fig <id>] [--scenario NAME] [--policies a,b,c] [--functions N]
      [--seed S] [--out DIR] [--trace FILE] [--quick] [--list-policies]
      [--list-figs]

  --fig        one id of the figure registry below (default: all);
               unknown ids are rejected up front
  --list-figs  print the figure registry and exit
  --scenario   named workload of the scenario registry below
               (default: paper-default)
  --policies   comma-separated names of the policy registry below
               (default: the paper's six-way comparison suite, marked
               *); any registered subset works, e.g. spes,defuse,oracle
  --list-policies  print the policy registry and exit
  --functions  population size of the synthetic trace (default 2000)
  --seed       workload seed, decimal or 0x hex (default 0xC0FFEE)
  --out        directory for JSON outputs (default: results)
  --trace      load a real trace (long-form CSV) instead of synthesising
  --quick      CI smoke mode: shrink the selected scenario to a tiny
               trace (<=200 functions, 7 days, 6-day training) so every
               figure regenerates in seconds; composes with --scenario
               and --policies";

/// The policy registry, one line per policy.
fn policy_registry() -> String {
    let mut text = String::new();
    for p in policies::REGISTRY {
        let marker = if POLICY_ORDER.contains(&p.name) {
            "*"
        } else {
            " "
        };
        let _ = writeln!(text, "  {marker} {:<19} {}", p.name, p.summary);
    }
    text + "  (* = in the default comparison suite)"
}

fn main() -> ExitCode {
    let scenarios: Vec<String> = synth::SCENARIOS
        .iter()
        .map(|s| format!("  {:<14} {}", s.name, s.summary))
        .collect();
    let help = format!(
        "{USAGE}\n\nregistered scenarios:\n{}\n\n\
         registered policies (see also --list-policies):\n{}\n\n\
         registered figures (see also --list-figs):\n{}",
        scenarios.join("\n"),
        policy_registry(),
        figures::listing()
    );
    bench_cli::main(&help, run)
}

fn run(mut args: Args) -> Result<ExitCode, String> {
    let list_policies = args.flag("--list-policies");
    let list_figs = args.flag("--list-figs");
    let fig = args.value("--fig")?.unwrap_or_else(|| "all".to_owned());
    let scenario = args
        .value("--scenario")?
        .unwrap_or_else(|| "paper-default".to_owned());
    let selected: Option<Vec<String>> = args.list("--policies")?;
    let functions: Option<NonZeroUsize> = args.value("--functions")?;
    let seed: Option<u64> = args.seed("--seed")?;
    let out: PathBuf = args
        .value("--out")?
        .unwrap_or_else(|| PathBuf::from("results"));
    let trace: Option<PathBuf> = args.value("--trace")?;
    let quick = args.flag("--quick");
    args.finish()?;
    if list_policies {
        println!("registered policies:\n{}", policy_registry());
        return Ok(ExitCode::SUCCESS);
    }
    if list_figs {
        println!("registered figures:\n{}", figures::listing());
        return Ok(ExitCode::SUCCESS);
    }
    // Validate the figure id up front so a typo fails in milliseconds,
    // with the same exit-code convention as unknown policy names.
    let selected_figures = figures::select(&fig)?;
    if trace.is_some() {
        // Each of these shapes the synthetic workload, which a loaded
        // trace replaces.
        let synthetic_only = [
            ("--quick", quick),
            ("--scenario", scenario != "paper-default"),
            ("--seed", seed.is_some()),
            ("--functions", functions.is_some()),
        ];
        if let Some((flag, _)) = synthetic_only.iter().find(|&&(_, given)| given) {
            return Err(format!(
                "{flag} shapes the synthetic workload and cannot be combined with --trace"
            ));
        }
    }

    // Resolve the policy suite up front so unknown names fail before any
    // trace is generated.
    let spes_cfg = SpesConfig::default();
    let policy_names: Vec<&str> = match &selected {
        Some(names) => names.iter().map(String::as_str).collect(),
        None => POLICY_ORDER.to_vec(),
    };
    if policy_names.is_empty() {
        return Err(format!(
            "--policies selected no policies; registered: {}",
            policies::policy_names().join(", ")
        ));
    }
    let suite = policies::suite_of(&policy_names, &spes_cfg).map_err(|e| e.to_string())?;
    spes_sim::validate_suite(&suite).map_err(|e| e.to_string())?;

    let data: SynthTrace = if let Some(path) = &trace {
        let file = std::fs::File::open(path).map_err(|e| format!("open trace file: {e}"))?;
        let trace = spes_trace::io::read_csv(std::io::BufReader::new(file), None)
            .map_err(|e| format!("parse trace CSV: {e}"))?;
        println!(
            "loaded real trace: {} functions, {} slots",
            trace.n_functions(),
            trace.n_slots
        );
        // Real traces carry no generator metadata: placeholder specs plus
        // the scaled fallback training boundary. Degenerate files (empty,
        // or too short to split into train/measure windows) are user
        // errors, not panics.
        SynthTrace::try_from_external(trace).map_err(|e| format!("unusable trace: {e}"))?
    } else {
        let mut synth_cfg = synth::scenario_config(&scenario).ok_or_else(|| {
            format!(
                "unknown scenario {:?}; registered: {}",
                scenario,
                synth::scenario_names().join(", ")
            )
        })?;
        if quick {
            // Shrinking the scenario keeps the full figure pipeline (and
            // the scenario's behavioural knobs) exercised while finishing
            // in CI seconds. The trace carries its own 6-day training
            // boundary, so the runners fit/measure on the right window by
            // construction.
            synth_cfg = synth_cfg.quick();
        }
        if let Some(n) = functions {
            synth_cfg.n_functions = n.get();
        }
        synth_cfg.seed = seed.unwrap_or(0xC0FFEE);
        println!(
            "SPES reproduction harness: scenario {}, {} functions, seed {:#x}{}",
            scenario,
            synth_cfg.n_functions,
            synth_cfg.seed,
            if quick { " (quick mode)" } else { "" }
        );
        Experiment { synth: synth_cfg }.generate()
    };

    // The suite figures sit together in the registry, so running the
    // suite on first need keeps its progress line right above them.
    let mut cmp = None;
    for fig in selected_figures {
        if fig.needs_suite() && cmp.is_none() {
            println!(
                "\nrunning the policy suite [{}] over the {}-day trace ...",
                policy_names.join(", "),
                data.trace.n_slots / spes_trace::SLOTS_PER_DAY
            );
            cmp = Some(run_suite_comparison(&data, &suite).map_err(|e| e.to_string())?);
        }
        println!("\n== {} ==", fig.heading());
        match fig.render(&data, &spes_cfg, cmp.as_ref()) {
            Some(rendered) => {
                print!("{}", rendered.text);
                for (file, document) in &rendered.documents {
                    write_json(&out, file, document)?;
                }
            }
            None => println!("skipped: the suite has no spes"),
        }
    }

    println!("\ndone.");
    Ok(ExitCode::SUCCESS)
}
