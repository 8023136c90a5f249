//! Regenerates every table and figure of the SPES paper's evaluation.
//!
//! Each figure prints a text table and writes `<out>/figN.json`.
//! Unknown scenario or policy names exit with an error instead of
//! panicking. Figures that describe SPES's fit (table1, 10, 12) are
//! skipped with a note when `--policies` leaves SPES out. `repro --help`
//! lists the flags and the scenario, policy and figure registries.

use spes_bench::bench_cli::{self, write_json, Args};
use spes_bench::figures_main::{self, Fig8};
use spes_bench::figures_sweep::{self, AblationRow, SweepPoint};
use spes_bench::figures_trace;
use spes_bench::policies;
use spes_bench::scenario::{run_suite_comparison, ComparisonRun, Experiment};
use spes_core::SpesConfig;
use spes_sim::text_table;
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

/// The figure registry: every `--fig` id with a one-line summary, in
/// presentation order. `all` selects everything below it.
const FIGS: [(&str, &str); 20] = [
    ("all", "every table and figure below (the default)"),
    ("3", "invocation-count distribution (heavy tail)"),
    ("4", "concept-shift examples (daily invocation counts)"),
    ("5", "trigger-type proportions"),
    ("6", "temporal locality of infrequent functions"),
    ("empirical", "Section III empirical statistics"),
    ("table1", "Table I census: functions per SPES type"),
    ("8", "cold-start-rate CDF and headline percentiles"),
    ("9", "normalised memory usage / always-cold functions"),
    ("10", "mean CSR per SPES function type"),
    ("11", "normalised WMT / EMCR"),
    ("12", "WMT / invocations ratio per SPES type"),
    ("overhead", "RQ2 scheduling overhead per simulated minute"),
    ("series", "hourly memory / cold-start / EMCR curves"),
    ("evictions", "eviction forensics (premature reloads)"),
    ("fairness", "per-app cold-start burden vs. invocation share"),
    ("pressure", "pool occupancy vs. budget"),
    ("13", "resource/latency trade-off sweeps"),
    ("14", "correlation-strategy ablation"),
    ("15", "concept-shift-strategy ablation"),
];

/// Every registered `--fig` id, registry order.
fn fig_ids() -> Vec<&'static str> {
    FIGS.iter().map(|&(id, _)| id).collect()
}

/// The policy registry, one line per policy.
fn policy_registry() -> String {
    let mut text = String::new();
    for p in policies::REGISTRY {
        let marker = if p.in_default_suite { "*" } else { " " };
        let _ = writeln!(text, "  {marker} {:<19} {}", p.name, p.summary);
    }
    text + "  (* = in the default comparison suite)"
}

/// The figure registry, one line per id.
fn fig_registry() -> String {
    FIGS.iter()
        .map(|(id, summary)| format!("  {id:<11} {summary}"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
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
        fig_registry()
    );
    bench_cli::main(&help, run)
}

#[allow(clippy::too_many_lines)]
fn run(mut args: Args) -> Result<ExitCode, String> {
    let list_policies = args.flag("--list-policies");
    let list_figs = args.flag("--list-figs");
    let fig = args.value("--fig")?.unwrap_or_else(|| "all".to_owned());
    let scenario = args
        .value("--scenario")?
        .unwrap_or_else(|| "paper-default".to_owned());
    let selected: Option<Vec<String>> = args.list("--policies")?;
    let functions: Option<NonZeroUsize> = args.value("--functions")?;
    let seed = args.seed("--seed")?.unwrap_or(0xC0FFEE);
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
        println!("registered figures:\n{}", fig_registry());
        return Ok(ExitCode::SUCCESS);
    }
    // Validate the figure id up front so a typo fails in milliseconds,
    // with the same exit-code convention as unknown policy names.
    if !fig_ids().contains(&fig.as_str()) {
        return Err(format!(
            "unknown figure {:?}; registered: {}",
            fig,
            fig_ids().join(", ")
        ));
    }
    let wants = |id: &str| fig == "all" || fig == id;
    if quick && trace.is_some() {
        return Err(
            "--quick synthesises its own tiny trace and cannot be combined with --trace".to_owned(),
        );
    }
    if trace.is_some() && scenario != "paper-default" {
        return Err(
            "--scenario selects a synthetic workload and cannot be combined with --trace"
                .to_owned(),
        );
    }

    // Resolve the policy suite up front so unknown names fail before any
    // trace is generated.
    let spes_cfg = SpesConfig::default();
    let policy_names: Vec<&str> = match &selected {
        Some(names) => names.iter().map(String::as_str).collect(),
        None => policies::REGISTRY
            .iter()
            .filter(|p| p.in_default_suite)
            .map(|p| p.name)
            .collect(),
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
        synth_cfg.seed = seed;
        println!(
            "SPES reproduction harness: scenario {}, {} functions, seed {:#x}{}",
            scenario,
            synth_cfg.n_functions,
            synth_cfg.seed,
            if quick { " (quick mode)" } else { "" }
        );
        Experiment { synth: synth_cfg }.generate()
    };

    // ---- trace-characterisation figures ----
    if wants("3") {
        let fig = figures_trace::fig3(&data);
        println!("\n== Fig. 3: invocation-count distribution (heavy tail) ==");
        let rows: Vec<Vec<String>> = fig
            .buckets
            .iter()
            .map(|(b, c)| vec![b.clone(), c.to_string()])
            .collect();
        println!("{}", text_table(&["invocations", "functions"], &rows));
        println!("silent functions: {}", fig.silent);
        write_json(&out, "fig3.json", &fig)?;
    }

    if wants("4") {
        let rows = figures_trace::fig4(&data, 3);
        println!("\n== Fig. 4: concept-shift examples (daily invocation counts) ==");
        for row in &rows {
            println!(
                "function {} shifts {} -> {} at slot {}: daily = {:?}",
                row.function, row.before, row.after, row.shift_at, row.daily
            );
        }
        write_json(&out, "fig4.json", &rows)?;
    }

    if wants("5") {
        let fig = figures_trace::fig5(&data);
        println!("\n== Fig. 5: trigger-type proportions ==");
        let rows: Vec<Vec<String>> = fig
            .rows
            .iter()
            .map(|(t, f)| vec![t.clone(), pct(*f)])
            .collect();
        println!("{}", text_table(&["trigger", "fraction"], &rows));
        write_json(&out, "fig5.json", &fig)?;
    }

    if wants("6") {
        let rows = figures_trace::fig6(&data, 5);
        println!("\n== Fig. 6: temporal locality of infrequent functions ==");
        for row in &rows {
            println!(
                "function {} ({} invocations) active periods: {:?}",
                row.function, row.total, row.active_periods
            );
        }
        write_json(&out, "fig6.json", &rows)?;
    }

    if wants("empirical") {
        let e = figures_trace::empirical(&data, 300);
        println!("\n== Section III empirical statistics ==");
        println!(
            "timer functions (quasi-)periodic: {} of {} examined (paper: 68.12%)",
            pct(e.timer_periodic_fraction),
            e.timer_examined
        );
        println!(
            "HTTP functions Poisson: {} of {} examined (paper: 45.02%)",
            pct(e.http_poisson_fraction),
            e.http_examined
        );
        println!(
            "mean COR candidates vs negatives: {:.4} vs {:.4} ({:.1}x; paper: 0.2312 vs 0.0504, 4.6x)",
            e.cor_candidates, e.cor_negative, e.cor_ratio
        );
        println!(
            "same-trigger vs different-trigger candidate COR: {:.4} vs {:.4} (paper: 0.2710 vs 0.1307)",
            e.cor_same_trigger, e.cor_diff_trigger
        );
        write_json(&out, "empirical.json", &e)?;
    }

    // ---- main evaluation (one shared suite run) ----
    let needs_comparison = [
        "table1",
        "8",
        "9",
        "10",
        "11",
        "12",
        "overhead",
        "series",
        "evictions",
        "fairness",
        "pressure",
    ]
    .iter()
    .any(|id| wants(id));
    let cmp: Option<ComparisonRun> = if needs_comparison {
        println!(
            "\nrunning the policy suite [{}] over the {}-day trace ...",
            policy_names.join(", "),
            data.trace.n_slots / spes_trace::SLOTS_PER_DAY
        );
        Some(run_suite_comparison(&data, &suite).map_err(|e| e.to_string())?)
    } else {
        None
    };

    let skip_spes_figure = |name: &str| {
        println!("\n== {name} skipped: the selected suite does not include spes ==");
    };

    if let Some(cmp) = &cmp {
        if wants("table1") {
            match figures_main::table1(cmp) {
                None => skip_spes_figure("Table I"),
                Some(census) => {
                    println!("\n== Table I census: functions per SPES type ==");
                    let rows: Vec<Vec<String>> = census
                        .rows
                        .iter()
                        .map(|(t, c)| vec![t.clone(), c.to_string()])
                        .collect();
                    println!("{}", text_table(&["type", "functions"], &rows));
                    println!(
                        "recovered by forgetting: {}; unseen in training: {}",
                        census.recovered_by_forgetting, census.unseen
                    );
                    write_json(&out, "table1.json", &census)?;
                }
            }
        }

        if wants("8") {
            let fig: Fig8 = figures_main::fig8(cmp);
            println!("\n== Fig. 8: cold-start-rate CDF and headline percentiles ==");
            let rows: Vec<Vec<String>> = fig
                .q3_csr
                .iter()
                .zip(&fig.p90_csr)
                .zip(&fig.warm_fraction)
                .map(|(((name, q3), (_, p90)), (_, warm))| {
                    vec![
                        name.clone(),
                        format!("{q3:.3}"),
                        format!("{p90:.3}"),
                        pct(*warm),
                    ]
                })
                .collect();
            println!(
                "{}",
                text_table(&["policy", "Q3-CSR", "P90-CSR", "fully-warm"], &rows)
            );
            println!(
                "SPES Q3-CSR improvement over best baseline: {:.2}% (paper: 49.77%)",
                fig.q3_improvement_pct
            );
            write_json(&out, "fig8.json", &fig)?;
        }

        if wants("9") {
            let fig = figures_main::fig9(cmp);
            println!("\n== Fig. 9: normalised memory usage / always-cold functions ==");
            let rows: Vec<Vec<String>> = fig
                .normalized_memory
                .iter()
                .zip(&fig.always_cold_pct)
                .map(|((name, mem), (_, cold))| {
                    vec![name.clone(), format!("{mem:.3}"), format!("{cold:.2}%")]
                })
                .collect();
            println!(
                "{}",
                text_table(&["policy", "memory (ref=1)", "always-cold"], &rows)
            );
            write_json(&out, "fig9.json", &fig)?;
        }

        if wants("10") {
            match figures_main::fig10(cmp) {
                None => skip_spes_figure("Fig. 10"),
                Some(fig) => {
                    println!("\n== Fig. 10: mean CSR per SPES function type ==");
                    let rows: Vec<Vec<String>> = fig
                        .rows
                        .iter()
                        .map(|(t, csr, n)| vec![t.clone(), format!("{csr:.3}"), n.to_string()])
                        .collect();
                    println!("{}", text_table(&["type", "mean CSR", "functions"], &rows));
                    write_json(&out, "fig10.json", &fig)?;
                }
            }
        }

        if wants("11") {
            let fig = figures_main::fig11(cmp);
            println!("\n== Fig. 11: normalised WMT / EMCR ==");
            let rows: Vec<Vec<String>> = fig
                .normalized_wmt
                .iter()
                .zip(&fig.emcr)
                .map(|((name, wmt), (_, emcr))| vec![name.clone(), format!("{wmt:.3}"), pct(*emcr)])
                .collect();
            println!("{}", text_table(&["policy", "WMT (ref=1)", "EMCR"], &rows));
            write_json(&out, "fig11.json", &fig)?;
        }

        if wants("12") {
            match figures_main::fig12(cmp) {
                None => skip_spes_figure("Fig. 12"),
                Some(fig) => {
                    println!("\n== Fig. 12: WMT / invocations ratio per SPES type ==");
                    let rows: Vec<Vec<String>> = fig
                        .rows
                        .iter()
                        .map(|(t, r)| vec![t.clone(), format!("{r:.2}")])
                        .collect();
                    println!("{}", text_table(&["type", "WMT ratio"], &rows));
                    write_json(&out, "fig12.json", &fig)?;
                }
            }
        }

        if wants("series") {
            // Hourly per-slot curves from the SlotSeries observers that
            // rode along the one suite simulation — no re-runs.
            let t = figures_main::timeline(cmp, 60);
            println!("\n== Per-slot series: hourly memory / cold-start / EMCR curves ==");
            let rows: Vec<Vec<String>> = t
                .policies
                .iter()
                .map(|p| {
                    let peak_hour_mem = p.mean_loaded.iter().copied().fold(0.0f64, f64::max);
                    let total_cold: u64 = p.cold.iter().sum();
                    let busiest_hour_cold = p.cold.iter().copied().max().unwrap_or(0);
                    vec![
                        p.policy.clone(),
                        p.mean_loaded.len().to_string(),
                        format!("{peak_hour_mem:.1}"),
                        total_cold.to_string(),
                        busiest_hour_cold.to_string(),
                    ]
                })
                .collect();
            println!(
                "{}",
                text_table(
                    &[
                        "policy",
                        "hours",
                        "peak mem (hourly)",
                        "cold total",
                        "cold max/hour"
                    ],
                    &rows
                )
            );
            write_json(&out, "series.json", &t)?;
        }

        if wants("evictions") {
            // Eviction forensics from the EvictionAudit observers of the
            // same one-suite simulation — no re-runs.
            let fig = figures_main::evictions(cmp);
            println!(
                "\n== Eviction forensics (premature = reloaded within {} slots) ==",
                fig.premature_window
            );
            let rows: Vec<Vec<String>> = fig
                .rows
                .iter()
                .map(|r| {
                    vec![
                        r.policy.clone(),
                        r.policy_evictions.to_string(),
                        r.capacity_evictions.to_string(),
                        r.reloads.to_string(),
                        r.premature_reloads.to_string(),
                        pct(r.premature_fraction),
                    ]
                })
                .collect();
            println!(
                "{}",
                text_table(
                    &[
                        "policy",
                        "policy evicts",
                        "capacity evicts",
                        "reloads",
                        "premature",
                        "premature frac"
                    ],
                    &rows
                )
            );
            write_json(&out, "evictions.json", &fig)?;
        }

        if wants("fairness") {
            // Per-app cold-start burden from the Fairness observers of
            // the same simulation.
            let fig = figures_main::fairness(cmp);
            println!("\n== Fairness: per-app cold-start burden vs. invocation share ==");
            let rows: Vec<Vec<String>> = fig
                .rows
                .iter()
                .map(|r| {
                    vec![
                        r.policy.clone(),
                        r.invoked_apps.to_string(),
                        format!("{:.3}", r.gini_csr),
                        format!("{:.2}", r.max_burden_ratio),
                        r.worst_apps
                            .first()
                            .map_or_else(|| "-".to_owned(), |w| format!("app {}", w.app)),
                    ]
                })
                .collect();
            println!(
                "{}",
                text_table(
                    &[
                        "policy",
                        "invoked apps",
                        "Gini(CSR)",
                        "max burden",
                        "worst app"
                    ],
                    &rows
                )
            );
            write_json(&out, "fairness.json", &fig)?;
        }

        if wants("pressure") {
            // Pool headroom from the MemoryPressure observers of the
            // same simulation.
            let fig = figures_main::pressure(cmp);
            println!("\n== Memory pressure: pool occupancy vs. budget ==");
            let rows: Vec<Vec<String>> = fig
                .rows
                .iter()
                .map(|r| {
                    vec![
                        r.policy.clone(),
                        r.budget
                            .map_or_else(|| "unlimited".to_owned(), |b| b.to_string()),
                        r.peak_occupancy.to_string(),
                        format!("{:.1}", r.mean_occupancy),
                        r.min_headroom
                            .map_or_else(|| "-".to_owned(), |h| h.to_string()),
                        pct(r.pressure_fraction),
                        r.rejected_loads.to_string(),
                    ]
                })
                .collect();
            println!(
                "{}",
                text_table(
                    &[
                        "policy",
                        "budget",
                        "peak",
                        "mean loaded",
                        "min headroom",
                        "slots at budget",
                        "rejected"
                    ],
                    &rows
                )
            );
            write_json(&out, "pressure.json", &fig)?;
        }

        if wants("overhead") {
            let table = figures_main::overhead(cmp);
            println!("\n== RQ2: scheduling overhead per simulated minute ==");
            let rows: Vec<Vec<String>> = table
                .rows
                .iter()
                .map(|(name, secs)| vec![name.clone(), format!("{:.3} ms", secs * 1e3)])
                .collect();
            println!("{}", text_table(&["policy", "decision time / min"], &rows));
            write_json(&out, "overhead.json", &table)?;
        }
    }

    // ---- sweeps and ablations (always SPES-parameterised) ----
    if wants("13") {
        println!("\n== Fig. 13: resource/latency trade-off sweeps ==");
        let prewarm: Vec<SweepPoint> = figures_sweep::fig13_prewarm(&data, &spes_cfg);
        let rows: Vec<Vec<String>> = prewarm
            .iter()
            .map(|p| {
                vec![
                    p.param.to_string(),
                    format!("{:.3}", p.normalized_memory),
                    format!("{:.3}", p.q3_csr),
                ]
            })
            .collect();
        println!("(a) theta_prewarm sweep");
        println!(
            "{}",
            text_table(&["theta", "memory (theta=2)", "Q3-CSR"], &rows)
        );
        write_json(&out, "fig13a.json", &prewarm)?;

        let givenup: Vec<SweepPoint> = figures_sweep::fig13_givenup(&data, &spes_cfg);
        let rows: Vec<Vec<String>> = givenup
            .iter()
            .map(|p| {
                vec![
                    p.param.to_string(),
                    format!("{:.3}", p.normalized_memory),
                    format!("{:.3}", p.q3_csr),
                ]
            })
            .collect();
        println!("(b) give-up scaler sweep");
        println!(
            "{}",
            text_table(&["scaler", "memory (x1)", "Q3-CSR"], &rows)
        );
        write_json(&out, "fig13b.json", &givenup)?;
    }

    let print_ablation = |title: &str, rows: &[AblationRow]| {
        println!("\n== {title} ==");
        let table_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.variant.clone(),
                    format!("{:.3}", r.q3_csr),
                    format!("{:.3}", r.normalized_memory),
                    format!("{:.3}", r.normalized_wmt),
                ]
            })
            .collect();
        println!(
            "{}",
            text_table(
                &["variant", "Q3-CSR", "memory (SPES=1)", "WMT (SPES=1)"],
                &table_rows
            )
        );
    };

    if wants("14") {
        let rows = figures_sweep::fig14(&data, &spes_cfg);
        print_ablation("Fig. 14: correlation-strategy ablation", &rows);
        write_json(&out, "fig14.json", &rows)?;
    }

    if wants("15") {
        let rows = figures_sweep::fig15(&data, &spes_cfg);
        print_ablation("Fig. 15: concept-shift-strategy ablation", &rows);
        write_json(&out, "fig15.json", &rows)?;
    }

    println!("\ndone.");
    Ok(ExitCode::SUCCESS)
}
