//! Regenerates every table and figure of the SPES paper's evaluation.
//!
//! ```text
//! repro [--fig <id>] [--scenario NAME] [--policies a,b,c] [--functions N]
//!       [--seed S] [--out DIR] [--trace FILE] [--quick] [--list-policies]
//!       [--list-figs]
//!
//!   --fig        3 | 4 | 5 | 6 | empirical | table1 | 8 | 9 | 10 | 11 |
//!                12 | 13 | 14 | 15 | overhead | series | evictions |
//!                fairness | pressure | all  (default: all); unknown ids
//!                are rejected up front
//!   --list-figs  print the figure registry and exit
//!   --scenario   named workload from the scenario registry
//!                (paper-default | quick | chain-heavy | bursty | diurnal |
//!                unseen-heavy | shift-heavy; default: paper-default)
//!   --policies   comma-separated policy names from the policy registry
//!                (default: the paper's six-way comparison suite); any
//!                registered subset works, e.g. spes,defuse,oracle
//!   --list-policies  print the policy registry and exit
//!   --functions  population size of the synthetic trace (default 2000)
//!   --seed       workload seed (default 0xC0FFEE)
//!   --out        directory for JSON outputs (default: results)
//!   --trace      load a real trace (long-form CSV) instead of synthesising
//!   --quick      CI smoke mode: shrink the selected scenario to a tiny
//!                trace (<=200 functions, 7 days, 6-day training) so every
//!                figure regenerates in seconds; composes with --scenario
//!                and --policies
//! ```
//!
//! Each figure prints a text table and writes `<out>/figN.json`.
//! Unknown scenario or policy names exit with an error instead of
//! panicking. Figures that describe SPES's fit (table1, 10, 12) are
//! skipped with a note when `--policies` leaves SPES out.

use spes_bench::figures_main::{self, Fig8};
use spes_bench::figures_sweep::{self, AblationRow, SweepPoint};
use spes_bench::figures_trace;
use spes_bench::policies;
use spes_bench::scenario::{run_suite_comparison, ComparisonRun, Experiment};
use spes_core::SpesConfig;
use spes_sim::text_table;
use spes_trace::{synth, SynthTrace};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

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

struct Args {
    fig: String,
    scenario: String,
    policies: Option<Vec<String>>,
    list_policies: bool,
    list_figs: bool,
    functions: Option<usize>,
    seed: u64,
    out: PathBuf,
    trace: Option<PathBuf>,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        fig: "all".to_owned(),
        scenario: "paper-default".to_owned(),
        policies: None,
        list_policies: false,
        list_figs: false,
        functions: None,
        seed: 0xC0FFEE,
        out: PathBuf::from("results"),
        trace: None,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--fig" => args.fig = value("--fig")?,
            "--scenario" => args.scenario = value("--scenario")?,
            "--policies" => {
                args.policies = Some(
                    value("--policies")?
                        .split(',')
                        .map(|s| s.trim().to_owned())
                        .filter(|s| !s.is_empty())
                        .collect(),
                )
            }
            "--list-policies" => args.list_policies = true,
            "--list-figs" => args.list_figs = true,
            "--functions" => {
                args.functions = Some(
                    value("--functions")?
                        .parse()
                        .map_err(|e| format!("invalid --functions: {e}"))?,
                )
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("invalid --seed: {e}"))?
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--trace" => args.trace = Some(PathBuf::from(value("--trace")?)),
            "--quick" => args.quick = true,
            "--help" | "-h" => {
                println!("see the module docs of repro.rs / README for usage");
                println!("\nregistered scenarios:");
                for s in synth::SCENARIOS {
                    println!("  {:<14} {}", s.name, s.summary);
                }
                println!("\nregistered policies (see also --list-policies):");
                print_policy_registry();
                println!("\nregistered figures (see also --list-figs):");
                print_fig_registry();
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn print_policy_registry() {
    for p in policies::REGISTRY {
        let marker = if p.in_default_suite { "*" } else { " " };
        println!("  {marker} {:<19} {}", p.name, p.summary);
    }
    println!("  (* = in the default comparison suite)");
}

fn print_fig_registry() {
    for (id, summary) in FIGS {
        println!("  {id:<11} {summary}");
    }
}

fn save_json<T: serde::Serialize>(out_dir: &Path, name: &str, value: &T) -> Result<(), String> {
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("create results dir {}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("{name}.json"));
    let body = serde_json::to_string_pretty(value).map_err(|e| format!("serialise {name}: {e}"))?;
    std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("  -> {}", path.display());
    Ok(())
}

fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[allow(clippy::too_many_lines)]
fn run() -> Result<(), String> {
    let args = parse_args()?;
    if args.list_policies {
        println!("registered policies:");
        print_policy_registry();
        return Ok(());
    }
    if args.list_figs {
        println!("registered figures:");
        print_fig_registry();
        return Ok(());
    }
    // Validate the figure id up front so a typo fails in milliseconds,
    // with the same exit-code convention as unknown policy names.
    if !fig_ids().contains(&args.fig.as_str()) {
        return Err(format!(
            "unknown figure {:?}; registered: {}",
            args.fig,
            fig_ids().join(", ")
        ));
    }
    let wants = |id: &str| args.fig == "all" || args.fig == id;
    if args.quick && args.trace.is_some() {
        return Err(
            "--quick synthesises its own tiny trace and cannot be combined with --trace".to_owned(),
        );
    }
    if args.trace.is_some() && args.scenario != "paper-default" {
        return Err(
            "--scenario selects a synthetic workload and cannot be combined with --trace"
                .to_owned(),
        );
    }

    // Resolve the policy suite up front so unknown names fail before any
    // trace is generated.
    let spes_cfg = SpesConfig::default();
    let policy_names: Vec<&str> = match &args.policies {
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

    let data: SynthTrace = if let Some(path) = &args.trace {
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
        let mut synth_cfg = synth::scenario_config(&args.scenario).ok_or_else(|| {
            format!(
                "unknown scenario {:?}; registered: {}",
                args.scenario,
                synth::scenario_names().join(", ")
            )
        })?;
        if args.quick {
            // Shrinking the scenario keeps the full figure pipeline (and
            // the scenario's behavioural knobs) exercised while finishing
            // in CI seconds. The trace carries its own 6-day training
            // boundary, so the runners fit/measure on the right window by
            // construction.
            synth_cfg = synth_cfg.quick();
        }
        if let Some(n) = args.functions {
            synth_cfg.n_functions = n;
        }
        synth_cfg.seed = args.seed;
        println!(
            "SPES reproduction harness: scenario {}, {} functions, seed {:#x}{}",
            args.scenario,
            synth_cfg.n_functions,
            synth_cfg.seed,
            if args.quick { " (quick mode)" } else { "" }
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
        save_json(&args.out, "fig3", &fig)?;
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
        save_json(&args.out, "fig4", &rows)?;
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
        save_json(&args.out, "fig5", &fig)?;
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
        save_json(&args.out, "fig6", &rows)?;
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
        save_json(&args.out, "empirical", &e)?;
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
                    save_json(&args.out, "table1", &census)?;
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
            save_json(&args.out, "fig8", &fig)?;
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
            save_json(&args.out, "fig9", &fig)?;
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
                    save_json(&args.out, "fig10", &fig)?;
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
            save_json(&args.out, "fig11", &fig)?;
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
                    save_json(&args.out, "fig12", &fig)?;
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
            save_json(&args.out, "series", &t)?;
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
            save_json(&args.out, "evictions", &fig)?;
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
            save_json(&args.out, "fairness", &fig)?;
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
            save_json(&args.out, "pressure", &fig)?;
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
            save_json(&args.out, "overhead", &table)?;
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
        save_json(&args.out, "fig13a", &prewarm)?;

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
        save_json(&args.out, "fig13b", &givenup)?;
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
        save_json(&args.out, "fig14", &rows)?;
    }

    if wants("15") {
        let rows = figures_sweep::fig15(&data, &spes_cfg);
        print_ablation("Fig. 15: concept-shift-strategy ablation", &rows);
        save_json(&args.out, "fig15", &rows)?;
    }

    println!("\ndone.");
    Ok(())
}
