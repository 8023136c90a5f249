//! The skeleton every `bench_*` binary shares: one flag parser, one row
//! table, one `BENCH_*.json` writer, and one `--baseline`/`--gate` tail
//! over [`gate_against_baseline`].
//!
//! A binary describes itself with a [`BenchTool`] (its document, extra
//! flags, table columns, the throughput its gate reads, any `--assert`
//! floors) and supplies only the measurement:
//!
//! ```text
//! fn main() -> ExitCode {
//!     TOOL.main(measure)
//! }
//! ```

use crate::perf::{gate_against_baseline, BenchReport, BenchRow};
use spes_sim::text_table;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

/// The `--quick` population cap. Every committed quick row of
/// `BENCH_engine.json`, `BENCH_serve.json` and `BENCH_journal.json` was
/// measured at this size.
pub const QUICK_FUNCTIONS: usize = 120;

/// A flag beyond the ones every bench binary takes (`--functions`,
/// `--seed`, `--out`, `--quick`, `--help`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--iters K`: timed iterations per cell.
    Iters,
    /// `--scale` and `--scale-full`: the engine's population sweep.
    Scale,
    /// `--baseline FILE` and `--gate PCT`.
    Baseline,
    /// `--assert`: enforce the tool's floors.
    Assert,
}

/// The parsed flags of a bench binary.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// Population of each generated trace, already capped at
    /// [`QUICK_FUNCTIONS`] under `--quick` (default 800).
    pub functions: usize,
    /// Workload seed (default 7).
    pub seed: u64,
    /// Timed iterations per cell (default 5).
    pub iters: u32,
    /// Directory the document is written to (default `.`).
    pub out: PathBuf,
    /// Shrink every scenario to its 7-day CI shape.
    pub quick: bool,
    /// Run the population sweep instead of the scenario cells.
    pub scale: bool,
    /// With `scale`: add the million-function cell.
    pub scale_full: bool,
    /// Committed document to diff against.
    pub baseline: Option<PathBuf>,
    /// With `baseline`: allowed throughput drop in percent before the
    /// run fails.
    pub gate_pct: Option<f64>,
    /// Fail unless every row meets the tool's floors.
    pub assert: bool,
}

impl Default for BenchArgs {
    fn default() -> Self {
        Self {
            functions: 800,
            seed: 7,
            iters: 5,
            out: PathBuf::from("."),
            quick: false,
            scale: false,
            scale_full: false,
            baseline: None,
            gate_pct: None,
            assert: false,
        }
    }
}

fn parse_value<T>(flag: &str, text: &str) -> Result<T, String>
where
    T: FromStr,
    T::Err: Display,
{
    text.parse().map_err(|e| format!("invalid {flag}: {e}"))
}

impl BenchArgs {
    /// Parses `argv` (without the program name), accepting the common
    /// flags plus `extra`. `Ok(None)` means `--help` was asked for.
    ///
    /// # Errors
    /// Names the offending flag: an unknown flag, a missing or malformed
    /// value, a `--gate` that is not a finite non-negative percentage,
    /// `--gate` without `--baseline`, or `--scale-full` without
    /// `--scale`.
    fn parse(
        extra: &[Flag],
        argv: impl IntoIterator<Item = String>,
    ) -> Result<Option<Self>, String> {
        let mut args = Self::default();
        let mut argv = argv.into_iter();
        while let Some(flag) = argv.next() {
            let mut value = || {
                argv.next()
                    .ok_or_else(|| format!("missing value for {flag}"))
            };
            let accepts = |f: Flag| extra.contains(&f);
            match flag.as_str() {
                "--functions" => args.functions = parse_value(&flag, &value()?)?,
                "--seed" => args.seed = parse_value(&flag, &value()?)?,
                "--out" => args.out = PathBuf::from(value()?),
                "--quick" => args.quick = true,
                "--help" | "-h" => return Ok(None),
                "--iters" if accepts(Flag::Iters) => args.iters = parse_value(&flag, &value()?)?,
                "--scale" if accepts(Flag::Scale) => args.scale = true,
                "--scale-full" if accepts(Flag::Scale) => args.scale_full = true,
                "--baseline" if accepts(Flag::Baseline) => {
                    args.baseline = Some(PathBuf::from(value()?));
                }
                "--gate" if accepts(Flag::Baseline) => {
                    let pct: f64 = parse_value(&flag, &value()?)?;
                    // `f64::from_str` takes NaN, inf and negatives: NaN
                    // would pass every cell, a negative would fail any
                    // cell that is not that much faster.
                    if !(pct.is_finite() && pct >= 0.0) {
                        return Err(format!(
                            "invalid --gate: {pct} is not a finite, non-negative percentage"
                        ));
                    }
                    args.gate_pct = Some(pct);
                }
                "--assert" if accepts(Flag::Assert) => args.assert = true,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if args.gate_pct.is_some() && args.baseline.is_none() {
            return Err("--gate requires --baseline".to_owned());
        }
        if args.scale_full && !args.scale {
            return Err("--scale-full requires --scale".to_owned());
        }
        if args.quick {
            args.functions = args.functions.min(QUICK_FUNCTIONS);
        }
        Ok(Some(args))
    }
}

/// How a tool's `--baseline`/`--gate` tail reads and words its rows.
pub struct Gate<Row> {
    /// Heading of the delta table (`"delta"`, `"events/sec delta"`).
    pub heading: &'static str,
    /// Prefix of each failure line (`"perf gate"`).
    pub label: &'static str,
    /// Unit of the throughput in failure lines (`"slots/sec"`).
    pub unit: &'static str,
    /// The throughput the gate compares; higher is better.
    pub throughput: fn(&Row) -> f64,
}

/// A tool's `--assert` floors.
pub struct Floors<Row> {
    /// What a violated floor is called in its failure line.
    pub label: &'static str,
    /// One complaint per floor `row` misses; empty when it meets all.
    pub check: fn(&Row) -> Vec<String>,
}

/// One bench binary: everything that differs between `bench_engine`,
/// `bench_serve` and `bench_journal`.
pub struct BenchTool<R: BenchReport> {
    /// Binary name, for `--help` and the regenerate hint.
    pub bin: &'static str,
    /// Document written under `--out` (`BENCH_engine.json`).
    pub file: &'static str,
    /// [`Flag::Iters`] and [`Flag::Scale`] when accepted. `--baseline`
    /// and `--gate` come with [`BenchTool::gate`], `--assert` with
    /// [`BenchTool::floors`].
    pub flags: &'static [Flag],
    /// Heading of the row table.
    pub title: &'static str,
    /// Columns of the row table.
    pub columns: &'static [&'static str],
    /// One row's table cells, aligned with `columns`.
    pub cells: fn(&R::Row) -> Vec<String>,
    /// The baseline gate, for tools that take `--baseline`.
    pub gate: Option<Gate<R::Row>>,
    /// The floors, for tools that take `--assert`.
    pub floors: Option<Floors<R::Row>>,
}

impl<R: BenchReport> BenchTool<R> {
    /// Runs the binary on the process arguments; an error prints as
    /// `error: ...` and exits 1.
    pub fn main(
        &self,
        measure: impl FnOnce(&BenchArgs) -> Result<Vec<R::Row>, String>,
    ) -> ExitCode {
        match self.run(std::env::args().skip(1), measure) {
            Ok(code) => code,
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        }
    }

    /// Parses `argv`, measures, prints the row table, writes the
    /// document under `--out`, then judges it: against `--baseline` (the
    /// delta table prints either way; only a `--gate` failure exits 1)
    /// and, with `--assert`, against the floors.
    ///
    /// # Errors
    /// Returns a message for bad flags, a failed measurement, an
    /// unwritable output, or an unreadable baseline.
    fn run(
        &self,
        argv: impl IntoIterator<Item = String>,
        measure: impl FnOnce(&BenchArgs) -> Result<Vec<R::Row>, String>,
    ) -> Result<ExitCode, String> {
        let mut accepted = self.flags.to_vec();
        if self.gate.is_some() {
            accepted.push(Flag::Baseline);
        }
        if self.floors.is_some() {
            accepted.push(Flag::Assert);
        }
        let Some(args) = BenchArgs::parse(&accepted, argv)? else {
            println!("see the module docs of {}.rs for usage", self.bin);
            return Ok(ExitCode::SUCCESS);
        };
        let report = R::from_rows(measure(&args)?);
        let table: Vec<Vec<String>> = report.rows().iter().map(self.cells).collect();
        println!(
            "\n== {} ==\n{}",
            self.title,
            text_table(self.columns, &table)
        );
        let path = write_report(&args.out, self.file, &report)?;
        println!("-> {}", path.display());

        let mut passed = true;
        if let (Some(gate), Some(baseline)) = (&self.gate, &args.baseline) {
            passed &= self.judge(gate, baseline, args.gate_pct, &report)?;
        }
        if let (Some(floors), true) = (&self.floors, args.assert) {
            passed &= floors_hold(floors, &report);
        }
        Ok(if passed {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        })
    }

    /// Prints the delta table against the baseline at `path` and, with a
    /// tolerance, every failing cell plus the regenerate hint. Returns
    /// whether the gate passed; without a tolerance it always does.
    fn judge(
        &self,
        gate: &Gate<R::Row>,
        path: &Path,
        gate_pct: Option<f64>,
        report: &R,
    ) -> Result<bool, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read baseline {path:?}: {e}"))?;
        let baseline: R =
            serde_json::from_str(&text).map_err(|e| format!("parse baseline {path:?}: {e:?}"))?;
        let tolerance = gate_pct.unwrap_or(f64::INFINITY);
        let verdict = gate_against_baseline(&baseline, report, tolerance, gate.throughput);

        println!(
            "\n== {} vs baseline {} (tolerance {}%) ==",
            gate.heading,
            path.display(),
            if tolerance.is_finite() {
                format!("{tolerance:.0}")
            } else {
                "off".to_owned()
            }
        );
        let table: Vec<Vec<String>> = verdict
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.scenario.clone(),
                    r.policy.clone(),
                    r.baseline_throughput
                        .map_or_else(|| "-".to_owned(), |v| format!("{v:.0}")),
                    format!("{:.0}", r.current_throughput),
                    r.delta_pct
                        .map_or_else(|| "-".to_owned(), |v| format!("{v:+.1}%")),
                    r.status.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            text_table(
                &["scenario", "policy", "baseline", "current", "delta", "status"],
                &table
            )
        );

        if gate_pct.is_none() || verdict.passed() {
            return Ok(true);
        }
        for failure in verdict.failures() {
            eprintln!(
                "{}: {}/{} {} (baseline {}, current {:.0} {})",
                gate.label,
                failure.scenario,
                failure.policy,
                failure.status,
                failure
                    .baseline_throughput
                    .map_or_else(|| "absent".to_owned(), |v| format!("{v:.0}")),
                failure.current_throughput,
                gate.unit,
            );
        }
        eprintln!(
            "{} failed; if the trace shape legitimately changed, regenerate the committed {} \
             with `cargo run --release --bin {} -- --quick`",
            gate.label, self.file, self.bin
        );
        Ok(false)
    }
}

/// Prints one line per row that misses a floor; true when none does.
fn floors_hold<R: BenchReport>(floors: &Floors<R::Row>, report: &R) -> bool {
    let mut held = true;
    for row in report.rows() {
        let complaints = (floors.check)(row);
        if !complaints.is_empty() {
            held = false;
            let (scenario, policy) = row.cell();
            eprintln!(
                "{} violated on {scenario}/{policy}: {}",
                floors.label,
                complaints.join(", ")
            );
        }
    }
    held
}

/// Pretty-prints `report` to `dir/file`, creating `dir` first.
///
/// # Errors
/// Returns a message naming the path that could not be created or
/// written.
fn write_report<R: BenchReport>(dir: &Path, file: &str, report: &R) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create out dir: {e}"))?;
    let path = dir.join(file);
    let mut body = serde_json::to_string_pretty(report).map_err(|e| e.to_string())?;
    body.push('\n');
    std::fs::write(&path, body).map_err(|e| format!("write {path:?}: {e}"))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::{EngineBenchReport, EngineBenchRow};

    fn parse(extra: &[Flag], argv: &[&str]) -> Result<Option<BenchArgs>, String> {
        BenchArgs::parse(extra, argv.iter().map(|&a| a.to_owned()))
    }

    const ALL: [Flag; 4] = [Flag::Iters, Flag::Scale, Flag::Baseline, Flag::Assert];

    #[test]
    fn defaults_and_values_parse() {
        let args = parse(&ALL, &[]).unwrap().unwrap();
        assert_eq!(args, BenchArgs::default());
        let args = parse(
            &ALL,
            &[
                "--functions",
                "300",
                "--seed",
                "9",
                "--iters",
                "2",
                "--out",
                "dir",
                "--scale",
                "--scale-full",
                "--baseline",
                "b.json",
                "--gate",
                "40",
                "--assert",
            ],
        )
        .unwrap()
        .unwrap();
        assert_eq!(args.functions, 300);
        assert_eq!((args.seed, args.iters), (9, 2));
        assert_eq!(args.out, PathBuf::from("dir"));
        assert!(args.scale && args.scale_full && args.assert);
        assert_eq!(args.baseline, Some(PathBuf::from("b.json")));
        assert_eq!(args.gate_pct, Some(40.0));
        assert_eq!(parse(&[], &["--help"]).unwrap(), None);
    }

    #[test]
    fn quick_caps_the_population_once() {
        let args = parse(&[], &["--quick"]).unwrap().unwrap();
        assert_eq!(args.functions, QUICK_FUNCTIONS);
        let args = parse(&[], &["--functions", "40", "--quick"])
            .unwrap()
            .unwrap();
        assert_eq!(args.functions, 40);
        let args = parse(&[], &["--functions", "5000"]).unwrap().unwrap();
        assert_eq!(args.functions, 5000);
    }

    #[test]
    fn bad_flags_are_named() {
        let err = |extra: &[Flag], argv: &[&str]| parse(extra, argv).unwrap_err();
        assert_eq!(err(&ALL, &["--gate", "40"]), "--gate requires --baseline");
        assert_eq!(
            err(&ALL, &["--scale-full"]),
            "--scale-full requires --scale"
        );
        assert_eq!(err(&ALL, &["--bogus"]), "unknown flag --bogus");
        assert_eq!(err(&ALL, &["--seed"]), "missing value for --seed");
        assert!(err(&ALL, &["--functions", "many"]).starts_with("invalid --functions"));
        // Flags outside a tool's set are unknown to it.
        assert_eq!(err(&[], &["--iters", "3"]), "unknown flag --iters");
        assert_eq!(err(&[Flag::Iters], &["--assert"]), "unknown flag --assert");
        assert_eq!(
            err(&[Flag::Assert], &["--baseline", "b"]),
            "unknown flag --baseline"
        );
    }

    #[test]
    fn gate_rejects_values_that_switch_it_off() {
        for bad in ["NaN", "inf", "-inf", "-5"] {
            let err = parse(&ALL, &["--baseline", "b.json", "--gate", bad]).unwrap_err();
            assert!(err.starts_with("invalid --gate"), "{bad}: {err}");
        }
        let args = parse(&ALL, &["--baseline", "b.json", "--gate", "0"])
            .unwrap()
            .unwrap();
        assert_eq!(args.gate_pct, Some(0.0));
    }

    fn row(policy: &str, slots_per_sec: f64) -> EngineBenchRow {
        EngineBenchRow {
            scenario: "quick".into(),
            policy: policy.into(),
            n_functions: 120,
            slots: 10_080,
            iters: 1,
            secs: 10_080.0 / slots_per_sec,
            secs_min: 0.0,
            secs_max: 1.0,
            secs_std: 0.0,
            slots_per_sec,
        }
    }

    const TOOL: BenchTool<EngineBenchReport> = BenchTool {
        bin: "bench_test",
        file: "BENCH_test.json",
        flags: &[],
        title: "test rows",
        columns: &["scenario", "policy"],
        cells: |r| vec![r.scenario.clone(), r.policy.clone()],
        gate: Some(Gate {
            heading: "delta",
            label: "test gate",
            unit: "slots/sec",
            throughput: |r| r.slots_per_sec,
        }),
        floors: Some(Floors {
            label: "test claim",
            check: |r| {
                if r.slots_per_sec < 10.0 {
                    vec!["too slow".to_owned()]
                } else {
                    Vec::new()
                }
            },
        }),
    };

    #[test]
    fn run_writes_the_document_and_judges_it() {
        let dir = std::env::temp_dir().join(format!("spes-bench-cli-{}", std::process::id()));
        let base = dir.join("base").to_string_lossy().into_owned();
        let out = dir.join("out").to_string_lossy().into_owned();
        let baseline = dir
            .join("base/BENCH_test.json")
            .to_string_lossy()
            .into_owned();
        let code = |argv: &[&str], rows: Vec<EngineBenchRow>| {
            let argv = argv.iter().map(|&a| a.to_owned());
            TOOL.run(argv, |_| Ok(rows)).unwrap()
        };

        // The written document reads back as the report.
        assert_eq!(
            code(&["--out", &base], vec![row("a", 100.0)]),
            ExitCode::SUCCESS
        );
        let text = std::fs::read_to_string(&baseline).unwrap();
        assert!(text.ends_with("}\n"), "{text}");
        let back: EngineBenchReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.rows, vec![row("a", 100.0)]);

        let gated = |rows| {
            code(
                &["--out", &out, "--baseline", &baseline, "--gate", "40"],
                rows,
            )
        };
        assert_eq!(gated(vec![row("a", 90.0)]), ExitCode::SUCCESS);
        assert_eq!(gated(vec![row("a", 50.0)]), ExitCode::FAILURE);
        // A cell the baseline lacks fails the gate, but only with --gate.
        let rows = vec![row("a", 100.0), row("b", 100.0)];
        let plain = code(&["--out", &out, "--baseline", &baseline], rows.clone());
        assert_eq!(plain, ExitCode::SUCCESS);
        assert_eq!(gated(rows), ExitCode::FAILURE);
        // Floors only bite under --assert.
        assert_eq!(
            code(&["--out", &out], vec![row("a", 1.0)]),
            ExitCode::SUCCESS
        );
        let asserted = code(&["--out", &out, "--assert"], vec![row("a", 1.0)]);
        assert_eq!(asserted, ExitCode::FAILURE);
        // An unreadable baseline is an error, not a verdict.
        let missing = dir.join("absent.json").to_string_lossy().into_owned();
        let argv = ["--out", &out, "--baseline", &missing].map(str::to_owned);
        let err = TOOL.run(argv, |_| Ok(vec![row("a", 1.0)])).unwrap_err();
        assert!(err.starts_with("read baseline"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
