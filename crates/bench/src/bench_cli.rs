//! The front end every workspace binary shares: one pull-style flag
//! parser ([`Args`]), one error exit ([`main`]), one JSON document
//! writer and reader ([`write_json`], [`read_json`]), and the skeleton
//! of the `bench_*` tools ([`BenchTool`]).
//!
//! A binary keeps its usage block in one `const USAGE` and reads the
//! flags it accepts; anything it does not read is an error:
//!
//! ```text
//! fn main() -> ExitCode {
//!     bench_cli::main(USAGE, |mut args| {
//!         let seed = args.seed("--seed")?.unwrap_or(7);
//!         let quick = args.flag("--quick");
//!         args.finish()?;
//!         ...
//!     })
//! }
//! ```

use crate::perf::{gate_against_baseline, BenchReport, BenchRow};
use serde::{Deserialize, Serialize};
use spes_sim::text_table;
use std::fmt::Display;
use std::num::ParseIntError;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

/// Runs a binary on the process arguments: `--help` or `-h` anywhere
/// prints `usage` and exits 0, an error prints as `error: ...` and
/// exits 1.
pub fn main(usage: &str, run: impl FnOnce(Args) -> Result<ExitCode, String>) -> ExitCode {
    let Some(args) = Args::new(std::env::args().skip(1)) else {
        println!("{usage}");
        return ExitCode::SUCCESS;
    };
    run(args).unwrap_or_else(|message| {
        eprintln!("error: {message}");
        ExitCode::FAILURE
    })
}

/// A command line, consumed flag by flag. Each accessor removes what it
/// reads and [`Args::finish`] rejects the rest, so a binary accepts
/// exactly the flags it reads. A repeated flag keeps its last value.
#[derive(Debug)]
pub struct Args(Vec<String>);

impl Args {
    /// Wraps `argv` (without the program name); `None` when it asks for
    /// `--help` or `-h`.
    pub fn new(argv: impl IntoIterator<Item = String>) -> Option<Self> {
        let argv: Vec<String> = argv.into_iter().collect();
        let help = argv.iter().any(|a| a == "--help" || a == "-h");
        (!help).then_some(Self(argv))
    }

    /// Whether the switch `name` was given.
    pub fn flag(&mut self, name: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != name);
        self.0.len() < before
    }

    /// The value after `name`, parsed as `T`; `None` when `name` is
    /// absent.
    ///
    /// # Errors
    /// Names the flag when its value is missing or does not parse.
    pub fn value<T>(&mut self, name: &str) -> Result<Option<T>, String>
    where
        T: FromStr,
        T::Err: Display,
    {
        let mut text = None;
        while let Some(at) = self.0.iter().position(|a| a == name) {
            if at + 1 == self.0.len() {
                return Err(format!("missing value for {name}"));
            }
            text = Some(self.0.remove(at + 1));
            self.0.remove(at);
        }
        text.map(|t| t.parse().map_err(|e| format!("invalid {name}: {e}")))
            .transpose()
    }

    /// A seed after `name`, in decimal or `0x` hex.
    ///
    /// # Errors
    /// As [`Args::value`].
    pub fn seed(&mut self, name: &str) -> Result<Option<u64>, String> {
        Ok(self.value::<Seed>(name)?.map(|Seed(seed)| seed))
    }

    /// The comma-separated values after `name`, each trimmed and parsed
    /// as `T`; empty entries are skipped.
    ///
    /// # Errors
    /// As [`Args::value`], naming the entry that does not parse.
    pub fn list<T>(&mut self, name: &str) -> Result<Option<Vec<T>>, String>
    where
        T: FromStr,
        T::Err: Display,
    {
        let Some(text) = self.value::<String>(name)? else {
            return Ok(None);
        };
        text.split(',')
            .map(str::trim)
            .filter(|entry| !entry.is_empty())
            .map(|entry| {
                entry
                    .parse()
                    .map_err(|e| format!("invalid {name} entry {entry:?}: {e}"))
            })
            .collect::<Result<_, _>>()
            .map(Some)
    }

    /// The first argument that is not a flag. Read it after every
    /// [`Args::value`], which would otherwise lose its value to it.
    pub fn positional(&mut self) -> Option<String> {
        let at = self.0.iter().position(|a| !a.starts_with('-'))?;
        Some(self.0.remove(at))
    }

    /// Ends parsing.
    ///
    /// # Errors
    /// Names the first flag or argument nothing read.
    pub fn finish(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(flag) if flag.starts_with('-') => Err(format!("unknown flag {flag}")),
            Some(arg) => Err(format!("unexpected argument {arg:?}")),
        }
    }
}

/// A seed written in decimal or as `0x` hex: `12648430` and `0xC0FFEE`
/// are the same seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seed(pub u64);

impl FromStr for Seed {
    type Err = ParseIntError;

    fn from_str(text: &str) -> Result<Self, Self::Err> {
        match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => text.parse(),
        }
        .map(Self)
    }
}

/// Writes `value` to `dir/file` as pretty JSON plus a final newline,
/// creating `dir` first, and prints the path.
///
/// # Errors
/// Names the path that could not be created or written.
pub fn write_json<T: Serialize>(dir: &Path, file: &str, value: &T) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(file);
    let mut body = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    body.push('\n');
    std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("-> {}", path.display());
    Ok(())
}

/// Reads a JSON document such as [`write_json`] writes.
///
/// # Errors
/// Names the path that could not be read or parsed as `T`.
pub fn read_json<T: Deserialize>(path: &Path) -> Result<T, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// The `--quick` population cap. Every committed quick row of
/// `BENCH_engine.json`, `BENCH_serve.json` and `BENCH_journal.json` was
/// measured at this size.
pub const QUICK_FUNCTIONS: usize = 120;

/// The flags every bench measurement reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchArgs {
    /// Population of each generated trace (`--functions`, default 800),
    /// already capped at [`QUICK_FUNCTIONS`] under `--quick`.
    pub functions: usize,
    /// Workload seed (`--seed`, default 7).
    pub seed: u64,
    /// Shrink every scenario to its 7-day CI shape (`--quick`).
    pub quick: bool,
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
/// `bench_serve` and `bench_journal` apart from the flags a tool reads
/// itself (`--iters`, `--scale`).
pub struct BenchTool<R: BenchReport> {
    /// Binary name, for the regenerate hint.
    pub bin: &'static str,
    /// Document written under `--out` (`BENCH_engine.json`).
    pub file: &'static str,
    /// Heading of the row table.
    pub title: &'static str,
    /// Columns of the row table.
    pub columns: &'static [&'static str],
    /// One row's table cells, aligned with `columns`.
    pub cells: fn(&R::Row) -> Vec<String>,
    /// The baseline gate; a tool with one takes `--baseline` and `--gate`.
    pub gate: Option<Gate<R::Row>>,
    /// The floors; a tool with them takes `--assert`.
    pub floors: Option<Floors<R::Row>>,
}

impl<R: BenchReport> BenchTool<R> {
    /// Reads the shared flags (`--functions`, `--seed`, `--out`,
    /// `--quick`, and `--baseline`/`--gate`/`--assert` where the tool
    /// has a gate or floors), rejects the rest, measures, prints the row
    /// table, writes the document under `--out`, then judges it: against
    /// `--baseline` (the delta table prints either way; only a `--gate`
    /// failure exits 1) and, with `--assert`, against the floors.
    ///
    /// # Errors
    /// Returns a message for bad flags, a failed measurement, an
    /// unwritable output, or an unreadable baseline.
    pub fn run(
        &self,
        mut args: Args,
        measure: impl FnOnce(BenchArgs) -> Result<Vec<R::Row>, String>,
    ) -> Result<ExitCode, String> {
        let quick = args.flag("--quick");
        let functions = args.value("--functions")?.unwrap_or(800);
        let bench = BenchArgs {
            functions: if quick {
                functions.min(QUICK_FUNCTIONS)
            } else {
                functions
            },
            seed: args.seed("--seed")?.unwrap_or(7),
            quick,
        };
        let out: PathBuf = args.value("--out")?.unwrap_or_else(|| PathBuf::from("."));
        let (baseline, gate_pct) = if self.gate.is_some() {
            (
                args.value::<PathBuf>("--baseline")?,
                args.value::<f64>("--gate")?,
            )
        } else {
            (None, None)
        };
        let assert = self.floors.is_some() && args.flag("--assert");
        args.finish()?;
        if let Some(pct) = gate_pct {
            // `f64::from_str` takes NaN, inf and negatives: NaN would
            // pass every cell, a negative would fail any cell that is
            // not that much faster.
            if !(pct.is_finite() && pct >= 0.0) {
                return Err(format!(
                    "invalid --gate: {pct} is not a finite, non-negative percentage"
                ));
            }
            if baseline.is_none() {
                return Err("--gate requires --baseline".to_owned());
            }
        }

        let report = R::from_rows(measure(bench)?);
        let table: Vec<Vec<String>> = report.rows().iter().map(self.cells).collect();
        println!(
            "\n== {} ==\n{}",
            self.title,
            text_table(self.columns, &table)
        );
        write_json(&out, self.file, &report)?;

        let mut passed = true;
        if let (Some(gate), Some(baseline)) = (&self.gate, &baseline) {
            passed &= self.judge(gate, baseline, gate_pct, &report)?;
        }
        if let (Some(floors), true) = (&self.floors, assert) {
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
        let baseline: R = read_json(path).map_err(|e| format!("baseline: {e}"))?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::{EngineBenchReport, EngineBenchRow};

    fn args(argv: &[&str]) -> Option<Args> {
        Args::new(argv.iter().map(|&a| a.to_owned()))
    }

    /// What a binary reading `--seed`, `--functions`, `--quick` and one
    /// positional argument makes of `argv`; `None` for `--help`.
    type Parsed = (Option<u64>, Option<usize>, bool, Option<String>);
    type Outcome = Result<Option<Parsed>, String>;

    fn parse(argv: &[&str]) -> Outcome {
        let Some(mut args) = args(argv) else {
            return Ok(None);
        };
        let parsed = (
            args.seed("--seed")?,
            args.value("--functions")?,
            args.flag("--quick"),
            args.positional(),
        );
        args.finish()?;
        Ok(Some(parsed))
    }

    #[test]
    fn the_parser_names_every_bad_flag() {
        let ok = |seed, functions, quick, positional: Option<&str>| {
            Ok(Some((
                seed,
                functions,
                quick,
                positional.map(str::to_owned),
            )))
        };
        let err = |message: &str| Err(message.to_owned());
        let cases: [(&[&str], Outcome); 14] = [
            (&[], ok(None, None, false, None)),
            (
                &["--seed", "12648430"],
                ok(Some(12_648_430), None, false, None),
            ),
            (
                &["--seed", "0xC0FFEE"],
                ok(Some(12_648_430), None, false, None),
            ),
            (&["--seed", "0Xff"], ok(Some(255), None, false, None)),
            (
                &["--seed", "0xC0FFEG"],
                err("invalid --seed: invalid digit found in string"),
            ),
            (
                &["--functions", "many"],
                err("invalid --functions: invalid digit found in string"),
            ),
            (
                &["--quick", "--functions"],
                err("missing value for --functions"),
            ),
            (&["--bogus"], err("unknown flag --bogus")),
            (
                &["--functions", "3", "--functions", "5"],
                ok(None, Some(5), false, None),
            ),
            (
                &["run.jnl", "--quick", "--seed", "4"],
                ok(Some(4), None, true, Some("run.jnl")),
            ),
            (&["a.jnl", "b.jnl"], err("unexpected argument \"b.jnl\"")),
            (&["--help"], Ok(None)),
            (&["--bogus", "-h"], Ok(None)),
            (
                &["--seed", "-1"],
                err("invalid --seed: invalid digit found in string"),
            ),
        ];
        for (argv, expected) in cases {
            assert_eq!(parse(argv), expected, "{argv:?}");
        }
        let mut policies = args(&["--policies", " spes, ,oracle "]).unwrap();
        let names: Option<Vec<String>> = policies.list("--policies").unwrap();
        assert_eq!(names.unwrap(), ["spes", "oracle"]);
        let mut seeds = args(&["--eval-seeds", "1,0x10,x"]).unwrap();
        assert_eq!(
            seeds.list::<Seed>("--eval-seeds").unwrap_err(),
            "invalid --eval-seeds entry \"x\": invalid digit found in string"
        );
    }

    /// The shared flags `tool` hands its measurement for `argv`, or the
    /// error that stopped it first.
    fn measured(tool: &BenchTool<EngineBenchReport>, argv: &[&str]) -> Result<BenchArgs, String> {
        let mut seen = None;
        let stopped = tool
            .run(args(argv).unwrap(), |bench| {
                seen = Some(bench);
                Err("measured".to_owned())
            })
            .unwrap_err();
        seen.ok_or(stopped)
    }

    #[test]
    fn defaults_and_values_parse() {
        let defaults = BenchArgs {
            functions: 800,
            seed: 7,
            quick: false,
        };
        assert_eq!(measured(&TOOL, &[]), Ok(defaults));
        let argv = [
            "--functions",
            "300",
            "--seed",
            "0x9",
            "--out",
            "dir",
            "--baseline",
            "b.json",
            "--gate",
            "40",
            "--assert",
        ];
        let expected = BenchArgs {
            functions: 300,
            seed: 9,
            ..defaults
        };
        assert_eq!(measured(&TOOL, &argv), Ok(expected));
    }

    #[test]
    fn quick_caps_the_population_once() {
        let functions = |argv: &[&str]| measured(&TOOL, argv).unwrap().functions;
        assert_eq!(functions(&["--quick"]), QUICK_FUNCTIONS);
        assert_eq!(functions(&["--functions", "40", "--quick"]), 40);
        assert_eq!(functions(&["--functions", "5000"]), 5000);
    }

    #[test]
    fn bad_flags_are_named() {
        let err = |tool, argv: &[&str]| measured(tool, argv).unwrap_err();
        assert_eq!(err(&TOOL, &["--gate", "40"]), "--gate requires --baseline");
        assert_eq!(err(&TOOL, &["--bogus"]), "unknown flag --bogus");
        assert_eq!(err(&TOOL, &["--seed"]), "missing value for --seed");
        assert!(err(&TOOL, &["--functions", "many"]).starts_with("invalid --functions"));
        // A tool reads only its own flags: `--iters` belongs to the
        // binaries that read it, `--baseline` and `--assert` to tools
        // with a gate or floors.
        assert_eq!(err(&TOOL, &["--iters", "3"]), "unknown flag --iters");
        assert_eq!(err(&PLAIN, &["--assert"]), "unknown flag --assert");
        assert_eq!(err(&PLAIN, &["--baseline", "b"]), "unknown flag --baseline");
    }

    #[test]
    fn gate_rejects_values_that_switch_it_off() {
        for bad in ["NaN", "inf", "-inf", "-5"] {
            let err = measured(&TOOL, &["--baseline", "b.json", "--gate", bad]).unwrap_err();
            assert!(err.starts_with("invalid --gate"), "{bad}: {err}");
        }
        assert!(measured(&TOOL, &["--baseline", "b.json", "--gate", "0"]).is_ok());
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

    /// A tool with neither a gate nor floors.
    const PLAIN: BenchTool<EngineBenchReport> = BenchTool {
        gate: None,
        floors: None,
        ..TOOL
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
            TOOL.run(args(argv).unwrap(), |_| Ok(rows)).unwrap()
        };

        // The written document reads back as the report.
        assert_eq!(
            code(&["--out", &base], vec![row("a", 100.0)]),
            ExitCode::SUCCESS
        );
        let text = std::fs::read_to_string(&baseline).unwrap();
        assert!(text.ends_with("}\n"), "{text}");
        let back: EngineBenchReport = read_json(Path::new(&baseline)).unwrap();
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
        let argv = args(&["--out", &out, "--baseline", &missing]).unwrap();
        let err = TOOL.run(argv, |_| Ok(vec![row("a", 1.0)])).unwrap_err();
        assert!(err.starts_with("baseline: read"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
