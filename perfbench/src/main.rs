//! The SPES reproduction's benchmark: one command per workload, every
//! end-to-end metric (or, with `--trace 1`, every per-layer metric) by
//! name with its unit, the output-check verdict, and one JSON result line
//! last. See `perfbench/README.md` for the workloads, the metrics and
//! what each layer metric should move.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite-paper|scale-stream|serve-online \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```

mod checks;
mod inputs;
mod layers;
mod probe;
mod scale_stream;
mod serve_online;
mod suite_paper;

use checks::Checks;
use std::process::ExitCode;

/// Workload seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 0xC0FFEE;

const WORKLOADS: [&str; 3] = ["suite-paper", "scale-stream", "serve-online"];

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    /// `(name, value, unit)`, in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Printed like `metrics` but left out of the result line.
    pub unbounded: Vec<(String, f64, &'static str)>,
    pub checks: Checks,
    /// Operations other than checks: slots stepped, protocol lines fed.
    pub ops: u64,
    /// Failed operations: step errors, error records, rejected lines.
    pub failed_ops: u64,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Records the run's time twice: `run_ref`, in reference-kernel units
    /// (see [`probe::HostClock`]), goes to the result line; the wall time
    /// `run_s` is printed but kept out of it, because a shared host's
    /// changes of speed move it between runs by more than any regression
    /// bound could absorb (see README.md).
    pub fn run_time(&mut self, run_s: f64, run_ref: f64) {
        self.metrics.push(("run_ref".to_owned(), run_ref, "ref"));
        self.unbounded.push(("run_s".to_owned(), run_s, "s"));
    }

    /// Records the median and 99th percentile of per-slot times. They are
    /// printed but kept out of the result line: a stall or a change of
    /// speed of a shared host moves them between runs by more than any
    /// regression bound could absorb (see README.md).
    pub fn slot_times(&mut self, times_us: &mut [f64]) {
        for (name, p) in [("slot_p50_us", 50.0), ("slot_p99_us", 99.0)] {
            let value = probe::percentile(times_us, p);
            self.unbounded.push((name.to_owned(), value, "us"));
        }
    }
}

/// Runs `iteration` back to back (a closed loop with one caller) until
/// `seconds` have passed and at least `min_iters` have completed.
pub fn repeat<T>(
    seconds: f64,
    min_iters: usize,
    mut iteration: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let begin = std::time::Instant::now();
    let mut done = Vec::new();
    while done.len() < min_iters || begin.elapsed().as_secs_f64() < seconds {
        done.push(iteration()?);
    }
    Ok(done)
}

/// Median of one field over a run's iterations.
pub fn median_of<T>(items: &[T], field: impl Fn(&T) -> f64) -> f64 {
    let mut values: Vec<f64> = items.iter().map(field).collect();
    probe::percentile(&mut values, 50.0)
}

/// Mean of one field over a run's iterations.
pub fn mean_of<T>(items: &[T], field: impl Fn(&T) -> f64) -> f64 {
    items.iter().map(field).sum::<f64>() / items.len().max(1) as f64
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// The trace-seed search of [`inputs::trace_seed_for`], in its child
/// process: prints the trace seed the given benchmark seed selects.
fn pick_trace_seed(seed: &str) -> ExitCode {
    match seed
        .parse()
        .map_err(|e| format!("{}: {e}", inputs::PICK_FLAG))
        .and_then(inputs::pick_trace_seed)
    {
        Ok(trace_seed) => {
            println!("{trace_seed}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, seed] = &argv[..] {
        if flag == inputs::PICK_FLAG {
            return pick_trace_seed(seed);
        }
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "suite-paper" => suite_paper::run,
        "scale-stream" => scale_stream::run,
        _ => serve_online::run,
    };
    let mut report = match run(args.seed, args.seconds, args.trace) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("error: {}: {message}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    print_report(&args, &mut report);
    ExitCode::SUCCESS
}

fn print_report(args: &Args, report: &mut Report) {
    let metrics = std::mem::take(&mut report.metrics);
    for (name, value, _) in &metrics {
        report.checks.finite(name, *value);
    }
    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<40} {value:>16.6} {unit}");
    }
    for (name, value, unit) in &report.unbounded {
        println!("  {name:<40} {value:>16.6} {unit} (unbounded, not in the result line)");
    }
    let attempted = report.ops + report.checks.attempted;
    let failed = report.failed_ops + report.checks.failures.len() as u64;
    let correct = failed == 0;
    println!(
        "output checks: {} of {} passed; failed operations {failed} of {attempted} \
         (failed_frac {})",
        report.checks.attempted - report.checks.failures.len() as u64,
        report.checks.attempted,
        failed as f64 / attempted.max(1) as f64
    );
    for failure in &report.checks.failures {
        println!("  FAILED: {failure}");
    }
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
}
