//! Offline shim for the `criterion` crate.
//!
//! Keeps the workspace's `[[bench]]` targets compiling and runnable with
//! no crates.io access. Each benchmark runs a warm-up plus a small number
//! of timed samples and prints mean/min/max/stddev wall-clock time per
//! call — honest numbers for eyeballing regressions and their noise
//! floor, with none of criterion's plots or outlier analysis. A
//! [`Bencher::iter`] sample is a batch of calls at least 1 ms long,
//! sized during the warm-up, so a routine of a few
//! nanoseconds reads its own cost rather than the timer's and the
//! scheduler's.
//!
//! Supports `--quick` (fewer samples) and a substring filter argument,
//! so `cargo bench -- <filter>` narrows what runs, like upstream.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::panic, clippy::unreachable)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![expect(clippy::disallowed_methods, reason = "benchmarks time by the clock")]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// The shortest [`Bencher::iter`] sample: a batch of calls this long
/// rises above timer resolution and scheduler noise.
const MIN_SAMPLE: Duration = Duration::from_millis(1);

/// How `iter_batched` amortises setup cost. The shim runs one setup per
/// iteration regardless of the requested batch size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// Inputs of each batch sized per call.
    PerIteration,
}

/// Identifier of one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Builds an id from a function name and a parameter value.
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        Self {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// Builds an id from a parameter value alone.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// Top-level benchmark driver.
#[derive(Debug)]
pub struct Criterion {
    filter: Option<String>,
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let quick = args.iter().any(|a| a == "--quick");
        let filter = args
            .into_iter()
            .find(|a| !a.starts_with('-') && a != "--bench");
        Self {
            filter,
            sample_size: if quick { 3 } else { 10 },
        }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: self.sample_size,
        }
    }

    /// Runs a single ungrouped benchmark.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let sample_size = self.sample_size;
        self.run_one(&id.to_string(), sample_size, f);
        self
    }

    fn run_one<F>(&self, id: &str, sample_size: usize, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }
        let mut bencher = Bencher {
            iters: sample_size as u64,
            samples: Vec::with_capacity(sample_size),
            calls_per_sample: 1,
        };
        f(&mut bencher);
        let stats = SampleStats::of(&bencher.samples);
        println!(
            "bench: {id:<50} {:>12.2?}/call (min {:.2?}, max {:.2?}, std {:.2?}, {} samples of {} calls)",
            stats.mean,
            stats.min,
            stats.max,
            stats.stddev,
            bencher.samples.len(),
            bencher.calls_per_sample
        );
    }
}

/// Per-call timing statistics of one benchmark run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleStats {
    /// Mean time per call.
    pub mean: Duration,
    /// Fastest sample.
    pub min: Duration,
    /// Slowest sample.
    pub max: Duration,
    /// Population standard deviation over the samples.
    pub stddev: Duration,
}

impl SampleStats {
    /// Computes the statistics over per-call sample times (all-zero for
    /// an empty sample set).
    pub fn of(samples: &[Duration]) -> Self {
        if samples.is_empty() {
            return Self {
                mean: Duration::ZERO,
                min: Duration::ZERO,
                max: Duration::ZERO,
                stddev: Duration::ZERO,
            };
        }
        let n = samples.len() as f64;
        let secs: Vec<f64> = samples.iter().map(Duration::as_secs_f64).collect();
        let mean = secs.iter().sum::<f64>() / n;
        let var = secs.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n;
        Self {
            mean: Duration::from_secs_f64(mean),
            #[expect(clippy::expect_used, reason = "empty samples returned above")]
            min: *samples.iter().min().expect("non-empty"),
            #[expect(clippy::expect_used, reason = "empty samples returned above")]
            max: *samples.iter().max().expect("non-empty"),
            stddev: Duration::from_secs_f64(var.sqrt()),
        }
    }
}

/// A group of related benchmarks sharing a name prefix.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Overrides the number of timed samples for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        // Criterion requires >= 10; the shim accepts anything >= 1 and
        // keeps --quick runs below the requested size.
        self.sample_size = self.sample_size.min(n.max(1));
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        self.criterion.run_one(&full, self.sample_size, f);
        self
    }

    /// Runs one benchmark with an explicit input value.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl std::fmt::Display,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group (no-op in the shim; kept for API compatibility).
    pub fn finish(&mut self) {}
}

/// Times closures on behalf of one benchmark.
#[derive(Debug)]
pub struct Bencher {
    iters: u64,
    /// Time per call of each sample.
    samples: Vec<Duration>,
    calls_per_sample: u64,
}

impl Bencher {
    /// Times `routine` over the samples. The warm-up doubles a batch of
    /// calls until one batch takes at least 1 ms; each sample
    /// then times one batch of that size and records the time per call.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let calls = calibrate(|calls| time_calls(&mut routine, calls));
        self.samples.clear();
        for _ in 0..self.iters {
            let batch = time_calls(&mut routine, calls);
            self.samples.push(batch.div_f64(calls as f64));
        }
        self.calls_per_sample = calls;
    }

    /// Times `routine` over fresh inputs built by `setup`, one call per
    /// sample; setup time is excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        self.samples.clear();
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.samples.push(start.elapsed());
        }
        self.calls_per_sample = 1;
    }
}

/// Wall time of `calls` back-to-back calls of `routine`.
fn time_calls<O>(routine: &mut impl FnMut() -> O, calls: u64) -> Duration {
    let start = Instant::now();
    for _ in 0..calls {
        black_box(routine());
    }
    start.elapsed()
}

/// The warm-up of [`Bencher::iter`]: the smallest power-of-two batch
/// whose timing by `time` reaches [`MIN_SAMPLE`] twice in a row. One
/// long batch can be a preemption rather than the routine, so a batch
/// is accepted only when a second timing confirms it.
fn calibrate(mut time: impl FnMut(u64) -> Duration) -> u64 {
    let mut calls = 1;
    while time(calls) < MIN_SAMPLE || time(calls) < MIN_SAMPLE {
        calls *= 2;
    }
    calls
}

/// Declares the benchmark groups of one bench target.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the `main` of one bench target.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_benches(c: &mut Criterion) {
        let mut group = c.benchmark_group("demo");
        group.sample_size(2);
        group.bench_function(BenchmarkId::from_parameter("iter"), |b| {
            b.iter(|| (0..100u64).sum::<u64>());
        });
        group.bench_function(BenchmarkId::from_parameter("batched"), |b| {
            b.iter_batched(
                || vec![1u64; 64],
                |v| v.into_iter().sum::<u64>(),
                BatchSize::LargeInput,
            );
        });
        group.finish();
    }

    #[test]
    fn harness_runs_to_completion() {
        let mut criterion = Criterion {
            filter: None,
            sample_size: 2,
        };
        demo_benches(&mut criterion);
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut criterion = Criterion {
            filter: Some("no-such-bench".into()),
            sample_size: 2,
        };
        // Skipped closures must never execute.
        criterion.bench_function("other", |_b| panic!("must be filtered out"));
    }

    #[test]
    fn benchmark_ids_render() {
        assert_eq!(BenchmarkId::new("f", 3).to_string(), "f/3");
        assert_eq!(BenchmarkId::from_parameter("x").to_string(), "x");
    }

    #[test]
    fn sample_stats_over_iterations() {
        let samples = [
            Duration::from_millis(10),
            Duration::from_millis(20),
            Duration::from_millis(30),
        ];
        let stats = SampleStats::of(&samples);
        assert_eq!(stats.mean, Duration::from_millis(20));
        assert_eq!(stats.min, Duration::from_millis(10));
        assert_eq!(stats.max, Duration::from_millis(30));
        // Population stddev of {10, 20, 30} ms is sqrt(200/3) ms.
        let expected = (200.0f64 / 3.0).sqrt() * 1e-3;
        assert!((stats.stddev.as_secs_f64() - expected).abs() < 1e-9);
    }

    #[test]
    fn sample_stats_of_empty_is_zero() {
        let stats = SampleStats::of(&[]);
        assert_eq!(stats.mean, Duration::ZERO);
        assert_eq!(stats.stddev, Duration::ZERO);
    }

    #[test]
    fn bencher_collects_one_sample_per_iteration() {
        let mut bencher = Bencher {
            iters: 4,
            samples: Vec::new(),
            calls_per_sample: 1,
        };
        let mut calls = 0u64;
        bencher.iter(|| calls += 1);
        assert_eq!(bencher.samples.len(), 4);
        // A counter increment is far below a millisecond, so every
        // sample is a batch of many calls.
        assert!(bencher.calls_per_sample > 1, "{}", bencher.calls_per_sample);
        assert!(calls >= 4 * bencher.calls_per_sample, "{calls} calls");
        bencher.iter_batched(|| (), |()| (), BatchSize::SmallInput);
        assert_eq!(bencher.samples.len(), 4);
        assert_eq!(bencher.calls_per_sample, 1);
    }

    #[test]
    fn calibration_doubles_until_a_batch_is_confirmed_long_enough() {
        // A routine of 10 µs a call: 128 calls are the first batch of at
        // least 1 ms.
        let per_call = Duration::from_micros(10);
        let mut timed = Vec::new();
        let calls = calibrate(|calls| {
            timed.push(calls);
            per_call * calls as u32
        });
        assert_eq!(calls, 128);
        assert_eq!(timed, [1, 2, 4, 8, 16, 32, 64, 128, 128]);
        // A preempted first batch is not confirmed by its second timing.
        let mut first = true;
        let calls = calibrate(|calls| {
            if std::mem::take(&mut first) {
                Duration::from_millis(5)
            } else {
                per_call * calls as u32
            }
        });
        assert_eq!(calls, 128);
        // A routine slower than the minimum sample runs once per sample.
        assert_eq!(
            calibrate(|calls| Duration::from_millis(3) * calls as u32),
            1
        );
    }
}
