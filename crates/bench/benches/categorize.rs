//! Benchmarks of the offline fitting path (WT extraction, deterministic
//! categorisation, the full SPES fit at increasing population sizes) and
//! of the per-invocation decisions of the online policies: SPES's S2/S3
//! on a full WT window and the Hybrid/Defuse histogram refresh.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spes_core::adaptive::{adjust_values, try_online_categorize};
use spes_core::window::WT_WINDOW_CAPACITY;
use spes_core::{
    categorize::categorize_deterministic, FunctionType, PredictiveValues, SpesConfig, SpesPolicy,
    WtWindow,
};
use spes_stats::Histogram;
use spes_trace::{synth, Sequences, SynthConfig, SLOTS_PER_DAY};

/// A full window of WTs `base + (i * 7919 mod spread)`: a deterministic
/// spread of values with repeats, as a live function's buffer holds.
fn full_window(base: u32, spread: u32) -> WtWindow {
    (0..WT_WINDOW_CAPACITY as u32)
        .map(|i| base + (i * 7919) % spread)
        .collect()
}

fn online_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_adjust");
    let cases = [
        (
            "regular",
            FunctionType::Regular,
            PredictiveValues::Discrete(vec![60]),
            full_window(59, 3),
        ),
        (
            "appro-regular",
            FunctionType::ApproRegular,
            PredictiveValues::Discrete(vec![3, 4]),
            full_window(3, 4),
        ),
        (
            "dense",
            FunctionType::Dense,
            PredictiveValues::Range(1, 4),
            full_window(1, 5),
        ),
        (
            "possible",
            FunctionType::Possible,
            PredictiveValues::Discrete(vec![30, 90]),
            full_window(20, 40),
        ),
    ];
    for (name, ty, values, window) in &cases {
        group.bench_function(BenchmarkId::new("s2", name), |b| {
            b.iter(|| {
                let mut values = values.clone();
                adjust_values(*ty, &mut values, std::hint::black_box(window), 2.0)
            });
        });
    }
    let unknown = full_window(1, 400);
    group.bench_function(BenchmarkId::from_parameter("s3"), |b| {
        b.iter(|| try_online_categorize(std::hint::black_box(&unknown)));
    });
    group.finish();

    // One refresh of the Hybrid decision: the CV test, then the head and
    // tail percentiles, on 2000 idle times spread over most of the range.
    let mut group = c.benchmark_group("histogram_refresh");
    for bins in [240usize, 720] {
        let mut h = Histogram::new(bins);
        for i in 0..2_000u32 {
            h.observe((i * 7919) % (bins as u32 + 20));
        }
        group.bench_function(BenchmarkId::from_parameter(bins), |b| {
            b.iter(|| {
                let h = std::hint::black_box(&h);
                (h.cv_at_most(1.0), h.percentile(5.0), h.percentile(99.0))
            });
        });
    }
    group.finish();
}

fn categorize_benches(c: &mut Criterion) {
    let data = synth::generate(&SynthConfig {
        n_functions: 2_000,
        seed: 11,
        ..SynthConfig::default()
    });
    let trace = &data.trace;
    let train_end = 12 * SLOTS_PER_DAY;

    // Representative single functions: the busiest, a mid-tier, a sparse.
    let mut by_activity: Vec<usize> = (0..trace.n_functions()).collect();
    by_activity.sort_by_key(|&i| std::cmp::Reverse(trace.series[i].active_slots()));
    let busiest = by_activity[0];
    let mid = by_activity[trace.n_functions() / 2];

    let mut group = c.benchmark_group("categorize_one_function");
    for (name, idx) in [("busiest", busiest), ("mid-tier", mid)] {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                categorize_deterministic(std::hint::black_box(&trace.series[idx]), 0, train_end)
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("wt_extraction");
    group.bench_function(BenchmarkId::from_parameter("busiest"), |b| {
        b.iter(|| Sequences::extract(std::hint::black_box(&trace.series[busiest]), 0, train_end));
    });
    group.finish();

    let mut group = c.benchmark_group("spes_full_fit");
    group.sample_size(10);
    for n in [250usize, 1_000] {
        let small = synth::generate(&SynthConfig {
            n_functions: n,
            seed: 11,
            ..SynthConfig::default()
        });
        group.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter(|| SpesPolicy::fit(&small.trace, 0, train_end, SpesConfig::default()));
        });
    }
    group.finish();
}

criterion_group!(benches, categorize_benches, online_benches);
criterion_main!(benches);
