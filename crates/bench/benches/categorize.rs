//! Benchmarks of the offline fitting path: WT extraction, deterministic
//! categorisation, and the full SPES fit at increasing population sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spes_core::{categorize::categorize_deterministic, SpesConfig, SpesPolicy};
use spes_trace::{synth, Sequences, SynthConfig, SLOTS_PER_DAY};

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

criterion_group!(benches, categorize_benches);
criterion_main!(benches);
