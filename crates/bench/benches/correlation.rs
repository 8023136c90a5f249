//! Benchmarks of the co-occurrence machinery: plain COR, the T-lagged
//! scan used for link discovery, the windowed COR of the online strategy,
//! link precision, and Defuse's pairwise mining over one application.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spes_baselines::Defuse;
use spes_core::correlation::{best_lagged_cor, cor, link_precision, windowed_cor};
use spes_trace::{AppId, FunctionMeta, SparseSeries, Trace, TriggerType, UserId};

fn series_every(period: u32, end: u32) -> SparseSeries {
    SparseSeries::from_pairs((0..end).step_by(period as usize).map(|s| (s, 1)).collect())
}

/// One application of 64 functions over `horizon` slots: eight chains of
/// eight, each member firing one slot after the previous one, with the
/// chain heads on periods from 3 to 59 slots (so both busy and sparse
/// pairs are mined).
fn same_app_group(horizon: u32) -> Trace {
    let meta = FunctionMeta {
        app: AppId(0),
        user: UserId(0),
        trigger: TriggerType::Http,
    };
    let series = (0..64u32)
        .map(|i| {
            let period = 3 + 8 * (i / 8);
            let offset = i % 8;
            SparseSeries::from_pairs(
                (offset..horizon)
                    .step_by(period as usize)
                    .map(|s| (s, 1))
                    .collect(),
            )
        })
        .collect();
    Trace::new(horizon, vec![meta; 64], series)
}

fn correlation_benches(c: &mut Criterion) {
    let horizon = 12 * 1440;
    let sparse_target = series_every(97, horizon); // ~178 events
    let busy_candidate = series_every(3, horizon); // ~5760 events
    let sparse_candidate = series_every(101, horizon);
    // ~5760 events, one slot after each of busy_candidate's.
    let busy_target = SparseSeries::from_pairs((1..horizon).step_by(3).map(|s| (s, 1)).collect());

    let mut group = c.benchmark_group("cor");
    group.bench_function(BenchmarkId::from_parameter("sparse-vs-sparse"), |b| {
        b.iter(|| cor(&sparse_target, &sparse_candidate, 0, horizon));
    });
    group.bench_function(BenchmarkId::from_parameter("sparse-vs-busy"), |b| {
        b.iter(|| cor(&sparse_target, &busy_candidate, 0, horizon));
    });
    group.finish();

    let mut group = c.benchmark_group("best_lagged_cor_T10");
    group.bench_function(BenchmarkId::from_parameter("sparse-vs-sparse"), |b| {
        b.iter(|| best_lagged_cor(&sparse_target, &sparse_candidate, 10, 0, horizon));
    });
    group.bench_function(BenchmarkId::from_parameter("sparse-vs-busy"), |b| {
        b.iter(|| best_lagged_cor(&sparse_target, &busy_candidate, 10, 0, horizon));
    });
    group.bench_function(BenchmarkId::from_parameter("busy-vs-busy"), |b| {
        b.iter(|| best_lagged_cor(&busy_target, &busy_candidate, 10, 0, horizon));
    });
    group.finish();

    let mut group = c.benchmark_group("windowed_cor_W10");
    group.bench_function(BenchmarkId::from_parameter("busy-vs-sparse"), |b| {
        b.iter(|| windowed_cor(&busy_target, &sparse_candidate, 10, 0, horizon));
    });
    group.finish();

    let mut group = c.benchmark_group("link_precision");
    group.bench_function(BenchmarkId::from_parameter("sparse-vs-busy"), |b| {
        b.iter(|| link_precision(&sparse_target, &busy_candidate, 4, 0, horizon));
    });
    group.finish();

    let app = same_app_group(14 * 1440);
    let mut group = c.benchmark_group("defuse_mining");
    group.bench_function(BenchmarkId::from_parameter("64-member-app"), |b| {
        b.iter(|| Defuse::paper_default(&app, 0, horizon).edge_count());
    });
    group.finish();
}

criterion_group!(benches, correlation_benches);
criterion_main!(benches);
