//! Indexed vs. naive clustering on a synthetic day.
//!
//! The acceptance bar for the indexed engine (ISSUE 1): on a 1,000-sample
//! synthetic day at `eps = 0.10`, `dbscan_indexed` must beat the naive
//! all-pairs `dbscan` by ≥ 5× wall-clock. The measured numbers are
//! discussed in `PERF.md`.
//!
//! Set `KIZZLE_BENCH_SAMPLES` to scale the day up or down (default 1000;
//! CI smoke uses a smaller day).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kizzle_bench::synthetic_day_class_strings;
use kizzle_cluster::distance::normalized_edit_distance_bounded;
use kizzle_cluster::{dbscan, dbscan_indexed, DbscanParams, NeighborIndex};
use std::hint::black_box;
use std::time::Duration;

fn day_size() -> usize {
    std::env::var("KIZZLE_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000)
}

fn bench_clustering(c: &mut Criterion) {
    let n = day_size();
    let day = synthetic_day_class_strings(n, 900);
    let params = DbscanParams::new(0.10, 4);

    let mut group = c.benchmark_group("clustering");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(8))
        .warm_up_time(Duration::from_secs(1));

    group.bench_with_input(BenchmarkId::new("naive", n), &day, |b, day| {
        b.iter(|| {
            let result = dbscan(day, &params, |a, b| {
                normalized_edit_distance_bounded(a, b, params.eps).unwrap_or(1.0)
            });
            black_box(result.cluster_count())
        })
    });

    group.bench_with_input(BenchmarkId::new("indexed", n), &day, |b, day| {
        b.iter(|| {
            let (result, _) = dbscan_indexed(day, &params);
            black_box(result.cluster_count())
        })
    });
    // (`NeighborIndex::build` now memoizes every neighborhood eagerly, so
    // a build-alone arm would just duplicate `indexed`; the structural
    // cost of warm state is measured by `index_churn/warm_clone`.)

    group.finish();
}

fn bench_neighbor_query(c: &mut Criterion) {
    let n = day_size();
    let day = synthetic_day_class_strings(n, 900);
    let eps = 0.10;
    let mut index = NeighborIndex::build(&day, eps);

    let mut group = c.benchmark_group("neighbor_query");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4))
        .warm_up_time(Duration::from_millis(500));

    // One representative query point (a kit member, index 0). The indexed
    // side runs an external (uncached) query so the filter chain is
    // measured, not the memoized read-back.
    group.bench_function("naive_single", |b| {
        b.iter(|| {
            let hits: usize = (1..day.len())
                .filter(|&j| {
                    normalized_edit_distance_bounded(&day[0], &day[j], eps).unwrap_or(1.0) <= eps
                })
                .count();
            black_box(hits)
        })
    });

    group.bench_function("indexed_single", |b| {
        b.iter(|| black_box(index.query(&day[0]).len()))
    });

    group.finish();
}

criterion_group!(
    clustering_indexed_vs_naive,
    bench_clustering,
    bench_neighbor_query
);
criterion_main!(clustering_indexed_vs_naive);
