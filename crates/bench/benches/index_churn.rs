//! Incremental index maintenance vs full rebuild under daily churn.
//!
//! The acceptance bar for the incremental engine (ISSUE 2): day-over-day
//! maintenance of a `NeighborIndex` — remove the churned fraction, insert
//! its replacement, and leave every neighborhood memoized — must beat
//! rebuilding the index and re-querying every neighborhood from scratch,
//! at ≥ 1,000 samples/day with ≤ 20% churn. The measured numbers are
//! discussed in PERF.md.
//!
//! Set `KIZZLE_BENCH_SAMPLES` to scale the day up or down (default 1000;
//! CI smoke uses a smaller day). `KIZZLE_BENCH_CHURN` sets the churned
//! fraction (default 0.20).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kizzle_bench::synthetic_day_class_strings;
use kizzle_cluster::{NeighborIndex, SampleId};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

const EPS: f64 = 0.10;

fn day_size() -> usize {
    std::env::var("KIZZLE_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000)
}

fn churn_fraction() -> f64 {
    std::env::var("KIZZLE_BENCH_CHURN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.20)
}

fn bench_index_churn(c: &mut Criterion) {
    let n = day_size();
    let churn = ((n as f64) * churn_fraction()).round() as usize;
    // One deterministic pool: day 0 is the first n strings, the churned-in
    // replacements come from the tail (distinct generator seeds).
    let pool = synthetic_day_class_strings(n + churn, 900);
    let day0 = &pool[..n];
    // Day 1 = day 0 with exactly `churn` samples replaced, evenly spread
    // across the corpus so every family sees some churn (`r * n / churn`
    // is strictly increasing for churn <= n, so the positions are
    // distinct and the full configured fraction really churns).
    let mut day1: Vec<Vec<u8>> = day0.to_vec();
    let replaced: Vec<usize> = (0..churn).map(|r| r * n / churn.max(1)).collect();
    for (r, &pos) in replaced.iter().enumerate() {
        day1[pos] = pool[n + r].clone();
    }

    // Warm starting point shared by every incremental iteration: day 0
    // fully indexed and memoized.
    let mut warm = NeighborIndex::new(EPS);
    warm.insert_batch(
        day0.iter()
            .enumerate()
            .map(|(i, s)| (SampleId::new(i as u32), Arc::from(&s[..])))
            .collect(),
    );
    let _ = warm.take_stats();

    let mut group = c.benchmark_group("index_churn");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(8))
        .warm_up_time(Duration::from_secs(1));

    // Baseline: rebuild the whole index for day 1 and compute every
    // neighborhood (what the stateless pipeline did each day).
    group.bench_with_input(BenchmarkId::new("rebuild_full", n), &day1, |b, day1| {
        b.iter(|| {
            let mut index = NeighborIndex::new(EPS);
            index.insert_batch(
                day1.iter()
                    .enumerate()
                    .map(|(i, s)| (SampleId::new(i as u32), Arc::from(&s[..])))
                    .collect(),
            );
            black_box(index.len())
        })
    });

    // Incremental: start from day 0's warm index, remove the churned ids,
    // insert their replacements; every surviving neighborhood stays
    // memoized, only the churned fraction is queried. The clone of the
    // warm index is part of the measured cost (a rebuild needs no
    // starting state), and it still wins.
    group.bench_with_input(
        BenchmarkId::new(format!("incremental_{churn}churned"), n),
        &warm,
        |b, warm| {
            b.iter(|| {
                let mut index = warm.clone();
                for &pos in &replaced {
                    index.remove(SampleId::new(pos as u32));
                }
                index.insert_batch(
                    replaced
                        .iter()
                        .enumerate()
                        .map(|(r, &pos)| (SampleId::new(pos as u32), Arc::from(&pool[n + r][..])))
                        .collect(),
                );
                black_box(index.len())
            })
        },
    );

    // The clone alone, to show how little of the incremental time is
    // state duplication.
    group.bench_with_input(BenchmarkId::new("warm_clone", n), &warm, |b, warm| {
        b.iter(|| black_box(warm.clone().len()))
    });

    group.finish();
}

criterion_group!(index_churn, bench_index_churn);
criterion_main!(index_churn);
