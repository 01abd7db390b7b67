//! The final prototype pass: one medoid per cluster of a clustered day.
//!
//! * `serial_allpairs` — the exhaustive oracle (serial over clusters,
//!   every row summed to the end), shared with `kizzle-cluster`'s
//!   `seal_properties` tests; the ungated baseline.
//! * `parallel_early_abandon` — `Clustering::compute_prototypes` as
//!   shipped: rayon over clusters, early-abandoned rows (gated in
//!   `thresholds.json`). Answer-identical to the oracle, asserted below.
//!
//! Both arms take the bounded distance as a callback, so both run the
//! bit-parallel kernel behind `normalized_edit_distance_bounded`. The
//! seal itself does not come through here: its three medoid passes share a
//! per-day pair memo inside `reduce_token`, measured by `perf_ledger`'s
//! `cluster.reduce_s` / `cluster.prototype_s` and the
//! `medoid_distance_calls` / `medoid_memo_hits` counters.
//!
//! `KIZZLE_BENCH_SAMPLES` scales the day (default 1000).

#[path = "../../cluster/tests/common/mod.rs"]
mod common;

use common::serial_allpairs;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kizzle_bench::synthetic_day_class_strings;
use kizzle_cluster::distance::normalized_edit_distance_bounded;
use kizzle_cluster::{DbscanParams, DistributedClusterer, DistributedConfig};
use std::hint::black_box;
use std::time::Duration;

const EPS: f64 = 0.10;

fn day_size() -> usize {
    std::env::var("KIZZLE_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000)
}

fn bench_prototype_pass(c: &mut Criterion) {
    let n = day_size();
    let samples = synthetic_day_class_strings(n, 900);
    let distance =
        |a: &Vec<u8>, b: &Vec<u8>| normalized_edit_distance_bounded(a, b, EPS).unwrap_or(1.0);

    // One clustered day's member lists — the exact input finish_reduce
    // hands to the prototype pass.
    let cfg = DistributedConfig::new(4, DbscanParams::new(EPS, 4), 0);
    let (clustering, _) = DistributedClusterer::new(cfg).cluster_token_strings(&samples);
    assert!(clustering.cluster_count() > 0, "day must form clusters");
    let members: Vec<Vec<usize>> = clustering
        .clusters
        .iter()
        .map(|cl| cl.members.clone())
        .collect();

    // Answer-identity: the shipped pass picks the same medoids the
    // exhaustive serial scan does.
    let want = serial_allpairs(&members, &samples, 64, distance);
    let mut check = kizzle_cluster::Clustering::from_members(
        members.clone(),
        clustering.noise.clone(),
        samples.len(),
    );
    check.compute_prototypes(&samples, distance);
    let got: Vec<Option<usize>> = check.clusters.iter().map(|cl| cl.prototype).collect();
    assert_eq!(want, got, "optimized pass changed a medoid");

    let mut group = c.benchmark_group("prototype");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(8))
        .warm_up_time(Duration::from_secs(1));

    group.bench_with_input(
        BenchmarkId::new("serial_allpairs", n),
        &members,
        |b, members| {
            b.iter(|| black_box(serial_allpairs(members, &samples, 64, distance)));
        },
    );

    group.bench_with_input(
        BenchmarkId::new("parallel_early_abandon", n),
        &members,
        |b, members| {
            b.iter(|| {
                let mut clustering = kizzle_cluster::Clustering::from_members(
                    members.clone(),
                    Vec::new(),
                    samples.len(),
                );
                clustering.compute_prototypes(&samples, distance);
                black_box(clustering.clusters.last().and_then(|cl| cl.prototype))
            });
        },
    );
    group.finish();
}

criterion_group!(benches, bench_prototype_pass);
criterion_main!(benches);
