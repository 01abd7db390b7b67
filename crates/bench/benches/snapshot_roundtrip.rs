//! Snapshot round-trip cost (ISSUE 3, extended by ISSUE 4): how much does
//! durable warm-state persistence cost to write, how fast does it come
//! back, and how does a resumed day compare against the cold rebuild it
//! replaces?
//!
//! Measurements, discussed in PERF.md §PR 3 / §PR 4 — every arm goes
//! through the one writer/reader pair, [`CorpusEngine::snapshot_delta`] /
//! [`CorpusEngine::resume_chain`]:
//!
//! * `save` — a full snapshot, i.e. a chain of length one
//!   (`snapshot_delta(dir, 0)`): encode store + index (with every memoized
//!   neighborhood, gap-encoded), write the base atomically (temp, fsync,
//!   rename), then the manifest the same way.
//! * `load` — `resume_chain` of that directory: read the manifest, read,
//!   checksum-verify and decode the base back into a warm engine.
//! * `save_delta` / `load_chain` — the ISSUE 4 incremental path: a warm
//!   day-2 engine persists only its churned sections as a delta against
//!   the day-1 base, and `resume_chain` overlays base + delta back into
//!   the identical warm engine.
//! * `encode_sections` — the in-memory codec alone (no filesystem), the
//!   arm that scales with `KIZZLE_RAYON_THREADS`: section encoders run
//!   through the rayon pool, so this measures the parallel-codec win on
//!   multi-core machines (and the absence of a loss on one core).
//! * `cold_rebuild` (base size only) — the other side of the cron-restart
//!   comparison: time back to a fully warm engine (every sample indexed,
//!   every neighborhood memoized) by re-adding every raw class-string,
//!   paying one eps-ball query per sample, where `load` resumes the
//!   snapshot. Everything after that point (the day's clustering) is
//!   identical for both, so the gap between the two arms is exactly what
//!   persistence saves a restarted process.
//! * `crc32/1MiB` — the checksum under all of the above, alone.
//!
//! Bytes-on-disk per corpus size is printed alongside the timings (it is a
//! property of the input, not a distribution worth sampling).
//!
//! Set `KIZZLE_BENCH_SAMPLES` to bench a single corpus size (CI smoke uses
//! a small one); the default sweep is 1,000 and 5,000 samples.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kizzle_bench::distinct_day_class_strings;
use kizzle_cluster::{CorpusEngine, DbscanParams, DistributedConfig};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Duration;

fn corpus_sizes() -> Vec<usize> {
    match std::env::var("KIZZLE_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        Some(n) => vec![n],
        None => vec![1000, 5000],
    }
}

fn engine_config() -> DistributedConfig {
    DistributedConfig::new(4, DbscanParams::new(0.10, 4), 42)
}

/// A fully warm engine over `n` synthetic samples: everything indexed and
/// every neighborhood memoized (`insert_batch` memoizes on insert), exactly
/// the state a long-lived day-N process carries.
fn warm_engine(n: usize) -> CorpusEngine {
    let strings = distinct_day_class_strings(n, 900);
    let mut engine = CorpusEngine::new(engine_config());
    engine.add_batch(1, &strings);
    assert_eq!(
        engine.index().cached_count(),
        n,
        "fixture must dedup nothing"
    );
    engine
}

/// A scratch chain directory (a chain directory hosts one chain).
fn scratch_dir(kind: &str, n: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kizzle-bench-{kind}-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn bench_snapshot_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot_roundtrip");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5))
        .warm_up_time(Duration::from_secs(1));

    let sizes = corpus_sizes();
    let base = sizes[0];
    for n in sizes {
        let engine = warm_engine(n);
        let full_dir = scratch_dir("snapshot", n);

        group.bench_with_input(BenchmarkId::new("save", n), &engine, |b, engine| {
            b.iter(|| {
                let save = engine
                    .snapshot_delta(black_box(&full_dir), 0)
                    .expect("snapshot write");
                assert!(save.wrote_base, "full snapshot expected: {save:?}");
                black_box(save.bytes)
            })
        });

        let bytes = engine
            .snapshot_delta(&full_dir, 0)
            .expect("snapshot write")
            .bytes;
        eprintln!(
            "snapshot_roundtrip/bytes_on_disk/{n}: {bytes} bytes \
             ({:.1} per sample, {} cached neighborhoods)",
            bytes as f64 / n as f64,
            engine.index().cached_count()
        );

        group.bench_with_input(BenchmarkId::new("load", n), &full_dir, |b, dir| {
            b.iter(|| {
                let (engine, report) = CorpusEngine::resume_chain(engine_config(), black_box(dir));
                assert!(report.index_restored, "bench must load warm: {report:?}");
                assert_eq!(engine.index().cached_count(), n);
                black_box(engine.len())
            })
        });
        std::fs::remove_dir_all(&full_dir).ok();

        group.bench_with_input(
            BenchmarkId::new("encode_sections", n),
            &engine,
            |b, engine| b.iter(|| black_box(engine.encode_sections().len())),
        );

        // The incremental chain: day 2 churns 10% of the corpus, then
        // persists only what changed against the day-1 base.
        let churn = (n / 10).max(1);
        let mut day2 = engine.clone();
        let strings = distinct_day_class_strings(n + churn, 900);
        for id in day2.store().live_ids().into_iter().take(churn) {
            day2.remove(id);
        }
        day2.add_batch(2, &strings[n..]);
        let chain_dir = scratch_dir("chain", n);
        engine.snapshot_delta(&chain_dir, 8).expect("base written");
        let manifest_path = chain_dir.join("MANIFEST");
        let base_manifest = std::fs::read(&manifest_path).expect("manifest exists");

        group.bench_with_input(BenchmarkId::new("save_delta", n), &day2, |b, day2| {
            b.iter(|| {
                // Rewind the chain record to just-after-base so every
                // iteration writes the same delta-1.
                std::fs::write(&manifest_path, &base_manifest).expect("manifest reset");
                let save = day2
                    .snapshot_delta(black_box(&chain_dir), 8)
                    .expect("delta");
                assert!(!save.wrote_base, "delta expected: {save:?}");
                black_box(save.bytes)
            })
        });

        {
            std::fs::write(&manifest_path, &base_manifest).expect("manifest reset");
            let save = day2.snapshot_delta(&chain_dir, 8).expect("delta");
            eprintln!(
                "snapshot_roundtrip/delta_bytes_on_disk/{n}: {} bytes in {} changed section(s) \
                 (10% churn vs full base above)",
                save.bytes, save.sections_written
            );
        }

        group.bench_with_input(BenchmarkId::new("load_chain", n), &chain_dir, |b, dir| {
            b.iter(|| {
                let (engine, report) = CorpusEngine::resume_chain(engine_config(), black_box(dir));
                assert!(report.is_warm(), "chain must resume warm: {report:?}");
                black_box(engine.len())
            })
        });
        std::fs::remove_dir_all(&chain_dir).ok();

        // The cron-restart comparison at the base size only: the cold arm
        // pays one eps-ball query per sample (the cost this subsystem
        // exists to avoid) and is too slow to sample at 5k.
        if n == base {
            let strings = distinct_day_class_strings(n, 900);
            group.bench_with_input(
                BenchmarkId::new("cold_rebuild", n),
                &strings,
                |b, strings| {
                    b.iter(|| {
                        let mut engine = CorpusEngine::new(engine_config());
                        engine.add_batch(1, strings);
                        assert_eq!(engine.index().cached_count(), n);
                        black_box(engine.len())
                    })
                },
            );
        }
    }

    group.finish();
}

/// The checksum every saved and every loaded byte goes through, alone.
fn bench_crc32(c: &mut Criterion) {
    let mut group = c.benchmark_group("crc32");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_secs(1));
    let bytes: Vec<u8> = (0u32..1 << 20)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    group.bench_function("1MiB", |b| {
        b.iter(|| black_box(kizzle_snapshot::crc32(black_box(&bytes))))
    });
    group.finish();
}

criterion_group!(snapshot_roundtrip, bench_snapshot_roundtrip, bench_crc32);
criterion_main!(snapshot_roundtrip);
