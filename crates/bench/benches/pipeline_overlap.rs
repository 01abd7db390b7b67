//! Pipelined day ingest: sustained frontend throughput and two-day
//! overlap (PR 7).
//!
//! * `sustained_ingest/idle_64` — a 64-sample day submitted in
//!   mini-batches through the bounded-channel frontend with **no** seal
//!   in flight: the steady-state tokenize/dedup/store-insert cost off the
//!   producer's thread.
//! * `sustained_ingest/during_seal_64` — the same pipelined ingest while
//!   the *previous* day's `seal_background` runs (plus that seal's cost:
//!   the vendored harness times whole routines). The ingest-only
//!   seal-in-flight/idle throughput ratio is measured separately and
//!   printed to stderr for PERF.md.
//! * `two_day_overlap/serial` vs `two_day_overlap/pipelined` — two days
//!   sealed back to back: `process_day` (one `ingest` + inline `seal`)
//!   twice, versus day A
//!   sealing in the background while day B ingests. On a multi-core box
//!   the pipelined arm's wall-clock drops below serial; on a single core
//!   the work serializes and the win is the hidden `begin_day(d+1)`
//!   latency instead (both numbers printed to stderr).
//!
//! Every routine reuses one date: re-opening the same day is the
//! documented crash-recovery path, and identical content dedups onto the
//! warm store, so state stays bounded across iterations.

use criterion::{criterion_group, criterion_main, Criterion};
use kizzle::prelude::*;
use kizzle_corpus::{GraywareStream, Sample, SimDate, StreamConfig};
use kizzle_js::TokenStream;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fresh_service() -> KizzleService {
    let config = KizzleConfig::fast();
    let reference = ReferenceCorpus::seeded_from_models(SimDate::new(2014, 8, 1), &config);
    KizzleService::new(config, reference).expect("fast config is valid")
}

fn day(seed: u64) -> Arc<[Sample]> {
    GraywareStream::new(StreamConfig {
        samples_per_day: 64,
        malicious_fraction: 0.5,
        seed,
        ..StreamConfig::default()
    })
    .generate_day(SimDate::new(2014, 8, 5))
    .into()
}

fn tokenize(service: &KizzleService, samples: &[Sample]) -> Vec<TokenStream> {
    let token_cap = service.config().token_cap;
    samples
        .iter()
        .map(|s| kizzle_js::tokenize_document_capped(&s.html, token_cap))
        .collect()
}

/// The whole pre-tokenized day as one batch sharing the bench's buffers.
fn whole_day(samples: &Arc<[Sample]>, streams: &[TokenStream]) -> Batch {
    Batch::tokenized(Arc::clone(samples), streams.to_vec())
}

/// Pipelined ingest of `chunks` into a session on `date`, abandoned after
/// the worker has applied everything (ingest cost without seal cost).
fn pipelined_ingest(service: &mut KizzleService, date: SimDate, chunks: &[Arc<[Sample]>]) {
    let total: usize = chunks.iter().map(|c| c.len()).sum();
    let mut session = service.begin_day(date).expect("same-day reopen is allowed");
    let producer = session.pipeline(4);
    for chunk in chunks {
        assert!(producer.send(Arc::clone(chunk)));
    }
    drop(producer);
    while session.ingested() < total {
        std::thread::yield_now();
    }
}

fn bench_pipeline(c: &mut Criterion) {
    let date = SimDate::new(2014, 8, 5);
    let day_a = day(3);
    let day_b = day(4);

    // --- sustained_ingest -------------------------------------------------
    let mut group = c.benchmark_group("sustained_ingest");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5))
        .warm_up_time(Duration::from_secs(1));

    {
        let mut service = fresh_service();
        let chunks: Vec<Arc<[Sample]>> = day_b.chunks(8).map(Arc::from).collect();
        group.bench_function("idle_64", |b| {
            b.iter(|| pipelined_ingest(&mut service, date, &chunks))
        });
    }

    {
        let mut service = fresh_service();
        let streams_a = tokenize(&service, &day_a);
        let chunks: Vec<Arc<[Sample]>> = day_b.chunks(8).map(Arc::from).collect();
        group.bench_function("during_seal_64", |b| {
            b.iter(|| {
                let mut a = service.begin_day(date).expect("day opens");
                a.ingest(whole_day(&day_a, &streams_a));
                let handle = a.seal_background();
                pipelined_ingest(&mut service, date, &chunks);
                black_box(handle.wait().clusters)
            })
        });
    }
    group.finish();

    // Ingest-only ratio for PERF.md: time the pipelined ingest window with
    // and without a seal in flight (the criterion arm above can't exclude
    // the seal's own cost from its routine).
    {
        let mut service = fresh_service();
        let streams_a = tokenize(&service, &day_a);
        let chunks: Vec<Arc<[Sample]>> = day_b.chunks(8).map(Arc::from).collect();
        let rounds = 40;
        // Warm the store so both measurements dedup onto live entries.
        pipelined_ingest(&mut service, date, &chunks);
        let t = Instant::now();
        for _ in 0..rounds {
            pipelined_ingest(&mut service, date, &chunks);
        }
        let idle = t.elapsed() / rounds;
        let mut with_seal = Duration::ZERO;
        for _ in 0..rounds {
            let mut a = service.begin_day(date).expect("day opens");
            a.ingest(whole_day(&day_a, &streams_a));
            let handle = a.seal_background();
            let t = Instant::now();
            pipelined_ingest(&mut service, date, &chunks);
            with_seal += t.elapsed();
            black_box(handle.wait());
        }
        let with_seal = with_seal / rounds;
        eprintln!(
            "sustained_ingest: idle {:?}/day, seal-in-flight {:?}/day — {:.0}% of idle throughput",
            idle,
            with_seal,
            idle.as_secs_f64() / with_seal.as_secs_f64() * 100.0
        );
    }

    // --- two_day_overlap --------------------------------------------------
    let mut group = c.benchmark_group("two_day_overlap");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5))
        .warm_up_time(Duration::from_secs(1));

    {
        let mut service = fresh_service();
        let streams_a = tokenize(&service, &day_a);
        let streams_b = tokenize(&service, &day_b);
        group.bench_function("serial", |b| {
            b.iter(|| {
                let r1 = service
                    .process_day(date, whole_day(&day_a, &streams_a))
                    .expect("day seals");
                let r2 = service
                    .process_day(date, whole_day(&day_b, &streams_b))
                    .expect("day seals");
                black_box(r1.clusters + r2.clusters)
            })
        });
    }

    {
        let mut service = fresh_service();
        let streams_a = tokenize(&service, &day_a);
        let streams_b = tokenize(&service, &day_b);
        group.bench_function("pipelined", |b| {
            b.iter(|| {
                let mut a = service.begin_day(date).expect("day opens");
                a.ingest(whole_day(&day_a, &streams_a));
                let handle = a.seal_background();
                // Day B ingests while day A clusters on the seal thread.
                let mut b_session = service.begin_day(date).expect("day opens");
                b_session.ingest(whole_day(&day_b, &streams_b));
                let r2 = b_session.seal();
                black_box(handle.wait().clusters + r2.clusters)
            })
        });
    }
    group.finish();

    // Headline wall-clock pair for PERF.md.
    {
        let mut serial_svc = fresh_service();
        let streams_a = tokenize(&serial_svc, &day_a);
        let streams_b = tokenize(&serial_svc, &day_b);
        let rounds = 10;
        let t = Instant::now();
        for _ in 0..rounds {
            for (day, streams) in [(&day_a, &streams_a), (&day_b, &streams_b)] {
                black_box(
                    serial_svc
                        .process_day(date, whole_day(day, streams))
                        .expect("day seals")
                        .clusters,
                );
            }
        }
        let serial = t.elapsed() / rounds;
        let mut piped_svc = fresh_service();
        let streams_a = tokenize(&piped_svc, &day_a);
        let streams_b = tokenize(&piped_svc, &day_b);
        let t = Instant::now();
        for _ in 0..rounds {
            let mut a = piped_svc.begin_day(date).expect("day opens");
            a.ingest(whole_day(&day_a, &streams_a));
            let handle = a.seal_background();
            let mut b = piped_svc.begin_day(date).expect("day opens");
            b.ingest(whole_day(&day_b, &streams_b));
            black_box(handle.wait().clusters + b.seal().clusters);
        }
        let piped = t.elapsed() / rounds;
        eprintln!(
            "two_day_overlap: serial {serial:?}, pipelined {piped:?} ({:+.0}% wall-clock)",
            (piped.as_secs_f64() / serial.as_secs_f64() - 1.0) * 100.0
        );
    }
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
