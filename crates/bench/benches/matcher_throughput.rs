//! Serving-side scan throughput through [`Matcher`] handles (ISSUE 5).
//!
//! The matcher is the side of the façade that must keep up with live
//! traffic: handles are cloned one per worker, each scan is an atomic
//! epoch check plus an uncontended cache lock, and the signature set
//! behind the `Arc` is immutable. This bench measures:
//!
//! * `scan_miss` / `scan_hit` — single-handle latency on pre-tokenized
//!   benign and malicious streams (the anchored-scan fast paths).
//! * `scan_punct` — minified-style punctuation-heavy streams where almost
//!   every token is a one-byte operator: the automaton's first-byte
//!   skip-loop rejects these before the root goto-table probe (PR 7).
//! * `scan_document_miss` / `scan_document_hit` — the same pages as raw
//!   documents through [`Matcher::scan_verdict`]: lex into per-thread
//!   scratch, match the borrowed view. This is the path `kizzle-serve`
//!   runs per request; the difference to the pre-tokenized arms is the
//!   lexer.
//! * `parallel_scan_<W>x<K>` — one iteration scans `W × K` streams
//!   through `W` independently cloned handles on the rayon pool: the
//!   multi-worker serving loop in miniature. Scans/sec is printed to
//!   stderr for PERF.md.
//!
//! `KIZZLE_BENCH_SAMPLES` scales the probe count (default 256).

use criterion::{criterion_group, criterion_main, Criterion};
use kizzle::prelude::*;
use kizzle_bench::packed_samples;
use kizzle_corpus::{GraywareStream, SimDate, StreamConfig};
use kizzle_js::TokenStream;
use rayon::prelude::*;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn probe_count() -> usize {
    std::env::var("KIZZLE_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// A service with a realistic published set: three sealed days of the
/// default stream (cumulative signatures, same-day response included).
fn compiled_service() -> KizzleService {
    let config = KizzleConfig::fast();
    let start = SimDate::new(2014, 8, 5);
    let reference = ReferenceCorpus::seeded_from_models(start, &config);
    let mut service = KizzleService::new(config, reference).expect("fast config is valid");
    let mut date = start;
    for seed in [3u64, 4, 5] {
        let day = GraywareStream::new(StreamConfig {
            samples_per_day: 64,
            malicious_fraction: 0.5,
            seed,
            ..StreamConfig::default()
        })
        .generate_day(date);
        let _ = service.process_day(date, &day).expect("day seals");
        date = date.next();
    }
    assert!(
        !service.signatures().is_empty(),
        "bench needs a published set"
    );
    service
}

fn tokenize_capped(documents: &[String], cap: usize) -> Vec<TokenStream> {
    documents
        .iter()
        .map(|d| kizzle_js::tokenize_document_capped(d, cap))
        .collect()
}

fn bench_matcher(c: &mut Criterion) {
    let service = compiled_service();
    let matcher = service.matcher();
    let cap = service.config().token_cap;

    // Probes: benign pages (misses) and packed kit pages of a signed
    // family (hits), pre-tokenized so the bench isolates scan cost.
    let n = probe_count();
    let benign: Vec<String> = {
        use kizzle_corpus::benign::{generate_benign, BenignKind};
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
        (0..n)
            .map(|i| {
                let kind = match i % 3 {
                    0 => BenignKind::Analytics,
                    1 => BenignKind::LibraryBoilerplate,
                    _ => BenignKind::PluginDetect,
                };
                generate_benign(kind, &mut rng)
            })
            .collect()
    };
    let miss_streams = tokenize_capped(&benign, cap);
    let packed = packed_samples(kizzle_corpus::KitFamily::Nuclear, 5, n.min(64));
    let hit_streams = tokenize_capped(&packed, cap);
    // Minified-style pages: long runs of one-byte identifiers and
    // operators, the worst case for a per-token automaton probe and the
    // best case for the first-byte skip-loop.
    let punct: Vec<String> = (0..n)
        .map(|i| {
            let mut page = String::from("<html><script>");
            for k in 0..400 {
                page.push_str(match (i + k) % 6 {
                    0 => "a=b;",
                    1 => "c=(d);",
                    2 => "e&&f;",
                    3 => "g[h]=i;",
                    4 => "j!=k;",
                    _ => "l+=m;",
                });
            }
            page.push_str("</script></html>");
            page
        })
        .collect();
    let punct_streams = tokenize_capped(&punct, cap);

    let mut group = c.benchmark_group("matcher_throughput");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(5))
        .warm_up_time(Duration::from_secs(1));

    group.bench_function("scan_miss", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % miss_streams.len();
            black_box(matcher.scan_stream(&miss_streams[i]))
        })
    });

    group.bench_function("scan_hit", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % hit_streams.len();
            black_box(matcher.scan_stream(&hit_streams[i]))
        })
    });

    group.bench_function("scan_punct", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % punct_streams.len();
            black_box(matcher.scan_stream(&punct_streams[i]))
        })
    });

    group.bench_function("scan_document_miss", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % benign.len();
            black_box(matcher.scan_verdict(&benign[i]))
        })
    });

    group.bench_function("scan_document_hit", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % packed.len();
            black_box(matcher.scan_verdict(&packed[i]))
        })
    });

    // The multi-worker serving loop: W handles (one clone each), W × K
    // streams per iteration through the rayon pool. A 50/50 hit/miss mix
    // keeps both scan paths in the measurement. W is pinned at 4 so the
    // benchmark *name* (and with it the thresholds.json key the CI gate
    // matches on) is machine-independent; the pool width underneath is
    // still whatever the machine has.
    let workers = 4usize;
    let per_worker = (n / workers).max(16);
    let workloads: Vec<(Matcher, Vec<TokenStream>)> = (0..workers)
        .map(|w| {
            let probes: Vec<TokenStream> = (0..per_worker)
                .map(|k| {
                    if (w + k) % 2 == 0 {
                        miss_streams[(w * per_worker + k) % miss_streams.len()].clone()
                    } else {
                        hit_streams[(w * per_worker + k) % hit_streams.len()].clone()
                    }
                })
                .collect();
            (matcher.clone(), probes)
        })
        .collect();
    let scans_per_iter = workers * per_worker;

    group.bench_function(format!("parallel_scan_{workers}x{per_worker}"), |b| {
        b.iter(|| {
            let per_worker_hits: Vec<usize> = workloads
                .par_iter()
                .map(|(handle, probes)| {
                    probes
                        .iter()
                        .filter(|s| handle.scan_stream(s).is_some())
                        .count()
                })
                .collect();
            black_box(per_worker_hits.iter().sum::<usize>())
        })
    });
    group.finish();

    // Headline number for PERF.md: sustained scans/sec across the pool.
    let t = Instant::now();
    let mut rounds = 0usize;
    while t.elapsed() < Duration::from_secs(2) {
        let per_worker_hits: Vec<usize> = workloads
            .par_iter()
            .map(|(handle, probes)| {
                probes
                    .iter()
                    .filter(|s| handle.scan_stream(s).is_some())
                    .count()
            })
            .collect();
        black_box(per_worker_hits.iter().sum::<usize>());
        rounds += 1;
    }
    let scans = rounds * scans_per_iter;
    eprintln!(
        "matcher_throughput: {:.0} scans/sec across {workers} workers ({scans} scans in {:.2}s)",
        scans as f64 / t.elapsed().as_secs_f64(),
        t.elapsed().as_secs_f64()
    );
}

criterion_group!(benches, bench_matcher);
criterion_main!(benches);
