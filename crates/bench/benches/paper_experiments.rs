//! One Criterion group per paper table/figure (DESIGN.md index E1–E12),
//! plus the ablations of DESIGN.md §5. Each bench regenerates the
//! experiment at a reduced scale so the whole harness finishes in minutes;
//! the `experiments` binary produces the full-scale numbers recorded in
//! EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kizzle::{KizzleConfig, KizzleService, ReferenceCorpus};
use kizzle_bench::{class_strings, packed_samples, tokenized};
use kizzle_cluster::distance::normalized_edit_distance;
use kizzle_cluster::{dbscan, DbscanParams, DistributedClusterer, DistributedConfig};
use kizzle_corpus::{GraywareStream, KitFamily, SimDate, StreamConfig};
use kizzle_eval::similarity::similarity_over_time;
use kizzle_signature::{generate_signature, SignatureConfig};
use kizzle_winnow::{Fingerprint, WinnowConfig};
use std::hint::black_box;
use std::time::Duration;

fn configured<'a>(
    c: &'a mut Criterion,
    name: &str,
) -> criterion::BenchmarkGroup<'a, criterion::measurement::WallTime> {
    let mut group = c.benchmark_group(name);
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4))
        .warm_up_time(Duration::from_secs(1));
    group
}

/// E1 / Fig. 2 — CVE table rendering.
fn fig02_cve_table(c: &mut Criterion) {
    let mut group = configured(c, "fig02_cve_table");
    group.bench_function("render", |b| {
        b.iter(|| black_box(kizzle_corpus::family::cve_table()))
    });
    group.finish();
}

/// E2 / Fig. 5 — evolution timeline derivation.
fn fig05_evolution(c: &mut Criterion) {
    let mut group = configured(c, "fig05_evolution");
    group.bench_function("nuclear_timeline", |b| {
        b.iter(|| black_box(kizzle_corpus::evolution::timeline(KitFamily::Nuclear)))
    });
    group.bench_function("state_on_every_day", |b| {
        b.iter(|| {
            for date in SimDate::evolution_start().range_inclusive(SimDate::evaluation_end()) {
                black_box(kizzle_corpus::KitState::on_date(KitFamily::Nuclear, date));
            }
        })
    });
    group.finish();
}

/// E3+E7+E8+E9+E11 — one day of the monthly evaluation pipeline (the full
/// month is produced by the `experiments` binary).
fn fig06_12_13_14_monthly_day(c: &mut Criterion) {
    let mut group = configured(c, "fig06_12_13_14_monthly_day");
    let date = SimDate::new(2014, 8, 14);
    let stream = GraywareStream::new(StreamConfig {
        samples_per_day: 80,
        malicious_fraction: 0.3,
        ..StreamConfig::small(5)
    });
    let day = stream.generate_day(date);
    group.bench_function("process_and_scan_one_day", |b| {
        b.iter(|| {
            let config = KizzleConfig::fast();
            let reference = ReferenceCorpus::seeded_from_models(date, &config);
            let mut service = KizzleService::new(config, reference).expect("fast config is valid");
            service.process_day(date, &day).expect("day processes");
            let matcher = service.matcher();
            let hits = day
                .iter()
                .filter(|s| matcher.scan(&s.html).is_some())
                .count();
            black_box(hits)
        })
    });
    group.finish();
}

/// E4 / Fig. 8 — tokenization of a full landing page.
fn fig08_tokenize(c: &mut Criterion) {
    let mut group = configured(c, "fig08_tokenize");
    for family in KitFamily::ALL {
        let doc = packed_samples(family, 15, 1).remove(0);
        group.bench_with_input(
            BenchmarkId::new("tokenize_document", family.short_code()),
            &doc,
            |b, doc| b.iter(|| black_box(kizzle_js::tokenize_document(doc)).len()),
        );
    }
    group.finish();
}

/// E5 / Figs. 9–10 — signature generation from a cluster.
fn fig09_siggen(c: &mut Criterion) {
    let mut group = configured(c, "fig09_siggen");
    for family in KitFamily::ALL {
        let samples = tokenized(&packed_samples(family, 26, 8), 600);
        group.bench_with_input(
            BenchmarkId::new("generate_signature", family.short_code()),
            &samples,
            |b, samples| {
                b.iter(|| {
                    black_box(generate_signature(
                        "bench.sig",
                        samples,
                        &SignatureConfig::default(),
                    ))
                })
            },
        );
    }
    group.finish();
}

/// E6 / Fig. 11 — similarity over time (one week per family).
fn fig11_similarity(c: &mut Criterion) {
    let mut group = configured(c, "fig11_similarity");
    for family in KitFamily::ALL {
        group.bench_with_input(
            BenchmarkId::new("one_week", family.short_code()),
            &family,
            |b, family| {
                b.iter(|| {
                    black_box(similarity_over_time(
                        *family,
                        SimDate::new(2014, 8, 1),
                        SimDate::new(2014, 8, 7),
                        &WinnowConfig::default(),
                    ))
                })
            },
        );
    }
    group.finish();
}

/// E10 / Fig. 15 — the PluginDetect false-positive overlap.
fn fig15_fp_case(c: &mut Criterion) {
    let mut group = configured(c, "fig15_fp_case");
    group.bench_function("plugindetect_vs_nuclear", |b| {
        b.iter(|| {
            black_box(kizzle_eval::similarity::plugindetect_overlap_with_nuclear(
                1,
                &WinnowConfig::default(),
            ))
        })
    });
    group.finish();
}

/// E11 / §IV — distributed clustering performance vs partition count.
fn perf_clustering(c: &mut Criterion) {
    let mut group = configured(c, "perf_clustering");
    let mut docs = Vec::new();
    for family in KitFamily::ALL {
        docs.extend(packed_samples(family, 10, 12));
    }
    let strings = class_strings(&docs, 600);
    for partitions in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("partitions", partitions),
            &partitions,
            |b, &partitions| {
                let clusterer = DistributedClusterer::new(DistributedConfig::new(
                    partitions,
                    DbscanParams::kizzle_default(),
                    7,
                ));
                b.iter(|| {
                    black_box(clusterer.cluster_token_strings(&strings))
                        .0
                        .cluster_count()
                })
            },
        );
    }
    group.finish();
}

/// E12 / Fig. 1 — one iteration of the adversarial cycle.
fn cycle_adversarial(c: &mut Criterion) {
    let mut group = configured(c, "cycle_adversarial");
    group.bench_function("nuclear_month_4_samples_per_day", |b| {
        b.iter(|| {
            black_box(kizzle_eval::adversarial::run_cycle(
                KitFamily::Nuclear,
                4,
                3,
            ))
            .mutations
        })
    });
    group.finish();
}

/// Ablation (DESIGN.md §5): DBSCAN epsilon.
fn ablation_epsilon(c: &mut Criterion) {
    let mut group = configured(c, "ablation_epsilon");
    let mut docs = Vec::new();
    for family in [KitFamily::Nuclear, KitFamily::Angler] {
        docs.extend(packed_samples(family, 10, 10));
    }
    let strings = class_strings(&docs, 500);
    for eps in [0.05f64, 0.10, 0.20] {
        group.bench_with_input(
            BenchmarkId::new("eps", format!("{eps:.2}")),
            &eps,
            |b, &eps| {
                b.iter(|| {
                    let result = dbscan(&strings, &DbscanParams::new(eps, 3), |a, b| {
                        normalized_edit_distance(a, b)
                    });
                    black_box(result.cluster_count())
                })
            },
        );
    }
    group.finish();
}

/// Ablation (DESIGN.md §5): winnowing parameters.
fn ablation_winnow(c: &mut Criterion) {
    let mut group = configured(c, "ablation_winnow");
    let payload = kizzle_corpus::KitModel::new(KitFamily::Nuclear)
        .reference_payload(SimDate::new(2014, 8, 15));
    for (k, w) in [(8usize, 4usize), (12, 8), (20, 16)] {
        group.bench_with_input(
            BenchmarkId::new("k_w", format!("{k}_{w}")),
            &(k, w),
            |b, &(k, w)| {
                let cfg = WinnowConfig::new(k, w);
                b.iter(|| black_box(Fingerprint::of_text(&payload, &cfg)).len())
            },
        );
    }
    group.finish();
}

/// Ablation (DESIGN.md §5): the 200-token signature cap.
fn ablation_sigcap(c: &mut Criterion) {
    let mut group = configured(c, "ablation_sigcap");
    let samples = tokenized(&packed_samples(KitFamily::SweetOrange, 20, 8), 700);
    for cap in [50usize, 200, 400] {
        group.bench_with_input(BenchmarkId::new("max_tokens", cap), &cap, |b, &cap| {
            let config = SignatureConfig {
                max_tokens: cap,
                ..SignatureConfig::default()
            };
            b.iter(|| black_box(generate_signature("bench.sig", &samples, &config)))
        });
    }
    group.finish();
}

criterion_group!(
    experiments,
    fig02_cve_table,
    fig05_evolution,
    fig06_12_13_14_monthly_day,
    fig08_tokenize,
    fig09_siggen,
    fig11_similarity,
    fig15_fp_case,
    perf_clustering,
    cycle_adversarial,
    ablation_epsilon,
    ablation_winnow,
    ablation_sigcap
);
criterion_main!(experiments);
