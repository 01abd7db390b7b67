//! Micro-benchmarks of the individual pipeline stages.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kizzle_bench::{packed_samples, tokenized};
use kizzle_cluster::distance::{
    edit_distance, normalized_edit_distance_bounded, BitParallelPattern, BitParallelScratch,
};
use kizzle_corpus::KitFamily;
use kizzle_js::TokenStream;
use kizzle_signature::prefilter::StreamProfile;
use kizzle_signature::{generate_signature, SignatureConfig};
use kizzle_winnow::{Fingerprint, WinnowConfig};
use std::hint::black_box;
use std::time::Duration;

fn group<'a>(
    c: &'a mut Criterion,
    name: &str,
) -> criterion::BenchmarkGroup<'a, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group(name);
    g.sample_size(20)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_secs(1));
    g
}

fn bench_edit_distance(c: &mut Criterion) {
    let mut g = group(c, "edit_distance");
    let docs = packed_samples(KitFamily::Rig, 10, 2);
    let streams = tokenized(&docs, 800);
    let a = streams[0].class_codes();
    let b_codes = streams[1].class_codes();
    g.bench_function("full", |bench| {
        bench.iter(|| black_box(edit_distance(&a, &b_codes)))
    });
    g.bench_function("bounded_at_paper_threshold", |bench| {
        bench.iter(|| black_box(normalized_edit_distance_bounded(&a, &b_codes, 0.10)))
    });

    // The kernel as the index and the medoid passes call it — pattern
    // built once, scratch reused — over the pair shapes a day is made of.
    // `page` is one Rig page's class string, repeated to the length asked.
    let page = |len: usize| -> Vec<u8> { a.iter().copied().cycle().take(len).collect() };
    fn substituted(base: &[u8], at: impl Iterator<Item = usize>) -> Vec<u8> {
        let mut edited = base.to_vec();
        for i in at {
            edited[i] = edited[i].wrapping_add(1);
        }
        edited
    }
    let long = page(848);
    // A 7-token insertion into a short stock page.
    let short = page(114);
    let inserted = [&short[..60], &[1, 2, 3, 4, 5, 6, 7], &short[60..]].concat();
    let pairs = [
        // A diverse day's pair: same page, different 8-token prefix.
        ("prefix_diff_848", &long, substituted(&long, 0..8), true),
        ("insertion_121", &inserted, short.clone(), true),
        // Eight edits ~94 symbols apart: a ninth of the page to strip at
        // each end, so this arm holds the trim attempt to the cost of the
        // bare block kernel.
        (
            "scattered_848",
            &long,
            substituted(&long, (1..=8).map(|k| k * 848 / 9)),
            true,
        ),
        // 106 edits against a budget of 84: the pair the kernel abandons.
        (
            "beyond_eps_848",
            &long,
            substituted(&long, (0..848).step_by(8)),
            false,
        ),
    ];
    for (arm, pattern, text, within_eps) in &pairs {
        let pattern = BitParallelPattern::new(pattern);
        let mut scratch = BitParallelScratch::default();
        let d = pattern.normalized_distance_bounded_in(text, 0.10, &mut scratch);
        assert_eq!(d.is_some(), *within_eps, "{arm}: {d:?}");
        g.bench_function(*arm, |bench| {
            bench.iter(|| {
                black_box(pattern.normalized_distance_bounded_in(
                    black_box(text),
                    0.10,
                    &mut scratch,
                ))
            })
        });
    }
    g.finish();
}

fn bench_winnowing(c: &mut Criterion) {
    let mut g = group(c, "winnowing");
    let payload = kizzle_corpus::KitModel::new(KitFamily::Angler)
        .reference_payload(kizzle_corpus::SimDate::new(2014, 8, 15));
    let cfg = WinnowConfig::default();
    g.bench_function("fingerprint_unpacked_payload", |b| {
        b.iter(|| black_box(Fingerprint::of_text(&payload, &cfg)).len())
    });
    let fp_a = Fingerprint::of_text(&payload, &cfg);
    let other = kizzle_corpus::KitModel::new(KitFamily::Nuclear)
        .reference_payload(kizzle_corpus::SimDate::new(2014, 8, 15));
    let fp_b = Fingerprint::of_text(&other, &cfg);
    g.bench_function("overlap", |b| b.iter(|| black_box(fp_a.overlap(&fp_b))));
    g.finish();
}

fn bench_scanning(c: &mut Criterion) {
    let mut g = group(c, "scanning");
    let samples = tokenized(&packed_samples(KitFamily::Nuclear, 26, 6), 600);
    let signature =
        generate_signature("bench.sig", &samples, &SignatureConfig::default()).expect("signature");
    let benign_doc = {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        kizzle_corpus::benign::generate_benign(
            kizzle_corpus::benign::BenignKind::PluginDetect,
            &mut rng,
        )
    };
    let benign_stream = kizzle_js::tokenize_document(&benign_doc);
    g.bench_function("match_hit", |b| {
        b.iter(|| black_box(signature.matches_stream(&samples[0])))
    });
    g.bench_function("match_miss_benign", |b| {
        b.iter(|| black_box(signature.matches_stream(&benign_stream)))
    });
    g.finish();
}

/// Signature generation over one Rig cluster of 32 members (the
/// subsampling cap) of 762 tokens: all one class string, as a stock kit
/// day delivers them, and all distinct — every page behind its own
/// 8-token prefix — as a near-duplicate kit day does.
fn bench_signature_generation(c: &mut Criterion) {
    let mut g = group(c, "signature_generate");
    let docs = packed_samples(KitFamily::Rig, 12, 32);
    let prefixed: Vec<String> = (0u64..)
        .zip(&docs)
        .map(|(i, doc)| kizzle_corpus::variation_prefix(i) + doc)
        .collect();
    let config = SignatureConfig::default();
    for (arm, docs) in [("dup_32x762", &docs), ("distinct_32x762", &prefixed)] {
        let members = tokenized(docs, 900);
        g.bench_function(arm, |b| {
            b.iter(|| black_box(generate_signature("bench.sig", &members, &config)).is_ok())
        });
    }
    g.finish();
}

/// Stage 2 of a hit: the token profiles a scan builds from the page's
/// first token through the window its signature matches, for one
/// SweetOrange page (payload chunks of ~260 bytes) and one Rig page.
fn bench_profile(c: &mut Criterion) {
    let mut g = group(c, "prefilter");
    let prefixes: Vec<(TokenStream, usize)> = [KitFamily::SweetOrange, KitFamily::Rig]
        .into_iter()
        .map(|family| {
            let members = tokenized(&packed_samples(family, 12, 8), 900);
            let signature = generate_signature("bench.sig", &members, &SignatureConfig::default())
                .expect("signature");
            let page = members.into_iter().next().expect("a member");
            let start = signature
                .find_in_tokens(page.tokens())
                .expect("a member matches its signature");
            let upto = start + signature.elements.len();
            let bytes: usize = page
                .tokens()
                .window(0, upto)
                .into_iter()
                .map(|t| t.unquoted().len())
                .sum();
            eprintln!(
                "prefilter/profile_hit_prefix: {family:?} profiles {upto} tokens, {bytes} bytes"
            );
            (page, upto)
        })
        .collect();
    let mut profile = StreamProfile::new();
    g.bench_function("profile_hit_prefix", |b| {
        b.iter(|| {
            for (page, upto) in &prefixes {
                profile.reset();
                profile.ensure(page.tokens(), *upto);
            }
            black_box(profile.covered())
        })
    });
    g.finish();
}

fn bench_unpackers(c: &mut Criterion) {
    let mut g = group(c, "unpackers");
    for family in KitFamily::ALL {
        let doc = packed_samples(family, 20, 1).remove(0);
        g.bench_with_input(
            BenchmarkId::new("unpack", family.short_code()),
            &doc,
            |b, doc| b.iter(|| black_box(kizzle_unpack::unpack(family, doc)).map(|p| p.len())),
        );
    }
    g.finish();
}

criterion_group!(
    components,
    bench_edit_distance,
    bench_winnowing,
    bench_scanning,
    bench_signature_generation,
    bench_profile,
    bench_unpackers
);
criterion_main!(components);
