//! Kernel micro-benchmarks, each gated in `thresholds.json`: the Myers
//! distance kernel, the snapshot checksum, signature generation, the
//! scan's stage-2 token profile, the anchor trie's skip-loop, the anchor
//! gate over a large page, the lexer, and the seal's label loop.
//! Everything a whole day or a whole scan costs is the ledger's question
//! (`examples/perf_ledger`), not criterion's.

use criterion::{criterion_group, criterion_main, Criterion};
use kizzle::prelude::*;
use kizzle_bench::{packed_samples, tokenized};
use kizzle_cluster::distance::{
    normalized_edit_distance_bounded, BitParallelPattern, BitParallelScratch,
};
use kizzle_corpus::{GraywareStream, KitFamily, SimDate, StreamConfig};
use kizzle_js::TokenStream;
use kizzle_signature::prefilter::StreamProfile;
use kizzle_signature::{generate_signature, SignatureConfig};
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
    // Ungated: the one-off form, pattern built per call.
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

/// The checksum every saved and every loaded snapshot byte goes through.
fn bench_crc32(c: &mut Criterion) {
    let mut g = group(c, "crc32");
    let bytes: Vec<u8> = (0u32..1 << 20)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    g.bench_function("1MiB", |b| {
        b.iter(|| black_box(kizzle_snapshot::crc32(black_box(&bytes))))
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

/// Stage 2's token profiles and prefix sums over a hit page, from its
/// first token through the window its signature matches, for one
/// SweetOrange page (payload chunks of ~260 bytes) and one Rig page. A
/// scan covers only the candidate windows, so this is more tokens than it
/// profiles; a payload chunk, longer than 16 bytes, costs its
/// fingerprint, not a pass over its bytes.
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
                profile.ensure(page.tokens(), 0, *upto);
            }
            black_box(profile.covered())
        })
    });
    g.finish();
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

/// Minified-style pages — long runs of one-byte identifiers and
/// operators, almost every token a one-byte operator: 256 rotations of
/// one 400-statement script.
fn minified_pages() -> Vec<String> {
    (0..256usize)
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
        .collect()
}

/// The minified pages pre-tokenized and scanned through a `Matcher`
/// handle: the worst case for a per-token automaton probe and the best
/// case for its first-byte skip-loop.
fn bench_scan_punct(c: &mut Criterion) {
    let service = compiled_service();
    let matcher = service.matcher();
    let cap = service.config().token_cap;
    let punct_streams: Vec<TokenStream> = minified_pages()
        .iter()
        .map(|page| kizzle_js::tokenize_document_capped(page, cap))
        .collect();

    let mut g = group(c, "matcher_throughput");
    g.bench_function("scan_punct", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % punct_streams.len();
            black_box(matcher.scan_stream(&punct_streams[i]))
        })
    });

    // One 16 MiB document with no anchor in it, scanned raw: the anchor
    // gate's cost per byte with nothing to lex, beside the UTF-8 check the
    // daemon already pays on every frame of the same bytes.
    let set = matcher.signatures();
    assert_eq!(set.seal().gate_off(), None, "the published set is gated");
    let big = anchor_free_document(&set, 16 << 20);
    g.bench_function("gate_16mib_miss", |b| {
        b.iter(|| black_box(matcher.scan_verdict(black_box(&big))))
    });
    g.bench_function("utf8_16mib", |b| {
        b.iter(|| black_box(std::str::from_utf8(black_box(big.as_bytes())).is_ok()))
    });
    g.finish();
}

/// Does the anchor gate turn `document` away unlexed? Read off the
/// `kizzle_scan_gate_rejected_total` counter around one scan.
fn gated_out(set: &SignatureSet, document: &str) -> bool {
    let rejected = kizzle_telemetry::counter("kizzle_scan_gate_rejected_total");
    kizzle_telemetry::set_enabled(true);
    kizzle_signature::flush_scan_counters();
    let before = rejected.value();
    let _ = set.scan_document_index(document, usize::MAX);
    kizzle_signature::flush_scan_counters();
    kizzle_telemetry::set_enabled(false);
    rejected.value() > before
}

/// `len` bytes of benign pages that `set`'s anchor gate turns away.
fn anchor_free_document(set: &SignatureSet, len: usize) -> String {
    use kizzle_corpus::benign::{generate_benign, BenignKind};
    use rand::SeedableRng;

    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(16);
    let pages: Vec<String> = (0..256)
        .map(|i| generate_benign(BenignKind::ALL[i % BenignKind::ALL.len()], &mut rng))
        .filter(|page| gated_out(set, page))
        .collect();
    assert!(pages.len() > 128, "most benign pages hold no anchor");
    let mut document = String::with_capacity(len);
    for page in pages.iter().cycle() {
        if document.len() + page.len() > len {
            break;
        }
        document.push_str(page);
    }
    while document.len() < len {
        document.push(' ');
    }
    assert!(gated_out(set, &document));
    document
}

/// The lexer as the scan path and ingest run it: `lex_document` into a
/// kept span buffer. One `lex_stock_page` iteration lexes a fixed 64-page
/// mixture in the ledger's stock shares (15 % kit pages, the rest the
/// benign kinds, uniform) at the paper's cap of 900;
/// `lex_minified_page` lexes one whole minified page (1,935 tokens,
/// nearly all one-byte punctuation), where the per-token cost of the
/// dispatch loop is all there is; `lex_kit_page` lexes one of the 10 kit
/// pages whole, as a scan lexes a page that passes the anchor gate: most
/// of its bytes are string bodies, where the block skip is all there is.
fn bench_lex(c: &mut Criterion) {
    use kizzle_corpus::benign::{generate_benign, BenignKind};
    use kizzle_corpus::KitModel;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    // 10 of the 64 pages (15 %) are kit pages, about as the stream
    // weights its families (0.45, 0.25, 0.20, 0.10).
    use KitFamily::{Angler, Nuclear, Rig, SweetOrange};
    const KITS: [KitFamily; 10] = [
        Angler,
        Angler,
        Angler,
        Angler,
        SweetOrange,
        SweetOrange,
        SweetOrange,
        Nuclear,
        Nuclear,
        Rig,
    ];
    let date = SimDate::new(2014, 8, 14);
    let stock: Vec<String> = (0..64usize)
        .map(|i| {
            let mut rng = ChaCha8Rng::seed_from_u64(11_000 + i as u64);
            match KITS.get(i) {
                Some(&family) => KitModel::new(family).generate_sample(date, &mut rng),
                None => generate_benign(BenignKind::ALL[i % BenignKind::ALL.len()], &mut rng),
            }
        })
        .collect();
    let minified = minified_pages();
    let kits = &stock[..KITS.len()];
    let mut spans = Vec::new();
    let bytes: usize = stock.iter().map(String::len).sum();
    let tokens: usize = stock
        .iter()
        .map(|page| kizzle_js::lex_document(page, 900, &mut spans).0.len())
        .sum();
    eprintln!("jslex/lex_stock_page: 64 pages, {bytes} bytes, {tokens} tokens a round");
    let tokens = kizzle_js::lex_document(&minified[0], usize::MAX, &mut spans)
        .0
        .len();
    eprintln!(
        "jslex/lex_minified_page: {} bytes, {tokens} tokens a page",
        minified[0].len()
    );
    let bytes: usize = kits.iter().map(String::len).sum();
    let tokens: usize = kits
        .iter()
        .map(|page| {
            kizzle_js::lex_document(page, usize::MAX, &mut spans)
                .0
                .len()
        })
        .sum();
    eprintln!(
        "jslex/lex_kit_page: {} pages, {} bytes and {} tokens a page",
        kits.len(),
        bytes / kits.len(),
        tokens / kits.len()
    );

    let mut g = group(c, "jslex");
    g.bench_function("lex_stock_page", |b| {
        b.iter(|| {
            for page in &stock {
                black_box(kizzle_js::lex_document(black_box(page), 900, &mut spans).1);
            }
        })
    });
    g.bench_function("lex_minified_page", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % minified.len();
            black_box(kizzle_js::lex_document(black_box(&minified[i]), usize::MAX, &mut spans).1)
        })
    });
    g.bench_function("lex_kit_page", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % kits.len();
            black_box(kizzle_js::lex_document(black_box(&kits[i]), usize::MAX, &mut spans).1)
        })
    });
    g.finish();
}

/// The seal's label loop, prototype by prototype: unpack, fingerprint
/// once, compare with every family's reference and absorb a labelled
/// probe. One iteration runs one seeded prototype page per page class —
/// each kit family and each benign kind, 8/9/14 — against a reference
/// seeded on 8/1 and absorbed with each kit's payload of 8/2–8/8. The
/// reference keeps absorbing the same four kit probes, so after the
/// first iteration it only grows in counts, not in hashes.
fn bench_label(c: &mut Criterion) {
    use kizzle_corpus::benign::{generate_benign, BenignKind};
    use kizzle_corpus::KitModel;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    let config = KizzleConfig::paper();
    let mut reference = ReferenceCorpus::seeded_from_models(SimDate::new(2014, 8, 1), &config);
    for day in 2..=8 {
        for family in KitFamily::ALL {
            let payload = KitModel::new(family).reference_payload(SimDate::new(2014, 8, day));
            reference.absorb(family, &payload);
        }
    }
    let date = SimDate::new(2014, 8, 9);
    let mut rng = ChaCha8Rng::seed_from_u64(9_009);
    let mut pages: Vec<String> = KitFamily::ALL
        .iter()
        .map(|&family| KitModel::new(family).generate_sample(date, &mut rng))
        .collect();
    pages.extend(BenignKind::ALL.map(|kind| generate_benign(kind, &mut rng)));
    let label_all = |reference: &mut ReferenceCorpus| {
        let mut labelled = 0;
        for page in &pages {
            let (_, unpacked) = kizzle_unpack::unpack_or_passthrough(black_box(page));
            let probe = reference.probe(&unpacked);
            if let Some((family, _)) = reference.label_probe(&probe) {
                reference.absorb_probe(family, &probe);
                labelled += 1;
            }
        }
        labelled
    };
    let labelled = label_all(&mut reference);
    assert!(labelled >= KitFamily::ALL.len(), "every kit page labels");
    eprintln!(
        "components/label_prototypes: {} pages, {labelled} labelled",
        pages.len()
    );

    let mut g = group(c, "components");
    g.bench_function("label_prototypes", |b| b.iter(|| label_all(&mut reference)));
    g.finish();
}

criterion_group!(
    components,
    bench_edit_distance,
    bench_crc32,
    bench_signature_generation,
    bench_profile,
    bench_scan_punct,
    bench_lex,
    bench_label
);
criterion_main!(components);
