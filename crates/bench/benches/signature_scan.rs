//! The staged signature-set scan across signature scale.
//!
//! The per-document scan cost must stay nearly flat in the signature
//! count — the 50k-signature arms within 3× of the 500-signature arms.
//! The staged scan walks the document's tokens once through the anchor
//! trie regardless of set size. The ledger never deploys more than a few
//! hundred signatures, so these arms are the only measurement of the trie
//! and the gate at 500–50k.
//!
//! The `raw_miss_*` arms run the same four benign pages as raw documents
//! through `scan_document_index`, where the anchor gate answers them
//! without lexing; `lex_benign_pages` lexes those pages alone, the cost
//! the gate saves. A gate that searched anchor by anchor would cost
//! ~4 ms a page at 50k signatures and fail every `raw_miss_*` ceiling.
//!
//! `seal_50k` tracks the pipeline build itself (gate, trie and prefilter
//! tables over 50k signatures) — paid once per publish and once per load
//! or follower swap (chains store signatures, not the pipeline), so worth
//! gating so it never silently becomes minutes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kizzle_corpus::benign::{generate_benign, BenignKind};
use kizzle_signature::{
    CharClass, Element, LabeledSignature, ScanPipeline, Signature, SignatureSet,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::Duration;

/// A realistic packer-shaped signature with a unique long literal anchor,
/// in the mold of the paper's Fig. 9.
fn synthetic_signature(i: usize) -> Signature {
    Signature::new(
        format!("SYN.sig{i}"),
        vec![
            Element::Class {
                class: CharClass::AlphaNum,
                min_len: 5,
                max_len: 8,
            },
            Element::Literal("=".to_string()),
            Element::Literal(format!("decoder_{i:04}")),
            Element::Literal("[".to_string()),
            Element::Class {
                class: CharClass::AlphaNum,
                min_len: 3,
                max_len: 6,
            },
            Element::Literal("]".to_string()),
            Element::Literal("(".to_string()),
            Element::Class {
                class: CharClass::Any,
                min_len: 8,
                max_len: 24,
            },
            Element::Literal(")".to_string()),
            Element::Literal(";".to_string()),
        ],
        4,
    )
}

fn signature_set(count: usize) -> SignatureSet {
    let mut set = SignatureSet::new();
    for i in 0..count {
        set.add(format!("Family{}", i % 8), synthetic_signature(i));
    }
    set
}

fn bench_scan(c: &mut Criterion) {
    let set = signature_set(500);
    assert_eq!(set.len(), 500);

    // Non-matching corpus: realistic benign pages.
    let benign_streams: Vec<_> = benign_pages()
        .iter()
        .map(|page| kizzle_js::tokenize_document(page))
        .collect();
    for stream in &benign_streams {
        assert!(
            set.scan_stream(stream).is_none(),
            "benign doc must not match"
        );
    }

    // A matching document, built from signature #250's shape.
    let hit_doc = r#"<script>var pre = 1; aB3xY = decoder_0250["k3x"]("payload#123"); var post = 2;</script>"#;
    let hit_stream = kizzle_js::tokenize_document(hit_doc);
    assert!(set.scan_stream(&hit_stream).is_some(), "hit doc must match");

    let mut group = c.benchmark_group("signature_scan");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(4))
        .warm_up_time(Duration::from_millis(500));

    group.bench_function(BenchmarkId::new("miss_500_sigs", "anchored"), |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for stream in &benign_streams {
                hits += usize::from(set.scan_stream(stream).is_some());
            }
            black_box(hits)
        })
    });
    group.bench_function(BenchmarkId::new("hit_500_sigs", "anchored"), |b| {
        b.iter(|| black_box(set.scan_stream(&hit_stream).is_some()))
    });
    group.finish();
}

/// The scale arms: the same scan at 10× and 100× the signature
/// count. Every signature still has a unique anchor literal, which is the
/// production shape — daily compounding emits fresh `decoder_NNNN`-style
/// packer tokens far more often than it reuses one.
fn bench_scan_at_scale(c: &mut Criterion) {
    let benign_streams: Vec<_> = benign_pages()
        .iter()
        .map(|page| kizzle_js::tokenize_document(page))
        .collect();

    let mut group = c.benchmark_group("signature_scan");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));

    for (label, count) in [("5k_sigs", 5_000usize), ("50k_sigs", 50_000)] {
        let set = signature_set(count);
        assert_eq!(set.len(), count);
        set.seal();
        for stream in &benign_streams {
            assert!(
                set.scan_stream(stream).is_none(),
                "benign doc must match nothing"
            );
        }
        // A matching document built from a mid-set signature's shape, so
        // the scan cannot win by matching early in insertion order.
        let mid = count / 2;
        let hit_doc = format!(
            r#"<script>var pre = 1; aB3xY = decoder_{mid:04}["k3x"]("payload#123"); var post = 2;</script>"#
        );
        let hit_stream = kizzle_js::tokenize_document(&hit_doc);
        assert_eq!(
            set.scan_stream(&hit_stream)
                .map(|s| s.signature.name.as_str()),
            Some(format!("SYN.sig{mid}").as_str()),
            "hit doc must match its signature"
        );

        group.bench_function(BenchmarkId::new(format!("miss_{label}"), "anchored"), |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for stream in &benign_streams {
                    hits += usize::from(set.scan_stream(stream).is_some());
                }
                black_box(hits)
            })
        });
        group.bench_function(BenchmarkId::new(format!("hit_{label}"), "anchored"), |b| {
            b.iter(|| black_box(set.scan_stream(&hit_stream).is_some()))
        });
    }

    // The adversarial fan-out shape: many signatures behind ONE shared
    // anchor literal, differing only in class length ranges, plus a
    // document that fires that anchor on every other token. The automaton
    // finds one pattern; the batched prefilter has to reject the bucket.
    let mut shared = SignatureSet::new();
    for i in 0..100usize {
        shared.add(
            "Shared",
            Signature::new(
                format!("SHARED.sig{i}"),
                vec![
                    Element::Literal("sharedAnchor".to_string()),
                    Element::Literal("(".to_string()),
                    Element::Class {
                        class: CharClass::Digits,
                        min_len: i + 1,
                        max_len: i + 1,
                    },
                    Element::Literal(")".to_string()),
                ],
                4,
            ),
        );
    }
    shared.seal();
    let stress_doc = (0..200)
        .map(|i| format!("sharedAnchor [ x{i} ]"))
        .collect::<Vec<_>>()
        .join(" ");
    let stress_stream = kizzle_js::tokenize(&stress_doc);
    assert!(shared.scan_stream(&stress_stream).is_none());
    group.bench_function(BenchmarkId::new("shared_anchor_100", "anchored"), |b| {
        b.iter(|| black_box(shared.scan_stream(&stress_stream).is_none()))
    });
    group.finish();
}

/// The four benign pages, raw.
fn benign_pages() -> Vec<String> {
    (0..4u64)
        .map(|i| {
            let mut rng = ChaCha8Rng::seed_from_u64(i);
            generate_benign(
                BenignKind::ALL[i as usize % BenignKind::ALL.len()],
                &mut rng,
            )
        })
        .collect()
}

/// Raw-document misses at 500, 5k and 50k signatures, beside the cost of
/// lexing the same pages: the gate must keep the first flat in the
/// signature count and under the second.
fn bench_raw_miss(c: &mut Criterion) {
    const CAP: usize = 900;
    let pages = benign_pages();
    let mut group = c.benchmark_group("signature_scan");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));

    let mut spans = Vec::new();
    group.bench_function("lex_benign_pages", |b| {
        b.iter(|| {
            let mut tokens = 0usize;
            for page in &pages {
                tokens += kizzle_js::lex_document(page, CAP, &mut spans).0.len();
            }
            black_box(tokens)
        })
    });
    for (name, count) in [
        ("raw_miss_500_sigs", 500usize),
        ("raw_miss_5k_sigs", 5_000),
        ("raw_miss_50k_sigs", 50_000),
    ] {
        let set = signature_set(count);
        assert_eq!(set.seal().gate_off(), None, "{name}: the gate is on");
        for page in &pages {
            assert!(set.scan_document_index(page, CAP).is_none());
        }
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for page in &pages {
                    hits += usize::from(set.scan_document_index(page, CAP).is_some());
                }
                black_box(hits)
            })
        });
    }
    group.finish();
}

/// Pipeline build (gate, trie and prefilter tables) at the 100× scale —
/// paid once per publish/save, not per scan.
fn bench_seal(c: &mut Criterion) {
    let members: Vec<LabeledSignature> = signature_set(50_000).iter().cloned().collect();
    let mut group = c.benchmark_group("signature_scan");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    group.bench_function(BenchmarkId::new("seal_50k", "build"), |b| {
        b.iter(|| black_box(ScanPipeline::build(&members)).literal_count())
    });
    group.finish();
}

criterion_group!(
    signature_scan,
    bench_scan,
    bench_scan_at_scale,
    bench_raw_miss,
    bench_seal
);
criterion_main!(signature_scan);
