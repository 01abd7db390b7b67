//! The staged signature-set scan across signature scale.
//!
//! The per-document scan cost must stay nearly flat in the signature
//! count — the 50k-signature arms within 3× of the 500-signature arms.
//! The staged scan walks the document's tokens once through the anchor
//! trie regardless of set size. The ledger never deploys more than a few
//! hundred signatures, so these arms are the only measurement of the trie
//! and the gate at 500–50k.
//!
//! `hit_after_payload` is a kit-shaped hit: a packed payload before the
//! decoder window the kit signature matches. Stage 2 profiles only the
//! candidate windows and records a token of more than 16 bytes by its
//! fingerprint; a scan that profiled the page from its first token, with
//! or without the byte pass over the payload, reads over this arm's
//! ceiling.
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

    // A kit-shaped hit: the 500 signatures plus one kit signature, and a
    // page whose packed payload precedes the window that signature
    // matches.
    let (kit_signature, kit_stream) = kit_page();
    let mut kit_set = signature_set(500);
    kit_set.add("Kit", kit_signature);
    assert_eq!(
        kit_set.scan_stream(&kit_stream).map(|s| s.label.as_str()),
        Some("Kit"),
        "the kit page must match the kit signature"
    );
    group.bench_function("hit_after_payload", |b| {
        b.iter(|| black_box(kit_set.scan_stream(&kit_stream).is_some()))
    });
    group.finish();
}

/// The identifiers a kit renames per page, each a `Class` element of the
/// kit signature.
const KIT_IDENTIFIERS: [&str; 9] = ["dx", "sv", "kq", "ov", "ix", "cz", "kk", "rn", "pl"];

/// A kit-shaped page and the signature of its decoder. The page is laid
/// out as the corpus's RIG packer lays it out: the payload, 256 string
/// chunks of 200 bytes each handed to an accumulator function
/// (`collect("…");`, 51 KB and 1,280 tokens in all), then a ~120-token
/// decoder that carries a 1 KB key literal. The signature has one
/// element per decoder token: the renamed identifiers are `Class`
/// elements, every other token a literal (the key, the longest, is the
/// anchor). Stage 2 should pay for the decoder window only: profiling
/// the page from its first token costs the payload's tokens too, and
/// their bytes unless a token over 16 bytes is recorded by its
/// fingerprint.
fn kit_page() -> (Signature, kizzle_js::TokenStream) {
    let text = |len: usize, seed: usize| -> String {
        const ALPHABET: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
        (0..len)
            .map(|i| char::from(ALPHABET[(i * 7 + seed * 13 + i * i / 3) % ALPHABET.len()]))
            .collect()
    };
    let [f, s, k, o, i, c, key, run, payload] = KIT_IDENTIFIERS;
    let collect = "qz";
    let chunks: String = (0..256)
        .map(|n| format!(r#"{collect}("{}"); "#, text(200, n)))
        .collect();
    let decoder = format!(
        r#"function {f}({s}, {k}) {{ var {o} = ""; for (var {i} = 0; {i} < {s}.length; {i} += 2) {{ var {c} = parseInt({s}.substr({i}, 2), 16); {o} += String.fromCharCode({c} ^ {k}.charCodeAt({i} % {k}.length)); }} {o} = {o}.split("").reverse().join(""); return {o}; }} var {key} = "{key_text}"; var {run} = window["ev" + "al"]; {run}({f}({payload}, {key}));"#,
        key_text = text(1024, 7),
    );
    let page = format!(
        r#"<script>var {payload} = ""; function {collect}(t) {{ {payload} += t; }} {chunks}{decoder}</script>"#,
    );
    let window = kizzle_js::tokenize(&decoder);
    let elements: Vec<Element> = window
        .tokens()
        .into_iter()
        .map(|token| {
            if KIT_IDENTIFIERS.contains(&token.text) {
                Element::Class {
                    class: CharClass::AlphaNum,
                    min_len: 1,
                    max_len: 8,
                }
            } else {
                Element::Literal(token.unquoted().to_string())
            }
        })
        .collect();
    assert!(
        (100..=140).contains(&elements.len()),
        "a ~120-element window, not {}",
        elements.len()
    );
    (
        Signature::new("KIT.decoder", elements, 4),
        kizzle_js::tokenize_document(&page),
    )
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
