//! Property-based tests for signature generation and matching.

use kizzle_corpus::{variation_prefix, KitFamily, KitModel, SimDate};
use kizzle_js::{tokenize, tokenize_document_capped, TokenStream};
use kizzle_signature::generate::{find_common_window, generate_signature};
use kizzle_signature::prefilter::fingerprint32;
use kizzle_signature::verify::nearest_in_stream;
use kizzle_signature::{CharClass, Element, GateOff, Signature, SignatureConfig, SignatureSet};
use kizzle_snapshot::{Decoder, Encoder};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The seed generator (per-window `Vec<usize>` maps at every probe
/// length): the oracle for the content-keyed common-window search; and the
/// linear and unbanded-DP scan oracles.
mod common {
    pub mod reference;
    pub mod scan;
}
use common::reference;
use common::scan::{nearest_naive, scan_linear};

/// One source token per class code: each lexes to a token of a different
/// class, so a code sequence spells a class string.
const CLASS_TOKENS: [&str; 5] = ["var", "a", ";", "\"s\"", "1"];

/// A stream whose class string is `codes` spelled over the first
/// `alphabet` entries of [`CLASS_TOKENS`].
fn stream_of_codes(codes: &[u8], alphabet: u8) -> TokenStream {
    let words: Vec<&str> = codes
        .iter()
        .map(|&code| CLASS_TOKENS[usize::from(code % alphabet)])
        .collect();
    tokenize(&words.join(" "))
}

/// Packed landing pages of one kit for one date, capped like the paper
/// configuration's ingest; `prefixed` gives page `i` its own 8-token
/// variation prefix, so no two class strings are equal.
fn packed_streams(family: KitFamily, count: u64, prefixed: bool) -> Vec<TokenStream> {
    let model = KitModel::new(family);
    let date = SimDate::new(2014, 8, 12);
    (0..count)
        .map(|i| {
            let mut rng = ChaCha8Rng::seed_from_u64(4_000 + i);
            let mut doc = model.generate_sample(date, &mut rng);
            if prefixed {
                doc.insert_str(0, &variation_prefix(i));
            }
            tokenize_document_capped(&doc, 900)
        })
        .collect()
}

/// On real kit clusters — one distinct class string per kit, or every
/// member distinct — the product builds exactly the oracle's signature,
/// with and without subsampling.
#[test]
fn generated_signature_equals_the_oracle_on_kit_clusters() {
    let config = SignatureConfig::default();
    for family in KitFamily::ALL {
        for prefixed in [false, true] {
            for count in [5, 40] {
                let streams = packed_streams(family, count, prefixed);
                let distinct: std::collections::HashSet<Vec<u8>> =
                    streams.iter().map(TokenStream::class_codes).collect();
                if prefixed {
                    assert_eq!(distinct.len(), streams.len(), "{family:?}: prefixes differ");
                }
                assert_eq!(
                    generate_signature("kit.sig", &streams, &config),
                    reference::generate_signature("kit.sig", &streams, &config),
                    "{family:?}, {count} members, prefixed: {prefixed}"
                );
            }
        }
    }
}

/// Generate a cluster of "packed variants": a fixed structural skeleton with
/// randomized identifiers and string payloads, the same shape the corpus
/// packers produce.
fn variant(ids: &[String], payload: &str) -> String {
    format!(
        r#"var {a} = ""; var {b} = "{payload}"; {a} = {b}.split("{sep}"); doc[{a}]({b});"#,
        a = ids[0],
        b = ids[1],
        sep = "zz",
        payload = payload,
    )
}

fn ident_strategy() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9]{2,7}"
}

/// A deliberately tiny vocabulary so generated signatures collide: many
/// signatures anchor on the *same* literal (shared buckets), some literals
/// are prefixes of others (overlapping automaton paths), and `ab`/`xy`
/// sit below `MIN_ANCHOR_LEN` (their signatures take the unanchored
/// fallback unless another literal qualifies).
const VOCAB: &[&str] = &[
    "decode",
    "decoder",
    "payload",
    "this",
    "ab",
    "xy",
    "fromCharCode",
    "split",
    "eval",
];

/// Map an integer seed to an element: mostly vocabulary literals (so
/// anchors collide), otherwise a class with a small length range. A
/// deterministic mapping keeps the generators within the vendored
/// proptest stand-in's strategy surface (vec + integer ranges).
fn element_from_seed(seed: u32) -> Element {
    let pick = seed / 8;
    if seed % 8 < 5 {
        Element::Literal(VOCAB[pick as usize % VOCAB.len()].to_string())
    } else {
        const CLASSES: [CharClass; 4] = [
            CharClass::Lower,
            CharClass::Digits,
            CharClass::AlphaNum,
            CharClass::Any,
        ];
        let class = CLASSES[pick as usize % CLASSES.len()];
        let min_len = 1 + (pick / 4) as usize % 3;
        Element::Class {
            class,
            min_len,
            max_len: min_len + (pick / 12) as usize % 5,
        }
    }
}

fn element_strategy() -> impl Strategy<Value = Element> {
    (0u32..1_000_000).prop_map(element_from_seed)
}

fn signature_set_strategy() -> impl Strategy<Value = SignatureSet> {
    prop::collection::vec(prop::collection::vec(element_strategy(), 1..5), 0..12).prop_map(
        |element_lists| {
            let mut set = SignatureSet::new();
            for (i, elements) in element_lists.into_iter().enumerate() {
                set.add(
                    if i % 2 == 0 { "Even" } else { "Odd" },
                    Signature::new(format!("prop.sig{i}"), elements, 1),
                );
            }
            set
        },
    )
}

/// Map an integer seed to a document word: mostly vocabulary (so anchors
/// hit often), otherwise digit runs or short lowercase noise.
fn word_from_seed(seed: u32) -> String {
    let pick = seed / 8;
    match seed % 8 {
        0..=4 => VOCAB[pick as usize % VOCAB.len()].to_string(),
        5 => format!("{}", pick % 1_000_000),
        _ => {
            let len = 1 + pick as usize % 6;
            let mut n = pick;
            (0..len)
                .map(|_| {
                    let c = char::from(b'a' + (n % 26) as u8);
                    n = n / 26 + 7;
                    c
                })
                .collect()
        }
    }
}

/// Documents over the same vocabulary plus digits and noise words —
/// including the empty document.
fn document_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..1_000_000, 0..30).prop_map(|seeds| {
        seeds
            .into_iter()
            .map(word_from_seed)
            .collect::<Vec<_>>()
            .join(" ")
    })
}

fn encode_set(set: &SignatureSet) -> Vec<u8> {
    let mut enc = Encoder::new();
    set.encode_into(&mut enc);
    enc.into_bytes()
}

/// Decode `bytes` as a signature set the way a chain reader does, then
/// seal whatever decoded and scan `doc` through both scan entry points.
/// Returns whether the bytes were exactly one set.
fn decode_seal_and_scan(bytes: &[u8], doc: &str) -> bool {
    let mut dec = Decoder::new(bytes);
    let Ok(set) = SignatureSet::decode_from(&mut dec) else {
        return false;
    };
    set.seal();
    let hit = set.scan_document_index(doc, usize::MAX);
    assert_eq!(
        hit,
        set.scan_stream_index(&tokenize_document_capped(doc, usize::MAX))
    );
    assert!(hit.is_none_or(|index| index < set.len()));
    dec.finish().is_ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A signature generated from a cluster matches every sample of that
    /// cluster (the generator and matcher share the same token model, so
    /// this must hold unconditionally).
    #[test]
    fn generated_signature_matches_its_own_cluster(
        id_sets in prop::collection::vec(prop::collection::vec(ident_strategy(), 2), 2..6),
        payloads in prop::collection::vec("[0-9]{8,20}", 2..6),
    ) {
        let n = id_sets.len().min(payloads.len());
        let samples: Vec<TokenStream> = (0..n)
            .map(|i| tokenize(&variant(&id_sets[i], &payloads[i])))
            .collect();
        let config = SignatureConfig { min_tokens: 4, ..SignatureConfig::default() };
        let sig = generate_signature("prop.sig", &samples, &config).expect("signature");
        for (i, sample) in samples.iter().enumerate() {
            prop_assert!(sig.matches_stream(sample), "sample {i} not matched");
        }
    }

    /// The common window never exceeds the configured cap or the shortest
    /// sample, and its reported start offsets are valid in every sample.
    #[test]
    fn common_window_is_well_formed(
        bodies in prop::collection::vec("[a-z]{1,6}( = [0-9]{1,4};)?", 3..20),
        extra in "[a-z]{1,6}",
        max_tokens in 4usize..60,
    ) {
        let base = bodies.join(" ");
        let samples = [tokenize(&format!("{base} var {extra} = 1;")),
            tokenize(&base)];
        let refs: Vec<&TokenStream> = samples.iter().collect();
        let config = SignatureConfig { max_tokens, ..SignatureConfig::default() };
        if let Some(window) = find_common_window(&refs, &config) {
            prop_assert!(window.len <= max_tokens);
            for (sample, start) in samples.iter().zip(&window.starts) {
                prop_assert!(start + window.len <= sample.len());
            }
            // The window's class sequence is identical across samples.
            let first = samples[0].class_codes()[window.starts[0]..window.starts[0] + window.len].to_vec();
            for (sample, start) in samples.iter().zip(&window.starts) {
                prop_assert_eq!(
                    &sample.class_codes()[*start..*start + window.len],
                    first.as_slice()
                );
            }
        }
    }

    /// The content-keyed search returns exactly the oracle's window — same
    /// length, same start in every member — on small-alphabet class
    /// strings full of repeats: duplicate members, members of different
    /// lengths (a short one bounds every probe), an occasional empty
    /// member, and single-class strings with no unique window at all.
    #[test]
    fn common_window_equals_oracle(
        alphabet in 1u8..5,
        core in prop::collection::vec(0u8..5, 0..40),
        edges in prop::collection::vec(prop::collection::vec(0u8..5, 0..10), 2..8),
        picks in prop::collection::vec(0usize..64, 1..9),
        max_tokens_pick in 0usize..3,
    ) {
        // The pool: `core` between two of the random edges, so members
        // share a long window when the edges let them.
        let pool: Vec<TokenStream> = edges
            .windows(2)
            .map(|pair| {
                let codes = [pair[0].as_slice(), &core, &pair[1]].concat();
                stream_of_codes(&codes, alphabet)
            })
            .collect();
        let members: Vec<&TokenStream> = picks.iter().map(|&p| &pool[p % pool.len()]).collect();
        let config = SignatureConfig {
            max_tokens: [1, 7, 200][max_tokens_pick],
            ..SignatureConfig::default()
        };
        prop_assert_eq!(
            find_common_window(&members, &config),
            reference::find_common_window(&members, &config)
        );
    }

    /// Character-class inference always returns a class that accepts every
    /// input value, and the chosen class is one of the predefined templates.
    #[test]
    fn char_class_inference_is_sound(values in prop::collection::vec("[ -~]{1,12}", 1..8)) {
        let refs: Vec<&str> = values.iter().map(String::as_str).collect();
        let class = CharClass::infer(refs.iter().copied()).expect("non-empty input");
        for v in &refs {
            prop_assert!(class.accepts_all(v), "{class:?} rejects {v:?}");
        }
        prop_assert!(CharClass::TEMPLATES.contains(&class));
    }

    /// The tentpole property: the staged pipeline scan (Aho–Corasick
    /// anchors → batched prefilter → literal confirmation) returns exactly
    /// the linear oracle's answer on arbitrary sets and documents —
    /// including duplicate and overlapping anchor literals, signatures
    /// whose only literals sit below `MIN_ANCHOR_LEN`, and empty streams.
    #[test]
    fn staged_scan_equals_linear_oracle(
        set in signature_set_strategy(),
        docs in prop::collection::vec(document_strategy(), 1..6),
    ) {
        for doc in &docs {
            let stream = tokenize(doc);
            let staged = set.scan_stream(&stream).map(|s| s.signature.name.as_str());
            let linear = scan_linear(&set, &stream).map(|s| s.signature.name.as_str());
            prop_assert_eq!(staged, linear, "doc: {:?}", doc);
            // The raw-document scan, gate included, agrees.
            prop_assert_eq!(
                set.scan_document_index(doc, usize::MAX),
                set.scan_stream_index(&stream),
                "doc: {:?}",
                doc
            );
        }
        // The empty stream, explicitly.
        prop_assert!(set.scan_stream(&tokenize("")).is_none());
    }

    /// A set shipped through the codec reseals from its members and scans
    /// byte-identically to the original on arbitrary documents.
    #[test]
    fn codec_roundtrip_preserves_scan_results(
        set in signature_set_strategy(),
        docs in prop::collection::vec(document_strategy(), 1..4),
    ) {
        set.seal();
        let bytes = encode_set(&set);
        let mut dec = Decoder::new(&bytes);
        let restored = SignatureSet::decode_from(&mut dec).expect("set decodes");
        dec.finish().expect("set fully consumed");
        prop_assert_eq!(&restored, &set);
        prop_assert!(!restored.is_sealed(), "the codec ships members only");

        for doc in &docs {
            let stream = tokenize(doc);
            prop_assert_eq!(
                restored.scan_stream(&stream).map(|s| s.signature.name.as_str()),
                set.scan_stream(&stream).map(|s| s.signature.name.as_str()),
                "doc: {:?}", doc
            );
        }
    }

    /// The signature set is the one decoder of scan state on the chain
    /// path, so untrusted bytes stop there: decoding arbitrary bytes is a
    /// clean error or a set, and a decoded set seals and scans without
    /// panicking.
    #[test]
    fn set_decode_seal_and_scan_never_panic_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        doc in document_strategy(),
    ) {
        decode_seal_and_scan(&bytes, &doc);
    }

    /// Every cut of a valid payload, and every single-byte corruption of
    /// one, decodes to a clean error or a set that seals and scans.
    #[test]
    fn set_decode_seal_and_scan_never_panic_on_damaged_payloads(
        set in signature_set_strategy(),
        doc in document_strategy(),
        flip in any::<u8>(),
    ) {
        let bytes = encode_set(&set);
        for cut in 0..bytes.len() {
            prop_assert!(
                !decode_seal_and_scan(&bytes[..cut], &doc),
                "cut {} of {} decoded as a whole set", cut, bytes.len()
            );
        }
        let flip = flip | 1;
        let mut damaged = bytes.clone();
        for at in 0..damaged.len() {
            damaged[at] ^= flip;
            decode_seal_and_scan(&damaged, &doc);
            damaged[at] ^= flip;
        }
    }

    /// The banded verify kernel agrees with the full naive DP at every
    /// cutoff, and `scan_stream_nearest` reports the lexicographically
    /// first (edits, index) pair.
    #[test]
    fn banded_verify_agrees_with_naive_dp(
        elements in prop::collection::vec(element_strategy(), 1..6),
        doc in document_strategy(),
    ) {
        let stream = tokenize(&doc);
        let want = nearest_naive(&elements, stream.tokens());
        for cutoff in 0..=elements.len() + 2 {
            let got = nearest_in_stream(&elements, stream.tokens(), cutoff);
            if want <= cutoff {
                prop_assert_eq!(got, Some(want), "cutoff {}", cutoff);
            } else {
                prop_assert_eq!(got, None, "cutoff {}", cutoff);
            }
        }
    }

    /// Whole-set nearest scan: the winner is the earliest signature at the
    /// minimum distance, and distance 0 coincides with the exact scan.
    #[test]
    fn nearest_scan_is_lexicographically_minimal(
        set in signature_set_strategy(),
        doc in document_strategy(),
    ) {
        let stream = tokenize(&doc);
        let max_edits = 3usize;
        let brute = set
            .iter()
            .enumerate()
            .map(|(i, s)| (nearest_naive(&s.signature.elements, stream.tokens()), i))
            .filter(|&(d, _)| d <= max_edits)
            .min();
        let got = set.scan_stream_nearest(&stream, max_edits);
        match brute {
            Some((edits, index)) => {
                let got = got.expect("a signature within budget");
                prop_assert_eq!((got.edits, got.index), (edits, index));
                if edits == 0 {
                    let exact = set.scan_stream(&stream).expect("exact match at 0 edits");
                    prop_assert_eq!(&set.get(got.index).unwrap().signature.name,
                        &exact.signature.name);
                }
            }
            None => prop_assert!(got.is_none()),
        }
    }

    /// Rendering never panics and its length is stable (the Fig. 12 metric
    /// is well-defined).
    #[test]
    fn rendering_is_stable(
        ids in prop::collection::vec(ident_strategy(), 2),
        payload in "[0-9]{8,16}",
    ) {
        let samples = vec![tokenize(&variant(&ids, &payload))];
        let config = SignatureConfig { min_tokens: 4, ..SignatureConfig::default() };
        let sig = generate_signature("render.sig", &samples, &config).expect("signature");
        prop_assert_eq!(sig.render(), sig.render());
        prop_assert_eq!(sig.rendered_len(), sig.render().chars().count());
        prop_assert!(sig.rendered_len() > 0);
    }
}

/// The banded kernel against the unbanded DP on hand-built cases: exact
/// hits, near misses on either side of the region, class elements, an
/// absent literal and interleaved noise tokens.
#[test]
fn banded_agrees_with_naive_on_structured_cases() {
    let lit = |s: &str| Element::Literal(s.to_string());
    let digits = || Element::Class {
        class: CharClass::Digits,
        min_len: 1,
        max_len: 4,
    };
    let cases: Vec<(Vec<Element>, &str)> = vec![
        (vec![lit("this"), lit("["), lit("x"), lit("]")], "this[x]"),
        (
            vec![lit("this"), lit("["), lit("x"), lit("]")],
            "self[x] this(x) this[y]",
        ),
        (vec![digits(), lit("+"), digits()], "a = 12 + 34; b = x + 1"),
        (vec![lit("absent")], "nothing here matches at all"),
        (
            vec![lit("a"), lit("b"), lit("c"), lit("d"), lit("e")],
            "a b x c d q e",
        ),
    ];
    for (elements, doc) in cases {
        let stream = tokenize(doc);
        let want = nearest_naive(&elements, stream.tokens());
        for cutoff in 0..=elements.len() + 2 {
            let got = nearest_in_stream(&elements, stream.tokens(), cutoff);
            if want <= cutoff {
                assert_eq!(got, Some(want), "doc {doc:?} cutoff {cutoff}");
            } else {
                assert_eq!(got, None, "doc {doc:?} cutoff {cutoff}");
            }
        }
    }
}

/// An identifier-shaped anchor of exactly `len` bytes, distinct per `tag`.
fn anchor_of_len(tag: usize, len: usize) -> String {
    let mut anchor = format!("gate{tag}z");
    while anchor.len() < len {
        anchor.push('_');
    }
    anchor
}

/// A set anchored on `anchors`: per anchor, the bare literal, and the
/// literal between an identifier and a call, so planted anchors hit in
/// some places and not in others.
fn anchored_set(anchors: &[String]) -> SignatureSet {
    let mut set = SignatureSet::new();
    for (i, anchor) in anchors.iter().enumerate() {
        set.add(
            "Gate",
            Signature::new(
                format!("call.{i}"),
                vec![
                    Element::Literal(anchor.clone()),
                    Element::Literal("(".into()),
                    Element::Class {
                        class: CharClass::Digits,
                        min_len: 1,
                        max_len: 4,
                    },
                ],
                1,
            ),
        );
        set.add(
            "Gate",
            Signature::new(
                format!("bare.{i}"),
                vec![Element::Literal(anchor.clone())],
                1,
            ),
        );
    }
    set
}

/// Documents with `anchor` planted where the lexer sees it as a token and
/// where it does not: comments, each quote kind, markup outside any
/// script, split across two scripts, beside multi-byte characters, and
/// behind `lead` filler tokens so a cap can fall before, on or after it.
fn planted_documents(anchor: &str, lead: usize) -> Vec<String> {
    let (head, tail) = anchor.split_at(anchor.len() / 2);
    let filler = "a;".repeat(lead);
    vec![
        format!("<script>{filler}{anchor}(12);</script>"),
        format!("{filler}{anchor}(7)"),
        format!("<script>x = 1; // {anchor}(1)\ny = 2;</script>"),
        format!("<script>/* {anchor}(1) */ f();</script>"),
        format!("<script>s = \"{anchor}\"; f(3);</script>"),
        format!("<script>s = '{anchor}'; f(3);</script>"),
        format!("<script>s = `{anchor}`; f(3);</script>"),
        format!("<p>{anchor}(5)</p><script>f(5);</script>"),
        format!("<script>{filler}x = {head}</script><script>{tail}(9);</script>"),
        format!("<script>é = \"日本{anchor}é\"; ü{anchor}(4); {anchor}(4)é;</script>"),
        format!("<script>{filler}{anchor}</script>"),
        format!("<script>{filler}{anchor}({anchor}(1));</script>"),
        format!("<script>{filler}</script>{anchor}"),
        String::new(),
    ]
}

/// The raw-document scan, anchor gate included, against the lexed
/// oracle `scan_stream_index(&tokenize_document_capped(doc, cap))` on
/// planted anchors, over every shape of gate: none at all (empty set,
/// an unanchored signature, a saturated table), a few short anchors
/// searched one by one, one past that, and anchors either side of the
/// long-tier boundary.
#[test]
fn gated_scan_equals_the_lexed_scan_on_planted_anchors() {
    let short =
        |count: usize| -> Vec<String> { (0..count).map(|i| anchor_of_len(i, 12)).collect() };
    let mut unanchored = anchored_set(&short(3));
    unanchored.add(
        "Odd",
        Signature::new("short.only", vec![Element::Literal("ab".into())], 1),
    );
    // 8,000 pseudo-random 33-byte identifiers: 240,000 blocks over a
    // 64-symbol alphabet leave almost no slot of the long tier's table
    // free to skip.
    const IDENT: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_$";
    let mut state = 11u64;
    let saturated: Vec<String> = (0..8_000)
        .map(|_| {
            (0..33)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1);
                    char::from(IDENT[(state >> 58) as usize])
                })
                .collect::<String>()
        })
        .chain(short(2))
        .collect();
    let sets: Vec<(&str, SignatureSet, Option<GateOff>)> = vec![
        ("empty", SignatureSet::new(), None),
        ("unanchored", unanchored, Some(GateOff::Unanchored)),
        ("8 short", anchored_set(&short(8)), None),
        ("9 short", anchored_set(&short(9)), None),
        (
            "31 and 32 bytes",
            anchored_set(&[
                anchor_of_len(1, 31),
                anchor_of_len(2, 32),
                anchor_of_len(3, 40),
            ]),
            None,
        ),
        ("saturated", anchored_set(&saturated), Some(GateOff::NoSkip)),
    ];
    let mut hits = 0;
    for (name, set, gate_off) in &sets {
        assert_eq!(set.seal().gate_off(), *gate_off, "{name}");
        let anchors: Vec<String> = set
            .iter()
            .filter_map(|labeled| match &labeled.signature.elements[0] {
                Element::Literal(text) if text.len() >= 3 => Some(text.clone()),
                _ => None,
            })
            .chain(["absent_anchor".to_string()])
            .collect();
        for anchor in anchors
            .iter()
            .step_by(anchors.len() / 6 + 1)
            .chain(anchors.last())
        {
            for lead in [0, 4, 9] {
                for doc in planted_documents(anchor, lead) {
                    for cap in [
                        usize::MAX,
                        2 * lead,
                        2 * lead + 1,
                        2 * lead + 2,
                        2 * lead + 3,
                    ] {
                        let want = set.scan_stream_index(&tokenize_document_capped(&doc, cap));
                        assert_eq!(
                            set.scan_document_index(&doc, cap),
                            want,
                            "{name}: cap {cap}, doc {doc:?}"
                        );
                        hits += usize::from(want.is_some());
                    }
                }
            }
        }
    }
    assert!(hits > 100, "only {hits} planted anchors hit");
}

/// The long words a case draws from: more than the 16 bytes a token may
/// have before stage 2 records it by its fingerprint alone.
const LONG_LENGTHS: [usize; 5] = [17, 20, 31, 33, 48];

/// Alphabets of the long words, each inside a different set of classes.
const LONG_ALPHABETS: [&str; 3] = [
    "abcdefghijklmnopqrstuvwxyz",
    "0123456789",
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789",
];

/// A long ASCII word from `seed`: its length, alphabet and letters.
fn long_word(seed: u32) -> String {
    let len = LONG_LENGTHS[seed as usize % LONG_LENGTHS.len()];
    let alphabet = LONG_ALPHABETS[seed as usize / 5 % LONG_ALPHABETS.len()].as_bytes();
    (0..len)
        .map(|i| char::from(alphabet[(i * 7 + seed as usize / 15) % alphabet.len()]))
        .collect()
}

/// `word` as it is, or changed in the middle only: a byte no class but
/// `Any` accepts; a two-byte character for one byte (one byte longer, as
/// many characters) or for two bytes (as many bytes, one character
/// fewer); or another letter of its own alphabet — same length, same
/// first and last 8 bytes, so a literal of `word` has the same
/// fingerprint.
fn long_variant(word: &str, variant: u32) -> String {
    let mid = word.len() / 2;
    let (head, tail) = word.split_at(mid);
    match variant % 5 {
        0 => word.to_string(),
        1 => format!("{head}%{}", &tail[1..]),
        2 => format!("{head}é{}", &tail[1..]),
        3 => format!("{head}é{}", &tail[2..]),
        _ => {
            // Another letter of the word itself, so of its alphabet.
            let middle = tail.as_bytes()[0];
            let swapped = word.bytes().find(|&b| b != middle).expect("two letters");
            format!("{head}{}{}", char::from(swapped), &tail[1..])
        }
    }
}

/// Call names: the anchors when no long literal outbids them.
const CALLS: [&str; 3] = ["decode", "payload", "unpack"];

/// One argument of a call: a quoted variant of one of the case's long
/// words, or a short digit run.
fn long_argument(words: &[String], seed: u32) -> String {
    if seed % 4 == 3 {
        format!("{}", seed / 4 % 1000)
    } else {
        let word = &words[seed as usize / 4 % words.len()];
        format!("\"{}\"", long_variant(word, seed / 8))
    }
}

/// A document of calls `name("arg", "arg");`, each from three seeds.
fn long_document(words: &[String], seeds: &[u32]) -> String {
    seeds
        .chunks(3)
        .map(|call| {
            let arg = |i: usize| long_argument(words, call.get(i).copied().unwrap_or(0));
            format!(
                "{}({}, {});",
                CALLS[call[0] as usize % CALLS.len()],
                arg(1),
                arg(2)
            )
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// The element standing for one argument: a `Class` element whose length
/// range sits at a long word's byte count (±1, so two-byte characters
/// fall on either side of it), or a literal of one of the words'
/// variants.
fn long_element(words: &[String], seed: u32) -> Element {
    const CLASSES: [CharClass; 5] = [
        CharClass::Lower,
        CharClass::Digits,
        CharClass::AlphaNum,
        CharClass::Wordlike,
        CharClass::Any,
    ];
    let word = &words[seed as usize % words.len()];
    if seed / 2 % 3 == 2 {
        return Element::Literal(long_variant(word, seed / 6));
    }
    let len = word.len();
    let (min_len, max_len) = match seed / 6 % 4 {
        0 => (len, len),
        1 => (len - 1, len - 1),
        2 => (len - 1, len + 1),
        _ => (1, len + 1),
    };
    Element::Class {
        class: CLASSES[seed as usize / 24 % CLASSES.len()],
        min_len,
        max_len,
    }
}

/// Signatures over the call documents, each from four seeds, in three
/// shapes: a call from its name; a call's first argument back through
/// the end of the call before it (the name at offset 2); and the call
/// before's arguments through this call's first argument (the name at
/// offset 5). A later signature's window may therefore start left of
/// what an earlier one's covered, and one whose long literal outbids the
/// name anchors on the long token.
fn long_signature(words: &[String], seeds: &[u32]) -> Signature {
    let lit = |s: &str| Element::Literal(s.to_string());
    let name = CALLS[seeds[0] as usize / 3 % CALLS.len()];
    let arg = |i: usize| long_element(words, seeds.get(i).copied().unwrap_or(0));
    let elements = match seeds[0] % 3 {
        0 => vec![lit(name), lit("("), arg(1), lit(","), arg(2), lit(")")],
        1 => vec![lit(")"), lit(";"), lit(name), lit("("), arg(1)],
        _ => vec![
            arg(1),
            lit(","),
            arg(2),
            lit(")"),
            lit(";"),
            lit(name),
            lit("("),
            arg(3),
        ],
    };
    Signature::new(format!("long.{}", seeds[0]), elements, 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Stage 2 records a token of more than 16 bytes without its byte
    /// pass and runs the pass only when a `Class` element lands on it:
    /// the staged scan must still answer exactly what the linear oracle
    /// answers when long tokens carry a class-violating byte or a
    /// multi-byte character in the middle, when a literal meets a
    /// same-length, same-ends collision, and when a later window starts
    /// left of the profiled range.
    #[test]
    fn long_token_windows_equal_linear_oracle(
        word_seeds in prop::collection::vec(0u32..1_000_000, 2..4),
        signature_seeds in prop::collection::vec(0u32..1_000_000, 4..28),
        document_seeds in prop::collection::vec(0u32..1_000_000, 6..40),
    ) {
        let words: Vec<String> = word_seeds.iter().map(|&seed| long_word(seed)).collect();
        let mut set = SignatureSet::new();
        for seeds in signature_seeds.chunks(4) {
            set.add("Long", long_signature(&words, seeds));
        }
        // Each signature alone, and the set in both orders: which window
        // is profiled first differs between them.
        let mut reversed = SignatureSet::new();
        for labeled in set.iter().rev() {
            reversed.add(labeled.label.clone(), labeled.signature.clone());
        }
        let doc = long_document(&words, &document_seeds);
        let stream = tokenize(&doc);
        for set in [&set, &reversed] {
            let staged = set.scan_stream(&stream).map(|s| s.signature.name.as_str());
            let linear = scan_linear(set, &stream).map(|s| s.signature.name.as_str());
            prop_assert_eq!(staged, linear, "doc: {:?}", doc);
            prop_assert_eq!(
                set.scan_document_index(&doc, usize::MAX),
                set.scan_stream_index(&stream),
                "doc: {:?}",
                doc
            );
        }
        for labeled in set.iter() {
            let mut alone = SignatureSet::new();
            alone.add(labeled.label.clone(), labeled.signature.clone());
            prop_assert_eq!(
                alone.scan_stream(&stream).is_some(),
                labeled.signature.matches_stream(&stream),
                "{:?} on {:?}",
                labeled.signature.elements,
                doc
            );
        }
    }
}

/// The long-token property's cases by hand, each against the linear
/// oracle: a long word under a literal; class-violating and two-byte
/// variants under a `Class` element; a same-ends collision, rejected by
/// the literal and matched by the class; and a window that starts left
/// of one profiled before it.
#[test]
fn long_token_cases_are_exercised() {
    let words = vec![long_word(0), long_word(1)];
    assert_eq!(words[0].len(), 17);
    assert!(words.iter().all(|w| w.len() > 16));
    for word in &words {
        for variant in 1..5 {
            assert_ne!(&long_variant(word, variant), word);
        }
        let collision = long_variant(word, 4);
        assert_eq!(
            fingerprint32(collision.as_bytes()),
            fingerprint32(word.as_bytes())
        );
    }
    let lower = |min_len, max_len| Element::Class {
        class: CharClass::Lower,
        min_len,
        max_len,
    };
    let lit = |s: &str| Element::Literal(s.to_string());
    let word = &words[0];
    let mut set = SignatureSet::new();
    // Anchored on the long word itself.
    set.add(
        "Long",
        Signature::new("literal", vec![lit("decode"), lit("("), lit(word)], 1),
    );
    // Anchored on `unpack` at offsets 0 and 5: the second window starts
    // left of the first.
    set.add(
        "Long",
        Signature::new("call", vec![lit("unpack"), lit("("), lower(1, 8)], 1),
    );
    set.add(
        "Long",
        Signature::new(
            "left",
            vec![
                lower(17, 17),
                lit(","),
                lit("1"),
                lit(")"),
                lit(";"),
                lit("unpack"),
            ],
            1,
        ),
    );
    set.add(
        "Long",
        Signature::new("class", vec![lit("decode"), lit("("), lower(17, 17)], 1),
    );
    let call = |arg: &str| format!("decode(\"{arg}\", 1);");
    let expect = [
        (call(word), Some("literal")),
        (call(&long_variant(word, 1)), None),
        (call(&long_variant(word, 2)), None),
        (call(&long_variant(word, 4)), Some("class")),
        (format!("{} unpack(2);", call(&long_variant(word, 1))), None),
        (
            format!("{} unpack(2);", call("qrstuvwxyzabcdefg")),
            Some("left"),
        ),
    ];
    for (doc, want) in expect {
        let stream = tokenize(&doc);
        assert_eq!(
            set.scan_stream(&stream).map(|s| s.signature.name.as_str()),
            want,
            "{doc}"
        );
        assert_eq!(
            scan_linear(&set, &stream).map(|s| s.signature.name.as_str()),
            want,
            "{doc}"
        );
    }
}
