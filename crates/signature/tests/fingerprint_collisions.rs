//! Literal fingerprint collisions end in stage 3, never in a verdict.
//!
//! A literal longer than 16 bytes is fingerprinted by its length and its
//! first and last 8 bytes, so a token that matches all three but differs
//! in the middle passes the prefilter. These documents are built to do
//! exactly that, at literal lengths from just past the whole-token limit
//! to a payload chunk: the staged scan must still answer what the linear
//! oracle answers, and `kizzle_scan_verify_rejected_total`
//! must count one rejection per colliding window.
//!
//! This file is its own test binary on purpose: it flips the
//! process-global telemetry gate (see `scan_counters.rs`).

mod common {
    pub mod scan;
}

use common::scan::scan_linear;
use kizzle_js::{tokenize, TokenStream};
use kizzle_signature::prefilter::{fingerprint32, profile_bytes};
use kizzle_signature::{Element, Signature, SignatureSet};

/// Literal lengths: just past the whole-token limit, a block edge, and
/// the payload-chunk sizes a hit profiles (SweetOrange's 260, the 856
/// ceiling).
const LENGTHS: [usize; 5] = [17, 32, 100, 260, 856];

/// A deterministic payload-like string of `len` bytes.
fn payload(len: usize, seed: usize) -> String {
    const ALPHABET: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ%";
    (0..len)
        .map(|i| char::from(ALPHABET[(i * 7 + seed * 13 + i * i) % ALPHABET.len()]))
        .collect()
}

/// `text` with one middle byte changed: same length, same first and last
/// 8 bytes.
fn collider(text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let mid = bytes.len() / 2;
    bytes[mid] = if bytes[mid] == b'Q' { b'R' } else { b'Q' };
    String::from_utf8(bytes).expect("ASCII")
}

/// One signature per length, `decode_<len>_xx…x("<chunk>")`, with the
/// `(anchor identifier, chunk)` of each. The identifier is longer than the
/// chunk, so it is the anchor: were the chunk the anchor, a colliding
/// token would never hit the automaton, which matches whole tokens.
fn set_and_chunks() -> (SignatureSet, Vec<(String, String)>) {
    let mut set = SignatureSet::new();
    let mut calls = Vec::new();
    for (i, &len) in LENGTHS.iter().enumerate() {
        let anchor = format!("decode_{len}_{}", "x".repeat(len));
        let chunk = payload(len, i);
        set.add(
            "Collide",
            Signature::new(
                format!("collide.{len}"),
                vec![
                    Element::Literal(anchor.clone()),
                    Element::Literal("(".into()),
                    Element::Literal(chunk.clone()),
                    Element::Literal(")".into()),
                ],
                1,
            ),
        );
        calls.push((anchor, chunk));
    }
    (set, calls)
}

fn verify_rejected() -> u64 {
    kizzle_telemetry::counter("kizzle_scan_verify_rejected_total").value()
}

#[test]
fn colliding_tokens_are_rejected_by_text_and_counted() {
    kizzle_telemetry::set_enabled(true);
    let (set, calls) = set_and_chunks();

    let mut colliding: Vec<TokenStream> = Vec::new();
    let mut exact: Vec<TokenStream> = Vec::new();
    for (anchor, chunk) in &calls {
        let fake = collider(chunk);
        assert_ne!(&fake, chunk);
        assert_eq!(
            fingerprint32(fake.as_bytes()),
            fingerprint32(chunk.as_bytes())
        );
        assert_eq!(
            profile_bytes(fake.as_bytes()),
            profile_bytes(chunk.as_bytes()),
            "the prefilter sees no difference"
        );
        colliding.push(tokenize(&format!(r#"x = {anchor}("{fake}");"#)));
        exact.push(tokenize(&format!(r#"x = {anchor}("{chunk}");"#)));
    }

    let before = verify_rejected();
    for (stream, name) in colliding.iter().zip(LENGTHS) {
        assert_eq!(set.scan_stream(stream), None, "length {name}");
        assert_eq!(scan_linear(&set, stream), None);
    }
    kizzle_signature::flush_scan_counters();
    assert_eq!(
        verify_rejected() - before,
        LENGTHS.len() as u64,
        "one rejection per colliding window"
    );

    // The real chunks still hit, each its own signature, with no further
    // rejection; and a document holding a collider before the real call
    // rejects once and then hits.
    let before = verify_rejected();
    for (i, stream) in exact.iter().enumerate() {
        let staged = set.scan_stream(stream).map(|s| s.signature.name.clone());
        let linear = scan_linear(&set, stream).map(|s| s.signature.name.clone());
        assert_eq!(staged, linear);
        assert_eq!(staged, Some(format!("collide.{}", LENGTHS[i])));
    }
    let (anchor, chunk) = &calls[3];
    let both = tokenize(&format!(
        r#"a = {anchor}("{}"); b = {anchor}("{chunk}");"#,
        collider(chunk)
    ));
    assert_eq!(
        set.scan_stream(&both).map(|s| s.signature.name.clone()),
        scan_linear(&set, &both).map(|s| s.signature.name.clone())
    );
    assert!(set.scan_stream(&both).is_some());
    kizzle_signature::flush_scan_counters();
    assert_eq!(
        verify_rejected() - before,
        2,
        "the mixed document, scanned twice"
    );
    kizzle_telemetry::set_enabled(false);
}
