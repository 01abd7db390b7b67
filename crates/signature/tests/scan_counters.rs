//! Scan-stage counter consistency under threading (ISSUE 8 acceptance):
//! the per-thread batched tallies in `matcher::scan_metrics` must fold
//! into the global registry **losslessly** — two identical multi-threaded
//! scan storms produce identical counter deltas once the scan threads
//! have exited (their thread-local tallies flush on drop) and the main
//! thread has called [`kizzle_signature::flush_scan_counters`].
//!
//! This file is its own test binary on purpose: it flips the
//! process-global telemetry gate, and integration tests compile
//! separately, so the toggle cannot race with the rest of the suite.

use kizzle_js::tokenize;
use kizzle_signature::{CharClass, Element, Signature, SignatureSet};

/// A small set engineered to exercise every counted stage: shared-anchor
/// literals (automaton hits + prefilters + verification), a signature
/// whose literals are all below the anchor length (the unanchored
/// fallback lane), and classes so verification has real work.
fn counting_set() -> SignatureSet {
    let mut set = SignatureSet::new();
    set.add(
        "Angler",
        Signature::new(
            "angler.decode",
            vec![
                Element::Literal("decode".into()),
                Element::Class {
                    class: CharClass::Digits,
                    min_len: 2,
                    max_len: 8,
                },
                Element::Literal("payload".into()),
            ],
            1,
        ),
    );
    set.add(
        "Angler",
        Signature::new(
            "angler.eval",
            vec![
                Element::Literal("eval".into()),
                Element::Literal("fromCharCode".into()),
            ],
            0,
        ),
    );
    set.add(
        "Nuclear",
        Signature::new(
            "nuclear.split",
            vec![
                Element::Literal("payload".into()),
                Element::Literal("split".into()),
                Element::Class {
                    class: CharClass::Lower,
                    min_len: 1,
                    max_len: 6,
                },
            ],
            1,
        ),
    );
    // Both literals are shorter than the anchor minimum: this one rides
    // the unanchored fallback on every scan.
    set.add(
        "Odd",
        Signature::new(
            "odd.short",
            vec![Element::Literal("ab".into()), Element::Literal("xy".into())],
            0,
        ),
    );
    set
}

/// Documents chosen to hit, near-miss, and miss: anchors that fire with
/// failing prefilters, anchors that fire and verify, and no anchors at
/// all (the unanchored signature still gets checked each time).
fn documents() -> Vec<String> {
    vec![
        "decode 1234 payload done".to_string(),
        "eval fromCharCode now".to_string(),
        "payload split abc".to_string(),
        "decode alone without the rest".to_string(),
        "payload payload payload decode".to_string(),
        "nothing relevant here at all".to_string(),
        "ab xy".to_string(),
        String::new(),
        "split payload backwards".to_string(),
        "decode 99 payload eval fromCharCode".to_string(),
        // Every literal of angler.decode present, digits too, but in the
        // wrong order: the histogram gate passes, the position-exact
        // batched window check rejects (counted as a prefilter reject).
        "payload 12 decode".to_string(),
    ]
}

/// [`counting_set`] without its unanchored signature, so raw documents
/// scanned against it pass the anchor gate, whose anchors are `payload`
/// and `fromCharCode`.
fn gated_set() -> SignatureSet {
    let mut set = SignatureSet::new();
    set.extend(counting_set().iter().filter(|s| s.label != "Odd").cloned());
    assert_eq!(set.seal().gate_off(), None);
    set
}

/// The [`documents`] holding neither gated anchor: "decode alone …",
/// "nothing relevant …", "ab xy" and the empty document.
const GATED_OUT: u64 = 4;

const COUNTERS: &[&str] = &[
    "kizzle_scans_total",
    "kizzle_scan_anchor_hits_total",
    "kizzle_scan_prefilter_checked_total",
    "kizzle_scan_prefilter_rejected_total",
    "kizzle_scan_verify_confirmed_total",
    "kizzle_scan_verify_rejected_total",
    "kizzle_scan_unanchored_checked_total",
    "kizzle_scan_gate_rejected_total",
];

fn counter_values() -> Vec<u64> {
    COUNTERS
        .iter()
        .map(|name| kizzle_telemetry::counter(name).value())
        .collect()
}

/// One scan storm: `threads` workers each scan every document `rounds`
/// times against a shared set, tokenized, and raw against `gated`.
/// Returns the registry deltas for all eight scan counters, exact because
/// worker tallies flush on thread exit and the main thread flushes its
/// own at the end.
fn storm_deltas(
    set: &SignatureSet,
    gated: &SignatureSet,
    threads: usize,
    rounds: usize,
) -> Vec<u64> {
    let documents = documents();
    let streams: Vec<_> = documents.iter().map(|d| tokenize(d)).collect();
    let before = counter_values();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (streams, documents) = (&streams, &documents);
            scope.spawn(move || {
                for _ in 0..rounds {
                    for stream in streams {
                        let _ = set.scan_stream(stream);
                    }
                    for document in documents {
                        let _ = gated.scan_document_index(document, usize::MAX);
                    }
                }
                // Flush before the closure returns: `thread::scope` wakes
                // the waiter when the closure finishes, which does not
                // order this thread's TLS destructors (the drop-flush)
                // before the scope exits.
                kizzle_signature::flush_scan_counters();
            });
        }
    });
    // Workers flushed before exiting; the main thread did not scan, but
    // flushing it too is the documented belt-and-braces for long-lived
    // threads.
    kizzle_signature::flush_scan_counters();
    counter_values()
        .iter()
        .zip(&before)
        .map(|(after, before)| after - before)
        .collect()
}

#[test]
fn threaded_scan_counters_are_exact_and_repeatable() {
    kizzle_telemetry::set_enabled(true);
    let (set, gated) = (counting_set(), gated_set());
    let (threads, rounds) = (4, 25);

    let first = storm_deltas(&set, &gated, threads, rounds);
    let second = storm_deltas(&set, &gated, threads, rounds);
    assert_eq!(
        first, second,
        "identical storms must produce identical counter deltas"
    );

    let scans = (2 * threads * rounds * documents().len()) as u64;
    assert_eq!(
        first[0], scans,
        "kizzle_scans_total counts every scan call, gated out or not"
    );
    assert_eq!(
        first[7],
        (threads * rounds) as u64 * GATED_OUT,
        "kizzle_scan_gate_rejected_total counts each anchor-free raw document"
    );
    // The corpus is engineered so every reachable stage fires: anchors
    // hit, some candidates are rejected by prefilters, some confirm, and
    // the short-literal signature is checked unanchored. The exception is
    // verify_rejected: the batched window check is position-exact, so the
    // literal-text confirmation only rejects on a fingerprint collision —
    // a long token sharing a literal's length and first and last 8 bytes,
    // which `fingerprint_collisions.rs` builds on purpose and this corpus
    // does not.
    for (name, delta) in COUNTERS.iter().zip(&first).skip(1) {
        if *name == "kizzle_scan_verify_rejected_total" {
            continue;
        }
        assert!(*delta > 0, "{name} never fired over the storm corpus");
    }
    // Every anchored candidate that reached the prefilters was either
    // rejected there or went to verification — nothing is dropped on the
    // floor between stages.
    let checked = first[2];
    let confirmed = first[4];
    let rejected_verify = first[5];
    assert!(
        confirmed + rejected_verify <= checked,
        "verification outcomes exceed prefilter-checked candidates"
    );
    kizzle_telemetry::set_enabled(false);
}
