//! The raw-document scan path ([`Matcher::scan_verdict`]): it lexes into
//! per-thread scratch and matches a borrowed view, so three things have to
//! hold that a "tokenize, then scan the stream" path gets for free.
//!
//! 1. **Same verdicts.** `scan_verdict(doc)` ≡
//!    `scan_stream_verdict(&tokenize_document_capped(doc, cap))` ≡ the
//!    linear oracle, on corpus pages.
//! 2. **Scratch hygiene.** What a thread scanned before cannot leak into
//!    what it scans next: a big hit, a small miss, an empty document and
//!    the big hit again through one thread's scratch equal each of them
//!    scanned on a fresh thread.
//! 3. **No allocation in the steady state.** Counted, not argued: this
//!    binary's global allocator tallies allocations per thread, and a
//!    warmed-up thread scans hit and miss documents with a tally of zero.
//!
//! The anchor gate answers a document with no anchor in it without lexing
//! it. The day's set may hold an unanchored signature, which turns the
//! gate off, so its anchored signatures are also held to all three alone.

use kizzle::prelude::*;
use kizzle_corpus::benign::{generate_benign, BenignKind};
use kizzle_corpus::{GraywareStream, KitFamily, KitModel, SimDate, StreamConfig};
use kizzle_signature::matcher::MIN_ANCHOR_LEN;
use kizzle_signature::Element;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The counting global allocator.
mod common {
    pub mod counting_alloc;
}
use common::counting_alloc::allocations;

/// A service that has compiled one day of the fast corpus, its matcher, and
/// that day's pages plus fresh ones it never saw.
fn compiled() -> (KizzleService, Vec<String>) {
    let config = KizzleConfig::fast();
    let date = SimDate::new(2014, 8, 5);
    let reference = ReferenceCorpus::seeded_from_models(SimDate::new(2014, 8, 1), &config);
    let mut service = KizzleService::new(config, reference).expect("fast config is valid");
    let day = GraywareStream::new(StreamConfig {
        samples_per_day: 160,
        malicious_fraction: 0.5,
        family_weights: vec![
            (KitFamily::Angler, 0.3),
            (KitFamily::Nuclear, 0.3),
            (KitFamily::Rig, 0.2),
            (KitFamily::SweetOrange, 0.2),
        ],
        seed: 11,
    })
    .generate_day(date);
    service.process_day(date, &day).expect("day compiles");
    assert!(
        !service.signatures().is_empty(),
        "the day yields signatures"
    );

    let mut pages: Vec<String> = day.iter().map(|s| s.html.clone()).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    for family in KitFamily::ALL {
        pages.push(KitModel::new(family).generate_sample(date, &mut rng));
    }
    for kind in BenignKind::ALL {
        pages.push(generate_benign(kind, &mut rng));
    }
    pages.push(String::new());
    pages.push("<html><body>no script at all</body></html>".to_string());
    pages.push("var bare = 'javascript';".to_string());
    (service, pages)
}

#[test]
fn document_scan_equals_stream_scan_equals_linear_oracle() {
    let (service, pages) = compiled();
    let matcher = service.matcher();
    let set = matcher.signatures();
    let cap = service.config().token_cap;
    let mut hits = 0;
    for page in &pages {
        let stream = kizzle_js::tokenize_document_capped(page, cap);
        let from_document = matcher.scan_verdict(page);
        assert_eq!(from_document, matcher.scan_stream_verdict(&stream));
        // The linear oracle: the first signature in insertion order.
        let linear = set
            .iter()
            .find(|hit| hit.signature.matches_stream(&stream))
            .map(|hit| hit.signature.name.as_str());
        let staged = from_document
            .index
            .and_then(|i| set.get(i as usize))
            .map(|hit| hit.signature.name.as_str());
        assert_eq!(staged, linear);
        assert_eq!(matcher.scan(page), from_document.family);
        hits += usize::from(from_document.index.is_some());
    }
    assert!(hits > 20, "only {hits} of {} pages hit", pages.len());
    assert!(hits < pages.len() - 20, "every page hit");
}

#[test]
fn one_threads_scratch_carries_nothing_from_scan_to_scan() {
    let (service, pages) = compiled();
    let matcher = service.matcher();
    let verdicts: Vec<_> = pages.iter().map(|p| matcher.scan_verdict(p)).collect();
    let longest = |hit: bool| {
        pages
            .iter()
            .zip(&verdicts)
            .filter(|(_, v)| v.index.is_some() == hit)
            .map(|(page, _)| page.as_str())
            .max_by_key(|page| page.len())
            .expect("the corpus has hits and misses")
    };
    let big_hit = longest(true);
    let small_miss = "<script>var x = 1;</script>";
    let big_miss = longest(false);
    let sequence = [
        big_hit, small_miss, "", big_hit, big_miss, small_miss, big_hit, "", "",
    ];

    // Each document on a thread of its own: scratch as fresh as it gets.
    let fresh: Vec<ScanVerdict> = sequence
        .iter()
        .map(|doc| {
            std::thread::scope(|scope| {
                scope
                    .spawn(|| matcher.scan_verdict(doc))
                    .join()
                    .expect("scan thread")
            })
        })
        .collect();
    assert!(fresh[0].index.is_some() && fresh[1].index.is_none() && fresh[2].index.is_none());

    // The whole sequence through one thread's scratch, twice over, with a
    // pre-tokenized scan (which shares the profile buffers) in between.
    let reused = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let mut out = Vec::new();
                for round in 0..2 {
                    for doc in sequence {
                        out.push(matcher.scan_verdict(doc));
                        let stream = kizzle_js::tokenize_document(doc);
                        let _ = matcher.scan_stream_verdict(&stream);
                    }
                    assert_eq!(out.len(), (round + 1) * sequence.len());
                }
                out
            })
            .join()
            .expect("scan thread")
    });
    assert_eq!(reused[..sequence.len()], fresh[..]);
    assert_eq!(reused[sequence.len()..], fresh[..]);
}

#[test]
fn a_warmed_up_thread_scans_without_allocating() {
    let (service, pages) = compiled();
    let matcher = service.matcher();
    // Warm-up: the scratch grows to the largest document, the thread-local
    // scan tallies register, the handle caches the published set.
    let verdicts: Vec<_> = pages.iter().map(|p| matcher.scan_verdict(p)).collect();
    let hits = verdicts.iter().filter(|v| v.index.is_some()).count();
    assert!(hits > 20 && hits < pages.len() - 20);

    let before = allocations();
    let mut rescanned = 0u64;
    for _ in 0..3 {
        for (page, verdict) in pages.iter().zip(&verdicts) {
            assert_eq!(matcher.scan_verdict(page), *verdict);
            rescanned += 1;
        }
    }
    let allocated = allocations() - before;
    assert_eq!(
        allocated, 0,
        "{allocated} allocations over {rescanned} steady-state scans"
    );

    // The counter does count: the allocating path shows up on it.
    let before = allocations();
    let _ = kizzle_js::tokenize_document_capped(&pages[0], 900);
    assert!(allocations() > before);
}

/// The compiled set's signatures that have an anchor (their longest
/// literal of at least `MIN_ANCHOR_LEN` bytes), so the anchor gate is on
/// whatever the day compiled; and how many `pages` hold none of those
/// anchors, which the gate must turn away unlexed.
fn anchored_only(set: &SignatureSet, pages: &[String]) -> (SignatureSet, usize) {
    let anchor = |labeled: &kizzle_signature::LabeledSignature| -> Option<String> {
        labeled
            .signature
            .elements
            .iter()
            .filter_map(|element| match element {
                Element::Literal(text) if text.len() >= MIN_ANCHOR_LEN => Some(text.clone()),
                _ => None,
            })
            .max_by_key(String::len)
    };
    let mut anchored = SignatureSet::new();
    anchored.extend(set.iter().filter(|s| anchor(s).is_some()).cloned());
    let anchors: Vec<String> = anchored.iter().filter_map(anchor).collect();
    let anchor_free = pages
        .iter()
        .filter(|page| !anchors.iter().any(|a| page.contains(a.as_str())))
        .count();
    (anchored, anchor_free)
}

#[test]
fn the_anchor_gate_changes_no_verdict_and_allocates_nothing() {
    let (service, pages) = compiled();
    let cap = service.config().token_cap;
    let (set, anchor_free) = anchored_only(&service.matcher().signatures(), &pages);
    assert_eq!(set.seal().gate_off(), None, "an anchored set is gated");
    assert!(
        anchor_free > pages.len() / 4,
        "only {anchor_free} of {} pages are anchor-free",
        pages.len()
    );
    let verdicts: Vec<Option<usize>> = pages
        .iter()
        .map(|page| {
            let lexed = set.scan_stream_index(&kizzle_js::tokenize_document_capped(page, cap));
            assert_eq!(set.scan_document_index(page, cap), lexed);
            lexed
        })
        .collect();
    let hits = verdicts.iter().filter(|v| v.is_some()).count();
    assert!(hits > 20, "only {hits} of {} pages hit", pages.len());

    let before = allocations();
    for (page, verdict) in pages.iter().zip(&verdicts) {
        assert_eq!(set.scan_document_index(page, cap), *verdict);
    }
    let allocated = allocations() - before;
    assert_eq!(allocated, 0, "{allocated} allocations over gated scans");
}
