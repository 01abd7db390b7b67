//! # kizzle-bench — shared fixtures for the benchmarks
//!
//! The repository's benchmark is the ledger, `examples/perf_ledger`: one
//! canonical workload per question, end to end and layer by layer.
//! Criterion (`benches/`) keeps only the kernel arms the ledger cannot
//! isolate, each gated in `thresholds.json`:
//!
//! * `components` — the Myers distance kernel, the snapshot checksum,
//!   signature generation, the scan's stage-2 token profile, the anchor
//!   automaton's skip-loop, the lexer and the seal's label loop;
//! * `signature_scan` — the staged scan at 500–50k signatures;
//! * `telemetry_overhead` — scanning with telemetry on over off.
//!
//! `examples/scale_sweep` drives the neighbor index at scale;
//! `examples/scan_breakdown` and `examples/seal_breakdown` split an
//! in-process scan and a seal into their steps. The paper's
//! tables and figures are regenerated by `kizzle-eval`'s `experiments`
//! binary. This library only holds the fixture helpers these share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use kizzle_corpus::{KitFamily, KitModel, SimDate};
use kizzle_js::TokenStream;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Generate `count` packed landing pages of one kit for a fixed date.
#[must_use]
pub fn packed_samples(family: KitFamily, day: u32, count: usize) -> Vec<String> {
    let model = KitModel::new(family);
    let date = SimDate::new(2014, 8, day);
    (0..count as u64)
        .map(|i| {
            let mut rng = ChaCha8Rng::seed_from_u64(9_000 + i);
            model.generate_sample(date, &mut rng)
        })
        .collect()
}

/// Tokenize documents and truncate each to `cap` tokens.
#[must_use]
pub fn tokenized(documents: &[String], cap: usize) -> Vec<TokenStream> {
    documents
        .iter()
        .map(|doc| kizzle_js::tokenize_document_capped(doc, cap))
        .collect()
}

/// Token-class strings of `documents`, each capped at `cap` tokens.
fn class_strings(documents: &[String], cap: usize) -> Vec<Vec<u8>> {
    tokenized(documents, cap)
        .iter()
        .map(TokenStream::class_codes)
        .collect()
}

/// Token-class strings of one synthetic "day": a mix of exploit-kit
/// families (clusterable near-duplicates) and benign one-off pages
/// (noise), matching what the daily pipeline clusters.
///
/// Deterministic for a given `total`; documents are capped at `cap` tokens
/// like the service's ingest does (`KizzleConfig::token_cap`).
fn synthetic_day_class_strings(total: usize, cap: usize) -> Vec<Vec<u8>> {
    use kizzle_corpus::benign::{generate_benign, BenignKind};
    let families = [
        KitFamily::Angler,
        KitFamily::Nuclear,
        KitFamily::Rig,
        KitFamily::SweetOrange,
    ];
    let malicious = total * 7 / 10;
    let per_family = malicious / families.len();
    let date = SimDate::new(2014, 8, 14);
    let mut documents: Vec<String> = Vec::with_capacity(total);
    for (f, family) in families.iter().enumerate() {
        let model = KitModel::new(*family);
        for i in 0..per_family {
            let mut rng = ChaCha8Rng::seed_from_u64((f * 100_000 + i) as u64);
            documents.push(model.generate_sample(date, &mut rng));
        }
    }
    let mut i = 0u64;
    while documents.len() < total {
        let mut rng = ChaCha8Rng::seed_from_u64(7_000_000 + i);
        let kind = BenignKind::ALL[(i as usize) % BenignKind::ALL.len()];
        documents.push(generate_benign(kind, &mut rng));
        i += 1;
    }
    class_strings(&documents, cap)
}

/// One synthetic day of token-class strings — exploit-kit families and
/// benign one-off pages — in which every string is guaranteed distinct:
/// sample `i` carries a 6-token class-code prefix encoding `i`.
///
/// The kit generators are *too* faithful for some benches: variants of one
/// family often collapse to the same token-class sequence, and anything
/// built on [`kizzle_cluster::CorpusStore`] dedups them down to a handful
/// of live samples. The prefix keeps every sample live while staying ≤ 6
/// edits from its base (far inside the clustering `eps` at realistic
/// lengths), so family clusters survive intact.
///
/// Two variants of one page then differ in their first six symbols and
/// nowhere else — the friendliest shape there is to a distance kernel that
/// strips shared affixes; [`scattered_day_class_strings`] is the same day
/// without that gift.
///
/// # Panics
///
/// Panics if `total` exceeds the 6-digit base-6 prefix space (46,656).
#[must_use]
pub fn distinct_day_class_strings(total: usize, cap: usize) -> Vec<Vec<u8>> {
    tagged_day_class_strings(total, cap, |_, _| 0)
}

/// [`distinct_day_class_strings`] with the same six tag symbols written
/// one every seventh of the page instead of in front of it (tag `k` of
/// `1..=6` before page position `k · len / 7`), so two variants of a page
/// share no affix longer than a seventh of it.
///
/// # Panics
///
/// Panics if `total` exceeds the 6-digit base-6 tag space (46,656).
#[must_use]
pub fn scattered_day_class_strings(total: usize, cap: usize) -> Vec<Vec<u8>> {
    tagged_day_class_strings(total, cap, |k, len| k * len / 7)
}

/// `tag_at(k, len)`: the position in a page of `len` symbols that tag `k`
/// of `1..=6` goes in front of; must not decrease with `k`.
fn tagged_day_class_strings(
    total: usize,
    cap: usize,
    tag_at: impl Fn(usize, usize) -> usize,
) -> Vec<Vec<u8>> {
    assert!(total <= 6usize.pow(6), "tag space exhausted");
    synthetic_day_class_strings(total, cap)
        .into_iter()
        .enumerate()
        .map(|(i, page)| {
            let mut tagged = Vec::with_capacity(page.len() + 6);
            let mut rest = i;
            let mut copied = 0;
            for k in 1..=6 {
                let upto = tag_at(k, page.len());
                tagged.extend_from_slice(&page[copied..upto]);
                copied = upto;
                tagged.push((rest % 6) as u8);
                rest /= 6;
            }
            tagged.extend_from_slice(&page[copied..]);
            tagged
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_day_has_requested_size() {
        let day = synthetic_day_class_strings(40, 300);
        assert_eq!(day.len(), 40);
        assert!(day.iter().all(|s| s.len() <= 300));
    }

    #[test]
    fn distinct_day_strings_are_all_distinct() {
        for day in [
            distinct_day_class_strings(50, 300),
            scattered_day_class_strings(50, 300),
        ] {
            assert_eq!(day.len(), 50);
            let unique: std::collections::HashSet<&[u8]> = day.iter().map(|s| &s[..]).collect();
            assert_eq!(unique.len(), 50);
        }
    }

    #[test]
    fn scattered_strings_are_the_prefixed_ones_with_the_tags_moved() {
        let prefixed = distinct_day_class_strings(50, 300);
        let scattered = scattered_day_class_strings(50, 300);
        for (p, s) in prefixed.iter().zip(&scattered) {
            let page = &p[6..];
            let mut untagged = s.clone();
            for k in (1..=6).rev() {
                let tag = untagged.remove(k * page.len() / 7 + k - 1);
                assert_eq!(tag, p[k - 1]);
            }
            assert_eq!(untagged, page);
        }
    }

    #[test]
    fn fixtures_produce_consistent_shapes() {
        let docs = packed_samples(KitFamily::Nuclear, 5, 3);
        assert_eq!(docs.len(), 3);
        let streams = tokenized(&docs, 200);
        assert!(streams.iter().all(|s| s.len() <= 200 && !s.is_empty()));
        assert_eq!(class_strings(&docs, 200).len(), 3);
    }
}
