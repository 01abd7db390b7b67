//! Property-based tests for winnowing fingerprints.
//!
//! The oracles are the straightforward forms of the kernels: selection
//! rescans each window (O(n·w)), and the histogram is a `HashMap` built
//! from separately normalized, hashed and selected text. The production
//! forms (one fused pass, a ring-buffer selection, flat hash-sorted pairs
//! compared by galloping) must agree with them exactly.

use kizzle_winnow::fingerprint::winnow_select;
use kizzle_winnow::{kgram_hashes, rolling_hashes, Fingerprint, WinnowConfig};
use proptest::prelude::*;
use std::collections::HashMap;

/// Normalization as a separate pass: drop ASCII whitespace, lower-case
/// ASCII letters.
fn normalize(text: &str) -> Vec<u8> {
    text.bytes()
        .filter(|b| !b.is_ascii_whitespace())
        .map(|b| b.to_ascii_lowercase())
        .collect()
}

/// Robust winnowing by rescanning every window: the right-most minimum of
/// each window, each position recorded once; a sequence no longer than
/// one window selects its minimum.
fn oracle_select(hashes: &[u64], window: usize) -> Vec<u64> {
    if hashes.is_empty() {
        return Vec::new();
    }
    if hashes.len() <= window {
        return vec![hashes.iter().copied().min().unwrap_or(0)];
    }
    let mut selected = Vec::new();
    let mut last_selected: Option<usize> = None;
    for start in 0..=hashes.len() - window {
        let slice = &hashes[start..start + window];
        let mut min_idx = 0;
        for (i, h) in slice.iter().enumerate() {
            if *h <= slice[min_idx] {
                min_idx = i;
            }
        }
        let global_idx = start + min_idx;
        if last_selected != Some(global_idx) {
            selected.push(hashes[global_idx]);
            last_selected = Some(global_idx);
        }
    }
    selected
}

/// The histogram as a hash map, with the multiset operations spelled out.
#[derive(Debug, Clone, Default)]
struct Oracle {
    counts: HashMap<u64, u32>,
    total: u64,
}

impl Oracle {
    fn of_text(text: &str, cfg: &WinnowConfig) -> Self {
        Self::from_counts(
            oracle_select(&rolling_hashes(&normalize(text), cfg.k), cfg.window)
                .into_iter()
                .map(|h| (h, 1)),
        )
    }

    fn from_counts(pairs: impl IntoIterator<Item = (u64, u32)>) -> Self {
        let mut oracle = Oracle::default();
        for (hash, count) in pairs {
            *oracle.counts.entry(hash).or_insert(0) += count;
            oracle.total += u64::from(count);
        }
        oracle
    }

    fn intersection_size(&self, other: &Oracle) -> u64 {
        self.counts
            .iter()
            .map(|(h, c)| u64::from((*c).min(other.counts.get(h).copied().unwrap_or(0))))
            .sum()
    }

    fn overlap(&self, other: &Oracle) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.intersection_size(other) as f64 / self.total as f64
    }

    fn merge(&mut self, other: &Oracle) {
        for (h, c) in &other.counts {
            *self.counts.entry(*h).or_insert(0) += c;
        }
        self.total += other.total;
    }

    fn sorted_pairs(&self) -> Vec<(u64, u32)> {
        let mut pairs: Vec<(u64, u32)> = self.counts.iter().map(|(h, c)| (*h, *c)).collect();
        pairs.sort_unstable();
        pairs
    }
}

/// Pairs and totals agree, and `iter` yields the pairs hash-sorted.
fn assert_same(fp: &Fingerprint, oracle: &Oracle) {
    assert_eq!(fp.iter().collect::<Vec<_>>(), oracle.sorted_pairs());
    assert_eq!(fp.len() as u64, oracle.total);
    assert_eq!(fp.distinct(), oracle.counts.len());
    assert_eq!(fp.is_empty(), oracle.total == 0);
}

/// Up to `most` `(hash, count)` pairs, hashes below `hashes` (small, so
/// that the two sides of a comparison share hashes and a list repeats
/// them) and counts in `counts`.
fn pair_list(
    hashes: u64,
    counts: std::ops::Range<u32>,
    most: usize,
) -> impl Strategy<Value = Vec<(u64, u32)>> {
    prop::collection::vec(any::<u64>(), 0..most).prop_map(move |draws| {
        draws
            .into_iter()
            .map(|draw| {
                let count = counts.start + (draw >> 32) as u32 % (counts.end - counts.start);
                (draw % hashes, count)
            })
            .collect()
    })
}

proptest! {
    /// The rolling hash always agrees with the naive k-gram hash.
    #[test]
    fn rolling_equals_naive(data in prop::collection::vec(any::<u8>(), 0..300), k in 1usize..16) {
        prop_assert_eq!(rolling_hashes(&data, k), kgram_hashes(&data, k));
    }

    /// Overlap and Jaccard are always within [0, 1].
    #[test]
    fn similarity_bounded(a in "[ -~]{0,300}", b in "[ -~]{0,300}") {
        let cfg = WinnowConfig::new(5, 4);
        let fa = Fingerprint::of_text(&a, &cfg);
        let fb = Fingerprint::of_text(&b, &cfg);
        let o = fa.overlap(&fb);
        let j = fa.jaccard(&fb);
        prop_assert!((0.0..=1.0).contains(&o));
        prop_assert!((0.0..=1.0).contains(&j));
    }

    /// Jaccard similarity is symmetric; overlap of a document with itself is 1
    /// whenever the document is long enough to have fingerprints.
    #[test]
    fn jaccard_symmetric_and_self_overlap(a in "[ -~]{0,300}", b in "[ -~]{0,300}") {
        let cfg = WinnowConfig::new(5, 4);
        let fa = Fingerprint::of_text(&a, &cfg);
        let fb = Fingerprint::of_text(&b, &cfg);
        prop_assert!((fa.jaccard(&fb) - fb.jaccard(&fa)).abs() < 1e-12);
        if !fa.is_empty() {
            prop_assert!((fa.overlap(&fa) - 1.0).abs() < 1e-12);
        }
    }

    /// Winnowing guarantee: documents sharing a substring of at least
    /// `window + k - 1` non-whitespace characters share at least one
    /// fingerprint.
    #[test]
    fn shared_substring_guarantee(
        shared in "[a-z0-9]{30,60}",
        prefix_a in "[A-Z]{0,20}",
        prefix_b in "[0-9]{0,20}",
    ) {
        let cfg = WinnowConfig::new(8, 4); // guarantee threshold 11 << 30
        let a = format!("{prefix_a}{shared}");
        let b = format!("{prefix_b}{shared}");
        let fa = Fingerprint::of_text(&a, &cfg);
        let fb = Fingerprint::of_text(&b, &cfg);
        prop_assert!(fa.intersection_size(&fb) >= 1);
    }

    /// The ring-buffer selection picks what rescanning every window picks,
    /// with ties common (hashes from 0..4) and rare (any `u64`), over
    /// sequences from empty to many windows long.
    #[test]
    fn selection_equals_rescanning_oracle(
        tied in prop::collection::vec(0u64..4, 0..300),
        spread in prop::collection::vec(any::<u64>(), 0..300),
        window in 1usize..17,
    ) {
        prop_assert_eq!(winnow_select(&tied, window), oracle_select(&tied, window));
        prop_assert_eq!(winnow_select(&spread, window), oracle_select(&spread, window));
    }

    /// The fused normalize–hash–select pass equals normalizing, hashing
    /// and selecting separately, for every k and window, on text with
    /// whitespace and capitals to strip and on text of repeated runs
    /// (tied hashes).
    #[test]
    fn of_text_equals_oracle(
        text in "[ -~\t\n]{0,400}",
        runs in "[abAB \n]{0,400}",
        k in 1usize..16,
        window in 1usize..17,
    ) {
        let cfg = WinnowConfig::new(k, window);
        for text in [&text, &runs] {
            assert_same(&Fingerprint::of_text(text, &cfg), &Oracle::of_text(text, &cfg));
        }
    }

    /// `from_counts` accumulates repeated hashes, keeps zero counts as
    /// distinct hashes and sums the total, in any input order.
    #[test]
    fn from_counts_equals_oracle(pairs in pair_list(24, 0..5, 80)) {
        let fp = Fingerprint::from_counts(pairs.clone());
        assert_same(&fp, &Oracle::from_counts(pairs));
        // What `iter` yields rebuilds the same fingerprint.
        prop_assert_eq!(Fingerprint::from_counts(fp.iter()), fp);
    }

    /// Galloping intersection, overlap and merge equal the hash-map forms,
    /// for sides of very different sizes (small probe, large reference)
    /// and of equal ones.
    #[test]
    fn comparisons_and_merge_equal_oracle(
        a in pair_list(40, 0..5, 80),
        b in pair_list(40, 0..5, 80),
        wide in pair_list(4_000, 1..4, 1_000),
    ) {
        for (left, right) in [(&a, &b), (&a, &wide), (&wide, &b)] {
            let (fa, fb) = (
                Fingerprint::from_counts(left.clone()),
                Fingerprint::from_counts(right.clone()),
            );
            let (oa, ob) = (Oracle::from_counts(left.clone()), Oracle::from_counts(right.clone()));
            prop_assert_eq!(fa.intersection_size(&fb), oa.intersection_size(&ob));
            prop_assert_eq!(fb.intersection_size(&fa), oa.intersection_size(&ob));
            prop_assert_eq!(fa.overlap(&fb).to_bits(), oa.overlap(&ob).to_bits());
            prop_assert_eq!(fb.overlap(&fa).to_bits(), ob.overlap(&oa).to_bits());
            let mut merged = fa.clone();
            merged.merge(&fb);
            let mut oracle = oa.clone();
            oracle.merge(&ob);
            assert_same(&merged, &oracle);
        }
    }

    /// Merging fingerprints adds their sizes and never decreases overlap of a
    /// constituent with the merged reference.
    #[test]
    fn merge_monotone(a in "[ -~]{20,200}", b in "[ -~]{20,200}") {
        let cfg = WinnowConfig::new(5, 4);
        let fa = Fingerprint::of_text(&a, &cfg);
        let fb = Fingerprint::of_text(&b, &cfg);
        let mut merged = fa.clone();
        merged.merge(&fb);
        prop_assert_eq!(merged.len(), fa.len() + fb.len());
        prop_assert!(fa.overlap(&merged) >= fa.overlap(&fb) - 1e-12);
        if !fa.is_empty() {
            prop_assert!((fa.overlap(&merged) - 1.0).abs() < 1e-12);
        }
    }
}
