//! Winnowing fingerprint selection and histogram comparison.

use crate::hash::{mix64, BASE};
use std::cmp::Ordering;
use std::fmt;

/// Parameters of the winnowing algorithm.
///
/// The guarantee threshold is `t = window + k - 1`: any substring shared by
/// two documents of at least `t` normalized characters yields at least one
/// shared fingerprint. The noise threshold is `k`: no match shorter than `k`
/// characters is ever detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WinnowConfig {
    /// k-gram size in normalized characters.
    pub k: usize,
    /// Window size (number of consecutive k-gram hashes per window).
    pub window: usize,
}

impl WinnowConfig {
    /// Create a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `window` is zero.
    #[must_use]
    pub fn new(k: usize, window: usize) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(window > 0, "window must be positive");
        WinnowConfig { k, window }
    }

    /// The guarantee threshold `t = window + k - 1`.
    #[cfg(test)]
    fn guarantee_threshold(&self) -> usize {
        self.window + self.k - 1
    }
}

impl Default for WinnowConfig {
    /// `k = 12`, `window = 8`: every shared run of 19+ normalized characters
    /// is guaranteed to be detected. Exploit-kit payload bodies share far
    /// longer runs than that, while 12-character k-grams keep benign
    /// boilerplate (e.g. `function(){return`) from dominating.
    fn default() -> Self {
        WinnowConfig { k: 12, window: 8 }
    }
}

/// A document fingerprint: the multiset of winnowed k-gram hashes
/// ("winnow histogram" in the paper's terminology).
///
/// Stored flat as `(hash, count)` pairs in strictly increasing hash order,
/// so comparing two fingerprints is a merge of two sorted runs and no
/// k-gram hash taken from a page is ever hashed again into a table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fingerprint {
    /// Strictly increasing by hash.
    pairs: Vec<(u64, u32)>,
    total: u64,
}

impl Fingerprint {
    /// Fingerprint a document.
    ///
    /// The text is normalized first: ASCII whitespace is removed and ASCII
    /// letters are lower-cased, mirroring the normalization AV scanners and
    /// the original winnowing paper apply so that formatting changes do not
    /// perturb the fingerprint. Normalizing, hashing and selecting are one
    /// pass over the text's bytes.
    #[must_use]
    pub fn of_text(text: &str, config: &WinnowConfig) -> Self {
        let normalized = text
            .bytes()
            .filter(|b| !b.is_ascii_whitespace())
            .map(|b| b.to_ascii_lowercase());
        Self::from_picks(winnow_bytes(normalized, text.len(), config))
    }

    /// The histogram of `picks`: sorted, then counted run by run.
    fn from_picks(mut picks: Vec<u64>) -> Self {
        picks.sort_unstable();
        let mut pairs: Vec<(u64, u32)> = Vec::with_capacity(picks.len());
        for hash in &picks {
            match pairs.last_mut() {
                Some((last, count)) if last == hash => *count += 1,
                _ => pairs.push((*hash, 1)),
            }
        }
        Fingerprint {
            total: picks.len() as u64,
            pairs,
        }
    }

    /// Number of selected fingerprints (with multiplicity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.total as usize
    }

    /// True if the document was too short to produce any fingerprint.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of *distinct* fingerprint hashes.
    #[must_use]
    pub fn distinct(&self) -> usize {
        self.pairs.len()
    }

    /// Multiset intersection size with another fingerprint.
    ///
    /// Walks the fingerprint with fewer distinct hashes and gallops
    /// through the other, so a small probe against a large family
    /// reference costs about `small · log(large / small)` comparisons.
    #[must_use]
    pub fn intersection_size(&self, other: &Fingerprint) -> u64 {
        let (small, large) = if self.pairs.len() <= other.pairs.len() {
            (&self.pairs, &other.pairs)
        } else {
            (&other.pairs, &self.pairs)
        };
        let mut rest = &large[..];
        let mut shared = 0u64;
        for &(hash, count) in small {
            rest = &rest[gallop(rest, hash)..];
            match rest.first() {
                None => break,
                Some(&(found, found_count)) if found == hash => {
                    shared += u64::from(count.min(found_count));
                    rest = &rest[1..];
                }
                Some(_) => {}
            }
        }
        shared
    }

    /// Containment of `self` in `other`: the fraction of this document's
    /// fingerprints also present in `other`.
    ///
    /// This is the "overlap" Kizzle uses to decide whether a cluster
    /// prototype matches a known family, and to measure day-over-day
    /// similarity of unpacked kits (paper Fig. 11). Returns 0 when `self`
    /// has no fingerprints.
    #[must_use]
    pub fn overlap(&self, other: &Fingerprint) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.intersection_size(other) as f64 / self.total as f64
    }

    /// Symmetric Jaccard similarity of the two fingerprint multisets.
    #[must_use]
    pub fn jaccard(&self, other: &Fingerprint) -> f64 {
        let inter = self.intersection_size(other);
        let union = self.total + other.total - inter;
        if union == 0 {
            return if self.total == other.total { 1.0 } else { 0.0 };
        }
        inter as f64 / union as f64
    }

    /// Merge another fingerprint into this one (used to build a family-level
    /// reference histogram out of several known samples): one linear merge
    /// of the two sorted runs.
    pub fn merge(&mut self, other: &Fingerprint) {
        let (mine, theirs) = (&self.pairs, &other.pairs);
        let mut merged = Vec::with_capacity(mine.len() + theirs.len());
        let (mut i, mut j) = (0, 0);
        while let (Some(&(a, count_a)), Some(&(b, count_b))) = (mine.get(i), theirs.get(j)) {
            match a.cmp(&b) {
                Ordering::Less => {
                    merged.push((a, count_a));
                    i += 1;
                }
                Ordering::Greater => {
                    merged.push((b, count_b));
                    j += 1;
                }
                Ordering::Equal => {
                    merged.push((a, count_a.saturating_add(count_b)));
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&mine[i..]);
        merged.extend_from_slice(&theirs[j..]);
        self.pairs = merged;
        self.total += other.total;
    }

    /// Iterate over `(hash, count)` pairs in increasing hash order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.pairs.iter().copied()
    }

    /// Reassemble a fingerprint from `(hash, count)` pairs, as produced by
    /// [`Fingerprint::iter`] — the reconstruction half of persisting a
    /// reference corpus. Counts for a repeated hash accumulate; the total
    /// is the sum of counts, matching how fingerprints are built and
    /// merged. A pair with count 0 still counts as a distinct hash. Counts
    /// saturate at `u32::MAX` (here and in [`Fingerprint::merge`]), so a
    /// damaged state file cannot make them overflow.
    #[must_use]
    pub fn from_counts<I: IntoIterator<Item = (u64, u32)>>(pairs: I) -> Self {
        let mut pairs: Vec<(u64, u32)> = pairs.into_iter().collect();
        if !pairs.is_sorted_by(|a, b| a.0 < b.0) {
            pairs.sort_unstable_by_key(|&(hash, _)| hash);
            pairs.dedup_by(|later, kept| {
                let repeated = later.0 == kept.0;
                if repeated {
                    kept.1 = kept.1.saturating_add(later.1);
                }
                repeated
            });
        }
        let total = pairs.iter().map(|&(_, count)| u64::from(count)).sum();
        Fingerprint { pairs, total }
    }
}

/// Index of the first pair in `pairs` whose hash is at least `hash`
/// (`pairs.len()` when none is): exponential probing from the front, then
/// a binary search inside the last doubled step.
fn gallop(pairs: &[(u64, u32)], hash: u64) -> usize {
    if pairs.first().is_none_or(|&(first, _)| first >= hash) {
        return 0;
    }
    // Invariant: pairs[below].0 < hash.
    let mut below = 0;
    let mut step = 1;
    while below + step < pairs.len() && pairs[below + step].0 < hash {
        below += step;
        step *= 2;
    }
    let end = (below + step).min(pairs.len());
    below + 1 + pairs[below + 1..end].partition_point(|&(h, _)| h < hash)
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Fingerprint({} marks, {} distinct)",
            self.total,
            self.pairs.len()
        )
    }
}

impl FromIterator<u64> for Fingerprint {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        Self::from_picks(iter.into_iter().collect())
    }
}

/// Rolling-hash every k-gram of `bytes` as
/// [`rolling_hashes`](crate::rolling_hashes) does, the bytes normalized as
/// they are read (`bytes` yields at most `most` of them, which bounds the
/// allocation whatever `k` says), and winnow the hashes.
fn winnow_bytes(bytes: impl Iterator<Item = u8>, most: usize, config: &WinnowConfig) -> Vec<u64> {
    let k = config.k;
    if most < k {
        return Vec::new();
    }
    let mut hashes = Vec::with_capacity(most - k + 1);
    // The last `k` bytes, so the outgoing one can be taken back out.
    let mut ring = vec![0u8; k];
    let mut at = 0;
    let mut seen = 0usize;
    // base^(k-1), which removes the outgoing byte.
    let top = (1..k).fold(1u64, |top, _| top.wrapping_mul(BASE));
    let mut h = 0u64;
    for b in bytes {
        if seen >= k {
            h = h.wrapping_sub((u64::from(ring[at]) + 1).wrapping_mul(top));
        }
        h = h.wrapping_mul(BASE).wrapping_add(u64::from(b) + 1);
        ring[at] = b;
        at += 1;
        if at == k {
            at = 0;
        }
        seen += 1;
        if seen >= k {
            hashes.push(mix64(h));
        }
    }
    winnow_select(&hashes, config.window)
}

/// The winnowing selection: minimum hash of every window of `window`
/// consecutive hashes, taking the right-most minimum on ties, and recording
/// each selected position only once (the standard "robust winnowing" of the
/// original paper). A sequence no longer than one window selects its
/// minimum once.
///
/// O(1) per hash whatever the input (van Herk / Gil-Werman block minima,
/// no rescan of a window): the hashes are cut into blocks of `window`. A
/// window starting at offset `r > 0` of a block is the block's tail from
/// `r` plus the next block's head up to `r - 1`, so its minimum is the
/// better of the block's suffix minimum at `r` (one backward pass per
/// block, kept in a buffer of one window) and the next block's running
/// prefix minimum. "Better" is the smaller hash, and on a tie the later
/// position.
///
/// # Panics
///
/// Panics if `window` is zero.
#[must_use]
pub fn winnow_select(hashes: &[u64], window: usize) -> Vec<u64> {
    assert!(window > 0, "window must be positive");
    let n = hashes.len();
    if n <= window {
        return hashes.iter().copied().min().into_iter().collect();
    }
    let windows = n - window + 1;
    // Every window writes its pick; a pick only counts (`picked` moves
    // past it) when its position differs from the last one's.
    let mut picks = vec![0u64; windows];
    let mut picked = 0;
    let mut last = usize::MAX;
    let mut record = |(hash, position): (u64, usize)| {
        picks[picked] = hash;
        picked += usize::from(position != last);
        last = position;
    };
    let mut suffix = vec![(0u64, 0usize); window];
    for start in (0..windows).step_by(window) {
        // Suffix minima of the block [start, start + window).
        let block = &hashes[start..start + window];
        let mut best = (block[window - 1], start + window - 1);
        for (offset, &hash) in block.iter().enumerate().rev() {
            if hash < best.0 {
                best = (hash, start + offset);
            }
            suffix[offset] = best;
        }
        // The window that is the block itself.
        record(suffix[0]);
        // The window starting at offset r > 0 ends at offset r - 1 of the
        // next block, whose prefix minimum grows with r.
        let later = window.min(windows - start);
        let head = &hashes[start + window..start + window + later - 1];
        let mut prefix = (u64::MAX, 0);
        for (at, (&hash, &tail)) in head.iter().zip(&suffix[1..later]).enumerate() {
            if hash <= prefix.0 {
                prefix = (hash, start + window + at);
            }
            record(if prefix.0 <= tail.0 { prefix } else { tail });
        }
    }
    picks.truncate(picked);
    picks
}

#[cfg(test)]
mod tests {
    use super::*;

    const BODY: &str = r#"
        function getBrowser(){ var ua = navigator.userAgent; return ua; }
        function checkAv(){ try { new ActiveXObject("Kaspersky.IeVirtualKeyboardPlugin.JavaScriptApi"); return true; } catch(e) { return false; } }
        function exploit_2013_2551(){ var spray = []; for (var i = 0; i < 4096; i++) { spray.push(block); } trigger(); }
    "#;

    #[test]
    fn from_counts_roundtrips_iter() {
        let config = WinnowConfig::default();
        let original = Fingerprint::of_text(BODY, &config);
        let rebuilt = Fingerprint::from_counts(original.iter());
        assert_eq!(rebuilt.len(), original.len());
        assert_eq!(rebuilt.distinct(), original.distinct());
        // Identical multisets behave identically in every comparison.
        assert_eq!(rebuilt.intersection_size(&original), original.len() as u64);
        assert!((rebuilt.overlap(&original) - 1.0).abs() < 1e-12);
        assert!(Fingerprint::from_counts(std::iter::empty()).is_empty());
    }

    #[test]
    fn config_guarantee_threshold() {
        let cfg = WinnowConfig::new(5, 4);
        assert_eq!(cfg.guarantee_threshold(), 8);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_config_panics() {
        let _ = WinnowConfig::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_config_panics() {
        let _ = WinnowConfig::new(4, 0);
    }

    #[test]
    fn self_overlap_is_one() {
        let cfg = WinnowConfig::default();
        let fp = Fingerprint::of_text(BODY, &cfg);
        assert!(!fp.is_empty());
        assert!((fp.overlap(&fp) - 1.0).abs() < 1e-12);
        assert!((fp.jaccard(&fp) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_document_has_empty_fingerprint() {
        let cfg = WinnowConfig::default();
        let fp = Fingerprint::of_text("", &cfg);
        assert!(fp.is_empty());
        assert_eq!(fp.overlap(&fp), 0.0);
    }

    #[test]
    fn whitespace_and_case_do_not_matter() {
        let cfg = WinnowConfig::default();
        let a = Fingerprint::of_text(BODY, &cfg);
        let b = Fingerprint::of_text(&BODY.to_uppercase().replace(' ', "\n\t "), &cfg);
        assert!((a.jaccard(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shared_long_substring_guarantee() {
        // Winnowing guarantee: a shared run of >= w + k - 1 normalized chars
        // must produce at least one common fingerprint.
        let cfg = WinnowConfig::new(8, 4);
        let shared = "sharedExploitCodeBlockThatIsLongEnough";
        let a = format!("prefix_a_{shared}_suffix_a");
        let b = format!("completely_different_{shared}_tail");
        let fa = Fingerprint::of_text(&a, &cfg);
        let fb = Fingerprint::of_text(&b, &cfg);
        assert!(fa.intersection_size(&fb) >= 1);
    }

    #[test]
    fn disjoint_documents_share_nothing() {
        let cfg = WinnowConfig::default();
        let a = Fingerprint::of_text("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", &cfg);
        let b = Fingerprint::of_text("zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz", &cfg);
        assert_eq!(a.intersection_size(&b), 0);
        assert_eq!(a.overlap(&b), 0.0);
    }

    #[test]
    fn containment_is_asymmetric() {
        let cfg = WinnowConfig::default();
        let small = Fingerprint::of_text(BODY, &cfg);
        let big_text = format!("{BODY}\n{}", "function extra(){ return 'unrelated padding code with plenty of text to fingerprint'; }".repeat(8));
        let big = Fingerprint::of_text(&big_text, &cfg);
        assert!(small.overlap(&big) > big.overlap(&small));
    }

    #[test]
    fn merge_accumulates() {
        let cfg = WinnowConfig::default();
        let mut family = Fingerprint::of_text(BODY, &cfg);
        let before = family.len();
        let other = Fingerprint::of_text(
            "var unrelatedcode = somethingcompletelydifferent(12345);",
            &cfg,
        );
        family.merge(&other);
        assert_eq!(family.len(), before + other.len());
        // The merged reference still fully contains the original sample.
        assert!((Fingerprint::of_text(BODY, &cfg).overlap(&family) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn winnow_select_min_per_window() {
        let hashes = vec![9, 3, 7, 1, 8, 2, 6];
        let sel = winnow_select(&hashes, 3);
        // Windows: [9,3,7]->3, [3,7,1]->1, [7,1,8]->1(dup pos), [1,8,2]->2? no: min is 1 at pos3 — careful
        // pos: 0..6, windows starting 0..=4
        //  w0 [9,3,7] -> 3 (pos1)
        //  w1 [3,7,1] -> 1 (pos3)
        //  w2 [7,1,8] -> 1 (pos3, duplicate, skipped)
        //  w3 [1,8,2] -> 1 (pos3, duplicate, skipped)
        //  w4 [8,2,6] -> 2 (pos5)
        assert_eq!(sel, vec![3, 1, 2]);
    }

    #[test]
    fn winnow_select_short_input_single_window() {
        assert_eq!(winnow_select(&[5, 2, 9], 10), vec![2]);
        assert!(winnow_select(&[], 4).is_empty());
    }

    #[test]
    fn winnow_ties_pick_rightmost() {
        let sel = winnow_select(&[4, 4, 4, 4], 2);
        // Each window picks the right-most 4; positions 1,2,3 -> three selections.
        assert_eq!(sel, vec![4, 4, 4]);
    }

    #[test]
    fn fingerprint_from_iterator() {
        let fp: Fingerprint = vec![1u64, 2, 2, 3].into_iter().collect();
        assert_eq!(fp.len(), 4);
        assert_eq!(fp.distinct(), 3);
    }

    #[test]
    fn display_is_informative() {
        let cfg = WinnowConfig::default();
        let fp = Fingerprint::of_text(BODY, &cfg);
        let s = fp.to_string();
        assert!(s.contains("marks"));
        assert!(s.contains("distinct"));
    }

    #[test]
    fn normalize_drops_whitespace_and_lowercases() {
        // With k = window = 1 every normalized byte is its own pick.
        let cfg = WinnowConfig::new(1, 1);
        let fp = Fingerprint::of_text("A b\tC\n", &cfg);
        assert_eq!(fp, Fingerprint::of_text("abc", &cfg));
        assert_eq!(fp.len(), 3);
    }
}
