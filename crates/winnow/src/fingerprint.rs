//! Winnowing fingerprint selection and histogram comparison.

use crate::hash::rolling_hashes;
use std::collections::HashMap;
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fingerprint {
    counts: HashMap<u64, u32>,
    total: u64,
}

impl Fingerprint {
    /// Fingerprint a document.
    ///
    /// The text is normalized first: ASCII whitespace is removed and ASCII
    /// letters are lower-cased, mirroring the normalization AV scanners and
    /// the original winnowing paper apply so that formatting changes do not
    /// perturb the fingerprint.
    #[must_use]
    pub fn of_text(text: &str, config: &WinnowConfig) -> Self {
        let normalized = normalize(text);
        Self::of_normalized_bytes(&normalized, config)
    }

    /// Fingerprint already-normalized bytes (no whitespace stripping).
    #[must_use]
    pub fn of_normalized_bytes(bytes: &[u8], config: &WinnowConfig) -> Self {
        let hashes = rolling_hashes(bytes, config.k);
        let selected = winnow_select(&hashes, config.window);
        let mut counts: HashMap<u64, u32> = HashMap::new();
        for h in &selected {
            *counts.entry(*h).or_insert(0) += 1;
        }
        Fingerprint {
            total: selected.len() as u64,
            counts,
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
        self.counts.len()
    }

    /// Multiset intersection size with another fingerprint.
    #[must_use]
    pub fn intersection_size(&self, other: &Fingerprint) -> u64 {
        let (small, large) = if self.counts.len() <= other.counts.len() {
            (self, other)
        } else {
            (other, self)
        };
        small
            .counts
            .iter()
            .map(|(h, c)| u64::from((*c).min(large.counts.get(h).copied().unwrap_or(0))))
            .sum()
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
    /// reference histogram out of several known samples).
    pub fn merge(&mut self, other: &Fingerprint) {
        for (h, c) in &other.counts {
            *self.counts.entry(*h).or_insert(0) += c;
        }
        self.total += other.total;
    }

    /// Iterate over `(hash, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.counts.iter().map(|(h, c)| (*h, *c))
    }

    /// Reassemble a fingerprint from `(hash, count)` pairs, as produced by
    /// [`Fingerprint::iter`] — the reconstruction half of persisting a
    /// reference corpus. Counts for a repeated hash accumulate; the total
    /// is the sum of counts, matching how fingerprints are built and
    /// merged.
    #[must_use]
    pub fn from_counts<I: IntoIterator<Item = (u64, u32)>>(pairs: I) -> Self {
        let mut counts: HashMap<u64, u32> = HashMap::new();
        let mut total: u64 = 0;
        for (hash, count) in pairs {
            *counts.entry(hash).or_insert(0) += count;
            total += u64::from(count);
        }
        Fingerprint { counts, total }
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Fingerprint({} marks, {} distinct)",
            self.total,
            self.counts.len()
        )
    }
}

impl FromIterator<u64> for Fingerprint {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut counts = HashMap::new();
        let mut total = 0;
        for h in iter {
            *counts.entry(h).or_insert(0) += 1;
            total += 1;
        }
        Fingerprint { counts, total }
    }
}

/// Normalize text for fingerprinting: drop ASCII whitespace, lower-case
/// ASCII letters.
#[must_use]
pub fn normalize(text: &str) -> Vec<u8> {
    text.bytes()
        .filter(|b| !b.is_ascii_whitespace())
        .map(|b| b.to_ascii_lowercase())
        .collect()
}

/// The winnowing selection: minimum hash of every window of `window`
/// consecutive hashes, taking the right-most minimum on ties, and recording
/// each selected position only once (the standard "robust winnowing" of the
/// original paper).
#[must_use]
pub fn winnow_select(hashes: &[u64], window: usize) -> Vec<u64> {
    assert!(window > 0, "window must be positive");
    if hashes.is_empty() {
        return Vec::new();
    }
    if hashes.len() <= window {
        // Degenerate document: a single window.
        let min = hashes.iter().copied().min().unwrap_or(0);
        return vec![min];
    }
    let mut selected = Vec::new();
    let mut last_selected: Option<usize> = None;
    for start in 0..=hashes.len() - window {
        let slice = &hashes[start..start + window];
        // Right-most minimum.
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
        assert_eq!(normalize("A b\tC\n"), b"abc".to_vec());
    }
}
