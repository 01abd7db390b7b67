//! Bounded approximate verification — the adaptive band kernel behind
//! [`SignatureSet::scan_stream_nearest`](crate::SignatureSet::scan_stream_nearest).
//!
//! The exact scan answers "does some window satisfy every element?". This
//! module answers the graded question the triage workflow needs — *how
//! close* does a document come to each signature — with a semi-global
//! edit distance between a signature's element sequence and the token
//! stream: substituting a token that fails its element costs 1, skipping
//! a signature element costs 1, absorbing an extra stream token inside
//! the aligned region costs 1, and stream tokens before/after the region
//! are free. A distance of 0 is exactly an exact-scan match (the property
//! tests hold the two scans to each other).
//!
//! Cost control is the Ukkonen cutoff discipline, applied twice:
//!
//! * **Within one signature** ([`nearest_in_stream`]): the DP walks the
//!   stream column by column but only computes rows whose running value
//!   can still finish at or below the cutoff — the classic last-active-row
//!   band, so the per-column work is `O(band)`, not `O(signature_len)`.
//! * **Across the set** ([`crate::SignatureSet::scan_stream_nearest`]):
//!   signatures are tried in insertion order with the cutoff lowered to
//!   `best - 1` each time the running best improves — the band *narrows
//!   dynamically* as better candidates are found, so late signatures in a
//!   large set run against a sliver of their full DP table (and most are
//!   discarded by the histogram bound below without any DP at all).
//!
//! Before the DP, the crate-private `stream_deficit` applies the
//! prefilter's histogram
//! idiom fuzzily: every `Class` element demanded more times than the
//! whole stream can supply, and every `Literal` element whose fingerprint
//! never occurs, each force at least one edit — a sound lower bound
//! costing `O(8 + literals)` per signature after one shared `O(tokens)`
//! pass. That pass and the bound use the exact scan's profile kernel and
//! the sealed filters' fingerprints, so the two scans cannot disagree
//! about what a token is.

use crate::pattern::Element;
use crate::prefilter::{profile_bytes, SigFilter};
use kizzle_js::Tokens;
use std::collections::HashSet;

/// The best approximate hit of a whole-set scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NearestMatch {
    /// Insertion-order index of the winning signature.
    pub index: usize,
    /// Its semi-global edit distance to the stream (0 = exact match).
    pub edits: usize,
}

/// Shared per-stream summary for [`stream_deficit`]: how many tokens each
/// class accepts, and which token fingerprints occur at all.
#[derive(Debug)]
pub(crate) struct StreamSummary {
    class_counts: [u32; 8],
    fingerprints: HashSet<u32>,
}

impl StreamSummary {
    /// One `O(tokens)` pass, shared by every signature in the scan.
    #[must_use]
    pub(crate) fn of(tokens: Tokens<'_>) -> Self {
        let mut class_counts = [0u32; 8];
        let mut fingerprints = HashSet::new();
        for profile in tokens.unquoted_bytes().map(profile_bytes) {
            for (c, slot) in class_counts.iter_mut().enumerate() {
                *slot += u32::from(profile.mask >> c & 1);
            }
            fingerprints.insert(profile.fingerprint);
        }
        StreamSummary {
            class_counts,
            fingerprints,
        }
    }
}

/// A sound lower bound on the semi-global edit distance of the signature
/// `filter` was sealed from against the summarized stream: elements that
/// provably cannot be satisfied by *any* stream token must each be edited
/// away.
#[must_use]
pub(crate) fn stream_deficit(filter: &SigFilter, summary: &StreamSummary) -> usize {
    let mut deficit = 0usize;
    for c in 0..8 {
        let need = u32::from(filter.class_demand(c));
        let have = summary.class_counts[c];
        deficit += usize::try_from(need.saturating_sub(have)).expect("u32 fits usize");
    }
    for fingerprint in filter.literal_fingerprints() {
        deficit += usize::from(!summary.fingerprints.contains(&fingerprint));
    }
    deficit
}

/// Semi-global banded edit distance of `elements` against `tokens`,
/// bounded by `cutoff`: `Some(d)` with `d <= cutoff` when the signature
/// aligns within `d` edits somewhere in the stream, `None` otherwise.
///
/// Ukkonen's last-active-row band keeps each column `O(min(cutoff,
/// elements))`; see the [module docs](self) for the cost model.
#[must_use]
pub fn nearest_in_stream(elements: &[Element], tokens: Tokens<'_>, cutoff: usize) -> Option<usize> {
    let m = elements.len();
    // The sentinel is one past the cutoff: anything at the sentinel can
    // never recover, so it needs no exact value.
    let sentinel = cutoff.saturating_add(1);
    // Column for zero consumed tokens: j deletions to place j elements.
    let mut prev: Vec<usize> = (0..=m).map(|j| j.min(sentinel)).collect();
    let mut cur: Vec<usize> = vec![sentinel; m + 1];
    // Deleting every element "matches" the empty region at cost m.
    let mut best = prev[m];
    // Last row whose value is still within the cutoff.
    let mut last_active = cutoff.min(m);
    for token in tokens {
        if best == 0 {
            break;
        }
        cur[0] = 0;
        // One row past the last active: a diagonal step can extend the
        // band downward by one per column, never more.
        let upper = (last_active + 1).min(m);
        for j in 1..=upper {
            let sub = if elements[j - 1].matches_token(token) {
                0
            } else {
                1
            };
            let v = (prev[j - 1] + sub).min(prev[j] + 1).min(cur[j - 1] + 1);
            cur[j] = v.min(sentinel);
        }
        for slot in cur.iter_mut().take(m + 1).skip(upper + 1) {
            *slot = sentinel;
        }
        // Shrink the band: the last row that can still finish in budget.
        let mut active = upper;
        while active > 0 && cur[active] > cutoff {
            active -= 1;
        }
        last_active = active;
        if upper == m && cur[m] < best {
            best = cur[m];
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    (best <= cutoff).then_some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{CharClass, Signature};
    use kizzle_js::tokenize;

    fn lit(s: &str) -> Element {
        Element::Literal(s.to_string())
    }

    fn class(c: CharClass, min: usize, max: usize) -> Element {
        Element::Class {
            class: c,
            min_len: min,
            max_len: max,
        }
    }

    #[test]
    fn exact_window_costs_zero() {
        let elements = vec![lit("this"), lit("["), class(CharClass::AlphaNum, 1, 8)];
        let stream = tokenize(r#"x = this[abc123]"#);
        assert_eq!(nearest_in_stream(&elements, stream.tokens(), 5), Some(0));
    }

    #[test]
    fn one_substitution_costs_one() {
        let elements = vec![lit("this"), lit("["), lit("payload")];
        let stream = tokenize(r#"this[other]"#);
        assert_eq!(nearest_in_stream(&elements, stream.tokens(), 5), Some(1));
        // And the cutoff excludes it when too tight.
        assert_eq!(nearest_in_stream(&elements, stream.tokens(), 0), None);
    }

    #[test]
    fn insertion_inside_the_region_costs_one() {
        let elements = vec![lit("a"), lit("b")];
        let stream = tokenize("a x b");
        assert_eq!(nearest_in_stream(&elements, stream.tokens(), 5), Some(1));
    }

    #[test]
    fn leading_and_trailing_tokens_are_free() {
        let elements = vec![lit("needle")];
        let stream = tokenize("lots of hay needle more hay after");
        assert_eq!(nearest_in_stream(&elements, stream.tokens(), 3), Some(0));
    }

    #[test]
    fn empty_stream_costs_full_deletion() {
        let elements = vec![lit("a"), lit("b"), lit("c")];
        let stream = tokenize("");
        assert_eq!(nearest_in_stream(&elements, stream.tokens(), 5), Some(3));
        assert_eq!(nearest_in_stream(&elements, stream.tokens(), 2), None);
    }

    #[test]
    fn stream_deficit_is_a_sound_lower_bound() {
        let sig = Signature::new(
            "t",
            vec![
                lit("fromCharCode"),
                class(CharClass::Digits, 1, 4),
                class(CharClass::Digits, 1, 4),
            ],
            1,
        );
        let filter = SigFilter::of(&sig);
        // Stream with neither the literal nor any digits: deficit 3.
        let stream = tokenize("alpha beta gamma");
        let summary = StreamSummary::of(stream.tokens());
        let deficit = stream_deficit(&filter, &summary);
        assert_eq!(deficit, 3);
        // Deleting every element bounds the distance, so a cutoff of the
        // signature's length always yields it.
        let actual = nearest_in_stream(&sig.elements, stream.tokens(), sig.elements.len())
            .expect("within the deletion bound");
        assert!(deficit <= actual, "bound {deficit} > actual {actual}");
        // Stream satisfying everything: deficit 0.
        let stream = tokenize("fromCharCode 12 34");
        let summary = StreamSummary::of(stream.tokens());
        assert_eq!(stream_deficit(&filter, &summary), 0);
    }
}
