//! The scan oracles: the linear whole-set scan the staged pipeline is held
//! to, and the full, unbanded semi-global DP behind the banded near-miss
//! kernel (`verify::nearest_in_stream`).

#![allow(dead_code)]

use kizzle_js::{TokenStream, Tokens};
use kizzle_signature::{Element, LabeledSignature, SignatureSet};

/// First signature, in insertion order, that matches anywhere in the
/// stream.
pub fn scan_linear<'a>(
    set: &'a SignatureSet,
    stream: &TokenStream,
) -> Option<&'a LabeledSignature> {
    set.iter().find(|s| s.signature.matches_stream(stream))
}

/// Semi-global edit distance of `elements` against `tokens`, every cell of
/// the quadratic table computed: substituting a failing token, skipping
/// an element and absorbing an extra token inside the region cost 1 each;
/// tokens before and after the region are free.
pub fn nearest_naive(elements: &[Element], tokens: Tokens<'_>) -> usize {
    let m = elements.len();
    let mut prev: Vec<usize> = (0..=m).collect();
    let mut best = m;
    for token in tokens {
        let mut cur = vec![0usize; m + 1];
        for j in 1..=m {
            let sub = usize::from(!elements[j - 1].matches_token(token));
            cur[j] = (prev[j - 1] + sub).min(prev[j] + 1).min(cur[j - 1] + 1);
        }
        best = best.min(cur[m]);
        prev = cur;
    }
    best
}
