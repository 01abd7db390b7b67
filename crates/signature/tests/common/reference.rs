//! The seed signature generator, kept verbatim as the test oracle.
//!
//! This is the common-window search and the generalization step of
//! `crates/signature/src/generate.rs` as they stood before the search
//! moved onto distinct class strings and integer window names: at every
//! probe length, one `HashMap<&[u8], Vec<usize>>` of every window of every
//! member, and in `generalize` a fresh `Vec<&str>` per offset with the
//! character count taken twice per value. It is slow and it is the
//! definition of correct: the product must return the same window (same
//! `len`, same `starts`) and therefore the same signature on every input
//! (`tests/signature_properties.rs`).
//!
//! The only edits are the glue a test module needs: the public types come
//! from the crate, and `generate_signature` takes the already subsampled
//! `&[&TokenStream]`'s owner as a plain slice of streams.

#![allow(dead_code)]

use kizzle_js::TokenStream;
use kizzle_signature::generate::{CommonWindow, GenerateError};
use kizzle_signature::{CharClass, Element, Signature, SignatureConfig};
use std::collections::HashMap;

/// Find the longest window of consecutive token classes (capped at
/// `config.max_tokens`) that occurs in every sample and is unique within
/// each sample, using binary search over the window length as the paper
/// describes.
///
/// Returns `None` when no window of length at least 1 qualifies.
#[must_use]
pub fn find_common_window(
    samples: &[&TokenStream],
    config: &SignatureConfig,
) -> Option<CommonWindow> {
    if samples.is_empty() || samples.iter().any(|s| s.is_empty()) {
        return None;
    }
    let class_strings: Vec<Vec<u8>> = samples.iter().map(|s| s.class_codes()).collect();
    let shortest = class_strings.iter().map(Vec::len).min()?;
    let cap = config.max_tokens.min(shortest);
    if cap == 0 {
        return None;
    }

    // Binary search the largest feasible length in [1, cap].
    let mut lo = 1usize;
    let mut hi = cap;
    let mut best: Option<CommonWindow> = None;
    while lo <= hi {
        let mid = lo + (hi - lo) / 2;
        match window_of_length(&class_strings, mid) {
            Some(window) => {
                best = Some(window);
                lo = mid + 1;
            }
            None => {
                if mid == 1 {
                    break;
                }
                hi = mid - 1;
            }
        }
    }
    best
}

/// Is there a window of exactly `len` classes common to all samples and
/// unique in each? Returns the window's start offsets if so.
pub fn window_of_length(class_strings: &[Vec<u8>], len: usize) -> Option<CommonWindow> {
    // Index the windows of every sample: window -> occurrence starts.
    let mut per_sample: Vec<HashMap<&[u8], Vec<usize>>> = Vec::with_capacity(class_strings.len());
    for classes in class_strings {
        if classes.len() < len {
            return None;
        }
        let mut map: HashMap<&[u8], Vec<usize>> = HashMap::new();
        for start in 0..=classes.len() - len {
            map.entry(&classes[start..start + len])
                .or_default()
                .push(start);
        }
        per_sample.push(map);
    }

    // Candidate windows come from the first sample; accept the first (in
    // source order) that is unique everywhere.
    let first = &class_strings[0];
    let mut seen: std::collections::HashSet<&[u8]> = std::collections::HashSet::new();
    for start in 0..=first.len() - len {
        let window = &first[start..start + len];
        if !seen.insert(window) {
            continue;
        }
        let unique_everywhere = per_sample.iter().all(|map| {
            map.get(window)
                .is_some_and(|positions| positions.len() == 1)
        });
        if unique_everywhere {
            let starts = per_sample.iter().map(|map| map[window][0]).collect();
            return Some(CommonWindow { len, starts });
        }
    }
    None
}

/// Generalize the common window into signature elements: literals where the
/// concrete (quote-stripped) value agrees across samples, character-class
/// templates with observed length ranges elsewhere.
#[must_use]
pub fn generalize(samples: &[&TokenStream], window: &CommonWindow) -> Vec<Element> {
    let mut elements = Vec::with_capacity(window.len);
    for offset in 0..window.len {
        let values: Vec<&str> = samples
            .iter()
            .zip(&window.starts)
            .map(|(sample, &start)| sample.tokens().at(start + offset).unquoted())
            .collect();
        let all_equal = values.windows(2).all(|pair| pair[0] == pair[1]);
        if all_equal {
            elements.push(Element::Literal(values[0].to_string()));
        } else {
            let class = CharClass::infer(values.iter().copied()).unwrap_or(CharClass::Any);
            let min_len = values.iter().map(|v| v.chars().count()).min().unwrap_or(0);
            let max_len = values.iter().map(|v| v.chars().count()).max().unwrap_or(0);
            elements.push(Element::Class {
                class,
                min_len,
                max_len,
            });
        }
    }
    elements
}

/// Generate a signature from the packed samples of one malicious cluster.
///
/// Large clusters are subsampled evenly (up to `config.max_samples`) before
/// the search, which bounds the cost without biasing the window choice for
/// tight clusters.
pub fn generate_signature(
    name: &str,
    samples: &[TokenStream],
    config: &SignatureConfig,
) -> Result<Signature, GenerateError> {
    let usable: Vec<&TokenStream> = samples.iter().filter(|s| !s.is_empty()).collect();
    if usable.is_empty() {
        return Err(GenerateError::EmptyCluster);
    }
    let subsampled: Vec<&TokenStream> = if usable.len() > config.max_samples {
        let step = usable.len().div_ceil(config.max_samples);
        usable.iter().step_by(step).copied().collect()
    } else {
        usable
    };

    let window =
        find_common_window(&subsampled, config).ok_or(GenerateError::NoCommonSubsequence {
            longest_found: 0,
            required: config.min_tokens,
        })?;
    if window.len < config.min_tokens {
        return Err(GenerateError::NoCommonSubsequence {
            longest_found: window.len,
            required: config.min_tokens,
        });
    }
    let elements = generalize(&subsampled, &window);
    Ok(Signature::new(name, elements, samples.len()))
}
