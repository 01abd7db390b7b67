//! Signature generation from a malicious cluster (paper §III-C, Fig. 9).

use crate::pattern::{CharClass, Element, Signature, SignatureConfig};
use kizzle_js::TokenStream;
use std::collections::HashMap;
use std::fmt;

/// Why signature generation failed for a cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenerateError {
    /// The cluster contained no samples (or only empty token streams).
    EmptyCluster,
    /// No common unique token-class window of at least the configured
    /// minimum length exists across the samples.
    NoCommonSubsequence {
        /// The longest common unique window that was found (may be zero).
        longest_found: usize,
        /// The configured minimum.
        required: usize,
    },
}

impl fmt::Display for GenerateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenerateError::EmptyCluster => f.write_str("cluster contains no usable samples"),
            GenerateError::NoCommonSubsequence {
                longest_found,
                required,
            } => write!(
                f,
                "no common unique token window of length >= {required} (longest found: {longest_found})"
            ),
        }
    }
}

impl std::error::Error for GenerateError {}

/// A common window: its length and its starting offset in every sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommonWindow {
    /// Window length in tokens.
    pub len: usize,
    /// Start offset of the window in each sample (parallel to the input
    /// sample order).
    pub starts: Vec<usize>,
}

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
fn window_of_length(class_strings: &[Vec<u8>], len: usize) -> Option<CommonWindow> {
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
/// tight clusters. Samples are only read, so a cluster's members can be
/// passed by reference (`&[&TokenStream]`) as well as by value.
///
/// # Errors
///
/// Returns [`GenerateError::EmptyCluster`] when there are no usable samples
/// and [`GenerateError::NoCommonSubsequence`] when the samples share no
/// sufficiently long unique window.
pub fn generate_signature<S: AsRef<TokenStream>>(
    name: &str,
    samples: &[S],
    config: &SignatureConfig,
) -> Result<Signature, GenerateError> {
    let usable: Vec<&TokenStream> = samples
        .iter()
        .map(AsRef::as_ref)
        .filter(|s| !s.is_empty())
        .collect();
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

#[cfg(test)]
mod tests {
    use super::*;
    use kizzle_js::tokenize;

    fn fig9_samples() -> Vec<TokenStream> {
        vec![
            tokenize(r#"Euur1V = this["l9D"]("ev#333399al");"#),
            tokenize(r#"jkb0hA = this["uqA"]("ev#ccff00al");"#),
            tokenize(r#"QB0Xk = this["k3LSC"]("ev#33cc00al");"#),
        ]
    }

    #[test]
    fn figure_9_cluster_produces_the_expected_structure() {
        let samples = fig9_samples();
        let config = SignatureConfig {
            min_tokens: 4,
            ..SignatureConfig::default()
        };
        let sig = generate_signature("NEK.sig1", &samples, &config).unwrap();
        // All 10 tokens form the window; identifiers and the obfuscated
        // string generalize, punctuation and `this` stay literal.
        assert_eq!(sig.len(), 10);
        assert!(matches!(
            sig.elements[0],
            Element::Class {
                class: CharClass::AlphaNum,
                ..
            }
        ));
        assert_eq!(sig.elements[1], Element::Literal("=".to_string()));
        assert_eq!(sig.elements[2], Element::Literal("this".to_string()));
        assert!(matches!(sig.elements[4], Element::Class { .. }));
        assert!(matches!(
            sig.elements[8],
            Element::Literal(ref s) if s == ")"
        ));
        for sample in &samples {
            assert!(sig.matches_stream(sample));
        }
    }

    #[test]
    fn generated_signature_rejects_unrelated_code() {
        let samples = fig9_samples();
        let config = SignatureConfig {
            min_tokens: 4,
            ..SignatureConfig::default()
        };
        let sig = generate_signature("NEK.sig1", &samples, &config).unwrap();
        assert!(!sig.matches_stream(&tokenize("function f(a) { return a + 1; }")));
        assert!(!sig.matches_stream(&tokenize(r#"x = window["open"]("http://a");"#)));
    }

    #[test]
    fn window_must_be_unique_in_every_sample() {
        // `f("x");` appears twice in the first sample, so the unique common
        // window is forced to include the distinguishing suffix.
        let samples = [
            tokenize(r#"f("x"); f("x"); var q = 3;"#),
            tokenize(r#"f("y"); var q = 3;"#),
        ];
        let refs: Vec<&TokenStream> = samples.iter().collect();
        let window = find_common_window(&refs, &SignatureConfig::default()).unwrap();
        // The chosen window must occur exactly once in sample 0.
        let w0 = &samples[0].class_codes()[window.starts[0]..window.starts[0] + window.len];
        let occurrences = samples[0]
            .class_codes()
            .windows(window.len)
            .filter(|w| *w == w0)
            .count();
        assert_eq!(occurrences, 1);
    }

    #[test]
    fn cap_is_respected() {
        let body = "var x = f(1); ".repeat(100);
        let samples = [tokenize(&body), tokenize(&body)];
        let refs: Vec<&TokenStream> = samples.iter().collect();
        let config = SignatureConfig {
            max_tokens: 50,
            ..SignatureConfig::default()
        };
        if let Some(window) = find_common_window(&refs, &config) {
            assert!(window.len <= 50);
        }
    }

    #[test]
    fn repetitive_samples_have_no_unique_window() {
        // Every window of every length occurs many times: no signature.
        let samples = vec![
            tokenize(&"a(1); ".repeat(30)),
            tokenize(&"a(1); ".repeat(40)),
        ];
        let config = SignatureConfig {
            min_tokens: 3,
            ..SignatureConfig::default()
        };
        let err = generate_signature("x", &samples, &config).unwrap_err();
        assert!(matches!(err, GenerateError::NoCommonSubsequence { .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn short_common_windows_are_discarded() {
        let samples = vec![tokenize("a = 1;"), tokenize("a = 1;")];
        let config = SignatureConfig {
            min_tokens: 50,
            ..SignatureConfig::default()
        };
        let err = generate_signature("x", &samples, &config).unwrap_err();
        assert_eq!(
            err,
            GenerateError::NoCommonSubsequence {
                longest_found: 4,
                required: 50
            }
        );
    }

    #[test]
    fn empty_cluster_is_an_error() {
        let none: &[TokenStream] = &[];
        let err = generate_signature("x", none, &SignatureConfig::default()).unwrap_err();
        assert_eq!(err, GenerateError::EmptyCluster);
        let err =
            generate_signature("x", &[tokenize("")], &SignatureConfig::default()).unwrap_err();
        assert_eq!(err, GenerateError::EmptyCluster);
    }

    #[test]
    fn single_sample_cluster_yields_an_all_literal_signature() {
        let samples = vec![tokenize(
            r#"collect("47y642y6100y6"); pieces = buffer.split(delim);"#,
        )];
        let config = SignatureConfig {
            min_tokens: 5,
            ..SignatureConfig::default()
        };
        let sig = generate_signature("RIG.sig1", &samples, &config).unwrap();
        assert!(sig
            .elements
            .iter()
            .all(|e| matches!(e, Element::Literal(_))));
        assert!(sig.matches_stream(&samples[0]));
    }

    #[test]
    fn subsampling_large_clusters_still_matches_all_members() {
        let samples: Vec<TokenStream> = (0..100)
            .map(|i| tokenize(&format!(r#"id{i:03} = this["k{i:03}"]("ev#33al"); go();"#)))
            .collect();
        let config = SignatureConfig {
            min_tokens: 5,
            max_samples: 8,
            ..SignatureConfig::default()
        };
        let sig = generate_signature("NEK.sub", &samples, &config).unwrap();
        assert_eq!(sig.support, 100);
        let matched = samples.iter().filter(|s| sig.matches_stream(s)).count();
        assert!(matched >= 95, "matched only {matched}/100");
    }

    #[test]
    fn longer_common_window_is_preferred() {
        // Samples share a long identical region; the window should extend
        // well beyond the minimum.
        let shared = r#"var a = document.createElement("script"); a.text = buffer; document.body.appendChild(a);"#;
        let samples = vec![
            tokenize(&format!("x1(); {shared}")),
            tokenize(&format!("zz2(9); {shared}")),
        ];
        let config = SignatureConfig {
            min_tokens: 5,
            ..SignatureConfig::default()
        };
        let sig = generate_signature("x", &samples, &config).unwrap();
        assert!(sig.len() >= 20, "window too short: {}", sig.len());
    }

    #[test]
    fn tokenization_example_of_figure_8_generalizes_the_string() {
        // The obfuscated eval string differs across samples, so it must be
        // generalized rather than kept literal (paper Fig. 9 keeps `.{11}`).
        let samples = fig9_samples();
        let config = SignatureConfig {
            min_tokens: 4,
            ..SignatureConfig::default()
        };
        let sig = generate_signature("NEK.sig1", &samples, &config).unwrap();
        let string_offset = 7; // ident = this [ str ] ( STR ) ;
        match &sig.elements[string_offset] {
            Element::Class {
                min_len, max_len, ..
            } => {
                assert_eq!((*min_len, *max_len), (11, 11));
            }
            other => panic!("expected a class element, got {other:?}"),
        }
    }
}
