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
/// The search runs over the samples' *distinct* class strings — a cluster
/// of 32 near-duplicates usually carries one or two — and compares windows
/// by exact integer names (Karp–Miller–Rosenberg) instead of hashing token
/// slices, so its cost follows distinct content.
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

    // Group the members by class string in order of first appearance, so
    // `distinct[0]` is sample 0's string: the source of candidate windows.
    let mut distinct: Vec<&[u8]> = Vec::new();
    let mut seen: HashMap<&[u8], usize> = HashMap::new();
    let member_of: Vec<usize> = class_strings
        .iter()
        .map(|classes| {
            *seen.entry(classes).or_insert_with(|| {
                distinct.push(classes);
                distinct.len() - 1
            })
        })
        .collect();
    if kizzle_telemetry::enabled() {
        kizzle_telemetry::counter("kizzle_siggen_member_streams_total").add(samples.len() as u64);
        kizzle_telemetry::counter("kizzle_siggen_distinct_streams_total")
            .add(distinct.len() as u64);
    }
    let names = WindowNames::build(&distinct, cap);

    // Binary search the largest feasible length in [1, cap].
    let mut lo = 1usize;
    let mut hi = cap;
    let mut best: Option<(usize, Vec<u32>)> = None;
    while lo <= hi {
        let mid = lo + (hi - lo) / 2;
        match names.window_of_length(mid) {
            Some(starts) => {
                best = Some((mid, starts));
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
    best.map(|(len, starts)| CommonWindow {
        len,
        starts: member_of.iter().map(|&d| starts[d] as usize).collect(),
    })
}

/// Name of a window that does not occur in sample 0's class string.
const NO_NAME: u32 = u32::MAX;
/// Start of a window that has not occurred in a string.
const ABSENT: u32 = u32::MAX;
/// Start of a window that has occurred more than once in a string.
const REPEATED: u32 = u32::MAX - 1;

/// Exact names for pairs of names: the sorted distinct pairs found in
/// sample 0's class string, a pair's name being its rank. Every other
/// pair is [`NO_NAME`] — only sample 0's windows are candidates, so a
/// window holding something sample 0 lacks can never equal one.
struct PairNames {
    /// Sorted distinct `first << 32 | second` keys.
    keys: Vec<u64>,
    /// `by_first[x]..by_first[x + 1]` is the range of `keys` whose first
    /// half is `x` — usually one key wide, so a lookup is one comparison.
    by_first: Vec<u32>,
}

impl PairNames {
    /// Name the distinct `pairs`; their first halves are below
    /// `first_names`.
    fn build(pairs: impl Iterator<Item = (u32, u32)>, first_names: usize) -> Self {
        let mut keys: Vec<u64> = pairs.map(|(x, y)| pair_key(x, y)).collect();
        keys.sort_unstable();
        keys.dedup();
        let mut by_first = vec![0u32; first_names + 1];
        for &key in &keys {
            by_first[(key >> 32) as usize + 1] += 1;
        }
        for x in 0..first_names {
            by_first[x + 1] += by_first[x];
        }
        PairNames { keys, by_first }
    }

    fn name(&self, x: u32, y: u32) -> u32 {
        if x == NO_NAME || y == NO_NAME {
            return NO_NAME;
        }
        let lo = self.by_first[x as usize] as usize;
        let hi = self.by_first[x as usize + 1] as usize;
        let key = pair_key(x, y);
        if hi - lo == 1 {
            return if self.keys[lo] == key {
                lo as u32
            } else {
                NO_NAME
            };
        }
        match self.keys[lo..hi].binary_search(&key) {
            Ok(at) => (lo + at) as u32,
            Err(_) => NO_NAME,
        }
    }
}

fn pair_key(x: u32, y: u32) -> u64 {
    u64::from(x) << 32 | u64::from(y)
}

/// Exact integer names for the power-of-two-length windows of the
/// distinct class strings, built once per search by Karp–Miller–Rosenberg
/// doubling — `id_2p[i] = name(id_p[i], id_p[i + p])` — and reused by
/// every probe: a window of any length `L` is named by the pair
/// `(id_p[i], id_p[i + L - p])`, `p` the largest power of two ≤ `L`. Two
/// windows of one length are equal exactly when their names are, so
/// nothing hashes a token slice and there are no collisions to reason
/// about.
struct WindowNames {
    /// `offsets[s]..offsets[s + 1]` is distinct string `s` in the flat
    /// level arrays.
    offsets: Vec<usize>,
    /// `levels[k][offsets[s] + i]` names the `1 << k` classes at `i` of
    /// string `s` ([`NO_NAME`] where fewer remain).
    levels: Vec<Vec<u32>>,
    /// Every name in `levels[k]` is below `name_counts[k]`.
    name_counts: Vec<usize>,
}

impl WindowNames {
    /// Name the windows of `distinct` up to the largest power of two
    /// ≤ `cap`. Every string has at least `cap ≥ 1` classes.
    fn build(distinct: &[&[u8]], cap: usize) -> Self {
        let mut offsets = Vec::with_capacity(distinct.len() + 1);
        let mut total = 0usize;
        for classes in distinct {
            offsets.push(total);
            total += classes.len();
        }
        offsets.push(total);
        // Names and window starts are stored as u32s below the sentinels.
        assert!(
            u32::try_from(total).is_ok_and(|total| total < REPEATED),
            "a cluster's class strings hold far fewer than 2^32 tokens"
        );
        // Length 1: a class code names itself.
        let codes = distinct.iter().flat_map(|classes| classes.iter());
        let mut names = WindowNames {
            offsets,
            levels: vec![codes.map(|&code| u32::from(code)).collect()],
            name_counts: vec![usize::from(u8::MAX) + 1],
        };
        let mut p = 1;
        while 2 * p <= cap {
            let (level, name_count) = names.paired(names.levels.len() - 1, p);
            names.levels.push(level);
            names.name_counts.push(name_count);
            p *= 2;
        }
        names
    }

    /// Name every window of `(1 << k) + gap` classes (`gap <= 1 << k`) as
    /// the pair of its level-`k` windows `gap` apart; also returns how
    /// many names that took.
    fn paired(&self, k: usize, gap: usize) -> (Vec<u32>, usize) {
        let ids = &self.levels[k];
        let len = (1 << k) + gap;
        // The level-`k` names at both ends of every window of string `s`.
        let ends = |s: usize| {
            let string = &ids[self.offsets[s]..self.offsets[s + 1]];
            let windows = (string.len() + 1).saturating_sub(len);
            string[..windows]
                .iter()
                .zip(&string[gap.min(string.len())..])
        };
        let pairs = PairNames::build(ends(0).map(|(&x, &y)| (x, y)), self.name_counts[k]);
        let mut named = vec![NO_NAME; ids.len()];
        for s in 0..self.offsets.len() - 1 {
            for (name, (&x, &y)) in named[self.offsets[s]..].iter_mut().zip(ends(s)) {
                *name = pairs.name(x, y);
            }
        }
        (named, pairs.keys.len())
    }

    /// Is there a window of exactly `len` classes common to all strings
    /// and unique in each? Returns its start in every distinct string:
    /// the first such window in sample 0's source order.
    fn window_of_length(&self, len: usize) -> Option<Vec<u32>> {
        let k = len.ilog2() as usize;
        let (named, name_count) = self.paired(k, len - (1 << k));
        let strings = self.offsets.len() - 1;
        // `slots[s * name_count + name]`: where `name` starts in string
        // `s`, while it has occurred there exactly once.
        let mut slots = vec![ABSENT; strings * name_count];
        for s in 0..strings {
            let (lo, hi) = (self.offsets[s], self.offsets[s + 1]);
            let row = &mut slots[s * name_count..(s + 1) * name_count];
            for (start, &name) in named[lo..hi].iter().enumerate() {
                if name != NO_NAME {
                    let slot = &mut row[name as usize];
                    *slot = if *slot == ABSENT {
                        start as u32
                    } else {
                        REPEATED
                    };
                }
            }
        }
        let unique_in = |s: usize, name: u32| slots[s * name_count + name as usize] < REPEATED;
        let winner = named[..self.offsets[1]]
            .iter()
            .find(|&&name| name != NO_NAME && (0..strings).all(|s| unique_in(s, name)))?;
        Some(
            (0..strings)
                .map(|s| slots[s * name_count + *winner as usize])
                .collect(),
        )
    }
}

/// Generalize the common window into signature elements: literals where the
/// concrete (quote-stripped) value agrees across samples, character-class
/// templates with observed length ranges elsewhere.
#[must_use]
pub fn generalize(samples: &[&TokenStream], window: &CommonWindow) -> Vec<Element> {
    let mut elements = Vec::with_capacity(window.len);
    for offset in 0..window.len {
        let values = || {
            samples
                .iter()
                .zip(&window.starts)
                .map(move |(sample, &start)| sample.tokens().at(start + offset).unquoted())
        };
        let Some(first) = values().next() else {
            break;
        };
        if values().all(|value| value == first) {
            elements.push(Element::Literal(first.to_string()));
        } else {
            let class = CharClass::infer(values()).unwrap_or(CharClass::Any);
            let (min_len, max_len) = values()
                .map(|value| value.chars().count())
                .fold((usize::MAX, 0), |(min, max), n| (min.min(n), max.max(n)));
            elements.push(Element::Class {
                class,
                min_len,
                max_len,
            });
        }
    }
    elements
}

/// Generate a signature from the packed samples of one malicious cluster:
/// [`pick_subsample`] of the non-empty samples, then
/// [`generate_from_subsample`] with the cluster's size as the support.
///
/// Samples are only read, so a cluster's members can be passed by
/// reference (`&[&TokenStream]`) as well as by value.
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
    generate_from_subsample(
        name,
        &pick_subsample(&usable, config),
        samples.len(),
        config,
    )
}

/// The members signature generation reads, out of a cluster's `usable`
/// ones (those with at least one token, in member order): all of them up
/// to `config.max_samples`, an even stride through them beyond that — which
/// bounds the cost without biasing the window choice for tight clusters.
/// The items are whatever stands for a member (a stream, a day position),
/// so a caller can pick before it holds any tokens.
#[must_use]
pub fn pick_subsample<T: Copy>(usable: &[T], config: &SignatureConfig) -> Vec<T> {
    if usable.len() <= config.max_samples {
        return usable.to_vec();
    }
    let step = usable.len().div_ceil(config.max_samples);
    usable.iter().step_by(step).copied().collect()
}

/// Generate the signature of a cluster of `members` samples from the
/// [`pick_subsample`] of its non-empty ones — the same signature
/// [`generate_signature`] builds from the whole cluster.
///
/// # Errors
///
/// Returns [`GenerateError::EmptyCluster`] when `subsample` is empty and
/// [`GenerateError::NoCommonSubsequence`] when its samples share no
/// sufficiently long unique window.
pub fn generate_from_subsample(
    name: &str,
    subsample: &[&TokenStream],
    members: usize,
    config: &SignatureConfig,
) -> Result<Signature, GenerateError> {
    if subsample.is_empty() {
        return Err(GenerateError::EmptyCluster);
    }
    let window =
        find_common_window(subsample, config).ok_or(GenerateError::NoCommonSubsequence {
            longest_found: 0,
            required: config.min_tokens,
        })?;
    if window.len < config.min_tokens {
        return Err(GenerateError::NoCommonSubsequence {
            longest_found: window.len,
            required: config.min_tokens,
        });
    }
    let elements = generalize(subsample, &window);
    Ok(Signature::new(name, elements, members))
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
