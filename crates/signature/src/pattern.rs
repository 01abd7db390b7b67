//! Signature representation: elements, character classes, rendering and
//! per-stream matching.

use kizzle_js::{Token, TokenStream, Tokens};
use serde::Serialize;
use std::fmt;

/// Configuration of signature generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SignatureConfig {
    /// Upper bound on the common-subsequence length, in tokens. The paper
    /// caps this at 200.
    pub max_tokens: usize,
    /// Minimum subsequence length for a signature to be emitted; shorter
    /// common subsequences are discarded as too generic (paper §III-C,
    /// "short sequences are discarded").
    pub min_tokens: usize,
    /// Maximum number of samples examined per cluster when generating a
    /// signature; large clusters are subsampled evenly to bound cost.
    pub max_samples: usize,
}

impl Default for SignatureConfig {
    fn default() -> Self {
        SignatureConfig {
            max_tokens: 200,
            min_tokens: 10,
            max_samples: 32,
        }
    }
}

/// A character-class template used to generalize varying token values,
/// drawn from the predefined set the paper describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum CharClass {
    /// `[a-z]`
    Lower,
    /// `[A-Z]`
    Upper,
    /// `[a-zA-Z]`
    Alpha,
    /// `[0-9]`
    Digits,
    /// `[0-9a-f]`
    HexLower,
    /// `[0-9a-zA-Z]`
    AlphaNum,
    /// `[0-9a-zA-Z_.:/?=&-]` — identifiers, URLs and similar "word-ish" text.
    Wordlike,
    /// Any character (`.`).
    Any,
}

impl CharClass {
    /// The predefined templates, most specific first; inference picks the
    /// first one that accepts every observed value.
    pub const TEMPLATES: [CharClass; 8] = [
        CharClass::Lower,
        CharClass::Upper,
        CharClass::Digits,
        CharClass::HexLower,
        CharClass::Alpha,
        CharClass::AlphaNum,
        CharClass::Wordlike,
        CharClass::Any,
    ];

    /// Does this class accept the character?
    #[must_use]
    pub fn accepts(self, c: char) -> bool {
        match self {
            CharClass::Lower => c.is_ascii_lowercase(),
            CharClass::Upper => c.is_ascii_uppercase(),
            CharClass::Alpha => c.is_ascii_alphabetic(),
            CharClass::Digits => c.is_ascii_digit(),
            CharClass::HexLower => c.is_ascii_digit() || ('a'..='f').contains(&c),
            CharClass::AlphaNum => c.is_ascii_alphanumeric(),
            CharClass::Wordlike => c.is_ascii_alphanumeric() || "_.:/?=&-".contains(c),
            CharClass::Any => true,
        }
    }

    /// Does this class accept every character of the string?
    #[must_use]
    pub fn accepts_all(self, s: &str) -> bool {
        s.chars().all(|c| self.accepts(c))
    }

    /// The regex-style source text of the class.
    #[must_use]
    pub fn regex_text(self) -> &'static str {
        match self {
            CharClass::Lower => "[a-z]",
            CharClass::Upper => "[A-Z]",
            CharClass::Alpha => "[a-zA-Z]",
            CharClass::Digits => "[0-9]",
            CharClass::HexLower => "[0-9a-f]",
            CharClass::AlphaNum => "[0-9a-zA-Z]",
            CharClass::Wordlike => "[0-9a-zA-Z_.:/?=&-]",
            CharClass::Any => ".",
        }
    }

    /// The most specific template accepting every value in `values`.
    ///
    /// Returns `None` when `values` is empty.
    #[must_use]
    pub fn infer<'a, I: IntoIterator<Item = &'a str>>(values: I) -> Option<CharClass> {
        let values: Vec<&str> = values.into_iter().collect();
        if values.is_empty() {
            return None;
        }
        CharClass::TEMPLATES
            .into_iter()
            .find(|class| values.iter().all(|v| class.accepts_all(v)))
    }
}

impl fmt::Display for CharClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.regex_text())
    }
}

/// One element of a signature, corresponding to one token offset of the
/// common window.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub enum Element {
    /// The token's (quote-stripped) text is identical in every sample.
    Literal(String),
    /// The token's text varies; it is constrained to a character class and
    /// an observed length range.
    Class {
        /// The inferred character class.
        class: CharClass,
        /// Minimum observed length in characters.
        min_len: usize,
        /// Maximum observed length in characters.
        max_len: usize,
    },
}

impl Element {
    /// Does this element accept a concrete token?
    ///
    /// String quotes are stripped before comparison, mirroring the AV
    /// normalization step the paper mentions.
    #[must_use]
    pub fn matches_token(&self, token: Token<'_>) -> bool {
        let text = token.unquoted();
        match self {
            Element::Literal(expected) => expected == text,
            Element::Class {
                class,
                min_len,
                max_len,
            } => {
                let len = text.chars().count();
                len >= *min_len && len <= *max_len && class.accepts_all(text)
            }
        }
    }
}

/// A structural signature: a named sequence of elements generated from one
/// malicious cluster.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Signature {
    /// Name of the signature (e.g. `NEK.sig3`).
    pub name: String,
    /// The element sequence.
    pub elements: Vec<Element>,
    /// How many samples the signature was generated from.
    pub support: usize,
}

impl Signature {
    /// Create a signature.
    ///
    /// # Panics
    ///
    /// Panics if `elements` is empty.
    #[must_use]
    pub fn new(name: impl Into<String>, elements: Vec<Element>, support: usize) -> Self {
        assert!(
            !elements.is_empty(),
            "a signature needs at least one element"
        );
        Signature {
            name: name.into(),
            elements,
            support,
        }
    }

    /// Number of elements (tokens) in the signature.
    #[must_use]
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// True if the signature has no elements (never constructed; kept for
    /// API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Does the signature match anywhere in a token stream?
    #[must_use]
    pub fn matches_stream(&self, stream: &TokenStream) -> bool {
        self.find_in(stream).is_some()
    }

    /// The first token offset at which the signature matches, if any.
    #[must_use]
    pub fn find_in(&self, stream: &TokenStream) -> Option<usize> {
        self.find_in_tokens(stream.tokens())
    }

    /// [`Signature::find_in`] over a borrowed token view.
    #[must_use]
    pub fn find_in_tokens(&self, tokens: Tokens<'_>) -> Option<usize> {
        let n = self.elements.len();
        if tokens.len() < n {
            return None;
        }
        (0..=tokens.len() - n).find(|&start| {
            self.elements
                .iter()
                .zip(tokens.window(start, n))
                .all(|(element, token)| element.matches_token(token))
        })
    }

    /// Render the signature as a regex-like string with named capture
    /// groups, in the style of the paper's Fig. 10. The rendered length in
    /// characters is the metric of Fig. 12.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut var_index = 0usize;
        for element in &self.elements {
            match element {
                Element::Literal(text) => out.push_str(&escape_regex(text)),
                Element::Class {
                    class,
                    min_len,
                    max_len,
                } => {
                    let quantifier = if min_len == max_len {
                        format!("{{{min_len}}}")
                    } else {
                        format!("{{{min_len},{max_len}}}")
                    };
                    out.push_str(&format!(
                        "(?<var{var_index}>{}{quantifier})",
                        class.regex_text()
                    ));
                    var_index += 1;
                }
            }
        }
        out
    }

    /// Rendered length in characters (the y-axis of the paper's Fig. 12).
    #[must_use]
    pub fn rendered_len(&self) -> usize {
        self.render().chars().count()
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.render())
    }
}

/// Escape regex metacharacters in a literal.
fn escape_regex(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        if "\\^$.|?*+()[]{}".contains(c) {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kizzle_js::tokenize;

    #[test]
    fn char_class_inference_prefers_specific_templates() {
        assert_eq!(CharClass::infer(["abc", "zzz"]), Some(CharClass::Lower));
        assert_eq!(CharClass::infer(["abc", "ZZZ"]), Some(CharClass::Alpha));
        assert_eq!(CharClass::infer(["123", "456"]), Some(CharClass::Digits));
        assert_eq!(
            CharClass::infer(["1a2b", "ffff"]),
            Some(CharClass::HexLower)
        );
        assert_eq!(CharClass::infer(["a1B2", "Zz9"]), Some(CharClass::AlphaNum));
        assert_eq!(
            CharClass::infer(["http://x.com/a?b=1", "path_2"]),
            Some(CharClass::Wordlike)
        );
        assert_eq!(CharClass::infer(["ev#33al"]), Some(CharClass::Any));
        assert_eq!(CharClass::infer(std::iter::empty()), None);
    }

    #[test]
    fn element_matching_strips_quotes_and_checks_lengths() {
        let lit = Element::Literal("ev#333399al".to_string());
        let tok = kizzle_js::Token::new(kizzle_js::TokenClass::String, "\"ev#333399al\"", 0);
        assert!(lit.matches_token(tok));

        let class = Element::Class {
            class: CharClass::AlphaNum,
            min_len: 3,
            max_len: 5,
        };
        let short = kizzle_js::Token::new(kizzle_js::TokenClass::Identifier, "ab", 0);
        let ok = kizzle_js::Token::new(kizzle_js::TokenClass::Identifier, "abc1", 0);
        let bad_chars = kizzle_js::Token::new(kizzle_js::TokenClass::Identifier, "a#b", 0);
        assert!(!class.matches_token(short));
        assert!(class.matches_token(ok));
        assert!(!class.matches_token(bad_chars));
    }

    fn example_signature() -> Signature {
        // Fig. 9: [A-Za-z0-9]{5,6}=this\[[A-Za-z0-9]{3,5}\]\(.{11}\);
        Signature::new(
            "NEK.example",
            vec![
                Element::Class {
                    class: CharClass::AlphaNum,
                    min_len: 5,
                    max_len: 6,
                },
                Element::Literal("=".to_string()),
                Element::Literal("this".to_string()),
                Element::Literal("[".to_string()),
                Element::Class {
                    class: CharClass::AlphaNum,
                    min_len: 3,
                    max_len: 5,
                },
                Element::Literal("]".to_string()),
                Element::Literal("(".to_string()),
                Element::Class {
                    class: CharClass::Any,
                    min_len: 11,
                    max_len: 11,
                },
                Element::Literal(")".to_string()),
                Element::Literal(";".to_string()),
            ],
            3,
        )
    }

    #[test]
    fn figure_9_signature_matches_all_three_variants() {
        let sig = example_signature();
        for sample in [
            r#"Euur1V = this["l9D"]("ev#333399al");"#,
            r#"jkb0hA = this["uqA"]("ev#ccff00al");"#,
            r#"QB0Xk = this["k3LSC"]("ev#33cc00al");"#,
        ] {
            assert!(sig.matches_stream(&tokenize(sample)), "{sample}");
        }
    }

    #[test]
    fn figure_9_signature_rejects_structurally_different_code() {
        let sig = example_signature();
        assert!(!sig.matches_stream(&tokenize(r#"x = other("l9D")("ev#333399al");"#)));
        assert!(
            !sig.matches_stream(&tokenize(r#"Euur1V = this["l9D"]"#)),
            "truncated"
        );
        assert!(
            !sig.matches_stream(&tokenize(r#"Euur1V = this["l9D"]("short");"#)),
            "payload length differs"
        );
    }

    #[test]
    fn matching_works_in_the_middle_of_a_larger_document() {
        let sig = example_signature();
        let doc = format!(
            "<html><script>var pre = 1; {} var post = 2;</script></html>",
            r#"Euur1V = this["l9D"]("ev#333399al");"#
        );
        assert!(sig.matches_stream(&kizzle_js::tokenize_document(&doc)));
        assert_eq!(sig.find_in(&kizzle_js::tokenize_document(&doc)), Some(5));
    }

    #[test]
    fn render_produces_figure_10_style_text() {
        let sig = example_signature();
        let text = sig.render();
        assert!(text.contains("(?<var0>[0-9a-zA-Z]{5,6})"));
        assert!(text.contains("this"));
        assert!(text.contains("\\["));
        assert!(text.contains("(?<var2>.{11})"));
        assert_eq!(sig.rendered_len(), text.chars().count());
        assert!(sig.to_string().starts_with("NEK.example:"));
    }

    #[test]
    fn render_escapes_metacharacters_in_literals() {
        let sig = Signature::new("x", vec![Element::Literal("a.b(c)*".to_string())], 1);
        assert_eq!(sig.render(), "a\\.b\\(c\\)\\*");
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn empty_signature_panics() {
        let _ = Signature::new("empty", vec![], 0);
    }

    #[test]
    fn signature_shorter_streams_never_match() {
        let sig = example_signature();
        assert!(!sig.matches_stream(&tokenize("a = 1")));
        assert!(!sig.matches_stream(&tokenize("")));
    }

    #[test]
    fn default_config_matches_paper_cap() {
        let cfg = SignatureConfig::default();
        assert_eq!(cfg.max_tokens, 200);
        assert!(cfg.min_tokens >= 4);
    }
}
