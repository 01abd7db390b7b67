//! Tokenized samples: the unit the clustering and signature stages consume.

use crate::token::{Iter, Span, Token, TokenClass, Tokens};
use std::fmt;
use std::sync::Arc;

/// A tokenized JavaScript sample that owns its text.
///
/// One text buffer — the bytes of the source from the first token to the
/// last, so neither leading markup nor anything past a token cap is kept —
/// plus a 12-byte [`Span`] per token. Both are reference-counted: cloning a
/// stream, or [`slicing`](TokenStream::slice) it, copies no text. Everything
/// that reads tokens goes through the borrowed [`Tokens`] view
/// ([`TokenStream::tokens`]).
///
/// Two streams are equal when their `(class, text)` sequences are.
///
/// # Examples
///
/// ```
/// let stream = kizzle_js::tokenize("f('x')");
/// assert_eq!(stream.len(), 4);
/// assert_eq!(stream.class_codes().len(), 4);
/// ```
#[derive(Clone, Default)]
pub struct TokenStream {
    text: Arc<str>,
    /// Relative to `text`.
    spans: Arc<[Span]>,
    /// Offset of `text[0]` in the source that was lexed.
    base: u32,
}

impl From<Tokens<'_>> for TokenStream {
    /// Copy the bytes a view's tokens cover into an owned stream.
    fn from(tokens: Tokens<'_>) -> Self {
        let (Some(first), Some(last)) = (tokens.spans.first(), tokens.spans.last()) else {
            return TokenStream::default();
        };
        let shift = first.start;
        TokenStream {
            text: tokens.text[shift as usize..(last.start + last.len) as usize].into(),
            spans: tokens
                .spans
                .iter()
                .map(|span| Span {
                    start: span.start - shift,
                    ..*span
                })
                .collect(),
            base: tokens.base + shift,
        }
    }
}

impl TokenStream {
    /// Number of tokens in the sample.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if the sample contained no tokens.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The concrete tokens, as a borrowed view.
    #[must_use]
    pub fn tokens(&self) -> Tokens<'_> {
        Tokens::new(&self.text, &self.spans, self.base)
    }

    /// The abstract token classes, parallel to [`TokenStream::tokens`].
    #[must_use]
    pub fn classes(&self) -> Vec<TokenClass> {
        self.tokens().classes().collect()
    }

    /// The abstract token classes as a compact byte string, suitable for
    /// fast edit-distance computation.
    #[must_use]
    pub fn class_codes(&self) -> Vec<u8> {
        self.tokens().class_codes()
    }

    /// Iterate over the concrete tokens.
    #[must_use]
    pub fn iter(&self) -> Iter<'_> {
        self.tokens().iter()
    }

    /// Reconstruct an approximation of the source by joining token texts
    /// with single spaces. Used for diagnostics and winnowing of unpacked
    /// payloads, where original whitespace is irrelevant.
    #[must_use]
    pub fn joined(&self) -> String {
        let mut out = String::with_capacity(self.iter().map(|t| t.text.len() + 1).sum());
        for (i, t) in self.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(t.text);
        }
        out
    }

    /// A sub-stream covering tokens `[start, start + len)`, sharing this
    /// stream's text.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[must_use]
    pub fn slice(&self, start: usize, len: usize) -> TokenStream {
        TokenStream {
            text: Arc::clone(&self.text),
            spans: self.spans[start..start + len].into(),
            base: self.base,
        }
    }

    /// Render the stream as the two-column table used in the paper's Fig. 8.
    #[must_use]
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str("Token            Class\n");
        for t in self {
            let text = if t.text.len() > 16 {
                format!(
                    "{}…",
                    &t.text[..t
                        .text
                        .char_indices()
                        .take(15)
                        .last()
                        .map_or(0, |(i, c)| i + c.len_utf8())]
                )
            } else {
                t.text.to_string()
            };
            out.push_str(&format!("{text:<16} {}\n", t.class));
        }
        out
    }
}

impl PartialEq for TokenStream {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self
                .iter()
                .zip(other)
                .all(|(a, b)| (a.class, a.text) == (b.class, b.text))
    }
}

impl Eq for TokenStream {}

impl AsRef<TokenStream> for TokenStream {
    fn as_ref(&self) -> &TokenStream {
        self
    }
}

impl<'a> IntoIterator for &'a TokenStream {
    type Item = Token<'a>;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for TokenStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.tokens().fmt(f)
    }
}

impl fmt::Display for TokenStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.joined())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tokenize, tokenize_document};

    #[test]
    fn parallel_vectors_stay_in_sync() {
        let s = tokenize("var a = f(1, 'x');");
        assert_eq!(s.tokens().len(), s.classes().len());
        for (t, c) in s.tokens().iter().zip(s.classes()) {
            assert_eq!(t.class, c);
        }
    }

    #[test]
    fn class_codes_match_classes() {
        let s = tokenize("a+1");
        assert_eq!(
            s.class_codes(),
            s.classes().iter().map(|c| c.code()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn joined_roundtrip_token_count() {
        let s = tokenize("var x = 'abc' + 1;");
        let rejoined = tokenize(&s.joined());
        assert_eq!(s.classes(), rejoined.classes());
    }

    #[test]
    fn slice_extracts_window() {
        let s = tokenize("a b c d e");
        let w = s.slice(1, 3);
        let texts: Vec<&str> = w.iter().map(|t| t.text).collect();
        assert_eq!(texts, ["b", "c", "d"]);
    }

    #[test]
    #[should_panic]
    fn slice_out_of_bounds_panics() {
        let s = tokenize("a b");
        let _ = s.slice(1, 5);
    }

    #[test]
    fn table_rendering_contains_classes() {
        let s = tokenize(r#"var Euur1V = this["l9D"]"#);
        let table = s.to_table();
        assert!(table.contains("var"));
        assert!(table.contains("Keyword"));
        assert!(table.contains("Identifier"));
        assert!(table.contains("String"));
    }

    #[test]
    fn table_truncates_very_long_tokens() {
        let long = format!("\"{}\"", "a".repeat(100));
        let s = tokenize(&long);
        let table = s.to_table();
        assert!(table.contains('…'));
    }

    #[test]
    fn display_is_joined() {
        let s = tokenize("a = 1");
        assert_eq!(s.to_string(), "a = 1");
    }

    #[test]
    fn empty_stream() {
        let s = tokenize("   /* only a comment */ ");
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(s.joined().is_empty());
    }

    #[test]
    fn equality_is_the_class_and_text_sequence() {
        // Same tokens cut from different sources at different offsets.
        let a = tokenize("x = 'y'");
        let b = tokenize_document("<p><script>  x  =  'y'  </script>");
        assert_eq!(a, b);
        assert_ne!(a.tokens().at(0).offset, b.tokens().at(0).offset);
        assert_ne!(a, tokenize("x = 'z'"));
        assert_ne!(a, tokenize("x = 'y';"));
        assert_eq!(TokenStream::default(), tokenize(""));
    }

    #[test]
    fn the_stream_keeps_only_the_bytes_its_tokens_cover() {
        let doc = format!("<html>{}<script>a b</script>", " ".repeat(1000));
        let s = tokenize_document(&doc);
        assert_eq!(&*s.text, "a b");
        assert_eq!(
            s.tokens().at(1).offset as usize,
            doc.find(" b").unwrap() + 1
        );
        // A clone shares everything; a slice shares the text and keeps
        // offsets.
        let copy = s.clone();
        assert!(Arc::ptr_eq(&s.text, &copy.text) && Arc::ptr_eq(&s.spans, &copy.spans));
        let tail = s.slice(1, 1);
        assert!(Arc::ptr_eq(&s.text, &tail.text));
        assert_eq!(tail.tokens().at(0), s.tokens().at(1));
    }
}
