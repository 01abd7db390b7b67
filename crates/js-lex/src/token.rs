//! Token classes, token spans and the borrowed token views.

use std::fmt;

/// The abstract token alphabet used by Kizzle's clustering stage.
///
/// The paper abstracts concrete JavaScript into `Keyword`, `Identifier`,
/// `Punctuation` and `String` (Fig. 8). We additionally keep `Number` and
/// `Regex` as distinct classes: exploit-kit packers lean heavily on numeric
/// charcode payloads (RIG) and `RegExp` replacement (Sweet Orange), and
/// keeping them distinct from identifiers sharpens both the clustering
/// distance and the generated signatures without reintroducing
/// attacker-controlled noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum TokenClass {
    /// A reserved word (`var`, `function`, `return`, ...).
    Keyword,
    /// Any non-keyword identifier, including `this`, property names used
    /// bare, and unicode identifiers.
    Identifier,
    /// Single- or multi-character operators, brackets and separators.
    Punctuation,
    /// A string literal (single, double quoted or template literal).
    String,
    /// A numeric literal (decimal, hex, octal, float, exponent).
    Number,
    /// A regular-expression literal.
    Regex,
}

impl TokenClass {
    /// All token classes, in their canonical order.
    pub const ALL: [TokenClass; 6] = [
        TokenClass::Keyword,
        TokenClass::Identifier,
        TokenClass::Punctuation,
        TokenClass::String,
        TokenClass::Number,
        TokenClass::Regex,
    ];

    /// A one-byte code for the class, used when a token string must be
    /// embedded into a compact `Vec<u8>` (e.g. for fast edit distance).
    #[must_use]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// The inverse of [`TokenClass::code`].
    ///
    /// Returns `None` for byte values outside the alphabet.
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        Self::ALL.get(code as usize).copied()
    }

    /// A short, stable display name matching the paper's Fig. 8 vocabulary.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TokenClass::Keyword => "Keyword",
            TokenClass::Identifier => "Identifier",
            TokenClass::Punctuation => "Punctuation",
            TokenClass::String => "String",
            TokenClass::Number => "Number",
            TokenClass::Regex => "Regex",
        }
    }
}

impl fmt::Display for TokenClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One token as the lexer records it: a class and a byte range of the
/// lexed text. 12 bytes; the text itself stays where it was.
///
/// Opaque outside this crate — a span only means something next to the
/// text it was cut from, so it is read through [`Tokens`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub(crate) start: u32,
    pub(crate) len: u32,
    pub(crate) class: TokenClass,
}

impl Span {
    /// The token this span cuts from `text`, which starts `base` bytes
    /// into the text that was lexed.
    #[inline]
    pub(crate) fn token(self, text: &str, base: u32) -> Token<'_> {
        let start = self.start as usize;
        Token {
            class: self.class,
            text: &text[start..start + self.len as usize],
            offset: base + self.start,
        }
    }
}

/// A concrete token: its abstract class, its exact source text (borrowed
/// from the lexed buffer), and where it was found.
///
/// Signature generation needs the concrete text (`"ev#333399al"`), while the
/// clustering stage only looks at [`Token::class`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token<'a> {
    /// Abstract class of the token.
    pub class: TokenClass,
    /// The exact source text of the token, including string quotes.
    pub text: &'a str,
    /// Byte offset of the token's first byte in the text that was lexed:
    /// the script for [`tokenize`](crate::tokenize) and
    /// [`Lexer`](crate::Lexer), the whole document (not the enclosing
    /// `<script>` body) for [`tokenize_document`](crate::tokenize_document).
    pub offset: u32,
}

/// The part of a token's `text` left once a string literal's matching
/// quotes are stripped; everything for any other token.
#[inline]
fn unquoted_range(class: TokenClass, text: &[u8]) -> std::ops::Range<usize> {
    match text {
        [first @ (b'"' | b'\'' | b'`'), .., last]
            if class == TokenClass::String && first == last =>
        {
            1..text.len() - 1
        }
        _ => 0..text.len(),
    }
}

impl<'a> Token<'a> {
    /// Create a token view over `text`.
    #[must_use]
    pub fn new(class: TokenClass, text: &'a str, offset: u32) -> Self {
        Token {
            class,
            text,
            offset,
        }
    }

    /// The token's text with surrounding string quotes removed.
    ///
    /// AV engines normalize away quotation marks before matching (paper
    /// §III-C), so signature generation works on the unquoted value.
    #[must_use]
    pub fn unquoted(self) -> &'a str {
        &self.text[unquoted_range(self.class, self.text.as_bytes())]
    }

    /// Length of the token's source text in bytes.
    #[must_use]
    pub fn len(self) -> usize {
        self.text.len()
    }

    /// True if the token text is empty (never produced by the lexer, but
    /// kept for completeness of the API).
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.text.is_empty()
    }
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.text, self.class)
    }
}

/// A borrowed token sequence: spans plus the text they were cut from.
///
/// This is the one type every consumer of tokens takes — the signature
/// matcher, the prefilter, the generator, the unpackers. It is `Copy` (two
/// slices), so it is passed by value. [`TokenStream::tokens`] lends one
/// over an owned stream; the scan path gets one straight over the request
/// buffer from [`lex_document`](crate::lex_document), with no copy at all.
///
/// [`TokenStream::tokens`]: crate::TokenStream::tokens
#[derive(Clone, Copy, Default)]
pub struct Tokens<'a> {
    pub(crate) text: &'a str,
    /// Relative to `text`.
    pub(crate) spans: &'a [Span],
    /// Offset of `text[0]` in the text that was lexed (non-zero only for
    /// an owned stream, which keeps just the bytes its tokens cover).
    pub(crate) base: u32,
}

impl<'a> Tokens<'a> {
    pub(crate) fn new(text: &'a str, spans: &'a [Span], base: u32) -> Self {
        Tokens { text, spans, base }
    }

    /// Number of tokens.
    #[must_use]
    pub fn len(self) -> usize {
        self.spans.len()
    }

    /// True if there are no tokens.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.spans.is_empty()
    }

    fn token(self, span: Span) -> Token<'a> {
        span.token(self.text, self.base)
    }

    /// The token at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[must_use]
    pub fn at(self, index: usize) -> Token<'a> {
        self.token(self.spans[index])
    }

    /// The sub-sequence `[start, start + len)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[must_use]
    pub fn window(self, start: usize, len: usize) -> Tokens<'a> {
        Tokens {
            spans: &self.spans[start..start + len],
            ..self
        }
    }

    /// Iterate over the tokens.
    #[must_use]
    pub fn iter(self) -> Iter<'a> {
        Iter {
            tokens: self,
            spans: self.spans.iter(),
        }
    }

    /// [`Token::unquoted`] of every token, as bytes, in order — what the
    /// anchor automaton walks. Cut from the text's bytes, so no UTF-8
    /// boundary is checked per token.
    pub fn unquoted_bytes(self) -> impl ExactSizeIterator<Item = &'a [u8]> + 'a {
        let text = self.text.as_bytes();
        self.spans.iter().map(move |span| {
            let start = span.start as usize;
            let bytes = &text[start..start + span.len as usize];
            &bytes[unquoted_range(span.class, bytes)]
        })
    }

    /// The abstract class of every token, in order.
    pub fn classes(self) -> impl ExactSizeIterator<Item = TokenClass> + 'a {
        self.spans.iter().map(|span| span.class)
    }

    /// The abstract token classes as a compact byte string, suitable for
    /// fast edit-distance computation.
    #[must_use]
    pub fn class_codes(self) -> Vec<u8> {
        self.classes().map(TokenClass::code).collect()
    }
}

impl fmt::Debug for Tokens<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over the [`Token`]s of a [`Tokens`] view.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    tokens: Tokens<'a>,
    spans: std::slice::Iter<'a, Span>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        self.spans.next().map(|&span| self.tokens.token(span))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.spans.size_hint()
    }
}

impl DoubleEndedIterator for Iter<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.spans.next_back().map(|&span| self.tokens.token(span))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for Tokens<'a> {
    type Item = Token<'a>;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Returns true if `word` is a JavaScript reserved word
/// ([`TokenClass::Keyword`]), on the lexer's bytes (keywords are ASCII, so
/// no UTF-8 check is needed first).
///
/// The list covers ES5 plus the handful of ES6 keywords observed in the
/// wild in exploit-kit code; `this` is deliberately *not* included because
/// the paper's Fig. 8 classifies it as an identifier.
#[inline(always)]
pub(crate) fn is_keyword_bytes(word: &[u8]) -> bool {
    // Length first: most identifiers fall out on it, and each arm then
    // compares against a handful of same-length candidates.
    match word.len() {
        2 => matches!(word, b"do" | b"if" | b"in"),
        3 => matches!(word, b"for" | b"let" | b"new" | b"try" | b"var"),
        4 => matches!(word, b"case" | b"else" | b"void" | b"with"),
        5 => matches!(
            word,
            b"break" | b"catch" | b"class" | b"const" | b"super" | b"throw" | b"while" | b"yield"
        ),
        6 => matches!(
            word,
            b"delete" | b"export" | b"import" | b"return" | b"switch" | b"typeof"
        ),
        7 => matches!(word, b"default" | b"extends" | b"finally"),
        8 => matches!(word, b"continue" | b"debugger" | b"function"),
        10 => word == b"instanceof",
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reserved words, spelled out once more so a typo in one of
    /// [`is_keyword_bytes`]'s arms cannot go unnoticed.
    const KEYWORDS: &[&str] = &[
        "break",
        "case",
        "catch",
        "class",
        "const",
        "continue",
        "debugger",
        "default",
        "delete",
        "do",
        "else",
        "export",
        "extends",
        "finally",
        "for",
        "function",
        "if",
        "import",
        "in",
        "instanceof",
        "let",
        "new",
        "return",
        "super",
        "switch",
        "throw",
        "try",
        "typeof",
        "var",
        "void",
        "while",
        "with",
        "yield",
    ];

    fn is_keyword(word: &str) -> bool {
        is_keyword_bytes(word.as_bytes())
    }

    #[test]
    fn keyword_match_agrees_with_the_keyword_list() {
        let agrees = |word: &str| assert_eq!(is_keyword(word), KEYWORDS.contains(&word), "{word}");
        for word in KEYWORDS {
            // The word itself, and near misses: one byte short, one byte
            // long, same length with a different last byte, other case.
            agrees(word);
            agrees(&word[..word.len() - 1]);
            agrees(&format!("{word}s"));
            agrees(&format!("{}_", &word[..word.len() - 1]));
            agrees(&word.to_ascii_uppercase());
        }
        agrees("");
        agrees("this");
    }

    #[test]
    fn keyword_lookup() {
        assert!(is_keyword("var"));
        assert!(is_keyword("function"));
        assert!(is_keyword("new"));
        assert!(!is_keyword("this"), "paper treats `this` as Identifier");
        assert!(!is_keyword("eval"));
        assert!(!is_keyword("document"));
    }

    #[test]
    fn class_codes_roundtrip() {
        for class in TokenClass::ALL {
            assert_eq!(TokenClass::from_code(class.code()), Some(class));
        }
        assert_eq!(TokenClass::from_code(200), None);
    }

    #[test]
    fn unquoted_strips_matching_quotes_only() {
        let t = Token::new(TokenClass::String, "\"l9D\"", 0);
        assert_eq!(t.unquoted(), "l9D");
        let t = Token::new(TokenClass::String, "'x'", 0);
        assert_eq!(t.unquoted(), "x");
        let t = Token::new(TokenClass::Identifier, "\"notastring\"", 0);
        assert_eq!(t.unquoted(), "\"notastring\"");
        let t = Token::new(TokenClass::String, "\"mismatch'", 0);
        assert_eq!(t.unquoted(), "\"mismatch'");
    }

    #[test]
    fn display_matches_figure_8_layout() {
        let t = Token::new(TokenClass::Keyword, "var", 0);
        assert_eq!(t.to_string(), "var Keyword");
    }

    #[test]
    fn token_len_and_empty() {
        let t = Token::new(TokenClass::Identifier, "abc", 3);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn span_is_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Span>(), 12);
    }
}
