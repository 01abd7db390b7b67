//! The seed tokenizer, kept verbatim as the test oracle.
//!
//! This is `crates/js-lex/src/{lexer,html,token}.rs` as they stood before
//! the span lexer replaced them: one owned `String` per token, a linear
//! walk over `MULTI_PUNCT` per punctuation token, a binary search per
//! word, a lowercased copy of the document to find `<script>` elements and
//! a copied `String` per script body. It is slow and it is the definition
//! of correct: the product lexer must produce the same `(class, text)`
//! sequence on every input (`tests/lexer_oracle.rs` here, and
//! `tests/lexer_corpus_oracle.rs` at the workspace root, which includes
//! this file by `#[path]`).
//!
//! The only edits are the glue a test module needs: a token stream is a
//! `Vec<Token>`, and the `unquoted`/`len` helpers
//! nothing here calls are gone. The examples in the doc comments are inert in
//! a test module.

#![allow(dead_code)]

use kizzle_js::TokenClass;
use std::fmt;

/// A concrete token: its abstract class, its exact source text, and where it
/// was found.
///
/// Signature generation needs the concrete text (`"ev#333399al"`), while the
/// clustering stage only looks at [`Token::class`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Token {
    /// Abstract class of the token.
    pub class: TokenClass,
    /// The exact source text of the token, including string quotes.
    pub text: std::string::String,
    /// Byte offset of the first character in the original source.
    pub offset: usize,
}

impl Token {
    /// Create a new token.
    #[must_use]
    pub fn new(class: TokenClass, text: impl Into<std::string::String>, offset: usize) -> Self {
        Token {
            class,
            text: text.into(),
            offset,
        }
    }
}

/// The set of JavaScript reserved words recognized as [`TokenClass::Keyword`].
///
/// This list covers ES5 plus the handful of ES6 keywords observed in the
/// wild in exploit-kit code; `this` is deliberately *not* included because
/// the paper's Fig. 8 classifies it as an identifier.
pub const KEYWORDS: &[&str] = &[
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

/// Returns true if `word` is a JavaScript reserved word.
#[must_use]
pub fn is_keyword(word: &str) -> bool {
    KEYWORDS.binary_search(&word).is_ok()
}

/// An error encountered while scanning; scanning continues past it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Byte offset of the offending character.
    pub offset: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for LexError {}

/// Multi-character punctuation, longest first so the scanner can do a
/// longest-match scan.
const MULTI_PUNCT: &[&str] = &[
    ">>>=", "===", "!==", ">>>", "**=", "...", "<<=", ">>=", "&&=", "||=", "??=", "=>", "==", "!=",
    "<=", ">=", "&&", "||", "??", "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<",
    ">>", "**",
];

/// Single-character punctuation.
const SINGLE_PUNCT: &str = "{}()[];,<>+-*/%&|^!~?:=.@#";

/// A streaming JavaScript scanner producing [`Token`]s.
///
/// # Examples
///
/// ```
/// use kizzle_js::{Lexer, TokenClass};
/// let tokens: Vec<_> = Lexer::new("foo(1, 'bar')").collect();
/// assert_eq!(tokens.len(), 6);
/// assert_eq!(tokens[0].class, TokenClass::Identifier);
/// ```
#[derive(Debug, Clone)]
pub struct Lexer<'a> {
    source: &'a str,
    bytes: &'a [u8],
    pos: usize,
    errors: Vec<LexError>,
    /// Class of the previous significant token, used to disambiguate regex
    /// literals from division.
    prev: Option<TokenClass>,
    prev_text_allows_regex: bool,
}

impl<'a> Lexer<'a> {
    /// Create a scanner over `source`.
    #[must_use]
    pub fn new(source: &'a str) -> Self {
        Lexer {
            source,
            bytes: source.as_bytes(),
            pos: 0,
            errors: Vec::new(),
            prev: None,
            prev_text_allows_regex: true,
        }
    }

    /// Errors accumulated so far (skipped characters, unterminated
    /// literals). The scan itself never fails.
    #[must_use]
    pub fn errors(&self) -> &[LexError] {
        &self.errors
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn error(&mut self, offset: usize, message: impl Into<String>) {
        // Bound the error log so adversarial input cannot balloon memory.
        if self.errors.len() < 1024 {
            self.errors.push(LexError {
                offset,
                message: message.into(),
            });
        }
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => self.pos += 1,
                Some(b'/') if self.peek_at(1) == Some(b'/') => {
                    while let Some(b) = self.peek() {
                        self.pos += 1;
                        if b == b'\n' {
                            break;
                        }
                    }
                }
                Some(b'/') if self.peek_at(1) == Some(b'*') => {
                    let start = self.pos;
                    self.pos += 2;
                    let mut closed = false;
                    while self.pos < self.bytes.len() {
                        if self.bytes[self.pos] == b'*' && self.peek_at(1) == Some(b'/') {
                            self.pos += 2;
                            closed = true;
                            break;
                        }
                        self.pos += 1;
                    }
                    if !closed {
                        self.error(start, "unterminated block comment");
                    }
                }
                _ => break,
            }
        }
    }

    fn next_token(&mut self) -> Option<Token> {
        loop {
            self.skip_trivia();
            let start = self.pos;
            let b = self.peek()?;

            let token = if b == b'"' || b == b'\'' || b == b'`' {
                Some(self.scan_string(b))
            } else if b.is_ascii_digit()
                || (b == b'.' && self.peek_at(1).is_some_and(|c| c.is_ascii_digit()))
            {
                Some(self.scan_number())
            } else if b == b'_' || b == b'$' || b.is_ascii_alphabetic() || b >= 0x80 {
                Some(self.scan_word())
            } else if b == b'/' && self.regex_allowed() {
                Some(self.scan_regex())
            } else if let Some(tok) = self.scan_punct() {
                Some(tok)
            } else {
                self.error(start, format!("skipping unexpected byte 0x{b:02x}"));
                self.pos += 1;
                None
            };

            if let Some(tok) = token {
                self.prev = Some(tok.class);
                self.prev_text_allows_regex = match tok.class {
                    TokenClass::Punctuation => !matches!(tok.text.as_str(), ")" | "]" | "}"),
                    TokenClass::Keyword => true,
                    _ => false,
                };
                return Some(tok);
            }
            // Otherwise we skipped a bad byte; try again.
        }
    }

    /// A `/` starts a regex literal only where an expression is expected.
    fn regex_allowed(&self) -> bool {
        match self.prev {
            None => true,
            Some(TokenClass::Punctuation) | Some(TokenClass::Keyword) => {
                self.prev_text_allows_regex
            }
            _ => false,
        }
    }

    fn scan_string(&mut self, quote: u8) -> Token {
        let start = self.pos;
        self.pos += 1;
        let mut terminated = false;
        while let Some(b) = self.peek() {
            if b == b'\\' {
                self.pos += 2.min(self.bytes.len() - self.pos);
                continue;
            }
            if b == quote {
                self.pos += 1;
                terminated = true;
                break;
            }
            // Template literals may span lines; ordinary strings that hit a
            // newline are treated as (sloppily) terminated, which matches how
            // packers emit long single-line strings anyway.
            if b == b'\n' && quote != b'`' {
                break;
            }
            self.pos += 1;
        }
        if !terminated {
            self.error(start, "unterminated string literal");
        }
        Token::new(TokenClass::String, &self.source[start..self.pos], start)
    }

    fn scan_number(&mut self) -> Token {
        let start = self.pos;
        if self.peek() == Some(b'0') && matches!(self.peek_at(1), Some(b'x') | Some(b'X')) {
            self.pos += 2;
            while self.peek().is_some_and(|b| b.is_ascii_hexdigit()) {
                self.pos += 1;
            }
        } else {
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.peek() == Some(b'.') {
                self.pos += 1;
                while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), Some(b'e') | Some(b'E')) {
                let mark = self.pos;
                self.pos += 1;
                if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                    self.pos += 1;
                }
                if self.peek().is_some_and(|b| b.is_ascii_digit()) {
                    while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                        self.pos += 1;
                    }
                } else {
                    // Not an exponent after all (`1e` followed by identifier).
                    self.pos = mark;
                }
            }
        }
        Token::new(TokenClass::Number, &self.source[start..self.pos], start)
    }

    fn scan_word(&mut self) -> Token {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'_' || b == b'$' || b.is_ascii_alphanumeric() || b >= 0x80 {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = &self.source[start..self.pos];
        let class = if is_keyword(text) {
            TokenClass::Keyword
        } else {
            TokenClass::Identifier
        };
        Token::new(class, text, start)
    }

    fn scan_regex(&mut self) -> Token {
        let start = self.pos;
        self.pos += 1; // opening '/'
        let mut in_class = false;
        let mut terminated = false;
        while let Some(b) = self.peek() {
            match b {
                b'\\' => {
                    self.pos += 2.min(self.bytes.len() - self.pos);
                    continue;
                }
                b'[' => in_class = true,
                b']' => in_class = false,
                b'/' if !in_class => {
                    self.pos += 1;
                    terminated = true;
                    break;
                }
                b'\n' => break,
                _ => {}
            }
            self.pos += 1;
        }
        if !terminated {
            // Not a real regex (e.g. stray '/'); fall back to punctuation.
            self.pos = start + 1;
            return Token::new(TokenClass::Punctuation, "/", start);
        }
        // Flags.
        while self.peek().is_some_and(|b| b.is_ascii_alphabetic()) {
            self.pos += 1;
        }
        Token::new(TokenClass::Regex, &self.source[start..self.pos], start)
    }

    fn scan_punct(&mut self) -> Option<Token> {
        let start = self.pos;
        let rest = &self.source[self.pos..];
        for cand in MULTI_PUNCT {
            if rest.starts_with(cand) {
                self.pos += cand.len();
                return Some(Token::new(TokenClass::Punctuation, *cand, start));
            }
        }
        let b = self.peek()?;
        if SINGLE_PUNCT.as_bytes().contains(&b) {
            self.pos += 1;
            return Some(Token::new(
                TokenClass::Punctuation,
                &self.source[start..self.pos],
                start,
            ));
        }
        None
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Token;

    fn next(&mut self) -> Option<Token> {
        self.next_token()
    }
}

/// One inline script block found in a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InlineScript {
    /// Byte offset of the script body within the original document.
    pub offset: usize,
    /// The raw script body (between `<script ...>` and `</script>`).
    pub body: String,
    /// Value of the `src` attribute if present (external scripts have no
    /// body to analyze, but the URL itself is useful for ground-truthing).
    pub src: Option<String>,
}

/// Extract all `<script>` elements from an HTML document.
///
/// External scripts (`src=`) are returned with an empty body; inline event
/// handlers (`onload="..."`) are *not* extracted here — exploit kits deliver
/// their packer inside script elements.
///
/// # Examples
///
/// ```
/// let scripts = kizzle_js::extract_scripts("<html><script>var a=1;</script></html>");
/// assert_eq!(scripts.len(), 1);
/// assert_eq!(scripts[0].body, "var a=1;");
/// ```
#[must_use]
pub fn extract_scripts(html: &str) -> Vec<InlineScript> {
    let mut scripts = Vec::new();
    let lower = html.to_ascii_lowercase();
    let bytes = lower.as_bytes();
    let mut pos = 0;

    while let Some(rel) = lower[pos..].find("<script") {
        let tag_start = pos + rel;
        // Find the end of the opening tag.
        let Some(tag_end_rel) = lower[tag_start..].find('>') else {
            break;
        };
        let tag_end = tag_start + tag_end_rel;
        let open_tag = &html[tag_start..=tag_end];
        let src = extract_attr(open_tag, "src");

        // Self-closing script tag.
        if open_tag.trim_end_matches('>').ends_with('/') {
            scripts.push(InlineScript {
                offset: tag_end + 1,
                body: String::new(),
                src,
            });
            pos = tag_end + 1;
            continue;
        }

        let body_start = tag_end + 1;
        let (body_end, next_pos) = match lower[body_start..].find("</script") {
            Some(rel_close) => {
                let close = body_start + rel_close;
                let after = lower[close..]
                    .find('>')
                    .map_or(lower.len(), |i| close + i + 1);
                (close, after)
            }
            None => (lower.len(), lower.len()),
        };
        debug_assert!(body_end <= bytes.len());

        scripts.push(InlineScript {
            offset: body_start,
            body: html[body_start..body_end].to_string(),
            src,
        });
        pos = next_pos;
    }
    scripts
}

/// Pull a (single- or double-quoted, or unquoted) attribute value out of an
/// opening tag. Case-insensitive on the attribute name.
fn extract_attr(tag: &str, name: &str) -> Option<String> {
    let lower = tag.to_ascii_lowercase();
    let mut search = 0;
    while let Some(rel) = lower[search..].find(name) {
        let at = search + rel;
        // Must be preceded by whitespace to be an attribute name.
        let prev_ok = at == 0 || lower.as_bytes()[at - 1].is_ascii_whitespace();
        let after = at + name.len();
        let rest = lower[after..].trim_start();
        if prev_ok && rest.starts_with('=') {
            let value_part = &tag[tag.len() - rest.len()..][1..];
            let value_part = value_part.trim_start();
            let value = if let Some(stripped) = value_part.strip_prefix('"') {
                stripped.split('"').next().unwrap_or("")
            } else if let Some(stripped) = value_part.strip_prefix('\'') {
                stripped.split('\'').next().unwrap_or("")
            } else {
                value_part
                    .split(|c: char| c.is_ascii_whitespace() || c == '>')
                    .next()
                    .unwrap_or("")
            };
            return Some(value.to_string());
        }
        search = after;
    }
    None
}

/// Tokenize a JavaScript source string (the seed's `kizzle_js::tokenize`).
#[must_use]
pub fn tokenize(source: &str) -> Vec<Token> {
    Lexer::new(source).collect()
}

/// Tokenize every inline script in an HTML document and concatenate the
/// results into a single token vector.
///
/// If the input does not look like HTML at all (no `<script` tag), it is
/// treated as bare JavaScript — the grayware feed contains both.
///
/// # Examples
///
/// ```
/// let stream = kizzle_js::tokenize_document("<script>var a=1;</script><script>b()</script>");
/// assert!(stream.len() >= 8);
/// // Bare JavaScript also works:
/// let bare = kizzle_js::tokenize_document("var a = 1;");
/// assert_eq!(bare.len(), 5);
/// ```
#[must_use]
pub fn tokenize_document(document: &str) -> Vec<Token> {
    let scripts = extract_scripts(document);
    if scripts.is_empty() {
        return tokenize(document);
    }
    let mut out = Vec::new();
    for script in &scripts {
        if !script.body.trim().is_empty() {
            out.extend(tokenize(&script.body));
        }
    }
    out
}

/// [`tokenize_document`] truncated to a `cap`-token prefix — the one
/// definition of the cap semantics shared by the compiler's ingest
/// tokenization and the matcher's scan path, which must agree on it for
/// compiled signatures to fire on scanned documents.
#[must_use]
pub fn tokenize_document_capped(document: &str, cap: usize) -> Vec<Token> {
    let mut stream = tokenize_document(document);
    stream.truncate(cap);
    stream
}
