//! A lenient JavaScript scanner.
//!
//! The scanner is intentionally forgiving: grayware streams contain broken,
//! truncated and adversarial JavaScript, and the Kizzle pipeline must keep
//! going. Characters that cannot start any token are skipped and reported
//! through [`Lexer::errors`], never by aborting the scan.
//!
//! There is one lexer core, `Cursor::next_span`: a 256-entry byte-class
//! table picks the token kind from the first byte, multi-character
//! punctuation is chosen by that first byte, and string, regex and comment
//! bodies are skipped 32 bytes at a time. It produces [`Span`]s — a class
//! and a byte range — and never copies or allocates per token.
//! `lex` drives it into a span buffer (every `tokenize*` entry point and
//! the scan path); [`Lexer`] drives it one token at a time and is the only
//! user that pays for diagnostics.
//!
//! The core must inline whole into both drivers. Each keeps the cursor —
//! the position and the regex flag — in a local, and the core calls only
//! scanners that are `#[inline(always)]` or pure `(bytes, start) -> end`
//! functions, so the cursor stays in registers from one token to the
//! next. An out-of-line helper that takes `&mut Cursor` puts the position
//! in memory, and the tokens that reach it store and reload it: one such
//! helper on the punctuation path costs about a third more per minified
//! token, and scanners that each took `&mut self` out of line and
//! returned a `Span` cost 2.3× (9.9 ns a minified token against 4.2; a
//! bare run of `;`, about 9 against 3; 2 vCPUs at 2.1 GHz). The string,
//! regex and block-comment scanners are the pure ones, and stay out of
//! line on purpose: inlined, their block loops crowd the core's
//! registers and it spills the cursor again. The
//! `jslex/lex_minified_page` bench arm is gated on this.

use crate::token::{is_keyword_bytes, Span, Token, TokenClass};
use std::fmt;
use std::ops::Range;

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

/// What the core tells its caller about input it had to step over. The
/// tokenizing entry points pass `()` and the whole reporting path compiles
/// away; [`Lexer`] collects messages.
pub(crate) trait Diagnostics {
    fn unexpected_byte(&mut self, offset: usize, byte: u8);
    fn unterminated(&mut self, offset: usize, what: &'static str);
}

impl Diagnostics for () {
    #[inline]
    fn unexpected_byte(&mut self, _: usize, _: u8) {}
    #[inline]
    fn unterminated(&mut self, _: usize, _: &'static str) {}
}

/// Bound on the error log so adversarial input cannot balloon memory.
const MAX_ERRORS: usize = 1024;

impl Diagnostics for Vec<LexError> {
    fn unexpected_byte(&mut self, offset: usize, byte: u8) {
        if self.len() < MAX_ERRORS {
            self.push(LexError {
                offset,
                message: format!("skipping unexpected byte 0x{byte:02x}"),
            });
        }
    }

    fn unterminated(&mut self, offset: usize, what: &'static str) {
        if self.len() < MAX_ERRORS {
            self.push(LexError {
                offset,
                message: format!("unterminated {what}"),
            });
        }
    }
}

// Byte classes: what a byte means as the first byte of a token.
/// Cannot start a token (control bytes, `\`, DEL, ...): skipped.
const OTHER: u8 = 0;
/// ASCII whitespace (`\x0c` is, `\x0b` is not — `u8::is_ascii_whitespace`).
const SPACE: u8 = 1;
/// `_`, `$`, ASCII letters and every byte of a non-ASCII character.
const WORD: u8 = 2;
/// ASCII digits. `WORD` and `DIGIT` differ in the low bit only, so "may
/// continue an identifier" is one shift ([`is_word_byte`]).
const DIGIT: u8 = 3;
/// `"`, `'` and `` ` ``.
const QUOTE: u8 = 4;
/// `.`: a number when a digit follows, punctuation otherwise.
const DOT: u8 = 5;
/// `/`: a comment, a regex literal or punctuation, by context.
const SLASH: u8 = 6;
/// Every other punctuation byte.
const PUNCT: u8 = 7;

const BYTE_CLASS: [u8; 256] = {
    let mut table = [OTHER; 256];
    let mut b = 0usize;
    while b < 256 {
        let byte = b as u8;
        table[b] = if byte.is_ascii_whitespace() {
            SPACE
        } else if byte.is_ascii_digit() {
            DIGIT
        } else if byte == b'_' || byte == b'$' || byte.is_ascii_alphabetic() || byte >= 0x80 {
            WORD
        } else {
            match byte {
                b'"' | b'\'' | b'`' => QUOTE,
                b'.' => DOT,
                b'/' => SLASH,
                b'{' | b'}' | b'(' | b')' | b'[' | b']' | b';' | b',' | b'<' | b'>' | b'+'
                | b'-' | b'*' | b'%' | b'&' | b'|' | b'^' | b'!' | b'~' | b'?' | b':' | b'='
                | b'@' | b'#' => PUNCT,
                _ => OTHER,
            }
        };
        b += 1;
    }
    table
};

#[inline]
fn is_word_byte(b: u8) -> bool {
    BYTE_CLASS[b as usize] >> 1 == WORD >> 1
}

/// Index of the first byte at or after `from` equal to one of `needles`,
/// or `bytes.len()`.
///
/// Two steps. Whole 32-byte blocks are passed over while none holds a
/// needle, in vector compares that LLVM lowers from the loop on the
/// x86-64 baseline (string literals are most of a kit page's bytes).
/// Then eight bytes per step from the first block that hits, or from the
/// last whole block: XOR against a broadcast needle turns a match into a
/// zero byte, and the classic
/// `(v - 0x01…) & !v & 0x80…` test finds zero bytes — exact for the lowest
/// one, which on a little-endian load is the first.
#[inline]
pub(crate) fn find_any<const N: usize>(bytes: &[u8], from: usize, needles: [u8; N]) -> usize {
    const LOW: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let mut pos = from.min(bytes.len());
    let (blocks, _) = bytes[pos..].as_chunks::<32>();
    for block in blocks {
        // Each needle is a branch-free OR of byte equalities over the
        // block (two SSE2 compares) behind a branch of its own: one OR over
        // all the needles lets LLVM vectorize across the needles instead,
        // shuffling every block byte into their lanes.
        if needles
            .iter()
            .any(|&needle| block.iter().fold(false, |hit, &b| hit | (b == needle)))
        {
            break;
        }
        pos += 32;
    }
    let (chunks, tail) = bytes[pos..].as_chunks::<8>();
    for &chunk in chunks {
        let word = u64::from_le_bytes(chunk);
        let mut hits = 0u64;
        for needle in needles {
            let x = word ^ (LOW * u64::from(needle));
            hits |= x.wrapping_sub(LOW) & !x & HIGH;
        }
        if hits != 0 {
            return pos + (hits.trailing_zeros() / 8) as usize;
        }
        pos += 8;
    }
    for &b in tail {
        if needles.contains(&b) {
            return pos;
        }
        pos += 1;
    }
    pos
}

/// Length of the punctuation token starting at `bytes[pos]` — a `PUNCT`,
/// `DOT` or `SLASH` byte — by longest match over the operator set
/// (`>>>=`, `===`, `!==`, `>>>`, `**=`, `...`, `<<=`, `>>=`, `&&=`, `||=`,
/// `??=`, `=>`, `==`, `!=`, `<=`, `>=`, `&&`, `||`, `??`, `++`, `--`, `+=`,
/// `-=`, `*=`, `/=`, `%=`, `&=`, `|=`, `^=`, `<<`, `>>`, `**`); brackets
/// and separators never look past themselves.
#[inline(always)]
fn punct_len(bytes: &[u8], pos: usize) -> usize {
    let at = |ahead: usize| bytes.get(pos + ahead).copied();
    let first = bytes[pos];
    match first {
        // `x`, `x=`, `xx`, `xx=`, and for `>` also `>>>`, `>>>=`.
        b'>' | b'<' | b'*' | b'&' | b'|' | b'?' => match at(1) {
            Some(b) if b == first => match at(2) {
                Some(b'=') => 3,
                Some(b'>') if first == b'>' => 3 + usize::from(at(3) == Some(b'=')),
                _ => 2,
            },
            Some(b'=') if first != b'?' => 2,
            _ => 1,
        },
        b'=' => match at(1) {
            Some(b'=') => 2 + usize::from(at(2) == Some(b'=')),
            Some(b'>') => 2,
            _ => 1,
        },
        b'!' => match at(1) {
            Some(b'=') => 2 + usize::from(at(2) == Some(b'=')),
            _ => 1,
        },
        b'+' | b'-' => match at(1) {
            Some(b) if b == first || b == b'=' => 2,
            _ => 1,
        },
        b'/' | b'%' | b'^' => 1 + usize::from(at(1) == Some(b'=')),
        b'.' if at(1) == Some(b'.') && at(2) == Some(b'.') => 3,
        _ => 1,
    }
}

/// Where the lexer stands: a position in a byte buffer plus the one bit
/// of context JavaScript needs (may a `/` here start a regex literal?).
/// Every caller keeps it in a local, so that once [`Cursor::next_span`]
/// is inlined both fields live in registers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cursor<'a> {
    /// The lexed text, cut at the end of the range being lexed; positions
    /// index the whole text so spans are relative to it.
    bytes: &'a [u8],
    pos: usize,
    /// A `/` starts a regex literal only where an expression is expected:
    /// at the start, after a keyword, and after punctuation other than a
    /// closing bracket.
    regex_ok: bool,
}

impl<'a> Cursor<'a> {
    /// A cursor over `text[range]`. `range.end` must fit a span offset
    /// (see [`addressable`]).
    pub(crate) fn new(text: &'a str, range: Range<usize>) -> Self {
        assert!(
            u32::try_from(range.end).is_ok(),
            "callers lex addressable text, so offsets fit a span"
        );
        Cursor {
            bytes: &text.as_bytes()[..range.end],
            pos: range.start,
            regex_ok: true,
        }
    }

    /// The lexer core: the next token, or `None` at the end of the range.
    /// The scanners it calls are inlined or pure `(bytes, start)`
    /// functions, so nothing here takes the cursor's address (module doc).
    #[inline(always)]
    pub(crate) fn next_span<D: Diagnostics>(&mut self, diag: &mut D) -> Option<Span> {
        let bytes = self.bytes;
        let mut start = self.pos;
        // Each arm either ends a token — its class, end and whether a `/`
        // after it may open a regex — or steps over input and goes on.
        let (class, end, regex_ok) = loop {
            // Whitespace is stepped over before the dispatch, not by an
            // arm of it: a run costs a loop rather than a second indirect
            // jump, and stock pages have one for every 2.5 tokens.
            start = skip_while(bytes, start, |b| BYTE_CLASS[b as usize] == SPACE);
            let Some(&first) = bytes.get(start) else {
                self.pos = start;
                return None;
            };
            start = match BYTE_CLASS[first as usize] {
                WORD => {
                    let end = skip_while(bytes, start + 1, is_word_byte);
                    break if is_keyword_bytes(&bytes[start..end]) {
                        (TokenClass::Keyword, end, true)
                    } else {
                        (TokenClass::Identifier, end, false)
                    };
                }
                DIGIT => break (TokenClass::Number, number_end(bytes, start), false),
                DOT if bytes.get(start + 1).is_some_and(u8::is_ascii_digit) => {
                    break (TokenClass::Number, number_end(bytes, start), false)
                }
                QUOTE => {
                    let (end, terminated) = string_end(bytes, start);
                    if !terminated {
                        diag.unterminated(start, "string literal");
                    }
                    break (TokenClass::String, end, false);
                }
                SLASH => match bytes.get(start + 1) {
                    // Line comment, through its newline.
                    Some(b'/') => (find_any(bytes, start + 2, [b'\n']) + 1).min(bytes.len()),
                    Some(b'*') => block_comment_end(bytes, start).unwrap_or_else(|| {
                        diag.unterminated(start, "block comment");
                        bytes.len()
                    }),
                    _ if self.regex_ok => match regex_end(bytes, start) {
                        Some(end) => break (TokenClass::Regex, end, false),
                        // Not a real regex (a stray `/`): one byte of
                        // punctuation.
                        None => break (TokenClass::Punctuation, start + 1, true),
                    },
                    _ => {
                        break (
                            TokenClass::Punctuation,
                            start + punct_len(bytes, start),
                            true,
                        )
                    }
                },
                DOT | PUNCT => {
                    // A closing bracket ends an operand; it is one byte.
                    let closes = matches!(first, b')' | b']' | b'}');
                    break (
                        TokenClass::Punctuation,
                        start + punct_len(bytes, start),
                        !closes,
                    );
                }
                // `OTHER`: a byte that starts nothing.
                _ => {
                    diag.unexpected_byte(start, first);
                    start + 1
                }
            };
        };
        self.pos = end;
        self.regex_ok = regex_ok;
        // `Cursor::new` bounds every position by a `u32`.
        Some(Span {
            start: start as u32,
            len: (end - start) as u32,
            class,
        })
    }
}

/// The first position at or after `from` whose byte fails `pred`.
#[inline(always)]
fn skip_while(bytes: &[u8], mut from: usize, pred: impl Fn(u8) -> bool) -> usize {
    while bytes.get(from).is_some_and(|&b| pred(b)) {
        from += 1;
    }
    from
}

/// End of the number literal starting at `bytes[start]` — a digit, or a
/// `.` before one.
#[inline(always)]
fn number_end(bytes: &[u8], start: usize) -> usize {
    let digits = |from| skip_while(bytes, from, |b| b.is_ascii_digit());
    if bytes[start] == b'0' && matches!(bytes.get(start + 1), Some(b'x' | b'X')) {
        return skip_while(bytes, start + 2, |b| b.is_ascii_hexdigit());
    }
    let mut pos = digits(start);
    if bytes.get(pos) == Some(&b'.') {
        pos = digits(pos + 1);
    }
    if matches!(bytes.get(pos), Some(b'e' | b'E')) {
        let mut exp = pos + 1;
        if matches!(bytes.get(exp), Some(b'+' | b'-')) {
            exp += 1;
        }
        // Not an exponent unless a digit follows (`1e` then an identifier).
        if bytes.get(exp).is_some_and(u8::is_ascii_digit) {
            pos = digits(exp);
        }
    }
    pos
}

// The body scanners: out of line, so their block loops do not take
// the core's registers (module doc).

/// End of the block comment opening at `bytes[start]` (`/*`), or `None`
/// when it never closes.
#[inline(never)]
fn block_comment_end(bytes: &[u8], start: usize) -> Option<usize> {
    let mut pos = start + 2;
    loop {
        pos = find_any(bytes, pos, [b'*']);
        if pos >= bytes.len() {
            return None;
        }
        pos += 1;
        if bytes.get(pos) == Some(&b'/') {
            return Some(pos + 1);
        }
    }
}

/// End of the string literal opening at `bytes[start]`, and whether its
/// closing quote was found.
#[inline(never)]
fn string_end(bytes: &[u8], start: usize) -> (usize, bool) {
    let quote = bytes[start];
    let mut pos = start + 1;
    loop {
        pos = find_any(bytes, pos, [quote, b'\\', b'\n']);
        match bytes.get(pos) {
            // An escape hides the next byte, whatever it is. When that
            // byte starts a multi-byte character, its continuation
            // bytes are none of the needles and are stepped over like
            // any other content.
            Some(b'\\') => pos = (pos + 2).min(bytes.len()),
            Some(&b) if b == quote => return (pos + 1, true),
            // Template literals may span lines; ordinary strings that
            // hit a newline are treated as (sloppily) terminated, which
            // matches how packers emit long single-line strings anyway.
            Some(_) if quote == b'`' => pos += 1,
            _ => return (pos, false),
        }
    }
}

/// End of the regex literal opening at `bytes[start]` (`/`), flags
/// included, or `None` when the line ends first.
#[inline(never)]
fn regex_end(bytes: &[u8], start: usize) -> Option<usize> {
    let mut pos = start + 1;
    let mut in_class = false;
    loop {
        pos = find_any(bytes, pos, [b'/', b'\\', b'[', b']', b'\n']);
        match bytes.get(pos) {
            Some(b'\\') => pos = (pos + 2).min(bytes.len()),
            Some(b'[') => {
                in_class = true;
                pos += 1;
            }
            Some(b']') => {
                in_class = false;
                pos += 1;
            }
            Some(b'/') if in_class => pos += 1,
            Some(b'/') => return Some(skip_while(bytes, pos + 1, |b| b.is_ascii_alphabetic())),
            _ => return None,
        }
    }
}

/// The longest prefix of `text` that is at most `max` bytes and ends on a
/// character boundary: what an offset type holding at most `max` can
/// address.
fn prefix_within(text: &str, max: usize) -> &str {
    &text[..text.floor_char_boundary(max)]
}

/// The prefix of `text` whose byte offsets fit a [`Span`]. Offsets are
/// `u32`: a text longer than `u32::MAX` bytes is lexed up to the last
/// character boundary at or below that bound — never a panic, never a
/// wrapped offset.
pub(crate) fn addressable(text: &str) -> &str {
    prefix_within(text, u32::MAX as usize)
}

/// An empty span buffer sized for lexing `text` — from the text, never from
/// a token cap (callers pass `usize::MAX` for "no cap").
pub(crate) fn span_buffer(text: &str) -> Vec<Span> {
    Vec::with_capacity((text.len() / 8).min(1024))
}

/// The one lexing loop: append the tokens of `text[range]` to `out` until
/// the range is exhausted or `out` holds `cap` spans, and return where
/// lexing stopped — the end of the `cap`-th token, or `range.end`. Work is
/// proportional to the bytes up to that position, not to the range.
///
/// `text` must be [`addressable`]. Lexing starts in expression position
/// (a leading `/` may open a regex), as for a fresh script.
pub(crate) fn lex(text: &str, range: Range<usize>, cap: usize, out: &mut Vec<Span>) -> usize {
    let mut cursor = Cursor::new(text, range);
    while out.len() < cap {
        match cursor.next_span(&mut ()) {
            Some(span) => out.push(span),
            None => break,
        }
    }
    cursor.pos
}

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
    cursor: Cursor<'a>,
    errors: Vec<LexError>,
}

impl<'a> Lexer<'a> {
    /// Create a scanner over `source`.
    #[must_use]
    pub fn new(source: &'a str) -> Self {
        let source = addressable(source);
        Lexer {
            source,
            cursor: Cursor::new(source, 0..source.len()),
            errors: Vec::new(),
        }
    }

    /// Errors accumulated so far (skipped characters, unterminated
    /// literals; at most 1,024 are kept). The scan itself never fails.
    #[must_use]
    pub fn errors(&self) -> &[LexError] {
        &self.errors
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        // On a local copy, so the inlined core keeps it in registers.
        let mut cursor = self.cursor;
        let span = cursor.next_span(&mut self.errors);
        self.cursor = cursor;
        Some(span?.token(self.source, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classes(src: &str) -> Vec<TokenClass> {
        Lexer::new(src).map(|t| t.class).collect()
    }

    fn texts(src: &str) -> Vec<String> {
        Lexer::new(src).map(|t| t.text.to_string()).collect()
    }

    #[test]
    fn simple_statement() {
        use TokenClass::*;
        assert_eq!(
            classes("var x = 42;"),
            vec![Keyword, Identifier, Punctuation, Number, Punctuation]
        );
    }

    #[test]
    fn string_literals_single_and_double() {
        use TokenClass::*;
        assert_eq!(classes(r#"'a' + "b""#), vec![String, Punctuation, String]);
        assert_eq!(texts(r#"'a'"#), vec!["'a'"]);
    }

    #[test]
    fn string_with_escapes() {
        let toks = texts(r#""a\"b" x"#);
        assert_eq!(toks[0], r#""a\"b""#);
        assert_eq!(toks[1], "x");
    }

    #[test]
    fn unterminated_string_is_error_but_scan_continues() {
        let mut lexer = Lexer::new("\"abc\nvar x");
        let toks: Vec<_> = (&mut lexer).collect();
        assert!(toks.iter().any(|t| t.class == TokenClass::Keyword));
        // Re-scan to check the error is recorded.
        let mut lexer = Lexer::new("\"abc\nvar x");
        while lexer.next().is_some() {}
        assert!(!lexer.errors().is_empty());
    }

    #[test]
    fn numbers_decimal_hex_float_exponent() {
        assert_eq!(
            texts("1 0xFF 3.14 1e10 2.5e-3 .5"),
            vec!["1", "0xFF", "3.14", "1e10", "2.5e-3", ".5"]
        );
        assert!(classes("0xDEADbeef")
            .iter()
            .all(|c| *c == TokenClass::Number));
    }

    #[test]
    fn exponent_backtracks_when_not_a_number() {
        // `1e` followed by something that is not a digit: `1` then identifier `ex`.
        let t = texts("1ex");
        assert_eq!(t, vec!["1", "ex"]);
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            classes("// comment\nvar x /* block */ = 1"),
            vec![
                TokenClass::Keyword,
                TokenClass::Identifier,
                TokenClass::Punctuation,
                TokenClass::Number
            ]
        );
    }

    #[test]
    fn unterminated_block_comment_reports_error() {
        let mut lexer = Lexer::new("var x /* never closed");
        while lexer.next().is_some() {}
        assert!(lexer
            .errors()
            .iter()
            .any(|e| e.message.contains("block comment")));
    }

    #[test]
    fn multi_char_punctuation_longest_match() {
        assert_eq!(texts("a === b"), vec!["a", "===", "b"]);
        assert_eq!(texts("a >>>= b"), vec!["a", ">>>=", "b"]);
        assert_eq!(texts("x=>y"), vec!["x", "=>", "y"]);
    }

    #[test]
    fn regex_literal_vs_division() {
        // After `=` a regex is expected.
        let toks = texts("x = /ab[c/]+/g;");
        assert!(toks.contains(&"/ab[c/]+/g".to_string()));
        // After an identifier `/` is division.
        let toks = texts("a / b / c");
        assert_eq!(toks, vec!["a", "/", "b", "/", "c"]);
    }

    #[test]
    fn regex_after_punctuation_and_keywords() {
        let toks: Vec<_> = Lexer::new("return /abc/.test(x)").collect();
        assert_eq!(toks[1].class, TokenClass::Regex);
        let toks: Vec<_> = Lexer::new("f(/abc/)").collect();
        assert_eq!(toks[2].class, TokenClass::Regex);
    }

    #[test]
    fn stray_slash_falls_back_to_punctuation() {
        let toks = texts("= / x");
        assert_eq!(toks, vec!["=", "/", "x"]);
    }

    #[test]
    fn unicode_identifiers_survive() {
        let toks: Vec<_> = Lexer::new("var ümlaut = 1").collect();
        assert_eq!(toks[1].class, TokenClass::Identifier);
        assert_eq!(toks[1].text, "ümlaut");
    }

    #[test]
    fn dollar_and_underscore_identifiers() {
        use TokenClass::*;
        assert_eq!(
            classes("$ _x $y1"),
            vec![Identifier, Identifier, Identifier]
        );
    }

    #[test]
    fn template_literal_spans_newline() {
        let toks = texts("`a\nb` x");
        assert_eq!(toks[0], "`a\nb`");
    }

    #[test]
    fn offsets_are_byte_positions() {
        let toks: Vec<_> = Lexer::new("ab  cd").collect();
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 4);
    }

    #[test]
    fn garbage_bytes_are_skipped_with_errors() {
        let mut lexer = Lexer::new("a \u{0007} b");
        let toks: Vec<_> = (&mut lexer).collect();
        assert_eq!(toks.len(), 2);
    }

    #[test]
    fn error_log_is_bounded() {
        let junk: String = "\u{0001}".repeat(5000);
        let mut lexer = Lexer::new(&junk);
        while lexer.next().is_some() {}
        assert!(lexer.errors().len() <= 1024);
    }

    #[test]
    fn nuclear_packer_snippet_lexes() {
        // Condensed from paper Fig. 4(b).
        let src = r#"
            getter = function(a){ return a; };
            thiscopy = this;
            doc = thiscopy[thiscopy["getter"]("document")];
            evl = thiscopy["getter"]("ev #333366 al");
            thiscopy[win["replace"](bgc,"")][evl["replace"](bgc, "")](payload);
        "#;
        let toks: Vec<_> = Lexer::new(src).collect();
        assert!(toks.len() > 40);
        assert!(toks.iter().any(|t| t.text == "\"ev #333366 al\""));
    }

    #[test]
    fn rig_packer_snippet_lexes() {
        // Condensed from paper Fig. 4(a).
        let src = r#"
            var buffer=""; var delim="y6";
            function collect(text) { buffer += text; }
            collect("47 y642y6100y6");
            pieces = buffer.split(delim);
            for (var i=0; i<pieces.length; i++) {
                screlem.text += String.fromCharCode(pieces[i]);
            }
            document.body.appendChild(screlem);
        "#;
        let classes: Vec<_> = Lexer::new(src).map(|t| t.class).collect();
        assert!(classes.contains(&TokenClass::Keyword));
        assert!(classes.contains(&TokenClass::String));
        assert!(classes.contains(&TokenClass::Number));
    }

    #[test]
    fn find_any_agrees_with_a_byte_loop_at_every_alignment() {
        // 133 bytes: several whole 32-byte blocks from every start, each
        // needle somewhere inside one of them.
        let hay = b"0123456789abcdefghij\"klmnopqrstuvwxyz0123456789ABCDEFGHIJKLMNOPQRSTUV\\qrstuvwxyz\nABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
        assert!(hay.len() >= 100);
        for from in 0..=hay.len() + 2 {
            for needles in [[b'"', b'\\', b'\n'], [b'Z', b'Z', b'Z'], [0xff, 0x80, 0x00]] {
                let want = (from.min(hay.len())..hay.len())
                    .find(|&i| needles.contains(&hay[i]))
                    .unwrap_or(hay.len());
                assert_eq!(find_any(hay, from, needles), want, "from {from}");
            }
        }
        // High-bit and 0x00/0x01 neighbours must not fake or hide a hit.
        let tricky = [0x80u8, 0x00, 0x01, 0xff, 0x22, 0x81, 0x01, 0x00, 0x23, 0x22];
        assert_eq!(find_any(&tricky, 0, [0x22]), 4);
        assert_eq!(find_any(&tricky, 5, [0x22]), 9);
        assert_eq!(find_any(&tricky, 0, [0x23]), 8);
    }

    #[test]
    fn the_offset_clamp_stops_at_the_last_character_boundary_within_the_bound() {
        // The `u32` clamp, exercised with a small bound instead of 4 GiB.
        assert_eq!(prefix_within("abcdef", 6), "abcdef");
        assert_eq!(prefix_within("abcdef", 100), "abcdef");
        assert_eq!(prefix_within("abcdef", 4), "abcd");
        assert_eq!(prefix_within("abcdef", 0), "");
        // `é` is two bytes at 2..4 and `€` three at 4..7: a bound inside
        // a character backs off to the character's first byte.
        let text = "abé€z";
        assert_eq!(prefix_within(text, 3), "ab");
        assert_eq!(prefix_within(text, 4), "abé");
        assert_eq!(prefix_within(text, 5), "abé");
        assert_eq!(prefix_within(text, 6), "abé");
        assert_eq!(prefix_within(text, 7), "abé€");
        assert_eq!(prefix_within(text, 8), text);
        assert_eq!(addressable(text), text);
        // Lexing the clamped text keeps every offset inside the bound.
        for max in 0..=text.len() {
            let clamped = prefix_within(text, max);
            let mut spans = Vec::new();
            assert_eq!(
                lex(clamped, 0..clamped.len(), usize::MAX, &mut spans),
                clamped.len()
            );
            assert!(spans.iter().all(|s| (s.start + s.len) as usize <= max));
        }
    }

    #[test]
    fn the_cap_stops_the_lexer_at_the_last_token() {
        let text = "a b c d e";
        let mut spans = Vec::new();
        assert_eq!(lex(text, 0..text.len(), 2, &mut spans), 3);
        assert_eq!(spans.len(), 2);
        spans.clear();
        assert_eq!(lex(text, 0..text.len(), 0, &mut spans), 0);
        assert!(spans.is_empty());
        assert_eq!(lex(text, 0..text.len(), usize::MAX, &mut spans), text.len());
        assert_eq!(spans.len(), 5);
    }
}
