//! Inline JavaScript in HTML documents: where the script bodies are, and
//! tokenizing them in place.
//!
//! A Kizzle *sample* is "a complete HTML document, including all inline
//! script elements" (paper §III). The telemetry source captured full pages,
//! so the first processing step is finding every inline `<script>` body
//! (inline event handlers are not extracted) in the markup.
//!
//! The walk is deliberately tag-level and lenient rather than a full HTML5
//! parser: grayware markup is frequently malformed, and all we need is the
//! script payloads. "Where are the script bodies" has one definition,
//! `ScriptRanges`: a case-insensitive byte search that yields ranges of
//! the document and copies nothing. [`extract_scripts`] and the tokenizing
//! entry points are both built on it.

use crate::lexer::{addressable, find_any, lex, span_buffer};
use crate::stream::TokenStream;
use crate::token::{Span, Tokens};
use std::ops::Range;

/// One inline script block found in a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InlineScript<'a> {
    /// Byte offset of the script body within the original document.
    pub offset: usize,
    /// The raw script body (between `<script ...>` and `</script>`).
    pub body: &'a str,
    /// Value of the `src` attribute if present (external scripts have no
    /// body to analyze, but the URL itself is useful for ground-truthing).
    pub src: Option<&'a str>,
}

/// Byte ranges of one `<script>` element.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ScriptRange {
    /// `<script ...>`, through the closing `>`.
    open_tag: Range<usize>,
    /// Between the opening tag and `</script` (or the end of the document
    /// when the element is never closed); empty for `<script ... />`.
    body: Range<usize>,
}

/// Position of the first case-insensitive occurrence of `tag` (lowercase
/// ASCII, starting with `<`) at or after `from`.
fn find_tag(bytes: &[u8], from: usize, tag: &[u8]) -> Option<usize> {
    let mut pos = from;
    loop {
        let at = find_any(bytes, pos, [b'<']);
        let candidate = bytes.get(at..at + tag.len())?;
        if candidate.eq_ignore_ascii_case(tag) {
            return Some(at);
        }
        pos = at + 1;
    }
}

/// The `<script>` elements of a document, in order, found lazily: nothing
/// past the element last returned has been looked at.
#[derive(Debug, Clone)]
struct ScriptRanges<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ScriptRanges<'a> {
    fn new(document: &'a str) -> Self {
        ScriptRanges {
            bytes: document.as_bytes(),
            pos: 0,
        }
    }
}

impl Iterator for ScriptRanges<'_> {
    type Item = ScriptRange;

    fn next(&mut self) -> Option<ScriptRange> {
        let bytes = self.bytes;
        let end = bytes.len();
        let open_tag = find_tag(bytes, self.pos, b"<script").and_then(|tag_start| {
            let tag_end = find_any(bytes, tag_start, [b'>']);
            (tag_end < end).then_some((tag_start, tag_end))
        });
        // No further tag, or an opening tag that never closes: the walk ends.
        let Some((tag_start, tag_end)) = open_tag else {
            self.pos = end;
            return None;
        };
        let body_start = tag_end + 1;
        let (body_end, next_pos) = if bytes[tag_end - 1] == b'/' {
            // Self-closing script tag.
            (body_start, body_start)
        } else {
            match find_tag(bytes, body_start, b"</script") {
                Some(close) => (close, (find_any(bytes, close, [b'>']) + 1).min(end)),
                None => (end, end),
            }
        };
        self.pos = next_pos;
        Some(ScriptRange {
            open_tag: tag_start..body_start,
            body: body_start..body_end,
        })
    }
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
pub fn extract_scripts(html: &str) -> Vec<InlineScript<'_>> {
    ScriptRanges::new(html)
        .map(|script| InlineScript {
            offset: script.body.start,
            body: &html[script.body],
            src: extract_attr(&html[script.open_tag], "src"),
        })
        .collect()
}

/// Pull a (single- or double-quoted, or unquoted) attribute value out of an
/// opening tag. Case-insensitive on the attribute name.
fn extract_attr<'a>(tag: &'a str, name: &str) -> Option<&'a str> {
    let bytes = tag.as_bytes();
    let name = name.as_bytes();
    let mut search = 0;
    loop {
        let at = (search..(bytes.len() + 1).checked_sub(name.len())?)
            .find(|&at| bytes[at..at + name.len()].eq_ignore_ascii_case(name))?;
        // Must be preceded by whitespace to be an attribute name.
        let prev_ok = at == 0 || bytes[at - 1].is_ascii_whitespace();
        let after = at + name.len();
        let rest = tag[after..].trim_start();
        if prev_ok && rest.starts_with('=') {
            let value_part = rest[1..].trim_start();
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
            return Some(value);
        }
        search = after;
    }
}

/// Tokenize a document into `spans` and lend the tokens back as a view
/// over `document` itself — the allocation-free form of
/// [`tokenize_document_capped`], for callers that keep a span buffer
/// across documents (the scan path). `spans` is cleared first.
///
/// Also returns where the lexer stopped: the byte offset one past the
/// `cap`-th token, or the end of the last script body lexed. The cap stops
/// the work, not just the output — no byte of a script body past that
/// offset has been lexed, and no `<script>` element after the one holding
/// the `cap`-th token has been looked for.
pub fn lex_document<'a>(
    document: &'a str,
    cap: usize,
    spans: &'a mut Vec<Span>,
) -> (Tokens<'a>, usize) {
    let document = addressable(document);
    spans.clear();
    let mut scripts = ScriptRanges::new(document);
    let mut next = scripts.next();
    let mut end = 0;
    if next.is_none() {
        // Not HTML at all (no `<script` tag): bare JavaScript — the
        // grayware feed contains both.
        end = lex(document, 0..document.len(), cap, spans);
    }
    while let Some(script) = next {
        // Each body is a script of its own: lexing restarts in expression
        // position.
        if !document[script.body.clone()].trim().is_empty() {
            end = lex(document, script.body, cap, spans);
        }
        // The cap stops the tag walk too.
        next = if spans.len() < cap {
            scripts.next()
        } else {
            None
        };
    }
    (Tokens::new(document, spans, 0), end)
}

/// Tokenize every inline script in an HTML document and concatenate the
/// results into a single [`TokenStream`].
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
pub fn tokenize_document(document: &str) -> TokenStream {
    tokenize_document_capped(document, usize::MAX)
}

/// [`tokenize_document`] truncated to a `cap`-token prefix — the one
/// definition of the cap semantics shared by the compiler's ingest
/// tokenization and the matcher's scan path, which must agree on it for
/// compiled signatures to fire on scanned documents. Lexing stops at the
/// `cap`-th token (see [`lex_document`]).
#[must_use]
pub fn tokenize_document_capped(document: &str, cap: usize) -> TokenStream {
    let mut spans = span_buffer(document);
    lex_document(document, cap, &mut spans).0.into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_single_inline_script() {
        let html = "<html><head><script type=\"text/javascript\">var a = 1;</script></head></html>";
        let s = extract_scripts(html);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].body, "var a = 1;");
        assert_eq!(s[0].src, None);
    }

    #[test]
    fn extracts_multiple_scripts_in_order() {
        let html = "<script>first()</script><p>text</p><script>second()</script>";
        let s = extract_scripts(html);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].body, "first()");
        assert_eq!(s[1].body, "second()");
        assert!(s[0].offset < s[1].offset);
    }

    #[test]
    fn external_script_src_is_captured() {
        let html = r#"<script src="http://evil.example/kit.js"></script>"#;
        let s = extract_scripts(html);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].body, "");
        assert_eq!(s[0].src, Some("http://evil.example/kit.js"));
    }

    #[test]
    fn src_single_quoted_and_unquoted() {
        let s = extract_scripts("<script src='a.js'></script>");
        assert_eq!(s[0].src, Some("a.js"));
        let s = extract_scripts("<script src=b.js></script>");
        assert_eq!(s[0].src, Some("b.js"));
    }

    #[test]
    fn case_insensitive_tags() {
        let html = "<SCRIPT>var A=1;</SCRIPT>";
        let s = extract_scripts(html);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].body, "var A=1;");
    }

    #[test]
    fn unterminated_script_runs_to_end() {
        let html = "<script>var a = 1; // no closing tag";
        let s = extract_scripts(html);
        assert_eq!(s.len(), 1);
        assert!(s[0].body.contains("var a = 1;"));
    }

    #[test]
    fn self_closing_script_has_empty_body() {
        let s = extract_scripts(r#"<script src="x.js"/> <script>y()</script>"#);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].body, "");
        assert_eq!(s[1].body, "y()");
    }

    #[test]
    fn script_bodies_preserve_original_case() {
        let html = "<script>VAR_NAME = 'MixedCase';</script>";
        let s = extract_scripts(html);
        assert!(s[0].body.contains("MixedCase"));
    }

    #[test]
    fn no_scripts_in_plain_html() {
        assert!(extract_scripts("<html><body>hello</body></html>").is_empty());
    }

    #[test]
    fn tokenize_document_bare_js_fallback() {
        let stream = tokenize_document("function f() { return 1; }");
        assert!(stream.classes().contains(&crate::TokenClass::Keyword));
    }

    #[test]
    fn tokenize_document_concatenates_scripts() {
        let a = tokenize_document("<script>var a=1;</script>");
        let b = tokenize_document("<script>var a=1;</script><script>var b=2;</script>");
        assert!(b.len() > a.len());
    }

    #[test]
    fn script_inside_commentish_markup_is_still_found() {
        // Lenient extraction intentionally does not honor HTML comments:
        // kits routinely hide script tags inside bogus comment structures.
        let html = "<!-- <script>x()</script> -->";
        let s = extract_scripts(html);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn document_token_offsets_are_document_absolute() {
        let doc = "<script>a</script><p><script>b</script>";
        let stream = tokenize_document(doc);
        let offsets: Vec<usize> = stream.tokens().iter().map(|t| t.offset as usize).collect();
        assert_eq!(
            offsets,
            vec![doc.find('a').unwrap(), doc.find("b<").unwrap()]
        );
    }

    #[test]
    fn the_tag_walk_stops_with_the_cap() {
        // The second element is never closed; reaching it would put the
        // lexer's end at the end of the document.
        let doc = "<script>a b</script><script>c d e f";
        let mut spans = Vec::new();
        let (tokens, end) = lex_document(doc, 2, &mut spans);
        assert_eq!(tokens.len(), 2);
        assert_eq!(end, doc.find(" b").unwrap() + 2);
        let (tokens, end) = lex_document(doc, 3, &mut spans);
        assert_eq!(tokens.len(), 3);
        assert_eq!(end, doc.rfind('c').unwrap() + 1);
    }
}
