//! The span lexer against the seed lexer, input by input.
//!
//! `common/reference.rs` is the tokenizer this crate shipped before tokens
//! became spans; it defines the `(class, text)` sequence every entry point
//! must keep producing. The generators below aim at the places a
//! table-driven, wide-skipping, in-place lexer can drift from a
//! byte-at-a-time one: quote and escape handling (a backslash before a
//! multi-byte character), comment openers, mixed-case and malformed script
//! tags, every prefix of every multi-character operator, number edge cases
//! and the whitespace byte that is not whitespace (`\x0b`).

mod common {
    pub mod reference;
}

use common::reference;
use kizzle_js::{
    lex_document, tokenize, tokenize_document, tokenize_document_capped, Lexer, Tokens,
};
use proptest::prelude::*;

/// The product's tokens equal the oracle's, as `(class, text)`.
fn assert_same(new: Tokens<'_>, old: &[reference::Token], input: &str) {
    let new: Vec<_> = new.iter().map(|t| (t.class, t.text)).collect();
    let old: Vec<_> = old.iter().map(|t| (t.class, t.text.as_str())).collect();
    assert_eq!(new, old, "input {input:?}");
}

/// Every entry point against its seed counterpart on one input.
fn check_all_entry_points(input: &str) {
    // Bare JavaScript: `tokenize` and the `Lexer` iterator, the latter
    // including offsets and the diagnostics it keeps.
    let old = reference::tokenize(input);
    assert_same(tokenize(input).tokens(), &old, input);
    let mut new_lexer = Lexer::new(input);
    let new: Vec<_> = (&mut new_lexer).collect();
    assert_eq!(
        new.iter()
            .map(|t| (t.class, t.text, t.offset as usize))
            .collect::<Vec<_>>(),
        old.iter()
            .map(|t| (t.class, t.text.as_str(), t.offset))
            .collect::<Vec<_>>(),
        "input {input:?}"
    );
    let mut old_lexer = reference::Lexer::new(input);
    while old_lexer.next().is_some() {}
    assert_eq!(
        new_lexer
            .errors()
            .iter()
            .map(|e| (e.offset, e.message.as_str()))
            .collect::<Vec<_>>(),
        old_lexer
            .errors()
            .iter()
            .map(|e| (e.offset, e.message.as_str()))
            .collect::<Vec<_>>(),
        "input {input:?}"
    );

    // Documents: where the script bodies are, and what they lex to.
    let old = reference::tokenize_document(input);
    let new = tokenize_document(input);
    assert_same(new.tokens(), &old, input);
    for token in new.tokens() {
        // Offsets are document-absolute.
        assert!(input[token.offset as usize..].starts_with(token.text));
    }
    let new_scripts: Vec<_> = kizzle_js::extract_scripts(input)
        .into_iter()
        .map(|s| (s.offset, s.body.to_string(), s.src.map(str::to_string)))
        .collect();
    let old_scripts: Vec<_> = reference::extract_scripts(input)
        .into_iter()
        .map(|s| (s.offset, s.body, s.src))
        .collect();
    assert_eq!(new_scripts, old_scripts, "input {input:?}");
}

/// `capped(doc, k)` is the first `k` tokens of `uncapped(doc)`, and the
/// lexer's end position never passes the `k`-th token.
fn check_caps(input: &str, caps: &[usize]) {
    let full = reference::tokenize_document(input);
    let mut spans = Vec::new();
    for &cap in caps {
        let capped = tokenize_document_capped(input, cap);
        let keep = cap.min(full.len());
        assert_same(capped.tokens(), &full[..keep], input);
        let (view, end) = lex_document(input, cap, &mut spans);
        assert_same(view, &full[..keep], input);
        if let (true, Some(last)) = (cap <= full.len(), view.iter().next_back()) {
            assert_eq!(end, last.offset as usize + last.text.len(), "{input:?}");
        }
        assert!(end <= input.len());
    }
}

/// Pieces that are each harmless and jointly hostile.
#[rustfmt::skip]
const FRAGMENTS: &[&str] = &[
    // Quotes, escapes (also before multi-byte characters), newlines.
    "\"", "'", "`", "\\", "\\\\", "\\\"", "\\'", "\\é", "\\€", "\\\u{ffff}", "\\\n", "\n", "\r\n",
    // Comment openers and closers; `/` in every role.
    "/", "//", "/*", "*/", "/**/", "/=", "/[/]/g", "/a/", "[", "]",
    // Script tags: mixed case, spaces, self-closing, unterminated.
    "<script", "<script>", "<SCRIPT>", "<ScRiPt >", "<script src=a.js>", "<script SRC = 'b' >",
    "<script/>", "<script src=\"x\" />", "</script", "</script>", "</ScRiPt >", "</SCRIPT>",
    "<scrip", "<scriptx>", "<", ">", "</", "/>",
    // Every multi-character operator and its prefixes.
    ">>>=", ">>>", ">>=", ">>", ">=", "===", "==", "=>", "=", "!==", "!=", "!", "**=", "**", "*=",
    "*", "...", "..", ".", "<<=", "<<", "<=", "&&=", "&&", "&=", "&", "||=", "||", "|=", "|",
    "??=", "??", "?=", "?", "++", "+=", "+", "--", "-=", "-", "%=", "%", "^=", "^", "~", ":", "@",
    "#", ";", ",", "(", ")", "{", "}",
    // Numbers at their edges.
    "0", "1", "9", "1e", "1e+", "1e+5", "1E-", "2.5e-3", ".5", "1.", "0x", "0X1f", "0xFg", "1..2",
    "1ex",
    // Whitespace — and `\x0b`, which is not.
    " ", "\t", "\x0b", "\x0c", "\r", "\u{a0}", "\u{2028}", "\u{3000}",
    // Words, keywords, near-keywords, non-ASCII.
    "a", "Z", "_", "$", "var", "Var", "return", "instanceof", "instanceoff", "this", "do", "in",
    "typeof", "é", "ü", "\u{ffff}", "名前",
    // Bytes that start nothing.
    "\x00", "\x01", "\x7f",
];

fn fragment_soup() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..FRAGMENTS.len(), 0..24)
        .prop_map(|picks| picks.into_iter().map(|i| FRAGMENTS[i]).collect())
}

fn byte_soup() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..160)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn printable_text_lexes_like_the_seed(src in "\\PC*") {
        check_all_entry_points(&src);
    }

    #[test]
    fn lossy_byte_soup_lexes_like_the_seed(src in byte_soup()) {
        check_all_entry_points(&src);
    }

    #[test]
    fn capped_is_a_prefix_of_uncapped(src in fragment_soup(), k in 0usize..40) {
        check_caps(&src, &[0, k, 900, usize::MAX]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn adversarial_fragments_lex_like_the_seed(src in fragment_soup()) {
        check_all_entry_points(&src);
    }
}

/// Long bodies put the block skips (strings, comments, regexes, the tag
/// search) through every alignment and through their scalar tails: up to
/// 72 bytes of padding, so each body crosses at least two 32-byte blocks
/// and each needle lands at every offset within one.
#[test]
fn wide_skips_agree_with_the_seed_at_every_alignment() {
    for pad in 0..=72 {
        let pad = "x".repeat(pad);
        for body in [
            format!("a = \"{pad}\\\"{pad}\\é{pad}\" + '{pad}\n{pad}' + `{pad}\n{pad}\\`{pad}`;"),
            format!("/*{pad}*{pad}**/ b /{pad}[{pad}/]{pad}\\/{pad}/gi; // {pad}\n c /* {pad}"),
            format!(
                "<p {pad}><{pad}<ScRiPt {pad}>d<{pad}</scrip{pad}</SCRIPT {pad}>{pad}<script>e"
            ),
            format!("\"{pad}"),
            format!("= /{pad}"),
            format!("= /{pad}\n/"),
        ] {
            check_all_entry_points(&body);
            check_caps(&body, &[0, 1, 2, 5, usize::MAX]);
        }
    }
}

/// The cap bounds the work, not just the output: with the cap at the
/// number of tokens in the first script, megabytes of further scripts are
/// never reached — neither lexed nor searched for tags.
#[test]
fn a_capped_document_is_not_read_past_its_last_token() {
    let first = "<html><script>var a = f(1, 'x');</script>";
    let k = tokenize_document(first).len();
    assert_eq!(k, 10);
    let mut doc = String::from(first);
    while doc.len() < 4 << 20 {
        doc.push_str("<p>filler</p><script>g(2); /* more */ h = `t`;</script>\n");
    }
    let mut spans = Vec::new();
    let last_token_end = first.rfind(';').unwrap() + 1;

    let (tokens, end) = lex_document(&doc, k, &mut spans);
    assert_eq!(tokens.len(), k);
    assert_eq!(end, last_token_end);
    // One token fewer stops one token earlier, inside the first script.
    let (_, end) = lex_document(&doc, k - 1, &mut spans);
    assert_eq!(end, last_token_end - 1);
    // One more reaches the second script and stops at its first token.
    let (tokens, end) = lex_document(&doc, k + 1, &mut spans);
    assert_eq!(tokens.len(), k + 1);
    assert_eq!(end, doc.find("g(2)").unwrap() + 1);
    // Uncapped reads it all.
    let (tokens, end) = lex_document(&doc, usize::MAX, &mut spans);
    assert!(tokens.len() > 100_000);
    assert_eq!(end, doc.rfind("</script>").unwrap());

    // The same for one huge bare-JavaScript body.
    let bare = "q(1); ".repeat(1 << 18);
    let (tokens, end) = lex_document(&bare, 5, &mut spans);
    assert_eq!(tokens.len(), 5);
    assert_eq!(end, 5);
    // The owned form keeps only what its tokens cover.
    assert_eq!(tokenize_document_capped(&bare, 5).joined(), "q ( 1 ) ;");
}
