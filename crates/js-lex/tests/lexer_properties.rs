//! Property-based tests for the JavaScript lexer.

use kizzle_js::{tokenize, tokenize_document, Lexer, TokenClass};
use proptest::prelude::*;

proptest! {
    /// The lexer never panics on arbitrary input and every token's text is a
    /// substring of the source at its reported offset.
    #[test]
    fn lexer_total_and_offsets_consistent(src in "\\PC*") {
        let tokens: Vec<_> = Lexer::new(&src).collect();
        for t in &tokens {
            let offset = t.offset as usize;
            prop_assert!(offset <= src.len());
            prop_assert!(src[offset..].starts_with(t.text),
                "token {:?} not found at offset {}", t.text, t.offset);
        }
    }

    /// Token offsets are strictly increasing, so tokens never overlap —
    /// within one script, and across the scripts of a document (offsets are
    /// document-absolute, not relative to the enclosing script body).
    #[test]
    fn token_offsets_strictly_increase(src in "\\PC{0,400}") {
        let tokens: Vec<_> = Lexer::new(&src).collect();
        for pair in tokens.windows(2) {
            prop_assert!(pair[0].offset as usize + pair[0].text.len() <= pair[1].offset as usize);
        }
        let doc = format!("<html><script>{src}</script><p>x</p><SCRIPT type=a>{src}</SCRIPT>");
        let stream = tokenize_document(&doc);
        let tokens: Vec<_> = stream.tokens().iter().collect();
        for t in &tokens {
            prop_assert!(doc[t.offset as usize..].starts_with(t.text));
        }
        for pair in tokens.windows(2) {
            prop_assert!(pair[0].offset as usize + pair[0].text.len() <= pair[1].offset as usize);
        }
    }

    /// Tokenizing the space-joined token texts reproduces the same abstract
    /// class sequence (abstraction is a fixed point under re-lexing), for
    /// well-formed identifier/number/punctuation programs.
    #[test]
    fn abstraction_fixed_point(words in prop::collection::vec("[a-z]{1,8}|[0-9]{1,4}|[=+;(),]", 0..40)) {
        let src = words.join(" ");
        let first = tokenize(&src);
        let second = tokenize(&first.joined());
        prop_assert_eq!(first.classes(), second.classes());
    }

    /// String literals always lex as a single String token regardless of the
    /// (quote-free) content.
    #[test]
    fn string_literals_are_atomic(content in "[a-zA-Z0-9#@ _.%-]{0,64}") {
        let src = format!("x = \"{content}\";");
        let stream = tokenize(&src);
        let strings: Vec<_> = stream
            .tokens()
            .iter()
            .filter(|t| t.class == TokenClass::String)
            .collect();
        prop_assert_eq!(strings.len(), 1);
        prop_assert_eq!(strings[0].unquoted(), content.as_str());
    }

    /// HTML document extraction + tokenization never panics, and the number
    /// of tokens equals the sum over the embedded scripts.
    #[test]
    fn document_tokenization_total(bodies in prop::collection::vec("[a-z0-9 =+;()]{0,40}", 0..5)) {
        let html: String = bodies
            .iter()
            .map(|b| format!("<script>{b}</script>"))
            .collect();
        let doc_stream = tokenize_document(&html);
        let expected: usize = bodies.iter().map(|b| tokenize(b).len()).sum();
        if !bodies.is_empty() {
            prop_assert_eq!(doc_stream.len(), expected);
        }
    }

    /// Class codes always round-trip through `from_code`.
    #[test]
    fn class_codes_roundtrip(src in "\\PC{0,200}") {
        for code in tokenize(&src).class_codes() {
            prop_assert!(TokenClass::from_code(code).is_some());
        }
    }
}
