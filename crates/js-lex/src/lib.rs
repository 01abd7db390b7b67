//! # kizzle-js — JavaScript tokenization for the Kizzle signature compiler
//!
//! Kizzle (Stock, Livshits, Zorn — DSN 2016) abstracts every incoming
//! JavaScript sample into a stream of *token classes* before clustering.
//! This removes the superficial noise exploit-kit packers introduce
//! (randomized identifiers, rotated string delimiters, renamed helpers)
//! while preserving the structural shape of the program, which is what the
//! clustering and signature-generation stages operate on (paper §III-A,
//! Fig. 8). The deployed signatures are matched against token streams too
//! (§III-C), so this crate sits on both hot paths: every compiled sample
//! and every scanned page goes through it.
//!
//! ## The span model
//!
//! A token is a [`Span`] — `(class, u32 start, u32 len)`, 12 bytes — over
//! **one text buffer**; the lexer copies nothing and allocates nothing per
//! token. Text is only ever *viewed*:
//!
//! * [`Tokens`] is the borrowed view — the text plus a span slice. It is
//!   `Copy`, indexable ([`Tokens::at`], [`Tokens::window`]) and iterable,
//!   yielding [`Token`]s (`class`, `text: &str`, `offset`) by value. Every
//!   consumer of tokens takes this one type.
//! * [`TokenStream`] is the owned form the compiler keeps per sample: one
//!   reference-counted buffer holding the bytes its tokens cover, plus the
//!   spans. `stream.tokens()` lends the view.
//! * [`lex_document`] is the scan path's entry point: it lexes into a
//!   caller-kept span buffer and returns a view straight over the request
//!   bytes, so a steady-state scan allocates nothing.
//!
//! There is one lexer core ([`lexer`]): a 256-entry byte-class table for
//! dispatch, multi-character punctuation chosen by first byte, keywords by
//! length, and string/regex/comment bodies skipped 32 bytes at a time.
//! It is one function that inlines whole into its two drivers — the span
//! loop behind every `tokenize*` entry point and [`lex_document`], and
//! [`Lexer`] — so the lexer's position never leaves a register between
//! tokens (the module doc says why that matters).
//! Script bodies of an HTML document are found **in place** by a
//! case-insensitive byte search ([`html`]) — a Kizzle *sample* is a full
//! HTML page — and a token cap stops both the lexer and that tag walk, so
//! work follows the bytes up to the last token kept.
//!
//! [`TokenClass`] is the abstract alphabet; [`Lexer`] is the same core as
//! an iterator, for callers that want the diagnostics
//! ([`Lexer::errors`]) the tokenizing entry points never build.
//!
//! ## Example
//!
//! ```
//! use kizzle_js::{tokenize, TokenClass};
//!
//! let stream = tokenize(r#"var Euur1V = this["l9D"]("ev#333399al");"#);
//! let classes: Vec<TokenClass> = stream.classes().to_vec();
//! assert_eq!(classes[0], TokenClass::Keyword);      // var
//! assert_eq!(classes[1], TokenClass::Identifier);   // Euur1V
//! assert_eq!(classes[2], TokenClass::Punctuation);  // =
//! assert!(classes.contains(&TokenClass::String));   // "l9D"
//! assert_eq!(stream.tokens().at(5).unquoted(), "l9D");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod html;
pub mod lexer;
pub mod stream;
pub mod token;

pub use html::{extract_scripts, lex_document, tokenize_document, tokenize_document_capped};
pub use lexer::{LexError, Lexer};
pub use stream::TokenStream;
pub use token::{Span, Token, TokenClass, Tokens};

/// Tokenize a JavaScript source string into a [`TokenStream`].
///
/// Unlexable bytes are skipped (the Kizzle pipeline must be robust to the
/// malformed and adversarial input found in grayware); this function never
/// fails. Use [`Lexer`] directly if you need error reporting.
///
/// # Examples
///
/// ```
/// let stream = kizzle_js::tokenize("var x = 1 + 2;");
/// assert_eq!(stream.len(), 7);
/// ```
pub fn tokenize(source: &str) -> TokenStream {
    let source = lexer::addressable(source);
    let mut spans = lexer::span_buffer(source);
    lexer::lex(source, 0..source.len(), usize::MAX, &mut spans);
    Tokens::new(source, &spans, 0).into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_is_lenient_on_garbage() {
        let stream = tokenize("var x = \u{0001}\u{0002} 1;");
        assert!(stream.len() >= 5);
    }

    #[test]
    fn paper_figure_8_tokenization() {
        // Fig. 8 of the paper tokenizes:
        //   var Euur1V = this["l9D"]("ev#333399al")
        let stream = tokenize(r#"var Euur1V = this["l9D"]("ev#333399al")"#);
        let got: Vec<TokenClass> = stream.classes().to_vec();
        use TokenClass::*;
        assert_eq!(
            got,
            vec![
                Keyword,     // var
                Identifier,  // Euur1V
                Punctuation, // =
                Identifier,  // this
                Punctuation, // [
                String,      // "l9D"
                Punctuation, // ]
                Punctuation, // (
                String,      // "ev#333399al"
                Punctuation, // )
            ]
        );
    }
}
