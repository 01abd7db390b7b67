//! Unpacker for the RIG packer (paper Fig. 4(a)).
//!
//! RIG accumulates the payload's character codes, separated by a short
//! randomized delimiter, through repeated `collect("...")` calls, then
//! splits and rebuilds the payload with `String.fromCharCode`. The unpacker
//! statically re-performs that computation: find the delimiter, gather the
//! encoded chunks, join, split and decode.

use crate::literals::{decode_charcodes, string_literals, DigitsAnd, StringLiteral};
use crate::{Result, UnpackError};

/// Minimum length for a string literal to be considered an encoded payload
/// chunk rather than a decorative constant.
const MIN_CHUNK_LEN: usize = 20;

/// Maximum length of the delimiter literal.
const MAX_DELIM_LEN: usize = 8;

/// Unpack a RIG-packed script.
///
/// # Errors
///
/// Returns [`UnpackError::MissingComponent`] if no delimiter or no encoded
/// chunks are present, and [`UnpackError::MalformedEncoding`] if the chunks
/// do not decode to character codes.
pub fn unpack(js: &str) -> Result<String> {
    decode(&string_literals(js))
}

/// [`unpack`] over a script's already-extracted string literals.
pub(crate) fn decode(literals: &[StringLiteral<'_>]) -> Result<String> {
    // The delimiter is the first short, non-empty literal that precedes the
    // encoded chunks (RIG declares `var delim = "y6";` before the first
    // collect() call).
    let delimiter = literals
        .iter()
        .map(|lit| lit.value)
        .find(|value| {
            !value.is_empty()
                && value.len() <= MAX_DELIM_LEN
                && !value.as_bytes()[0].is_ascii_digit()
        })
        .ok_or(UnpackError::MissingComponent("RIG delimiter"))?;

    // Encoded chunks are the string arguments of the accumulator calls
    // (`collect("...")`): selected by call context rather than length so
    // that a short trailing chunk is never dropped.
    let alphabet = DigitsAnd::new(delimiter);
    let mut encoded = Vec::new();
    for lit in literals {
        if lit.previous == Some("(")
            && alphabet.matches(lit.value)
            && (lit.value.len() >= MIN_CHUNK_LEN || lit.value.bytes().any(|b| b.is_ascii_digit()))
        {
            encoded.extend_from_slice(lit.value.as_bytes());
        }
    }
    if encoded.is_empty() {
        return Err(UnpackError::MissingComponent("RIG encoded chunks"));
    }

    decode_charcodes(&encoded, delimiter.as_bytes()).ok_or_else(|| {
        UnpackError::MalformedEncoding(format!(
            "RIG chunks did not decode with delimiter {delimiter:?}"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-written miniature of the paper's Fig. 4(a).
    fn figure_4a(payload: &str, delim: &str) -> String {
        let encoded: String = payload
            .chars()
            .map(|c| format!("{}{delim}", c as u32))
            .collect();
        let (a, b) = encoded.split_at(encoded.len() / 2);
        format!(
            r#"var buffer="";
var delim="{delim}";
function collect(text) {{ buffer += text; }}
collect("{a}");
collect("{b}");
var pieces = buffer.split(delim);
var screlem = document.createElement("script");
for (var i=0; i<pieces.length; i++) {{ screlem.text += String.fromCharCode(pieces[i]); }}
document.body.appendChild(screlem);"#
        )
    }

    #[test]
    fn unpacks_the_figure_4a_shape() {
        let payload = "var x = document.title; eval(x); function go() { return 1; }";
        let js = figure_4a(payload, "y6");
        assert_eq!(unpack(&js).unwrap(), payload);
    }

    #[test]
    fn works_with_multi_character_delimiters() {
        let payload = "function f(a, b) { return a + b; }";
        for delim in ["y6", "p3k", "zz4", "qX"] {
            let js = figure_4a(payload, delim);
            assert_eq!(unpack(&js).unwrap(), payload, "delimiter {delim}");
        }
    }

    #[test]
    fn missing_chunks_is_an_error() {
        let err = unpack("var delim=\"y6\"; var other = 1;").unwrap_err();
        assert_eq!(err, UnpackError::MissingComponent("RIG encoded chunks"));
    }

    #[test]
    fn missing_delimiter_is_an_error() {
        let err = unpack("var a = 1 + 2;").unwrap_err();
        assert_eq!(err, UnpackError::MissingComponent("RIG delimiter"));
    }
}
