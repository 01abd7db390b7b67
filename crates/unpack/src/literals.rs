//! String-literal extraction and the byte-level decoders shared by the
//! unpackers.

use kizzle_js::{Lexer, TokenClass};

/// A string literal found in a script, with its surrounding context. Both
/// texts borrow from the script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StringLiteral<'a> {
    /// The literal's content, without quotes.
    pub value: &'a str,
    /// Index of the token within the script's token stream.
    pub token_index: usize,
    /// The concrete text of the previous token, if any (used to recognize
    /// patterns like `split("...")`).
    pub previous: Option<&'a str>,
}

/// Extract every string literal of a script, in source order: one lexing
/// pass, no copy of any literal.
#[must_use]
pub fn string_literals(js: &str) -> Vec<StringLiteral<'_>> {
    let mut out = Vec::new();
    let mut previous = None;
    for (token_index, token) in Lexer::new(js).enumerate() {
        if token.class == TokenClass::String {
            out.push(StringLiteral {
                value: token.unquoted(),
                token_index,
                previous,
            });
        }
        previous = Some(token.text);
    }
    out
}

/// The characters a packer's encoded chunk may hold: ASCII digits plus
/// the characters of `extra` (its delimiter).
pub(crate) struct DigitsAnd<'a> {
    extra: &'a str,
    /// Byte membership when `extra` is ASCII (so is every accepted byte).
    ascii: Option<[bool; 256]>,
}

impl<'a> DigitsAnd<'a> {
    pub(crate) fn new(extra: &'a str) -> Self {
        let ascii = extra.is_ascii().then(|| {
            let mut allowed = [false; 256];
            for b in b'0'..=b'9' {
                allowed[usize::from(b)] = true;
            }
            for b in extra.bytes() {
                allowed[usize::from(b)] = true;
            }
            allowed
        });
        DigitsAnd { extra, ascii }
    }

    /// True if `value` is non-empty and consists only of ASCII digits and
    /// characters of `extra`.
    pub(crate) fn matches(&self, value: &str) -> bool {
        !value.is_empty()
            && match &self.ascii {
                Some(allowed) => value.bytes().all(|b| allowed[usize::from(b)]),
                None => value
                    .chars()
                    .all(|c| c.is_ascii_digit() || self.extra.contains(c)),
            }
    }
}

/// Decode a stream of decimal character codes separated by `delimiter` into
/// text. Empty segments (e.g. from a trailing delimiter) are skipped; a
/// segment reads as `str::parse::<u32>` reads it (one leading `+` allowed).
///
/// Returns `None` if any non-empty segment is not a valid character code.
///
/// One pass: the delimiter is matched leftmost-first as `str::split`
/// matches it, and each segment's value accumulates as its digits go by,
/// so a byte that no segment may hold ends the decode where it stands.
#[must_use]
pub(crate) fn decode_charcodes(encoded: &[u8], delimiter: &[u8]) -> Option<String> {
    let (&first, rest) = delimiter.split_first()?;
    let mut out = String::with_capacity(encoded.len() / (delimiter.len() + 2));
    // The segment read so far: its length in bytes, whether a digit has
    // followed the optional `+`, and its value (saturating: anything past
    // `u32::MAX` fails at the segment's end, as `parse` fails on it).
    let (mut len, mut digits, mut value) = (0usize, false, 0u64);
    let mut at = 0;
    loop {
        // The input's end, or a delimiter (a few bytes long: compared
        // byte by byte), ends the segment.
        let end = at == encoded.len();
        if end
            || (encoded[at] == first
                && encoded.len() - at > rest.len()
                && rest.iter().zip(&encoded[at + 1..]).all(|(d, e)| d == e))
        {
            if len > 0 {
                if !digits {
                    return None;
                }
                out.push(char::from_u32(u32::try_from(value).ok()?)?);
            }
            if end {
                return Some(out);
            }
            (len, digits, value) = (0, false, 0);
            at += delimiter.len();
            continue;
        }
        let b = encoded[at];
        if b.is_ascii_digit() {
            value = value.saturating_mul(10).saturating_add(u64::from(b - b'0'));
            digits = true;
        } else if !(b == b'+' && len == 0) {
            return None;
        }
        len += 1;
        at += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_are_extracted_in_order_with_context() {
        let js = r#"var a = "first"; b.split("second"); c("third");"#;
        let lits = string_literals(js);
        assert_eq!(lits.len(), 3);
        assert_eq!(lits[0].value, "first");
        assert_eq!(lits[1].value, "second");
        assert_eq!(lits[1].previous, Some("("));
        assert!(lits[0].token_index < lits[1].token_index);
    }

    #[test]
    fn is_digits_and_accepts_only_the_given_alphabet() {
        assert!(DigitsAnd::new("y6").matches("104y6101y6"));
        assert!(!DigitsAnd::new("y6").matches("104z6101"));
        assert!(!DigitsAnd::new("y6").matches(""));
        assert!(DigitsAnd::new("").matches("123456"));
        assert!(!DigitsAnd::new("").matches("12é"));
        assert!(DigitsAnd::new("é").matches("12é3"));
        assert!(!DigitsAnd::new("é").matches("12è3"));
    }

    #[test]
    fn decode_charcodes_roundtrip() {
        let encoded = b"104y6101y6108y6108y6111y6";
        assert_eq!(decode_charcodes(encoded, b"y6").as_deref(), Some("hello"));
        // Trailing delimiter and empty segments are tolerated.
        assert_eq!(
            decode_charcodes(b"72y6y673y6", b"y6").as_deref(),
            Some("HI")
        );
        // Overlapping delimiter occurrences split leftmost first.
        assert_eq!(decode_charcodes(b"72yyy73", b"yy").as_deref(), None);
        assert_eq!(decode_charcodes(b"72yy73", b"yy").as_deref(), Some("HI"));
    }

    #[test]
    fn decode_charcodes_rejects_garbage() {
        assert_eq!(decode_charcodes(b"10xy", b"y6"), None);
        assert_eq!(decode_charcodes(b"104", b""), None);
        assert_eq!(decode_charcodes(b"4294967295y6", b"y6"), None, "not a char");
        assert_eq!(decode_charcodes(b"4294967296y6", b"y6"), None, "overflow");
    }

    #[test]
    fn segments_parse_as_str_parse_does() {
        for segment in [
            "+",
            "-",
            "+0",
            "-0",
            "++1",
            "007",
            "4294967295",
            "4294967296",
            "1+",
            "1 ",
            "x",
            "+65",
        ] {
            let parsed = segment
                .parse::<u32>()
                .ok()
                .and_then(char::from_u32)
                .map(String::from);
            for encoded in [segment.to_string(), format!("y6{segment}y6y6")] {
                assert_eq!(
                    decode_charcodes(encoded.as_bytes(), b"y6"),
                    parsed,
                    "{encoded:?}"
                );
            }
        }
    }
}
