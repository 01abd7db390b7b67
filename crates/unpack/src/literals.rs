//! String-literal extraction shared by the unpackers.

use kizzle_js::{tokenize, TokenClass};

/// A string literal found in a script, with its surrounding context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StringLiteral {
    /// The literal's content, without quotes.
    pub value: String,
    /// Index of the token within the script's token stream.
    pub token_index: usize,
    /// The concrete text of the previous non-string token, if any (used to
    /// recognize patterns like `split("...")`).
    pub previous: Option<String>,
}

/// Extract every string literal of a script, in source order.
#[must_use]
pub fn string_literals(js: &str) -> Vec<StringLiteral> {
    let stream = tokenize(js);
    let tokens = stream.tokens();
    let mut out = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if tok.class == TokenClass::String {
            out.push(StringLiteral {
                value: tok.unquoted().to_string(),
                token_index: i,
                previous: i.checked_sub(1).map(|p| tokens.at(p).text.to_string()),
            });
        }
    }
    out
}

/// True if `value` consists only of ASCII digits and characters drawn from
/// `extra`.
#[must_use]
pub fn is_digits_and(value: &str, extra: &str) -> bool {
    !value.is_empty()
        && value
            .chars()
            .all(|c| c.is_ascii_digit() || extra.contains(c))
}

/// Decode a stream of decimal character codes separated by `delimiter` into
/// text. Empty segments (e.g. from a trailing delimiter) are skipped.
///
/// Returns `None` if any non-empty segment is not a valid character code.
#[must_use]
pub fn decode_charcodes(encoded: &str, delimiter: &str) -> Option<String> {
    if delimiter.is_empty() {
        return None;
    }
    let mut out = String::with_capacity(encoded.len() / (delimiter.len() + 2));
    for segment in encoded.split(delimiter) {
        if segment.is_empty() {
            continue;
        }
        let code: u32 = segment.parse().ok()?;
        out.push(char::from_u32(code)?);
    }
    Some(out)
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
        assert_eq!(lits[1].previous.as_deref(), Some("("));
        assert!(lits[0].token_index < lits[1].token_index);
    }

    #[test]
    fn is_digits_and_accepts_only_the_given_alphabet() {
        assert!(is_digits_and("104y6101y6", "y6"));
        assert!(!is_digits_and("104z6101", "y6"));
        assert!(!is_digits_and("", "y6"));
        assert!(is_digits_and("123456", ""));
    }

    #[test]
    fn decode_charcodes_roundtrip() {
        let encoded = "104y6101y6108y6108y6111y6";
        assert_eq!(decode_charcodes(encoded, "y6").as_deref(), Some("hello"));
        // Trailing delimiter and empty segments are tolerated.
        assert_eq!(decode_charcodes("72y6y673y6", "y6").as_deref(), Some("HI"));
    }

    #[test]
    fn decode_charcodes_rejects_garbage() {
        assert_eq!(decode_charcodes("10xy", "y6"), None);
        assert_eq!(decode_charcodes("104", ""), None);
        assert_eq!(decode_charcodes("4294967295y6", "y6"), None, "not a char");
    }
}
