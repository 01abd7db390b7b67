//! Unpacker for the Nuclear packer (paper Fig. 4(b)).
//!
//! Nuclear encodes the payload as fixed-width decimal indexes into a
//! per-response shuffled `cryptkey` string; characters outside the key
//! (whitespace, quotes, backslashes) are escaped as an out-of-range index
//! followed by a three-digit character code. The August 12, 2014 semantic
//! packer change widened the index from two to three digits, so the
//! unpacker tries both widths and keeps the decode that looks like
//! JavaScript — which is exactly how an analyst-maintained unpacker handles
//! a packer revision.

use crate::literals::{string_literals, StringLiteral};
use crate::{looks_like_javascript, Result, UnpackError};

/// Length of the shuffled key emitted by the packer: the printable ASCII
/// alphabet minus the double quote and backslash.
const KEY_LEN: usize = 92;

/// Minimum number of digits for a literal to be considered the encoded
/// payload.
const MIN_PAYLOAD_LEN: usize = 64;

/// Unpack a Nuclear-packed script.
///
/// # Errors
///
/// Returns [`UnpackError::MissingComponent`] if the cryptkey or encoded
/// payload cannot be found, and [`UnpackError::MalformedEncoding`] if
/// neither index width produces a plausible payload.
pub fn unpack(js: &str) -> Result<String> {
    decode(&string_literals(js))
}

/// [`unpack`] over a script's already-extracted string literals.
pub(crate) fn decode(literals: &[StringLiteral<'_>]) -> Result<String> {
    // A key of 92 characters is 92 to 368 bytes long: only a literal in
    // that range is counted character by character.
    let key = literals
        .iter()
        .map(|lit| lit.value)
        .find(|v| {
            (KEY_LEN..=4 * KEY_LEN).contains(&v.len())
                && v.chars().count() == KEY_LEN
                && !v.chars().any(|c| c.is_ascii_whitespace())
        })
        .ok_or(UnpackError::MissingComponent("Nuclear cryptkey"))?;

    let payload = literals
        .iter()
        .map(|lit| lit.value)
        .filter(|v| v.len() >= MIN_PAYLOAD_LEN && v.bytes().all(|b| b.is_ascii_digit()))
        .max_by_key(|v| v.len())
        .ok_or(UnpackError::MissingComponent("Nuclear encoded payload"))?;

    let key_chars: Vec<char> = key.chars().collect();
    // Of the widths that decode, the better-scoring one; the later width
    // on a tie.
    let mut best: Option<(f64, String)> = None;
    for width in [2usize, 3] {
        if let Some(text) = decode_indexes(payload, &key_chars, width) {
            let scored = score(&text);
            if best.as_ref().is_none_or(|(top, _)| scored >= *top) {
                best = Some((scored, text));
            }
        }
    }
    best.map(|(_, text)| text)
        .filter(|text| looks_like_javascript(text))
        .ok_or_else(|| {
            UnpackError::MalformedEncoding("Nuclear payload decoded to garbage".to_string())
        })
}

/// The number spelled by `digits`, all of them ASCII digits.
fn number(digits: &[u8]) -> usize {
    digits
        .iter()
        .fold(0, |value, &d| value * 10 + usize::from(d - b'0'))
}

/// Decode the digit stream (ASCII digits only) with the given index width.
/// Returns `None` on structural errors (odd trailing digits, out-of-range
/// indexes).
fn decode_indexes(digits: &str, key: &[char], width: usize) -> Option<String> {
    let bytes = digits.as_bytes();
    let mut out = String::with_capacity(digits.len() / width);
    let mut pos = 0;
    while pos < bytes.len() {
        let idx = number(bytes.get(pos..pos + width)?);
        pos += width;
        if idx < key.len() {
            out.push(key[idx]);
        } else if idx == key.len() {
            // Escape: the next three digits are the raw character code.
            let code = bytes.get(pos..pos + 3)?;
            pos += 3;
            out.push(char::from_u32(u32::try_from(number(code)).ok()?)?);
        } else {
            return None;
        }
    }
    Some(out)
}

/// Score a candidate decode: fraction of printable characters plus a bonus
/// for JavaScript keywords.
fn score(text: &str) -> f64 {
    if text.is_empty() {
        return 0.0;
    }
    let printable = text
        .bytes()
        .filter(|b| b.is_ascii_graphic() || b.is_ascii_whitespace())
        .count() as f64
        / text.len() as f64;
    let keywords = ["function", "var ", "return", "document"]
        .iter()
        .filter(|kw| text.contains(**kw))
        .count() as f64;
    printable + keywords
}

#[cfg(test)]
mod tests {
    use super::*;
    use kizzle_corpus::{KitFamily, KitModel, SimDate};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn packed_script(day: u32, seed: u64) -> (String, String) {
        let model = KitModel::new(KitFamily::Nuclear);
        let date = SimDate::new(2014, 8, day);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let html = model.generate_sample(date, &mut rng);
        (crate::script_text(&html), model.reference_payload(date))
    }

    #[test]
    fn decodes_two_digit_indexes_before_august_12() {
        let (js, expected) = packed_script(5, 1);
        assert_eq!(unpack(&js).unwrap(), expected);
    }

    #[test]
    fn decodes_three_digit_indexes_after_the_semantic_change() {
        let (js, expected) = packed_script(20, 2);
        assert_eq!(unpack(&js).unwrap(), expected);
    }

    #[test]
    fn escaped_characters_roundtrip() {
        // The payload contains spaces, newlines, quotes and backslashes
        // (the AV-check block); all of them go through the escape path.
        let (js, expected) = packed_script(30, 3);
        let unpacked = unpack(&js).unwrap();
        // The payload *source text* spells the path with escaped (double)
        // backslashes; those exact characters must survive the roundtrip.
        assert!(unpacked.contains(r"c:\\windows\\system32"));
        assert_eq!(unpacked, expected);
    }

    #[test]
    fn missing_key_is_reported() {
        let err = unpack("var payload = \"123456\";").unwrap_err();
        assert_eq!(err, UnpackError::MissingComponent("Nuclear cryptkey"));
    }

    #[test]
    fn missing_payload_is_reported() {
        let key: String = ('!'..='~').filter(|c| *c != '"' && *c != '\\').collect();
        let js = format!("var k = \"{key}\";");
        let err = unpack(&js).unwrap_err();
        assert_eq!(
            err,
            UnpackError::MissingComponent("Nuclear encoded payload")
        );
    }

    #[test]
    fn decode_rejects_truncated_input() {
        let key: Vec<char> = ('a'..='z').collect();
        assert_eq!(decode_indexes("012", &key, 2), None, "odd trailing digit");
        assert!(decode_indexes("0102", &key, 2).is_some());
    }
}
