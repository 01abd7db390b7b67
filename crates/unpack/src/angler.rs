//! Unpacker for the Angler packer.
//!
//! Angler scatters the hex-encoded payload over several chunk variables,
//! concatenates them at runtime and decodes two hex digits at a time. The
//! unpacker gathers the hex chunk literals in source order and performs the
//! same decode statically.

use crate::literals::{string_literals, StringLiteral};
use crate::{Result, UnpackError};

/// Minimum length for a literal to be considered a hex chunk (filters out
/// short decorative strings that happen to be hex, like `"ad"`).
const MIN_CHUNK_LEN: usize = 8;

/// Unpack an Angler-packed script.
///
/// # Errors
///
/// Returns [`UnpackError::MissingComponent`] when no hex chunks are present
/// and [`UnpackError::MalformedEncoding`] when the concatenated chunks are
/// not valid hex-encoded text.
pub fn unpack(js: &str) -> Result<String> {
    decode(&string_literals(js))
}

/// [`unpack`] over a script's already-extracted string literals. Each
/// chunk has an even length, so chunks decode one at a time into one
/// buffer, with no concatenated hex text in between.
pub(crate) fn decode(literals: &[StringLiteral<'_>]) -> Result<String> {
    let mut bytes = Vec::new();
    let mut chunks = 0usize;
    for lit in literals.iter().filter(|lit| is_hex_chunk(lit.value)) {
        chunks += 1;
        bytes.extend(
            lit.value
                .as_bytes()
                .chunks_exact(2)
                .map(|pair| (nibble(pair[0]) << 4) | nibble(pair[1])),
        );
    }
    if chunks == 0 {
        return Err(UnpackError::MissingComponent("Angler hex chunks"));
    }
    String::from_utf8(bytes)
        .map_err(|_| UnpackError::MalformedEncoding("Angler hex payload invalid".to_string()))
}

fn is_hex_chunk(value: &str) -> bool {
    value.len() >= MIN_CHUNK_LEN
        && value.len().is_multiple_of(2)
        && value
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

/// The value of one lower-case hex digit ([`is_hex_chunk`] admits no other).
fn nibble(digit: u8) -> u8 {
    if digit.is_ascii_digit() {
        digit - b'0'
    } else {
        digit - b'a' + 10
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kizzle_corpus::{KitFamily, KitModel, SimDate};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn roundtrips_generated_angler_samples() {
        let model = KitModel::new(KitFamily::Angler);
        for (day, seed) in [(5u32, 1u64), (13, 2), (25, 3)] {
            let date = SimDate::new(2014, 8, day);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let html = model.generate_sample(date, &mut rng);
            let unpacked = unpack(&crate::script_text(&html)).unwrap();
            assert_eq!(unpacked, model.reference_payload(date), "8/{day}");
        }
    }

    #[test]
    fn hand_written_chunked_hex_decodes() {
        let payload = "function probe() { return navigator.userAgent; } probe();";
        let hex: String = payload.bytes().map(|b| format!("{b:02x}")).collect();
        let (a, b) = hex.split_at(hex.len() / 2 - (hex.len() / 2) % 2);
        let js = format!(
            "var q1 = \"{a}\";\nvar q2 = \"{b}\";\nvar all = q1 + q2;\nwindow[\"ev\" + \"al\"](all);"
        );
        assert_eq!(unpack(&js).unwrap(), payload);
    }

    #[test]
    fn short_hex_lookalikes_are_ignored() {
        let err = unpack("var color = \"ffeedd\"; var x = 1;").unwrap_err();
        assert_eq!(err, UnpackError::MissingComponent("Angler hex chunks"));
    }

    #[test]
    fn invalid_utf8_is_reported_as_malformed() {
        // 0xff bytes are not valid UTF-8 text.
        let js = "var q = \"ffffffffffffffff\"; var r = \"ffffffffffffffff\";";
        let err = unpack(js).unwrap_err();
        assert!(matches!(err, UnpackError::MalformedEncoding(_)));
    }

    #[test]
    fn hex_chunk_predicate() {
        assert!(is_hex_chunk("00ff12ab"));
        assert!(!is_hex_chunk("00ff12a"), "odd length");
        assert!(
            !is_hex_chunk("00FF12AB"),
            "uppercase is not produced by the packer"
        );
        assert!(!is_hex_chunk("short"));
    }
}
