//! Unpacker for the Sweet Orange packer.
//!
//! Sweet Orange pushes delimiter-joined character codes into an array,
//! joins the array, splits on the delimiter and rebuilds the payload with
//! `String.fromCharCode`, while hiding the decoder's integer constants
//! behind arithmetic identities (`Math.sqrt(196)` for `14`, swapped for
//! `Math.exp(1) - Math.E` after the kit's packer revision). The unpacker
//! only needs the delimiter — taken from the `split("...")` call — and the
//! pushed chunks.

use crate::literals::{decode_charcodes, string_literals, DigitsAnd, StringLiteral};
use crate::{Result, UnpackError};

/// Unpack a Sweet Orange-packed script.
///
/// # Errors
///
/// Returns [`UnpackError::MissingComponent`] if the delimiter or chunks are
/// missing, and [`UnpackError::MalformedEncoding`] if the chunks cannot be
/// decoded as character codes.
pub fn unpack(js: &str) -> Result<String> {
    decode(js, &string_literals(js))
}

/// [`unpack`] over a script's already-extracted string literals.
pub(crate) fn decode(js: &str, literals: &[StringLiteral<'_>]) -> Result<String> {
    let delimiter = find_split_delimiter(js, literals)
        .ok_or(UnpackError::MissingComponent("Sweet Orange delimiter"))?;

    let alphabet = DigitsAnd::new(delimiter);
    let mut encoded = Vec::new();
    for lit in literals {
        if lit.previous == Some("(")
            && lit.value != delimiter
            && lit.value.bytes().any(|b| b.is_ascii_digit())
            && alphabet.matches(lit.value)
        {
            encoded.extend_from_slice(lit.value.as_bytes());
        }
    }
    if encoded.is_empty() {
        return Err(UnpackError::MissingComponent("Sweet Orange encoded chunks"));
    }

    decode_charcodes(&encoded, delimiter.as_bytes()).ok_or_else(|| {
        UnpackError::MalformedEncoding(format!(
            "Sweet Orange chunks did not decode with delimiter {delimiter:?}"
        ))
    })
}

/// The delimiter is the string literal passed to `.split("...")`.
fn find_split_delimiter<'a>(js: &str, literals: &[StringLiteral<'a>]) -> Option<&'a str> {
    const CALL: &str = "split(\"";
    // What follows each `split("` in the source, found once.
    let calls: Vec<&str> = js
        .match_indices(CALL)
        .map(|(at, _)| &js[at + CALL.len()..])
        .collect();
    // Token-context scan: a literal whose predecessor is `(` and which is
    // preceded in the source by `split` just before that parenthesis.
    literals
        .iter()
        .map(|lit| (lit.previous, lit.value))
        .find(|&(previous, value)| {
            previous == Some("(")
                && !value.is_empty()
                && value.len() <= 8
                // Cheap source-level confirmation that this call is
                // `.split("<value>")`.
                && calls.iter().any(|call| {
                    call.strip_prefix(value)
                        .is_some_and(|after| after.starts_with("\")"))
                })
        })
        .map(|(_, value)| value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kizzle_corpus::{KitFamily, KitModel, SimDate};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn roundtrips_generated_sweet_orange_samples_across_the_revision() {
        let model = KitModel::new(KitFamily::SweetOrange);
        // August 10 is the packer revision (Math.sqrt -> Math.exp identity).
        for (day, seed) in [(5u32, 10u64), (9, 11), (10, 12), (25, 13)] {
            let date = SimDate::new(2014, 8, day);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let html = model.generate_sample(date, &mut rng);
            let unpacked = unpack(&crate::script_text(&html)).unwrap();
            assert_eq!(unpacked, model.reference_payload(date), "8/{day}");
        }
    }

    #[test]
    fn hand_written_sample_decodes() {
        let payload = "var player = document.getElementById(\"vid\"); player.play();";
        let delim = "bEW";
        let encoded: String = payload
            .chars()
            .map(|c| format!("{}{delim}", c as u32))
            .collect();
        let js = format!(
            "var ar = [];\nar.push(\"{encoded}\");\nfunction dec() {{\n  var ok = ar.join(\"\").split(\"{delim}\");\n  var s = \"\";\n  for (var q = Math.sqrt(0); q < ok.length - Math.sqrt(1); q++) {{ s += String.fromCharCode(parseInt(ok[q], 10)); }}\n  return s;\n}}\nwindow[\"ev\" + \"al\"](dec());"
        );
        assert_eq!(unpack(&js).unwrap(), payload);
    }

    #[test]
    fn missing_split_call_is_reported() {
        let err = unpack("var a = [1, 2, 3]; a.join(\"\");").unwrap_err();
        assert_eq!(err, UnpackError::MissingComponent("Sweet Orange delimiter"));
    }

    #[test]
    fn missing_chunks_is_reported() {
        let js = "var ok = x.split(\"bEW\"); var y = 1;";
        let err = unpack(js).unwrap_err();
        assert_eq!(
            err,
            UnpackError::MissingComponent("Sweet Orange encoded chunks")
        );
    }
}
