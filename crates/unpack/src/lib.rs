//! # kizzle-unpack — per-kit unpackers
//!
//! Kizzle labels a cluster by unpacking its prototype and comparing the
//! unpacked body against known kits. The paper's implementation does not
//! hook a JavaScript engine's `eval` loop; instead, "for our work, which
//! focuses on a fixed set of exploit kits, we instead implemented unpackers
//! for all kits under investigation" (§III-A). This crate does exactly
//! that for the four packers modeled in `kizzle-corpus`:
//!
//! * [`rig`] — re-joins the delimiter-separated character codes accumulated
//!   through `collect("...")` calls.
//! * [`nuclear`] — recovers the shuffled `cryptkey` and decodes the
//!   fixed-width key-index payload (handling the kit's August 12 switch
//!   from two- to three-digit indexes).
//! * [`angler`] — concatenates the hex chunk variables and decodes them.
//! * [`sweet_orange`] — finds the `split("...")` delimiter and decodes the
//!   delimiter-joined character codes.
//!
//! All unpackers are static string/token processors: they never execute the
//! sample. [`unpack`] dispatches by family; [`try_unpack_any`] is the
//! "which unpacker applies?" loop used when the family is unknown, and
//! [`unpack_or_passthrough`] is what the labeling stage calls on a cluster
//! prototype — benign prototypes simply pass through unmodified. Every
//! entry point extracts a document's script text and lexes its string
//! literals once; the family decoders read those borrowed literals and
//! decode on bytes.
//!
//! ## Example
//!
//! ```
//! use kizzle_corpus::{KitFamily, KitModel, SimDate};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let model = KitModel::new(KitFamily::Rig);
//! let date = SimDate::new(2014, 8, 10);
//! let landing_page = model.generate_sample(date, &mut rng);
//!
//! let unpacked = kizzle_unpack::unpack(KitFamily::Rig, &landing_page).unwrap();
//! assert!(unpacked.contains("launch_rig"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod angler;
pub mod nuclear;
pub mod rig;
pub mod sweet_orange;

mod literals;

pub use literals::{string_literals, StringLiteral};

use kizzle_corpus::KitFamily;
use std::borrow::Cow;
use std::fmt;

/// Why an unpacker failed on a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnpackError {
    /// The document contains no inline script to unpack.
    NoScript,
    /// A required component of the packer (key, payload, delimiter, hex
    /// chunks) could not be located.
    MissingComponent(&'static str),
    /// The encoded payload was found but could not be decoded.
    MalformedEncoding(String),
}

impl fmt::Display for UnpackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnpackError::NoScript => f.write_str("document contains no inline script"),
            UnpackError::MissingComponent(what) => {
                write!(f, "packer component not found: {what}")
            }
            UnpackError::MalformedEncoding(detail) => {
                write!(f, "encoded payload could not be decoded: {detail}")
            }
        }
    }
}

impl std::error::Error for UnpackError {}

/// Result alias for unpacking operations.
pub type Result<T> = std::result::Result<T, UnpackError>;

/// Extract the inline-script text of an HTML document (or return the input
/// unchanged when it is bare JavaScript).
#[must_use]
pub fn script_text(document: &str) -> String {
    script_of(document).into_owned()
}

/// [`script_text`] without a copy when the text is the document itself
/// or one script's body.
fn script_of(document: &str) -> Cow<'_, str> {
    let scripts = kizzle_js::extract_scripts(document);
    match scripts.as_slice() {
        [] => Cow::Borrowed(document),
        [only] => Cow::Borrowed(only.body),
        _ => Cow::Owned(
            scripts
                .iter()
                .map(|s| s.body)
                .collect::<Vec<_>>()
                .join("\n"),
        ),
    }
}

/// The order [`try_unpack_any`] tries the families in.
const TRY_ORDER: [KitFamily; 4] = [
    KitFamily::Nuclear,
    KitFamily::Angler,
    KitFamily::Rig,
    KitFamily::SweetOrange,
];

/// Run one family's decoder over a script and its string literals.
fn decode(family: KitFamily, js: &str, literals: &[StringLiteral<'_>]) -> Result<String> {
    match family {
        KitFamily::Rig => rig::decode(literals),
        KitFamily::Nuclear => nuclear::decode(literals),
        KitFamily::Angler => angler::decode(literals),
        KitFamily::SweetOrange => sweet_orange::decode(js, literals),
    }
}

/// Unpack a document with the unpacker for a specific kit family.
///
/// # Errors
///
/// Returns an [`UnpackError`] if the document does not contain that
/// family's packer structure or the payload cannot be decoded.
pub fn unpack(family: KitFamily, document: &str) -> Result<String> {
    let js = script_of(document);
    if js.trim().is_empty() {
        return Err(UnpackError::NoScript);
    }
    decode(family, &js, &string_literals(&js))
}

/// Try every family's unpacker and return the first success.
///
/// Unpackers are tried in a fixed order (Nuclear, Angler, RIG, Sweet
/// Orange); the packer structures are distinct enough that at most one
/// realistic decoder produces a plausible JavaScript payload, and the
/// result is validated before being accepted. The script text and its
/// string literals are extracted once and shared by every attempt.
#[must_use]
pub fn try_unpack_any(document: &str) -> Option<(KitFamily, String)> {
    unpack_script(&script_of(document))
}

/// [`try_unpack_any`] over already-extracted script text.
fn unpack_script(js: &str) -> Option<(KitFamily, String)> {
    if js.trim().is_empty() {
        return None;
    }
    let literals = string_literals(js);
    TRY_ORDER.into_iter().find_map(|family| {
        decode(family, js, &literals)
            .ok()
            .filter(|payload| looks_like_javascript(payload))
            .map(|payload| (family, payload))
    })
}

/// Unpack a cluster prototype if any unpacker applies; otherwise return the
/// document's script text unchanged (benign prototypes and already-unpacked
/// code flow through the labeling stage as-is). The script text is
/// extracted once, for the unpackers and the passthrough alike.
#[must_use]
pub fn unpack_or_passthrough(document: &str) -> (Option<KitFamily>, String) {
    let js = script_of(document);
    match unpack_script(&js) {
        Some((family, payload)) => (Some(family), payload),
        None => (None, js.into_owned()),
    }
}

/// A cheap sanity check that a decoded payload is JavaScript-ish text and
/// not the garbage a wrong decoder produces.
#[must_use]
pub fn looks_like_javascript(text: &str) -> bool {
    if text.len() < 40 {
        return false;
    }
    let printable = text
        .bytes()
        .filter(|b| b.is_ascii_graphic() || b.is_ascii_whitespace())
        .count();
    if (printable as f64) < text.len() as f64 * 0.98 {
        return false;
    }
    ["function", "var ", "return", "document", "window"]
        .iter()
        .filter(|kw| text.contains(**kw))
        .count()
        >= 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use kizzle_corpus::{KitModel, SimDate};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sample(family: KitFamily, day: u32, seed: u64) -> String {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        KitModel::new(family).generate_sample(SimDate::new(2014, 8, day), &mut rng)
    }

    #[test]
    fn every_family_roundtrips_through_its_unpacker() {
        for family in KitFamily::ALL {
            let date = SimDate::new(2014, 8, 15);
            let model = KitModel::new(family);
            let html = sample(family, 15, 42);
            let unpacked = unpack(family, &html).unwrap_or_else(|e| panic!("{family}: {e}"));
            assert_eq!(
                unpacked,
                model.reference_payload(date),
                "{family}: unpacked payload must equal the original payload"
            );
        }
    }

    #[test]
    fn roundtrip_holds_across_the_whole_evaluation_month() {
        for family in KitFamily::ALL {
            for day in [1, 8, 13, 20, 27, 31] {
                let html = sample(family, day, u64::from(day) * 31);
                let unpacked =
                    unpack(family, &html).unwrap_or_else(|e| panic!("{family} 8/{day}: {e}"));
                assert!(
                    unpacked.contains("PluginProbe"),
                    "{family} 8/{day}: payload body missing"
                );
            }
        }
    }

    #[test]
    fn try_unpack_any_identifies_the_right_family() {
        for family in KitFamily::ALL {
            let html = sample(family, 20, 7);
            let (detected, payload) = try_unpack_any(&html).expect("should unpack");
            // RIG and Sweet Orange use closely related encodings; what
            // matters for labeling is that *a* correct payload is produced.
            assert!(payload.contains("function"), "{family}");
            if family == KitFamily::Nuclear || family == KitFamily::Angler {
                assert_eq!(detected, family);
            }
        }
    }

    #[test]
    fn benign_documents_pass_through() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let benign = kizzle_corpus::benign::generate_benign(
            kizzle_corpus::benign::BenignKind::LibraryBoilerplate,
            &mut rng,
        );
        let (family, text) = unpack_or_passthrough(&benign);
        assert_eq!(family, None);
        assert!(text.contains("extend"));
    }

    #[test]
    fn unpack_fails_cleanly_on_empty_and_foreign_input() {
        assert_eq!(unpack(KitFamily::Rig, "   "), Err(UnpackError::NoScript));
        let err = unpack(KitFamily::Nuclear, "<script>var a = 1;</script>").unwrap_err();
        assert!(matches!(err, UnpackError::MissingComponent(_)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn looks_like_javascript_filters_garbage() {
        assert!(looks_like_javascript(
            "function f() { var x = document.title; return x; } window.onload = f;"
        ));
        assert!(!looks_like_javascript("short"));
        assert!(!looks_like_javascript(&"\u{1}\u{2}\u{3}garbage".repeat(20)));
    }

    #[test]
    fn script_text_handles_bare_js() {
        assert_eq!(script_text("var a = 1;"), "var a = 1;");
        assert!(script_text("<script>var a = 1;</script>").contains("var a = 1;"));
    }
}
