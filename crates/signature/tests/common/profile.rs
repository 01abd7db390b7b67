//! The seed token profile, kept verbatim as the test oracle.
//!
//! This is `profile_text` of `crates/signature/src/prefilter.rs` as it
//! stood before the profile became one byte pass: it decodes the token
//! one `char` at a time, counts them, and ANDs together each character's
//! class mask from a 128-entry table (anything beyond ASCII is accepted
//! only by `Any`), then hashes every byte with FNV-1a. It is slow and it
//! is the definition of correct for `chars` and `mask`: the byte pass must
//! agree with it on every string (`tests/profile_kernel.rs`). Its
//! `fingerprint` is what `PIPELINE_VERSION` 1 stored for a literal — the
//! whole-token hash, which the product keeps only for tokens of at most
//! 16 bytes.
//!
//! The only edits are the glue a test module needs: the public types come
//! from the crate, and the profile's hash field is named `fingerprint`.

use kizzle_signature::prefilter::{fnv1a32, TokenProfile};
use kizzle_signature::CharClass;

/// Class-acceptance mask of one character: bit `c` set iff template `c`
/// accepts it. ASCII goes through a precomputed table; anything beyond
/// ASCII is accepted only by [`CharClass::Any`].
#[inline]
pub fn char_mask(c: char) -> u8 {
    const TABLE: [u8; 128] = build_char_table();
    if (c as u32) < 128 {
        TABLE[c as usize]
    } else {
        1 << (CharClass::Any as u8)
    }
}

const fn build_char_table() -> [u8; 128] {
    let mut table = [0u8; 128];
    let mut i = 0;
    while i < 128 {
        let c = i as u8 as char;
        let mut mask = 0u8;
        // Mirrors `CharClass::accepts` exactly; const fn, so spelled out.
        if c.is_ascii_lowercase() {
            mask |= 1 << (CharClass::Lower as u8);
        }
        if c.is_ascii_uppercase() {
            mask |= 1 << (CharClass::Upper as u8);
        }
        if c.is_ascii_alphabetic() {
            mask |= 1 << (CharClass::Alpha as u8);
        }
        if c.is_ascii_digit() {
            mask |= 1 << (CharClass::Digits as u8);
        }
        if c.is_ascii_digit() || (c as u8 >= b'a' && c as u8 <= b'f') {
            mask |= 1 << (CharClass::HexLower as u8);
        }
        if c.is_ascii_alphanumeric() {
            mask |= 1 << (CharClass::AlphaNum as u8);
        }
        if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | ':' | '/' | '?' | '=' | '&' | '-') {
            mask |= 1 << (CharClass::Wordlike as u8);
        }
        mask |= 1 << (CharClass::Any as u8);
        table[i] = mask;
        i += 1;
    }
    table
}

/// Profile one token's unquoted text.
#[must_use]
pub fn profile_text(text: &str) -> TokenProfile {
    let mut chars: u32 = 0;
    let mut mask: u8 = 0xFF;
    for c in text.chars() {
        chars += 1;
        mask &= char_mask(c);
    }
    // The empty string is accepted by every class (`accepts_all` over no
    // characters), which `mask = 0xFF` already encodes.
    TokenProfile {
        chars,
        fingerprint: fnv1a32(text.as_bytes()),
        mask,
    }
}
