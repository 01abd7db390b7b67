//! The prefilter's byte-pass profile against the seed's `char`-decoding
//! one, and the literal fingerprint against whole-token FNV-1a.
//!
//! `profile_bytes` must give exactly the oracle's `chars` and `mask` on
//! every string — the prefilter decides `Class` elements from them alone,
//! so any difference is a wrong verdict — and `fingerprint32` must keep
//! the whole-token hash for every token of at most 16 bytes.

use kizzle_signature::prefilter::{fingerprint32, fnv1a32, profile_bytes, FINGERPRINT_WHOLE_LEN};
use kizzle_signature::CharClass;
use proptest::prelude::*;

/// The seed profile (`char` decode + 128-entry table + FNV-1a).
mod common {
    pub mod profile;
}
use common::profile as oracle;

/// The byte categories the kernel folds, each as a pool of characters,
/// plus multi-byte UTF-8 of every width.
const POOLS: [&str; 7] = [
    "abcdef",
    "ghijklmnopqrstuvwxyz",
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ",
    "0123456789",
    "_.:/?=&-",
    " !\"#$%'()*+,;<>@[\\]^`{|}~\t\n\r\u{0}\u{7f}",
    "éßλЖ中€\u{80}\u{7ff}\u{800}\u{ffff}\u{10000}😀\u{10ffff}",
];

/// Every category byte and character a block can hold.
const PROBES: [char; 16] = [
    'a', 'f', 'g', 'z', 'A', 'Z', '0', '9', '_', '.', ':', '/', '?', '=', '&', '-',
];

fn assert_agrees(text: &str) {
    let want = oracle::profile_text(text);
    let got = profile_bytes(text.as_bytes());
    assert_eq!(
        (got.chars, got.mask),
        (want.chars, want.mask),
        "{text:?} ({} bytes)",
        text.len()
    );
}

/// A string drawn from the pools `alphabet` selects (bit `i` = pool `i`;
/// no bit = any scalar value), so single-category strings — the ones with
/// a mask beyond `Any` — come up as often as mixed ones.
fn string_from(alphabet: u8, picks: &[u32]) -> String {
    let pools: Vec<Vec<char>> = POOLS
        .iter()
        .enumerate()
        .filter(|(i, _)| alphabet >> i & 1 == 1)
        .map(|(_, pool)| pool.chars().collect())
        .collect();
    picks
        .iter()
        .map(|&pick| {
            if pools.is_empty() {
                return char::from_u32(pick % 0x11_0000).unwrap_or('\u{fffd}');
            }
            let pool = &pools[pick as usize % pools.len()];
            pool[(pick >> 8) as usize % pool.len()]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn byte_pass_equals_the_char_decoding_oracle(
        alphabet in 0u8..128,
        picks in prop::collection::vec(any::<u32>(), 0..150),
    ) {
        assert_agrees(&string_from(alphabet, &picks));
    }

    #[test]
    fn byte_pass_equals_the_oracle_on_printable_text(text in "\\PC*") {
        assert_agrees(&text);
    }

    #[test]
    fn short_tokens_keep_their_whole_token_hash(
        bytes in prop::collection::vec(any::<u8>(), 0..FINGERPRINT_WHOLE_LEN + 1),
    ) {
        prop_assert_eq!(fingerprint32(&bytes), fnv1a32(&bytes));
    }
}

#[test]
fn empty_and_non_ascii_strings() {
    for text in [
        "", "é", "aé", "éa", "中文", "😀", "a😀b", "0é", "ÀBC", "\u{0}", "\u{7f}",
    ] {
        assert_agrees(text);
    }
    let empty = profile_bytes(b"");
    assert_eq!(
        (empty.chars, empty.mask),
        (0, 0xFF),
        "every class accepts ε"
    );
    assert_eq!(empty.fingerprint, fnv1a32(b""));
    assert_eq!(
        profile_bytes("é".as_bytes()).mask,
        1 << (CharClass::Any as u8)
    );
}

#[test]
fn each_wordlike_punctuation_byte_alone_and_among_letters() {
    for punct in "_.:/?=&-".chars() {
        let alone = punct.to_string();
        assert_agrees(&alone);
        assert_eq!(
            profile_bytes(alone.as_bytes()).mask,
            (1 << (CharClass::Wordlike as u8)) | (1 << (CharClass::Any as u8)),
            "{punct:?}"
        );
        for word in ["abc", "XYZ", "123", "deadbeef"] {
            assert_agrees(&format!("{word}{punct}{word}"));
        }
    }
    // Neighbours of the punctuation bytes are not Wordlike.
    for other in [",", ";", "<", ">", "@", "[", "^", "`", "{", "%", "+", "'"] {
        assert_agrees(other);
        assert_eq!(
            profile_bytes(other.as_bytes()).mask,
            1 << (CharClass::Any as u8)
        );
    }
}

/// One probe at every position of a single-category string of every
/// length through three block edges: a category seen only in the first
/// block, the remainder, or across an edge must still count.
#[test]
fn lengths_around_every_block_edge() {
    for filler in ['a', 'q', 'Q', '7', '-'] {
        for len in 0..=100usize {
            let base = filler.to_string().repeat(len);
            assert_agrees(&base);
            for at in 0..len {
                for probe in PROBES.iter().chain(&[' ', 'é', '中', '😀']) {
                    let mut text = base.clone();
                    text.replace_range(at..=at, probe.encode_utf8(&mut [0; 4]));
                    assert_agrees(&text);
                }
            }
        }
    }
}

#[test]
fn every_one_and_two_byte_input_keeps_its_whole_token_hash() {
    for a in 0..=u8::MAX {
        assert_eq!(fingerprint32(&[a]), fnv1a32(&[a]));
        for b in 0..=u8::MAX {
            assert_eq!(fingerprint32(&[a, b]), fnv1a32(&[a, b]));
        }
    }
    let sixteen = *b"0123456789abcdef";
    assert_eq!(fingerprint32(&sixteen), fnv1a32(&sixteen));
    assert_eq!(
        oracle::profile_text("fromCharCode").fingerprint,
        profile_bytes(b"fromCharCode").fingerprint,
        "short literals keep their version-1 value"
    );
}

#[test]
fn long_tokens_are_fingerprinted_by_their_ends_and_length() {
    let long = "0123456789abcdefXYZ";
    assert_ne!(fingerprint32(long.as_bytes()), fnv1a32(long.as_bytes()));
    // Same ends and length, different middle: same fingerprint.
    assert_eq!(
        fingerprint32(b"01234567-middle-89abcdef"),
        fingerprint32(b"01234567_MIDDLE_89abcdef")
    );
    // Any end byte or the length moves it.
    let base = fingerprint32(b"01234567-middle-89abcdef");
    assert_ne!(base, fingerprint32(b"11234567-middle-89abcdef"));
    assert_ne!(base, fingerprint32(b"01234567-middle-89abcdeF"));
    assert_ne!(base, fingerprint32(b"01234567-middl-89abcdef"));
    assert_ne!(base, fingerprint32(b"01234567-middlee-89abcdef"));
}
