//! Property-based robustness tests for the unpackers: the code that
//! parses attacker-written packers must never panic, whatever the page.
//!
//! Contracts, for [`unpack_or_passthrough`], [`try_unpack_any`] and every
//! family's `unpack` (direct on the text, and through the document-level
//! [`unpack`](kizzle_unpack::unpack) dispatch):
//!
//! 1. **Arbitrary strings never panic** — including strings built from
//!    packer fragments (`collect("`, `split("`, long digit and hex runs,
//!    quotes and escapes), which reach the decoders far more often than
//!    random text does.
//! 2. **Kit pages with random byte flips never panic.** Every family's
//!    generated landing page is damaged at random positions (re-decoded
//!    lossily, so multi-byte replacement characters land mid-token) and
//!    run through every unpacker.
//! 3. **Deeply nested or unclosed `<script>` input up to 64 KB never
//!    panics.**
//! 4. **Every entry point answers as the per-family oracle does**
//!    (`common`): the same payload, or the same error — over all the
//!    inputs above, every family's page on every day of August, and
//!    every benign kind.

mod common;

use kizzle_corpus::benign::{generate_benign, BenignKind};
use kizzle_corpus::{KitFamily, KitModel, SimDate};
use kizzle_unpack::{angler, nuclear, rig, sweet_orange, try_unpack_any, unpack_or_passthrough};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Run every entry point over `text` and hold each to the oracle; any
/// panic fails the calling test.
fn unpack_everything(text: &str) {
    let passthrough = unpack_or_passthrough(text);
    assert_eq!(passthrough, common::unpack_or_passthrough(text));
    let (family, body) = passthrough;
    if family.is_none() {
        assert_eq!(body, kizzle_unpack::script_text(text));
    }
    assert_eq!(kizzle_unpack::script_text(text), common::script_text(text));
    let any = try_unpack_any(text);
    assert_eq!(any, common::try_unpack_any(text));
    assert_eq!(any.as_ref().map(|(f, _)| *f), family);
    for family in KitFamily::ALL {
        assert_eq!(
            kizzle_unpack::unpack(family, text),
            common::unpack(family, text),
            "{family}"
        );
    }
    for (family, direct) in [
        (KitFamily::Rig, rig::unpack(text)),
        (KitFamily::Nuclear, nuclear::unpack(text)),
        (KitFamily::Angler, angler::unpack(text)),
        (KitFamily::SweetOrange, sweet_orange::unpack(text)),
    ] {
        assert_eq!(
            direct,
            common::family_unpack(family, text),
            "{family} direct"
        );
    }
}

/// Fragments of the four packers' structure plus the characters their
/// parsers branch on.
const FRAGMENTS: &[&str] = &[
    "<script>",
    "</script>",
    "<script type=\"text/javascript\">",
    "var ",
    "delim",
    " = ",
    "\"",
    "'",
    "\\",
    "\\\"",
    "(",
    ")",
    ";",
    "+",
    "collect(\"",
    "split(\"",
    "\")",
    ".split(",
    "String.fromCharCode(",
    "window[\"ev\" + \"al\"](",
    "cryptkey",
    // A whole Nuclear key literal: printable ASCII minus `"` and `\`.
    "\"!#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[]^_`abcdefghijklmnopqrstuvwxyz{|}~\"",
    ".split(\"y6\")",
    // A Nuclear-sized digit payload literal.
    "\"0101112131415161718192021222324252627282930313233343536373839404142434445464748495051525354555657\"",
    "function",
    "return",
    "document",
    "y6",
    "0123456789",
    "092",
    "999",
    "65y666y6",
    "00ff12ab",
    "6675",
    "ffffffffffffffff",
    "é",
    "\u{FFFD}",
    "\n",
    " ",
];

/// A string of packer fragments and arbitrary characters: each draw's
/// low byte picks a fragment, or past the list, a character from its high
/// bits.
fn packer_soup() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u64>(), 0..120).prop_map(|draws| {
        draws
            .into_iter()
            .map(
                |draw| match FRAGMENTS.get((draw & 0xFF) as usize % (FRAGMENTS.len() + 4)) {
                    Some(fragment) => (*fragment).to_string(),
                    None => char::from_u32(((draw >> 8) % 0x11_0000) as u32)
                        .unwrap_or('\u{FFFD}')
                        .to_string(),
                },
            )
            .collect()
    })
}

/// A generated landing page of `family`.
fn kit_page(family: KitFamily, day: u32, seed: u64) -> String {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    KitModel::new(family).generate_sample(SimDate::new(2014, 8, day), &mut rng)
}

proptest! {
    /// Printable text, and arbitrary bytes decoded lossily (control
    /// characters and replacement characters included).
    #[test]
    fn arbitrary_strings_never_panic(
        text in "\\PC{0,300}",
        bytes in prop::collection::vec(any::<u8>(), 0..400),
    ) {
        unpack_everything(&text);
        unpack_everything(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn packer_fragments_never_panic(text in packer_soup()) {
        unpack_everything(&text);
        unpack_everything(&format!("<script>{text}</script>"));
    }

    /// Damaged kit pages: each flip XORs a random byte position (high
    /// bits) with a random non-zero mask (low byte).
    #[test]
    fn kit_pages_with_byte_flips_never_panic(
        family in 0usize..KitFamily::ALL.len(),
        day in 1u32..32,
        seed in any::<u64>(),
        flips in prop::collection::vec(any::<u64>(), 1..12),
    ) {
        let page = kit_page(KitFamily::ALL[family], day, seed);
        let mut bytes = page.into_bytes();
        for flip in flips {
            let at = (flip >> 8) as usize % bytes.len();
            bytes[at] ^= (flip as u8).max(1);
        }
        unpack_everything(&String::from_utf8_lossy(&bytes));
    }

    /// Nested, unbalanced and unclosed script tags around packer
    /// fragments, up to 64 KB.
    #[test]
    fn nested_and_unclosed_scripts_never_panic(
        depth in 1usize..2_000,
        close in 0usize..4,
        body in packer_soup(),
        tail_open in any::<bool>(),
    ) {
        let mut page = "<script>".repeat(depth);
        page.push_str(&body);
        page.push_str(&"</script>".repeat(close));
        if tail_open {
            page.push_str("<script>");
            page.push_str(&body);
        }
        let mut end = page.len().min(64 * 1024);
        while !page.is_char_boundary(end) {
            end -= 1;
        }
        unpack_everything(&page[..end]);
    }
}

/// Every family's page on every day of August (both sides of each
/// packer revision), each day at its own seed, and every benign kind at
/// three seeds: the production path answers as the oracle does, and
/// every kit page unpacks.
#[test]
fn generated_pages_equal_the_oracle() {
    for (f, family) in KitFamily::ALL.into_iter().enumerate() {
        for day in 1..=31 {
            let page = kit_page(family, day, (f as u64) << 8 | u64::from(day));
            unpack_everything(&page);
            assert!(try_unpack_any(&page).is_some(), "{family} 8/{day}");
        }
    }
    for kind in BenignKind::ALL {
        for seed in 0..3 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            unpack_everything(&generate_benign(kind, &mut rng));
        }
    }
}

/// The 64 KB end of the range: each family's page under 64 KB of
/// unclosed `<script>` openers and cut inside its own script at every
/// 97th byte, and a 64 KB script that never closes around one digit run
/// (what a Nuclear or Sweet Orange decoder meets on a truncated page).
#[test]
fn sixty_four_kb_deep_truncated_and_unclosed_scripts_never_panic() {
    for family in KitFamily::ALL {
        let page = kit_page(family, 15, 7);
        let mut deep = "<script>".repeat((64 * 1024 - page.len()) / 8);
        deep.push_str(&page);
        unpack_everything(&deep);
        for cut in (0..page.len()).step_by(97) {
            if page.is_char_boundary(cut) {
                unpack_everything(&page[..cut]);
            }
        }
    }
    let digits = "0123456789".repeat(64 * 1024 / 10 - 4);
    for opener in [
        "<script>var a=\"",
        "<script>collect(\"",
        "<script>x.split(\"y6\"); \"",
    ] {
        unpack_everything(&format!("{opener}{digits}"));
    }
}
