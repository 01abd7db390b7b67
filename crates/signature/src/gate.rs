//! The anchor gate — stage 0 of the scan pipeline, in front of the lexer.
//!
//! [`AnchorGate::may_match`] answers whether any anchor occurs as a
//! substring of a raw document; `false` proves the scan a miss without
//! lexing (the argument is in the `matcher` module docs). Script
//! extraction, the token cap and token boundaries only narrow which byte
//! slices the lexer looks at, so none of them can make a `false` wrong.
//!
//! Its cost has to stay flat as the set grows, so the anchors are searched
//! in two tiers, split at [`LONG_ANCHOR`] bytes:
//! - short anchors one by one with `str::contains` while there are at most
//!   [`CONTAINS_MAX`] of them, and through one block-shift table past that;
//! - long anchors always through one block-shift table of their own, so a
//!   short anchor does not shrink their window.
//!
//! A block-shift table is Wu and Manber's multi-pattern search ("A Fast
//! Algorithm for Multi-Pattern Searching", TR-94-17, 1994). A window of
//! `m` bytes (the tier's shortest anchor, at most [`LONG_ANCHOR`]) slides
//! over the document. The hash of its last `B` bytes indexes a table of how
//! far it may move before those bytes could end some anchor's first `m`
//! bytes. A zero shift is verified through a bucket of the anchors whose
//! first `m` bytes hash like the window's. Collisions in either hash only
//! lower a shift or widen a bucket, so they cost time, never a missed
//! anchor.
//!
//! A table whose mean shift is under half its maximum — one saturated by
//! more anchor blocks than it has slots — would walk the document byte by
//! byte and cost more than lexing it. [`AnchorGate::build`] then builds no
//! gate, and the scan lexes every document as it would without one.

use std::ops::ControlFlow;

/// Anchors this long or longer form the long tier. Also the widest window
/// a block-shift table slides.
pub(crate) const LONG_ANCHOR: usize = 32;

/// Short anchors are searched one by one up to this many; past it, one
/// per-anchor pass over every document would grow with the set.
pub(crate) const CONTAINS_MAX: usize = 8;

/// Shift-table slot counts are powers of two in this range of exponents,
/// four slots per anchor block where that fits.
const TABLE_BITS: std::ops::RangeInclusive<u32> = 10..=16;

/// A sealed set's stage 0: `false` from [`AnchorGate::may_match`] proves
/// that no anchor occurs in a document.
#[derive(Debug)]
pub(crate) struct AnchorGate {
    /// Short anchors searched one by one (at most [`CONTAINS_MAX`]).
    few: Vec<Box<str>>,
    /// The block-shift tiers: short anchors past [`CONTAINS_MAX`], and
    /// long anchors.
    tables: Vec<BlockShift>,
}

impl AnchorGate {
    /// The gate over a set's distinct anchors, or `None` when a block-shift
    /// table cannot skip (see the [module docs](self)).
    #[must_use]
    pub(crate) fn build(anchors: &[String]) -> Option<Self> {
        let (short, long): (Vec<&str>, Vec<&str>) = anchors
            .iter()
            .map(String::as_str)
            .filter(|anchor| !anchor.is_empty())
            .partition(|anchor| anchor.len() < LONG_ANCHOR);
        let mut gate = AnchorGate {
            few: Vec::new(),
            tables: Vec::new(),
        };
        if short.len() <= CONTAINS_MAX {
            gate.few = short.into_iter().map(Box::from).collect();
        } else {
            gate.tables.push(BlockShift::build(&short)?);
        }
        if !long.is_empty() {
            gate.tables.push(BlockShift::build(&long)?);
        }
        Some(gate)
    }

    /// `true` when some anchor may occur in `document`; `false` proves none
    /// does. Allocates nothing.
    #[must_use]
    pub(crate) fn may_match(&self, document: &str) -> bool {
        self.few.iter().any(|anchor| document.contains(&**anchor))
            || self
                .tables
                .iter()
                .any(|table| table.occurs_in(document.as_bytes()))
    }
}

/// One Wu–Manber tier: a shift table over `block`-byte suffixes of a
/// `window`-byte window, and the anchors bucketed by their first `window`
/// bytes.
#[derive(Debug)]
struct BlockShift {
    /// `m`: the tier's shortest anchor, at most [`LONG_ANCHOR`].
    window: usize,
    /// `B`: 3, or 2 for windows under 6 bytes, which would barely move at
    /// 3; never more than the window.
    block: usize,
    /// Slot of a block's hash → how far the window may move.
    shift: Vec<u8>,
    shift_bits: u32,
    /// The anchors' bytes back to back, ordered by bucket: anchor `i` is
    /// `bytes[bounds[i]..bounds[i + 1]]`.
    bytes: Vec<u8>,
    bounds: Vec<u32>,
    /// Bucket `b` holds anchors `starts[b]..starts[b + 1]`.
    starts: Vec<u32>,
    bucket_bits: u32,
}

/// The slot of `hash` in a table of `1 << bits` (Fibonacci hashing: the
/// top bits of the product).
fn slot(hash: u64, bits: u32) -> usize {
    (hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
}

/// The bytes of a block packed into one word.
#[inline]
fn pack(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0, |word, &b| word << 8 | u64::from(b))
}

/// FNV-1a over a window, for the verify buckets.
fn window_hash(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

impl BlockShift {
    /// The table over `anchors` (non-empty, none empty), or `None` when its
    /// mean shift is under half its maximum.
    fn build(anchors: &[&str]) -> Option<Self> {
        let window = anchors.iter().map(|a| a.len()).min()?.min(LONG_ANCHOR);
        let block = window.min(if window < 6 { 2 } else { 3 });
        let max_shift = window - block + 1;
        let blocks = anchors.len() * max_shift;
        let shift_bits = (blocks * 4)
            .next_power_of_two()
            .trailing_zeros()
            .clamp(*TABLE_BITS.start(), *TABLE_BITS.end());
        let mut shift = vec![u8::try_from(max_shift).expect("window fits u8"); 1 << shift_bits];
        for anchor in anchors {
            let prefix = &anchor.as_bytes()[..window];
            for end in block..=window {
                let entry = &mut shift[slot(pack(&prefix[end - block..end]), shift_bits)];
                *entry = (*entry).min(u8::try_from(window - end).expect("window fits u8"));
            }
        }
        let total: usize = shift.iter().map(|&s| usize::from(s)).sum();
        if total * 2 < max_shift * shift.len() {
            return None;
        }

        // The verify buckets, laid out by a counting sort.
        let bucket_bits = (anchors.len() * 2).next_power_of_two().trailing_zeros();
        let buckets: Vec<usize> = anchors
            .iter()
            .map(|anchor| slot(window_hash(&anchor.as_bytes()[..window]), bucket_bits))
            .collect();
        let mut starts = vec![0u32; (1 << bucket_bits) + 1];
        for &bucket in &buckets {
            starts[bucket + 1] += 1;
        }
        for b in 1..starts.len() {
            starts[b] += starts[b - 1];
        }
        let mut next = starts.clone();
        let mut order = vec![""; anchors.len()];
        for (anchor, &bucket) in anchors.iter().zip(&buckets) {
            order[next[bucket] as usize] = *anchor;
            next[bucket] += 1;
        }
        let mut bounds = Vec::with_capacity(anchors.len() + 1);
        bounds.push(0);
        let mut bytes = Vec::new();
        for anchor in order {
            bytes.extend_from_slice(anchor.as_bytes());
            bounds.push(u32::try_from(bytes.len()).expect("anchor bytes fit u32"));
        }
        Some(BlockShift {
            window,
            block,
            shift,
            shift_bits,
            bytes,
            bounds,
            starts,
            bucket_bits,
        })
    }

    /// Does any of the tier's anchors occur in `text`?
    fn occurs_in(&self, text: &[u8]) -> bool {
        let found = match self.block {
            3 => self.search::<3>(text),
            2 => self.search::<2>(text),
            _ => self.search::<1>(text),
        };
        found.is_break()
    }

    /// The first window end of the second lane of [`BlockShift::search`]
    /// over a `len`-byte text: the midpoint of the window ends
    /// `window..=len`.
    fn lane_split(&self, len: usize) -> usize {
        (self.window + len).div_ceil(2)
    }

    /// [`BlockShift::occurs_in`] with the block length `B` known: `Break`
    /// when an anchor occurs.
    ///
    /// Wu–Manber started at any window end at or past `window` finds every
    /// anchor whose window ends there or later, since no shift passes an
    /// anchor's window end. So the window ends are split at
    /// [`BlockShift::lane_split`] into two lanes, each searched from its
    /// own first end, and the lanes are stepped in turn: each step is a
    /// chain of dependent loads (block, table, next block), and two chains
    /// overlap where one would wait. Four lanes measured no better.
    fn search<const B: usize>(&self, text: &[u8]) -> ControlFlow<()> {
        let split = self.lane_split(text.len());
        let (mut low, mut high) = (self.window, split.max(self.window));
        while low < split && high <= text.len() {
            low = self.step::<B>(text, low)?;
            high = self.step::<B>(text, high)?;
        }
        while low < split {
            low = self.step::<B>(text, low)?;
        }
        while high <= text.len() {
            high = self.step::<B>(text, high)?;
        }
        ControlFlow::Continue(())
    }

    /// The window end after `end` (one past the window's last byte), or
    /// `Break` when an anchor starts at `end - window`.
    #[inline(always)]
    fn step<const B: usize>(&self, text: &[u8], end: usize) -> ControlFlow<(), usize> {
        let block: &[u8; B] = text[end - B..end].try_into().expect("B bytes");
        let shift = self.shift[slot(pack(block), self.shift_bits)];
        if shift > 0 {
            return ControlFlow::Continue(end + usize::from(shift));
        }
        let start = end - self.window;
        let bucket = slot(window_hash(&text[start..end]), self.bucket_bits);
        let candidates = self.starts[bucket] as usize..self.starts[bucket + 1] as usize;
        if candidates.into_iter().any(|i| {
            let anchor = &self.bytes[self.bounds[i] as usize..self.bounds[i + 1] as usize];
            text[start..].starts_with(anchor)
        }) {
            return ControlFlow::Break(());
        }
        ControlFlow::Continue(end + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn brute_force(anchors: &[String], doc: &str) -> bool {
        anchors.iter().any(|anchor| doc.contains(anchor.as_str()))
    }

    fn gate(anchors: &[String]) -> AnchorGate {
        AnchorGate::build(anchors).expect("the table can skip")
    }

    /// `count` distinct anchors of `len` bytes over a three-letter
    /// alphabet, so documents of the same letters hold some and miss some.
    fn narrow_anchors(count: usize, len: usize) -> Vec<String> {
        (0..count)
            .map(|i| {
                let mut digits = i;
                (0..len)
                    .map(|_| {
                        let c = ["a", "b", "c"][digits % 3];
                        digits /= 3;
                        c
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn tiers_split_at_eight_short_anchors_and_at_32_bytes() {
        let eight = narrow_anchors(8, 12);
        let gate8 = gate(&eight);
        assert_eq!((gate8.few.len(), gate8.tables.len()), (8, 0));
        let nine = narrow_anchors(9, 12);
        let gate9 = gate(&nine);
        assert_eq!((gate9.few.len(), gate9.tables.len()), (0, 1));
        assert_eq!(gate9.tables[0].window, 12);

        let mut mixed = vec!["x".repeat(31), "y".repeat(32)];
        let both = gate(&mixed);
        assert_eq!((both.few.len(), both.tables.len()), (1, 1));
        assert_eq!(both.tables[0].window, 32);
        mixed.extend(narrow_anchors(9, 5));
        let both = gate(&mixed);
        assert_eq!(both.few.len(), 0);
        assert_eq!(
            both.tables
                .iter()
                .map(|t| (t.window, t.block))
                .collect::<Vec<_>>(),
            [(5, 2), (32, 3)]
        );
        for doc in [
            "",
            "xxxx",
            &"x".repeat(31),
            &"y".repeat(31),
            &"y".repeat(40),
            "ccbab",
            "zaaaaaz",
        ] {
            assert_eq!(both.may_match(doc), brute_force(&mixed, doc), "{doc:?}");
        }
    }

    #[test]
    fn an_empty_gate_passes_nothing() {
        let empty = gate(&[]);
        assert!(!empty.may_match(""));
        assert!(!empty.may_match("anything at all"));
    }

    #[test]
    fn a_saturated_table_builds_no_gate() {
        // 5,000 pseudo-random 32-byte anchors put 150,000 blocks in a
        // 65,536-slot table: nearly every slot holds a small shift.
        let mut state = 7u64;
        let anchors: Vec<String> = (0..5_000)
            .map(|_| {
                (0..32)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1);
                        char::from(b'!' + (state >> 58) as u8 % 90)
                    })
                    .collect()
            })
            .collect();
        assert!(AnchorGate::build(&anchors).is_none());
        // The same count of `decoder_NNNN`-style anchors shares its blocks
        // and skips.
        let decoders: Vec<String> = (0..5_000).map(|i| format!("decoder_{i:04}")).collect();
        let decoders = gate(&decoders);
        assert!(!decoders.may_match("var decoder = 12; // decoder_x 0001"));
        assert!(decoders.may_match("x=decoder_4999;"));
    }

    /// A document over the anchors' alphabet plus a separator, with a
    /// multi-byte character now and then: up to 400 pieces, so documents
    /// reach past four times the widest window and both lanes of a table
    /// run many steps.
    fn doc_strategy() -> impl Strategy<Value = String> {
        prop::collection::vec(0u32..9, 0..400).prop_map(|picks| {
            picks
                .into_iter()
                .map(|p| ["a", "b", "c", "a", "b", "c", " ", "é", "ab"][p as usize])
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `may_match(doc)` is exactly "some anchor is a substring of
        /// `doc`", in every tier layout: a few short anchors, a short
        /// table, a long table, and both tables at once.
        #[test]
        fn may_match_is_exactly_some_anchor_occurs(
            count in 1usize..40,
            len in 1usize..40,
            extra_long in 0usize..3,
            doc in doc_strategy(),
            planted in 0usize..64,
            blank in 4 * LONG_ANCHOR..8 * LONG_ANCHOR,
        ) {
            let mut anchors = narrow_anchors(count, len);
            anchors.extend(narrow_anchors(extra_long, LONG_ANCHOR + 3).into_iter().map(|a| a.replace('a', "ab")));
            // Three letters leave few distinct blocks: every table skips.
            let gate = gate(&anchors);
            prop_assert_eq!(gate.may_match(&doc), brute_force(&anchors, &doc));
            // The same document with one anchor planted in its middle.
            let anchor = &anchors[planted % anchors.len()];
            let mut at = doc.len() / 2;
            while !doc.is_char_boundary(at) {
                at += 1;
            }
            let with = format!("{}{anchor}{}", &doc[..at], &doc[at..]);
            prop_assert!(gate.may_match(&with));
            // The anchor alone in a blank document, its window ending at
            // the lane split of its table and one position either side:
            // the second lane must start exactly at the split.
            let table = if anchor.len() >= LONG_ANCHOR {
                gate.tables.last()
            } else if gate.few.is_empty() {
                gate.tables.first()
            } else {
                None
            };
            if let Some(table) = table {
                let split = table.lane_split(blank + anchor.len());
                for end in [split - 1, split, split + 1] {
                    let before = end - table.window;
                    let with = format!("{}{anchor}{}", " ".repeat(before), " ".repeat(blank - before));
                    prop_assert!(gate.may_match(&with), "window end {} of split {}", end, split);
                }
            }
        }
    }
}
