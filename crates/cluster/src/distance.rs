//! Edit distance between abstract token strings.
//!
//! Kizzle measures the distance between two samples as the edit distance of
//! their token-class strings, normalized by the longer length, and clusters
//! with a threshold of 0.10 (paper §III-A). Computing millions of pairwise
//! distances dominates the pipeline, so every distance here is bounded: it
//! gives up early once the distance provably exceeds a bound — with a 10%
//! threshold the band is narrow and the common case is fast. Every path
//! (neighbor index, medoid passes, [`normalized_edit_distance_bounded`])
//! runs the bit-parallel [`BitParallelPattern`] kernel; the scalar DPs it
//! is held to live with the tests (`tests/common/distance.rs`).
//!
//! What a comparison costs follows what differs, not how long the strings
//! are: the kernel strips the prefix and suffix a pair shares before it
//! computes anything, and a kit's variants differ by small local edits
//! (paper Fig. 5) — on the ledger's diverse days 85–95 % of the pairs that
//! reach the kernel keep a core of at most 64 symbols of their ~850, the
//! median pair 4–5 (PERF.md, "Distance kernel — current state").

/// A token string preprocessed for Myers' bit-parallel edit distance.
///
/// Myers' algorithm (J. ACM 1999, multi-word extension per Hyyrö 2003)
/// represents one column of the dynamic-programming matrix as vertical
/// delta bit vectors and advances a whole 64-row block per instruction.
/// A comparison first strips the prefix and suffix the two strings share
/// (eight symbols a step; `ed(x·a·y, x·b·y) = ed(a, b)`) and runs the
/// kernel over the *core* that is left, so against a text of length `n` it
/// costs one pass over the shared affix plus `O(⌈band / 64⌉ · core)` —
/// one word per core column when the shorter core fits in 64 symbols, the
/// ~3 blocks of the Ukkonen band otherwise. Kit variants differ by small
/// local edits (paper Fig. 5), so the core is typically a handful of
/// symbols of a ≤ 900-token string; two strings with no shared affix pay
/// the full `O(⌈band / 64⌉ · n)`.
///
/// Building the pattern costs `O(m)` and two allocations (a copy of the
/// symbols, and match masks sized by the symbols the pattern actually
/// contains); amortize it by reusing one `BitParallelPattern` across many
/// comparisons (the neighbor index compares each query against every
/// surviving candidate, a medoid scan compares each candidate against the
/// rest of its pool), and pass one [`BitParallelScratch`] along so no
/// comparison allocates.
///
/// # Examples
///
/// ```
/// use kizzle_cluster::distance::BitParallelPattern;
/// let pattern = BitParallelPattern::new(b"kitten");
/// assert_eq!(pattern.distance_bounded(b"sitting", 3), Some(3));
/// assert_eq!(pattern.distance_bounded(b"sitting", 2), None);
/// ```
#[derive(Debug, Clone)]
pub struct BitParallelPattern {
    /// The pattern itself, for the affix scan and the single-word kernel.
    symbols: Box<[u8]>,
    /// Number of 64-bit blocks covering the pattern.
    blocks: usize,
    /// Symbol → row of `peq`. Row 0 is the all-zero mask shared by every
    /// symbol the pattern does not contain.
    row_of: [u16; 256],
    /// Per-symbol match masks: `peq[row_of[sym] * blocks + w]` has bit `i`
    /// set when `pattern[w * 64 + i] == sym`.
    peq: Vec<u64>,
}

/// Column state of the bit-parallel kernel (the vertical delta vectors of
/// every block), reusable across comparisons so the hot loops of
/// [`BitParallelPattern::distance_bounded_in`] callers never allocate.
#[derive(Debug, Clone, Default)]
pub struct BitParallelScratch {
    /// `(pv, mv)` per block.
    columns: Vec<(u64, u64)>,
}

/// The edit budget of a pair under a normalized `threshold`:
/// `floor(threshold · max_len)`, or `None` when the length difference alone
/// (a lower bound on the edit distance) already exceeds the threshold.
fn edit_budget(a_len: usize, b_len: usize, threshold: f64) -> Option<usize> {
    let max_len = a_len.max(b_len);
    if a_len.abs_diff(b_len) as f64 / max_len as f64 > threshold {
        return None;
    }
    Some((threshold * max_len as f64).floor() as usize)
}

/// Length of the longest common prefix of `a` and `b`, compared eight
/// symbols a step.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let words = a
        .chunks_exact(8)
        .zip(b.chunks_exact(8))
        .take_while(|(x, y)| x == y)
        .count();
    // Fewer than eight symbols are left to agree: the differing word, or
    // the tail of the shorter string.
    let at = words * 8;
    at + a[at..]
        .iter()
        .zip(&b[at..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// Length of the longest common suffix of `a` and `b`, compared eight
/// symbols a step.
fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    let words = a
        .rchunks_exact(8)
        .zip(b.rchunks_exact(8))
        .take_while(|(x, y)| x == y)
        .count();
    let at = words * 8;
    at + a[..a.len() - at]
        .iter()
        .rev()
        .zip(b[..b.len() - at].iter().rev())
        .take_while(|(x, y)| x == y)
        .count()
}

/// Advance one 64-row block of the column state by one text symbol
/// (Hyyrö 2003, fig. 8): `eq0` is the block's match mask for the symbol,
/// `hin` the horizontal delta entering its lowest row, and the returned
/// delta is the one leaving the row of `out_bit`.
#[inline(always)]
fn advance_block(eq0: u64, column: &mut (u64, u64), hin: i32, out_bit: u64) -> i32 {
    let (pvw, mvw) = *column;
    let xv = eq0 | mvw;
    // A negative carry-in acts like a match in the lowest row.
    let eq = eq0 | u64::from(hin < 0);
    let xh = (((eq & pvw).wrapping_add(pvw)) ^ pvw) | eq;
    let mut ph = mvw | !(xh | pvw);
    let mut mh = pvw & xh;
    let hout: i32 = if ph & out_bit != 0 {
        1
    } else {
        -i32::from(mh & out_bit != 0)
    };
    ph <<= 1;
    mh <<= 1;
    if hin < 0 {
        mh |= 1;
    } else if hin > 0 {
        ph |= 1;
    }
    *column = (mh | !(xv | ph), ph & xv);
    hout
}

/// Bounded edit distance of two cores, the shorter of at most 64 symbols:
/// Myers' kernel over a single word, its match masks built on the stack.
fn single_word_distance(short: &[u8], long: &[u8], max: usize) -> Option<usize> {
    debug_assert!((1..=64).contains(&short.len()) && short.len() <= long.len());
    let mut peq = [0u64; 256];
    for (i, &sym) in short.iter().enumerate() {
        peq[sym as usize] |= 1u64 << i;
    }
    let score_bit = 1u64 << (short.len() - 1);
    let mut column = (u64::MAX, 0u64);
    let mut score = short.len();
    for (j, &sym) in long.iter().enumerate() {
        // Row 0 of the DP matrix increases by one per text symbol.
        let hout = advance_block(peq[sym as usize], &mut column, 1, score_bit);
        score = score.wrapping_add_signed(hout as isize);
        // Each remaining symbol lowers the final distance by at most one.
        if score > max + (long.len() - j - 1) {
            return None;
        }
    }
    (score <= max).then_some(score)
}

impl BitParallelPattern {
    /// Preprocess `pattern` into per-symbol match masks.
    #[must_use]
    pub fn new(pattern: &[u8]) -> Self {
        let blocks = pattern.len().div_ceil(64).max(1);
        let mut row_of = [0u16; 256];
        let mut rows = 1u16;
        for &sym in pattern {
            if row_of[sym as usize] == 0 {
                row_of[sym as usize] = rows;
                rows += 1;
            }
        }
        let mut peq = vec![0u64; usize::from(rows) * blocks];
        for (i, &sym) in pattern.iter().enumerate() {
            peq[usize::from(row_of[sym as usize]) * blocks + i / 64] |= 1u64 << (i % 64);
        }
        BitParallelPattern {
            symbols: pattern.into(),
            blocks,
            row_of,
            peq,
        }
    }

    /// Pattern length in symbols.
    #[must_use]
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// True if the pattern is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Edit distance to `text` with an upper bound: `None` as soon as the
    /// distance provably exceeds `max`, otherwise the exact distance.
    ///
    /// The prefix and suffix the two strings share are stripped first —
    /// they change no distance — and only the cores in between reach a
    /// kernel: none when one core is empty (the distance is the other
    /// core's length), Myers' single-word kernel when the shorter core
    /// has at most 64 symbols, and otherwise the banded block kernel.
    ///
    /// The block kernel advances only the 64-row blocks covering the
    /// Ukkonen band (`|i − j| ≤ max`) per column (Hyyrö's banded block
    /// algorithm, as in edlib): a path achieving distance ≤ `max` never
    /// leaves the band, so cells outside it may be overestimated freely —
    /// untouched blocks keep their initial all-`+1` column state, and the
    /// boundary horizontal delta entering the lowest processed block is
    /// taken as `+1` (both are exact or overestimates, and the DP is
    /// monotone in its inputs). At the 900-token cap with `eps = 0.10`
    /// this touches ~3 of 15 blocks per column instead of all of them.
    #[must_use]
    pub fn distance_bounded(&self, text: &[u8], max: usize) -> Option<usize> {
        self.distance_bounded_in(text, max, &mut BitParallelScratch::default())
    }

    /// [`BitParallelPattern::distance_bounded`] over caller-provided column
    /// state: a loop comparing many texts passes the same `scratch` every
    /// time and performs no allocation per comparison.
    #[must_use]
    pub fn distance_bounded_in(
        &self,
        text: &[u8],
        max: usize,
        scratch: &mut BitParallelScratch,
    ) -> Option<usize> {
        let pattern = &*self.symbols;
        if pattern.len().abs_diff(text.len()) > max {
            return None;
        }
        let prefix = common_prefix(pattern, text);
        let suffix = common_suffix(&pattern[prefix..], &text[prefix..]);
        let core_p = &pattern[prefix..pattern.len() - suffix];
        let core_t = &text[prefix..text.len() - suffix];
        let (short, long) = if core_p.len() <= core_t.len() {
            (core_p, core_t)
        } else {
            (core_t, core_p)
        };
        if short.is_empty() {
            // Pure insertion: the distance is the length difference, which
            // the filter above already established is within the bound.
            return Some(long.len());
        }
        // No distance exceeds the longer core, so a larger budget only
        // widens the band.
        let max = max.min(long.len());
        if short.len() <= 64 {
            single_word_distance(short, long, max)
        } else {
            self.block_distance(text, prefix, suffix, max, scratch)
        }
    }

    /// The banded block kernel over the cores left by stripping `prefix`
    /// and `suffix` shared symbols: the pattern's full-length match masks
    /// are used as they are, the DP simply starts at text column `prefix`
    /// — where, the prefixes being equal, row `i` holds exactly
    /// `|i − prefix|` — and ends at row `m − suffix` of column
    /// `n − suffix`.
    fn block_distance(
        &self,
        text: &[u8],
        prefix: usize,
        suffix: usize,
        max: usize,
        scratch: &mut BitParallelScratch,
    ) -> Option<usize> {
        // Rows and columns past these are the shared suffix; the masks
        // describe them, but no row depends on a higher one.
        let (m, n) = (self.symbols.len() - suffix, text.len() - suffix);
        let blocks = self.blocks;
        let last_block = (m - 1) / 64;
        // Bit of row `m` (the score row) within the last block.
        let score_bit = 1u64 << ((m - 1) % 64);
        let columns = &mut scratch.columns;
        columns.clear();
        // Column `prefix`: vertical delta −1 down to row `prefix`, +1 below.
        columns.resize(prefix / 64, (0u64, u64::MAX));
        let below = u64::MAX << (prefix % 64);
        columns.push((below, !below));
        columns.resize(last_block + 1, (u64::MAX, 0u64));
        // Lowest block the band has reached so far. `score` tracks the
        // computed D[r][j] at the band anchor row r = min(m, 64·(band + 1)),
        // advanced via the horizontal delta leaving that block.
        let mut band = ((prefix + max + 1).min(m) - 1) / 64;
        let mut score = (64 * (band + 1)).min(m) - prefix;

        for (j, &sym) in text[..n].iter().enumerate().skip(prefix) {
            let col = j + 1;
            // Row band for this column: lo..=hi (1-based over the pattern).
            let lo = col.saturating_sub(max).max(1);
            let hi = col.saturating_add(max).min(m);
            let first = (lo - 1) / 64;
            let new_band = (hi - 1) / 64;
            if new_band > band {
                // Blocks entering at the bottom were never touched: their
                // state is still the initial all-+1 column, so re-anchoring
                // the score costs one per assumed row.
                score += (64 * (new_band + 1)).min(m) - (64 * (band + 1)).min(m);
                band = new_band;
            }
            let row = usize::from(self.row_of[sym as usize]);
            let peq_row = &self.peq[row * blocks..(row + 1) * blocks];
            // Horizontal delta entering the bottom of the processed window:
            // row 0 of the DP matrix increases by one per text symbol, and
            // for a window starting above row 0 the true delta is ≤ +1.
            let mut hin: i32 = 1;
            for w in first..=band {
                // Horizontal delta leaving the top of this block: read at
                // the last *used* pattern row, not bit 63, for the final
                // block — rows past `m` are not part of this comparison.
                let out_bit = if w == last_block {
                    score_bit
                } else {
                    1u64 << 63
                };
                hin = advance_block(peq_row[w], &mut columns[w], hin, out_bit);
            }
            score = score.wrapping_add_signed(hin as isize);
            // Early exit, only once the band anchor is the true score row
            // (the conservative form at an interior anchor could misfire on
            // overestimated below-band cells): score == D[m][col], and each
            // remaining text symbol can lower the final distance by at most
            // one.
            if band == last_block {
                let remaining = n - col;
                if score > max + remaining {
                    return None;
                }
            }
        }
        (score <= max).then_some(score)
    }

    /// [`normalized_edit_distance_bounded`] with this pattern as one side of
    /// the pair — bit-equal to it whichever side is preprocessed, because
    /// the kernel is exact within the budget and the budget depends only on
    /// the two lengths.
    #[must_use]
    pub fn normalized_distance_bounded_in(
        &self,
        text: &[u8],
        threshold: f64,
        scratch: &mut BitParallelScratch,
    ) -> Option<f64> {
        let max_len = self.len().max(text.len());
        if max_len == 0 {
            return Some(0.0);
        }
        let budget = edit_budget(self.len(), text.len(), threshold)?;
        self.distance_bounded_in(text, budget, scratch)
            .map(|d| d as f64 / max_len as f64)
    }
}

/// Bit-parallel bounded edit distance for a one-off pair; see
/// [`BitParallelPattern`] for the amortized form.
///
/// # Examples
///
/// ```
/// use kizzle_cluster::distance::edit_distance_bitparallel_bounded;
/// assert_eq!(edit_distance_bitparallel_bounded(b"kitten", b"sitting", 3), Some(3));
/// assert_eq!(edit_distance_bitparallel_bounded(b"kitten", b"sitting", 2), None);
/// ```
#[must_use]
pub fn edit_distance_bitparallel_bounded(a: &[u8], b: &[u8], max: usize) -> Option<usize> {
    // Preprocess the shorter side: fewer blocks, longer inner loop.
    let (pattern, text) = if a.len() < b.len() { (a, b) } else { (b, a) };
    BitParallelPattern::new(pattern).distance_bounded(text, max)
}

/// Normalized edit distance with an early exit: returns `None` when the
/// normalized distance is guaranteed to exceed `threshold`.
///
/// With the paper's `threshold = 0.10` the underlying band is only 10% of
/// the longer length. Runs the bit-parallel kernel with the shorter string
/// as the pattern; the result is exact within the budget, so `d(a, b)` and
/// `d(b, a)` are bit-equal — what lets the seal's medoid passes memoize
/// one value per unordered pair.
#[must_use]
pub fn normalized_edit_distance_bounded(a: &[u8], b: &[u8], threshold: f64) -> Option<f64> {
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return Some(0.0);
    }
    let budget = edit_budget(a.len(), b.len(), threshold)?;
    edit_distance_bitparallel_bounded(a, b, budget).map(|d| d as f64 / max_len as f64)
}

#[cfg(test)]
#[path = "../tests/common/distance.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::oracle::{edit_distance, edit_distance_bounded, normalized_edit_distance};
    use super::*;

    #[test]
    fn classic_examples() {
        assert_eq!(edit_distance(b"kitten", b"sitting"), 3);
        assert_eq!(edit_distance(b"flaw", b"lawn"), 2);
        assert_eq!(edit_distance(b"abc", b"abc"), 0);
        assert_eq!(edit_distance(b"", b""), 0);
        assert_eq!(edit_distance(b"abc", b""), 3);
    }

    #[test]
    fn symmetric() {
        assert_eq!(
            edit_distance(b"abcdef", b"azced"),
            edit_distance(b"azced", b"abcdef")
        );
    }

    #[test]
    fn bounded_matches_exact_when_within_bound() {
        let pairs: &[(&[u8], &[u8])] = &[
            (b"kitten", b"sitting"),
            (b"exploit", b"exploits"),
            (b"aaaaaaaaaa", b"aaaaabaaaa"),
            (b"", b"xyz"),
            (b"same", b"same"),
        ];
        for (a, b) in pairs {
            let exact = edit_distance(a, b);
            assert_eq!(edit_distance_bounded(a, b, exact), Some(exact));
            assert_eq!(edit_distance_bounded(a, b, exact + 5), Some(exact));
            if exact > 0 {
                assert_eq!(edit_distance_bounded(a, b, exact - 1), None);
            }
        }
    }

    #[test]
    fn bounded_rejects_big_length_difference_immediately() {
        let a = vec![1u8; 10];
        let b = vec![1u8; 100];
        assert_eq!(edit_distance_bounded(&a, &b, 5), None);
    }

    #[test]
    fn normalized_range_and_identity() {
        assert_eq!(normalized_edit_distance(b"", b""), 0.0);
        assert_eq!(normalized_edit_distance(b"abcd", b"abcd"), 0.0);
        assert_eq!(normalized_edit_distance(b"abcd", b"wxyz"), 1.0);
        let d = normalized_edit_distance(b"abcdefghij", b"abcdefghiX");
        assert!((d - 0.1).abs() < 1e-12);
    }

    #[test]
    fn normalized_bounded_agrees_with_unbounded() {
        let a = b"abcdefghijklmnopqrst";
        let b = b"abcdefghijklmnopqrsX";
        let exact = normalized_edit_distance(a, b);
        let bounded = normalized_edit_distance_bounded(a, b, 0.10).unwrap();
        assert!((exact - bounded).abs() < 1e-12);
        assert_eq!(normalized_edit_distance_bounded(a, b, 0.01), None);
    }

    #[test]
    fn normalized_bounded_empty_strings() {
        assert_eq!(normalized_edit_distance_bounded(b"", b"", 0.1), Some(0.0));
        assert_eq!(
            normalized_edit_distance_bounded(b"", b"abcdefghij", 0.1),
            None
        );
    }

    #[test]
    fn bounded_zero_max_only_for_equal() {
        assert_eq!(edit_distance_bounded(b"same", b"same", 0), Some(0));
        assert_eq!(edit_distance_bounded(b"same", b"sane", 0), None);
    }

    #[test]
    fn bitparallel_agrees_with_banded_on_classics() {
        let pairs: &[(&[u8], &[u8])] = &[
            (b"kitten", b"sitting"),
            (b"exploit", b"exploits"),
            (b"aaaaaaaaaa", b"aaaaabaaaa"),
            (b"", b"xyz"),
            (b"same", b"same"),
            (b"flaw", b"lawn"),
        ];
        for (a, b) in pairs {
            let exact = edit_distance(a, b);
            for max in 0..exact + 3 {
                assert_eq!(
                    edit_distance_bitparallel_bounded(a, b, max),
                    edit_distance_bounded(a, b, max),
                    "a={a:?} b={b:?} max={max}"
                );
            }
        }
    }

    #[test]
    fn bitparallel_crosses_block_boundaries() {
        // Lengths straddling 64 and 128 exercise the multi-block carry path.
        for len in [63, 64, 65, 127, 128, 129, 200] {
            let a: Vec<u8> = (0..len).map(|i| (i % 7) as u8).collect();
            let mut b = a.clone();
            for slot in b.iter_mut().step_by(13) {
                *slot = 9;
            }
            b.truncate(len - len / 50);
            let exact = edit_distance(&a, &b);
            assert_eq!(
                edit_distance_bitparallel_bounded(&a, &b, exact),
                Some(exact),
                "len={len}"
            );
            if exact > 0 {
                assert_eq!(edit_distance_bitparallel_bounded(&a, &b, exact - 1), None);
            }
        }
    }

    #[test]
    fn bitparallel_pattern_is_reusable() {
        let query: Vec<u8> = (0..150).map(|i| (i % 5) as u8).collect();
        let pattern = BitParallelPattern::new(&query);
        assert_eq!(pattern.len(), 150);
        assert!(!pattern.is_empty());
        for variation in 0..10 {
            let mut other = query.clone();
            for slot in other.iter_mut().take(variation * 3) {
                *slot = 8;
            }
            let exact = edit_distance(&query, &other);
            assert_eq!(pattern.distance_bounded(&other, 160), Some(exact));
        }
    }

    #[test]
    fn bitparallel_empty_pattern() {
        let pattern = BitParallelPattern::new(b"");
        assert!(pattern.is_empty());
        assert_eq!(pattern.distance_bounded(b"", 0), Some(0));
        assert_eq!(pattern.distance_bounded(b"abc", 3), Some(3));
        assert_eq!(pattern.distance_bounded(b"abc", 2), None);
    }

    #[test]
    fn long_similar_token_strings_are_close() {
        // Two 500-token strings differing in 20 positions: distance 0.04.
        let a: Vec<u8> = (0..500).map(|i| (i % 6) as u8).collect();
        let mut b = a.clone();
        for i in 0..20 {
            b[i * 25] = 5 - b[i * 25];
        }
        let d = normalized_edit_distance(&a, &b);
        assert!((d - 0.04).abs() < 1e-9);
        assert!(normalized_edit_distance_bounded(&a, &b, 0.10).is_some());
    }
}
