//! Incremental candidate-pruning neighbor index for token-string DBSCAN.
//!
//! The naive neighborhood query compares a sample against all `n − 1`
//! others with the banded edit distance. At the paper's `eps = 0.10` almost
//! all of those comparisons are wasted: two strings can only be within
//! normalized distance 0.10 when their lengths differ by ≤ 10%, and even
//! inside that window most pairs differ in far more than 10% of their token
//! multiset. This index exploits both facts with a chain of ever-more
//! expensive filters:
//!
//! 1. **Length window** — entries live in a length-ordered set; a query
//!    only walks the contiguous range whose lengths satisfy the normalized
//!    length-difference bound. `O(log n)` to locate, nothing at all spent
//!    on samples outside the window.
//! 2. **Token-class histogram L1 bound** — per entry the index stores an
//!    eight-bucket histogram: byte `s` counts in bucket `min(s, 7)`, one
//!    bucket per code of the six token classes. Each unit edit changes the
//!    histogram L1 distance by at most 2, so `⌈L1 / 2⌉ > max_edits`
//!    rejects a pair in eight steps instead of `O(len²)`. Bytes past the
//!    class codes share the last bucket, which can only lower L1, so the
//!    bound holds for any bytes.
//! 3. **Pivot bounds** — the first *two-sided* filter. Absolute edit
//!    distance is a metric, and every entry stores `(pivot, dp)`: the slot
//!    of a nearby entry and its exact edit distance to it. Survivors are
//!    grouped by pivot and the query pays one kernel call per group for
//!    `D = d(query, pivot)`; the triangle inequality then brackets every
//!    member, `|D − dp| ≤ d(query, member) ≤ D + dp`. A lower end above
//!    the pair's budget rejects it, an upper end within the budget accepts
//!    it, and neither decision calls the kernel. A kit family is one dense
//!    ball, so most pairs *are* neighbors — only an upper bound can settle
//!    those (LAESA-style pivot filtering, Micó–Oncina–Vidal 1994).
//! 4. **Bit-parallel bounded edit distance** — the ambiguous band meets
//!    Myers' algorithm ([`BitParallelPattern`]), with the pattern
//!    preprocessing amortized across the whole candidate range of one
//!    query.
//!
//! Pivot acceptance is exact, not approximate: the kernel would return
//! some `d ≤ D + dp`, and both halves of the accept predicate (`d ≤
//! budget`, `d / max_len ≤ eps` in `f64`) are monotone in `d`, so passing
//! them with the upper bound implies passing them with `d`. A group of one
//! skips the pivot call — it would cost the call it hopes to save. The
//! pivot of a group may itself lie outside the query's length window; the
//! inequality does not care.
//!
//! An entry gets its pivot when its eps-ball is computed at insert: the
//! nearest pivot inside the ball (ties → lowest slot), or itself when the
//! ball holds none. Balls are computed in waves of 64 entries, so a large
//! batch sees the pivots of its own earlier waves; the entries of the wave
//! in flight have no pivot yet and are compared directly.
//! Removing a pivot re-homes its members onto the most recently attached
//! one. The pivot table is derived state: it is not persisted, and
//! [`NeighborIndex::decode_from`] rebuilds it from the restored
//! neighborhoods.
//!
//! Unlike the original batch-only index, this one is **incremental**:
//! [`NeighborIndex::insert`] and [`NeighborIndex::remove`] update the
//! length-ordered set and per-entry histograms in place, and the memoized
//! neighborhoods are *maintained* rather than recomputed — inserting a
//! sample computes its own eps-ball once and splices the new id into its
//! neighbors' cached lists (the eps relation is symmetric), removing a
//! sample prunes it from exactly those lists. Every live entry's eps-ball
//! is memoized, always: an insert computes it, a remove prunes it and
//! [`NeighborIndex::decode_from`] restores it, so a read
//! ([`NeighborIndex::neighbors`]) never computes one. Day *N+1* of a
//! heavily overlapping corpus therefore pays query cost only for the
//! churned fraction; everything else is a cache hit.
//!
//! The accept decision reproduces
//! [`normalized_edit_distance_bounded`](crate::distance::normalized_edit_distance_bounded)
//! `≤ eps` bit-for-bit (same `max_edits` floor, same final normalized
//! comparison), so DBSCAN over its eps-balls is label-identical to the
//! seed's naive distance-callback DBSCAN — the property tests in
//! `tests/indexed_properties.rs` and `tests/incremental_properties.rs`
//! hold it to that.

use crate::distance::{BitParallelPattern, BitParallelScratch};
use crate::store::SampleId;
use kizzle_snapshot::{Decoder, Encoder, SnapshotError};
use rayon::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Work counters from index operations, for observability and the PERF.md
/// pruning-efficiency numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Number of eps-ball computations performed, one per inserted entry.
    pub queries: usize,
    /// Neighborhood reads served from the memoized cache: one per
    /// distinct id of a clustered day.
    pub cache_hits: usize,
    /// Ordered candidate pairs that survived the length window.
    pub window_candidates: usize,
    /// Pairs rejected by the histogram L1 lower bound.
    pub pruned_by_histogram: usize,
    /// Every bit-parallel kernel call the index made, the
    /// [`pivot_calls`](Self::pivot_calls) included.
    pub distance_calls: usize,
    /// Kernel calls made against a pivot or to maintain the pivot table:
    /// query → pivot, re-homing on [`NeighborIndex::remove`], attaching at
    /// [`NeighborIndex::decode_from`]. The calls that compared a candidate
    /// pair are `distance_calls − pivot_calls`.
    pub pivot_calls: usize,
    /// Pairs accepted by the pivot upper bound, no kernel call.
    pub accepted_by_pivot: usize,
    /// Pairs rejected by the pivot lower bound, no kernel call.
    pub rejected_by_pivot: usize,
    /// Pairs accepted as neighbors.
    pub neighbors_found: usize,
}

impl IndexStats {
    /// Accumulate another operation's counters.
    pub fn merge(&mut self, other: &IndexStats) {
        self.queries += other.queries;
        self.cache_hits += other.cache_hits;
        self.window_candidates += other.window_candidates;
        self.pruned_by_histogram += other.pruned_by_histogram;
        self.distance_calls += other.distance_calls;
        self.pivot_calls += other.pivot_calls;
        self.accepted_by_pivot += other.accepted_by_pivot;
        self.rejected_by_pivot += other.rejected_by_pivot;
        self.neighbors_found += other.neighbors_found;
    }
}

/// Entries whose eps-balls are computed side by side before any of them
/// gets a pivot. Fixed rather than growing: with doubling waves the last
/// one is half the batch and compares all of it pair by pair.
const WAVE: usize = 64;

#[derive(Debug, Clone)]
struct IndexEntry {
    data: Arc<[u8]>,
    hist: Histogram,
    /// Memoized eps-ball (ascending slot numbers), exact w.r.t. the current
    /// live set — insert/remove maintain it in place.
    cache: Vec<u32>,
    /// `(pivot slot, exact edit distance to that pivot)`; a pivot names
    /// itself at distance 0. `None` only while the entry's insert wave is
    /// in flight.
    pivot: Option<(u32, u32)>,
    /// For a pivot: the entries attached to it, in attachment order.
    members: Vec<u32>,
}

/// An incremental neighbor index over token strings at a fixed `eps`.
///
/// Entries are keyed by caller-supplied [`SampleId`]s (from a
/// [`CorpusStore`](crate::store::CorpusStore) or minted directly); the
/// index owns a cheap [`Arc`] handle to each sample's bytes.
#[derive(Debug, Clone)]
pub struct NeighborIndex {
    eps: f64,
    /// Slot `i` backs `SampleId(i)`.
    entries: Vec<Option<IndexEntry>>,
    /// Live `(length, slot)` pairs, the length-window structure. Updated in
    /// place by insert/remove.
    by_len: BTreeSet<(usize, u32)>,
    live: usize,
    /// Counters accumulated across operations, drained by
    /// [`NeighborIndex::take_stats`].
    session: IndexStats,
}

/// `max_edits` for a pair whose longer string has `max_len` tokens —
/// exactly the floor used by `normalized_edit_distance_bounded`.
fn max_edits(eps: f64, max_len: usize) -> usize {
    (eps * max_len as f64).floor() as usize
}

/// The naive accept predicate on lengths alone: normalized length
/// difference within `eps`.
fn length_compatible(eps: f64, a: usize, b: usize) -> bool {
    let max_len = a.max(b);
    if max_len == 0 {
        return true;
    }
    a.abs_diff(b) as f64 / max_len as f64 <= eps
}

/// Symbol counts, byte `s` in bucket `min(s, 7)`.
type Histogram = [u32; 8];

fn histogram(data: &[u8]) -> Histogram {
    let mut hist = [0; 8];
    for &sym in data {
        hist[usize::from(sym.min(7))] += 1;
    }
    hist
}

fn histogram_l1(a: &Histogram, b: &Histogram) -> u64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| u64::from(x.abs_diff(y)))
        .sum()
}

/// The exact accept predicate for one pair — bit for bit
/// [`normalized_edit_distance_bounded`](crate::distance::normalized_edit_distance_bounded)
/// `≤ eps` — yielding the edit distance of an accepted pair.
fn within_eps(
    eps: f64,
    pattern: &BitParallelPattern,
    text: &[u8],
    scratch: &mut BitParallelScratch,
) -> Option<u32> {
    let max_len = pattern.len().max(text.len());
    if max_len == 0 {
        return Some(0);
    }
    if !length_compatible(eps, pattern.len(), text.len()) {
        return None;
    }
    let d = pattern.distance_bounded_in(text, max_edits(eps, max_len), scratch)?;
    (d as f64 / max_len as f64 <= eps).then(|| u32::try_from(d).expect("distance fits u32"))
}

/// One computed eps-ball.
struct Ball {
    /// Neighbor slots, ascending.
    neighbors: Vec<u32>,
    /// `(slot, edit distance)` of every neighbor whose exact distance a
    /// kernel call established — what pivot adoption chooses from.
    exact: Vec<(u32, u32)>,
    stats: IndexStats,
}

/// A candidate with a pivot that survived the length window and the
/// histogram bound, waiting for its group's pivot call.
struct Survivor {
    pivot: u32,
    /// Exact edit distance candidate → pivot.
    dp: usize,
    slot: u32,
    /// `max_edits` of the (query, candidate) pair.
    budget: usize,
    max_len: usize,
}

/// Working state of one eps-ball computation: the query's kernel pattern,
/// built lazily (queries whose whole length window is pruned — most benign
/// one-offs — never pay the setup), its column scratch, and the ball so far.
struct BallQuery<'q> {
    eps: f64,
    query: &'q [u8],
    pattern: Option<BitParallelPattern>,
    scratch: BitParallelScratch,
    ball: Ball,
}

impl BallQuery<'_> {
    fn pattern(&mut self) -> (&BitParallelPattern, &mut BitParallelScratch) {
        let query = self.query;
        let pattern = self
            .pattern
            .get_or_insert_with(|| BitParallelPattern::new(query));
        (pattern, &mut self.scratch)
    }

    fn accept(&mut self, slot: u32, exact: Option<u32>) {
        self.ball.neighbors.push(slot);
        self.ball.stats.neighbors_found += 1;
        if let Some(d) = exact {
            self.ball.exact.push((slot, d));
        }
    }

    /// Settle one candidate pair with its own kernel call.
    fn compare(&mut self, slot: u32, cand: &[u8]) {
        self.ball.stats.distance_calls += 1;
        let eps = self.eps;
        let (pattern, scratch) = self.pattern();
        if let Some(d) = within_eps(eps, pattern, cand, scratch) {
            self.accept(slot, Some(d));
        }
    }
}

impl NeighborIndex {
    /// Create an empty index for the given `eps`.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is negative or NaN.
    #[must_use]
    pub fn new(eps: f64) -> Self {
        assert!(
            eps >= 0.0 && eps.is_finite(),
            "eps must be a non-negative number"
        );
        NeighborIndex {
            eps,
            entries: Vec::new(),
            by_len: BTreeSet::new(),
            live: 0,
            session: IndexStats::default(),
        }
    }

    /// Build an index over a sample slice, assigning `SampleId(i)` to
    /// `samples[i]` and computing every neighborhood up front (in
    /// parallel). The one-shot batch entry point.
    #[must_use]
    pub fn build<S: AsRef<[u8]> + Sync>(samples: &[S], eps: f64) -> Self {
        let mut index = NeighborIndex::new(eps);
        let items: Vec<(SampleId, Arc<[u8]>)> = samples
            .iter()
            .enumerate()
            .map(|(i, s)| {
                (
                    SampleId::new(u32::try_from(i).expect("more than u32::MAX samples")),
                    Arc::from(s.as_ref()),
                )
            })
            .collect();
        index.insert_batch(items);
        index
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if the index holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The `eps` the index was built for.
    #[must_use]
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// True if `id` is indexed.
    #[must_use]
    pub fn contains(&self, id: SampleId) -> bool {
        self.entries
            .get(id.raw() as usize)
            .is_some_and(Option::is_some)
    }

    /// Drain the counters accumulated since the last call.
    pub fn take_stats(&mut self) -> IndexStats {
        std::mem::take(&mut self.session)
    }

    fn entry(&self, slot: u32) -> &IndexEntry {
        self.entries[slot as usize]
            .as_ref()
            .expect("slot refers to a live entry")
    }

    fn entry_mut(&mut self, slot: u32) -> &mut IndexEntry {
        self.entries[slot as usize]
            .as_mut()
            .expect("slot refers to a live entry")
    }

    /// The eps-ball of live slot `own` over the other live entries: every
    /// slot whose sample is within normalized edit distance `eps`,
    /// ascending. No cache is read or written.
    ///
    /// Candidates pass the length window and the histogram bound one by
    /// one; the survivors that have a pivot are then settled group by
    /// group from one kernel call against the group's pivot, and only the
    /// band the triangle inequality leaves open is compared pair by pair.
    fn eps_ball(&self, own: u32) -> Ball {
        let IndexEntry {
            data: query,
            hist: query_hist,
            ..
        } = self.entry(own);
        let mut q = BallQuery {
            eps: self.eps,
            query,
            pattern: None,
            scratch: BitParallelScratch::default(),
            ball: Ball {
                neighbors: Vec::new(),
                exact: Vec::new(),
                stats: IndexStats {
                    queries: 1,
                    ..IndexStats::default()
                },
            },
        };
        let query_len = query.len();
        let mut survivors: Vec<Survivor> = Vec::new();

        // Conservative start of the length window (one short of the integer
        // bound; the exact float predicate re-checks each candidate).
        let window_min = query_len.saturating_sub(max_edits(self.eps, query_len) + 1);
        for &(cand_len, slot) in self.by_len.range((window_min, 0u32)..) {
            if !length_compatible(self.eps, query_len, cand_len) {
                if cand_len > query_len {
                    // (M − L) / M grows with M: every longer candidate
                    // fails too.
                    break;
                }
                // Below the exact bound but inside the conservative slack.
                continue;
            }
            if slot == own {
                continue;
            }
            q.ball.stats.window_candidates += 1;

            let max_len = query_len.max(cand_len);
            if max_len == 0 {
                // Two empty strings: distance 0.
                q.accept(slot, Some(0));
                continue;
            }
            let budget = max_edits(self.eps, max_len);
            let cand = self.entry(slot);
            // Each edit moves the histogram L1 by at most 2.
            let l1 = histogram_l1(query_hist, &cand.hist);
            let l1_lower = usize::try_from(l1.div_ceil(2)).unwrap_or(usize::MAX);
            if l1_lower > budget {
                q.ball.stats.pruned_by_histogram += 1;
                continue;
            }
            match cand.pivot {
                Some((pivot, dp)) => survivors.push(Survivor {
                    pivot,
                    dp: dp as usize,
                    slot,
                    budget,
                    max_len,
                }),
                None => q.compare(slot, &cand.data),
            }
        }

        survivors.sort_unstable_by_key(|s| s.pivot);
        for group in survivors.chunk_by(|a, b| a.pivot == b.pivot) {
            if let [only] = group {
                // The pivot call would cost the call it hopes to save.
                q.compare(only.slot, &self.entry(only.slot).data);
                continue;
            }
            // d(query, member) ≥ d(query, pivot) − dp for every member, so
            // a pivot further than the largest budget plus the largest dp
            // puts the whole group out of reach.
            let reach = group.iter().map(|s| s.budget).max().unwrap_or(0)
                + group.iter().map(|s| s.dp).max().unwrap_or(0);
            q.ball.stats.distance_calls += 1;
            q.ball.stats.pivot_calls += 1;
            let (pattern, scratch) = q.pattern();
            let to_pivot =
                pattern.distance_bounded_in(&self.entry(group[0].pivot).data, reach, scratch);
            let Some(to_pivot) = to_pivot else {
                q.ball.stats.rejected_by_pivot += group.len();
                continue;
            };
            for s in group {
                let upper = to_pivot + s.dp;
                if to_pivot.abs_diff(s.dp) > s.budget {
                    q.ball.stats.rejected_by_pivot += 1;
                } else if upper <= s.budget && upper as f64 / s.max_len as f64 <= self.eps {
                    // The kernel would find some d ≤ upper, and both
                    // comparisons are monotone in d. The bound is the
                    // distance itself when the candidate *is* the pivot.
                    q.ball.stats.accepted_by_pivot += 1;
                    let exact =
                        (s.dp == 0).then(|| u32::try_from(to_pivot).expect("distance fits u32"));
                    q.accept(s.slot, exact);
                } else {
                    q.compare(s.slot, &self.entry(s.slot).data);
                }
            }
        }
        q.ball.neighbors.sort_unstable();
        q.ball
    }

    /// Insert one sample under `id`.
    ///
    /// Computes the new entry's eps-ball once and splices `id` into its
    /// neighbors' memoized lists, so every existing cache stays exact.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already indexed.
    pub fn insert(&mut self, id: SampleId, data: Arc<[u8]>) {
        self.insert_batch(vec![(id, data)]);
    }

    /// Insert a batch of samples, computing the new entries' neighborhoods
    /// in parallel and splicing them into the surviving caches.
    ///
    /// The batch goes in as waves of 64 entries, each inserted and
    /// queried before the next, so a large batch is bounded by the pivots
    /// of its own earlier waves just as a stream of small ones is.
    ///
    /// # Panics
    ///
    /// Panics if any id is already indexed or appears twice in the batch.
    pub fn insert_batch(&mut self, items: Vec<(SampleId, Arc<[u8]>)>) {
        let mut items = items.into_iter();
        loop {
            let wave: Vec<(SampleId, Arc<[u8]>)> = items.by_ref().take(WAVE).collect();
            if wave.is_empty() {
                break;
            }
            let slots = self.insert_structural(wave);
            self.memoize_wave(&slots);
        }
    }

    /// Compute the eps-balls of one wave of freshly inserted slots in
    /// parallel over the full live set, memoize them, splice each slot into
    /// the memoized lists of its neighbors (the eps relation is symmetric; a
    /// wave-mate memoized earlier in the loop already names the slot, and
    /// one memoized later replaces its list with its own ball), and give
    /// every slot its pivot.
    fn memoize_wave(&mut self, wave: &[u32]) {
        let shared: &NeighborIndex = self;
        let computed: Vec<Ball> = wave.par_iter().map(|&slot| shared.eps_ball(slot)).collect();
        for (&slot, ball) in wave.iter().zip(computed) {
            self.session.merge(&ball.stats);
            for &other in &ball.neighbors {
                let cache = &mut self.entry_mut(other).cache;
                if let Err(pos) = cache.binary_search(&slot) {
                    cache.insert(pos, slot);
                }
            }
            // Nearest pivot inside the ball, ties → lowest slot. Wave-mates
            // that became pivots a moment ago count: they had no pivot when
            // the ball was computed, so it compared them directly.
            let nearest = ball
                .exact
                .iter()
                .filter(|&&(other, _)| self.is_pivot(other))
                .map(|&(other, d)| (d, other))
                .min();
            match nearest {
                Some((d, pivot)) => self.attach(slot, pivot, d),
                None => self.entry_mut(slot).pivot = Some((slot, 0)),
            }
            self.entry_mut(slot).cache = ball.neighbors;
        }
    }

    fn is_pivot(&self, slot: u32) -> bool {
        self.entry(slot)
            .pivot
            .is_some_and(|(pivot, _)| pivot == slot)
    }

    /// Make `slot` a member of `pivot`, `dp` edits away.
    fn attach(&mut self, slot: u32, pivot: u32, dp: u32) {
        self.entry_mut(slot).pivot = Some((pivot, dp));
        self.entry_mut(pivot).members.push(slot);
    }

    /// Re-home the members of a removed pivot (`orphans`, in attachment
    /// order): the most recently attached one becomes a pivot and the
    /// others attach to it, one bounded kernel call each; those outside
    /// its eps-ball go round again.
    fn rehome(&mut self, mut orphans: Vec<u32>) {
        let mut scratch = BitParallelScratch::default();
        while let Some(pivot) = orphans.pop() {
            self.entry_mut(pivot).pivot = Some((pivot, 0));
            if orphans.is_empty() {
                break;
            }
            let pattern = BitParallelPattern::new(&self.entry(pivot).data);
            self.session.distance_calls += orphans.len();
            self.session.pivot_calls += orphans.len();
            let mut outside = Vec::new();
            for slot in orphans {
                match within_eps(self.eps, &pattern, &self.entry(slot).data, &mut scratch) {
                    Some(dp) => self.attach(slot, pivot, dp),
                    None => outside.push(slot),
                }
            }
            orphans = outside;
        }
    }

    /// Structural inserts only: length set, histograms, slots. Returns the
    /// inserted slots, whose eps-balls [`Self::memoize_wave`] computes.
    fn insert_structural(&mut self, items: Vec<(SampleId, Arc<[u8]>)>) -> Vec<u32> {
        let mut new_slots = Vec::with_capacity(items.len());
        for (id, data) in items {
            let slot = id.raw();
            if self.entries.len() <= slot as usize {
                self.entries.resize(slot as usize + 1, None);
            }
            assert!(
                self.entries[slot as usize].is_none(),
                "SampleId {slot} is already indexed"
            );
            let hist = histogram(&data);
            self.by_len.insert((data.len(), slot));
            self.entries[slot as usize] = Some(IndexEntry {
                data,
                hist,
                cache: Vec::new(),
                pivot: None,
                members: Vec::new(),
            });
            self.live += 1;
            new_slots.push(slot);
        }
        new_slots
    }

    /// Remove `id` from the index, pruning it from its neighbors' memoized
    /// lists. A removed pivot hands its members on (see the module docs).
    /// Returns false if `id` was not indexed.
    pub fn remove(&mut self, id: SampleId) -> bool {
        let slot = id.raw();
        if !self.contains(id) {
            return false;
        }
        let entry = self.entries[slot as usize].take().expect("checked live");
        // The eps relation is symmetric: the caches that mention `slot` are
        // exactly the caches of its own eps-ball.
        for &other in &entry.cache {
            let cache = &mut self.entry_mut(other).cache;
            if let Ok(pos) = cache.binary_search(&slot) {
                cache.remove(pos);
            }
        }
        self.by_len.remove(&(entry.data.len(), slot));
        self.live -= 1;
        match entry.pivot.expect("a live entry has a pivot") {
            (pivot, _) if pivot != slot => {
                let members = &mut self.entry_mut(pivot).members;
                let pos = members
                    .iter()
                    .position(|&m| m == slot)
                    .expect("a pivot lists its members");
                members.remove(pos);
            }
            _ => self.rehome(entry.members),
        }
        true
    }

    /// The memoized eps-ball of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not indexed.
    #[must_use]
    pub fn neighbors(&self, id: SampleId) -> Vec<SampleId> {
        self.cached_slots(id.raw())
            .iter()
            .map(|&slot| SampleId::new(slot))
            .collect()
    }

    /// Read-only view of a memoized neighborhood.
    pub(crate) fn cached_slots(&self, slot: u32) -> &[u32] {
        &self.entry(slot).cache
    }

    /// The pivot `id` is attached to and its exact edit distance to it (a
    /// pivot names itself at 0); `None` for an unindexed id.
    #[must_use]
    pub fn pivot_of(&self, id: SampleId) -> Option<(SampleId, usize)> {
        let (pivot, dp) = self.entries.get(id.raw() as usize)?.as_ref()?.pivot?;
        Some((SampleId::new(pivot), dp as usize))
    }

    /// Number of entries currently serving as pivots.
    #[must_use]
    pub fn pivot_count(&self) -> usize {
        self.entries
            .iter()
            .enumerate()
            .filter(|(slot, e)| {
                e.as_ref()
                    .and_then(|e| e.pivot)
                    .is_some_and(|(pivot, _)| pivot as usize == *slot)
            })
            .count()
    }

    /// Serialize the index state *except sample bytes*: `eps` and, per live
    /// entry, its slot and memoized neighborhood. Sample bytes are owned by the
    /// [`CorpusStore`](crate::store::CorpusStore) snapshot section and are
    /// re-linked at decode time, so an engine snapshot stores each sample
    /// once. Histograms and the pivot table are derived state and are not
    /// written.
    ///
    /// Live slots are emitted ascending as varint gaps, and each memoized
    /// neighborhood — a strictly ascending, mostly dense id list — as a
    /// varint gap list ([`Encoder::gap_list`]): ~1 byte per neighbor
    /// instead of 4, which is what caps the snapshot's superlinear growth
    /// (the eps-balls grow with the corpus; their encoding no longer
    /// does, per id).
    pub fn encode_into(&self, enc: &mut Encoder) {
        enc.f64(self.eps);
        enc.varint_usize(self.live);
        let mut prev_slot: Option<u32> = None;
        for (slot, entry) in self.entries.iter().enumerate() {
            let Some(entry) = entry else { continue };
            let slot = u32::try_from(slot).expect("slots fit u32");
            match prev_slot {
                None => enc.varint(u64::from(slot)),
                Some(p) => enc.varint(u64::from(slot - p) - 1),
            }
            prev_slot = Some(slot);
            enc.gap_list(&entry.cache);
        }
    }

    /// Rebuild an index from [`NeighborIndex::encode_into`] output,
    /// fetching each entry's bytes through `lookup` (the corpus store).
    /// Histograms and the length window are recomputed from the bytes;
    /// memoized neighborhoods are restored verbatim,
    /// so a resumed index answers exactly like the one that was saved —
    /// zero recomputed queries. The pivot table is rebuilt from them: in
    /// ascending slot order an entry attaches to the lowest neighbor that
    /// is already a pivot (one bounded kernel call for the distance, tallied
    /// in the session counters but not as a query) or becomes one.
    ///
    /// Structural impossibilities (unknown slots, caches naming dead
    /// entries or entries that are not neighbors) are rejected as
    /// [`SnapshotError::Corrupt`]; the caller falls back to rebuilding
    /// from the store.
    pub fn decode_from<F>(dec: &mut Decoder<'_>, lookup: F) -> Result<Self, SnapshotError>
    where
        F: Fn(SampleId) -> Option<Arc<[u8]>>,
    {
        let corrupt = |what: &str| SnapshotError::Corrupt(format!("neighbor index: {what}"));
        let eps = dec.f64()?;
        if !(eps >= 0.0 && eps.is_finite()) {
            return Err(corrupt("eps out of range"));
        }
        let mut index = NeighborIndex::new(eps);

        // Pass 1 — structural decode: slots come as ascending varint gaps
        // (duplicates are unrepresentable) and caches as gap lists (strict
        // ascension is structural there too).
        type DecodedEntry = (u32, Arc<[u8]>, Vec<u32>);
        let live_count = dec.varint_usize()?;
        let mut decoded: Vec<DecodedEntry> = Vec::with_capacity(live_count.min(1 << 20));
        let mut prev_slot: Option<u32> = None;
        for _ in 0..live_count {
            let raw = dec.varint()?;
            let slot = match prev_slot {
                None => Some(raw),
                Some(p) => raw.checked_add(1).and_then(|g| u64::from(p).checked_add(g)),
            }
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| corrupt("slot exceeds u32"))?;
            prev_slot = Some(slot);
            let data =
                lookup(SampleId::new(slot)).ok_or_else(|| corrupt("entry without sample bytes"))?;
            decoded.push((slot, data, dec.gap_list()?));
        }

        // Pass 2 — recompute every histogram, in parallel (the per-entry
        // scans are independent and dominate decode at large corpora).
        let hists: Vec<Histogram> = decoded
            .par_iter()
            .map(|(_, data, _)| histogram(data))
            .collect();

        // Pass 3 — assemble live entries, then check the caches (they may
        // reference entries decoded later): a cache may only name live
        // entries, never the entry itself — anything else would poison
        // DBSCAN.
        for ((slot, data, cache), hist) in decoded.into_iter().zip(hists) {
            let slot = slot as usize;
            if index.entries.len() <= slot {
                index.entries.resize(slot + 1, None);
            }
            index.by_len.insert((data.len(), slot as u32));
            index.entries[slot] = Some(IndexEntry {
                data,
                hist,
                cache,
                pivot: None,
                members: Vec::new(),
            });
            index.live += 1;
        }
        let live = |n: u32| index.entries.get(n as usize).is_some_and(Option::is_some);
        for (slot, entry) in index.entries.iter().enumerate() {
            let Some(entry) = entry else { continue };
            if entry.cache.iter().any(|&n| n as usize == slot || !live(n)) {
                return Err(corrupt("cached neighborhood names a dead entry"));
            }
        }

        // Pass 4 — rebuild the pivot table from the neighborhoods. Who
        // attaches to whom is decided in slot order; the distances are
        // independent and computed in parallel.
        let mut attachments: Vec<(u32, u32)> = Vec::new();
        for slot in 0..u32::try_from(index.entries.len()).expect("slots fit u32") {
            let Some(entry) = &index.entries[slot as usize] else {
                continue;
            };
            let cache = &entry.cache;
            // Only lower slots have been decided.
            let lower = &cache[..cache.partition_point(|&n| n < slot)];
            match lower.iter().find(|&&n| index.is_pivot(n)) {
                Some(&pivot) => attachments.push((slot, pivot)),
                None => index.entry_mut(slot).pivot = Some((slot, 0)),
            }
        }
        let shared = &index;
        let distances: Vec<Option<u32>> = attachments
            .par_iter()
            .map(|&(slot, pivot)| {
                within_eps(
                    eps,
                    &BitParallelPattern::new(&shared.entry(pivot).data),
                    &shared.entry(slot).data,
                    &mut BitParallelScratch::default(),
                )
            })
            .collect();
        index.session.distance_calls += attachments.len();
        index.session.pivot_calls += attachments.len();
        for ((slot, pivot), dp) in attachments.into_iter().zip(distances) {
            let dp = dp.ok_or_else(|| corrupt("cached neighborhood names a non-neighbor"))?;
            index.attach(slot, pivot, dp);
        }
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::normalized_edit_distance_bounded;

    fn ball(index: &NeighborIndex, i: u32) -> Vec<usize> {
        index
            .neighbors(SampleId::new(i))
            .into_iter()
            .map(|id| id.raw() as usize)
            .collect()
    }

    fn brute_force_neighbors(samples: &[Vec<u8>], eps: f64, i: usize) -> Vec<usize> {
        (0..samples.len())
            .filter(|&j| {
                j != i
                    && normalized_edit_distance_bounded(&samples[i], &samples[j], eps)
                        .unwrap_or(1.0)
                        <= eps
            })
            .collect()
    }

    fn family_corpus() -> Vec<Vec<u8>> {
        let mut samples: Vec<Vec<u8>> = Vec::new();
        let bases: Vec<Vec<u8>> = vec![
            (0..120).map(|i| (i % 5) as u8).collect(),
            (0..150).map(|i| ((i * 3) % 6) as u8).collect(),
            (0..40).map(|i| ((i * 7 + 1) % 4) as u8).collect(),
        ];
        for base in &bases {
            for v in 0..6usize {
                let mut s = base.clone();
                for k in 0..(s.len() / 40) {
                    let pos = (v * 13 + k * 17) % s.len();
                    s[pos] = (s[pos] + 1) % 6;
                }
                s.truncate(s.len() - v % 3);
                samples.push(s);
            }
        }
        samples.push(Vec::new());
        samples.push(Vec::new());
        samples.push(vec![9; 300]);
        samples
    }

    #[test]
    fn matches_brute_force_on_family_corpus() {
        let samples = family_corpus();
        let index = NeighborIndex::build(&samples, 0.10);
        for i in 0..samples.len() {
            assert_eq!(
                ball(&index, i as u32),
                brute_force_neighbors(&samples, 0.10, i),
                "query {i}"
            );
        }
    }

    #[test]
    fn build_memoizes_every_neighborhood() {
        let samples = family_corpus();
        let mut index = NeighborIndex::build(&samples, 0.10);
        let stats = index.take_stats();
        assert_eq!(stats.queries, samples.len());
        assert_eq!(stats.cache_hits, 0);
        // Reads after the build are pure cache hits.
        let _ = ball(&index, 0);
        let stats = index.take_stats();
        assert_eq!(stats.queries, 0);
    }

    #[test]
    fn incremental_insert_matches_batch_build() {
        let samples = family_corpus();
        let mut incremental = NeighborIndex::new(0.10);
        for (i, s) in samples.iter().enumerate() {
            incremental.insert(SampleId::new(i as u32), Arc::from(&s[..]));
        }
        let batch = NeighborIndex::build(&samples, 0.10);
        for i in 0..samples.len() {
            assert_eq!(
                ball(&incremental, i as u32),
                ball(&batch, i as u32),
                "query {i}"
            );
        }
    }

    #[test]
    fn remove_prunes_neighbor_caches() {
        let samples = family_corpus();
        let mut index = NeighborIndex::build(&samples, 0.10);
        // Remove the first family member; everyone else's neighborhoods
        // must match a brute force over the surviving corpus.
        assert!(index.remove(SampleId::new(0)));
        assert!(!index.contains(SampleId::new(0)));
        assert!(!index.remove(SampleId::new(0)));
        let survivors: Vec<Vec<u8>> = samples[1..].to_vec();
        for i in 1..samples.len() {
            let expected: Vec<usize> = brute_force_neighbors(&survivors, 0.10, i - 1)
                .into_iter()
                .map(|j| j + 1)
                .collect();
            assert_eq!(ball(&index, i as u32), expected, "query {i}");
        }
    }

    #[test]
    fn reinsertion_into_freed_slot_works() {
        let samples = family_corpus();
        let mut index = NeighborIndex::build(&samples, 0.10);
        index.remove(SampleId::new(2));
        index.insert(SampleId::new(2), Arc::from(&samples[2][..]));
        for i in 0..samples.len() {
            assert_eq!(
                ball(&index, i as u32),
                brute_force_neighbors(&samples, 0.10, i),
                "query {i}"
            );
        }
    }

    #[test]
    fn pruning_actually_rejects_pairs() {
        let samples = family_corpus();
        let n = samples.len();
        let mut index = NeighborIndex::build(&samples, 0.10);
        let stats = index.take_stats();
        let all_ordered_pairs = n * (n - 1);
        assert!(
            stats.window_candidates < all_ordered_pairs,
            "length window pruned nothing: {stats:?}"
        );
        // Every pair that survives both filters is settled by at most one
        // kernel call of its own; the rest of the calls went to pivots.
        assert!(
            stats.distance_calls - stats.pivot_calls
                <= stats.window_candidates - stats.pruned_by_histogram,
            "stats inconsistent: {stats:?}"
        );
    }

    #[test]
    fn empty_inputs() {
        let samples: Vec<Vec<u8>> = Vec::new();
        let mut index = NeighborIndex::build(&samples, 0.10);
        assert!(index.is_empty());
        assert_eq!(index.take_stats(), IndexStats::default());
    }

    #[test]
    fn empty_strings_are_mutual_neighbors() {
        let samples: Vec<Vec<u8>> = vec![Vec::new(), Vec::new(), vec![1, 2, 3]];
        let index = NeighborIndex::build(&samples, 0.10);
        assert_eq!(ball(&index, 0), vec![1]);
        assert_eq!(ball(&index, 1), vec![0]);
        assert!(ball(&index, 2).is_empty());
    }

    #[test]
    fn eps_one_accepts_everything() {
        let samples: Vec<Vec<u8>> = vec![vec![1], vec![2, 2, 2], vec![3; 10]];
        let index = NeighborIndex::build(&samples, 1.0);
        for i in 0..samples.len() {
            assert_eq!(
                ball(&index, i as u32),
                brute_force_neighbors(&samples, 1.0, i),
                "query {i}"
            );
        }
    }
}
