//! Persistent corpus store: token class-strings under stable sample ids.
//!
//! The daily Kizzle deployment sees heavily overlapping corpora — most of a
//! day's grayware was already crawled the day before. A stateless pipeline
//! re-tokenizes and re-indexes those samples from scratch every day; the
//! [`CorpusStore`] is the layer that makes the warm path possible. It owns
//! each sample's token class-string behind a cheap-to-share [`Arc`], hands
//! out a stable [`SampleId`] for it, and deduplicates by content: re-adding
//! yesterday's bytes *touches* the existing entry (refreshing its stamp)
//! instead of allocating a new one, which is what lets the
//! [`NeighborIndex`](crate::index::NeighborIndex) keep its memoized
//! neighborhoods for the unchanged fraction of the corpus.
//!
//! Entries carry a caller-defined monotone `stamp` (the pipeline uses the
//! absolute day number); [`CorpusStore::older_than`] drives the retirement
//! of samples that have aged out of the retention window.

use kizzle_snapshot::{Decoder, Encoder, SnapshotError};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::Arc;

/// Stable handle to one stored sample.
///
/// Ids are allocated by [`CorpusStore::add`] and stay valid until the entry
/// is removed; a removed id's slot may later be reused for a new sample.
/// When driving a [`NeighborIndex`](crate::index::NeighborIndex) without a
/// store (tests, benches), ids can be minted directly with [`SampleId::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SampleId(u32);

impl SampleId {
    /// Make an id from a raw slot number (caller-managed id space).
    #[must_use]
    pub fn new(raw: u32) -> Self {
        SampleId(raw)
    }

    /// The raw slot number.
    #[must_use]
    pub fn raw(self) -> u32 {
        self.0
    }
}

#[derive(Debug, Clone)]
struct StoreEntry {
    data: Arc<[u8]>,
    stamp: u64,
    hash: u64,
    /// Content-stable partition key ([`crate::partition_key`]), computed
    /// once here — content is immutable per id, so the daily partitioning
    /// pass looks keys up instead of re-hashing every live sample.
    key: u64,
}

/// Owns token class-strings under stable [`SampleId`]s, with content
/// deduplication and stamp-based retirement.
#[derive(Debug, Clone, Default)]
pub struct CorpusStore {
    /// Slot `i` backs `SampleId(i)`.
    slots: Vec<Option<StoreEntry>>,
    /// Slots freed by removal, reused before the vector grows.
    free: Vec<u32>,
    /// Content hash → slots holding data with that hash (collisions are
    /// resolved by comparing bytes).
    by_hash: HashMap<u64, Vec<u32>>,
    live: usize,
}

fn content_hash(data: &[u8]) -> u64 {
    let mut hasher = DefaultHasher::new();
    hasher.write(data);
    hasher.finish()
}

impl CorpusStore {
    /// Create an empty store.
    #[must_use]
    pub fn new() -> Self {
        CorpusStore::default()
    }

    /// Number of live samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no samples are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// True if `id` refers to a live sample.
    #[must_use]
    pub fn contains(&self, id: SampleId) -> bool {
        self.slots
            .get(id.raw() as usize)
            .is_some_and(Option::is_some)
    }

    /// The class-string behind `id`, if live.
    #[must_use]
    pub fn get(&self, id: SampleId) -> Option<&[u8]> {
        self.slots
            .get(id.raw() as usize)?
            .as_ref()
            .map(|e| &*e.data)
    }

    /// Shared handle to the class-string behind `id`, if live.
    #[must_use]
    pub fn data(&self, id: SampleId) -> Option<Arc<[u8]>> {
        self.slots
            .get(id.raw() as usize)?
            .as_ref()
            .map(|e| Arc::clone(&e.data))
    }

    /// The stamp last recorded for `id`, if live.
    #[must_use]
    pub fn stamp(&self, id: SampleId) -> Option<u64> {
        self.slots.get(id.raw() as usize)?.as_ref().map(|e| e.stamp)
    }

    /// The content-stable partition key of `id`, if live — computed once
    /// at insert ([`crate::partition_key`] over the sample bytes).
    #[must_use]
    pub fn partition_key(&self, id: SampleId) -> Option<u64> {
        self.slots.get(id.raw() as usize)?.as_ref().map(|e| e.key)
    }

    /// Partition keys and class-strings for a dense day view, in view
    /// order — one pass for the seal instead of two per-id lookup loops.
    ///
    /// # Panics
    ///
    /// Panics if any id is not live.
    #[must_use]
    pub fn day_view(&self, ids: &[SampleId]) -> (Vec<u64>, Vec<&[u8]>) {
        let mut keys = Vec::with_capacity(ids.len());
        let mut data = Vec::with_capacity(ids.len());
        for &id in ids {
            let entry = self
                .slots
                .get(id.raw() as usize)
                .and_then(Option::as_ref)
                .expect("day id is live");
            keys.push(entry.key);
            data.push(&*entry.data);
        }
        (keys, data)
    }

    /// Add a sample, deduplicating by content.
    ///
    /// If a live entry already holds identical bytes, its stamp is raised to
    /// `stamp` (never lowered) and `(existing_id, true)` is returned — the
    /// caller must *not* re-index it. Otherwise a fresh entry is created and
    /// `(new_id, false)` comes back.
    pub fn add(&mut self, stamp: u64, data: &[u8]) -> (SampleId, bool) {
        let hash = content_hash(data);
        if let Some(slots) = self.by_hash.get(&hash) {
            for &slot in slots {
                let entry = self.slots[slot as usize]
                    .as_mut()
                    .expect("by_hash only lists live slots");
                if *entry.data == *data {
                    entry.stamp = entry.stamp.max(stamp);
                    return (SampleId(slot), true);
                }
            }
        }
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.slots.len()).expect("store exceeds u32 slots");
                self.slots.push(None);
                slot
            }
        };
        self.slots[slot as usize] = Some(StoreEntry {
            data: Arc::from(data),
            stamp,
            hash,
            key: crate::partition_key(data),
        });
        self.by_hash.entry(hash).or_default().push(slot);
        self.live += 1;
        (SampleId(slot), false)
    }

    /// Remove a sample, returning its data if it was live.
    pub fn remove(&mut self, id: SampleId) -> Option<Arc<[u8]>> {
        let entry = self.slots.get_mut(id.raw() as usize)?.take()?;
        if let Some(slots) = self.by_hash.get_mut(&entry.hash) {
            slots.retain(|&s| s != id.raw());
            if slots.is_empty() {
                self.by_hash.remove(&entry.hash);
            }
        }
        self.free.push(id.raw());
        self.live -= 1;
        Some(entry.data)
    }

    /// Ids of live samples whose stamp is strictly below `cutoff`,
    /// ascending. The retirement sweep of the incremental engine.
    #[must_use]
    pub fn older_than(&self, cutoff: u64) -> Vec<SampleId> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(slot, entry)| {
                entry
                    .as_ref()
                    .filter(|e| e.stamp < cutoff)
                    .map(|_| SampleId(slot as u32))
            })
            .collect()
    }

    /// Ids of all live samples, ascending.
    #[must_use]
    pub fn live_ids(&self) -> Vec<SampleId> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(slot, entry)| entry.as_ref().map(|_| SampleId(slot as u32)))
            .collect()
    }

    /// Serialize the complete store state: every live entry (slot, stamp,
    /// bytes, in ascending slot order) and the free list **in its exact
    /// order** — slot reuse pops from the end, so preserving the order is
    /// what makes a resumed store allocate the same ids a long-lived one
    /// would.
    ///
    /// The ascending live-slot run travels as varint gaps and stamps as
    /// varints (day numbers are small); the free list keeps its order, so
    /// its slots are plain varints, not gaps.
    pub fn encode_into(&self, enc: &mut Encoder) {
        enc.varint_usize(self.live);
        let mut prev_slot: Option<u32> = None;
        for (slot, entry) in self.slots.iter().enumerate() {
            if let Some(e) = entry {
                let slot = u32::try_from(slot).expect("slots fit u32");
                match prev_slot {
                    None => enc.varint(u64::from(slot)),
                    Some(p) => enc.varint(u64::from(slot - p) - 1),
                }
                prev_slot = Some(slot);
                enc.varint(e.stamp);
                enc.bytes(&e.data);
            }
        }
        enc.varint_usize(self.free.len());
        for &slot in &self.free {
            enc.varint(u64::from(slot));
        }
    }

    /// Rebuild a store from [`CorpusStore::encode_into`] output. The
    /// content-hash table is derived from the data; structural
    /// inconsistencies (overlapping live/free slots, out-of-range slots,
    /// duplicated content) are rejected as [`SnapshotError::Corrupt`].
    pub fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        let corrupt = |what: &str| SnapshotError::Corrupt(format!("corpus store: {what}"));
        let live_count = dec.varint_usize()?;
        let mut live_entries: Vec<(u32, u64, Vec<u8>)> =
            Vec::with_capacity(live_count.min(1 << 20));
        let mut prev_slot: Option<u32> = None;
        for _ in 0..live_count {
            let raw = dec.varint()?;
            let slot = match prev_slot {
                None => Some(raw),
                Some(p) => raw.checked_add(1).and_then(|g| u64::from(p).checked_add(g)),
            }
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| corrupt("live slot exceeds u32"))?;
            prev_slot = Some(slot);
            let stamp = dec.varint()?;
            let data = dec.bytes()?.to_vec();
            live_entries.push((slot, stamp, data));
        }
        let free_count = dec.varint_usize()?;
        let mut free = Vec::with_capacity(free_count.min(1 << 20));
        for _ in 0..free_count {
            let slot =
                u32::try_from(dec.varint()?).map_err(|_| corrupt("free slot exceeds u32"))?;
            free.push(slot);
        }

        // Invariant of the live store: every allocated slot is either live
        // or on the free list, so the slot table length is exactly the sum.
        let slot_count = live_entries.len() + free.len();
        if u32::try_from(slot_count).is_err() {
            return Err(corrupt("slot table exceeds u32"));
        }
        let mut slots: Vec<Option<StoreEntry>> = vec![None; slot_count];
        let mut store = CorpusStore::default();
        let mut claimed = vec![false; slot_count];
        for (slot, stamp, data) in live_entries {
            let idx = slot as usize;
            if idx >= slot_count || claimed[idx] {
                return Err(corrupt("live slot out of range or duplicated"));
            }
            claimed[idx] = true;
            let hash = content_hash(&data);
            let bucket = store.by_hash.entry(hash).or_default();
            if bucket
                .iter()
                .any(|&s| slots[s as usize].as_ref().is_some_and(|e| *e.data == *data))
            {
                // Dedup guarantees live content is unique; a duplicate means
                // the payload was not written by this encoder.
                return Err(corrupt("duplicate live content"));
            }
            bucket.push(slot);
            slots[idx] = Some(StoreEntry {
                data: Arc::from(&data[..]),
                stamp,
                hash,
                key: crate::partition_key(&data),
            });
        }
        for &slot in &free {
            let idx = slot as usize;
            if idx >= slot_count || claimed[idx] {
                return Err(corrupt("free slot out of range or duplicated"));
            }
            claimed[idx] = true;
        }
        store.live = slots.iter().flatten().count();
        store.slots = slots;
        store.free = free;
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_remove_roundtrip() {
        let mut store = CorpusStore::new();
        let (a, reused) = store.add(1, b"abc");
        assert!(!reused);
        assert_eq!(store.get(a), Some(&b"abc"[..]));
        assert_eq!(store.stamp(a), Some(1));
        assert_eq!(store.len(), 1);
        assert_eq!(store.remove(a).as_deref(), Some(&b"abc"[..]));
        assert!(store.is_empty());
        assert_eq!(store.get(a), None);
        assert_eq!(store.remove(a), None);
    }

    #[test]
    fn identical_content_is_deduplicated_and_touched() {
        let mut store = CorpusStore::new();
        let (a, _) = store.add(1, b"abc");
        let (b, reused) = store.add(5, b"abc");
        assert_eq!(a, b);
        assert!(reused);
        assert_eq!(store.len(), 1);
        // The stamp was refreshed, never lowered.
        assert_eq!(store.stamp(a), Some(5));
        let (_, reused) = store.add(2, b"abc");
        assert!(reused);
        assert_eq!(store.stamp(a), Some(5));
    }

    #[test]
    fn distinct_content_gets_distinct_ids() {
        let mut store = CorpusStore::new();
        let (a, _) = store.add(1, b"abc");
        let (b, reused) = store.add(1, b"abd");
        assert!(!reused);
        assert_ne!(a, b);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn removed_slots_are_reused() {
        let mut store = CorpusStore::new();
        let (a, _) = store.add(1, b"one");
        store.remove(a);
        let (b, reused) = store.add(2, b"two");
        assert!(!reused);
        assert_eq!(a.raw(), b.raw());
        assert_eq!(store.get(b), Some(&b"two"[..]));
        // The recycled slot must no longer answer for the old content.
        let (c, reused) = store.add(3, b"one");
        assert!(!reused);
        assert_ne!(b, c);
    }

    #[test]
    fn older_than_selects_by_stamp() {
        let mut store = CorpusStore::new();
        let (a, _) = store.add(1, b"one");
        let (b, _) = store.add(2, b"two");
        let (c, _) = store.add(3, b"three");
        assert_eq!(store.older_than(1), vec![]);
        assert_eq!(store.older_than(3), vec![a, b]);
        assert_eq!(store.live_ids(), vec![a, b, c]);
        // A touch rescues an entry from retirement.
        store.add(9, b"one");
        assert_eq!(store.older_than(3), vec![b]);
    }

    #[test]
    fn snapshot_roundtrip_preserves_ids_stamps_and_free_order() {
        let mut store = CorpusStore::new();
        let (a, _) = store.add(1, b"one");
        let (_b, _) = store.add(2, b"two");
        let (c, _) = store.add(3, b"three");
        let (d, _) = store.add(4, b"four");
        store.remove(a);
        store.remove(c);

        let mut enc = Encoder::new();
        store.encode_into(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let mut restored = CorpusStore::decode_from(&mut dec).unwrap();
        dec.finish().unwrap();

        assert_eq!(restored.len(), store.len());
        assert_eq!(restored.live_ids(), store.live_ids());
        assert_eq!(restored.get(d), Some(&b"four"[..]));
        assert_eq!(restored.stamp(d), Some(4));
        // Slot reuse order survives: the original pops c's slot first, then
        // a's — the restored store must allocate identically.
        let (e1, _) = store.add(5, b"five");
        let (e2, _) = restored.add(5, b"five");
        assert_eq!(e1, e2);
        let (f1, _) = store.add(6, b"six");
        let (f2, _) = restored.add(6, b"six");
        assert_eq!(f1, f2);
        // Dedup still recognizes restored content.
        let (g, reused) = restored.add(9, b"two");
        assert!(reused);
        assert_eq!(restored.stamp(g), Some(9));
    }

    #[test]
    fn decode_rejects_structural_corruption() {
        let mut store = CorpusStore::new();
        let (a, _) = store.add(1, b"abc");
        store.add(2, b"def");
        store.remove(a);
        let mut enc = Encoder::new();
        store.encode_into(&mut enc);
        let bytes = enc.into_bytes();

        // Truncation surfaces as an error, not a panic.
        for cut in 0..bytes.len() {
            let mut dec = Decoder::new(&bytes[..cut]);
            if let Ok(restored) = CorpusStore::decode_from(&mut dec) {
                // A prefix that happens to decode must still be
                // structurally sound (finish() would catch slack).
                assert!(restored.len() <= store.len());
            }
        }
    }

    #[test]
    fn empty_sample_is_storable() {
        let mut store = CorpusStore::new();
        let (a, _) = store.add(1, b"");
        let (b, reused) = store.add(2, b"");
        assert_eq!(a, b);
        assert!(reused);
        assert_eq!(store.get(a), Some(&b""[..]));
    }
}
