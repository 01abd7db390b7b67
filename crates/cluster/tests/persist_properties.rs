//! Property-based round-trip and corruption tests for warm-state
//! persistence (ISSUE 3).
//!
//! Contracts:
//!
//! 1. **Round trip is identity.** A [`CorpusStore`] or [`NeighborIndex`]
//!    (including its memoized neighborhoods) written through the snapshot
//!    codec and read back behaves exactly like the original: same live
//!    ids, same data and stamps, same future id allocation, same cached
//!    answers with zero recomputed queries.
//! 2. **A resumed engine clusters identically.** Snapshot → resume →
//!    `cluster_day` equals the original engine's answer on the same view.
//! 3. **Corruption degrades, never panics.** Any single flipped byte or
//!    truncation of an engine snapshot yields a usable engine — warm,
//!    rebuilt-from-store, or cold — and never a wrong clustering: whatever
//!    survives still matches a cold run over the same samples.

mod common;

use kizzle_cluster::{
    CorpusEngine, CorpusStore, DbscanParams, DistributedConfig, NeighborIndex, SampleId,
};
use kizzle_snapshot::{Decoder, Encoder, Snapshot, SnapshotBuilder};
use proptest::prelude::*;
use std::sync::Arc;

const EPS: f64 = 0.10;

/// The engine's sections as one in-memory container — what the state file
/// holds of them on disk.
fn engine_container(engine: &CorpusEngine) -> Vec<u8> {
    let mut builder = SnapshotBuilder::new();
    for (name, payload) in engine.encode_sections() {
        builder.section(&name, payload);
    }
    builder.to_bytes()
}

fn token_string() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..6, 0..80)
}

proptest! {
    /// Store round trip: live state, dedup behavior and slot-reuse order
    /// all survive.
    #[test]
    fn store_roundtrips_after_random_churn(
        samples in prop::collection::vec(token_string(), 1..20),
        ops in prop::collection::vec(any::<u16>(), 1..40),
    ) {
        let mut store = CorpusStore::new();
        let mut next = 0usize;
        let mut stamp = 0u64;
        for &op in &ops {
            stamp += 1;
            if op % 3 != 0 || store.is_empty() {
                store.add(stamp, &samples[next % samples.len()]);
                next += 1;
            } else {
                let live = store.live_ids();
                let victim = live[(op as usize / 3) % live.len()];
                store.remove(victim);
            }
        }

        let mut enc = Encoder::new();
        store.encode_into(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let mut restored = CorpusStore::decode_from(&mut dec).unwrap();
        dec.finish().unwrap();

        prop_assert_eq!(restored.len(), store.len());
        prop_assert_eq!(restored.live_ids(), store.live_ids());
        for id in store.live_ids() {
            prop_assert_eq!(restored.get(id), store.get(id));
            prop_assert_eq!(restored.stamp(id), store.stamp(id));
        }
        // Future behavior matches too: the same novel adds allocate the
        // same ids (free-list order), and dedup still touches.
        for (i, probe) in [&b"probe-a"[..], &b"probe-b"[..], &b"probe-a"[..]]
            .iter()
            .enumerate()
        {
            let (id_orig, reused_orig) = store.add(100 + i as u64, probe);
            let (id_back, reused_back) = restored.add(100 + i as u64, probe);
            prop_assert_eq!(id_orig, id_back);
            prop_assert_eq!(reused_orig, reused_back);
        }
    }

    /// Index round trip: every memoized neighborhood comes back verbatim
    /// and answers without recomputation.
    #[test]
    fn index_roundtrips_including_cached_neighborhoods(
        samples in prop::collection::vec(token_string(), 1..20),
        cache_mask in any::<u32>(),
    ) {
        let mut index = NeighborIndex::new(EPS);
        let live: Vec<(u32, Vec<u8>)> = samples
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, s.clone()))
            .collect();
        index.insert_batch(
            live.iter()
                .map(|(raw, s)| (SampleId::new(*raw), Arc::from(&s[..])))
                .collect(),
        );
        let _ = index.take_stats();
        // Churn a masked subset (remove + reinsert) so the surviving
        // caches have been maintained — spliced and pruned — rather than
        // freshly built, which is the state a warm engine actually saves.
        let uncached: Vec<u32> = live
            .iter()
            .map(|(raw, _)| *raw)
            .filter(|raw| cache_mask & (1 << (raw % 32)) == 0)
            .collect();
        for &raw in &uncached {
            index.remove(SampleId::new(raw));
        }
        for &raw in &uncached {
            let data = &live.iter().find(|(r, _)| *r == raw).unwrap().1;
            index.insert(SampleId::new(raw), Arc::from(&data[..]));
        }
        let _ = index.take_stats();

        let mut enc = Encoder::new();
        index.encode_into(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let mut restored = NeighborIndex::decode_from(&mut dec, |id| {
            live.iter()
                .find(|(raw, _)| *raw == id.raw())
                .map(|(_, s)| Arc::from(&s[..]))
        })
        .unwrap();
        dec.finish().unwrap();

        prop_assert_eq!(restored.len(), index.len());
        for (raw, _) in &live {
            let a = index.neighbors(SampleId::new(*raw));
            let b = restored.neighbors(SampleId::new(*raw));
            prop_assert_eq!(a, b, "id {}", raw);
        }
        // Decoding computed no eps-ball.
        prop_assert_eq!(restored.take_stats().queries, 0);
    }

    /// Engine snapshot → resume → cluster equals the original engine (and
    /// therefore the cold run) on the same day view.
    #[test]
    fn resumed_engine_clusters_like_the_original(
        pool in prop::collection::vec(token_string(), 4..24),
        partitions in 1usize..4,
    ) {
        let cfg = DistributedConfig::new(partitions, DbscanParams::new(EPS, 2));
        let day_len = (pool.len() / 2).max(2);
        let day1: Vec<Vec<u8>> = pool[..day_len].to_vec();
        let day2: Vec<Vec<u8>> = pool[pool.len() - day_len..].to_vec();

        let mut engine = CorpusEngine::new(cfg);
        let ids1 = engine.add_batch(1, &day1);
        let (_, _) = engine.cluster_day(&ids1);

        let snapshot = Snapshot::from_bytes(&engine_container(&engine)).unwrap();
        let (mut resumed, report) = CorpusEngine::resume_from_sections(cfg, &snapshot);
        prop_assert!(report.store_restored && report.index_restored, "report: {:?}", report);

        let ids2 = engine.add_batch(2, &day2);
        let ids2_resumed = resumed.add_batch(2, &day2);
        prop_assert_eq!(&ids2, &ids2_resumed);
        let (want, _) = engine.cluster_day(&ids2);
        let (got, _) = resumed.cluster_day(&ids2_resumed);
        prop_assert_eq!(want, got);
    }

    /// Any single byte flip (or truncation) of an engine snapshot resumes
    /// without panicking, and whatever state survives still clusters a
    /// fresh day exactly like a cold run.
    #[test]
    fn corrupted_engine_snapshots_degrade_gracefully(
        pool in prop::collection::vec(token_string(), 4..16),
        damage_at in any::<u32>(),
        flip in any::<u8>(),
        truncate in any::<bool>(),
    ) {
        let cfg = DistributedConfig::new(2, DbscanParams::new(EPS, 2));
        let mut engine = CorpusEngine::new(cfg);
        let ids = engine.add_batch(1, &pool);
        let (_, _) = engine.cluster_day(&ids);

        let mut bytes = engine_container(&engine);
        let at = (damage_at as usize) % bytes.len();
        if truncate {
            bytes.truncate(at);
        } else {
            bytes[at] ^= flip | 1; // always a real change
        }

        let (mut resumed, report) = match Snapshot::from_bytes(&bytes) {
            Ok(snapshot) => CorpusEngine::resume_from_sections(cfg, &snapshot),
            Err(_) => (CorpusEngine::new(cfg), Default::default()),
        };
        let _ = report;
        // The resumed engine is usable regardless of what was lost: a
        // fresh day through it clusters exactly like a cold run.
        let day: Vec<Vec<u8>> = pool.iter().rev().cloned().collect();
        let stamp = 2u64;
        resumed.retire_older_than(stamp); // clear whatever survived
        let day_ids = resumed.add_batch(stamp, &day);
        let (got, _) = resumed.cluster_day(&day_ids);
        let want = common::cluster_seed(&cfg, &day);
        prop_assert_eq!(got, want);
    }
}
