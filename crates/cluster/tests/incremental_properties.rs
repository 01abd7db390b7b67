//! Property-based equivalence tests for the incremental corpus engine.
//!
//! Two contracts keep the warm multi-day path honest:
//!
//! 1. An incrementally maintained [`NeighborIndex`] — any random
//!    interleaving of inserts and removes — answers every neighborhood
//!    query identically to an index built fresh from the surviving
//!    samples (and to brute force over the accept predicate).
//! 2. A [`CorpusEngine`] threading warm state across simulated days
//!    (carry-over + churn + retirement) clusters each day byte-identically
//!    to the seed's cold one-shot driver (`tests/common/`) over that day's
//!    samples.

mod common;

use kizzle_cluster::distance::normalized_edit_distance_bounded;
use kizzle_cluster::{CorpusEngine, DbscanParams, DistributedConfig, NeighborIndex, SampleId};
use proptest::prelude::*;
use std::sync::Arc;

const EPS: f64 = 0.10;

fn token_string() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..6, 0..80)
}

/// Brute-force eps-ball over a live set of `(raw_id, bytes)` pairs.
fn brute_ball(live: &[(u32, Vec<u8>)], raw: u32) -> Vec<u32> {
    let query = &live.iter().find(|(r, _)| *r == raw).expect("live id").1;
    let mut out: Vec<u32> = live
        .iter()
        .filter(|(r, s)| {
            *r != raw && normalized_edit_distance_bounded(query, s, EPS).unwrap_or(1.0) <= EPS
        })
        .map(|(r, _)| *r)
        .collect();
    out.sort_unstable();
    out
}

proptest! {
    /// Random interleavings of insert/remove leave the maintained index
    /// answering exactly like a freshly built one.
    #[test]
    fn interleaved_insert_remove_matches_fresh_build(
        samples in prop::collection::vec(token_string(), 1..24),
        ops in prop::collection::vec(any::<u16>(), 1..48),
    ) {
        let mut index = NeighborIndex::new(EPS);
        let mut live: Vec<(u32, Vec<u8>)> = Vec::new();
        let mut next_sample = 0usize;
        let mut next_id = 0u32;
        for &op in &ops {
            // Even ops insert (while samples remain), odd ops remove (while
            // anything is live); fall through to the other op otherwise.
            let insert = (op % 2 == 0 && next_sample < samples.len()) || live.is_empty();
            if insert {
                if next_sample >= samples.len() {
                    continue;
                }
                let sample = samples[next_sample].clone();
                next_sample += 1;
                index.insert(SampleId::new(next_id), Arc::from(&sample[..]));
                live.push((next_id, sample));
                next_id += 1;
            } else {
                let victim = (op as usize / 2) % live.len();
                let (raw, _) = live.swap_remove(victim);
                prop_assert!(index.remove(SampleId::new(raw)));
            }
        }
        prop_assert_eq!(index.len(), live.len());

        // A fresh index over the survivors, under the same ids.
        let mut fresh = NeighborIndex::new(EPS);
        fresh.insert_batch(
            live.iter()
                .map(|(raw, s)| (SampleId::new(*raw), Arc::from(&s[..])))
                .collect(),
        );
        for &(raw, _) in &live {
            let maintained = index.neighbors(SampleId::new(raw));
            let rebuilt = fresh.neighbors(SampleId::new(raw));
            prop_assert_eq!(&maintained, &rebuilt, "id {}", raw);
            let brute = brute_ball(&live, raw);
            let maintained_raw: Vec<u32> = maintained.into_iter().map(SampleId::raw).collect();
            prop_assert_eq!(maintained_raw, brute, "id {} vs brute force", raw);
        }
    }

    /// A warm engine run over days with carry-over, churn, and retirement
    /// produces day clusterings identical to cold one-shot runs.
    #[test]
    fn warm_multi_day_matches_cold_batches(
        pool in prop::collection::vec(token_string(), 4..28),
        partitions in 1usize..4,
        min_points in 1usize..4,
    ) {
        let cfg = DistributedConfig::new(
            partitions,
            DbscanParams::new(EPS, min_points),
        );
        let mut engine = CorpusEngine::new(cfg);

        // Sliding window over the pool: consecutive days overlap heavily,
        // like the paper's grayware corpora.
        let day_len = (pool.len() / 2).max(2);
        let days = 3usize;
        for day in 0..days {
            let start = (day * day_len) / 3;
            let end = (start + day_len).min(pool.len());
            let day_samples: Vec<Vec<u8>> = pool[start..end].to_vec();
            let stamp = day as u64 + 1;
            // Retention window of 2 days.
            engine.retire_older_than(stamp.saturating_sub(1));
            let ids = engine.add_batch(stamp, &day_samples);
            let (warm, warm_stats) = engine.cluster_day(&ids);
            let cold = common::cluster_seed(&cfg, &day_samples);
            prop_assert_eq!(&warm, &cold, "day {}", day);
            prop_assert!(warm.is_partition());
            prop_assert!(
                warm_stats.index.queries + warm_stats.index.cache_hits > 0
                    || day_samples.is_empty()
            );
        }
    }
}
