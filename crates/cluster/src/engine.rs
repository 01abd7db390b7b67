//! The incremental corpus engine: warm state threaded through
//! consecutive days.
//!
//! The paper's deployment is a *continuous* daily loop over heavily
//! overlapping grayware corpora. A stateless pipeline rebuilds the neighbor
//! index and re-queries every neighborhood from scratch each day; the
//! [`CorpusEngine`] instead composes a [`CorpusStore`] (stable ids, content
//! dedup, stamp-based retirement) with an incremental [`NeighborIndex`]
//! (in-place insert/remove, memoized neighborhoods maintained rather than
//! recomputed), so day *N+1* pays query cost only for its churned fraction.
//!
//! [`CorpusEngine::cluster_day`] clusters an arbitrary *view* of the live
//! corpus — the ids of one day's samples — through the partition →
//! per-partition DBSCAN → reduce dataflow of
//! [`distributed`](crate::distributed). The key identity making that
//! sound: an eps-ball restricted to a subset of
//! samples equals the subset-local eps-ball, because the accept predicate
//! is pairwise. The engine therefore filters its full-corpus memoized
//! neighborhoods down to the day (and further down to each partition)
//! instead of re-querying, and the result is **byte-identical** to a cold
//! one-shot run over the same samples — the property tests in
//! `tests/incremental_properties.rs` hold it to that. A view that repeats
//! an id is clustered as a multiset (distinct ids with multiplicities,
//! expanded to positions only when member lists are emitted), which labels
//! every position exactly as position-level DBSCAN would —
//! `tests/seal_properties.rs` — at the cost of the distinct content.

use crate::clustering::Clustering;
use crate::dbscan::{dbscan_with_neighborhoods, DbscanResult, Label};
use crate::distributed::{
    partition_by_key, reduce_token, DistributedConfig, DistributedStats, PartitionOutcome,
};
use crate::index::NeighborIndex;
use crate::store::{CorpusStore, SampleId};
use kizzle_snapshot::{Decoder, Encoder, Snapshot, SnapshotError};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

pub use kizzle_snapshot::sections::{INDEX_SECTION, STORE_SECTION};

/// What a [`CorpusEngine::resume_from_sections`] actually managed to
/// restore.
///
/// Resume never fails: the worst outcome is a cold, empty engine — exactly
/// the state a fresh cron-job process would have had before persistence
/// existed. The report says which rung of the fallback ladder was reached:
///
/// 1. store + index with every memoized neighborhood → warm, zero
///    recomputed queries;
/// 2. store intact but index damaged → index rebuilt from the store,
///    every neighborhood recomputed at load;
/// 3. store damaged → empty engine, full cold rebuild.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResumeReport {
    /// The sample store was restored from the snapshot.
    pub store_restored: bool,
    /// The neighbor index (including memoized neighborhoods) was restored
    /// from the snapshot; false means it was rebuilt from the store (or is
    /// empty because the store was lost too).
    pub index_restored: bool,
    /// Live samples in the resumed engine.
    pub live_samples: usize,
    /// Human-readable reasons for every fallback taken, empty on a clean
    /// resume.
    pub notes: Vec<String>,
}

impl ResumeReport {
    /// Record one fallback-ladder note. Besides appending to
    /// [`ResumeReport::notes`], the note is emitted as an
    /// `engine.resume.note` telemetry event (and counted in
    /// `kizzle_resume_notes_total`), so a degraded resume is visible in
    /// the JSONL trace even when no caller prints the report.
    pub fn note(&mut self, message: String) {
        if kizzle_telemetry::enabled() {
            kizzle_telemetry::event("engine.resume.note", message.as_str());
            kizzle_telemetry::counter("kizzle_resume_notes_total").incr();
        }
        self.notes.push(message);
    }
}

/// Persistent clustering engine over a corpus that changes incrementally.
#[derive(Debug, Clone)]
pub struct CorpusEngine {
    config: DistributedConfig,
    store: CorpusStore,
    index: NeighborIndex,
}

impl CorpusEngine {
    /// Create an empty engine; the index runs at `config.dbscan.eps`.
    #[must_use]
    pub fn new(config: DistributedConfig) -> Self {
        CorpusEngine {
            config,
            store: CorpusStore::new(),
            index: NeighborIndex::new(config.dbscan.eps),
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &DistributedConfig {
        &self.config
    }

    /// The persistent sample store.
    #[must_use]
    pub fn store(&self) -> &CorpusStore {
        &self.store
    }

    /// The incremental neighbor index.
    #[must_use]
    pub fn index(&self) -> &NeighborIndex {
        &self.index
    }

    /// Number of live samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True if the engine holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Add one day's class-strings under `stamp`, returning one id per
    /// input position (dedup means ids can repeat: a sample identical to an
    /// already-live one — yesterday's carry-over, or an intra-day duplicate
    /// — reuses its entry and refreshes its stamp instead of re-indexing).
    ///
    /// Fresh samples are indexed as a batch: their neighborhoods are
    /// computed in parallel and spliced into the surviving memoized lists.
    pub fn add_batch<S: AsRef<[u8]>>(&mut self, stamp: u64, samples: &[S]) -> Vec<SampleId> {
        let mut ids = Vec::with_capacity(samples.len());
        let mut fresh: Vec<(SampleId, Arc<[u8]>)> = Vec::new();
        for sample in samples {
            let (id, reused) = self.store.add(stamp, sample.as_ref());
            if !reused {
                fresh.push((id, self.store.data(id).expect("just added")));
            }
            ids.push(id);
        }
        self.index.insert_batch(fresh);
        ids
    }

    /// Remove one sample from store and index.
    pub fn remove(&mut self, id: SampleId) -> bool {
        if self.store.remove(id).is_none() {
            return false;
        }
        self.index.remove(id);
        true
    }

    /// Retire every sample whose stamp is strictly below `cutoff`,
    /// returning how many were removed.
    pub fn retire_older_than(&mut self, cutoff: u64) -> usize {
        let retired = self.store.older_than(cutoff);
        for &id in &retired {
            self.remove(id);
        }
        retired.len()
    }

    /// Serialize the warm stack as named section payloads. The store and
    /// index encoders are independent, so they run through the rayon pool
    /// — on a multi-core box the snapshot encode costs max(store, index)
    /// instead of their sum.
    #[must_use]
    pub fn encode_sections(&self) -> Vec<(String, Vec<u8>)> {
        let (store_bytes, index_bytes) = rayon::join(
            || {
                let mut enc = Encoder::new();
                self.store.encode_into(&mut enc);
                enc.into_bytes()
            },
            || {
                let mut enc = Encoder::new();
                self.index.encode_into(&mut enc);
                enc.into_bytes()
            },
        );
        vec![
            (STORE_SECTION.to_string(), store_bytes),
            (INDEX_SECTION.to_string(), index_bytes),
        ]
    }

    /// Resume from snapshot sections written by
    /// [`CorpusEngine::encode_sections`] (they persist inside the
    /// compiler's state file). Never fails: any damage degrades down the
    /// fallback ladder described on [`ResumeReport`].
    #[must_use]
    pub fn resume_from_sections(
        config: DistributedConfig,
        snapshot: &Snapshot,
    ) -> (Self, ResumeReport) {
        let mut report = ResumeReport::default();

        let store = match snapshot.section(STORE_SECTION).and_then(|payload| {
            let mut dec = Decoder::new(payload);
            let store = CorpusStore::decode_from(&mut dec)?;
            dec.finish()?;
            Ok(store)
        }) {
            Ok(store) => {
                report.store_restored = true;
                store
            }
            Err(err) => {
                report.note(format!("store section lost, cold start: {err}"));
                return (CorpusEngine::new(config), report);
            }
        };

        let index = snapshot
            .section(INDEX_SECTION)
            .and_then(|payload| {
                let mut dec = Decoder::new(payload);
                let index = NeighborIndex::decode_from(&mut dec, |id| store.data(id))?;
                dec.finish()?;
                Ok(index)
            })
            .and_then(|index| {
                // The sections must describe the same corpus at the same
                // eps, or the memoized neighborhoods are meaningless. Exact
                // bit equality: the caches were computed at *this* eps, and
                // even a one-ulp difference moves the radius cutoff.
                if index.eps().to_bits() != config.dbscan.eps.to_bits() {
                    return Err(SnapshotError::Corrupt(format!(
                        "index eps {} != config eps {}",
                        index.eps(),
                        config.dbscan.eps
                    )));
                }
                if index.len() != store.len()
                    || !store.live_ids().iter().all(|&id| index.contains(id))
                {
                    return Err(SnapshotError::Corrupt(
                        "index entries disagree with store".into(),
                    ));
                }
                Ok(index)
            });
        let index = match index {
            Ok(index) => {
                report.index_restored = true;
                index
            }
            Err(err) => {
                report.note(format!("index section lost, rebuilding from store: {err}"));
                let mut rebuilt = NeighborIndex::new(config.dbscan.eps);
                rebuilt.insert_batch(
                    store
                        .live_ids()
                        .into_iter()
                        .map(|id| (id, store.data(id).expect("live id")))
                        .collect(),
                );
                rebuilt
            }
        };

        report.live_samples = store.len();
        (
            CorpusEngine {
                config,
                store,
                index,
            },
            report,
        )
    }

    /// Cluster a view of the live corpus — `day_ids[p]` is the sample at
    /// dense position `p` — through partition → per-partition DBSCAN →
    /// reduce, the last two reading the same day-restricted eps-balls,
    /// byte-identical to a fresh engine clustering the same dense sample
    /// sequence in one batch. Every live id's neighborhood is memoized, so
    /// the day reads its eps-balls and computes none; the ids that were
    /// fresh today paid their queries at insert. The day is held as a multiset — its distinct class-strings (in
    /// first-position order) with multiplicities — so the map phase costs
    /// what the distinct content and its eps-balls cost, however many
    /// positions repeat it.
    ///
    /// # Panics
    ///
    /// Panics if any id is not live.
    pub fn cluster_day(&mut self, day_ids: &[SampleId]) -> (Clustering, DistributedStats) {
        let mut stats = DistributedStats::default();
        let t_map = Instant::now();

        // The view as a multiset: its distinct ids in first-position order
        // (dedup can map several positions to one id), each position's
        // index into them, and how many positions each one holds.
        let mut unique_of: HashMap<u32, u32> = HashMap::new();
        let mut unique: Vec<SampleId> = Vec::new();
        let mut weights: Vec<usize> = Vec::new();
        let content: Vec<u32> = day_ids
            .iter()
            .map(|id| {
                let u = *unique_of.entry(id.raw()).or_insert_with(|| {
                    unique.push(*id);
                    weights.push(0);
                    u32::try_from(unique.len() - 1).expect("distinct day ids fit u32")
                });
                weights[u as usize] += 1;
                u
            })
            .collect();

        // Day-restricted neighborhoods over the distinct ids: the
        // full-corpus eps-ball filtered to the view. Co-located duplicates
        // are not listed — the multiplicities carry them.
        let index = &self.index;
        let balls: Vec<Vec<usize>> = unique
            .par_iter()
            .map(|id| {
                let mut ball: Vec<usize> = index
                    .cached_slots(id.raw())
                    .iter()
                    .filter_map(|slot| unique_of.get(slot).map(|&u| u as usize))
                    .collect();
                ball.sort_unstable();
                ball
            })
            .collect();

        // Keys were hashed once at store-insert; the daily pass is lookups,
        // not re-hashing.
        let (keys, data) = self.store.day_view(&unique);

        stats.index = self.index.take_stats();
        // Each distinct id's ball was read from the memo.
        stats.index.cache_hits += unique.len();
        if kizzle_telemetry::enabled() {
            use kizzle_telemetry::counter;
            let funnel = &stats.index;
            counter("kizzle_cluster_index_queries_total").add(funnel.queries as u64);
            counter("kizzle_cluster_index_window_candidates_total")
                .add(funnel.window_candidates as u64);
            counter("kizzle_cluster_index_pruned_by_histogram_total")
                .add(funnel.pruned_by_histogram as u64);
            counter("kizzle_cluster_index_distance_calls_total").add(funnel.distance_calls as u64);
            counter("kizzle_cluster_index_pivot_calls_total").add(funnel.pivot_calls as u64);
            counter("kizzle_cluster_index_accepted_by_pivot_total")
                .add(funnel.accepted_by_pivot as u64);
            counter("kizzle_cluster_index_rejected_by_pivot_total")
                .add(funnel.rejected_by_pivot as u64);
            kizzle_telemetry::gauge("kizzle_cluster_index_pivots")
                .set(self.index.pivot_count() as u64);
        }

        if content.is_empty() {
            return (Clustering::default(), stats);
        }
        let params = self.config.dbscan;
        let day_span = kizzle_telemetry::span!("day.cluster");

        // Partition by content key — the same class-string lands in the
        // same partition every day (content-stable, not an `n`-dependent
        // shuffle), all of its positions with it — and cluster each
        // partition on its induced subgraph, the same label computation a
        // fresh per-partition index performs.
        let partition_span = kizzle_telemetry::span!("cluster.partition");
        let partitions = partition_by_key(&keys, self.config.partitions);
        // Partition and partition-local index of every distinct string.
        let mut placed = vec![(0usize, 0usize); keys.len()];
        for (part, members) in partitions.iter().enumerate() {
            for (local, &u) in members.iter().enumerate() {
                placed[u] = (part, local);
            }
        }
        stats.partition_time = partition_span.finish();

        let results: Vec<DbscanResult> = partitions
            .par_iter()
            .enumerate()
            .map(|(part, members)| {
                // `members` and every ball ascend, and `local` ascends with
                // them, so the filtered lists come out ascending.
                let local_balls: Vec<Vec<usize>> = members
                    .iter()
                    .map(|&u| {
                        balls[u]
                            .iter()
                            .filter_map(|&v| {
                                let (p, local) = placed[v];
                                (p == part).then_some(local)
                            })
                            .collect()
                    })
                    .collect();
                let local_weights: Vec<usize> = members.iter().map(|&u| weights[u]).collect();
                dbscan_with_neighborhoods(&local_balls, &local_weights, &params)
            })
            .collect();

        // Expand to positions only now: every position takes the label of
        // its class-string, and walking positions in order leaves each
        // member list ascending.
        let mut outcomes: Vec<PartitionOutcome> = results
            .iter()
            .map(|result| (vec![Vec::new(); result.cluster_count()], Vec::new()))
            .collect();
        for (position, &u) in content.iter().enumerate() {
            let (part, local) = placed[u as usize];
            match results[part].labels()[local] {
                Label::Cluster(c) => outcomes[part].0[c].push(position),
                _ => outcomes[part].1.push(position),
            }
        }
        stats.map_time = t_map.elapsed() - stats.partition_time;
        // The map phase encloses the partition phase but excludes its
        // time, so it is recorded as a measured duration, not a guard.
        kizzle_telemetry::record_span("cluster.map", stats.map_time);

        // The reduce reads the same day-restricted eps-balls.
        let clustering = reduce_token(&data, &content, &balls, &params, outcomes, &mut stats);
        let day_elapsed = day_span.finish();
        if kizzle_telemetry::enabled() {
            kizzle_telemetry::histogram("kizzle_cluster_day_ns").observe_duration(day_elapsed);
        }
        (clustering, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbscan::DbscanParams;

    fn family_day(per_family: usize, variant_offset: usize) -> Vec<Vec<u8>> {
        let mut samples = Vec::new();
        let bases: Vec<Vec<u8>> = vec![
            (0..120).map(|i| (i % 5) as u8).collect(),
            (0..150).map(|i| ((i * 3) % 6) as u8).collect(),
            (0..90).map(|i| ((i * 7 + 1) % 4) as u8).collect(),
        ];
        for base in &bases {
            for v in 0..per_family {
                let mut s = base.clone();
                for k in 0..(s.len() / 30) {
                    let pos = ((v + variant_offset) * 13 + k * 17) % s.len();
                    s[pos] = (s[pos] + 1) % 6;
                }
                samples.push(s);
            }
        }
        samples
    }

    fn cfg() -> DistributedConfig {
        DistributedConfig::new(3, DbscanParams::new(0.10, 2))
    }

    /// A cold one-shot run: the day through a fresh engine.
    fn cold(day: &[Vec<u8>]) -> Clustering {
        let mut engine = CorpusEngine::new(cfg());
        let ids = engine.add_batch(0, day);
        engine.cluster_day(&ids).0
    }

    #[test]
    fn empty_day_is_fine() {
        let mut engine = CorpusEngine::new(cfg());
        let (clustering, stats) = engine.cluster_day(&[]);
        assert_eq!(clustering.cluster_count(), 0);
        assert_eq!(stats.medoid_distance_calls, 0);
    }

    #[test]
    fn warm_second_day_matches_cold_run() {
        let day1 = family_day(5, 0);
        // Day 2 keeps most of day 1 and churns in a few new variants.
        let mut day2 = day1[3..].to_vec();
        day2.extend(family_day(2, 9));

        let mut engine = CorpusEngine::new(cfg());
        let ids1 = engine.add_batch(1, &day1);
        let (warm1, _) = engine.cluster_day(&ids1);
        let ids2 = engine.add_batch(2, &day2);
        let (warm2, stats2) = engine.cluster_day(&ids2);

        assert_eq!(warm1, cold(&day1));
        assert_eq!(warm2, cold(&day2));
        // The carried-over samples were cache hits: only the churned
        // fraction paid query cost on day 2.
        assert!(
            stats2.index.queries < day2.len(),
            "stats: {:?}",
            stats2.index
        );
        assert!(stats2.index.cache_hits > 0);
    }

    #[test]
    fn retirement_shrinks_the_corpus_without_changing_the_day() {
        let day1 = family_day(4, 0);
        let day2 = family_day(4, 5);
        let mut engine = CorpusEngine::new(cfg());
        engine.add_batch(1, &day1);
        assert_eq!(engine.len(), day1.len());
        let ids2 = engine.add_batch(2, &day2);
        // Retire day 1 (stamp < 2); day 2's clustering is unaffected.
        let retired = engine.retire_older_than(2);
        assert_eq!(retired, day1.len());
        assert_eq!(engine.len(), day2.len());
        let (warm, _) = engine.cluster_day(&ids2);
        assert_eq!(warm, cold(&day2));
    }

    #[test]
    fn duplicate_positions_cluster_like_distinct_samples() {
        // A day whose view repeats the same content at several positions
        // must cluster exactly like a cold run over the repeated sequence.
        let base = family_day(3, 0);
        let mut day: Vec<Vec<u8>> = base.clone();
        day.push(base[0].clone());
        day.push(base[0].clone());
        let mut engine = CorpusEngine::new(cfg());
        let ids = engine.add_batch(1, &day);
        // Dedup collapsed the repeats onto one id.
        assert_eq!(ids[0], ids[base.len()]);
        assert_eq!(ids[0], ids[base.len() + 1]);
        let (warm, _) = engine.cluster_day(&ids);
        assert_eq!(warm, cold(&day));
    }

    /// The engine's sections as one parsed container — what the
    /// compiler's state file carries for it.
    fn saved(engine: &CorpusEngine) -> Snapshot {
        let mut builder = kizzle_snapshot::SnapshotBuilder::new();
        for (name, payload) in engine.encode_sections() {
            builder.section(&name, payload);
        }
        Snapshot::from_bytes(&builder.to_bytes()).expect("parses")
    }

    #[test]
    fn snapshot_resume_is_warm_and_clusters_identically() {
        let day1 = family_day(5, 0);
        let mut day2 = day1[3..].to_vec();
        day2.extend(family_day(2, 9));

        let mut engine = CorpusEngine::new(cfg());
        let ids1 = engine.add_batch(1, &day1);
        let (_, _) = engine.cluster_day(&ids1);

        let (mut resumed, report) = CorpusEngine::resume_from_sections(cfg(), &saved(&engine));
        assert!(
            report.store_restored && report.index_restored,
            "report: {report:?}"
        );
        assert_eq!(report.live_samples, engine.len());
        assert!(report.notes.is_empty(), "notes: {:?}", report.notes);
        for id in engine.store().live_ids() {
            assert_eq!(resumed.index().neighbors(id), engine.index().neighbors(id));
        }

        // Day 2 through the original and the resumed engine: identical ids,
        // identical clustering, and the resumed engine answers the
        // carried-over fraction from its restored caches.
        let ids2_live = engine.add_batch(2, &day2);
        let (live_clustering, _) = engine.cluster_day(&ids2_live);
        let ids2_resumed = resumed.add_batch(2, &day2);
        assert_eq!(ids2_live, ids2_resumed);
        let (resumed_clustering, resumed_stats) = resumed.cluster_day(&ids2_resumed);
        assert_eq!(live_clustering, resumed_clustering);
        assert!(resumed_stats.index.cache_hits > 0);
    }

    #[test]
    fn identical_rerun_after_resume_needs_zero_queries() {
        let day = family_day(4, 0);
        let mut engine = CorpusEngine::new(cfg());
        let ids = engine.add_batch(1, &day);
        let (_, _) = engine.cluster_day(&ids);

        let (mut resumed, report) = CorpusEngine::resume_from_sections(cfg(), &saved(&engine));
        assert!(report.store_restored && report.index_restored);
        // The same content re-added deduplicates onto live entries; the
        // resumed caches answer the whole day — same as a long-lived
        // process, zero recomputed queries.
        let ids2 = resumed.add_batch(2, &day);
        let (_, stats) = resumed.cluster_day(&ids2);
        assert_eq!(stats.index.queries, 0, "stats: {:?}", stats.index);
        assert!(stats.index.cache_hits > 0);
    }

    #[test]
    fn missing_snapshot_degrades_to_cold_empty_engine() {
        let empty = kizzle_snapshot::SnapshotBuilder::new().to_bytes();
        let snapshot = Snapshot::from_bytes(&empty).expect("parses");
        let (engine, report) = CorpusEngine::resume_from_sections(cfg(), &snapshot);
        assert!(engine.is_empty());
        assert!(!report.store_restored);
        assert_eq!(report.notes.len(), 1);
    }

    #[test]
    fn corrupt_index_section_rebuilds_from_store() {
        let day = family_day(4, 0);
        let mut engine = CorpusEngine::new(cfg());
        let ids = engine.add_batch(1, &day);
        let (want, _) = engine.cluster_day(&ids);

        // Damage the index payload on disk; the store payload stays intact.
        let mut builder = kizzle_snapshot::SnapshotBuilder::new();
        let mut enc = Encoder::new();
        engine.store().encode_into(&mut enc);
        builder.section(STORE_SECTION, enc.into_bytes());
        builder.section(INDEX_SECTION, b"garbage payload".to_vec());
        let snapshot = Snapshot::from_bytes(&builder.to_bytes()).expect("parses");

        let (mut resumed, report) = CorpusEngine::resume_from_sections(cfg(), &snapshot);
        assert!(report.store_restored);
        assert!(!report.index_restored);
        assert_eq!(resumed.len(), engine.len());
        // The rebuilt engine still clusters the day identically — it paid
        // the queries again at load, and the next day's counters say so.
        let ids2 = resumed.add_batch(1, &day);
        assert_eq!(ids, ids2, "dedup must map onto the restored entries");
        let (got, stats) = resumed.cluster_day(&ids2);
        assert_eq!(want, got);
        assert!(stats.index.queries > 0);
    }

    #[test]
    fn rebuilt_engine_holds_every_ball_and_resaves_warm() {
        // A degraded (rebuilt-from-store) engine computes every
        // neighborhood at load, so it holds the original's balls before
        // any day runs, and its own save resumes on the first rung.
        let day = family_day(3, 0);
        let mut engine = CorpusEngine::new(cfg());
        let ids = engine.add_batch(1, &day);
        let (want, _) = engine.cluster_day(&ids);

        let mut builder = kizzle_snapshot::SnapshotBuilder::new();
        let mut enc = Encoder::new();
        engine.store().encode_into(&mut enc);
        builder.section(STORE_SECTION, enc.into_bytes());
        builder.section(INDEX_SECTION, Vec::new()); // damaged: empty payload
        let snapshot = Snapshot::from_bytes(&builder.to_bytes()).expect("parses");
        let (rebuilt, report) = CorpusEngine::resume_from_sections(cfg(), &snapshot);
        assert!(report.store_restored && !report.index_restored);
        for &id in &ids {
            assert_eq!(rebuilt.index().neighbors(id), engine.index().neighbors(id));
        }

        let (mut resumed, report) = CorpusEngine::resume_from_sections(cfg(), &saved(&rebuilt));
        assert!(
            report.store_restored && report.index_restored,
            "the rebuilt index resumes warm: {report:?}"
        );
        assert!(report.notes.is_empty(), "notes: {:?}", report.notes);
        let ids2 = resumed.add_batch(1, &day);
        assert_eq!(ids, ids2);
        let (got, stats) = resumed.cluster_day(&ids2);
        assert_eq!(want, got);
        assert_eq!(stats.index.queries, 0, "stats: {:?}", stats.index);
    }

    #[test]
    fn corrupt_store_section_degrades_to_cold() {
        let mut builder = kizzle_snapshot::SnapshotBuilder::new();
        builder.section(STORE_SECTION, b"\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF".to_vec());
        let snapshot = Snapshot::from_bytes(&builder.to_bytes()).expect("parses");
        let (engine, report) = CorpusEngine::resume_from_sections(cfg(), &snapshot);
        assert!(engine.is_empty());
        assert!(!report.store_restored);
        assert!(!report.index_restored);
    }

    #[test]
    fn remove_is_idempotent() {
        let mut engine = CorpusEngine::new(cfg());
        let ids = engine.add_batch(1, &family_day(2, 0));
        assert!(engine.remove(ids[0]));
        assert!(!engine.remove(ids[0]));
        assert_eq!(engine.len(), ids.len() - 1);
    }
}
