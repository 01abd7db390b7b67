//! The partition → per-partition DBSCAN → reduce dataflow behind
//! [`CorpusEngine::cluster_day`](crate::engine::CorpusEngine::cluster_day).
//!
//! The Kizzle deployment partitions each day's samples across a cluster of
//! ~50 machines, runs the clustering independently per partition, and
//! reconciles the partition-level clusters in a final reduce step (paper
//! §III-A, Fig. 7; the reduce step is reported as the scalability
//! bottleneck in §IV). The engine reproduces that dataflow with a
//! rayon-parallel map: the algorithmic structure — including the
//! reduce-side reconciliation by prototype distance — is identical, only
//! the transport differs. Partitions are assigned by **content key**
//! ([`partition_key`]): the same sample lands in the same partition every
//! day regardless of the day's size, which is what lets per-partition state
//! memoize across the heavily overlapping daily corpora.
//!
//! The reduce computes no distance between prototypes (the paper names this
//! reconciliation as its bottleneck): prototype merge edges and noise
//! re-adoption are read off the day's eps-balls, which the map phase
//! already holds, exact and restricted to the day, from the engine's
//! [`NeighborIndex`](crate::index::NeighborIndex). The reconciliation and
//! adoption phases are timed separately in [`DistributedStats`]. The day
//! reaches the reduce as a multiset — distinct class-strings plus a
//! position → content map — and its three medoid passes share one memo of
//! pair distances keyed by content, so the seal's pairwise work follows the
//! day's distinct content, not its positions. The seed's all-pairs reduce
//! is the oracle the property tests hold this one to
//! (`tests/common/mod.rs`).

use crate::clustering::{medoid_of, Clustering, PROTOTYPE_SAMPLE_CAP};
use crate::dbscan::DbscanParams;
use crate::distance::{BitParallelPattern, BitParallelScratch};
use crate::index::IndexStats;
use rayon::prelude::*;
use std::collections::HashMap;
use std::time::Duration;

/// Configuration of the partitioned clustering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributedConfig {
    /// Number of partitions ("machines"). Each partition is clustered on its
    /// own worker.
    pub partitions: usize,
    /// DBSCAN parameters used inside every partition and for reduce-side
    /// reconciliation.
    pub dbscan: DbscanParams,
}

impl DistributedConfig {
    /// Create a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is zero.
    #[must_use]
    pub fn new(partitions: usize, dbscan: DbscanParams) -> Self {
        assert!(partitions >= 1, "at least one partition is required");
        DistributedConfig { partitions, dbscan }
    }
}

impl Default for DistributedConfig {
    fn default() -> Self {
        DistributedConfig::new(4, DbscanParams::kizzle_default())
    }
}

/// Timing and size statistics of one day's clustering, used by the
/// "Cluster-Based Processing Performance" experiment (paper §IV).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DistributedStats {
    /// Wall-clock time spent partitioning the input.
    pub partition_time: Duration,
    /// Wall-clock time of the parallel map (per-partition DBSCAN) phase,
    /// neighborhood queries included.
    pub map_time: Duration,
    /// Wall-clock time of the whole reduce phase
    /// (`reconcile_time + adopt_time` plus final bookkeeping).
    pub reduce_time: Duration,
    /// Reduce sub-phase: partition-level medoids plus the merge of
    /// partition clusters whose prototypes fall within `eps`.
    pub reconcile_time: Duration,
    /// Reduce sub-phase: merged-cluster medoids plus the re-adoption of
    /// noise points near a merged prototype.
    pub adopt_time: Duration,
    /// Wall-clock time of the *final* per-cluster prototype computation
    /// (the reduce epilogue's medoid pass, stamped after `reduce_time`).
    /// It is an early-abandoned all-pairs scan per (capped) cluster; most
    /// of its pairs are answered by the memo the two reduce-side medoid
    /// passes filled.
    pub prototype_time: Duration,
    /// Aggregated neighbor-index work counters of the map phase.
    pub index: IndexStats,
    /// Distance-kernel calls made by the three medoid passes (partition
    /// clusters, merged clusters, final prototypes): one per unordered pair
    /// of distinct class strings a scan reached before abandoning its row.
    pub medoid_distance_calls: usize,
    /// Medoid-pass pair lookups answered without a kernel call: both
    /// positions hold the same class string, or the pair was computed
    /// earlier in the seal (either order, any pass).
    pub medoid_memo_hits: usize,
}

impl DistributedStats {
    /// Total wall-clock time of the run, final prototype pass included.
    #[must_use]
    pub fn total_time(&self) -> Duration {
        self.partition_time + self.map_time + self.reduce_time + self.prototype_time
    }
}

/// Per-partition map output: member lists (global indices) and noise
/// (global indices).
pub(crate) type PartitionOutcome = (Vec<Vec<usize>>, Vec<usize>);

/// Stable 64-bit content key for partition assignment: FNV-1a over the
/// sample bytes. Deliberately *not* the std hasher — the key must be
/// identical across processes, platforms and Rust releases, because
/// partition assignment shapes clustering results that snapshots and CI
/// golden reports pin byte-for-byte.
#[must_use]
pub fn partition_key(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Content-stable partition assignment: sample `i` lands in partition
/// `mix(keys[i]) % partitions`, so the *same content* maps to the
/// *same partition* on every day, at every day size. That stability is
/// what lets per-partition neighborhoods memoize across heavily
/// overlapping days. Duplicated content shares a key
/// and therefore a partition; empty partitions are kept (their DBSCAN run
/// is a no-op) so the outcome count stays `partitions` regardless of the
/// key distribution.
pub(crate) fn partition_by_key(keys: &[u64], partitions: usize) -> Vec<Vec<usize>> {
    let mut parts: Vec<Vec<usize>> = vec![Vec::new(); partitions];
    for (i, &key) in keys.iter().enumerate() {
        // splitmix64-style finalizer over the key. Changing the mix moves
        // partition assignments, and with them every pinned clustering and
        // signature digest.
        let mut h = key;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        parts[(h % partitions as u64) as usize].push(i);
    }
    parts
}

/// Path-compressing union-find over partition-level cluster ids.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// Flatten partition outcomes into global cluster member lists and noise.
fn flatten_outcomes(partition_results: Vec<PartitionOutcome>) -> (Vec<Vec<usize>>, Vec<usize>) {
    let mut all_clusters: Vec<Vec<usize>> = Vec::new();
    let mut all_noise: Vec<usize> = Vec::new();
    for (clusters, noise) in partition_results {
        all_clusters.extend(clusters);
        all_noise.extend(noise);
    }
    (all_clusters, all_noise)
}

/// Reduce-side sample cap of the partition-cluster and merged-cluster
/// medoid passes.
const REDUCE_SAMPLE_CAP: usize = 32;

/// One seal's medoid passes over a day of token strings.
///
/// The day is held as its distinct class strings plus the position →
/// content-id map, and every distance the three passes (partition clusters
/// → merged clusters → final prototypes) compute is memoized per unordered
/// pair of content ids: the passes rescan largely the same members, and a
/// duplicate-heavy day has thousands of positions over a handful of
/// strings. Values are bit-equal to
/// [`normalized_edit_distance_bounded`](crate::distance::normalized_edit_distance_bounded)
/// `.unwrap_or(1.0)` in either argument order, and the scan order and
/// early abandon of [`medoid_of`] are untouched, so the medoids are exactly
/// those of the unmemoized scan.
///
/// Lock-free and deterministic under rayon: a pass reads the map frozen at
/// its start, each cluster's task records its new pairs locally, and the
/// locals are merged in cluster order once the pass has joined.
struct TokenMedoids<'a, T> {
    /// Distinct class strings of the day.
    data: &'a [T],
    /// Position → index into `data`.
    content: &'a [u32],
    eps: f64,
    /// Pairs and work counters of the passes finished so far.
    memo: PairMemo,
}

/// Memoized medoid distances with the counters of the work behind them.
#[derive(Default)]
struct PairMemo {
    /// `(lower id, higher id)` → distance.
    pairs: HashMap<(u32, u32), f64>,
    distance_calls: usize,
    memo_hits: usize,
}

/// One cluster's scan within a pass.
struct MedoidTask<'a, T> {
    day: &'a TokenMedoids<'a, T>,
    /// The pairs this scan computed, and its own counters.
    fresh: PairMemo,
    /// Content id and preprocessed pattern of the current row, built on the
    /// row's first kernel call and reused until the content changes.
    pattern: Option<(u32, BitParallelPattern)>,
    scratch: BitParallelScratch,
}

impl<T: AsRef<[u8]>> MedoidTask<'_, T> {
    /// Distance between the samples at two day positions.
    fn distance(&mut self, cand: usize, other: usize) -> f64 {
        let day = self.day;
        let (a, b) = (day.content[cand], day.content[other]);
        if a == b {
            self.fresh.memo_hits += 1;
            return 0.0;
        }
        let key = (a.min(b), a.max(b));
        let known = day.memo.pairs.get(&key);
        if let Some(&d) = known.or_else(|| self.fresh.pairs.get(&key)) {
            self.fresh.memo_hits += 1;
            return d;
        }
        if self.pattern.as_ref().map(|(id, _)| *id) != Some(a) {
            self.pattern = None;
        }
        let (_, pattern) = self
            .pattern
            .get_or_insert_with(|| (a, BitParallelPattern::new(day.data[a as usize].as_ref())));
        let text = day.data[b as usize].as_ref();
        let d = pattern
            .normalized_distance_bounded_in(text, day.eps, &mut self.scratch)
            .unwrap_or(1.0);
        self.fresh.distance_calls += 1;
        self.fresh.pairs.insert(key, d);
        d
    }
}

impl<T: AsRef<[u8]> + Sync> TokenMedoids<'_, T> {
    /// One pass: the medoid of every (non-empty) cluster, in parallel.
    fn pass<C: AsRef<[usize]> + Sync>(&mut self, clusters: &[C], sample_cap: usize) -> Vec<usize> {
        let day = &*self;
        let scans: Vec<(usize, PairMemo)> = clusters
            .par_iter()
            .map(|members| {
                let mut task = MedoidTask {
                    day,
                    fresh: PairMemo::default(),
                    pattern: None,
                    scratch: BitParallelScratch::default(),
                };
                let medoid = medoid_of(members.as_ref(), sample_cap, |a, b| task.distance(a, b))
                    .expect("non-empty cluster has a prototype");
                (medoid, task.fresh)
            })
            .collect();
        scans
            .into_iter()
            .map(|(medoid, fresh)| {
                self.memo.pairs.extend(fresh.pairs);
                self.memo.distance_calls += fresh.distance_calls;
                self.memo.memo_hits += fresh.memo_hits;
                medoid
            })
            .collect()
    }
}

/// Assemble merged clusters from union-find roots, in a deterministic
/// order: members ascending, clusters ordered by smallest member index.
fn assemble_merged(all_clusters: &[Vec<usize>], uf: &mut UnionFind) -> Vec<Vec<usize>> {
    let mut merged: std::collections::HashMap<usize, Vec<usize>> = std::collections::HashMap::new();
    for (idx, members) in all_clusters.iter().enumerate() {
        let root = uf.find(idx);
        merged
            .entry(root)
            .or_default()
            .extend(members.iter().copied());
    }
    let mut merged_clusters: Vec<Vec<usize>> = merged.into_values().collect();
    for m in &mut merged_clusters {
        m.sort_unstable();
    }
    merged_clusters.sort_by_key(|m| m.first().copied().unwrap_or(usize::MAX));
    merged_clusters
}

/// For each of `distinct` content ids, the first of `contents` (by
/// position) that holds it.
fn first_holders(distinct: usize, contents: impl Iterator<Item = u32>) -> Vec<Option<usize>> {
    let mut holders = vec![None; distinct];
    for (i, u) in contents.enumerate() {
        holders[u as usize].get_or_insert(i);
    }
    holders
}

/// The reduce: partition clusters whose medoids lie within `eps` merge,
/// then noise points within `eps` of a merged cluster's medoid join it.
/// The merge semantics are the seed's all-pairs reduce under the paper's
/// bounded distance, but both questions are answered from the day's
/// eps-balls instead of all-pairs scans — at production partition counts
/// the all-pairs reconciliation is the bottleneck the paper calls out in
/// §IV — and the three medoid passes share one per-seal pair memo
/// ([`TokenMedoids`]).
///
/// The day arrives as its distinct class strings (`data`), the position →
/// content-id map (`content`) and the eps-ball of every content id over the
/// others (`balls`, the relation the map phase clustered on); member lists,
/// noise and the returned clustering are position-level.
pub(crate) fn reduce_token<T>(
    data: &[T],
    content: &[u32],
    balls: &[Vec<usize>],
    params: &DbscanParams,
    partition_results: Vec<PartitionOutcome>,
    stats: &mut DistributedStats,
) -> Clustering
where
    T: AsRef<[u8]> + Sync,
{
    let eps = params.eps;
    let mut medoids = TokenMedoids {
        data,
        content,
        eps,
        memo: PairMemo::default(),
    };
    let reduce_span = kizzle_telemetry::span!("cluster.reduce");
    let reconcile_span = kizzle_telemetry::span!("cluster.reconcile");
    let (all_clusters, all_noise) = flatten_outcomes(partition_results);

    // A position's class string and every one within eps of it.
    let within_eps = |position: usize| {
        let u = content[position] as usize;
        std::iter::once(u).chain(balls[u].iter().copied())
    };

    let prototypes = medoids.pass(&all_clusters, REDUCE_SAMPLE_CAP);
    // Prototype pairs within eps become merge edges: each prototype unions
    // with the first prototype of every class string within eps of its own.
    // Prototypes sharing a string meet at its first one, and symmetry makes
    // each edge appear from both endpoints, which union-find absorbs.
    let proto_of = first_holders(data.len(), prototypes.iter().map(|&p| content[p]));
    let mut uf = UnionFind::new(all_clusters.len());
    for (i, &p) in prototypes.iter().enumerate() {
        for j in within_eps(p).filter_map(|v| proto_of[v]) {
            uf.union(i, j);
        }
    }
    let mut merged_clusters = assemble_merged(&all_clusters, &mut uf);
    stats.reconcile_time = reconcile_span.finish();

    // Re-adopt noise points that are within eps of a merged prototype: each
    // joins the first such cluster in merged order (smallest index), as the
    // seed's all-pairs scan does.
    let adopt_span = kizzle_telemetry::span!("cluster.adopt");
    let merged_prototypes = medoids.pass(&merged_clusters, REDUCE_SAMPLE_CAP);
    let cluster_of = first_holders(data.len(), merged_prototypes.iter().map(|&p| content[p]));
    let mut remaining_noise = Vec::new();
    for idx in all_noise {
        match within_eps(idx).filter_map(|v| cluster_of[v]).min() {
            Some(cluster) => merged_clusters[cluster].push(idx),
            None => remaining_noise.push(idx),
        }
    }
    stats.adopt_time = adopt_span.finish();

    for m in &mut merged_clusters {
        m.sort_unstable();
    }
    remaining_noise.sort_unstable();
    stats.reduce_time = reduce_span.finish();

    // Timed separately from the reduce phases, so the final medoid pass
    // shows as its own layer in the ledger.
    let proto_span = kizzle_telemetry::span!("cluster.prototypes");
    let prototypes = medoids.pass(&merged_clusters, PROTOTYPE_SAMPLE_CAP);
    let mut clustering = Clustering::from_members(merged_clusters, remaining_noise, content.len());
    for (cluster, prototype) in clustering.clusters.iter_mut().zip(prototypes) {
        cluster.prototype = Some(prototype);
    }
    stats.prototype_time = proto_span.finish();
    debug_assert!(clustering.is_partition(), "every position in one place");
    stats.medoid_distance_calls = medoids.memo.distance_calls;
    stats.medoid_memo_hits = medoids.memo.memo_hits;
    if kizzle_telemetry::enabled() {
        kizzle_telemetry::counter("kizzle_cluster_medoid_distance_calls_total")
            .add(stats.medoid_distance_calls as u64);
        kizzle_telemetry::counter("kizzle_cluster_medoid_memo_hits_total")
            .add(stats.medoid_memo_hits as u64);
    }
    clustering
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CorpusEngine;

    /// A one-shot day through a fresh engine.
    fn cluster(config: DistributedConfig, samples: &[Vec<u8>]) -> (Clustering, DistributedStats) {
        let mut engine = CorpusEngine::new(config);
        let ids = engine.add_batch(0, samples);
        engine.cluster_day(&ids)
    }

    /// Three synthetic "families" of token strings plus random noise.
    fn synthetic_samples(per_family: usize) -> (Vec<Vec<u8>>, Vec<usize>) {
        let mut samples = Vec::new();
        let mut family_of = Vec::new();
        let bases: Vec<Vec<u8>> = vec![
            (0..120).map(|i| (i % 5) as u8).collect(),
            (0..150).map(|i| ((i * 3) % 6) as u8).collect(),
            (0..90).map(|i| ((i * 7 + 1) % 4) as u8).collect(),
        ];
        for (f, base) in bases.iter().enumerate() {
            for v in 0..per_family {
                let mut s = base.clone();
                // Perturb < 5% of positions so members stay within eps=0.1.
                for k in 0..(s.len() / 30) {
                    let pos = (v * 13 + k * 17) % s.len();
                    s[pos] = (s[pos] + 1) % 6;
                }
                samples.push(s);
                family_of.push(f);
            }
        }
        (samples, family_of)
    }

    #[test]
    fn empty_input_is_fine() {
        let (clustering, stats) = cluster(DistributedConfig::default(), &[]);
        assert_eq!(clustering.cluster_count(), 0);
        assert_eq!(stats.medoid_distance_calls, 0);
    }

    #[test]
    fn single_partition_equals_plain_dbscan_structure() {
        let (samples, _) = synthetic_samples(5);
        let cfg = DistributedConfig::new(1, DbscanParams::new(0.10, 2));
        let (clustering, _) = cluster(cfg, &samples);
        assert_eq!(clustering.cluster_count(), 3);
        assert!(clustering.is_partition());
    }

    #[test]
    fn multi_partition_reconciles_families_split_across_partitions() {
        let (samples, family_of) = synthetic_samples(8);
        let cfg = DistributedConfig::new(4, DbscanParams::new(0.10, 2));
        let (clustering, stats) = cluster(cfg, &samples);
        assert!(clustering.is_partition());
        // All three families must be re-united by the reduce step.
        assert_eq!(clustering.cluster_count(), 3, "stats: {stats:?}");
        // Every cluster must be family-pure.
        for cluster in &clustering.clusters {
            let families: std::collections::HashSet<_> =
                cluster.members.iter().map(|&i| family_of[i]).collect();
            assert_eq!(families.len(), 1, "cluster mixes families");
        }
    }

    #[test]
    fn noise_points_stay_noise() {
        let (mut samples, _) = synthetic_samples(4);
        // Add two wildly different samples.
        samples.push((0..40).map(|i| (i % 2) as u8 + 4).collect());
        samples.push((0..300).map(|_| 3u8).collect());
        let noise_a = samples.len() - 2;
        let noise_b = samples.len() - 1;
        let cfg = DistributedConfig::new(3, DbscanParams::new(0.10, 2));
        let (clustering, _) = cluster(cfg, &samples);
        assert!(clustering.noise.contains(&noise_a));
        assert!(clustering.noise.contains(&noise_b));
    }

    #[test]
    fn repeated_runs_cluster_identically() {
        let (samples, _) = synthetic_samples(6);
        let cfg = DistributedConfig::new(4, DbscanParams::new(0.10, 2));
        let (a, _) = cluster(cfg, &samples);
        let (b, _) = cluster(cfg, &samples);
        assert_eq!(a, b);
    }

    #[test]
    fn partition_assignment_is_content_stable() {
        // The same content must land in the same partition regardless of
        // how many *other* samples share the day — the property that lets
        // per-partition state memoize across overlapping days.
        let (samples, _) = synthetic_samples(6);
        let keys: Vec<u64> = samples.iter().map(|s| partition_key(s)).collect();
        let partitions = 4;
        let full = partition_by_key(&keys, partitions);
        let part_of = |parts: &[Vec<usize>], i: usize| {
            parts
                .iter()
                .position(|p| p.contains(&i))
                .expect("every index assigned")
        };
        // Drop half the day: the survivors keep their partitions.
        let survivors: Vec<usize> = (0..samples.len()).filter(|i| i % 2 == 0).collect();
        let kept_keys: Vec<u64> = survivors.iter().map(|&i| keys[i]).collect();
        let reduced = partition_by_key(&kept_keys, partitions);
        for (new_pos, &old_pos) in survivors.iter().enumerate() {
            assert_eq!(
                part_of(&full, old_pos),
                part_of(&reduced, new_pos),
                "sample {old_pos} moved partitions when the day shrank"
            );
        }
        // Duplicated content shares a partition by construction.
        let dup_keys = vec![keys[0], keys[1], keys[0]];
        let dup = partition_by_key(&dup_keys, partitions);
        assert_eq!(part_of(&dup, 0), part_of(&dup, 2));
    }

    #[test]
    fn empty_input_clusters_to_nothing_on_every_path() {
        // A fresh engine's empty day, and an empty view of a live corpus.
        let cfg = DistributedConfig::new(3, DbscanParams::new(0.10, 2));
        let (clustering, _) = cluster(cfg, &[]);
        assert_eq!(clustering, Clustering::default());
        let mut engine = CorpusEngine::new(cfg);
        engine.add_batch(0, &synthetic_samples(2).0);
        let (clustering, _) = engine.cluster_day(&[]);
        assert_eq!(clustering, Clustering::default());
    }

    #[test]
    fn index_stats_are_aggregated() {
        let (samples, _) = synthetic_samples(5);
        let cfg = DistributedConfig::new(3, DbscanParams::new(0.10, 2));
        let (_, stats) = cluster(cfg, &samples);
        // Every (distinct) sample's neighborhood is computed exactly once.
        assert_eq!(stats.index.queries, samples.len());
        // Pairs past both filters get at most one kernel call of their own;
        // every other call went to a pivot.
        assert!(
            stats.index.distance_calls - stats.index.pivot_calls
                <= stats.index.window_candidates - stats.index.pruned_by_histogram
        );
    }

    #[test]
    fn stats_are_populated() {
        let (samples, _) = synthetic_samples(4);
        let cfg = DistributedConfig::new(2, DbscanParams::new(0.10, 2));
        let (_, stats) = cluster(cfg, &samples);
        assert!(stats.total_time() >= stats.reduce_time);
        assert!(stats.reduce_time >= stats.reconcile_time);
        assert!(stats.medoid_distance_calls > 0);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_panics() {
        let _ = DistributedConfig::new(0, DbscanParams::kizzle_default());
    }

    #[test]
    fn more_partitions_than_samples() {
        let (samples, _) = synthetic_samples(1);
        let cfg = DistributedConfig::new(16, DbscanParams::new(0.10, 1));
        let (clustering, _) = cluster(cfg, &samples);
        assert!(clustering.is_partition());
    }
}
