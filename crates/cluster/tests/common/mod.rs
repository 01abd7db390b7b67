//! Oracles shared by the integration tests: the seed's scalar edit
//! distances ([`distance`]), its naive DBSCAN, and its keyed partition →
//! DBSCAN → all-pairs reduce with exhaustive medoids. They are sequential
//! and share no code with the engine they check beyond the distance
//! callback a test passes in. [`cluster`] and [`indexed_dbscan`] are the
//! other side: the product path, run the way the tests compare it.

#![allow(dead_code)]

pub mod distance;

use kizzle_cluster::{
    dbscan_with_neighborhoods, Clustering, CorpusEngine, DbscanParams, DbscanResult,
    DistributedConfig, DistributedStats, Label, NeighborIndex, SampleId,
};

/// One-shot clustering through the product engine: the day as one batch
/// into a fresh [`CorpusEngine`].
pub fn cluster<S: AsRef<[u8]>>(
    config: DistributedConfig,
    samples: &[S],
) -> (Clustering, DistributedStats) {
    let mut engine = CorpusEngine::new(config);
    let ids = engine.add_batch(0, samples);
    engine.cluster_day(&ids)
}

/// DBSCAN over the product's neighbor index, as the engine runs it for a
/// single partition: every eps-ball from [`NeighborIndex`], labels from
/// [`dbscan_with_neighborhoods`].
pub fn indexed_dbscan<S: AsRef<[u8]> + Sync>(samples: &[S], params: &DbscanParams) -> DbscanResult {
    let index = NeighborIndex::build(samples, params.eps);
    let neighborhoods: Vec<Vec<usize>> = (0..samples.len())
        .map(|i| {
            let id = SampleId::new(u32::try_from(i).expect("test corpus fits u32"));
            index
                .neighbors(id)
                .iter()
                .map(|n| n.raw() as usize)
                .collect()
        })
        .collect();
    dbscan_with_neighborhoods(&neighborhoods, &vec![1; samples.len()], params)
}

/// Textbook DBSCAN with an explicit expansion queue, calling `distance`
/// for every pair a neighborhood query visits: one label per sample,
/// clusters numbered in discovery order.
pub fn dbscan<T>(
    samples: &[T],
    params: &DbscanParams,
    distance: impl Fn(&T, &T) -> f64,
) -> Vec<Label> {
    let n = samples.len();
    let mut labels = vec![Label::Unvisited; n];
    let mut cluster_count = 0usize;
    let neighbors_of = |idx: usize| -> Vec<usize> {
        (0..n)
            .filter(|&j| j != idx && distance(&samples[idx], &samples[j]) <= params.eps)
            .collect()
    };
    for start in 0..n {
        if labels[start] != Label::Unvisited {
            continue;
        }
        let neighbors = neighbors_of(start);
        // +1: the point itself counts toward density.
        if neighbors.len() + 1 < params.min_points {
            labels[start] = Label::Noise;
            continue;
        }
        let cluster_id = cluster_count;
        cluster_count += 1;
        labels[start] = Label::Cluster(cluster_id);
        let mut queue: std::collections::VecDeque<usize> = neighbors.into();
        while let Some(p) = queue.pop_front() {
            match labels[p] {
                Label::Cluster(_) => continue,
                Label::Noise => {
                    // Border point: reachable from a core point, adopt it.
                    labels[p] = Label::Cluster(cluster_id);
                    continue;
                }
                Label::Unvisited => {
                    labels[p] = Label::Cluster(cluster_id);
                    let p_neighbors = neighbors_of(p);
                    if p_neighbors.len() + 1 >= params.min_points {
                        queue.extend(
                            p_neighbors
                                .into_iter()
                                .filter(|&q| matches!(labels[q], Label::Unvisited | Label::Noise)),
                        );
                    }
                }
            }
        }
    }
    labels
}

/// The seed's partitioned clustering: content-keyed partitions (`keys[i]`
/// is the [`partition_key`](kizzle_cluster::partition_key) of
/// `samples[i]`), naive [`dbscan`] inside each, then the all-pairs
/// reduce — partition clusters whose medoids lie within `eps` merge, noise
/// within `eps` of a merged medoid joins the first such cluster — and
/// exhaustive final prototypes. The engine must reproduce it exactly.
///
/// # Panics
///
/// Panics if `keys` and `samples` differ in length.
pub fn cluster_keyed<T>(
    samples: &[T],
    keys: &[u64],
    config: &DistributedConfig,
    distance: impl Fn(&T, &T) -> f64,
) -> Clustering {
    assert_eq!(samples.len(), keys.len(), "one key per sample");
    if samples.is_empty() {
        return Clustering::default();
    }
    let eps = config.dbscan.eps;

    // Map: partition-local clusters (ascending global members) and noise.
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    let mut noise: Vec<usize> = Vec::new();
    for part in partition_by_key(keys, config.partitions) {
        let local: Vec<&T> = part.iter().map(|&i| &samples[i]).collect();
        let labels = dbscan(&local, &config.dbscan, |a, b| distance(a, b));
        let count = labels
            .iter()
            .filter_map(|l| match l {
                Label::Cluster(c) => Some(c + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let first = clusters.len();
        clusters.resize(first + count, Vec::new());
        for (local_index, label) in labels.iter().enumerate() {
            match *label {
                Label::Cluster(c) => clusters[first + c].push(part[local_index]),
                _ => noise.push(part[local_index]),
            }
        }
    }

    // Reconcile: merge clusters whose medoids are within eps.
    let medoids = |lists: &[Vec<usize>]| -> Vec<usize> {
        serial_allpairs(lists, samples, 32, &distance)
            .into_iter()
            .map(|m| m.expect("clusters are non-empty"))
            .collect()
    };
    let prototypes = medoids(&clusters);
    let mut root: Vec<usize> = (0..clusters.len()).collect();
    fn find(root: &mut [usize], x: usize) -> usize {
        if root[x] != x {
            root[x] = find(root, root[x]);
        }
        root[x]
    }
    for i in 0..prototypes.len() {
        for j in i + 1..prototypes.len() {
            if distance(&samples[prototypes[i]], &samples[prototypes[j]]) <= eps {
                let (ri, rj) = (find(&mut root, i), find(&mut root, j));
                root[ri] = rj;
            }
        }
    }
    let mut merged: Vec<Vec<usize>> = Vec::new();
    let mut slot_of_root = std::collections::HashMap::new();
    for (i, members) in clusters.iter().enumerate() {
        let r = find(&mut root, i);
        let slot = *slot_of_root.entry(r).or_insert_with(|| {
            merged.push(Vec::new());
            merged.len() - 1
        });
        merged[slot].extend(members);
    }
    for m in &mut merged {
        m.sort_unstable();
    }
    merged.sort_by_key(|m| m[0]);

    // Adopt: each noise sample joins the first merged cluster whose medoid
    // is within eps.
    let merged_prototypes = medoids(&merged);
    let mut remaining = Vec::new();
    for idx in noise {
        match merged_prototypes
            .iter()
            .position(|&p| distance(&samples[idx], &samples[p]) <= eps)
        {
            Some(c) => merged[c].push(idx),
            None => remaining.push(idx),
        }
    }
    for m in &mut merged {
        m.sort_unstable();
    }
    remaining.sort_unstable();
    let mut clustering = Clustering::from_members(merged, remaining, samples.len());
    compute_prototypes(&mut clustering, samples, &distance);
    clustering
}

/// [`cluster_keyed`] as the seed ran it on a day of class strings: each
/// keyed by [`partition_key`](kizzle_cluster::partition_key), compared by
/// the paper's bounded normalized distance at the configured `eps` (1.0
/// beyond it).
pub fn cluster_seed<S: AsRef<[u8]>>(config: &DistributedConfig, samples: &[S]) -> Clustering {
    let keys: Vec<u64> = samples
        .iter()
        .map(|s| kizzle_cluster::partition_key(s.as_ref()))
        .collect();
    let eps = config.dbscan.eps;
    cluster_keyed(samples, &keys, config, |a: &S, b: &S| {
        kizzle_cluster::normalized_edit_distance_bounded(a.as_ref(), b.as_ref(), eps).unwrap_or(1.0)
    })
}

/// The seed's content-stable partition assignment at mix seed 0: sample
/// `i` lands in partition `mix(keys[i]) % partitions` (a splitmix64-style
/// finalizer), members ascending, empty partitions kept.
pub fn partition_by_key(keys: &[u64], partitions: usize) -> Vec<Vec<usize>> {
    let mut parts: Vec<Vec<usize>> = vec![Vec::new(); partitions];
    for (i, &key) in keys.iter().enumerate() {
        let mut h = key;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        parts[(h % partitions as u64) as usize].push(i);
    }
    parts
}

/// Final prototypes: every cluster's exhaustive medoid at the product's
/// sample cap of 64.
pub fn compute_prototypes<T>(
    clustering: &mut Clustering,
    samples: &[T],
    distance: impl Fn(&T, &T) -> f64,
) {
    let members: Vec<Vec<usize>> = clustering
        .clusters
        .iter()
        .map(|c| c.members.clone())
        .collect();
    let prototypes = serial_allpairs(&members, samples, 64, distance);
    for (cluster, prototype) in clustering.clusters.iter_mut().zip(prototypes) {
        cluster.prototype = prototype;
    }
}

/// The exhaustive medoid pass: serial over clusters, capped all-pairs per
/// cluster with every row summed to the end (no early abandon, no memo) —
/// what the shipped passes must agree with. `sample_cap` subsamples with
/// the product's stride rule (every `⌊len / cap⌋`-th member); ties
/// resolve to the earliest pool member.
pub fn serial_allpairs<T>(
    members_per_cluster: &[Vec<usize>],
    samples: &[T],
    sample_cap: usize,
    distance: impl Fn(&T, &T) -> f64,
) -> Vec<Option<usize>> {
    members_per_cluster
        .iter()
        .map(|members| {
            let pool: Vec<usize> = if members.len() > sample_cap {
                let step = members.len() / sample_cap;
                members.iter().step_by(step.max(1)).copied().collect()
            } else {
                members.clone()
            };
            let mut best = *pool.first()?;
            let mut best_sum = f64::INFINITY;
            for &cand in &pool {
                let sum: f64 = pool
                    .iter()
                    .filter(|&&other| other != cand)
                    .map(|&other| distance(&samples[cand], &samples[other]))
                    .sum();
                if sum < best_sum {
                    best_sum = sum;
                    best = cand;
                }
            }
            Some(best)
        })
        .collect()
}
