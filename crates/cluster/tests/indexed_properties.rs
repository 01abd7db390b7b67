//! Property-based equivalence tests for the indexed clustering engine.
//!
//! The whole point of the `NeighborIndex` + `CorpusEngine` stack is that
//! it is *only* faster: for any corpus it must reproduce the seed's naive
//! answers (`tests/common/`) exactly. These properties pin that down at
//! every layer — distance kernel, neighbor queries, single-machine DBSCAN,
//! and the partitioned engine.

mod common;

use common::distance::{edit_distance, edit_distance_bounded};
use kizzle_cluster::distance::{
    edit_distance_bitparallel_bounded, normalized_edit_distance_bounded, BitParallelPattern,
};
use kizzle_cluster::{DbscanParams, DistributedConfig, Label, NeighborIndex, SampleId};
use proptest::prelude::*;

fn token_string() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..6, 0..80)
}

/// Longer strings than `token_string`, crossing the 64-symbol block
/// boundary of the bit-parallel kernel.
fn long_token_string() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..6, 0..200)
}

/// A corpus with deliberate near-duplicate structure, so clusters actually
/// form instead of everything being noise.
fn clustered_corpus() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(token_string(), 0..24)
}

/// The partition of `0..n` induced by DBSCAN labels: for every pair of
/// samples, whether they share a cluster. Comparing partitions (rather
/// than raw labels) is what "equivalent up to cluster-id renaming" means.
fn co_membership(labels: &[Label]) -> Vec<Vec<bool>> {
    let n = labels.len();
    let mut same = vec![vec![false; n]; n];
    for i in 0..n {
        for j in 0..n {
            same[i][j] = match (labels[i], labels[j]) {
                (Label::Cluster(a), Label::Cluster(b)) => a == b,
                _ => false,
            };
        }
    }
    same
}

proptest! {
    /// The bit-parallel bounded distance agrees with the exact distance
    /// everywhere within the bound and only reports None beyond it —
    /// the same contract `edit_distance_bounded` has.
    #[test]
    fn bitparallel_distance_correct(
        a in long_token_string(),
        b in long_token_string(),
        max in 0usize..60,
    ) {
        let exact = edit_distance(&a, &b);
        match edit_distance_bitparallel_bounded(&a, &b, max) {
            Some(d) => {
                prop_assert_eq!(d, exact);
                prop_assert!(d <= max);
            }
            None => prop_assert!(exact > max),
        }
        // And it agrees with the banded reference implementation verdict.
        prop_assert_eq!(
            edit_distance_bitparallel_bounded(&a, &b, max),
            edit_distance_bounded(&a, &b, max)
        );
    }

    /// A reused pattern answers like the one-off helper.
    #[test]
    fn pattern_reuse_is_sound(
        query in long_token_string(),
        texts in prop::collection::vec(long_token_string(), 0..8),
        max in 0usize..40,
    ) {
        let pattern = BitParallelPattern::new(&query);
        for text in &texts {
            let expected = if query.len() < text.len() {
                edit_distance_bitparallel_bounded(&query, text, max)
            } else {
                // The helper puts the shorter string as the pattern; the
                // distance is symmetric so both must agree regardless.
                edit_distance_bitparallel_bounded(text, &query, max)
            };
            prop_assert_eq!(pattern.distance_bounded(text, max), expected);
        }
    }

    /// Index-driven neighbor queries return exactly the brute-force
    /// eps-neighborhood, for the paper's eps and a coarser one.
    #[test]
    fn index_neighbors_match_brute_force(samples in clustered_corpus()) {
        for eps in [0.10f64, 0.25] {
            let index = NeighborIndex::build(&samples, eps);
            for i in 0..samples.len() {
                let brute: Vec<usize> = (0..samples.len())
                    .filter(|&j| {
                        j != i
                            && normalized_edit_distance_bounded(&samples[i], &samples[j], eps)
                                .unwrap_or(1.0)
                                <= eps
                    })
                    .collect();
                let got: Vec<usize> = index
                    .neighbors(SampleId::new(i as u32))
                    .into_iter()
                    .map(|id| id.raw() as usize)
                    .collect();
                prop_assert_eq!(got, brute, "eps={} i={}", eps, i);
            }
        }
    }

    /// DBSCAN over the index's eps-balls is label-identical to the naive
    /// `dbscan` with the bounded distance — not just equivalent up to
    /// renaming.
    #[test]
    fn indexed_dbscan_identical_to_naive(
        samples in clustered_corpus(),
        min_points in 1usize..5,
    ) {
        let params = DbscanParams::new(0.10, min_points);
        let naive = common::dbscan(&samples, &params, |a, b| {
            normalized_edit_distance_bounded(a, b, params.eps).unwrap_or(1.0)
        });
        let indexed = common::indexed_dbscan(&samples, &params);
        prop_assert_eq!(indexed.labels(), &naive[..]);

        // Belt and braces: the induced partitions agree too (this is the
        // "up to cluster-id renaming" formulation, which identical labels
        // imply).
        prop_assert_eq!(co_membership(indexed.labels()), co_membership(&naive));
    }

    /// The engine (indexed per-partition DBSCAN, index-routed reduce)
    /// produces the same clustering as the seed's all-pairs driver, for
    /// any partition count, given the same content-keyed partition
    /// assignment.
    #[test]
    fn distributed_indexed_matches_generic(
        samples in prop::collection::vec(token_string(), 0..20),
        partitions in 1usize..5,
    ) {
        let cfg = DistributedConfig::new(partitions, DbscanParams::new(0.10, 2));
        let (indexed, stats) = common::cluster(cfg, &samples);
        prop_assert_eq!(&indexed, &common::cluster_seed(&cfg, &samples));
        prop_assert!(indexed.is_partition());
        // Every distinct sample's neighborhood is computed exactly once.
        let mut distinct = samples.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(stats.index.queries, distinct.len());
    }
}

/// Three families of kit-like variants, an outlier and an empty string,
/// at several partition counts: the engine reproduces the seed's driver.
#[test]
fn indexed_path_matches_generic_path() {
    let bases: [Vec<u8>; 3] = [
        (0..120).map(|i| (i % 5) as u8).collect(),
        (0..150).map(|i| ((i * 3) % 6) as u8).collect(),
        (0..90).map(|i| ((i * 7 + 1) % 4) as u8).collect(),
    ];
    let mut samples: Vec<Vec<u8>> = Vec::new();
    for base in &bases {
        for v in 0..7 {
            // Perturb < 5% of positions so members stay within eps = 0.1.
            let mut s = base.clone();
            for k in 0..(s.len() / 30) {
                let pos = (v * 13 + k * 17) % s.len();
                s[pos] = (s[pos] + 1) % 6;
            }
            samples.push(s);
        }
    }
    samples.push((0..40).map(|i| (i % 3) as u8 + 6).collect());
    samples.push(Vec::new());
    for partitions in [1, 3, 5] {
        let cfg = DistributedConfig::new(partitions, DbscanParams::new(0.10, 2));
        let (indexed, _) = common::cluster(cfg, &samples);
        assert_eq!(
            indexed,
            common::cluster_seed(&cfg, &samples),
            "partitions = {partitions}"
        );
    }
}
