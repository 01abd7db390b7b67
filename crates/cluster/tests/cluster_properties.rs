//! Property-based tests for edit distance and clustering invariants.

mod common;

use common::distance::{edit_distance, edit_distance_bounded, normalized_edit_distance};
use kizzle_cluster::distance::{
    normalized_edit_distance_bounded, BitParallelPattern, BitParallelScratch,
};
use kizzle_cluster::{DbscanParams, DistributedConfig, Label};
use proptest::prelude::*;

fn token_string() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..6, 0..80)
}

/// Core lengths on both sides of every path `distance_bounded_in` takes:
/// no core, one symbol, the single-word kernel's last two sizes, the block
/// kernel's first, and a core of several blocks.
const CORE_LENS: [usize; 6] = [0, 1, 63, 64, 65, 200];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// `prefix · core_a · suffix` against `prefix · core_b · suffix`: one
    /// reused pattern answers exactly like the scalar oracle at every
    /// budget, whatever affix each text shares with it — equal strings,
    /// pure insertions and one-sided cores included — and the normalized
    /// form is bit-equal whichever side is the pattern.
    #[test]
    fn kernel_follows_the_oracle_over_shared_affixes(
        pattern in prop::collection::vec(0u8..6, 0..2001),
        prefix_lens in prop::collection::vec(0usize..901, 4),
        core_a_lens in prop::collection::vec(0usize..6, 4),
        core_b_lens in prop::collection::vec(0usize..6, 4),
        cores in prop::collection::vec(prop::collection::vec(0u8..6, 200), 4),
    ) {
        let kernel = BitParallelPattern::new(&pattern);
        let mut scratch = BitParallelScratch::default();
        for k in 0..4 {
            let core_a = CORE_LENS[core_a_lens[k]].min(pattern.len());
            let core_b = CORE_LENS[core_b_lens[k]];
            let prefix = prefix_lens[k].min(pattern.len() - core_a);
            let mut text = pattern[..prefix].to_vec();
            text.extend_from_slice(&cores[k][..core_b]);
            text.extend_from_slice(&pattern[prefix + core_a..]);

            let d = edit_distance_bounded(&pattern, &text, core_a.max(core_b))
                .expect("no further apart than the longer core");
            for max in 0..=d + 2 {
                prop_assert_eq!(
                    kernel.distance_bounded_in(&text, max, &mut scratch),
                    edit_distance_bounded(&pattern, &text, max),
                    "prefix {} core_a {} core_b {} max {}",
                    prefix, core_a, core_b, max
                );
            }
            let reversed = BitParallelPattern::new(&text);
            for eps in [0.10, 0.5] {
                prop_assert_eq!(
                    kernel
                        .normalized_distance_bounded_in(&text, eps, &mut scratch)
                        .map(f64::to_bits),
                    reversed
                        .normalized_distance_bounded_in(&pattern, eps, &mut scratch)
                        .map(f64::to_bits)
                );
            }
        }
    }
}

proptest! {
    /// Edit distance is a metric: identity, symmetry, triangle inequality.
    #[test]
    fn edit_distance_is_a_metric(a in token_string(), b in token_string(), c in token_string()) {
        prop_assert_eq!(edit_distance(&a, &a), 0);
        prop_assert_eq!(edit_distance(&a, &b), edit_distance(&b, &a));
        prop_assert!(edit_distance(&a, &c) <= edit_distance(&a, &b) + edit_distance(&b, &c));
    }

    /// Edit distance is bounded by the longer length and at least the length
    /// difference.
    #[test]
    fn edit_distance_bounds(a in token_string(), b in token_string()) {
        let d = edit_distance(&a, &b);
        prop_assert!(d <= a.len().max(b.len()));
        prop_assert!(d >= a.len().abs_diff(b.len()));
    }

    /// The bounded variant agrees with the exact distance whenever it
    /// returns a value, and only returns None when the distance exceeds the
    /// bound.
    #[test]
    fn bounded_edit_distance_correct(a in token_string(), b in token_string(), max in 0usize..40) {
        let exact = edit_distance(&a, &b);
        match edit_distance_bounded(&a, &b, max) {
            Some(d) => {
                prop_assert_eq!(d, exact);
                prop_assert!(d <= max);
            }
            None => prop_assert!(exact > max),
        }
    }

    /// Normalized distance is within [0,1] and its bounded variant agrees.
    #[test]
    fn normalized_distance_consistent(a in token_string(), b in token_string()) {
        let d = normalized_edit_distance(&a, &b);
        prop_assert!((0.0..=1.0).contains(&d));
        match normalized_edit_distance_bounded(&a, &b, 0.25) {
            Some(bd) => prop_assert!((bd - d).abs() < 1e-12),
            None => prop_assert!(d > 0.25 - 1e-12),
        }
    }

    /// DBSCAN assigns every sample exactly one label, and the clusters it
    /// numbers are dense and non-empty: a partition of the input.
    #[test]
    fn dbscan_produces_a_partition(samples in prop::collection::vec(token_string(), 0..25)) {
        let params = DbscanParams::new(0.10, 2);
        let result = common::indexed_dbscan(&samples, &params);
        prop_assert_eq!(result.labels().len(), samples.len());
        prop_assert!(!result.labels().contains(&Label::Unvisited));
        let members: Vec<Vec<usize>> =
            (0..result.cluster_count()).map(|c| result.members(c)).collect();
        prop_assert!(members.iter().all(|m| !m.is_empty()));
        prop_assert_eq!(
            members.iter().map(Vec::len).sum::<usize>()
                + result.labels().iter().filter(|l| **l == Label::Noise).count(),
            samples.len()
        );
    }

    /// Distributed clustering always yields a partition of the input and is
    /// deterministic, regardless of partition count.
    #[test]
    fn distributed_clustering_partition_and_deterministic(
        samples in prop::collection::vec(token_string(), 0..20),
        partitions in 1usize..5,
    ) {
        let cfg = DistributedConfig::new(partitions, DbscanParams::new(0.10, 2));
        let (a, _) = common::cluster(cfg, &samples);
        prop_assert!(a.is_partition());
        let (b, _) = common::cluster(cfg, &samples);
        prop_assert_eq!(a, b);
    }
}
