//! Property-based tests for the content-keyed seal path.
//!
//! The seal's pairwise work is keyed by distinct content: one bit-parallel
//! kernel behind every bounded distance, a per-seal pair memo under the
//! three medoid passes, and a multiplicity-aware DBSCAN over distinct
//! class-strings. Each is *only* cheaper — these properties hold them to
//! the scalar, exhaustive and position-level oracles they replaced.

mod common;

use common::distance::edit_distance_bounded;
use common::serial_allpairs;
use kizzle_cluster::distance::normalized_edit_distance_bounded;
use kizzle_cluster::{dbscan_with_neighborhoods, DbscanParams, DistributedConfig};
use proptest::prelude::*;

/// `normalized_edit_distance_bounded` as it was before it ran the
/// bit-parallel kernel: the same length filter and `floor(eps · max_len)`
/// budget over the scalar banded DP.
fn scalar_oracle(a: &[u8], b: &[u8], eps: f64) -> Option<f64> {
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return Some(0.0);
    }
    if a.len().abs_diff(b.len()) as f64 / max_len as f64 > eps {
        return None;
    }
    let max_edits = (eps * max_len as f64).floor() as usize;
    edit_distance_bounded(a, b, max_edits).map(|d| d as f64 / max_len as f64)
}

/// Both argument orders against the oracle, compared as bit patterns: the
/// pair memo stores one value per unordered pair, so "close" is not enough.
fn assert_matches_oracle(a: &[u8], b: &[u8], eps: f64) {
    let want = scalar_oracle(a, b, eps).map(f64::to_bits);
    let ab = normalized_edit_distance_bounded(a, b, eps).map(f64::to_bits);
    let ba = normalized_edit_distance_bounded(b, a, eps).map(f64::to_bits);
    assert_eq!(ab, want, "a={a:?} b={b:?} eps={eps}");
    assert_eq!(ba, want, "swapped: a={a:?} b={b:?} eps={eps}");
}

/// Apply `edits` pseudo-random single-symbol edits (substitute, insert,
/// delete) to `base`, driven by `salt`.
fn mutate(base: &[u8], edits: usize, salt: u64) -> Vec<u8> {
    let mut out = base.to_vec();
    let mut state = salt | 1;
    for _ in 0..edits {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let pick = (state >> 33) as usize;
        let sym = (pick % 6) as u8;
        match (pick / 7) % 3 {
            0 if !out.is_empty() => {
                let at = pick % out.len();
                out[at] = sym;
            }
            1 if !out.is_empty() => {
                out.remove(pick % out.len());
            }
            _ => out.insert(pick % (out.len() + 1), sym),
        }
    }
    out
}

/// A day of `families` base strings, each present as a few near variants,
/// each variant repeated `1..=max_copies` times, interleaved so duplicates
/// are not adjacent. Variants of one base tie on many pair distances.
fn duplicate_heavy_day(
    families: usize,
    variants: usize,
    max_copies: usize,
    salt: u64,
) -> Vec<Vec<u8>> {
    let mut distinct: Vec<(Vec<u8>, usize)> = Vec::new();
    for f in 0..families {
        let len = 60 + 37 * f;
        let base: Vec<u8> = (0..len).map(|i| ((i * (f + 2) + f) % 6) as u8).collect();
        for v in 0..variants {
            let variant = mutate(&base, v % 4, salt ^ ((f * 131 + v) as u64));
            let copies = 1 + (salt as usize + f * 7 + v * 3) % max_copies;
            distinct.push((variant, copies));
        }
    }
    let mut day = Vec::new();
    let mut round = 0;
    while distinct.iter().any(|(_, copies)| *copies > round) {
        for (variant, copies) in &distinct {
            if *copies > round {
                day.push(variant.clone());
            }
        }
        round += 1;
    }
    day
}

/// A noise page within eps of two merged prototypes joins the *first*
/// merged cluster, as the seed's scan over merged order does. The day is
/// two copies each of `a` and `b` and one `page`: `a` and `b` substitute
/// eight symbols of the page in disjoint runs, so each is within eps of
/// the page and not of the other. Over a range of salts the three strings
/// land in three different partitions at 3 and at 4 partitions; there the
/// page is noise in its own partition and only the reduce can adopt it.
#[test]
fn noise_near_two_merged_prototypes_joins_the_first() {
    let eps = 0.10;
    let within =
        |x: &[u8], y: &[u8]| normalized_edit_distance_bounded(x, y, eps).is_some_and(|d| d <= eps);
    // Partition counts at which the page was adopted, one entry per salt.
    let mut adopted_at: Vec<usize> = Vec::new();
    for salt in 0..64u64 {
        let mut state = salt;
        let page: Vec<u8> = (0..100)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((state >> 33) % 6) as u8
            })
            .collect();
        let substituted = |from: usize| {
            let mut s = page.clone();
            for sym in &mut s[from..from + 8] {
                *sym = (*sym + 3) % 6;
            }
            s
        };
        let (a, b) = (substituted(10), substituted(60));
        if !within(&a, &page) || !within(&b, &page) || within(&a, &b) {
            continue;
        }
        let day = vec![a.clone(), b.clone(), a.clone(), b.clone(), page.clone()];
        let keys: Vec<u64> = [&a, &b, &page]
            .iter()
            .map(|s| kizzle_cluster::partition_key(s))
            .collect();
        for partitions in 2..=4 {
            let cfg = DistributedConfig::new(partitions, DbscanParams::new(eps, 2));
            let (sealed, _) = common::cluster(cfg, &day);
            assert_eq!(
                sealed,
                common::cluster_seed(&cfg, &day),
                "salt {salt}, {partitions} partitions"
            );
            let apart = common::partition_by_key(&keys, partitions)
                .iter()
                .all(|part| part.len() <= 1);
            if apart {
                assert_eq!(sealed.cluster_count(), 2, "salt {salt}");
                assert!(sealed.clusters[0].members.contains(&4), "salt {salt}");
                adopted_at.push(partitions);
            }
        }
    }
    assert!(
        adopted_at.contains(&3) && adopted_at.contains(&4),
        "adoptions at partition counts {adopted_at:?}"
    );
}

#[test]
fn bounded_distance_matches_scalar_oracle_at_block_and_budget_boundaries() {
    // Lengths on both sides of the kernel's 64-symbol blocks and at the
    // 900-token cap; `k` substitutions by a symbol the base lacks put the
    // distance at exactly `k`, one below, at and one above the budget.
    for len in [63usize, 64, 65, 128, 900] {
        let base: Vec<u8> = (0..len).map(|i| (i % 5) as u8).collect();
        for eps in [0.05, 0.10, 0.25] {
            let budget = (eps * len as f64).floor() as usize;
            for k in [budget.saturating_sub(1), budget, budget + 1] {
                let mut other = base.clone();
                for slot in other.iter_mut().step_by(len / (k + 1)).take(k) {
                    *slot = 9;
                }
                let want = (k <= budget).then(|| k as f64 / len as f64);
                assert_eq!(
                    normalized_edit_distance_bounded(&base, &other, eps),
                    want,
                    "len={len} eps={eps} k={k}"
                );
                assert_matches_oracle(&base, &other, eps);
            }
            // Length-only differences straddling the length filter.
            for shorter in [len - budget.min(len), len - (budget + 1).min(len)] {
                assert_matches_oracle(&base, &base[..shorter], eps);
            }
        }
        assert_matches_oracle(&base, &[], 0.10);
    }
    assert_matches_oracle(&[], &[], 0.10);
    assert_matches_oracle(&[], &[], 0.0);
}

proptest! {
    /// Arbitrary pairs and thresholds: the Myers-backed bounded distance is
    /// the scalar-band oracle bit for bit, in both argument orders.
    #[test]
    fn bounded_distance_matches_scalar_oracle(
        a in prop::collection::vec(0u8..6, 0..200),
        b in prop::collection::vec(0u8..6, 0..200),
        eps_permille in 0u32..600,
    ) {
        assert_matches_oracle(&a, &b, f64::from(eps_permille) / 1000.0);
    }

    /// Near pairs — the ones the clustering actually accepts — around the
    /// edit budget, at lengths that cross block boundaries.
    #[test]
    fn bounded_distance_matches_scalar_oracle_on_near_pairs(
        base in prop::collection::vec(0u8..6, 0..260),
        edits in 0usize..40,
        salt in any::<u64>(),
        eps_permille in 0u32..300,
    ) {
        let other = mutate(&base, edits, salt);
        assert_matches_oracle(&base, &other, f64::from(eps_permille) / 1000.0);
    }

    /// The shipped early-abandoned, memoized prototype pass picks the
    /// exhaustive scan's medoid on a duplicate-heavy cluster of every
    /// family at once, where many candidates tie: at `eps = 1` every pair
    /// is within reach, so the whole day is one cluster and every distance
    /// is exact.
    #[test]
    fn compute_prototypes_match_exhaustive_oracle(
        families in 1usize..4,
        variants in 1usize..6,
        max_copies in 1usize..40,
        salt in any::<u64>(),
    ) {
        let day = duplicate_heavy_day(families, variants, max_copies, salt);
        let cfg = DistributedConfig::new(1, DbscanParams::new(1.0, 1));
        let (clustering, _) = common::cluster(cfg, &day);
        let everything: Vec<usize> = (0..day.len()).collect();
        prop_assert_eq!(&clustering.clusters[0].members, &everything);
        let want = serial_allpairs(&[everything], &day, 64, |a: &Vec<u8>, b: &Vec<u8>| {
            normalized_edit_distance_bounded(a, b, 1.0).unwrap_or(1.0)
        });
        prop_assert_eq!(clustering.clusters[0].prototype, want[0]);
    }

    /// The memoized seal (content-keyed medoid passes, multiset DBSCAN) is
    /// the unmemoized position-level dataflow: same clustering as the
    /// seed's all-pairs driver over the same partition keys — which runs
    /// every medoid pass without a memo — and final prototypes equal to
    /// the exhaustive all-pairs oracle.
    #[test]
    fn memoized_seal_matches_unmemoized_dataflow_and_exhaustive_medoids(
        families in 1usize..4,
        variants in 1usize..6,
        max_copies in 1usize..40,
        partitions in 1usize..5,
        min_points in 1usize..6,
        salt in any::<u64>(),
    ) {
        let mut day = duplicate_heavy_day(families, variants, max_copies, salt);
        // A far outlier and an empty string ride along as noise candidates.
        day.push(vec![7; 45]);
        day.push(Vec::new());
        let cfg = DistributedConfig::new(partitions, DbscanParams::new(0.10, min_points));
        let distance = |a: &Vec<u8>, b: &Vec<u8>| {
            normalized_edit_distance_bounded(a, b, 0.10).unwrap_or(1.0)
        };

        let (sealed, stats) = common::cluster(cfg, &day);
        prop_assert_eq!(&sealed, &common::cluster_seed(&cfg, &day));

        let members: Vec<Vec<usize>> = sealed.clusters.iter().map(|c| c.members.clone()).collect();
        let want = serial_allpairs(&members, &day, 64, distance);
        let got: Vec<Option<usize>> = sealed.clusters.iter().map(|c| c.prototype).collect();
        prop_assert_eq!(got, want);

        // The memo bounds the kernel work by the distinct content: one
        // call per unordered pair of distinct strings at most, whatever
        // the multiplicities — and the counts repeat exactly.
        let mut distinct: Vec<&Vec<u8>> = day.iter().collect();
        distinct.sort_unstable();
        distinct.dedup();
        let pairs = distinct.len() * (distinct.len() - 1) / 2;
        prop_assert!(
            stats.medoid_distance_calls <= pairs,
            "{} calls for {} distinct pairs", stats.medoid_distance_calls, pairs
        );
        let (_, again) = common::cluster(cfg, &day);
        prop_assert_eq!(stats.medoid_distance_calls, again.medoid_distance_calls);
        prop_assert_eq!(stats.medoid_memo_hits, again.medoid_memo_hits);
    }

    /// DBSCAN over distinct points with multiplicities labels every
    /// position like position-level DBSCAN over the expanded day — random
    /// multiplicities, chains and border points included.
    #[test]
    fn weighted_dbscan_matches_position_level(
        // Points on a line; eps = 2 makes chains, gaps and border points.
        day in prop::collection::vec(0i32..40, 0..60),
        min_points in 1usize..7,
    ) {
        let params = DbscanParams::new(2.0, min_points);
        let position_level = common::dbscan(&day, &params, |a, b| f64::from((a - b).abs()));

        // Distinct values in first-position order, with multiplicities.
        let mut unique: Vec<i32> = Vec::new();
        let mut weights: Vec<usize> = Vec::new();
        let content: Vec<usize> = day
            .iter()
            .map(|v| {
                let u = unique.iter().position(|x| x == v).unwrap_or_else(|| {
                    unique.push(*v);
                    weights.push(0);
                    unique.len() - 1
                });
                weights[u] += 1;
                u
            })
            .collect();
        let balls: Vec<Vec<usize>> = (0..unique.len())
            .map(|u| {
                (0..unique.len())
                    .filter(|&v| v != u && (unique[u] - unique[v]).abs() <= 2)
                    .collect()
            })
            .collect();
        let weighted = dbscan_with_neighborhoods(&balls, &weights, &params);

        let expanded: Vec<_> = content.iter().map(|&u| weighted.labels()[u]).collect();
        prop_assert_eq!(expanded, position_level);
    }
}
