//! Cluster bookkeeping: members, prototypes and summary statistics.
//!
//! After DBSCAN assigns labels, the rest of the Kizzle pipeline works with
//! *clusters*: it picks a prototype (medoid) per cluster, unpacks and labels
//! the prototype, and generates one signature per malicious cluster.

/// A single cluster of sample indices.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Cluster {
    /// Indices (into the original sample collection) of the members.
    pub members: Vec<usize>,
    /// Index of the medoid prototype, if it has been computed.
    pub prototype: Option<usize>,
}

impl Cluster {
    /// Create a cluster from member indices.
    #[must_use]
    pub fn new(members: Vec<usize>) -> Self {
        Cluster {
            members,
            prototype: None,
        }
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the cluster has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// The sample cap of the final per-cluster prototype pass.
pub(crate) const PROTOTYPE_SAMPLE_CAP: usize = 64;

/// The members a medoid scan ranges over; see [`medoid_of`] for the
/// (pinned) subsampling rule.
fn medoid_pool(members: &[usize], sample_cap: usize) -> Vec<usize> {
    if members.len() > sample_cap && sample_cap > 0 {
        let step = members.len() / sample_cap;
        members.iter().step_by(step.max(1)).copied().collect()
    } else {
        members.to_vec()
    }
}

/// The medoid of `members`: the member minimizing the sum of distances to
/// all other members. `distance(cand, other)` takes sample indices and is
/// called row by row — every `other` of one `cand` before the next `cand`
/// — so a stateful metric can keep per-candidate state (a preprocessed
/// pattern) for the length of a row.
///
/// For clusters larger than `sample_cap` members, the medoid is computed
/// over an evenly-spaced subsample to bound the quadratic cost; this is
/// the same engineering concession a production deployment makes, and
/// the medoid of a tight cluster is insensitive to it. The subsample
/// takes every `⌊len / sample_cap⌋`-th member, so it holds **fewer than
/// `2 · sample_cap`** members, not at most `sample_cap`: a cluster of
/// `2 · sample_cap − 1` members has stride 1 and is scanned whole (127
/// members at cap 64 → a pool of 127). The selection is pinned — the
/// medoids feed the signature digests the paper-claims tests hold fixed.
///
/// Candidates are **early-abandoned**, which requires `distance` to be
/// **non-negative** (every in-repo distance is in `[0, 1]`): a
/// candidate whose partial sum already reaches the best full sum cannot
/// win, and the rest of its row is skipped. A signed "distance" breaks
/// that pruning argument — a negative later term could bring the full
/// sum back under — and may silently select a different medoid than the
/// exhaustive scan would. For non-negative distances the selected
/// medoid is identical to the exhaustive scan (ties resolve to the
/// earliest pool member either way), but on tight clusters — where one
/// good candidate appears early — most rows stop after a few terms.
pub(crate) fn medoid_of(
    members: &[usize],
    sample_cap: usize,
    mut distance: impl FnMut(usize, usize) -> f64,
) -> Option<usize> {
    if members.len() <= 1 {
        return members.first().copied();
    }
    let pool = medoid_pool(members, sample_cap);
    let mut best = pool[0];
    let mut best_sum = f64::INFINITY;
    for &cand in &pool {
        let mut sum = 0.0f64;
        for &other in &pool {
            if other == cand {
                continue;
            }
            sum += distance(cand, other);
            if sum >= best_sum {
                // A partial sum at or above the incumbent can only grow;
                // the full sum would lose the strict `<` below too.
                break;
            }
        }
        if sum < best_sum {
            best_sum = sum;
            best = cand;
        }
    }
    Some(best)
}

/// A full clustering of a sample collection.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Clustering {
    /// The clusters, in discovery order.
    pub clusters: Vec<Cluster>,
    /// Indices of samples classified as noise.
    pub noise: Vec<usize>,
    /// Total number of samples that were clustered.
    pub sample_count: usize,
}

impl Clustering {
    /// Build a clustering directly from member lists (the reduce step's
    /// output).
    #[must_use]
    pub fn from_members(clusters: Vec<Vec<usize>>, noise: Vec<usize>, sample_count: usize) -> Self {
        Clustering {
            clusters: clusters.into_iter().map(Cluster::new).collect(),
            noise,
            sample_count,
        }
    }

    /// Number of clusters.
    #[must_use]
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Clusters with at least `min_size` members, largest first. Kizzle only
    /// builds signatures for clusters with enough samples to generalize
    /// from.
    ///
    /// Every returned cluster is guaranteed non-empty even when `min_size`
    /// is 0 — callers fall back to `members[0]` when no prototype has been
    /// computed, and an empty member list must never reach them.
    #[must_use]
    pub fn significant_clusters(&self, min_size: usize) -> Vec<&Cluster> {
        let mut out: Vec<&Cluster> = self
            .clusters
            .iter()
            .filter(|c| c.len() >= min_size.max(1))
            .collect();
        out.sort_by_key(|c| std::cmp::Reverse(c.len()));
        out
    }

    /// Sanity check: every sample index appears exactly once across clusters
    /// and noise.
    #[must_use]
    pub fn is_partition(&self) -> bool {
        let mut seen = vec![false; self.sample_count];
        let mut count = 0usize;
        for idx in self
            .clusters
            .iter()
            .flat_map(|c| c.members.iter())
            .chain(self.noise.iter())
        {
            if *idx >= self.sample_count || seen[*idx] {
                return false;
            }
            seen[*idx] = true;
            count += 1;
        }
        count == self.sample_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The medoid of `members` over points on a line.
    fn medoid(samples: &[f64], members: &[usize], sample_cap: usize) -> Option<usize> {
        medoid_of(members, sample_cap, |a, b| (samples[a] - samples[b]).abs())
    }

    #[test]
    fn prototype_of_singleton_is_itself() {
        let samples = [0.0f64, 1.0, 2.0, 3.0];
        assert_eq!(medoid(&samples, &[3], 64), Some(3));
    }

    #[test]
    fn prototype_is_the_medoid() {
        // Members 0,1,2 at positions 0.0, 10.0, 11.0 — the medoid is 10.0.
        let samples = [0.0f64, 10.0, 11.0];
        assert_eq!(medoid(&samples, &[0, 1, 2], 64), Some(1));
    }

    #[test]
    fn prototype_of_empty_cluster_is_none() {
        assert_eq!(medoid(&[], &[], 64), None);
        assert!(Cluster::default().is_empty());
    }

    #[test]
    fn prototype_with_subsampling_still_reasonable() {
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        let members: Vec<usize> = (0..1000).collect();
        let proto = medoid(&samples, &members, 16).unwrap();
        // True medoid is ~500; subsampled medoid must be in the middle half.
        assert!((250..750).contains(&proto));
    }

    #[test]
    fn medoid_pool_is_bounded_by_twice_the_cap_not_the_cap() {
        // stride = len / cap, so 127 members at cap 64 have stride 1 and
        // are scanned whole; the pool never reaches 2 · cap. The selection
        // is pinned (the medoids feed the signature digests), so this test
        // documents the bound rather than tightening it.
        let members: Vec<usize> = (0..127).collect();
        assert_eq!(medoid_pool(&members, 64), members);
        assert_eq!(medoid_pool(&members[..64], 64).len(), 64);
        assert_eq!(
            medoid_pool(&(0..128).collect::<Vec<_>>(), 64),
            (0..128).step_by(2).collect::<Vec<_>>()
        );
        for cap in [1usize, 16, 32, 64] {
            for len in 0..=(5 * cap + 3) {
                let pool = medoid_pool(&(0..len).collect::<Vec<_>>(), cap);
                assert!(pool.len() < 2 * cap, "len={len} cap={cap}");
                assert!(pool.len() >= len.min(cap), "len={len} cap={cap}");
            }
        }
    }

    #[test]
    fn significant_clusters_sorted_by_size() {
        let clustering =
            Clustering::from_members(vec![vec![0], vec![1, 2, 3], vec![4, 5]], vec![6], 7);
        let sig = clustering.significant_clusters(2);
        assert_eq!(sig.len(), 2);
        assert_eq!(sig[0].len(), 3);
        assert_eq!(sig[1].len(), 2);
    }

    #[test]
    fn significant_clusters_never_yields_empty_members() {
        // Regression: an empty cluster slipping through `min_size == 0`
        // panicked the pipeline's `members[0]` prototype fallback.
        let clustering = Clustering::from_members(vec![vec![], vec![0, 1], vec![]], vec![2], 3);
        let sig = clustering.significant_clusters(0);
        assert_eq!(sig.len(), 1);
        assert!(sig.iter().all(|c| !c.is_empty()));
    }

    #[test]
    fn is_partition_detects_duplicates_and_gaps() {
        let bad = Clustering::from_members(vec![vec![0, 1], vec![1]], vec![], 3);
        assert!(!bad.is_partition());
        let gap = Clustering::from_members(vec![vec![0]], vec![], 2);
        assert!(!gap.is_partition());
        let oob = Clustering::from_members(vec![vec![5]], vec![], 2);
        assert!(!oob.is_partition());
    }

    #[test]
    fn compute_prototypes_fills_all_clusters() {
        // Two families of near-identical class strings: the engine's final
        // medoid pass gives every cluster a prototype among its members.
        let day: Vec<Vec<u8>> = (0..6u8)
            .map(|i| {
                let base = if i < 3 { 1 } else { 4 };
                let mut s = vec![base; 40];
                s[usize::from(i)] = base + 1;
                s
            })
            .collect();
        let config = crate::DistributedConfig::new(2, crate::DbscanParams::new(0.10, 2));
        let mut engine = crate::CorpusEngine::new(config);
        let ids = engine.add_batch(0, &day);
        let (clustering, _) = engine.cluster_day(&ids);
        assert_eq!(clustering.cluster_count(), 2);
        for cluster in &clustering.clusters {
            let prototype = cluster.prototype.expect("prototype computed");
            assert!(cluster.members.contains(&prototype));
        }
    }
}
