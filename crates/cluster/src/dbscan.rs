//! DBSCAN density clustering over precomputed neighborhoods.
//!
//! Kizzle deliberately uses an off-the-shelf clustering strategy — DBSCAN —
//! so that the end-to-end system can be "built and supported by security
//! engineers and not machine learning experts" (paper §I-A). DBSCAN needs no
//! pre-declared cluster count, tolerates noise (most grayware clusters are
//! benign one-offs), and only requires a pairwise distance, which for Kizzle
//! is the normalized edit distance over token strings. The neighborhoods
//! come from the [`NeighborIndex`](crate::index::NeighborIndex), so the
//! label assignment here never computes a distance itself.

/// Cluster assignment of a single sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// Not yet processed (never returned from
    /// [`dbscan_with_neighborhoods`]).
    Unvisited,
    /// Density noise: not reachable from any core point.
    Noise,
    /// Member of the cluster with the given id (0-based, dense).
    Cluster(usize),
}

/// Parameters of the DBSCAN run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbscanParams {
    /// Neighborhood radius. For Kizzle this is the normalized edit-distance
    /// threshold, 0.10 in the paper.
    pub eps: f64,
    /// Minimum number of samples (including the point itself) for a point to
    /// be a core point.
    pub min_points: usize,
}

impl DbscanParams {
    /// Create DBSCAN parameters.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is negative or NaN, or `min_points` is zero.
    #[must_use]
    pub fn new(eps: f64, min_points: usize) -> Self {
        assert!(
            eps >= 0.0 && eps.is_finite(),
            "eps must be a non-negative number"
        );
        assert!(min_points >= 1, "min_points must be at least 1");
        DbscanParams { eps, min_points }
    }

    /// The paper's operating point: `eps = 0.10`, and a cluster needs at
    /// least 4 samples before Kizzle will consider it (few variants => no
    /// signature yet, which is the false-negative mechanism the paper
    /// describes for Angler on August 13).
    #[must_use]
    pub fn kizzle_default() -> Self {
        DbscanParams::new(0.10, 4)
    }
}

impl Default for DbscanParams {
    fn default() -> Self {
        DbscanParams::kizzle_default()
    }
}

/// The result of a DBSCAN run: one [`Label`] per input sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbscanResult {
    labels: Vec<Label>,
    cluster_count: usize,
}

impl DbscanResult {
    /// Per-sample labels, parallel to the input slice.
    #[must_use]
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Number of clusters discovered.
    #[must_use]
    pub fn cluster_count(&self) -> usize {
        self.cluster_count
    }

    /// Indices of the members of cluster `id`.
    #[must_use]
    pub fn members(&self, id: usize) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter_map(|(i, l)| (*l == Label::Cluster(id)).then_some(i))
            .collect()
    }
}

/// Run DBSCAN over precomputed neighborhoods of a weighted point set.
///
/// Point `i` stands for `weights[i] ≥ 1` co-located samples (identical
/// content, mutual distance 0), and `neighborhoods[i]` must list the
/// eps-neighbors of point `i` (excluding `i` itself) in ascending order;
/// symmetry is the caller's responsibility (an eps-ball query is symmetric
/// by construction). A point is core when the samples within eps of any one
/// of its own — `weights[i]` plus its neighbors' weights — reach
/// `min_points`. A sample set without duplicates passes all-ones weights,
/// and then the control flow is the textbook algorithm's (an explicit
/// expansion queue over each core point's neighbors), so for the same
/// neighborhood relation the labels are those of naive DBSCAN — the
/// property tests hold it to the seed's distance-callback DBSCAN
/// (`tests/common/mod.rs`).
///
/// With the points ordered by the first position of their content, the
/// labels equal those of DBSCAN over the expanded samples in position
/// order: co-located samples have the same neighbors (and each other), so
/// they share core status and label, clusters are discovered at their
/// first core sample either way, and a border sample joins the earliest
/// cluster with a core point in reach either way. The cost follows the
/// distinct points and their balls, not the expanded sample count.
///
/// # Panics
///
/// Panics if `weights` and `neighborhoods` have different lengths.
#[must_use]
pub fn dbscan_with_neighborhoods(
    neighborhoods: &[Vec<usize>],
    weights: &[usize],
    params: &DbscanParams,
) -> DbscanResult {
    let n = neighborhoods.len();
    assert_eq!(weights.len(), n, "one weight per point");
    let mut labels = vec![Label::Unvisited; n];
    let mut cluster_count = 0usize;
    let is_core = |p: usize| {
        let density: usize =
            weights[p] + neighborhoods[p].iter().map(|&q| weights[q]).sum::<usize>();
        density >= params.min_points
    };

    for start in 0..n {
        if labels[start] != Label::Unvisited {
            continue;
        }
        if !is_core(start) {
            labels[start] = Label::Noise;
            continue;
        }
        let cluster_id = cluster_count;
        cluster_count += 1;
        labels[start] = Label::Cluster(cluster_id);

        let mut queue: std::collections::VecDeque<usize> =
            neighborhoods[start].iter().copied().collect();
        while let Some(p) = queue.pop_front() {
            match labels[p] {
                Label::Cluster(_) => continue,
                Label::Noise => {
                    labels[p] = Label::Cluster(cluster_id);
                    continue;
                }
                Label::Unvisited => {
                    labels[p] = Label::Cluster(cluster_id);
                    if is_core(p) {
                        for &q in &neighborhoods[p] {
                            if labels[q] == Label::Unvisited || labels[q] == Label::Noise {
                                queue.push_back(q);
                            }
                        }
                    }
                }
            }
        }
    }

    debug_assert!(labels.iter().all(|l| *l != Label::Unvisited));
    DbscanResult {
        labels,
        cluster_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::normalized_edit_distance_bounded;
    use crate::index::NeighborIndex;
    use crate::store::SampleId;

    /// DBSCAN over brute-force neighborhoods under `distance`.
    fn dbscan<T>(
        samples: &[T],
        params: &DbscanParams,
        distance: impl Fn(&T, &T) -> f64,
    ) -> DbscanResult {
        let neighborhoods: Vec<Vec<usize>> = (0..samples.len())
            .map(|i| {
                (0..samples.len())
                    .filter(|&j| j != i && distance(&samples[i], &samples[j]) <= params.eps)
                    .collect()
            })
            .collect();
        dbscan_with_neighborhoods(&neighborhoods, &vec![1; samples.len()], params)
    }

    fn abs_dist(a: &f64, b: &f64) -> f64 {
        (a - b).abs()
    }

    fn noise_count(result: &DbscanResult) -> usize {
        result
            .labels()
            .iter()
            .filter(|l| **l == Label::Noise)
            .count()
    }

    #[test]
    fn empty_input() {
        let result = dbscan(&[] as &[f64], &DbscanParams::new(1.0, 2), abs_dist);
        assert_eq!(result.cluster_count(), 0);
        assert!(result.labels().is_empty());
    }

    #[test]
    fn single_point_is_noise_unless_min_points_one() {
        let pts = [1.0f64];
        let r = dbscan(&pts, &DbscanParams::new(1.0, 2), abs_dist);
        assert_eq!(r.labels(), [Label::Noise]);
        let r = dbscan(&pts, &DbscanParams::new(1.0, 1), abs_dist);
        assert_eq!(r.cluster_count(), 1);
    }

    #[test]
    fn two_well_separated_groups() {
        let pts = [0.0f64, 0.1, 0.2, 10.0, 10.1, 10.2, 55.0];
        let r = dbscan(&pts, &DbscanParams::new(0.5, 2), abs_dist);
        assert_eq!(r.cluster_count(), 2);
        assert_eq!(r.labels()[6], Label::Noise);
        let c0 = r.labels()[0];
        assert_eq!(r.labels()[1], c0);
        assert_eq!(r.labels()[2], c0);
        let c1 = r.labels()[3];
        assert_ne!(c0, c1);
        assert_eq!(r.labels()[4], c1);
    }

    #[test]
    fn chain_of_points_forms_one_cluster() {
        // Density-reachability: consecutive points are within eps, the
        // endpoints are not, but they still end up in the same cluster.
        let pts: Vec<f64> = (0..20).map(|i| f64::from(i) * 0.4).collect();
        let r = dbscan(&pts, &DbscanParams::new(0.5, 2), abs_dist);
        assert_eq!(r.cluster_count(), 1);
        assert_eq!(noise_count(&r), 0);
    }

    #[test]
    fn border_point_is_adopted_not_noise() {
        // min_points = 3. The point at 1.0 has only one neighbor (0.5) so it
        // is not core, but it is within eps of the core point 0.5, so it
        // becomes a border member of the cluster.
        let pts = [0.0f64, 0.25, 0.5, 1.0];
        let r = dbscan(&pts, &DbscanParams::new(0.5, 3), abs_dist);
        assert_eq!(r.cluster_count(), 1);
        assert_eq!(noise_count(&r), 0);
        assert_eq!(r.members(0).len(), 4);
    }

    #[test]
    fn min_points_counts_the_point_itself() {
        // Two points within eps of each other: with min_points = 2 each has
        // 1 neighbor + itself = 2, so they form a cluster.
        let pts = [0.0f64, 0.1];
        let r = dbscan(&pts, &DbscanParams::new(0.5, 2), abs_dist);
        assert_eq!(r.cluster_count(), 1);
    }

    #[test]
    fn members_and_noise_count_are_consistent() {
        let pts = [0.0f64, 0.1, 0.2, 5.0, 9.0, 9.05, 9.1];
        let r = dbscan(&pts, &DbscanParams::new(0.3, 3), abs_dist);
        let member_total: usize = (0..r.cluster_count()).map(|c| r.members(c).len()).sum();
        assert_eq!(member_total + noise_count(&r), pts.len());
    }

    #[test]
    fn token_string_clustering_at_paper_threshold() {
        // Samples from the "same kit" differ in <10% of token positions;
        // the benign sample is structurally different.
        let kit_a: Vec<u8> = (0..100).map(|i| (i % 5) as u8).collect();
        let mut kit_a2 = kit_a.clone();
        kit_a2[10] = 9;
        kit_a2[50] = 9; // 2% change
        let mut kit_a3 = kit_a.clone();
        kit_a3.truncate(95); // 5% shorter
        let benign: Vec<u8> = (0..100).map(|i| ((i * 7) % 6) as u8).collect();
        let samples = vec![kit_a, kit_a2, kit_a3, benign];
        let r = dbscan(&samples, &DbscanParams::new(0.10, 2), |a, b| {
            normalized_edit_distance_bounded(a, b, 0.10).unwrap_or(1.0)
        });
        assert_eq!(r.cluster_count(), 1);
        assert_eq!(r.members(0), vec![0, 1, 2]);
        assert_eq!(r.labels()[3], Label::Noise);
    }

    #[test]
    #[should_panic(expected = "min_points")]
    fn zero_min_points_panics() {
        let _ = DbscanParams::new(0.1, 0);
    }

    #[test]
    #[should_panic(expected = "eps")]
    fn negative_eps_panics() {
        let _ = DbscanParams::new(-0.1, 2);
    }

    #[test]
    fn kizzle_default_matches_paper() {
        let p = DbscanParams::kizzle_default();
        assert!((p.eps - 0.10).abs() < 1e-12);
        assert_eq!(p.min_points, 4);
        assert_eq!(DbscanParams::default(), p);
    }

    /// DBSCAN over the neighbor index's eps-balls, as the engine runs it
    /// for a single partition.
    fn indexed(samples: &[Vec<u8>], params: &DbscanParams) -> DbscanResult {
        let index = NeighborIndex::build(samples, params.eps);
        let neighborhoods: Vec<Vec<usize>> = (0..samples.len())
            .map(|i| {
                let id = SampleId::new(u32::try_from(i).expect("small test"));
                index
                    .neighbors(id)
                    .iter()
                    .map(|n| n.raw() as usize)
                    .collect()
            })
            .collect();
        dbscan_with_neighborhoods(&neighborhoods, &vec![1; samples.len()], params)
    }

    #[test]
    fn indexed_matches_naive_on_token_corpus() {
        // Same corpus as token_string_clustering_at_paper_threshold, plus
        // extra variants so expansion paths get exercised.
        let mut samples: Vec<Vec<u8>> = Vec::new();
        let base: Vec<u8> = (0..100).map(|i| (i % 5) as u8).collect();
        for v in 0..8usize {
            let mut s = base.clone();
            for k in 0..v {
                let pos = (k * 11 + 3) % s.len();
                s[pos] = 9;
            }
            s.truncate(s.len() - v % 4);
            samples.push(s);
        }
        samples.push((0..100).map(|i| ((i * 7) % 6) as u8).collect());
        samples.push(Vec::new());

        let params = DbscanParams::new(0.10, 2);
        let naive = dbscan(&samples, &params, |a, b| {
            normalized_edit_distance_bounded(a, b, params.eps).unwrap_or(1.0)
        });
        assert_eq!(indexed(&samples, &params), naive);
    }

    #[test]
    fn indexed_empty_input() {
        let result = indexed(&[], &DbscanParams::kizzle_default());
        assert_eq!(result.cluster_count(), 0);
        assert!(result.labels().is_empty());
    }

    #[test]
    fn result_is_deterministic() {
        let pts: Vec<f64> = vec![0.0, 0.1, 0.2, 3.0, 3.1, 3.2, 7.7];
        let p = DbscanParams::new(0.5, 2);
        let a = dbscan(&pts, &p, abs_dist);
        let b = dbscan(&pts, &p, abs_dist);
        assert_eq!(a, b);
    }
}
