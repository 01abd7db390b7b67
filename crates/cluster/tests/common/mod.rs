//! Oracles shared by the integration tests and, through a `#[path]`
//! include, by `kizzle-bench`'s `prototype_pass` bench.

/// The exhaustive medoid pass: serial over clusters, capped all-pairs per
/// cluster with every row summed to the end (no early abandon, no memo) —
/// what the shipped passes must agree with. `sample_cap` subsamples with
/// the same stride rule as `Cluster::compute_prototype`; ties resolve to
/// the earliest pool member.
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
