//! Medians and tail percentiles over the run's inner samples.

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`); 0 when
/// there are no samples (a phase that did not run — end-to-end metrics
/// must be positive, so the run is then reported incorrect).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

/// The closed loop's throughput: the upper decile of its slices. The
/// slices all do the same work, and on a shared VM interference only ever
/// slows one down, in bursts that can cover half a run; the median slice
/// flips between "typical" and "disturbed" from run to run, the upper
/// decile moves only when nearly every slice was disturbed (quartile
/// spread over ten runs: 2–11 % against 2–15 %). Days are not summarised
/// this way: they differ from each other (dates do), and no quantile of a
/// dozen days was steadier than their median.
pub fn upper_decile(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.9)
}

/// The daemon's CPU per scan: the lower quartile of the chunks, for the
/// same reason (contention for cache and memory inflates CPU time too).
/// A quartile, not a decile: a run has 10–18 chunks.
pub fn lower_quartile(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.25)
}

/// The tail percentiles a latency sample may be summarised by.
pub const TAILS: [(&str, f64); 4] = [
    ("p90", 0.90),
    ("p99", 0.99),
    ("p999", 0.999),
    ("p9999", 0.9999),
];

/// The highest of [`TAILS`] that still has at least ten samples beyond
/// it; `None` below 100 samples (report the median alone).
pub fn highest_tail(samples: usize) -> Option<(&'static str, f64)> {
    TAILS
        .iter()
        .copied()
        .rfind(|(_, q)| samples as f64 * (1.0 - q) >= 10.0 - 1e-9)
}

/// Median, the fixed tails, and the sample count of one latency sample.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub p99: f64,
    pub p999: f64,
    /// The highest tail with at least ten samples beyond it, if any.
    pub tail: Option<(&'static str, f64)>,
}

pub fn summarize(values: Vec<f64>) -> Summary {
    let v = sorted(values);
    Summary {
        count: v.len(),
        p50: quantile(&v, 0.5),
        p99: quantile(&v, 0.99),
        p999: quantile(&v, 0.999),
        tail: highest_tail(v.len()).map(|(name, q)| (name, quantile(&v, q))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_tail(50), None);
        assert_eq!(highest_tail(99), None);
        assert_eq!(highest_tail(100).map(|t| t.0), Some("p90"));
        assert_eq!(highest_tail(999).map(|t| t.0), Some("p90"));
        assert_eq!(highest_tail(1_000).map(|t| t.0), Some("p99"));
        assert_eq!(highest_tail(13_500).map(|t| t.0), Some("p999"));
        assert_eq!(highest_tail(100_000).map(|t| t.0), Some("p9999"));
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(upper_decile(&v), 90.0);
        assert_eq!(lower_quartile(&v), 25.0);
    }
}
