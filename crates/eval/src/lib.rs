//! # kizzle-eval — the experiment harness
//!
//! Everything needed to regenerate the paper's evaluation (§IV) on the
//! synthetic corpus: the month-long simulation comparing Kizzle against the
//! baseline AV engine, the day-over-day similarity measurements, and one
//! experiment entry point per figure/table of the paper (the `experiments`
//! binary lists them by id and prints each report; PAPER.md has the
//! paper's own numbers).
//!
//! The harness is deterministic: every experiment takes an [`EvalConfig`]
//! whose seed fixes the grayware stream, so reruns reproduce the same
//! numbers.
//!
//! Run all experiments with:
//!
//! ```bash
//! cargo run --release -p kizzle-eval --bin experiments -- all
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversarial;
pub mod experiments;
pub mod metrics;
pub mod monthly;
pub mod similarity;

pub use metrics::{DailyMetrics, DetectorCounts, FamilyCounts};
pub use monthly::{EvalConfig, MonthlyEvaluation, MonthlyResult};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_is_consistent() {
        let cfg = EvalConfig::quick(1);
        assert!(cfg.start <= cfg.end);
        assert!(cfg.stream.samples_per_day > 0);
    }
}
