//! Pipeline configuration.
//!
//! [`KizzleConfig::paper`] and [`KizzleConfig::fast`] are the two curated
//! operating points; any other configuration starts from one of them and
//! sets plain fields. [`KizzleConfig::validate`] is the one check, and
//! every service entry point (`new`/`open`/`load`) runs it.

use crate::error::KizzleError;
use kizzle_cluster::{DbscanParams, DistributedConfig};
use kizzle_signature::SignatureConfig;
use kizzle_winnow::WinnowConfig;

/// Configuration of the whole Kizzle pipeline.
///
/// The defaults reproduce the paper's operating point where it is stated
/// (DBSCAN threshold 0.10, 200-token signature cap; see PAPER.md) and
/// otherwise use values tuned on the synthetic corpus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KizzleConfig {
    /// Distributed clustering configuration (partition count stands in for
    /// the paper's 50 machines).
    pub clustering: DistributedConfig,
    /// Maximum number of tokens per sample used for clustering; longer
    /// samples are truncated to this prefix, which bounds the edit-distance
    /// cost without affecting the packer-dominated head of the document.
    pub token_cap: usize,
    /// Minimum number of samples in a cluster before a signature is
    /// generated from it. Clusters below this size are ignored — which is
    /// exactly the false-negative mechanism the paper describes for rare
    /// kit variants.
    pub min_cluster_size: usize,
    /// How many days of samples the incremental corpus engine keeps warm
    /// (including the day being processed). Consecutive grayware corpora
    /// overlap heavily, so retained samples turn into index cache hits the
    /// next day; samples older than the window are retired before each
    /// day runs. `1` clusters each day fully cold. Does not affect labels —
    /// the day's clustering is restricted to the day's samples either way.
    pub retention_days: usize,
    /// Winnowing parameters for cluster labeling.
    pub winnow: WinnowConfig,
    /// Default winnow-overlap threshold above which a cluster prototype is
    /// considered to belong to a known family. Per-family overrides live in
    /// the reference corpus.
    pub label_threshold: f64,
    /// Signature generation parameters.
    pub signature: SignatureConfig,
}

impl KizzleConfig {
    /// The paper-faithful configuration.
    #[must_use]
    pub fn paper() -> Self {
        KizzleConfig {
            clustering: DistributedConfig::new(4, DbscanParams::new(0.10, 4)),
            token_cap: 900,
            min_cluster_size: 4,
            retention_days: 3,
            winnow: WinnowConfig::default(),
            label_threshold: 0.60,
            signature: SignatureConfig::default(),
        }
    }

    /// A configuration tuned for unit tests and doc examples: fewer
    /// partitions, smaller clusters accepted, shorter token cap.
    #[must_use]
    pub fn fast() -> Self {
        KizzleConfig {
            clustering: DistributedConfig::new(2, DbscanParams::new(0.10, 3)),
            token_cap: 500,
            min_cluster_size: 3,
            retention_days: 2,
            winnow: WinnowConfig::default(),
            label_threshold: 0.60,
            signature: SignatureConfig::default(),
        }
    }

    /// Validate invariants that cross module boundaries, returning the
    /// configuration unchanged when they hold and
    /// [`KizzleError::Config`] naming the violated invariant otherwise.
    /// Every service entry point (`new`/`open`/`load`) runs it, so a
    /// hand-mutated config cannot reach the pipeline invalid.
    pub fn validate(self) -> Result<Self, KizzleError> {
        let fail = |what: &str| Err(KizzleError::Config(what.to_string()));
        if self.clustering.partitions < 1 {
            return fail("at least one partition is required");
        }
        if !(self.clustering.dbscan.eps > 0.0 && self.clustering.dbscan.eps < 1.0) {
            return fail("eps must be in (0, 1)");
        }
        if self.clustering.dbscan.min_points < 1 {
            return fail("min_points must be >= 1");
        }
        if !(self.label_threshold > 0.0 && self.label_threshold <= 1.0) {
            return fail("label_threshold must be in (0, 1]");
        }
        if self.token_cap < self.signature.max_tokens {
            return fail("token_cap must be at least the signature token cap");
        }
        if self.min_cluster_size < 1 {
            return fail("min_cluster_size must be >= 1");
        }
        if self.retention_days < 1 {
            return fail("retention_days must be >= 1");
        }
        Ok(self)
    }
}

impl Default for KizzleConfig {
    fn default() -> Self {
        KizzleConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_stated_parameters() {
        let cfg = KizzleConfig::paper()
            .validate()
            .expect("paper config is valid");
        assert!((cfg.clustering.dbscan.eps - 0.10).abs() < 1e-12);
        assert_eq!(cfg.signature.max_tokens, 200);
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(KizzleConfig::default(), KizzleConfig::paper());
    }

    #[test]
    fn fast_config_is_valid() {
        KizzleConfig::fast()
            .validate()
            .expect("fast config is valid");
    }

    #[test]
    #[should_panic(expected = "label_threshold")]
    fn invalid_threshold_panics() {
        let mut cfg = KizzleConfig::paper();
        cfg.label_threshold = 1.5;
        cfg.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "token_cap")]
    fn token_cap_below_signature_cap_panics() {
        let mut cfg = KizzleConfig::paper();
        cfg.token_cap = 100;
        cfg.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "retention_days")]
    fn zero_retention_panics() {
        let mut cfg = KizzleConfig::paper();
        cfg.retention_days = 0;
        cfg.validate().unwrap();
    }
}
