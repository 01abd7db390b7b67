//! Pipeline configuration.
//!
//! [`KizzleConfig::paper`] and [`KizzleConfig::fast`] are the two curated
//! operating points; everything else goes through
//! [`KizzleConfig::builder`], whose setters are validated at
//! [`KizzleConfigBuilder::build`] — the typed replacement for mutating
//! flat struct literals and hoping [`KizzleConfig::validated`] doesn't
//! panic later.

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
    /// The furthest ahead (in days) an opened day may be of the last
    /// opened one. The retention sweep retires everything older than
    /// `date - retention_days`, so a single mis-parsed far-future date
    /// would silently discard the whole warm corpus; the service refuses
    /// such jumps as [`KizzleError::Ingest`] instead. Deliberately
    /// generous by default (90 days) — weekends, holidays, and pipeline
    /// outages are normal gaps; a date parser emitting 2034 is not.
    ///
    /// Excluded from the snapshot config fingerprint: it gates ingest
    /// requests, it does not shape any persisted state.
    pub max_day_advance: usize,
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
            clustering: DistributedConfig::new(4, DbscanParams::new(0.10, 4), 0),
            token_cap: 900,
            min_cluster_size: 4,
            retention_days: 3,
            max_day_advance: 90,
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
            clustering: DistributedConfig::new(2, DbscanParams::new(0.10, 3), 0),
            token_cap: 500,
            min_cluster_size: 3,
            retention_days: 2,
            max_day_advance: 90,
            winnow: WinnowConfig::default(),
            label_threshold: 0.60,
            signature: SignatureConfig::default(),
        }
    }

    /// Start from the paper's operating point and adjust fields through
    /// validated setters; [`KizzleConfigBuilder::build`] returns
    /// [`KizzleError::Config`] instead of panicking on a bad combination.
    #[must_use]
    pub fn builder() -> KizzleConfigBuilder {
        KizzleConfigBuilder {
            config: KizzleConfig::paper(),
        }
    }

    /// Validate invariants that cross module boundaries, returning the
    /// configuration unchanged when they hold and
    /// [`KizzleError::Config`] naming the violated invariant otherwise.
    /// Every service entry point (`new`/`open`/`load`) and the panicking
    /// [`KizzleConfig::validated`] run the same checks, so a config that
    /// was hand-mutated past the builder still cannot reach the pipeline
    /// invalid.
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
        if self.max_day_advance < 1 {
            return fail("max_day_advance must be >= 1");
        }
        Ok(self)
    }

    /// Validate invariants that cross module boundaries.
    ///
    /// # Panics
    ///
    /// Panics if the label threshold is outside `(0, 1]`, the token cap is
    /// smaller than the signature cap, the minimum cluster size is zero, or
    /// the retention window is zero. [`KizzleConfig::validate`] is the
    /// non-panicking form.
    #[must_use]
    pub fn validated(self) -> Self {
        match self.validate() {
            Ok(config) => config,
            Err(err) => panic!("{err}"),
        }
    }
}

/// Builder for [`KizzleConfig`], created by [`KizzleConfig::builder`].
///
/// Starts from [`KizzleConfig::paper`]; every setter adjusts one knob and
/// [`KizzleConfigBuilder::build`] validates the combination. Field-level
/// range errors (a zero partition count, a negative eps) surface from
/// `build` as [`KizzleError::Config`] rather than panicking mid-setter, so
/// a service can refuse a bad config file gracefully.
///
/// ```
/// use kizzle::{KizzleConfig, KizzleError};
///
/// let config = KizzleConfig::builder()
///     .partitions(8)
///     .eps(0.10)
///     .retention_days(5)
///     .token_cap(700)
///     .build()?;
/// assert_eq!(config.retention_days, 5);
///
/// // Invariants are checked at build time:
/// let err = KizzleConfig::builder().retention_days(0).build().unwrap_err();
/// assert!(matches!(err, KizzleError::Config(_)));
/// # Ok::<(), KizzleError>(())
/// ```
#[derive(Debug, Clone)]
pub struct KizzleConfigBuilder {
    config: KizzleConfig,
}

impl KizzleConfigBuilder {
    /// Number of clustering partitions ("machines").
    #[must_use]
    pub fn partitions(mut self, partitions: usize) -> Self {
        self.config.clustering.partitions = partitions;
        self
    }

    /// DBSCAN neighborhood radius (the paper runs at 0.10).
    #[must_use]
    pub fn eps(mut self, eps: f64) -> Self {
        self.config.clustering.dbscan.eps = eps;
        self
    }

    /// DBSCAN core-point threshold.
    #[must_use]
    pub fn min_points(mut self, min_points: usize) -> Self {
        self.config.clustering.dbscan.min_points = min_points;
        self
    }

    /// Seed of the content-key partition mix (reproducibility knob).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.clustering.seed = seed;
        self
    }

    /// Maximum tokens per sample used for clustering.
    #[must_use]
    pub fn token_cap(mut self, token_cap: usize) -> Self {
        self.config.token_cap = token_cap;
        self
    }

    /// Minimum cluster size before a signature is generated.
    #[must_use]
    pub fn min_cluster_size(mut self, min_cluster_size: usize) -> Self {
        self.config.min_cluster_size = min_cluster_size;
        self
    }

    /// Days of samples the warm engine retains (including the current one).
    #[must_use]
    pub fn retention_days(mut self, retention_days: usize) -> Self {
        self.config.retention_days = retention_days;
        self
    }

    /// The furthest ahead (in days) an opened day may be of the last one
    /// — the guard against a mis-parsed far-future date retiring the warm
    /// corpus (see [`KizzleConfig::max_day_advance`]).
    #[must_use]
    pub fn max_day_advance(mut self, max_day_advance: usize) -> Self {
        self.config.max_day_advance = max_day_advance;
        self
    }

    /// Winnowing parameters for cluster labeling.
    #[must_use]
    pub fn winnow(mut self, winnow: WinnowConfig) -> Self {
        self.config.winnow = winnow;
        self
    }

    /// Winnow-overlap threshold above which a prototype labels a family.
    #[must_use]
    pub fn label_threshold(mut self, label_threshold: f64) -> Self {
        self.config.label_threshold = label_threshold;
        self
    }

    /// Signature generation parameters.
    #[must_use]
    pub fn signature(mut self, signature: SignatureConfig) -> Self {
        self.config.signature = signature;
        self
    }

    /// Validate the accumulated configuration (the same checks as
    /// [`KizzleConfig::validate`]).
    pub fn build(self) -> Result<KizzleConfig, KizzleError> {
        self.config.validate()
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
        let cfg = KizzleConfig::paper().validated();
        assert!((cfg.clustering.dbscan.eps - 0.10).abs() < 1e-12);
        assert_eq!(cfg.signature.max_tokens, 200);
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(KizzleConfig::default(), KizzleConfig::paper());
    }

    #[test]
    fn fast_config_is_valid() {
        let _ = KizzleConfig::fast().validated();
    }

    #[test]
    #[should_panic(expected = "label_threshold")]
    fn invalid_threshold_panics() {
        let mut cfg = KizzleConfig::paper();
        cfg.label_threshold = 1.5;
        let _ = cfg.validated();
    }

    #[test]
    #[should_panic(expected = "token_cap")]
    fn token_cap_below_signature_cap_panics() {
        let mut cfg = KizzleConfig::paper();
        cfg.token_cap = 100;
        let _ = cfg.validated();
    }

    #[test]
    #[should_panic(expected = "retention_days")]
    fn zero_retention_panics() {
        let mut cfg = KizzleConfig::paper();
        cfg.retention_days = 0;
        let _ = cfg.validated();
    }

    #[test]
    fn zero_max_day_advance_is_refused() {
        let err = KizzleConfig::builder()
            .max_day_advance(0)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("max_day_advance"), "err: {err}");
        let cfg = KizzleConfig::builder()
            .max_day_advance(7)
            .build()
            .expect("valid");
        assert_eq!(cfg.max_day_advance, 7);
    }
}
