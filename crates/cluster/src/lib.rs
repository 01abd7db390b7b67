//! # kizzle-cluster — sample clustering for the Kizzle pipeline
//!
//! Kizzle clusters incoming grayware samples on their *abstract token
//! strings* (paper §III-A): it partitions the daily batch across machines,
//! runs **DBSCAN** (Ester et al., KDD'96) inside each partition using the
//! **normalized edit distance** between token strings (threshold 0.10), and
//! then reconciles the per-partition clusters in a reduce step.
//!
//! This crate provides each of those pieces:
//!
//! * [`distance`] — Levenshtein edit distance: the Myers-style
//!   bit-parallel bounded kernel ([`BitParallelPattern`]) every product
//!   path runs, the normalized form used by the paper on top of it, and a
//!   scalar banded variant kept as the test oracle.
//! * [`index`] — the incremental [`NeighborIndex`]: length-window +
//!   histogram-lower-bound candidate pruning with parallel neighborhood
//!   queries, in-place insert/remove, and maintained (not recomputed)
//!   memoized neighborhoods — the engine behind [`dbscan_indexed`].
//! * [`store`] — the [`CorpusStore`]: token class-strings under stable
//!   [`SampleId`]s with content dedup and stamp-based retirement.
//! * [`engine`] — the [`CorpusEngine`]: store + index threaded through
//!   consecutive days, clustering any day view byte-identically to a cold
//!   one-shot run while only the churned fraction pays query cost.
//! * [`dbscan`](mod@dbscan) — a generic DBSCAN over any distance function, plus the
//!   indexed variant that is label-identical and vastly faster on token
//!   strings.
//! * [`clustering`] — cluster bookkeeping: members, medoid prototypes,
//!   summary statistics.
//! * [`distributed`] — the partition → cluster → reduce dataflow, run on
//!   a rayon-parallel map to stand in for the paper's 50-machine
//!   deployment, with reduce-side reconciliation routed through a
//!   [`NeighborIndex`] instead of all-pairs prototype scans.
//!
//! ## Example
//!
//! ```
//! use kizzle_cluster::{dbscan::DbscanParams, distance::normalized_edit_distance, dbscan::dbscan};
//!
//! // Three near-identical token strings and one outlier.
//! let samples: Vec<Vec<u8>> = vec![
//!     vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
//!     vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 11],
//!     vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
//!     vec![9, 9, 9, 9, 1, 1, 1, 1, 2, 2],
//! ];
//! let params = DbscanParams::new(0.10, 2);
//! let result = dbscan(&samples, &params, |a, b| normalized_edit_distance(a, b));
//! assert_eq!(result.cluster_count(), 1);
//! assert!(result.is_noise(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clustering;
pub mod dbscan;
pub mod distance;
pub mod distributed;
pub mod engine;
pub mod index;
pub mod store;

pub use clustering::{Cluster, Clustering};
pub use dbscan::{
    dbscan, dbscan_indexed, dbscan_with_neighborhoods, DbscanParams, DbscanResult, Label,
};
pub use distance::{
    edit_distance, edit_distance_bitparallel_bounded, edit_distance_bounded,
    normalized_edit_distance, BitParallelPattern, BitParallelScratch,
};
pub use distributed::{partition_key, DistributedClusterer, DistributedConfig, DistributedStats};
pub use engine::{
    CorpusEngine, PreparedDay, ResumeReport, ENGINE_CHAIN_PREFIX, INDEX_SECTION, STORE_SECTION,
};
pub use index::{IndexStats, NeighborIndex};
pub use store::{CorpusStore, SampleId};
