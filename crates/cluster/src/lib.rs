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
//! * [`distance`] — bounded Levenshtein edit distance: the Myers-style
//!   bit-parallel kernel ([`BitParallelPattern`]) every path runs, and the
//!   normalized form used by the paper on top of it.
//! * [`index`] — the incremental [`NeighborIndex`], the one place an
//!   eps relation is computed: length-window, eight-bucket
//!   histogram-lower-bound and pivot candidate pruning with parallel
//!   neighborhood queries, in-place insert/remove, and maintained (not
//!   recomputed) memoized neighborhoods.
//! * [`store`] — the [`CorpusStore`]: token class-strings under stable
//!   [`SampleId`]s with content dedup and stamp-based retirement.
//! * [`engine`] — the [`CorpusEngine`]: store + index threaded through
//!   consecutive days, clustering any day view byte-identically to a cold
//!   one-shot run while only the churned fraction pays query cost. It is
//!   the one clusterer: a one-off batch is a fresh engine and one day.
//! * [`dbscan`](mod@dbscan) — DBSCAN label assignment over the index's
//!   precomputed (and multiplicity-weighted) neighborhoods.
//! * [`clustering`] — cluster bookkeeping: members, medoid prototypes,
//!   summary statistics.
//! * [`distributed`] — the partition → cluster → reduce dataflow, run on
//!   a rayon-parallel map to stand in for the paper's 50-machine
//!   deployment, with reduce-side reconciliation read off the day's
//!   eps-balls instead of all-pairs prototype scans.
//!
//! The seed's scalar edit distances, naive DBSCAN and all-pairs reduce are
//! the oracles the property tests hold this path to; they live with the
//! tests (`tests/common/`), not here.
//!
//! ## Example
//!
//! ```
//! use kizzle_cluster::{CorpusEngine, DbscanParams, DistributedConfig};
//!
//! // Three near-identical token strings and one outlier.
//! let samples: Vec<Vec<u8>> = vec![
//!     vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
//!     vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 11],
//!     vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
//!     vec![9, 9, 9, 9, 1, 1, 1, 1, 2, 2],
//! ];
//! let mut engine = CorpusEngine::new(DistributedConfig::new(1, DbscanParams::new(0.10, 2)));
//! let ids = engine.add_batch(0, &samples);
//! let (clustering, _) = engine.cluster_day(&ids);
//! assert_eq!(clustering.cluster_count(), 1);
//! assert_eq!(clustering.noise, vec![3]);
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
pub use dbscan::{dbscan_with_neighborhoods, DbscanParams, DbscanResult, Label};
pub use distance::{
    edit_distance_bitparallel_bounded, normalized_edit_distance_bounded, BitParallelPattern,
    BitParallelScratch,
};
pub use distributed::{partition_key, DistributedConfig, DistributedStats};
pub use engine::{CorpusEngine, ResumeReport, INDEX_SECTION, STORE_SECTION};
pub use index::{IndexStats, NeighborIndex};
pub use store::{CorpusStore, SampleId};
