//! # kizzle-sim — the workspace façade
//!
//! The curated entry point to the Kizzle reproduction. The crate used to
//! be a bare re-export shim; it now surfaces the **service API** the
//! paper's two-sided deployment wants — a slow compiler that re-clusters
//! daily behind a streaming ingest session, and a fast matcher side built
//! from cheap, cloneable read handles:
//!
//! * [`KizzleService`] — the one compile-side driver: owns the warm
//!   compiler state across days, saves and resumes it as a snapshot
//!   chain ([`KizzleService::save`] / [`KizzleService::open`]).
//! * [`DaySession`] — streaming ingest: [`KizzleService::begin_day`],
//!   mini-batched [`DaySession::ingest`] of [`Batch`]es (borrowed, owned
//!   or `Arc`-shared — one way in), then
//!   [`DaySession::seal`] to cluster → label → sign → publish.
//!   Byte-identical to the one-batch [`KizzleService::process_day`]
//!   however the day is cut (property-tested).
//! * [`Matcher`] — `Send + Sync` scan handle over the epoch-swapped
//!   published signature set; scans stay lock-free while a seal is in
//!   flight and pick up each publication atomically.
//! * [`KizzleConfig`] — [`KizzleConfig::paper`] or [`KizzleConfig::fast`]
//!   plus plain fields, checked by every service entry point;
//!   [`KizzleError`] — the one error type every fallible operation
//!   returns.
//!
//! ## Quickstart
//!
//! ```
//! use kizzle_sim::prelude::*;
//! use kizzle_sim::corpus::{GraywareStream, SimDate, StreamConfig};
//!
//! let date = SimDate::new(2014, 8, 5);
//! let config = KizzleConfig::fast();
//! let reference = ReferenceCorpus::seeded_from_models(date, &config);
//! let mut service = KizzleService::new(config, reference)?;
//!
//! let matcher = service.matcher(); // serving side, up before day one
//!
//! let day = GraywareStream::new(StreamConfig::small(7)).generate_day(date);
//! let mut session = service.begin_day(date)?;
//! for batch in day.chunks(16) {
//!     session.ingest(batch); // tokenize/dedup/index eagerly, per batch
//! }
//! let report = session.seal(); // cluster + winnow + siggen + publish
//! assert!(report.clusters > 0);
//! assert!(day.iter().any(|s| matcher.scan(&s.html).is_some()));
//! # Ok::<(), KizzleError>(())
//! ```
//!
//! The member crates stay reachable under their natural module names
//! (below) for the repository-level `examples/` and `tests/` harnesses
//! that exercise pipeline internals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use kizzle::{
    config_fingerprint, read_signatures, Batch, ClusterVerdict, DayReport, DaySession,
    KizzleConfig, KizzleError, KizzleService, Matcher, ReferenceCorpus, ResumeReport, SignatureSet,
};

pub mod prelude {
    //! One-line import of the curated service API:
    //! `use kizzle_sim::prelude::*;`.
    pub use kizzle::prelude::*;
}

pub use kizzle_avsim as avsim;
pub use kizzle_cluster as cluster;
pub use kizzle_corpus as corpus;
pub use kizzle_eval as eval;
pub use kizzle_js as js;
pub use kizzle_signature as signature;
pub use kizzle_unpack as unpack;
pub use kizzle_winnow as winnow;
