//! # kizzle — the signature compiler
//!
//! This crate is the reproduction of the paper's primary contribution: a
//! compiler that turns a daily stream of grayware HTML samples into
//! anti-virus-style structural signatures for exploit kits, with no analyst
//! in the loop once it has been seeded with known kits.
//!
//! One processing round ([`KizzleService::process_day`], or a
//! [`DaySession`] fed in mini-batches) follows the paper's Fig. 7
//! pipeline:
//!
//! 1. **Tokenize** every sample into an abstract token stream
//!    (`kizzle-js`), capped at a configurable prefix length.
//! 2. **Cluster** the token-class strings with partitioned DBSCAN at
//!    normalized edit distance 0.10 (`kizzle-cluster`).
//! 3. **Label** each sufficiently large cluster: unpack its medoid
//!    prototype (`kizzle-unpack`), fingerprint the unpacked body with
//!    winnowing (`kizzle-winnow`) and compare against the reference corpus
//!    of known unpacked kits; overlap above the family threshold labels the
//!    cluster malicious.
//! 4. **Generate** one structural signature per malicious cluster
//!    (`kizzle-signature`) and add it to the active [`SignatureSet`].
//!
//! The active set is cumulative across days, which is what gives Kizzle its
//! same-day response to packer churn (the paper's Fig. 12).
//!
//! ## The service façade
//!
//! The deployment is two-sided — a slow compiler re-clustering daily, a
//! fast matcher scanning live traffic — and the public API mirrors that.
//! [`KizzleService`] is the one compile-side driver: it owns the warm
//! compiler state, [`KizzleService::begin_day`] opens a streaming
//! [`DaySession`] that ingests the day as [`Batch`]es — one way in,
//! whether a batch is borrowed, owned or `Arc`-shared — and seals it on
//! the caller's thread, and
//! [`KizzleService::save`] / [`KizzleService::open`] persist and resume
//! the state as one snapshot file. [`KizzleService::matcher`] hands out
//! cloneable `Send + Sync` [`Matcher`] read handles that keep scanning —
//! lock-free in the steady state — while a day seals, picking up each
//! newly published signature set atomically. Configuration is
//! [`KizzleConfig::paper`] or [`KizzleConfig::fast`] plus plain fields,
//! and every fallible operation returns the unified [`KizzleError`].
//!
//! ## Quickstart
//!
//! ```
//! use kizzle::prelude::*;
//! use kizzle_corpus::{GraywareStream, SimDate, StreamConfig};
//!
//! // Seed with known, unpacked kits and start the service.
//! let date = SimDate::new(2014, 8, 5);
//! let config = KizzleConfig::fast();
//! let reference = ReferenceCorpus::seeded_from_models(date, &config);
//! let mut service = KizzleService::new(config, reference)?;
//!
//! // Serving side: a matcher handle per worker thread.
//! let matcher = service.matcher();
//!
//! // Ingest side: one session per day, fed in mini-batches as the
//! // telemetry arrives; sealing clusters, labels and publishes.
//! let day = GraywareStream::new(StreamConfig::small(7)).generate_day(date);
//! let mut session = service.begin_day(date)?;
//! for batch in day.chunks(16) {
//!     session.ingest(batch);
//! }
//! let report = session.seal();
//! assert!(report.clusters > 0);
//!
//! // The signatures generated today already detect today's samples —
//! // through the handle issued before the day was sealed.
//! let detected = day.iter().filter(|s| matcher.scan(&s.html).is_some()).count();
//! assert!(detected > 0);
//! # Ok::<(), KizzleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod pipeline;
pub mod reference;
pub mod service;
pub mod snapshot;
pub mod source;

pub use config::KizzleConfig;
pub use error::KizzleError;
pub use pipeline::{ClusterVerdict, DayReport, PipelineStats};
pub use reference::ReferenceCorpus;
pub use service::{
    Batch, DaySession, IngestProducer, KizzleService, Matcher, ScanVerdict, PIPELINE_BOUND,
};
pub use snapshot::{config_fingerprint, read_signatures, ResumeReport};
pub use source::{ChainFollower, EpochSource, FollowHandle, SignatureSource};

pub use kizzle_signature::SignatureSet;

pub mod prelude {
    //! One-line import of the curated service API:
    //! `use kizzle::prelude::*;`.
    pub use crate::config::KizzleConfig;
    pub use crate::error::KizzleError;
    pub use crate::pipeline::{ClusterVerdict, DayReport, PipelineStats};
    pub use crate::reference::ReferenceCorpus;
    pub use crate::service::{
        Batch, DaySession, IngestProducer, KizzleService, Matcher, ScanVerdict,
    };
    pub use crate::snapshot::ResumeReport;
    pub use crate::source::{ChainFollower, EpochSource, SignatureSource};
    pub use kizzle_signature::SignatureSet;
}
