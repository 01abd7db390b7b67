//! `kizzle-serve`: a state-file-tailing scan-serving fleet for Kizzle
//! signature sets.
//!
//! The compiler side of the pipeline (`kizzle`'s [`KizzleService`])
//! grows a signature set day by day and persists it as one state file
//! per save. This crate is the *other* process: a daemon whose worker
//! threads each hold a [`Matcher`] over one shared
//! [`ChainFollower`] tailing that state directory, answering scan
//! requests over a trivial length-prefixed TCP protocol
//! ([`protocol`]), hot-swapping the set mid-traffic whenever the
//! compiler publishes, and exposing its telemetry as Prometheus text
//! over the same socket.
//!
//! [`KizzleService`]: kizzle::KizzleService
//! [`Matcher`]: kizzle::Matcher
//! [`ChainFollower`]: kizzle::ChainFollower
//!
//! # Quickstart
//!
//! Compile a day, save it into a state directory, serve it, scan it
//! over the wire:
//!
//! ```
//! use kizzle::prelude::*;
//! use kizzle_corpus::{GraywareStream, SimDate, StreamConfig};
//! use kizzle_serve::{ScanClient, ServeConfig, Server};
//!
//! let dir = std::env::temp_dir().join(format!("kizzle-serve-quickstart-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//!
//! // Compiler process: grow one day, publish it into the state directory.
//! let config = KizzleConfig::fast();
//! let reference = ReferenceCorpus::seeded_from_models(SimDate::new(2014, 8, 1), &config);
//! let mut service = KizzleService::new(config, reference)?;
//! let date = SimDate::new(2014, 8, 5);
//! let day = GraywareStream::new(StreamConfig::small(7)).generate_day(date);
//! service.process_day(date, &day)?;
//! service.save(&dir)?;
//!
//! // Serving process: a worker fleet tailing that directory.
//! let server = Server::start(&ServeConfig::new(&dir))?;
//! let mut client = ScanClient::connect(&server.addr().to_string())?;
//! for sample in &day {
//!     let verdict = client.scan(&sample.html)?;
//!     assert_eq!(verdict.family, service.matcher().scan(&sample.html));
//! }
//! client.shutdown()?; // the daemon drains and exits
//! server.join();
//! std::fs::remove_dir_all(&dir)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod client;
pub mod loadgen;
pub mod protocol;
pub mod server;

pub use client::ScanClient;
pub use loadgen::{LoadgenConfig, LoadgenReport, VerifyReport};
pub use server::{ServeConfig, Server, ServerHandle, SpanAggregator};
