//! # kizzle-analyze — workspace-aware static analysis for Kizzle
//!
//! Nine PRs in, the workspace's correctness rests on cross-crate
//! invariants that used to live only in prose: telemetry names must
//! match the checked-in schema, snapshot section names must agree
//! between every writer and reader, every perf-gate arm must correspond
//! to a real bench emitter, and library paths must route failures
//! through `KizzleError` rather than panic. This crate turns those
//! conventions into machine-checked lints that run as a CI gate
//! (`kizzle-analyze --deny-all`).
//!
//! The stack, bottom to top:
//!
//! * [`lexer`] — a total, hand-rolled Rust token scanner over raw
//!   bytes (raw strings, nested block comments, lifetime/char
//!   disambiguation; property-tested to never panic and to reconstruct
//!   any input from its spans);
//! * [`workspace`] — the walker that finds, classifies, and lexes
//!   every source file, and maps out `#[cfg(test)]`/`#[test]` regions;
//! * [`allow`] — the justified allowlist (`analysis/allow.toml`);
//!   every suppression carries a mandatory `reason`;
//! * [`lint`] + [`lints`] — the framework and the seven repo-specific
//!   checks. `ANALYSIS.md` at the workspace root catalogs them and
//!   documents how to add a new one.
//!
//! # Quickstart
//!
//! ```
//! use kizzle_analyze::lexer::{lex, TokenKind};
//!
//! let src = br##"let x = r#"raw // not a comment"#; // real comment"##;
//! let tokens = lex(src);
//! assert_eq!(tokens.iter().filter(|t| t.kind == TokenKind::Str).count(), 1);
//! assert_eq!(
//!     tokens.iter().filter(|t| t.kind == TokenKind::LineComment).count(),
//!     1
//! );
//! // Total: spans reconstruct the source byte-for-byte.
//! let rebuilt: Vec<u8> = tokens.iter().flat_map(|t| t.text(src).to_vec()).collect();
//! assert_eq!(rebuilt, src);
//! ```

#![forbid(unsafe_code)]

pub mod allow;
pub mod lexer;
pub mod lint;
pub mod lints;
pub mod workspace;

pub use lint::{all_lints, run, Finding, Report, Severity};
