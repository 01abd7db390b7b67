//! The single registry of snapshot section names.
//!
//! Every named slot in the on-disk format is declared here, once. Domain
//! crates (`kizzle`, `kizzle-cluster`) re-export the constants they own
//! so call sites read naturally, but the *values* live in this module
//! alone: a writer and a reader that disagree on a section name silently
//! drop state on the floor, so the `section-registry` lint
//! (`kizzle-analyze`) forbids these string values as literals anywhere
//! else in library or binary code.
//!
//! The module carries names only — no domain types — so the snapshot
//! crate stays format-level. Adding a section means adding a constant
//! here; the lint picks the new value up automatically by reading this
//! file.

/// Section holding fingerprint, day counter and signature counters.
pub const META_SECTION: &str = "meta";
/// Section holding the publication count, the token cap and the cumulative
/// signature set.
pub const SIGNATURES_SECTION: &str = "signatures";
/// Section holding the reference corpus.
pub const REFERENCE_SECTION: &str = "reference";
/// Section holding the cluster corpus store (sample bytes + metadata).
pub const STORE_SECTION: &str = "corpus-store";
/// Section holding the neighbor index (caches, no sample bytes).
pub const INDEX_SECTION: &str = "neighbor-index";
