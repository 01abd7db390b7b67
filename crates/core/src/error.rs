//! The unified error type of the public Kizzle API.
//!
//! Before the service façade existed, failures leaked out of the crate in
//! whatever shape the layer that hit them happened to use: `save_state`
//! returned [`std::io::Error`], `load_state` returned
//! [`kizzle_snapshot::SnapshotError`], configuration problems panicked out
//! of `KizzleConfig::validated`, and a config-fingerprint mismatch was one
//! `SnapshotError` variant among many. [`KizzleError`] is the one type a
//! caller matches on instead — every public fallible operation on
//! [`KizzleService`](crate::KizzleService) returns it.

use kizzle_snapshot::SnapshotError;
use std::fmt;

/// Any error the public Kizzle API can return.
#[derive(Debug)]
pub enum KizzleError {
    /// A configuration violates a cross-module invariant (the message says
    /// which one). Produced by
    /// [`KizzleConfig::validate`](crate::KizzleConfig::validate).
    Config(String),
    /// Persisted state could not be read or written: container damage,
    /// version skew, a broken chain, or the underlying I/O failure. The
    /// inner [`SnapshotError`] carries the detail.
    Snapshot(SnapshotError),
    /// A snapshot was intact but was written under a configuration whose
    /// fingerprint disagrees with the loading one. Clustering parameters
    /// shape every piece of persisted state, so mixing them would silently
    /// corrupt results; the load is refused instead.
    ConfigFingerprint {
        /// Fingerprint recorded in the snapshot.
        found: u64,
        /// Fingerprint of the configuration trying to load it.
        expected: u64,
    },
    /// A day session was used out of order —
    /// [`KizzleService::begin_day`](crate::KizzleService::begin_day) (or a
    /// single-shot `process_day`) for a date earlier than the last opened
    /// day. (Mismatched parallel sample/stream slices are a programming
    /// error and panic instead.)
    Ingest(String),
    /// An operating-system I/O failure outside the snapshot container
    /// (creating the state directory, writing the state file).
    Io(std::io::Error),
}

impl fmt::Display for KizzleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KizzleError::Config(what) => write!(f, "invalid configuration: {what}"),
            KizzleError::Snapshot(err) => write!(f, "snapshot: {err}"),
            KizzleError::ConfigFingerprint { found, expected } => write!(
                f,
                "snapshot written under a different configuration \
                 (fingerprint {found:#018x}, expected {expected:#018x})"
            ),
            KizzleError::Ingest(what) => write!(f, "ingest: {what}"),
            KizzleError::Io(err) => write!(f, "io: {err}"),
        }
    }
}

impl std::error::Error for KizzleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KizzleError::Snapshot(err) => Some(err),
            KizzleError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<SnapshotError> for KizzleError {
    /// Snapshot errors keep their shape, except the fingerprint mismatch,
    /// which is prominent enough in operation (every config change trips
    /// it) to deserve its own variant.
    fn from(err: SnapshotError) -> Self {
        match err {
            SnapshotError::ConfigMismatch { found, expected } => {
                KizzleError::ConfigFingerprint { found, expected }
            }
            other => KizzleError::Snapshot(other),
        }
    }
}

impl From<std::io::Error> for KizzleError {
    fn from(err: std::io::Error) -> Self {
        KizzleError::Io(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_mismatch_gets_its_own_variant() {
        let err: KizzleError = SnapshotError::ConfigMismatch {
            found: 1,
            expected: 2,
        }
        .into();
        assert!(matches!(
            err,
            KizzleError::ConfigFingerprint {
                found: 1,
                expected: 2
            }
        ));
        let text = err.to_string();
        assert!(text.contains("fingerprint"), "display: {text}");
    }

    #[test]
    fn other_snapshot_errors_stay_snapshot() {
        let err: KizzleError = SnapshotError::Corrupt("bad section".into()).into();
        assert!(matches!(err, KizzleError::Snapshot(_)));
        assert!(err.to_string().contains("bad section"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn io_errors_wrap() {
        let err: KizzleError = std::io::Error::other("disk fell off").into();
        assert!(matches!(err, KizzleError::Io(_)));
        assert!(err.to_string().contains("disk fell off"));
    }
}
