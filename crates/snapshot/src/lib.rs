//! # kizzle-snapshot — durable warm-state persistence
//!
//! The production Kizzle deployment is a *cron job*, not a long-lived
//! process: the daily signature-compilation loop starts, processes one day,
//! and exits. Everything the incremental engine works hard to keep warm —
//! the corpus store, the neighbor index with its memoized neighborhoods,
//! the accumulated signature set — evaporates with the process, and the
//! next run silently pays the full cold rebuild. This crate is the format
//! layer that lets the warm state survive: a versioned, checksummed,
//! self-describing binary container with atomic write semantics.
//!
//! The crate is deliberately *domain-free*: it knows nothing about stores,
//! indexes or signatures. Domain crates (`kizzle-cluster`, `kizzle`)
//! depend on it and encode their own types with the primitives here.
//!
//! ## Layers
//!
//! * [`codec`] — [`Encoder`]/[`Decoder`]: explicit little-endian
//!   primitives (no `serde`, no reflection — every byte is written and
//!   read by hand, so the on-disk layout is exactly what the code says).
//! * [`container`] — [`SnapshotBuilder`]/[`Snapshot`]: a magic-tagged,
//!   versioned file of named sections, each independently CRC-32
//!   checksummed, with a whole-file checksum trailer. Readers can
//!   recover every intact section of a partially corrupted file, which
//!   is what lets a loader fall back per-section (rebuild the index from
//!   the store, the store from nothing) instead of panicking.
//!
//! A state directory holds one container, written **atomically**
//! ([`write_atomic`]: a `.tmp` sibling first, synced, then renamed over
//! the destination, then the directory synced). The rename is a save's
//! commit point, so a crash at any point leaves either the previous state
//! or the new one, never a mixture.
//!
//! ## Example
//!
//! ```
//! use kizzle_snapshot::{Decoder, Encoder, Snapshot, SnapshotBuilder};
//!
//! let mut enc = Encoder::new();
//! enc.u64(42);
//! enc.str("hello");
//! let mut builder = SnapshotBuilder::new();
//! builder.section("demo", enc.into_bytes());
//! let bytes = builder.to_bytes();
//!
//! let snap = Snapshot::from_bytes(&bytes).unwrap();
//! let mut dec = Decoder::new(snap.section("demo").unwrap());
//! assert_eq!(dec.u64().unwrap(), 42);
//! assert_eq!(dec.str().unwrap(), "hello");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod container;
pub mod sections;

pub use codec::{Decoder, Encoder};
pub use container::{write_atomic, Snapshot, SnapshotBuilder, FORMAT_VERSION};

use std::fmt;

/// Everything that can go wrong while writing or reading a snapshot.
///
/// The load paths built on this crate treat every variant as *recoverable*:
/// a corrupt or missing snapshot degrades to a cold rebuild, never a panic.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file does not start with the snapshot magic (not a snapshot, or
    /// the header itself was destroyed).
    BadMagic,
    /// The file is a snapshot but of an unsupported format version.
    VersionSkew {
        /// Version found in the file.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The file ends before the declared structure does.
    Truncated,
    /// A section's payload does not match its stored CRC-32.
    ChecksumMismatch {
        /// Name of the corrupted section.
        section: String,
    },
    /// A required section is absent (missing from the file, or lost to a
    /// truncated tail).
    SectionMissing {
        /// Name of the missing section.
        section: String,
    },
    /// A section decoded to something structurally impossible.
    Corrupt(String),
    /// The snapshot was written under a different configuration than the
    /// one trying to load it.
    ConfigMismatch {
        /// Fingerprint stored in the snapshot.
        found: u64,
        /// Fingerprint of the loading configuration.
        expected: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(err) => write!(f, "snapshot io error: {err}"),
            SnapshotError::BadMagic => write!(f, "not a kizzle snapshot (bad magic)"),
            SnapshotError::VersionSkew { found, expected } => {
                write!(
                    f,
                    "snapshot format version {found}, this build reads {expected}"
                )
            }
            SnapshotError::Truncated => write!(f, "snapshot is truncated"),
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section:?}")
            }
            SnapshotError::SectionMissing { section } => {
                write!(f, "section {section:?} is missing")
            }
            SnapshotError::Corrupt(what) => write!(f, "snapshot is corrupt: {what}"),
            SnapshotError::ConfigMismatch { found, expected } => write!(
                f,
                "snapshot was written under config fingerprint {found:#018x}, \
                 loader expects {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(err: std::io::Error) -> Self {
        SnapshotError::Io(err)
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the checksum
/// guarding every section and the file trailer.
///
/// Slicing-by-8: eight table lookups fold eight input bytes into the
/// register per step, so the dependency chain that bounds the
/// byte-at-a-time form at one lookup per byte is paid once per word.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLES: [[u32; 256]; 8] = crc32_tables();
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][word[4] as usize]
            ^ TABLES[2][word[5] as usize]
            ^ TABLES[1][word[6] as usize]
            ^ TABLES[0][word[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// `TABLES[0]` is the byte-at-a-time table; `TABLES[k][b]` is the register
/// after byte `b` followed by `k` zero bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical check value of CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn crc32_matches_the_bitwise_definition_at_every_length_and_alignment() {
        fn bitwise(bytes: &[u8]) -> u32 {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in bytes {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
                }
            }
            !crc
        }
        let data: Vec<u8> = (0u32..300)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        for align in 0..8 {
            for len in 0..=257 {
                let bytes = &data[align..align + len];
                assert_eq!(crc32(bytes), bitwise(bytes), "align {align} len {len}");
            }
        }
    }

    #[test]
    fn errors_render_helpfully() {
        let err = SnapshotError::VersionSkew {
            found: 9,
            expected: 1,
        };
        assert!(err.to_string().contains("version 9"));
        let err = SnapshotError::ChecksumMismatch {
            section: "store".into(),
        };
        assert!(err.to_string().contains("store"));
    }
}
