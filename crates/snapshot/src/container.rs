//! The snapshot container: named, checksummed sections in one file.
//!
//! ## On-disk layout (all integers little-endian)
//!
//! ```text
//! magic            8 bytes   "KIZSNAP1"
//! format version   u32       FORMAT_VERSION
//! section count    u32
//! section × N:
//!   name length    u16
//!   name           UTF-8 bytes
//!   payload length u64
//!   payload CRC-32 u32       over the payload bytes alone
//!   payload        bytes
//! file CRC-32      u32       over every byte before this field
//! ```
//!
//! The design goals, in order:
//!
//! 1. **Detect, never trust.** A truncated file fails the structural walk
//!    or the trailer check; a flipped bit fails a section CRC; a snapshot
//!    of any other format version fails the version gate. All of these
//!    surface as [`SnapshotError`] values, not panics.
//! 2. **Degrade per section.** Section CRCs are independent, so a reader
//!    can recover every intact section of a damaged file —
//!    [`Snapshot::section`] reports corruption section-by-section, which
//!    lets the engine loader rebuild only what was actually lost.
//! 3. **Atomic replace.** [`SnapshotBuilder::write_atomic`] goes through a
//!    `.tmp` sibling and a rename, so a crash mid-write leaves the
//!    previous snapshot file untouched.

use crate::{crc32, SnapshotError};
use std::fs;
use std::io::Write;
use std::ops::Range;
use std::path::Path;
use std::sync::OnceLock;

/// File magic: identifies a Kizzle snapshot regardless of version.
pub const MAGIC: [u8; 8] = *b"KIZSNAP1";

/// Current container format version. Bump on any layout change.
///
/// Version 2 (ISSUE 4): section payloads written by the domain crates
/// carry sorted id runs as varint gaps, and snapshot state may span a
/// base→delta chain. The container layout of version 1 was the same but
/// its payload encodings were not, so the header version is the only
/// thing that tells them apart: a file stamped with any other version is
/// refused with [`SnapshotError::VersionSkew`] before a section is parsed.
///
/// Version 3: the neighbor-index section no longer carries the index's
/// symbol alphabet (its histograms use fixed buckets).
///
/// Version 4: a state directory holds one container per save instead of a
/// base→delta chain, and the signature section carries the publication
/// count in front of the set. No reader for version 3 is kept: the base of
/// an old chain read on its own is an *older* state than the chain
/// described, so it is refused rather than loaded.
///
/// Version 5: the signature section carries the compiler's token cap
/// between the publication count and the set, so a follower takes its
/// epoch, set and cap from one checksummed section. No reader for version
/// 4 is kept.
///
/// Version 6: every live entry of the neighbor-index section carries its
/// memoized eps-ball, so the per-entry flag byte that said whether one
/// followed is gone. No reader for version 5 is kept.
pub const FORMAT_VERSION: u32 = 6;

/// Accumulates named sections and serializes them into one container.
#[derive(Debug, Default)]
pub struct SnapshotBuilder {
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotBuilder {
    /// Create an empty builder.
    #[must_use]
    pub fn new() -> Self {
        SnapshotBuilder::default()
    }

    /// Append a named section. Names must be unique within one snapshot.
    ///
    /// # Panics
    ///
    /// Panics if a section with the same name was already added, or if the
    /// name exceeds `u16::MAX` bytes.
    pub fn section(&mut self, name: &str, payload: Vec<u8>) {
        assert!(
            self.sections.iter().all(|(n, _)| n != name),
            "duplicate snapshot section {name:?}"
        );
        assert!(name.len() <= usize::from(u16::MAX), "section name too long");
        self.sections.push((name.to_string(), payload));
    }

    /// Serialize the container to bytes.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(
            &u32::try_from(self.sections.len())
                .expect("u32 sections")
                .to_le_bytes(),
        );
        for (name, payload) in &self.sections {
            out.extend_from_slice(
                &u16::try_from(name.len())
                    .expect("checked in section()")
                    .to_le_bytes(),
            );
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&crc32(payload).to_le_bytes());
            out.extend_from_slice(payload);
        }
        let file_crc = crc32(&out);
        out.extend_from_slice(&file_crc.to_le_bytes());
        out
    }

    /// Serialize and write atomically: `.tmp` sibling, sync, rename.
    pub fn write_atomic(&self, path: &Path) -> std::io::Result<()> {
        write_atomic(path, &self.to_bytes())
    }
}

/// Write bytes to `path` atomically via a `.tmp` sibling and a rename.
///
/// The `.tmp` file is synced before the rename, and the parent directory
/// after it, so the rename itself is on disk before this returns. A state
/// save is one call of this, and the rename is its commit point: without
/// the directory sync a save could return, wake its followers and then be
/// undone by a power loss. No test observes the directory sync: only a
/// lost page cache tells a synced rename from an unsynced one, and that
/// takes a simulated file system under this call (ROADMAP item 4).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    fs::File::open(dir)?.sync_all()
}

/// One parsed section: where its payload sits in the file, and the
/// checksum it has to match.
#[derive(Debug)]
struct ParsedSection {
    name: String,
    /// The payload's range in [`Snapshot::bytes`].
    payload: Range<usize>,
    stored_crc: u32,
    /// Whether the payload matches `stored_crc` — decided by the first
    /// [`Snapshot::section`] call that asks for it.
    crc_ok: OnceLock<bool>,
}

/// A parsed snapshot container.
///
/// Parsing is *structural*: magic and version are enforced up front, then
/// the section table is walked as far as the file allows. Checksums are
/// verified when first asked for and remembered — a section's on its first
/// [`Snapshot::section`], the file trailer's on the first
/// [`Snapshot::is_complete`] — so a reader of two sections does not pay
/// for the rest, and one damaged section does not take the intact ones
/// down with it.
#[derive(Debug)]
pub struct Snapshot {
    /// The file as read.
    bytes: Vec<u8>,
    sections: Vec<ParsedSection>,
    /// Every declared section was present in full.
    complete: bool,
    /// Whether the whole-file trailer checksum verifies.
    file_crc_ok: OnceLock<bool>,
    /// The stored trailer checksum (the file's last four bytes).
    trailer_crc: u32,
}

impl Snapshot {
    /// Read and parse a snapshot file.
    pub fn read(path: &Path) -> Result<Self, SnapshotError> {
        Snapshot::parse(fs::read(path)?)
    }

    /// Parse a snapshot from bytes.
    ///
    /// Fails outright only when the header is unusable (wrong magic,
    /// unsupported version, or too short to carry a header). Structural
    /// damage further in leaves a partial snapshot with
    /// [`Snapshot::is_complete`] false and the surviving sections
    /// readable.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        Snapshot::parse(bytes.to_vec())
    }

    fn parse(bytes: Vec<u8>) -> Result<Self, SnapshotError> {
        if bytes.len() < MAGIC.len() + 8 {
            // Too short even for magic + version + count: if the prefix
            // matches the magic it is a truncated snapshot, otherwise it
            // is not a snapshot at all.
            return if bytes.starts_with(&MAGIC) || MAGIC.starts_with(&bytes) {
                Err(SnapshotError::Truncated)
            } else {
                Err(SnapshotError::BadMagic)
            };
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(SnapshotError::VersionSkew {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let declared = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;

        // The trailer covers everything before itself; a file shorter than
        // its declared structure simply fails the walk below.
        let trailer_crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));

        let mut sections = Vec::new();
        let mut pos = 16usize;
        let mut complete = true;
        // The last 4 bytes are the trailer; sections must fit before it.
        let body_end = bytes.len() - 4;
        for _ in 0..declared {
            let Some(parsed) = parse_section(&bytes, body_end, &mut pos) else {
                complete = false;
                break;
            };
            sections.push(parsed);
        }
        if pos != body_end {
            // Trailing garbage between the last section and the trailer.
            complete = false;
        }
        Ok(Snapshot {
            bytes,
            sections,
            complete,
            file_crc_ok: OnceLock::new(),
            trailer_crc,
        })
    }

    /// True when every declared section parsed and the file trailer
    /// checksum verified — the file is exactly as written.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.complete
            && *self.file_crc_ok.get_or_init(|| {
                let body = &self.bytes[..self.bytes.len() - 4];
                self.trailer_crc == crc32(body)
            })
    }

    /// Names of the sections that parsed structurally, in file order.
    #[must_use]
    pub fn section_names(&self) -> Vec<&str> {
        self.sections.iter().map(|s| s.name.as_str()).collect()
    }

    /// The payload of a named section, checksum-verified.
    ///
    /// Distinguishes "the section is gone" ([`SnapshotError::SectionMissing`],
    /// also the answer for sections lost to a truncated tail) from "the
    /// section is present but damaged" ([`SnapshotError::ChecksumMismatch`]).
    pub fn section(&self, name: &str) -> Result<&[u8], SnapshotError> {
        let Some(section) = self.sections.iter().find(|s| s.name == name) else {
            return Err(SnapshotError::SectionMissing {
                section: name.to_string(),
            });
        };
        let payload = &self.bytes[section.payload.clone()];
        if *section
            .crc_ok
            .get_or_init(|| crc32(payload) == section.stored_crc)
        {
            Ok(payload)
        } else {
            Err(SnapshotError::ChecksumMismatch {
                section: name.to_string(),
            })
        }
    }
}

/// Parse one section at `*pos`; `None` when the file ends first.
fn parse_section(bytes: &[u8], body_end: usize, pos: &mut usize) -> Option<ParsedSection> {
    let take = |pos: &mut usize, n: usize| -> Option<Range<usize>> {
        // checked: a crafted payload length near u64::MAX must read as
        // truncation, not wrap around and panic on a slice.
        let end = pos.checked_add(n)?;
        if end > body_end {
            return None;
        }
        let range = *pos..end;
        *pos = end;
        Some(range)
    };
    let name_len = u16::from_le_bytes(bytes[take(pos, 2)?].try_into().expect("2 bytes")) as usize;
    let name = std::str::from_utf8(&bytes[take(pos, name_len)?])
        .ok()?
        .to_string();
    let payload_len = u64::from_le_bytes(bytes[take(pos, 8)?].try_into().expect("8 bytes"));
    let payload_len = usize::try_from(payload_len).ok()?;
    let stored_crc = u32::from_le_bytes(bytes[take(pos, 4)?].try_into().expect("4 bytes"));
    Some(ParsedSection {
        name,
        payload: take(pos, payload_len)?,
        stored_crc,
        crc_ok: OnceLock::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_snapshot() -> Vec<u8> {
        let mut builder = SnapshotBuilder::new();
        builder.section("alpha", b"first payload".to_vec());
        builder.section("beta", b"second, longer payload with more bytes".to_vec());
        builder.section("empty", Vec::new());
        builder.to_bytes()
    }

    #[test]
    fn roundtrip_preserves_sections() {
        let bytes = demo_snapshot();
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        assert!(snap.is_complete());
        assert_eq!(snap.section_names(), vec!["alpha", "beta", "empty"]);
        assert_eq!(snap.section("alpha").unwrap(), b"first payload");
        assert_eq!(snap.section("empty").unwrap(), b"");
        assert!(matches!(
            snap.section("gamma"),
            Err(SnapshotError::SectionMissing { .. })
        ));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = demo_snapshot();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::BadMagic)
        ));
        assert!(matches!(
            Snapshot::from_bytes(b"not a snapshot at all"),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn version_skew_is_rejected() {
        let mut bytes = demo_snapshot();
        bytes[8] = 0xEE; // future version
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::VersionSkew { found, .. }) if found != FORMAT_VERSION
        ));
    }

    /// Version 5 is the layout whose index entries carried a flag byte in
    /// front of an optional eps-ball; no reader for it is kept.
    #[test]
    fn a_version_5_header_is_refused() {
        let mut bytes = demo_snapshot();
        bytes[8..12].copy_from_slice(&5u32.to_le_bytes());
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::VersionSkew {
                found: 5,
                expected: 6
            })
        ));
    }

    #[test]
    fn flipped_payload_byte_fails_only_that_section() {
        let full = demo_snapshot();
        let snap = Snapshot::from_bytes(&full).unwrap();
        let beta_payload = snap.section("beta").unwrap().to_vec();
        // Find beta's payload in the raw bytes and flip a bit of it.
        let at = full
            .windows(beta_payload.len())
            .position(|w| w == beta_payload)
            .expect("payload present verbatim");
        let mut damaged = full.clone();
        damaged[at] ^= 0x01;

        let snap = Snapshot::from_bytes(&damaged).unwrap();
        assert!(!snap.is_complete(), "file checksum must catch the flip");
        assert_eq!(snap.section("alpha").unwrap(), b"first payload");
        assert!(matches!(
            snap.section("beta"),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        assert_eq!(snap.section("empty").unwrap(), b"");
    }

    #[test]
    fn truncation_loses_the_tail_but_keeps_the_head() {
        let full = demo_snapshot();
        // Cut inside beta's payload: alpha stays intact; beta's truncated
        // bytes can no longer be parsed (and must not be trusted anyway).
        let cut = full.len() - 30;
        let snap = Snapshot::from_bytes(&full[..cut]).unwrap();
        assert!(!snap.is_complete());
        assert_eq!(snap.section("alpha").unwrap(), b"first payload");
        assert!(snap.section("beta").is_err());
        // Truncating into the header is fatal.
        assert!(matches!(
            Snapshot::from_bytes(&full[..6]),
            Err(SnapshotError::Truncated)
        ));
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("kizzle-snapshot-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.snap");

        let mut builder = SnapshotBuilder::new();
        builder.section("v", b"one".to_vec());
        builder.write_atomic(&path).unwrap();
        let first = Snapshot::read(&path).unwrap();
        assert_eq!(first.section("v").unwrap(), b"one");

        let mut builder = SnapshotBuilder::new();
        builder.section("v", b"two".to_vec());
        builder.write_atomic(&path).unwrap();
        let second = Snapshot::read(&path).unwrap();
        assert_eq!(second.section("v").unwrap(), b"two");

        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp file left behind");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "duplicate snapshot section")]
    fn duplicate_section_names_panic() {
        let mut builder = SnapshotBuilder::new();
        builder.section("x", Vec::new());
        builder.section("x", Vec::new());
    }
}
