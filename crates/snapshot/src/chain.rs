//! Base→delta snapshot chains: incremental day-over-day persistence.
//!
//! A full snapshot of the warm engine rewrites every section every day,
//! but on heavily overlapping daily corpora most sections do not change —
//! the day's churn touches the store and index, while e.g. the reference
//! corpus often stays byte-identical. A **chain** persists state as one
//! full *base* file plus a sequence of *delta* files, each holding only
//! the sections whose content fingerprint (CRC-32 + length) changed since
//! the previous save. The logical snapshot is the latest-wins overlay of
//! the whole chain.
//!
//! ## On-disk shape
//!
//! Every chain file is an ordinary [`Snapshot`]
//! container. A delta additionally carries a [`DELTA_META_SECTION`]
//! recording its 1-based sequence number and the trailer CRC-32 of its
//! predecessor, so a delta can never be applied to a base it was not
//! written against (compaction rewrites the base, orphaning old deltas).
//! The `MANIFEST` sidecar records the chain order (`chain = base delta-1
//! …`) and the per-section fingerprints the next save diffs against.
//!
//! ## Degradation ladder
//!
//! [`ChainedSnapshot::open`] extends the PR 3 fallback ladder one rung up:
//! a delta that is missing, damaged in any byte (deltas must pass the
//! whole-file checksum), out of sequence, or bound to a different
//! predecessor **truncates the chain at that point** — the reader resumes
//! from the base plus the intact prefix, which is simply an older (still
//! self-consistent) state. A damaged base degrades per section exactly as
//! before, and an unreadable base is the caller's signal to start cold.
//! Nothing in this module panics on foreign bytes.
//!
//! Writing stays atomic end to end: the chain file first (`.tmp`, fsync,
//! rename), the manifest after — a crash between the two leaves the
//! previous manifest pointing at the previous, still-valid chain.

use crate::codec::{Decoder, Encoder};
use crate::container::{Snapshot, SnapshotBuilder};
use crate::manifest::Manifest;
use crate::{fingerprint, SectionSource, SnapshotError};
use std::path::{Path, PathBuf};

pub use crate::sections::{CHAIN_KEY, DELTA_META_SECTION, HEAD_CRC_KEY, SECTION_KEY_PREFIX};

/// Default manifest file name inside a chain directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// What one [`ChainWriter::save`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainSave {
    /// File written this save, if any (`None` when nothing changed and no
    /// compaction was due).
    pub file: Option<String>,
    /// True when the save wrote (or rewrote) the full base file.
    pub wrote_base: bool,
    /// Number of payload sections in the written file.
    pub sections_written: usize,
    /// Bytes of the written file.
    pub bytes: usize,
    /// Files in the chain after this save, base first.
    pub chain: Vec<String>,
}

/// The trailer CRC of serialized container bytes (their last 4 bytes).
fn trailer_of(bytes: &[u8]) -> u32 {
    let tail: [u8; 4] = bytes[bytes.len() - 4..].try_into().expect("4 bytes");
    u32::from_le_bytes(tail)
}

fn encode_delta_meta(seq: u64, prev_crc: u32) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.varint(seq);
    enc.u32(prev_crc);
    enc.into_bytes()
}

fn decode_delta_meta(payload: &[u8]) -> Result<(u64, u32), SnapshotError> {
    let mut dec = Decoder::new(payload);
    let seq = dec.varint()?;
    let prev_crc = dec.u32()?;
    dec.finish()?;
    Ok((seq, prev_crc))
}

/// A file name is chain-safe when it cannot escape the chain directory.
fn safe_file_name(name: &str) -> bool {
    !name.is_empty() && !name.contains(['/', '\\']) && name != "." && name != ".."
}

/// Writes a snapshot chain into a directory: full base, then deltas of
/// changed sections, with periodic compaction back to a fresh base.
///
/// The writer itself is stateless — each [`ChainWriter::save`] reads the
/// chain position back from the manifest, so restarted cron processes
/// continue the chain exactly where the previous process left it.
///
/// A chain directory hosts **one** chain: the `MANIFEST` records a single
/// `chain`/`head_crc`/`section.*` set, so two writers with different
/// prefixes in one directory would overwrite each other's record (the
/// loser degrades to its bare base file on the next open). Give each
/// chain its own directory.
#[derive(Debug, Clone)]
pub struct ChainWriter {
    dir: PathBuf,
    prefix: String,
}

impl ChainWriter {
    /// A writer for the chain `<dir>/<prefix>.snap` +
    /// `<dir>/<prefix>.delta-N.snap`, described by `<dir>/MANIFEST`.
    ///
    /// # Panics
    ///
    /// Panics if `prefix` is not a plain file-name stem.
    #[must_use]
    pub fn new(dir: &Path, prefix: &str) -> Self {
        assert!(safe_file_name(prefix), "chain prefix must be a plain name");
        ChainWriter {
            dir: dir.to_path_buf(),
            prefix: prefix.to_string(),
        }
    }

    /// Name of the base file.
    #[must_use]
    pub fn base_file(&self) -> String {
        format!("{}.snap", self.prefix)
    }

    fn delta_file(&self, seq: u64) -> String {
        format!("{}.delta-{seq}.snap", self.prefix)
    }

    /// Persist `sections` as the next link of the chain.
    ///
    /// Writes a **delta** of the sections whose fingerprint changed since
    /// the manifest's record, or a **full base** when there is no usable
    /// chain record yet, the recorded chain no longer verifies on disk (a
    /// broken delta must not be extended — readers could never walk past
    /// it, so everything appended after it would be dead on arrival), or
    /// the chain already carries `max_deltas` deltas (compaction: the
    /// base is rewritten and stale delta files removed). `max_deltas ==
    /// 0` therefore means "always write full snapshots". When nothing
    /// changed, no file is written at all.
    ///
    /// `decorate` runs on the manifest before it is written, with the
    /// pending [`ChainSave`] — callers add their descriptive keys (sizes,
    /// last day, …) there. The chain keys (`chain`, `section.*`) are
    /// managed by this method.
    pub fn save(
        &self,
        sections: Vec<(String, Vec<u8>)>,
        max_deltas: usize,
        decorate: impl FnOnce(&mut Manifest, &ChainSave),
    ) -> std::io::Result<ChainSave> {
        std::fs::create_dir_all(&self.dir)?;
        let manifest_path = self.dir.join(MANIFEST_FILE);
        let previous = Manifest::read(&manifest_path).ok();
        // Fingerprints of what we are about to write — the manifest record
        // for the *next* save's diff, and the basis of this save's.
        let fingerprints: Vec<(String, String)> = sections
            .iter()
            .map(|(name, payload)| (name.clone(), fingerprint(payload)))
            .collect();

        // The chain record we would extend: file list + head trailer CRC +
        // every section fingerprint, and the on-disk files must still
        // verify end to end. Any gap forces a fresh base.
        let record = previous.as_ref().and_then(|m| {
            let chain = parse_chain(m)?;
            if chain.first().map(String::as_str) != Some(self.base_file().as_str()) {
                return None;
            }
            let head_crc = parse_crc(m.get(HEAD_CRC_KEY)?)?;
            let old_fingerprints: Vec<(String, String)> = sections
                .iter()
                .map(|(name, _)| {
                    let key = format!("{SECTION_KEY_PREFIX}{name}");
                    m.get(&key).map(|v| (name.clone(), v.to_string()))
                })
                .collect::<Option<_>>()?;
            if !self.chain_extendable(&chain, head_crc) {
                return None;
            }
            Some((chain, head_crc, old_fingerprints))
        });

        let (mut chain, file, wrote_base, written_sections, bytes) = match record {
            Some((chain, head_crc, old_fingerprints)) if chain.len() <= max_deltas => {
                // Extend with a delta of the changed sections only.
                let changed: Vec<bool> = fingerprints
                    .iter()
                    .zip(&old_fingerprints)
                    .map(|((name, fp), (old_name, old_fp))| {
                        debug_assert_eq!(name, old_name);
                        fp != old_fp
                    })
                    .collect();
                let changed_count = changed.iter().filter(|&&c| c).count();
                if changed_count == 0 {
                    let save = ChainSave {
                        file: None,
                        wrote_base: false,
                        sections_written: 0,
                        bytes: 0,
                        chain: chain.clone(),
                    };
                    self.write_manifest(
                        &manifest_path,
                        &chain,
                        None,
                        &fingerprints,
                        &save,
                        decorate,
                    )?;
                    return Ok(save);
                }
                let seq = chain.len() as u64; // base is seq 0
                let mut builder = SnapshotBuilder::new();
                builder.section(DELTA_META_SECTION, encode_delta_meta(seq, head_crc));
                for ((name, payload), include) in sections.into_iter().zip(changed) {
                    if include {
                        builder.section(&name, payload);
                    }
                }
                let bytes = builder.to_bytes();
                let file = self.delta_file(seq);
                crate::container::write_atomic(&self.dir.join(&file), &bytes)?;
                (chain, file, false, changed_count, bytes)
            }
            _ => {
                // Fresh base: full snapshot, chain restarts at length 1.
                let section_count = sections.len();
                let mut builder = SnapshotBuilder::new();
                for (name, payload) in sections {
                    builder.section(&name, payload);
                }
                let bytes = builder.to_bytes();
                let file = self.base_file();
                crate::container::write_atomic(&self.dir.join(&file), &bytes)?;
                // Stale deltas (from the compacted-away chain) are dead
                // weight at best and a wrong-chain hazard at worst; their
                // removal is best-effort, because the delta-meta binding
                // already refuses them at read time. Only files of *this*
                // writer's prefix are touched — a manifest naming foreign
                // files (another chain's record, or a tampered one) must
                // never let this save delete data it does not own.
                let own_delta = format!("{}.delta-", self.prefix);
                if let Some(old_chain) = previous.as_ref().and_then(parse_chain) {
                    for stale in old_chain.iter().skip(1) {
                        if safe_file_name(stale) && *stale != file && stale.starts_with(&own_delta)
                        {
                            std::fs::remove_file(self.dir.join(stale)).ok();
                        }
                    }
                }
                (Vec::new(), file, true, section_count, bytes)
            }
        };
        let head_crc = trailer_of(&bytes);
        if wrote_base {
            chain = vec![file.clone()];
        } else {
            chain.push(file.clone());
        }
        let save = ChainSave {
            file: Some(file),
            wrote_base,
            sections_written: written_sections,
            bytes: bytes.len(),
            chain: chain.clone(),
        };
        self.write_manifest(
            &manifest_path,
            &chain,
            Some(head_crc),
            &fingerprints,
            &save,
            decorate,
        )?;
        Ok(save)
    }

    /// True when the recorded chain still verifies on disk end to end:
    /// every delta present, pristine, in sequence and bound to its
    /// predecessor, with the last trailer matching the recorded
    /// `head_crc`. Extending a chain a reader would truncate earlier
    /// appends unreachable state — days of "successful" saves silently
    /// lost — so an unverifiable chain is compacted instead. Cost per
    /// save: 4 bytes of the base plus the delta files, which compaction
    /// keeps small by design.
    fn chain_extendable(&self, chain: &[String], head_crc: u32) -> bool {
        let Some(mut prev_crc) = read_trailer(&self.dir.join(&chain[0])) else {
            return false;
        };
        for (position, file) in chain.iter().enumerate().skip(1) {
            let Ok(snapshot) = Snapshot::read(&self.dir.join(file)) else {
                return false;
            };
            if !snapshot.is_complete() {
                return false;
            }
            let meta = snapshot
                .section(DELTA_META_SECTION)
                .and_then(decode_delta_meta);
            let Ok((seq, bound_crc)) = meta else {
                return false;
            };
            if seq != position as u64 || bound_crc != prev_crc {
                return false;
            }
            let Some(trailer) = snapshot.trailer_crc() else {
                return false;
            };
            prev_crc = trailer;
        }
        prev_crc == head_crc
    }

    /// Write the manifest: chain keys first, caller decoration after.
    /// `head_crc == None` keeps the previously recorded value (no file was
    /// written this save).
    fn write_manifest(
        &self,
        path: &Path,
        chain: &[String],
        head_crc: Option<u32>,
        fingerprints: &[(String, String)],
        save: &ChainSave,
        decorate: impl FnOnce(&mut Manifest, &ChainSave),
    ) -> std::io::Result<()> {
        let mut manifest = Manifest::new();
        manifest.set(CHAIN_KEY, chain.join(" "));
        let head_crc = head_crc.or_else(|| {
            Manifest::read(path)
                .ok()
                .and_then(|m| parse_crc(m.get(HEAD_CRC_KEY)?))
        });
        // A chain record without a head CRC cannot be extended; recording
        // 0 would be worse (a delta bound to a wrong predecessor), so the
        // key is simply dropped and the next save writes a fresh base.
        if let Some(crc) = head_crc {
            manifest.set(HEAD_CRC_KEY, format!("{crc:#010x}"));
        }
        for (name, fp) in fingerprints {
            manifest.set(&format!("{SECTION_KEY_PREFIX}{name}"), fp);
        }
        decorate(&mut manifest, save);
        manifest.write_atomic(path)
    }
}

/// The stored trailer CRC of a container file, read without loading the
/// payload (the last 4 bytes).
fn read_trailer(path: &Path) -> Option<u32> {
    use std::io::{Read, Seek, SeekFrom};
    let mut file = std::fs::File::open(path).ok()?;
    if file.metadata().ok()?.len() < 4 {
        return None;
    }
    file.seek(SeekFrom::End(-4)).ok()?;
    let mut buf = [0u8; 4];
    file.read_exact(&mut buf).ok()?;
    Some(u32::from_le_bytes(buf))
}

fn parse_chain(manifest: &Manifest) -> Option<Vec<String>> {
    let value = manifest.get(CHAIN_KEY)?;
    let files: Vec<String> = value.split_whitespace().map(str::to_string).collect();
    if files.is_empty() || !files.iter().all(|f| safe_file_name(f)) {
        return None;
    }
    Some(files)
}

fn parse_crc(value: &str) -> Option<u32> {
    u32::from_str_radix(value.trim_start_matches("0x"), 16).ok()
}

/// The latest-wins overlay of a loaded base→delta chain.
///
/// Sections resolve from the newest layer that declares them; because
/// deltas are only accepted fully intact, a checksum failure can only
/// surface from the base layer — exactly the per-section degradation the
/// PR 3 loaders already handle.
#[derive(Debug)]
pub struct ChainedSnapshot {
    /// Base first, deltas in applied order.
    layers: Vec<Snapshot>,
    /// Files actually loaded, parallel to `layers`.
    files: Vec<String>,
    /// Human-readable reasons for every chain truncation taken.
    notes: Vec<String>,
}

impl ChainedSnapshot {
    /// Load the chain recorded in `<dir>/MANIFEST` for `prefix`.
    ///
    /// Returns `Err` only when no base state is readable at all (the
    /// caller's cold-start signal). A missing or unusable manifest falls
    /// back to the bare base file; broken deltas truncate the chain with
    /// a note.
    pub fn open(dir: &Path, prefix: &str) -> Result<Self, SnapshotError> {
        let mut notes = Vec::new();
        let base_file = format!("{prefix}.snap");
        let chain = match Manifest::read(&dir.join(MANIFEST_FILE)) {
            Ok(manifest) => match parse_chain(&manifest) {
                Some(chain) if chain[0] == base_file => chain,
                Some(_) => {
                    notes.push(
                        "manifest chain names a different base, resuming base file only"
                            .to_string(),
                    );
                    vec![base_file]
                }
                None => vec![base_file],
            },
            Err(err) => {
                notes.push(format!(
                    "manifest unreadable ({err}), resuming base file only"
                ));
                vec![base_file]
            }
        };

        // The base must parse (possibly damaged); deltas must be pristine.
        let base = Snapshot::read(&dir.join(&chain[0]))?;
        let mut prev_crc = base.trailer_crc();
        let mut layers = vec![base];
        let mut files = vec![chain[0].clone()];
        for (position, file) in chain.iter().enumerate().skip(1) {
            let truncate = |what: String, notes: &mut Vec<String>| {
                notes.push(format!(
                    "delta chain broken at {file} ({what}); resuming the {} intact file(s) before it",
                    position
                ));
            };
            let snapshot = match Snapshot::read(&dir.join(file)) {
                Ok(snapshot) => snapshot,
                Err(err) => {
                    truncate(err.to_string(), &mut notes);
                    break;
                }
            };
            if !snapshot.is_complete() {
                truncate("file damaged".to_string(), &mut notes);
                break;
            }
            let meta = snapshot
                .section(DELTA_META_SECTION)
                .and_then(decode_delta_meta);
            match (meta, prev_crc) {
                (Ok((seq, bound_crc)), Some(prev))
                    if seq == position as u64 && bound_crc == prev => {}
                (Ok(_), _) => {
                    truncate("sequence or predecessor mismatch".to_string(), &mut notes);
                    break;
                }
                (Err(err), _) => {
                    truncate(format!("delta meta unreadable: {err}"), &mut notes);
                    break;
                }
            }
            prev_crc = snapshot.trailer_crc();
            layers.push(snapshot);
            files.push(file.clone());
        }
        Ok(ChainedSnapshot {
            layers,
            files,
            notes,
        })
    }

    /// Files loaded, base first — shorter than the manifest's chain when
    /// a broken delta truncated it.
    #[must_use]
    pub fn files(&self) -> &[String] {
        &self.files
    }

    /// Why the chain was truncated, if it was.
    #[must_use]
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Number of layers actually overlaid (base + intact deltas).
    #[must_use]
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Trailer CRC of the base layer — the chain's identity: deltas only
    /// ever extend the chain under it, and a compaction (which rewrites
    /// the base) changes it.
    #[must_use]
    pub fn base_crc(&self) -> Option<u32> {
        self.layers.first().and_then(Snapshot::trailer_crc)
    }

    /// How many of the layers from index `from` on declare `section`. A
    /// delta carries exactly the sections its save changed, so over the
    /// deltas appended since a reader last looked this is the number of
    /// saves that changed it.
    #[must_use]
    pub fn layers_declaring(&self, from: usize, section: &str) -> usize {
        self.layers
            .iter()
            .skip(from)
            .filter(|layer| layer.has_section(section))
            .count()
    }
}

impl SectionSource for ChainedSnapshot {
    /// Latest-wins: the newest layer declaring the section answers for it
    /// — including with a checksum error, which only the base can produce
    /// (deltas are rejected wholesale unless pristine).
    fn section(&self, name: &str) -> Result<&[u8], SnapshotError> {
        for layer in self.layers.iter().rev() {
            if layer.has_section(name) {
                return layer.section(name);
            }
        }
        Err(SnapshotError::SectionMissing {
            section: name.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kizzle-chain-test-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sections(a: &[u8], b: &[u8]) -> Vec<(String, Vec<u8>)> {
        vec![("alpha".into(), a.to_vec()), ("beta".into(), b.to_vec())]
    }

    #[test]
    fn first_save_is_a_base_then_deltas_only_carry_changes() {
        let dir = temp_dir("basics");
        let writer = ChainWriter::new(&dir, "state");

        let save = writer.save(sections(b"a1", b"b1"), 4, |_, _| {}).unwrap();
        assert!(save.wrote_base);
        assert_eq!(save.sections_written, 2);
        assert_eq!(save.chain, vec!["state.snap".to_string()]);

        // Only beta changes: one payload section in the delta.
        let save = writer.save(sections(b"a1", b"b2"), 4, |_, _| {}).unwrap();
        assert!(!save.wrote_base);
        assert_eq!(save.sections_written, 1);
        assert_eq!(save.file.as_deref(), Some("state.delta-1.snap"));

        // Nothing changes: no file at all.
        let save = writer.save(sections(b"a1", b"b2"), 4, |_, _| {}).unwrap();
        assert_eq!(save.file, None);
        assert_eq!(save.chain.len(), 2);

        let chained = ChainedSnapshot::open(&dir, "state").unwrap();
        assert_eq!(chained.layer_count(), 2);
        assert_eq!(chained.section("alpha").unwrap(), b"a1");
        assert_eq!(chained.section("beta").unwrap(), b"b2");
        assert!(chained.notes().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_rewrites_the_base_and_removes_stale_deltas() {
        let dir = temp_dir("compaction");
        let writer = ChainWriter::new(&dir, "state");
        writer.save(sections(b"a1", b"b1"), 2, |_, _| {}).unwrap();
        writer.save(sections(b"a1", b"b2"), 2, |_, _| {}).unwrap();
        let save = writer.save(sections(b"a1", b"b3"), 2, |_, _| {}).unwrap();
        assert_eq!(save.file.as_deref(), Some("state.delta-2.snap"));
        // Chain is now base + 2 deltas == max: the next save compacts.
        let save = writer.save(sections(b"a2", b"b3"), 2, |_, _| {}).unwrap();
        assert!(save.wrote_base);
        assert_eq!(save.chain, vec!["state.snap".to_string()]);
        assert!(!dir.join("state.delta-1.snap").exists());
        assert!(!dir.join("state.delta-2.snap").exists());

        let chained = ChainedSnapshot::open(&dir, "state").unwrap();
        assert_eq!(chained.layer_count(), 1);
        assert_eq!(chained.section("alpha").unwrap(), b"a2");
        assert_eq!(chained.section("beta").unwrap(), b"b3");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn max_deltas_zero_always_writes_full_snapshots() {
        let dir = temp_dir("full-only");
        let writer = ChainWriter::new(&dir, "state");
        for payload in [b"b1", b"b2"] {
            let save = writer.save(sections(b"a", payload), 0, |_, _| {}).unwrap();
            assert!(save.wrote_base);
            assert_eq!(save.chain.len(), 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn broken_delta_truncates_the_chain_to_the_base() {
        let dir = temp_dir("broken-delta");
        let writer = ChainWriter::new(&dir, "state");
        writer.save(sections(b"a1", b"b1"), 4, |_, _| {}).unwrap();
        writer.save(sections(b"a1", b"b2"), 4, |_, _| {}).unwrap();
        writer.save(sections(b"a2", b"b2"), 4, |_, _| {}).unwrap();

        // Flip one byte of delta 1: it and everything after must drop.
        let path = dir.join("state.delta-1.snap");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let chained = ChainedSnapshot::open(&dir, "state").unwrap();
        assert_eq!(chained.layer_count(), 1, "notes: {:?}", chained.notes());
        assert_eq!(chained.section("alpha").unwrap(), b"a1");
        assert_eq!(chained.section("beta").unwrap(), b"b1");
        assert_eq!(chained.notes().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_after_a_broken_delta_compacts_instead_of_extending() {
        let dir = temp_dir("extend-broken");
        let writer = ChainWriter::new(&dir, "state");
        writer.save(sections(b"a1", b"b1"), 8, |_, _| {}).unwrap();
        writer.save(sections(b"a1", b"b2"), 8, |_, _| {}).unwrap();

        // Vandalize the delta on disk; the manifest still records it, but
        // extending would append state no reader could ever reach.
        let path = dir.join("state.delta-1.snap");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let save = writer.save(sections(b"a2", b"b3"), 8, |_, _| {}).unwrap();
        assert!(save.wrote_base, "broken chain must compact: {save:?}");
        assert_eq!(save.chain, vec!["state.snap".to_string()]);
        assert!(!dir.join("state.delta-1.snap").exists());

        let chained = ChainedSnapshot::open(&dir, "state").unwrap();
        assert_eq!(chained.layer_count(), 1);
        assert_eq!(chained.section("alpha").unwrap(), b"a2");
        assert_eq!(chained.section("beta").unwrap(), b"b3");
        assert!(chained.notes().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_after_a_deleted_delta_compacts_instead_of_extending() {
        let dir = temp_dir("extend-deleted");
        let writer = ChainWriter::new(&dir, "state");
        writer.save(sections(b"a1", b"b1"), 8, |_, _| {}).unwrap();
        writer.save(sections(b"a1", b"b2"), 8, |_, _| {}).unwrap();
        std::fs::remove_file(dir.join("state.delta-1.snap")).unwrap();

        let save = writer.save(sections(b"a1", b"b3"), 8, |_, _| {}).unwrap();
        assert!(save.wrote_base, "gapped chain must compact: {save:?}");
        let chained = ChainedSnapshot::open(&dir, "state").unwrap();
        assert_eq!(chained.section("beta").unwrap(), b"b3");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delta_bound_to_a_different_base_is_refused() {
        let dir = temp_dir("rebind");
        let writer = ChainWriter::new(&dir, "state");
        writer.save(sections(b"a1", b"b1"), 4, |_, _| {}).unwrap();
        writer.save(sections(b"a1", b"b2"), 4, |_, _| {}).unwrap();
        // Rewrite the base out-of-band (as a crashed compaction would):
        // the surviving delta no longer matches its predecessor CRC.
        let mut builder = SnapshotBuilder::new();
        builder.section("alpha", b"aX".to_vec());
        builder.section("beta", b"bX".to_vec());
        builder.write_atomic(&dir.join("state.snap")).unwrap();

        let chained = ChainedSnapshot::open(&dir, "state").unwrap();
        assert_eq!(chained.layer_count(), 1);
        assert_eq!(chained.section("beta").unwrap(), b"bX");
        assert!(
            chained.notes()[0].contains("predecessor"),
            "notes: {:?}",
            chained.notes()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_manifest_resumes_the_bare_base() {
        let dir = temp_dir("no-manifest");
        let writer = ChainWriter::new(&dir, "state");
        writer.save(sections(b"a1", b"b1"), 4, |_, _| {}).unwrap();
        writer.save(sections(b"a1", b"b2"), 4, |_, _| {}).unwrap();
        std::fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();

        let chained = ChainedSnapshot::open(&dir, "state").unwrap();
        assert_eq!(chained.layer_count(), 1);
        assert_eq!(chained.section("beta").unwrap(), b"b1");
        assert_eq!(chained.notes().len(), 1);

        // And the next save starts a fresh base rather than guessing.
        let save = writer.save(sections(b"a9", b"b9"), 4, |_, _| {}).unwrap();
        assert!(save.wrote_base);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_base_is_a_cold_start_error() {
        let dir = temp_dir("no-base");
        assert!(ChainedSnapshot::open(&dir, "state").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn decorate_keys_land_in_the_manifest() {
        let dir = temp_dir("decorate");
        let writer = ChainWriter::new(&dir, "state");
        writer
            .save(sections(b"a", b"b"), 4, |m, _| m.set("last_day", "8/5/14"))
            .unwrap();
        let manifest = Manifest::read(&dir.join(MANIFEST_FILE)).unwrap();
        assert_eq!(manifest.get("last_day"), Some("8/5/14"));
        assert_eq!(manifest.get(CHAIN_KEY), Some("state.snap"));
        assert!(manifest.get("section.alpha").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }
}
