//! Service state persistence: the cron-job deployment's survival layer.
//!
//! The production daily loop is a cron job, not a long-lived process
//! (ROADMAP), so everything a [`KizzleService`](crate::KizzleService)
//! accumulates across days — the warm corpus engine, the cumulative
//! [`SignatureSet`], the evolving reference corpus, the per-family
//! signature counters — died with each run until this module existed.
//! [`KizzleService::save`](crate::KizzleService::save) writes all of it as
//! the next link of a [`kizzle_snapshot`] **base→delta chain** (a full
//! base container, then per-day deltas holding only the sections whose
//! content fingerprint changed, compacted back to a fresh base every
//! [`DEFAULT_MAX_DELTAS`] saves; the `MANIFEST` sidecar records the
//! chain). [`KizzleService::load`](crate::KizzleService::load) overlays
//! the chain latest-wins and brings a fresh process back to exactly the
//! state the previous run saved: restart-each-day runs are byte-identical
//! to a long-lived warm process (held to that by
//! `save_load_resumes_exactly_like_a_long_lived_process` below and
//! `restart_each_day_matches_the_long_lived_run` in `kizzle-eval`). The
//! chain is the only on-disk shape: a full snapshot is a chain of length
//! one.
//!
//! ## Sections
//!
//! | section          | contents                                              |
//! |------------------|-------------------------------------------------------|
//! | `meta`           | config fingerprint, last processed day, sig counters  |
//! | `signatures`     | the cumulative signature set, insertion-ordered       |
//! | `reference`      | the reference corpus with its absorbed evolution      |
//! | `corpus-store`   | the engine's sample store (see `kizzle-cluster`)      |
//! | `neighbor-index` | memoized neighborhoods (see `kizzle-cluster`)         |
//!
//! The scan pipeline (anchor automaton, candidate buckets, prefilters; see
//! `kizzle_signature::matcher`) is not state: it is a pure function of the
//! signature set, so the chain stores the signatures and every reader
//! rebuilds the pipeline with [`SignatureSet::seal`]. A chain written by an
//! older build may still carry a `scan-pipeline` section; no reader looks
//! at it, and the next compaction drops it.
//!
//! ## Trust ladder
//!
//! Loading **refuses** a snapshot whose config fingerprint disagrees with
//! the loading configuration — clustering parameters shape every piece of
//! persisted state, so mixing them would silently corrupt results — and a
//! base container stamped with any format version but
//! [`FORMAT_VERSION`] (`SnapshotError::VersionSkew`, before a section is
//! parsed). The damage ladder, top rung first: a broken **delta**
//! truncates the chain to its intact prefix (the run resumes the base —
//! an older but self-consistent state); within the resulting snapshot, damage degrades
//! per section: a lost index rebuilds from the store, a lost store
//! empties the engine (cold rebuild), while damage to
//! `meta`/`signatures`/`reference` fails the load as a whole — those
//! cannot be reconstructed, and
//! [`KizzleService::open`](crate::KizzleService::open) falls back to a
//! fresh service exactly as if no snapshot existed.

use crate::config::KizzleConfig;
use crate::error::KizzleError;
use crate::pipeline::KizzleCompiler;
use crate::reference::ReferenceCorpus;
use kizzle_cluster::CorpusEngine;
pub use kizzle_cluster::ResumeReport;
use kizzle_corpus::{KitFamily, SimDate};
use kizzle_signature::SignatureSet;
use kizzle_snapshot::{
    ChainWriter, ChainedSnapshot, Decoder, Encoder, SectionSource, SnapshotError, FORMAT_VERSION,
};
use rayon::prelude::*;
use std::collections::HashMap;
use std::path::Path;

/// Chain file prefix of the compiler state (base file
/// `kizzle-state.snap`, deltas `kizzle-state.delta-N.snap`).
pub const STATE_CHAIN_PREFIX: &str = "kizzle-state";
/// Name of the base binary state file inside a state directory.
pub const STATE_FILE: &str = "kizzle-state.snap";
/// Name of the human-readable manifest sidecar.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Deltas a state chain accumulates before
/// [`KizzleService::save`](crate::KizzleService::save) compacts back to a
/// full base — a weekly cadence at one save per day.
pub const DEFAULT_MAX_DELTAS: usize = 6;

pub use kizzle_snapshot::sections::{
    META_SECTION, REFERENCE_SECTION, SIGNATURES_SECTION, WINDOW_SECTION,
};

/// Canonical byte encoding of every configuration field that shapes
/// persisted state, hashed with FNV-1a 64. Two configs with the same
/// fingerprint produce interchangeable snapshots; anything else is
/// refused at load.
#[must_use]
pub fn config_fingerprint(config: &KizzleConfig) -> u64 {
    let mut enc = Encoder::new();
    enc.usize(config.clustering.partitions);
    enc.f64(config.clustering.dbscan.eps);
    enc.usize(config.clustering.dbscan.min_points);
    // The retired partition-seed slot, always 0: keeps every saved
    // chain's fingerprint, and so its loadability, unchanged.
    enc.u64(0);
    enc.usize(config.token_cap);
    enc.usize(config.min_cluster_size);
    enc.usize(config.retention_days);
    enc.usize(config.winnow.k);
    enc.usize(config.winnow.window);
    enc.f64(config.label_threshold);
    enc.usize(config.signature.max_tokens);
    enc.usize(config.signature.min_tokens);
    enc.usize(config.signature.max_samples);
    let bytes = enc.into_bytes();
    // FNV-1a, 64-bit: stable across platforms and Rust versions (unlike
    // the std hasher, which is only stable within one std release).
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

struct Meta {
    fingerprint: u64,
    last_day: Option<SimDate>,
    counters: HashMap<KitFamily, usize>,
}

fn encode_meta(compiler: &KizzleCompiler, enc: &mut Encoder) {
    enc.u64(config_fingerprint(&compiler.config));
    match compiler.last_day {
        None => enc.bool(false),
        Some(day) => {
            enc.bool(true);
            enc.u32(day.year);
            enc.u32(day.month);
            enc.u32(day.day);
        }
    }
    let mut counters: Vec<(u8, u64)> = compiler
        .signature_counters
        .iter()
        .map(|(family, count)| (family.code(), *count as u64))
        .collect();
    counters.sort_unstable();
    enc.usize(counters.len());
    for (code, count) in counters {
        enc.u8(code);
        enc.u64(count);
    }
}

fn decode_meta(dec: &mut Decoder<'_>) -> Result<Meta, SnapshotError> {
    let corrupt = |what: &str| SnapshotError::Corrupt(format!("meta: {what}"));
    let fingerprint = dec.u64()?;
    let last_day = if dec.bool()? {
        let (year, month, day) = (dec.u32()?, dec.u32()?, dec.u32()?);
        if !(1..=12).contains(&month) || day < 1 || day > SimDate::days_in_month(month) {
            return Err(corrupt("calendar day out of range"));
        }
        Some(SimDate::new(year, month, day))
    } else {
        None
    };
    let counter_count = dec.usize()?;
    let mut counters = HashMap::new();
    for _ in 0..counter_count {
        let family =
            KitFamily::from_code(dec.u8()?).ok_or_else(|| corrupt("unknown family code"))?;
        let count = usize::try_from(dec.u64()?).map_err(|_| corrupt("counter exceeds usize"))?;
        if counters.insert(family, count).is_some() {
            return Err(corrupt("family counter duplicated"));
        }
    }
    Ok(Meta {
        fingerprint,
        last_day,
        counters,
    })
}

impl KizzleCompiler {
    /// Serialize every compiler section. The payloads are independent,
    /// so they encode through the rayon pool — a multi-core save costs the
    /// slowest section, not the sum.
    fn encode_state_sections(&self) -> Vec<(String, Vec<u8>)> {
        type Job<'a> = (&'a str, Box<dyn Fn() -> Vec<u8> + Sync + 'a>);
        let jobs: Vec<Job<'_>> = vec![
            (
                META_SECTION,
                Box::new(|| {
                    let mut enc = Encoder::new();
                    encode_meta(self, &mut enc);
                    enc.into_bytes()
                }),
            ),
            (
                SIGNATURES_SECTION,
                Box::new(|| {
                    // Insertion order, which the scan's first-match
                    // semantics depend on.
                    let mut enc = Encoder::new();
                    self.signatures.encode_into(&mut enc);
                    enc.into_bytes()
                }),
            ),
            (
                REFERENCE_SECTION,
                Box::new(|| {
                    let mut enc = Encoder::new();
                    self.reference.encode_into(&mut enc);
                    enc.into_bytes()
                }),
            ),
            (
                WINDOW_SECTION,
                Box::new(|| {
                    let mut enc = Encoder::new();
                    enc.varint_usize(self.day_views.len());
                    for (stamp, ids) in &self.day_views {
                        enc.varint(*stamp);
                        enc.varint_usize(ids.len());
                        for id in ids {
                            enc.varint(u64::from(id.raw()));
                        }
                    }
                    enc.into_bytes()
                }),
            ),
        ];
        // The engine owns its own section layout (names and payloads) —
        // `CorpusEngine::encode_sections` is the single producer, run
        // concurrently with the compiler-level jobs.
        let (payloads, engine_sections) = rayon::join(
            || -> Vec<Vec<u8>> { jobs.par_iter().map(|(_, job)| job()).collect() },
            || self.engine.encode_sections(),
        );
        let mut sections: Vec<(String, Vec<u8>)> = jobs
            .iter()
            .map(|(name, _)| (*name).to_string())
            .zip(payloads)
            .collect();
        sections.extend(engine_sections);
        sections
    }

    /// The body of [`KizzleService::save_compacting`](crate::KizzleService::save_compacting):
    /// the next link of the state chain, plus the manifest's descriptive
    /// keys.
    pub(crate) fn save_state(
        &self,
        state_dir: &Path,
        max_deltas: usize,
    ) -> Result<(), KizzleError> {
        let snapshot_span = kizzle_telemetry::span!("day.snapshot");
        let sections = self.encode_state_sections();
        let save = ChainWriter::new(state_dir, STATE_CHAIN_PREFIX).save(
            sections,
            max_deltas,
            |manifest, save| {
                manifest.set("snapshot_file", STATE_FILE);
                manifest.set("format_version", FORMAT_VERSION);
                manifest.set(
                    "config_fingerprint",
                    format!("{:#018x}", config_fingerprint(&self.config)),
                );
                manifest.set(
                    "last_day",
                    self.last_day
                        .map_or_else(|| "none".to_string(), |d| d.to_string()),
                );
                manifest.set("live_samples", self.engine.len());
                // Serving-side followers scan with the compile-time cap.
                manifest.set("token_cap", self.config.token_cap);
                manifest.set("cached_neighborhoods", self.engine.index().cached_count());
                manifest.set(SIGNATURES_SECTION, self.signatures.len());
                // What *this* save put on disk — the base on day 1 and
                // after compaction, otherwise a delta (or nothing on a
                // no-change day). The logical state spans the whole
                // `chain`, so a single "size of the snapshot" number no
                // longer exists.
                manifest.set(
                    "written_file",
                    save.file.as_deref().unwrap_or("none (no sections changed)"),
                );
                manifest.set("written_bytes", save.bytes);
            },
        )?;
        let snapshot_elapsed = snapshot_span.finish();
        // The manifest is committed: followers on this host need not wait
        // out their poll interval to read it.
        crate::source::wake_followers(state_dir);
        if kizzle_telemetry::enabled() {
            kizzle_telemetry::counter("kizzle_snapshot_saves_total").incr();
            kizzle_telemetry::histogram("kizzle_snapshot_save_ns")
                .observe_duration(snapshot_elapsed);
            kizzle_telemetry::event(
                "snapshot.save",
                format!(
                    "wrote {} ({} bytes)",
                    save.file
                        .as_deref()
                        .unwrap_or("nothing (no sections changed)"),
                    save.bytes
                ),
            );
        }
        Ok(())
    }

    /// The body of [`KizzleService::load`](crate::KizzleService::load):
    /// follow the base→delta chain recorded in the manifest down the trust
    /// ladder in the [module docs](self).
    pub(crate) fn load_state(
        state_dir: &Path,
        config: KizzleConfig,
    ) -> Result<(Self, ResumeReport), KizzleError> {
        let _load_span = kizzle_telemetry::span!("snapshot.load");
        if kizzle_telemetry::enabled() {
            kizzle_telemetry::counter("kizzle_snapshot_loads_total").incr();
        }
        let config = config.validate()?;
        let snapshot = ChainedSnapshot::open(state_dir, STATE_CHAIN_PREFIX)?;

        let mut dec = Decoder::new(snapshot.section(META_SECTION)?);
        let meta = decode_meta(&mut dec)?;
        dec.finish()?;
        let expected = config_fingerprint(&config);
        if meta.fingerprint != expected {
            return Err(KizzleError::ConfigFingerprint {
                found: meta.fingerprint,
                expected,
            });
        }

        // Signatures decode through the one shared section reader
        // (`kizzle::source`) — the same code path the serving-side
        // `ChainFollower` and `read_signatures` use.
        let signatures = crate::source::decode_signature_sections(&snapshot)?;

        let mut dec = Decoder::new(snapshot.section(REFERENCE_SECTION)?);
        let reference = ReferenceCorpus::decode_from(&mut dec)?;
        dec.finish()?;

        let (engine, mut report) = CorpusEngine::resume_from_sections(config.clustering, &snapshot);
        for chain_note in snapshot.notes() {
            report.note(chain_note.clone());
        }

        // Day views are only meaningful against the engine they were saved
        // with: if the engine degraded (or the section is damaged), window
        // clustering starts over rather than pointing at dead ids.
        let day_views = snapshot.section(WINDOW_SECTION).and_then(|payload| {
            let mut dec = Decoder::new(payload);
            let view_count = dec.varint_usize()?;
            let mut views = Vec::with_capacity(view_count.min(1 << 10));
            for _ in 0..view_count {
                let stamp = dec.varint()?;
                let id_count = dec.varint_usize()?;
                let mut ids = Vec::with_capacity(id_count.min(1 << 20));
                for _ in 0..id_count {
                    let raw = u32::try_from(dec.varint()?)
                        .map_err(|_| SnapshotError::Corrupt("window view id exceeds u32".into()))?;
                    let id = kizzle_cluster::SampleId::new(raw);
                    if !engine.store().contains(id) {
                        return Err(SnapshotError::Corrupt(
                            "window view names a dead sample".into(),
                        ));
                    }
                    ids.push(id);
                }
                views.push((stamp, ids));
            }
            dec.finish()?;
            Ok(views)
        });
        let day_views = match day_views {
            Ok(views) => views,
            Err(err) => {
                report.note(format!(
                    "window views lost, window clustering starts over: {err}"
                ));
                Vec::new()
            }
        };

        Ok((
            KizzleCompiler {
                config,
                reference,
                signatures: std::sync::Arc::new(signatures),
                signature_counters: meta.counters,
                engine,
                last_day: meta.last_day,
                day_views,
            },
            report,
        ))
    }

    /// The body of [`KizzleService::open`](crate::KizzleService::open):
    /// load saved state, or fall back to a fresh compiler (with the reason
    /// in the report) when no usable snapshot exists.
    pub(crate) fn load_or_new(
        state_dir: &Path,
        config: KizzleConfig,
        reference: impl FnOnce() -> ReferenceCorpus,
    ) -> (Self, ResumeReport) {
        match KizzleCompiler::load_state(state_dir, config) {
            Ok(loaded) => loaded,
            Err(err) => {
                let mut report = ResumeReport::default();
                report.note(format!("state not loadable, fresh compiler: {err}"));
                (KizzleCompiler::new(config, reference()), report)
            }
        }
    }
}

/// Read just the signature set out of the state chain in `state_dir` —
/// what `examples/signature_inspect` uses to inspect deployed signatures
/// without recompiling them. The recorded deltas are overlaid so the
/// *newest* signature section answers; the set comes back unsealed.
///
/// # Errors
///
/// A file path — a chain's base or one of its deltas — is refused with an
/// error naming its directory: a chain's files only make sense together,
/// and a delta read on its own would answer with an older set. A missing
/// directory is the chain's not-found error.
pub fn read_signatures(state_dir: &Path) -> Result<SignatureSet, KizzleError> {
    if state_dir.is_file() {
        let holder = state_dir
            .parent()
            .filter(|parent| !parent.as_os_str().is_empty())
            .unwrap_or(Path::new("."));
        return Err(std::io::Error::other(format!(
            "{} is a file, not a state directory; pass its directory {}",
            state_dir.display(),
            holder.display()
        ))
        .into());
    }
    let chained = ChainedSnapshot::open(state_dir, STATE_CHAIN_PREFIX)?;
    // The one shared section reader (`kizzle::source`) interprets the
    // layout.
    Ok(crate::source::decode_signature_sections(&chained)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{ChainFollower, SignatureSource};
    use crate::KizzleService;
    use kizzle_corpus::{GraywareStream, Sample, StreamConfig};
    use kizzle_signature::{CharClass, Element, Signature};
    use kizzle_snapshot::{crc32, Manifest, Snapshot, SnapshotBuilder};
    use std::sync::Arc;

    fn test_day(date: SimDate, seed: u64) -> Vec<Sample> {
        let config = StreamConfig {
            samples_per_day: 48,
            malicious_fraction: 0.5,
            family_weights: vec![
                (KitFamily::Angler, 0.4),
                (KitFamily::Nuclear, 0.3),
                (KitFamily::SweetOrange, 0.3),
            ],
            seed,
        };
        GraywareStream::new(config).generate_day(date)
    }

    fn fresh_service() -> KizzleService {
        let reference =
            ReferenceCorpus::seeded_from_models(SimDate::new(2014, 8, 1), &KizzleConfig::fast());
        KizzleService::new(KizzleConfig::fast(), reference).expect("fast config is valid")
    }

    fn state_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kizzle-state-test-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn save_load_resumes_exactly_like_a_long_lived_process() {
        let dir = state_dir("roundtrip");
        let d1 = SimDate::new(2014, 8, 5);
        let d2 = SimDate::new(2014, 8, 6);
        let day1 = test_day(d1, 3);
        let day2 = test_day(d2, 4);

        // Long-lived: both days through one service.
        let mut long_lived = fresh_service();
        long_lived.process_day(d1, &day1).expect("day 1");
        let want = long_lived.process_day(d2, &day2).expect("day 2");

        // Cron-style: day 1, save, drop, load, day 2.
        let mut first_run = fresh_service();
        first_run.process_day(d1, &day1).expect("day 1");
        first_run.save(&dir).expect("state saved");
        drop(first_run);
        let (mut second_run, report) =
            KizzleService::load(&dir, KizzleConfig::fast()).expect("state loads");
        assert!(
            report.store_restored && report.index_restored,
            "report: {report:?}"
        );
        assert_eq!(second_run.last_processed_day(), Some(d1));
        let got = second_run.process_day(d2, &day2).expect("day 2");

        // Byte-identical modulo wall clock.
        let mut want = want;
        let mut got = got;
        want.clustering_stats = Default::default();
        got.clustering_stats = Default::default();
        assert_eq!(want, got);
        assert_eq!(&*long_lived.signatures(), &*second_run.signatures());
        assert_eq!(long_lived.engine().len(), second_run.engine().len());
        // The multi-day window mode resumes identically too: the retained
        // day views survived the snapshot.
        let (window_live, _) = long_lived.cluster_window();
        let (window_resumed, _) = second_run.cluster_window();
        assert_eq!(window_live, window_resumed);
        assert!(window_live.cluster_count() > 0, "window found no clusters");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_config_fingerprint_is_refused() {
        let dir = state_dir("mismatch");
        let service = fresh_service();
        service.save(&dir).expect("state saved");
        let mut other = KizzleConfig::fast();
        other.retention_days += 1;
        assert!(matches!(
            KizzleService::load(&dir, other),
            Err(KizzleError::ConfigFingerprint { .. })
        ));
        // open degrades to a fresh service instead.
        let reference = ReferenceCorpus::seeded_from_models(SimDate::new(2014, 8, 1), &other);
        let (fresh, report) = KizzleService::open(&dir, other, || reference).expect("opens");
        assert!(fresh.engine().is_empty());
        assert!(!report.notes.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_and_damaged_snapshots_degrade_without_panicking() {
        let dir = state_dir("damage");
        // Missing directory: fresh service.
        let reference =
            ReferenceCorpus::seeded_from_models(SimDate::new(2014, 8, 1), &KizzleConfig::fast());
        let open = |reference: &ReferenceCorpus| {
            KizzleService::open(&dir, KizzleConfig::fast(), || reference.clone()).expect("opens")
        };
        let (fresh, report) = open(&reference);
        assert!(fresh.signatures().is_empty());
        assert!(!report.notes.is_empty());

        // Truncated file: load errors, open degrades.
        let mut service = fresh_service();
        let d1 = SimDate::new(2014, 8, 5);
        service.process_day(d1, test_day(d1, 3)).expect("day 1");
        service.save(&dir).expect("state saved");
        let path = dir.join(STATE_FILE);
        let full = std::fs::read(&path).expect("snapshot bytes");
        std::fs::write(&path, &full[..full.len() / 3]).expect("truncate");
        assert!(KizzleService::load(&dir, KizzleConfig::fast()).is_err());
        let (_, report) = open(&reference);
        assert!(!report.notes.is_empty());

        // Version skew: the version field is bytes 8..12.
        let mut skewed = full.clone();
        skewed[8] = 0x7F;
        std::fs::write(&path, &skewed).expect("rewrite");
        assert!(matches!(
            KizzleService::load(&dir, KizzleConfig::fast()),
            Err(KizzleError::Snapshot(SnapshotError::VersionSkew { .. }))
        ));

        // A flipped byte somewhere in the sections: either the damaged
        // section is one the engine can rebuild around, or the load fails —
        // never a panic, never a silent wrong answer.
        let mut flipped = full.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        std::fs::write(&path, &flipped).expect("rewrite");
        let (_, _) = open(&reference);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_describes_the_saved_state() {
        let dir = state_dir("manifest");
        let mut service = fresh_service();
        let d1 = SimDate::new(2014, 8, 5);
        service.process_day(d1, test_day(d1, 3)).expect("day 1");
        service.save(&dir).expect("state saved");
        let manifest = Manifest::read(&dir.join(MANIFEST_FILE)).expect("manifest");
        assert_eq!(manifest.get("snapshot_file"), Some(STATE_FILE));
        assert_eq!(
            manifest.get("config_fingerprint"),
            Some(format!("{:#018x}", config_fingerprint(service.config())).as_str())
        );
        assert_eq!(manifest.get("last_day"), Some("8/5/14"));
        // Day 1 wrote the full base; `written_*` describe that save.
        assert_eq!(manifest.get("written_file"), Some(STATE_FILE));
        let bytes: usize = manifest
            .get("written_bytes")
            .unwrap()
            .parse()
            .expect("numeric");
        assert_eq!(bytes, std::fs::read(dir.join(STATE_FILE)).unwrap().len());
        // A second day's save extends the chain with a delta, and the
        // manifest must describe *that* file — not misquote the base.
        let d2 = SimDate::new(2014, 8, 6);
        service.process_day(d2, test_day(d2, 4)).expect("day 2");
        service.save(&dir).expect("state saved");
        let manifest = Manifest::read(&dir.join(MANIFEST_FILE)).expect("manifest");
        let written = manifest.get("written_file").expect("written_file");
        assert_ne!(written, STATE_FILE, "day 2 must be a delta");
        let bytes: usize = manifest
            .get("written_bytes")
            .unwrap()
            .parse()
            .expect("numeric");
        assert_eq!(bytes, std::fs::read(dir.join(written)).unwrap().len());
        assert_eq!(
            manifest.get(kizzle_snapshot::sections::CHAIN_KEY),
            Some(format!("{STATE_FILE} {written}").as_str())
        );
        // read_signatures follows the chain from the state directory.
        let set = read_signatures(&dir).expect("signatures");
        assert_eq!(&set, &*service.signatures());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A chain's files only make sense together: `read_signatures` takes
    /// the state directory and refuses the base or a delta read alone —
    /// the delta would otherwise answer with the set it overlays, an older
    /// one — naming the directory to pass instead.
    #[test]
    fn read_signatures_refuses_a_chain_file() {
        let dir = state_dir("read-file");
        let mut service = fresh_service();
        for (day, seed) in [(5, 3), (6, 4)] {
            let date = SimDate::new(2014, 8, day);
            service
                .process_day(date, test_day(date, seed))
                .expect("day");
            service.save(&dir).expect("state saved");
        }
        let manifest = Manifest::read(&dir.join(MANIFEST_FILE)).expect("manifest");
        let delta = manifest.get("written_file").expect("written_file");
        assert_ne!(delta, STATE_FILE, "day 2 must be a delta");
        for file in [STATE_FILE, delta] {
            let err = read_signatures(&dir.join(file)).expect_err("a file is refused");
            let message = err.to_string();
            assert!(
                message.contains(&format!("pass its directory {}", dir.display())),
                "{file}: {message}"
            );
        }
        assert_eq!(
            &read_signatures(&dir).expect("the directory reads"),
            &*service.signatures()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Stamp `version` into a container's header (bytes 8..12) and
    /// recompute the trailer CRC, so the version field is the only thing a
    /// reader can object to.
    fn restamp(path: &Path, version: u32) -> Vec<u8> {
        let mut bytes = std::fs::read(path).expect("container bytes");
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(path, &bytes).expect("rewrite");
        bytes
    }

    #[test]
    fn other_format_versions_are_refused_at_every_layer() {
        let d1 = SimDate::new(2014, 8, 5);
        let d2 = SimDate::new(2014, 8, 6);
        let reference =
            ReferenceCorpus::seeded_from_models(SimDate::new(2014, 8, 1), &KizzleConfig::fast());
        // The layout before the current one, and a future one.
        for version in [FORMAT_VERSION - 1, FORMAT_VERSION + 1] {
            let dir = state_dir(&format!("version-gate-{version}"));
            let mut service = fresh_service();
            service.process_day(d1, test_day(d1, 3)).expect("day 1");
            service.save(&dir).expect("state saved");
            // A follower that loaded the intact chain serves epoch 1.
            let serving = Arc::new(ChainFollower::new(&dir));
            assert!(serving.poll().expect("intact chain"));
            let served = serving.current();
            assert_eq!(served.0, 1);
            assert!(serving.notes().is_empty());

            // The next save compacts to a fresh base (and rewrites the
            // manifest, so the follower re-opens) — stamped `version`.
            service.process_day(d2, test_day(d2, 4)).expect("day 2");
            service.save_compacting(&dir, 0).expect("state saved");
            assert!(service.signatures().len() > served.1.len());
            let bytes = restamp(&dir.join(STATE_FILE), version);

            // (i) The container refuses the header before any section.
            assert!(matches!(
                Snapshot::from_bytes(&bytes),
                Err(SnapshotError::VersionSkew { found, expected: FORMAT_VERSION })
                    if found == version
            ));

            // (ii) `load` is a typed error, `open` a fresh service that
            // says why.
            assert!(matches!(
                KizzleService::load(&dir, KizzleConfig::fast()),
                Err(KizzleError::Snapshot(SnapshotError::VersionSkew { found, .. }))
                    if found == version
            ));
            let (fresh, report) =
                KizzleService::open(&dir, KizzleConfig::fast(), || reference.clone())
                    .expect("opens");
            assert!(fresh.signatures().is_empty() && fresh.engine().is_empty());
            let skew = format!("format version {version}");
            assert!(
                report.notes.iter().any(|n| n.contains(&skew)),
                "notes: {:?}",
                report.notes
            );

            // (iii) Followers never swap to a set they could not decode: a
            // fresh one stays on the empty set at epoch 0, the serving one
            // re-opens (the manifest moved) and stays on the epoch it had
            // — each with the condition in its notes.
            // Each refusal also counts in METRICS. Telemetry is switched on
            // process-wide for the loop and the counter only grows, so other
            // tests running meanwhile can add to it but never hide a rise.
            kizzle_telemetry::set_enabled(true);
            let failures = kizzle_telemetry::counter("kizzle_chain_poll_failures_total");
            let failed_before = failures.value();
            let fresh_follower = Arc::new(ChainFollower::new(&dir));
            for follower in [&fresh_follower, &serving] {
                let handle = follower.follow(std::time::Duration::from_millis(1));
                while follower.notes().is_empty() {
                    std::thread::yield_now();
                }
                handle.shutdown();
                assert!(
                    follower.notes().iter().any(|n| n.contains(&skew)),
                    "notes: {:?}",
                    follower.notes()
                );
            }
            kizzle_telemetry::set_enabled(false);
            assert!(
                failures.value() >= failed_before + 2,
                "one counted failure per follower at least"
            );
            assert_eq!(fresh_follower.current().0, 0);
            assert!(fresh_follower.current().1.is_empty());
            assert_eq!(serving.current().0, served.0);
            assert!(Arc::ptr_eq(&serving.current().1, &served.1));
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn config_fingerprint_is_sensitive_to_every_field() {
        let base = KizzleConfig::paper();
        let fp = config_fingerprint(&base);
        assert_eq!(fp, config_fingerprint(&KizzleConfig::paper()), "stable");

        let mut c = base;
        c.retention_days += 1;
        assert_ne!(fp, config_fingerprint(&c));
        let mut c = base;
        c.clustering.dbscan.eps += 0.01;
        assert_ne!(fp, config_fingerprint(&c));
        let mut c = base;
        c.token_cap += 1;
        assert_ne!(fp, config_fingerprint(&c));
        assert_ne!(fp, config_fingerprint(&KizzleConfig::fast()));
    }

    #[test]
    fn curated_config_fingerprints_are_pinned() {
        // Saved chains record these values; a change here orphans every
        // existing state directory written under `paper()` or `fast()`.
        assert_eq!(
            config_fingerprint(&KizzleConfig::paper()),
            0xac30_d3f7_7c3d_1f6c
        );
        assert_eq!(
            config_fingerprint(&KizzleConfig::fast()),
            0xe9d0_274f_e58c_696d
        );
    }

    #[test]
    fn family_codes_roundtrip() {
        // The codes are persisted: their order is part of the format.
        for (code, family) in (0u8..).zip(KitFamily::ALL) {
            assert_eq!(family.code(), code);
            assert_eq!(KitFamily::from_code(code), Some(family));
        }
        assert_eq!(KitFamily::from_code(200), None);
    }

    /// The resumed service publishes its set sealed, and a follower swaps
    /// its set in sealed, neither with a note: the pipeline is rebuilt from
    /// the signatures on every load, which is not a degradation.
    #[test]
    fn resumed_and_followed_sets_arrive_sealed_without_notes() {
        let dir = state_dir("pipeline");
        let mut service = fresh_service();
        let d1 = SimDate::new(2014, 8, 5);
        service.process_day(d1, test_day(d1, 3)).expect("day 1");
        service.save(&dir).expect("state saved");
        let (resumed, report) =
            KizzleService::load(&dir, KizzleConfig::fast()).expect("state loads");
        assert!(
            report.store_restored && report.index_restored,
            "report: {report:?}"
        );
        assert!(report.notes.is_empty(), "notes: {:?}", report.notes);
        assert!(resumed.signatures().is_sealed());
        assert_eq!(&*resumed.signatures(), &*service.signatures());

        let follower = ChainFollower::new(&dir);
        assert!(follower.poll().expect("the follower loads it"));
        assert!(follower.notes().is_empty(), "notes: {:?}", follower.notes());
        let (_, served) = follower.current();
        assert!(served.is_sealed());
        assert_eq!(&*served, &*service.signatures());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Chains saved before the scan pipeline stopped being stored carry a
    /// `scan-pipeline` section beside the signatures. No reader looks at
    /// it: load, `read_signatures` and a follower return the same set with
    /// no notes, every verdict is a freshly built set's, and the next
    /// compacting save drops the section.
    #[test]
    fn v1_scan_pipeline_sections_reseal_on_load_and_follow() {
        const RETIRED_SCAN_SECTION: &str = "scan-pipeline";
        let dir = state_dir("pipeline-v1");
        let mut service = fresh_service();
        let d1 = SimDate::new(2014, 8, 5);
        service.process_day(d1, test_day(d1, 3)).expect("day 1");
        service.save(&dir).expect("state saved");

        // Rewrite the base with the retired section added: a version 1
        // stamp, then bytes no pipeline decoder would accept. Every other
        // section is byte-identical.
        let path = dir.join(STATE_FILE);
        let base = Snapshot::read(&path).expect("base reads");
        let mut builder = SnapshotBuilder::new();
        for name in base.section_names() {
            builder.section(name, base.section(name).expect("intact").to_vec());
        }
        builder.section(
            RETIRED_SCAN_SECTION,
            vec![1, 0, 0xFF, 0xFF, 0x7F, 0x00, 0x13],
        );
        builder.write_atomic(&path).expect("rewrite");

        let (mut resumed, report) =
            KizzleService::load(&dir, KizzleConfig::fast()).expect("the chain resumes");
        assert!(
            report.store_restored && report.index_restored,
            "report: {report:?}"
        );
        assert!(report.notes.is_empty(), "notes: {:?}", report.notes);
        let read = read_signatures(&dir).expect("chain reads");
        let follower = ChainFollower::new(&dir);
        assert!(follower.poll().expect("the follower loads it"));
        assert!(follower.notes().is_empty(), "notes: {:?}", follower.notes());
        let (epoch, served) = follower.current();
        assert_eq!(epoch, 1);
        for set in [&*resumed.signatures(), &read, &*served] {
            assert_eq!(set, &*service.signatures());
        }

        let mut fresh = SignatureSet::new();
        fresh.extend(service.signatures().iter().cloned());
        let cap = KizzleConfig::fast().token_cap;
        let mut hits = 0;
        for sample in test_day(d1, 3)
            .iter()
            .chain(&test_day(SimDate::new(2014, 8, 6), 9))
        {
            let want = fresh.scan_document_index(&sample.html, cap);
            for set in [&*resumed.signatures(), &read, &*served] {
                assert_eq!(set.scan_document_index(&sample.html, cap), want);
            }
            hits += usize::from(want.is_some());
        }
        assert!(hits > 0, "the probe documents must include hits");

        let d2 = SimDate::new(2014, 8, 6);
        resumed.process_day(d2, test_day(d2, 4)).expect("day 2");
        resumed.save_compacting(&dir, 0).expect("compacting save");
        let base = Snapshot::read(&path).expect("base reads");
        assert!(
            !base.section_names().contains(&RETIRED_SCAN_SECTION),
            "the compacted base still declares the retired section"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn signature_set_roundtrips_in_order() {
        let mut set = SignatureSet::new();
        set.add(
            "Nuclear",
            Signature::new(
                "NEK.sig1",
                vec![
                    Element::Literal("this".to_string()),
                    Element::Class {
                        class: CharClass::AlphaNum,
                        min_len: 3,
                        max_len: 5,
                    },
                ],
                7,
            ),
        );
        set.add(
            "RIG",
            Signature::new("RIG.sig1", vec![Element::Literal("split".to_string())], 4),
        );
        let mut enc = Encoder::new();
        set.encode_into(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let restored = SignatureSet::decode_from(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(restored, set);
        assert_eq!(restored.labels(), set.labels());
    }
}
