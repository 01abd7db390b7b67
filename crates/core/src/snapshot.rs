//! Service state persistence: the cron-job deployment's survival layer.
//!
//! The production daily loop is a cron job, not a long-lived process
//! (ROADMAP), so everything a [`KizzleService`](crate::KizzleService)
//! accumulates across days — the warm corpus engine, the cumulative
//! [`SignatureSet`], the evolving reference corpus, the per-family
//! signature counters — died with each run until this module existed.
//! [`KizzleService::save`](crate::KizzleService::save) writes all of it as
//! one [`kizzle_snapshot`] container, [`STATE_FILE`], written atomically
//! (tmp file, fsync, rename, directory fsync). The rename is the save's
//! commit point, so a crash at any point leaves the previous state or the
//! new one — a reader never sees a mixture, and a leftover `.tmp` is
//! never read.
//! [`KizzleService::load`](crate::KizzleService::load) reads that one file
//! and brings a fresh process back to exactly the state the previous run
//! saved: restart-each-day runs are byte-identical to a long-lived warm
//! process (held to that by
//! `save_load_resumes_exactly_like_a_long_lived_process` below and
//! `restart_each_day_matches_the_long_lived_run` in `kizzle-eval`).
//!
//! Every save writes every section. Day-over-day deltas of only the
//! changed sections would not write less on any measured workload: the
//! day's churn reaches every section but the small reference one, so a
//! delta carried 99.97–100 % of a full state (PERF.md, "Persistence").
//!
//! ## Sections
//!
//! | section          | contents                                              |
//! |------------------|-------------------------------------------------------|
//! | `meta`           | config fingerprint, last processed day, sig counters  |
//! | `signatures`     | publication count, token cap, then the signature set  |
//! | `reference`      | the reference corpus with its absorbed evolution      |
//! | `corpus-store`   | the engine's sample store (see `kizzle-cluster`)      |
//! | `neighbor-index` | memoized neighborhoods (see `kizzle-cluster`)         |
//!
//! The publication count is the number of saves that published: the
//! first save of a fresh compiler, and every save after a signature was
//! added — the epoch every
//! [`ChainFollower`](crate::ChainFollower) of the directory serves. It
//! sits in the same checksummed section as the set it counts, beside the
//! token cap the set was compiled under, so one read of the file gives a
//! follower all three, and no save can pair a new set with an old count
//! or another configuration's cap.
//!
//! The scan pipeline (anchor automaton, candidate buckets, prefilters; see
//! `kizzle_signature::matcher`) is not state: it is a pure function of the
//! signature set, so the file stores the signatures and every reader
//! rebuilds the pipeline with [`SignatureSet::seal`]. A section no reader
//! asks for (such as the `scan-pipeline` section older builds wrote) is
//! ignored, and the next save drops it.
//!
//! ## Trust ladder
//!
//! Loading **refuses** a snapshot whose config fingerprint disagrees with
//! the loading configuration — clustering parameters shape every piece of
//! persisted state, so mixing them would silently corrupt results — and a
//! container stamped with any format version but
//! [`FORMAT_VERSION`](kizzle_snapshot::FORMAT_VERSION)
//! (`SnapshotError::VersionSkew`, before a section is parsed; the base
//! file of a version-3 chain is such a container, and an older state than
//! its chain described). Within the file, damage degrades per section: a
//! lost index is rebuilt from the store at load, every eps-ball computed
//! again before the first day runs, a lost store empties the engine (cold
//! rebuild), while damage to `meta`/`signatures`/`reference` fails
//! the load as a whole — those cannot be reconstructed, and
//! [`KizzleService::open`](crate::KizzleService::open) falls back to a
//! fresh service exactly as if no snapshot existed. There is no older
//! state on disk to fall back to: a follower keeps serving the last set
//! it decoded instead.

use crate::config::KizzleConfig;
use crate::error::KizzleError;
use crate::pipeline::KizzleCompiler;
use crate::reference::ReferenceCorpus;
use kizzle_cluster::CorpusEngine;
pub use kizzle_cluster::ResumeReport;
use kizzle_corpus::{KitFamily, SimDate};
use kizzle_signature::SignatureSet;
use kizzle_snapshot::{write_atomic, Decoder, Encoder, Snapshot, SnapshotBuilder, SnapshotError};
use std::collections::HashMap;
use std::path::Path;

/// Name of the state file, the one file of a state directory.
pub const STATE_FILE: &str = "kizzle-state.snap";

pub use kizzle_snapshot::sections::{META_SECTION, REFERENCE_SECTION, SIGNATURES_SECTION};

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

/// The signature section's payload: the publication count, the token cap,
/// then the set.
fn encode_publication(count: u64, token_cap: usize, signatures: &SignatureSet) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.varint(count);
    enc.varint_usize(token_cap);
    // Insertion order, which the scan's first-match semantics depend on.
    signatures.encode_into(&mut enc);
    enc.into_bytes()
}

/// Decode the signature section's payload: the publication count, the
/// token cap and the set, unsealed. This is the **single** reader of that
/// section — [`KizzleService::load`](crate::KizzleService::load),
/// [`read_signatures`] and the [`ChainFollower`](crate::ChainFollower)
/// all route through it, so the layout has exactly one interpretation.
pub(crate) fn decode_publication(
    payload: &[u8],
) -> Result<(u64, usize, SignatureSet), SnapshotError> {
    let mut dec = Decoder::new(payload);
    let count = dec.varint()?;
    let token_cap = dec.varint_usize()?;
    let signatures = SignatureSet::decode_from(&mut dec)?;
    dec.finish()?;
    Ok((count, token_cap, signatures))
}

impl KizzleCompiler {
    /// Serialize every compiler section, the signature section given. The
    /// payloads are independent, so they encode through the rayon pool — a
    /// multi-core save costs the slowest section, not the sum.
    fn encode_state_sections(&self, signatures: Vec<u8>) -> Vec<(String, Vec<u8>)> {
        let ((meta, reference), engine_sections) = rayon::join(
            || {
                rayon::join(
                    || {
                        let mut enc = Encoder::new();
                        encode_meta(self, &mut enc);
                        enc.into_bytes()
                    },
                    || {
                        let mut enc = Encoder::new();
                        self.reference.encode_into(&mut enc);
                        enc.into_bytes()
                    },
                )
            },
            // The engine owns its own section layout (names and payloads)
            // — `CorpusEngine::encode_sections` is the single producer.
            || self.engine.encode_sections(),
        );
        let mut sections = vec![
            (META_SECTION.to_string(), meta),
            (SIGNATURES_SECTION.to_string(), signatures),
            (REFERENCE_SECTION.to_string(), reference),
        ];
        sections.extend(engine_sections);
        sections
    }

    /// The body of [`KizzleService::save`](crate::KizzleService::save):
    /// one atomic write of the state file, whose rename commits the save.
    pub(crate) fn save_state(&mut self, state_dir: &Path) -> Result<(), KizzleError> {
        let snapshot_span = kizzle_telemetry::span!("day.snapshot");
        // A publishing save takes the next count; any other keeps the last.
        let publications = self.publications + u64::from(self.publish_pending);
        let signatures = encode_publication(publications, self.config.token_cap, &self.signatures);
        let mut builder = SnapshotBuilder::new();
        for (name, payload) in self.encode_state_sections(signatures) {
            builder.section(&name, payload);
        }
        let bytes = builder.to_bytes();
        std::fs::create_dir_all(state_dir)?;
        write_atomic(&state_dir.join(STATE_FILE), &bytes)?;
        self.publications = publications;
        self.publish_pending = false;
        let snapshot_elapsed = snapshot_span.finish();
        // The save is committed: followers on this host need not wait out
        // their poll interval to read it.
        crate::source::wake_followers(state_dir);
        if kizzle_telemetry::enabled() {
            kizzle_telemetry::counter("kizzle_snapshot_saves_total").incr();
            kizzle_telemetry::histogram("kizzle_snapshot_save_ns")
                .observe_duration(snapshot_elapsed);
            let last_day = self
                .last_day
                .map_or_else(|| "none".to_string(), |d| d.to_string());
            kizzle_telemetry::event(
                "snapshot.save",
                format!(
                    "wrote {STATE_FILE} ({} bytes): last day {last_day}, {} signatures, {} live samples",
                    bytes.len(),
                    self.signatures.len(),
                    self.engine.len()
                ),
            );
        }
        Ok(())
    }

    /// The body of [`KizzleService::load`](crate::KizzleService::load):
    /// read the state file down the trust ladder in the
    /// [module docs](self).
    pub(crate) fn load_state(
        state_dir: &Path,
        config: KizzleConfig,
    ) -> Result<(Self, ResumeReport), KizzleError> {
        let _load_span = kizzle_telemetry::span!("snapshot.load");
        if kizzle_telemetry::enabled() {
            kizzle_telemetry::counter("kizzle_snapshot_loads_total").incr();
        }
        let config = config.validate()?;
        let snapshot = Snapshot::read(&state_dir.join(STATE_FILE))?;

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

        let (publications, _, signatures) =
            decode_publication(snapshot.section(SIGNATURES_SECTION)?)?;

        let mut dec = Decoder::new(snapshot.section(REFERENCE_SECTION)?);
        let reference = ReferenceCorpus::decode_from(&mut dec)?;
        dec.finish()?;

        let (engine, report) = CorpusEngine::resume_from_sections(config.clustering, &snapshot);
        Ok((
            KizzleCompiler {
                config,
                reference,
                signatures: std::sync::Arc::new(signatures),
                signature_counters: meta.counters,
                engine,
                last_day: meta.last_day,
                publications,
                publish_pending: false,
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

/// Read just the signature set out of the state file in `state_dir` —
/// what `examples/signature_inspect` uses to inspect deployed signatures
/// without recompiling them. The set comes back unsealed.
///
/// # Errors
///
/// A file path — the state file itself included — is refused with an
/// error naming its directory: the directory is the unit a compiler saves
/// and a follower tails. A missing directory is the state file's
/// not-found error.
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
    let snapshot = Snapshot::read(&state_dir.join(STATE_FILE))?;
    Ok(decode_publication(snapshot.section(SIGNATURES_SECTION)?)?.2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{ChainFollower, SignatureSource};
    use crate::KizzleService;
    use kizzle_corpus::{GraywareStream, Sample, StreamConfig};
    use kizzle_signature::{CharClass, Element, Signature};
    use kizzle_snapshot::{crc32, Snapshot, SnapshotBuilder, FORMAT_VERSION};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};

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

    /// Every save rewrites the one state file and leaves nothing beside
    /// it; the file is a complete container of the current format and
    /// loads back to the state saved.
    #[test]
    fn a_save_leaves_exactly_the_state_file_and_it_reads_back() {
        let dir = state_dir("one-file");
        let mut service = fresh_service();
        for (day, seed) in [(5, 3), (6, 4)] {
            let date = SimDate::new(2014, 8, day);
            service
                .process_day(date, test_day(date, seed))
                .expect("day");
            service.save(&dir).expect("state saved");
            let names: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|entry| entry.unwrap().file_name().into_string().unwrap())
                .collect();
            assert_eq!(names, [STATE_FILE]);
            let file = std::fs::read(dir.join(STATE_FILE)).expect("state file");
            assert_eq!(file[8..12], FORMAT_VERSION.to_le_bytes());
            assert!(Snapshot::from_bytes(&file).expect("parses").is_complete());
            let (loaded, report) =
                KizzleService::load(&dir, KizzleConfig::fast()).expect("state loads");
            assert!(report.notes.is_empty(), "notes: {:?}", report.notes);
            assert_eq!(loaded.last_processed_day(), Some(date));
            assert_eq!(&*loaded.signatures(), &*service.signatures());
            assert_eq!(
                &read_signatures(&dir).expect("reads"),
                &*service.signatures()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `read_signatures` takes the state directory — the unit a compiler
    /// saves and a follower tails — and refuses a file in it, naming the
    /// directory to pass instead.
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
        let err = read_signatures(&dir.join(STATE_FILE)).expect_err("a file is refused");
        let message = err.to_string();
        assert!(
            message.contains(&format!("pass its directory {}", dir.display())),
            "{message}"
        );
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
            // A follower that loaded the intact file serves epoch 1.
            let serving = Arc::new(ChainFollower::new(&dir));
            assert!(serving.poll().expect("intact chain"));
            let served = serving.current();
            assert_eq!(served.0, 1);
            assert!(serving.notes().is_empty());

            // The next save rewrites the file — stamped `version`.
            service.process_day(d2, test_day(d2, 4)).expect("day 2");
            service.save(&dir).expect("state saved");
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
            // re-reads (the file moved) and stays on the epoch it had
            // — each with the condition in its notes.
            // Each refusal also counts in METRICS. Telemetry is switched on
            // process-wide for the loop and the counter only grows, so other
            // tests running meanwhile can add to it but never hide a rise.
            let telemetry = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
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
            drop(telemetry);
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

    /// Serializes the tests that switch telemetry on process-wide to read a
    /// counter: one switching it off mid-way would hide the other's rise.
    static TELEMETRY: Mutex<()> = Mutex::new(());

    /// One save of a service, as a crash could find it on disk: the state
    /// file as bytes, and the state it holds.
    struct Saved {
        file: Vec<u8>,
        signatures: SignatureSet,
        last_day: SimDate,
        live_samples: usize,
    }

    /// Two consecutive saves of one service, both publications.
    fn two_saves(name: &str) -> (Saved, Saved) {
        let dir = state_dir(name);
        let mut service = fresh_service();
        let mut save = |date: SimDate, seed: u64| {
            service
                .process_day(date, test_day(date, seed))
                .expect("day");
            service.save(&dir).expect("state saved");
            // One statement per read: each holds the compiler lock.
            let signatures = (*service.signatures()).clone();
            let live_samples = service.engine().len();
            Saved {
                file: std::fs::read(dir.join(STATE_FILE)).expect("state file"),
                signatures,
                last_day: date,
                live_samples,
            }
        };
        let old = save(SimDate::new(2014, 8, 5), 3);
        let new = save(SimDate::new(2014, 8, 6), 4);
        assert_ne!(old.signatures, new.signatures, "both saves publish");
        std::fs::remove_dir_all(&dir).ok();
        (old, new)
    }

    /// Lay `saved` out in a fresh `dir` the way a completed save leaves it.
    fn lay_out(dir: &Path, saved: &Saved) {
        std::fs::remove_dir_all(dir).ok();
        std::fs::create_dir_all(dir).expect("state dir");
        write_atomic(&dir.join(STATE_FILE), &saved.file).expect("state file");
    }

    /// A save is one atomic rename of the state file. Each directory a
    /// crash can leave — a stray `.tmp` of the new file, or the new file —
    /// loads exactly the old state or the new one, and every follower
    /// serves the old set at epoch 1 or the new one at epoch 2, never one
    /// set under the other's epoch.
    #[test]
    fn a_crash_anywhere_in_a_save_leaves_the_old_state_or_the_new() {
        let (old, new) = two_saves("crash-saves");
        let dir = state_dir("crash");
        let tmp = dir.join(format!("{STATE_FILE}.tmp"));
        for crash in ["before the rename", "after the rename"] {
            lay_out(&dir, &old);
            let serving = ChainFollower::new(&dir);
            assert!(serving.poll().expect("the old state reads"));
            let (want, want_epoch) = if crash == "before the rename" {
                std::fs::write(&tmp, &new.file[..new.file.len() / 2]).expect("tmp");
                (&old, 1)
            } else {
                write_atomic(&dir.join(STATE_FILE), &new.file).expect("state file");
                (&new, 2)
            };

            let (loaded, report) =
                KizzleService::load(&dir, KizzleConfig::fast()).expect("a state loads");
            assert!(report.notes.is_empty(), "{crash}: {:?}", report.notes);
            assert_eq!(&*loaded.signatures(), &want.signatures, "{crash}");
            assert_eq!(loaded.last_processed_day(), Some(want.last_day), "{crash}");
            assert_eq!(loaded.engine().len(), want.live_samples, "{crash}");
            assert_eq!(read_signatures(&dir).expect("reads"), want.signatures);

            // A follower reading the directory cold, and the one that
            // served the old state at its next poll, both serve what is
            // there: the set with its own epoch.
            let fresh = ChainFollower::new(&dir);
            assert!(fresh.poll().expect("a state reads"));
            serving.poll().expect("a state reads");
            for follower in [&fresh, &serving] {
                let (epoch, set) = follower.current();
                assert_eq!(epoch, want_epoch, "{crash}");
                assert_eq!(*set, want.signatures, "{crash}: epoch {epoch}");
                assert!(
                    follower.notes().is_empty(),
                    "{crash}: {:?}",
                    follower.notes()
                );
            }

            // The next save replaces a stray tmp file and leaves none.
            loaded.save(&dir).expect("state saved");
            assert!(!tmp.exists(), "{crash}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A save that fails commits nothing and publishes nothing: the next
    /// save that commits publishes the set under the next count, so a
    /// follower's epoch moves once however many saves failed before it. A
    /// later save with no new signature publishes nothing either.
    #[test]
    fn a_failed_save_leaves_the_set_unpublished() {
        let dir = state_dir("failed-save");
        // A state directory under a regular file cannot be created.
        let blocker = state_dir("failed-save-blocker");
        std::fs::remove_file(&blocker).ok();
        std::fs::write(&blocker, b"not a directory").expect("blocker file");
        let unwritable = blocker.join("state");

        let mut service = fresh_service();
        let d1 = SimDate::new(2014, 8, 5);
        service.process_day(d1, test_day(d1, 3)).expect("day 1");
        service.save(&dir).expect("state saved");
        let follower = ChainFollower::new(&dir);
        assert!(follower.poll().expect("the first save reads"));
        assert_eq!(follower.current().0, 1);

        let d2 = SimDate::new(2014, 8, 6);
        service.process_day(d2, test_day(d2, 4)).expect("day 2");
        assert!(service.signatures().len() > follower.current().1.len());
        for _ in 0..2 {
            assert!(service.save(&unwritable).is_err());
        }
        assert!(!unwritable.exists());

        service.save(&dir).expect("state saved");
        assert!(follower.poll().expect("the good save reads"));
        let (epoch, served) = follower.current();
        assert_eq!(epoch, 2);
        assert_eq!(*served, *service.signatures());

        service.save(&dir).expect("state saved");
        assert!(!follower.poll().expect("the unchanged save reads"));
        assert_eq!(follower.current().0, 2);
        let (_, report) = KizzleService::load(&dir, KizzleConfig::fast()).expect("state loads");
        assert!(report.notes.is_empty(), "notes: {:?}", report.notes);
        std::fs::remove_file(&blocker).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One flipped byte in the state file's signature section: a follower
    /// keeps its last-known-good set and epoch, says why and counts the
    /// failed poll; `load` refuses the file. The next intact save is served
    /// again.
    #[test]
    fn a_flipped_byte_keeps_the_followers_last_known_good_set() {
        let (old, new) = two_saves("flip-saves");
        let dir = state_dir("flip");
        lay_out(&dir, &old);
        let follower = ChainFollower::new(&dir);
        assert!(follower.poll().expect("the old state reads"));
        let (epoch, served) = follower.current();
        assert_eq!(epoch, 1);

        let parsed = Snapshot::from_bytes(&new.file).expect("parses");
        let payload = parsed.section(SIGNATURES_SECTION).expect("intact");
        let at = new
            .file
            .windows(payload.len())
            .position(|window| window == payload)
            .expect("payload stored verbatim")
            + payload.len() / 2;
        let mut damaged = new.file.clone();
        damaged[at] ^= 0x20;
        write_atomic(&dir.join(STATE_FILE), &damaged).expect("state file");

        let telemetry = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
        kizzle_telemetry::set_enabled(true);
        let failures = kizzle_telemetry::counter("kizzle_chain_poll_failures_total");
        let failed_before = failures.value();
        let polled = follower.poll();
        kizzle_telemetry::set_enabled(false);
        drop(telemetry);
        assert!(
            matches!(
                polled,
                Err(KizzleError::Snapshot(
                    SnapshotError::ChecksumMismatch { .. }
                ))
            ),
            "{polled:?}"
        );
        assert!(failures.value() > failed_before, "the failed poll counts");
        let (epoch, still) = follower.current();
        assert_eq!(epoch, 1);
        assert!(Arc::ptr_eq(&still, &served));
        assert!(
            follower
                .notes()
                .iter()
                .any(|n| n.contains("still serving epoch 1") && n.contains("checksum")),
            "notes: {:?}",
            follower.notes()
        );
        assert!(matches!(
            KizzleService::load(&dir, KizzleConfig::fast()),
            Err(KizzleError::Snapshot(
                SnapshotError::ChecksumMismatch { .. }
            ))
        ));

        // The intact file is another length than the last one the follower
        // read: its stamp moves whatever inode and clock tick it gets.
        assert_ne!(old.file.len(), new.file.len());
        write_atomic(&dir.join(STATE_FILE), &new.file).expect("state file");
        assert!(follower.poll().expect("the new state reads"));
        assert_eq!(follower.current().0, 2);
        assert_eq!(*follower.current().1, new.signatures);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A follower polling while the compiler saves serves only pairs the
    /// compiler published: epoch N always with the set of the N-th save
    /// that changed the signatures. A follower that took the count from
    /// anywhere but the section holding the set would pair a set with a
    /// neighbouring save's count whenever a poll straddles a save.
    #[test]
    fn a_follower_racing_saves_serves_each_set_under_its_own_epoch() {
        const PUBLICATIONS: usize = 30;
        // More pollers than cores, so polls straddle saves.
        const POLLERS: usize = 3;
        let dir = state_dir("race");
        // Row N-1 holds the set of publication N, pushed before that save.
        let ledger: Arc<Mutex<Vec<SignatureSet>>> = Arc::default();
        let done = Arc::new(AtomicBool::new(false));
        let pollers: Vec<_> = (0..POLLERS)
            .map(|_| {
                let (dir, ledger, done) = (dir.clone(), Arc::clone(&ledger), Arc::clone(&done));
                std::thread::spawn(move || {
                    let tailing = ChainFollower::new(&dir);
                    let mut last_epoch = 0;
                    let mut swaps = 0usize;
                    while !done.load(Ordering::Acquire) {
                        // A long-lived follower, and one reading the
                        // directory cold — whose poll always reads the file.
                        for follower in [&tailing, &ChainFollower::new(&dir)] {
                            if !matches!(follower.poll(), Ok(true)) {
                                continue;
                            }
                            swaps += 1;
                            let (epoch, set) = follower.current();
                            let ledger = ledger.lock().expect("ledger");
                            assert_eq!(
                                ledger.get(epoch as usize - 1),
                                Some(&*set),
                                "epoch {epoch} served with another save's set"
                            );
                        }
                        let epoch = tailing.current().0;
                        assert!(epoch >= last_epoch, "epoch went back to {epoch}");
                        last_epoch = epoch;
                    }
                    swaps
                })
            })
            .collect();

        let mut service = fresh_service();
        let mut date = SimDate::new(2014, 8, 5);
        let mut seed = 0;
        while ledger.lock().expect("ledger").len() < PUBLICATIONS {
            assert!(
                seed < 4 * PUBLICATIONS as u64,
                "too few days add signatures"
            );
            service
                .process_day(date, test_day(date, seed))
                .expect("day processes");
            date = date.next();
            seed += 1;
            {
                let mut ledger = ledger.lock().expect("ledger");
                if ledger.last() != Some(&*service.signatures()) {
                    ledger.push((*service.signatures()).clone());
                }
            }
            service.save(&dir).expect("state saved");
        }
        done.store(true, Ordering::Release);
        let swaps: usize = pollers
            .into_iter()
            .map(|poller| poller.join().expect("every served pair was published"))
            .sum();
        assert!(swaps >= PUBLICATIONS, "the poller swapped {swaps} times");
        let last = ChainFollower::new(&dir);
        assert!(last.poll().expect("reads"));
        assert_eq!(last.current().0, PUBLICATIONS as u64);
        std::fs::remove_dir_all(&dir).ok();
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

    /// States saved before the scan pipeline stopped being stored carry a
    /// `scan-pipeline` section beside the signatures. No reader looks at
    /// it: load, `read_signatures` and a follower return the same set with
    /// no notes, every verdict is a freshly built set's, and the next save
    /// drops the section.
    #[test]
    fn v1_scan_pipeline_sections_reseal_on_load_and_follow() {
        const RETIRED_SCAN_SECTION: &str = "scan-pipeline";
        let dir = state_dir("pipeline-v1");
        let mut service = fresh_service();
        let d1 = SimDate::new(2014, 8, 5);
        service.process_day(d1, test_day(d1, 3)).expect("day 1");
        service.save(&dir).expect("state saved");

        // Rewrite the file with the retired section added: a version 1
        // stamp, then bytes no pipeline decoder would accept. Every other
        // section is byte-identical.
        let path = dir.join(STATE_FILE);
        let saved = Snapshot::read(&path).expect("state file reads");
        let mut builder = SnapshotBuilder::new();
        for name in saved.section_names() {
            builder.section(name, saved.section(name).expect("intact").to_vec());
        }
        builder.section(
            RETIRED_SCAN_SECTION,
            vec![1, 0, 0xFF, 0xFF, 0x7F, 0x00, 0x13],
        );
        builder.write_atomic(&path).expect("rewrite");

        let (mut resumed, report) =
            KizzleService::load(&dir, KizzleConfig::fast()).expect("the state resumes");
        assert!(
            report.store_restored && report.index_restored,
            "report: {report:?}"
        );
        assert!(report.notes.is_empty(), "notes: {:?}", report.notes);
        let read = read_signatures(&dir).expect("state reads");
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
        resumed.save(&dir).expect("state saved");
        let saved = Snapshot::read(&path).expect("state file reads");
        assert!(
            !saved.section_names().contains(&RETIRED_SCAN_SECTION),
            "the next save still declares the retired section"
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
