//! The service façade: session-based streaming ingest on the compiler
//! side, lock-free cloneable read handles on the serving side.
//!
//! The paper's pipeline is explicitly two-sided — a slow compiler that
//! re-clusters daily and a fast matcher that scans live traffic — and
//! [`KizzleService`] is the one driver of both:
//!
//! * **Ingest is a session with one way in.** [`KizzleService::begin_day`]
//!   opens a [`DaySession`]; every mini-batch enters it as a [`Batch`] —
//!   built from a borrowed slice (copied), an owned `Vec` (moved) or an
//!   `Arc<[Sample]>` (shared, so the day is never buffered twice).
//!   [`DaySession::ingest`] lexes each document into per-thread scratch
//!   and keeps only its token-class string, deduplicating and
//!   store-inserting eagerly, amortizing the day's front half across the
//!   arrival window; [`DaySession::seal`] runs cluster → winnow-label →
//!   signature generation → publish, lexing concrete tokens only for the
//!   members each labelled cluster's signature reads.
//!   [`KizzleService::process_day`] is exactly that for a day that is
//!   already complete: `begin_day`, one `ingest`, `seal`. However the day
//!   is cut into batches, and whichever route each batch takes, the seal
//!   is byte-identical to the one-batch day — held to that by the
//!   property tests in `tests/service_properties.rs`.
//! * **Serving** is a handle: [`KizzleService::matcher`] hands out cheap,
//!   cloneable, `Send + Sync` [`Matcher`]s over an epoch-swapped
//!   `Arc<SignatureSet>`. Scans keep running against the previous day's
//!   published set while a seal is in flight and pick up the new set
//!   atomically at publish — a scan observes the old set or the new set,
//!   never a torn mixture. The steady-state read path is lock-free: one
//!   atomic epoch load plus an uncontended per-handle cache; a handle
//!   touches the shared `RwLock` only on its *first* scan after a publish
//!   (once a day in production, against a writer that holds it for a
//!   pointer swap).
//! * **The ingest side pipelines.** [`DaySession::pipeline_auto`] puts a
//!   channel of [`PIPELINE_BOUND`] batches and one worker thread in front
//!   of the session: cloneable [`IngestProducer`]s submit the same
//!   [`Batch`]es ([`IngestProducer::send`]) and the worker lexes/
//!   dedups/store-inserts off the producers' threads, a full channel
//!   blocking them (backpressure, counted in [`DayReport`]`.pipeline`).
//!   The worker takes everything already queued as one group and
//!   lexes its documents across the cores (`KIZZLE_RAYON_THREADS`
//!   sets the width), then applies the batches one by one in FIFO order.
//!   The seal stays on the caller's thread: it flushes the channel, then
//!   clusters, labels, signs and publishes before it returns.
//!
//! ```
//! use kizzle::prelude::*;
//! use kizzle_corpus::{GraywareStream, SimDate, StreamConfig};
//!
//! let date = SimDate::new(2014, 8, 5);
//! let config = KizzleConfig::fast();
//! let reference = ReferenceCorpus::seeded_from_models(date, &config);
//! let mut service = KizzleService::new(config, reference)?;
//!
//! // Serving side: handles scan concurrently with compilation.
//! let matcher = service.matcher();
//!
//! // Ingest side: the day arrives in mini-batches.
//! let day = GraywareStream::new(StreamConfig::small(7)).generate_day(date);
//! let mut session = service.begin_day(date)?;
//! for batch in day.chunks(16) {
//!     session.ingest(batch);
//! }
//! let report = session.seal();
//! assert!(report.clusters > 0);
//!
//! // The seal published atomically: the pre-existing handle now detects
//! // today's kits.
//! let detected = day.iter().filter(|s| matcher.scan(&s.html).is_some()).count();
//! assert!(detected > 0);
//! # Ok::<(), KizzleError>(())
//! ```

use crate::config::KizzleConfig;
use crate::error::KizzleError;
use crate::pipeline::{family_from_label, DayReport, KizzleCompiler, PipelineStats, SampleRope};
use crate::reference::ReferenceCorpus;
use crate::snapshot::ResumeReport;
use crate::source::{EpochSource, SignatureSource};
use kizzle_cluster::{CorpusEngine, SampleId};
use kizzle_corpus::{KitFamily, Sample, SimDate};
use kizzle_js::{Span, TokenStream};
use kizzle_signature::SignatureSet;
use rayon::prelude::*;
use std::cell::RefCell;
use std::mem;
use std::ops::Deref;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// How many mini-batches the pipelined frontend queues before a producer
/// blocks — one fixed bound for every session. At 256, a day of 8,000
/// pages sent in 32-sample batches never stalls its producer (the worker
/// still tokenizes at most 1,024 samples per group), and a feeder that
/// outruns the worker is held to a bounded backlog.
pub const PIPELINE_BOUND: usize = 256;

/// The furthest ahead (in days) an opened day may be of the last opened
/// one. The retention sweep retires everything older than
/// `date - retention_days`, so one mis-parsed far-future date would
/// silently discard the whole warm corpus; [`KizzleService::begin_day`]
/// refuses such jumps as [`KizzleError::Ingest`] instead. Weekends,
/// holidays and pipeline outages are normal gaps; a date parser emitting
/// 2034 is not. It gates requests and shapes no persisted state.
const MAX_DAY_ADVANCE: i64 = 90;

/// The compiler-side state shared between the service and its ingest
/// workers: the warm compiler under a mutex, plus the publication point.
/// Worker threads hold `Arc` clones, so an abandoned session's detached
/// worker can finish draining safely after the session (or even the
/// service) is gone.
#[derive(Debug)]
struct ServiceCore {
    compiler: Mutex<KizzleCompiler>,
    shared: Arc<EpochSource>,
}

/// The two-sided Kizzle service: session-based streaming ingest over the
/// warm compiler state, and [`Matcher`] read handles over the
/// epoch-swapped published signature set. See the [module docs](self) for
/// the full picture and a usage example.
///
/// # Pipelined ingest
///
/// The front-end is pipelined: [`DaySession::pipeline_auto`] opens a
/// `sync_channel` of [`PIPELINE_BOUND`] batches whose worker
/// lexes/dedups/store-inserts mini-batches off the callers' threads
/// (cloneable [`IngestProducer`]s submit with backpressure).
/// [`DaySession::seal`] flushes the channel and compiles the day on the
/// calling thread; [`KizzleService::matcher`] scans run concurrently
/// with it.
///
/// ```
/// use kizzle::prelude::*;
/// use kizzle_corpus::{GraywareStream, SimDate, StreamConfig};
///
/// let date = SimDate::new(2014, 8, 5);
/// let config = KizzleConfig::fast();
/// let reference = ReferenceCorpus::seeded_from_models(date, &config);
/// let mut service = KizzleService::new(config, reference)?;
///
/// let day = GraywareStream::new(StreamConfig::small(7)).generate_day(date);
/// let mut session = service.begin_day(date)?;
/// // Bounded-channel frontend: producers submit, the worker ingests.
/// let producer = session.pipeline_auto();
/// std::thread::scope(|scope| {
///     for chunk in day.chunks(16) {
///         let producer = producer.clone();
///         scope.spawn(move || assert!(producer.send(chunk)));
///     }
/// });
/// drop(producer);
/// let report = session.seal();
/// assert_eq!(report.samples, day.len());
/// assert!(report.pipeline.applied_batches > 0);
/// # Ok::<(), KizzleError>(())
/// ```
#[derive(Debug)]
pub struct KizzleService {
    core: Arc<ServiceCore>,
    /// Immutable copy of the validated configuration, readable without
    /// the compiler lock.
    config: KizzleConfig,
}

impl KizzleService {
    /// Create a service from a validated configuration and a seeded
    /// reference corpus. Returns [`KizzleError::Config`] instead of
    /// panicking when the configuration violates an invariant.
    pub fn new(config: KizzleConfig, reference: ReferenceCorpus) -> Result<Self, KizzleError> {
        let config = config.validate()?;
        Ok(KizzleService::from_compiler(KizzleCompiler::new(
            config, reference,
        )))
    }

    /// Wrap compiler state (fresh, or restored from a state file),
    /// publishing its current signature set as epoch 0.
    fn from_compiler(compiler: KizzleCompiler) -> Self {
        let set = Arc::clone(&compiler.signatures);
        // Seal at publish time: scans on fresh Matcher handles must never
        // pay the pipeline build (a resumed set arrives unsealed).
        set.seal();
        let config = compiler.config;
        let shared = Arc::new(EpochSource::new(set, config.token_cap));
        KizzleService {
            core: Arc::new(ServiceCore {
                compiler: Mutex::new(compiler),
                shared,
            }),
            config,
        }
    }

    fn lock_compiler(&self) -> MutexGuard<'_, KizzleCompiler> {
        self.core.compiler.lock().expect("compiler lock")
    }

    /// Load persisted service state from `state_dir`, or start fresh when
    /// no usable snapshot exists (`reference` seeds the fresh service; it
    /// is a closure because seeding winnow-fingerprints every kit model —
    /// a cost the warm path must not pay). The cron-job entry point; the
    /// report says which resume rung was reached.
    pub fn open(
        state_dir: &Path,
        config: KizzleConfig,
        reference: impl FnOnce() -> ReferenceCorpus,
    ) -> Result<(Self, ResumeReport), KizzleError> {
        let config = config.validate()?;
        let (compiler, report) = KizzleCompiler::load_or_new(state_dir, config, reference);
        Ok((KizzleService::from_compiler(compiler), report))
    }

    /// Load the service state saved in `state_dir`'s one state file,
    /// refusing to start without it. Unlike
    /// [`KizzleService::open`] this propagates every load failure —
    /// [`KizzleError::ConfigFingerprint`] when the snapshot was written
    /// under a different configuration, [`KizzleError::Snapshot`] for
    /// damage or a container of another format version. The fallback
    /// ladder for recoverable damage is described in
    /// [`kizzle::snapshot`](crate::snapshot).
    pub fn load(
        state_dir: &Path,
        config: KizzleConfig,
    ) -> Result<(Self, ResumeReport), KizzleError> {
        let (compiler, report) = KizzleCompiler::load_state(state_dir, config)?;
        Ok((KizzleService::from_compiler(compiler), report))
    }

    /// Persist the complete service state into `state_dir` as one file,
    /// [`STATE_FILE`](crate::snapshot::STATE_FILE), written atomically
    /// (tmp file, fsync, rename). The rename commits the save, so a crash
    /// mid-save leaves the previous state or the new one loadable, never a
    /// mixture, and nothing else is written beside the file. The first
    /// save of a fresh service, and the first save to commit after a
    /// signature was added, is a *publication*: it advances the count the
    /// file stores beside the set and its token cap, and every
    /// [`ChainFollower`](crate::ChainFollower) of the directory serves that
    /// count as its epoch. A save that fails publishes nothing, so the
    /// next one that commits does.
    pub fn save(&self, state_dir: &Path) -> Result<(), KizzleError> {
        self.lock_compiler().save_state(state_dir)
    }

    /// Open a streaming ingest session for `date`. Mini-batches go in via
    /// [`DaySession::ingest`]; [`DaySession::seal`] compiles and publishes.
    ///
    /// Returns [`KizzleError::Ingest`] when `date` precedes the last
    /// opened day — the retention window is keyed on a
    /// monotone day counter, so replaying the past would silently corrupt
    /// the warm state. (Re-running the *same* date is allowed: a crashed
    /// cron job may legitimately re-run a day.)
    ///
    /// `begin_day` itself is free of side effects: the day cursor only
    /// advances — and samples aged out of the retention window are only
    /// retired — on the session's **first non-empty ingest** (or at seal,
    /// for an empty day). A session dropped before ingesting anything therefore
    /// leaves the warm state untouched; once a batch has been ingested the
    /// day is committed (its stamped samples are live in the store) and
    /// abandoning the session no longer rolls that back.
    pub fn begin_day(&mut self, date: SimDate) -> Result<DaySession<'_>, KizzleError> {
        self.check_monotone(date)?;
        let state = Arc::new(SessionState {
            date,
            token_cap: self.config.token_cap,
            core: Arc::clone(&self.core),
            inner: Mutex::new(SessionInner::default()),
            closed: AtomicBool::new(false),
            submitted: AtomicU64::new(0),
            applied: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            max_queued: AtomicU64::new(0),
        });
        Ok(DaySession {
            service: self,
            state,
            frontend: None,
        })
    }

    fn check_monotone(&self, date: SimDate) -> Result<(), KizzleError> {
        if let Some(last) = self.last_processed_day() {
            if date < last {
                return Err(KizzleError::Ingest(format!(
                    "day {date} precedes the last opened day {last}"
                )));
            }
            // Guard the other direction too: a mis-parsed far-future date
            // would retire the entire retained corpus in one sweep (every
            // live sample ages out against the bogus day). Refuse jumps
            // beyond the horizon as a typed ingest error the caller can
            // fix, instead of silently going cold.
            let advance = date.absolute_day() - last.absolute_day();
            if advance > MAX_DAY_ADVANCE {
                return Err(KizzleError::Ingest(format!(
                    "day {date} is {advance} days past the last opened day {last} \
                     (max_day_advance is {MAX_DAY_ADVANCE}); refusing to retire the corpus"
                )));
            }
        }
        Ok(())
    }

    /// Single-shot convenience for a day that is already complete: one
    /// session, one batch, sealed inline. Byte-identical to mini-batched
    /// ingest of the same sequence.
    pub fn process_day(
        &mut self,
        date: SimDate,
        batch: impl Into<Batch>,
    ) -> Result<DayReport, KizzleError> {
        let mut session = self.begin_day(date)?;
        session.ingest(batch);
        Ok(session.seal())
    }

    /// A cheap, cloneable, `Send + Sync` read handle over the published
    /// signature set. Handles stay valid for the life of the process —
    /// they keep scanning the previous set lock-free while a seal is in
    /// flight and observe each publication atomically.
    #[must_use]
    pub fn matcher(&self) -> Matcher {
        Matcher::over(Arc::clone(&self.core.shared))
    }

    /// The signatures the service has published so far (the compiler-side
    /// view; [`Matcher::signatures`] is the serving-side snapshot). Holds
    /// the compiler lock for the guard's lifetime — drop it before
    /// ingesting or sealing.
    #[must_use]
    pub fn signatures(&self) -> SignaturesRef<'_> {
        SignaturesRef(self.lock_compiler())
    }

    /// The reference corpus (grows as labeled clusters are absorbed).
    /// Guarded like [`KizzleService::signatures`].
    #[must_use]
    pub fn reference(&self) -> ReferenceRef<'_> {
        ReferenceRef(self.lock_compiler())
    }

    /// The warm corpus engine (live store size, index state) — exposed for
    /// observability and tests. Guarded like [`KizzleService::signatures`].
    #[must_use]
    pub fn engine(&self) -> EngineRef<'_> {
        EngineRef(self.lock_compiler())
    }

    /// The pipeline configuration (an immutable copy, readable without
    /// the compiler lock).
    #[must_use]
    pub fn config(&self) -> &KizzleConfig {
        &self.config
    }

    /// The last *opened* day, if any (advanced by a session's first ingest
    /// or a single-shot `process_day`, even when the session is later
    /// abandoned without sealing) — the date [`KizzleService::begin_day`]'s
    /// monotone check compares against. Survives snapshot save/load.
    #[must_use]
    pub fn last_processed_day(&self) -> Option<SimDate> {
        self.lock_compiler().last_day
    }
}

/// Read guard over the service's [`SignatureSet`], returned by
/// [`KizzleService::signatures`]. Holds the compiler lock until dropped.
#[derive(Debug)]
pub struct SignaturesRef<'a>(MutexGuard<'a, KizzleCompiler>);

impl Deref for SignaturesRef<'_> {
    type Target = SignatureSet;

    fn deref(&self) -> &SignatureSet {
        &self.0.signatures
    }
}

/// Read guard over the service's [`ReferenceCorpus`], returned by
/// [`KizzleService::reference`]. Holds the compiler lock until dropped.
#[derive(Debug)]
pub struct ReferenceRef<'a>(MutexGuard<'a, KizzleCompiler>);

impl Deref for ReferenceRef<'_> {
    type Target = ReferenceCorpus;

    fn deref(&self) -> &ReferenceCorpus {
        &self.0.reference
    }
}

/// Read guard over the service's [`CorpusEngine`], returned by
/// [`KizzleService::engine`]. Holds the compiler lock until dropped.
#[derive(Debug)]
pub struct EngineRef<'a>(MutexGuard<'a, KizzleCompiler>);

impl Deref for EngineRef<'_> {
    type Target = CorpusEngine;

    fn deref(&self) -> &CorpusEngine {
        &self.0.engine
    }
}

/// One mini-batch of a day's samples — the single currency of ingest:
/// [`DaySession::ingest`], [`IngestProducer::send`] and
/// [`KizzleService::process_day`] all take `impl Into<Batch>`.
///
/// The samples are held as an `Arc<[Sample]>`, and the `From` impls say
/// what that costs the caller: `&[Sample]` (and `&Vec<Sample>`) **copies**
/// the batch into shared storage, `Vec<Sample>` **moves** it, and
/// `Arc<[Sample]>` **shares** the caller's allocation — the session
/// buffers the batch until seal (cluster member indices are
/// day-positional, labeling unpacks a cluster's prototype document and
/// signature generation lexes the members it reads), so a large day held
/// elsewhere is best handed in shared. The session lexes every document
/// itself and keeps only its token-class string.
///
/// An **empty** batch is an accepted no-op: it does not open the day, so
/// a frontend that flushes on a timer and sends empty ticks never commits
/// a day (or runs its retention sweep) ahead of real traffic.
#[derive(Debug)]
pub struct Batch {
    samples: Arc<[Sample]>,
}

impl From<Arc<[Sample]>> for Batch {
    fn from(samples: Arc<[Sample]>) -> Self {
        Batch { samples }
    }
}

impl From<Vec<Sample>> for Batch {
    fn from(samples: Vec<Sample>) -> Self {
        Batch::from(Arc::<[Sample]>::from(samples))
    }
}

impl From<&[Sample]> for Batch {
    fn from(samples: &[Sample]) -> Self {
        Batch::from(Arc::<[Sample]>::from(samples))
    }
}

impl From<&Vec<Sample>> for Batch {
    fn from(samples: &Vec<Sample>) -> Self {
        Batch::from(samples.as_slice())
    }
}

/// The day's buffered state, shared between the session, its channel
/// worker, and (briefly) the seal. Cluster member indices are
/// day-positional, so application order defines the day sequence.
#[derive(Debug, Default)]
struct SessionInner {
    /// Set when the day has been opened (first non-empty batch applied,
    /// or seal of an empty day) — the point after which the day is
    /// committed.
    stamp: Option<u64>,
    samples: SampleRope,
    day_ids: Vec<SampleId>,
}

/// State shared by a [`DaySession`], its [`IngestProducer`]s and its
/// channel worker — `Arc`ed so an abandoned session's worker can drain
/// and exit on its own.
#[derive(Debug)]
struct SessionState {
    date: SimDate,
    token_cap: usize,
    core: Arc<ServiceCore>,
    inner: Mutex<SessionInner>,
    /// Raised once the session accepts no more work. A seal raises it at
    /// the cutoff, *after* its worker has applied everything queued before
    /// it; dropping the session unsealed raises it with the worker still
    /// running, which then discards what is queued instead of applying it.
    closed: AtomicBool,
    submitted: AtomicU64,
    applied: AtomicU64,
    stalls: AtomicU64,
    queued: AtomicU64,
    max_queued: AtomicU64,
}

impl SessionState {
    fn pipeline_stats(&self) -> PipelineStats {
        PipelineStats {
            submitted_batches: self.submitted.load(Ordering::Relaxed),
            applied_batches: self.applied.load(Ordering::Relaxed),
            producer_stalls: self.stalls.load(Ordering::Relaxed),
            max_queue_depth: self.max_queued.load(Ordering::Relaxed),
        }
    }
}

/// One unit of work on the ingest channel.
enum Job {
    Batch(Batch),
    /// Seal cutoff: the worker stops reading the channel and exits.
    Finish,
}

/// The bounded-channel frontend of one session: the sender side plus the
/// worker draining it.
#[derive(Debug)]
struct Frontend {
    tx: SyncSender<Job>,
    worker: JoinHandle<()>,
}

/// Most samples the channel worker drains into one group. A group's
/// documents are lexed together across the cores; the bound keeps the
/// stretch between store inserts to a fraction of a day.
const INGEST_GROUP_SAMPLES: usize = 1024;

/// Fewer documents than this are lexed on the calling thread: the vendored
/// rayon spawns scoped threads per call, which costs about what lexing a
/// dozen pages does.
const PAR_TOKENIZE_MIN: usize = 64;

/// Above this many spans a thread's ingest scratch is released after the
/// document instead of kept — an uncapped configuration must not pin the
/// largest page's span buffer on a long-lived thread.
const SCRATCH_RETAIN_SPANS: usize = 1 << 16;

thread_local! {
    /// The calling thread's span buffer for ingest lexing.
    static SPANS: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
}

/// The token-class string of `document` lexed to `token_cap` tokens — what
/// `tokenize_document_capped(document, token_cap).class_codes()` returns,
/// lexed into the calling thread's scratch span buffer, so the one
/// allocation per document is the string itself.
fn class_string(document: &str, token_cap: usize) -> Vec<u8> {
    SPANS.with(|spans| {
        let spans = &mut *spans.borrow_mut();
        let classes = kizzle_js::lex_document(document, token_cap, spans)
            .0
            .class_codes();
        if spans.capacity() > SCRATCH_RETAIN_SPANS {
            *spans = Vec::new();
        }
        classes
    })
}

/// A non-empty mini-batch with its samples' class strings, position-parallel.
struct ClassedBatch {
    samples: Arc<[Sample]>,
    class_strings: Vec<Vec<u8>>,
}

/// Lex every document of `group` to its class string — one parallel map
/// over all of them, in order, so a deep queue uses every core however
/// small its batches are. Order and content are those of batch-by-batch
/// lexing; only the threads differ.
fn tokenize_group(token_cap: usize, group: Vec<Batch>) -> Vec<ClassedBatch> {
    let documents: Vec<&Sample> = group
        .iter()
        .flat_map(|batch| batch.samples.iter())
        .collect();
    let lex = |sample: &&Sample| class_string(&sample.html, token_cap);
    let mut class_strings = {
        let _ingest_span = kizzle_telemetry::span!("day.ingest");
        if documents.len() < PAR_TOKENIZE_MIN {
            documents.iter().map(lex).collect::<Vec<Vec<u8>>>()
        } else {
            documents.par_iter().map(lex).collect()
        }
    }
    .into_iter();
    if kizzle_telemetry::enabled() {
        kizzle_telemetry::gauge("kizzle_ingest_group_samples").set_max(documents.len() as u64);
    }
    group
        .into_iter()
        .map(|Batch { samples }| {
            let class_strings = class_strings.by_ref().take(samples.len()).collect();
            ClassedBatch {
                samples,
                class_strings,
            }
        })
        .collect()
}

/// Dedup and store-insert one lexed mini-batch atomically: the whole batch
/// lands under one compiler lock, so no observer (and no abort) ever sees
/// a half-inserted batch.
fn apply_batch(state: &SessionState, batch: ClassedBatch) {
    let ClassedBatch {
        samples,
        class_strings,
    } = batch;
    let mut compiler = state.core.compiler.lock().expect("compiler lock");
    let mut inner = state.inner.lock().expect("session buffers lock");
    // The first batch applied opens the day: advance the cursor, run the
    // retention sweep.
    let stamp = match inner.stamp {
        Some(stamp) => stamp,
        None => *inner.stamp.insert(compiler.open_day(state.date)),
    };
    let ids = compiler.ingest(stamp, &class_strings);
    inner.day_ids.extend(ids);
    inner.samples.push(samples);
    state.applied.fetch_add(1, Ordering::Relaxed);
}

/// Lex a group of non-empty batches (before any lock is taken), then
/// apply them one by one in order. An abandoned session's group is
/// discarded unlexed; a session dropped meanwhile stops the group at
/// the next batch boundary, so what is applied is whole batches.
fn apply_group(state: &SessionState, group: Vec<Batch>) {
    let abandoned = || state.closed.load(Ordering::Acquire);
    if abandoned() {
        return;
    }
    for batch in tokenize_group(state.token_cap, group) {
        if abandoned() {
            return;
        }
        apply_batch(state, batch);
    }
}

/// The one way a batch enters a session, for direct ingest and producers
/// alike. Returns whether the session still accepts work: `false` once it
/// has sealed or been dropped (or its worker is gone). An empty batch is
/// never counted, queued or applied. With no frontend (`tx` is `None`) the
/// batch is applied inline; with one it rides the channel — try first,
/// count a stall and block when the channel is full — which keeps one
/// FIFO order across direct and producer submissions.
fn submit(state: &SessionState, tx: Option<&SyncSender<Job>>, batch: Batch) -> bool {
    if state.closed.load(Ordering::Acquire) {
        return false;
    }
    if batch.samples.is_empty() {
        return true;
    }
    state.submitted.fetch_add(1, Ordering::Relaxed);
    let Some(tx) = tx else {
        apply_group(state, vec![batch]);
        return true;
    };
    let depth = state.queued.fetch_add(1, Ordering::Relaxed) + 1;
    state.max_queued.fetch_max(depth, Ordering::Relaxed);
    let accepted = match tx.try_send(Job::Batch(batch)) {
        Ok(()) => true,
        Err(TrySendError::Full(job)) => {
            state.stalls.fetch_add(1, Ordering::Relaxed);
            tx.send(job).is_ok()
        }
        Err(TrySendError::Disconnected(_)) => false,
    };
    if !accepted {
        state.queued.fetch_sub(1, Ordering::Relaxed);
        state.submitted.fetch_sub(1, Ordering::Relaxed);
    }
    accepted
}

/// The channel worker: wait for a batch, take along whatever else is
/// already queued (up to [`INGEST_GROUP_SAMPLES`]), tokenize the group
/// across the cores and apply it batch by batch in FIFO order, off the
/// producers' threads — until the seal's `Finish` sentinel (everything
/// queued before it is applied, nothing after) or channel disconnect
/// (every sender gone). An abandoned session's batches are received and
/// discarded, so a producer blocked on a full channel always unblocks.
fn ingest_worker(state: &SessionState, rx: &Receiver<Job>) {
    while let Ok(Job::Batch(first)) = rx.recv() {
        let mut samples = first.samples.len();
        let mut group = vec![first];
        let mut finished = false;
        while samples < INGEST_GROUP_SAMPLES && !finished {
            match rx.try_recv() {
                Ok(Job::Batch(batch)) => {
                    samples += batch.samples.len();
                    group.push(batch);
                }
                Ok(Job::Finish) => finished = true,
                // Empty or disconnected: the next `recv` tells which.
                Err(_) => break,
            }
        }
        state
            .queued
            .fetch_sub(group.len() as u64, Ordering::Relaxed);
        apply_group(state, group);
        if finished {
            return;
        }
    }
}

/// A cloneable, `Send` handle for submitting mini-batches to a session's
/// bounded-channel frontend, issued by [`DaySession::pipeline_auto`].
///
/// Sends apply backpressure: when the channel is full the send blocks (and
/// counts a stall) until the worker catches up. Every send returns whether
/// the batch was accepted — `false` once the session has sealed (the
/// cutoff) or been dropped. Batches are applied in channel FIFO order,
/// which defines the day's sample order; with several producers that
/// interleaving is whatever the threads race to, so callers needing a
/// deterministic day sequence must order their sends themselves.
#[derive(Debug, Clone)]
pub struct IngestProducer {
    tx: SyncSender<Job>,
    state: Arc<SessionState>,
}

impl IngestProducer {
    /// Submit a mini-batch (see [`Batch`] for what each source type
    /// costs). Returns whether the session still accepts work — for an
    /// empty batch too, so a timer-driven feeder sending empty ticks
    /// learns that the session is gone.
    pub fn send(&self, batch: impl Into<Batch>) -> bool {
        submit(&self.state, Some(&self.tx), batch.into())
    }
}

/// A streaming ingest session for one day, opened by
/// [`KizzleService::begin_day`].
///
/// Mini-batches are lexed to class strings, deduplicated and
/// store-inserted **eagerly** on [`DaySession::ingest`] — by the time the
/// day's tail arrives, its front half has already been indexed, so
/// [`DaySession::seal`] pays only clustering, labeling and signature
/// generation. The first *non-empty* batch applied also *opens* the day
/// (advances the day cursor, retires samples that aged out of the
/// retention window); dropping a session before that first batch is a
/// complete no-op. Dropping it afterwards
/// abandons the day: already-applied batches stay in the warm store (where
/// retention will age them out) but no clustering runs and nothing is
/// published. With the pipelined frontend the
/// drop additionally aborts cleanly: queued batches are received and
/// discarded (never half-applied — batches apply atomically), and a
/// producer blocked on the full channel always unblocks.
///
/// # Pipelined frontend
///
/// [`DaySession::pipeline_auto`] opens a `sync_channel` of
/// [`PIPELINE_BOUND`] batches and spawns a worker that
/// lexes/dedups/store-inserts off the callers' threads; cloneable
/// [`IngestProducer`]s submit mini-batches with backpressure. The
/// frontend is byte-identical to direct ingest (property-tested in
/// `tests/service_properties.rs`); the [`DayReport::pipeline`] counters
/// record how hard it worked.
#[derive(Debug)]
pub struct DaySession<'a> {
    service: &'a mut KizzleService,
    state: Arc<SessionState>,
    frontend: Option<Frontend>,
}

impl DaySession<'_> {
    /// The day this session ingests.
    #[must_use]
    pub fn date(&self) -> SimDate {
        self.state.date
    }

    /// Number of samples applied to the warm store so far. With a
    /// pipelined frontend this trails the producers by whatever is still
    /// queued in the channel.
    #[must_use]
    pub fn ingested(&self) -> usize {
        self.state
            .inner
            .lock()
            .expect("session buffers lock")
            .samples
            .len()
    }

    /// Start (or reuse) the bounded-channel frontend and return a producer
    /// for it. The session picks the bound: [`PIPELINE_BOUND`]
    /// mini-batches may queue before senders block. Later calls hand out
    /// more producers for the same channel.
    ///
    /// Producers may be cloned and moved to other threads; the worker
    /// lexes and applies batches in channel FIFO order. Sends racing a
    /// seal are cut off: once [`DaySession::seal`] has flushed the
    /// channel, further sends return `false`.
    pub fn pipeline_auto(&mut self) -> IngestProducer {
        let frontend = self.frontend.get_or_insert_with(|| {
            let (tx, rx) = std::sync::mpsc::sync_channel(PIPELINE_BOUND);
            let state = Arc::clone(&self.state);
            let worker = std::thread::Builder::new()
                .name("kizzle-ingest".into())
                .spawn(move || ingest_worker(&state, &rx))
                .expect("spawn ingest worker");
            Frontend { tx, worker }
        });
        IngestProducer {
            tx: frontend.tx.clone(),
            state: Arc::clone(&self.state),
        }
    }

    /// Ingest a mini-batch (see [`Batch`] for the accepted sources): lex
    /// each document (capped at the configured prefix) into the thread's
    /// scratch, keeping only its class string, deposit the class strings
    /// into the warm engine (duplicate content — intra-day or carried over
    /// from recent days — dedups onto the live entry), and index fresh
    /// content immediately. No token stream is built or kept: the seal
    /// lexes again only the members signature generation reads. When the
    /// pipelined frontend is active the batch rides the channel instead
    /// (lexed by the worker), keeping one FIFO order across direct and
    /// producer submissions.
    pub fn ingest(&mut self, batch: impl Into<Batch>) {
        let tx = self.frontend.as_ref().map(|frontend| &frontend.tx);
        submit(&self.state, tx, batch.into());
    }

    /// Seal the day: cluster the accumulated samples, label cluster
    /// prototypes against the reference corpus, generate signatures for
    /// malicious clusters, and **publish** the grown signature set to
    /// every [`Matcher`] handle atomically — on the calling thread, before
    /// this returns. The result depends only on the day's sample sequence,
    /// not on how it was cut into batches.
    ///
    /// Sealing is an explicit commit even when nothing was ingested: a
    /// quiet cron day still advances the day cursor and runs the retention
    /// sweep. Only *implicit* empty ticks ([`DaySession::ingest`] of an
    /// empty batch) are no-ops — don't call `seal` on a session you meant
    /// to abandon.
    ///
    /// The pipelined frontend is flushed first: the `Finish` sentinel
    /// blocks until the channel has room, so every batch queued before
    /// the cutoff is applied; sends after it return `false`.
    #[must_use = "the day report is the output of the whole session"]
    pub fn seal(mut self) -> DayReport {
        if let Some(frontend) = self.frontend.take() {
            let _ = frontend.tx.send(Job::Finish);
            drop(frontend.tx);
            if let Err(payload) = frontend.worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
        self.state.closed.store(true, Ordering::Release);
        let date = self.state.date;
        let buffers = mem::take(&mut *self.state.inner.lock().expect("session buffers lock"));
        let mut compiler = self.service.lock_compiler();
        if buffers.stamp.is_none() {
            // An empty day opens at seal.
            compiler.open_day(date);
        }
        let seal_span = kizzle_telemetry::span!("day.seal");
        let (clustering, stats) = compiler.engine.cluster_day(&buffers.day_ids);
        let mut report =
            compiler.label_and_sign(date, &buffers.samples, &buffers.day_ids, clustering, stats);
        let set = Arc::clone(&compiler.signatures);
        drop(compiler);
        report.pipeline = self.state.pipeline_stats();
        report.pipeline.record_to_registry();
        let seal_elapsed = seal_span.finish();
        if kizzle_telemetry::enabled() {
            kizzle_telemetry::histogram("kizzle_day_seal_ns").observe_duration(seal_elapsed);
        }
        // Seal the scan pipeline outside the lock (so no scan ever pays the
        // build), then the atomic epoch swap. `day.publish` is the last
        // span a seal records.
        let _publish_span = kizzle_telemetry::span!("day.publish");
        set.seal();
        self.service.core.shared.publish(set);
        report
    }
}

impl Drop for DaySession<'_> {
    fn drop(&mut self) {
        // A sealed session closed at its cutoff and has no frontend left.
        // An abandoned one discards queued work instead of applying it:
        // the worker keeps receiving (so a producer blocked on the full
        // channel always unblocks) but applies nothing further; batches
        // already applied stay, exactly the documented abandon semantics.
        self.state.closed.store(true, Ordering::Release);
        if let Some(frontend) = self.frontend.take() {
            // Best-effort wake for an idle worker; a full channel is fine —
            // dropping our sender (plus the producers', eventually)
            // disconnects the channel and the worker exits on its own.
            let _ = frontend.tx.try_send(Job::Finish);
            // The worker is deliberately not joined: it may be waiting on
            // producers that outlive the session.
        }
    }
}

/// One scan's full answer: what matched, which signature, and which
/// publication epoch answered — everything the `kizzle-serve` wire
/// protocol ships per request, read from one consistent set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanVerdict {
    /// Publication epoch of the set that produced this verdict.
    pub epoch: u64,
    /// Index of the first matching signature in the set, if any.
    pub index: Option<u32>,
    /// The detected kit family, if the matching signature's label names
    /// a known one.
    pub family: Option<KitFamily>,
}

/// A cheap, cloneable, `Send + Sync` read handle over a published
/// signature set — issued by [`KizzleService::matcher`] over the
/// service's in-process [`EpochSource`], or built with [`Matcher::over`]
/// on any other [`SignatureSource`] (a
/// [`ChainFollower`](crate::source::ChainFollower) tailing another
/// process's state directory, say).
///
/// Scanning is lock-free in the steady state: each scan is one atomic
/// epoch load plus an uncontended per-handle mutex around the cached
/// `Arc`. When a publication happens, the next scan on each handle
/// notices the epoch moved and refreshes its cache under the source's
/// read lock — held by the writer only for the duration of a pointer
/// swap. A scan therefore always runs against one complete, immutable
/// set: the previous epoch's until publication, the new one after, never
/// a torn mixture.
///
/// Clone one handle per worker thread; clones share the publication point
/// but each carries its own cache, so workers never contend with each
/// other.
#[derive(Debug)]
pub struct Matcher<S: SignatureSource = EpochSource> {
    source: Arc<S>,
    cached: Mutex<(u64, Arc<SignatureSet>)>,
}

impl<S: SignatureSource> Clone for Matcher<S> {
    fn clone(&self) -> Self {
        Matcher::over(Arc::clone(&self.source))
    }
}

impl<S: SignatureSource> Matcher<S> {
    /// A read handle over any [`SignatureSource`] — the constructor the
    /// serving fleet uses to put one matcher per worker thread over a
    /// shared chain follower.
    #[must_use]
    pub fn over(source: Arc<S>) -> Self {
        let cached = source.current();
        Matcher {
            source,
            cached: Mutex::new(cached),
        }
    }

    /// The current published `(epoch, set)` pair, refreshing the handle's
    /// cache if the epoch hint says a publication happened since the last
    /// call. One cache lock per call; the pair is always consistent
    /// because it is read as a unit from the source's slot.
    fn current_pair(&self) -> (u64, Arc<SignatureSet>) {
        let hint = self.source.epoch_hint();
        let mut cached = self.cached.lock().expect("matcher cache lock");
        if cached.0 != hint {
            *cached = self.source.current();
        }
        (cached.0, Arc::clone(&cached.1))
    }

    /// Scan an already tokenized sample against the published signatures.
    #[must_use]
    pub fn scan_stream(&self, stream: &TokenStream) -> Option<KitFamily> {
        self.scan_stream_verdict(stream).family
    }

    /// Scan a raw document against the published signatures, tokenizing
    /// with the same prefix cap the compiler used.
    #[must_use]
    pub fn scan(&self, document: &str) -> Option<KitFamily> {
        self.scan_verdict(document).family
    }

    /// The verdict for a scan of `set` (published at `epoch`) that hit the
    /// signature at `index`.
    fn verdict(epoch: u64, set: &SignatureSet, index: Option<usize>) -> ScanVerdict {
        ScanVerdict {
            epoch,
            index: index.map(|i| u32::try_from(i).expect("set indices fit u32")),
            family: index
                .and_then(|i| set.get(i))
                .and_then(|hit| family_from_label(&hit.label)),
        }
    }

    /// Scan an already tokenized sample, reporting the matching signature
    /// index and the answering epoch alongside the family — the form the
    /// `kizzle-serve` wire protocol ships.
    #[must_use]
    pub fn scan_stream_verdict(&self, stream: &TokenStream) -> ScanVerdict {
        let (epoch, set) = self.current_pair();
        Self::verdict(epoch, &set, set.scan_stream_index(stream))
    }

    /// Scan a raw document, reporting signature index and epoch alongside
    /// the family. The document is lexed up to the source's token cap into
    /// the calling thread's scratch and matched in place
    /// ([`SignatureSet::scan_document_index`]): the same verdict as
    /// [`Matcher::scan_stream_verdict`] over
    /// [`kizzle_js::tokenize_document_capped`], without building the
    /// stream — a warmed-up thread allocates nothing per scan.
    #[must_use]
    pub fn scan_verdict(&self, document: &str) -> ScanVerdict {
        let (epoch, set) = self.current_pair();
        let index = set.scan_document_index(document, self.source.token_cap());
        Self::verdict(epoch, &set, index)
    }

    /// A consistent snapshot of the published set — stays valid (and
    /// unchanged) however many publications happen after.
    #[must_use]
    pub fn signatures(&self) -> Arc<SignatureSet> {
        self.current_pair().1
    }

    /// The publication epoch of the set this handle currently scans with
    /// (0 until the first publication). Monotone; mostly useful in tests
    /// and metrics.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.current_pair().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kizzle_corpus::{GraywareStream, StreamConfig};

    fn test_service() -> KizzleService {
        let config = KizzleConfig::fast();
        let reference = ReferenceCorpus::seeded_from_models(SimDate::new(2014, 8, 1), &config);
        KizzleService::new(config, reference).expect("fast config is valid")
    }

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

    #[test]
    fn mini_batched_session_matches_single_shot() {
        let date = SimDate::new(2014, 8, 5);
        let day = test_day(date, 3);

        let mut single = test_service();
        let want = single.process_day(date, &day).expect("day processes");

        let mut batched = test_service();
        let mut session = batched.begin_day(date).expect("day opens");
        for chunk in day.chunks(7) {
            session.ingest(chunk);
        }
        assert_eq!(session.ingested(), day.len());
        let got = session.seal();

        let normalize = |mut report: DayReport| {
            report.clustering_stats = Default::default();
            report.pipeline = Default::default();
            report
        };
        assert_eq!(normalize(want), normalize(got));
        assert_eq!(&*single.signatures(), &*batched.signatures());
        assert_eq!(single.engine().len(), batched.engine().len());
    }

    #[test]
    fn group_tokenization_yields_class_strings_in_order() {
        let date = SimDate::new(2014, 8, 5);
        let day = test_day(date, 7);
        let classes = |samples: &[Sample]| -> Vec<Vec<u8>> {
            samples
                .iter()
                .map(|s| kizzle_js::tokenize_document_capped(&s.html, 500).class_codes())
                .collect()
        };
        // Below and above the pooled threshold, each batch's strings in its
        // own sample order.
        for first in [5, PAR_TOKENIZE_MIN] {
            let first: Vec<Sample> = day.iter().cycle().take(first).cloned().collect();
            let group = vec![
                Batch::from(&first),
                Batch::from(&day[3..6]),
                Batch::from(&day[6..9]),
            ];
            let lexed = tokenize_group(500, group);
            let strings: Vec<&Vec<Vec<u8>>> = lexed.iter().map(|b| &b.class_strings).collect();
            assert_eq!(
                strings,
                [&classes(&first), &classes(&day[3..6]), &classes(&day[6..9])]
            );
        }
    }

    #[test]
    fn pipelined_session_matches_single_shot() {
        let date = SimDate::new(2014, 8, 5);
        let day = test_day(date, 11);

        let mut single = test_service();
        let want = single.process_day(date, &day).expect("day processes");

        let mut piped = test_service();
        let mut session = piped.begin_day(date).expect("day opens");
        // A single producer keeps the batch order (and so the day
        // sequence) deterministic.
        let producer = session.pipeline_auto();
        for chunk in day.chunks(5) {
            assert!(producer.send(chunk));
        }
        drop(producer);
        let got = session.seal();

        assert!(got.pipeline.submitted_batches > 0);
        assert_eq!(got.pipeline.submitted_batches, got.pipeline.applied_batches);
        let normalize = |mut report: DayReport| {
            report.clustering_stats = Default::default();
            report.pipeline = Default::default();
            report
        };
        assert_eq!(normalize(want), normalize(got));
        assert_eq!(&*single.signatures(), &*piped.signatures());
        assert_eq!(single.engine().len(), piped.engine().len());
    }

    #[test]
    fn pipeline_auto_stalls_producers_at_the_fixed_bound() {
        let date = SimDate::new(2014, 8, 5);
        let day = test_day(date, 3);
        let mut service = test_service();
        let mut session = service.begin_day(date).expect("day opens");
        let producer = session.pipeline_auto();
        let state = Arc::clone(&session.state);
        // The compiler lock held, so the worker cannot apply: its first
        // group blocks in apply, the channel fills to its bound, and the
        // send after that *must* stall — deterministically, not by racing:
        // the sender keeps going until it has.
        let guard = state.core.compiler.lock().expect("compiler lock");
        let sender = {
            let (producer, state) = (producer.clone(), Arc::clone(&state));
            let chunks: Vec<Vec<Sample>> = day.chunks(4).map(<[Sample]>::to_vec).collect();
            std::thread::spawn(move || {
                for chunk in chunks.iter().cycle() {
                    assert!(producer.send(chunk));
                    if state.stalls.load(Ordering::Relaxed) > 0 {
                        break;
                    }
                }
            })
        };
        while state.stalls.load(Ordering::Relaxed) == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        drop(guard);
        sender.join().expect("sender thread");
        drop(producer);
        let report = session.seal();
        assert!(report.pipeline.producer_stalls > 0);
        // A stall means the channel held its bound, plus the blocked send.
        assert!(
            report.pipeline.max_queue_depth > PIPELINE_BOUND as u64,
            "depth {} at bound {PIPELINE_BOUND}",
            report.pipeline.max_queue_depth
        );
        assert_eq!(
            report.pipeline.applied_batches,
            report.pipeline.submitted_batches
        );
    }

    #[test]
    fn producer_sends_after_seal_are_refused() {
        let date = SimDate::new(2014, 8, 5);
        let day = test_day(date, 31);
        let mut service = test_service();
        let mut session = service.begin_day(date).expect("day opens");
        let producer = session.pipeline_auto();
        assert!(producer.send(&day[..8]));
        let report = session.seal();
        assert_eq!(report.samples, 8);
        // The seal is the cutoff: the channel is gone, sends are refused —
        // empty ticks included, so a timer-driven feeder learns it too.
        assert!(!producer.send(&day[8..]));
        assert!(!producer.send(day[8..].to_vec()));
        assert!(!producer.send(&[][..]));
    }

    #[test]
    fn dropping_a_session_with_a_full_channel_unblocks_producers() {
        let date = SimDate::new(2014, 8, 5);
        let day = Arc::<[Sample]>::from(test_day(date, 41));
        let mut service = test_service();
        let matcher = service.matcher();
        {
            let mut session = service.begin_day(date).expect("day opens");
            let producer = session.pipeline_auto();
            let state = Arc::clone(&session.state);
            // The compiler lock held, so the worker cannot apply: the
            // flooder fills the channel and blocks on a full one.
            let guard = state.core.compiler.lock().expect("compiler lock");
            let flooder = {
                let producer = producer.clone();
                let day = Arc::clone(&day);
                std::thread::spawn(move || {
                    day.chunks(4)
                        .cycle()
                        .take_while(|chunk| producer.send(*chunk))
                        .count()
                })
            };
            while state.stalls.load(Ordering::Relaxed) == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            // Abandon the day with the flooder blocked, then let the worker
            // run: it discards what is queued instead of applying it.
            drop(session);
            drop(guard);
            drop(producer);
            // The key assertion: the producer thread terminates rather than
            // deadlocking on the full channel.
            let accepted = flooder.join().expect("producer thread finishes");
            assert!(accepted > PIPELINE_BOUND);
        }
        // Abandon semantics: nothing published; whatever batches were
        // applied sit in the warm store until retention ages them out.
        assert_eq!(matcher.epoch(), 0);
        assert!(service.signatures().is_empty());
        // The day is still sealable from scratch.
        let report = service.process_day(date, day).expect("day processes");
        assert!(report.clusters > 0);
    }

    #[test]
    fn matcher_picks_up_the_seal_atomically() {
        let mut service = test_service();
        let matcher = service.matcher();
        assert_eq!(matcher.epoch(), 0);
        assert!(matcher.signatures().is_empty());

        let date = SimDate::new(2014, 8, 5);
        let day = test_day(date, 4);
        // A handle cloned before the seal...
        let clone = matcher.clone();
        let report = service.process_day(date, &day).expect("day processes");
        assert!(!report.new_signatures.is_empty());
        // ...sees the published set afterwards without being re-issued.
        assert_eq!(matcher.epoch(), 1);
        assert_eq!(clone.epoch(), 1);
        assert_eq!(matcher.signatures().len(), (*service.signatures()).len());
        let detected = day.iter().filter(|s| clone.scan(&s.html).is_some()).count();
        assert!(detected > 0);
    }

    #[test]
    fn out_of_order_day_is_refused() {
        let mut service = test_service();
        let d2 = SimDate::new(2014, 8, 6);
        service
            .process_day(d2, test_day(d2, 3))
            .expect("day processes");
        let err = service.begin_day(SimDate::new(2014, 8, 5)).unwrap_err();
        assert!(matches!(err, KizzleError::Ingest(_)), "err: {err}");
        // The same day again is fine (cron re-run after a crash).
        assert!(service.begin_day(d2).is_ok());
    }

    #[test]
    fn far_future_day_is_refused_not_absorbed() {
        let mut service = test_service();
        let d1 = SimDate::new(2014, 8, 6);
        service.process_day(d1, test_day(d1, 3)).expect("day 1");
        let live_before = service.engine().len();
        assert!(live_before > 0);

        // A mis-parsed date years ahead: the old behavior silently retired
        // the whole retained corpus; now it is a typed ingest error and
        // the warm state is untouched.
        let bogus = SimDate::new(2034, 8, 6);
        let err = service.begin_day(bogus).unwrap_err();
        assert!(matches!(err, KizzleError::Ingest(_)), "err: {err}");
        assert!(err.to_string().contains("max_day_advance"), "err: {err}");
        let err = service.process_day(bogus, test_day(bogus, 4)).unwrap_err();
        assert!(matches!(err, KizzleError::Ingest(_)), "err: {err}");
        assert_eq!(service.engine().len(), live_before);
        assert_eq!(service.last_processed_day(), Some(d1));

        // A jump inside the default 90-day horizon still works (gap days
        // are normal: weekends, holidays, pipeline outages).
        let d2 = SimDate::new(2014, 9, 20);
        assert!(service.process_day(d2, test_day(d2, 5)).is_ok());
    }

    #[test]
    fn max_day_advance_is_an_inclusive_boundary() {
        let mut service = test_service();
        let d1 = SimDate::new(2014, 8, 6);
        service.process_day(d1, test_day(d1, 3)).expect("day 1");
        // 91 days ahead exceeds the horizon; 90 is the boundary.
        assert!(service.begin_day(SimDate::new(2014, 11, 5)).is_err());
        assert!(service.begin_day(SimDate::new(2014, 11, 4)).is_ok());
        // The very first day has no baseline, so any date opens.
        let mut fresh = test_service();
        assert!(fresh.begin_day(SimDate::new(2034, 1, 1)).is_ok());
    }

    #[test]
    fn publish_shares_the_set_instead_of_deep_cloning() {
        let mut service = test_service();
        let date = SimDate::new(2014, 8, 5);
        service
            .process_day(date, test_day(date, 3))
            .expect("day processes");
        let matcher = service.matcher();
        // The published epoch and the compiler hold the *same* allocation
        // (publication is an Arc clone), and it is sealed ready-to-scan.
        let published = matcher.signatures();
        assert!(std::ptr::eq(
            Arc::as_ptr(&published),
            &*service.signatures() as *const SignatureSet
        ));
        assert!(published.is_sealed(), "publish must seal the pipeline");
        // The next day's appends copy-on-write: the published snapshot
        // keeps its set while the compiler's grows independently.
        let d2 = SimDate::new(2014, 8, 6);
        let before = published.len();
        service.process_day(d2, test_day(d2, 9)).expect("day 2");
        assert_eq!(published.len(), before, "published snapshot is immutable");
    }

    #[test]
    fn session_dropped_before_first_ingest_is_a_no_op() {
        let mut service = test_service();
        let d1 = SimDate::new(2014, 8, 6);
        service
            .process_day(d1, test_day(d1, 3))
            .expect("day processes");
        let live_before = service.engine().len();

        // A mistaken far-future open, dropped before any ingest: the day
        // cursor has not advanced and the retention sweep has not run.
        // Empty batches — a frontend flushing on a timer with no traffic —
        // must not open the day either.
        let far = SimDate::new(2014, 9, 20);
        {
            let mut session = service.begin_day(far).expect("monotone date opens");
            session.ingest(&[][..]);
            session.ingest(Vec::<Sample>::new());
            assert_eq!(session.ingested(), 0);
        }
        assert_eq!(service.last_processed_day(), Some(d1));
        assert_eq!(service.engine().len(), live_before, "retention swept early");

        // The next legitimate day is therefore still accepted.
        let d2 = SimDate::new(2014, 8, 7);
        let report = service.process_day(d2, test_day(d2, 4)).expect("day 2");
        assert!(report.clusters > 0);
    }

    #[test]
    fn abandoned_session_publishes_nothing() {
        let mut service = test_service();
        let matcher = service.matcher();
        let date = SimDate::new(2014, 8, 5);
        let day = test_day(date, 3);
        {
            let mut session = service.begin_day(date).expect("day opens");
            session.ingest(&day);
            // dropped without seal
        }
        assert_eq!(matcher.epoch(), 0);
        assert!(service.signatures().is_empty());
        // The abandoned samples sit in the warm store until retention ages
        // them out; re-running the day dedups onto them and seals normally.
        let report = service.process_day(date, &day).expect("day processes");
        assert!(report.clusters > 0);
        assert_eq!(matcher.epoch(), 1);
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let mut config = KizzleConfig::fast();
        config.retention_days = 0;
        let reference =
            ReferenceCorpus::seeded_from_models(SimDate::new(2014, 8, 1), &KizzleConfig::fast());
        let err = KizzleService::new(config, reference).unwrap_err();
        assert!(matches!(err, KizzleError::Config(_)), "err: {err}");
        assert!(err.to_string().contains("retention_days"));
    }
}
