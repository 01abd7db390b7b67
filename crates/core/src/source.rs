//! Signature publication sources: the read side of the compile→serve
//! split.
//!
//! A [`Matcher`](crate::Matcher) does not care *where* published
//! signature sets come from — only that it can cheaply ask "did the set
//! change?" and, when it did, fetch a consistent `(epoch, set)` pair.
//! [`SignatureSource`] is exactly that contract, with two
//! implementations:
//!
//! * [`EpochSource`] — the in-process publication point a
//!   [`KizzleService`](crate::KizzleService) swaps on every seal. This is
//!   the pre-existing epoch mechanism, moved here unchanged: publication
//!   is still a reference-count bump and a pointer swap under a write
//!   lock held for nanoseconds.
//! * [`ChainFollower`] — tails a state directory written by
//!   [`KizzleService::save`](crate::KizzleService::save)
//!   on another thread, another process, or another machine's shared
//!   filesystem. Each [`ChainFollower::poll`] stats the state file, and
//!   only when it moved reads it and compares its signature section with
//!   the one it holds; only when that moved does it decode the section,
//!   seal the set (the scan pipeline is built from the signatures, never
//!   read from disk), and swap it in **exactly like the epoch swap** —
//!   scans in flight keep the previous complete set; the next scan on each
//!   handle picks up the new one atomically. A [`ChainFollower::follow`] thread
//!   does not wait out a timer for that: every save wakes the follow
//!   threads bound in its directory.
//!
//! The follower is the subscription half of the deployment topology the
//! paper implies but never names: one compiler sealing days and saving
//! its state, N scan workers (see `kizzle-serve`) following the state
//! directory with zero coupling to the compiler process.

use crate::config::KizzleConfig;
use crate::error::KizzleError;
use crate::snapshot::{decode_publication, SIGNATURES_SECTION, STATE_FILE};
use kizzle_signature::SignatureSet;
use kizzle_snapshot::{Snapshot, SnapshotError};
use std::io;
use std::os::unix::fs::{FileTypeExt, MetadataExt};
use std::os::unix::net::UnixDatagram;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime};

/// File-name prefix of the datagram sockets [`ChainFollower::follow`]
/// threads bind in the state directory (`.kizzle-wake-<pid>-<n>`). Every
/// save sends each of them one byte.
pub(crate) const WAKE_PREFIX: &str = ".kizzle-wake-";

/// Where published signature sets come from — the read-side contract
/// shared by every [`Matcher`](crate::Matcher).
///
/// The two methods split the cost the way the scan hot path needs:
/// [`SignatureSource::epoch_hint`] is a single atomic load (the lock-free
/// "did anything change?" fast path, hit once per scan), while
/// [`SignatureSource::current`] takes whatever lock the source needs to
/// read the `(epoch, set)` pair as one consistent unit (hit only when the
/// hint moved). The pair contract is absolute: the epoch returned always
/// tags exactly the set returned, never a torn mixture — a publication
/// racing `current` yields either the complete previous pair or the
/// complete new one.
pub trait SignatureSource: Send + Sync + 'static {
    /// The publication epoch, as a lock-free hint. Monotone. A read
    /// racing a publication may lag by one — the caller then scans the
    /// previous complete set once more, which is the documented epoch
    /// semantics, not an error.
    fn epoch_hint(&self) -> u64;

    /// The current `(epoch, set)` pair, read as a consistent unit.
    fn current(&self) -> (u64, Arc<SignatureSet>);

    /// Token cap the signatures were compiled under; scans must truncate
    /// documents the same way the compiler did.
    fn token_cap(&self) -> usize;
}

/// The in-process epoch-swapped publication point shared by a
/// [`KizzleService`](crate::KizzleService) and every
/// [`Matcher`](crate::Matcher) handle it has issued.
///
/// The `(epoch, set)` pair lives under one `RwLock`, so a reader never
/// observes an epoch that disagrees with the set it tags — a writer bumps
/// both inside the write lock (held only for a counter increment and a
/// pointer swap). The `epoch_hint` atomic is exactly that, a *hint*: the
/// lock-free fast path compares it against a handle's cached epoch and
/// skips the lock entirely when nothing was published. A hint read that
/// races a publish at worst serves the previous — complete and
/// consistent — set for one more scan.
#[derive(Debug)]
pub struct EpochSource {
    epoch_hint: AtomicU64,
    set: RwLock<(u64, Arc<SignatureSet>)>,
    /// Token cap the signatures were compiled under; scans truncate
    /// documents the same way the compiler did.
    token_cap: usize,
}

impl EpochSource {
    pub(crate) fn new(set: Arc<SignatureSet>, token_cap: usize) -> Self {
        EpochSource {
            epoch_hint: AtomicU64::new(0),
            set: RwLock::new((0, set)),
            token_cap,
        }
    }

    /// Publish a shared handle to the compiler's set. Publication is a
    /// reference-count bump and a pointer swap — the once-daily deep clone
    /// of the whole set is gone; the compiler's next append copies the
    /// members via `Arc::make_mut` instead (and only while an epoch still
    /// shares them).
    pub(crate) fn publish(&self, set: Arc<SignatureSet>) {
        let signatures = set.len();
        let mut slot = self.set.write().expect("signature publication lock");
        slot.0 += 1;
        slot.1 = set;
        self.epoch_hint.store(slot.0, Ordering::Release);
        drop(slot);
        if kizzle_telemetry::enabled() {
            kizzle_telemetry::counter("kizzle_publish_epochs_total").incr();
            kizzle_telemetry::gauge("kizzle_signatures_live").set(signatures as u64);
        }
    }
}

impl SignatureSource for EpochSource {
    fn epoch_hint(&self) -> u64 {
        self.epoch_hint.load(Ordering::Acquire)
    }

    fn current(&self) -> (u64, Arc<SignatureSet>) {
        let slot = self.set.read().expect("signature publication lock");
        (slot.0, Arc::clone(&slot.1))
    }

    fn token_cap(&self) -> usize {
        self.token_cap
    }
}

/// Bookkeeping one poll hands the next, under the poll mutex.
#[derive(Debug, Default)]
struct FollowState {
    /// `(inode, mtime, len)` of the state file at the last completed poll
    /// — the cheapest "nothing happened" check. Each save renames a new
    /// file in, so its inode differs from the previous save's even when
    /// both saves fall in one tick of the filesystem clock with one length.
    file_stamp: Option<(u64, SystemTime, u64)>,
    /// The signature section whose set is swapped in, byte for byte.
    sig_section: Option<Vec<u8>>,
    /// Bounded log of degradations observed while following.
    notes: Vec<String>,
}

impl FollowState {
    const MAX_NOTES: usize = 32;

    fn push_note(&mut self, note: String) {
        if self.notes.last() == Some(&note) {
            return;
        }
        if self.notes.len() == Self::MAX_NOTES {
            self.notes.remove(0);
        }
        self.notes.push(note);
    }
}

/// A [`SignatureSource`] that tails a compiler's state directory.
///
/// The follower is the serving side of a split deployment: a compiler
/// process seals days and [`save`](crate::KizzleService::save)s
/// into a directory; any number of scan workers hold
/// [`Matcher::over`](crate::Matcher::over) handles on one shared
/// `Arc<ChainFollower>` and keep scanning the last published set while
/// [`ChainFollower::poll`] (called manually, or on the
/// [`ChainFollower::follow`] background thread) watches for the next
/// save.
///
/// ## Freshness and consistency
///
/// `poll` itself is a stat of the state file; what decides *when* it runs
/// is the caller. A [`ChainFollower::follow`] thread binds a datagram
/// socket in the state directory, and every
/// [`KizzleService::save`](crate::KizzleService::save) on this host wakes
/// it once the file is renamed in, so a save is served one decode and
/// seal later. The follow interval bounds staleness only where a save
/// cannot wake the thread: a writer on another host of a shared
/// filesystem, or a directory where the socket could not be bound.
/// Consistency is absolute regardless: the state file is written
/// atomically (tmp + rename), and the epoch and the token cap are stored
/// in its signature section beside the set — so every poll reads a set,
/// its epoch and its cap from one save, the previous one or the new one,
/// never a mix. The in-memory swap is the same epoch-bump-under-write-lock
/// the in-process [`EpochSource`] uses, so a scan never observes a torn
/// set. A save that only touched non-signature sections (store/index churn
/// on a day with no new signatures) writes the signature section the
/// follower already holds, and is skipped without decoding it.
///
/// Damage keeps the last-known-good set: a state file whose signature
/// section is unreadable (damaged, truncated, another format version)
/// leaves the previously decoded set and its epoch published, returns the
/// error, records a note and counts in
/// `kizzle_chain_poll_failures_total`. The next save replaces the file
/// and the follower catches up.
#[derive(Debug)]
pub struct ChainFollower {
    dir: PathBuf,
    epoch_hint: AtomicU64,
    slot: RwLock<(u64, Arc<SignatureSet>)>,
    /// Cap stored beside the set being served; until a save is read, the
    /// paper configuration's cap.
    token_cap: AtomicUsize,
    state: Mutex<FollowState>,
}

impl ChainFollower {
    /// A follower for the compiler state file (`kizzle-state.snap`) in
    /// `dir`. Construction never touches the filesystem — a follower may
    /// be created before the compiler's first save; [`ChainFollower::poll`]
    /// reports [`KizzleError::Snapshot`] (io not-found) until a save exists,
    /// and every [`Matcher`](crate::Matcher) scans the empty set
    /// (epoch 0) meanwhile.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        let empty = SignatureSet::new();
        empty.seal();
        ChainFollower {
            dir: dir.into(),
            epoch_hint: AtomicU64::new(0),
            slot: RwLock::new((0, Arc::new(empty))),
            token_cap: AtomicUsize::new(KizzleConfig::paper().token_cap),
            state: Mutex::new(FollowState::default()),
        }
    }

    /// The state directory being tailed.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Check the state directory once and swap in a new set if one was
    /// published. Returns `Ok(true)` when a new epoch was swapped in
    /// (the epoch is the publication count the file stores with the set,
    /// so a follower that polls less often than the compiler saves still
    /// counts every publication, and two followers of one directory agree
    /// on it), `Ok(false)` when the published signatures are unchanged
    /// (two fast paths, cheapest first: a stat of the state file, then a
    /// comparison of its signature section with the one already swapped
    /// in).
    ///
    /// Concurrent polls serialize on an internal mutex; scans are never
    /// blocked by a poll except for the final pointer-swap instant.
    ///
    /// # Errors
    ///
    /// [`KizzleError::Snapshot`] when no state file is readable (io
    /// not-found before the compiler's first save — the caller's signal
    /// to keep waiting) or its signature section is damaged. The
    /// previously decoded set stays published either way. Every error but
    /// not-found is recorded in [`ChainFollower::notes`] and counts in
    /// `kizzle_chain_poll_failures_total`.
    pub fn poll(&self) -> Result<bool, KizzleError> {
        let polled = self.refresh();
        if let Err(err) = &polled {
            if !still_waiting(err) {
                if kizzle_telemetry::enabled() {
                    kizzle_telemetry::counter("kizzle_chain_poll_failures_total").incr();
                }
                let epoch = self.epoch_hint();
                self.push_note(format!("poll failed, still serving epoch {epoch}: {err}"));
            }
        }
        polled
    }

    /// [`ChainFollower::poll`] without the failure count.
    fn refresh(&self) -> Result<bool, KizzleError> {
        let mut state = self.state.lock().expect("chain follower poll lock");
        let loaded = self.epoch_hint.load(Ordering::Acquire) > 0;

        // Fast path 1: the state file did not move since the last
        // completed poll — no save happened. The stat comes before the
        // read, so a save landing between them is read now and stat-ed
        // again at the next poll, never missed.
        let path = self.dir.join(STATE_FILE);
        let stamp = std::fs::metadata(&path)
            .ok()
            .and_then(|meta| Some((meta.ino(), meta.modified().ok()?, meta.len())));
        if loaded && stamp.is_some() && stamp == state.file_stamp {
            return Ok(false);
        }

        // Fast path 2: the file moved, but its (checksum-verified) signature
        // section is the one already swapped in — the save only touched
        // other sections.
        let snapshot = Snapshot::read(&path).map_err(KizzleError::Snapshot)?;
        let section = snapshot
            .section(SIGNATURES_SECTION)
            .map_err(KizzleError::Snapshot)?;
        if loaded && state.sig_section.as_deref() == Some(section) {
            state.file_stamp = stamp;
            return Ok(false);
        }

        let (publications, token_cap, set) =
            decode_publication(section).map_err(KizzleError::Snapshot)?;
        // Seal before the swap, on this thread: no scan on any handle ever
        // pays the pipeline build.
        set.seal();
        let signatures = set.len();
        {
            let mut slot = self.slot.write().expect("chain follower slot lock");
            // One epoch per publication, not per poll: the count came out
            // of the same section as the set. A count that did not move
            // past ours (a fresh compiler restarted the directory) still
            // advances the epoch by one, which keeps it monotone.
            slot.0 = publications.max(slot.0 + 1);
            slot.1 = Arc::new(set);
            self.token_cap.store(token_cap, Ordering::Relaxed);
            self.epoch_hint.store(slot.0, Ordering::Release);
        }
        state.sig_section = Some(section.to_vec());
        state.file_stamp = stamp;
        if kizzle_telemetry::enabled() {
            kizzle_telemetry::counter("kizzle_chain_refreshes_total").incr();
            kizzle_telemetry::gauge("kizzle_signatures_live").set(signatures as u64);
        }
        Ok(true)
    }

    /// Degradations observed while following (failed polls, a follow
    /// thread without a wake socket) — newest last, bounded, consecutive
    /// duplicates collapsed.
    #[must_use]
    pub fn notes(&self) -> Vec<String> {
        self.state
            .lock()
            .expect("chain follower poll lock")
            .notes
            .clone()
    }

    /// Spawn a background thread that [`ChainFollower::poll`]s whenever a
    /// save to the state directory wakes it, and at the latest every
    /// `interval`, until the returned handle is dropped or
    /// [`FollowHandle::shutdown`] is called (both stop it promptly: they
    /// wake it the way a save does).
    ///
    /// The thread waits on a datagram socket bound at
    /// `<dir>/.kizzle-wake-<pid>-<n>` (the directory is created if it is
    /// missing, as the first save would) and removes it when it exits.
    /// Where the socket cannot be bound — a path longer than a socket
    /// address holds, a read-only or remote filesystem — the thread waits
    /// on a private socket pair instead, so only `interval` brings the
    /// next poll; [`FollowHandle::woken_by_saves`] says which, and a note
    /// records why. Poll errors are recorded as [`ChainFollower::notes`]
    /// by the poll itself, except not-found (the compiler simply has not
    /// saved yet).
    pub fn follow(self: &Arc<Self>, interval: Duration) -> FollowHandle {
        let bound = bind_wake_socket(&self.dir)
            .map(|(wake, waker, path)| (wake, waker, Some(path)))
            .inspect_err(|err| {
                self.push_note(format!(
                    "no wake socket in the state directory ({err}): saves are seen by polling every {interval:?}"
                ));
            });
        let woken_by_saves = bound.is_ok();
        let follower = Arc::clone(self);
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        // Without a socket in the directory the thread waits on a private
        // pair: the same loop, woken only by its handle.
        bound
            .or_else(|_| UnixDatagram::pair().map(|(wake, waker)| (wake, waker, None)))
            .and_then(|(wake, waker, socket)| {
                wake.set_read_timeout(Some(interval.max(Duration::from_millis(1))))?;
                // Nonblocking: a full queue already holds a wake.
                waker.set_nonblocking(true)?;
                let worker = std::thread::Builder::new()
                    .name("kizzle-follow".into())
                    .spawn(move || {
                        if let Err(err) = follow_loop(&follower, &wake, &thread_stop) {
                            follower.push_note(format!("follow thread stopped: {err}"));
                        }
                        if let Some(path) = socket {
                            std::fs::remove_file(path).ok();
                        }
                    })?;
                Ok(FollowHandle {
                    stop,
                    waker,
                    woken_by_saves,
                    worker: Some(worker),
                })
            })
            .expect("spawn chain follower thread")
    }

    fn push_note(&self, note: String) {
        self.state
            .lock()
            .expect("chain follower poll lock")
            .push_note(note);
    }
}

/// A poll error that only means the compiler has not saved yet.
fn still_waiting(err: &KizzleError) -> bool {
    matches!(
        err,
        KizzleError::Snapshot(SnapshotError::Io(io)) if io.kind() == io::ErrorKind::NotFound
    )
}

/// The follow thread: poll, then wait for a wake or the read timeout.
/// Returns once the handle's flag is up, or with the error that broke the
/// wait.
fn follow_loop(follower: &ChainFollower, wake: &UnixDatagram, stop: &AtomicBool) -> io::Result<()> {
    let mut byte = [0u8; 1];
    loop {
        // A failed poll has noted itself; the next wake retries.
        let _ = follower.poll();
        if stop.load(Ordering::Acquire) {
            return Ok(());
        }
        // Wakes that queued up meanwhile are drained: the next poll reads
        // whatever the latest save committed.
        if wake.recv(&mut byte).is_ok() {
            wake.set_nonblocking(true)?;
            while wake.recv(&mut byte).is_ok() {}
            wake.set_nonblocking(false)?;
        }
        if stop.load(Ordering::Acquire) {
            return Ok(());
        }
    }
}

/// Bind a follow thread's wake socket in `dir`, creating `dir` as
/// [`KizzleService::save`](crate::KizzleService::save) would:
/// `(the socket, a sender connected to it, its path)`.
fn bind_wake_socket(dir: &Path) -> io::Result<(UnixDatagram, UnixDatagram, PathBuf)> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "{WAKE_PREFIX}{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let wake = UnixDatagram::bind(&path)?;
    let waker = UnixDatagram::unbound()
        .and_then(|waker| waker.connect(&path).map(|()| waker))
        .inspect_err(|_| {
            std::fs::remove_file(&path).ok();
        })?;
    Ok((wake, waker, path))
}

/// Wake every [`ChainFollower::follow`] thread bound in `dir`: one byte to
/// each socket whose name starts with [`WAKE_PREFIX`]. Run after a save has
/// renamed its state file in, and best effort: a wake that is not delivered
/// costs that follower at most its poll interval, never the save. A socket
/// nobody is bound to any more (its follower died before removing it)
/// refuses the byte and is removed; an entry that is not a socket is never
/// touched.
pub(crate) fn wake_followers(dir: &Path) {
    let (Ok(entries), Ok(sender)) = (std::fs::read_dir(dir), UnixDatagram::unbound()) else {
        return;
    };
    // A follower whose queue is full has a wake pending already.
    if sender.set_nonblocking(true).is_err() {
        return;
    }
    for entry in entries.flatten() {
        let named = entry
            .file_name()
            .to_str()
            .is_some_and(|name| name.starts_with(WAKE_PREFIX));
        if !named || !entry.file_type().is_ok_and(|kind| kind.is_socket()) {
            continue;
        }
        let path = entry.path();
        if let Err(err) = sender.send_to(&[1], &path) {
            if err.kind() == io::ErrorKind::ConnectionRefused {
                std::fs::remove_file(&path).ok();
            }
        }
    }
}

impl SignatureSource for ChainFollower {
    fn epoch_hint(&self) -> u64 {
        self.epoch_hint.load(Ordering::Acquire)
    }

    fn current(&self) -> (u64, Arc<SignatureSet>) {
        let slot = self.slot.read().expect("chain follower slot lock");
        (slot.0, Arc::clone(&slot.1))
    }

    fn token_cap(&self) -> usize {
        self.token_cap.load(Ordering::Relaxed)
    }
}

/// Handle to a [`ChainFollower::follow`] background thread. Dropping it
/// stops and joins the thread.
#[derive(Debug)]
pub struct FollowHandle {
    stop: Arc<AtomicBool>,
    /// Connected to the thread's wake socket: one datagram ends its wait.
    waker: UnixDatagram,
    woken_by_saves: bool,
    worker: Option<JoinHandle<()>>,
}

impl FollowHandle {
    /// Whether saves on this host wake the thread (`true`), or it sees them
    /// only at its next interval (`false`: the wake socket could not be
    /// bound in the state directory; [`ChainFollower::notes`] says why).
    #[must_use]
    pub fn woken_by_saves(&self) -> bool {
        self.woken_by_saves
    }

    /// Stop the polling thread and wait for it to exit.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(worker) = self.worker.take() {
            self.stop.store(true, Ordering::Release);
            self.waker.send(&[0]).ok();
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

impl Drop for FollowHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceCorpus;
    use crate::service::KizzleService;
    use crate::Matcher;
    use kizzle_corpus::{GraywareStream, KitFamily, SimDate, StreamConfig};

    fn test_day(date: SimDate, seed: u64) -> Vec<kizzle_corpus::Sample> {
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

    fn test_service() -> KizzleService {
        let config = KizzleConfig::fast();
        let reference = ReferenceCorpus::seeded_from_models(SimDate::new(2014, 8, 1), &config);
        KizzleService::new(config, reference).expect("fast config is valid")
    }

    fn chain_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kizzle-source-test-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn follower_waits_until_the_first_save_then_swaps_in() {
        let dir = chain_dir("first-save");
        let follower = ChainFollower::new(&dir);
        // Nothing published yet: poll reports not-found, the matcher
        // scans the empty set at epoch 0.
        assert!(matches!(
            follower.poll(),
            Err(KizzleError::Snapshot(SnapshotError::Io(_)))
        ));
        assert_eq!(follower.current().0, 0);
        assert!(follower.current().1.is_empty());

        let date = SimDate::new(2014, 8, 5);
        let mut service = test_service();
        let day = test_day(date, 3);
        service.process_day(date, &day).expect("day processes");
        service.save(&dir).expect("state saved");

        assert!(follower.poll().expect("chain readable"));
        let (epoch, set) = follower.current();
        assert_eq!(epoch, 1);
        assert_eq!(&*set, &*service.signatures());
        assert!(set.is_sealed(), "the follower seals before the swap");
        // The token cap came with the set.
        assert_eq!(follower.token_cap(), service.config().token_cap);
        // A second poll with no new save is a cheap no-op.
        assert!(!follower.poll().expect("chain readable"));
        assert_eq!(follower.current().0, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn follower_swaps_like_the_epoch_source_and_skips_unchanged_saves() {
        let dir = chain_dir("parity");
        let mut service = test_service();
        let follower = Arc::new(ChainFollower::new(&dir));
        let tailing: Matcher<ChainFollower> = Matcher::over(Arc::clone(&follower));
        let in_process = service.matcher();

        let d1 = SimDate::new(2014, 8, 5);
        let d2 = SimDate::new(2014, 8, 6);
        for (date, seed) in [(d1, 3), (d2, 4)] {
            let day = test_day(date, seed);
            service.process_day(date, &day).expect("day processes");
            service.save(&dir).expect("state saved");
            assert!(follower.poll().expect("chain readable"));
            // Byte-identical verdicts through both sources, and the same
            // Arc shared by the whole follower (no per-scan clone).
            assert_eq!(&*tailing.signatures(), &*in_process.signatures());
            assert!(Arc::ptr_eq(&tailing.signatures(), &follower.current().1));
            for sample in &day {
                assert_eq!(tailing.scan(&sample.html), in_process.scan(&sample.html));
            }
        }
        assert_eq!(tailing.epoch(), 2, "one swap per signature change");

        // A save that changes nothing must not bump the follower's epoch
        // (fingerprint fast path).
        service.save(&dir).expect("no-change save");
        assert!(!follower.poll().expect("chain readable"));
        assert_eq!(tailing.epoch(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn epochs_count_publications_not_polls() {
        // Two followers of one chain: one polls after every save, the
        // other only after several. They must agree on the epoch — a
        // verdict's epoch is compared across processes.
        let dir = chain_dir("coalesced");
        let mut service = test_service();
        let eager = ChainFollower::new(&dir);
        let lazy = ChainFollower::new(&dir);
        let mut date = SimDate::new(2014, 8, 5);
        let mut publish = |service: &mut KizzleService, seed: u64| {
            let before = service.signatures().len();
            service
                .process_day(date, test_day(date, seed))
                .expect("day processes");
            date = date.next();
            service.save(&dir).expect("state saved");
            assert!(
                service.signatures().len() > before,
                "seed {seed} adds signatures"
            );
        };

        publish(&mut service, 3);
        assert!(eager.poll().expect("chain readable"));
        assert!(lazy.poll().expect("chain readable"));
        assert_eq!((eager.current().0, lazy.current().0), (1, 1));

        // Two publications and a no-change save between the lazy
        // follower's polls.
        publish(&mut service, 4);
        assert!(eager.poll().expect("chain readable"));
        publish(&mut service, 5);
        assert!(eager.poll().expect("chain readable"));
        service.save(&dir).expect("no-change save");
        assert!(!eager.poll().expect("chain readable"));
        assert_eq!(eager.current().0, 3);
        assert!(lazy.poll().expect("chain readable"));
        assert_eq!(lazy.current().0, 3, "one swap, two publications");
        assert_eq!(&*lazy.current().1, &*eager.current().1);

        // And they stay in step afterwards.
        publish(&mut service, 6);
        assert!(eager.poll().expect("chain readable"));
        assert!(lazy.poll().expect("chain readable"));
        assert_eq!((eager.current().0, lazy.current().0), (4, 4));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn follow_thread_picks_up_saves_and_shuts_down_promptly() {
        let dir = chain_dir("thread");
        let follower = Arc::new(ChainFollower::new(&dir));
        let handle = follower.follow(Duration::from_millis(5));

        let date = SimDate::new(2014, 8, 5);
        let mut service = test_service();
        service
            .process_day(date, test_day(date, 7))
            .expect("day processes");
        service.save(&dir).expect("state saved");

        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while follower.epoch_hint() == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "follower never saw the save"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(&*follower.current().1, &*service.signatures());
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A follower scans with the cap the set was compiled under, read from
    /// the state file alone: a directory holding nothing else still gives
    /// a fast-config follower its cap of 500, not the paper's 900.
    #[test]
    fn the_token_cap_travels_with_the_set() {
        let dir = chain_dir("cap");
        let date = SimDate::new(2014, 8, 5);
        let mut service = test_service();
        service
            .process_day(date, test_day(date, 3))
            .expect("day processes");
        service.save(&dir).expect("state saved");
        for entry in std::fs::read_dir(&dir).expect("state dir lists") {
            let path = entry.expect("entry").path();
            if !path.ends_with(STATE_FILE) {
                std::fs::remove_file(path).expect("removed");
            }
        }
        let follower = ChainFollower::new(&dir);
        assert_eq!(follower.token_cap(), KizzleConfig::paper().token_cap);
        assert!(follower.poll().expect("state readable"));
        assert_eq!(follower.token_cap(), 500);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Two saves inside one tick of the filesystem clock can leave state
    /// files of equal length and mtime (the two saves below are padded to
    /// one length with a section no reader asks for, in place, and stamped
    /// with one mtime). Every save renames a new file in, so its inode
    /// still moves, and a follower that saw the first save does not take
    /// the second for no save.
    #[test]
    fn a_save_in_the_same_clock_tick_and_length_is_not_missed() {
        const LEN: usize = 1 << 20;
        let dir = chain_dir("same-tick");
        let path = dir.join(STATE_FILE);
        // In place, so the padding keeps the save's inode.
        let pad = || {
            let saved = Snapshot::read(&path).expect("state file");
            let mut builder = kizzle_snapshot::SnapshotBuilder::new();
            let mut len = 0;
            for name in saved.section_names() {
                let payload = saved.section(name).expect("intact");
                len += 14 + name.len() + payload.len();
                builder.section(name, payload.to_vec());
            }
            let padding = LEN - (16 + len + 4) - (14 + "padding".len());
            builder.section("padding", vec![0; padding]);
            let bytes = builder.to_bytes();
            assert_eq!(bytes.len(), LEN);
            let mut file = std::fs::OpenOptions::new()
                .write(true)
                .truncate(true)
                .open(&path)
                .expect("state file");
            io::Write::write_all(&mut file, &bytes).expect("padding");
            file
        };
        let mut service = test_service();
        let follower = ChainFollower::new(&dir);
        let d1 = SimDate::new(2014, 8, 5);
        service
            .process_day(d1, test_day(d1, 3))
            .expect("day processes");
        service.save(&dir).expect("state saved");
        let first = pad()
            .metadata()
            .expect("state file")
            .modified()
            .expect("mtime");
        assert!(follower.poll().expect("state readable"));

        let d2 = d1.next();
        service
            .process_day(d2, test_day(d2, 4))
            .expect("day processes");
        service.save(&dir).expect("state saved");
        pad().set_modified(first).expect("mtime");
        let meta = std::fs::metadata(&path).expect("state file");
        assert_eq!(
            (meta.modified().expect("mtime"), meta.len()),
            (first, LEN as u64)
        );

        assert!(
            follower.poll().expect("state readable"),
            "the second save was missed"
        );
        assert_eq!(follower.current().0, 2);
        assert_eq!(&*follower.current().1, &*service.signatures());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The wake sockets bound in `dir`.
    fn wake_sockets(dir: &Path) -> Vec<PathBuf> {
        std::fs::read_dir(dir)
            .expect("chain dir lists")
            .flatten()
            .filter(|entry| entry.file_type().is_ok_and(|kind| kind.is_socket()))
            .map(|entry| entry.path())
            .filter(|path| {
                path.file_name()
                    .and_then(|name| name.to_str())
                    .is_some_and(|name| name.starts_with(WAKE_PREFIX))
            })
            .collect()
    }

    #[test]
    fn a_save_wakes_a_follower_that_polls_hourly() {
        let dir = chain_dir("hourly");
        let follower = Arc::new(ChainFollower::new(&dir));
        let handle = follower.follow(Duration::from_secs(3600));
        assert!(handle.woken_by_saves());
        let sockets = wake_sockets(&dir);
        assert_eq!(sockets.len(), 1, "one wake socket per follow thread");

        let date = SimDate::new(2014, 8, 5);
        let mut service = test_service();
        service
            .process_day(date, test_day(date, 7))
            .expect("day processes");
        service.save(&dir).expect("state saved");

        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while follower.epoch_hint() == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "the save did not wake the follower"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(&*follower.current().1, &*service.signatures());

        let stopping = std::time::Instant::now();
        handle.shutdown();
        assert!(
            stopping.elapsed() < Duration::from_secs(2),
            "shutdown waits"
        );
        assert!(!sockets[0].exists(), "the thread removes its socket");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_save_removes_dead_wake_sockets_and_touches_nothing_else() {
        let dir = chain_dir("hygiene");
        std::fs::create_dir_all(&dir).expect("chain dir");
        // A follower that died without removing its socket: bound, then
        // closed, so the path refuses datagrams.
        let dead = dir.join(format!("{WAKE_PREFIX}dead"));
        drop(UnixDatagram::bind(&dead).expect("bind"));
        // Not a socket, or not ours: never touched.
        let regular = dir.join(format!("{WAKE_PREFIX}x"));
        std::fs::write(&regular, b"keep").expect("regular file");
        let foreign = dir.join("other.sock");
        let _foreign = UnixDatagram::bind(&foreign).expect("bind");
        // A live follower keeps its socket across saves.
        let follower = Arc::new(ChainFollower::new(&dir));
        let handle = follower.follow(Duration::from_secs(3600));
        let live = wake_sockets(&dir)
            .into_iter()
            .find(|path| *path != dead)
            .expect("the follow thread's socket");

        let mut service = test_service();
        let mut date = SimDate::new(2014, 8, 5);
        for seed in [3, 4] {
            service
                .process_day(date, test_day(date, seed))
                .expect("day processes");
            date = date.next();
            service.save(&dir).expect("state saved");
        }
        assert!(!dead.exists(), "a refused socket is removed");
        assert_eq!(std::fs::read(&regular).expect("survives"), b"keep");
        assert!(foreign.exists() && live.exists());

        // Every reader of the directory ignores the sockets: the state
        // reads, saves and loads as if they were not there.
        crate::read_signatures(&dir).expect("state reads");
        service.save(&dir).expect("state saved");
        let (loaded, _) = KizzleService::load(&dir, KizzleConfig::fast()).expect("loads");
        assert_eq!(&*loaded.signatures(), &*service.signatures());
        assert!(live.exists() && foreign.exists());
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
