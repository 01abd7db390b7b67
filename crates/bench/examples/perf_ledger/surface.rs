//! Every call the benchmark makes into the product, and nothing else.
//!
//! The rest of `perf_ledger` imports no `kizzle*` crate: a change that
//! collapses or renames a product API needs a follow-up to this one file
//! (the list is repeated in the README so reviews can diff it).

use kizzle::prelude::*;
use kizzle_corpus::benign::{generate_benign, BenignKind};
use kizzle_corpus::{KitFamily, KitModel, SampleId};
use kizzle_serve::protocol::{
    self, decode_scan_reply, read_frame, write_request, FrameRead, OP_SCAN, ST_OK,
};
use kizzle_serve::ScanClient;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::io::{self, BufRead};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use kizzle_corpus::{Sample, SimDate};

/// Name of the daemon binary the root workspace builds.
pub const DAEMON_BINARY: &str = "kizzle-serve";
/// Package that owns it (`cargo build --release -p <this>`).
pub const DAEMON_PACKAGE: &str = "kizzle-serve";

/// The daemon's documented flags, as the wire phases use them.
pub fn daemon_args(chain_dir: &Path) -> Vec<String> {
    vec![
        "--chain-dir".into(),
        chain_dir.display().to_string(),
        "--addr".into(),
        "127.0.0.1:0".into(),
        "--workers".into(),
        "2".into(),
        "--poll-ms".into(),
        "50".into(),
    ]
}

/// The token cap `KizzleConfig::paper()` compiles and scans under
/// (looked up once: this sits on the replayed scan path).
pub fn token_cap() -> usize {
    static CAP: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CAP.get_or_init(|| KizzleConfig::paper().token_cap)
}

// --- corpus ---------------------------------------------------------------

/// How many page classes the generator knows: the four kits, then the
/// five benign kinds.
pub const KIT_CLASSES: usize = KitFamily::ALL.len();
pub const PAGE_CLASSES: usize = KIT_CLASSES + BenignKind::ALL.len();

/// Stock mixture: share of each page class in a day (15 % malicious with
/// the stream's default family weights; benign kinds uniform).
pub fn class_shares() -> [f64; PAGE_CLASSES] {
    let mut shares = [0.0; PAGE_CLASSES];
    for (slot, family) in KitFamily::ALL.iter().enumerate() {
        shares[slot] = 0.15
            * match family {
                KitFamily::Angler => 0.45,
                KitFamily::SweetOrange => 0.25,
                KitFamily::Nuclear => 0.20,
                KitFamily::Rig => 0.10,
            };
    }
    for share in &mut shares[KIT_CLASSES..] {
        *share = 0.85 / BenignKind::ALL.len() as f64;
    }
    shares
}

/// One generated page of `class` as served on `date`.
pub fn generate_page(class: usize, date: SimDate, id: u64, seed: u64) -> Sample {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (html, truth) = if class < KIT_CLASSES {
        let family = KitFamily::ALL[class];
        (
            KitModel::new(family).generate_sample(date, &mut rng),
            kizzle_corpus::GroundTruth::Malicious(family),
        )
    } else {
        (
            generate_benign(BenignKind::ALL[class - KIT_CLASSES], &mut rng),
            kizzle_corpus::GroundTruth::Benign,
        )
    };
    Sample::new(SampleId(id), date, html, truth)
}

pub fn sample_id(sample: &Sample) -> u64 {
    sample.id.0
}

pub fn is_malicious(sample: &Sample) -> bool {
    sample.truth.is_malicious()
}

/// Seeded in-place shuffle (the vendored `rand`, so orders repeat).
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    items.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
}

// --- compile side ---------------------------------------------------------

/// Counts and phase times the product reports for one sealed day.
#[derive(Debug, Clone, Default)]
pub struct DayCounts {
    pub clusters: u64,
    pub noise: u64,
    pub new_signatures: u64,
    pub producer_stalls: u64,
    pub max_queue_depth: u64,
    pub index_queries: u64,
    pub index_cache_hits: u64,
    pub window_candidates: u64,
    pub pruned_by_histogram: u64,
    pub distance_calls: u64,
    pub partition_s: f64,
    pub map_s: f64,
    pub reduce_s: f64,
    pub reconcile_s: f64,
    pub adopt_s: f64,
    pub prototype_s: f64,
}

/// Wall times of one day's blocking steps, as the benchmark saw them.
#[derive(Debug, Clone)]
pub struct DayTimes {
    pub start: Instant,
    pub ingest: Duration,
    pub seal: Duration,
    pub save: Duration,
    pub poll: Duration,
    pub poll_noop: Duration,
    pub turnaround: Duration,
}

pub struct DayOutcome {
    pub times: DayTimes,
    pub counts: DayCounts,
    /// The follower serves exactly the set the service published.
    pub follower_in_sync: bool,
}

/// The compiler process of the split deployment: a warm service that
/// saves into a chain directory, plus the in-process follower the day
/// workloads time as "scanners protected".
pub struct Compiler {
    service: KizzleService,
    follower: Arc<ChainFollower>,
    chain_dir: PathBuf,
}

impl Compiler {
    pub fn boot(start: SimDate, chain_dir: &Path) -> Self {
        let config = KizzleConfig::paper();
        let reference = ReferenceCorpus::seeded_from_models(start, &config);
        let service = KizzleService::new(config, reference).expect("paper config is valid");
        Compiler {
            service,
            follower: Arc::new(ChainFollower::new(chain_dir)),
            chain_dir: chain_dir.to_path_buf(),
        }
    }

    /// One closed-loop day: `begin_day` → 32-sample batches through the
    /// pipelined frontend (backpressure) → drained → `seal` → `save` →
    /// follower `poll`. A second poll times the nothing-changed path.
    pub fn run_day(&mut self, date: SimDate, samples: &[Sample]) -> DayOutcome {
        let started = Instant::now();
        let mut session = self.service.begin_day(date).expect("dates are monotone");
        let producer = session.pipeline_auto();
        for batch in samples.chunks(32) {
            assert!(producer.send(batch), "session is open");
        }
        drop(producer);
        while session.ingested() < samples.len() {
            // Sleep, not spin: the ingest worker needs the core.
            std::thread::sleep(Duration::from_micros(100));
        }
        let ingest = started.elapsed();

        let seal_started = Instant::now();
        let report = session.seal();
        let seal = seal_started.elapsed();

        let save_started = Instant::now();
        self.service.save(&self.chain_dir).expect("chain save");
        let save = save_started.elapsed();

        let poll_started = Instant::now();
        let polled = self.follower.poll();
        let poll = poll_started.elapsed();
        let turnaround = started.elapsed();

        let noop_started = Instant::now();
        let noop = self.follower.poll();
        let poll_noop = noop_started.elapsed();

        let follower_in_sync = polled.is_ok()
            && matches!(noop, Ok(false))
            && set_digest(&self.follower.current().1) == set_digest(&self.service.signatures());

        let stats = &report.clustering_stats;
        let counts = DayCounts {
            clusters: report.clusters as u64,
            noise: report.noise as u64,
            new_signatures: report.new_signatures.len() as u64,
            producer_stalls: report.pipeline.producer_stalls,
            max_queue_depth: report.pipeline.max_queue_depth,
            index_queries: stats.index.queries as u64,
            index_cache_hits: stats.index.cache_hits as u64,
            window_candidates: stats.index.window_candidates as u64,
            pruned_by_histogram: stats.index.pruned_by_histogram as u64,
            distance_calls: stats.index.distance_calls as u64,
            partition_s: stats.partition_time.as_secs_f64(),
            map_s: stats.map_time.as_secs_f64(),
            reduce_s: stats.reduce_time.as_secs_f64(),
            reconcile_s: stats.reconcile_time.as_secs_f64(),
            adopt_s: stats.adopt_time.as_secs_f64(),
            prototype_s: stats.prototype_time.as_secs_f64(),
        };
        DayOutcome {
            times: DayTimes {
                start: started,
                ingest,
                seal,
                save,
                poll,
                poll_noop,
                turnaround,
            },
            counts,
            follower_in_sync,
        }
    }

    pub fn chain_dir(&self) -> &Path {
        &self.chain_dir
    }

    /// Live (deduplicated) samples in the warm store.
    pub fn live_samples(&self) -> u64 {
        self.service.engine().len() as u64
    }

    /// Digest of the published signature set (labels + rendered patterns).
    pub fn signature_digest(&self) -> u64 {
        set_digest(&self.service.signatures())
    }

    pub fn signature_count(&self) -> u64 {
        self.service.signatures().len() as u64
    }

    /// Epoch of the in-process follower: how many times the published
    /// signatures have changed. The daemon follows the same chain from
    /// the same empty directory, so it has caught up when it reports the
    /// same number.
    pub fn epoch(&self) -> u64 {
        self.follower.current().0
    }

    /// What a scanner following the chain answers, in this process — the
    /// oracle wire verdicts are compared against.
    pub fn oracle(&self) -> Oracle {
        Oracle {
            matcher: Matcher::over(Arc::clone(&self.follower)),
        }
    }

    /// Freeze the follower's current set, so phase-C replies can be
    /// checked against the epoch they carry after the traffic has stopped.
    pub fn freeze_epoch(&self) -> FrozenEpoch {
        let (_, set) = self.follower.current();
        FrozenEpoch {
            matcher: Matcher::over(Arc::new(Frozen { set })),
        }
    }

    /// Publisher step for the hot-swap phase: seal a small day, save, and
    /// let the oracle follower catch up. Returns whether the published
    /// signatures changed (only then does a follower swap epochs).
    pub fn publish_day(&mut self, date: SimDate, samples: &[Sample]) -> bool {
        let mut session = self.service.begin_day(date).expect("dates are monotone");
        session.ingest(samples);
        let _ = session.seal();
        self.service.save(&self.chain_dir).expect("chain save");
        matches!(self.follower.poll(), Ok(true))
    }
}

fn set_digest(set: &SignatureSet) -> u64 {
    let mut hash = Fnv::default();
    for labeled in set.iter() {
        hash.write(labeled.label.as_bytes());
        hash.write(labeled.signature.render().as_bytes());
    }
    hash.0
}

/// FNV-1a, for digests that must repeat across processes.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        // Field separator, so ("ab","c") and ("a","bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

// --- scan side, in process -------------------------------------------------

/// `(signature index, family code)` — the part of a verdict that must
/// agree between the wire and the in-process matcher.
pub type Verdict = (Option<u32>, Option<u8>);

fn verdict_of(v: &ScanVerdict) -> Verdict {
    (v.index, v.family.map(protocol::family_code))
}

pub struct Oracle {
    matcher: Matcher<ChainFollower>,
}

impl Oracle {
    pub fn scan(&self, document: &str) -> Verdict {
        verdict_of(&self.matcher.scan_verdict(document))
    }

    pub fn scan_tokens(&self, tokens: &Tokens) -> Verdict {
        verdict_of(&self.matcher.scan_stream_verdict(&tokens.0))
    }
}

struct Frozen {
    set: Arc<SignatureSet>,
}

impl SignatureSource for Frozen {
    fn epoch_hint(&self) -> u64 {
        0
    }
    fn current(&self) -> (u64, Arc<SignatureSet>) {
        (0, Arc::clone(&self.set))
    }
    fn token_cap(&self) -> usize {
        token_cap()
    }
}

pub struct FrozenEpoch {
    matcher: Matcher<Frozen>,
}

impl FrozenEpoch {
    pub fn scan(&self, document: &str) -> Verdict {
        verdict_of(&self.matcher.scan_verdict(document))
    }
}

/// A tokenized document (opaque outside this file).
pub struct Tokens(kizzle_js::TokenStream);

impl Tokens {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Token-class string: what the clustering layer deduplicates on.
    #[cfg(test)]
    pub fn class_string(&self) -> Vec<u8> {
        self.0.class_codes()
    }
}

pub fn tokenize(document: &str) -> Tokens {
    Tokens(kizzle_js::tokenize_document_capped(document, token_cap()))
}

/// Tokenize without the cap (self-tests compare against the capped form).
#[cfg(test)]
pub fn tokenize_uncapped(document: &str) -> Tokens {
    Tokens(kizzle_js::tokenize_document_capped(document, usize::MAX))
}

pub fn unpack(document: &str) -> String {
    kizzle_unpack::unpack_or_passthrough(document).1
}

pub fn fingerprint(text: &str) -> usize {
    let config = KizzleConfig::paper().winnow;
    std::hint::black_box(kizzle_winnow::Fingerprint::of_text(text, &config));
    text.len()
}

// --- wire ---------------------------------------------------------------------

/// Append one SCAN request frame for `document` to `out`.
pub fn encode_scan_request(out: &mut Vec<u8>, document: &str) {
    write_request(out, OP_SCAN, document.as_bytes()).expect("writing to a Vec cannot fail");
}

/// What one reply frame said.
pub enum Reply {
    Scan {
        verdict: Verdict,
        epoch: u64,
    },
    /// `ST_ERROR`, or a body that is not a scan reply.
    Failed,
}

fn decode_reply(frame: &[u8]) -> Reply {
    match frame.split_first() {
        Some((&ST_OK, body)) => match decode_scan_reply(body) {
            Ok(v) => Reply::Scan {
                verdict: verdict_of(&v),
                epoch: v.epoch,
            },
            Err(_) => Reply::Failed,
        },
        _ => Reply::Failed,
    }
}

/// Blocking read of the next reply frame. A read timeout before the
/// first byte of a frame comes back as `ErrorKind::TimedOut`, so the
/// caller can check its deadline and call again.
pub fn read_reply(reader: &mut impl BufRead, scratch: &mut Vec<u8>) -> io::Result<Reply> {
    match read_frame(reader, scratch)? {
        FrameRead::Frame => Ok(decode_reply(scratch)),
        FrameRead::Idle => Err(io::ErrorKind::TimedOut.into()),
        FrameRead::Closed => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "daemon closed the connection",
        )),
    }
}

/// Blocking admin/one-at-a-time client (`STATUS`, `METRICS`, `SHUTDOWN`,
/// window-1 scans).
pub struct Admin(ScanClient);

impl Admin {
    pub fn connect(addr: &str) -> io::Result<Self> {
        ScanClient::connect(addr).map(Admin)
    }

    pub fn scan(&mut self, document: &str) -> io::Result<Verdict> {
        self.0.scan(document).map(|v| verdict_of(&v))
    }

    pub fn status(&mut self) -> io::Result<String> {
        self.0.status()
    }

    pub fn metrics(&mut self) -> io::Result<String> {
        self.0.metrics()
    }

    pub fn shutdown(self) -> io::Result<()> {
        self.0.shutdown()
    }
}

// --- telemetry (traced run only) -------------------------------------------

/// A span the product recorded: `(name, start µs, duration µs)` on the
/// telemetry clock.
pub type ProductSpan = (&'static str, u64, u64);

pub fn telemetry(on: bool) {
    kizzle_telemetry::set_enabled(on);
}

/// Everything the product recorded since the last drain. Worker threads
/// flush when they exit, so call this after a day has sealed.
pub fn drain_product_spans() -> Vec<ProductSpan> {
    kizzle_telemetry::drain()
        .into_iter()
        .filter_map(|record| match record {
            kizzle_telemetry::Record::Span {
                name,
                start_us,
                dur_us,
                ..
            } => Some((name, start_us, dur_us)),
            kizzle_telemetry::Record::Event { .. } => None,
        })
        .collect()
}
