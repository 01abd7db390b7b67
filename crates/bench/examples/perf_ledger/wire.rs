//! The serve side of every workload: the chain directory the compiler
//! saves into is served by a `kizzle-serve` child process and scanned
//! over loopback TCP in a chunk after every measured day, every verdict
//! checked against the in-process matcher over the same chain. The traced
//! run adds the open-loop ladder, window-1 round trips and hot swaps
//! under traffic.

use crate::daemon::Daemon;
use crate::inputs;
use crate::loadgen::{self, Completion, OpenLoopRun};
use crate::spans::SpanLog;
use crate::stats::{self, Summary};
use crate::surface::{self, Admin, Compiler, FrozenEpoch, Sample, Verdict};
use std::time::{Duration, Instant};

/// Open-loop rates, scans/s (traced run), ×1.5 a rung from well below to
/// just under what the closed loop saturates at, so the highest rung that
/// meets the SLO can move either way. `SLO_RUNG` gets the longest window;
/// the hot-swap phase runs at it too.
pub const LADDER: [u32; 8] = [2_000, 3_000, 4_500, 6_750, 10_000, 15_000, 22_500, 34_000];
pub const SLO_RUNG: u32 = 4_500;
/// A rung meets the SLO with p99 from the due time at or under this,
/// no failed or shed request, and no backlog left growing.
pub const SLO_P99_US: f64 = 2_000.0;
pub const MAX_DOCUMENTS: usize = 2_000;
/// The closed loop's throughput is counted per slice of this length.
pub const SLICE: Duration = Duration::from_millis(250);
/// Open-loop latency is summarised per slice of this length (windows
/// shorter than two slices are one slice).
const LATENCY_SLICE: Duration = Duration::from_millis(250);
const CONNECTIONS: usize = 2;
const WINDOW: usize = 32;
/// Share of an open-loop window discarded as ramp-up.
const DISCARD: f64 = 0.2;
/// Samples in each of the hot-swap phase's published days.
const SWAP_DAY_SAMPLES: usize = 200;
const SWAPS: usize = 2;
/// How long the daemon may take to serve a day the compiler has saved.
const CATCH_UP_LIMIT: Duration = Duration::from_secs(2);

#[derive(Debug, Clone, Default)]
pub struct Rung {
    pub rate: u32,
    /// Over the whole measured window.
    pub latency: Summary,
    /// Medians over the window's [`LATENCY_SLICE`]s of each slice's own
    /// p50 and p99: one hypervisor stall (this VM loses a vCPU for
    /// ~100 ms now and then) spoils one slice, not the run's figure.
    pub slice_p50_us: f64,
    pub slice_p99_us: f64,
    pub slices: usize,
    /// Requests sent; `failed` of them got no reply or a wrong verdict.
    pub attempted: u64,
    pub failed: u64,
    /// Requests the generator dropped because the daemon was more than
    /// [`loadgen::MAX_OUTSTANDING`] behind: the rung misses the SLO, the
    /// run is not at fault.
    pub shed: u64,
    pub backlog_growth: i64,
    pub max_backlog: u64,
    pub late_p99_us: f64,
    pub meets_slo: bool,
}

#[derive(Debug, Default)]
pub struct ServeResult {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub documents: usize,
    /// Answered scans in every [`SLICE`] of every closed-loop chunk.
    pub slice_scans: Vec<f64>,
    /// Daemon CPU per answered scan, one value per chunk, µs.
    pub chunk_cpu_us: Vec<f64>,
    /// Per measured day: `save` returned → the daemon reports the day's
    /// signatures, ms (its poll interval is 50 ms).
    pub catch_up_ms: Vec<f64>,
    // Traced run only. One entry per rung of the ladder.
    pub rungs: Vec<Rung>,
    pub rate_at_slo: f64,
    pub swap: Rung,
    pub publish_to_new_epoch_ms: f64,
    pub swaps_seen: u64,
    pub rtt: Summary,
    pub empty_rtt_us: f64,
    pub daemon_peak_rss_mb: f64,
    pub anchor_hits_per_scan: f64,
    pub prefilter_reject_ratio: f64,
    pub verify_confirm_ratio: f64,
}

/// The documents and the daemon they are sent to.
struct Target<'a> {
    docs: &'a Documents,
    addr: &'a str,
}

struct Documents {
    html: Vec<String>,
    frames: Vec<Vec<u8>>,
    expected: Vec<Verdict>,
}

impl Documents {
    /// At most [`MAX_DOCUMENTS`] of `day`'s pages in a seeded order;
    /// `expected` is filled by [`Server::catch_up`].
    fn load(day: &[Sample], seed: u64) -> Self {
        let mut html: Vec<String> = day
            .iter()
            .take(MAX_DOCUMENTS)
            .map(|s| s.html.clone())
            .collect();
        surface::shuffle(&mut html, inputs::mix(seed ^ 0xD0C5));
        let frames = html
            .iter()
            .map(|doc| {
                let mut frame = Vec::with_capacity(doc.len() + 5);
                surface::encode_scan_request(&mut frame, doc);
                frame
            })
            .collect();
        Documents {
            expected: Vec::new(),
            html,
            frames,
        }
    }
}

/// Count completions whose reply is missing or disagrees with `expect`.
fn count_failed(
    completions: &[Completion],
    expect: impl Fn(&Completion, Verdict, u64) -> bool,
) -> u64 {
    completions
        .iter()
        .filter(|c| {
            !c.reply
                .is_some_and(|(verdict, epoch)| expect(c, verdict, epoch))
        })
        .count() as u64
}

fn summarize_rung(rate: u32, window: Duration, run: &OpenLoopRun, failed: u64) -> Rung {
    let from_us = (window.as_micros() as f64 * DISCARD) as u64;
    let measured_us = window.as_micros() as u64 - from_us;
    let slice_us = LATENCY_SLICE.as_micros() as u64;
    let slice_count = (measured_us / slice_us).max(1) as usize;
    let mut by_slice: Vec<Vec<f64>> = vec![Vec::new(); slice_count];
    for c in run
        .completions
        .iter()
        .filter(|c| c.due_us >= from_us && c.reply.is_some())
    {
        let slice = ((c.due_us - from_us) / slice_us) as usize;
        by_slice[slice.min(slice_count - 1)].push(c.latency_us());
    }
    let slice_summaries: Vec<Summary> = by_slice
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| stats::summarize(s.clone()))
        .collect();
    let slice_median =
        |f: fn(&Summary) -> f64| stats::median(&slice_summaries.iter().map(f).collect::<Vec<_>>());
    let (slice_p50_us, slice_p99_us) = (slice_median(|s| s.p50), slice_median(|s| s.p99));
    let latencies: Vec<f64> = by_slice.into_iter().flatten().collect();
    let measured_backlog: Vec<u64> = run
        .backlog
        .iter()
        .filter(|(at, _)| *at >= from_us)
        .map(|(_, b)| *b)
        .collect();
    // Growth: mean outstanding over the last fifth of the window minus
    // the mean over its first fifth.
    let fifth = (measured_backlog.len() / 5).max(1);
    let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len().max(1) as f64;
    let backlog_growth = if measured_backlog.is_empty() {
        0
    } else {
        (mean(&measured_backlog[measured_backlog.len() - fifth..])
            - mean(&measured_backlog[..fifth]))
        .round() as i64
    };
    let latency = stats::summarize(latencies);
    // Outstanding work equal to the SLO's worth of traffic is the most a
    // keeping-up daemon can hold (Little's law at the latency limit).
    let allowance = (f64::from(rate) * SLO_P99_US / 1e6).ceil() as i64;
    Rung {
        rate,
        attempted: run.completions.len() as u64,
        failed,
        shed: run.shed,
        backlog_growth,
        max_backlog: measured_backlog.iter().copied().max().unwrap_or(0),
        late_p99_us: stats::summarize(run.lateness_us.clone()).p99,
        meets_slo: failed == 0
            && run.shed == 0
            && latency.count > 0
            && slice_p99_us <= SLO_P99_US
            && backlog_growth <= allowance,
        latency,
        slice_p50_us,
        slice_p99_us,
        slices: slice_summaries.len(),
    }
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.trim().parse().ok())
}

fn prometheus_value(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// What `STATUS` says the daemon serves: `(epoch, signatures)`.
pub fn daemon_status(addr: &str) -> std::io::Result<(u64, u64)> {
    // A connection of its own each time: the daemon serves one connection
    // per worker, so an idle admin connection would hold a worker.
    let status = Admin::connect(addr)?.status()?;
    let field = |key| status_field(&status, key).ok_or_else(|| std::io::Error::other("STATUS"));
    Ok((field("epoch")?, field("signatures")?))
}

/// Poll `STATUS` until the daemon serves what `compiler` last saved: the
/// same epoch (a day that replaces a signature keeps the count) and the
/// same number of signatures. `false` if it has not after `limit`, or has
/// exited.
pub fn await_published(daemon: &mut Daemon, compiler: &Compiler, limit: Duration) -> bool {
    let want = (compiler.epoch(), compiler.signature_count());
    let started = Instant::now();
    loop {
        if matches!(daemon_status(&daemon.addr), Ok(served) if served == want) {
            return true;
        }
        if !daemon.alive() || started.elapsed() > limit {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The daemon and the documents it is sent.
pub struct Server {
    daemon: Daemon,
    addr: String,
    docs: Documents,
    result: ServeResult,
}

impl Server {
    /// Take over the daemon set-up spawned; `day`'s pages are the
    /// documents every later scan sends.
    pub fn new(daemon: Daemon, day: &[Sample], seed: u64) -> Self {
        let docs = Documents::load(day, seed);
        Server {
            addr: daemon.addr.clone(),
            daemon,
            result: ServeResult {
                documents: docs.html.len(),
                ..ServeResult::default()
            },
            docs,
        }
    }

    /// Wait until the daemon serves what `compiler` last saved, then
    /// refresh the verdicts its replies are checked against. Returns how
    /// long the wait was.
    pub fn catch_up(&mut self, compiler: &Compiler) -> Duration {
        let started = Instant::now();
        if !await_published(&mut self.daemon, compiler, CATCH_UP_LIMIT) {
            self.result.failures.push(format!(
                "the daemon does not serve epoch {} ({} signatures) the compiler published",
                compiler.epoch(),
                compiler.signature_count()
            ));
        }
        let waited = started.elapsed();
        let oracle = compiler.oracle();
        self.docs.expected = self.docs.html.iter().map(|doc| oracle.scan(doc)).collect();
        waited
    }

    /// After a measured day: catch up and record how long it took.
    pub fn catch_up_day(&mut self, compiler: &Compiler) {
        let waited = self.catch_up(compiler);
        self.result.catch_up_ms.push(waited.as_secs_f64() * 1e3);
    }

    /// Unmeasured closed-loop scans: connections accepted, caches and
    /// branch predictors settled.
    pub fn warm_up(&mut self, duration: Duration) {
        let _ = loadgen::closed_loop(&self.addr, &self.docs.frames, CONNECTIONS, WINDOW, duration);
    }

    /// One closed-loop chunk at saturation, `slices` × [`SLICE`] long.
    pub fn scan_chunk(&mut self, slices: usize, log: &mut SpanLog) {
        let duration = SLICE * slices as u32;
        let started = Instant::now();
        let cpu_before = self.daemon.cpu_us();
        let completions =
            loadgen::closed_loop(&self.addr, &self.docs.frames, CONNECTIONS, WINDOW, duration);
        let cpu_after = self.daemon.cpu_us();
        log.record("serve.closed_loop", started, Instant::now());
        let failed = count_failed(&completions, |c, verdict, _| {
            verdict == self.docs.expected[c.doc as usize]
        });
        self.result.attempted += completions.len() as u64;
        self.result.failed += failed;
        let answered = completions.len() as u64 - failed;
        let mut counts = vec![0.0; slices];
        for c in completions.iter().filter(|c| c.reply.is_some()) {
            // Replies to the last window land after the chunk's end.
            if let Some(slot) = counts.get_mut((u128::from(c.done_us) / SLICE.as_micros()) as usize)
            {
                *slot += 1.0;
            }
        }
        self.result.slice_scans.extend(counts);
        if let (Some(before), Some(after), true) = (cpu_before, cpu_after, answered > 0) {
            self.result
                .chunk_cpu_us
                .push((after - before) as f64 / answered as f64);
        }
    }

    /// The traced run's extra phases, `budget` long in all: the open-loop
    /// ladder, window-1 round trips, hot swaps under traffic, and one
    /// `METRICS` scrape. `compiler` publishes the hot-swap days, numbered
    /// from `next_day`.
    pub fn traced_phases(
        &mut self,
        compiler: &mut Compiler,
        seed: u64,
        next_day: u32,
        budget: Duration,
        log: &mut SpanLog,
    ) {
        // Generated up front so the publisher thread only compiles while
        // traffic runs.
        let swap_days: Vec<Vec<Sample>> = (0..SWAPS as u32)
            .map(|k| {
                let day = next_day + k;
                inputs::stock_day(seed, day, crate::days::date_of(day), SWAP_DAY_SAMPLES)
            })
            .collect();
        let Server {
            addr, docs, result, ..
        } = self;
        let static_ok = |c: &Completion, verdict: Verdict, _epoch: u64| {
            verdict == docs.expected[c.doc as usize]
        };

        // Open loop, every rung of the ladder.
        for rate in LADDER {
            let window = budget.mul_f64(if rate == SLO_RUNG { 0.16 } else { 0.08 });
            let started = Instant::now();
            let run = loadgen::open_loop(addr, &docs.frames, f64::from(rate), window);
            log.record(&format!("serve.open_loop_{rate}"), started, Instant::now());
            let failed = count_failed(&run.completions, static_ok);
            let rung = summarize_rung(rate, window, &run, failed);
            result.attempted += rung.attempted;
            result.failed += rung.failed;
            result.rungs.push(rung);
        }
        result.rate_at_slo = result
            .rungs
            .iter()
            .rfind(|r| r.meets_slo)
            .map_or(0.0, |r| f64::from(r.rate));

        // Before the hot swaps: they change what the documents' verdicts are.
        let target = Target { docs, addr };
        round_trips(&target, budget.mul_f64(0.08), result, log);
        let daemon_epoch = daemon_status(addr).map_or(0, |(epoch, _)| epoch);
        hot_swap_phase(
            compiler,
            &target,
            (&swap_days, next_day),
            daemon_epoch,
            budget.mul_f64(0.20),
            result,
            log,
        );
        if let Ok(metrics) = Admin::connect(addr).and_then(|mut admin| admin.metrics()) {
            let value = |name| prometheus_value(&metrics, name);
            let scans = value("kizzle_scans_total").max(1.0);
            let anchors = value("kizzle_scan_anchor_hits_total");
            let checked = value("kizzle_scan_prefilter_checked_total");
            result.anchor_hits_per_scan = anchors / scans;
            result.prefilter_reject_ratio =
                value("kizzle_scan_prefilter_rejected_total") / anchors.max(1.0);
            result.verify_confirm_ratio =
                value("kizzle_scan_verify_confirmed_total") / checked.max(1.0);
        }
    }

    /// Stop the daemon and hand back what was observed.
    pub fn finish(mut self) -> ServeResult {
        self.result.daemon_peak_rss_mb = self.daemon.peak_rss_mb().unwrap_or(0.0);
        if !self.daemon.alive() {
            self.result
                .failures
                .push("daemon died during the run".into());
        }
        self.daemon.stop();
        self.result
    }
}

/// Phase C — open loop at the SLO rung while a publisher thread seals
/// and saves small days. Replies are checked, after the traffic has
/// stopped, against the frozen set of the epoch each one carries.
fn hot_swap_phase(
    compiler: &mut Compiler,
    target: &Target<'_>,
    (swap_days, next_day): (&[Vec<Sample>], u32),
    daemon_epoch: u64,
    window: Duration,
    result: &mut ServeResult,
    log: &mut SpanLog,
) {
    let Target { docs, addr } = *target;
    let started = Instant::now();
    let mut epochs: Vec<FrozenEpoch> = vec![compiler.freeze_epoch()];
    let mut saved_at: Vec<Instant> = Vec::new();
    let run = std::thread::scope(|scope| {
        let publisher = scope.spawn(|| {
            for (k, samples) in swap_days.iter().enumerate() {
                let at = window.mul_f64((k + 1) as f64 / (swap_days.len() + 1) as f64);
                std::thread::sleep(at.saturating_sub(started.elapsed()));
                let date = crate::days::date_of(next_day + k as u32);
                if compiler.publish_day(date, samples) {
                    saved_at.push(Instant::now());
                    epochs.push(compiler.freeze_epoch());
                }
            }
        });
        let run = loadgen::open_loop(addr, &docs.frames, f64::from(SLO_RUNG), window);
        publisher.join().expect("publisher thread");
        run
    });
    log.record("serve.hot_swap", started, Instant::now());

    // One oracle scan per distinct (document, epoch) that was answered.
    let mut cache: Vec<Vec<Option<Verdict>>> = vec![vec![None; docs.html.len()]; epochs.len()];
    let mut failed = 0;
    let mut newest_epoch = daemon_epoch;
    for c in &run.completions {
        let ok = c.reply.is_some_and(|(verdict, epoch)| {
            newest_epoch = newest_epoch.max(epoch);
            let Some(k) = epoch.checked_sub(daemon_epoch).map(|k| k as usize) else {
                return false;
            };
            let Some(frozen) = epochs.get(k) else {
                return false;
            };
            let expected = *cache[k][c.doc as usize]
                .get_or_insert_with(|| frozen.scan(&docs.html[c.doc as usize]));
            verdict == expected
        });
        failed += u64::from(!ok);
    }
    result.swap = summarize_rung(SLO_RUNG, window, &run, failed);
    result.attempted += result.swap.attempted;
    result.failed += result.swap.failed;
    result.swaps_seen = newest_epoch - daemon_epoch;

    let mut lags_ms = Vec::new();
    for (k, saved) in saved_at.iter().enumerate() {
        let new_epoch = daemon_epoch + k as u64 + 1;
        let first = run
            .completions
            .iter()
            .filter(|c| c.reply.is_some_and(|(_, epoch)| epoch >= new_epoch))
            .map(|c| run.started + Duration::from_micros(c.done_us))
            .min();
        if let Some(first) = first {
            lags_ms.push(first.saturating_duration_since(*saved).as_secs_f64() * 1e3);
        }
    }
    result.publish_to_new_epoch_ms = stats::median(&lags_ms);
}

/// Window-1 scans (the wire's round trip) and `STATUS` round trips (an
/// empty request), one blocking connection.
fn round_trips(target: &Target<'_>, window: Duration, result: &mut ServeResult, log: &mut SpanLog) {
    let Target { docs, addr } = *target;
    let Ok(mut admin) = Admin::connect(addr) else {
        result.attempted += 1;
        result.failed += 1;
        return;
    };
    let started = Instant::now();
    let mut rtts = Vec::new();
    let mut doc = 0;
    log.open("serve.round_trips");
    while started.elapsed() < window {
        let sent = Instant::now();
        let reply = admin.scan(&docs.html[doc]);
        let done = Instant::now();
        result.attempted += 1;
        match reply {
            Ok(verdict) if verdict == docs.expected[doc] => {
                rtts.push((done - sent).as_secs_f64() * 1e6);
                log.record("serve.request", sent, done);
            }
            _ => result.failed += 1,
        }
        doc = (doc + 1) % docs.html.len();
    }
    log.close();
    result.rtt = stats::summarize(rtts);
    let mut empty = Vec::new();
    for _ in 0..200 {
        let sent = Instant::now();
        if admin.status().is_ok() {
            empty.push(sent.elapsed().as_secs_f64() * 1e6);
        }
    }
    result.empty_rtt_us = stats::median(&empty);
}
