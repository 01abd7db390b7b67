//! One workload, start to finish: compile phase, serve phase, traced-run
//! replays, and the named metrics that come out.

use crate::daemon::{Daemon, TempDir};
use crate::days::{self, CompileResult, DayPlan, DayRecord, Session, Shape};
use crate::inputs;
use crate::json::Json;
use crate::spans::SpanLog;
use crate::stats;
use crate::surface::{self, Compiler, Fnv, Sample};
use crate::wire::{self, ServeResult, Server};
use std::path::Path;
use std::time::{Duration, Instant};

pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    pub per_day: usize,
    pub ramp_up_days: u32,
    /// Share of `--seconds` spent compiling days; the scan chunks after
    /// each day share the rest.
    pub compile_share: f64,
    /// What one measured day costs on the reference box, seconds: turns
    /// the compile budget into a day count that is the same for every
    /// run of one `--seconds`, so counts repeat exactly.
    pub nominal_day_s: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "day_dup",
        shape: Shape::Dup,
        per_day: 8_000,
        ramp_up_days: 2,
        compile_share: 0.55,
        nominal_day_s: 0.9,
    },
    Workload {
        name: "day_diverse",
        shape: Shape::Diverse,
        per_day: 240,
        ramp_up_days: 3,
        compile_share: 0.7,
        nominal_day_s: 1.45,
    },
    Workload {
        name: "day_overlap",
        shape: Shape::Overlap { keep_permille: 800 },
        per_day: 240,
        ramp_up_days: 3,
        compile_share: 0.7,
        nominal_day_s: 1.4,
    },
    Workload {
        name: "wire_scan",
        shape: Shape::Dup,
        per_day: 2_000,
        ramp_up_days: 1,
        compile_share: 0.3,
        nominal_day_s: 0.33,
    },
];

pub const MIN_MEASURED_DAYS: u32 = 3;
/// A chunk shorter than this would be mostly connection set-up.
pub const MIN_CHUNK_SLICES: usize = 2;
/// Cold starts per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Pages in the day every cold start compiles.
const SETUP_DAY_SAMPLES: usize = 200;
/// How long a cold-started daemon may take to serve the first day.
const SETUP_CATCH_UP_LIMIT: Duration = Duration::from_secs(5);
/// Unmeasured scans before the first chunk.
const WARM_UP: Duration = Duration::from_millis(500);
/// The traced run's extra wire phases, as a share of `--seconds`.
const TRACED_PHASES_SHARE: f64 = 0.65;

impl Workload {
    pub fn plan(&self, seconds: f64) -> DayPlan {
        let days = (seconds * self.compile_share / self.nominal_day_s).round() as u32;
        let measured_days = days.max(MIN_MEASURED_DAYS);
        let chunk_s = seconds * (1.0 - self.compile_share) / f64::from(measured_days);
        DayPlan {
            shape: self.shape,
            per_day: self.per_day,
            ramp_up_days: self.ramp_up_days,
            measured_days,
            chunk_slices: ((chunk_s / wire::SLICE.as_secs_f64()) as usize).max(MIN_CHUNK_SLICES),
        }
    }
}

/// A named metric as it is printed.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Inner samples the value summarises (days, slices, requests).
    pub samples: usize,
}

pub struct Report {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    /// Empty unless traced.
    pub per_layer: Vec<Metric>,
    /// Counts that must repeat exactly for one `(seed, seconds)`.
    pub exact: Json,
    pub spans: Option<Json>,
    /// Human-readable detail printed under the tables.
    pub notes: Vec<String>,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples,
    }
}

fn median_of(days: &[&DayRecord], f: impl Fn(&DayRecord) -> f64) -> f64 {
    stats::median(&days.iter().map(|d| f(d)).collect::<Vec<_>>())
}

/// A compiler and a daemon over one fresh chain directory, one day in.
struct Ready {
    compiler: Compiler,
    daemon: Daemon,
    /// Dropped last: the other two use the directory.
    chain: TempDir,
}

/// One cold start, nothing → first protected scan: boot the service,
/// spawn the daemon on the empty chain directory, compile and save a
/// small first day, wait until the daemon serves it, and scan one page
/// over the wire.
fn set_up(workload: &str, seed: u64, daemon_binary: &Path) -> std::io::Result<(Ready, Duration)> {
    let started = Instant::now();
    let chain = TempDir::create(workload)?;
    let mut compiler = Compiler::boot(days::date_of(0), chain.path());
    let mut daemon = Daemon::spawn(daemon_binary, chain.path())?;
    let first_day = inputs::stock_day(seed, 0, days::date_of(0), SETUP_DAY_SAMPLES);
    let _ = compiler.run_day(days::date_of(0), &first_day);
    if !wire::await_published(&mut daemon, &compiler, SETUP_CATCH_UP_LIMIT) {
        return Err(std::io::Error::other(
            "the daemon did not pick up the first day within 5 s",
        ));
    }
    let page = first_day
        .iter()
        .find(|s| surface::is_malicious(s))
        .unwrap_or(&first_day[0]);
    let verdict = surface::Admin::connect(&daemon.addr)?.scan(&page.html)?;
    if verdict != compiler.oracle().scan(&page.html) {
        return Err(std::io::Error::other(
            "the first wire verdict differs from the in-process matcher's",
        ));
    }
    let took = started.elapsed();
    Ok((
        Ready {
            compiler,
            daemon,
            chain,
        },
        took,
    ))
}

pub fn run(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    daemon_binary: &Path,
) -> std::io::Result<Report> {
    let plan = workload.plan(seconds);
    let mut log = SpanLog::new(traced);

    // Set-up, several times over; the run continues on the last one.
    let mut setups_s = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for _ in 0..SETUPS {
        // The previous start's directory has this one's name.
        drop(ready.take());
        let (next, took) = set_up(workload.name, seed, daemon_binary)?;
        setups_s.push(took.as_secs_f64());
        ready = Some(next);
    }
    let Ready {
        compiler,
        daemon,
        chain,
    } = ready.expect("SETUPS > 0");

    let mut session = Session::ramp_up(&plan, seed, compiler, 1);
    let documents: Vec<Sample> = session
        .yesterday
        .iter()
        .take(wire::MAX_DOCUMENTS)
        .cloned()
        .collect();
    let mut server = Server::new(daemon, &documents, seed);
    server.catch_up(&session.compiler);
    server.warm_up(WARM_UP);

    // The measured part: a day, then a chunk of scans against what it
    // published, so both sides sample the whole run.
    for index in 0..plan.measured_days {
        session.measured_day(index, &mut log);
        server.catch_up_day(&session.compiler);
        server.scan_chunk(plan.chunk_slices, &mut log);
    }
    let compiled = session.finish();

    let replay = traced.then(|| {
        server.traced_phases(
            &mut session.compiler,
            seed,
            session.next_day,
            Duration::from_secs_f64(seconds * TRACED_PHASES_SHARE),
            &mut log,
        );
        Replay::run(&session.compiler, &documents)
    });
    let served = server.finish();
    drop(chain);

    let all_days: Vec<&DayRecord> = session.days.iter().collect();
    // Per-layer times come from the traced days; with tracing off every
    // day is an untraced one.
    let untraced: Vec<&DayRecord> = all_days.iter().copied().filter(|d| !d.traced).collect();
    let timed: Vec<&DayRecord> = if traced {
        all_days.iter().copied().filter(|d| d.traced).collect()
    } else {
        untraced.clone()
    };
    let end_to_end = vec![
        metric("setup_s", stats::median(&setups_s), "s", setups_s.len()),
        metric(
            "day_turnaround_s",
            median_of(&timed, |d| d.turnaround_s),
            "s",
            timed.len(),
        ),
        metric("seal_s", median_of(&timed, |d| d.seal_s), "s", timed.len()),
        metric("chain_bytes", compiled.chain_bytes as f64, "bytes", 1),
        metric(
            "scan_per_s",
            stats::upper_decile(&served.slice_scans) / wire::SLICE.as_secs_f64(),
            "1/s",
            served.slice_scans.len(),
        ),
        metric(
            "scan_cpu_us",
            stats::lower_quartile(&served.chunk_cpu_us),
            "us",
            served.chunk_cpu_us.len(),
        ),
    ];

    let per_layer = match &replay {
        Some(replay) => {
            let days = DaySets {
                timed: &timed,
                untraced: &untraced,
                all: &all_days,
            };
            per_layer_metrics(&plan, &compiled, &served, replay, &log, &days)
        }
        None => Vec::new(),
    };

    let mut failures = session.failures.clone();
    let day_failures = failures.len() as u64;
    failures.extend(served.failures.iter().cloned());
    if served.failed > 0 {
        failures.push(format!(
            "{} of {} scans failed (I/O error, ST_ERROR, missing reply, or a verdict unlike \
             the in-process matcher's)",
            served.failed, served.attempted
        ));
    }
    for m in &end_to_end {
        if !(m.value.is_finite() && m.value > 0.0) {
            failures.push(format!("{} = {} is not a positive number", m.name, m.value));
        }
    }
    let per_day = |f: fn(&DayRecord) -> f64| all_days.iter().map(|d| f(d)).collect::<Vec<_>>();
    let mut notes = serve_notes(&served);
    for (label, values, decimals) in [
        ("set-up s", setups_s.clone(), 3),
        ("day turnaround_s", per_day(|d| d.turnaround_s), 3),
        ("day seal_s", per_day(|d| d.seal_s), 3),
        ("scans per slice", served.slice_scans.clone(), 0),
        (
            "daemon cpu us per scan, by chunk",
            served.chunk_cpu_us.clone(),
            2,
        ),
        ("daemon catch-up ms, by day", served.catch_up_ms.clone(), 1),
    ] {
        let items: Vec<String> = values.iter().map(|v| format!("{v:.decimals$}")).collect();
        notes.push(format!("{label}: [{}]", items.join(", ")));
    }
    Ok(Report {
        workload: workload.name,
        correct: failures.is_empty(),
        attempted: session.days.len() as u64 + served.attempted,
        failed: day_failures.min(session.days.len() as u64) + served.failed,
        failures,
        end_to_end,
        per_layer,
        exact: exact_counts(&session.days, &compiled, served.documents),
        spans: traced.then(|| log.to_json()),
        notes,
    })
}

fn serve_notes(served: &ServeResult) -> Vec<String> {
    let describe = |label: &str, r: &wire::Rung| {
        let tail = r.latency.tail.map_or(String::new(), |(name, value)| {
            format!(" highest resolvable tail {name}={value:.0}us")
        });
        format!(
            "{label} {}/s: {} slices, median slice p50={:.0}us p99={:.0}us; whole window n={} \
             p50={:.0}us p99={:.0}us{tail} failed={} shed={} backlog growth={} max={} generator \
             late p99={:.0}us meets SLO={}",
            r.rate,
            r.slices,
            r.slice_p50_us,
            r.slice_p99_us,
            r.latency.count,
            r.latency.p50,
            r.latency.p99,
            r.failed,
            r.shed,
            r.backlog_growth,
            r.max_backlog,
            r.late_p99_us,
            r.meets_slo
        )
    };
    let mut notes = vec![format!(
        "closed loop: {} slices of 250 ms in {} chunks, {} documents",
        served.slice_scans.len(),
        served.chunk_cpu_us.len(),
        served.documents
    )];
    notes.extend(served.rungs.iter().map(|r| describe("rung", r)));
    if served.swap.attempted > 0 {
        notes.push(describe("hot swap", &served.swap));
    }
    notes
}

/// Everything that must be identical between two runs of one
/// `(workload, seed, seconds)`, plus one digest over all of it; `gate` is
/// the part that must also equal the recorded baseline.
fn exact_counts(days: &[DayRecord], compiled: &CompileResult, documents: usize) -> Json {
    let mut digest = Fnv::default();
    let mut rows = |values: &dyn Fn(&DayRecord) -> Vec<u64>| {
        let rows = days.iter().map(|d| {
            let row = values(d);
            for value in &row {
                digest.write(&value.to_le_bytes());
            }
            Json::Arr(row.iter().map(|&v| Json::Num(v as f64)).collect())
        });
        Json::Arr(rows.collect())
    };
    let truth_rows = rows(&|d| {
        let v = &d.verified;
        vec![v.benign, v.false_positives, v.malicious, v.detected]
    });
    let work_rows = rows(&|d| {
        let c = &d.counts;
        vec![
            c.clusters,
            c.noise,
            c.new_signatures,
            c.index_queries,
            c.index_cache_hits,
            c.window_candidates,
            c.pruned_by_histogram,
            c.distance_calls,
            d.live_samples,
        ]
    });
    for value in [
        compiled.chain_bytes,
        compiled.chain_files,
        compiled.signature_count,
        compiled.signature_digest,
        documents as u64,
    ] {
        digest.write(&value.to_le_bytes());
    }
    // What the seed-1 baseline gates: the corpus-truth counts and the
    // published signatures. The work counters and chain sizes beside it
    // are for `--aa` (run against run of one build) only — a later change
    // that prunes better or shrinks the chain must stay correct.
    let gate = Json::obj([
        (
            "day_columns",
            Json::Str("benign false_positives malicious detected".into()),
        ),
        ("days", truth_rows),
        (
            "signature_count",
            Json::Num(compiled.signature_count as f64),
        ),
        (
            "signature_digest",
            Json::Str(format!("{:016x}", compiled.signature_digest)),
        ),
    ]);
    Json::obj([
        ("gate", gate),
        (
            "day_columns",
            Json::Str(
                "clusters noise new_signatures index_queries index_cache_hits window_candidates \
                 pruned_by_histogram distance_calls live_samples"
                    .into(),
            ),
        ),
        ("days", work_rows),
        ("chain_bytes", Json::Num(compiled.chain_bytes as f64)),
        ("chain_files", Json::Num(compiled.chain_files as f64)),
        ("documents", Json::Num(documents as f64)),
        ("digest", Json::Str(format!("{:016x}", digest.0))),
    ])
}

/// In-process replays over the serve phase's documents (traced run
/// only): what each layer costs per document without the wire.
struct Replay {
    tokenize_us: Vec<f64>,
    bytes: usize,
    tokens: usize,
    scan_verdict_us: Vec<f64>,
    scan_stream_us: Vec<f64>,
    scan_hit_us: Vec<f64>,
    scan_miss_us: Vec<f64>,
    unpack_us: Vec<f64>,
    fingerprint_us: Vec<f64>,
}

fn timed_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = std::hint::black_box(f());
    (value, started.elapsed().as_secs_f64() * 1e6)
}

impl Replay {
    fn run(compiler: &Compiler, documents: &[Sample]) -> Self {
        let oracle = compiler.oracle();
        let mut replay = Replay {
            tokenize_us: Vec::new(),
            bytes: 0,
            tokens: 0,
            scan_verdict_us: Vec::new(),
            scan_stream_us: Vec::new(),
            scan_hit_us: Vec::new(),
            scan_miss_us: Vec::new(),
            unpack_us: Vec::new(),
            fingerprint_us: Vec::new(),
        };
        for sample in documents {
            let doc = std::hint::black_box(sample.html.as_str());
            let (tokens, us) = timed_us(|| surface::tokenize(doc));
            replay.tokenize_us.push(us);
            replay.bytes += doc.len();
            replay.tokens += tokens.len();
            let (_, us) = timed_us(|| oracle.scan(doc));
            replay.scan_verdict_us.push(us);
            let (verdict, us) = timed_us(|| oracle.scan_tokens(&tokens));
            replay.scan_stream_us.push(us);
            if verdict.0.is_some() {
                replay.scan_hit_us.push(us);
            } else {
                replay.scan_miss_us.push(us);
            }
            if surface::is_malicious(sample) {
                let (unpacked, us) = timed_us(|| surface::unpack(doc));
                replay.unpack_us.push(us);
                let (_, us) = timed_us(|| surface::fingerprint(&unpacked));
                replay.fingerprint_us.push(us);
            }
        }
        replay
    }
}

/// The measured days, split by whether tracing was on.
struct DaySets<'a> {
    timed: &'a [&'a DayRecord],
    untraced: &'a [&'a DayRecord],
    all: &'a [&'a DayRecord],
}

#[allow(clippy::too_many_lines)]
fn per_layer_metrics(
    plan: &DayPlan,
    compiled: &CompileResult,
    served: &ServeResult,
    replay: &Replay,
    log: &SpanLog,
    days: &DaySets<'_>,
) -> Vec<Metric> {
    let DaySets {
        timed,
        untraced,
        all: all_days,
    } = *days;
    let days = timed.len();
    let every = all_days.len();
    let day = |name: &str, unit: &'static str, f: &dyn Fn(&DayRecord) -> f64| {
        metric(name, median_of(timed, f), unit, days)
    };
    // Medians over every measured day: these do not depend on tracing.
    let every_day = |name: &str, unit: &'static str, f: &dyn Fn(&DayRecord) -> f64| {
        metric(name, median_of(all_days, f), unit, every)
    };
    let count = |name: &str, f: &dyn Fn(&DayRecord) -> f64| every_day(name, "count", f);
    let cluster_s = |d: &DayRecord| {
        d.counts.partition_s + d.counts.map_s + d.counts.reduce_s + d.counts.prototype_s
    };
    let tokenize = stats::summarize(replay.tokenize_us.clone());
    let tokenize_total_s: f64 = replay.tokenize_us.iter().sum::<f64>() / 1e6;
    let scan_verdict = stats::summarize(replay.scan_verdict_us.clone());
    let scan_stream = stats::summarize(replay.scan_stream_us.clone());
    let p50 = |values: &[f64]| stats::summarize(values.to_vec()).p50;
    let docs = replay.tokenize_us.len();
    let kept_up: Vec<&wire::Rung> = served.rungs.iter().filter(|r| r.meets_slo).collect();
    let by_name = log.by_name();
    let self_us = |name: &str| by_name.get(name).map_or(&[][..], |(_, own)| own.as_slice());
    let seal_other: Vec<f64> = self_us("core.seal")
        .iter()
        .zip(self_us("day.seal"))
        .map(|(bench, product)| (bench + product) / 1e6)
        .collect();
    let seal_other_s = stats::median(&seal_other);

    let mut m = vec![
        // jslex, replayed over the serve phase's documents.
        metric("jslex.tokenize_us_p50", tokenize.p50, "us", docs),
        metric("jslex.tokenize_us_p99", tokenize.p99, "us", docs),
        metric(
            "jslex.mb_per_s",
            replay.bytes as f64 / 1e6 / tokenize_total_s,
            "MB/s",
            docs,
        ),
        metric(
            "jslex.tokens_per_s",
            replay.tokens as f64 / tokenize_total_s,
            "1/s",
            docs,
        ),
        metric(
            "jslex.share_of_scan",
            replay.tokenize_us.iter().sum::<f64>() / replay.scan_verdict_us.iter().sum::<f64>(),
            "ratio",
            docs,
        ),
        // The day's blocking steps, and what the product's own spans say
        // went on inside them.
        day("core.ingest_s", "s", &|d| d.ingest_s),
        day("core.ingest_samples_per_s", "1/s", &|d| {
            plan.per_day as f64 / d.ingest_s
        }),
        day("jslex.day_tokenize_s", "s", &|d| d.product.tokenize_s),
        day("cluster.ingest_insert_s", "s", &|d| d.product.insert_s),
        day("core.ingest_other_s", "s", &|d| {
            d.ingest_s - d.product.tokenize_s - d.product.insert_s
        }),
        count("core.producer_stalls", &|d| d.counts.producer_stalls as f64),
        count("core.max_queue_depth", &|d| d.counts.max_queue_depth as f64),
        day("core.seal_s", "s", &|d| d.seal_s),
        day("cluster.partition_s", "s", &|d| d.counts.partition_s),
        day("cluster.map_s", "s", &|d| d.counts.map_s),
        day("cluster.reduce_s", "s", &|d| d.counts.reduce_s),
        day("cluster.reconcile_s", "s", &|d| d.counts.reconcile_s),
        day("cluster.adopt_s", "s", &|d| d.counts.adopt_s),
        day("cluster.prototype_s", "s", &|d| d.counts.prototype_s),
        day("cluster.share_of_day", "ratio", &|d| {
            (cluster_s(d) + d.product.insert_s) / d.turnaround_s
        }),
        day("jslex.share_of_day", "ratio", &|d| {
            d.product.tokenize_s / d.turnaround_s
        }),
        day("core.label_s", "s", &|d| d.product.label_s),
        day("signature.generate_s", "s", &|d| d.product.siggen_s),
        day("core.publish_s", "s", &|d| d.product.publish_s),
        // Self time from the span tree: what `seal` spent outside
        // clustering, labeling, signature generation and publishing.
        metric("core.seal_other_s", seal_other_s, "s", days),
        metric(
            "unpack.unpack_us_p50",
            p50(&replay.unpack_us),
            "us",
            replay.unpack_us.len(),
        ),
        metric(
            "winnow.fingerprint_us_p50",
            p50(&replay.fingerprint_us),
            "us",
            replay.fingerprint_us.len(),
        ),
        day("snapshot.save_s", "s", &|d| d.save_s),
        count("snapshot.delta_bytes", &|d| d.delta_bytes as f64),
        metric(
            "snapshot.chain_files",
            compiled.chain_files as f64,
            "count",
            1,
        ),
        day("source.poll_swap_s", "s", &|d| d.poll_s),
        day("source.poll_noop_us", "us", &|d| d.poll_noop_s * 1e6),
        day("core.layers_share_of_day", "ratio", &|d| {
            (d.ingest_s + d.seal_s + d.save_s + d.poll_s) / d.turnaround_s
        }),
        // Work counts the product reports; they repeat exactly.
        every_day("cluster.dedup_hit_ratio", "ratio", &|d| {
            1.0 - d.live_samples as f64 / (plan.per_day as f64 * 3.0)
        }),
        count("cluster.live_samples", &|d| d.live_samples as f64),
        count("cluster.index_queries", &|d| d.counts.index_queries as f64),
        count("cluster.index_cache_hits", &|d| {
            d.counts.index_cache_hits as f64
        }),
        count("cluster.window_candidates", &|d| {
            d.counts.window_candidates as f64
        }),
        count("cluster.pruned_by_histogram", &|d| {
            d.counts.pruned_by_histogram as f64
        }),
        count("cluster.distance_calls", &|d| {
            d.counts.distance_calls as f64
        }),
        every_day("cluster.prune_ratio", "ratio", &|d| {
            d.counts.pruned_by_histogram as f64 / (d.counts.window_candidates as f64).max(1.0)
        }),
        every_day("core.detected_share", "ratio", &|d| {
            d.verified.detected as f64 / (d.verified.malicious as f64).max(1.0)
        }),
        every_day("corpus.generate_s", "s", &|d| d.generate_s),
        // The scan path in process, same documents as the wire.
        metric("core.scan_verdict_us_p50", scan_verdict.p50, "us", docs),
        metric("core.scan_verdict_us_p99", scan_verdict.p99, "us", docs),
        metric("signature.scan_stream_us_p50", scan_stream.p50, "us", docs),
        metric("signature.scan_stream_us_p99", scan_stream.p99, "us", docs),
        metric(
            "signature.scan_hit_us_p50",
            p50(&replay.scan_hit_us),
            "us",
            replay.scan_hit_us.len(),
        ),
        metric(
            "signature.scan_miss_us_p50",
            p50(&replay.scan_miss_us),
            "us",
            replay.scan_miss_us.len(),
        ),
        metric(
            "signature.anchor_hits_per_scan",
            served.anchor_hits_per_scan,
            "ratio",
            1,
        ),
        metric(
            "signature.prefilter_reject_ratio",
            served.prefilter_reject_ratio,
            "ratio",
            1,
        ),
        metric(
            "signature.verify_confirm_ratio",
            served.verify_confirm_ratio,
            "ratio",
            1,
        ),
        // The wire.
        metric("serve.rtt_us_p50", served.rtt.p50, "us", served.rtt.count),
        metric("serve.rtt_us_p99", served.rtt.p99, "us", served.rtt.count),
        metric("serve.rtt_us_p999", served.rtt.p999, "us", served.rtt.count),
        metric(
            "serve.wire_overhead_us",
            served.rtt.p50 - scan_verdict.p50,
            "us",
            served.rtt.count,
        ),
        metric("serve.empty_rtt_us", served.empty_rtt_us, "us", 200),
        metric(
            "serve.rate_at_slo_per_s",
            served.rate_at_slo,
            "1/s",
            served.rungs.len(),
        ),
        metric(
            "serve.swap_p99_us",
            served.swap.latency.p99,
            "us",
            served.swap.latency.count,
        ),
        metric(
            "serve.swap_failed",
            served.swap.failed as f64,
            "count",
            served.swap.attempted as usize,
        ),
        metric("serve.swaps_seen", served.swaps_seen as f64, "count", 1),
        metric(
            "source.publish_to_new_epoch_ms",
            served.publish_to_new_epoch_ms,
            "ms",
            served.swaps_seen as usize,
        ),
        metric(
            "source.daemon_catch_up_ms",
            stats::median(&served.catch_up_ms),
            "ms",
            served.catch_up_ms.len(),
        ),
        metric("serve.peak_rss_mb", served.daemon_peak_rss_mb, "MB", 1),
        metric("core.peak_rss_mb", compiled.peak_rss_mb, "MB", 1),
        // The generator's own part in the rungs that met the SLO (past
        // saturation both only say "overloaded").
        metric(
            "loadgen.late_p99_us",
            kept_up.iter().map(|r| r.late_p99_us).fold(0.0, f64::max),
            "us",
            kept_up.len(),
        ),
        metric(
            "loadgen.max_backlog",
            kept_up.iter().map(|r| r.max_backlog).max().unwrap_or(0) as f64,
            "count",
            kept_up.len(),
        ),
    ];
    for rung in &served.rungs {
        let n = rung.latency.count;
        m.push(metric(
            format!("serve.rung_{}_p50_us", rung.rate),
            rung.slice_p50_us,
            "us",
            n,
        ));
        m.push(metric(
            format!("serve.rung_{}_p99_us", rung.rate),
            rung.slice_p99_us,
            "us",
            n,
        ));
    }
    // Traced against untraced days of this same run.
    let overhead = if untraced.is_empty() {
        0.0
    } else {
        (median_of(timed, |d| d.turnaround_s) / median_of(untraced, |d| d.turnaround_s) - 1.0)
            * 100.0
    };
    m.push(metric(
        "trace.overhead_pct",
        overhead,
        "%",
        days.min(untraced.len()),
    ));
    m
}
