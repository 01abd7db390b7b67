//! The compile side of every workload: a fixed number of closed-loop days
//! (ingest → seal → save → follower swap), each checked against the
//! corpus ground truth after it seals.

use crate::inputs;
use crate::spans::SpanLog;
use crate::surface::{self, Compiler, DayCounts, Oracle, Sample, SimDate};
use std::path::Path;
use std::time::Instant;

/// How a workload's days relate to each other.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Stock pages: content dedups to about a dozen live class strings.
    Dup,
    /// Every page carries its own variation prefix: nothing dedups and
    /// nothing carries over.
    Diverse,
    /// Diverse, but `keep_permille` of each day is yesterday resubmitted.
    Overlap { keep_permille: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct DayPlan {
    pub shape: Shape,
    pub per_day: usize,
    pub ramp_up_days: u32,
    pub measured_days: u32,
    /// Length of the scan chunk after each measured day, in slices.
    pub chunk_slices: usize,
}

/// Ground-truth check of one sealed day, over at most [`VERIFY_MAX`] of
/// its samples (evenly strided).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Verified {
    pub benign: u64,
    pub false_positives: u64,
    pub malicious: u64,
    pub detected: u64,
}

pub const VERIFY_MAX: usize = 400;
/// A day fails above this share of its benign samples scanning positive.
pub const FP_LIMIT: f64 = 0.005;
/// Layer times must add up to the turnaround within this slack.
pub const SUM_SLACK: f64 = 0.05;

pub struct DayRecord {
    pub traced: bool,
    pub ingest_s: f64,
    pub seal_s: f64,
    pub save_s: f64,
    pub poll_s: f64,
    pub poll_noop_s: f64,
    pub turnaround_s: f64,
    pub generate_s: f64,
    pub counts: DayCounts,
    pub live_samples: u64,
    pub delta_bytes: u64,
    pub verified: Verified,
    /// Sums of the product's own spans for this day, seconds (traced days).
    pub product: ProductTimes,
}

/// Per-day totals of the spans the product's telemetry recorded.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProductTimes {
    /// `day.ingest`: tokenization of every batch, on the ingest worker.
    pub tokenize_s: f64,
    /// `day.dedup`: dedup + eager index insert of every batch.
    pub insert_s: f64,
    pub label_s: f64,
    pub siggen_s: f64,
    pub publish_s: f64,
}

pub struct CompileResult {
    pub peak_rss_mb: f64,
    pub chain_bytes: u64,
    pub chain_files: u64,
    pub signature_digest: u64,
    pub signature_count: u64,
}

const START: (u32, u32, u32) = (2014, 8, 1);

pub fn date_of(day: u32) -> SimDate {
    let mut date = SimDate::new(START.0, START.1, START.2);
    for _ in 0..day {
        date = date.next();
    }
    date
}

fn verify_day(oracle: &Oracle, samples: &[Sample]) -> Verified {
    let stride = samples.len().div_ceil(VERIFY_MAX).max(1);
    let mut verified = Verified::default();
    for sample in samples.iter().step_by(stride) {
        let hit = oracle.scan(&sample.html).0.is_some();
        if surface::is_malicious(sample) {
            verified.malicious += 1;
            verified.detected += u64::from(hit);
        } else {
            verified.benign += 1;
            verified.false_positives += u64::from(hit);
        }
    }
    verified
}

/// The compile side of one run: a booted compiler, the days it has been
/// fed so far, and what the measured ones cost.
pub struct Session<'a> {
    plan: &'a DayPlan,
    seed: u64,
    pub compiler: Compiler,
    oracle: Oracle,
    /// The day before the next one: what a carry-over day resubmits, and
    /// (after ramp-up) the documents the scan chunks send.
    pub yesterday: Vec<Sample>,
    /// Days run so far, set-up's first day included: the next day's number.
    pub next_day: u32,
    /// Log clock minus product-telemetry clock, µs (re-derived each
    /// traced day).
    clock_offset_us: i64,
    chain_bytes_before: u64,
    pub days: Vec<DayRecord>,
    pub failures: Vec<String>,
}

impl<'a> Session<'a> {
    /// Take over a compiler that set-up booted and ran `days_run` days on,
    /// and run the ramp-up days: exactly like measured days, but left out
    /// of every statistic (the first fill the retention window).
    pub fn ramp_up(plan: &'a DayPlan, seed: u64, compiler: Compiler, days_run: u32) -> Self {
        let oracle = compiler.oracle();
        let mut session = Session {
            plan,
            seed,
            compiler,
            oracle,
            yesterday: Vec::new(),
            next_day: days_run,
            clock_offset_us: 0,
            chain_bytes_before: 0,
            days: Vec::new(),
            failures: Vec::new(),
        };
        for _ in 0..plan.ramp_up_days {
            let samples = session.generate();
            let _ = session
                .compiler
                .run_day(date_of(session.next_day), &samples);
            session.yesterday = samples;
            session.next_day += 1;
        }
        session.chain_bytes_before = dir_bytes(session.compiler.chain_dir());
        session
    }

    fn generate(&self) -> Vec<Sample> {
        let (seed, day, n) = (self.seed, self.next_day, self.plan.per_day);
        let date = date_of(day);
        match self.plan.shape {
            Shape::Dup => inputs::stock_day(seed, day, date, n),
            Shape::Diverse => inputs::diverse_day(seed, day, date, n),
            Shape::Overlap { .. } if self.yesterday.is_empty() => {
                inputs::diverse_day(seed, day, date, n)
            }
            Shape::Overlap { keep_permille } => {
                inputs::overlap_day(seed, day, date, &self.yesterday, keep_permille, n)
            }
        }
    }

    /// Measured day number `index`. Generation and the ground-truth check
    /// run outside every timer.
    pub fn measured_day(&mut self, index: u32, log: &mut SpanLog) {
        let day = self.next_day;
        let generate_started = Instant::now();
        let samples = self.generate();
        let generate_s = generate_started.elapsed().as_secs_f64();

        // Even measured days are traced, odd ones are not: their medians
        // give `trace.overhead_pct`.
        let traced = log.enabled() && index.is_multiple_of(2);
        let first_span = log.spans.len();
        if traced {
            surface::telemetry(true);
            log.open("day");
        }
        let outcome = self.compiler.run_day(date_of(day), &samples);
        let t = &outcome.times;
        let mut product = ProductTimes::default();
        if traced {
            surface::telemetry(false);
            let start = t.start;
            let ingest_end = start + t.ingest;
            let seal_end = ingest_end + t.seal;
            let save_end = seal_end + t.save;
            log.record("core.ingest", start, ingest_end);
            let seal_span = log.record("core.seal", ingest_end, seal_end);
            log.record("snapshot.save", seal_end, save_end);
            log.record("source.poll", save_end, save_end + t.poll);
            log.close();
            let mut records = surface::drain_product_spans();
            // `day.winnow` and `day.siggen` are per-day totals of
            // interleaved work, both recorded as ending "now": lay them
            // out back to back so they do not cover each other.
            let siggen_start = records.iter().find(|r| r.0 == "day.siggen").map(|r| r.1);
            if let (Some(siggen_start), Some(winnow)) = (
                siggen_start,
                records.iter_mut().find(|r| r.0 == "day.winnow"),
            ) {
                winnow.1 = siggen_start.saturating_sub(winnow.2);
            }
            // Line the product's clock up with the log's: publishing is
            // the last thing `seal` does, so `day.publish` ends where the
            // benchmark's own seal span ends.
            if let (Some(seal_span), Some(publish)) = (
                seal_span,
                records.iter().rev().find(|r| r.0 == "day.publish"),
            ) {
                self.clock_offset_us =
                    log.spans[seal_span].end_us as i64 - (publish.1 + publish.2) as i64;
            }
            for (name, _, dur_us) in &records {
                let slot = match *name {
                    "day.ingest" => &mut product.tokenize_s,
                    "day.dedup" => &mut product.insert_s,
                    "day.winnow" => &mut product.label_s,
                    "day.siggen" => &mut product.siggen_s,
                    "day.publish" => &mut product.publish_s,
                    _ => continue,
                };
                *slot += *dur_us as f64 / 1e6;
            }
            log.import(&records, self.clock_offset_us, first_span, Some(first_span));
        }

        let parts = t.ingest + t.seal + t.save + t.poll;
        let gap = t.turnaround.abs_diff(parts).as_secs_f64();
        if gap > SUM_SLACK * t.turnaround.as_secs_f64() {
            self.failures.push(format!(
                "day {day}: ingest+seal+save+poll = {parts:?} but turnaround = {:?}",
                t.turnaround
            ));
        }
        if !outcome.follower_in_sync {
            self.failures.push(format!(
                "day {day}: follower does not serve the published set"
            ));
        }
        let verified = verify_day(&self.oracle, &samples);
        if verified.false_positives as f64 > FP_LIMIT * verified.benign as f64 {
            self.failures.push(format!(
                "day {day}: {} of {} benign samples scan positive",
                verified.false_positives, verified.benign
            ));
        }
        let chain_bytes_after = dir_bytes(self.compiler.chain_dir());
        self.days.push(DayRecord {
            traced,
            ingest_s: t.ingest.as_secs_f64(),
            seal_s: t.seal.as_secs_f64(),
            save_s: t.save.as_secs_f64(),
            poll_s: t.poll.as_secs_f64(),
            poll_noop_s: t.poll_noop.as_secs_f64(),
            turnaround_s: t.turnaround.as_secs_f64(),
            generate_s,
            counts: outcome.counts,
            live_samples: self.compiler.live_samples(),
            delta_bytes: chain_bytes_after.saturating_sub(self.chain_bytes_before),
            verified,
            product,
        });
        self.chain_bytes_before = chain_bytes_after;
        self.yesterday = samples;
        self.next_day += 1;
    }

    /// What the compile side leaves behind once the last measured day has
    /// sealed (the traced run's hot-swap days come after this).
    pub fn finish(&self) -> CompileResult {
        let (chain_bytes, chain_files) =
            crate::daemon::dir_size(self.compiler.chain_dir()).unwrap_or((0, 0));
        CompileResult {
            peak_rss_mb: crate::daemon::peak_rss_mb(std::process::id()).unwrap_or(0.0),
            chain_bytes,
            chain_files,
            signature_digest: self.compiler.signature_digest(),
            signature_count: self.compiler.signature_count(),
        }
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    crate::daemon::dir_size(dir).map_or(0, |(bytes, _)| bytes)
}
