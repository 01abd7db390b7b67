//! Where a scan goes: one seeded day of the stock page mix (2,000 pages,
//! 15 % exploit-kit pages with the stream's default family weights) is
//! compiled, and 2,000 fresh pages of the same mix and date are then
//! scanned in-process the way a serving worker scans them
//! (`Matcher::scan_verdict`, raw document, paper token cap). Each page
//! falls in one class:
//!
//! * **gate-rejected** — the anchor gate finds no anchor in its bytes and
//!   it is never lexed;
//! * **lexed miss** — lexed and matched, no signature fires;
//! * **hit** — a signature fires.
//!
//! It prints each class's count, share of the scan time and mean µs, and
//! splits a hit into lexing (`lex_document` alone), matching (stages 1–3
//! over the lexed tokens, `scan_stream_index`) and the rest (the gate and
//! the matcher handle). Which class a page is in is read off the
//! `kizzle_scan_gate_rejected_total` counter in a separate pass with
//! telemetry on; the timed passes run with it off. Each page is timed
//! `REPS` scans at a time, and its time is the median of `ROUNDS` such
//! timings. Runs in a few seconds.
//!
//! ```sh
//! cargo run --release -p kizzle-bench --example scan_breakdown -- --seed 1
//! ```

use kizzle::prelude::*;
use kizzle_corpus::{GraywareStream, SimDate, StreamConfig};
use kizzle_js::{lex_document, tokenize_document_capped};
use std::hint::black_box;
use std::time::Instant;

/// Pages in the compiled day and in the scanned batch.
const PAGES: usize = 2_000;
/// Scans per timing of one page.
const REPS: u32 = 8;
/// Timings per page; the median is kept.
const ROUNDS: usize = 5;

const CLASSES: [&str; 3] = ["gate-rejected", "lexed miss", "hit"];

fn usage() -> ! {
    eprintln!("usage: scan_breakdown [--seed N]");
    std::process::exit(2)
}

fn parse_seed() -> u64 {
    let mut seed = 1;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|value| value.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
    }
    seed
}

/// Median µs per call of `scan`, over [`ROUNDS`] timings of [`REPS`] calls.
fn time_us<R>(mut scan: impl FnMut() -> R) -> f64 {
    let mut rounds = [0.0f64; ROUNDS];
    for round in &mut rounds {
        let start = Instant::now();
        for _ in 0..REPS {
            black_box(scan());
        }
        *round = start.elapsed().as_secs_f64() * 1e6 / f64::from(REPS);
    }
    rounds.sort_by(f64::total_cmp);
    rounds[ROUNDS / 2]
}

fn main() {
    let seed = parse_seed();
    let date = SimDate::new(2014, 8, 5);
    let day = |seed: u64| {
        GraywareStream::new(StreamConfig {
            samples_per_day: PAGES,
            seed,
            ..StreamConfig::default()
        })
        .generate_day(date)
    };

    let config = KizzleConfig::paper();
    let cap = config.token_cap;
    let reference = ReferenceCorpus::seeded_from_models(date, &config);
    let mut service = KizzleService::new(config, reference).expect("paper config is valid");
    service
        .process_day(date, day(seed))
        .expect("the day compiles");
    let matcher = service.matcher();
    let set = matcher.signatures();
    let pages: Vec<String> = day(seed ^ 0x5ca9)
        .into_iter()
        .map(|sample| sample.html)
        .collect();

    // Classify each page with telemetry on.
    let gate_rejected = kizzle_telemetry::counter("kizzle_scan_gate_rejected_total");
    kizzle_telemetry::set_enabled(true);
    let classes: Vec<usize> = pages
        .iter()
        .map(|page| {
            kizzle_signature::flush_scan_counters();
            let before = gate_rejected.value();
            let verdict = matcher.scan_verdict(page);
            kizzle_signature::flush_scan_counters();
            if verdict.index.is_some() {
                2
            } else if gate_rejected.value() > before {
                0
            } else {
                1
            }
        })
        .collect();
    kizzle_telemetry::set_enabled(false);

    // Warm the thread's scan scratch, then time every page.
    for page in &pages {
        black_box(matcher.scan_verdict(page));
    }
    let scan_us: Vec<f64> = pages
        .iter()
        .map(|page| time_us(|| matcher.scan_verdict(page)))
        .collect();
    let mut spans = Vec::new();
    let (mut lex_us, mut match_us, mut hits) = (0.0, 0.0, 0usize);
    for (page, _) in pages.iter().zip(&classes).filter(|(_, &class)| class == 2) {
        lex_us += time_us(|| lex_document(page, cap, &mut spans).0.len());
        let stream = tokenize_document_capped(page, cap);
        match_us += time_us(|| set.scan_stream_index(&stream));
        hits += 1;
    }

    let total: f64 = scan_us.iter().sum();
    println!(
        "scan_breakdown: seed {seed}, {} pages scanned, {} signatures, gate {}",
        pages.len(),
        set.len(),
        set.seal()
            .gate_off()
            .map_or_else(|| "on".to_string(), |off| format!("off:{off}"))
    );
    println!(
        "{:<14} {:>6} {:>7} {:>9}",
        "class", "count", "share", "mean µs"
    );
    for (class, name) in CLASSES.iter().enumerate() {
        let times: Vec<f64> = scan_us
            .iter()
            .zip(&classes)
            .filter(|(_, &c)| c == class)
            .map(|(&us, _)| us)
            .collect();
        let sum: f64 = times.iter().sum();
        println!(
            "{name:<14} {:>6} {:>6.1}% {:>9.2}",
            times.len(),
            100.0 * sum / total,
            sum / times.len().max(1) as f64
        );
    }
    println!(
        "{:<14} {:>6} {:>6.1}% {:>9.2}",
        "all",
        pages.len(),
        100.0,
        total / pages.len() as f64
    );
    if hits > 0 {
        let hit_us: f64 = scan_us
            .iter()
            .zip(&classes)
            .filter(|(_, &c)| c == 2)
            .map(|(&us, _)| us)
            .sum::<f64>()
            / hits as f64;
        let (lex, matching) = (lex_us / hits as f64, match_us / hits as f64);
        println!(
            "hit, mean µs: lex {lex:.2}, match {matching:.2}, rest {:.2} (gate and handle)",
            hit_us - lex - matching
        );
    }
}
