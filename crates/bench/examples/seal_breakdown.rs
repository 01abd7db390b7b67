//! Where a seal goes: seeded days of the stock page mix (2,000 pages a
//! day, 15 % exploit-kit pages with the stream's default family weights)
//! are compiled one after another by one warm service, and each seal is
//! split into its steps:
//!
//! * **cluster** — `day.cluster`, the clustering engine;
//! * **label** — `day.winnow`, the loop over significant clusters, itself
//!   split into **unpack** (script extraction and the unpackers),
//!   **fingerprint** (winnowing the unpacked prototype once), **overlap**
//!   (the probe against every family's reference) and **absorb**
//!   (merging a labelled probe into its family);
//! * **lex-wait** — lexing the labelled clusters' picks the helper thread
//!   had not lexed when labelling ended;
//! * **generate** — signature generation;
//! * **other** — the rest of the seal: the session's hand-over, the
//!   scan pipeline built for publication and the epoch swap.
//!
//! Telemetry is on during each seal only: the steps are read off its
//! spans and the `kizzle_label_*_ns_total` / `kizzle_siggen_*_ns_total`
//! counters. It prints one row per seal in milliseconds, then the median
//! of each column. Runs in a few seconds.
//!
//! ```sh
//! cargo run --release -p kizzle-bench --example seal_breakdown -- --seed 1
//! cargo run --release -p kizzle-bench --example seal_breakdown -- --seed 2 --days 10 --pages 8000
//! ```

use kizzle::prelude::*;
use kizzle_corpus::{GraywareStream, SimDate, StreamConfig};
use kizzle_telemetry::Record;
use std::time::Instant;

const COLUMNS: [&str; 11] = [
    "seal", "cluster", "label", "unpack", "fprint", "overlap", "absorb", "lex-wait", "generate",
    "other", "clusters",
];

/// The label-loop and siggen counters, in column order.
const COUNTERS: [&str; 6] = [
    "kizzle_label_unpack_ns_total",
    "kizzle_label_fingerprint_ns_total",
    "kizzle_label_overlap_ns_total",
    "kizzle_label_absorb_ns_total",
    "kizzle_siggen_lex_wait_ns_total",
    "kizzle_siggen_generate_ns_total",
];

struct Args {
    seed: u64,
    days: u32,
    pages: usize,
}

fn usage() -> ! {
    eprintln!("usage: seal_breakdown [--seed N] [--days N] [--pages N]");
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut parsed = Args {
        seed: 1,
        days: 8,
        pages: 2_000,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--seed" => parsed.seed = value.parse().unwrap_or_else(|_| usage()),
            "--days" => parsed.days = value.parse().unwrap_or_else(|_| usage()),
            "--pages" => parsed.pages = value.parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    if parsed.days == 0 || parsed.days > 27 {
        usage();
    }
    parsed
}

fn counter_ms(before: &[u64; 6]) -> [f64; 6] {
    let mut ms = [0.0; 6];
    for ((ms, name), before) in ms.iter_mut().zip(COUNTERS).zip(before) {
        *ms = (kizzle_telemetry::counter(name).value() - before) as f64 / 1e6;
    }
    ms
}

fn span_ms(records: &[Record], name: &str) -> f64 {
    records
        .iter()
        .filter_map(|record| match record {
            Record::Span {
                name: span, dur_us, ..
            } if *span == name => Some(*dur_us as f64 / 1e3),
            _ => None,
        })
        .sum()
}

fn print_row(label: &str, row: &[f64; COLUMNS.len()]) {
    print!("{label:<10}");
    for (value, column) in row.iter().zip(COLUMNS) {
        if column == "clusters" {
            print!(" {value:>9.0}");
        } else {
            print!(" {value:>9.3}");
        }
    }
    println!();
}

fn main() {
    let args = parse_args();
    let config = KizzleConfig::paper();
    let first = SimDate::new(2014, 8, 5);
    let reference = ReferenceCorpus::seeded_from_models(first, &config);
    let mut service = KizzleService::new(config, reference).expect("paper config is valid");
    let stream = GraywareStream::new(StreamConfig {
        samples_per_day: args.pages,
        seed: args.seed,
        ..StreamConfig::default()
    });

    println!(
        "seal_breakdown: seed {}, {} days of {} pages, ms per seal",
        args.seed, args.days, args.pages
    );
    print!("{:<10}", "day");
    for column in COLUMNS {
        print!(" {column:>9}");
    }
    println!();
    let mut rows = Vec::new();
    for day in 0..args.days {
        let date = SimDate::new(2014, 8, 5 + day);
        let samples = stream.generate_day(date);
        let mut session = service.begin_day(date).expect("days advance");
        session.ingest(samples);
        let before = COUNTERS.map(|name| kizzle_telemetry::counter(name).value());
        kizzle_telemetry::set_enabled(true);
        let started = Instant::now();
        let report = session.seal();
        let seal = started.elapsed().as_secs_f64() * 1e3;
        kizzle_telemetry::set_enabled(false);
        let records = kizzle_telemetry::drain();
        let [unpack, fingerprint, overlap, absorb, lex_wait, generate] = counter_ms(&before);
        let cluster = span_ms(&records, "day.cluster");
        let label = span_ms(&records, "day.winnow");
        let row = [
            seal,
            cluster,
            label,
            unpack,
            fingerprint,
            overlap,
            absorb,
            lex_wait,
            generate,
            seal - cluster - label - lex_wait - generate,
            report.verdicts.len() as f64,
        ];
        print_row(&date.to_string(), &row);
        rows.push(row);
    }
    let mut median = [0.0; COLUMNS.len()];
    for (column, value) in median.iter_mut().enumerate() {
        let mut values: Vec<f64> = rows.iter().map(|row| row[column]).collect();
        values.sort_by(f64::total_cmp);
        *value = values[values.len() / 2];
    }
    print_row("median", &median);
}
