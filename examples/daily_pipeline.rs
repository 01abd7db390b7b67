//! Daily pipeline: simulated grayware days, Kizzle vs. the lagged AV
//! baseline, driven through the warm incremental corpus engine.
//!
//! This is a miniature of the paper's month-long evaluation (Figs. 6/13),
//! centered on the August 13 Angler change that opened the commercial AV's
//! window of vulnerability. By default the compiler is reused across days,
//! so the corpus store and neighbor index stay warm from day to day.
//!
//! `--state-dir DIR` persists the service state after every day;
//! `--restart-each-day` additionally **drops the service between days**
//! and reloads it from the snapshot — the production cron deployment in
//! miniature. Its report table is byte-identical to the long-lived run
//! (CI diffs the two).
//!
//! `--metrics-out PATH` / `--trace-out PATH` switch on the
//! `kizzle-telemetry` layer for the run and dump the metric registry
//! (Prometheus text exposition) and the span/event trace (JSONL) after
//! the last day, plus a phase tree and metric summary on stderr. The
//! stdout table is unchanged — telemetry never touches it (see
//! OBSERVABILITY.md).
//!
//! ```bash
//! cargo run --release -p kizzle-sim --example daily_pipeline -- \
//!     --days 7 --samples-per-day 150 --seed 11
//! cargo run --release -p kizzle-sim --example daily_pipeline -- \
//!     --days 3 --state-dir /tmp/kizzle-state --restart-each-day
//! ```

use kizzle_eval::{EvalConfig, MonthlyEvaluation};
use std::path::PathBuf;

struct Args {
    days: u32,
    samples_per_day: usize,
    seed: u64,
    state_dir: Option<PathBuf>,
    restart_each_day: bool,
    metrics_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        days: 7,
        samples_per_day: 150,
        seed: 11,
        state_dir: None,
        restart_each_day: false,
        metrics_out: None,
        trace_out: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--days" => args.days = parse(&value("--days"), "--days"),
            "--samples-per-day" => {
                args.samples_per_day = parse(&value("--samples-per-day"), "--samples-per-day");
            }
            "--seed" => args.seed = parse(&value("--seed"), "--seed"),
            "--state-dir" => args.state_dir = Some(PathBuf::from(value("--state-dir"))),
            "--restart-each-day" => args.restart_each_day = true,
            "--metrics-out" => args.metrics_out = Some(PathBuf::from(value("--metrics-out"))),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("--trace-out"))),
            "--help" | "-h" => {
                println!(
                    "usage: daily_pipeline [--days N] [--samples-per-day M] [--seed S]\n\
                     \x20                     [--state-dir DIR [--restart-each-day]]\n\
                     defaults: --days 7 --samples-per-day 150 --seed 11\n\
                     --state-dir DIR       persist compiler state (one state file) after each day\n\
                     --restart-each-day    drop + reload the compiler between days (cron simulation)\n\
                     --metrics-out PATH    enable telemetry; write the metric registry in Prometheus\n\
                     \x20                     text exposition format to PATH after the run\n\
                     --trace-out PATH      enable telemetry; write the span/event trace as JSONL to\n\
                     \x20                     PATH after the run (either flag also prints a phase\n\
                     \x20                     tree and metric summary to stderr)"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown flag {other} (try --help)")),
        }
    }
    if args.days == 0 {
        die("--days must be at least 1");
    }
    if args.restart_each_day && args.state_dir.is_none() {
        die("--restart-each-day needs --state-dir (state must live somewhere between runs)");
    }
    args
}

fn parse<T: std::str::FromStr>(value: &str, flag: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| die(&format!("{flag}: cannot parse {value:?}")))
}

fn die(message: &str) -> ! {
    eprintln!("daily_pipeline: {message}");
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    // Telemetry is opt-in: either output flag flips the global gate before
    // the run starts, so the instrumented layers start recording from the
    // first ingest batch. All telemetry output goes to files or stderr —
    // the stdout report table stays byte-comparable across modes.
    let telemetry = args.metrics_out.is_some() || args.trace_out.is_some();
    if telemetry {
        kizzle_telemetry::set_enabled(true);
    }
    let mut config = EvalConfig::quick(args.seed);
    config.stream.samples_per_day = args.samples_per_day;
    let mut end = config.start;
    for _ in 1..args.days {
        end = end.next();
    }
    config.end = end;

    let evaluation = MonthlyEvaluation::new(config);
    // Mode notes go to stderr so the stdout report stays byte-comparable
    // between the long-lived and restart-each-day runs (CI diffs them).
    let result = match (&args.state_dir, args.restart_each_day) {
        (None, _) => evaluation.run(),
        (Some(dir), false) => {
            eprintln!(
                "persisting compiler state to {} after each day",
                dir.display()
            );
            evaluation.run_persisting(dir)
        }
        (Some(dir), true) => {
            eprintln!(
                "cron simulation: dropping and reloading the compiler from {} between days",
                dir.display()
            );
            evaluation.run_restarting(dir)
        }
    };

    println!(
        "day      samples  clusters  corpus  | Kizzle FP%  FN%   | AV FP%   FN%   | new signatures"
    );
    for day in &result.days {
        println!(
            "{:>6}  {:7}  {:8}  {:6}  | {:8.3}  {:5.1} | {:6.3}  {:5.1} | {}",
            day.date.axis_label(),
            day.samples,
            day.clusters,
            day.live_corpus,
            day.kizzle.fp_rate() * 100.0,
            day.kizzle.fn_rate() * 100.0,
            day.av.fp_rate() * 100.0,
            day.av.fn_rate() * 100.0,
            day.new_signatures.join(" "),
        );
    }

    // Timings go to stderr: the stdout table must stay byte-comparable
    // between the long-lived and restart-each-day runs (CI diffs them).
    let clustering_total: f64 = result.days.iter().map(|d| d.clustering_seconds).sum();
    let prototype_total: f64 = result.days.iter().map(|d| d.prototype_seconds).sum();
    eprintln!(
        "clustering wall clock: {clustering_total:.3}s total, of which final prototype pass \
         {prototype_total:.3}s ({:.0}%)",
        if clustering_total > 0.0 {
            prototype_total / clustering_total * 100.0
        } else {
            0.0
        }
    );

    let kizzle = result.kizzle_total();
    let av = result.av_total();
    println!(
        "\nwindow totals — Kizzle: FP {:.3}% FN {:.1}%   AV: FP {:.3}% FN {:.1}%",
        kizzle.fp_rate() * 100.0,
        kizzle.fn_rate() * 100.0,
        av.fp_rate() * 100.0,
        av.fn_rate() * 100.0
    );
    println!(
        "(the paper reports Kizzle FP < 0.03% and FN < 5% over August 2014, with the AV's\n\
         Angler false-negative window between August 13 and 19 — compare the FN columns above;\n\
         the `corpus` column is the warm engine's live sample store after each day)"
    );

    if telemetry {
        write_telemetry(&args);
    }
}

/// Flush, drain, and write out the telemetry collected during the run.
/// All output goes to the requested files and stderr — never stdout,
/// which CI byte-compares across run modes.
fn write_telemetry(args: &Args) {
    // Scan counters are batched per thread; the eval loop scans on this
    // thread, so one flush here makes the registry totals exact.
    kizzle_signature::flush_scan_counters();
    let records = kizzle_telemetry::drain();

    if let Some(path) = &args.metrics_out {
        let prom = kizzle_telemetry::render_prometheus();
        if let Err(err) = std::fs::write(path, prom) {
            die(&format!("--metrics-out {}: {err}", path.display()));
        }
        eprintln!("metrics written to {}", path.display());
    }
    if let Some(path) = &args.trace_out {
        let jsonl = kizzle_telemetry::render_jsonl(&records);
        if let Err(err) = std::fs::write(path, jsonl) {
            die(&format!("--trace-out {}: {err}", path.display()));
        }
        eprintln!(
            "trace written to {} ({} records)",
            path.display(),
            records.len()
        );
    }

    eprintln!("\nphase tree (per thread, by start time):");
    eprint!("{}", kizzle_telemetry::render_tree(&records));
    eprintln!("\nmetric summary (non-zero only):");
    eprint!("{}", kizzle_telemetry::render_summary());
}
