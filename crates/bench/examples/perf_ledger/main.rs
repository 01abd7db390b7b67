//! `perf_ledger` — the repository's benchmark: four workloads (three
//! compile-day shapes and one wire-scan), end-to-end metrics with
//! tracing off, per-layer metrics from a separate traced run, and a
//! correctness gate in the same command. See README.md beside this file
//! and BENCHMARK.json at the repository root.
//!
//! ```text
//! cargo run --release -p kizzle-bench --example perf_ledger -- \
//!     --workload <name|all> --seed <u64> --seconds <n> [--trace [0|1]] [--out <file.json>] [--aa]
//! ```
//!
//! The command in BENCHMARK.json goes through the launcher package beside
//! this file (`Cargo.toml` + `launch.rs`), which runs exactly the above.
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! Exit status is non-zero when anything was incorrect.

mod daemon;
mod days;
mod inputs;
mod json;
mod ledger;
mod loadgen;
mod spans;
mod stats;
mod surface;
mod wire;

use json::Json;
use ledger::{Metric, Report, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const BENCHMARK_FILE: &str = "BENCHMARK.json";
const BASELINE_FILE: &str = "crates/bench/examples/perf_ledger/baseline.json";
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str =
    "usage: perf_ledger --workload <day_dup|day_diverse|day_overlap|wire_scan|all> \
[--seed N] [--seconds N] [--trace [0|1]] [--out FILE] [--aa]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
    aa: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: None,
        aa: false,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&args.seconds) {
                    return Err("--seconds must be within 1..=60".into());
                }
            }
            "--trace" => {
                // Bare `--trace` means on; the driver passes 0 or 1.
                args.traced = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => args.out = Some(value("--out")?.into()),
            "--aa" => args.aa = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    Ok(args)
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.into())),
            ]),
        )
    }))
}

/// The result line: end-to-end metrics with tracing off, per-layer
/// metrics with tracing on.
fn result_line(report: &Report, traced: bool) -> Json {
    let metrics = if traced {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    Json::obj([
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", metrics_json(metrics)),
    ])
}

fn print_table(title: &str, metrics: &[Metric]) {
    if metrics.is_empty() {
        return;
    }
    eprintln!("\n{title}");
    for m in metrics {
        eprintln!(
            "  {:<36} {:>16.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// Seed-1 gate: per-day FP/detection counts and the final signature set
/// must equal the recorded baseline's, for the `--seconds` the baseline
/// was recorded at. Nothing else is compared: work counters and chain
/// sizes are what later changes are meant to improve.
fn check_baseline(report: &mut Report, seed: u64, seconds: f64) {
    let baseline = match std::fs::read_to_string(BASELINE_FILE)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text))
    {
        Ok(baseline) => baseline,
        Err(err) => {
            report.failures.push(format!("{BASELINE_FILE}: {err}"));
            report.correct = false;
            return;
        }
    };
    let recorded_for = |key: &str| baseline.get(key).and_then(Json::as_f64);
    if recorded_for("seed") != Some(seed as f64) || recorded_for("seconds") != Some(seconds) {
        return;
    }
    let recorded = baseline
        .get("workloads")
        .and_then(|w| w.get(report.workload))
        .and_then(|w| w.get("exact"))
        .and_then(|exact| exact.get("gate"));
    let measured = report.exact.get("gate");
    if recorded.is_none() || recorded != measured {
        report.correct = false;
        report.failures.push(format!(
            "FP/detection counts or signatures differ from the seed-{seed} baseline in \
             {BASELINE_FILE}: recorded {}, measured {}",
            recorded.map_or("nothing".into(), Json::render),
            measured.map_or("nothing".into(), Json::render)
        ));
    }
}

fn report_json(report: &Report) -> Json {
    let mut fields = vec![
        ("correct".to_string(), Json::Bool(report.correct)),
        ("attempted".to_string(), Json::Num(report.attempted as f64)),
        ("failed".to_string(), Json::Num(report.failed as f64)),
        (
            "failures".to_string(),
            Json::Arr(report.failures.iter().cloned().map(Json::Str).collect()),
        ),
        ("end_to_end".to_string(), metrics_json(&report.end_to_end)),
        ("per_layer".to_string(), metrics_json(&report.per_layer)),
        ("exact".to_string(), report.exact.clone()),
    ];
    if let Some(spans) = &report.spans {
        fields.push(("spans".to_string(), spans.clone()));
    }
    Json::Obj(fields)
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// Civil date of a Unix timestamp (days-from-civil, inverted).
fn utc_date(unix_secs: u64) -> String {
    let z = (unix_secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// Where and when a set of numbers was measured.
fn stamp(seed: u64, seconds: f64) -> Vec<(String, Json)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    vec![
        ("seed".into(), Json::Num(seed as f64)),
        ("seconds".into(), Json::Num(seconds)),
        (
            "machine".into(),
            Json::obj([
                (
                    "nproc",
                    Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
                ),
                ("cpu", Json::Str(cpu)),
            ]),
        ),
        (
            "rustc".into(),
            Json::Str(command_output("rustc", &["--version"])),
        ),
        (
            "commit".into(),
            Json::Str(command_output("git", &["rev-parse", "HEAD"])),
        ),
        ("date".into(), Json::Str(utc_date(now))),
    ]
}

fn write_out(path: &Path, seed: u64, seconds: f64, workloads: Vec<(String, Json)>) -> bool {
    let mut fields = stamp(seed, seconds);
    fields.push(("workloads".into(), Json::Obj(workloads)));
    match std::fs::write(path, Json::Obj(fields).render_pretty()) {
        Ok(()) => true,
        Err(err) => {
            eprintln!("perf_ledger: cannot write {}: {err}", path.display());
            false
        }
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload in this process.
fn run_single(args: &Args) -> ExitCode {
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::FAILURE;
    };
    let outcome = daemon::build_daemon()
        .and_then(|binary| ledger::run(workload, args.seed, args.seconds, args.traced, &binary));
    let mut report = match outcome {
        Ok(report) => report,
        Err(err) => {
            eprintln!("perf_ledger: {err}");
            return ExitCode::FAILURE;
        }
    };
    check_baseline(&mut report, args.seed, args.seconds);
    eprintln!(
        "perf_ledger {} seed {} seconds {} trace {}",
        report.workload, args.seed, args.seconds, args.traced
    );
    print_table("end-to-end (n = inner samples)", &report.end_to_end);
    print_table("per-layer (traced days / traced phases)", &report.per_layer);
    eprintln!();
    for note in &report.notes {
        eprintln!("{note}");
    }
    eprintln!("exact: {}", report.exact.render());
    for failure in &report.failures {
        eprintln!("FAILED: {failure}");
    }
    let mut ok = report.correct;
    if let Some(path) = &args.out {
        let body = vec![(report.workload.to_string(), report_json(&report))];
        ok &= write_out(path, args.seed, args.seconds, body);
    }
    println!("{}", result_line(&report, args.traced).render());
    exit_code(ok)
}

/// Re-execute this binary for one workload (a fresh process, so
/// `peak_rss_mb` is that workload's own) and read back its `--out` file.
fn run_child(args: &Args, workload: &str, scratch: &Path) -> Option<Json> {
    let out = scratch.join(format!("{workload}.json"));
    let exe = std::env::current_exe().ok()?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    let status = command.status().ok()?;
    let report = std::fs::read_to_string(&out)
        .ok()
        .and_then(|text| Json::parse(&text).ok())?;
    let body = report.get("workloads")?.get(workload)?.clone();
    if !status.success() {
        eprintln!("perf_ledger: {workload} exited with {status}");
    }
    for failure in body.get("failures").and_then(Json::as_arr).unwrap_or(&[]) {
        eprintln!("{workload} FAILED: {}", failure.as_str().unwrap_or("?"));
    }
    Some(body)
}

fn is_correct(body: &Json) -> bool {
    body.get("correct") == Some(&Json::Bool(true))
}

/// `--workload all`: every workload once, each in its own process.
fn run_all(args: &Args) -> ExitCode {
    let Ok(scratch) = daemon::TempDir::create("all") else {
        eprintln!("perf_ledger: cannot create a scratch directory");
        return ExitCode::FAILURE;
    };
    let mut bodies = Vec::new();
    let mut ok = true;
    for workload in &WORKLOADS {
        match run_child(args, workload.name, scratch.path()) {
            Some(body) => {
                ok &= is_correct(&body);
                bodies.push((workload.name.to_string(), body));
            }
            None => {
                eprintln!("perf_ledger: {} produced no report", workload.name);
                ok = false;
            }
        }
    }
    if let Some(path) = &args.out {
        ok &= write_out(path, args.seed, args.seconds, bodies.clone());
    }
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(ok)),
            ("workloads", Json::Obj(bodies))
        ])
        .render()
    );
    exit_code(ok)
}

struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn read_bounds() -> Result<Vec<Bound>, String> {
    let text =
        std::fs::read_to_string(BENCHMARK_FILE).map_err(|e| format!("{BENCHMARK_FILE}: {e}"))?;
    let benchmark = Json::parse(&text)?;
    let metrics = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "malformed end_to_end entry".to_string())
}

/// Runs per set in `--aa`: single runs on a shared VM disagree by more
/// than the bounds often enough to be useless; medians of three do not.
const AA_RUNS: usize = 3;

/// `--aa`: two sets of [`AA_RUNS`] runs of every workload, same code,
/// same seed, interleaved (set 1 runs A B C D, set 2 runs D C B A, and
/// again). The two sets' medians must agree within each end-to-end
/// metric's bound, every run must be correct, and the exact counts must
/// be identical in all of them.
fn run_aa(args: &Args) -> ExitCode {
    let bounds = match read_bounds() {
        Ok(bounds) => bounds,
        Err(err) => {
            eprintln!("perf_ledger: {err}");
            return ExitCode::FAILURE;
        }
    };
    let Ok(scratch) = daemon::TempDir::create("aa") else {
        eprintln!("perf_ledger: cannot create a scratch directory");
        return ExitCode::FAILURE;
    };
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    // sets[set][workload] = that set's reports of that workload.
    let mut sets = [vec![Vec::new(); names.len()], vec![Vec::new(); names.len()]];
    let mut ok = true;
    for _ in 0..AA_RUNS {
        for (set, reversed) in [(0, false), (1, true)] {
            let mut order: Vec<usize> = (0..names.len()).collect();
            if reversed {
                order.reverse();
            }
            for w in order {
                match run_child(args, names[w], scratch.path()) {
                    Some(body) => sets[set][w].push(body),
                    None => {
                        eprintln!("{}: a run produced no report", names[w]);
                        ok = false;
                    }
                }
            }
        }
    }

    let median = |bodies: &[Json], metric: &str| {
        let values: Option<Vec<f64>> = bodies
            .iter()
            .map(|body| body.get("end_to_end")?.get(metric)?.get("value")?.as_f64())
            .collect();
        values.filter(|v| !v.is_empty()).map(|v| stats::median(&v))
    };
    for (w, name) in names.iter().enumerate() {
        let all: Vec<&Json> = sets.iter().flat_map(|set| &set[w]).collect();
        ok &= all.iter().all(|body| is_correct(body));
        if all
            .windows(2)
            .any(|pair| pair[0].get("exact") != pair[1].get("exact"))
        {
            eprintln!("{name}: exact counts differ between runs of one seed");
            ok = false;
        }
        eprintln!(
            "\n{name} (medians of {AA_RUNS})\n  {:<24} {:>14} {:>14} {:>8} {:>7}",
            "metric", "set 1", "set 2", "worse by", "bound"
        );
        for bound in &bounds {
            let (Some(x), Some(y)) = (
                median(&sets[0][w], &bound.name),
                median(&sets[1][w], &bound.name),
            ) else {
                eprintln!("  {:<24} missing", bound.name);
                ok = false;
                continue;
            };
            // How much worse the worse set is, as a share of the better.
            let (better, worse) = if (x < y) == bound.higher_is_better {
                (y, x)
            } else {
                (x, y)
            };
            let gap = (worse - better).abs() / better.abs().max(f64::MIN_POSITIVE);
            let within = gap <= bound.bound;
            ok &= within;
            eprintln!(
                "  {:<24} {x:>14.4} {y:>14.4} {:>7.2}% {:>6.0}% {}",
                bound.name,
                gap * 100.0,
                bound.bound * 100.0,
                if within { "" } else { "DISAGREE" }
            );
        }
    }
    println!("{}", Json::obj([("correct", Json::Bool(ok))]).render());
    exit_code(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    if args.aa {
        run_aa(&args)
    } else if args.workload == "all" {
        run_all(&args)
    } else {
        run_single(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dates_come_out_right() {
        assert_eq!(utc_date(0), "1970-01-01");
        assert_eq!(utc_date(951_782_400), "2000-02-29");
        assert_eq!(utc_date(1_790_553_600), "2026-09-28");
    }

    #[test]
    fn every_workload_plans_the_same_days_for_the_same_seconds() {
        for w in &WORKLOADS {
            let plan = w.plan(DEFAULT_SECONDS);
            assert_eq!(plan.measured_days, w.plan(DEFAULT_SECONDS).measured_days);
            assert!(plan.measured_days >= ledger::MIN_MEASURED_DAYS);
            assert!(w.plan(1.0).measured_days >= ledger::MIN_MEASURED_DAYS);
            assert!(plan.chunk_slices >= ledger::MIN_CHUNK_SLICES);
            assert!(w.plan(1.0).chunk_slices >= ledger::MIN_CHUNK_SLICES);
            // Variation prefixes stay unique over the whole run: set-up's
            // day, ramp-up, measured days, the traced run's hot-swap days.
            let days = u64::from(1 + plan.ramp_up_days + w.plan(60.0).measured_days + 2);
            assert!(days * (w.per_day as u64) < inputs::PREFIX_SPACE || w.per_day > 1_000);
        }
    }
}
