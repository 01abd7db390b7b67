//! Where a cold start goes: the set-up the benchmark times as `setup_s`,
//! phase by phase. Each run boots a compiler over an empty chain
//! directory, spawns `kizzle-serve` over it with the benchmark's flags
//! (`--workers 2 --poll-ms 50`), generates and compiles a 200-page day and
//! saves it, waits until the daemon's `STATUS` serves that save (asking on
//! a fresh connection every 2 ms, as the benchmark does), then sends one
//! scan over the wire. It prints the median and quartiles of each phase
//! over `--runs` cold starts.
//!
//! ```sh
//! cargo build --release -p kizzle-serve
//! cargo run --release -p kizzle-bench --example cold_start -- --runs 20
//! ```
//!
//! The daemon binary is the one beside this example's build directory
//! (`target/release/kizzle-serve`).

use kizzle::prelude::*;
use kizzle_corpus::{GraywareStream, SimDate, StreamConfig};
use kizzle_serve::ScanClient;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const PHASES: [&str; 6] = [
    "boot: compiler over an empty directory",
    "spawn: daemon until `listening on`",
    "inputs: generate 200 pages",
    "day: compile and save",
    "catch-up: save until STATUS serves it",
    "first scan: connect and one wire scan",
];

/// Kills the daemon however a run ends.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn status_field(status: &str, key: &str) -> Option<usize> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix('='))
        .and_then(|value| value.parse().ok())
}

/// One cold start: milliseconds per phase, in [`PHASES`] order.
fn cold_start(binary: &Path, dir: &Path, seed: u64) -> io::Result<[f64; PHASES.len()]> {
    let mut phases = [0.0; PHASES.len()];
    let mut at = Instant::now();
    let mut lap = |phase: usize| {
        let now = Instant::now();
        phases[phase] = (now - at).as_secs_f64() * 1e3;
        at = now;
    };

    let date = SimDate::new(2014, 8, 5);
    let config = KizzleConfig::paper();
    let reference = ReferenceCorpus::seeded_from_models(date, &config);
    let mut service = KizzleService::new(config, reference).map_err(io::Error::other)?;
    lap(0);

    let mut daemon = Daemon(
        Command::new(binary)
            .arg("--chain-dir")
            .arg(dir)
            .args(["--addr", "127.0.0.1:0", "--workers", "2", "--poll-ms", "50"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?,
    );
    let mut line = String::new();
    let stdout = daemon.0.stdout.take().expect("stdout is piped");
    BufReader::new(stdout).read_line(&mut line)?;
    let addr = line
        .strip_prefix("listening on ")
        .ok_or_else(|| io::Error::other(format!("unexpected daemon output: {line:?}")))?
        .trim()
        .to_string();
    lap(1);

    let day = GraywareStream::new(StreamConfig {
        samples_per_day: 200,
        ..StreamConfig::small(seed)
    })
    .generate_day(date);
    lap(2);

    service.process_day(date, &day).map_err(io::Error::other)?;
    service.save(dir).map_err(io::Error::other)?;
    lap(3);

    let signatures = service.signatures().len();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let status = ScanClient::connect(&addr)?.status()?;
        if status_field(&status, "epoch").is_some_and(|epoch| epoch > 0)
            && status_field(&status, "signatures") == Some(signatures)
        {
            break;
        }
        if Instant::now() > deadline {
            return Err(io::Error::other("the daemon did not serve the save in 5 s"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    lap(4);

    let page = day
        .iter()
        .find(|s| s.truth.is_malicious())
        .unwrap_or(&day[0]);
    let verdict = ScanClient::connect(&addr)?.scan(&page.html)?;
    lap(5);
    if verdict.index != service.matcher().scan_verdict(&page.html).index {
        return Err(io::Error::other(
            "the wire verdict differs from the in-process one",
        ));
    }
    Ok(phases)
}

fn quartiles(mut values: Vec<f64>) -> [f64; 3] {
    values.sort_by(f64::total_cmp);
    let at = |q: f64| values[((values.len() - 1) as f64 * q).round() as usize];
    [at(0.25), at(0.5), at(0.75)]
}

fn main() -> io::Result<()> {
    let mut runs = 20usize;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match (flag.as_str(), args.next()) {
            ("--runs", Some(value)) => runs = value.parse().map_err(io::Error::other)?,
            _ => return Err(io::Error::other("usage: cold_start [--runs N]")),
        }
    }
    let binary = std::env::current_exe()?
        .parent()
        .and_then(Path::parent)
        .map(|release| release.join("kizzle-serve"))
        .filter(|binary| binary.is_file())
        .ok_or_else(|| {
            io::Error::other(
                "no kizzle-serve beside this build: cargo build --release -p kizzle-serve",
            )
        })?;

    let mut samples: Vec<[f64; PHASES.len()]> = Vec::with_capacity(runs);
    for run in 0..runs.max(1) {
        let dir: PathBuf =
            std::env::temp_dir().join(format!("kizzle-cold-start-{}-{run}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let phases = cold_start(&binary, &dir, 1 + run as u64);
        let _ = std::fs::remove_dir_all(&dir);
        samples.push(phases?);
    }

    println!("| phase | median ms | quartiles ms |");
    println!("|---|---|---|");
    let mut totals = vec![0.0; samples.len()];
    for (phase, name) in PHASES.iter().enumerate() {
        let values: Vec<f64> = samples.iter().map(|run| run[phase]).collect();
        for (total, value) in totals.iter_mut().zip(&values) {
            *total += value;
        }
        let [low, median, high] = quartiles(values);
        println!("| {name} | {median:.1} | [{low:.1}, {high:.1}] |");
    }
    let [low, median, high] = quartiles(totals);
    println!("| **total** | **{median:.1}** | [{low:.1}, {high:.1}] |");
    Ok(())
}
