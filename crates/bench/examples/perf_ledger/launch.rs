//! The package the command in `BENCHMARK.json` names. It holds no
//! benchmark code: it replaces itself with
//! `cargo run --release -p kizzle-bench --example perf_ledger -- <args>`,
//! so the benchmark is built once, by the repository's own workspace —
//! its lock file, its release profile, the build `cargo test` and clippy
//! exercise. The README says why the package exists at all.

use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates/bench/Cargo.toml").is_file() {
        eprintln!("perf_ledger: run from the repository root (no Cargo.toml + crates/bench here)");
        return ExitCode::FAILURE;
    }
    let err = Command::new("cargo")
        .args(["run", "--release", "--offline", "--quiet"])
        .args(["-p", "kizzle-bench", "--example", "perf_ledger", "--"])
        .args(std::env::args_os().skip(1))
        .exec();
    eprintln!("perf_ledger: cannot run cargo: {err}");
    ExitCode::FAILURE
}
