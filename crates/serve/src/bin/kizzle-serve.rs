//! The `kizzle-serve` daemon binary: tail a compiler's state directory,
//! serve scans over TCP until a client asks the fleet to drain.

use kizzle_serve::{ServeConfig, Server};
use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str =
    "usage: kizzle-serve --chain-dir DIR [--addr HOST:PORT] [--workers N] [--poll-ms MS]

A save on this host wakes the daemon at once. --poll-ms (default 200) bounds
only the staleness of saves that cannot wake it: another host of a shared
filesystem, or a chain directory where the wake socket cannot be bound
(STATUS then says follow=poll).";

fn parse_args() -> Result<ServeConfig, String> {
    let mut chain_dir = None;
    let mut addr = "127.0.0.1:0".to_string();
    let mut workers = None;
    let mut poll_ms = 200u64;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--chain-dir" => chain_dir = Some(value("--chain-dir")?),
            "--addr" => addr = value("--addr")?,
            "--workers" => {
                workers = Some(
                    value("--workers")?
                        .parse::<usize>()
                        .map_err(|e| format!("--workers: {e}"))?,
                );
            }
            "--poll-ms" => {
                poll_ms = value("--poll-ms")?
                    .parse::<u64>()
                    .map_err(|e| format!("--poll-ms: {e}"))?;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }

    let chain_dir = chain_dir.ok_or(format!("--chain-dir is required\n{USAGE}"))?;
    let mut config = ServeConfig::new(chain_dir);
    config.addr = addr;
    if let Some(workers) = workers {
        config.workers = workers.max(1);
    }
    config.poll_interval = Duration::from_millis(poll_ms.max(1));
    Ok(config)
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(config) => config,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::start(&config) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("kizzle-serve: {err}");
            return ExitCode::FAILURE;
        }
    };
    // Scripted callers (the CI smoke, loadgen wrappers) read this line
    // to learn the OS-assigned port, so flush it out eagerly.
    println!("listening on {}", server.addr());
    let _ = std::io::stdout().flush();
    server.join();
    println!("drained");
    ExitCode::SUCCESS
}
