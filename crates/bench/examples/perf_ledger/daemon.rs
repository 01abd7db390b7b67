//! The `kizzle-serve` child process: spawned from the binary the root
//! workspace builds, killed on every exit path, observed through `/proc`.

use crate::surface;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Where cargo puts build products for this invocation: the directory
/// above the profile directory this executable runs from
/// (`<target>/release/examples/perf_ledger`).
pub fn target_dir() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    exe.ancestors()
        .find(|dir| {
            dir.file_name()
                .is_some_and(|name| name == "release" || name == "debug")
        })
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| io::Error::other("executable is not under a cargo target directory"))
}

/// Build the daemon from the checkout's sources (a no-op when fresh) and
/// return the binary. Requires the current directory to be the
/// repository root — that is where the command in BENCHMARK.json runs.
pub fn build_daemon() -> io::Result<PathBuf> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates/serve").is_dir() {
        return Err(io::Error::other(
            "run from the repository root (no Cargo.toml + crates/serve here)",
        ));
    }
    let target = target_dir()?;
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet", "-p"])
        .arg(surface::DAEMON_PACKAGE)
        .env("CARGO_TARGET_DIR", &target)
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "cargo build -p {} failed",
            surface::DAEMON_PACKAGE
        )));
    }
    let binary = target.join("release").join(surface::DAEMON_BINARY);
    if binary.is_file() {
        Ok(binary)
    } else {
        Err(io::Error::other(format!(
            "{} was not built",
            binary.display()
        )))
    }
}

/// A directory under the target directory that is removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn create(label: &str) -> io::Result<Self> {
        let dir = target_dir()?
            .join("perf_ledger-tmp")
            .join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub struct Daemon {
    child: Child,
    stdout: Option<JoinHandle<()>>,
    pub addr: String,
}

impl Daemon {
    /// Spawn the daemon over `chain_dir` and wait (bounded) for its
    /// `listening on` line, which carries the OS-assigned port.
    pub fn spawn(binary: &Path, chain_dir: &Path) -> io::Result<Self> {
        let mut child = Command::new(binary)
            .args(surface::daemon_args(chain_dir))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // Keeps draining after the first line so the child never blocks
        // on a full pipe; ends at EOF, i.e. when the child has exited.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let mut daemon = Daemon {
            child,
            stdout: Some(reader),
            addr: String::new(),
        };
        // On any early return `daemon` drops, which kills the child.
        let line = rx
            .recv_timeout(Duration::from_secs(10))
            .map_err(|_| io::Error::other("daemon printed no `listening on` line within 10 s"))?;
        daemon.addr = line
            .strip_prefix("listening on ")
            .ok_or_else(|| io::Error::other(format!("unexpected daemon output: {line}")))?
            .trim()
            .to_string();
        Ok(daemon)
    }

    pub fn alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }

    /// CPU time the daemon's threads have run, µs (`schedstat`, ns
    /// resolution; `None` once the process is gone).
    pub fn cpu_us(&self) -> Option<u64> {
        let tasks = std::fs::read_dir(format!("/proc/{}/task", self.child.id())).ok()?;
        let mut total_ns = 0u64;
        for task in tasks.flatten() {
            let stat = std::fs::read_to_string(task.path().join("schedstat")).ok()?;
            total_ns += stat.split_whitespace().next()?.parse::<u64>().ok()?;
        }
        Some(total_ns / 1_000)
    }

    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(self.child.id())
    }

    /// Ask for a graceful drain, then make sure: kill and reap.
    pub fn stop(mut self) {
        if let Ok(admin) = surface::Admin::connect(&self.addr) {
            let _ = admin.shutdown();
        }
        for _ in 0..100 {
            if !self.alive() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // Drop kills whatever is left and joins the reader.
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
    }
}

/// `VmHWM` of process `pid`, MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Total size of the regular files in `dir`, and how many there are.
pub fn dir_size(dir: &Path) -> io::Result<(u64, u64)> {
    let mut bytes = 0;
    let mut files = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            bytes += meta.len();
            files += 1;
        }
    }
    Ok((bytes, files))
}
