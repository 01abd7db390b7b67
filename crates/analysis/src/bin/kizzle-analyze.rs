//! `kizzle-analyze` — run the workspace lints.
//!
//! ```text
//! kizzle-analyze [--root DIR] [--allow FILE] [--deny-all]
//!                [--lint NAME]… [--report FILE] [--list-lints]
//! ```
//!
//! * `--root DIR` — workspace root (default: walk up from the current
//!   directory to the first `Cargo.toml` declaring `[workspace]`).
//! * `--allow FILE` — allowlist (default: `<root>/analysis/allow.toml`).
//! * `--deny-all` — CI mode: warnings and stale allowlist entries fail
//!   the run too.
//! * `--lint NAME` — run only the named lint(s); repeatable.
//! * `--report FILE` — additionally write the report to FILE (uploaded
//!   as a CI artifact on failure).
//! * `--list-lints` — print the lint catalog and exit.
//!
//! Exit status: 0 clean, 1 findings, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut allow: Option<PathBuf> = None;
    let mut report_path: Option<PathBuf> = None;
    let mut deny_all = false;
    let mut lint_filter: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--allow" => allow = args.next().map(PathBuf::from),
            "--report" => report_path = args.next().map(PathBuf::from),
            "--deny-all" => deny_all = true,
            "--lint" => match args.next() {
                Some(name) => lint_filter.push(name),
                None => return usage("--lint needs a lint name"),
            },
            "--list-lints" => {
                for lint in kizzle_analyze::all_lints() {
                    println!("{:<22} {}", lint.name, lint.description);
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!(
                    "kizzle-analyze [--root DIR] [--allow FILE] [--deny-all] \
                     [--lint NAME]... [--report FILE] [--list-lints]"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument: {other}")),
        }
    }

    let known: Vec<&str> = kizzle_analyze::all_lints().iter().map(|l| l.name).collect();
    for name in &lint_filter {
        if !known.contains(&name.as_str()) {
            return usage(&format!(
                "unknown lint `{name}` (known: {})",
                known.join(", ")
            ));
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match kizzle_analyze::workspace::Workspace::find_root(&cwd) {
                Some(r) => r,
                None => return usage("no workspace root found; pass --root"),
            }
        }
    };
    let allow = allow.unwrap_or_else(|| root.join("analysis/allow.toml"));

    let report = match kizzle_analyze::run(&root, &allow, &lint_filter) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("kizzle-analyze: {err}");
            return ExitCode::from(2);
        }
    };

    let rendered = report.render();
    print!("{rendered}");
    if let Some(path) = &report_path {
        if let Err(err) = std::fs::write(path, &rendered) {
            eprintln!(
                "kizzle-analyze: cannot write report to {}: {err}",
                path.display()
            );
            return ExitCode::from(2);
        }
    }

    if report.failed(deny_all) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(message: &str) -> ExitCode {
    eprintln!("kizzle-analyze: {message}");
    eprintln!("usage: kizzle-analyze [--root DIR] [--allow FILE] [--deny-all] [--lint NAME]... [--report FILE] [--list-lints]");
    ExitCode::from(2)
}
