//! The lint framework: findings, severities, the allowlist filter, and
//! the driver that runs every lint over a lexed workspace.

use crate::allow::Allowlist;
use crate::lints;
use crate::workspace::Workspace;
use std::fmt;
use std::io;
use std::path::Path;

/// How serious a finding is.
///
/// `Error` fails the run unconditionally; `Warn` fails only under
/// `--deny-all` (the CI mode). There is deliberately no "info" level —
/// a check either defends an invariant or it should not run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Warn,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warn => write!(f, "warn"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One diagnostic: lint, location, message, and the offending line.
#[derive(Debug, Clone)]
pub struct Finding {
    pub lint: &'static str,
    pub severity: Severity,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based; 0 when the finding is about a whole file.
    pub line: u32,
    pub col: u32,
    pub message: String,
    /// The source line the finding sits on (empty for whole-file
    /// findings); this is what allowlist `contains` patterns match.
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}:{}:{}: {}",
            self.severity, self.lint, self.path, self.line, self.col, self.message
        )?;
        if !self.excerpt.is_empty() {
            write!(f, "\n    | {}", self.excerpt.trim())?;
        }
        Ok(())
    }
}

/// A lint: a name, a one-line description, and a pass over the
/// workspace. Lints are plain functions — the framework stays a list,
/// not a trait hierarchy.
pub struct Lint {
    pub name: &'static str,
    pub description: &'static str,
    pub run: fn(&Workspace, &mut Vec<Finding>),
}

/// Every registered lint, in the order they are run and listed.
#[must_use]
pub fn all_lints() -> Vec<Lint> {
    vec![
        Lint {
            name: "panic-path",
            description: "no unwrap/expect/panic!/todo!/unimplemented! in non-test library code",
            run: lints::panic_path::run,
        },
        Lint {
            name: "telemetry-drift",
            description: "telemetry name literals and telemetry.schema declare the same catalog",
            run: lints::telemetry_drift::run,
        },
        Lint {
            name: "section-registry",
            description: "snapshot section names appear only in kizzle-snapshot's sections module",
            run: lints::section_registry::run,
        },
        Lint {
            name: "threshold-drift",
            description: "every thresholds.json arm has a bench emitter, every bench arm a gate",
            run: lints::threshold_drift::run,
        },
        Lint {
            name: "timing-discipline",
            description: "no raw Instant::now() outside kizzle-telemetry in library code",
            run: lints::timing::run,
        },
        Lint {
            name: "forbid-unsafe-audit",
            description: "every workspace crate's library root carries #![forbid(unsafe_code)]",
            run: lints::unsafe_audit::run,
        },
        Lint {
            name: "test-only-pub",
            description: "every pub fn in library code has a caller outside test code",
            run: lints::test_only_pub::run,
        },
    ]
}

/// The outcome of a full analysis run, post-allowlist.
#[derive(Debug)]
pub struct Report {
    /// Findings that survived the allowlist, in lint order.
    pub findings: Vec<Finding>,
    /// How many findings the allowlist suppressed.
    pub suppressed: usize,
    /// Allowlist entries of the lints that ran which matched nothing —
    /// stale entries to prune.
    pub unused_allows: Vec<String>,
}

impl Report {
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    #[must_use]
    pub fn warn_count(&self) -> usize {
        self.findings.len() - self.error_count()
    }

    /// Whether the run fails: errors always do, warnings and stale
    /// allowlist entries only when `deny_all` is set.
    #[must_use]
    pub fn failed(&self, deny_all: bool) -> bool {
        self.error_count() > 0
            || (deny_all && !(self.findings.is_empty() && self.unused_allows.is_empty()))
    }

    /// Render the full human-readable report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for finding in &self.findings {
            out.push_str(&finding.to_string());
            out.push('\n');
        }
        for name in &self.unused_allows {
            out.push_str(&format!("stale: allowlist entry matched nothing: {name}\n"));
        }
        out.push_str(&format!(
            "kizzle-analyze: {} error(s), {} warning(s), {} finding(s) allowlisted\n",
            self.error_count(),
            self.warn_count(),
            self.suppressed
        ));
        out
    }
}

/// Run `lint_filter`-selected lints (all when empty) over the workspace
/// at `root`, filtered through the allowlist at `allow_path` (which may
/// not exist — an absent allowlist allows nothing).
pub fn run(root: &Path, allow_path: &Path, lint_filter: &[String]) -> io::Result<Report> {
    let allowlist = if allow_path.exists() {
        Allowlist::load(allow_path).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", allow_path.display()),
            )
        })?
    } else {
        Allowlist::empty()
    };
    let workspace = Workspace::load(root)?;

    let mut raw = Vec::new();
    let mut ran = Vec::new();
    for lint in all_lints() {
        if lint_filter.is_empty() || lint_filter.iter().any(|n| n == lint.name) {
            (lint.run)(&workspace, &mut raw);
            ran.push(lint.name);
        }
    }

    let mut findings = Vec::new();
    let mut suppressed = 0;
    for finding in raw {
        if allowlist.matches(&finding) {
            suppressed += 1;
        } else {
            findings.push(finding);
        }
    }
    Ok(Report {
        findings,
        suppressed,
        unused_allows: allowlist.unused(&ran),
    })
}
