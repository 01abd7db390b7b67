//! The repo-specific lints. Each module exposes
//! `run(&Workspace, &mut Vec<Finding>)`; registration lives in
//! [`crate::lint::all_lints`].

pub mod panic_path;
pub mod section_registry;
pub mod telemetry_drift;
pub mod test_only_pub;
pub mod threshold_drift;
pub mod timing;
pub mod unsafe_audit;

use crate::lint::{Finding, Severity};
use crate::workspace::SourceFile;

/// Build a finding anchored at byte `offset` of `file`.
pub(crate) fn finding_at(
    lint: &'static str,
    severity: Severity,
    file: &SourceFile,
    offset: usize,
    message: String,
) -> Finding {
    let (line, col) = file.line_col(offset);
    Finding {
        lint,
        severity,
        path: file.rel_path.clone(),
        line,
        col,
        message,
        excerpt: file.line_text(offset),
    }
}
