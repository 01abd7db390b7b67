//! The justified allowlist: `analysis/allow.toml`.
//!
//! Every suppression is an auditable record. The format is a TOML
//! subset — an array of `[[allow]]` tables of single-line string keys —
//! parsed by hand so the analyzer keeps its zero-dependency guarantee:
//!
//! ```toml
//! [[allow]]
//! lint = "panic-path"                     # required: which lint
//! path = "crates/core/src/service.rs"     # optional: path prefix
//! contains = ".lock().expect("            # optional: substring of the
//!                                         #   flagged line or message
//! reason = "poisoning means a thread already panicked; crash loudly"
//! ```
//!
//! `reason` is mandatory and must be non-empty — an unexplained
//! suppression is itself a lint violation, so the parser rejects it.
//! Entries that match nothing are reported as stale (and fail a
//! `--deny-all` run) so the file shrinks as violations are fixed.

use crate::lint::Finding;
use std::cell::Cell;
use std::fmt;
use std::fs;
use std::path::Path;

/// One `[[allow]]` entry.
#[derive(Debug)]
pub struct AllowEntry {
    pub lint: String,
    pub path: Option<String>,
    pub contains: Option<String>,
    pub reason: String,
    hits: Cell<usize>,
}

impl AllowEntry {
    fn matches(&self, finding: &Finding) -> bool {
        if self.lint != finding.lint {
            return false;
        }
        if let Some(prefix) = &self.path {
            if !finding.path.starts_with(prefix.as_str()) {
                return false;
            }
        }
        if let Some(needle) = &self.contains {
            if !finding.excerpt.contains(needle.as_str())
                && !finding.message.contains(needle.as_str())
            {
                return false;
            }
        }
        true
    }

    fn describe(&self) -> String {
        let mut out = format!("lint={}", self.lint);
        if let Some(p) = &self.path {
            out.push_str(&format!(" path={p}"));
        }
        if let Some(c) = &self.contains {
            out.push_str(&format!(" contains={c:?}"));
        }
        out
    }
}

/// A parsed allowlist with per-entry hit tracking.
#[derive(Debug)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

/// A parse failure, with the 1-based line it occurred on.
#[derive(Debug)]
pub struct AllowParseError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for AllowParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AllowParseError {}

impl Allowlist {
    #[must_use]
    pub fn empty() -> Allowlist {
        Allowlist {
            entries: Vec::new(),
        }
    }

    /// Load and validate `path`.
    pub fn load(path: &Path) -> Result<Allowlist, AllowParseError> {
        let text = fs::read_to_string(path).map_err(|e| AllowParseError {
            line: 0,
            message: format!("cannot read allowlist: {e}"),
        })?;
        Allowlist::parse(&text)
    }

    /// Parse the TOML-subset text.
    pub fn parse(text: &str) -> Result<Allowlist, AllowParseError> {
        struct Partial {
            line: usize,
            lint: Option<String>,
            path: Option<String>,
            contains: Option<String>,
            reason: Option<String>,
        }
        let mut entries = Vec::new();
        let mut current: Option<Partial> = None;

        let finish = |p: Partial| -> Result<AllowEntry, AllowParseError> {
            let lint = p.lint.ok_or(AllowParseError {
                line: p.line,
                message: "entry is missing required key `lint`".into(),
            })?;
            let reason = p.reason.ok_or(AllowParseError {
                line: p.line,
                message:
                    "entry is missing required key `reason` — every suppression must be justified"
                        .into(),
            })?;
            if reason.trim().is_empty() {
                return Err(AllowParseError {
                    line: p.line,
                    message: "`reason` must be non-empty — every suppression must be justified"
                        .into(),
                });
            }
            Ok(AllowEntry {
                lint,
                path: p.path,
                contains: p.contains,
                reason,
                hits: Cell::new(0),
            })
        };

        for (idx, raw_line) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw_line).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if line == "[[allow]]" {
                if let Some(done) = current.take() {
                    entries.push(finish(done)?);
                }
                current = Some(Partial {
                    line: lineno,
                    lint: None,
                    path: None,
                    contains: None,
                    reason: None,
                });
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(AllowParseError {
                    line: lineno,
                    message: format!("expected `key = \"value\"` or `[[allow]]`, got: {line}"),
                });
            };
            let key = key.trim();
            let value = parse_basic_string(value.trim()).ok_or_else(|| AllowParseError {
                line: lineno,
                message: format!("value for `{key}` must be a basic double-quoted string"),
            })?;
            let Some(entry) = current.as_mut() else {
                return Err(AllowParseError {
                    line: lineno,
                    message: "key outside any [[allow]] entry".into(),
                });
            };
            let slot = match key {
                "lint" => &mut entry.lint,
                "path" => &mut entry.path,
                "contains" => &mut entry.contains,
                "reason" => &mut entry.reason,
                other => {
                    return Err(AllowParseError {
                        line: lineno,
                        message: format!(
                            "unknown key `{other}` (expected lint/path/contains/reason)"
                        ),
                    })
                }
            };
            if slot.is_some() {
                return Err(AllowParseError {
                    line: lineno,
                    message: format!("duplicate key `{key}`"),
                });
            }
            *slot = Some(value);
        }
        if let Some(done) = current.take() {
            entries.push(finish(done)?);
        }
        Ok(Allowlist { entries })
    }

    /// Whether any entry suppresses `finding` (and record the hit).
    #[must_use]
    pub fn matches(&self, finding: &Finding) -> bool {
        let mut hit = false;
        for entry in &self.entries {
            if entry.matches(finding) {
                entry.hits.set(entry.hits.get() + 1);
                hit = true;
            }
        }
        hit
    }

    /// Descriptions of the entries for the lints in `ran` that matched
    /// nothing this run. An entry whose lint did not run cannot have
    /// matched, so it is not reported.
    #[must_use]
    pub fn unused(&self, ran: &[&str]) -> Vec<String> {
        self.entries
            .iter()
            .filter(|e| e.hits.get() == 0 && ran.contains(&e.lint.as_str()))
            .map(AllowEntry::describe)
            .collect()
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Strip a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

/// Parse a TOML basic string: `"…"` with `\"` `\\` `\n` `\t` escapes.
/// Returns `None` on anything else (including trailing garbage).
fn parse_basic_string(value: &str) -> Option<String> {
    let inner = value.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                // Must be the end of the value.
                return chars.as_str().trim().is_empty().then_some(out);
            }
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                't' => out.push('\t'),
                _ => return None,
            },
            other => out.push(other),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::Severity;

    fn finding(lint: &'static str, path: &str, excerpt: &str) -> Finding {
        Finding {
            lint,
            severity: Severity::Error,
            path: path.into(),
            line: 1,
            col: 1,
            message: "m".into(),
            excerpt: excerpt.into(),
        }
    }

    #[test]
    fn parses_and_matches_by_lint_path_and_contains() {
        let list = Allowlist::parse(
            "# header\n[[allow]]\nlint = \"panic-path\"\npath = \"crates/core/\"\ncontains = \".lock().expect(\"  # trailing\nreason = \"poison = crash\"\n",
        )
        .unwrap();
        assert_eq!(list.len(), 1);
        assert!(list.matches(&finding(
            "panic-path",
            "crates/core/src/service.rs",
            "self.x.lock().expect(\"compiler lock\")"
        )));
        assert!(!list.matches(&finding(
            "panic-path",
            "crates/serve/src/server.rs",
            "self.x.lock().expect(\"lock\")"
        )));
        assert!(!list.matches(&finding(
            "timing-discipline",
            "crates/core/src/service.rs",
            "self.x.lock().expect(\"lock\")"
        )));
        assert!(list.unused(&["panic-path"]).is_empty());
    }

    #[test]
    fn entry_without_reason_is_rejected() {
        let err = Allowlist::parse("[[allow]]\nlint = \"panic-path\"\n").unwrap_err();
        assert!(err.message.contains("reason"), "{err}");
        let err =
            Allowlist::parse("[[allow]]\nlint = \"panic-path\"\nreason = \"  \"\n").unwrap_err();
        assert!(err.message.contains("non-empty"), "{err}");
    }

    #[test]
    fn unknown_keys_and_bare_values_are_rejected() {
        assert!(Allowlist::parse("[[allow]]\nlinty = \"x\"\nreason = \"r\"\n").is_err());
        assert!(Allowlist::parse("[[allow]]\nlint = bare\nreason = \"r\"\n").is_err());
        assert!(Allowlist::parse("lint = \"orphan\"\n").is_err());
    }

    #[test]
    fn stale_entries_are_reported() {
        let list = Allowlist::parse("[[allow]]\nlint = \"panic-path\"\nreason = \"r\"\n").unwrap();
        assert_eq!(list.unused(&["panic-path"]).len(), 1);
        assert!(list.unused(&["timing-discipline"]).is_empty());
        assert!(list.matches(&finding("panic-path", "x.rs", "")));
        assert!(list.unused(&["panic-path"]).is_empty());
    }
}
