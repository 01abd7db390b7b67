//! Per-lint fixture tests: each lint runs over a miniature on-disk
//! workspace holding one known-bad and one known-good (or allowlisted)
//! case, and must produce exactly the expected findings with correct
//! `file:line` positions. The `one_injected_violation_per_lint` test at
//! the bottom is the acceptance check from the issue: a workspace with
//! one violation of *each* lint fails with all seven diagnostics.

use kizzle_analyze::{run, Severity};
use std::path::{Path, PathBuf};

/// A throwaway on-disk workspace built from `(rel_path, content)` pairs;
/// removed again on drop.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn run(&self, lints: &[&str]) -> kizzle_analyze::Report {
        let filter: Vec<String> = lints.iter().map(|s| s.to_string()).collect();
        run(&self.root, &self.root.join("analysis/allow.toml"), &filter).expect("fixture run")
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn write_tree(root: &Path, files: &[(&str, &str)]) {
    std::fs::write(
        root.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/*\"]\n",
    )
    .expect("workspace manifest");
    for (rel, content) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(path, content).expect("write fixture file");
    }
}

fn fixture(name: &str, files: &[(&str, &str)]) -> Fixture {
    let root = std::env::temp_dir().join(format!(
        "kizzle-analyze-fixture-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("fixture root");
    write_tree(&root, files);
    Fixture { root }
}

const FORBID: &str = "#![forbid(unsafe_code)]\n";

#[test]
fn panic_path_flags_library_code_but_not_tests() {
    let fx = fixture(
        "panic",
        &[(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        Some(1).unwrap();\n    }\n}\n",
        )],
    );
    let report = fx.run(&["panic-path"]);
    assert_eq!(report.findings.len(), 1, "{}", report.render());
    let f = &report.findings[0];
    assert_eq!(f.severity, Severity::Error);
    assert_eq!(f.path, "crates/demo/src/lib.rs");
    assert_eq!(f.line, 3);
    assert!(f.excerpt.contains("x.unwrap()"));
}

#[test]
fn panic_path_respects_allowlist_and_reports_stale_entries() {
    let fx = fixture(
        "panic-allow",
        &[
            (
                "crates/demo/src/lib.rs",
                "#![forbid(unsafe_code)]\npub fn f() {\n    let _ = std::sync::Mutex::new(1).lock().expect(\"demo lock\");\n}\n",
            ),
            (
                "analysis/allow.toml",
                "[[allow]]\nlint = \"panic-path\"\ncontains = \".lock().expect(\"\nreason = \"poisoning means crash\"\n\n[[allow]]\nlint = \"panic-path\"\npath = \"crates/nonexistent/\"\nreason = \"stale entry\"\n\n[[allow]]\nlint = \"timing-discipline\"\npath = \"crates/nonexistent/\"\nreason = \"stale entry of another lint\"\n",
            ),
        ],
    );
    let report = fx.run(&["panic-path"]);
    assert!(report.findings.is_empty(), "{}", report.render());
    assert_eq!(report.suppressed, 1);
    // Only the entry of the lint that ran is stale: the filter skipped
    // timing-discipline, so its entry could not have matched.
    assert_eq!(report.unused_allows.len(), 1);
    assert!(report.unused_allows[0].contains("crates/nonexistent/"));
    // A stale entry is a note by default and fails the CI mode.
    assert!(!report.failed(false));
    assert!(report.failed(true), "{}", report.render());

    let report = fx.run(&["panic-path", "timing-discipline"]);
    assert_eq!(report.unused_allows.len(), 2, "{}", report.render());
    assert!(report.unused_allows[1].contains("timing-discipline"));
}

#[test]
fn allowlist_without_reason_fails_the_run() {
    let fx = fixture(
        "no-reason",
        &[
            ("crates/demo/src/lib.rs", FORBID),
            ("analysis/allow.toml", "[[allow]]\nlint = \"panic-path\"\n"),
        ],
    );
    let filter: Vec<String> = vec!["panic-path".into()];
    let err = run(&fx.root, &fx.root.join("analysis/allow.toml"), &filter).unwrap_err();
    assert!(err.to_string().contains("reason"), "{err}");
}

#[test]
fn telemetry_drift_is_bidirectional() {
    let fx = fixture(
        "telemetry",
        &[
            (
                "crates/telemetry/schema/telemetry.schema",
                "metric declared_used\nmetric declared_never_emitted\nmetric? optional_absent\n",
            ),
            (
                "crates/demo/src/lib.rs",
                "#![forbid(unsafe_code)]\npub fn f() {\n    telemetry::counter(\"declared_used\").inc();\n    telemetry::counter(\"undeclared_name\").inc();\n}\n",
            ),
        ],
    );
    let report = fx.run(&["telemetry-drift"]);
    let msgs: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
    assert_eq!(report.findings.len(), 2, "{}", report.render());
    // Direction 1: code name missing from the schema, flagged at the call.
    let undeclared = report
        .findings
        .iter()
        .find(|f| f.message.contains("undeclared_name"))
        .unwrap_or_else(|| panic!("no undeclared finding in {msgs:?}"));
    assert_eq!(undeclared.path, "crates/demo/src/lib.rs");
    assert_eq!(undeclared.line, 4);
    // Direction 2: required schema name never emitted, flagged at the schema.
    let unemitted = report
        .findings
        .iter()
        .find(|f| f.message.contains("declared_never_emitted"))
        .unwrap_or_else(|| panic!("no unemitted finding in {msgs:?}"));
    assert_eq!(unemitted.path, "crates/telemetry/schema/telemetry.schema");
    assert_eq!(unemitted.line, 2);
    // `metric?` names may be absent without a finding.
    assert!(!report.render().contains("optional_absent"));
}

#[test]
fn section_registry_flags_duplicated_name_literals() {
    let fx = fixture(
        "sections",
        &[
            (
                "crates/snapshot/src/sections.rs",
                "pub const META_SECTION: &str = \"meta\";\npub const STORE_SECTION: &str = \"corpus-store\";\n",
            ),
            (
                "crates/demo/src/lib.rs",
                "#![forbid(unsafe_code)]\npub fn f() -> &'static str {\n    \"corpus-store\"\n}\npub fn ok() -> &'static str {\n    \"unrelated literal\"\n}\n",
            ),
        ],
    );
    let report = fx.run(&["section-registry"]);
    assert_eq!(report.findings.len(), 1, "{}", report.render());
    let f = &report.findings[0];
    assert_eq!(f.path, "crates/demo/src/lib.rs");
    assert_eq!(f.line, 3);
    assert!(f.message.contains("corpus-store"));
    assert!(f.message.contains("STORE_SECTION"));
}

#[test]
fn threshold_drift_is_bidirectional_and_template_aware() {
    let fx = fixture(
        "thresholds",
        &[
            (
                "crates/bench/thresholds.json",
                "{\n  \"demo/gated\": 100,\n  \"demo/orphan_arm\": 200,\n  \"demo/templated_7x9\": 300\n}\n",
            ),
            (
                "crates/bench/benches/demo.rs",
                "fn main() {\n    let mut group = c.benchmark_group(\"demo\");\n    group.bench_function(\"gated\", |b| b.iter(|| 1));\n    group.bench_function(\"ungated_arm\", |b| b.iter(|| 1));\n    group.bench_function(format!(\"templated_{a}x{b}\"), |b| b.iter(|| 1));\n}\n",
            ),
        ],
    );
    let report = fx.run(&["threshold-drift"]);
    // Direction 1: `demo/orphan_arm` has no emitter — Error at the JSON line.
    let orphan = report
        .findings
        .iter()
        .find(|f| f.message.contains("orphan_arm"))
        .unwrap_or_else(|| panic!("no orphan finding: {}", report.render()));
    assert_eq!(orphan.severity, Severity::Error);
    assert_eq!(orphan.path, "crates/bench/thresholds.json");
    assert_eq!(orphan.line, 3);
    // The format!-templated arm is covered, not an orphan.
    assert!(
        !report.render().contains("templated_7x9"),
        "{}",
        report.render()
    );
    // Direction 2: `demo/ungated_arm` has no gate — Warn at the emitter.
    let ungated = report
        .findings
        .iter()
        .find(|f| f.message.contains("demo/ungated_arm"))
        .unwrap_or_else(|| panic!("no ungated finding: {}", report.render()));
    assert_eq!(ungated.severity, Severity::Warn);
    assert_eq!(ungated.path, "crates/bench/benches/demo.rs");
    assert_eq!(ungated.line, 4);
    assert_eq!(report.findings.len(), 2, "{}", report.render());
}

#[test]
fn timing_discipline_flags_raw_instants_outside_telemetry() {
    let fx = fixture(
        "timing",
        &[
            (
                "crates/demo/src/lib.rs",
                "#![forbid(unsafe_code)]\nuse std::time::Instant;\npub fn f() -> Instant {\n    Instant::now()\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let _ = std::time::Instant::now();\n    }\n}\n",
            ),
            (
                "crates/telemetry/src/lib.rs",
                "#![forbid(unsafe_code)]\npub fn now() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
            ),
        ],
    );
    let report = fx.run(&["timing-discipline"]);
    assert_eq!(report.findings.len(), 1, "{}", report.render());
    let f = &report.findings[0];
    assert_eq!(f.path, "crates/demo/src/lib.rs");
    assert_eq!(f.line, 4);
}

#[test]
fn unsafe_audit_requires_the_forbid_attribute() {
    let fx = fixture(
        "unsafe",
        &[
            (
                "crates/good/src/lib.rs",
                "#![forbid(unsafe_code)]\npub fn f() {}\n",
            ),
            ("crates/bad/src/lib.rs", "pub fn f() {}\n"),
        ],
    );
    let report = fx.run(&["forbid-unsafe-audit"]);
    assert_eq!(report.findings.len(), 1, "{}", report.render());
    let f = &report.findings[0];
    assert_eq!(f.path, "crates/bad/src/lib.rs");
    assert!(f.message.contains("forbid(unsafe_code)"));
}

#[test]
fn test_only_pub_flags_public_fns_only_tests_call() {
    let fx = fixture(
        "test-only-pub",
        &[
            (
                "crates/demo/src/lib.rs",
                "#![forbid(unsafe_code)]\npub fn used() {}\npub fn oracle() {}\npub(crate) fn internal() {}\npub fn shown() {}\nfn private() {\n    used();\n}\n#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n    #[test]\n    fn t() {\n        super::oracle();\n    }\n}\n",
            ),
            ("crates/demo/tests/it.rs", "fn main() {\n    demo::oracle();\n}\n"),
            ("crates/demo/examples/ex.rs", "fn main() {\n    demo::shown();\n}\n"),
        ],
    );
    let report = fx.run(&["test-only-pub"]);
    assert_eq!(report.findings.len(), 1, "{}", report.render());
    let f = &report.findings[0];
    assert_eq!(f.severity, Severity::Error);
    assert_eq!((f.path.as_str(), f.line), ("crates/demo/src/lib.rs", 3));
    assert!(f.message.contains("`pub fn oracle`"), "{}", f.message);
}

#[test]
fn test_only_pub_passes_when_allowlisted() {
    let fx = fixture(
        "test-only-pub-allow",
        &[
            (
                "crates/demo/src/lib.rs",
                "#![forbid(unsafe_code)]\npub fn pending() {}\n",
            ),
            ("crates/demo/tests/it.rs", "fn main() {\n    demo::pending();\n}\n"),
            (
                "analysis/allow.toml",
                "[[allow]]\nlint = \"test-only-pub\"\ncontains = \"fn pending\"\nreason = \"wiring pending\"\n",
            ),
        ],
    );
    let report = fx.run(&["test-only-pub"]);
    assert!(report.findings.is_empty(), "{}", report.render());
    assert_eq!(report.suppressed, 1);
    assert!(report.unused_allows.is_empty());
}

/// The issue's acceptance check: inject one violation of each lint into
/// one workspace and every lint fires with a correct location.
#[test]
fn one_injected_violation_per_lint() {
    let fx = fixture(
        "inject-all",
        &[
            (
                "crates/telemetry/schema/telemetry.schema",
                "metric declared_metric\n",
            ),
            (
                "crates/snapshot/src/sections.rs",
                "pub const META_SECTION: &str = \"meta\";\n",
            ),
            ("crates/bench/thresholds.json", "{\n  \"ghost/arm\": 1\n}\n"),
            (
                "crates/demo/src/lib.rs",
                // no forbid(unsafe_code): trips forbid-unsafe-audit
                "use std::time::Instant;\npub fn f(x: Option<u32>) -> u32 {\n    telemetry::counter(\"declared_metric\").inc();\n    telemetry::counter(\"rogue_metric\").inc();\n    let _section = \"meta\";\n    let _t = Instant::now();\n    x.unwrap()\n}\n",
            ),
        ],
    );
    let report = fx.run(&[]);
    let fired: std::collections::BTreeSet<&str> = report.findings.iter().map(|f| f.lint).collect();
    for lint in [
        "panic-path",
        "telemetry-drift",
        "section-registry",
        "threshold-drift",
        "timing-discipline",
        "forbid-unsafe-audit",
        "test-only-pub",
    ] {
        assert!(
            fired.contains(lint),
            "{lint} did not fire:\n{}",
            report.render()
        );
    }
    assert!(
        report.failed(false),
        "errors must fail even without deny-all"
    );
    let by = |lint: &str| {
        report
            .findings
            .iter()
            .find(|f| f.lint == lint)
            .map(|f| (f.path.as_str(), f.line))
            .expect(lint)
    };
    assert_eq!(by("panic-path"), ("crates/demo/src/lib.rs", 7));
    assert_eq!(by("section-registry"), ("crates/demo/src/lib.rs", 5));
    assert_eq!(by("timing-discipline"), ("crates/demo/src/lib.rs", 6));
    assert_eq!(by("threshold-drift"), ("crates/bench/thresholds.json", 2));
    assert_eq!(by("test-only-pub"), ("crates/demo/src/lib.rs", 2));
}
