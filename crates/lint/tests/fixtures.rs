//! Fixture-driven tests for the rule engine.
//!
//! Positive fixtures mark each offending line with a trailing `//~ rule-id`
//! comment (rustc UI-test style); the harness asserts the engine reports
//! exactly that set of `(line, rule)` pairs. Negative fixtures carry no
//! markers and must produce no findings. On top of the corpus there are
//! applicability tests (crate scoping, binary targets, the `num` module
//! exemption), the escape-justification meta-rule, a self-check that lints
//! the real workspace against the committed baseline, and a check that the
//! clippy half of the gate is still configured.

// Test-only helper functions; `allow-expect-in-tests` covers `#[test]`
// bodies but not the helpers they call.
#![allow(clippy::expect_used)]

use std::path::{Path, PathBuf};

use nashdb_lint::{lint_source, lint_workspace, Baseline, Finding};

/// `(line, rule)` pairs a fixture's `//~` markers promise.
fn expected(src: &str) -> Vec<(usize, String)> {
    let mut out: Vec<(usize, String)> = src
        .lines()
        .enumerate()
        .filter_map(|(i, l)| {
            l.split("//~")
                .nth(1)
                .map(|rule| (i + 1, rule.trim().to_owned()))
        })
        .collect();
    out.sort();
    out
}

fn reported(findings: &[Finding]) -> Vec<(usize, String)> {
    let mut out: Vec<(usize, String)> = findings
        .iter()
        .map(|f| (f.line, f.rule.to_owned()))
        .collect();
    out.sort();
    out
}

/// Lints a fixture under a deterministic, non-exempt crate path and checks
/// the reported `(line, rule)` set against the fixture's own markers.
fn check_fixture(name: &str, src: &str) {
    let path = format!("crates/core/src/{name}.rs");
    let want = expected(src);
    let got = reported(&lint_source(&path, src));
    assert_eq!(got, want, "fixture {name}: findings do not match markers");
}

macro_rules! fixture_test {
    ($name:ident) => {
        #[test]
        fn $name() {
            check_fixture(
                stringify!($name),
                include_str!(concat!("fixtures/", stringify!($name), ".rs")),
            );
        }
    };
}

fixture_test!(unchecked_arith_positive);
fixture_test!(unchecked_arith_negative);
fixture_test!(panic_positive);
fixture_test!(panic_negative);
fixture_test!(panic_allow_file);

#[test]
fn binaries_may_panic() {
    let src = include_str!("fixtures/panic_positive.rs");
    assert!(lint_source("crates/core/src/main.rs", src).is_empty());
    assert!(lint_source("crates/bench/src/bin/nashdb_bench.rs", src).is_empty());
}

#[test]
fn num_module_owns_its_arithmetic() {
    let src = include_str!("fixtures/unchecked_arith_positive.rs");
    assert!(lint_source("crates/core/src/num.rs", src).is_empty());
    assert!(lint_source("crates/core/src/num/wide.rs", src).is_empty());
}

#[test]
fn unjustified_escape_is_a_finding_and_does_not_silence() {
    let src = "\
pub fn contract(x: u64) -> u64 {
    // nashdb-lint: allow(panic-in-lib)
    assert!(x < 10);
    x
}
";
    let got = reported(&lint_source("crates/core/src/demo.rs", src));
    assert_eq!(
        got,
        vec![
            (2, "escape-needs-justification".to_owned()),
            (3, "panic-in-lib".to_owned()),
        ]
    );
}

/// The workspace root, from this crate's manifest dir.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint has a workspace root two levels up")
        .to_path_buf()
}

fn committed_baseline() -> Baseline {
    let raw = std::fs::read_to_string(workspace_root().join("lint-baseline.json"))
        .expect("lint-baseline.json is committed at the workspace root");
    Baseline::from_json_str(&raw).expect("committed baseline parses")
}

/// Self-check: the real workspace lints clean modulo the committed
/// baseline, and the baseline carries no stale (over-generous) groups.
#[test]
fn workspace_is_clean_modulo_baseline() {
    let root = workspace_root();
    let findings = lint_workspace(&root).expect("workspace walk succeeds");
    let outcome = committed_baseline().check(&findings);
    assert!(
        outcome.over.is_empty(),
        "findings beyond the baseline:\n{}",
        outcome
            .over
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        outcome.stale.is_empty(),
        "stale baseline groups (regenerate with --write-baseline): {:?}",
        outcome.stale
    );
}

/// The clippy half of the gate (DESIGN.md §11.1) is configuration, which
/// can be dropped without any Rust test noticing: pin every entry.
#[test]
fn clippy_half_of_the_gate_is_configured() {
    let read = |name: &str| {
        std::fs::read_to_string(workspace_root().join(name))
            .unwrap_or_else(|e| panic!("reading {name}: {e}"))
    };
    let clippy = read("clippy.toml");
    let (methods, types) = clippy
        .split_once("disallowed-types")
        .expect("clippy.toml lists disallowed-methods, then disallowed-types");
    assert!(methods.contains("disallowed-methods"));
    let wanted = [
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::thread::spawn",
        "std::thread::scope",
        "std::thread::Builder::spawn",
    ];
    for path in wanted {
        assert!(
            methods.contains(&format!("path = \"{path}\"")),
            "clippy.toml disallowed-methods lost `{path}`"
        );
    }
    let banned = [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::collections::hash_map::RandomState",
    ];
    for path in banned {
        assert!(
            types.contains(&format!("path = \"{path}\"")),
            "clippy.toml disallowed-types lost `{path}`"
        );
    }
    assert!(
        read("Cargo.toml").contains("\nlet_underscore_must_use = \"warn\""),
        "[workspace.lints.clippy] lost `let_underscore_must_use`"
    );
}
