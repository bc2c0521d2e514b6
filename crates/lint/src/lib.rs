//! # nashdb-lint
//!
//! A workspace-aware determinism & safety linter for the NashDB
//! reproduction: a lightweight Rust token scanner ([`lexer`]) and per-file
//! pattern rules over it ([`rules`]) — unchecked integer accumulation in
//! loops, panics in library code. Metric and span names need no rule:
//! `nashdb-obs` takes them as closed enums, and hash order needs none
//! because clippy bans the hash containers. It is one half of the gate;
//! what needs type resolution (wall-clock reads, raw threads, hash
//! containers, dropped `Result`s) is held by the clippy entries in the root
//! `clippy.toml` and `[workspace.lints.clippy]`. It has no external
//! dependencies; JSON via `nashdb-obs`.
//!
//! Run it as CI does:
//!
//! ```text
//! cargo run -p nashdb-lint -- --workspace --baseline lint-baseline.json
//! ```
//!
//! Pre-existing accepted sites live in the committed ratchet baseline
//! ([`Baseline`]); intentional sites carry an inline escape with a
//! mandatory justification:
//!
//! ```text
//! // nashdb-lint: allow(unchecked-arith-expr) -- exactly four hex digits: at most 0xFFFF
//! ```

pub mod baseline;
pub mod lexer;
pub mod rules;
pub mod source;

pub use baseline::{Baseline, BaselineError, BaselineOutcome};
pub use rules::{check_file, Finding, RULE_IDS};
pub use source::SourceFile;

use std::path::{Path, PathBuf};

/// Lints one in-memory source file. The path decides rule applicability
/// (crate, binary target, `num` module) and is echoed in findings; use
/// workspace-relative paths like `crates/core/src/routing.rs`.
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    check_file(&SourceFile::new(path, src))
}

/// Walks `root/crates/*/src/**/*.rs` and lints every file. Findings are
/// sorted by path then line. Shims, vendored dependencies, and the
/// integration-test workspace member are out of scope by construction:
/// only `crates/` is walked.
///
/// # Errors
/// Propagates I/O errors from walking or reading the tree.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let crates_dir = root.join("crates");
    let mut files: Vec<PathBuf> = Vec::new();
    for entry in std::fs::read_dir(&crates_dir)? {
        let src_dir = entry?.path().join("src");
        if src_dir.is_dir() {
            collect_rs_files(&src_dir, &mut files)?;
        }
    }
    files.sort();
    let mut findings = Vec::new();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        findings.extend(lint_source(&rel, &std::fs::read_to_string(file)?));
    }
    Ok(findings)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_runs_end_to_end() {
        let src = "\
pub fn f(x: u32) -> u32 {
    assert!(x > 0);
    x
}
";
        let findings = lint_source("crates/core/src/demo.rs", src);
        assert_eq!(findings.len(), 1, "got: {findings:?}");
        assert_eq!(findings[0].rule, "panic-in-lib");
        assert_eq!(findings[0].line, 2);
    }
}
