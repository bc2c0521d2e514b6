//! `nashdb-lint` — the CI entry point.
//!
//! ```text
//! nashdb-lint --workspace [--root DIR] [--baseline lint-baseline.json]
//! nashdb-lint --workspace --write-baseline lint-baseline.json
//! ```
//!
//! Exit codes: 0 clean (modulo baseline), 1 findings or a stale baseline,
//! 2 usage/IO error.

use std::path::PathBuf;
use std::process::exit;

use nashdb_lint::{lint_workspace, Baseline, RULE_IDS};

const HELP: &str = "\
nashdb-lint — workspace determinism & safety linter

Per-file token rules: `unchecked-arith-expr` (data-dependent integer
accumulation in loops) and `panic-in-lib`.
Wall-clock reads, raw threads, hash containers and dropped `Result`s are
clippy's half of the gate (`disallowed-methods` and `disallowed-types` in
the root clippy.toml, `let_underscore_must_use`): run `cargo clippy` beside
this.

USAGE:
  nashdb-lint --workspace [OPTIONS]

OPTIONS:
  --root DIR             workspace root (default: current directory)
  --baseline FILE        ratchet file of accepted legacy findings; the run
                         fails on findings beyond the recorded counts, and
                         on a stale entry: one that allows more findings
                         than remain, or names a file that no longer exists
  --write-baseline FILE  write the current findings as the new baseline
                         and exit 0
  --list-rules           print the rule ids and exit
  -h, --help             this text

Escape contract (preferred over baselining new code):
  // nashdb-lint: allow(rule-id) -- justification        one site
  // nashdb-lint: allow-file(rule-id) -- justification   whole file
";

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n\nrun with --help for usage");
    exit(2)
}

fn take_value(args: &mut Vec<String>, name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    if i + 1 >= args.len() {
        die(&format!("{name} requires a value"));
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == name) {
        args.remove(i);
        true
    } else {
        false
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if take_flag(&mut args, "--help") || take_flag(&mut args, "-h") {
        print!("{HELP}");
        return;
    }
    if take_flag(&mut args, "--list-rules") {
        for rule in RULE_IDS {
            println!("{rule}");
        }
        return;
    }
    let workspace = take_flag(&mut args, "--workspace");
    let root = take_value(&mut args, "--root").map_or_else(|| PathBuf::from("."), PathBuf::from);
    let baseline_path = take_value(&mut args, "--baseline");
    let write_baseline = take_value(&mut args, "--write-baseline");
    if !args.is_empty() {
        die(&format!("unrecognized arguments: {args:?}"));
    }
    if !workspace {
        die("nothing to do: pass --workspace");
    }
    if !root.join("Cargo.toml").is_file() {
        die(&format!(
            "{} does not look like a workspace root (no Cargo.toml)",
            root.display()
        ));
    }

    let findings = match lint_workspace(&root) {
        Ok(f) => f,
        Err(e) => die(&format!("walking {}: {e}", root.display())),
    };

    if let Some(path) = write_baseline {
        let baseline = Baseline::from_findings(&findings);
        if let Err(e) = std::fs::write(&path, baseline.to_json_string()) {
            die(&format!("writing {path}: {e}"));
        }
        eprintln!(
            "baseline written to {path}: {} findings across {} (rule, file) groups",
            findings.len(),
            baseline.len()
        );
        return;
    }

    let baseline = match &baseline_path {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(raw) => match Baseline::from_json_str(&raw) {
                Ok(b) => b,
                Err(e) => die(&format!("{path}: {e}")),
            },
            Err(e) => die(&format!("reading {path}: {e}")),
        },
        None => Baseline::default(),
    };

    let outcome = baseline.check(&findings);
    for (rule, file, allowed, actual) in &outcome.stale {
        if !root.join(file).is_file() {
            eprintln!(
                "error: stale baseline entry: {file} [{rule}] allows {allowed} finding(s) \
                 but the file no longer exists — regenerate with --write-baseline"
            );
        } else {
            eprintln!(
                "error: stale baseline entry: {file} [{rule}] allows {allowed} but only \
                 {actual} remain — regenerate with --write-baseline to ratchet down"
            );
        }
    }
    if !outcome.stale.is_empty() && outcome.over.is_empty() {
        eprintln!(
            "\nlint FAILED: {} stale baseline entr(y/ies); the ratchet must be regenerated \
             so fixed debt cannot silently return.",
            outcome.stale.len()
        );
        exit(1)
    }
    if outcome.over.is_empty() {
        eprintln!(
            "lint ok: {} findings, all within baseline ({} groups)",
            findings.len(),
            baseline.len()
        );
        return;
    }
    for f in &outcome.over {
        println!("{f}");
    }
    eprintln!(
        "\nlint FAILED: {} finding(s) beyond the baseline. Fix them, add a justified \
         `// nashdb-lint: allow(rule) -- why` escape, or (for pre-existing debt only) \
         regenerate the baseline.",
        outcome.over.len()
    );
    exit(1)
}
