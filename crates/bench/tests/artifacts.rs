//! The committed artifacts under the strict reader, and the `nashdb-bench`
//! subcommands that read them: `validate` and `compare` take the kind from
//! the file, and misuse is a usage error (exit 2) while a wrong kind is a
//! failure (exit 1).

// Test code, where a failed expect IS the test failure; clippy's
// allow-expect-in-tests only recognizes `#[test]` fns, not their helpers.
#![allow(clippy::expect_used)]

use std::process::Command;

use nashdb_bench::compare::{compare_artifacts, ScenarioCompareError};
use nashdb_obs::{parse_json, Artifact};

/// A file at the root of the repository.
fn root(file: &str) -> String {
    format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"))
}

fn read(file: &str) -> String {
    std::fs::read_to_string(root(file)).expect("committed file")
}

/// `nashdb-bench ARGS…` from the repository root; its exit status.
fn bench(args: &[&str]) -> Option<i32> {
    let status = Command::new(env!("CARGO_BIN_EXE_nashdb-bench"))
        .args(args)
        .current_dir(root(""))
        .output()
        .expect("nashdb-bench runs")
        .status;
    status.code()
}

#[test]
fn committed_baselines_load_by_kind_and_reserialize_byte_identically() {
    for (file, scenarios) in [
        ("SMOKE_BASELINE.json", false),
        ("SCENARIO_BASELINE.json", true),
    ] {
        let raw = read(file);
        let artifact = Artifact::from_json_str(&raw).expect("baseline passes the strict reader");
        assert_eq!(
            matches!(artifact, Artifact::Scenarios(_)),
            scenarios,
            "{file}"
        );
        assert_eq!(artifact.to_json_string(), raw, "{file}");
    }
}

#[test]
fn committed_json_files_follow_the_number_grammar() {
    for file in ["BENCHMARK.json", "lint-baseline.json"] {
        parse_json(&read(file)).expect(file);
    }
    for line in read("benchmark/HISTORY.jsonl").lines() {
        parse_json(line).expect("HISTORY.jsonl line");
    }
}

#[test]
fn a_smoke_snapshot_is_not_a_scenario_artifact() {
    let smoke = Artifact::from_json_str(&read("SMOKE_BASELINE.json")).expect("smoke baseline");
    let scen = Artifact::from_json_str(&read("SCENARIO_BASELINE.json")).expect("scenarios");
    assert_eq!(
        compare_artifacts(&smoke, &scen),
        Err(ScenarioCompareError::NotScenarios { which: "current" })
    );
    assert_eq!(
        compare_artifacts(&scen, &smoke),
        Err(ScenarioCompareError::NotScenarios { which: "baseline" })
    );
    assert!(compare_artifacts(&scen, &scen).expect("same kind").passed());
}

#[test]
fn subcommands_read_the_kind_from_the_file() {
    assert_eq!(bench(&["validate", "SMOKE_BASELINE.json"]), Some(0));
    assert_eq!(bench(&["validate", "SCENARIO_BASELINE.json"]), Some(0));
    assert_eq!(
        bench(&[
            "compare",
            "SCENARIO_BASELINE.json",
            "SCENARIO_BASELINE.json"
        ]),
        Some(0)
    );
    // A wrong kind is a failed check; a retired flag is a usage error.
    assert_eq!(
        bench(&["compare", "SMOKE_BASELINE.json", "SCENARIO_BASELINE.json"]),
        Some(1)
    );
    assert_eq!(
        bench(&["validate", "--scenarios", "SCENARIO_BASELINE.json"]),
        Some(2)
    );
    assert_eq!(bench(&["scenarios", "--keep-timings"]), Some(2));
}
