//! `nashdb-bench` — CI bench utilities: a deterministic observability smoke
//! run and a snapshot validator.
//!
//! ```text
//! nashdb-bench smoke --seed 42 --obs-out BENCH_PR.json
//! nashdb-bench smoke --stable        # scrub wall-clock for byte-stable output
//! nashdb-bench scenarios --seed 42 --obs-out SCENARIO_PR.json
//! nashdb-bench validate BENCH_PR.json
//! nashdb-bench validate --scenarios SCENARIO_PR.json
//! nashdb-bench compare --scenarios SCENARIO_PR.json SCENARIO_BASELINE.json
//! ```
//!
//! Exit codes: 0 success, 1 validation/coverage/regression failure, 2 usage
//! error.

use std::process::exit;

use nashdb_bench::compare::compare_scenarios;
use nashdb_bench::scenarios::{run_scenarios, ScenarioConfig};
use nashdb_bench::smoke::{run_smoke, SmokeConfig};
use nashdb_bench::{die, Args};
use nashdb_obs::{ObsSnapshot, ScenarioArtifact};

const HELP: &str = "\
nashdb-bench — observability smoke run, scenario matrix and their gates

USAGE:
  nashdb-bench smoke [OPTIONS]     run the fixed-seed smoke workload and
                                   emit its observability snapshot
  nashdb-bench scenarios [OPTIONS] sweep the scenario matrix (workload ×
                                   drift × node mix × replication budget ×
                                   fault schedule), run NashDB and both
                                   baselines per cell, and emit the
                                   Pareto-marked artifact
  nashdb-bench validate FILE       parse a smoke snapshot file and check
                                   its schema (unique, sorted names) and
                                   that every pipeline stage emitted a
                                   metric
  nashdb-bench validate --scenarios FILE
                                   parse and schema-check a scenario
                                   artifact
  nashdb-bench compare --scenarios CURRENT BASELINE
                                   diff two scenario artifacts; fail if
                                   NashDB fell off the Pareto frontier in
                                   any cell where the baseline has it on

SMOKE OPTIONS:
  --seed N          workload RNG seed (default 42)
  --queries N       query count (default 150)
  --size-gb N       database size in GB-equivalents (default 4)
  --obs-out FILE    write the JSON snapshot here (default: stdout)
  --stable          scrub wall-clock timings so same-seed runs are
                    byte-identical (sim-time metrics are kept)

SCENARIOS OPTIONS:
  --seed N          workload RNG seed shared by every cell (default 42)
  --queries N       approximate queries per cell (default 60)
  --size-gb N       database size per cell in GB-equivalents (default 24)
  --quick           sweep only a 5-cell corner of the matrix, one with a
                    crash schedule (debug runs)
  --keep-timings    keep host wall-clock per cell instead of scrubbing it
                    (scrubbing is the default so same-seed artifacts are
                    byte-identical)
  --obs-out FILE    write the JSON artifact here (default: stdout)

  -h, --help        this text
";

fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    exit(1)
}

/// Fails unless every pipeline stage emitted a metric; otherwise returns
/// the snapshot's `N counters, N gauges, …` summary.
fn check_coverage(snap: &ObsSnapshot, context: &str) -> String {
    let missing = snap.missing_stages();
    if !missing.is_empty() {
        fail(&format!(
            "{context}pipeline stages emitted no metrics: {missing:?}"
        ));
    }
    format!(
        "{} counters, {} gauges, {} histograms, {} spans",
        snap.counters.len(),
        snap.gauges.len(),
        snap.histograms.len(),
        snap.spans.len()
    )
}

fn main() {
    let mut args = Args::from_env();
    if args.flag("--help") || args.flag("-h") {
        print!("{HELP}");
        return;
    }
    if args.0.is_empty() {
        die("need a subcommand: smoke | scenarios | validate | compare");
    }
    match args.0.remove(0).as_str() {
        "smoke" => smoke(args),
        "scenarios" => scenarios(args),
        "validate" => validate(args),
        "compare" => compare_cmd(args),
        other => die(&format!("unknown subcommand {other:?}")),
    }
}

fn scenarios(mut args: Args) {
    let cfg = ScenarioConfig {
        seed: args.parse("--seed").unwrap_or(42),
        queries: args.parse("--queries").unwrap_or(60),
        size_gb: args.parse("--size-gb").unwrap_or(24),
        quick: args.flag("--quick"),
        keep_timings: args.flag("--keep-timings"),
    };
    let out = args.value("--obs-out");
    args.finish();

    let artifact = match run_scenarios(&cfg) {
        Ok(artifact) => artifact,
        Err(e) => fail(&format!("scenario sweep failed: {e}")),
    };

    // The serialized artifact must round-trip through its own schema
    // validator and re-serialize byte-identically before it is published.
    let json = artifact.to_json_string();
    match ScenarioArtifact::from_json_str(&json) {
        Ok(parsed) if parsed.to_json_string() == json => {}
        Ok(_) => fail("scenario artifact did not round-trip byte-identically"),
        Err(e) => fail(&format!("scenario artifact failed its own schema: {e}")),
    }

    let on_front = artifact
        .cells
        .iter()
        .filter(|c| c.system("nashdb").is_some_and(|s| s.on_front))
        .count();
    eprintln!(
        "scenarios ok: seed {} — {} cells × {} systems, nashdb on the frontier in {}",
        cfg.seed,
        artifact.cells.len(),
        artifact.cells.first().map_or(0, |c| c.systems.len()),
        on_front
    );
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &json) {
                fail(&format!("writing {path}: {e}"));
            }
            eprintln!("artifact written to {path}");
        }
        None => print!("{json}"),
    }
}

fn smoke(mut args: Args) {
    let cfg = SmokeConfig {
        seed: args.parse("--seed").unwrap_or(42),
        queries: args.parse("--queries").unwrap_or(150),
        size_gb: args.parse("--size-gb").unwrap_or(4),
        stable: args.flag("--stable"),
    };
    let out = args.value("--obs-out");
    args.finish();

    let snap = run_smoke(&cfg);
    let summary = check_coverage(&snap, "");

    // The serialized form must round-trip through the schema validator and
    // re-serialize byte-identically (no float formatting drift).
    let json = snap.to_json_string();
    match ObsSnapshot::from_json_str(&json) {
        Ok(parsed) if parsed.to_json_string() == json => {}
        Ok(_) => fail("snapshot did not round-trip byte-identically"),
        Err(e) => fail(&format!("snapshot failed its own schema: {e}")),
    }

    eprintln!("smoke ok: seed {} — {summary}", cfg.seed);
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &json) {
                fail(&format!("writing {path}: {e}"));
            }
            eprintln!("snapshot written to {path}");
        }
        None => print!("{json}"),
    }
}

fn load_scenarios(path: &str) -> ScenarioArtifact {
    let raw = match std::fs::read_to_string(path) {
        Ok(raw) => raw,
        Err(e) => fail(&format!("reading {path}: {e}")),
    };
    match ScenarioArtifact::from_json_str(&raw) {
        Ok(artifact) => artifact,
        Err(e) => fail(&format!("{path}: {e}")),
    }
}

fn compare_cmd(mut args: Args) {
    if !args.flag("--scenarios") {
        die("compare needs --scenarios: compare --scenarios CURRENT BASELINE");
    }
    if args.0.len() != 2 {
        die("compare --scenarios takes exactly two arguments: CURRENT BASELINE");
    }
    let current_path = args.0.remove(0);
    let baseline_path = args.0.remove(0);
    let current = load_scenarios(&current_path);
    let baseline = load_scenarios(&baseline_path);

    let report = match compare_scenarios(&current, &baseline) {
        Ok(report) => report,
        Err(e) => fail(&format!("{current_path} vs {baseline_path}: {e}")),
    };
    for cell in &report.gained_frontier {
        eprintln!(
            "note: nashdb joined the Pareto frontier in {cell} — consider refreshing {baseline_path}"
        );
    }
    for d in &report.dominance_drops {
        eprintln!(
            "warn: nashdb dominates {} system(s) in {} (baseline: {})",
            d.current, d.cell, d.baseline
        );
    }
    if !report.passed() {
        for cell in &report.lost_frontier {
            eprintln!("REGRESSION: nashdb fell off the Pareto frontier in {cell}");
        }
        fail(&format!(
            "nashdb lost Pareto-frontier membership in {} cell(s) of {}",
            report.lost_frontier.len(),
            baseline_path
        ));
    }
    eprintln!(
        "compare ok: nashdb keeps its frontier position in all {} baseline cells of {}",
        report.cells, baseline_path
    );
}

fn validate(mut args: Args) {
    if args.flag("--scenarios") {
        if args.0.len() != 1 {
            die("validate --scenarios takes exactly one FILE argument");
        }
        let path = args.0.remove(0);
        let artifact = load_scenarios(&path);
        println!(
            "{path}: valid scenario artifact (version {}) — {} cells × {} systems",
            artifact.version,
            artifact.cells.len(),
            artifact.cells.first().map_or(0, |c| c.systems.len())
        );
        return;
    }
    if args.0.len() != 1 {
        die("validate takes exactly one FILE argument");
    }
    let path = args.0.remove(0);
    let raw = match std::fs::read_to_string(&path) {
        Ok(raw) => raw,
        Err(e) => fail(&format!("reading {path}: {e}")),
    };
    let snap = match ObsSnapshot::from_json_str(&raw) {
        Ok(snap) => snap,
        Err(e) => fail(&format!("{path}: {e}")),
    };
    let summary = check_coverage(&snap, &format!("{path}: "));
    println!(
        "{path}: valid snapshot (version {}) — {summary}",
        snap.version
    );
}
