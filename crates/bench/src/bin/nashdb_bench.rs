//! `nashdb-bench` — CI bench utilities: a deterministic observability smoke
//! run, the scenario matrix, and the checks on the artifacts they write.
//!
//! ```text
//! nashdb-bench smoke --seed 42 --obs-out BENCH_PR.json
//! nashdb-bench smoke --seed 42 --stable --obs-out SMOKE_PR.json
//! nashdb-bench scenarios --seed 42 --stable --obs-out SCENARIO_PR.json
//! nashdb-bench validate SCENARIO_PR.json
//! nashdb-bench compare SCENARIO_PR.json SCENARIO_BASELINE.json
//! ```
//!
//! Exit codes: 0 success, 1 validation/coverage/regression failure, 2 usage
//! error.

use std::process::exit;

use nashdb_bench::compare::compare_artifacts;
use nashdb_bench::scenarios::{run_scenarios, ScenarioConfig};
use nashdb_bench::smoke::{run_smoke, SmokeConfig};
use nashdb_bench::{check_generator_flags, die, Args};
use nashdb_obs::Artifact;

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
  nashdb-bench validate FILE       parse a smoke snapshot or scenario
                                   artifact (the file shows which), check
                                   its schema, and for a snapshot that
                                   every pipeline stage emitted a metric
  nashdb-bench compare CURRENT BASELINE
                                   diff two scenario artifacts; fail if
                                   NashDB fell off the Pareto frontier in
                                   any cell where the baseline has it on

OPTIONS (smoke and scenarios):
  --seed N          workload RNG seed (default 42)
  --queries N       query count (smoke: 150; scenarios: ~60 per cell)
  --size-gb N       database size in GB-equivalents (smoke: 4;
                    scenarios: 24 per cell)
  --stable          scrub host wall-clock timings so same-seed runs are
                    byte-identical (sim-time metrics are kept)
  --obs-out FILE    write the JSON artifact here (default: stdout)
  --quick           scenarios only: sweep a 5-cell corner of the matrix,
                    one with a crash schedule (debug runs)

  -h, --help        this text
";

fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    exit(1)
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
        "smoke" => {
            let cfg = SmokeConfig {
                seed: args.parse("--seed").unwrap_or(42),
                queries: args.parse("--queries").unwrap_or(150),
                size_gb: args.parse("--size-gb").unwrap_or(4),
            };
            check_sizing(cfg.size_gb, cfg.queries);
            publish(args, cfg.seed, || Artifact::Snapshot(run_smoke(&cfg)));
        }
        "scenarios" => {
            let cfg = ScenarioConfig {
                seed: args.parse("--seed").unwrap_or(42),
                queries: args.parse("--queries").unwrap_or(60),
                size_gb: args.parse("--size-gb").unwrap_or(24),
                quick: args.flag("--quick"),
            };
            check_sizing(cfg.size_gb, cfg.queries);
            publish(args, cfg.seed, || match run_scenarios(&cfg) {
                Ok(artifact) => Artifact::Scenarios(artifact),
                Err(e) => fail(&format!("scenario sweep failed: {e}")),
            });
        }
        "validate" => {
            let [path] = files(args, "validate FILE");
            let artifact = load(&path);
            println!("{path}: valid {}", check(&artifact, &path));
        }
        "compare" => compare(args),
        other => die(&format!("unknown subcommand {other:?}")),
    }
}

/// Dies with a usage error on a `--size-gb` or `--queries` no generator
/// takes. The runs price their own queries, so any valid price stands in.
fn check_sizing(size_gb: u64, queries: usize) {
    check_generator_flags(size_gb, queries, 1.0).unwrap_or_else(|e| die(&e));
}

/// The `N` file arguments left once every flag is consumed; a usage error
/// (exit 2) for any other count or a leftover flag.
fn files<const N: usize>(args: Args, usage: &str) -> [String; N] {
    if let Some(flag) = args.0.iter().find(|a| a.starts_with('-')) {
        die(&format!("unrecognized argument {flag:?}: {usage}"));
    }
    args.0
        .try_into()
        .unwrap_or_else(|_| die(&format!("expected {usage}")))
}

/// Reads and validates an artifact of either kind; exits 1 on any error.
fn load(path: &str) -> Artifact {
    let raw = match std::fs::read_to_string(path) {
        Ok(raw) => raw,
        Err(e) => fail(&format!("reading {path}: {e}")),
    };
    Artifact::from_json_str(&raw).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
}

/// The checks beyond the schema — a snapshot must have a metric from every
/// pipeline stage — and the artifact's one-line summary.
fn check(artifact: &Artifact, context: &str) -> String {
    match artifact {
        Artifact::Snapshot(snap) => {
            let missing = snap.missing_stages();
            if !missing.is_empty() {
                fail(&format!(
                    "{context}: pipeline stages emitted no metrics: {missing:?}"
                ));
            }
            format!(
                "snapshot (version {}) — {} counters, {} gauges, {} histograms, {} spans",
                snap.version,
                snap.counters.len(),
                snap.gauges.len(),
                snap.histograms.len(),
                snap.spans.len()
            )
        }
        Artifact::Scenarios(art) => {
            let on_front = (art.cells.iter())
                .filter(|c| c.system("nashdb").is_some_and(|s| s.on_front))
                .count();
            format!(
                "scenario artifact (version {}) — {} cells × {} systems, nashdb on the frontier in {on_front}",
                art.version,
                art.cells.len(),
                art.cells.first().map_or(0, |c| c.systems.len()),
            )
        }
    }
}

/// Takes `--stable` and `--obs-out`, runs `make`, scrubs its wall clock
/// under `--stable`, and publishes the artifact only once it passes
/// [`check`] and its own reader and re-serializes byte-identically.
fn publish(mut args: Args, seed: u64, make: impl FnOnce() -> Artifact) {
    let stable = args.flag("--stable");
    let out = args.value("--obs-out");
    args.finish();

    let mut artifact = make();
    if stable {
        artifact.scrub_timings();
    }
    let json = artifact.to_json_string();
    match Artifact::from_json_str(&json) {
        Ok(parsed) if parsed.to_json_string() == json => {}
        Ok(_) => fail("artifact did not round-trip byte-identically"),
        Err(e) => fail(&format!("artifact failed its own schema: {e}")),
    }
    eprintln!("ok: seed {seed} — {}", check(&artifact, "output"));
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

fn compare(args: Args) {
    let [current_path, baseline_path] = files(args, "compare CURRENT BASELINE");
    let report = compare_artifacts(&load(&current_path), &load(&baseline_path))
        .unwrap_or_else(|e| fail(&format!("{current_path} vs {baseline_path}: {e}")));
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
