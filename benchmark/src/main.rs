//! The repo benchmark: four fixed-seed workloads through the whole
//! `workload → distributor → transition → router → cluster` loop.
//!
//! ```text
//! nashdb-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1] [--spans FILE] [--quick]
//! nashdb-benchmark [--seed N] [--seconds S] [--quick] [--record FILE]
//! nashdb-benchmark --repeat-check [--seed N] [--seconds S] [--quick]
//! ```
//!
//! The first form measures one workload in this process and prints its
//! result as the last line of standard output: the end-to-end metrics with
//! `--trace 0` (the default), the per-layer metrics with `--trace 1` (and
//! with `--spans`, every span of the traced run as JSON lines). The
//! second runs every workload both ways, each in a fresh child process, and
//! prints every metric by name and unit; `--record` appends the summary to
//! a history file. The third runs the end-to-end set twice and checks the
//! two against the bounds in `BENCHMARK.json`. See `README.md`.

mod e2e;
mod host;
mod per_layer;
mod probe;
mod report;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    repeat_check: bool,
    record: Option<String>,
    spans: Option<String>,
}

const USAGE: &str = "usage: nashdb-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--spans FILE] [--quick] [--record FILE] [--repeat-check]";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        quick: false,
        repeat_check: false,
        record: None,
        spans: None,
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("a name")?),
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds.is_finite() && parsed.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_owned());
                }
            }
            "--trace" => {
                parsed.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "--quick" => parsed.quick = true,
            "--repeat-check" => parsed.repeat_check = true,
            "--record" => parsed.record = Some(value("a file")?),
            "--spans" => parsed.spans = Some(value("a file")?),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if let Some(name) = &parsed.workload {
        if !workloads::NAMES.contains(&name.as_str()) {
            return Err(format!(
                "unknown workload {name}; the workloads are {}",
                workloads::NAMES.join(", ")
            ));
        }
    }
    Ok(parsed)
}

/// Measures one workload in this process and prints its result line.
fn run_one(name: &str, args: &Args, process_start: Instant) -> ExitCode {
    let (seed, seconds, quick) = (args.seed, args.seconds, args.quick);
    let measurement = if args.trace {
        per_layer::measure(
            name,
            seed,
            seconds,
            quick,
            args.spans.as_deref(),
            process_start,
        )
    } else {
        e2e::measure(name, seed, seconds, quick, process_start)
    };
    let Some(m) = measurement else {
        eprintln!("error: {name} produced no measurement");
        return ExitCode::FAILURE;
    };
    for p in &m.problems {
        eprintln!("check failed: {name}: {p}");
    }
    match m.to_json_line() {
        Ok(line) => {
            println!("{line}");
            if m.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {name}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        Some(name) => return run_one(name, &args, process_start),
        None if args.repeat_check => suite::repeat_check(&args),
        None => suite::run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse(&[
            "--workload",
            "tpch-burst",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("tpch-burst"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seconds", "-1"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    /// The mirror in `trace.rs` replays the driver call for call: on every
    /// workload its outcome equals `run_workload_with_faults`'s, and a traced
    /// measurement emits every per-layer name.
    #[test]
    fn mirror_matches_the_driver_on_every_quick_workload() {
        for name in workloads::NAMES {
            let m = per_layer::measure(name, 42, 0.0, true, None, Instant::now()).unwrap();
            assert!(m.problems.is_empty(), "{name}: {:?}", m.problems);
            let metrics = m.metrics.finish().unwrap();
            let names: Vec<&str> = metrics.iter().map(|m| m.0).collect();
            let table: Vec<&str> = report::PER_LAYER.iter().map(|m| m.0).collect();
            assert_eq!(names, table);
            let value = |n: &str| metrics.iter().find(|m| m.0 == n).unwrap().2;
            assert_eq!(value("trace.mirror_match"), 1.0, "{name}");
            assert!(value("nashdb.driver.traced_wall_s") > 0.0);
        }
    }

    #[test]
    fn quick_end_to_end_run_emits_every_name_and_conserves_queries() {
        for name in workloads::NAMES {
            let m = e2e::measure(name, 42, 0.0, true, Instant::now()).unwrap();
            assert!(m.problems.is_empty(), "{name}: {:?}", m.problems);
            assert!(m.attempted > 0, "{name}");
            assert_eq!(m.failed, 0, "{name}");
            let metrics = m.metrics.finish().unwrap();
            let names: Vec<&str> = metrics.iter().map(|m| m.0).collect();
            let table: Vec<&str> = report::END_TO_END.iter().map(|m| m.0).collect();
            assert_eq!(names, table);
            assert!(metrics.iter().all(|m| m.2 > 0.0), "{name}: {metrics:?}");
        }
    }
}
