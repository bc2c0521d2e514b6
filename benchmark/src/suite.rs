//! Whole-suite modes: every workload, each measurement in a fresh child
//! process (so `peak_rss_mb` and the pool counters are per workload).

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::{Command, Stdio};

use nashdb_obs::{parse_json, JsonValue};

use crate::host;
use crate::report::{self, END_TO_END, PER_LAYER};
use crate::workloads::NAMES;
use crate::Args;

/// One child run's parsed result line.
#[derive(Debug)]
struct ChildResult {
    correct: bool,
    failed: u64,
    /// Metric values in table order.
    values: Vec<f64>,
}

/// Runs this executable on one workload and parses the last line it prints.
fn run_child(
    name: &str,
    args: &Args,
    trace: bool,
    table: &[(&str, &str)],
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end before returning.
    let output = cmd
        .output()
        .map_err(|e| format!("{name}: cannot start: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{name}: printed no result ({})", output.status))?;
    let doc = parse_json(line).map_err(|e| format!("{name}: {e}"))?;
    let values = table
        .iter()
        .map(|(metric, _)| {
            doc.get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(JsonValue::as_f64)
                .ok_or(format!("{name}: result has no {metric}"))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(ChildResult {
        correct: doc.get("correct").and_then(JsonValue::as_bool) == Some(true)
            && output.status.success(),
        failed: doc.get("failed").and_then(JsonValue::as_u64).unwrap_or(0),
        values,
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Runs every workload, untraced then traced, and prints every metric by
/// name and unit. The last line is the run's JSON summary — the record
/// `--record` appends to the history file. No gain is ever claimed here:
/// the summary ends with `"claim": null`.
pub fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    let mut summary = String::new();
    let _ = write!(
        summary,
        "{{\"commit\": {}, \"seed\": {}, \"quick\": {}, \"nproc\": {}, \"cpu\": {}, \
         \"rustc\": {}, \"host.calib_ms\": {:?}, \"workloads\": {{",
        json_string(&command_line("git", &["describe", "--always", "--dirty"])),
        args.seed,
        args.quick,
        nashdb_par::max_threads(),
        json_string(&host::cpu_model()),
        json_string(&command_line("rustc", &["-V"])),
        host::calib_ms(),
    );
    for (w, name) in NAMES.iter().enumerate() {
        let end_to_end = run_child(name, args, false, END_TO_END)?;
        let per_layer = run_child(name, args, true, PER_LAYER)?;
        all_correct &= end_to_end.correct && per_layer.correct;
        println!(
            "== {name}: correct {}, failed {}",
            end_to_end.correct && per_layer.correct,
            end_to_end.failed
        );
        let rows = END_TO_END
            .iter()
            .zip(&end_to_end.values)
            .chain(PER_LAYER.iter().zip(&per_layer.values));
        for ((metric, unit), value) in rows {
            println!("{name:<15} {metric:<42} {value:>18.6} {unit}");
        }
        let _ = write!(
            summary,
            "{}{}: {{",
            if w > 0 { ", " } else { "" },
            json_string(name)
        );
        for (i, ((metric, _), value)) in END_TO_END.iter().zip(&end_to_end.values).enumerate() {
            let _ = write!(
                summary,
                "{}\"{metric}\": {value:?}",
                if i > 0 { ", " } else { "" }
            );
        }
        summary.push('}');
    }
    summary.push_str("}, \"claim\": null}");
    println!("{summary}");
    if let Some(path) = &args.record {
        if !all_correct {
            return Err("not recording a run that failed its checks".to_owned());
        }
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(file, "{summary}").map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(all_correct)
}

/// Whether `b` is within the metric's bound of `a`: simulated outcomes must
/// be equal bit for bit, the rest may worsen by `bound` of `a`.
fn within(metric: &str, better: &str, bound: f64, a: f64, b: f64) -> bool {
    if metric.starts_with("sim_") {
        return a.to_bits() == b.to_bits();
    }
    let worse_by = if better == "higher" { a - b } else { b - a };
    worse_by <= bound * a.abs()
}

/// Runs the end-to-end set twice on the same code and seed and checks the
/// second against the first, metric by metric, with the bounds of
/// `BENCHMARK.json`.
pub fn repeat_check(args: &Args) -> Result<bool, String> {
    let bounds = report::end_to_end_bounds()?;
    let mut pass = true;
    println!(
        "{:<15} {:<20} {:>16} {:>16} {:>9} {:>6}  result",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for name in NAMES {
        let first = run_child(name, args, false, END_TO_END)?;
        let second = run_child(name, args, false, END_TO_END)?;
        pass &= first.correct && second.correct;
        for (i, (metric, better, bound)) in bounds.iter().enumerate() {
            let (a, b) = (first.values[i], second.values[i]);
            let ok = within(metric, better, *bound, a, b);
            pass &= ok;
            println!(
                "{name:<15} {metric:<20} {a:>16.6} {b:>16.6} {:>+8.2}% {:>5.0}%  {}",
                (b - a) / a * 100.0,
                bound * 100.0,
                if ok { "pass" } else { "FAIL" }
            );
        }
    }
    println!("{{\"repeat_check\": {pass}, \"claim\": null}}");
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_applies_in_the_worse_direction_only() {
        assert!(within("queries_per_s", "higher", 0.1, 100.0, 91.0));
        assert!(!within("queries_per_s", "higher", 0.1, 100.0, 89.0));
        assert!(within("queries_per_s", "higher", 0.1, 100.0, 150.0));
        assert!(within("setup_s", "lower", 0.25, 4.0, 4.9));
        assert!(!within("setup_s", "lower", 0.25, 4.0, 5.1));
        assert!(within("setup_s", "lower", 0.25, 4.0, 1.0));
    }

    #[test]
    fn simulated_outcomes_must_repeat_exactly() {
        assert!(within("sim_cost", "lower", 0.1, 1.5, 1.5));
        assert!(!within("sim_cost", "lower", 0.1, 1.5, 1.5 + 1e-12));
    }
}
