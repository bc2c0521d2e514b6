//! Metric names and the result line the benchmark prints.
//!
//! The two tables below are the benchmark's contract: every later PR is
//! judged on these names. `BENCHMARK.json` lists the same names (a test
//! keeps the two in step), and [`MetricSet`] refuses a value under any other
//! name.

use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("sim_mean_latency_s", "s"),
    ("sim_cost", "cent/100"),
    ("sim_transfer_tuples", "tuples"),
];

/// `(name, unit)` of every per-layer metric, from the traced run. A layer
/// is `crate.module`; `_s` totals are self time.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("nashdb.driver.traced_wall_s", "s"),
    ("nashdb.driver.unattributed_frac", "frac"),
    ("nashdb.driver.arrival_p50_us", "us"),
    ("nashdb.driver.arrival_p99_us", "us"),
    ("nashdb.driver.reconfig_p50_ms", "ms"),
    ("nashdb.driver.reconfig_max_ms", "ms"),
    ("nashdb.driver.batch_scans_mean", "count"),
    ("nashdb.distributor.observe_s", "s"),
    ("nashdb.distributor.observe_calls", "count"),
    ("nashdb.distributor.scheme_s", "s"),
    ("nashdb.distributor.scheme_calls", "count"),
    ("nashdb.distributor.scheme_p50_ms", "ms"),
    ("nashdb.distributor.scheme_max_ms", "ms"),
    ("nashdb.scheme.requests_s", "s"),
    ("nashdb.scheme.requests_per_query", "count"),
    ("nashdb.scheme.candidates_per_request", "count"),
    ("nashdb.scheme.node_intervals_s", "s"),
    ("nashdb.scheme.fragments_mean", "count"),
    ("nashdb.scheme.replicas_per_fragment", "count"),
    ("core.routing.route_s", "s"),
    ("core.routing.route_calls", "count"),
    ("core.routing.ns_per_request", "ns"),
    ("core.routing.call_p50_us", "us"),
    ("core.routing.call_p99_us", "us"),
    ("core.routing.mean_span", "count"),
    ("core.routing.errors", "count"),
    ("core.transition.plan_s", "s"),
    ("core.transition.plan_calls", "count"),
    ("core.transition.plan_p50_ms", "ms"),
    ("core.transition.matrix_dim_mean", "count"),
    ("core.transition.tuples_moved", "tuples"),
    ("cluster.sim.next_event_s", "s"),
    ("cluster.sim.events", "count"),
    ("cluster.sim.ns_per_event", "ns"),
    ("cluster.sim.dispatch_s", "s"),
    ("cluster.sim.reads_dispatched", "count"),
    ("cluster.sim.reconfigure_s", "s"),
    ("cluster.sim.schedule_s", "s"),
    ("cluster.sim.retries", "count"),
    ("cluster.sim.plans_rejected", "count"),
    ("core.value.observe_ns_per_scan", "ns"),
    ("core.value.chunks_us_per_call", "us"),
    ("core.value.chunks_per_call", "count"),
    ("core.fragment.greedy_ms_per_run", "ms"),
    ("core.fragment.greedy_changes", "count"),
    ("core.fragment.stats_us_per_call", "us"),
    ("core.fragment.fragments", "count"),
    ("core.replication.decide_us_per_call", "us"),
    ("core.replication.replicas_total", "count"),
    ("core.replication.pack_bffd_us_per_call", "us"),
    ("core.replication.pack_nodes", "count"),
    ("sim.event.ns_per_push_pop", "ns"),
    ("trace.overhead_frac", "frac"),
    ("trace.mirror_match", "bool"),
    ("obs.session_overhead_frac", "frac"),
    ("obs.snapshot_bytes", "bytes"),
    ("par.pool.threads", "count"),
    ("par.pool.parallel_rounds", "count"),
    ("par.pool.chunks", "count"),
    ("workload.generate_s", "s"),
    ("workload.queries", "count"),
    ("workload.scans_per_query", "count"),
    ("host.calib_ms", "ms"),
];

/// Values for one of the metric tables, in table order.
#[derive(Debug)]
pub struct MetricSet {
    table: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl MetricSet {
    /// An empty set over `table`.
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        MetricSet {
            table,
            values: vec![None; table.len()],
        }
    }

    /// Records `value` under `name`.
    ///
    /// # Panics
    /// Panics on a name the table does not list: the names are fixed, so a
    /// stray one is a bug in the benchmark.
    pub fn put(&mut self, name: &str, value: f64) {
        let slot = self.table.iter().position(|(n, _)| *n == name);
        let Some(slot) = slot else {
            panic!("metric {name} is not in the table")
        };
        self.values[slot] = Some(value);
    }

    /// `(name, unit, value)` in table order.
    ///
    /// # Errors
    /// Names the first metric that was never recorded or is not finite.
    pub fn finish(&self) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
        self.table
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit), value)| match value {
                Some(v) if v.is_finite() => Ok((name, unit, *v)),
                Some(v) => Err(format!("metric {name} is not finite: {v}")),
                None => Err(format!("metric {name} was not measured")),
            })
            .collect()
    }
}

/// What one measurement (end-to-end or per-layer) of one workload found.
#[derive(Debug)]
pub struct Measurement {
    /// Queries scheduled over the measured runs.
    pub attempted: u64,
    /// Queries the system abandoned over the measured runs.
    pub failed: u64,
    /// The metrics of the measurement's kind.
    pub metrics: MetricSet,
    /// One line per failed correctness check; empty means correct.
    pub problems: Vec<String>,
}

impl Measurement {
    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result as one line of JSON: the object the benchmark prints as
    /// the last line of standard output. Floats use Rust's shortest
    /// round-trip formatting, so every measured digit is kept.
    ///
    /// # Errors
    /// Names a metric that was not measured or is not finite.
    pub fn to_json_line(&self) -> Result<String, String> {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit, value)) in self.metrics.finish()?.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// `BENCHMARK.json` as it was when this program was built.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, better, bound)` of every end-to-end metric, from `BENCHMARK.json`.
///
/// # Errors
/// Describes what is malformed if the file does not parse as expected.
pub fn end_to_end_bounds() -> Result<Vec<(String, String, f64)>, String> {
    let doc = nashdb_obs::parse_json(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(|v| v.as_array())
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(|v| v.as_str()).map(str::to_owned);
            match (
                text("name"),
                text("better"),
                m.get("bound").and_then(|v| v.as_f64()),
            ) {
                (Some(name), Some(better), Some(bound)) => Ok((name, better, bound)),
                _ => Err("BENCHMARK.json: malformed end_to_end entry".to_owned()),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn allowed(s: &str, extra: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_use_the_contract_charset() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(allowed(name, "_.-") && name.len() <= 64, "name {name}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(allowed(unit, "_/%.-") && unit.len() <= 16, "unit {unit}");
            assert!(seen.insert(name), "{name} listed twice");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` and the tables above list the same names and units,
    /// in the same order.
    #[test]
    fn benchmark_json_lists_exactly_the_emitted_names() {
        let doc = nashdb_obs::parse_json(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str)> = doc
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(|v| v.as_str()).expect("string field");
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(listed, table, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).expect("name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        let bounds = end_to_end_bounds().expect("bounds parse");
        assert!(bounds.iter().all(|(_, _, b)| *b > 0.0 && *b <= 0.25));
    }

    #[test]
    fn metric_set_reports_gaps_and_non_finite_values() {
        let mut set = MetricSet::new(END_TO_END);
        assert!(set.finish().unwrap_err().contains("setup_s"));
        for &(name, _) in END_TO_END {
            set.put(name, 1.5);
        }
        assert_eq!(set.finish().unwrap().len(), END_TO_END.len());
        set.put("sim_cost", f64::NAN);
        assert!(set.finish().unwrap_err().contains("sim_cost"));
    }

    #[test]
    fn result_line_is_one_json_object_with_the_four_keys() {
        let mut metrics = MetricSet::new(END_TO_END);
        for &(name, _) in END_TO_END {
            metrics.put(name, 1e21);
        }
        metrics.put("setup_s", 0.25);
        let measurement = Measurement {
            attempted: 10,
            failed: 0,
            metrics,
            problems: Vec::new(),
        };
        let line = measurement.to_json_line().unwrap();
        assert!(!line.contains('\n'));
        let doc = nashdb_obs::parse_json(&line).expect("valid JSON");
        let nashdb_obs::JsonValue::Object(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(|v| v.as_f64()), Some(0.25));
        assert_eq!(setup.get("unit").and_then(|v| v.as_str()), Some("s"));
    }
}
