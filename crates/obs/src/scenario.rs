//! Stable JSON artifact for a scenario-matrix sweep.
//!
//! `nashdb-bench scenarios` sweeps a (workload × drift × node mix ×
//! replication budget) matrix, running each cell against NashDB and the
//! baseline allocators, and emits one of these artifacts per run. Like
//! [`ObsSnapshot`](crate::ObsSnapshot) it is the CI contract: versioned,
//! schema-validated on load, deterministic to the byte for same-seed runs
//! once [`ScenarioArtifact::scrub_timings`] has zeroed the wall clock. The
//! `bench-scenarios` CI job diffs one against the committed baseline and
//! fails the build if NashDB loses Pareto-frontier membership in any cell
//! where the baseline had it.

use crate::json::{self, JsonValue};
use crate::snapshot::{
    field_str, field_u64, object, parse_fields, parse_items, parse_version, schema_err,
    SnapshotError,
};

/// Current scenario artifact schema version; bump on breaking changes.
pub const SCENARIO_VERSION: u64 = 1;

/// One system's cost-vs-latency point within a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemPoint {
    /// System name (`nashdb`, `threshold`, `hypergraph`).
    pub system: String,
    /// Total monetary cost of the run, in 1/100 cent.
    pub cost: f64,
    /// Mean query latency, seconds.
    pub mean_latency_secs: f64,
    /// 99th-percentile query latency, seconds.
    pub p99_latency_secs: f64,
    /// Whether this point is on the cell's Pareto frontier.
    pub on_front: bool,
    /// How many of the cell's other points this one dominates (strictly
    /// better on one axis, no worse on the other).
    pub dominates: u64,
}

/// One cell of the matrix: a scenario plus every system's point in it.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSnapshot {
    /// Workload cell name (`<generator>` from the workload matrix).
    pub workload: String,
    /// Drift level name (`steady` / `drifting`).
    pub drift: String,
    /// Node-class mix preset name (`uniform`, `budget-hdd`, …).
    pub mix: String,
    /// Replication-budget level name (`tight` / `ample`).
    pub budget: String,
    /// Fault-schedule level name (`none` / `crash` / `chaos`). `"none"` is
    /// the failure-free legacy matrix: it is omitted from the serialized
    /// form and from [`key`](CellSnapshot::key), so artifacts written before
    /// this axis existed parse (and key) unchanged.
    pub faults: String,
    /// Every system's point, in a fixed system order.
    pub systems: Vec<SystemPoint>,
    /// Host wall-clock nanoseconds spent simulating the cell (zeroed by
    /// [`ScenarioArtifact::scrub_timings`]).
    pub wall_ns: u64,
}

impl CellSnapshot {
    /// The cell's unique key within an artifact. Failure-free cells keep
    /// their historical four-part key; fault cells append `/<faults>`.
    pub fn key(&self) -> String {
        if self.faults == "none" {
            format!(
                "{}/{}/{}/{}",
                self.workload, self.drift, self.mix, self.budget
            )
        } else {
            format!(
                "{}/{}/{}/{}/{}",
                self.workload, self.drift, self.mix, self.budget, self.faults
            )
        }
    }

    /// Looks up a system's point by name.
    pub fn system(&self, name: &str) -> Option<&SystemPoint> {
        self.systems.iter().find(|s| s.system == name)
    }
}

/// A complete scenario-matrix artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioArtifact {
    /// Schema version (`SCENARIO_VERSION` when produced by this crate).
    pub version: u64,
    /// Free-form run metadata (seed, scale, …) in insertion order.
    pub labels: Vec<(String, String)>,
    /// All cells, in the runner's sweep order.
    pub cells: Vec<CellSnapshot>,
}

impl ScenarioArtifact {
    /// Looks up a cell by its [`CellSnapshot::key`].
    pub fn cell(&self, key: &str) -> Option<&CellSnapshot> {
        self.cells.iter().find(|c| c.key() == key)
    }

    /// Zeroes every host wall-clock measurement so two same-seed runs are
    /// byte-identical regardless of machine speed (the sibling of
    /// [`ObsSnapshot::scrub_timings`](crate::ObsSnapshot::scrub_timings)).
    pub fn scrub_timings(&mut self) {
        for cell in &mut self.cells {
            cell.wall_ns = 0;
        }
    }

    /// Serializes to deterministic pretty-printed JSON.
    pub fn to_json_string(&self) -> String {
        let labels = object(&self.labels, |v| JsonValue::Str(v.clone()));
        let cells = JsonValue::Array(
            self.cells
                .iter()
                .map(|c| {
                    let systems = JsonValue::Array(
                        c.systems
                            .iter()
                            .map(|s| {
                                JsonValue::Object(vec![
                                    ("system".to_owned(), JsonValue::Str(s.system.clone())),
                                    ("cost".to_owned(), JsonValue::Float(s.cost)),
                                    (
                                        "mean_latency_secs".to_owned(),
                                        JsonValue::Float(s.mean_latency_secs),
                                    ),
                                    (
                                        "p99_latency_secs".to_owned(),
                                        JsonValue::Float(s.p99_latency_secs),
                                    ),
                                    ("on_front".to_owned(), JsonValue::Bool(s.on_front)),
                                    ("dominates".to_owned(), JsonValue::UInt(s.dominates)),
                                ])
                            })
                            .collect(),
                    );
                    let mut fields = vec![
                        ("workload".to_owned(), JsonValue::Str(c.workload.clone())),
                        ("drift".to_owned(), JsonValue::Str(c.drift.clone())),
                        ("mix".to_owned(), JsonValue::Str(c.mix.clone())),
                        ("budget".to_owned(), JsonValue::Str(c.budget.clone())),
                    ];
                    if c.faults != "none" {
                        fields.push(("faults".to_owned(), JsonValue::Str(c.faults.clone())));
                    }
                    fields.push(("systems".to_owned(), systems));
                    fields.push(("wall_ns".to_owned(), JsonValue::UInt(c.wall_ns)));
                    JsonValue::Object(fields)
                })
                .collect(),
        );
        JsonValue::Object(vec![
            ("version".to_owned(), JsonValue::UInt(self.version)),
            ("labels".to_owned(), labels),
            ("cells".to_owned(), cells),
        ])
        .to_pretty_string()
    }

    /// Parses and schema-validates an artifact produced by
    /// [`ScenarioArtifact::to_json_string`].
    ///
    /// # Errors
    /// [`SnapshotError::Json`] on malformed JSON, [`SnapshotError::Schema`]
    /// on any structural violation: wrong version, non-finite numbers, empty
    /// names, duplicate cell keys, duplicate system names, or a cell with no
    /// systems.
    pub fn from_json_str(input: &str) -> Result<Self, SnapshotError> {
        let root = json::parse(input)?;
        Ok(ScenarioArtifact {
            version: parse_version(&root, SCENARIO_VERSION)?,
            labels: parse_fields(&root, "labels", false, "label must be a string", |v| {
                v.as_str().map(str::to_owned)
            })?,
            // Cells keep sweep order; only their keys must be unique.
            cells: parse_items(&root, "cells", false, parse_cell, CellSnapshot::key)?,
        })
    }
}

fn field_finite_f64(item: &JsonValue, at: &str, key: &str) -> Result<f64, SnapshotError> {
    match item.get(key).and_then(JsonValue::as_f64) {
        Some(v) if v.is_finite() => Ok(v),
        _ => schema_err(&format!("{at}.{key}"), "missing or not a finite number"),
    }
}

fn parse_cell(item: &JsonValue, index: usize) -> Result<CellSnapshot, SnapshotError> {
    let at = format!("cells[{index}]");
    let workload = field_str(item, &at, "workload")?;
    let drift = field_str(item, &at, "drift")?;
    let mix = field_str(item, &at, "mix")?;
    let budget = field_str(item, &at, "budget")?;
    // Optional for backward compatibility: artifacts from before the fault
    // axis have no `faults` field and mean the failure-free level.
    let faults = match item.get("faults") {
        None => "none".to_owned(),
        Some(v) => match v.as_str() {
            Some(s) if !s.is_empty() => s.to_owned(),
            _ => return schema_err(&format!("{at}.faults"), "not a non-empty string"),
        },
    };
    let wall_ns = field_u64(item, &at, "wall_ns")?;

    let Some(raw_systems) = item.get("systems").and_then(JsonValue::as_array) else {
        return schema_err(&format!("{at}.systems"), "missing or not an array");
    };
    if raw_systems.is_empty() {
        return schema_err(&format!("{at}.systems"), "cell has no systems");
    }
    let mut systems: Vec<SystemPoint> = Vec::with_capacity(raw_systems.len());
    for (j, s) in raw_systems.iter().enumerate() {
        let sat = format!("{at}.systems[{j}]");
        let system = field_str(s, &sat, "system")?;
        if systems.iter().any(|p| p.system == system) {
            return schema_err(&sat, format!("duplicate system {system}"));
        }
        let cost = field_finite_f64(s, &sat, "cost")?;
        let mean_latency_secs = field_finite_f64(s, &sat, "mean_latency_secs")?;
        let p99_latency_secs = field_finite_f64(s, &sat, "p99_latency_secs")?;
        let Some(on_front) = s.get("on_front").and_then(JsonValue::as_bool) else {
            return schema_err(&format!("{sat}.on_front"), "missing or not a boolean");
        };
        let dominates = field_u64(s, &sat, "dominates")?;
        if dominates >= raw_systems.len() as u64 {
            return schema_err(
                &format!("{sat}.dominates"),
                format!(
                    "dominates {dominates} but the cell has only {} other points",
                    raw_systems.len() - 1
                ),
            );
        }
        systems.push(SystemPoint {
            system,
            cost,
            mean_latency_secs,
            p99_latency_secs,
            on_front,
            dominates,
        });
    }
    // A cell must have at least one frontier point: the frontier of a
    // non-empty set is non-empty.
    if !systems.iter().any(|s| s.on_front) {
        return schema_err(&format!("{at}.systems"), "no system is on the frontier");
    }

    Ok(CellSnapshot {
        workload,
        drift,
        mix,
        budget,
        faults,
        systems,
        wall_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(system: &str, cost: f64, lat: f64, on_front: bool, dominates: u64) -> SystemPoint {
        SystemPoint {
            system: system.to_owned(),
            cost,
            mean_latency_secs: lat,
            p99_latency_secs: lat * 2.0,
            on_front,
            dominates,
        }
    }

    fn sample() -> ScenarioArtifact {
        ScenarioArtifact {
            version: SCENARIO_VERSION,
            labels: vec![
                ("seed".to_owned(), "42".to_owned()),
                ("scale".to_owned(), "quick".to_owned()),
            ],
            cells: vec![
                CellSnapshot {
                    workload: "tpch".to_owned(),
                    drift: "steady".to_owned(),
                    mix: "uniform".to_owned(),
                    budget: "tight".to_owned(),
                    faults: "none".to_owned(),
                    systems: vec![
                        point("nashdb", 10.0, 0.5, true, 2),
                        point("threshold", 12.0, 0.9, false, 0),
                        point("hypergraph", 11.0, 0.7, false, 0),
                    ],
                    wall_ns: 123_456,
                },
                CellSnapshot {
                    workload: "bernoulli".to_owned(),
                    drift: "drifting".to_owned(),
                    mix: "budget-hdd".to_owned(),
                    budget: "ample".to_owned(),
                    faults: "crash".to_owned(),
                    systems: vec![
                        point("nashdb", 5.0, 1.0, true, 0),
                        point("threshold", 4.0, 1.5, true, 0),
                        point("hypergraph", 6.0, 1.2, false, 0),
                    ],
                    wall_ns: 99,
                },
            ],
        }
    }

    #[test]
    fn round_trip_is_lossless_and_stable() {
        let art = sample();
        let text = art.to_json_string();
        let parsed = ScenarioArtifact::from_json_str(&text).unwrap();
        assert_eq!(parsed, art);
        assert_eq!(parsed.to_json_string(), text);
    }

    #[test]
    fn lookups_work() {
        let art = sample();
        let cell = art.cell("tpch/steady/uniform/tight").unwrap();
        assert_eq!(cell.system("nashdb").map(|s| s.dominates), Some(2));
        assert!(art.cell("nope/steady/uniform/tight").is_none());
        assert!(cell.system("nope").is_none());
        // Fault cells key with the fifth segment.
        assert!(art
            .cell("bernoulli/drifting/budget-hdd/ample/crash")
            .is_some());
        assert!(art.cell("bernoulli/drifting/budget-hdd/ample").is_none());
    }

    #[test]
    fn pre_fault_axis_artifacts_parse_with_default_level() {
        // Serialized before the fault axis existed: no `faults` field.
        let art = sample();
        let text = art.to_json_string();
        assert!(
            !text
                .split("\"faults\": \"crash\"")
                .next()
                .unwrap()
                .contains("faults"),
            "failure-free cells must not serialize the faults field"
        );
        let legacy = text.replace(",\n      \"faults\": \"crash\"", "");
        assert_ne!(legacy, text, "replace must strip the faults field");
        let parsed = ScenarioArtifact::from_json_str(&legacy).unwrap();
        assert!(parsed.cells.iter().all(|c| c.faults == "none"));
        // Re-serializing a legacy artifact reproduces its bytes.
        assert_eq!(parsed.to_json_string(), legacy);
    }

    #[test]
    fn scrub_zeroes_wall_clock_only() {
        let mut art = sample();
        art.scrub_timings();
        assert!(art.cells.iter().all(|c| c.wall_ns == 0));
        // Everything else untouched.
        assert_eq!(art.cells[0].systems, sample().cells[0].systems);
        // Scrubbed artifacts still validate and stay deterministic.
        let text = art.to_json_string();
        assert_eq!(
            ScenarioArtifact::from_json_str(&text)
                .unwrap()
                .to_json_string(),
            text
        );
    }

    #[test]
    fn validation_rejects_schema_violations() {
        let good = sample().to_json_string();
        let cases: Vec<(String, &str)> = vec![
            (good.replace("\"version\": 1", "\"version\": 7"), "version"),
            (good.replace("\"cells\"", "\"zells\""), "missing cells"),
            (
                good.replace("\"system\": \"threshold\"", "\"system\": \"nashdb\""),
                "duplicate system",
            ),
            (
                good.replace("\"cost\": 10.0", "\"cost\": \"ten\""),
                "non-numeric cost",
            ),
            (
                good.replace("\"on_front\": true", "\"on_front\": false"),
                "frontierless cell",
            ),
            (
                good.replace("\"dominates\": 2", "\"dominates\": 3"),
                "dominates out of range",
            ),
        ];
        for (text, why) in cases {
            if text == good {
                panic!("case made no change: {why}");
            }
            assert!(
                ScenarioArtifact::from_json_str(&text).is_err(),
                "should reject: {why}"
            );
        }
        assert!(matches!(
            ScenarioArtifact::from_json_str("not json"),
            Err(SnapshotError::Json(_))
        ));
    }

    #[test]
    fn validation_rejects_duplicate_cells() {
        let mut art = sample();
        let dup = art.cells[0].clone();
        art.cells.push(dup);
        let err = ScenarioArtifact::from_json_str(&art.to_json_string()).unwrap_err();
        assert!(matches!(err, SnapshotError::Schema { .. }), "{err}");
        assert!(err.to_string().contains("duplicate name"), "{err}");
    }
}
