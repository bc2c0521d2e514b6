//! Stable JSON artifact for a scenario-matrix sweep.
//!
//! `nashdb-bench scenarios` runs NashDB and the baseline allocators in each
//! cell of a (workload × drift × node mix × replication budget × faults)
//! matrix and emits one of these records of the one artifact format
//! ([`crate::artifact`]). Its reader re-derives each cell's frontier flags
//! from its points, so the CI gate never trusts a contradicting flag.

use crate::artifact::{self, schema_err, Checked, Codec, Record, SnapshotError};

/// True when the point `p` = `[cost, latency]` is no worse than `q` on
/// both axes and strictly better on one: the one dominance rule behind
/// every Pareto frontier (Fig. 7 and the scenario gate).
pub fn dominates(p: [f64; 2], q: [f64; 2]) -> bool {
    (p[0] <= q[0] && p[1] < q[1]) || (p[0] < q[0] && p[1] <= q[1])
}

/// One system's cost-vs-latency point within a cell.
#[derive(Debug, Clone, Default, PartialEq)]
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

impl Record for SystemPoint {
    fn fields(&mut self, c: &mut Codec<'_>) -> Checked {
        c.field("system", &mut self.system)?;
        c.field("cost", &mut self.cost)?;
        c.field("mean_latency_secs", &mut self.mean_latency_secs)?;
        c.field("p99_latency_secs", &mut self.p99_latency_secs)?;
        c.field("on_front", &mut self.on_front)?;
        c.field("dominates", &mut self.dominates)
    }

    fn name(&self) -> String {
        self.system.clone()
    }
}

/// One cell of the matrix: a scenario plus every system's point in it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellSnapshot {
    /// Workload cell name (`<generator>` from the workload matrix).
    pub workload: String,
    /// Drift level name (`steady` / `drifting`).
    pub drift: String,
    /// Node-class mix name (`uniform` or `budget-hdd`).
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
        let key = format!(
            "{}/{}/{}/{}",
            self.workload, self.drift, self.mix, self.budget
        );
        if self.faults == "none" {
            key
        } else {
            format!("{key}/{}", self.faults)
        }
    }

    /// Looks up a system's point by name.
    pub fn system(&self, name: &str) -> Option<&SystemPoint> {
        self.systems.iter().find(|s| s.system == name)
    }

    /// Sets every point's `on_front` and `dominates` from the cell's
    /// `(cost, mean_latency_secs)` points under [`dominates`].
    pub fn mark_frontier(&mut self) {
        let at: Vec<[f64; 2]> = (self.systems.iter())
            .map(|s| [s.cost, s.mean_latency_secs])
            .collect();
        for (s, &p) in self.systems.iter_mut().zip(&at) {
            s.on_front = !at.iter().any(|&q| dominates(q, p));
            s.dominates = at.iter().filter(|&&q| dominates(p, q)).count() as u64;
        }
    }
}

impl Record for CellSnapshot {
    fn fields(&mut self, c: &mut Codec<'_>) -> Checked {
        c.field("workload", &mut self.workload)?;
        c.field("drift", &mut self.drift)?;
        c.field("mix", &mut self.mix)?;
        c.field("budget", &mut self.budget)?;
        // Artifacts from before the fault axis have no `faults` field and
        // mean the failure-free level.
        c.optional("faults", &mut self.faults, "none")?;
        c.list("systems", &mut self.systems, false)?;
        c.field("wall_ns", &mut self.wall_ns)
    }

    fn name(&self) -> String {
        self.key()
    }

    /// A cell has systems and no empty key part, and its frontier flags are
    /// the ones its points give.
    fn check(&self, at: &str) -> Checked {
        let mut derived = self.clone();
        derived.mark_frontier();
        match (self.systems.iter().zip(&derived.systems)).position(|(s, d)| s != d) {
            _ if self.systems.is_empty() => schema_err(&format!("{at}.systems"), "no systems"),
            _ if self.key().split('/').any(str::is_empty) => schema_err(at, "empty key part"),
            Some(j) => {
                let d = &derived.systems[j];
                let message = format!(
                    "the points give on_front {}, dominates {}",
                    d.on_front, d.dominates
                );
                schema_err(&format!("{at}.systems[{j}]"), message)
            }
            None => Ok(()),
        }
    }
}

/// A complete scenario-matrix artifact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioArtifact {
    /// Schema version ([`SNAPSHOT_VERSION`](crate::SNAPSHOT_VERSION) when
    /// produced by this crate).
    pub version: u64,
    /// Free-form run metadata (seed, scale, …) in insertion order.
    pub labels: Vec<(String, String)>,
    /// All cells, in the runner's sweep order.
    pub cells: Vec<CellSnapshot>,
}

impl Record for ScenarioArtifact {
    fn fields(&mut self, c: &mut Codec<'_>) -> Checked {
        c.envelope(&mut self.version, &mut self.labels)?;
        // Cells keep sweep order; only their keys must be unique.
        c.list("cells", &mut self.cells, false)
    }
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
        artifact::encode(self).to_pretty_string()
    }

    /// Parses and validates an artifact produced by
    /// [`ScenarioArtifact::to_json_string`] with the strict artifact reader.
    ///
    /// # Errors
    /// [`SnapshotError::Json`] on malformed JSON, [`SnapshotError::Schema`]
    /// naming the first element that violates the schema, frontier flags
    /// that contradict their cell's points included.
    pub fn from_json_str(input: &str) -> Result<Self, SnapshotError> {
        artifact::decode(&crate::json::parse(input)?, "")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SNAPSHOT_VERSION;

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
            version: SNAPSHOT_VERSION,
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
                        point("hypergraph", 11.0, 0.7, false, 1),
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
                        point("nashdb", 5.0, 1.0, true, 1),
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
            (
                good.replace("\"system\": \"threshold\"", "\"system\": \"\""),
                "empty system name",
            ),
            (
                good.replace("\"workload\": \"tpch\"", "\"workload\": \"\""),
                "empty workload",
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

    #[test]
    fn frontier_flags_are_derived_from_the_points() {
        // The fixture's flags are the ones its points give.
        let mut art = sample();
        for cell in &mut art.cells {
            cell.mark_frontier();
        }
        assert_eq!(art, sample());
        // "Everyone but nashdb" on the front contradicts cell 0's points.
        for s in &mut art.cells[0].systems {
            s.on_front = s.system != "nashdb";
            s.dominates = 0;
        }
        let err = ScenarioArtifact::from_json_str(&art.to_json_string()).unwrap_err();
        assert!(
            matches!(&err, SnapshotError::Schema { at, .. } if at == "cells[0].systems[0]"),
            "{err}"
        );
    }
}
