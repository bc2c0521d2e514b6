//! Scenario quality gate: [`compare_scenarios`] diffs two scenario
//! artifacts (`nashdb-bench compare CURRENT BASELINE`). The build fails if
//! NashDB has *lost Pareto-frontier membership* in any matrix cell where
//! the committed `SCENARIO_BASELINE.json` has it. Dominance-count drops are
//! reported as warnings; frontier gains as ratchet candidates.

use nashdb_obs::{Artifact, ScenarioArtifact};

/// The system the scenario gate tracks.
pub const GATED_SYSTEM: &str = "nashdb";

/// One cell's dominance-count movement between baseline and current.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DominanceDelta {
    /// The cell key (`workload/drift/mix/budget`).
    pub cell: String,
    /// Points NashDB dominated in the baseline.
    pub baseline: u64,
    /// Points NashDB dominates now.
    pub current: u64,
}

/// The scenario-gate diff: frontier movements of [`GATED_SYSTEM`] across
/// every baseline cell.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScenarioCompareReport {
    /// Cells compared (= baseline cells).
    pub cells: usize,
    /// Cells where the baseline has NashDB on the frontier but the current
    /// artifact does not — each one fails the gate.
    pub lost_frontier: Vec<String>,
    /// Cells where NashDB newly joined the frontier (ratchet candidates).
    pub gained_frontier: Vec<String>,
    /// Cells where NashDB dominates fewer points than in the baseline
    /// (warning, not failure: frontier membership is the contract).
    pub dominance_drops: Vec<DominanceDelta>,
}

impl ScenarioCompareReport {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.lost_frontier.is_empty()
    }
}

/// Why two scenario artifacts could not be compared at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioCompareError {
    /// One side is a smoke snapshot, not a scenario artifact.
    NotScenarios {
        /// `"current"` or `"baseline"`.
        which: &'static str,
    },
    /// A baseline cell is absent from the current artifact — the matrix
    /// shrank, so the gate cannot certify the missing scenario.
    MissingCell {
        /// The absent cell's key.
        key: String,
    },
    /// A cell has no [`GATED_SYSTEM`] point.
    MissingSystem {
        /// The cell's key.
        key: String,
        /// `"current"` or `"baseline"`.
        which: &'static str,
    },
}

impl std::fmt::Display for ScenarioCompareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioCompareError::NotScenarios { which } => {
                write!(f, "{which} is a smoke snapshot, not a scenario artifact")
            }
            ScenarioCompareError::MissingCell { key } => {
                write!(f, "current artifact has no cell {key:?}")
            }
            ScenarioCompareError::MissingSystem { key, which } => {
                write!(f, "{which} cell {key:?} has no {GATED_SYSTEM} point")
            }
        }
    }
}

impl std::error::Error for ScenarioCompareError {}

/// [`compare_scenarios`] on two loaded artifacts of any kind.
///
/// # Errors
/// [`ScenarioCompareError::NotScenarios`] when either is a smoke snapshot,
/// else what [`compare_scenarios`] returns.
pub fn compare_artifacts(
    current: &Artifact,
    baseline: &Artifact,
) -> Result<ScenarioCompareReport, ScenarioCompareError> {
    match (current, baseline) {
        (Artifact::Scenarios(current), Artifact::Scenarios(baseline)) => {
            compare_scenarios(current, baseline)
        }
        (Artifact::Snapshot(_), _) => Err(ScenarioCompareError::NotScenarios { which: "current" }),
        (_, Artifact::Snapshot(_)) => Err(ScenarioCompareError::NotScenarios { which: "baseline" }),
    }
}

/// Diffs NashDB's frontier membership per cell between two artifacts.
///
/// Extra cells in `current` (a grown matrix) are ignored; every baseline
/// cell must be present in `current`.
///
/// # Errors
/// [`ScenarioCompareError`] when a baseline cell is absent from the current
/// artifact or either side lacks a [`GATED_SYSTEM`] point.
pub fn compare_scenarios(
    current: &ScenarioArtifact,
    baseline: &ScenarioArtifact,
) -> Result<ScenarioCompareReport, ScenarioCompareError> {
    let mut report = ScenarioCompareReport::default();
    for base_cell in &baseline.cells {
        let key = base_cell.key();
        let base_point =
            base_cell
                .system(GATED_SYSTEM)
                .ok_or_else(|| ScenarioCompareError::MissingSystem {
                    key: key.clone(),
                    which: "baseline",
                })?;
        let cur_cell = current
            .cell(&key)
            .ok_or_else(|| ScenarioCompareError::MissingCell { key: key.clone() })?;
        let cur_point =
            cur_cell
                .system(GATED_SYSTEM)
                .ok_or_else(|| ScenarioCompareError::MissingSystem {
                    key: key.clone(),
                    which: "current",
                })?;

        report.cells += 1;
        match (base_point.on_front, cur_point.on_front) {
            (true, false) => report.lost_frontier.push(key.clone()),
            (false, true) => report.gained_frontier.push(key.clone()),
            _ => {}
        }
        if cur_point.dominates < base_point.dominates {
            report.dominance_drops.push(DominanceDelta {
                cell: key,
                baseline: base_point.dominates,
                current: cur_point.dominates,
            });
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nashdb_obs::{CellSnapshot, SystemPoint, SNAPSHOT_VERSION};

    fn scenario_point(system: &str, on_front: bool, dominates: u64) -> SystemPoint {
        SystemPoint {
            system: system.to_owned(),
            cost: 1.0,
            mean_latency_secs: 1.0,
            p99_latency_secs: 2.0,
            on_front,
            dominates,
        }
    }

    fn scenario_cell(workload: &str, nash_on_front: bool, nash_dominates: u64) -> CellSnapshot {
        CellSnapshot {
            workload: workload.to_owned(),
            drift: "steady".to_owned(),
            mix: "uniform".to_owned(),
            budget: "tight".to_owned(),
            faults: "none".to_owned(),
            systems: vec![
                scenario_point(GATED_SYSTEM, nash_on_front, nash_dominates),
                scenario_point("threshold", !nash_on_front || nash_dominates == 0, 0),
            ],
            wall_ns: 0,
        }
    }

    fn scenario_artifact(cells: Vec<CellSnapshot>) -> ScenarioArtifact {
        ScenarioArtifact {
            version: SNAPSHOT_VERSION,
            labels: Vec::new(),
            cells,
        }
    }

    #[test]
    fn identical_scenario_artifacts_pass() {
        let art = scenario_artifact(vec![
            scenario_cell("tpch", true, 1),
            scenario_cell("random", false, 0),
        ]);
        let report = compare_scenarios(&art, &art.clone()).unwrap();
        assert!(report.passed());
        assert_eq!(report.cells, 2);
        assert!(report.lost_frontier.is_empty());
        assert!(report.gained_frontier.is_empty());
        assert!(report.dominance_drops.is_empty());
    }

    #[test]
    fn lost_frontier_fails_the_gate() {
        let baseline = scenario_artifact(vec![scenario_cell("tpch", true, 2)]);
        let current = scenario_artifact(vec![scenario_cell("tpch", false, 0)]);
        let report = compare_scenarios(&current, &baseline).unwrap();
        assert!(!report.passed());
        assert_eq!(report.lost_frontier, vec!["tpch/steady/uniform/tight"]);
        assert_eq!(report.dominance_drops.len(), 1);
        assert_eq!(report.dominance_drops[0].baseline, 2);
        assert_eq!(report.dominance_drops[0].current, 0);
    }

    #[test]
    fn gains_and_dominance_drops_do_not_fail() {
        let baseline = scenario_artifact(vec![
            scenario_cell("tpch", false, 0),
            scenario_cell("random", true, 2),
        ]);
        let current = scenario_artifact(vec![
            scenario_cell("tpch", true, 1),
            scenario_cell("random", true, 1),
        ]);
        let report = compare_scenarios(&current, &baseline).unwrap();
        assert!(report.passed());
        assert_eq!(report.gained_frontier, vec!["tpch/steady/uniform/tight"]);
        assert_eq!(report.dominance_drops.len(), 1);
        assert_eq!(
            report.dominance_drops[0].cell,
            "random/steady/uniform/tight"
        );
    }

    #[test]
    fn missing_cell_or_system_is_an_error() {
        let baseline = scenario_artifact(vec![scenario_cell("tpch", true, 1)]);
        let empty = scenario_artifact(Vec::new());
        assert_eq!(
            compare_scenarios(&empty, &baseline),
            Err(ScenarioCompareError::MissingCell {
                key: "tpch/steady/uniform/tight".to_owned()
            })
        );
        // A grown current matrix is fine the other way round.
        let grown = scenario_artifact(vec![
            scenario_cell("tpch", true, 1),
            scenario_cell("bernoulli", true, 0),
        ]);
        assert!(compare_scenarios(&grown, &baseline).unwrap().passed());

        let mut no_nash = scenario_cell("tpch", true, 1);
        no_nash.systems.retain(|s| s.system != GATED_SYSTEM);
        assert_eq!(
            compare_scenarios(&scenario_artifact(vec![no_nash]), &baseline),
            Err(ScenarioCompareError::MissingSystem {
                key: "tpch/steady/uniform/tight".to_owned(),
                which: "current",
            })
        );
    }
}
