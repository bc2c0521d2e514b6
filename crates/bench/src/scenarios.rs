//! The scenario-matrix runner behind `nashdb-bench scenarios`.
//!
//! Sweeps a declarative matrix — workload generator × drift level ×
//! node-class mix × replication budget — running every cell against NashDB
//! and both baseline allocators (Threshold, Hypergraph) on the identical
//! simulated substrate, and reduces each run to its cost-vs-latency point.
//! Frontier membership per cell is marked with the one dominance rule the
//! Fig. 7 experiment also uses ([`nashdb_obs::dominates`]). The result is
//! a [`ScenarioArtifact`]: versioned, schema-validated, and (once
//! [`ScenarioArtifact::scrub_timings`] has zeroed the wall clock)
//! byte-identical across same-seed runs, which is what lets CI diff it
//! against the committed `SCENARIO_BASELINE.json`.

use nashdb_cluster::NetConfig;
use nashdb_core::NodeSpec;
use nashdb_obs::{CellSnapshot, ScenarioArtifact, SystemPoint, SNAPSHOT_VERSION};
use nashdb_sim::fault::{FaultSchedule, FaultScheduleConfig};
use nashdb_sim::SimDuration;
use nashdb_workload::matrix::{
    DriftLevel, FaultLevel, GeneratorKind, MatrixError, MatrixWorkloadSpec,
};
use nashdb_workload::Workload;

use crate::env::{min_nodes, run_system_with_faults, ExpEnv, Router, System};

/// The replication-budget axis of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetLevel {
    /// Replication throttled: NashDB capped at 2 replicas per fragment, the
    /// baselines held at their feasibility-floor node count.
    Tight,
    /// Replication unthrottled: NashDB at its default cap, the baselines at
    /// twice their floor.
    Ample,
}

impl BudgetLevel {
    /// Both levels, in sweep order.
    pub const ALL: [BudgetLevel; 2] = [BudgetLevel::Tight, BudgetLevel::Ample];

    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            BudgetLevel::Tight => "tight",
            BudgetLevel::Ample => "ample",
        }
    }

    /// The fixed cluster size a baseline gets on `disk`-tuple nodes.
    /// Threshold's range-partitioned base layer needs slack above the raw
    /// [`min_nodes`] floor when block sizes are skewed, so "tight" still
    /// grants 25% headroom; "ample" doubles the floor.
    pub fn baseline_nodes(self, w: &Workload, disk: u64) -> usize {
        let floor = min_nodes(w, disk);
        match self {
            BudgetLevel::Tight => (floor * 5).div_ceil(4),
            BudgetLevel::Ample => floor * 2,
        }
    }
}

/// The node-class-mix axis of the matrix: which hardware the elastic
/// cluster rents, relative to the spec autotuned for the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeMix {
    /// The reference spec itself (the paper's §6 uniform nodes).
    Uniform,
    /// Budget boxes: half the rent, double the disk.
    BudgetHdd,
}

impl NodeMix {
    /// Both mixes, in sweep order.
    pub const ALL: [NodeMix; 2] = [NodeMix::Uniform, NodeMix::BudgetHdd];

    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            NodeMix::Uniform => "uniform",
            NodeMix::BudgetHdd => "budget-hdd",
        }
    }

    /// The node spec the mix rents, scaled from `reference`.
    pub fn spec(self, reference: &NodeSpec) -> NodeSpec {
        match self {
            NodeMix::Uniform => *reference,
            NodeMix::BudgetHdd => NodeSpec::new(
                reference.cost * 0.5,
                nashdb_core::num::saturating_u64(reference.disk as f64 * 2.0).max(1),
            ),
        }
    }
}

/// One cell of the scenario matrix, before it is run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioCell {
    /// Workload generator family.
    pub generator: GeneratorKind,
    /// Drift level.
    pub drift: DriftLevel,
    /// Node-class mix.
    pub mix: NodeMix,
    /// Replication budget.
    pub budget: BudgetLevel,
    /// Fault-schedule level ([`FaultLevel::None`] for the legacy
    /// failure-free matrix; fault cells also turn on the shared-link network
    /// model so crashes interact with transfer traffic).
    pub faults: FaultLevel,
}

/// Runner parameters. The defaults are what CI runs.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioConfig {
    /// RNG seed shared by every cell's workload generator.
    pub seed: u64,
    /// Database size per cell, GB.
    pub size_gb: u64,
    /// Approximate queries per cell.
    pub queries: usize,
    /// Sweep only a 5-cell corner of the matrix, one cell with a crash
    /// schedule (debug-mode tests; CI runs the full matrix in release).
    pub quick: bool,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 42,
            // Must keep disk (total/8) above the fixed 2M-tuple read block,
            // or the fixed-cluster baselines have blocks no node can host.
            size_gb: 24,
            queries: 60,
            quick: false,
        }
    }
}

/// Why a scenario sweep failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// A matrix cell's workload failed to build.
    Workload {
        /// The cell's `generator/drift` prefix.
        cell: String,
        /// The underlying build error.
        source: MatrixError,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Workload { cell, source } => {
                write!(f, "cell {cell}: {source}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Workload { source, .. } => Some(source),
        }
    }
}

/// Enumerates the matrix the config asks for, in sweep order.
pub fn matrix_cells(cfg: &ScenarioConfig) -> Vec<ScenarioCell> {
    let (generators, drifts, mixes): (&[GeneratorKind], &[DriftLevel], &[NodeMix]) = if cfg.quick {
        (
            &[GeneratorKind::Bernoulli, GeneratorKind::Random],
            &[DriftLevel::Steady],
            &[NodeMix::Uniform],
        )
    } else {
        (&GeneratorKind::ALL, &DriftLevel::ALL, &NodeMix::ALL)
    };
    let mut cells = Vec::new();
    for &generator in generators {
        for &drift in drifts {
            for &mix in mixes {
                for budget in BudgetLevel::ALL {
                    cells.push(ScenarioCell {
                        generator,
                        drift,
                        mix,
                        budget,
                        faults: FaultLevel::None,
                    });
                }
            }
        }
    }
    // The failure axis: a one-dimensional extension (steady drift, uniform
    // mix, ample budget) rather than a full cross product, which keeps the
    // cell count in budget while still asking the motivating question — does
    // value-proportional replication degrade more gracefully when replicas
    // vanish? New cells are warn-only under the baseline gate until the
    // baseline is regenerated to include them.
    let fault_levels: &[FaultLevel] = if cfg.quick {
        &[FaultLevel::Crash]
    } else {
        &[FaultLevel::Crash, FaultLevel::Chaos]
    };
    let fault_generators: &[GeneratorKind] = if cfg.quick {
        &[GeneratorKind::Bernoulli]
    } else {
        &GeneratorKind::ALL
    };
    for &generator in fault_generators {
        for &faults in fault_levels {
            cells.push(ScenarioCell {
                generator,
                drift: DriftLevel::Steady,
                mix: NodeMix::Uniform,
                budget: BudgetLevel::Ample,
                faults,
            });
        }
    }
    cells
}

/// The seeded fault schedule for a cell, sized to the run: faults land in
/// the middle 80% of the workload's span (arrivals plus an estimated drain
/// tail for batch workloads, which arrive all at once).
fn cell_faults(level: FaultLevel, w: &Workload, env: &ExpEnv, seed: u64) -> FaultSchedule {
    if level == FaultLevel::None {
        return FaultSchedule::none();
    }
    let last_arrival = w.queries.last().map_or(SimDuration::ZERO, |q| {
        q.at.saturating_since(nashdb_sim::SimTime::ZERO)
    });
    let drain_est =
        SimDuration::from_secs_f64(w.total_read() as f64 / (env.run.cluster.throughput_tps * 4.0));
    let horizon = (last_arrival + drain_est).max(SimDuration::from_secs(60));
    let tenth = SimDuration::from_secs_f64(horizon.as_secs_f64() / 10.0);
    let base = FaultScheduleConfig {
        seed,
        horizon,
        nodes: 4,
        down_for: tenth,
        slowdown: 4.0,
        straggle_for: tenth,
        ..FaultScheduleConfig::default()
    };
    match level {
        FaultLevel::None => FaultSchedule::none(),
        FaultLevel::Crash => FaultSchedule::generate(&FaultScheduleConfig {
            crashes: 0,
            restarts: 1,
            stragglers: 0,
            ..base
        }),
        FaultLevel::Chaos => FaultSchedule::generate(&FaultScheduleConfig {
            crashes: 1,
            restarts: 1,
            stragglers: 2,
            ..base
        }),
    }
}

/// Runs one cell: builds the workload, applies the mix and budget to the
/// shared environment, runs all three systems, and marks the frontier.
fn run_cell(cell: &ScenarioCell, cfg: &ScenarioConfig) -> Result<CellSnapshot, ScenarioError> {
    // Feeds only `wall_ns`, which `scrub_timings` zeroes.
    #[allow(clippy::disallowed_methods)]
    let started = std::time::Instant::now();
    let spec = MatrixWorkloadSpec {
        generator: cell.generator,
        drift: cell.drift,
        size_gb: cfg.size_gb,
        queries: cfg.queries,
        seed: cfg.seed,
    };
    let w = spec.build().map_err(|source| ScenarioError::Workload {
        cell: format!("{}/{}", cell.generator.name(), cell.drift.name()),
        source,
    })?;

    let mut env = ExpEnv::for_workload(&w, 1.0 / 8.0);
    if cell.generator.is_batch() {
        env = env.warmed(w.queries.len() / 2);
    }

    // The mix rescales the hardware market the whole cluster rents.
    let effective = cell.mix.spec(&env.nash.spec);
    env.nash.spec = effective;
    env.disk = effective.disk;
    env.run.cluster.node_cost_per_hour = effective.cost;

    // Keep the shared read block well under the node disk: the fixed-cluster
    // baselines range-partition at block granularity, and blocks comparable
    // to a whole disk make near-floor packings infeasible.
    env.nash.max_fragment_tuples = env.nash.max_fragment_tuples.min((env.disk / 8).max(1));

    // Fault cells run with the network model on (NIC at 5×, core at 10× the
    // disk rate: mild contention) so crashes interact with transfer traffic;
    // failure-free cells keep the legacy free network and are byte-identical
    // to the committed baseline.
    let faults = cell_faults(cell.faults, &w, &env, cfg.seed);
    if cell.faults != FaultLevel::None {
        env.run.cluster.network = Some(NetConfig {
            nic_tps: 1_000_000,
            core_tps: 2_000_000,
        });
    }

    if cell.budget == BudgetLevel::Tight {
        env.nash.max_replicas = 2;
    }
    let nodes = cell.budget.baseline_nodes(&w, env.disk);
    let systems = [
        System::NashDb { price_mult: 1.0 },
        System::Hypergraph { parts: nodes },
        System::Threshold { nodes },
    ]
    .map(|system| {
        let m = run_system_with_faults(&w, system, Router::MaxOfMins, &env, &faults);
        let cl = m.cost_latency();
        SystemPoint {
            system: system.flag().to_owned(),
            cost: cl.cost,
            mean_latency_secs: cl.mean_latency_secs,
            p99_latency_secs: cl.p99_latency_secs,
            ..SystemPoint::default()
        }
    });
    let mut snapshot = CellSnapshot {
        workload: cell.generator.name().to_owned(),
        drift: cell.drift.name().to_owned(),
        mix: cell.mix.name().to_owned(),
        budget: cell.budget.name().to_owned(),
        faults: cell.faults.name().to_owned(),
        systems: systems.to_vec(),
        wall_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
    };
    snapshot.mark_frontier();
    Ok(snapshot)
}

/// Runs the whole matrix and assembles the artifact.
///
/// Deterministic up to the host wall clock: two runs with the same config
/// produce artifacts that are byte-identical once
/// [`ScenarioArtifact::scrub_timings`] has zeroed it.
///
/// # Errors
/// [`ScenarioError`] if any cell's workload fails to build.
pub fn run_scenarios(cfg: &ScenarioConfig) -> Result<ScenarioArtifact, ScenarioError> {
    let cells = matrix_cells(cfg);
    let mut snapshots = Vec::with_capacity(cells.len());
    for cell in &cells {
        snapshots.push(run_cell(cell, cfg)?);
    }
    Ok(ScenarioArtifact {
        version: SNAPSHOT_VERSION,
        labels: vec![
            ("kind".to_owned(), "scenarios".to_owned()),
            ("seed".to_owned(), cfg.seed.to_string()),
            (
                "scale".to_owned(),
                if cfg.quick { "quick" } else { "full" }.to_owned(),
            ),
            ("size_gb".to_owned(), cfg.size_gb.to_string()),
            ("queries".to_owned(), cfg.queries.to_string()),
        ],
        cells: snapshots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_matrix_covers_the_required_cells() {
        let cells = matrix_cells(&ScenarioConfig::default());
        assert!(cells.len() >= 24, "only {} cells", cells.len());
        // 5 generators × 2 drifts × 2 mixes × 2 budgets failure-free cells,
        // plus the failure axis: 5 generators × 2 fault levels.
        assert_eq!(cells.len(), 50);
        assert_eq!(
            cells
                .iter()
                .filter(|c| c.faults == FaultLevel::None)
                .count(),
            40,
            "legacy failure-free cells must be preserved exactly"
        );
        // Keys are unique.
        let mut keys: Vec<String> = cells
            .iter()
            .map(|c| {
                format!(
                    "{}/{}/{}/{}/{}",
                    c.generator.name(),
                    c.drift.name(),
                    c.mix.name(),
                    c.budget.name(),
                    c.faults.name()
                )
            })
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), cells.len());
    }

    #[test]
    fn uniform_mix_is_the_reference_spec() {
        let reference = NodeSpec::new(3.0, 1_000);
        assert_eq!(NodeMix::Uniform.spec(&reference), reference);
        assert_eq!(
            NodeMix::BudgetHdd.spec(&reference),
            NodeSpec::new(1.5, 2_000)
        );
    }

    #[test]
    fn quick_matrix_is_a_small_corner() {
        let cells = matrix_cells(&ScenarioConfig {
            quick: true,
            ..ScenarioConfig::default()
        });
        assert_eq!(cells.len(), 5);
        assert_eq!(
            cells
                .iter()
                .filter(|c| c.faults != FaultLevel::None)
                .count(),
            1
        );
    }

    #[test]
    fn quick_run_produces_a_valid_artifact() {
        let cfg = ScenarioConfig {
            quick: true,
            queries: 40,
            ..ScenarioConfig::default()
        };
        let art = run_scenarios(&cfg).unwrap();
        assert_eq!(art.cells.len(), 5);
        for cell in &art.cells {
            assert_eq!(cell.systems.len(), 3);
            assert!(cell.wall_ns > 0, "the runner keeps the wall clock");
            assert!(cell.systems.iter().any(|s| s.on_front));
        }
        // The fault cell is keyed with the fifth segment and every system
        // still completed a comparable run in it.
        let fault_cell = art
            .cell("bernoulli/steady/uniform/ample/crash")
            .expect("fault cell missing");
        assert_eq!(fault_cell.systems.len(), 3);
        // Round-trips through the schema validator byte-identically.
        let text = art.to_json_string();
        let parsed = ScenarioArtifact::from_json_str(&text).unwrap();
        assert_eq!(parsed.to_json_string(), text);
    }

    #[test]
    fn keep_timings_keeps_the_wall_clock() {
        let cfg = ScenarioConfig {
            quick: true,
            queries: 40,
            ..ScenarioConfig::default()
        };
        let mut art = run_scenarios(&cfg).unwrap();
        assert!(art.cells.iter().any(|c| c.wall_ns > 0));
        art.scrub_timings();
        assert!(art.cells.iter().all(|c| c.wall_ns == 0));
    }
}
