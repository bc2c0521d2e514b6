//! Shared experiment environments and sweep helpers.
//!
//! Every comparison experiment runs all systems on the identical simulated
//! substrate. The NashDB node economics are autotuned per workload: node
//! rent is set so that, at price 1, the hottest fragments earn on the order
//! of [`TARGET_REPLICAS`] replicas — mirroring how the paper's operators
//! would have sized `Cost/Disk` against their query prices.

use nashdb::{run_workload_with_faults, NashDbConfig, NashDbDistributor, RunConfig, ScanRouter};
use nashdb_baselines::{
    GreedySetCover, HypergraphDistributor, ShortestQueue, ThresholdDistributor,
};
use nashdb_cluster::{ClusterConfig, Metrics};
use nashdb_core::economics::NodeSpec;
use nashdb_core::num::{saturating_u64, usize_from};
use nashdb_core::routing::{MaxOfMins, PowerOfTwoChoices};
use nashdb_sim::fault::FaultSchedule;
use nashdb_sim::SimDuration;
use nashdb_workload::Workload;

/// Scan window size used throughout the experiments (paper §10: 50).
pub const WINDOW: usize = 50;

/// Replicas the hottest fragment should earn at price 1 under the autotuned
/// node rent.
pub const TARGET_REPLICAS: f64 = 16.0;

/// One experiment environment: everything needed to run any system on one
/// workload.
#[derive(Debug, Clone, Copy)]
pub struct ExpEnv {
    /// Driver/cluster parameters.
    pub run: RunConfig,
    /// NashDB configuration (economics autotuned).
    pub nash: NashDbConfig,
    /// Node disk capacity in tuples (shared by all systems).
    pub disk: u64,
}

impl ExpEnv {
    /// Builds the environment for a workload: disk sized to `disk_frac` of
    /// the database, rent autotuned to its mean scan size.
    pub fn for_workload(w: &Workload, disk_frac: f64) -> ExpEnv {
        let total = w.db.total_tuples();
        let largest = w.db.fact_table().tuples;
        // Nodes must be able to host a balanced share but not the world.
        let disk = saturating_u64(total as f64 * disk_frac)
            .max(largest / 16)
            .max(1_000);

        // Measure the workload's peak per-tuple value V̄ by replaying it
        // through the estimator (sampled), then set the rent so the hottest
        // fragment's Ideal(f) = |W| · V̄ · Disk / Cost lands on the target.
        // (A mean-based estimate badly underestimates V̄: per-tuple scan
        // weight is price/size and E[1/size] is dominated by small scans.)
        let mut estimators: Vec<nashdb_core::value::TupleValueEstimator> =
            w.db.tables
                .iter()
                .map(|_| nashdb_core::value::TupleValueEstimator::new(WINDOW))
                .collect();
        let mut pool: Vec<(u64, f64)> = Vec::new(); // (tuples, value) samples
        let sample_every = (w.queries.len() / 40).max(1);
        let steady = w.queries.len() / 2;
        // Matches the distributor's block-floored income (see
        // NashDbDistributor::observe) so calibration sees the same V.
        let replay_block = saturating_u64(200_000.0 * 10.0);
        for (i, tq) in w.queries.iter().enumerate() {
            let total: u64 = tq.query.scans.iter().map(|s| s.size()).sum();
            for s in &tq.query.scans {
                let t = usize_from(s.table.get());
                let end = s.end.min(w.db.tables[t].tuples);
                if s.start < end && total > 0 {
                    let size = end - s.start;
                    let effective = size.max(replay_block.min(w.db.tables[t].tuples));
                    let price = tq.query.price * s.size() as f64 / total as f64
                        * (size as f64 / effective as f64);
                    estimators[t].observe(nashdb_core::value::PricedScan::new(s.start, end, price));
                }
            }
            if i >= steady && (i % sample_every == 0 || i + 1 == w.queries.len()) {
                for (t, est) in estimators.iter().enumerate() {
                    for c in est.chunks(w.db.tables[t].tuples) {
                        if c.value > 0.0 {
                            pool.push((c.len(), c.value));
                        }
                    }
                }
            }
        }
        // Calibrate against the tuple-weighted 99th-percentile value rather
        // than the peak: per-tuple value is the scan's price/size, so tiny
        // scans create value spikes orders of magnitude above the bulk, and
        // pinning the *peak* to the target would starve the bulk-read
        // regions at one replica.
        pool.sort_by(|a, b| a.1.total_cmp(&b.1));
        let total_tuples: u64 = pool.iter().map(|&(n, _)| n).sum();
        let mut cum = 0u64;
        let mut v_ref = pool.last().map_or(0.0, |&(_, v)| v);
        for &(n, v) in &pool {
            cum = cum.saturating_add(n);
            if cum as f64 >= 0.99 * total_tuples as f64 {
                v_ref = v;
                break;
            }
        }
        let cost = (WINDOW as f64 * v_ref * disk as f64 / TARGET_REPLICAS).max(1e-6);

        let cluster = ClusterConfig {
            throughput_tps: 200_000.0, // ≈200 MB/s sequential scan
            node_cost_per_hour: cost,
            metrics_bucket: SimDuration::from_secs(60),
            network: None,
        };
        // Read-block cap: a single fragment read should take ~10 s of disk
        // time, as with block-sized fragments in the paper (fragments are
        // both the replica unit and the read unit).
        let block = saturating_u64(cluster.throughput_tps * 10.0);
        ExpEnv {
            run: RunConfig {
                cluster,
                reconfig_interval: SimDuration::from_secs(3600),
                phi: SimDuration::from_millis(350),
                warmup_queries: 0,
            },
            nash: NashDbConfig {
                window: WINDOW,
                spec: NodeSpec::new(cost, disk),
                max_frags_per_table: 48,
                greedy_rounds: 2,
                max_replicas: 256,
                max_fragment_tuples: block,
                refrag_sensitivity: 0.05,
            },
            disk,
        }
    }

    /// The read-block size (max fragment tuples) in force.
    pub fn block(&self) -> u64 {
        self.nash.max_fragment_tuples
    }

    /// Same environment with warmup (static batch workloads).
    pub fn warmed(mut self, queries: usize) -> Self {
        self.run.warmup_queries = queries;
        self
    }

    /// ϕ in tuples for the Max-of-mins router.
    pub fn phi_tuples(&self) -> u64 {
        self.run.phi_tuples()
    }
}

/// A system under evaluation in the sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum System {
    /// NashDB at a price multiplier (its tuning knob: query priority).
    NashDb {
        /// Factor applied to every query price.
        price_mult: f64,
    },
    /// SWORD-like hypergraph partitioning with `parts` partitions.
    Hypergraph {
        /// Partition (= primary node) count.
        parts: usize,
    },
    /// E-Store-like threshold distribution over `nodes` nodes.
    Threshold {
        /// Fixed cluster size.
        nodes: usize,
    },
}

impl System {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            System::NashDb { .. } => "NashDB",
            System::Hypergraph { .. } => "Hypergraph",
            System::Threshold { .. } => "Threshold",
        }
    }

    /// Stable machine-readable name: the `nashdb-cli --system` value and
    /// the scenario artifact's system key.
    pub fn flag(&self) -> &'static str {
        match self {
            System::NashDb { .. } => "nashdb",
            System::Hypergraph { .. } => "hypergraph",
            System::Threshold { .. } => "threshold",
        }
    }

    /// The tuning-knob value, for table rows.
    pub fn param(&self) -> f64 {
        match *self {
            System::NashDb { price_mult } => price_mult,
            System::Hypergraph { parts } => parts as f64,
            System::Threshold { nodes } => nodes as f64,
        }
    }
}

/// A router choice for the sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Router {
    /// NashDB's Max-of-mins (Eq. 11).
    MaxOfMins,
    /// Shortest-queue load balancing.
    ShortestQueue,
    /// Greedy set-cover span minimization.
    GreedySetCover,
    /// The paper's footnote-3 Power-of-2 choices, seeded.
    PowerOfTwo {
        /// Seed of the router's candidate sampling.
        seed: u64,
    },
}

impl Router {
    /// Every router, Power-of-2 seeded with `seed`.
    pub fn all(seed: u64) -> [Router; 4] {
        [
            Router::MaxOfMins,
            Router::ShortestQueue,
            Router::GreedySetCover,
            Router::PowerOfTwo { seed },
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Router::MaxOfMins => "Max of mins",
            Router::ShortestQueue => "Shortest queue",
            Router::GreedySetCover => "Greedy SC",
            Router::PowerOfTwo { .. } => "Power of 2",
        }
    }

    /// The `nashdb-cli --router` value.
    pub fn flag(&self) -> &'static str {
        match self {
            Router::MaxOfMins => "max-of-mins",
            Router::ShortestQueue => "shortest-queue",
            Router::GreedySetCover => "greedy-sc",
            Router::PowerOfTwo { .. } => "power-of-two",
        }
    }
}

/// Scales every query price by `mult` (NashDB's tuning knob).
pub fn with_price_mult(w: &Workload, mult: f64) -> Workload {
    let mut w = w.clone();
    for q in &mut w.queries {
        q.query.price *= mult;
    }
    w
}

/// Runs `system` × `router` on `workload` under `env`, returning metrics.
pub fn run_system(workload: &Workload, system: System, router: Router, env: &ExpEnv) -> Metrics {
    run_system_with_faults(workload, system, router, env, &FaultSchedule::none())
}

/// [`run_system`] with a seeded fault schedule injected into the cluster
/// sim — every system faces the identical crashes and stragglers, so the
/// availability comparison is apples to apples.
pub fn run_system_with_faults(
    workload: &Workload,
    system: System,
    router: Router,
    env: &ExpEnv,
    faults: &FaultSchedule,
) -> Metrics {
    let routed: Box<dyn ScanRouter> = match router {
        Router::MaxOfMins => Box::new(MaxOfMins::new(env.phi_tuples())),
        Router::ShortestQueue => Box::new(ShortestQueue),
        Router::GreedySetCover => Box::new(GreedySetCover),
        Router::PowerOfTwo { seed } => Box::new(PowerOfTwoChoices::new(env.phi_tuples(), seed)),
    };
    match system {
        System::NashDb { price_mult } => {
            let w = if (price_mult - 1.0).abs() < 1e-12 {
                workload.clone()
            } else {
                with_price_mult(workload, price_mult)
            };
            let mut dist = NashDbDistributor::new(&w.db, env.nash);
            run_workload_with_faults(&w, &mut dist, routed.as_ref(), &env.run, faults)
        }
        System::Hypergraph { parts } => {
            let mut dist = HypergraphDistributor::new(&workload.db, parts, env.disk, WINDOW)
                .with_block(env.block());
            run_workload_with_faults(workload, &mut dist, routed.as_ref(), &env.run, faults)
        }
        System::Threshold { nodes } => {
            let mut dist = ThresholdDistributor::new(&workload.db, nodes, env.disk, WINDOW)
                .with_block(env.block());
            run_workload_with_faults(workload, &mut dist, routed.as_ref(), &env.run, faults)
        }
    }
}

/// Minimum node count that can hold one copy of the database on
/// `disk`-tuple nodes (Threshold's feasibility floor).
pub fn min_nodes(w: &Workload, disk: u64) -> usize {
    usize_from(w.db.total_tuples().div_ceil(disk)) + 1
}
