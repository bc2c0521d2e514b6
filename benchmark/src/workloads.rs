//! The four fixed benchmark workloads. Every input the program under test
//! receives — the [`Workload`], the [`FaultSchedule`] and the two configs —
//! is generated here from the `--seed`; the program never sees the seed.
//!
//! The names are a contract (`BENCHMARK.json`, `HISTORY.jsonl` and every
//! later PR refer to them); the *why* of each is in its doc comment and in
//! `README.md`.

use nashdb::{NashDbConfig, RunConfig};
use nashdb_cluster::{ClusterConfig, NetConfig};
use nashdb_core::economics::NodeSpec;
use nashdb_core::ids::TableId;
use nashdb_sim::fault::{FaultSchedule, FaultScheduleConfig};
use nashdb_sim::{SimDuration, SimTime};
use nashdb_workload::bernoulli::{self, BernoulliConfig};
use nashdb_workload::realistic::{self, DriftConfig};
use nashdb_workload::tpch::{self, TpchConfig};
use nashdb_workload::{Database, Workload};

/// Workload names, in reporting order.
pub const NAMES: [&str; 4] = [
    "steady-route",
    "drift-reconfig",
    "tpch-burst",
    "chaos-faults",
];

/// `--quick` divides every query count (and fault count) by this.
const QUICK_DIVISOR: usize = 20;

/// Queries arriving at the same instant in `tpch-burst` (two rounds of the
/// 22 templates).
const BURST: usize = 44;

/// Everything one run of the program under test consumes.
#[derive(Debug, Clone)]
pub struct Case {
    /// The database and the timed query stream.
    pub workload: Workload,
    /// Faults injected into the cluster sim (empty on three workloads).
    pub faults: FaultSchedule,
    /// Driver configuration.
    pub run: RunConfig,
    /// Distributor configuration.
    pub nash: NashDbConfig,
}

fn cluster(network: Option<NetConfig>) -> ClusterConfig {
    ClusterConfig {
        throughput_tps: 1e6,
        node_cost_per_hour: 100.0,
        network,
        ..ClusterConfig::default()
    }
}

fn scaled(full: usize, quick: bool) -> usize {
    if quick {
        (full / QUICK_DIVISOR).max(1)
    } else {
        full
    }
}

/// Builds the named workload from `seed`, or `None` for an unknown name.
pub fn build(name: &str, seed: u64, quick: bool) -> Option<Case> {
    match name {
        "steady-route" => Some(steady_route(seed, quick)),
        "drift-reconfig" => Some(drift_reconfig(seed, quick)),
        "tpch-burst" => Some(tpch_burst(seed, quick)),
        "chaos-faults" => Some(chaos_faults(seed, quick)),
        _ => None,
    }
}

/// Independent fact tables in `steady-route`.
const STEADY_TABLES: [&str; 4] = ["fact0", "fact1", "fact2", "fact3"];

/// One arrival per batch, 50–100 fragment requests per scan with ~6
/// candidates each (wider than the router's `K_BEST` = 4) on an ~85-node
/// cluster, and only a dozen reconfigurations: the router does most of the
/// work and the fragmenter almost none. A router change must show here and a
/// fragmenter change must not.
///
/// The stream is four independent Bernoulli streams, one per fact table,
/// interleaved. A table's replica counts come from one 50-scan window and
/// then stick (the distributor's hysteresis), so with a single table the
/// whole run inherits that window's luck and host cost and simulated latency
/// swing ±15 % with the seed; four tables average four draws. The fragment
/// cap is low enough to be reached at once for the same reason: under an
/// unreached cap the fragmenter refines a little more at every
/// reconfiguration, at a pace that also depends on the seed.
fn steady_route(seed: u64, quick: bool) -> Case {
    let spacing = SimDuration::from_secs(2);
    let tables = STEADY_TABLES.len() as u64;
    let mut queries = Vec::new();
    let mut sizes = Vec::new();
    for (k, name) in STEADY_TABLES.into_iter().enumerate() {
        let part = bernoulli::workload(&BernoulliConfig {
            size_gb: 64,
            queries: scaled(30_000, quick) / STEADY_TABLES.len(),
            spacing: spacing * tables,
            price: 64.0,
            seed: seed.wrapping_mul(tables).wrapping_add(k as u64),
        });
        sizes.push((name, part.db.tables[0].tuples));
        for mut tq in part.queries {
            tq.at += spacing * k as u64;
            for scan in &mut tq.query.scans {
                scan.table = TableId(k as u64);
            }
            queries.push(tq);
        }
    }
    queries.sort_by_key(|tq| tq.at);
    let workload = Workload {
        name: "bernoulli-4x64gb".to_owned(),
        db: Database::new(sizes),
        queries,
    }
    .validated();
    Case {
        workload,
        faults: FaultSchedule::none(),
        run: RunConfig {
            cluster: cluster(None),
            reconfig_interval: SimDuration::from_secs(4 * 3600),
            warmup_queries: 50 * STEADY_TABLES.len(),
            ..RunConfig::default()
        },
        nash: NashDbConfig {
            spec: NodeSpec::new(100.0, 4_000_000),
            max_frags_per_table: 128,
            ..NashDbConfig::default()
        },
    }
}

/// The hot spot keeps moving and the cluster reconfigures every ten
/// queries, so greedy refragmentation, Eq. 9, incremental placement,
/// `node_intervals` and the Hungarian plan dominate and routing sees ~1
/// candidate per request: the mirror image of `steady-route`.
fn drift_reconfig(seed: u64, quick: bool) -> Case {
    let queries = scaled(3_000, quick);
    let mut workload = realistic::drifting(&DriftConfig {
        size_gb: 160.0,
        queries,
        duration: SimDuration::from_secs(30) * queries as u64,
        sweep_turns: 3.0,
        wobble: 0.08,
        seed,
    });
    for tq in &mut workload.queries {
        tq.query.price = 128.0;
    }
    Case {
        workload,
        faults: FaultSchedule::none(),
        run: RunConfig {
            cluster: cluster(None),
            reconfig_interval: SimDuration::from_secs(300),
            ..RunConfig::default()
        },
        nash: NashDbConfig {
            spec: NodeSpec::new(100.0, 4_000_000),
            max_frags_per_table: 512,
            ..NashDbConfig::default()
        },
    }
}

/// TPC-H re-timed into bursts of 44 coincident arrivals every 240 s: the
/// same router and sim used differently. `take_coincident_arrivals` yields
/// real batches so `route_batch` runs with 44 scans × ~170 requests but
/// short candidate lists, eight tables fan the fragmenter out over
/// `nashdb-par`, and ~170 reads per query make the sim a third of the wall.
/// A single-scan routing win that costs the batch path, or a router win paid
/// for in the sim, shows here.
fn tpch_burst(seed: u64, quick: bool) -> Case {
    let mut workload = tpch::workload(&TpchConfig {
        size_gb: 160,
        rounds: scaled(900, quick),
        price: 64.0,
        seed,
        ..TpchConfig::default()
    });
    for (i, tq) in workload.queries.iter_mut().enumerate() {
        tq.at = SimTime::ZERO + SimDuration::from_secs(240) * (i / BURST) as u64;
    }
    Case {
        workload,
        faults: FaultSchedule::none(),
        run: RunConfig {
            cluster: cluster(None),
            reconfig_interval: SimDuration::from_secs(3600),
            warmup_queries: BURST,
            ..RunConfig::default()
        },
        nash: NashDbConfig {
            spec: NodeSpec::new(100.0, 2_000_000),
            max_frags_per_table: 128,
            ..NashDbConfig::default()
        },
    }
}

/// The only workload with faults: crash-restarts and straggler windows on a
/// 32-slot cluster behind the shared-link network, so liveness filtering,
/// retry routing, crash epochs and the network model run beside normal
/// traffic. A speed-up that drops queries or breaks conservation is caught
/// here.
fn chaos_faults(seed: u64, quick: bool) -> Case {
    let queries = scaled(31_000, quick);
    let spacing = SimDuration::from_secs(3);
    let workload = bernoulli::workload(&BernoulliConfig {
        size_gb: 12,
        queries,
        spacing,
        price: 128.0,
        seed,
    });
    let faults = FaultSchedule::generate(&FaultScheduleConfig {
        seed,
        horizon: spacing * queries as u64,
        nodes: 32,
        crashes: 0,
        restarts: scaled(1_900, quick),
        stragglers: scaled(90, quick),
        down_for: SimDuration::from_secs(30),
        straggle_for: SimDuration::from_secs(30),
        slowdown: 4.0,
    });
    Case {
        workload,
        faults,
        run: RunConfig {
            cluster: cluster(Some(NetConfig {
                nic_tps: 5_000_000,
                core_tps: 10_000_000,
            })),
            reconfig_interval: SimDuration::from_secs(900),
            warmup_queries: 50,
            ..RunConfig::default()
        },
        nash: NashDbConfig {
            spec: NodeSpec::new(100.0, 2_000_000),
            max_frags_per_table: 64,
            ..NashDbConfig::default()
        },
    }
}
