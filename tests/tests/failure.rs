//! Failure-injection integration coverage: the driver must re-route around
//! crashed replicas, account every query exactly once (completed or
//! abandoned, never lost or double-counted), and stay byte-for-byte
//! deterministic under seeded fault schedules — the same snapshot contract
//! every fault-free run honours.

use std::collections::BTreeSet;

use proptest::prelude::*;

use nashdb::{
    run_workload_with_faults, DistScheme, Distributor, GlobalFragment, NashDbConfig,
    NashDbDistributor, RunConfig,
};
use nashdb_cluster::{ClusterConfig, Metrics, NetConfig, QueryRequest, ScanRange};
use nashdb_core::economics::NodeSpec;
use nashdb_core::fragment::FragmentRange;
use nashdb_core::ids::TableId;
use nashdb_core::routing::MaxOfMins;
use nashdb_obs::{Metric, ObsSession, ObsSnapshot};
use nashdb_sim::{FaultEvent, FaultKind, FaultSchedule, FaultScheduleConfig, SimDuration, SimTime};
use nashdb_workload::bernoulli::{workload as bernoulli, BernoulliConfig};
use nashdb_workload::{Database, TimedQuery, Workload};

/// A distributor that always wants the same hand-built scheme — the fixture
/// for testing the *driver's* failure handling in isolation from the
/// economics.
struct FixedDistributor {
    scheme: DistScheme,
}

impl Distributor for FixedDistributor {
    fn observe(&mut self, _query: &QueryRequest) {}

    fn scheme(&mut self) -> DistScheme {
        self.scheme.clone()
    }

    fn name(&self) -> &'static str {
        "fixed"
    }
}

/// One 1M-tuple table split into four 250k fragments, each hosted on two of
/// three nodes — every fragment survives any single-node crash.
fn replicated_scheme(db: &Database) -> DistScheme {
    let tuples = db.tables[0].tuples;
    let quarter = tuples / 4;
    let fragments: Vec<GlobalFragment> = (0..4)
        .map(|i| GlobalFragment {
            table: TableId(0),
            range: FragmentRange::new(i * quarter, (i + 1) * quarter),
        })
        .collect();
    // Hosts: frag0 {0,1}, frag1 {1,2}, frag2 {2,0}, frag3 {0,1}.
    DistScheme::new(fragments, &[vec![0, 2, 3], vec![0, 1, 3], vec![1, 2]])
}

fn run_config(network: Option<NetConfig>) -> RunConfig {
    RunConfig {
        cluster: ClusterConfig {
            throughput_tps: 1_000_000.0,
            node_cost_per_hour: 100.0,
            metrics_bucket: SimDuration::from_secs(600),
            network,
        },
        reconfig_interval: SimDuration::from_secs(3600),
        phi: SimDuration::from_millis(350),
        warmup_queries: 0,
    }
}

fn scan_query(start: u64, end: u64) -> QueryRequest {
    QueryRequest {
        price: 1.0,
        scans: vec![ScanRange::new(TableId(0), start, end)],
        tag: 0,
    }
}

/// Every completed query appears exactly once, with a sane time range.
fn assert_records_well_formed(m: &Metrics) {
    let ids: BTreeSet<_> = m.queries.iter().map(|r| r.id).collect();
    assert_eq!(ids.len(), m.queries.len(), "duplicate QueryRecord ids");
    for r in &m.queries {
        assert!(
            r.completion >= r.arrival,
            "completion before arrival: {r:?}"
        );
    }
}

#[test]
fn driver_reroutes_around_a_single_node_crash() {
    let db = Database::new([("t", 1_000_000)]);
    // A burst of 300 identical scans of fragment 1 (hosted on nodes 1 and
    // 2): both replicas build deep queues, so node 1 is guaranteed to hold
    // in-flight work when it dies.
    let queries: Vec<TimedQuery> = (0..300)
        .map(|_| TimedQuery {
            at: SimTime::from_secs(0),
            query: scan_query(250_000, 500_000),
        })
        .collect();
    let w = Workload {
        name: "crash-burst".into(),
        db: db.clone(),
        queries,
    }
    .validated();

    let faults = FaultSchedule::from_events(vec![FaultEvent {
        at: SimTime::from_secs(10),
        node: 1,
        kind: FaultKind::Crash,
    }]);
    let mut dist = FixedDistributor {
        scheme: replicated_scheme(&db),
    };
    let run = run_config(Some(NetConfig {
        nic_tps: 100_000_000,
        core_tps: 200_000_000,
    }));
    let m = run_workload_with_faults(
        &w,
        &mut dist,
        &MaxOfMins::new(run.phi_tuples()),
        &run,
        &faults,
    );

    // Acceptance: ≥ 99% completion by re-routing to the surviving replica.
    assert!(
        m.queries.len() as f64 >= 0.99 * 300.0,
        "only {}/300 queries completed under a single-node crash",
        m.queries.len()
    );
    assert_eq!(
        m.availability.queries_abandoned, 0,
        "fragment 1 never lost its last replica"
    );
    assert_eq!(m.queries.len(), 300);
    assert_eq!(m.availability.node_crashes, 1);
    assert!(
        m.availability.queries_failed > 0,
        "node 1 held queued work at the crash; some attempts must fail"
    );
    assert!(
        m.availability.queries_retried >= m.availability.queries_failed,
        "every failed query had a live replica to retry on"
    );
    assert_records_well_formed(&m);
}

#[test]
fn losing_the_last_replica_abandons_cleanly() {
    let db = Database::new([("t", 1_000_000)]);
    // Two single-replica fragments; every query reads fragment 0, which
    // lives only on node 0.
    let fragments = vec![
        GlobalFragment {
            table: TableId(0),
            range: FragmentRange::new(0, 500_000),
        },
        GlobalFragment {
            table: TableId(0),
            range: FragmentRange::new(500_000, 1_000_000),
        },
    ];
    let scheme = DistScheme::new(fragments, &[vec![0], vec![1]]);
    let queries: Vec<TimedQuery> = (0..50)
        .map(|i| TimedQuery {
            at: SimTime::from_secs(i),
            query: scan_query(0, 500_000),
        })
        .collect();
    let w = Workload {
        name: "last-replica".into(),
        db,
        queries,
    }
    .validated();

    // Crash node 0 mid-service of the query that arrived at t = 10.
    let faults = FaultSchedule::from_events(vec![FaultEvent {
        at: SimTime::from_secs(10) + SimDuration::from_millis(250),
        node: 0,
        kind: FaultKind::Crash,
    }]);
    let mut dist = FixedDistributor { scheme };
    let run = run_config(None);
    let m = run_workload_with_faults(
        &w,
        &mut dist,
        &MaxOfMins::new(run.phi_tuples()),
        &run,
        &faults,
    );

    // Conservation: every query is completed or abandoned, never lost.
    assert_eq!(
        m.queries.len() as u64 + m.availability.queries_abandoned,
        50,
        "queries lost or double-counted: {} completed, {} abandoned",
        m.queries.len(),
        m.availability.queries_abandoned
    );
    assert_eq!(m.queries.len(), 10, "only the pre-crash queries complete");
    assert!(
        m.availability.queries_failed >= 1,
        "the in-flight query at the crash must fail"
    );
    assert_eq!(m.availability.queries_retried, 0, "nowhere to retry to");
    assert_records_well_formed(&m);
}

/// A full NashDB pipeline run under an `ObsSession`, with a seeded chaos
/// schedule (crash + restart + straggler) and the network model enabled.
fn nashdb_run_under_faults(seed: u64) -> (ObsSnapshot, usize, u64) {
    let w = bernoulli(&BernoulliConfig {
        size_gb: 2,
        queries: 80,
        spacing: SimDuration::from_secs(10),
        ..BernoulliConfig::default()
    });
    let run = run_config(Some(NetConfig {
        nic_tps: 50_000_000,
        core_tps: 100_000_000,
    }));
    let run = RunConfig {
        reconfig_interval: SimDuration::from_secs(300),
        ..run
    };
    let cfg = NashDbConfig {
        spec: NodeSpec::new(100.0, 2_000_000),
        max_frags_per_table: 16,
        ..NashDbConfig::default()
    };
    let faults = FaultSchedule::generate(&FaultScheduleConfig {
        seed,
        horizon: SimDuration::from_secs(800),
        nodes: 4,
        crashes: 1,
        restarts: 1,
        stragglers: 1,
        down_for: SimDuration::from_secs(60),
        slowdown: 3.0,
        straggle_for: SimDuration::from_secs(60),
    });
    let session = ObsSession::start();
    let mut nash = NashDbDistributor::new(&w.db, cfg);
    let m = run_workload_with_faults(
        &w,
        &mut nash,
        &MaxOfMins::new(run.phi_tuples()),
        &run,
        &faults,
    );
    assert_eq!(
        m.queries.len() as u64 + m.availability.queries_abandoned,
        80,
        "conservation under chaos schedule"
    );
    assert!(
        m.availability.node_crashes + m.availability.faults_skipped >= 1,
        "the schedule must have been consumed"
    );
    assert_records_well_formed(&m);
    let mut snap = session.finish();
    // Each availability counter moves with its `cluster.*` obs counter; a
    // counter never bumped is absent from the snapshot.
    let a = m.availability;
    let pairs = [
        (Metric::ClusterFaultsSkipped, a.faults_skipped),
        (Metric::ClusterJobsLost, a.jobs_lost),
        (Metric::ClusterNodeCrashes, a.node_crashes),
        (Metric::ClusterNodeRestarts, a.node_restarts),
        (Metric::ClusterQueriesAbandoned, a.queries_abandoned),
        (Metric::ClusterQueriesFailed, a.queries_failed),
        (Metric::ClusterQueriesRetried, a.queries_retried),
        (Metric::ClusterReadsWasted, a.reads_wasted),
        (Metric::ClusterTuplesLost, a.tuples_lost),
    ];
    for (metric, field) in pairs {
        assert_eq!(
            snap.counter(metric).unwrap_or(0),
            field,
            "{}",
            metric.name()
        );
    }
    let degraded_ms = a.degraded.as_millis() as f64;
    assert_eq!(snap.gauge(Metric::ClusterDegradedMs), Some(degraded_ms));
    snap.scrub_timings();
    (snap, m.queries.len(), m.availability.queries_abandoned)
}

#[test]
fn same_fault_schedule_gives_byte_identical_snapshots() {
    let (a, completed_a, abandoned_a) = nashdb_run_under_faults(11);
    let (b, completed_b, abandoned_b) = nashdb_run_under_faults(11);
    assert_eq!(completed_a, completed_b);
    assert_eq!(abandoned_a, abandoned_b);
    assert_eq!(
        a.to_json_string(),
        b.to_json_string(),
        "same seed must give byte-identical scrubbed snapshots"
    );
    // And the snapshot round-trips through the schema like any other.
    let parsed = ObsSnapshot::from_json_str(&a.to_json_string()).expect("schema-valid");
    assert_eq!(parsed, a);
}

// ---------------------------------------------------------------------------
// Property: conservation and determinism hold for *any* bounded schedule.
// ---------------------------------------------------------------------------

fn run_fixed_under(faults: &FaultSchedule) -> Metrics {
    let db = Database::new([("t", 1_000_000)]);
    let quarter = 250_000u64;
    let queries: Vec<TimedQuery> = (0..60)
        .map(|i| {
            let f = i % 4;
            TimedQuery {
                at: SimTime::from_secs(i),
                query: scan_query(f * quarter, (f + 1) * quarter),
            }
        })
        .collect();
    let w = Workload {
        name: "prop-faults".into(),
        db: db.clone(),
        queries,
    }
    .validated();
    let mut dist = FixedDistributor {
        scheme: replicated_scheme(&db),
    };
    let run = run_config(Some(NetConfig {
        nic_tps: 100_000_000,
        core_tps: 200_000_000,
    }));
    run_workload_with_faults(
        &w,
        &mut dist,
        &MaxOfMins::new(run.phi_tuples()),
        &run,
        faults,
    )
}

proptest! {
    /// Whatever the schedule throws at the cluster — up to two crashes, two
    /// restarts, and two straggler windows on three nodes — every query is
    /// accounted exactly once and a replay is identical.
    #[test]
    fn any_bounded_schedule_conserves_queries(
        seed in 0u64..1_000_000,
        crashes in 0usize..=2,
        restarts in 0usize..=2,
        stragglers in 0usize..=2,
    ) {
        let faults = FaultSchedule::generate(&FaultScheduleConfig {
            seed,
            horizon: SimDuration::from_secs(60),
            nodes: 3,
            crashes,
            restarts,
            stragglers,
            down_for: SimDuration::from_secs(10),
            slowdown: 4.0,
            straggle_for: SimDuration::from_secs(10),
        });
        let m = run_fixed_under(&faults);
        prop_assert_eq!(
            m.queries.len() as u64 + m.availability.queries_abandoned,
            60,
            "lost or double-counted queries"
        );
        prop_assert!(m.availability.queries_retried <= m.availability.queries_failed);
        let ids: BTreeSet<_> = m.queries.iter().map(|r| r.id).collect();
        prop_assert_eq!(ids.len(), m.queries.len(), "duplicate QueryRecord ids");

        let again = run_fixed_under(&faults);
        prop_assert_eq!(again.queries.len(), m.queries.len());
        prop_assert_eq!(again.availability, m.availability);
        prop_assert_eq!(again.total_cost.to_bits(), m.total_cost.to_bits());
    }
}
