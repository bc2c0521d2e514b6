//! Driver-level observability coverage: a full pipeline run under an
//! `ObsSession` must leave at least one metric from every stage, with a
//! well-formed span hierarchy, and serialize through the snapshot schema.

use nashdb::{run_workload, NashDbConfig, NashDbDistributor, RunConfig};
use nashdb_cluster::ClusterConfig;
use nashdb_core::economics::NodeSpec;
use nashdb_core::routing::MaxOfMins;
use nashdb_obs::{ObsSession, ObsSnapshot};
use nashdb_sim::SimDuration;
use nashdb_workload::bernoulli::{workload as bernoulli, BernoulliConfig};
use nashdb_workload::tpch::{workload as tpch, TpchConfig};
use nashdb_workload::Workload;

/// One metric-name prefix per pipeline stage.
const STAGES: &[&str] = &[
    "value_tree.",
    "fragment.",
    "replication.",
    "packing.",
    "transition.",
    "routing.",
    "cluster.",
];

fn run_under_session() -> ObsSnapshot {
    session_over(&bernoulli(&BernoulliConfig {
        size_gb: 2,
        queries: 80,
        spacing: SimDuration::from_secs(10),
        ..BernoulliConfig::default()
    }))
}

fn session_over(w: &Workload) -> ObsSnapshot {
    let run = RunConfig {
        cluster: ClusterConfig {
            throughput_tps: 1_000_000.0,
            node_cost_per_hour: 100.0,
            metrics_bucket: SimDuration::from_secs(600),
            network: None,
        },
        reconfig_interval: SimDuration::from_secs(300),
        ..RunConfig::default()
    };
    let cfg = NashDbConfig {
        spec: NodeSpec::new(100.0, 2_000_000),
        max_frags_per_table: 16,
        ..NashDbConfig::default()
    };
    let session = ObsSession::start();
    let mut nash = NashDbDistributor::new(&w.db, cfg);
    let m = run_workload(w, &mut nash, &MaxOfMins::new(run.phi_tuples()), &run);
    assert_eq!(m.queries.len(), w.queries.len(), "workload must complete");
    session.finish()
}

/// DESIGN.md §9.1 reads a span's self time as `total − child`, which holds
/// only if `child_ns` is exactly what its direct children took — on every
/// path, leaves included (no children, no child time).
fn assert_child_time_is_the_direct_childrens_total(snap: &ObsSnapshot) {
    for parent in &snap.spans {
        let below = format!("{}/", parent.path);
        let children: u64 = snap
            .spans
            .iter()
            .filter(|s| {
                s.path
                    .strip_prefix(&below)
                    .is_some_and(|rest| !rest.contains('/'))
            })
            .map(|s| s.total_ns)
            .sum();
        assert_eq!(parent.child_ns, children, "span {}", parent.path);
    }
}

#[test]
fn every_pipeline_stage_emits_at_least_one_metric() {
    let snap = run_under_session();
    let missing = snap.missing_stages(STAGES);
    assert!(missing.is_empty(), "stages without metrics: {missing:?}");
    // Spot-check one concrete metric per stage, so a rename that keeps the
    // prefix but loses the signal still fails loudly.
    for name in [
        "value_tree.inserts",
        "fragment.greedy_runs",
        "replication.decisions",
        "packing.placements",
        "transition.plans",
        "routing.scans_routed",
        "cluster.queries_completed",
    ] {
        assert!(
            snap.counter(name).is_some_and(|v| v > 0),
            "expected counter {name} > 0"
        );
    }
}

#[test]
fn driver_spans_nest_and_account() {
    let snap = run_under_session();
    let pipeline = snap.span("pipeline").expect("root span");
    assert_eq!(pipeline.count, 1);
    // Direct children of the root must fit inside it.
    let child_total: u64 = [
        "pipeline/provision",
        "pipeline/query",
        "pipeline/reconfigure",
    ]
    .iter()
    .filter_map(|p| snap.span(p))
    .map(|s| s.total_ns)
    .sum();
    assert!(
        child_total <= pipeline.total_ns,
        "children ({child_total} ns) exceed root ({} ns)",
        pipeline.total_ns
    );
    // The per-query span fired once per query, and its route child too.
    let query = snap.span("pipeline/query").expect("query span");
    assert_eq!(query.count, 80);
    let route = snap.span("pipeline/query/route").expect("route span");
    assert_eq!(route.count, 80);
    assert_child_time_is_the_direct_childrens_total(&snap);
}

/// The same partition over eight tables: `fragment` opens one
/// `value_chunks` child per table and must be charged for all of them.
#[test]
fn multi_table_spans_account_for_every_child() {
    let snap = session_over(&tpch(&TpchConfig {
        size_gb: 5,
        rounds: 2,
        ..TpchConfig::default()
    }));
    let fragment = "pipeline/provision/scheme/fragment";
    let chunks = snap
        .span(&format!("{fragment}/value_chunks"))
        .expect("value_chunks span");
    let tables = 8 * snap.span(fragment).expect("fragment span").count;
    assert_eq!(chunks.count, tables);
    assert_child_time_is_the_direct_childrens_total(&snap);
}

/// Two same-seed driver runs must leave byte-identical scrubbed snapshots:
/// every counter, histogram, and span count is a pure function of the seed.
#[test]
fn same_seed_runs_leave_byte_identical_scrubbed_snapshots() {
    let snapshot = || {
        let mut snap = run_under_session();
        snap.scrub_timings();
        snap.to_json_string()
    };
    assert_eq!(snapshot(), snapshot());
}

#[test]
fn snapshot_round_trips_through_schema() {
    let mut snap = run_under_session();
    snap.scrub_timings();
    let json = snap.to_json_string();
    let parsed = ObsSnapshot::from_json_str(&json).expect("schema-valid");
    assert_eq!(parsed, snap);
    assert_eq!(parsed.to_json_string(), json);
}
