//! Driver-level observability coverage: a full pipeline run under an
//! `ObsSession` must leave at least one metric from every stage, with a
//! well-formed span hierarchy, and serialize through the snapshot schema.

use nashdb::{run_workload, NashDbConfig, NashDbDistributor, RunConfig};
use nashdb_cluster::ClusterConfig;
use nashdb_core::economics::NodeSpec;
use nashdb_core::routing::MaxOfMins;
use nashdb_obs::Span::{
    Distributor, Pipeline, Provision, Query, Reconfigure, Route, Scheme, ValueChunks,
};
use nashdb_obs::{Metric, ObsSession, ObsSnapshot, Span};
use nashdb_sim::SimDuration;
use nashdb_workload::bernoulli::{workload as bernoulli, BernoulliConfig};
use nashdb_workload::tpch::{workload as tpch, TpchConfig};
use nashdb_workload::Workload;

/// The metrics a fault-free, fully routable run of valid queries never
/// records: crash and retry bookkeeping, rejected queries and unroutable
/// scans. Every other [`Metric`] must
/// appear, in debug and release builds alike.
const QUIET: &[Metric] = &[
    Metric::ClusterDispatchRejected,
    Metric::ClusterFaultsSkipped,
    Metric::ClusterJobsLost,
    Metric::ClusterNodeCrashes,
    Metric::ClusterNodeRestarts,
    Metric::ClusterPlansRejected,
    Metric::ClusterQueriesAbandoned,
    Metric::ClusterQueriesFailed,
    Metric::ClusterQueriesRejected,
    Metric::ClusterQueriesRetried,
    Metric::ClusterReadsWasted,
    Metric::ClusterTuplesLost,
    Metric::RoutingUnroutableScans,
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
    let missing = snap.missing_stages();
    assert!(missing.is_empty(), "stages without metrics: {missing:?}");
    // Stage coverage is coarse: check every metric, so one that stops
    // firing (or starts firing where it should not) fails by name.
    for &metric in Metric::ALL {
        let emitted = snap.counter(metric).is_some()
            || snap.gauge(metric).is_some()
            || snap.histogram(metric).is_some();
        assert_eq!(emitted, !QUIET.contains(&metric), "{}", metric.name());
    }
}

#[test]
fn driver_spans_nest_and_account() {
    let snap = run_under_session();
    let pipeline = snap.span(&[Pipeline]).expect("root span");
    assert_eq!(pipeline.count, 1);
    // Direct children of the root must fit inside it.
    let child_total: u64 = [Provision, Query, Reconfigure]
        .iter()
        .filter_map(|&child| snap.span(&[Pipeline, child]))
        .map(|s| s.total_ns)
        .sum();
    assert!(
        child_total <= pipeline.total_ns,
        "children ({child_total} ns) exceed root ({} ns)",
        pipeline.total_ns
    );
    // The per-query span fired once per query, and its route child too.
    let query = snap.span(&[Pipeline, Query]).expect("query span");
    assert_eq!(query.count, 80);
    let route = snap.span(&[Pipeline, Query, Route]).expect("route span");
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
    let fragment = [Distributor, Scheme, Span::Fragment];
    let chunks = snap
        .span(&[&fragment[..], &[ValueChunks]].concat())
        .expect("value_chunks span");
    let tables = 8 * snap.span(&fragment).expect("fragment span").count;
    assert_eq!(chunks.count, tables);
    assert_child_time_is_the_direct_childrens_total(&snap);
}

/// How often `segment` closed, wherever it sits in the tree.
fn closed(snap: &ObsSnapshot, segment: Span) -> u64 {
    let tail = format!("/{}", segment.name());
    snap.spans
        .iter()
        .filter(|s| s.path == segment.name() || s.path.ends_with(&tail))
        .map(|s| s.count)
        .sum()
}

/// Each timed stage opens its span exactly once per call its counter
/// counts: one `transition` per plan, one `greedy` per fragmenter run.
#[test]
fn stage_spans_close_once_per_counted_call() {
    let snap = run_under_session();
    let plans = snap.counter(Metric::TransitionPlans).expect("plans");
    assert!(plans > 1, "provisioning and at least one reconfiguration");
    assert_eq!(closed(&snap, Span::Transition), plans);
    assert_eq!(closed(&snap, Span::Hungarian), plans);
    let runs = snap
        .counter(Metric::FragmentGreedyRuns)
        .expect("greedy runs");
    assert_eq!(closed(&snap, Span::Greedy), runs);
}

/// Spans are the only host clock: scrubbing a run's snapshot zeroes their
/// times and leaves every counter, gauge and histogram as recorded.
#[test]
fn scrubbing_changes_only_span_times() {
    let snap = run_under_session();
    let mut scrubbed = snap.clone();
    scrubbed.scrub_timings();
    assert_eq!(scrubbed.counters, snap.counters);
    assert_eq!(scrubbed.gauges, snap.gauges);
    assert_eq!(scrubbed.histograms, snap.histograms);
    assert_eq!(scrubbed.spans.len(), snap.spans.len());
    for (after, before) in scrubbed.spans.iter().zip(&snap.spans) {
        assert_eq!((&after.path, after.count), (&before.path, before.count));
        assert_eq!((after.total_ns, after.child_ns), (0, 0));
    }
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
