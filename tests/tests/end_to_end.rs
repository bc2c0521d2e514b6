//! Cross-crate integration tests: the full NashDB pipeline against the
//! simulated cluster, on every workload family.

use std::collections::BTreeMap;

use nashdb::{
    run_workload, run_workload_with_faults, DistScheme, Distributor, MaxOfMins, NashDbConfig,
    NashDbDistributor, RunConfig,
};
use nashdb_baselines::{
    GreedySetCover, HypergraphDistributor, ShortestQueue, ThresholdDistributor,
};
use nashdb_cluster::{ClusterConfig, ClusterSim, DriverEvent, Metrics, QueryRequest};
use nashdb_core::economics::NodeSpec;
use nashdb_core::ids::{NodeId, QueryId, TableId};
use nashdb_core::routing::{
    reference, Assignment, FragmentRequest, QueueView, RouteError, ScanRouter, Scratch,
};
use nashdb_core::transition::plan_transition;
use nashdb_obs::Metric::{ClusterQueriesAbandoned, ClusterQueriesRejected, RoutingUnroutableScans};
use nashdb_obs::ObsSession;
use nashdb_sim::{FaultEvent, FaultKind, FaultSchedule, SimDuration, SimTime};
use nashdb_workload::bernoulli::{workload as bernoulli, BernoulliConfig};
use nashdb_workload::random::{workload as random, RandomConfig};
use nashdb_workload::tpch::{workload as tpch, TpchConfig};
use nashdb_workload::{realistic, Database, Workload};

fn cluster() -> ClusterConfig {
    ClusterConfig {
        throughput_tps: 500_000.0,
        node_cost_per_hour: 50.0,
        metrics_bucket: SimDuration::from_secs(600),
        network: None,
    }
}

fn nash_cfg(disk: u64) -> NashDbConfig {
    NashDbConfig {
        window: 50,
        spec: NodeSpec::new(50.0, disk),
        max_frags_per_table: 24,
        max_fragment_tuples: disk / 4,
        ..NashDbConfig::default()
    }
}

fn run_nash(w: &Workload, disk: u64) -> nashdb_cluster::Metrics {
    let run = RunConfig {
        cluster: cluster(),
        reconfig_interval: SimDuration::from_secs(3600),
        ..RunConfig::default()
    };
    let mut dist = NashDbDistributor::new(&w.db, nash_cfg(disk));
    run_workload(w, &mut dist, &MaxOfMins::new(run.phi_tuples()), &run)
}

#[test]
fn tpch_pipeline_completes_all_queries() {
    let w = tpch(&TpchConfig {
        size_gb: 10,
        rounds: 2,
        ..TpchConfig::default()
    });
    let m = run_nash(&w, 2_000_000);
    assert_eq!(m.queries.len(), w.queries.len());
    assert!(m.total_cost > 0.0);
    assert!(m.peak_nodes >= 1);
}

#[test]
fn bernoulli_pipeline_completes_all_queries() {
    let w = bernoulli(&BernoulliConfig {
        size_gb: 5,
        queries: 120,
        spacing: SimDuration::from_secs(10),
        ..BernoulliConfig::default()
    });
    let m = run_nash(&w, 1_000_000);
    assert_eq!(m.queries.len(), 120);
    // At this arrival rate the suffix reads (a few GB at 0.5 GB/s-tuples)
    // must not queue indefinitely; a full-table scan would take 10 s.
    assert!(
        m.mean_latency_secs() < 30.0,
        "latency {}",
        m.mean_latency_secs()
    );
}

#[test]
fn random_dynamic_reconfigures_hourly() {
    let w = random(&RandomConfig {
        size_gb: 5,
        queries: 100,
        duration: SimDuration::from_secs(6 * 3600),
        ..RandomConfig::default()
    });
    let m = run_nash(&w, 1_000_000);
    assert_eq!(m.queries.len(), 100);
    // Initial provision + 5 hourly wakeups (the last arrivals are before
    // hour 6).
    assert!(m.reconfigurations >= 5, "{} reconfigs", m.reconfigurations);
}

#[test]
fn realistic_generators_run_end_to_end() {
    // Scaled-down check that all three Table-1 analogues drive the full
    // pipeline; the real sizes run in the bench harness.
    let mut w = realistic::real1_dynamic(3);
    w.queries.truncate(80);
    let m = run_nash(&w, w.db.total_tuples() / 6);
    assert_eq!(m.queries.len(), 80);
}

#[test]
fn all_routers_complete_the_same_workload() {
    let w = bernoulli(&BernoulliConfig {
        size_gb: 4,
        queries: 80,
        ..BernoulliConfig::default()
    });
    let run = RunConfig {
        cluster: cluster(),
        ..RunConfig::default()
    };
    let routers: Vec<Box<dyn ScanRouter>> = vec![
        Box::new(MaxOfMins::new(run.phi_tuples())),
        Box::new(ShortestQueue),
        Box::new(GreedySetCover),
    ];
    let mut spans = Vec::new();
    for router in &routers {
        let mut dist = NashDbDistributor::new(&w.db, nash_cfg(1_000_000));
        let m = run_workload(&w, &mut dist, router.as_ref(), &run);
        assert_eq!(m.queries.len(), 80, "router {}", router.name());
        spans.push(m.mean_span());
    }
    // Greedy set cover minimizes span; it must be the narrowest.
    assert!(
        spans[2] <= spans[0] && spans[2] <= spans[1],
        "greedy-sc span {} vs max-of-mins {} / shortest-queue {}",
        spans[2],
        spans[0],
        spans[1]
    );
}

#[test]
fn baseline_distributors_run_end_to_end() {
    let w = bernoulli(&BernoulliConfig {
        size_gb: 4,
        queries: 60,
        ..BernoulliConfig::default()
    });
    let run = RunConfig {
        cluster: cluster(),
        ..RunConfig::default()
    };
    let disk = 1_000_000;

    let mut hyper = HypergraphDistributor::new(&w.db, 6, disk, 50).with_block(disk / 4);
    let m = run_workload(&w, &mut hyper, &MaxOfMins::new(run.phi_tuples()), &run);
    assert_eq!(m.queries.len(), 60);

    let mut thresh = ThresholdDistributor::new(&w.db, 6, disk, 50).with_block(disk / 4);
    let m = run_workload(&w, &mut thresh, &MaxOfMins::new(run.phi_tuples()), &run);
    assert_eq!(m.queries.len(), 60);
    assert_eq!(m.peak_nodes, 6, "threshold clusters are fixed-size");
}

#[test]
fn determinism_across_identical_runs() {
    let w = tpch(&TpchConfig {
        size_gb: 5,
        rounds: 1,
        ..TpchConfig::default()
    });
    let a = run_nash(&w, 1_000_000);
    let b = run_nash(&w, 1_000_000);
    assert_eq!(a.queries, b.queries);
    assert_eq!(a.total_transfer(), b.total_transfer());
    assert!((a.total_cost - b.total_cost).abs() < 1e-9);
}

#[test]
fn prices_buy_performance_end_to_end() {
    // The paper's central promise, checked on the whole stack.
    let mk = |price: f64| {
        bernoulli(&BernoulliConfig {
            size_gb: 5,
            queries: 150,
            price,
            spacing: SimDuration::from_secs(5),
            ..BernoulliConfig::default()
        })
    };
    let run = RunConfig {
        cluster: cluster(),
        warmup_queries: 75,
        ..RunConfig::default()
    };
    let go = |w: &Workload| {
        let mut dist = NashDbDistributor::new(&w.db, nash_cfg(1_000_000));
        run_workload(w, &mut dist, &MaxOfMins::new(run.phi_tuples()), &run)
    };
    let cheap = go(&mk(1.0));
    let pricey = go(&mk(16.0));
    assert!(
        pricey.peak_nodes > cheap.peak_nodes,
        "higher prices must provision more: {} vs {}",
        pricey.peak_nodes,
        cheap.peak_nodes
    );
    assert!(
        pricey.mean_latency_secs() <= cheap.mean_latency_secs(),
        "higher prices must not be slower: {} vs {}",
        pricey.mean_latency_secs(),
        cheap.mean_latency_secs()
    );
}

// ---------------------------------------------------------------------------
// The driver against a naive loop over the public adapters
// ---------------------------------------------------------------------------

/// The reads of each query of a batch, `None` for one that cannot be routed:
/// everything allocated afresh through `requests_for_query`,
/// `retain(node_alive)`, `queue_waits` and `route_batch`.
fn naive_plans(
    scheme: &DistScheme,
    queries: &[&QueryRequest],
    router: &dyn ScanRouter,
    sim: &ClusterSim,
    alive_only: bool,
) -> Vec<Option<Vec<(NodeId, u64)>>> {
    let mut scans = Vec::new();
    for query in queries {
        let mut requests = scheme.requests_for_query(query);
        for r in &mut requests {
            r.candidates.retain(|&n| !alive_only || sim.node_alive(n));
        }
        // A query that lost a fragment's last live replica joins the batch
        // as an empty scan.
        let dead = requests.iter().any(|r| r.candidates.is_empty());
        scans.push(if dead { None } else { Some(requests) });
    }
    let mut queues = QueueView::from_waits(sim.queue_waits());
    let batch = scans
        .iter()
        .map(|s| s.clone().unwrap_or_default())
        .collect();
    let Ok(routed) = router.route_batch(batch, &mut queues) else {
        return vec![None; queries.len()];
    };
    // Each read at its own request's size, `None` if the router answered
    // for a fragment the query did not ask for.
    let plan = |(requests, assignments): (Option<Vec<FragmentRequest>>, Vec<Assignment>)| {
        let requests = requests?;
        let read = |a: &Assignment| {
            let own = requests.iter().find(|r| r.fragment == a.fragment)?;
            Some((a.node, own.size))
        };
        assignments.iter().map(read).collect()
    };
    scans.into_iter().zip(routed).map(plan).collect()
}

/// What `run_workload_with_faults` does, written the slow way; also counts
/// the applied plans that changed the node count.
fn naive_run(
    workload: &Workload,
    distributor: &mut dyn Distributor,
    router: &dyn ScanRouter,
    cfg: &RunConfig,
    faults: &FaultSchedule,
) -> (Metrics, usize) {
    let mut sim = ClusterSim::new(cfg.cluster);
    for tq in &workload.queries {
        sim.schedule_query(tq.at, tq.query.clone());
    }
    sim.schedule_faults(faults);
    let last = workload.queries.iter().map(|q| q.at).max();
    let mut t = SimTime::ZERO + cfg.reconfig_interval;
    while last.is_some_and(|last| t <= last) {
        sim.schedule_wakeup(t, 0);
        t += cfg.reconfig_interval;
    }
    // The warm-up is the first queries to arrive, not the first listed.
    let mut by_arrival: Vec<_> = workload.queries.iter().collect();
    by_arrival.sort_by_key(|tq| tq.at);
    for tq in by_arrival.into_iter().take(cfg.warmup_queries) {
        distributor.observe(&tq.query);
    }
    let mut scheme = distributor.scheme();
    let mut intervals = scheme.node_intervals(&workload.db);
    let provisioned = sim.reconfigure(&plan_transition(&[], &intervals));
    assert!(
        provisioned.is_ok(),
        "initial plan rejected: {provisioned:?}"
    );
    let mut inflight: BTreeMap<QueryId, QueryRequest> = BTreeMap::new();
    let mut resized = 0;
    loop {
        match sim.next_event() {
            DriverEvent::QueryArrived { id, query } => {
                let mut batch = vec![(id, query)];
                batch.extend(sim.take_coincident_arrivals());
                for (_, q) in &batch {
                    distributor.observe(q);
                }
                let queries: Vec<&QueryRequest> = batch.iter().map(|(_, q)| q).collect();
                let plans = naive_plans(&scheme, &queries, router, &sim, !faults.is_empty());
                for ((qid, q), plan) in batch.into_iter().zip(plans) {
                    match plan {
                        Some(reads) if sim.dispatch(qid, &reads).is_ok() => {
                            inflight.insert(qid, q);
                        }
                        _ => assert!(sim.abandon_query(qid)),
                    }
                }
            }
            DriverEvent::QueryFailed { id, attempts } => {
                // The driver gives up after five failed attempts.
                let plan = match inflight.get(&id) {
                    Some(q) if attempts < 5 => naive_plans(&scheme, &[q], router, &sim, true)
                        .pop()
                        .flatten(),
                    _ => None,
                };
                if !matches!(plan, Some(reads) if sim.dispatch(id, &reads).is_ok()) {
                    assert!(sim.abandon_query(id));
                }
            }
            DriverEvent::Wakeup { .. } => {
                let new_scheme = distributor.scheme();
                let new_intervals = new_scheme.node_intervals(&workload.db);
                if sim
                    .reconfigure(&plan_transition(&intervals, &new_intervals))
                    .is_ok()
                {
                    resized += usize::from(new_intervals.len() != intervals.len());
                    scheme = new_scheme;
                    intervals = new_intervals;
                }
            }
            DriverEvent::Finished => break,
            _ => {}
        }
    }
    (sim.finish(), resized)
}

/// Two tables queried in lockstep — arrival `k` of each at the same instant,
/// so every arrival event is a batch of two — at a price that rises and then
/// falls, so the cluster grows and then shrinks.
fn lockstep_workload(queries: usize) -> Workload {
    let mut tables = Vec::new();
    let mut merged = Vec::new();
    for (k, name) in ["left", "right"].into_iter().enumerate() {
        let part = bernoulli(&BernoulliConfig {
            size_gb: 3,
            queries,
            spacing: SimDuration::from_secs(20),
            seed: 11 + k as u64,
            ..BernoulliConfig::default()
        });
        tables.push((name, part.db.tables[0].tuples));
        for (i, mut tq) in part.queries.into_iter().enumerate() {
            tq.query.price = if (queries / 3..2 * queries / 3).contains(&i) {
                32.0
            } else {
                4.0
            };
            for scan in &mut tq.query.scans {
                scan.table = TableId(k as u64);
            }
            merged.push(tq);
        }
    }
    merged.sort_by_key(|tq| tq.at);
    Workload {
        name: "lockstep".to_owned(),
        db: Database::new(tables),
        queries: merged,
    }
    .validated()
}

/// Crash-restarts 300 ms after every sixth arrival of a stream with one
/// arrival every 20 s, whose reads take about a second: each catches reads in
/// flight, and the node stays down for the next two arrivals.
fn crash_restarts() -> FaultSchedule {
    let restart = |arrival: u64, node: u64| FaultEvent {
        at: SimTime::from_secs(20 * arrival) + SimDuration::from_millis(300),
        node,
        kind: FaultKind::CrashRestart {
            down_for: SimDuration::from_secs(45),
        },
    };
    FaultSchedule::from_events(
        (0..24)
            .map(|i| restart(4 + 6 * i, (5 * i + 1) % 7))
            .collect(),
    )
}

/// 150 lockstep arrivals, reconfigured every 400 s over a 20-scan window:
/// the cluster is replicated, and it grows and shrinks during the run.
fn lockstep_case() -> (Workload, RunConfig, NashDbConfig) {
    let run = RunConfig {
        cluster: cluster(),
        reconfig_interval: SimDuration::from_secs(400),
        warmup_queries: 20,
        ..RunConfig::default()
    };
    let nash = NashDbConfig {
        window: 20,
        ..nash_cfg(1_000_000)
    };
    (lockstep_workload(150), run, nash)
}

#[test]
fn driver_matches_allocating_reference_loop() {
    let (w, run, nash) = lockstep_case();
    for faults in [FaultSchedule::none(), crash_restarts()] {
        let router = MaxOfMins::new(run.phi_tuples());
        let mut dist = NashDbDistributor::new(&w.db, nash);
        let driven = run_workload_with_faults(&w, &mut dist, &router, &run, &faults);
        let mut dist = NashDbDistributor::new(&w.db, nash);
        let (naive, resized) = naive_run(&w, &mut dist, &router, &run, &faults);
        // `Metrics` is not `PartialEq`; its `Debug` form holds every field,
        // floats in shortest round-trip form.
        assert_eq!(format!("{driven:?}"), format!("{naive:?}"));
        // The comparison covered what it claims to.
        assert!(resized >= 2, "only {resized} plans changed the node count");
        let served = driven.queries.len() as u64 + driven.availability.queries_abandoned;
        assert_eq!(served, w.queries.len() as u64);
        if !faults.is_empty() {
            assert!(
                driven.availability.queries_retried > 0,
                "no query was retried"
            );
        }
    }
}

/// The edges of the distributor's hand-off to the serving loop. The
/// distributor runs on a thread of its own and replays the arrivals in the
/// simulator's order, so each case must leave metrics `Debug`-identical to
/// the single-threaded reference loop's, from fresh distributors.
#[test]
fn driver_matches_reference_loop_at_the_hand_off_edges() {
    let base = bernoulli(&BernoulliConfig {
        size_gb: 2,
        queries: 40,
        spacing: SimDuration::from_secs(20),
        price: 8.0,
        ..BernoulliConfig::default()
    });
    let run = RunConfig {
        cluster: cluster(),
        reconfig_interval: SimDuration::from_secs(100),
        warmup_queries: 5,
        ..RunConfig::default()
    };
    let nash = NashDbConfig {
        window: 20,
        ..nash_cfg(1_000_000)
    };
    let at = |secs: u64| SimTime::ZERO + SimDuration::from_secs(secs);
    let wakeup = |t: SimTime| t > SimTime::ZERO && t.as_nanos().is_multiple_of(at(100).as_nanos());

    // Every fifth arrival lands exactly on a wake-up.
    assert!(base.queries.iter().filter(|tq| wakeup(tq.at)).count() >= 5);
    // Two arrivals, one per table, at every wake-up instant.
    let coincident = lockstep_workload(30);
    let on_wakeups = coincident.queries.windows(2);
    assert!(
        on_wakeups
            .filter(|w| w[0].at == w[1].at && wakeup(w[0].at))
            .count()
            >= 5
    );
    // Arrivals out of order, as a stream that skipped `validated()` can
    // hold them: a stream of random scans with every block of five
    // reversed, so each block's latest arrival comes first.
    let mut unsorted = random(&RandomConfig {
        size_gb: 2,
        queries: 40,
        duration: SimDuration::from_secs(800),
        price: 8.0,
        ..RandomConfig::default()
    });
    for block in unsorted.queries.chunks_mut(5) {
        block.reverse();
    }
    assert!(unsorted.queries.windows(2).any(|w| w[0].at > w[1].at));
    let mut reversed = base.clone();
    reversed.queries.reverse();

    type Make<'a> = &'a dyn Fn(&Database) -> Box<dyn Distributor>;
    let nashdb: Make = &|db| Box::new(NashDbDistributor::new(db, nash));
    let threshold: Make =
        &|db| Box::new(ThresholdDistributor::new(db, 6, 1_000_000, 20).with_block(250_000));
    let cases = [
        ("an arrival on a wake-up", &base, run, nashdb),
        ("coincident arrivals on a wake-up", &coincident, run, nashdb),
        ("unsorted arrivals", &unsorted, run, nashdb),
        ("a reversed stream", &reversed, run, nashdb),
        (
            "a warm-up longer than the stream",
            &base,
            RunConfig {
                warmup_queries: 1_000,
                ..run
            },
            nashdb,
        ),
        (
            "a stream shorter than one interval",
            &base,
            RunConfig {
                reconfig_interval: SimDuration::from_secs(3_600),
                ..run
            },
            nashdb,
        ),
        ("a baseline as the distributor", &base, run, threshold),
    ];
    for (what, w, run, make) in cases {
        let router = MaxOfMins::new(run.phi_tuples());
        let driven = run_workload(w, &mut *make(&w.db), &router, &run);
        let (naive, _) = naive_run(w, &mut *make(&w.db), &router, &run, &FaultSchedule::none());
        assert_eq!(format!("{driven:?}"), format!("{naive:?}"), "{what}");
        assert_eq!(driven.queries.len(), w.queries.len(), "{what}");
    }
}

// ---------------------------------------------------------------------------
// Queries that fail `Database::check_query`
// ---------------------------------------------------------------------------

/// Each case makes the queries it lists invalid in a 40-query stream. On
/// NashDB and both baselines, exactly those queries are rejected and
/// abandoned on arrival, and the others complete. No rejected query reaches
/// the router, so none is unroutable.
#[test]
fn only_the_queries_that_fail_the_check_are_abandoned() {
    type Corrupt = fn(&mut Workload);
    let cases: [(&[u64], Corrupt); 4] = [
        (&[17], |w| w.queries[17].query.scans[0].end += 1),
        (&[17], |w| w.queries[17].query.scans[0].table = TableId(9)),
        (&[17], |w| {
            let scan = &mut w.queries[17].query.scans[0];
            (scan.start, scan.end) = (scan.end, scan.start);
        }),
        (&[5, 17, 29], |w| {
            for (i, price) in [(5, f64::NAN), (17, -1.0), (29, f64::INFINITY)] {
                w.queries[i].query.price = price;
            }
        }),
    ];
    let run = RunConfig {
        cluster: cluster(),
        ..RunConfig::default()
    };
    for (bad, corrupt) in cases {
        let mut w = bernoulli(&BernoulliConfig {
            size_gb: 2,
            queries: 40,
            ..BernoulliConfig::default()
        });
        corrupt(&mut w);
        let rejected = bad.len() as u64;
        let distributors: [Box<dyn Distributor>; 3] = [
            Box::new(NashDbDistributor::new(&w.db, nash_cfg(1_000_000))),
            Box::new(ThresholdDistributor::new(&w.db, 6, 1_000_000, 20).with_block(250_000)),
            Box::new(HypergraphDistributor::new(&w.db, 6, 1_000_000, 20).with_block(250_000)),
        ];
        for mut dist in distributors {
            let session = ObsSession::start();
            let m = run_workload(&w, &mut *dist, &MaxOfMins::new(run.phi_tuples()), &run);
            let snap = session.finish();
            let what = format!("{} on {bad:?}", dist.name());
            assert!(
                m.queries.iter().all(|q| !bad.contains(&q.id.get())),
                "{what}"
            );
            assert_eq!(m.queries.len() as u64 + rejected, 40, "{what}");
            assert_eq!(m.availability.queries_abandoned, rejected, "{what}");
            let counters = [
                ClusterQueriesRejected,
                ClusterQueriesAbandoned,
                RoutingUnroutableScans,
            ];
            let counted = counters.map(|c| snap.counter(c));
            assert_eq!(counted, [Some(rejected), Some(rejected), None], "{what}");
        }
    }
}

// ---------------------------------------------------------------------------
// The production router against the specification, through the driver
// ---------------------------------------------------------------------------

/// `routing::reference::max_of_mins` as a router: the textbook Eq. 11 loop,
/// a fresh allocation per scan, no `Scratch`.
struct SpecRouter {
    phi: u64,
}

impl ScanRouter for SpecRouter {
    fn route_into(
        &self,
        requests: &[FragmentRequest],
        queues: &mut QueueView,
        _scratch: &mut Scratch,
        out: &mut Vec<Assignment>,
    ) -> Result<(), RouteError> {
        out.extend(reference::max_of_mins(self.phi, requests, queues)?);
        Ok(())
    }

    fn name(&self) -> &'static str {
        "max-of-mins-spec"
    }
}

/// `(single-candidate, all)` fragment requests of `w`'s queries under the
/// scheme a run with `warmup` warm-up queries starts from.
fn single_candidate_share(w: &Workload, nash: NashDbConfig, warmup: usize) -> (usize, usize) {
    let mut dist = NashDbDistributor::new(&w.db, nash);
    for tq in w.queries.iter().take(warmup) {
        dist.observe(&tq.query);
    }
    let scheme = dist.scheme();
    let requests = w
        .queries
        .iter()
        .flat_map(|tq| scheme.requests_for_query(&tq.query));
    requests.fold((0, 0), |(single, all), r| {
        (single + usize::from(r.candidates.len() == 1), all + 1)
    })
}

#[test]
fn production_router_matches_the_specification_end_to_end() {
    // (a) TPC-H re-timed into coincident bursts of one round each, at a
    // price and node size at which Eq. 9 buys most fragments one replica:
    // batches of scans whose requests mostly wait in per-node chains.
    let mut bursts = tpch(&TpchConfig {
        size_gb: 10,
        rounds: 4,
        price: 16.0,
        ..TpchConfig::default()
    });
    for (i, tq) in bursts.queries.iter_mut().enumerate() {
        tq.at = SimTime::ZERO + SimDuration::from_secs(240) * (i / 22) as u64;
    }
    let burst_run = RunConfig {
        cluster: cluster(),
        reconfig_interval: SimDuration::from_secs(480),
        warmup_queries: 22,
        ..RunConfig::default()
    };
    let burst_nash = NashDbConfig {
        spec: NodeSpec::new(100.0, 500_000),
        max_frags_per_table: 32,
        ..NashDbConfig::default()
    };
    let (single, all) = single_candidate_share(&bursts, burst_nash, burst_run.warmup_queries);
    assert!(
        2 * single > all && single < all,
        "{single} of {all} requests name one node"
    );

    // (b) A replicated stream under crash-restarts: the liveness filter
    // leaves single-candidate requests behind in the middle of a run, and
    // retries route against whatever survived.
    let (lockstep, lockstep_run, lockstep_nash) = lockstep_case();

    for (w, run, nash, faults) in [
        (&bursts, burst_run, burst_nash, FaultSchedule::none()),
        (&lockstep, lockstep_run, lockstep_nash, crash_restarts()),
    ] {
        let phi = run.phi_tuples();
        let mut dist = NashDbDistributor::new(&w.db, nash);
        let fast = run_workload_with_faults(w, &mut dist, &MaxOfMins::new(phi), &run, &faults);
        let mut dist = NashDbDistributor::new(&w.db, nash);
        let spec = run_workload_with_faults(w, &mut dist, &SpecRouter { phi }, &run, &faults);
        assert_eq!(format!("{fast:?}"), format!("{spec:?}"), "{}", w.name);
        let served = fast.queries.len() as u64 + fast.availability.queries_abandoned;
        assert_eq!(served, w.queries.len() as u64);
        if !faults.is_empty() {
            assert!(
                fast.availability.queries_retried > 0,
                "no query was retried"
            );
        }
    }
}
