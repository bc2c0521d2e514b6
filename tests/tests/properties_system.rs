//! Property tests over the routing and cluster layers.

use proptest::prelude::*;

use nashdb_baselines::{GreedySetCover, ShortestQueue};
use nashdb_cluster::{ClusterConfig, ClusterSim, DriverEvent, QueryRequest, ScanRange};
use nashdb_core::ids::{FragmentId, NodeId, TableId};
use nashdb_core::routing::{
    reference, Assignment, FragmentRequest, MaxOfMins, PowerOfTwoChoices, QueueView, RouteError,
    ScanRouter, Scratch,
};
use nashdb_core::transition::{plan_transition, IntervalSet};
use nashdb_sim::{SimDuration, SimRng, SimTime};

// ---------------------------------------------------------------------------
// Routers
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Problem {
    requests: Vec<FragmentRequest>,
    waits: Vec<u64>,
}

/// One request's size and candidate list over `nodes` nodes. Three in four
/// name a single node and sizes come from a pool of four (zero included), so
/// tied single-candidate requests — permanent members of their node's group
/// in `MaxOfMins`, ordered by rank alone — are the common case, not a rarity
/// the default 64 cases never draw. The candidates are distinct and come
/// from a seeded partial Fisher–Yates over `0..nodes`, so unsorted lists
/// stay covered and a case replays from its seed.
fn arb_request(nodes: usize) -> impl Strategy<Value = (u64, Vec<u64>)> {
    (0usize..4, 0usize..4, 1..=nodes, 0..u64::MAX).prop_map(move |(size, narrow, wide, seed)| {
        let len = if narrow < 3 { 1 } else { wide };
        let mut rng = SimRng::seed_from_u64(seed);
        let mut pool: Vec<u64> = (0..nodes as u64).collect();
        for i in 0..len {
            pool.swap(i, rng.uniform_usize(i, nodes));
        }
        pool.truncate(len);
        ([0, 1, 500, 100_000][size], pool)
    })
}

/// Preloaded waits from a pool of three, so effective waits tie across nodes.
fn arb_waits(nodes: usize) -> impl Strategy<Value = Vec<u64>> {
    let wait = (0usize..3).prop_map(|i| [0, 1_000, 1_000_000][i]);
    proptest::collection::vec(wait, nodes..=nodes)
}

/// One scan over 2–7 nodes. About one case in eight routes 60–200
/// requests, so a group's rank bitset in `MaxOfMins` spans one to four
/// words; the rest route 1–19.
fn arb_problem() -> impl Strategy<Value = Problem> {
    (2usize..8, 0usize..8).prop_flat_map(|(nodes, arm)| {
        let len = if arm == 0 { 60..=200 } else { 1..=19 };
        let reqs = proptest::collection::vec(arb_request(nodes), len);
        (reqs, arb_waits(nodes)).prop_map(|(reqs, waits)| Problem {
            requests: reqs
                .into_iter()
                .enumerate()
                .map(|(i, (size, cands))| FragmentRequest {
                    fragment: FragmentId(i as u64),
                    size,
                    candidates: cands.into_iter().map(NodeId).collect(),
                })
                .collect(),
            waits,
        })
    })
}

/// A whole batch of scans over one node universe: mixed scan sizes
/// (including empty scans) with globally distinct fragment ids, the
/// precondition under which the incremental router is exact.
fn arb_batch() -> impl Strategy<Value = (Vec<Vec<FragmentRequest>>, Vec<u64>)> {
    (2usize..10).prop_flat_map(|nodes| {
        let scans =
            proptest::collection::vec(proptest::collection::vec(arb_request(nodes), 0..8), 1..25);
        (scans, arb_waits(nodes)).prop_map(|(scans, waits)| {
            let mut next = 0u64;
            let scans = scans
                .into_iter()
                .map(|reqs| {
                    reqs.into_iter()
                        .map(|(size, cands)| {
                            next += 1;
                            FragmentRequest {
                                fragment: FragmentId(next),
                                size,
                                candidates: cands.into_iter().map(NodeId).collect(),
                            }
                        })
                        .collect()
                })
                .collect();
            (scans, waits)
        })
    })
}

#[test]
fn one_seed_draws_one_problem() {
    // A failing case is reported by its seed and input; it replays only if
    // the seed fixes every candidate list, order included.
    for seed in 0..32 {
        let draw = || arb_problem().sample(&mut SimRng::seed_from_u64(seed));
        let (first, second) = (format!("{:?}", draw()), format!("{:?}", draw()));
        assert_eq!(first, second, "seed {seed} drew two problems");
    }
}

fn check_router(router: &dyn ScanRouter, p: &Problem) -> Result<(), TestCaseError> {
    let mut queues = QueueView::from_waits(p.waits.clone());
    let out: Vec<Assignment> = match router.route(&p.requests, &mut queues) {
        Ok(out) => out,
        Err(e) => {
            return Err(TestCaseError::fail(format!(
                "router {} errored: {e}",
                router.name()
            )))
        }
    };
    // Every request assigned exactly once, to one of its candidates.
    prop_assert_eq!(out.len(), p.requests.len(), "router {}", router.name());
    for req in &p.requests {
        let assigned: Vec<&Assignment> =
            out.iter().filter(|a| a.fragment == req.fragment).collect();
        prop_assert_eq!(assigned.len(), 1);
        prop_assert!(req.candidates.contains(&assigned[0].node));
    }
    // Work is conserved: total queue growth equals total request size.
    let before: u64 = p.waits.iter().sum();
    let after: u64 = (0..p.waits.len())
        .map(|n| queues.wait(NodeId(n as u64)))
        .sum();
    let work: u64 = p.requests.iter().map(|r| r.size).sum();
    prop_assert_eq!(after - before, work);
    Ok(())
}

proptest! {
    #[test]
    fn all_routers_satisfy_contract(p in arb_problem()) {
        check_router(&MaxOfMins::new(50_000), &p)?;
        check_router(&ShortestQueue, &p)?;
        check_router(&GreedySetCover, &p)?;
        check_router(&PowerOfTwoChoices::new(50_000, 9), &p)?;
    }

    /// Max-of-mins never assigns a request to a node strictly worse than
    /// every alternative *at assignment time* is hard to check post hoc, but
    /// a weaker global bound holds: its makespan (max queue) never exceeds
    /// total work + max initial wait, and is no worse than 2x the best
    /// possible balance over its own placements.
    #[test]
    fn max_of_mins_makespan_bounded(p in arb_problem()) {
        let mut queues = QueueView::from_waits(p.waits.clone());
        let _ = MaxOfMins::new(0).route(&p.requests, &mut queues).unwrap();
        let max_after = (0..p.waits.len())
            .map(|n| queues.wait(NodeId(n as u64)))
            .max()
            .unwrap();
        let total: u64 = p.requests.iter().map(|r| r.size).sum();
        let max_before = *p.waits.iter().max().unwrap();
        prop_assert!(max_after <= max_before + total);
    }

    /// The incremental Max-of-mins router is an exact optimization: for any
    /// problem (varied ϕ, candidate lists, pre-loaded queues) it produces
    /// the same assignments, in the same order, with the same final queue
    /// state, as the naive Eq. 11 reference loop it replaced.
    #[test]
    fn max_of_mins_matches_naive_reference(p in arb_problem(), phi in 0u64..200_000) {
        let mut fast_q = QueueView::from_waits(p.waits.clone());
        let mut ref_q = QueueView::from_waits(p.waits.clone());
        let fast = MaxOfMins::new(phi).route(&p.requests, &mut fast_q).unwrap();
        let naive = reference::max_of_mins(phi, &p.requests, &mut ref_q).unwrap();
        prop_assert_eq!(&fast, &naive, "phi {}", phi);
        for n in 0..p.waits.len() {
            let n = NodeId(n as u64);
            prop_assert_eq!(fast_q.wait(n), ref_q.wait(n));
        }
    }

    /// Batched routing is an exact optimization of per-scan routing: for
    /// any batch (varied ϕ, scan count, empty scans, candidate lists,
    /// pre-loaded queues) `route_batch` produces the same per-scan
    /// assignments, in the same order, with the same final queue state as
    /// sequential `route` calls and the naive Eq. 11 reference loop.
    #[test]
    fn route_batch_matches_sequential_and_reference(
        (scans, waits) in arb_batch(),
        phi in 0u64..200_000,
    ) {
        let router = MaxOfMins::new(phi);
        let mut q_batch = QueueView::from_waits(waits.clone());
        let batch = router.route_batch(scans.clone(), &mut q_batch).unwrap();
        let mut q_seq = QueueView::from_waits(waits.clone());
        let seq: Vec<Vec<Assignment>> = scans
            .iter()
            .map(|s| router.route(s, &mut q_seq).unwrap())
            .collect();
        let mut q_ref = QueueView::from_waits(waits.clone());
        let naive = reference::max_of_mins_batch(phi, &scans, &mut q_ref).unwrap();
        prop_assert_eq!(&batch, &seq, "phi {}", phi);
        prop_assert_eq!(&batch, &naive, "phi {}", phi);
        for n in 0..waits.len() {
            let n = NodeId(n as u64);
            prop_assert_eq!(q_batch.wait(n), q_seq.wait(n));
            prop_assert_eq!(q_batch.wait(n), q_ref.wait(n));
        }

        // The same scans through ONE scratch and ONE output buffer, each
        // against a queue view just long enough for its candidates plus a
        // pad that grows and then shrinks: state a scan leaves in the
        // scratch, or a view of another length, must not reach the next.
        let mut scratch = Scratch::default();
        let mut flat: Vec<Assignment> = Vec::new();
        let mut current = waits.clone();
        for (i, scan) in scans.iter().enumerate() {
            let needed = scan
                .iter()
                .flat_map(|r| &r.candidates)
                .map(|n| n.index() + 1)
                .max()
                .unwrap_or(0);
            let len = needed + [0, 3, 7, 2, 0][i % 5];
            let view: Vec<u64> = (0..len).map(|n| current.get(n).copied().unwrap_or(0)).collect();
            let mut q_reused = QueueView::from_waits(view.clone());
            let mut q_fresh = QueueView::from_waits(view.clone());
            let mut q_ref = QueueView::from_waits(view);
            let first = flat.len();
            router.route_into(scan, &mut q_reused, &mut scratch, &mut flat).unwrap();
            let fresh = router.route(scan, &mut q_fresh).unwrap();
            let naive = reference::max_of_mins(phi, scan, &mut q_ref).unwrap();
            prop_assert_eq!(&flat[first..], &fresh[..], "scan {}, phi {}", i, phi);
            prop_assert_eq!(&flat[first..], &naive[..], "scan {}, phi {}", i, phi);
            for n in 0..len {
                let node = NodeId(n as u64);
                prop_assert_eq!(q_reused.wait(node), q_fresh.wait(node));
                prop_assert_eq!(q_reused.wait(node), q_ref.wait(node));
                if let Some(slot) = current.get_mut(n) {
                    *slot = q_reused.wait(node);
                }
            }
        }
    }

    /// Any request with an empty candidate list, or a candidate outside the
    /// queue view, is rejected up front as a typed error by every router
    /// and the reference, before any queue mutation.
    #[test]
    fn routers_reject_unroutable_requests(
        p in arb_problem(),
        hole in 0usize..1024,
        beyond in 0u64..4,
    ) {
        let victim = hole % p.requests.len();
        let fragment = p.requests[victim].fragment;
        let mut no_replicas = p.requests.clone();
        no_replicas[victim].candidates.clear();
        let stray = NodeId(p.waits.len() as u64 + beyond);
        let mut unknown_node = p.requests.clone();
        unknown_node[victim].candidates.push(stray);
        for (reqs, expected) in [
            (no_replicas, RouteError::NoReplicas { fragment }),
            (unknown_node, RouteError::UnknownNode { fragment, node: stray }),
        ] {
            let fresh = || QueueView::from_waits(p.waits.clone());
            let mut outcomes = Vec::new();
            for router in [
                &MaxOfMins::new(50_000) as &dyn ScanRouter,
                &ShortestQueue,
                &GreedySetCover,
                &PowerOfTwoChoices::new(50_000, 9),
            ] {
                let mut queues = fresh();
                outcomes.push((router.route(&reqs, &mut queues), queues));
            }
            let mut queues = fresh();
            outcomes.push((reference::max_of_mins(50_000, &reqs, &mut queues), queues));
            for (result, queues) in outcomes {
                prop_assert_eq!(result, Err(expected));
                for n in 0..p.waits.len() {
                    prop_assert_eq!(queues.wait(NodeId(n as u64)), p.waits[n]);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cluster simulator
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct SimPlan {
    nodes: usize,
    queries: Vec<(u64, Vec<(usize, u64)>)>, // (arrival secs, reads (node, tuples))
}

fn arb_sim_plan() -> impl Strategy<Value = SimPlan> {
    (1usize..5).prop_flat_map(|nodes| {
        proptest::collection::vec(
            (
                0u64..600,
                proptest::collection::vec((0..nodes, 1u64..500_000), 1..6),
            ),
            1..25,
        )
        .prop_map(move |mut queries| {
            queries.sort_by_key(|q| q.0);
            SimPlan { nodes, queries }
        })
    })
}

proptest! {
    /// Conservation and sanity on the simulator: every query completes, read
    /// throughput equals dispatched tuples, latency is at least the largest
    /// single read's service time, and cost is positive.
    #[test]
    fn cluster_conserves_work(plan in arb_sim_plan()) {
        let tps = 100_000.0;
        let mut sim = ClusterSim::new(ClusterConfig {
            throughput_tps: tps,
            node_cost_per_hour: 60.0,
            metrics_bucket: SimDuration::from_secs(60),
            network: None,
        });
        let sets: Vec<IntervalSet> = (0..plan.nodes)
            .map(|i| IntervalSet::from_intervals([(i as u64 * 10, i as u64 * 10 + 5)]))
            .collect();
        sim.reconfigure(&plan_transition(&[], &sets)).unwrap();

        for (at, _) in &plan.queries {
            sim.schedule_query(
                SimTime::from_secs(*at),
                QueryRequest {
                    price: 1.0,
                    scans: vec![ScanRange::new(TableId(0), 0, 1)],
                    tag: 0,
                },
            );
        }
        let mut idx = 0usize;
        let mut completed = 0usize;
        loop {
            match sim.next_event() {
                DriverEvent::QueryArrived { id, .. } => {
                    let reads: Vec<(NodeId, u64)> = plan.queries[idx]
                        .1
                        .iter()
                        .map(|&(n, t)| (NodeId(n as u64), t))
                        .collect();
                    idx += 1;
                    sim.dispatch(id, &reads).unwrap();
                }
                DriverEvent::QueryCompleted { id, latency } => {
                    completed += 1;
                    // Latency at least the biggest read of that query.
                    let q = &plan.queries[usize::try_from(id.get()).unwrap()];
                    let biggest = q.1.iter().map(|&(_, t)| t).max().unwrap();
                    let floor = biggest as f64 / tps;
                    prop_assert!(
                        latency.as_secs_f64() >= floor - 1e-6,
                        "latency {} below service floor {}",
                        latency.as_secs_f64(),
                        floor
                    );
                }
                DriverEvent::Wakeup { .. } => {}
                DriverEvent::Finished => break,
                // No faults are scheduled in this property, so failure
                // events cannot occur.
                _ => {}
            }
        }
        prop_assert_eq!(completed, plan.queries.len());
        let metrics = sim.finish();
        prop_assert_eq!(metrics.queries.len(), plan.queries.len());
        let dispatched: u64 = plan
            .queries
            .iter()
            .flat_map(|(_, reads)| reads.iter().map(|&(_, t)| t))
            .sum();
        prop_assert!((metrics.read_throughput.total() - dispatched as f64).abs() < 0.5);
        prop_assert!(metrics.total_cost > 0.0);
        prop_assert_eq!(metrics.peak_nodes, plan.nodes);
    }
}

// ---------------------------------------------------------------------------
// Invariant audits, end to end
// ---------------------------------------------------------------------------

/// Drives the full NashDB pipeline with the audit hooks armed (they are
/// debug assertions, so every `cargo test` build has them): every
/// reconfiguration re-checks the value tree, fragmentation, packing, and
/// transition invariants inside the driver/distributor, and the resulting
/// schemes are additionally audited here at the economics layer.
mod audit_system {
    use super::*;
    use nashdb::{run_workload, MaxOfMins, NashDbConfig, NashDbDistributor, RunConfig};
    use nashdb_core::audit::{audit_packing, audit_transition};
    use nashdb_core::economics::{check_equilibrium, NodeSpec};
    use nashdb_core::fragment::{fragment_stats, optimal_fragmentation};
    use nashdb_core::replication::{
        decide_replicas, economic_config, pack_bffd, ReplicationDecision, ReplicationPolicy,
    };
    use nashdb_core::value::{Chunk, TupleValueEstimator};
    use nashdb_workload::bernoulli::{workload as bernoulli, BernoulliConfig};

    /// Each packed node as the tuple intervals it stores. `fragment_stats`
    /// ids are dense, so an id indexes its decision.
    fn intervals(decisions: &[ReplicationDecision], nodes: &[Vec<FragmentId>]) -> Vec<IntervalSet> {
        let range = |f: &FragmentId| decisions[f.index()].range;
        nodes
            .iter()
            .map(|frags| frags.iter().map(range).map(|r| (r.start, r.end)).collect())
            .collect()
    }

    proptest! {
        /// Whole runs complete with every driver/distributor audit hook
        /// armed: any invariant breach inside the pipeline would abort the
        /// run, so completion is the assertion.
        #[test]
        fn audited_runs_complete(queries in 20usize..60, price in 1.0f64..8.0) {
            let w = bernoulli(&BernoulliConfig {
                size_gb: 2,
                queries,
                price,
                ..BernoulliConfig::default()
            });
            let run = RunConfig {
                cluster: ClusterConfig {
                    throughput_tps: 1_000_000.0,
                    node_cost_per_hour: 100.0,
                    metrics_bucket: SimDuration::from_secs(600),
                    network: None,
                },
                ..RunConfig::default()
            };
            let cfg = NashDbConfig {
                spec: NodeSpec::new(100.0, 1_000_000),
                max_frags_per_table: 12,
                ..NashDbConfig::default()
            };
            let mut nash = NashDbDistributor::new(&w.db, cfg);
            let m = run_workload(&w, &mut nash, &MaxOfMins::new(run.phi_tuples()), &run);
            prop_assert_eq!(m.queries.len(), queries);
        }

        /// Schemes built from estimator-derived statistics pass the packing
        /// and equilibrium audits, and transitions between the schemes of
        /// two different workloads pass the transition audit.
        #[test]
        fn estimated_schemes_audit_clean(
            scans in proptest::collection::vec((0u64..900, 1u64..100, 0.5f64..4.0), 4..40),
            shift in 0u64..500,
        ) {
            let table = 1_000u64;
            let policy = ReplicationPolicy::new(16, NodeSpec::new(500.0, table));
            let build = |offset: u64| {
                let mut est = TupleValueEstimator::new(16);
                for &(s, l, p) in &scans {
                    let start = (s + offset) % (table - 1);
                    let end = (start + l).min(table);
                    est.observe(nashdb_core::value::PricedScan::new(start, end, p));
                }
                let chunks: Vec<Chunk> = est.chunks(table);
                let frag = optimal_fragmentation(&chunks, 5).unwrap();
                let stats = fragment_stats(&frag, &chunks).unwrap();
                let decisions = decide_replicas(&stats, &policy);
                let nodes = pack_bffd(&decisions, table).expect("fragments fit one node");
                (decisions, nodes)
            };
            let a = build(0);
            let b = build(shift);
            for (decisions, nodes) in [&a, &b] {
                prop_assert!(audit_packing(nodes, decisions, table).is_ok());
                prop_assert!(check_equilibrium(&economic_config(&policy, decisions, nodes)).is_ok());
            }
            let old = intervals(&a.0, &a.1);
            let new = intervals(&b.0, &b.1);
            let plan = nashdb_core::transition::plan_transition(&old, &new);
            prop_assert!(audit_transition(&old, &new, &plan).is_ok());
        }
    }
}
