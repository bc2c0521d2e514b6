//! The simulator's tests that drive more than one of its parts.
// This file is `sim::tests`, declared `#[cfg(test)]` in `sim.rs`; the linter
// reads it without that attribute, so its two rules are escaped here.
// nashdb-lint: allow-file(panic-in-lib) -- test module: its asserts are the tests
// nashdb-lint: allow-file(unchecked-arith-expr) -- test module: its counters tally one small run
use nashdb_core::transition::{plan_transition, IntervalSet};
use nashdb_sim::fault::FaultEvent;

use super::fixtures::*;
use super::*;

#[test]
fn single_query_latency_is_service_time() {
    let mut sim = ClusterSim::new(cfg());
    sim.reconfigure(&provision(1)).unwrap();
    sim.schedule_query(SimTime::from_secs(1), query(&[(0, 500)]));
    drive(&mut sim, |_, _| vec![(NodeId(0), 500)]);
    let m = sim.finish();
    assert_eq!(m.queries.len(), 1);
    // 500 tuples at 1000 tps = 0.5 s.
    assert!((m.queries[0].latency().as_secs_f64() - 0.5).abs() < 1e-9);
    assert_eq!(m.queries[0].span, 1);
}

#[test]
fn fifo_queueing_delays_second_query() {
    let mut sim = ClusterSim::new(cfg());
    sim.reconfigure(&provision(1)).unwrap();
    sim.schedule_query(SimTime::from_secs(0), query(&[(0, 1000)]));
    sim.schedule_query(SimTime::from_secs(0), query(&[(0, 1000)]));
    drive(&mut sim, |_, _| vec![(NodeId(0), 1000)]);
    let m = sim.finish();
    let mut lats: Vec<f64> = m
        .queries
        .iter()
        .map(|q| q.latency().as_secs_f64())
        .collect();
    lats.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert!((lats[0] - 1.0).abs() < 1e-9);
    assert!((lats[1] - 2.0).abs() < 1e-9);
}

#[test]
fn parallel_reads_reduce_latency_and_count_span() {
    let mut sim = ClusterSim::new(cfg());
    sim.reconfigure(&provision(2)).unwrap();
    sim.schedule_query(SimTime::from_secs(0), query(&[(0, 500), (500, 1000)]));
    drive(&mut sim, |_, _| vec![(NodeId(0), 500), (NodeId(1), 500)]);
    let m = sim.finish();
    assert!((m.queries[0].latency().as_secs_f64() - 0.5).abs() < 1e-9);
    assert_eq!(m.queries[0].span, 2);
}

#[test]
fn queue_waits_reflect_backlog() {
    let mut sim = ClusterSim::new(cfg());
    sim.reconfigure(&provision(2)).unwrap();
    sim.schedule_query(SimTime::from_secs(0), query(&[(0, 700)]));
    // Dispatch on arrival, then inspect waits immediately.
    match sim.next_event() {
        DriverEvent::QueryArrived { id, .. } => {
            sim.dispatch(id, &[(NodeId(1), 700)]).unwrap();
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(sim.queue_waits(), vec![0, 700]);
}

#[test]
fn cost_accrues_per_node_hour() {
    let mut sim = ClusterSim::new(cfg());
    sim.reconfigure(&provision(3)).unwrap();
    // Let the clock advance 100 s with an idle timer.
    sim.schedule_wakeup(SimTime::from_secs(100), 0);
    assert!(matches!(sim.next_event(), DriverEvent::Wakeup { tag: 0 }));
    assert!(matches!(sim.next_event(), DriverEvent::Finished));
    let m = sim.finish();
    // 3 nodes × 100 s × 1 cost/s.
    assert!((m.total_cost - 300.0).abs() < 1e-6, "cost {}", m.total_cost);
}

#[test]
fn transfers_occupy_disk_and_are_counted() {
    let mut sim = ClusterSim::new(cfg());
    sim.reconfigure(&provision(1)).unwrap();
    // Grow to 2 nodes; the new node must copy 2000 tuples.
    let old = vec![IntervalSet::from_intervals([(0u64, 2000u64)])];
    let new = vec![
        IntervalSet::from_intervals([(0u64, 2000u64)]),
        IntervalSet::from_intervals([(0u64, 2000u64)]),
    ];
    sim.reconfigure(&plan_transition(&old, &new)).unwrap();
    // A query dispatched to the new node waits behind the transfer.
    sim.schedule_query(
        SimTime::ZERO + SimDuration::from_millis(1),
        query(&[(0, 100)]),
    );
    drive(&mut sim, |_, _| vec![(NodeId(1), 100)]);
    let m = sim.finish();
    assert_eq!(m.total_transfer(), 2000);
    assert_eq!(m.reconfigurations, 2);
    // Latency ≈ remaining transfer (2 s − 1 ms) + own read (0.1 s).
    let lat = m.queries[0].latency().as_secs_f64();
    assert!((lat - 2.099).abs() < 1e-6, "latency {lat}");
}

#[test]
fn reused_nodes_keep_their_queues() {
    let mut sim = ClusterSim::new(cfg());
    sim.reconfigure(&provision(2)).unwrap();
    sim.schedule_query(SimTime::from_secs(0), query(&[(0, 1000)]));
    match sim.next_event() {
        DriverEvent::QueryArrived { id, .. } => sim.dispatch(id, &[(NodeId(0), 1000)]).unwrap(),
        other => panic!("unexpected {other:?}"),
    }
    // Identity-ish reconfigure: same two nodes.
    let sets = vec![
        IntervalSet::from_intervals([(0u64, 10u64)]),
        IntervalSet::from_intervals([(20u64, 30u64)]),
    ];
    sim.reconfigure(&plan_transition(&sets, &sets)).unwrap();
    // Backlog survived the transition.
    assert_eq!(sim.queue_waits()[0], 1000);
}

#[test]
fn empty_dispatch_completes_immediately() {
    let mut sim = ClusterSim::new(cfg());
    sim.reconfigure(&provision(1)).unwrap();
    sim.schedule_query(SimTime::from_secs(5), query(&[(0, 10)]));
    match sim.next_event() {
        DriverEvent::QueryArrived { id, .. } => sim.dispatch(id, &[]).unwrap(),
        other => panic!("unexpected {other:?}"),
    }
    let m = sim.finish();
    assert_eq!(m.queries.len(), 1);
    assert_eq!(m.queries[0].latency(), SimDuration::ZERO);
}

#[test]
fn double_dispatch_is_rejected() {
    let mut sim = ClusterSim::new(cfg());
    sim.reconfigure(&provision(1)).unwrap();
    sim.schedule_query(SimTime::from_secs(0), query(&[(0, 10)]));
    match sim.next_event() {
        DriverEvent::QueryArrived { id, .. } => {
            sim.dispatch(id, &[(NodeId(0), 10)]).unwrap();
            assert_eq!(
                sim.dispatch(id, &[(NodeId(0), 10)]),
                Err(DispatchError::DuplicateQuery { id })
            );
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn dispatch_of_unscheduled_query_is_unknown() {
    let mut sim = ClusterSim::new(cfg());
    sim.reconfigure(&provision(1)).unwrap();
    // Never scheduled at all.
    let ghost = QueryId(99);
    assert_eq!(
        sim.dispatch(ghost, &[(NodeId(0), 10)]),
        Err(DispatchError::UnknownQuery { id: ghost })
    );
    // Scheduled but not yet arrived: still unknown to dispatch.
    let early = sim.schedule_query(SimTime::from_secs(5), query(&[(0, 10)]));
    assert_eq!(
        sim.dispatch(early, &[(NodeId(0), 10)]),
        Err(DispatchError::UnknownQuery { id: early })
    );
    // Nothing was enqueued by the rejected dispatches.
    assert_eq!(sim.queue_waits(), vec![0]);
}

#[test]
fn never_issued_ids_are_unknown_and_grow_nothing() {
    // Query state is a slab indexed by id, and ids come from outside:
    // one the sim never issued — the next one, or one no slab could
    // hold — is looked up, not indexed and not allocated for.
    let mut sim = ClusterSim::new(cfg());
    sim.reconfigure(&provision(1)).unwrap();
    let issued = sim.schedule_query(SimTime::from_secs(5), query(&[(0, 10)]));
    for ghost in [QueryId(issued.get() + 1), QueryId(u64::MAX)] {
        assert_eq!(
            sim.dispatch(ghost, &[(NodeId(0), 10)]),
            Err(DispatchError::UnknownQuery { id: ghost })
        );
        assert!(!sim.abandon_query(ghost));
    }
    // Before its arrival an issued id is just as unknown, and stays
    // schedulable: neither call consumed it.
    assert_eq!(
        sim.dispatch(issued, &[(NodeId(0), 10)]),
        Err(DispatchError::UnknownQuery { id: issued })
    );
    assert!(!sim.abandon_query(issued));
    assert_eq!(sim.queue_waits(), vec![0]);
    drive(&mut sim, |_, _| vec![(NodeId(0), 10)]);
    let m = sim.finish();
    assert_eq!(m.queries.len(), 1);
    assert_eq!(m.queries[0].id, issued);
    assert_eq!(m.availability.queries_abandoned, 0);
}

#[test]
fn span_counts_distinct_nodes_per_dispatch() {
    // Reads that share a node count it once; a later query on the same
    // nodes counts them again.
    let mut sim = ClusterSim::new(cfg());
    sim.reconfigure(&provision(3)).unwrap();
    sim.schedule_query(SimTime::from_secs(0), query(&[(0, 10)]));
    sim.schedule_query(SimTime::from_secs(0), query(&[(0, 10)]));
    let mut plans = vec![
        vec![
            (NodeId(2), 5),
            (NodeId(0), 5),
            (NodeId(2), 5),
            (NodeId(0), 5),
        ],
        vec![(NodeId(2), 5), (NodeId(1), 5), (NodeId(0), 5)],
    ]
    .into_iter();
    drive(&mut sim, |_, _| plans.next().unwrap());
    let mut spans: Vec<u32> = sim.finish().queries.iter().map(|q| q.span).collect();
    spans.sort_unstable();
    assert_eq!(spans, vec![2, 3]);
}

#[test]
fn dispatch_after_completion_is_duplicate() {
    let mut sim = ClusterSim::new(cfg());
    sim.reconfigure(&provision(1)).unwrap();
    let id = sim.schedule_query(SimTime::from_secs(0), query(&[(0, 10)]));
    drive(&mut sim, |_, _| vec![(NodeId(0), 10)]);
    // The query completed long ago; a late re-dispatch must not enqueue
    // phantom reads or double-count metrics.
    assert_eq!(
        sim.dispatch(id, &[(NodeId(0), 10)]),
        Err(DispatchError::DuplicateQuery { id })
    );
    assert_eq!(sim.queue_waits(), vec![0]);
    let m = sim.finish();
    assert_eq!(m.queries.len(), 1);
}

#[test]
fn backlog_saturates_instead_of_overflowing() {
    // Regression: `backlog += tuples` used to be unchecked, so a second
    // u64::MAX-sized read wrapped the counter around.
    let mut sim = ClusterSim::new(cfg());
    sim.reconfigure(&provision(1)).unwrap();
    sim.schedule_query(SimTime::from_secs(0), query(&[(0, 1)]));
    match sim.next_event() {
        DriverEvent::QueryArrived { id, .. } => {
            sim.dispatch(id, &[(NodeId(0), u64::MAX), (NodeId(0), u64::MAX)])
                .unwrap();
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(sim.queue_waits(), vec![u64::MAX]);
}

#[test]
fn utilization_reflects_busy_fraction() {
    let mut sim = ClusterSim::new(cfg());
    sim.reconfigure(&provision(2)).unwrap();
    // Node 0 works 1 s of a 2 s run; node 1 stays idle.
    sim.schedule_query(SimTime::from_secs(0), query(&[(0, 1000)]));
    match sim.next_event() {
        DriverEvent::QueryArrived { id, .. } => sim.dispatch(id, &[(NodeId(0), 1000)]).unwrap(),
        other => panic!("unexpected {other:?}"),
    }
    sim.schedule_wakeup(SimTime::from_secs(2), 0);
    while !matches!(sim.next_event(), DriverEvent::Finished) {}
    let m = sim.finish();
    let mut u = m.node_utilization.clone();
    u.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert_eq!(u.len(), 2);
    assert!(u[0].abs() < 1e-9, "idle node utilization {}", u[0]);
    assert!((u[1] - 0.5).abs() < 1e-6, "busy node utilization {}", u[1]);
}

#[test]
fn peak_nodes_tracks_largest_cluster() {
    let mut sim = ClusterSim::new(cfg());
    sim.reconfigure(&provision(3)).unwrap();
    assert_eq!(sim.metrics.peak_nodes, 3);
    // Shrink to 1: the peak must remember 3.
    let old: Vec<IntervalSet> = (0..3)
        .map(|i| IntervalSet::from_intervals([(i * 10, i * 10 + 5)]))
        .collect();
    let new = vec![IntervalSet::from_intervals([(0u64, 5u64)])];
    sim.reconfigure(&plan_transition(&old, &new)).unwrap();
    assert_eq!(sim.logical.len(), 1);
    assert_eq!(sim.metrics.peak_nodes, 3);
}

#[test]
fn throughput_series_counts_read_tuples_only() {
    let mut sim = ClusterSim::new(cfg());
    sim.reconfigure(&provision(1)).unwrap();
    let old = vec![IntervalSet::from_intervals([(0u64, 500u64)])];
    let new = vec![IntervalSet::from_intervals([(0u64, 1000u64)])];
    sim.reconfigure(&plan_transition(&old, &new)).unwrap(); // 500-tuple transfer
    sim.schedule_query(SimTime::from_secs(0), query(&[(0, 300)]));
    drive(&mut sim, |_, _| vec![(NodeId(0), 300)]);
    let m = sim.finish();
    // Only the 300 read tuples count toward throughput.
    assert!((m.read_throughput.total() - 300.0).abs() < 1e-9);
}

// ------------------------------------------------------------------
// Failure and network model
// ------------------------------------------------------------------

#[test]
fn crash_fails_inflight_query_and_retry_completes() {
    let mut sim = ClusterSim::new(cfg());
    sim.reconfigure(&provision(2)).unwrap();
    sim.schedule_query(SimTime::from_secs(0), query(&[(0, 1000)]));
    // Node 1 dies mid-read at t=0.5 s; the read would have finished at 1 s.
    sim.schedule_faults(&FaultSchedule::from_events(vec![crash(0, 1)]));
    // (crash at t=0 sorts before arrival? No: both t=0, crash scheduled
    // after the arrival, FIFO keeps arrival first — but make it explicit.)
    let mut saw_node_failed = false;
    let mut completions = 0;
    loop {
        match sim.next_event() {
            DriverEvent::QueryArrived { id, .. } => {
                assert!(sim.idle(NodeId(1), true));
                sim.dispatch(id, &[(NodeId(1), 1000)]).unwrap();
                // Queued work makes a node busy; an unmapped one is never idle.
                assert!(!sim.idle(NodeId(1), false));
                assert!(sim.idle(NodeId(0), true));
                assert!(!sim.idle(NodeId(2), false));
            }
            DriverEvent::NodeFailed { node } => {
                assert_eq!(node, NodeId(1));
                saw_node_failed = true;
                assert!(!sim.node_alive(NodeId(1)));
                assert!(sim.node_alive(NodeId(0)));
                // A crashed node is idle only to a caller that ignores liveness.
                assert!(!sim.idle(NodeId(1), true));
                assert!(sim.idle(NodeId(1), false));
            }
            DriverEvent::QueryFailed { id, attempts } => {
                assert_eq!(attempts, 1);
                // Routing to the dead node is now rejected ...
                assert_eq!(
                    sim.dispatch(id, &[(NodeId(1), 1000)]),
                    Err(DispatchError::FailedNode { node: NodeId(1) })
                );
                // ... so retry on the survivor.
                sim.dispatch(id, &[(NodeId(0), 1000)]).unwrap();
            }
            DriverEvent::QueryCompleted { .. } => completions += 1,
            DriverEvent::Finished => break,
            _ => {}
        }
    }
    assert!(saw_node_failed);
    assert_eq!(completions, 1);
    let m = sim.finish();
    // Exactly one record — the retry, with the original arrival time.
    assert_eq!(m.queries.len(), 1);
    assert_eq!(m.queries[0].arrival, SimTime::from_secs(0));
    // Crash fired at t=0 (before any service), retry read takes 1 s.
    assert!((m.queries[0].latency().as_secs_f64() - 1.0).abs() < 1e-9);
    let a = &m.availability;
    assert_eq!(a.node_crashes, 1);
    assert_eq!(a.queries_failed, 1);
    assert_eq!(a.queries_retried, 1);
    assert_eq!(a.queries_abandoned, 0);
    assert_eq!(a.jobs_lost, 1);
}

#[test]
fn fault_on_unmapped_slot_is_skipped() {
    let mut sim = ClusterSim::new(cfg());
    sim.reconfigure(&provision(1)).unwrap();
    sim.schedule_faults(&FaultSchedule::from_events(vec![crash(1, 7)]));
    while !matches!(sim.next_event(), DriverEvent::Finished) {}
    let m = sim.finish();
    assert_eq!(m.availability.faults_skipped, 1);
    assert_eq!(m.availability.node_crashes, 0);
}

#[test]
fn abandoned_query_is_counted_not_recorded() {
    let mut sim = ClusterSim::new(cfg());
    sim.reconfigure(&provision(1)).unwrap();
    sim.schedule_query(SimTime::from_secs(0), query(&[(0, 1000)]));
    sim.schedule_faults(&FaultSchedule::from_events(vec![crash(0, 0)]));
    loop {
        match sim.next_event() {
            DriverEvent::QueryArrived { id, .. } => {
                sim.dispatch(id, &[(NodeId(0), 1000)]).unwrap();
            }
            DriverEvent::QueryFailed { id, .. } => {
                // Only replica is gone: give up.
                assert!(sim.abandon_query(id));
                // A second abandon is a no-op.
                assert!(!sim.abandon_query(id));
            }
            DriverEvent::Finished => break,
            _ => {}
        }
    }
    let m = sim.finish();
    assert_eq!(m.queries.len(), 0);
    assert_eq!(m.availability.queries_abandoned, 1);
    assert_eq!(m.availability.queries_failed, 1);
}

#[test]
fn stale_reads_of_a_failed_attempt_are_wasted_not_counted() {
    // A query with reads on two nodes loses one to a crash; the
    // surviving node's read must not complete the retried query or
    // count toward throughput.
    let mut sim = ClusterSim::new(cfg());
    sim.reconfigure(&provision(3)).unwrap();
    sim.schedule_query(SimTime::from_secs(0), query(&[(0, 4000)]));
    // Node 1 dies at t=1; node 0's half (2000 tuples) finishes at t=2.
    sim.schedule_faults(&FaultSchedule::from_events(vec![crash(1, 1)]));
    let mut completions = 0;
    loop {
        match sim.next_event() {
            DriverEvent::QueryArrived { id, .. } => {
                sim.dispatch(id, &[(NodeId(0), 2000), (NodeId(1), 2000)])
                    .unwrap();
            }
            DriverEvent::QueryFailed { id, .. } => {
                // Retry entirely on node 2.
                sim.dispatch(id, &[(NodeId(2), 4000)]).unwrap();
            }
            DriverEvent::QueryCompleted { .. } => completions += 1,
            DriverEvent::Finished => break,
            _ => {}
        }
    }
    let m = sim.finish();
    assert_eq!(completions, 1);
    assert_eq!(m.queries.len(), 1);
    // Node 0's orphaned read was served but wasted.
    assert_eq!(m.availability.reads_wasted, 1);
    // Throughput counts the retry's 4000 tuples, not the stale 2000.
    assert!(
        (m.read_throughput.total() - 4000.0).abs() < 1e-9,
        "throughput {}",
        m.read_throughput.total()
    );
}

#[test]
fn network_read_crosses_nic_then_core() {
    // 1000-tuple read: disk 1 s, NIC 1 s, core 0.5 s → latency 2.5 s.
    let mut sim = ClusterSim::new(net_cfg(1_000, 2_000));
    sim.reconfigure(&provision(1)).unwrap();
    sim.schedule_query(SimTime::from_secs(0), query(&[(0, 1000)]));
    drive(&mut sim, |_, _| vec![(NodeId(0), 1000)]);
    let m = sim.finish();
    assert_eq!(m.queries.len(), 1);
    assert!((m.queries[0].latency().as_secs_f64() - 2.5).abs() < 1e-9);
}

#[test]
fn core_link_contention_serializes_concurrent_reads() {
    // Two parallel 1000-tuple reads on separate nodes: disks and NICs
    // run concurrently (done t=2), but the shared core carries them one
    // after the other (t=3 and t=4).
    let mut sim = ClusterSim::new(net_cfg(1_000, 1_000));
    sim.reconfigure(&provision(2)).unwrap();
    sim.schedule_query(SimTime::from_secs(0), query(&[(0, 1000)]));
    sim.schedule_query(SimTime::from_secs(0), query(&[(0, 1000)]));
    let mut next = 0u64;
    drive(&mut sim, |_, _| {
        let node = NodeId(next % 2);
        next += 1;
        vec![(node, 1000)]
    });
    let m = sim.finish();
    let mut lats: Vec<f64> = m
        .queries
        .iter()
        .map(|q| q.latency().as_secs_f64())
        .collect();
    lats.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert!((lats[0] - 3.0).abs() < 1e-9, "latencies {lats:?}");
    assert!((lats[1] - 4.0).abs() < 1e-9, "latencies {lats:?}");
}

#[test]
fn transfer_crosses_network_and_dies_with_receiver() {
    // Provision a second node with a 2000-tuple transfer (core 1 s, NIC
    // 2 s → arrives at disk t=3), but crash the receiver at t=1: the
    // copy is lost mid-transition and never becomes a disk job.
    let mut sim = ClusterSim::new(net_cfg(1_000, 2_000));
    sim.reconfigure(&provision(1)).unwrap();
    let old = vec![IntervalSet::from_intervals([(0u64, 2000u64)])];
    let new = vec![
        IntervalSet::from_intervals([(0u64, 2000u64)]),
        IntervalSet::from_intervals([(0u64, 2000u64)]),
    ];
    sim.reconfigure(&plan_transition(&old, &new)).unwrap();
    sim.schedule_faults(&FaultSchedule::from_events(vec![crash(1, 1)]));
    while !matches!(sim.next_event(), DriverEvent::Finished) {}
    let m = sim.finish();
    assert_eq!(m.availability.node_crashes, 1);
    assert_eq!(m.availability.tuples_lost, 2000);
    // The transfer was initiated (and charged) but never served.
    assert_eq!(m.total_transfer(), 2000);
}

#[test]
fn same_fault_schedule_is_deterministic() {
    let run = || {
        let mut sim = ClusterSim::new(net_cfg(2_000, 4_000));
        sim.reconfigure(&provision(3)).unwrap();
        for i in 0..12u64 {
            sim.schedule_query(SimTime::from_secs(i), query(&[(0, 900)]));
        }
        sim.schedule_faults(&FaultSchedule::from_events(vec![
            crash(4, 1),
            FaultEvent {
                at: SimTime::from_secs(6),
                node: 2,
                kind: FaultKind::Straggler {
                    slowdown: 3.0,
                    duration: SimDuration::from_secs(4),
                },
            },
        ]));
        let mut next = 0u64;
        loop {
            match sim.next_event() {
                DriverEvent::QueryArrived { id, .. } => {
                    let mut node = NodeId(next % 3);
                    next += 1;
                    if !sim.node_alive(node) {
                        node = NodeId(0);
                    }
                    sim.dispatch(id, &[(node, 900)]).unwrap();
                }
                DriverEvent::QueryFailed { id, .. } => {
                    sim.dispatch(id, &[(NodeId(0), 900)]).unwrap();
                }
                DriverEvent::Finished => break,
                _ => {}
            }
        }
        sim.finish()
    };
    let a = run();
    let b = run();
    assert_eq!(a.queries, b.queries);
    assert_eq!(a.availability, b.availability);
    assert!((a.total_cost - b.total_cost).abs() < 1e-12);
}

#[test]
fn crashed_read_completion_still_ends_the_run() {
    // Node 1 crashes at t = 1 s with a 10 s read in service, and the
    // retry on node 0 completes at t = 2 s. The crashed read's
    // completion is released from node 1's slot, not cancelled: it is
    // the run's last event, so the run ends — and both nodes bill —
    // at t = 10 s.
    let mut sim = ClusterSim::new(cfg());
    sim.reconfigure(&provision(2)).unwrap();
    sim.schedule_query(SimTime::ZERO, query(&[(0, 10_000)]));
    sim.schedule_faults(&FaultSchedule::from_events(vec![crash(1, 1)]));
    loop {
        match sim.next_event() {
            DriverEvent::QueryArrived { id, .. } => {
                sim.dispatch(id, &[(NodeId(1), 10_000)]).unwrap();
            }
            DriverEvent::QueryFailed { id, .. } => {
                sim.dispatch(id, &[(NodeId(0), 1_000)]).unwrap();
            }
            DriverEvent::Finished => break,
            _ => {}
        }
    }
    assert_eq!(sim.events.now(), SimTime::from_secs(10));
    let m = sim.finish();
    assert_eq!(m.queries.len(), 1);
    assert_eq!(m.queries[0].completion, SimTime::from_secs(2));
    // 2 nodes × 10 s × 1 unit per second.
    assert!((m.total_cost - 20.0).abs() < 1e-6, "cost {}", m.total_cost);
}

/// The event queue's work bound as counts, which only builds with debug
/// assertions keep.
#[cfg(debug_assertions)]
#[test]
fn only_restarts_and_transfers_reach_the_fallback_heap() {
    // Every event kind on three overloaded nodes: arrivals, reads
    // crossing the network, two crash-restarts of busy nodes, a
    // straggler, timers, and reconfigurations that ship transfers.
    let mut sim = ClusterSim::new(net_cfg(2_000, 4_000));
    sim.reconfigure(&provision(3)).unwrap();
    for i in 0..60u64 {
        let at = SimTime::ZERO + SimDuration::from_millis(250 * i);
        sim.schedule_query(at, query(&[(0, 800)]));
    }
    let fault = |secs, node, kind| FaultEvent {
        at: SimTime::from_secs(secs),
        node,
        kind,
    };
    let restart = FaultKind::CrashRestart {
        down_for: SimDuration::from_secs(2),
    };
    sim.schedule_faults(&FaultSchedule::from_events(vec![
        fault(4, 1, restart),
        fault(
            6,
            2,
            FaultKind::Straggler {
                slowdown: 2.0,
                duration: SimDuration::from_secs(3),
            },
        ),
        fault(9, 0, restart),
    ]));
    for secs in [5, 10] {
        sim.schedule_wakeup(SimTime::from_secs(secs), 0);
    }
    let mut next = 0usize;
    let mut transfers = 0u64;
    loop {
        match sim.next_event() {
            DriverEvent::QueryArrived { id, .. } | DriverEvent::QueryFailed { id, .. } => {
                let alive: Vec<NodeId> =
                    (0..3).map(NodeId).filter(|&n| sim.node_alive(n)).collect();
                let reads: Vec<(NodeId, u64)> = (0..2)
                    .map(|_| {
                        next += 1;
                        (alive[next % alive.len()], 400)
                    })
                    .collect();
                sim.dispatch(id, &reads).unwrap();
            }
            DriverEvent::Wakeup { .. } => {
                let moves = (0..3)
                    .map(|n| NodeMove::Reuse {
                        old: NodeId(n),
                        new: NodeId(n),
                        transfer: 500,
                    })
                    .collect();
                // A transfer to a crashed node is lost before it starts.
                transfers += (0..3).filter(|&n| sim.node_alive(NodeId(n))).count() as u64;
                let plan = TransitionPlan {
                    moves,
                    total_transfer: 1_500,
                };
                sim.reconfigure(&plan).unwrap();
            }
            DriverEvent::Finished => break,
            _ => {}
        }
    }
    let tally = sim.events.tally().clone();
    let lanes = [sim.fault_lane, sim.wakeup_lane, sim.delivery_lane];
    let m = sim.finish();
    assert_eq!(m.queries.len(), 60);
    assert_eq!(m.availability.node_restarts, 2);
    // Faults, wake-ups and deliveries never leave their lanes.
    for lane in lanes {
        assert_eq!(tally.spilled(lane), 0, "{lane:?}");
    }
    // Restarts and transfer arrivals land below the arrivals' tail.
    assert_eq!(
        tally.spilled(Lane::default()),
        m.availability.node_restarts + transfers
    );
    // Completions reach the fallback heap only when a crash releases
    // one (both crashes hit a read in service), and most of them re-key
    // their node's entry in place.
    assert_eq!(tally.released, m.availability.node_crashes);
    assert!(
        tally.rekeyed > tally.pushed,
        "{} re-keyed, {} pushed",
        tally.rekeyed,
        tally.pushed
    );
}
