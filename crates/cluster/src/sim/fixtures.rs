//! Fixtures shared by the simulator's unit tests.

use nashdb_core::transition::{plan_transition, IntervalSet};
use nashdb_sim::fault::FaultEvent;

use super::*;

pub(super) fn cfg() -> ClusterConfig {
    ClusterConfig {
        throughput_tps: 1_000.0,    // 1k tuples/sec: easy arithmetic
        node_cost_per_hour: 3600.0, // 1 unit per second
        metrics_bucket: SimDuration::from_secs(10),
        network: None,
    }
}

pub(super) fn net_cfg(nic_tps: u64, core_tps: u64) -> ClusterConfig {
    ClusterConfig {
        network: Some(NetConfig { nic_tps, core_tps }),
        ..cfg()
    }
}

pub(super) fn provision(n: usize) -> TransitionPlan {
    let new: Vec<IntervalSet> = (0..n).map(|_| IntervalSet::new()).collect();
    plan_transition(&[], &new)
}

pub(super) fn query(scans: &[(u64, u64)]) -> QueryRequest {
    QueryRequest {
        price: 1.0,
        scans: scans
            .iter()
            .map(|&(s, e)| ScanRange::new(TableId(0), s, e))
            .collect(),
        tag: 0,
    }
}

pub(super) fn crash(at_secs: u64, node: u64) -> FaultEvent {
    FaultEvent {
        at: SimTime::from_secs(at_secs),
        node,
        kind: FaultKind::Crash,
    }
}

/// Drives the sim to completion, dispatching every query to `route`.
pub(super) fn drive(
    sim: &mut ClusterSim,
    mut route: impl FnMut(&ClusterSim, &QueryRequest) -> Vec<(NodeId, u64)>,
) {
    loop {
        match sim.next_event() {
            DriverEvent::QueryArrived { id, query } => {
                let reads = route(sim, &query);
                sim.dispatch(id, &reads).unwrap();
            }
            DriverEvent::Finished => break,
            _ => {}
        }
    }
}
