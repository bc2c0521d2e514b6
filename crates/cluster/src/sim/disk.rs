//! One physical node's disk: a FIFO queue of jobs served one at a time at
//! the node's throughput (paper §8), and the node's lifecycle.

use std::collections::VecDeque;

use nashdb_core::ids::QueryId;
use nashdb_sim::{SimDuration, SimTime};

/// A fragment read's query and dispatch attempt, so a read of a superseded
/// attempt cannot complete a retried query. A transfer write has none.
pub(super) type Read = (QueryId, u32);

/// A finished job's size and tag, and its successor's completion time.
pub(super) type Completed = (u64, Option<Read>, Option<SimTime>);

/// Where a node is in its life: `Up ⇄ Down` by crash and restart; once
/// decommissioned, `Draining` until its queue is empty, then `Retired` and
/// billed. A node is mapped to a logical slot exactly while it is `Up` or
/// `Down`, and a `Down` node's queue is empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Life {
    Up,
    Down,
    Draining,
    Retired,
}

#[derive(Debug, Clone, Copy)]
struct Job {
    tuples: u64,
    read: Option<Read>,
}

/// A node's disk queue and lifecycle.
#[derive(Debug)]
pub(super) struct Disk {
    life: Life,
    queue: VecDeque<Job>,
    /// The job on the disk. The queue is empty whenever this is `None`.
    in_service: Option<Job>,
    service_started: SimTime,
    /// Tuples queued or in service: the wait a router observes.
    backlog: u64,
    /// Disk time spent serving jobs.
    busy: SimDuration,
    /// Bumped at every crash; events carrying an older epoch are stale.
    epoch: u64,
    /// Jobs *started* before `slow_until` take `slow_factor` times longer.
    slow_until: SimTime,
    slow_factor: f64,
    throughput_tps: f64,
    provisioned_at: SimTime,
    /// The last dispatch that read from this node.
    last_dispatch: u64,
}

impl Disk {
    pub(super) fn new(now: SimTime, throughput_tps: f64) -> Self {
        Disk {
            life: Life::Up,
            queue: VecDeque::new(),
            in_service: None,
            service_started: now,
            backlog: 0,
            busy: SimDuration::ZERO,
            epoch: 0,
            slow_until: SimTime::ZERO,
            slow_factor: 1.0,
            throughput_tps,
            provisioned_at: now,
            last_dispatch: 0,
        }
    }

    pub(super) fn is_up(&self) -> bool {
        self.life == Life::Up
    }

    pub(super) fn backlog(&self) -> u64 {
        self.backlog
    }

    pub(super) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether a transfer sent under `epoch` still lands: the node has not
    /// crashed since, and it still has a queue.
    pub(super) fn accepts(&self, epoch: u64) -> bool {
        self.epoch == epoch && matches!(self.life, Life::Up | Life::Draining)
    }

    /// Stamps the node with dispatch number `dispatch`. True the first time,
    /// which is how a dispatch counts its distinct nodes without a set.
    pub(super) fn stamp(&mut self, dispatch: u64) -> bool {
        std::mem::replace(&mut self.last_dispatch, dispatch) != dispatch
    }

    /// Queues a job. An idle disk starts it at once and returns its
    /// completion time, for the caller to schedule.
    pub(super) fn enqueue(
        &mut self,
        tuples: u64,
        read: Option<Read>,
        now: SimTime,
    ) -> Option<SimTime> {
        self.backlog = self.backlog.saturating_add(tuples);
        let job = Job { tuples, read };
        if self.in_service.is_some() {
            self.queue.push_back(job);
            return None;
        }
        Some(self.start(job, now))
    }

    /// Ends the in-service job at `now` and starts the next, unless `epoch`
    /// is stale: a crash since the job started already dropped it.
    pub(super) fn complete(&mut self, epoch: u64, now: SimTime) -> Option<Completed> {
        if self.epoch != epoch {
            return None;
        }
        let job = self.in_service.take()?;
        self.backlog = self.backlog.saturating_sub(job.tuples);
        self.busy += now.since(self.service_started);
        let next = self.queue.pop_front().map(|next| self.start(next, now));
        Some((job.tuples, job.read, next))
    }

    /// Puts `job` on the disk; returns when it completes. The service time
    /// is judged now, stretched inside a straggler window.
    fn start(&mut self, job: Job, now: SimTime) -> SimTime {
        self.in_service = Some(job);
        self.service_started = now;
        let mut secs = job.tuples as f64 / self.throughput_tps;
        if now < self.slow_until {
            // `from_secs_f64` reads +∞ as garbage (zero), so an unbounded
            // stretch is clamped to saturate as a huge finite one does. A
            // zero-tuple job's 0 × ∞ is NaN, which `clamp` keeps: zero.
            secs = (secs * self.slow_factor).clamp(0.0, f64::MAX);
        }
        now + SimDuration::from_secs_f64(secs)
    }

    /// Opens a straggler window until `until`.
    pub(super) fn slow_down(&mut self, slowdown: f64, until: SimTime) {
        self.slow_factor = slowdown.max(1.0);
        self.slow_until = until;
    }

    /// Crashes the node. Everything queued or in service is lost, the
    /// straggler window closes, and the epoch moves on so completions and
    /// transfers already in flight go stale. Returns the number of jobs and
    /// tuples lost, and the lost reads.
    pub(super) fn crash(&mut self) -> (u64, u64, Vec<Read>) {
        self.life = Life::Down;
        self.epoch = self.epoch.saturating_add(1);
        self.slow_until = SimTime::ZERO;
        self.slow_factor = 1.0;
        let mut dropped: Vec<Job> = self.in_service.take().into_iter().collect();
        dropped.extend(self.queue.drain(..));
        let reads = dropped.iter().filter_map(|job| job.read).collect();
        (
            dropped.len() as u64,
            std::mem::take(&mut self.backlog),
            reads,
        )
    }

    /// Brings a crashed node back up. False if it retired while down.
    pub(super) fn restart(&mut self) -> bool {
        let down = self.life == Life::Down;
        if down {
            self.life = Life::Up;
        }
        down
    }

    /// Takes the node out of the scheme: it finishes its queue, then
    /// retires. True if it is idle, ready to retire at once.
    pub(super) fn decommission(&mut self) -> bool {
        self.life = Life::Draining;
        self.in_service.is_none()
    }

    pub(super) fn is_draining(&self) -> bool {
        self.life == Life::Draining
    }

    /// Retires the node at `until` and returns what billing reads: its
    /// lifetime and the disk time it spent serving. `None` if it already
    /// retired.
    pub(super) fn retire(&mut self, until: SimTime) -> Option<(SimDuration, SimDuration)> {
        let life = std::mem::replace(&mut self.life, Life::Retired);
        (life != Life::Retired).then(|| (until.since(self.provisioned_at), self.busy))
    }
}

#[cfg(test)]
mod tests {
    use nashdb_core::transition::{plan_transition, IntervalSet};
    use nashdb_sim::fault::FaultEvent;

    use super::super::fixtures::*;
    use super::super::*;

    #[test]
    fn decommissioned_node_drains_then_stops_costing() {
        let mut sim = ClusterSim::new(cfg());
        sim.reconfigure(&provision(2)).unwrap();
        sim.schedule_query(SimTime::from_secs(0), query(&[(0, 1000)]));
        match sim.next_event() {
            DriverEvent::QueryArrived { id, .. } => sim.dispatch(id, &[(NodeId(1), 1000)]).unwrap(),
            other => panic!("unexpected {other:?}"),
        }
        // Scale down to one node: keep node 0, decommission busy node 1.
        let old = vec![
            IntervalSet::from_intervals([(0u64, 10u64)]),
            IntervalSet::from_intervals([(50u64, 60u64)]),
        ];
        let new = vec![IntervalSet::from_intervals([(0u64, 10u64)])];
        sim.reconfigure(&plan_transition(&old, &new)).unwrap();
        assert_eq!(sim.logical.len(), 1);
        // The draining node still completes the query.
        let mut completed = false;
        loop {
            match sim.next_event() {
                DriverEvent::QueryCompleted { .. } => completed = true,
                DriverEvent::Finished => break,
                _ => {}
            }
        }
        assert!(completed);
        // Much later, only the surviving node accrues cost.
        let m = sim.finish();
        // Node 1 retired at t=1 s (drain), node 0 at t=1 s (end of events):
        // total 2 node-seconds.
        assert!((m.total_cost - 2.0).abs() < 1e-6, "cost {}", m.total_cost);
    }

    #[test]
    fn crash_restart_brings_the_node_back() {
        let mut sim = ClusterSim::new(cfg());
        sim.reconfigure(&provision(2)).unwrap();
        sim.schedule_faults(&FaultSchedule::from_events(vec![FaultEvent {
            at: SimTime::from_secs(1),
            node: 1,
            kind: FaultKind::CrashRestart {
                down_for: SimDuration::from_secs(2),
            },
        }]));
        sim.schedule_wakeup(SimTime::from_secs(10), 0);
        let mut restored = false;
        loop {
            match sim.next_event() {
                DriverEvent::NodeFailed { node } => {
                    assert_eq!(node, NodeId(1));
                    assert!(!sim.node_alive(NodeId(1)));
                }
                DriverEvent::NodeRestored { node } => {
                    assert_eq!(node, NodeId(1));
                    assert!(sim.node_alive(NodeId(1)));
                    restored = true;
                }
                DriverEvent::Finished => break,
                _ => {}
            }
        }
        assert!(restored);
        let m = sim.finish();
        assert_eq!(m.availability.node_crashes, 1);
        assert_eq!(m.availability.node_restarts, 1);
        // Down from t=1 to t=3.
        assert_eq!(m.availability.degraded, SimDuration::from_secs(2));
    }

    #[test]
    fn straggler_window_stretches_service() {
        let mut sim = ClusterSim::new(cfg());
        sim.reconfigure(&provision(1)).unwrap();
        sim.schedule_faults(&FaultSchedule::from_events(vec![FaultEvent {
            at: SimTime::from_secs(0),
            node: 0,
            kind: FaultKind::Straggler {
                slowdown: 4.0,
                duration: SimDuration::from_secs(10),
            },
        }]));
        // Arrives inside the window: 1 s of work takes 4 s.
        sim.schedule_query(SimTime::from_secs(1), query(&[(0, 1000)]));
        // Arrives after the window: full speed again.
        sim.schedule_query(SimTime::from_secs(20), query(&[(0, 1000)]));
        drive(&mut sim, |_, _| vec![(NodeId(0), 1000)]);
        let m = sim.finish();
        assert_eq!(m.queries.len(), 2);
        assert!((m.queries[0].latency().as_secs_f64() - 4.0).abs() < 1e-9);
        assert!((m.queries[1].latency().as_secs_f64() - 1.0).abs() < 1e-9);
        // Stragglers degrade nothing permanently and fail nothing.
        assert_eq!(m.availability.queries_failed, 0);
        assert_eq!(m.availability.node_crashes, 0);
    }

    #[test]
    fn unbounded_straggler_stretch_saturates() {
        // When a read of `tuples`, started at t = 1 s inside a straggler
        // window of `slowdown`, is due to complete.
        let completion = |slowdown: f64, tuples: u64| {
            let mut sim = ClusterSim::new(cfg());
            sim.reconfigure(&provision(1)).unwrap();
            sim.schedule_faults(&FaultSchedule::from_events(vec![FaultEvent {
                at: SimTime::ZERO,
                node: 0,
                kind: FaultKind::Straggler {
                    slowdown,
                    duration: SimDuration::from_secs(10),
                },
            }]));
            sim.schedule_query(SimTime::from_secs(1), query(&[(0, 500)]));
            let DriverEvent::QueryArrived { id, .. } = sim.next_event() else {
                panic!("expected an arrival");
            };
            sim.dispatch(id, &[(NodeId(0), tuples)]).unwrap();
            sim.events.peek_time()
        };
        // 500 tuples at 1,000 tuples/s take 0.5 s unstretched. An infinite
        // stretch saturates as a huge finite one does, instead of serving
        // the read at once; 0 × ∞ leaves a zero-tuple read instant.
        let at = |ms| Some(SimTime::ZERO + SimDuration::from_millis(ms));
        assert_eq!(completion(1.0, 500), at(1_500));
        assert_eq!(completion(1e300, 500), Some(SimTime::MAX));
        assert_eq!(completion(f64::INFINITY, 500), Some(SimTime::MAX));
        assert_eq!(completion(f64::INFINITY, 0), at(1_000));
    }

    /// Scales the cluster from two nodes down to one: slot 0 stays, slot 1
    /// is decommissioned.
    fn drop_slot_one(sim: &mut ClusterSim) {
        let old = vec![
            IntervalSet::from_intervals([(0u64, 10u64)]),
            IntervalSet::from_intervals([(50u64, 60u64)]),
        ];
        let new = vec![IntervalSet::from_intervals([(0u64, 10u64)])];
        sim.reconfigure(&plan_transition(&old, &new)).unwrap();
    }

    #[test]
    fn dispatch_past_the_cluster_is_unknown_node() {
        // Slot 1 is decommissioned while busy, so it drains; slot 7 never
        // existed. Neither is a dispatch target, and a rejected dispatch
        // leaves the query awaiting dispatch.
        let mut sim = ClusterSim::new(cfg());
        sim.reconfigure(&provision(2)).unwrap();
        sim.schedule_query(SimTime::ZERO, query(&[(0, 1000)]));
        sim.schedule_query(SimTime::from_secs(0), query(&[(0, 10)]));
        let DriverEvent::QueryArrived { id, .. } = sim.next_event() else {
            panic!("expected an arrival");
        };
        sim.dispatch(id, &[(NodeId(1), 1000)]).unwrap();
        let DriverEvent::QueryArrived { id, .. } = sim.next_event() else {
            panic!("expected an arrival");
        };
        drop_slot_one(&mut sim);
        for node in [NodeId(1), NodeId(7)] {
            assert_eq!(
                sim.dispatch(id, &[(node, 10)]),
                Err(DispatchError::UnknownNode { node })
            );
        }
        assert_eq!(sim.queue_waits(), vec![0]);
        sim.dispatch(id, &[(NodeId(0), 10)]).unwrap();
        while !matches!(sim.next_event(), DriverEvent::Finished) {}
        assert_eq!(sim.finish().queries.len(), 2);
    }

    #[test]
    fn node_decommissioned_while_down_retires_at_once() {
        // Slot 1 crashes at t = 1 s with a restart due at t = 6 s, and is
        // decommissioned at t = 2 s. It retires then, so its restart brings
        // nothing back.
        let mut sim = ClusterSim::new(cfg());
        sim.reconfigure(&provision(2)).unwrap();
        sim.schedule_faults(&FaultSchedule::from_events(vec![FaultEvent {
            at: SimTime::from_secs(1),
            node: 1,
            kind: FaultKind::CrashRestart {
                down_for: SimDuration::from_secs(5),
            },
        }]));
        sim.schedule_wakeup(SimTime::from_secs(2), 0);
        sim.schedule_wakeup(SimTime::from_secs(10), 1);
        loop {
            match sim.next_event() {
                DriverEvent::Wakeup { tag: 0 } => drop_slot_one(&mut sim),
                DriverEvent::NodeRestored { node } => panic!("{node} restored after retiring"),
                DriverEvent::Finished => break,
                _ => {}
            }
        }
        let m = sim.finish();
        assert_eq!(m.availability.node_crashes, 1);
        assert_eq!(m.availability.node_restarts, 0);
        // Degraded from the crash until the slot left the scheme.
        assert_eq!(m.availability.degraded, SimDuration::from_secs(1));
        // Node 1 billed for 0–2 s, node 0 for 0–10 s, at 1 unit per second.
        assert!((m.total_cost - 12.0).abs() < 1e-6, "cost {}", m.total_cost);
    }
}
