//! The event-driven cluster simulator.

use std::collections::{BTreeSet, VecDeque};

use nashdb_core::ids::{NodeId, QueryId, TableId};
use nashdb_core::transition::{NodeMove, TransitionPlan};
use nashdb_obs::Metric;
use nashdb_sim::fault::{FaultKind, FaultSchedule};
use nashdb_sim::net::SharedLink;
use nashdb_sim::{EventQueue, Lane, SimDuration, SimTime};

use crate::metrics::{Metrics, QueryRecord};

/// The "one big switch" network model: every node owns a NIC link, and all
/// NICs feed one shared core link. A fragment read crosses its server's NIC
/// and then the core on its way back to the client; a transition transfer
/// crosses the core and then the receiving node's NIC before its disk
/// write. Concurrent flows on the same link delay each other FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Tuples per second each node's NIC carries.
    pub nic_tps: u64,
    /// Tuples per second the shared core link carries (the contended
    /// resource: all nodes' traffic crosses it).
    pub core_tps: u64,
}

/// Simulator parameters.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Sequential disk throughput per node, in tuples per second. Both
    /// fragment reads and incoming transfer writes are charged at this rate.
    pub throughput_tps: f64,
    /// Node rent, in 1/100 cent per hour (the paper reports cost in 1/100
    /// cent).
    pub node_cost_per_hour: f64,
    /// Bucket width for the throughput-over-time series.
    pub metrics_bucket: SimDuration,
    /// Optional shared-link network model. `None` (the default) keeps the
    /// legacy free-instantaneous network: reads complete at disk completion
    /// and transfers only cost disk time at the receiver.
    pub network: Option<NetConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            // Loosely an SSD-backed EC2 volume scanning ~1 GB/s of 100-byte
            // tuples.
            throughput_tps: 10_000_000.0,
            node_cost_per_hour: 100.0,
            metrics_bucket: SimDuration::from_secs(60),
            network: None,
        }
    }
}

/// One range scan of a query, against a table's physical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanRange {
    /// The scanned table.
    pub table: TableId,
    /// First tuple (inclusive).
    pub start: u64,
    /// One past the last tuple (exclusive).
    pub end: u64,
}

impl ScanRange {
    /// Creates a scan range.
    ///
    /// # Panics
    /// Panics if the range is empty.
    pub fn new(table: TableId, start: u64, end: u64) -> Self {
        assert!(start < end, "empty scan range {start}..{end}");
        ScanRange { table, start, end }
    }

    /// Tuples read.
    pub fn size(&self) -> u64 {
        self.end - self.start
    }
}

/// A query submitted to the cluster: a price (priority) and its range scans.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// The price the user pays for the query, in 1/100 cent.
    pub price: f64,
    /// The scans its plan issues.
    pub scans: Vec<ScanRange>,
    /// Caller tag (e.g. TPC-H template number) carried through to metrics
    /// consumers.
    pub tag: u32,
}

/// What the simulator hands back to its driver.
#[derive(Debug, Clone, PartialEq)]
pub enum DriverEvent {
    /// A query has arrived and must now be routed: the driver must call
    /// [`ClusterSim::dispatch`] (or [`ClusterSim::abandon_query`]) before
    /// pulling the next event.
    QueryArrived {
        /// The query's id.
        id: QueryId,
        /// The query itself.
        query: QueryRequest,
    },
    /// A query finished all of its fragment reads.
    QueryCompleted {
        /// The query's id.
        id: QueryId,
        /// Its end-to-end latency.
        latency: SimDuration,
    },
    /// A node crashed: its queued work is gone and it accepts no dispatches
    /// until (if ever) it restarts. Queries that lost reads follow as
    /// [`DriverEvent::QueryFailed`] events. `node` is the logical slot at
    /// crash time; [`ClusterSim::node_alive`] stays authoritative across
    /// later reconfigurations.
    NodeFailed {
        /// The crashed node's logical slot.
        node: NodeId,
    },
    /// A crashed node restarted and accepts dispatches again.
    NodeRestored {
        /// The restored node's current logical slot.
        node: NodeId,
    },
    /// A query lost a fragment read to a node crash. The driver must either
    /// re-dispatch it ([`ClusterSim::dispatch`] — the original arrival time
    /// is preserved, so the retry's latency includes the lost attempt) or
    /// give up ([`ClusterSim::abandon_query`]) before pulling the next
    /// event.
    QueryFailed {
        /// The failed query.
        id: QueryId,
        /// Attempts made so far (1 after the first failure).
        attempts: u32,
    },
    /// A driver-scheduled timer fired (used for reconfiguration intervals).
    Wakeup {
        /// The tag passed to [`ClusterSim::schedule_wakeup`].
        tag: u64,
    },
    /// No events remain; the simulation is over.
    Finished,
}

/// Why a [`ClusterSim::dispatch`] call was rejected. The simulator is left
/// untouched: no read of the rejected query is enqueued, and a query that
/// was awaiting dispatch still is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchError {
    /// The query already had its reads dispatched (it is running, completed,
    /// or was abandoned).
    DuplicateQuery {
        /// The query dispatched twice.
        id: QueryId,
    },
    /// The query was never scheduled, or has not arrived / failed yet.
    UnknownQuery {
        /// The unknown query.
        id: QueryId,
    },
    /// A read targets a node id outside the current scheme.
    UnknownNode {
        /// The out-of-range node.
        node: NodeId,
    },
    /// A read targets a node that is draining toward retirement.
    InactiveNode {
        /// The retiring node.
        node: NodeId,
    },
    /// A read targets a crashed node.
    FailedNode {
        /// The crashed node.
        node: NodeId,
    },
}

impl std::fmt::Display for DispatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DispatchError::DuplicateQuery { id } => {
                write!(f, "query {id} dispatched twice")
            }
            DispatchError::UnknownQuery { id } => {
                write!(f, "query {id} is not awaiting dispatch")
            }
            DispatchError::UnknownNode { node } => {
                write!(f, "dispatch to unknown node {node}")
            }
            DispatchError::InactiveNode { node } => {
                write!(f, "dispatch to retiring node {node}")
            }
            DispatchError::FailedNode { node } => {
                write!(f, "dispatch to crashed node {node}")
            }
        }
    }
}

impl std::error::Error for DispatchError {}

/// Why a [`ClusterSim::reconfigure`] call rejected its plan. The simulator
/// is left untouched: no node is provisioned, decommissioned, or sent a
/// transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigureError {
    /// A move names an old node outside the current cluster.
    UnknownOldNode {
        /// The out-of-range old node.
        node: NodeId,
    },
    /// Two moves target the same new node slot.
    DuplicateNewNode {
        /// The doubly-assigned new slot.
        node: NodeId,
    },
    /// A new node slot below the plan's maximum is assigned by no move.
    UncoveredNewNode {
        /// The uncovered slot.
        node: NodeId,
    },
    /// Two moves reuse or decommission the same old node.
    DuplicateOldNode {
        /// The doubly-used old node.
        node: NodeId,
    },
    /// A node of the current cluster is neither reused nor decommissioned.
    UncoveredOldNode {
        /// The node the plan leaves out.
        node: NodeId,
    },
}

impl std::fmt::Display for ReconfigureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReconfigureError::UnknownOldNode { node } => {
                write!(f, "transition plan references unknown old node {node}")
            }
            ReconfigureError::DuplicateNewNode { node } => {
                write!(f, "transition plan assigns new node {node} twice")
            }
            ReconfigureError::UncoveredNewNode { node } => {
                write!(f, "transition plan does not cover new node {node}")
            }
            ReconfigureError::DuplicateOldNode { node } => {
                write!(f, "transition plan uses old node {node} twice")
            }
            ReconfigureError::UncoveredOldNode { node } => {
                write!(f, "transition plan does not cover old node {node}")
            }
        }
    }
}

impl std::error::Error for ReconfigureError {}

#[derive(Debug)]
enum Event {
    Arrival(QueryId),
    JobDone {
        phys: usize,
        /// The node's crash epoch when the job started; a crash bumps the
        /// epoch, invalidating completions already in flight.
        epoch: u64,
    },
    /// A transition transfer finished crossing the network and reaches the
    /// receiving node's disk.
    NetArrival {
        phys: usize,
        epoch: u64,
        tuples: u64,
    },
    /// A fragment read finished crossing the network back to the client.
    NetDelivery {
        id: QueryId,
        attempt: u32,
        tuples: u64,
    },
    /// A scheduled fault fires against a logical slot.
    Fault {
        node: u64,
        kind: FaultKind,
    },
    /// A crashed node finishes rebooting.
    Restart {
        phys: usize,
    },
    Wakeup(u64),
}

#[derive(Debug, Clone, Copy)]
struct Job {
    tuples: u64,
    /// `Some` for a query fragment read (tagged with the dispatch attempt,
    /// so reads of a superseded attempt cannot complete a retried query),
    /// `None` for a transfer write.
    query: Option<(QueryId, u32)>,
}

#[derive(Debug)]
struct PhysNode {
    queue: VecDeque<Job>,
    /// The job currently on the disk, if any.
    in_service: Option<Job>,
    /// When the in-service job started (its service time is completion −
    /// start, which a straggler window can stretch).
    service_started: SimTime,
    /// Tuples of work enqueued and not yet completed (including the
    /// in-service job, in full — queue wait as a router sees it).
    backlog: u64,
    /// Accepts new work (false once decommissioned; it drains then retires).
    active: bool,
    /// Crashed and not (yet) restarted.
    failed: bool,
    /// Bumped at every crash; events carrying an older epoch are stale.
    epoch: u64,
    /// Straggler window: jobs *started* before `slow_until` take
    /// `slow_factor` times longer.
    slow_until: SimTime,
    slow_factor: f64,
    provisioned_at: SimTime,
    retired_at: Option<SimTime>,
    /// Total disk time spent serving jobs.
    busy: SimDuration,
    retired: bool,
    /// The last dispatch that read from this node (`ClusterSim::dispatches`
    /// at the time): how a dispatch counts its distinct nodes without a set.
    last_dispatch: u64,
}

/// Where a query is in its life. Ids are issued densely by
/// [`ClusterSim::schedule_query`], so one `Vec` of these indexed by id is
/// all the bookkeeping a query needs:
///
/// ```text
/// Scheduled ──arrival──► Awaiting ──dispatch──► Running ──last read──► Done
///                         │  ▲                     │
///                         │  └────── crash ────────┘   (attempt + 1)
///                         └──abandon_query / empty dispatch──────────► Done
/// ```
#[derive(Debug)]
enum QueryState {
    /// Scheduled and not yet arrived; holds the request until the arrival
    /// event hands it to the driver.
    Scheduled(QueryRequest),
    /// Arrived (or crash-failed) and waiting for the driver to dispatch or
    /// abandon it.
    Awaiting {
        arrival: SimTime,
        /// Attempts already made (0 for a fresh arrival).
        attempt: u32,
    },
    /// Reads in flight.
    Running {
        arrival: SimTime,
        /// Which dispatch attempt these reads belong to.
        attempt: u32,
        /// Reads not yet delivered.
        pending: usize,
        /// Distinct nodes the reads were dispatched to.
        span: u32,
    },
    /// Completed or abandoned — re-dispatching it is a duplicate, not an
    /// unknown.
    Done,
}

#[derive(Debug)]
struct NetState {
    nic_tps: u64,
    core: SharedLink,
    /// One NIC per physical node (same indexing as `ClusterSim::phys`).
    nics: Vec<SharedLink>,
}

/// The cluster simulator. See the crate docs for the driving protocol.
#[derive(Debug)]
pub struct ClusterSim {
    cfg: ClusterConfig,
    /// Arrivals, restarts and transfer arrivals go to the default lane, and
    /// each node's disk completion to the slot numbered by its physical
    /// index.
    events: EventQueue<Event>,
    /// The fault schedule's lane: loaded in time order before the run.
    fault_lane: Lane,
    /// The driver's timers, scheduled in time order.
    wakeup_lane: Lane,
    /// Reads delivered off the core link, whose completion times never
    /// decrease.
    delivery_lane: Lane,
    phys: Vec<PhysNode>,
    /// Logical scheme node -> physical node.
    logical: Vec<usize>,
    /// Every query ever scheduled, indexed by its id.
    queries: Vec<QueryState>,
    /// Accepted dispatches so far (see `PhysNode::last_dispatch`).
    dispatches: u64,
    /// Driver events synthesized by fault handling, drained before the
    /// event queue (FIFO, so NodeFailed precedes its QueryFailed fallout).
    driver_queue: VecDeque<DriverEvent>,
    net: Option<NetState>,
    /// Start of the current window in which some mapped node is down.
    degraded_since: Option<SimTime>,
    metrics: Metrics,
}

impl ClusterSim {
    /// Creates an empty cluster (no nodes; reconfigure to provision).
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(
            cfg.throughput_tps > 0.0 && cfg.throughput_tps.is_finite(),
            "throughput must be positive"
        );
        assert!(
            cfg.node_cost_per_hour >= 0.0 && cfg.node_cost_per_hour.is_finite(),
            "node cost must be nonnegative"
        );
        let metrics = Metrics::new(cfg.metrics_bucket);
        let net = cfg.network.map(|n| NetState {
            nic_tps: n.nic_tps,
            core: SharedLink::new(n.core_tps),
            nics: Vec::new(),
        });
        let mut events = EventQueue::new();
        let (fault_lane, wakeup_lane, delivery_lane) =
            (events.add_lane(), events.add_lane(), events.add_lane());
        ClusterSim {
            cfg,
            events,
            fault_lane,
            wakeup_lane,
            delivery_lane,
            phys: Vec::new(),
            logical: Vec::new(),
            queries: Vec::new(),
            dispatches: 0,
            driver_queue: VecDeque::new(),
            net,
            degraded_since: None,
            metrics,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// Number of active (logical) nodes.
    pub fn num_nodes(&self) -> usize {
        self.logical.len()
    }

    /// Read access to the metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Queued work per logical node, in tuples — the router's wait
    /// observations.
    pub fn queue_waits(&self) -> Vec<u64> {
        self.node_waits().collect()
    }

    /// [`queue_waits`](Self::queue_waits) without the `Vec`, for a caller
    /// that refreshes a view it keeps.
    pub fn node_waits(&self) -> impl Iterator<Item = u64> + '_ {
        self.logical.iter().map(|&p| self.phys[p].backlog)
    }

    /// Whether the logical node is mapped and not crashed. Routing to a node
    /// for which this returns `false` is rejected by
    /// [`dispatch`](Self::dispatch).
    pub fn node_alive(&self, node: NodeId) -> bool {
        self.logical
            .get(node.index())
            .is_some_and(|&p| !self.phys[p].failed)
    }

    /// Schedules a query to arrive at `at`. Returns its id.
    pub fn schedule_query(&mut self, at: SimTime, query: QueryRequest) -> QueryId {
        let id = QueryId(self.queries.len() as u64);
        self.queries.push(QueryState::Scheduled(query));
        self.events.schedule(at, Event::Arrival(id));
        id
    }

    /// The state of query `id`, if it was ever scheduled. Ids reach the
    /// simulator from outside, so this is the only way in.
    fn query_mut(&mut self, id: QueryId) -> Option<&mut QueryState> {
        self.queries.get_mut(usize::try_from(id.get()).ok()?)
    }

    /// Schedules a driver timer.
    pub fn schedule_wakeup(&mut self, at: SimTime, tag: u64) {
        self.events
            .schedule_in(self.wakeup_lane, at, Event::Wakeup(tag));
    }

    /// Schedules every event of a fault schedule. Faults target logical
    /// slots, resolved when they fire; a fault aimed at a slot the cluster
    /// does not have then (or at a node already down) is counted as skipped,
    /// never an error. Call before driving, like
    /// [`schedule_query`](Self::schedule_query).
    pub fn schedule_faults(&mut self, schedule: &FaultSchedule) {
        for ev in schedule.events() {
            self.events.schedule_in(
                self.fault_lane,
                ev.at,
                Event::Fault {
                    node: ev.node,
                    kind: ev.kind,
                },
            );
        }
    }

    /// Gives up on a query the driver cannot (or will not) dispatch — e.g.
    /// every replica of a fragment it needs is on crashed nodes. The query
    /// is recorded as abandoned and produces no [`QueryRecord`]. Returns
    /// `false` if the query was not awaiting dispatch.
    pub fn abandon_query(&mut self, id: QueryId) -> bool {
        let Some(state @ QueryState::Awaiting { .. }) = self.query_mut(id) else {
            return false;
        };
        *state = QueryState::Done;
        self.metrics.availability.queries_abandoned = self
            .metrics
            .availability
            .queries_abandoned
            .saturating_add(1);
        nashdb_obs::counter_add(Metric::ClusterQueriesAbandoned, 1);
        true
    }

    /// Routes an arrived (or crash-failed) query: one `(node, tuples)` read
    /// per fragment request. Must be called exactly once per `QueryArrived`
    /// or `QueryFailed` event, before the next
    /// [`next_event`](Self::next_event) call.
    ///
    /// # Errors
    /// Rejects the dispatch — leaving the simulator untouched — if the query
    /// is not awaiting dispatch (never scheduled, or already dispatched,
    /// completed, or abandoned), a node id is out of range, a target node is
    /// draining toward retirement, or a target node is crashed.
    pub fn dispatch(&mut self, id: QueryId, reads: &[(NodeId, u64)]) -> Result<(), DispatchError> {
        let (arrival, attempt) = match self.query_mut(id) {
            Some(&mut QueryState::Awaiting { arrival, attempt }) => (arrival, attempt),
            Some(QueryState::Running { .. } | QueryState::Done) => {
                return Err(DispatchError::DuplicateQuery { id });
            }
            Some(QueryState::Scheduled(_)) | None => {
                return Err(DispatchError::UnknownQuery { id });
            }
        };
        // Validate every read before enqueueing any, so a rejected dispatch
        // leaves no partial work behind.
        for &(node, _) in reads {
            let phys = *self
                .logical
                .get(node.index())
                .ok_or(DispatchError::UnknownNode { node })?;
            if self.phys[phys].failed {
                return Err(DispatchError::FailedNode { node });
            }
            if !self.phys[phys].active {
                return Err(DispatchError::InactiveNode { node });
            }
        }
        if attempt > 0 {
            self.metrics.availability.queries_retried =
                self.metrics.availability.queries_retried.saturating_add(1);
            nashdb_obs::counter_add(Metric::ClusterQueriesRetried, 1);
        }
        if reads.is_empty() {
            // Nothing to read: completes instantly.
            self.complete_query(id, arrival, 0);
            return Ok(());
        }
        self.dispatches = self.dispatches.saturating_add(1);
        let mut span = 0u32;
        for &(node, tuples) in reads {
            let phys = self.logical[node.index()]; // validated above
            if self.phys[phys].last_dispatch != self.dispatches {
                self.phys[phys].last_dispatch = self.dispatches;
                span = span.saturating_add(1);
            }
            self.enqueue_job(
                phys,
                Job {
                    tuples,
                    query: Some((id, attempt)),
                },
            );
        }
        if let Some(state) = self.query_mut(id) {
            *state = QueryState::Running {
                arrival,
                attempt,
                pending: reads.len(),
                span,
            };
        }
        nashdb_obs::counter_add(Metric::ClusterReadsDispatched, reads.len() as u64);
        Ok(())
    }

    /// Applies a transition plan: reused nodes keep their queues (and
    /// receive their transfer as a queued write — crossing the network first
    /// when the network model is on), fresh nodes are provisioned,
    /// decommissioned nodes drain and retire.
    ///
    /// # Errors
    /// Rejects the plan — leaving the simulator untouched — unless every
    /// current node appears in exactly one `Reuse` or `Decommission` and
    /// every new slot below the plan's maximum in exactly one `Reuse` or
    /// `Provision`.
    pub fn reconfigure(&mut self, plan: &TransitionPlan) -> Result<(), ReconfigureError> {
        let new_count = plan
            .moves
            .iter()
            .filter_map(|m| match m {
                NodeMove::Reuse { new, .. } | NodeMove::Provision { new, .. } => {
                    Some(new.index() + 1)
                }
                NodeMove::Decommission { .. } => None,
            })
            .max()
            .unwrap_or(0);

        // Validate the whole plan before touching anything, so a rejected
        // plan leaves no partial transition behind.
        let mut covered = vec![false; new_count];
        let mut used_old = vec![false; self.logical.len()];
        let mut use_old = |old: NodeId| {
            let Some(used) = used_old.get_mut(old.index()) else {
                return Err(ReconfigureError::UnknownOldNode { node: old });
            };
            if std::mem::replace(used, true) {
                return Err(ReconfigureError::DuplicateOldNode { node: old });
            }
            Ok(())
        };
        for m in &plan.moves {
            let new = match *m {
                NodeMove::Reuse { old, new, .. } => {
                    use_old(old)?;
                    new
                }
                NodeMove::Provision { new, .. } => new,
                NodeMove::Decommission { old } => {
                    use_old(old)?;
                    continue;
                }
            };
            if std::mem::replace(&mut covered[new.index()], true) {
                return Err(ReconfigureError::DuplicateNewNode { node: new });
            }
        }
        let first_gap = |flags: &[bool]| {
            let slot = flags.iter().position(|&c| !c)?;
            Some(NodeId(u64::try_from(slot).unwrap_or(u64::MAX)))
        };
        if let Some(node) = first_gap(&covered) {
            return Err(ReconfigureError::UncoveredNewNode { node });
        }
        if let Some(node) = first_gap(&used_old) {
            return Err(ReconfigureError::UncoveredOldNode { node });
        }

        let now = self.now();
        let old_logical = std::mem::take(&mut self.logical);
        let mut new_logical = vec![usize::MAX; new_count];
        let mut total_transfer = 0u64;

        for m in &plan.moves {
            match *m {
                NodeMove::Reuse { old, new, transfer } => {
                    let phys = old_logical[old.index()];
                    new_logical[new.index()] = phys;
                    if transfer > 0 {
                        self.enqueue_transfer(phys, transfer);
                        total_transfer = total_transfer.saturating_add(transfer);
                    }
                }
                NodeMove::Provision { new, transfer } => {
                    let phys = self.phys.len();
                    self.phys.push(PhysNode {
                        queue: VecDeque::new(),
                        in_service: None,
                        service_started: now,
                        backlog: 0,
                        active: true,
                        failed: false,
                        epoch: 0,
                        slow_until: SimTime::ZERO,
                        slow_factor: 1.0,
                        provisioned_at: now,
                        retired_at: None,
                        busy: SimDuration::ZERO,
                        retired: false,
                        last_dispatch: 0,
                    });
                    if let Some(net) = &mut self.net {
                        net.nics.push(SharedLink::new(net.nic_tps));
                    }
                    new_logical[new.index()] = phys;
                    if transfer > 0 {
                        self.enqueue_transfer(phys, transfer);
                        total_transfer = total_transfer.saturating_add(transfer);
                    }
                }
                NodeMove::Decommission { old } => {
                    let phys = old_logical[old.index()];
                    self.phys[phys].active = false;
                    self.maybe_retire(phys, now);
                }
            }
        }
        self.logical = new_logical;
        self.metrics.peak_nodes = self.metrics.peak_nodes.max(self.logical.len());
        self.metrics.reconfigurations += 1;
        self.metrics.transfers.push((now, total_transfer));
        nashdb_obs::counter_add(Metric::ClusterReconfigurations, 1);
        nashdb_obs::counter_add(Metric::ClusterTransferTuples, total_transfer);
        nashdb_obs::gauge_set(Metric::ClusterNodes, self.logical.len() as f64);
        self.update_degraded(now);
        Ok(())
    }

    /// Advances the simulation to the next driver-relevant event.
    pub fn next_event(&mut self) -> DriverEvent {
        loop {
            if let Some(ev) = self.driver_queue.pop_front() {
                return ev;
            }
            let Some((now, event)) = self.events.pop() else {
                return DriverEvent::Finished;
            };
            match event {
                Event::Arrival(id) => {
                    if let Some(query) = self.arrive(id, now) {
                        return DriverEvent::QueryArrived { id, query };
                    }
                }
                Event::Wakeup(tag) => return DriverEvent::Wakeup { tag },
                Event::JobDone { phys, epoch } => {
                    if let Some(done) = self.job_done(phys, epoch, now) {
                        return done;
                    }
                }
                Event::NetArrival {
                    phys,
                    epoch,
                    tuples,
                } => {
                    let node = &self.phys[phys];
                    if node.epoch == epoch && !node.failed && !node.retired {
                        self.enqueue_job(
                            phys,
                            Job {
                                tuples,
                                query: None,
                            },
                        );
                    } else {
                        // The receiver crashed while the transfer was in
                        // flight: the copy is lost mid-transition.
                        self.metrics.availability.tuples_lost =
                            self.metrics.availability.tuples_lost.saturating_add(tuples);
                        nashdb_obs::counter_add(Metric::ClusterTuplesLost, tuples);
                    }
                }
                Event::NetDelivery {
                    id,
                    attempt,
                    tuples,
                } => {
                    if let Some(done) = self.deliver_read(id, attempt, tuples, now) {
                        return done;
                    }
                }
                Event::Fault { node, kind } => self.apply_fault(now, node, kind),
                Event::Restart { phys } => self.restart_node(now, phys),
            }
        }
    }

    /// Collects every further query arriving at *exactly* the current
    /// simulated time, in event order — the batch companion to a
    /// [`DriverEvent::QueryArrived`] just returned by
    /// [`next_event`](Self::next_event).
    ///
    /// Coincident arrivals are common under integer clocks and bursty
    /// workloads; handing them to the driver as one batch lets it route
    /// them in a single [`ScanRouter::route_batch`] call instead of paying
    /// per-scan setup. Popping stops at the first event that is not an
    /// arrival at `now()`, and never while an internal driver event is
    /// queued (those must reach the driver in order). Each collected query
    /// goes through exactly the state transition `next_event`'s arrival arm
    /// performs, so driving with or without batching is event-for-event
    /// identical.
    ///
    /// [`ScanRouter::route_batch`]: nashdb_core::routing::ScanRouter::route_batch
    pub fn take_coincident_arrivals(&mut self) -> Vec<(QueryId, QueryRequest)> {
        let mut batch = Vec::new();
        self.take_coincident_arrivals_into(&mut batch);
        batch
    }

    /// [`take_coincident_arrivals`](Self::take_coincident_arrivals),
    /// appending to a batch the caller keeps.
    pub fn take_coincident_arrivals_into(&mut self, batch: &mut Vec<(QueryId, QueryRequest)>) {
        let now = self.events.now();
        while self.driver_queue.is_empty() {
            match self.events.peek() {
                Some((at, &Event::Arrival(id))) if at == now => {
                    self.events.pop();
                    if let Some(query) = self.arrive(id, now) {
                        batch.push((id, query));
                    }
                }
                _ => break,
            }
        }
    }

    /// The arrival event of query `id`: it now awaits dispatch, and its
    /// request goes to the driver. Arrivals are scheduled exactly once per
    /// id, so this only misses if internal state was corrupted; `None` is
    /// the panic-free fallback and the callers skip the event.
    fn arrive(&mut self, id: QueryId, now: SimTime) -> Option<QueryRequest> {
        let state = self.query_mut(id)?;
        let awaiting = QueryState::Awaiting {
            arrival: now,
            attempt: 0,
        };
        match std::mem::replace(state, awaiting) {
            QueryState::Scheduled(query) => Some(query),
            other => {
                *state = other;
                None
            }
        }
    }

    /// Ends the run: closes the degraded-time window, accrues cost for every
    /// non-retired node up to the current time, and returns the metrics.
    pub fn finish(mut self) -> Metrics {
        let end = self.now();
        if let Some(since) = self.degraded_since.take() {
            self.metrics.availability.degraded += end.since(since);
        }
        for i in 0..self.phys.len() {
            if !self.phys[i].retired {
                self.accrue(i, end);
            }
        }
        nashdb_obs::gauge_set(
            Metric::ClusterDegradedMs,
            self.metrics.availability.degraded.as_millis() as f64,
        );
        self.metrics
    }

    /// Service time of `tuples` on `phys`'s disk, stretched if the node is
    /// inside a straggler window when the job starts.
    fn service_time(&self, phys: usize, tuples: u64) -> SimDuration {
        let secs = tuples as f64 / self.cfg.throughput_tps;
        let node = &self.phys[phys];
        if self.events.now() < node.slow_until {
            SimDuration::from_secs_f64(secs * node.slow_factor)
        } else {
            SimDuration::from_secs_f64(secs)
        }
    }

    fn enqueue_job(&mut self, phys: usize, job: Job) {
        let node = &mut self.phys[phys];
        node.backlog = node.backlog.saturating_add(job.tuples);
        if node.in_service.is_some() {
            // The service time is judged when the job starts (`job_done`).
            node.queue.push_back(job);
            return;
        }
        let now = self.events.now();
        let service = self.service_time(phys, job.tuples);
        let node = &mut self.phys[phys];
        node.in_service = Some(job);
        node.service_started = now;
        let epoch = node.epoch;
        self.events
            .schedule_slot(phys, now + service, Event::JobDone { phys, epoch });
    }

    /// Routes a transition transfer toward `phys`'s disk: directly when the
    /// network model is off, across core + receiver NIC when it is on. A
    /// transfer aimed at a node that is already down is lost outright.
    fn enqueue_transfer(&mut self, phys: usize, tuples: u64) {
        if self.phys[phys].failed {
            self.metrics.availability.tuples_lost =
                self.metrics.availability.tuples_lost.saturating_add(tuples);
            nashdb_obs::counter_add(Metric::ClusterTuplesLost, tuples);
            return;
        }
        let now = self.events.now();
        let epoch = self.phys[phys].epoch;
        if let Some(net) = &mut self.net {
            let off_core = net.core.transmit(now, tuples);
            let arrives = net.nics[phys].transmit(off_core, tuples);
            self.events.schedule(
                arrives,
                Event::NetArrival {
                    phys,
                    epoch,
                    tuples,
                },
            );
        } else {
            self.enqueue_job(
                phys,
                Job {
                    tuples,
                    query: None,
                },
            );
        }
    }

    fn job_done(&mut self, phys: usize, epoch: u64, now: SimTime) -> Option<DriverEvent> {
        if self.phys[phys].epoch != epoch {
            return None; // completion from before a crash: the job is gone
        }
        let node = &mut self.phys[phys];
        let Some(job) = node.in_service.take() else {
            // An epoch-matched JobDone always has a job in service; skipping
            // is the panic-free fallback.
            return None;
        };
        node.backlog = node.backlog.saturating_sub(job.tuples);
        node.busy += now.since(node.service_started);
        // Start the next job, if any.
        if let Some(next) = self.phys[phys].queue.pop_front() {
            let service = self.service_time(phys, next.tuples);
            let node = &mut self.phys[phys];
            node.in_service = Some(next);
            node.service_started = now;
            let epoch = node.epoch;
            self.events
                .schedule_slot(phys, now + service, Event::JobDone { phys, epoch });
        } else {
            self.maybe_retire(phys, now);
        }

        let (id, attempt) = job.query?; // transfer write: nothing to report
        if !self.read_is_fresh(id, attempt) {
            // The query failed (and was retried or abandoned) while this
            // read sat in the disk queue: served tuples nobody wants.
            self.waste_read();
            return None;
        }
        if let Some(net) = &mut self.net {
            // The data still has to cross the server's NIC and the core
            // link before the client has it.
            let off_nic = net.nics[phys].transmit(now, job.tuples);
            let delivered = net.core.transmit(off_nic, job.tuples);
            self.events.schedule_in(
                self.delivery_lane,
                delivered,
                Event::NetDelivery {
                    id,
                    attempt,
                    tuples: job.tuples,
                },
            );
            None
        } else {
            self.deliver_read(id, attempt, job.tuples, now)
        }
    }

    /// A fragment read reaches the client: counts toward throughput and,
    /// when it is the query's last read, completes the query.
    fn deliver_read(
        &mut self,
        id: QueryId,
        attempt: u32,
        tuples: u64,
        now: SimTime,
    ) -> Option<DriverEvent> {
        let delivered = match self.query_mut(id) {
            Some(QueryState::Running {
                arrival,
                attempt: current,
                pending,
                span,
            }) if *current == attempt => {
                *pending = pending.saturating_sub(1);
                Some((*pending, *arrival, *span))
            }
            _ => None,
        };
        let Some((pending, arrival, span)) = delivered else {
            // A read of a superseded attempt, or of a query already over.
            self.waste_read();
            return None;
        };
        self.metrics.read_throughput.add(now, tuples as f64);
        (pending == 0).then(|| self.complete_query(id, arrival, span))
    }

    /// Whether a read tagged `(id, attempt)` still belongs to a live query
    /// attempt (the query is running and has not been failed-and-retried).
    fn read_is_fresh(&self, id: QueryId, attempt: u32) -> bool {
        let state = usize::try_from(id.get())
            .ok()
            .and_then(|i| self.queries.get(i));
        matches!(state, Some(QueryState::Running { attempt: a, .. }) if *a == attempt)
    }

    fn waste_read(&mut self) {
        self.metrics.availability.reads_wasted =
            self.metrics.availability.reads_wasted.saturating_add(1);
        nashdb_obs::counter_add(Metric::ClusterReadsWasted, 1);
    }

    /// Ends query `id` — which arrived at `arrival` and read from `span`
    /// nodes — at the current time.
    fn complete_query(&mut self, id: QueryId, arrival: SimTime, span: u32) -> DriverEvent {
        let now = self.now();
        if let Some(state) = self.query_mut(id) {
            *state = QueryState::Done;
        }
        let record = QueryRecord {
            id,
            arrival,
            completion: now,
            span,
        };
        self.metrics.queries.push(record);
        // Latency is simulated time, so this histogram is deterministic per
        // seed (unlike the wall-clock `*_ns` stage timings).
        nashdb_obs::counter_add(Metric::ClusterQueriesCompleted, 1);
        nashdb_obs::record(Metric::ClusterQueryLatencyNs, record.latency().as_nanos());
        nashdb_obs::record(Metric::ClusterQuerySpan, u64::from(record.span));
        DriverEvent::QueryCompleted {
            id,
            latency: record.latency(),
        }
    }

    fn apply_fault(&mut self, now: SimTime, slot: u64, kind: FaultKind) {
        let phys = usize::try_from(slot)
            .ok()
            .and_then(|s| self.logical.get(s).copied());
        let Some(phys) = phys else {
            self.skip_fault();
            return;
        };
        if self.phys[phys].failed || self.phys[phys].retired {
            self.skip_fault();
            return;
        }
        match kind {
            FaultKind::Crash => self.crash_node(now, slot, phys, None),
            FaultKind::CrashRestart { down_for } => {
                self.crash_node(now, slot, phys, Some(down_for));
            }
            FaultKind::Straggler { slowdown, duration } => {
                let node = &mut self.phys[phys];
                node.slow_factor = slowdown.max(1.0);
                node.slow_until = now + duration;
            }
        }
    }

    /// A fault whose target slot is unmapped (or whose node is already down
    /// or retired) is dropped, so one schedule replays against clusters of
    /// any size.
    fn skip_fault(&mut self) {
        self.metrics.availability.faults_skipped =
            self.metrics.availability.faults_skipped.saturating_add(1);
        nashdb_obs::counter_add(Metric::ClusterFaultsSkipped, 1);
    }

    fn crash_node(
        &mut self,
        now: SimTime,
        slot: u64,
        phys: usize,
        restart_after: Option<SimDuration>,
    ) {
        // The in-service job's completion leaves the node's slot but is not
        // cancelled: it still pops at its time — the epoch check skips it —
        // so the clock, and with it `finish()`'s billing, runs as far as it
        // always did.
        self.events.release_slot(phys);
        let node = &mut self.phys[phys];
        node.failed = true;
        node.epoch = node.epoch.saturating_add(1);
        node.slow_until = SimTime::ZERO;
        node.slow_factor = 1.0;
        // Everything queued or on the disk evaporates with the node.
        let mut dropped: Vec<Job> = node.in_service.take().into_iter().collect();
        dropped.extend(node.queue.drain(..));
        let lost_tuples = node.backlog;
        node.backlog = 0;
        if let Some(net) = &mut self.net {
            net.nics[phys].reset();
        }
        let avail = &mut self.metrics.availability;
        avail.node_crashes = avail.node_crashes.saturating_add(1);
        avail.jobs_lost = avail.jobs_lost.saturating_add(dropped.len() as u64);
        avail.tuples_lost = avail.tuples_lost.saturating_add(lost_tuples);
        nashdb_obs::counter_add(Metric::ClusterNodeCrashes, 1);
        nashdb_obs::counter_add(Metric::ClusterJobsLost, dropped.len() as u64);
        nashdb_obs::counter_add(Metric::ClusterTuplesLost, lost_tuples);
        // Queries whose current attempt lost a read here can no longer
        // complete: hand them back to the driver. BTreeSet gives a stable
        // id order for the QueryFailed events.
        let mut victims: BTreeSet<QueryId> = BTreeSet::new();
        for job in &dropped {
            if let Some((id, attempt)) = job.query {
                if self.read_is_fresh(id, attempt) {
                    victims.insert(id);
                }
            }
        }
        self.driver_queue
            .push_back(DriverEvent::NodeFailed { node: NodeId(slot) });
        for id in victims {
            let Some(state) = self.query_mut(id) else {
                continue;
            };
            let QueryState::Running {
                arrival, attempt, ..
            } = *state
            else {
                continue;
            };
            let attempts = attempt.saturating_add(1);
            *state = QueryState::Awaiting {
                arrival,
                attempt: attempts,
            };
            self.metrics.availability.queries_failed =
                self.metrics.availability.queries_failed.saturating_add(1);
            nashdb_obs::counter_add(Metric::ClusterQueriesFailed, 1);
            self.driver_queue
                .push_back(DriverEvent::QueryFailed { id, attempts });
        }
        if let Some(down_for) = restart_after {
            self.events
                .schedule(now + down_for, Event::Restart { phys });
        }
        // A decommissioned node that crashes has drained the hard way.
        self.maybe_retire(phys, now);
        self.update_degraded(now);
    }

    fn restart_node(&mut self, now: SimTime, phys: usize) {
        let node = &mut self.phys[phys];
        if node.retired || !node.failed {
            // Decommissioned while down (or state drift): stays dead.
            return;
        }
        node.failed = false;
        self.metrics.availability.node_restarts =
            self.metrics.availability.node_restarts.saturating_add(1);
        nashdb_obs::counter_add(Metric::ClusterNodeRestarts, 1);
        if let Some(slot) = self.logical.iter().position(|&p| p == phys) {
            self.driver_queue.push_back(DriverEvent::NodeRestored {
                node: NodeId(u64::try_from(slot).unwrap_or(u64::MAX)),
            });
        }
        self.update_degraded(now);
    }

    /// Opens or closes the degraded-mode window: degraded while any logical
    /// slot maps to a crashed node (the scheme promises replicas the
    /// cluster cannot serve).
    fn update_degraded(&mut self, now: SimTime) {
        let degraded = self.logical.iter().any(|&p| self.phys[p].failed);
        match self.degraded_since {
            None if degraded => self.degraded_since = Some(now),
            Some(since) if !degraded => {
                self.metrics.availability.degraded += now.since(since);
                self.degraded_since = None;
            }
            _ => {}
        }
    }

    fn maybe_retire(&mut self, phys: usize, now: SimTime) {
        let node = &self.phys[phys];
        if !node.active && node.in_service.is_none() && node.queue.is_empty() && !node.retired {
            self.accrue(phys, now);
        }
    }

    fn accrue(&mut self, phys: usize, until: SimTime) {
        let node = &mut self.phys[phys];
        debug_assert!(!node.retired);
        let hours = until.since(node.provisioned_at).as_secs_f64() / 3600.0;
        self.metrics.total_cost += hours * self.cfg.node_cost_per_hour;
        node.retired_at = Some(until);
        node.retired = true;
        let utilization = (node.busy.as_secs_f64()
            / until.since(node.provisioned_at).as_secs_f64().max(1e-12))
        .min(1.0);
        self.metrics.node_utilization.push(utilization);
        // Parts-per-million so the busy fraction fits an integer histogram.
        nashdb_obs::record(
            Metric::ClusterNodeUtilizationPpm,
            nashdb_core::num::saturating_u64(utilization * 1e6),
        );
        nashdb_obs::gauge_set(Metric::ClusterTotalCost, self.metrics.total_cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nashdb_core::transition::{plan_transition, IntervalSet};
    use nashdb_sim::fault::FaultEvent;

    fn cfg() -> ClusterConfig {
        ClusterConfig {
            throughput_tps: 1_000.0,    // 1k tuples/sec: easy arithmetic
            node_cost_per_hour: 3600.0, // 1 unit per second
            metrics_bucket: SimDuration::from_secs(10),
            network: None,
        }
    }

    fn net_cfg(nic_tps: u64, core_tps: u64) -> ClusterConfig {
        ClusterConfig {
            network: Some(NetConfig { nic_tps, core_tps }),
            ..cfg()
        }
    }

    fn provision(n: usize) -> TransitionPlan {
        let new: Vec<IntervalSet> = (0..n).map(|_| IntervalSet::new()).collect();
        plan_transition(&[], &new)
    }

    fn query(scans: &[(u64, u64)]) -> QueryRequest {
        QueryRequest {
            price: 1.0,
            scans: scans
                .iter()
                .map(|&(s, e)| ScanRange::new(TableId(0), s, e))
                .collect(),
            tag: 0,
        }
    }

    fn crash(at_secs: u64, node: u64) -> FaultEvent {
        FaultEvent {
            at: SimTime::from_secs(at_secs),
            node,
            kind: FaultKind::Crash,
        }
    }

    /// Drives the sim to completion, dispatching every query to `route`.
    fn drive(
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
        assert_eq!(sim.num_nodes(), 1);
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
    fn malformed_plans_are_typed_errors() {
        let mut sim = ClusterSim::new(cfg());
        sim.reconfigure(&provision(1)).unwrap();
        // Reuse of a node the cluster does not have.
        let bad_old = TransitionPlan {
            moves: vec![NodeMove::Reuse {
                old: NodeId(5),
                new: NodeId(0),
                transfer: 0,
            }],
            total_transfer: 0,
        };
        assert_eq!(
            sim.reconfigure(&bad_old),
            Err(ReconfigureError::UnknownOldNode { node: NodeId(5) })
        );
        // A plan that leaves slot 0 unassigned.
        let uncovered = TransitionPlan {
            moves: vec![NodeMove::Provision {
                new: NodeId(1),
                transfer: 0,
            }],
            total_transfer: 0,
        };
        assert_eq!(
            sim.reconfigure(&uncovered),
            Err(ReconfigureError::UncoveredNewNode { node: NodeId(0) })
        );
        // Two moves landing on the same new slot.
        let duplicate = TransitionPlan {
            moves: vec![
                NodeMove::Provision {
                    new: NodeId(0),
                    transfer: 0,
                },
                NodeMove::Reuse {
                    old: NodeId(0),
                    new: NodeId(0),
                    transfer: 0,
                },
            ],
            total_transfer: 0,
        };
        assert_eq!(
            sim.reconfigure(&duplicate),
            Err(ReconfigureError::DuplicateNewNode { node: NodeId(0) })
        );
        // The old side: one node reused into two slots (two logical slots
        // would share it), reused and decommissioned (its slot would refuse
        // work), or left out (it would never retire and bill forever).
        let reuse = |old, new| NodeMove::Reuse {
            old: NodeId(old),
            new: NodeId(new),
            transfer: 0,
        };
        let old_side = [
            (
                vec![reuse(0, 0), reuse(0, 1)],
                ReconfigureError::DuplicateOldNode { node: NodeId(0) },
            ),
            (
                vec![reuse(0, 0), NodeMove::Decommission { old: NodeId(0) }],
                ReconfigureError::DuplicateOldNode { node: NodeId(0) },
            ),
            (
                vec![NodeMove::Provision {
                    new: NodeId(0),
                    transfer: 0,
                }],
                ReconfigureError::UncoveredOldNode { node: NodeId(0) },
            ),
        ];
        for (moves, err) in old_side {
            let plan = TransitionPlan {
                moves,
                total_transfer: 0,
            };
            assert_eq!(sim.reconfigure(&plan), Err(err), "{plan:?}");
        }
        // Every rejection left the cluster untouched.
        assert_eq!(sim.num_nodes(), 1);
        assert_eq!(sim.metrics().reconfigurations, 1);
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
        assert_eq!(sim.metrics().peak_nodes, 3);
        // Shrink to 1: the peak must remember 3.
        let old: Vec<IntervalSet> = (0..3)
            .map(|i| IntervalSet::from_intervals([(i * 10, i * 10 + 5)]))
            .collect();
        let new = vec![IntervalSet::from_intervals([(0u64, 5u64)])];
        sim.reconfigure(&plan_transition(&old, &new)).unwrap();
        assert_eq!(sim.num_nodes(), 1);
        assert_eq!(sim.metrics().peak_nodes, 3);
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
                    sim.dispatch(id, &[(NodeId(1), 1000)]).unwrap();
                }
                DriverEvent::NodeFailed { node } => {
                    assert_eq!(node, NodeId(1));
                    saw_node_failed = true;
                    assert!(!sim.node_alive(NodeId(1)));
                    assert!(sim.node_alive(NodeId(0)));
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
        assert_eq!(sim.now(), SimTime::from_secs(10));
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
}
