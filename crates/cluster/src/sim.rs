//! The event-driven cluster simulator. This root owns the event loop, the
//! crash fan-out, billing and the degraded window; the parts it drives own
//! their state and never see the event queue or the metrics.

use std::collections::VecDeque;

use nashdb_core::ids::{NodeId, QueryId, TableId};
use nashdb_core::transition::{NodeMove, TransitionPlan};
use nashdb_obs::Metric;
use nashdb_sim::fault::{FaultKind, FaultSchedule};
use nashdb_sim::{EventQueue, Lane, SimDuration, SimTime};

use crate::metrics::{Metrics, QueryRecord};

mod disk;
mod network;
mod plan;
mod slab;

#[cfg(test)]
mod fixtures;
#[cfg(test)]
mod tests;

use disk::{Disk, Read};
pub use network::NetConfig;
use network::Network;
pub use plan::ReconfigureError;
pub use slab::DispatchError;
use slab::QuerySlab;

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

/// What the event queue holds. Node numbers are physical indices.
#[derive(Debug)]
enum Event {
    Arrival(QueryId),
    /// The node's in-service job completes, tagged with the node's crash
    /// epoch when it started: a crash since makes it stale.
    JobDone(usize, u64),
    /// A transition transfer of `.2` tuples, sent under epoch `.1`, crossed
    /// the network and reaches the node's disk.
    NetArrival(usize, u64, u64),
    /// A fragment read of `.1` tuples crossed the network back to the
    /// client.
    NetDelivery(Read, u64),
    /// A scheduled fault fires against a logical slot.
    Fault(u64, FaultKind),
    /// A crashed node finishes rebooting.
    Restart(usize),
    Wakeup(u64),
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
    /// One per physical node ever provisioned, retired ones included.
    disks: Vec<Disk>,
    /// Logical scheme node -> physical node. A node leaves it in the step
    /// that decommissions it, so every mapped node is up or down.
    logical: Vec<usize>,
    queries: QuerySlab,
    /// Accepted dispatches so far (see [`Disk::stamp`]).
    dispatches: u64,
    /// Driver events synthesized by fault handling, drained before the
    /// event queue (FIFO, so NodeFailed precedes its QueryFailed fallout).
    driver_queue: VecDeque<DriverEvent>,
    net: Option<Network>,
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
        let mut events = EventQueue::new();
        let (fault_lane, wakeup_lane, delivery_lane) =
            (events.add_lane(), events.add_lane(), events.add_lane());
        ClusterSim {
            cfg,
            events,
            fault_lane,
            wakeup_lane,
            delivery_lane,
            disks: Vec::new(),
            logical: Vec::new(),
            queries: QuerySlab::default(),
            dispatches: 0,
            driver_queue: VecDeque::new(),
            net: cfg.network.map(Network::new),
            degraded_since: None,
            metrics: Metrics::new(cfg.metrics_bucket),
        }
    }

    /// Queued work per logical node, in tuples — the router's wait
    /// observations.
    pub fn queue_waits(&self) -> Vec<u64> {
        self.node_waits().collect()
    }

    /// [`queue_waits`](Self::queue_waits) without the `Vec`, for a caller
    /// that refreshes a view it keeps.
    pub fn node_waits(&self) -> impl Iterator<Item = u64> + '_ {
        self.logical.iter().map(|&p| self.disks[p].backlog())
    }

    /// Whether the logical node is mapped and not crashed. Routing to a node
    /// for which this returns `false` is rejected by
    /// [`dispatch`](Self::dispatch).
    pub fn node_alive(&self, node: NodeId) -> bool {
        self.logical
            .get(node.index())
            .is_some_and(|&p| self.disks[p].is_up())
    }

    /// Whether the logical node is mapped and has nothing queued, and, if
    /// `alive`, is not crashed: whether a router would see it exactly as an
    /// all-idle queue view shows it.
    pub fn idle(&self, node: NodeId, alive: bool) -> bool {
        self.logical.get(node.index()).is_some_and(|&p| {
            let disk = &self.disks[p];
            disk.backlog() == 0 && (!alive || disk.is_up())
        })
    }

    /// Makes room for `additional` more queries — their states, arrival
    /// events and completion records — so scheduling a workload of known
    /// length allocates each table once, at its final size, instead of
    /// growing it by doubling.
    pub fn reserve_queries(&mut self, additional: usize) {
        self.queries.reserve(additional);
        self.events.reserve(Lane::default(), additional);
        self.metrics.queries.reserve(additional);
    }

    /// Schedules a query to arrive at `at`. Returns its id.
    pub fn schedule_query(&mut self, at: SimTime, query: QueryRequest) -> QueryId {
        let id = self.queries.schedule(query);
        self.events.schedule(at, Event::Arrival(id));
        id
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
            let fault = Event::Fault(ev.node, ev.kind);
            self.events.schedule_in(self.fault_lane, ev.at, fault);
        }
    }

    /// Gives up on a query the driver cannot (or will not) dispatch — e.g.
    /// every replica of a fragment it needs is on crashed nodes. The query
    /// is recorded as abandoned and produces no [`QueryRecord`]. Returns
    /// `false` if the query was not awaiting dispatch.
    pub fn abandon_query(&mut self, id: QueryId) -> bool {
        let abandoned = self.queries.close(id);
        if abandoned {
            self.count(Metric::ClusterQueriesAbandoned, 1);
        }
        abandoned
    }

    /// Routes an arrived (or crash-failed) query: one `(node, tuples)` read
    /// per fragment request. Must be called exactly once per `QueryArrived`
    /// or `QueryFailed` event, before the next
    /// [`next_event`](Self::next_event) call.
    ///
    /// # Errors
    /// Rejects the dispatch — leaving the simulator untouched — if the query
    /// is not awaiting dispatch (never scheduled, or already dispatched,
    /// completed, or abandoned), a node id is out of range, or a target node
    /// is crashed.
    pub fn dispatch(&mut self, id: QueryId, reads: &[(NodeId, u64)]) -> Result<(), DispatchError> {
        let (arrival, attempt) = self.queries.awaiting(id)?;
        // Validate every read before enqueueing any, so a rejected dispatch
        // leaves no partial work behind.
        for &(node, _) in reads {
            let &phys = self
                .logical
                .get(node.index())
                .ok_or(DispatchError::UnknownNode { node })?;
            if !self.disks[phys].is_up() {
                return Err(DispatchError::FailedNode { node });
            }
        }
        if attempt > 0 {
            self.count(Metric::ClusterQueriesRetried, 1);
        }
        if reads.is_empty() {
            // Nothing to read: completes instantly.
            self.queries.close(id);
            self.complete_query(id, arrival, 0);
            return Ok(());
        }
        self.dispatches = self.dispatches.saturating_add(1);
        let mut span = 0u32;
        for &(node, tuples) in reads {
            let phys = self.logical[node.index()]; // validated above
            if self.disks[phys].stamp(self.dispatches) {
                span = span.saturating_add(1);
            }
            self.enqueue_job(phys, tuples, Some((id, attempt)));
        }
        self.queries.run(id, reads.len(), span);
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
        let new_count = plan::check(plan, self.logical.len())?;
        let now = self.events.now();
        let old_logical = std::mem::take(&mut self.logical);
        let mut new_logical = vec![usize::MAX; new_count];
        let mut total_transfer = 0u64;
        for m in &plan.moves {
            let (phys, new, transfer) = match *m {
                NodeMove::Reuse { old, new, transfer } => (old_logical[old.index()], new, transfer),
                NodeMove::Provision { new, transfer } => {
                    self.disks.push(Disk::new(now, self.cfg.throughput_tps));
                    if let Some(net) = &mut self.net {
                        net.add_nic();
                    }
                    (self.disks.len() - 1, new, transfer)
                }
                NodeMove::Decommission { old } => {
                    let phys = old_logical[old.index()];
                    if self.disks[phys].decommission() {
                        self.accrue(phys, now);
                    }
                    continue;
                }
            };
            new_logical[new.index()] = phys;
            if transfer == 0 {
                continue;
            }
            total_transfer = total_transfer.saturating_add(transfer);
            // The transfer is a queued write at the receiver, crossing core
            // and receiver NIC first when the network model is on. One aimed
            // at a node that is down is lost outright.
            let epoch = self.disks[phys].epoch();
            if !self.disks[phys].is_up() {
                self.count(Metric::ClusterTuplesLost, transfer);
            } else if let Some(net) = &mut self.net {
                let arrives = net.transfer(phys, now, transfer);
                let event = Event::NetArrival(phys, epoch, transfer);
                self.events.schedule(arrives, event);
            } else {
                self.enqueue_job(phys, transfer, None);
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
                    if let Some(query) = self.queries.arrive(id, now) {
                        return DriverEvent::QueryArrived { id, query };
                    }
                }
                Event::Wakeup(tag) => return DriverEvent::Wakeup { tag },
                Event::JobDone(phys, epoch) => {
                    if let Some(done) = self.job_done(phys, epoch, now) {
                        return done;
                    }
                }
                Event::NetArrival(phys, epoch, tuples) => {
                    if self.disks[phys].accepts(epoch) {
                        self.enqueue_job(phys, tuples, None);
                    } else {
                        // The receiver crashed while the transfer was in
                        // flight: the copy is lost mid-transition.
                        self.count(Metric::ClusterTuplesLost, tuples);
                    }
                }
                Event::NetDelivery(read, tuples) => {
                    if let Some(done) = self.deliver_read(read, tuples) {
                        return done;
                    }
                }
                Event::Fault(slot, kind) => self.apply_fault(now, slot, kind),
                Event::Restart(phys) => self.restart_node(now, phys),
            }
        }
    }

    /// Collects every further query arriving at *exactly* the current
    /// simulated time, in event order — the batch companion to a
    /// [`DriverEvent::QueryArrived`] just returned by
    /// [`next_event`](Self::next_event), so the driver can route coincident
    /// arrivals as one batch against one view of the queues. Popping stops
    /// at the first event that is not an arrival now, and never while an
    /// internal driver event is queued (those must reach the driver in
    /// order). Each query goes through the same transition as in
    /// `next_event`, so driving with or without batching is event-for-event
    /// identical.
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
                    if let Some(query) = self.queries.arrive(id, now) {
                        batch.push((id, query));
                    }
                }
                _ => break,
            }
        }
    }

    /// Ends the run: closes the degraded-time window, accrues cost for every
    /// non-retired node up to the current time, and returns the metrics.
    pub fn finish(mut self) -> Metrics {
        let end = self.events.now();
        if let Some(since) = self.degraded_since.take() {
            self.metrics.availability.degraded += end.since(since);
        }
        for phys in 0..self.disks.len() {
            self.accrue(phys, end);
        }
        let degraded_ms = self.metrics.availability.degraded.as_millis();
        nashdb_obs::gauge_set(Metric::ClusterDegradedMs, degraded_ms as f64);
        self.metrics
    }

    /// Adds `n` to an availability counter and to its `cluster.*` obs
    /// counter, which move together.
    fn count(&mut self, metric: Metric, n: u64) {
        let a = &mut self.metrics.availability;
        let field = match metric {
            Metric::ClusterFaultsSkipped => &mut a.faults_skipped,
            Metric::ClusterJobsLost => &mut a.jobs_lost,
            Metric::ClusterNodeCrashes => &mut a.node_crashes,
            Metric::ClusterNodeRestarts => &mut a.node_restarts,
            Metric::ClusterQueriesAbandoned => &mut a.queries_abandoned,
            Metric::ClusterQueriesFailed => &mut a.queries_failed,
            Metric::ClusterQueriesRetried => &mut a.queries_retried,
            Metric::ClusterReadsWasted => &mut a.reads_wasted,
            Metric::ClusterTuplesLost => &mut a.tuples_lost,
            _ => return,
        };
        *field = field.saturating_add(n);
        nashdb_obs::counter_add(metric, n);
    }

    fn enqueue_job(&mut self, phys: usize, tuples: u64, read: Option<Read>) {
        let disk = &mut self.disks[phys];
        if let Some(done_at) = disk.enqueue(tuples, read, self.events.now()) {
            let epoch = disk.epoch();
            self.events
                .schedule_slot(phys, done_at, Event::JobDone(phys, epoch));
        }
    }

    fn job_done(&mut self, phys: usize, epoch: u64, now: SimTime) -> Option<DriverEvent> {
        // `None` for a completion from before a crash: the job is gone.
        let (tuples, read, next) = self.disks[phys].complete(epoch, now)?;
        if let Some(done_at) = next {
            self.events
                .schedule_slot(phys, done_at, Event::JobDone(phys, epoch));
        } else if self.disks[phys].is_draining() {
            self.accrue(phys, now);
        }

        let (id, attempt) = read?; // transfer write: nothing to report
        match &mut self.net {
            // A live read still has to cross the server's NIC and the core
            // link before the client has it. A stale one (its query failed
            // while it sat in the queue) is wasted here and now.
            Some(net) if self.queries.is_fresh(id, attempt) => {
                let delivered = net.deliver(phys, now, tuples);
                let delivery = Event::NetDelivery((id, attempt), tuples);
                self.events
                    .schedule_in(self.delivery_lane, delivered, delivery);
                None
            }
            _ => self.deliver_read((id, attempt), tuples),
        }
    }

    /// A fragment read reaches the client: counts toward throughput and,
    /// when it is the query's last read, completes the query.
    fn deliver_read(&mut self, (id, attempt): Read, tuples: u64) -> Option<DriverEvent> {
        let Some((pending, arrival, span)) = self.queries.deliver(id, attempt) else {
            // A read of a superseded attempt, or of a query already over.
            self.count(Metric::ClusterReadsWasted, 1);
            return None;
        };
        let now = self.events.now();
        self.metrics.read_throughput.add(now, tuples as f64);
        (pending == 0).then(|| self.complete_query(id, arrival, span))
    }

    /// Ends query `id` — which arrived at `arrival` and read from `span`
    /// nodes — at the current time.
    fn complete_query(&mut self, id: QueryId, arrival: SimTime, span: u32) -> DriverEvent {
        let record = QueryRecord {
            id,
            arrival,
            completion: self.events.now(),
            span,
        };
        self.metrics.queries.push(record);
        // Latency is simulated time, so this histogram is deterministic per
        // seed; host wall-clock is recorded only by spans.
        nashdb_obs::counter_add(Metric::ClusterQueriesCompleted, 1);
        nashdb_obs::record(Metric::ClusterQueryLatencyNs, record.latency().as_nanos());
        nashdb_obs::record(Metric::ClusterQuerySpan, u64::from(record.span));
        DriverEvent::QueryCompleted {
            id,
            latency: record.latency(),
        }
    }

    /// Applies a fault to the node mapped at `slot`. A fault whose slot is
    /// unmapped, or whose node is already down, is dropped and counted, so
    /// one schedule replays against clusters of any size.
    fn apply_fault(&mut self, now: SimTime, slot: u64, kind: FaultKind) {
        let phys = usize::try_from(slot)
            .ok()
            .and_then(|s| self.logical.get(s).copied())
            .filter(|&p| self.disks[p].is_up());
        let Some(phys) = phys else {
            self.count(Metric::ClusterFaultsSkipped, 1);
            return;
        };
        let restart_after = match kind {
            FaultKind::Crash => None,
            FaultKind::CrashRestart { down_for } => Some(down_for),
            FaultKind::Straggler { slowdown, duration } => {
                self.disks[phys].slow_down(slowdown, now + duration);
                return;
            }
        };
        // The in-service job's completion leaves the node's slot but is not
        // cancelled: it still pops at its time — the epoch check skips it —
        // so the clock, and with it `finish()`'s billing, runs as far as it
        // always did.
        self.events.release_slot(phys);
        let (jobs, tuples, reads) = self.disks[phys].crash();
        if let Some(net) = &mut self.net {
            net.reset_nic(phys);
        }
        self.count(Metric::ClusterNodeCrashes, 1);
        self.count(Metric::ClusterJobsLost, jobs);
        self.count(Metric::ClusterTuplesLost, tuples);
        self.driver_queue
            .push_back(DriverEvent::NodeFailed { node: NodeId(slot) });
        // Queries whose current attempt lost a read here can no longer
        // complete: they go back to the driver.
        for (id, attempts) in self.queries.fail(&reads) {
            self.count(Metric::ClusterQueriesFailed, 1);
            self.driver_queue
                .push_back(DriverEvent::QueryFailed { id, attempts });
        }
        if let Some(down_for) = restart_after {
            self.events.schedule(now + down_for, Event::Restart(phys));
        }
        self.update_degraded(now);
    }

    fn restart_node(&mut self, now: SimTime, phys: usize) {
        if !self.disks[phys].restart() {
            return; // decommissioned while down: it retired then
        }
        self.count(Metric::ClusterNodeRestarts, 1);
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
        let degraded = self.logical.iter().any(|&p| !self.disks[p].is_up());
        match self.degraded_since {
            None if degraded => self.degraded_since = Some(now),
            Some(since) if !degraded => {
                self.metrics.availability.degraded += now.since(since);
                self.degraded_since = None;
            }
            _ => {}
        }
    }

    /// Retires node `phys` at `until`, when it drained or the run ends, and
    /// bills it from its provisioning. A node billed already is skipped.
    fn accrue(&mut self, phys: usize, until: SimTime) {
        let Some((lifetime, busy)) = self.disks[phys].retire(until) else {
            return;
        };
        let hours = lifetime.as_secs_f64() / 3600.0;
        self.metrics.total_cost += hours * self.cfg.node_cost_per_hour;
        let utilization = (busy.as_secs_f64() / lifetime.as_secs_f64().max(1e-12)).min(1.0);
        self.metrics.node_utilization.push(utilization);
        // Parts-per-million so the busy fraction fits an integer histogram.
        let ppm = nashdb_core::num::saturating_u64(utilization * 1e6);
        nashdb_obs::record(Metric::ClusterNodeUtilizationPpm, ppm);
        nashdb_obs::gauge_set(Metric::ClusterTotalCost, self.metrics.total_cost);
    }
}
