//! The experiment driver: plays a workload against a simulated cluster,
//! with any distribution system and any scan router.

use nashdb_cluster::{ClusterConfig, ClusterSim, DriverEvent, Metrics, QueryRequest};
use nashdb_core::audit::audit_transition;
use nashdb_core::ids::{NodeId, QueryId};
use nashdb_core::routing::{
    record_batch, record_scan, run_of, Assignment, QueueView, ScanRouter, Scratch,
};
use nashdb_core::transition::{plan_sides, Side};
use nashdb_obs::{Metric, Span};
use nashdb_sim::fault::FaultSchedule;
use nashdb_sim::{SimDuration, SimTime};
use nashdb_workload::{Database, TimedQuery, Workload};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Duration;

use crate::scheme::{DistScheme, Distributor, RequestBuf};

/// Driver configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Cluster simulator parameters.
    pub cluster: ClusterConfig,
    /// Reconfiguration interval (the paper transitions hourly).
    pub reconfig_interval: SimDuration,
    /// Max-of-mins span penalty ϕ as a duration (the paper measures
    /// ϕ = 350 ms on AWS); converted to tuples via node throughput by
    /// [`RunConfig::phi_tuples`].
    pub phi: SimDuration,
    /// Prime the distributor with the statistics of the first N queries
    /// before computing the initial scheme. Static batch workloads re-run a
    /// fixed panel of queries, so the paper's measurements are of a system
    /// already warmed to the panel; this reproduces that steady state
    /// without waiting out a reconfiguration interval. Zero = cold start.
    pub warmup_queries: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            cluster: ClusterConfig::default(),
            reconfig_interval: SimDuration::from_secs(3600),
            phi: SimDuration::from_millis(350),
            warmup_queries: 0,
        }
    }
}

impl RunConfig {
    /// ϕ expressed in tuples of queued work at this cluster's throughput.
    pub fn phi_tuples(&self) -> u64 {
        nashdb_core::num::saturating_u64(self.phi.as_secs_f64() * self.cluster.throughput_tps)
    }
}

/// A query whose current attempt failed this many times is abandoned rather
/// than retried again (a safety valve against pathological schedules; real
/// runs retry at most once or twice).
const MAX_ATTEMPTS: u32 = 5;

/// What routing a batch (requests → route → reads) reuses from one batch to
/// the next, so that in steady state a batch allocates nothing of its own.
/// The serving thread keeps one for the run, and so does the worker's
/// [`Planner`]. Only the fragment-indexed tables (`sizes`, and the dedup
/// table inside `requests`) are re-sized, when the scheme's fragment count
/// changes, and the node-indexed ones (`queues`, `scratch`) when the view's
/// node count does. Liveness is not kept here: the caller's filter reads it
/// as each candidate is copied.
#[derive(Default)]
struct Serving {
    /// The batch's fragment requests, one scan per query.
    requests: RequestBuf,
    /// Per query of the batch, whether it has a plan at all: every fragment
    /// it reads is covered and has a live replica, and the router placed
    /// each of its requests.
    routable: Vec<bool>,
    /// Tuples to read per fragment, as the batch's requests sized them.
    sizes: Vec<u64>,
    /// The router's view of the queues.
    queues: QueueView,
    scratch: Scratch,
    /// The batch's assignments, query `i`'s ending at `ends[i]`.
    assignments: Vec<Assignment>,
    /// The same placements as `(node, tuples)` reads, each sized from its
    /// own request: what [`record`] records.
    placed: Vec<(NodeId, u64)>,
    ends: Vec<usize>,
    /// The reads of the query being dispatched.
    reads: Vec<(NodeId, u64)>,
}

impl Serving {
    /// Routes a batch of coincident queries in order against one view of
    /// the queues, `waits`, listing only the candidates `alive` accepts.
    /// Each scan sees the queues as the scans before it left them, so each
    /// query is placed exactly as if routed alone at its arrival instant.
    /// [`reads`](Self::reads) then yields each query's reads. It records
    /// nothing, so the worker routes through it as the serving thread does.
    ///
    /// Returns how many queries driver/scheme drift left without a plan: a
    /// scan outside the scheme's fragments, or a router that dropped or
    /// invented requests. It is `Err` if the router rejected the batch: then
    /// no query has a plan, and the count is the batch's length plus its
    /// uncovered queries. A query whose fragment has no live replica has no
    /// plan either, but that is a fault, not drift.
    fn route<'q>(
        &mut self,
        scheme: &DistScheme,
        queries: impl Iterator<Item = &'q QueryRequest>,
        router: &dyn ScanRouter,
        waits: impl IntoIterator<Item = u64>,
        alive: impl Fn(NodeId) -> bool,
    ) -> Result<u64, u64> {
        // Fragment ids are dense scheme indices: a flat table, and no
        // refill — a fragment's size is read only for an assignment of this
        // batch, whose request wrote it.
        if self.sizes.len() != scheme.fragments().len() {
            self.sizes.resize(scheme.fragments().len(), 0);
        }
        self.requests.start_batch();
        self.routable.clear();
        let mut uncovered = 0;
        for query in queries {
            // A query without a plan is an empty scan of the batch.
            let live = scheme.append_query(query, &alive, &mut self.requests);
            uncovered += u64::from(live.is_err());
            self.routable.push(live == Ok(true));
        }
        self.queues.refill(waits);
        self.assignments.clear();
        self.placed.clear();
        self.ends.clear();
        // `route_into` validates each scan before placing any of it, and the
        // view is refilled per batch, so a batch it rejects halfway leaves
        // nothing behind: one validation per scan is enough.
        let mut drift = uncovered;
        for qi in 0..self.routable.len() {
            let scan = self.requests.query(qi);
            // One table per batch, not per query: after the loop a fragment
            // two queries share is sized by the later one for both. A known
            // defect, kept bit for bit until the frozen mirror can change
            // with it (ROADMAP A(2)).
            for r in scan {
                self.sizes[r.fragment.index()] = r.size;
            }
            let first = self.assignments.len();
            let out = &mut self.assignments;
            if router
                .route_into(scan, &mut self.queues, &mut self.scratch, out)
                .is_err()
            {
                self.routable.fill(false);
                return Err(uncovered + self.routable.len() as u64);
            }
            let assigned = &self.assignments[first..];
            if self.routable[qi] && assigned.len() != scan.len() {
                self.routable[qi] = false;
                drift += 1;
            }
            let sizes = &self.sizes;
            self.placed
                .extend(assigned.iter().map(|a| (a.node, sizes[a.fragment.index()])));
            self.ends.push(self.assignments.len());
        }
        Ok(drift)
    }

    /// [`route`](Self::route) on the serving thread: against the queues the
    /// sim shows and, if `alive_only`, its live nodes only. It counts the
    /// queries drift left without a plan under `routing.unroutable_scans`,
    /// and records a routed batch as committed.
    fn route_inline<'q>(
        &mut self,
        scheme: &DistScheme,
        queries: impl Iterator<Item = &'q QueryRequest>,
        router: &dyn ScanRouter,
        sim: &ClusterSim,
        alive_only: bool,
    ) {
        let _route = nashdb_obs::span(Span::Route);
        let alive = |n| !alive_only || sim.node_alive(n);
        let routed = self.route(scheme, queries, router, sim.node_waits(), alive);
        let (Ok(drift) | Err(drift)) = routed;
        if drift > 0 {
            nashdb_obs::counter_add(Metric::RoutingUnroutableScans, drift);
        }
        if routed.is_ok() {
            record(sim, &mut self.queues, &self.placed, &self.ends);
        }
    }

    /// One `(node, tuples)` read per fragment request of query `qi` of the
    /// batch just routed, or `None` if the query has no plan.
    fn reads(&mut self, qi: usize) -> Option<&[(NodeId, u64)]> {
        if !self.routable.get(qi).copied().unwrap_or(false) {
            return None;
        }
        let assignments = run_of(&self.assignments, &self.ends, qi);
        let sizes = &self.sizes;
        self.reads.clear();
        self.reads.extend(
            assignments
                .iter()
                .map(|a| (a.node, sizes[a.fragment.index()])),
        );
        Some(&self.reads)
    }
}

/// Records a batch the serving thread commits, inline or from a plan: scan
/// `i` placed `run_of(placed, ends, i)`, in placement order, each read sized
/// from its own request. The waits each placement saw are replayed over the
/// queues the sim shows before the batch is dispatched, in `queues`. The one
/// recording site of `routing.*` in the driver: the worker records nothing,
/// so no count depends on which thread routed what.
fn record(sim: &ClusterSim, queues: &mut QueueView, placed: &[(NodeId, u64)], ends: &[usize]) {
    if nashdb_obs::is_active() {
        queues.refill(sim.node_waits());
        for i in 0..ends.len() {
            record_scan(run_of(placed, ends, i).iter().copied(), queues);
        }
        record_batch(ends.len());
    }
}

/// Dispatches `reads` for query `id`, or abandons the query if it has no
/// reads or the sim rejects them.
fn dispatch(sim: &mut ClusterSim, id: QueryId, reads: Option<&[(NodeId, u64)]>) {
    let Some(reads) = reads else {
        sim.abandon_query(id);
        return;
    };
    if sim.dispatch(id, reads).is_err() {
        // Dispatch rejects only plans referencing nodes the sim does not
        // know — driver/sim drift. Count it and abandon the query instead
        // of crashing the run.
        nashdb_obs::counter_add(Metric::ClusterDispatchRejected, 1);
        sim.abandon_query(id);
    }
}

/// Runs `workload` end to end: the distributor computes an initial scheme at
/// time zero, observes every arriving query, and is asked for a fresh scheme
/// at every reconfiguration interval; transitions are planned with the
/// Hungarian matcher and applied to the cluster (their transfer time and
/// cost are borne by the simulation, as in the paper's measurements).
///
/// Returns the run's [`Metrics`].
///
/// # Panics
/// Re-raises a panic of the distributor, once the serving loop has stopped
/// at the scheme it can no longer get.
pub fn run_workload(
    workload: &Workload,
    distributor: &mut dyn Distributor,
    router: &dyn ScanRouter,
    cfg: &RunConfig,
) -> Metrics {
    run_workload_with_faults(workload, distributor, router, cfg, &FaultSchedule::none())
}

/// How many schemes the distributor may finish ahead of the wake-up that
/// applies them, beyond the one it is computing: enough to ride out one
/// slow `scheme()` call, and few enough that the schemes in flight stay a
/// small share of the run's memory.
const SCHEMES_AHEAD: usize = 1;

/// How many arrivals past the one the serving thread is handling the worker
/// starts routing ahead: a plan for a nearer arrival is mostly sent after
/// its arrival was served, and is thrown away. Chosen with
/// [`PLANS_IN_FLIGHT`] on `steady-route` (DESIGN.md §10.3): leads of 1, 3,
/// 8, 16 and 32 were measured, and 16 with 64 plans was fastest.
const PLAN_LEAD: usize = 16;

/// How many plans are in flight between the threads: the buffers the
/// worker fills and the serving thread hands back. It bounds how far ahead
/// of the serving thread the worker routes. Chosen with [`PLAN_LEAD`]:
/// 2, 8, 16, 32 and 64 were measured, and fewer than 8 starved the worker.
const PLANS_IN_FLIGHT: usize = 64;

/// How long the worker waits for a plan buffer to come back before it
/// offers its pending scheme again. A stale plan can sit unread while the
/// serving thread waits for that scheme, so the wait must end on its own.
const BUFFER_POLL: Duration = Duration::from_millis(1);

/// [`run_workload`] with a fault schedule injected. When a node crashes, the
/// driver re-routes failed queries to surviving replicas (dropping dead
/// candidates before routing); a query whose fragment has no live replica —
/// or that has failed `MAX_ATTEMPTS` times — is abandoned and counted in
/// [`Metrics::availability`]. With an empty schedule this is exactly
/// [`run_workload`].
///
/// Each query is checked once, with [`Database::check_query`]. One that
/// fails is scheduled, so ids stay dense, and abandoned on arrival under
/// `cluster.queries_rejected`: neither the distributor nor the router sees it.
///
/// The distributor runs on a second thread. It reads only the checked
/// stream and the serving loop only reads the schemes it produces, so it
/// observes every arrival and computes every scheme ahead of the wake-up
/// that applies it, and each decision is the one an inline call would have
/// made. While a finished scheme waits for its wake-up, the same thread
/// routes lone arrivals ahead against all-idle queues (DESIGN.md §10.3); the
/// serving loop applies such a plan only where it is the route it would
/// compute itself, so every output is a function of the seed.
///
/// # Panics
/// Re-raises a panic of the distributor, as [`run_workload`] does.
pub fn run_workload_with_faults(
    workload: &Workload,
    distributor: &mut dyn Distributor,
    router: &dyn ScanRouter,
    cfg: &RunConfig,
    faults: &FaultSchedule,
) -> Metrics {
    let arrivals = &Arrivals::check(workload);
    let serving_at = &AtomicUsize::new(0);
    let obs = nashdb_obs::fork();
    // The pipeline's one thread (DESIGN.md §11.1): the distributor's inputs
    // are fixed by the workload, so the run is still a function of the seed.
    #[allow(clippy::disallowed_methods)]
    let (metrics, distributed) = std::thread::scope(|s| {
        let (schemes, handed_over) = mpsc::sync_channel(SCHEMES_AHEAD);
        let (plans, planned) = mpsc::sync_channel(PLANS_IN_FLIGHT);
        let (spent, returned) = mpsc::sync_channel(PLANS_IN_FLIGHT);
        let worker = s.spawn(move || {
            obs.run(Span::Distributor, || {
                let mut planner = Planner::new(arrivals, cfg, router, serving_at, plans, returned);
                distribute(arrivals, distributor, cfg, &schemes, &mut planner);
            })
        });
        let reader = PlanReader {
            plans: planned,
            spent,
            held: None,
            serving_at,
        };
        let metrics = serve(
            workload,
            arrivals,
            router,
            cfg,
            faults,
            &handed_over,
            reader,
        );
        // Hang up first, so a worker blocked on a scheme nobody will take
        // returns instead of deadlocking the join.
        drop(handed_over);
        (metrics, worker.join())
    });
    match distributed {
        Ok(((), recording)) => {
            recording.absorb();
            metrics
        }
        Err(panic) => std::panic::resume_unwind(panic),
    }
}

/// The workload as both threads of a run read it, each query checked once.
/// The valid queries in the order the simulator delivers them, stable by
/// `at`, are `listed` then `reordered`: a sorted stream of valid queries
/// (every generated one) is all `listed` and copies nothing, and any other
/// is all `reordered`. `rejected` holds the positions, which are the query
/// ids, of the queries that failed, ascending.
struct Arrivals<'w> {
    listed: &'w [TimedQuery],
    reordered: Vec<&'w TimedQuery>,
    rejected: Vec<usize>,
}

impl<'w> Arrivals<'w> {
    /// Checks every query of `workload`, in one pass that also tests the
    /// valid ones for sortedness.
    fn check(workload: &'w Workload) -> Self {
        let queries = &workload.queries;
        let (mut rejected, mut sorted, mut latest) = (Vec::new(), true, SimTime::ZERO);
        for (i, tq) in queries.iter().enumerate() {
            if workload.db.check_query(&tq.query).is_err() {
                rejected.push(i);
            } else {
                sorted &= latest <= tq.at;
                latest = latest.max(tq.at);
            }
        }
        let mut arrivals = Arrivals {
            listed: queries,
            reordered: Vec::new(),
            rejected,
        };
        if !sorted || !arrivals.rejected.is_empty() {
            arrivals.reordered = queries
                .iter()
                .enumerate()
                .filter_map(|(i, tq)| arrivals.rejected.binary_search(&i).is_err().then_some(tq))
                .collect();
            arrivals.reordered.sort_by_key(|tq| tq.at);
            arrivals.listed = &[];
        }
        arrivals
    }

    /// The valid queries, in arrival order.
    fn iter(&self) -> impl Iterator<Item = &'w TimedQuery> + '_ {
        self.listed.iter().chain(self.reordered.iter().copied())
    }

    /// Valid arrival `i`, in arrival order. One of the two lists is empty.
    fn get(&self, i: usize) -> Option<&'w TimedQuery> {
        self.listed
            .get(i)
            .or_else(|| self.reordered.get(i).copied())
    }

    /// The latest arrival of a valid query, in O(1): `last` on a chain of
    /// slice iterators reads each slice's end.
    fn last(&self) -> Option<SimTime> {
        self.iter().last().map(|tq| tq.at)
    }
}

/// The reconfiguration instants: every interval from one interval in,
/// through `last`, the latest arrival. The sequence ends where it stops
/// advancing, so a zero interval schedules none (provisioning only) and a
/// sum that saturates at `SimTime::MAX` is scheduled once.
fn wakeups(last: Option<SimTime>, interval: SimDuration) -> impl Iterator<Item = SimTime> {
    std::iter::successors(Some(SimTime::ZERO), move |&t| {
        Some(t + interval).filter(|&next| next > t)
    })
    .skip(1)
    .take_while(move |&t| last.is_some_and(|last| t <= last))
}

/// The distributor's side of a run. It observes the warm-up prefix of the
/// arrivals and sends the provisioning scheme, then observes the arrivals —
/// an arrival at a wake-up's instant before that wake-up — and sends one
/// scheme per wake-up. While a scheme waits for its slot, and once the last
/// is sent, `planner` routes lone arrivals ahead. It stops early once the
/// serving side has hung up.
fn distribute(
    arrivals: &Arrivals<'_>,
    distributor: &mut dyn Distributor,
    cfg: &RunConfig,
    schemes: &SyncSender<Arc<DistScheme>>,
    planner: &mut Planner<'_, '_>,
) {
    for tq in arrivals.iter().take(cfg.warmup_queries) {
        distributor.observe(&tq.query);
    }
    if !planner.hand_over(distributor.scheme(), schemes) {
        return;
    }
    let mut pending = arrivals.iter().peekable();
    for t in wakeups(arrivals.last(), cfg.reconfig_interval) {
        while let Some(tq) = pending.next_if(|tq| tq.at <= t) {
            distributor.observe(&tq.query);
        }
        if !planner.hand_over(distributor.scheme(), schemes) {
            return;
        }
    }
    for tq in pending {
        distributor.observe(&tq.query);
    }
    while planner.advance() {}
}

/// A lone arrival — no other valid arrival shares its instant — routed on
/// the worker ahead of its arrival, against an all-idle queue view under
/// the scheme that will be in force when it comes. A plan is a buffer: the
/// worker fills it and the serving thread hands it back, so its tables stay
/// in the worker's allocations.
#[derive(Debug, Default)]
struct Plan {
    /// The arrival's position in arrival order.
    arrival: usize,
    /// The scheme it was routed under: 0 for the provisioning scheme, `k`
    /// for wake-up `k`'s.
    epoch: usize,
    /// Every node its requests list as a candidate, once each.
    touched: Vec<NodeId>,
    /// One `(node, tuples)` read per request, in placement order, each
    /// sized from its own request.
    reads: Vec<(NodeId, u64)>,
}

impl Plan {
    /// Whether the plan is the route the serving loop would compute for its
    /// arrival now, with scheme `epoch` in force: it was routed under that
    /// scheme, and every node it lists is mapped, idle and, if `alive_only`,
    /// up. A router reads a node only through the wait of a candidate it
    /// lists, so on these nodes the live queues and the all-idle view the
    /// plan was routed against route the scan alike; and with all of them
    /// up the liveness filter drops no candidate.
    fn holds(&self, epoch: usize, sim: &ClusterSim, alive_only: bool) -> bool {
        self.epoch == epoch && self.touched.iter().all(|&n| sim.idle(n, alive_only))
    }
}

/// The worker's side of routing ahead. Its cursor walks the arrivals once,
/// in order, jumping over those the serving thread will reach within
/// [`PLAN_LEAD`] arrivals and stepping over those that are not lone; it
/// routes the others under the scheme sent for their interval, through
/// [`Serving::route`] as a batch of one. It records nothing and opens no
/// span.
struct Planner<'a, 'w> {
    arrivals: &'a Arrivals<'w>,
    /// The reconfiguration instants: arrival `i` falls under scheme
    /// `wakeups.partition_point(|&t| t < at)`.
    wakeups: Vec<SimTime>,
    router: &'a dyn ScanRouter,
    /// The arrival the serving thread is handling, as it last published it.
    serving_at: &'a AtomicUsize,
    plans: SyncSender<Plan>,
    spent: Receiver<Plan>,
    /// Buffers never sent yet, all [`PLANS_IN_FLIGHT`] at first, and any
    /// a failed route handed back.
    free: Vec<Plan>,
    /// The next arrival the cursor looks at.
    next: usize,
    /// The schemes sent and not yet passed by the cursor: `sent[0]` is
    /// scheme `first`, and `first + sent.len()` schemes have been sent.
    sent: VecDeque<Arc<DistScheme>>,
    first: usize,
    /// The serving side hung up.
    done: bool,
    serving: Serving,
    /// Per node, whether the plan being built lists it yet; all false
    /// between plans.
    listed: Vec<bool>,
}

impl<'a, 'w> Planner<'a, 'w> {
    fn new(
        arrivals: &'a Arrivals<'w>,
        cfg: &RunConfig,
        router: &'a dyn ScanRouter,
        serving_at: &'a AtomicUsize,
        plans: SyncSender<Plan>,
        spent: Receiver<Plan>,
    ) -> Self {
        Planner {
            arrivals,
            wakeups: wakeups(arrivals.last(), cfg.reconfig_interval).collect(),
            router,
            serving_at,
            plans,
            spent,
            free: std::iter::repeat_with(Plan::default)
                .take(PLANS_IN_FLIGHT)
                .collect(),
            next: 0,
            sent: VecDeque::new(),
            first: 0,
            done: false,
            serving: Serving::default(),
            listed: Vec::new(),
        }
    }

    /// Sends `scheme` to the serving thread, planning while its slot is
    /// full and blocking on the slot only when there is nothing to plan.
    /// False once the serving side has hung up.
    fn hand_over(&mut self, scheme: DistScheme, schemes: &SyncSender<Arc<DistScheme>>) -> bool {
        // Drops the schemes of the intervals the serving thread has passed,
        // whether or not anything is planned before the slot frees.
        let _ = self.seek();
        let scheme = Arc::new(scheme);
        let mut pending = Arc::clone(&scheme);
        loop {
            match schemes.try_send(pending) {
                Ok(()) => break,
                Err(TrySendError::Disconnected(_)) => return false,
                Err(TrySendError::Full(back)) => pending = back,
            }
            if !self.advance() {
                if schemes.send(pending).is_err() {
                    return false;
                }
                break;
            }
        }
        self.sent.push_back(scheme);
        true
    }

    /// Moves the cursor to the next lone arrival at least [`PLAN_LEAD`]
    /// past the one the serving thread is handling, dropping the schemes of
    /// the intervals it passes. Returns the arrival's position, its scheme's
    /// epoch and the arrival, or `None` if it falls under a scheme not sent
    /// yet or there is none.
    fn seek(&mut self) -> Option<(usize, usize, &'w TimedQuery)> {
        loop {
            let lead = self
                .serving_at
                .load(Ordering::Relaxed)
                .saturating_add(PLAN_LEAD);
            self.next = self.next.max(lead);
            let tq = self.arrivals.get(self.next)?;
            let epoch = self.wakeups.partition_point(|&t| t < tq.at);
            while self.first < epoch && !self.sent.is_empty() {
                self.sent.pop_front();
                self.first += 1;
            }
            if self.first != epoch || self.sent.is_empty() {
                return None;
            }
            let shares_its_instant = |j: Option<usize>| {
                j.and_then(|j| self.arrivals.get(j))
                    .is_some_and(|other| other.at == tq.at)
            };
            let i = self.next;
            if !shares_its_instant(i.checked_sub(1)) && !shares_its_instant(Some(i + 1)) {
                return Some((i, epoch, tq));
            }
            self.next += 1;
        }
    }

    /// Plans the next arrival [`seek`](Self::seek) finds, once a buffer is
    /// on hand. A returned buffer is reused before a fresh one, so a run
    /// that plans only a few arrivals ahead fills only a few buffers. True
    /// if it sent a plan or waited [`BUFFER_POLL`] for a buffer; false if
    /// there is nothing to plan until another scheme is sent: the next
    /// arrival falls under an unsent scheme, there is none, or the serving
    /// side hung up.
    fn advance(&mut self) -> bool {
        while !self.done {
            let Some((i, epoch, tq)) = self.seek() else {
                break;
            };
            let plan = match self.spent.try_recv().ok().or_else(|| self.free.pop()) {
                Some(plan) => plan,
                None => match self.spent.recv_timeout(BUFFER_POLL) {
                    Ok(plan) => plan,
                    Err(RecvTimeoutError::Timeout) => return true,
                    Err(RecvTimeoutError::Disconnected) => {
                        self.done = true;
                        break;
                    }
                },
            };
            self.next += 1;
            let scheme = Arc::clone(&self.sent[0]);
            match self.route(i, epoch, &scheme, &tq.query, plan) {
                Ok(plan) => {
                    // Only `PLANS_IN_FLIGHT` buffers exist, so the
                    // channel has room for this one.
                    if self.plans.send(plan).is_err() {
                        self.done = true;
                        break;
                    }
                    return true;
                }
                Err(plan) => self.free.push(plan),
            }
        }
        false
    }

    /// Routes arrival `arrival` into `plan` under scheme `epoch`, against
    /// all-idle queues and every node alive, or hands the buffer back if the
    /// query has no plan: the serving loop then meets the same outcome
    /// inline.
    fn route(
        &mut self,
        arrival: usize,
        epoch: usize,
        scheme: &DistScheme,
        query: &QueryRequest,
        mut plan: Plan,
    ) -> Result<Plan, Plan> {
        let idle = std::iter::repeat_n(0, scheme.num_nodes());
        let routed = self
            .serving
            .route(scheme, std::iter::once(query), self.router, idle, |_| true);
        if routed.is_err() || self.serving.routable != [true] {
            return Err(plan);
        }
        // A batch of one: `placed` is the query's reads.
        std::mem::swap(&mut plan.reads, &mut self.serving.placed);
        plan.arrival = arrival;
        plan.epoch = epoch;
        plan.touched.clear();
        self.listed.resize(scheme.num_nodes(), false);
        let requests = self.serving.requests.query(0);
        for &node in requests.iter().flat_map(|r| &r.candidates) {
            if !std::mem::replace(&mut self.listed[node.index()], true) {
                plan.touched.push(node);
            }
        }
        for node in &plan.touched {
            self.listed[node.index()] = false;
        }
        Ok(plan)
    }
}

/// The serving thread's end of the plan channels. It never blocks: it
/// takes what the worker has sent, hands stale plans back, and holds a plan
/// that is ahead of it.
struct PlanReader<'a> {
    plans: Receiver<Plan>,
    spent: SyncSender<Plan>,
    /// The first plan at or past the arrival last reached.
    held: Option<Plan>,
    /// Where the serving thread publishes the arrival it is handling, for
    /// the worker to plan past. A hint only: it decides no output.
    serving_at: &'a AtomicUsize,
}

impl PlanReader<'_> {
    /// Publishes `arrival` as the arrival being handled, hands back every
    /// plan for an arrival before it, and holds the first plan at or past
    /// it.
    fn reach(&mut self, arrival: usize) {
        self.serving_at.store(arrival, Ordering::Relaxed);
        loop {
            let Some(plan) = self.held.take().or_else(|| self.plans.try_recv().ok()) else {
                return;
            };
            if plan.arrival >= arrival {
                self.held = Some(plan);
                return;
            }
            self.recycle(plan);
        }
    }

    /// [`reach`](Self::reach)es `arrival`, the first of a batch of `batch`
    /// queries, and takes its plan if it has one. Only a batch of one may
    /// use a plan: a query of a larger batch is routed after the others in
    /// it, against the queues they leave.
    fn take(&mut self, arrival: usize, batch: usize) -> Option<Plan> {
        self.reach(arrival);
        if batch != 1 {
            return None;
        }
        self.held.take_if(|plan| plan.arrival == arrival)
    }

    /// Hands a buffer back to the worker. Once the worker is gone, the
    /// buffer is freed here.
    fn recycle(&self, plan: Plan) {
        if let Err(TrySendError::Full(plan) | TrySendError::Disconnected(plan)) =
            self.spent.try_send(plan)
        {
            drop(plan);
        }
    }
}

/// The serving side of a run: schedules the workload, then drives the
/// simulator, routing arrivals and retries against the scheme in force and
/// applying the next scheme from `schemes` at each wake-up. A lone arrival
/// takes its plan from `plans` when the plan holds, and is routed inline
/// otherwise. Stops serving if `schemes` closes early, which only a
/// panicked distributor does.
fn serve(
    workload: &Workload,
    arrivals: &Arrivals<'_>,
    router: &dyn ScanRouter,
    cfg: &RunConfig,
    faults: &FaultSchedule,
    schemes: &Receiver<Arc<DistScheme>>,
    mut plans: PlanReader<'_>,
) -> Metrics {
    // Everything below runs under one root span; provisioning, per-query
    // routing, periodic reconfiguration, and crash retries each get a nested
    // child so an active `ObsSession` sees where driver wall-clock goes.
    let _pipeline = nashdb_obs::span(Span::Pipeline);
    let faults_active = !faults.is_empty();
    let mut sim = ClusterSim::new(cfg.cluster);
    sim.reserve_queries(workload.queries.len());
    for (i, tq) in workload.queries.iter().enumerate() {
        let id = sim.schedule_query(tq.at, tq.query.clone());
        // Ids are dense in scheduling order, so a failed query is re-routed
        // from `workload.queries[id]`.
        debug_assert_eq!(id.index(), i, "query ids are dense");
    }
    sim.schedule_faults(faults);
    for t in wakeups(arrivals.last(), cfg.reconfig_interval) {
        sim.schedule_wakeup(t, 0);
    }

    // Provision the initial scheme.
    let provisioned = {
        let _provision = nashdb_obs::span(Span::Provision);
        let received = {
            let _wait = nashdb_obs::span(Span::Wait);
            schemes.recv()
        };
        received.ok().map(|scheme| {
            let none = (&DistScheme::new(Vec::new(), &[]), &Side::default());
            let side = transition(&mut sim, &workload.db, none, &scheme)
                .unwrap_or_else(|| scheme.transition_side(&workload.db));
            (scheme, side)
        })
    };
    let Some((mut scheme, mut side)) = provisioned else {
        return sim.finish();
    };

    let mut serving = Serving::default();
    let mut batch: Vec<(QueryId, QueryRequest)> = Vec::new();
    // Valid arrivals served so far, which is the next one's position in
    // arrival order: the sim delivers them in the order `arrivals` lists.
    let mut arrived = 0;
    // The scheme in force: 0 for the provisioning one, `k` for wake-up
    // `k`'s, kept if the sim rejected a later one.
    let (mut epoch, mut wakeup) = (0, 0);
    loop {
        match sim.next_event() {
            DriverEvent::QueryArrived { id, query } => {
                // Arrivals sharing this event's timestamp (with no other
                // driver event interleaved) are drained and routed as one
                // batch: one queue observation, one router call, every
                // query assigned exactly as if routed alone the moment it
                // arrived.
                batch.push((id, query));
                sim.take_coincident_arrivals_into(&mut batch);
                batch.retain(|&(qid, _)| {
                    let rejected = arrivals.rejected.binary_search(&qid.index()).is_ok();
                    if rejected {
                        nashdb_obs::counter_add(Metric::ClusterQueriesRejected, 1);
                        sim.abandon_query(qid);
                    }
                    !rejected
                });
                if batch.is_empty() {
                    continue;
                }
                let _query = nashdb_obs::span(Span::Query);
                let first = arrived;
                arrived += batch.len();
                if let Some(plan) = plans.take(first, batch.len()) {
                    let holds = plan.holds(epoch, &sim, faults_active);
                    if holds {
                        {
                            let _route = nashdb_obs::span(Span::Route);
                            let ends = [plan.reads.len()];
                            record(&sim, &mut serving.queues, &plan.reads, &ends);
                        }
                        for (qid, _) in batch.drain(..) {
                            dispatch(&mut sim, qid, Some(&plan.reads));
                        }
                    }
                    plans.recycle(plan);
                    if holds {
                        continue;
                    }
                }
                let queries = batch.iter().map(|(_, q)| q);
                serving.route_inline(&scheme, queries, router, &sim, faults_active);
                for (qi, (qid, _)) in batch.drain(..).enumerate() {
                    dispatch(&mut sim, qid, serving.reads(qi));
                }
            }
            DriverEvent::QueryFailed { id, attempts } => {
                let _retry = nashdb_obs::span(Span::Retry);
                // Failed queries are re-routed one at a time, as their
                // failure events arrive. No asserts here: between routing
                // and dispatch nothing can invalidate the plan, but if state
                // ever drifts the run degrades to an abandoned query instead
                // of a panic.
                let dispatched = match workload.queries.get(id.index()) {
                    Some(tq) if attempts < MAX_ATTEMPTS => {
                        let query = std::iter::once(&tq.query);
                        serving.route_inline(&scheme, query, router, &sim, true);
                        matches!(serving.reads(0), Some(reads) if sim.dispatch(id, reads).is_ok())
                    }
                    _ => false,
                };
                if !dispatched {
                    sim.abandon_query(id);
                }
            }
            DriverEvent::NodeFailed { .. }
            | DriverEvent::NodeRestored { .. }
            | DriverEvent::QueryCompleted { .. } => {
                // Liveness is re-read from the sim at every routing decision,
                // and the sim records completions, so these are informational.
            }
            DriverEvent::Wakeup { .. } => {
                let _reconfigure = nashdb_obs::span(Span::Reconfigure);
                // Every plan sent so far is for an arrival already served:
                // hand them back, so none is left unread while this thread
                // waits on the worker.
                plans.reach(arrived);
                let received = {
                    let _wait = nashdb_obs::span(Span::Wait);
                    schemes.recv()
                };
                let Ok(new_scheme) = received else {
                    break;
                };
                wakeup += 1;
                let old = (&*scheme, &side);
                if let Some(new_side) = transition(&mut sim, &workload.db, old, &new_scheme) {
                    scheme = new_scheme;
                    side = new_side;
                    epoch = wakeup;
                }
            }
            DriverEvent::Finished => break,
        }
    }
    sim.finish()
}

/// Plans and applies the transition from `old` (a scheme and its side) to
/// `new`: `new`'s side, or `None` if the sim rejected the plan.
fn transition(
    sim: &mut ClusterSim,
    db: &Database,
    old: (&DistScheme, &Side),
    new: &DistScheme,
) -> Option<Side> {
    let side = new.transition_side(db);
    let plan = plan_sides(old.1, &side);
    debug_assert_eq!(
        audit_transition(&old.0.node_intervals(db), &new.node_intervals(db), &plan),
        Ok(()),
        "transition audit"
    );
    // The plan is well-formed by construction; count (rather than crash on)
    // any drift, so a long scenario sweep still finishes.
    let applied = sim.reconfigure(&plan).is_ok();
    if !applied {
        nashdb_obs::counter_add(Metric::ClusterPlansRejected, 1);
    }
    applied.then_some(side)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributor::{NashDbConfig, NashDbDistributor};
    use nashdb_core::economics::NodeSpec;
    use nashdb_core::routing::MaxOfMins;
    use nashdb_workload::bernoulli::{workload as bernoulli, BernoulliConfig};
    use nashdb_workload::random::{workload as random, RandomConfig};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn fast_cluster() -> ClusterConfig {
        ClusterConfig {
            throughput_tps: 1_000_000.0,
            node_cost_per_hour: 100.0,
            metrics_bucket: SimDuration::from_secs(600),
            network: None,
        }
    }

    fn nash_cfg() -> NashDbConfig {
        NashDbConfig {
            spec: NodeSpec::new(100.0, 2_000_000),
            max_frags_per_table: 16,
            ..NashDbConfig::default()
        }
    }

    /// A run small enough for Miri, which checks the worker thread and the
    /// scheme channel for data races: 24 arrivals 50 s apart and a wake-up
    /// every 300 s (three of them), on a tiny distributor.
    fn miri_sized() -> (Workload, RunConfig, NashDbConfig) {
        let w = bernoulli(&BernoulliConfig {
            size_gb: 1,
            queries: 24,
            spacing: SimDuration::from_secs(50),
            ..BernoulliConfig::default()
        });
        let run = RunConfig {
            cluster: fast_cluster(),
            reconfig_interval: SimDuration::from_secs(300),
            ..RunConfig::default()
        };
        let nash = NashDbConfig {
            window: 8,
            spec: NodeSpec::new(100.0, 400_000),
            max_frags_per_table: 4,
            greedy_rounds: 4,
            ..NashDbConfig::default()
        };
        (w, run, nash)
    }

    #[test]
    fn miri_sized_run_applies_one_scheme_per_wakeup() {
        let (w, run, nash) = miri_sized();
        let go = |w: &Workload| {
            let mut dist = NashDbDistributor::new(&w.db, nash);
            run_workload(w, &mut dist, &MaxOfMins::new(run.phi_tuples()), &run)
        };
        let mut reversed = w.clone();
        reversed.queries.reverse();
        let (a, mut b) = (go(&w), go(&reversed));
        // The reversed stream is served alike, but its ids follow the listing.
        for q in &mut b.queries {
            q.id = QueryId(23 - q.id.get());
        }
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a.queries.len(), 24);
        // The provisioning plan and one per wake-up, all applied.
        assert_eq!(a.reconfigurations, 4);
    }

    #[test]
    fn each_committed_scan_is_recorded_once_whichever_thread_routed_it() {
        // Every arrival is a lone one, so each is routed on the worker or
        // inline, depending on how the threads interleave; either way the
        // serving thread records it, once, as a batch of one.
        let (w, run, nash) = miri_sized();
        let mut dist = NashDbDistributor::new(&w.db, nash);
        let session = nashdb_obs::ObsSession::start();
        run_workload(&w, &mut dist, &MaxOfMins::new(run.phi_tuples()), &run);
        let snap = session.finish();
        for counted in [Metric::RoutingScansRouted, Metric::RoutingBatchesRouted] {
            assert_eq!(snap.counter(counted), Some(24), "{counted:?}");
        }
    }

    #[test]
    fn a_zero_interval_provisions_only() {
        let (w, mut run, nash) = miri_sized();
        run.reconfig_interval = SimDuration::ZERO;
        let mut dist = NashDbDistributor::new(&w.db, nash);
        let m = run_workload(&w, &mut dist, &MaxOfMins::new(run.phi_tuples()), &run);
        assert_eq!(m.queries.len(), 24);
        assert_eq!(m.reconfigurations, 1);
    }

    #[test]
    fn wakeups_end_where_the_instants_stop_advancing() {
        let last = Some(SimTime::from_secs(1_150));
        assert_eq!(wakeups(last, SimDuration::ZERO).count(), 0);
        let every_300s: Vec<_> = wakeups(last, SimDuration::from_secs(300)).collect();
        assert_eq!(every_300s, [300, 600, 900].map(SimTime::from_secs));
        // A sum past `u64::MAX` saturates at `SimTime::MAX` and stops there.
        let half = SimDuration::from_nanos(u64::MAX / 2 + 1);
        let at: Vec<_> = wakeups(Some(SimTime::MAX), half).collect();
        assert_eq!(at, [SimTime::ZERO + half, SimTime::MAX]);
    }

    /// NashDB, until its `scheme()` call `schemes` or its `observe()` call
    /// `observes` (both counted from 0), which panics.
    struct Failing {
        inner: NashDbDistributor,
        schemes: usize,
        observes: usize,
    }

    impl Distributor for Failing {
        fn observe(&mut self, query: &QueryRequest) {
            assert!(self.observes > 0, "observe failed");
            self.observes -= 1;
            self.inner.observe(query);
        }

        fn scheme(&mut self) -> DistScheme {
            assert!(self.schemes > 0, "scheme failed");
            self.schemes -= 1;
            self.inner.scheme()
        }

        fn name(&self) -> &'static str {
            "failing"
        }
    }

    /// Runs the Miri-sized stream against a distributor failing at
    /// `(schemes, observes)`: the run must panic with the distributor's
    /// message, not hang on the channel, and the serving loop must stop at
    /// the first wake-up, having routed only the 7 arrivals up to it. The
    /// scans committed are counted under `routing.scans_routed`, whichever
    /// thread routed them.
    fn assert_run_fails_at_first_wakeup(schemes: usize, observes: usize, message: &str) {
        let (w, run, nash) = miri_sized();
        let mut dist = Failing {
            inner: NashDbDistributor::new(&w.db, nash),
            schemes,
            observes,
        };
        let router = MaxOfMins::new(run.phi_tuples());
        let session = nashdb_obs::ObsSession::start();
        let failed = catch_unwind(AssertUnwindSafe(|| {
            run_workload(&w, &mut dist, &router, &run)
        }));
        let snap = session.finish();
        let payload = failed.expect_err("a distributor panic must end the run");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&message));
        let scans = snap.counter(Metric::RoutingScansRouted);
        assert_eq!(scans, Some(7), "arrivals served after the failure");
    }

    #[test]
    fn a_panic_in_scheme_ends_the_run_at_its_wakeup() {
        assert_run_fails_at_first_wakeup(1, usize::MAX, "scheme failed");
    }

    #[test]
    fn a_panic_in_observe_ends_the_run_at_the_next_wakeup() {
        assert_run_fails_at_first_wakeup(usize::MAX, 3, "observe failed");
    }

    #[test]
    fn the_plan_reader_takes_its_plan_and_hands_back_the_rest() {
        // A worker sends plans for arrivals 1, 2, 4, 6 and 9, in order, and
        // hangs up; the reader meets a stale plan (1), a matching one (2), a
        // missing one (3), a plan for a batch of two (4), one ahead (6,
        // held at 5) and one past a wake-up (9). Every buffer comes back
        // to the worker exactly once.
        let serving_at = AtomicUsize::new(0);
        let (plans, planned) = mpsc::sync_channel(PLANS_IN_FLIGHT);
        let (spent, returned) = mpsc::sync_channel(PLANS_IN_FLIGHT);
        let (sent, all_sent) = mpsc::sync_channel(0);
        // A worker thread, as in a run.
        #[allow(clippy::disallowed_methods)]
        std::thread::scope(|s| {
            let worker = s.spawn(move || {
                for arrival in [1, 2, 4, 6, 9] {
                    let plan = Plan {
                        arrival,
                        ..Plan::default()
                    };
                    plans.send(plan).unwrap();
                }
                drop(plans);
                sent.send(()).unwrap();
                let mut back: Vec<usize> = returned.iter().map(|p: Plan| p.arrival).collect();
                back.sort_unstable();
                back
            });
            all_sent.recv().unwrap();
            let mut reader = PlanReader {
                plans: planned,
                spent,
                held: None,
                serving_at: &serving_at,
            };
            let mut take = |arrival, batch| {
                let plan = reader.take(arrival, batch);
                assert_eq!(serving_at.load(Ordering::Relaxed), arrival);
                let taken = plan.as_ref().map(|p| p.arrival);
                if let Some(plan) = plan {
                    reader.recycle(plan);
                }
                taken
            };
            assert_eq!(take(2, 1), Some(2), "stale 1 passed over");
            assert_eq!(take(3, 1), None, "3 has no plan");
            assert_eq!(take(4, 2), None, "a batch of two routes inline");
            assert_eq!(take(5, 1), None, "6 is ahead");
            assert_eq!(take(6, 1), Some(6));
            reader.reach(8);
            assert_eq!(reader.take(9, 1).map(|p| p.arrival), Some(9));
            assert!(reader.take(10, 1).is_none(), "the worker hung up");
            drop(reader);
            assert_eq!(worker.join().unwrap(), [1, 2, 4, 6]);
        });
    }

    /// A three-node scheme over one 1,000-tuple table: fragment 0 on node
    /// 0, fragment 1 on nodes 0 and 1, fragment 2 on node 2.
    fn three_nodes() -> (Database, DistScheme) {
        let db = Database::new(vec![("t", 1_000)]);
        let fragments = [(0, 300), (300, 600), (600, 1_000)].map(|(start, end)| {
            crate::scheme::GlobalFragment {
                table: nashdb_core::ids::TableId(0),
                range: nashdb_core::fragment::FragmentRange::new(start, end),
            }
        });
        let scheme = DistScheme::new(fragments.to_vec(), &[vec![0, 1], vec![1], vec![2]]);
        (db, scheme)
    }

    #[test]
    fn serving_routes_a_batch_as_route_batch_does() {
        // One routine call against the batch as `route_batch` routes the
        // scans the allocating adapter builds, with the buffers reused
        // across batches; the placements it records are each sized from
        // their own request, where a fragment two queries share is read at
        // the later query's size by both.
        let (_, scheme) = three_nodes();
        let queries = [(0, 1_000), (250, 700), (650, 1_000), (100, 200)].map(|(start, end)| {
            let scan = nashdb_cluster::ScanRange::new(nashdb_core::ids::TableId(0), start, end);
            QueryRequest {
                price: 1.0,
                scans: vec![scan],
                tag: 0,
            }
        });
        let scans: Vec<_> = queries
            .iter()
            .map(|q| scheme.requests_for_query(q))
            .collect();
        let router = MaxOfMins::new(50);
        let mut serving = Serving::default();
        for waits in [vec![0; 3], vec![400, 0, 90]] {
            let routed = serving.route(&scheme, queries.iter(), &router, waits.clone(), |_| true);
            assert_eq!(routed, Ok(0));
            let owned = router
                .route_batch(scans.clone(), &mut QueueView::from_waits(waits))
                .unwrap();
            assert_eq!(serving.assignments, owned.concat());
            assert_eq!(serving.ends, [3, 6, 7, 8]);
            for (i, (scan, assigned)) in scans.iter().zip(&owned).enumerate() {
                let size =
                    |a: &Assignment| scan.iter().find(|r| r.fragment == a.fragment).unwrap().size;
                let own: Vec<_> = assigned.iter().map(|a| (a.node, size(a))).collect();
                assert_eq!(run_of(&serving.placed, &serving.ends, i), own);
            }
            // The second query reads 50 + 300 + 100 tuples of its own, but
            // is dispatched at the last sizes the batch wrote for fragments
            // 0 and 2: the fourth query's 100 and the third's 350.
            let reads = serving.reads(1).unwrap().iter().map(|&(_, t)| t);
            assert_eq!(reads.sum::<u64>(), 100 + 300 + 350);
        }
        // A candidate outside the view: the router rejects the batch, and
        // no query has a plan.
        let routed = serving.route(&scheme, queries.iter(), &router, [0, 0], |_| true);
        assert_eq!(routed, Err(4));
        assert!((0..4).all(|i| serving.reads(i).is_none()));
    }

    #[test]
    fn a_plan_holds_only_under_its_scheme_on_idle_live_nodes() {
        let (db, scheme) = three_nodes();
        let mut sim = ClusterSim::new(fast_cluster());
        let none = (&DistScheme::new(Vec::new(), &[]), &Side::default());
        assert!(transition(&mut sim, &db, none, &scheme).is_some());
        let scan = nashdb_cluster::ScanRange::new(nashdb_core::ids::TableId(0), 0, 1_000);
        let query = QueryRequest {
            price: 1.0,
            scans: vec![scan],
            tag: 0,
        };
        // The provisioning transfers are long done by the time it arrives.
        sim.schedule_query(SimTime::from_secs(10), query);
        let crash = nashdb_sim::fault::FaultEvent {
            at: SimTime::from_secs(15),
            node: 2,
            kind: nashdb_sim::fault::FaultKind::Crash,
        };
        sim.schedule_faults(&FaultSchedule::from_events(vec![crash]));
        let on = |nodes: &[u64]| Plan {
            touched: nodes.iter().map(|&n| NodeId(n)).collect(),
            ..Plan::default()
        };
        let id = loop {
            if let DriverEvent::QueryArrived { id, .. } = sim.next_event() {
                break id;
            }
        };
        assert!(on(&[0, 1, 2]).holds(0, &sim, true));
        assert!(!on(&[0, 1, 2]).holds(1, &sim, true), "another scheme");
        assert!(!on(&[0, 3]).holds(0, &sim, false), "node 3 is not mapped");
        // Work queued on node 1 makes it busy, and only it, for 10 s.
        sim.dispatch(id, &[(NodeId(1), 10_000_000)]).unwrap();
        assert!(!on(&[0, 1]).holds(0, &sim, false), "node 1 is busy");
        assert!(on(&[0, 2]).holds(0, &sim, true));
        // Node 2 crashes: down, it still holds where liveness is not asked.
        while !matches!(sim.next_event(), DriverEvent::NodeFailed { .. }) {}
        assert!(!on(&[0, 2]).holds(0, &sim, true), "node 2 is down");
        assert!(on(&[0, 2]).holds(0, &sim, false));
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn bernoulli_end_to_end_completes_every_query() {
        let w = bernoulli(&BernoulliConfig {
            size_gb: 4,
            queries: 80,
            ..BernoulliConfig::default()
        });
        let run = RunConfig {
            cluster: fast_cluster(),
            ..RunConfig::default()
        };
        let mut nash = NashDbDistributor::new(&w.db, nash_cfg());
        let m = run_workload(&w, &mut nash, &MaxOfMins::new(run.phi_tuples()), &run);
        assert_eq!(m.queries.len(), 80);
        assert!(m.mean_latency_secs() > 0.0);
        assert!(m.total_cost > 0.0);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn dynamic_run_reconfigures_on_interval() {
        let w = random(&RandomConfig {
            size_gb: 4,
            queries: 60,
            duration: SimDuration::from_secs(4 * 3600),
            ..RandomConfig::default()
        });
        let run = RunConfig {
            cluster: fast_cluster(),
            reconfig_interval: SimDuration::from_secs(3600),
            ..RunConfig::default()
        };
        let mut nash = NashDbDistributor::new(&w.db, nash_cfg());
        let m = run_workload(&w, &mut nash, &MaxOfMins::new(run.phi_tuples()), &run);
        // Initial provision + at least 3 hourly reconfigurations.
        assert!(
            m.reconfigurations >= 4,
            "only {} reconfigs",
            m.reconfigurations
        );
        assert_eq!(m.queries.len(), 60);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn runs_are_deterministic() {
        let w = bernoulli(&BernoulliConfig {
            size_gb: 2,
            queries: 40,
            ..BernoulliConfig::default()
        });
        let run = RunConfig {
            cluster: fast_cluster(),
            ..RunConfig::default()
        };
        let go = || {
            let mut nash = NashDbDistributor::new(&w.db, nash_cfg());
            run_workload(&w, &mut nash, &MaxOfMins::new(run.phi_tuples()), &run)
        };
        let a = go();
        let b = go();
        assert_eq!(a.queries, b.queries);
        assert!((a.total_cost - b.total_cost).abs() < 1e-9);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn higher_price_lowers_latency_at_higher_cost() {
        // The paper's Fig. 6c mechanism: raising every query's price adds
        // replicas and nodes, trading money for latency.
        let run = RunConfig {
            cluster: fast_cluster(),
            warmup_queries: 60,
            ..RunConfig::default()
        };
        let go = |price: f64| {
            let w = bernoulli(&BernoulliConfig {
                size_gb: 4,
                queries: 120,
                price,
                ..BernoulliConfig::default()
            });
            let mut nash = NashDbDistributor::new(&w.db, nash_cfg());
            run_workload(&w, &mut nash, &MaxOfMins::new(run.phi_tuples()), &run)
        };
        let cheap = go(1.0);
        let pricey = go(16.0);
        assert!(
            pricey.mean_latency_secs() < cheap.mean_latency_secs(),
            "latency: pricey {} vs cheap {}",
            pricey.mean_latency_secs(),
            cheap.mean_latency_secs()
        );
        // Higher prices buy a bigger cluster. (Total cost can still fall —
        // the faster cluster drains the batch sooner, ending node rental
        // earlier — so the robust check is the provisioning decision.)
        assert!(
            pricey.peak_nodes > cheap.peak_nodes,
            "nodes: pricey {} vs cheap {}",
            pricey.peak_nodes,
            cheap.peak_nodes
        );
    }

    /// Runs a 40-query stream whose queries `bad` `corrupt` made invalid:
    /// exactly those are rejected and abandoned on arrival, none reaches the
    /// router, and the others complete.
    fn assert_only_these_are_abandoned(bad: &[u64], corrupt: impl FnOnce(&mut Workload)) {
        let mut w = bernoulli(&BernoulliConfig {
            size_gb: 2,
            queries: 40,
            ..BernoulliConfig::default()
        });
        corrupt(&mut w);
        let run = RunConfig {
            cluster: fast_cluster(),
            ..RunConfig::default()
        };
        let session = nashdb_obs::ObsSession::start();
        let mut nash = NashDbDistributor::new(&w.db, nash_cfg());
        let m = run_workload(&w, &mut nash, &MaxOfMins::new(run.phi_tuples()), &run);
        let snap = session.finish();
        let rejected = bad.len() as u64;
        assert_eq!(m.availability.queries_abandoned, rejected);
        assert_eq!(m.queries.len() as u64 + rejected, 40);
        assert!(m.queries.iter().all(|q| !bad.contains(&q.id.get())));
        assert_eq!(snap.counter(Metric::ClusterQueriesRejected), Some(rejected));
        assert_eq!(
            snap.counter(Metric::ClusterQueriesAbandoned),
            Some(rejected)
        );
        assert_eq!(snap.counter(Metric::RoutingUnroutableScans), None);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn scan_past_its_table_abandons_one_query_not_the_run() {
        // `Workload`'s fields are public and `validated()` is opt-in: a
        // hand-built stream can hold a scan that runs past its table.
        assert_only_these_are_abandoned(&[17], |w| {
            let tuples = w.db.tables[0].tuples;
            w.queries[17].query.scans[0].end = tuples + 1_000;
        });
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn scan_of_unknown_table_abandons_one_query_not_the_run() {
        // The same stream can name a table the database does not have.
        assert_only_these_are_abandoned(&[17], |w| {
            w.queries[17].query.scans[0].table = nashdb_core::ids::TableId(9);
        });
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn unusable_prices_do_not_end_the_run() {
        // A NaN, negative or infinite price fails the check like a bad
        // scan: its query is abandoned and the rest of the run goes on.
        assert_only_these_are_abandoned(&[5, 17, 29], |w| {
            for (i, price) in [(5, f64::NAN), (17, -1.0), (29, f64::INFINITY)] {
                w.queries[i].query.price = price;
            }
        });
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn fault_free_schedule_matches_plain_run() {
        let w = bernoulli(&BernoulliConfig {
            size_gb: 2,
            queries: 30,
            ..BernoulliConfig::default()
        });
        let run = RunConfig {
            cluster: fast_cluster(),
            ..RunConfig::default()
        };
        let mut a_dist = NashDbDistributor::new(&w.db, nash_cfg());
        let a = run_workload(&w, &mut a_dist, &MaxOfMins::new(run.phi_tuples()), &run);
        let mut b_dist = NashDbDistributor::new(&w.db, nash_cfg());
        let b = run_workload_with_faults(
            &w,
            &mut b_dist,
            &MaxOfMins::new(run.phi_tuples()),
            &run,
            &FaultSchedule::none(),
        );
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.availability, b.availability);
        assert!((a.total_cost - b.total_cost).abs() < 1e-12);
    }
}
