//! The experiment driver: plays a workload against a simulated cluster,
//! with any distribution system and any scan router.

use nashdb_cluster::{ClusterConfig, ClusterSim, DriverEvent, Metrics, QueryRequest};
use nashdb_core::audit::audit_transition;
use nashdb_core::ids::{NodeId, QueryId};
use nashdb_core::routing::{run_of, Assignment, QueueView, ScanRouter, Scratch};
use nashdb_core::transition::{plan_sides, Side};
use nashdb_obs::{Metric, Span};
use nashdb_sim::fault::FaultSchedule;
use nashdb_sim::{SimDuration, SimTime};
use nashdb_workload::{Database, TimedQuery, Workload};
use std::sync::mpsc::{self, Receiver, SyncSender};

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

/// What the serving loop (arrival → requests → route → reads → dispatch)
/// reuses from one arrival to the next, so that in steady state an arrival
/// allocates nothing of its own. Everything here lives for the run; only
/// the two fragment-indexed tables (`sizes`, and the dedup table inside
/// `requests`) are re-sized, when an applied plan changes the fragment
/// count, and the node-indexed ones (`queues`, `scratch`) when it changes
/// the node count. Liveness is *not* kept here: it is read through
/// [`ClusterSim::node_alive`] (two indexed loads) as each candidate is
/// copied, so there is no crash epoch to invalidate a cache against.
#[derive(Default)]
struct Serving {
    /// The batch's fragment requests, one scan per query.
    requests: RequestBuf,
    /// Per query of the batch, whether it has a plan at all: every fragment
    /// it reads is covered and has a live replica, and the router did not
    /// reject the batch.
    routable: Vec<bool>,
    /// Tuples to read per fragment, as the batch's requests sized them.
    sizes: Vec<u64>,
    /// The router's view of the queues, refreshed from the sim per batch.
    queues: QueueView,
    scratch: Scratch,
    /// The batch's assignments, query `i`'s ending at `assignment_ends[i]`.
    assignments: Vec<Assignment>,
    assignment_ends: Vec<usize>,
    /// The reads of the query being dispatched.
    reads: Vec<(NodeId, u64)>,
}

impl Serving {
    /// Routes a batch of coincident queries with one router call against
    /// one observation of the queues. The router threads its queue view
    /// through the batch sequentially, so each query's assignment is
    /// identical to routing it alone at its arrival instant. `alive_only`
    /// drops replica candidates on crashed nodes — the
    /// routing-around-failures path; a query left with a fragment nobody
    /// live hosts is undispatchable until a node restarts or the scheme
    /// changes. [`reads`](Self::reads) then yields each query's plan.
    ///
    /// Every query here passed [`Database::check_query`], and scheme
    /// construction guarantees every fragment has a replica, so a scan
    /// outside the scheme's fragments or a router error is driver/scheme
    /// drift. Neither takes the run down: the affected queries are
    /// abandoned and counted under `routing.unroutable_scans`, so a long
    /// scenario sweep still finishes.
    fn plan<'q>(
        &mut self,
        scheme: &DistScheme,
        queries: impl Iterator<Item = &'q QueryRequest>,
        router: &dyn ScanRouter,
        sim: &ClusterSim,
        alive_only: bool,
    ) {
        // Fragment ids are dense scheme indices: a flat table, and no
        // refill — a fragment's size is read only for an assignment of this
        // batch, whose request wrote it below.
        if self.sizes.len() != scheme.fragments().len() {
            self.sizes.resize(scheme.fragments().len(), 0);
        }
        self.requests.start_batch();
        self.routable.clear();
        for (qi, query) in queries.enumerate() {
            let alive = |n| !alive_only || sim.node_alive(n);
            let live = match scheme.append_query(query, alive, &mut self.requests) {
                Ok(live) => live,
                Err(_uncovered) => {
                    nashdb_obs::counter_add(Metric::RoutingUnroutableScans, 1);
                    false
                }
            };
            // A query without a plan contributes an empty scan (routes to
            // an empty assignment list, touching no queues).
            self.routable.push(live);
            // One table per batch, not per query — a known defect kept bit
            // for bit until the frozen mirror can change with it (ROADMAP).
            for r in self.requests.query(qi) {
                self.sizes[r.fragment.index()] = r.size;
            }
        }
        self.queues.refill(sim.node_waits());
        let routed = {
            let _route = nashdb_obs::span(Span::Route);
            router.route_scans(
                self.requests.requests(),
                self.requests.ends(),
                &mut self.queues,
                &mut self.scratch,
                &mut self.assignments,
                &mut self.assignment_ends,
            )
        };
        if routed.is_err() {
            nashdb_obs::counter_add(Metric::RoutingUnroutableScans, self.routable.len() as u64);
            self.routable.fill(false);
        }
    }

    /// One `(node, tuples)` read per fragment request of query `qi` of the
    /// batch just planned, or `None` if the query has no plan.
    fn reads(&mut self, qi: usize) -> Option<&[(NodeId, u64)]> {
        if !self.routable.get(qi).copied().unwrap_or(false) {
            return None;
        }
        let assignments = run_of(&self.assignments, &self.assignment_ends, qi);
        if assignments.len() != self.requests.query(qi).len() {
            // A router that drops or invents requests produced an
            // unusable plan; abandon the query rather than the run.
            nashdb_obs::counter_add(Metric::RoutingUnroutableScans, 1);
            return None;
        }
        self.reads.clear();
        self.reads.extend(
            assignments
                .iter()
                .map(|a| (a.node, self.sizes[a.fragment.index()])),
        );
        Some(&self.reads)
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
/// made.
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
    let obs = nashdb_obs::fork();
    // The pipeline's one thread (DESIGN.md §11.1): the distributor's inputs
    // are fixed by the workload, so the run is still a function of the seed.
    #[allow(clippy::disallowed_methods)]
    let (metrics, distributed) = std::thread::scope(|s| {
        let (schemes, handed_over) = mpsc::sync_channel(SCHEMES_AHEAD);
        let worker = s.spawn(move || {
            obs.run(Span::Distributor, || {
                distribute(arrivals, distributor, cfg, &schemes);
            })
        });
        let metrics = serve(workload, arrivals, router, cfg, faults, &handed_over);
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
/// scheme per wake-up. It stops early once the serving side has hung up.
fn distribute(
    arrivals: &Arrivals<'_>,
    distributor: &mut dyn Distributor,
    cfg: &RunConfig,
    schemes: &SyncSender<DistScheme>,
) {
    for tq in arrivals.iter().take(cfg.warmup_queries) {
        distributor.observe(&tq.query);
    }
    if schemes.send(distributor.scheme()).is_err() {
        return;
    }
    let mut pending = arrivals.iter().peekable();
    for t in wakeups(arrivals.last(), cfg.reconfig_interval) {
        while let Some(tq) = pending.next_if(|tq| tq.at <= t) {
            distributor.observe(&tq.query);
        }
        if schemes.send(distributor.scheme()).is_err() {
            return;
        }
    }
    for tq in pending {
        distributor.observe(&tq.query);
    }
}

/// The serving side of a run: schedules the workload, then drives the
/// simulator, routing arrivals and retries against the scheme in force and
/// applying the next scheme from `schemes` at each wake-up. Stops serving
/// if `schemes` closes early, which only a panicked distributor does.
fn serve(
    workload: &Workload,
    arrivals: &Arrivals<'_>,
    router: &dyn ScanRouter,
    cfg: &RunConfig,
    faults: &FaultSchedule,
    schemes: &Receiver<DistScheme>,
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
        schemes.recv().ok().map(|scheme| {
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
                let queries = batch.iter().map(|(_, q)| q);
                serving.plan(&scheme, queries, router, &sim, faults_active);
                for (qi, (qid, _)) in batch.drain(..).enumerate() {
                    let Some(reads) = serving.reads(qi) else {
                        sim.abandon_query(qid);
                        continue;
                    };
                    if sim.dispatch(qid, reads).is_err() {
                        // Dispatch rejects only plans referencing nodes the
                        // sim does not know — driver/sim drift. Count it
                        // and abandon the query instead of crashing the run.
                        nashdb_obs::counter_add(Metric::ClusterDispatchRejected, 1);
                        sim.abandon_query(qid);
                    }
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
                        serving.plan(&scheme, std::iter::once(&tq.query), router, &sim, true);
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
                let Ok(new_scheme) = schemes.recv() else {
                    break;
                };
                let old = (&scheme, &side);
                if let Some(new_side) = transition(&mut sim, &workload.db, old, &new_scheme) {
                    scheme = new_scheme;
                    side = new_side;
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
    use std::cell::Cell;
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

    /// Max-of-mins, counting the scans it routes.
    struct Counting {
        inner: MaxOfMins,
        scans: Cell<usize>,
    }

    impl ScanRouter for Counting {
        fn route_into(
            &self,
            requests: &[nashdb_core::routing::FragmentRequest],
            queues: &mut QueueView,
            scratch: &mut Scratch,
            out: &mut Vec<Assignment>,
        ) -> Result<(), nashdb_core::routing::RouteError> {
            self.scans.set(self.scans.get() + 1);
            self.inner.route_into(requests, queues, scratch, out)
        }

        fn name(&self) -> &'static str {
            "counting"
        }
    }

    /// Runs the Miri-sized stream against a distributor failing at
    /// `(schemes, observes)`: the run must panic with the distributor's
    /// message, not hang on the channel, and the serving loop must stop at
    /// the first wake-up, having routed only the 7 arrivals up to it.
    fn assert_run_fails_at_first_wakeup(schemes: usize, observes: usize, message: &str) {
        let (w, run, nash) = miri_sized();
        let mut dist = Failing {
            inner: NashDbDistributor::new(&w.db, nash),
            schemes,
            observes,
        };
        let router = Counting {
            inner: MaxOfMins::new(run.phi_tuples()),
            scans: Cell::new(0),
        };
        let failed = catch_unwind(AssertUnwindSafe(|| {
            run_workload(&w, &mut dist, &router, &run)
        }));
        let payload = failed.expect_err("a distributor panic must end the run");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&message));
        assert_eq!(router.scans.get(), 7, "arrivals served after the failure");
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
