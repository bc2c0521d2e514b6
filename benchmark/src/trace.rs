//! The traced run: a mirror of `nashdb::run_workload_with_faults` written
//! against the same public API, with a span around every call into a layer.
//!
//! The library has no spans of its own that a benchmark can read without an
//! `ObsSession` (whose cost is itself under measurement), so layers are timed
//! from outside. The mirror must make exactly the calls the driver makes, in
//! the same order; `trace.mirror_match` reports whether its `Metrics` still
//! equal the driver's. When a later PR changes the driver and the mirror
//! drifts, that metric drops to 0 and the per-layer block is stale — the
//! end-to-end block, which never touches this file, still stands.

use std::collections::HashMap;
use std::io::Write as _;
use std::time::Instant;

use nashdb::{DistScheme, Distributor, MaxOfMins, NashDbDistributor, ScanRouter};
use nashdb_cluster::{ClusterSim, DriverEvent, Metrics, QueryRequest};
use nashdb_core::ids::{NodeId, QueryId};
use nashdb_core::routing::{FragmentRequest, QueueView};
use nashdb_core::transition::plan_transition;
use nashdb_sim::SimTime;

use crate::report::MetricSet;
use crate::stats;
use crate::workloads::Case;

/// The driver's retry cap (`MAX_ATTEMPTS` in `crates/nashdb/src/driver.rs`).
const MAX_ATTEMPTS: u32 = 5;

/// What a span covers. The first five are the driver's own composite spans
/// — their self time is driver glue, reported as `unattributed_frac`; the
/// rest are one call into one layer's public function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// The whole run.
    Run,
    /// Initial scheme and provisioning.
    Provision,
    /// One arrival event: from the event to the last dispatch of its batch.
    Arrival,
    /// One `QueryFailed` event, re-routed or abandoned.
    Retry,
    /// One wake-up: from the timer to the plan applied.
    Reconfig,
    /// `ClusterSim::new` + `schedule_query`/`schedule_faults`/`schedule_wakeup`.
    SimSchedule,
    /// `ClusterSim::next_event` + `take_coincident_arrivals`.
    SimNextEvent,
    /// `ClusterSim::dispatch` / `abandon_query`, and the `queue_waits`
    /// snapshot taken before each routing call.
    SimDispatch,
    /// `ClusterSim::reconfigure`.
    SimReconfigure,
    /// `Distributor::observe`.
    Observe,
    /// `Distributor::scheme`.
    Scheme,
    /// `DistScheme::requests_for_query` + the liveness filter.
    Requests,
    /// `DistScheme::node_intervals`.
    NodeIntervals,
    /// `ScanRouter::route_batch`.
    Route,
    /// `plan_transition`.
    Plan,
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What it covers.
    pub layer: Layer,
    /// Index of the enclosing span (`u32::MAX` for the root).
    pub parent: u32,
    /// The driver event that caused it: spans of one event share this.
    pub request: u32,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: u32,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, layer: Layer) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            layer,
            parent: self.stack.last().copied().unwrap_or(u32::MAX),
            request: self.request,
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(id);
        id
    }

    fn exit(&mut self, id: u32) {
        debug_assert_eq!(self.stack.last(), Some(&id), "spans close innermost first");
        self.stack.pop();
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Times one call into a layer.
    fn call<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let id = self.enter(layer);
        let out = f();
        self.exit(id);
        out
    }
}

/// Counts taken at the same boundaries as the spans.
#[derive(Debug, Default)]
pub struct Counts {
    /// Driver events handled (`next_event` calls).
    pub events: u64,
    arrival_events: u64,
    arrived_queries: u64,
    requests: u64,
    candidates: u64,
    routed_requests: u64,
    route_errors: u64,
    reads_dispatched: u64,
    retries: u64,
    plans_rejected: u64,
    schemes: u64,
    fragments: u64,
    replicas: u64,
    matrix_dims: u64,
    tuples_moved: u64,
    /// Schemes that failed `covers(db)`.
    pub uncovered_schemes: u64,
}

/// Everything the traced run recorded.
#[derive(Debug)]
pub struct Traced {
    /// The mirror's outcome, to compare with the driver's.
    pub metrics: Metrics,
    /// All spans, in start order.
    pub spans: Vec<Span>,
    /// Boundary counts.
    pub counts: Counts,
}

impl Traced {
    /// Wall time of the whole traced run, in seconds.
    pub fn wall_s(&self) -> f64 {
        self.spans.first().map_or(0.0, Span::secs)
    }

    /// Writes every span as one JSON object per line: its index, layer,
    /// parent index (`null` for the root), causing driver event, and start
    /// and end in nanoseconds since the run began.
    ///
    /// # Errors
    /// Any I/O error, including the final flush's.
    pub fn write_spans(&self, out: impl std::io::Write) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(out);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = match s.parent {
                u32::MAX => "null".to_owned(),
                p => p.to_string(),
            };
            writeln!(
                out,
                "{{\"id\": {id}, \"layer\": \"{:?}\", \"parent\": {parent}, \"event\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.layer, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

enum Routed {
    Reads(Vec<(NodeId, u64)>),
    Dead,
}

/// State the mirror threads through its helpers.
struct Mirror<'a> {
    case: &'a Case,
    router: MaxOfMins,
    tracer: Tracer,
    counts: Counts,
}

impl Mirror<'_> {
    /// The driver's `plan_reads_batch`, span for span.
    fn plan_reads_batch(
        &mut self,
        scheme: &DistScheme,
        queries: &[&QueryRequest],
        sim: &ClusterSim,
        alive_only: bool,
    ) -> Vec<Routed> {
        let mut sizes: Vec<u64> = vec![0; scheme.fragments().len()];
        let mut scans: Vec<Vec<FragmentRequest>> = Vec::with_capacity(queries.len());
        let mut dead = vec![false; queries.len()];
        for (qi, query) in queries.iter().enumerate() {
            let live = self.tracer.call(Layer::Requests, || {
                let mut requests = scheme.requests_for_query(query);
                if alive_only {
                    for r in &mut requests {
                        r.candidates.retain(|&n| sim.node_alive(n));
                        if r.candidates.is_empty() {
                            return None;
                        }
                    }
                }
                Some(requests)
            });
            match live {
                Some(requests) => {
                    self.counts.requests += requests.len() as u64;
                    for r in &requests {
                        sizes[r.fragment.index()] = r.size;
                        self.counts.candidates += r.candidates.len() as u64;
                    }
                    scans.push(requests);
                }
                None => {
                    dead[qi] = true;
                    scans.push(Vec::new());
                }
            }
        }
        let lens: Vec<usize> = scans.iter().map(Vec::len).collect();
        self.counts.routed_requests += lens.iter().sum::<usize>() as u64;
        let waits = self.tracer.call(Layer::SimDispatch, || sim.queue_waits());
        let mut queues = QueueView::from_waits(waits);
        let router = &self.router;
        let routed = self
            .tracer
            .call(Layer::Route, || router.route_batch(scans, &mut queues));
        let Ok(batch) = routed else {
            self.counts.route_errors += 1;
            return queries.iter().map(|_| Routed::Dead).collect();
        };
        batch
            .into_iter()
            .zip(lens)
            .zip(&dead)
            .map(|((assignments, expected), &is_dead)| {
                if is_dead || assignments.len() != expected {
                    return Routed::Dead;
                }
                Routed::Reads(
                    assignments
                        .iter()
                        .map(|a| (a.node, sizes[a.fragment.index()]))
                        .collect(),
                )
            })
            .collect()
    }

    fn note_scheme(&mut self, scheme: &DistScheme) {
        self.counts.schemes += 1;
        self.counts.fragments += scheme.fragments().len() as u64;
        self.counts.replicas += scheme.total_replicas() as u64;
        if !scheme.covers(&self.case.workload.db) {
            self.counts.uncovered_schemes += 1;
        }
    }

    fn run(mut self) -> Traced {
        let case = self.case;
        let workload = &case.workload;
        let cfg = &case.run;
        let root = self.tracer.enter(Layer::Run);
        let mut distributor = NashDbDistributor::new(&workload.db, case.nash);
        let faults_active = !case.faults.is_empty();

        let mut sim = self.tracer.call(Layer::SimSchedule, || {
            let mut sim = ClusterSim::new(cfg.cluster);
            for tq in &workload.queries {
                sim.schedule_query(tq.at, tq.query.clone());
            }
            sim.schedule_faults(&case.faults);
            if let Some(last) = workload.queries.last().map(|q| q.at) {
                let mut t = SimTime::ZERO + cfg.reconfig_interval;
                while t <= last {
                    sim.schedule_wakeup(t, 0);
                    t += cfg.reconfig_interval;
                }
            }
            sim
        });

        let provision = self.tracer.enter(Layer::Provision);
        for tq in workload.queries.iter().take(cfg.warmup_queries) {
            self.tracer
                .call(Layer::Observe, || distributor.observe(&tq.query));
        }
        let mut scheme = self.tracer.call(Layer::Scheme, || distributor.scheme());
        self.note_scheme(&scheme);
        let mut intervals = self
            .tracer
            .call(Layer::NodeIntervals, || scheme.node_intervals(&workload.db));
        let initial_plan = self
            .tracer
            .call(Layer::Plan, || plan_transition(&[], &intervals));
        self.counts.matrix_dims += intervals.len() as u64;
        self.counts.tuples_moved += initial_plan.total_transfer;
        let applied = self
            .tracer
            .call(Layer::SimReconfigure, || sim.reconfigure(&initial_plan));
        if applied.is_err() {
            self.counts.plans_rejected += 1;
        }
        self.tracer.exit(provision);

        let mut inflight: HashMap<QueryId, QueryRequest> = HashMap::new();
        loop {
            self.tracer.request += 1;
            let event = self.tracer.call(Layer::SimNextEvent, || sim.next_event());
            match event {
                DriverEvent::QueryArrived { id, query } => {
                    let arrival = self.tracer.enter(Layer::Arrival);
                    let mut batch = vec![(id, query)];
                    let more = self
                        .tracer
                        .call(Layer::SimNextEvent, || sim.take_coincident_arrivals());
                    batch.extend(more);
                    self.counts.arrival_events += 1;
                    self.counts.arrived_queries += batch.len() as u64;
                    for (_, q) in &batch {
                        self.tracer.call(Layer::Observe, || distributor.observe(q));
                    }
                    let queries: Vec<&QueryRequest> = batch.iter().map(|(_, q)| q).collect();
                    let outcomes = self.plan_reads_batch(&scheme, &queries, &sim, faults_active);
                    for ((qid, q), outcome) in batch.into_iter().zip(outcomes) {
                        match outcome {
                            Routed::Reads(reads) => {
                                if faults_active {
                                    inflight.insert(qid, q);
                                }
                                self.counts.reads_dispatched += reads.len() as u64;
                                let sent = self
                                    .tracer
                                    .call(Layer::SimDispatch, || sim.dispatch(qid, &reads));
                                if sent.is_err() {
                                    inflight.remove(&qid);
                                    sim.abandon_query(qid);
                                }
                            }
                            Routed::Dead => {
                                self.tracer
                                    .call(Layer::SimDispatch, || sim.abandon_query(qid));
                            }
                        }
                    }
                    self.tracer.exit(arrival);
                }
                DriverEvent::QueryFailed { id, attempts } => {
                    let retry = self.tracer.enter(Layer::Retry);
                    let outcome = if attempts >= MAX_ATTEMPTS {
                        Routed::Dead
                    } else {
                        match inflight.get(&id) {
                            Some(q) => self
                                .plan_reads_batch(&scheme, &[q], &sim, true)
                                .pop()
                                .unwrap_or(Routed::Dead),
                            None => Routed::Dead,
                        }
                    };
                    let dispatched = self.tracer.call(Layer::SimDispatch, || {
                        matches!(&outcome, Routed::Reads(reads) if sim.dispatch(id, reads).is_ok())
                    });
                    if dispatched {
                        self.counts.retries += 1;
                    } else {
                        sim.abandon_query(id);
                        inflight.remove(&id);
                    }
                    self.tracer.exit(retry);
                }
                DriverEvent::NodeFailed { .. } | DriverEvent::NodeRestored { .. } => {}
                DriverEvent::Wakeup { .. } => {
                    let reconfig = self.tracer.enter(Layer::Reconfig);
                    let new_scheme = self.tracer.call(Layer::Scheme, || distributor.scheme());
                    self.note_scheme(&new_scheme);
                    let new_intervals = self.tracer.call(Layer::NodeIntervals, || {
                        new_scheme.node_intervals(&workload.db)
                    });
                    let plan = self
                        .tracer
                        .call(Layer::Plan, || plan_transition(&intervals, &new_intervals));
                    self.counts.matrix_dims += intervals.len().max(new_intervals.len()) as u64;
                    let applied = self
                        .tracer
                        .call(Layer::SimReconfigure, || sim.reconfigure(&plan));
                    if applied.is_err() {
                        self.counts.plans_rejected += 1;
                    } else {
                        self.counts.tuples_moved += plan.total_transfer;
                        scheme = new_scheme;
                        intervals = new_intervals;
                    }
                    self.tracer.exit(reconfig);
                }
                DriverEvent::QueryCompleted { id, .. } => {
                    inflight.remove(&id);
                }
                DriverEvent::Finished => break,
            }
        }
        let metrics = sim.finish();
        self.tracer.exit(root);
        self.counts.events = u64::from(self.tracer.request);
        Traced {
            metrics,
            spans: self.tracer.spans,
            counts: self.counts,
        }
    }
}

/// Runs the traced mirror of the driver over `case`.
pub fn run_traced(case: &Case) -> Traced {
    Mirror {
        case,
        router: MaxOfMins::new(case.run.phi_tuples()),
        tracer: Tracer::new(),
        counts: Counts::default(),
    }
    .run()
}

/// Self time per layer: each span's duration minus the part its direct
/// children cover, summed by layer. The values add up to the root span's
/// duration exactly.
pub fn self_times(spans: &[Span]) -> HashMap<Layer, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(slot) = child_ns.get_mut(s.parent as usize) {
            *slot += s.end_ns - s.start_ns;
        }
    }
    let mut by_layer: HashMap<Layer, f64> = HashMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(children);
        *by_layer.entry(s.layer).or_default() += own as f64 * 1e-9;
    }
    by_layer
}

/// Ascending durations (seconds) of every span of `layer`.
fn durations(spans: &[Span], layer: Layer) -> Vec<f64> {
    let mut d: Vec<f64> = spans
        .iter()
        .filter(|s| s.layer == layer)
        .map(Span::secs)
        .collect();
    d.sort_by(f64::total_cmp);
    d
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Folds the traced run into the per-layer metrics it owns.
pub fn summarise(traced: &Traced, out: &mut MetricSet) {
    let spans = &traced.spans;
    let c = &traced.counts;
    let own = self_times(spans);
    let self_s = |layer: Layer| own.get(&layer).copied().unwrap_or(0.0);
    let wall = traced.wall_s();
    let glue = [
        Layer::Run,
        Layer::Provision,
        Layer::Arrival,
        Layer::Retry,
        Layer::Reconfig,
    ];
    let unattributed: f64 = glue.iter().map(|&l| self_s(l)).sum();
    let pct = |d: &[f64], p: f64, scale: f64| stats::percentile(d, p).unwrap_or(0.0) * scale;
    let calls = |layer: Layer| spans.iter().filter(|s| s.layer == layer).count() as f64;

    let arrivals = durations(spans, Layer::Arrival);
    let reconfigs = durations(spans, Layer::Reconfig);
    out.put("nashdb.driver.traced_wall_s", wall);
    out.put("nashdb.driver.unattributed_frac", ratio(unattributed, wall));
    out.put("nashdb.driver.arrival_p50_us", pct(&arrivals, 50.0, 1e6));
    out.put("nashdb.driver.arrival_p99_us", pct(&arrivals, 99.0, 1e6));
    out.put("nashdb.driver.reconfig_p50_ms", pct(&reconfigs, 50.0, 1e3));
    out.put("nashdb.driver.reconfig_max_ms", pct(&reconfigs, 100.0, 1e3));
    out.put(
        "nashdb.driver.batch_scans_mean",
        ratio(c.arrived_queries as f64, c.arrival_events as f64),
    );

    let schemes = durations(spans, Layer::Scheme);
    out.put("nashdb.distributor.observe_s", self_s(Layer::Observe));
    out.put("nashdb.distributor.observe_calls", calls(Layer::Observe));
    out.put("nashdb.distributor.scheme_s", self_s(Layer::Scheme));
    out.put("nashdb.distributor.scheme_calls", schemes.len() as f64);
    out.put("nashdb.distributor.scheme_p50_ms", pct(&schemes, 50.0, 1e3));
    out.put(
        "nashdb.distributor.scheme_max_ms",
        pct(&schemes, 100.0, 1e3),
    );

    out.put("nashdb.scheme.requests_s", self_s(Layer::Requests));
    out.put(
        "nashdb.scheme.requests_per_query",
        ratio(c.requests as f64, calls(Layer::Requests)),
    );
    out.put(
        "nashdb.scheme.candidates_per_request",
        ratio(c.candidates as f64, c.requests as f64),
    );
    out.put(
        "nashdb.scheme.node_intervals_s",
        self_s(Layer::NodeIntervals),
    );
    out.put(
        "nashdb.scheme.fragments_mean",
        ratio(c.fragments as f64, c.schemes as f64),
    );
    out.put(
        "nashdb.scheme.replicas_per_fragment",
        ratio(c.replicas as f64, c.fragments as f64),
    );

    let routes = durations(spans, Layer::Route);
    let route_s = self_s(Layer::Route);
    out.put("core.routing.route_s", route_s);
    out.put("core.routing.route_calls", routes.len() as f64);
    out.put(
        "core.routing.ns_per_request",
        ratio(route_s * 1e9, c.routed_requests as f64),
    );
    out.put("core.routing.call_p50_us", pct(&routes, 50.0, 1e6));
    out.put("core.routing.call_p99_us", pct(&routes, 99.0, 1e6));
    out.put("core.routing.mean_span", traced.metrics.mean_span());
    out.put("core.routing.errors", c.route_errors as f64);

    let plans = durations(spans, Layer::Plan);
    out.put("core.transition.plan_s", self_s(Layer::Plan));
    out.put("core.transition.plan_calls", plans.len() as f64);
    out.put("core.transition.plan_p50_ms", pct(&plans, 50.0, 1e3));
    out.put(
        "core.transition.matrix_dim_mean",
        ratio(c.matrix_dims as f64, plans.len() as f64),
    );
    out.put("core.transition.tuples_moved", c.tuples_moved as f64);

    let next_event_s = self_s(Layer::SimNextEvent);
    let events = c.events as f64;
    out.put("cluster.sim.next_event_s", next_event_s);
    out.put("cluster.sim.events", events);
    out.put(
        "cluster.sim.ns_per_event",
        ratio(next_event_s * 1e9, events),
    );
    out.put("cluster.sim.dispatch_s", self_s(Layer::SimDispatch));
    out.put("cluster.sim.reads_dispatched", c.reads_dispatched as f64);
    out.put("cluster.sim.reconfigure_s", self_s(Layer::SimReconfigure));
    out.put("cluster.sim.schedule_s", self_s(Layer::SimSchedule));
    out.put("cluster.sim.retries", c.retries as f64);
    out.put("cluster.sim.plans_rejected", c.plans_rejected as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            parent,
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_and_sums_to_the_root() {
        let spans = [
            span(Layer::Run, u32::MAX, 0, 1_000),
            span(Layer::Arrival, 0, 100, 700),
            span(Layer::Route, 1, 200, 500),
            span(Layer::SimDispatch, 1, 500, 600),
            span(Layer::SimNextEvent, 0, 700, 900),
        ];
        let own = self_times(&spans);
        let ns = |l| (own[&l] * 1e9).round() as u64;
        assert_eq!(ns(Layer::Run), 200);
        assert_eq!(ns(Layer::Arrival), 200);
        assert_eq!(ns(Layer::Route), 300);
        assert_eq!(ns(Layer::SimDispatch), 100);
        assert_eq!(ns(Layer::SimNextEvent), 200);
        let total: f64 = own.values().sum();
        assert!((total - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_spans_under_the_open_one() {
        let mut t = Tracer::new();
        let root = t.enter(Layer::Run);
        t.request = 7;
        let got = t.call(Layer::Route, || 41 + 1);
        t.exit(root);
        assert_eq!(got, 42);
        assert_eq!(t.spans[1].parent, root);
        assert_eq!(t.spans[1].request, 7);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        assert!(t.stack.is_empty());
    }

    #[test]
    fn spans_are_written_one_json_object_per_line() {
        let case = crate::workloads::build("drift-reconfig", 1, true).unwrap();
        let traced = run_traced(&case);
        let mut buf = Vec::new();
        traced.write_spans(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), traced.spans.len());
        let first = nashdb_obs::parse_json(text.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("layer").and_then(|v| v.as_str()), Some("Run"));
        assert_eq!(first.get("parent"), Some(&nashdb_obs::JsonValue::Null));
        let last = nashdb_obs::parse_json(text.lines().last().unwrap()).unwrap();
        assert_eq!(
            last.get("event").and_then(|v| v.as_u64()),
            Some(traced.counts.events)
        );
    }
}
