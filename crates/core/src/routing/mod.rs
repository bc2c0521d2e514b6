//! Routing data access requests (paper §8).
//!
//! When a query's range scan is decomposed into fragment read requests, the
//! scan router picks which replica serves each request. Two pure strategies
//! exist in prior work: minimize *query span* (use as few nodes as
//! possible) or minimize *wait time* (always read from the shortest queue).
//! NashDB's **Max-of-mins** balances them: a node not yet serving this query
//! is charged a span penalty `ϕ`, and requests are scheduled
//! bottleneck-first — the request whose best achievable wait is *largest*
//! is placed first, on the node where its wait is smallest (Eq. 11).
//!
//! Waits are expressed in tuples of queued work (disk reads dominate OLAP
//! scan latency and read time is proportional to tuples, §8); the cluster
//! layer converts its time-based queue lengths and the paper's ϕ = 350 ms
//! into tuple units via node throughput.
//!
//! [`MaxOfMins`] runs Eq. 11 *incrementally*, with one heap entry per node:
//! the group of pending requests whose current minimum that node is. A
//! placement moves only the requests it could have changed — the placed
//! node's listers when its wait fell, its members with a choice when it
//! rose — and re-keys only the groups it touched, so a request a node alone
//! can serve is never re-evaluated. The textbook O(R²·C) double loop is
//! retained verbatim in [`mod@reference`] as the executable specification
//! the incremental router is property-tested against.
//!
//! A router implements one method, [`ScanRouter::route_into`]: one scan,
//! routed into the caller's output buffer with the caller's [`Scratch`] as
//! working memory. Everything else is provided over it. Scans also route in
//! **batches** ([`ScanRouter::route_scans`], and [`ScanRouter::route_batch`]
//! for callers that own their scans): one call routes many scans in order
//! against one evolving queue view, validating every scan before placing
//! anything. A caller that keeps its `Scratch`, its output buffers and its
//! [`QueueView`] between calls routes without allocating.

mod max_of_mins;
pub mod reference;

pub use max_of_mins::{MaxOfMins, Scratch};

use std::collections::BTreeSet;

use nashdb_obs::Metric;

use crate::ids::{FragmentId, NodeId};

/// One fragment read request of a single range scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragmentRequest {
    /// The fragment to read.
    pub fragment: FragmentId,
    /// Tuples to read (the fragment size).
    pub size: u64,
    /// Nodes hosting a replica of the fragment. Must be nonempty, and every
    /// id must index inside the [`QueueView`] the scan is routed against.
    pub candidates: Vec<NodeId>,
}

/// A routing decision: which node serves which fragment request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// The fragment read.
    pub fragment: FragmentId,
    /// The chosen replica's node.
    pub node: NodeId,
}

/// Why a scan could not be routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// A request's candidate list is empty: the fragment is hosted nowhere
    /// the router can see, so no assignment exists.
    NoReplicas {
        /// The unroutable fragment.
        fragment: FragmentId,
    },
    /// A request lists a candidate node the queue view does not cover, so
    /// its wait cannot be read.
    UnknownNode {
        /// The request naming the node.
        fragment: FragmentId,
        /// The out-of-range candidate.
        node: NodeId,
    },
    /// The router failed to derive a candidate minimum even though
    /// validation passed — an internal invariant breach (a router bug),
    /// surfaced as a typed error instead of a sentinel assignment or a
    /// library panic.
    InvariantBreach {
        /// The fragment whose minimum could not be derived.
        fragment: FragmentId,
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::NoReplicas { fragment } => {
                write!(f, "fragment {fragment} has no replicas to read")
            }
            RouteError::UnknownNode { fragment, node } => {
                write!(
                    f,
                    "fragment {fragment} lists candidate node {node}, which the queue view does not cover"
                )
            }
            RouteError::InvariantBreach { fragment } => {
                write!(
                    f,
                    "internal routing invariant breached deriving a minimum for fragment {fragment}"
                )
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// Checks every request has at least one candidate replica and names only
/// nodes `queues` covers — the structural preconditions all routers share,
/// validated once per scan instead of once per inner-loop iteration.
pub fn validate_requests(
    requests: &[FragmentRequest],
    queues: &QueueView,
) -> Result<(), RouteError> {
    for r in requests {
        if r.candidates.is_empty() {
            return Err(RouteError::NoReplicas {
                fragment: r.fragment,
            });
        }
        if let Some(&node) = r.candidates.iter().find(|n| n.index() >= queues.len()) {
            return Err(RouteError::UnknownNode {
                fragment: r.fragment,
                node,
            });
        }
    }
    Ok(())
}

/// A mutable view of per-node queued work, in tuples.
///
/// Routers read waits and push their own assignments so that consecutive
/// requests of the same scan see each other's load.
#[derive(Debug, Clone, Default)]
pub struct QueueView {
    waits: Vec<u64>,
}

impl QueueView {
    /// All queues empty across `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        QueueView {
            waits: vec![0; nodes],
        }
    }

    /// Adopts externally observed waits (tuples of queued work per node).
    pub fn from_waits(waits: Vec<u64>) -> Self {
        QueueView { waits }
    }

    /// Replaces every wait with a fresh observation, keeping the view's
    /// allocation: what [`from_waits`](Self::from_waits) does for a caller
    /// that routes again and again.
    pub fn refill(&mut self, waits: impl IntoIterator<Item = u64>) {
        self.waits.clear();
        self.waits.extend(waits);
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.waits.len()
    }

    /// True iff there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.waits.is_empty()
    }

    /// Queued tuples on `node`.
    pub fn wait(&self, node: NodeId) -> u64 {
        self.waits[node.index()]
    }

    /// Adds `size` tuples of work to `node`'s queue, saturating at
    /// `u64::MAX` — every read path treats waits as saturating, so the
    /// write path must too or an adversarial wait/size pair overflows.
    pub fn enqueue(&mut self, node: NodeId, size: u64) {
        let slot = &mut self.waits[node.index()];
        *slot = slot.saturating_add(size);
    }
}

/// A scan-routing strategy.
pub trait ScanRouter {
    /// Routes every request of one scan, appending one [`Assignment`] per
    /// request to `out` and updating `queues` with the work it places — the
    /// one method a router implements. Implementations must assign each
    /// request to one of its candidates, and reject a request with no
    /// candidates ([`RouteError::NoReplicas`]) or a candidate outside
    /// `queues` ([`RouteError::UnknownNode`]) before placing anything.
    ///
    /// `scratch` is working memory the caller keeps between calls so that a
    /// router needing per-scan tables does not allocate them per scan. Any
    /// `Scratch` works with any queue view and after any earlier call,
    /// failed ones included; a router without such tables ignores it.
    fn route_into(
        &self,
        requests: &[FragmentRequest],
        queues: &mut QueueView,
        scratch: &mut Scratch,
        out: &mut Vec<Assignment>,
    ) -> Result<(), RouteError>;

    /// [`route_into`](Self::route_into) for a caller with nothing to reuse:
    /// routes one scan and returns its assignments.
    fn route(
        &self,
        requests: &[FragmentRequest],
        queues: &mut QueueView,
    ) -> Result<Vec<Assignment>, RouteError> {
        let mut out = Vec::with_capacity(requests.len());
        self.route_into(requests, queues, &mut Scratch::default(), &mut out)?;
        Ok(out)
    }

    /// Routes a batch of scans against one evolving queue view: scan `i+1`
    /// sees the queues exactly as scan `i` left them, as if [`Self::route`]
    /// had been called once per scan in order — that sequential semantics
    /// *is* the batch contract. Every scan is validated before anything is
    /// placed, so a doomed batch leaves `queues` untouched.
    fn route_batch(
        &self,
        scans: Vec<Vec<FragmentRequest>>,
        queues: &mut QueueView,
    ) -> Result<Vec<Vec<Assignment>>, RouteError> {
        for scan in &scans {
            validate_requests(scan, queues)?;
        }
        let mut scratch = Scratch::default();
        let routed = scans.iter().map(|scan| {
            let mut out = Vec::with_capacity(scan.len());
            self.route_into(scan, queues, &mut scratch, &mut out)?;
            Ok(out)
        });
        let out = routed.collect::<Result<Vec<_>, _>>()?;
        record_batch_metrics(out.len());
        Ok(out)
    }

    /// [`route_batch`](Self::route_batch) over buffers the caller keeps:
    /// the scans lie back to back in `requests`, scan `i` ending at
    /// `scan_ends[i]` (see [`run_of`]), and their assignments are written
    /// back to back into `out` the same way, scan `i`'s ending at
    /// `out_ends[i]`. Both output buffers are cleared first. Same contract
    /// as `route_batch` — sequential semantics, every scan validated before
    /// anything is placed — and, with buffers that have grown to the
    /// batch's size, no allocation here.
    fn route_scans(
        &self,
        requests: &[FragmentRequest],
        scan_ends: &[usize],
        queues: &mut QueueView,
        scratch: &mut Scratch,
        out: &mut Vec<Assignment>,
        out_ends: &mut Vec<usize>,
    ) -> Result<(), RouteError> {
        out.clear();
        out_ends.clear();
        // A lone scan needs no pass of its own: `route_into` rejects it
        // before placing anything, and nothing was placed before it.
        let scans = (0..scan_ends.len()).map(|i| run_of(requests, scan_ends, i));
        if scan_ends.len() > 1 {
            for scan in scans.clone() {
                validate_requests(scan, queues)?;
            }
        }
        for scan in scans {
            self.route_into(scan, queues, scratch, out)?;
            out_ends.push(out.len());
        }
        record_batch_metrics(scan_ends.len());
        Ok(())
    }

    /// Human-readable name for experiment output.
    fn name(&self) -> &'static str;
}

/// Run `i` of `items` laid out back to back, run `i` ending at `ends[i]` —
/// how [`ScanRouter::route_scans`] takes a batch's requests and returns its
/// assignments. Empty if `ends` does not describe such a run (`i` past the
/// last, ends that run backwards or past `items`), so no layout indexes out
/// of bounds.
pub fn run_of<'a, T>(items: &'a [T], ends: &[usize], i: usize) -> &'a [T] {
    let start = match i.checked_sub(1) {
        None => Some(0),
        Some(prev) => ends.get(prev).copied(),
    };
    let run = start.zip(ends.get(i)).and_then(|(s, &e)| items.get(s..e));
    run.unwrap_or(&[])
}

/// Number of distinct nodes used — the query's *span*.
pub fn span(assignments: &[Assignment]) -> usize {
    assignments
        .iter()
        .map(|a| a.node)
        .collect::<BTreeSet<_>>()
        .len()
}

/// Shared per-scan instrumentation for every router implementation.
fn record_scan_metrics(assignments: &[Assignment]) {
    nashdb_obs::counter_add(Metric::RoutingScansRouted, 1);
    nashdb_obs::counter_add(Metric::RoutingRequests, assignments.len() as u64);
    // The span is a set pass; skip computing it with no session live.
    if nashdb_obs::is_active() {
        nashdb_obs::record(Metric::RoutingQuerySpan, span(assignments) as u64);
    }
}

/// Shared per-batch instrumentation for every router implementation.
fn record_batch_metrics(scans: usize) {
    nashdb_obs::counter_add(Metric::RoutingBatchesRouted, 1);
    nashdb_obs::record(Metric::RoutingBatchScans, scans as u64);
}

/// The "Power of 2" variant the paper sketches in footnote 3 for workloads
/// of *small* scans: instead of examining every replica of every request,
/// consider only two randomly chosen candidates per request and take the
/// better under the Eq. 11 objective. O(R) per scan instead of O(R²·C),
/// trading a little routing quality for constant-time decisions.
///
/// Randomness is a deterministic splitmix64 stream seeded at construction,
/// so simulations stay reproducible.
#[derive(Debug)]
pub struct PowerOfTwoChoices {
    /// Span penalty ϕ in tuple units (as in [`MaxOfMins`]).
    pub phi: u64,
    state: std::cell::Cell<u64>,
}

impl PowerOfTwoChoices {
    /// Creates the router with span penalty `phi` and an RNG seed.
    pub fn new(phi: u64, seed: u64) -> Self {
        PowerOfTwoChoices {
            phi,
            state: std::cell::Cell::new(seed ^ 0x9E37_79B9_7F4A_7C15),
        }
    }

    fn next(&self) -> u64 {
        let s = self.state.get().wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.state.set(s);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl ScanRouter for PowerOfTwoChoices {
    fn route_into(
        &self,
        requests: &[FragmentRequest],
        queues: &mut QueueView,
        _scratch: &mut Scratch,
        out: &mut Vec<Assignment>,
    ) -> Result<(), RouteError> {
        validate_requests(requests, queues)?;
        let first = out.len();
        let mut chosen: BTreeSet<NodeId> = BTreeSet::new();
        for req in requests {
            let pair: [NodeId; 2] = if req.candidates.len() <= 2 {
                [req.candidates[0], req.candidates[req.candidates.len() - 1]]
            } else {
                let a = crate::num::usize_from(self.next()) % req.candidates.len();
                let mut b = crate::num::usize_from(self.next()) % (req.candidates.len() - 1);
                if b >= a {
                    b += 1;
                }
                [req.candidates[a], req.candidates[b]]
            };
            let key = |n: NodeId| {
                let penalty = if chosen.contains(&n) { 0 } else { self.phi };
                (queues.wait(n).saturating_add(penalty), n)
            };
            // A two-element pair always has a minimum, so take it
            // without an Option round-trip (ties keep the first, as
            // `min_by_key` would).
            let node = if key(pair[1]) < key(pair[0]) {
                pair[1]
            } else {
                pair[0]
            };
            nashdb_obs::record(Metric::RoutingQueueWaitTuples, queues.wait(node));
            queues.enqueue(node, req.size);
            chosen.insert(node);
            out.push(Assignment {
                fragment: req.fragment,
                node,
            });
        }
        record_scan_metrics(&out[first..]);
        Ok(())
    }

    fn name(&self) -> &'static str {
        "power-of-two"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(frag: u64, size: u64, candidates: &[u64]) -> FragmentRequest {
        FragmentRequest {
            fragment: FragmentId(frag),
            size,
            candidates: candidates.iter().map(|&n| NodeId(n)).collect(),
        }
    }

    /// A deterministic stream of 31-bit draws for the seeded tests.
    fn lcg(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        }
    }

    fn node_of(assignments: &[Assignment], frag: u64) -> NodeId {
        assignments
            .iter()
            .find(|a| a.fragment == FragmentId(frag))
            .expect("assigned")
            .node
    }

    #[test]
    fn single_candidate_is_forced() {
        let router = MaxOfMins::new(100);
        let mut q = QueueView::new(2);
        let out = router.route(&[req(0, 50, &[1])], &mut q).unwrap();
        assert_eq!(
            out,
            vec![Assignment {
                fragment: FragmentId(0),
                node: NodeId(1)
            }]
        );
        assert_eq!(q.wait(NodeId(1)), 50);
        assert_eq!(q.wait(NodeId(0)), 0);
    }

    #[test]
    fn span_penalty_consolidates_small_reads() {
        // Two small fragments, both replicated on both idle nodes. With a
        // large ϕ the second read should join the first node rather than
        // fan out.
        let router = MaxOfMins::new(1_000);
        let mut q = QueueView::new(2);
        let out = router
            .route(&[req(0, 10, &[0, 1]), req(1, 10, &[0, 1])], &mut q)
            .unwrap();
        assert_eq!(span(&out), 1);
    }

    #[test]
    fn zero_penalty_spreads_load() {
        let router = MaxOfMins::new(0);
        let mut q = QueueView::new(2);
        let out = router
            .route(&[req(0, 10, &[0, 1]), req(1, 10, &[0, 1])], &mut q)
            .unwrap();
        assert_eq!(span(&out), 2);
    }

    #[test]
    fn widens_span_when_beneficial() {
        // A huge read occupies node 0; a second huge read should pay ϕ and
        // go to node 1 rather than queue behind it.
        let router = MaxOfMins::new(50);
        let mut q = QueueView::new(2);
        let out = router
            .route(&[req(0, 1_000, &[0, 1]), req(1, 1_000, &[0, 1])], &mut q)
            .unwrap();
        assert_eq!(span(&out), 2);
        assert_ne!(node_of(&out, 0), node_of(&out, 1));
    }

    #[test]
    fn bottleneck_scheduled_first_onto_short_queue() {
        // Fragment 0 can only be read from the busy node 0; fragment 1 can
        // be read anywhere. The bottleneck (fragment 0) must be placed
        // first, and fragment 1 should then avoid stacking behind it.
        let router = MaxOfMins::new(0);
        let mut q = QueueView::from_waits(vec![500, 0]);
        let out = router
            .route(&[req(1, 10, &[0, 1]), req(0, 10, &[0])], &mut q)
            .unwrap();
        assert_eq!(node_of(&out, 0), NodeId(0));
        assert_eq!(node_of(&out, 1), NodeId(1));
        // Bottleneck-first: fragment 0 appears before fragment 1.
        assert_eq!(out[0].fragment, FragmentId(0));
    }

    #[test]
    fn accounts_for_own_placements() {
        // Three equal reads over two idle nodes with no penalty: the third
        // read must see the first two queued and pick the emptier node.
        let router = MaxOfMins::new(0);
        let mut q = QueueView::new(2);
        let out = router
            .route(
                &[
                    req(0, 100, &[0, 1]),
                    req(1, 100, &[0, 1]),
                    req(2, 100, &[0, 1]),
                ],
                &mut q,
            )
            .unwrap();
        let w0 = q.wait(NodeId(0));
        let w1 = q.wait(NodeId(1));
        assert_eq!(w0 + w1, 300);
        assert!(w0.abs_diff(w1) == 100, "unbalanced: {w0} vs {w1}");
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn empty_candidates_is_a_typed_error() {
        let bad = FragmentRequest {
            fragment: FragmentId(7),
            size: 1,
            candidates: vec![],
        };
        let mut q = QueueView::new(1);
        let err = MaxOfMins::new(0)
            .route(std::slice::from_ref(&bad), &mut q)
            .unwrap_err();
        assert_eq!(
            err,
            RouteError::NoReplicas {
                fragment: FragmentId(7)
            }
        );
        assert!(err.to_string().contains("no replicas"));
        // Validation is up-front: nothing was enqueued.
        assert_eq!(q.wait(NodeId(0)), 0);
        // Same contract for the stochastic router and the reference.
        let err2 = PowerOfTwoChoices::new(0, 1)
            .route(std::slice::from_ref(&bad), &mut q)
            .unwrap_err();
        assert_eq!(err, err2);
        let err3 = reference::max_of_mins(0, std::slice::from_ref(&bad), &mut q).unwrap_err();
        assert_eq!(err, err3);
    }

    #[test]
    fn error_is_detected_before_any_placement() {
        // A routable request ahead of an unroutable one: validate-once
        // means the queue stays untouched rather than half-routed.
        let router = MaxOfMins::new(0);
        let mut q = QueueView::new(2);
        let reqs = [
            req(0, 100, &[0, 1]),
            FragmentRequest {
                fragment: FragmentId(1),
                size: 5,
                candidates: vec![],
            },
        ];
        assert!(router.route(&reqs, &mut q).is_err());
        assert_eq!(q.wait(NodeId(0)) + q.wait(NodeId(1)), 0);
        // Same for a candidate the queue view does not cover.
        let err = router
            .route(&[req(0, 100, &[0, 1]), req(1, 5, &[1, 2])], &mut q)
            .unwrap_err();
        assert_eq!(
            err,
            RouteError::UnknownNode {
                fragment: FragmentId(1),
                node: NodeId(2)
            }
        );
        assert!(err.to_string().contains("does not cover"));
        assert_eq!(q.wait(NodeId(0)) + q.wait(NodeId(1)), 0);
    }

    #[test]
    fn enqueue_saturates_at_u64_max() {
        // Regression: enqueue used unchecked `+=` while every read path
        // saturated; a near-MAX wait plus a large read panicked in debug
        // builds instead of pinning at MAX.
        let mut q = QueueView::from_waits(vec![u64::MAX - 10]);
        q.enqueue(NodeId(0), u64::MAX);
        assert_eq!(q.wait(NodeId(0)), u64::MAX);
        q.enqueue(NodeId(0), 1);
        assert_eq!(q.wait(NodeId(0)), u64::MAX);
        // And the router survives routing onto a saturated queue.
        let out = MaxOfMins::new(u64::MAX)
            .route(&[req(0, u64::MAX, &[0]), req(1, u64::MAX, &[0])], &mut q)
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(q.wait(NodeId(0)), u64::MAX);
    }

    #[test]
    fn deterministic_under_ties() {
        let router = MaxOfMins::new(10);
        for _ in 0..4 {
            let mut q1 = QueueView::new(3);
            let mut q2 = QueueView::new(3);
            let reqs = vec![
                req(0, 10, &[0, 1, 2]),
                req(1, 10, &[0, 1, 2]),
                req(2, 10, &[0, 1, 2]),
            ];
            assert_eq!(
                router.route(&reqs, &mut q1).unwrap(),
                router.route(&reqs, &mut q2).unwrap()
            );
        }
    }

    #[test]
    fn matches_reference_on_dense_scans() {
        // A deterministic non-random sweep; the property tests cover random
        // instances, this pins a few structured ones (all-shared, disjoint,
        // chained candidate sets, preloaded queues).
        let cases: Vec<(Vec<FragmentRequest>, Vec<u64>)> = vec![
            (
                (0..12).map(|i| req(i, 10 + i, &[0, 1, 2, 3])).collect(),
                vec![0; 4],
            ),
            (
                (0..8).map(|i| req(i, 100, &[i % 4])).collect(),
                vec![50, 0, 900, 3],
            ),
            (
                (0..10)
                    .map(|i| req(i, 7 * i + 1, &[i % 5, (i + 1) % 5]))
                    .collect(),
                vec![10, 20, 30, 40, 0],
            ),
        ];
        for phi in [0, 35, 100_000] {
            for (reqs, waits) in &cases {
                let mut q1 = QueueView::from_waits(waits.clone());
                let mut q2 = QueueView::from_waits(waits.clone());
                let fast = MaxOfMins::new(phi).route(reqs, &mut q1).unwrap();
                let naive = reference::max_of_mins(phi, reqs, &mut q2).unwrap();
                assert_eq!(fast, naive, "phi {phi}");
                for n in 0..waits.len() {
                    assert_eq!(q1.wait(NodeId(n as u64)), q2.wait(NodeId(n as u64)));
                }
            }
        }
    }

    #[test]
    fn power_of_two_routes_every_request_to_a_candidate() {
        let router = PowerOfTwoChoices::new(100, 7);
        let mut q = QueueView::new(8);
        let reqs: Vec<FragmentRequest> = (0..32)
            .map(|i| req(i, 50, &[i % 8, (i + 3) % 8, (i + 5) % 8]))
            .collect();
        let out = router.route(&reqs, &mut q).unwrap();
        assert_eq!(out.len(), 32);
        for (a, r) in out.iter().zip(&reqs) {
            assert!(r.candidates.contains(&a.node));
        }
        // All placed work is accounted.
        let total: u64 = (0..8).map(|n| q.wait(NodeId(n))).sum();
        assert_eq!(total, 32 * 50);
    }

    #[test]
    fn power_of_two_is_deterministic_per_seed() {
        let reqs: Vec<FragmentRequest> = (0..16).map(|i| req(i, 10, &[0, 1, 2, 3, 4])).collect();
        let route_with = |seed: u64| {
            let router = PowerOfTwoChoices::new(0, seed);
            let mut q = QueueView::new(5);
            router.route(&reqs, &mut q).unwrap()
        };
        assert_eq!(route_with(1), route_with(1));
        assert_ne!(route_with(1), route_with(2));
    }

    #[test]
    fn power_of_two_prefers_the_shorter_of_its_pair() {
        let router = PowerOfTwoChoices::new(0, 3);
        let mut q = QueueView::from_waits(vec![1_000_000, 0]);
        // Only two candidates: the pair is forced, so it must pick node 1.
        let out = router.route(&[req(0, 10, &[0, 1])], &mut q).unwrap();
        assert_eq!(out[0].node, NodeId(1));
    }

    /// Zoned batch: scan `i` belongs to zone `i % zones` and only lists
    /// candidates inside its zone's node range, so the batch is `zones`
    /// node-disjoint groups with interleaved scan order.
    fn zoned_batch(
        zones: usize,
        scans_per_zone: usize,
        nodes_per_zone: usize,
    ) -> Vec<Vec<FragmentRequest>> {
        let mut scans = Vec::new();
        for i in 0..zones * scans_per_zone {
            let zone = i % zones;
            let base = (zone * nodes_per_zone) as u64;
            let reqs: Vec<FragmentRequest> = (0..3)
                .map(|k| {
                    let f = (i * 3 + k) as u64;
                    let cands: Vec<u64> = (0..nodes_per_zone as u64)
                        .map(|n| base + (n + f) % nodes_per_zone as u64)
                        .take(3)
                        .collect();
                    req(f, 10 + (f * 7) % 90, &cands)
                })
                .collect();
            scans.push(reqs);
        }
        scans
    }

    #[test]
    fn batch_matches_sequential_and_reference() {
        // All scans share four nodes: cross-scan queue threading.
        let shared: Vec<Vec<FragmentRequest>> = (0..10)
            .map(|i| {
                (0..4)
                    .map(|k| req(i * 4 + k, 10 + i, &[0, 1, 2, (i + k) % 4]))
                    .collect()
            })
            .collect();
        // 120 scans over three node-disjoint zones, two empty scans mixed in.
        let mut zoned = zoned_batch(3, 40, 4);
        zoned.insert(0, Vec::new());
        zoned.insert(37, Vec::new());
        // Wide candidate lists (10 of 12 nodes), every request sharing hot
        // node 0 so its ϕ flip undercuts many announcements at once, and a
        // deterministic LCG mix of sizes and preloaded waits.
        let mut next = lcg(0x2545_F491_4F6C_DD1D);
        let wide: Vec<Vec<FragmentRequest>> = (0..24)
            .map(|i| {
                (0..6)
                    .map(|k| {
                        let mut cands = vec![0u64];
                        for c in 0..9u64 {
                            cands.push(1 + (c + i + k) % 11);
                        }
                        req(i * 6 + k, 1 + next() % 1000, &cands)
                    })
                    .collect()
            })
            .collect();
        let wide_waits: Vec<u64> = (0..12).map(|_| next() % 500).collect();

        let cases = [
            ("shared", shared, vec![5, 0, 40, 7]),
            ("zoned", zoned, vec![0; 12]),
            ("wide", wide, wide_waits),
        ];
        for phi in [0, 7, 35, 100_000] {
            let router = MaxOfMins::new(phi);
            for (name, scans, waits) in &cases {
                let mut q_batch = QueueView::from_waits(waits.clone());
                let mut q_seq = q_batch.clone();
                let mut q_ref = q_batch.clone();
                let batch = router.route_batch(scans.clone(), &mut q_batch).unwrap();
                let seq: Vec<Vec<Assignment>> = scans
                    .iter()
                    .map(|s| router.route(s, &mut q_seq).unwrap())
                    .collect();
                let reference = reference::max_of_mins_batch(phi, scans, &mut q_ref).unwrap();
                assert_eq!(batch, seq, "{name}, phi {phi}");
                assert_eq!(batch, reference, "{name}, phi {phi}");
                for (scan, assignments) in scans.iter().zip(&batch) {
                    assert_eq!(scan.len(), assignments.len(), "{name}, phi {phi}");
                }
                for n in 0..waits.len() as u64 {
                    assert_eq!(q_batch.wait(NodeId(n)), q_seq.wait(NodeId(n)), "{name}");
                    assert_eq!(q_batch.wait(NodeId(n)), q_ref.wait(NodeId(n)), "{name}");
                }
            }
        }
    }

    #[test]
    fn one_scratch_serves_views_of_any_length_and_survives_errors() {
        // One `Scratch` and one output buffer through scans over node
        // universes that grow (4 → 12 nodes), shrink below nodes the
        // previous scan touched (→ 3), hit a rejected scan, and grow again:
        // each must route exactly as with fresh state and as the reference.
        let wide: Vec<FragmentRequest> = (0..9)
            .map(|i| req(i, 20 + 3 * i, &[i % 12, (i + 5) % 12, 11]))
            .collect();
        let narrow: Vec<FragmentRequest> = (0..5)
            .map(|i| req(i, 10 + i, &[i % 3, (i + 1) % 3]))
            .collect();
        let steps: Vec<(Vec<FragmentRequest>, Vec<u64>)> = vec![
            (
                (0..6).map(|i| req(i, 50, &[i % 4, 3])).collect(),
                vec![9, 0, 4, 0],
            ),
            (wide.clone(), (0..12).map(|n| n * 7 % 5).collect()),
            (narrow.clone(), vec![0, 30, 2]),
            (vec![req(0, 5, &[1]), req(1, 5, &[0, 3])], vec![0, 0, 0]), // node 3 unknown
            (Vec::new(), vec![1, 1]),
            (wide, vec![0; 12]),
            (narrow, vec![5, 5, 5, 5, 5]),
        ];
        for phi in [0, 25, 10_000] {
            let router = MaxOfMins::new(phi);
            let mut scratch = Scratch::default();
            let mut out = Vec::new();
            for (requests, waits) in &steps {
                let mut q_reused = QueueView::from_waits(waits.clone());
                let mut q_fresh = q_reused.clone();
                let mut q_ref = q_reused.clone();
                let first = out.len();
                let reused = router.route_into(requests, &mut q_reused, &mut scratch, &mut out);
                let fresh = router.route(requests, &mut q_fresh);
                let naive = reference::max_of_mins(phi, requests, &mut q_ref);
                assert_eq!(fresh, naive, "phi {phi}");
                match fresh {
                    Ok(fresh) => {
                        assert_eq!(reused, Ok(()));
                        assert_eq!(&out[first..], &fresh[..], "phi {phi}");
                    }
                    Err(e) => {
                        assert_eq!(reused, Err(e));
                        assert_eq!(out.len(), first, "nothing placed before the rejection");
                    }
                }
                for n in 0..waits.len() as u64 {
                    assert_eq!(q_reused.wait(NodeId(n)), q_fresh.wait(NodeId(n)));
                    assert_eq!(q_reused.wait(NodeId(n)), q_ref.wait(NodeId(n)));
                }
            }
        }
    }

    /// Routes `reqs` over `waits` through the caller's `scratch` and demands
    /// the reference's assignments, in its order, and its final waits.
    fn assert_routes_like_reference(
        phi: u64,
        reqs: &[FragmentRequest],
        waits: &[u64],
        scratch: &mut Scratch,
        out: &mut Vec<Assignment>,
    ) {
        let mut q_fast = QueueView::from_waits(waits.to_vec());
        let mut q_ref = q_fast.clone();
        let first = out.len();
        let fast = MaxOfMins::new(phi).route_into(reqs, &mut q_fast, scratch, out);
        let naive = reference::max_of_mins(phi, reqs, &mut q_ref);
        let ctx = format!("phi {phi}, waits {waits:?}, requests {reqs:?}");
        assert_eq!(fast.map(|()| out[first..].to_vec()), naive, "{ctx}");
        for n in 0..waits.len() as u64 {
            assert_eq!(q_fast.wait(NodeId(n)), q_ref.wait(NodeId(n)), "{ctx}");
        }
    }

    /// One seeded stress case of `lo..=hi` requests through the caller's
    /// `scratch`, returning the requests it routed. The candidate cap is
    /// drawn from 1..=6, so a sixth of the cases are all-forced; sizes and
    /// waits are drawn modulo small numbers for ties and zero-size reads, ϕ
    /// from nothing to saturating.
    fn stress_case(
        next: &mut impl FnMut() -> u64,
        (lo, hi): (u64, u64),
        scratch: &mut Scratch,
        out: &mut Vec<Assignment>,
    ) -> Vec<FragmentRequest> {
        let nodes = 1 + next() % 12;
        let cap = (1 + next() % 6).min(nodes);
        let size_mod = [1, 2, 5, 1000][(next() % 4) as usize];
        let wait_mod = [1, 3, 50, 5000][(next() % 4) as usize];
        let phi = [0, 1, 5, 50, 500, 100_000, u64::MAX][(next() % 7) as usize];
        // Distinct fragment ids whose order is not the request order.
        let mask = next() % 64;
        let reqs: Vec<FragmentRequest> = (0..lo + next() % (hi - lo + 1))
            .map(|i| {
                let mut cands: Vec<u64> = Vec::new();
                let want = 1 + next() % cap;
                while (cands.len() as u64) < want {
                    let n = next() % nodes;
                    if !cands.contains(&n) {
                        cands.push(n);
                    }
                }
                req(i ^ mask, next() % size_mod, &cands)
            })
            .collect();
        let waits: Vec<u64> = (0..nodes).map(|_| next() % wait_mod).collect();
        out.clear();
        assert_routes_like_reference(phi, &reqs, &waits, scratch, out);
        reqs
    }

    #[test]
    fn forced_chains_match_reference() {
        // Seeded stress through one `Scratch` and one output buffer: many
        // scans of 1–40 requests (one bitset word), then scans of 1–200
        // whose lengths cycle so that consecutive scans cross 64 and 128
        // requests in both directions, one word boundary or two at a time,
        // on views that grow and shrink (1–12 nodes).
        let mut next = lcg(0x9E37_79B9_7F4A_7C15);
        let (mut scratch, mut out) = (Scratch::default(), Vec::new());
        for _ in 0..if cfg!(miri) { 200 } else { 20_000 } {
            stress_case(&mut next, (1, 40), &mut scratch, &mut out);
        }
        let (one, two, three) = ((1, 64), (65, 128), (129, 200));
        let cycle = [one, three, one, two, three, two];
        let cycles = if cfg!(miri) { 1 } else { 40 };
        for &words in cycle.iter().cycle().take(cycle.len() * cycles) {
            stress_case(&mut next, words, &mut scratch, &mut out);
        }
    }

    #[test]
    fn structured_chains_match_reference() {
        let all_on_one: Vec<FragmentRequest> = [7, 3, 7, 0, 12, 3]
            .iter()
            .enumerate()
            .map(|(i, &size)| req(5 - i as u64, size, &[1]))
            .collect();
        // A free request that ties with both chains' heads and is larger
        // than either lands on node 0 while chain 0's head is pending: node
        // 0's group has to be re-keyed (up by the read, down by ϕ), or
        // chain 1's larger head overtakes it.
        let mut two_chains_and_a_free_request = vec![req(0, 500, &[0, 1])];
        two_chains_and_a_free_request.extend((1..4).map(|i| req(i, 10 * i, &[0])));
        two_chains_and_a_free_request.extend((4..7).map(|i| req(i, 10 * i, &[1])));
        two_chains_and_a_free_request.push(req(7, 3, &[2]));
        // First touch by a read smaller than ϕ = 35: node 0's group key
        // falls below node 1's head and below the two free requests.
        let mut first_touch_smaller = vec![req(0, 9, &[1, 2]), req(1, 4, &[0, 2])];
        first_touch_smaller.extend((2..6).map(|i| req(i, 2 + i, &[0])));
        first_touch_smaller.extend((6..9).map(|i| req(i, 20 - i, &[1])));
        // … and by a read larger than ϕ = 35: it rises.
        let first_touch_larger: Vec<FragmentRequest> = first_touch_smaller
            .iter()
            .map(|r| FragmentRequest {
                size: r.size * 40,
                ..r.clone()
            })
            .collect();
        // Keys that cannot move: a chain of zero-size reads, and a chain on
        // a node whose wait saturates on the first read.
        let mut unmoving = vec![req(0, 1, &[0, 1, 2])];
        unmoving.extend((1..5).map(|i| req(i, 0, &[0])));
        unmoving.extend((5..9).map(|i| req(i, 3 * i, &[1])));
        unmoving.push(req(9, 2, &[1, 2]));

        let cases: [(&[FragmentRequest], &[u64]); 6] = [
            (&all_on_one, &[50, 4]),
            (&two_chains_and_a_free_request, &[40, 40, 0]),
            (&two_chains_and_a_free_request, &[100, 40, 37]),
            (&first_touch_smaller, &[30, 25, 28]),
            (&first_touch_larger, &[30, 25, 28]),
            (&unmoving, &[6, u64::MAX - 1, 0]),
        ];
        let (mut scratch, mut out) = (Scratch::default(), Vec::new());
        for phi in [0, 35, 100_000] {
            for (reqs, waits) in cases {
                out.clear();
                assert_routes_like_reference(phi, reqs, waits, &mut scratch, &mut out);
            }
            // All forced onto one node: the output is the static order —
            // larger reads first, then smaller fragment id — whatever ϕ is.
            let mut q = QueueView::from_waits(vec![50, 4]);
            let routed = MaxOfMins::new(phi).route(&all_on_one, &mut q).unwrap();
            let order: Vec<u64> = routed.iter().map(|a| a.fragment.0).collect();
            assert_eq!(order, [1, 3, 5, 0, 4, 2], "phi {phi}");
            assert!(routed.iter().all(|a| a.node == NodeId(1)));
            assert_eq!((q.wait(NodeId(0)), q.wait(NodeId(1))), (50, 4 + 32));
        }
    }

    #[test]
    fn nothing_of_a_chain_leaks_through_scratch() {
        // A forced-only scan reaches nodes 4 and 5 through chains alone;
        // then a scan that fails validation, a scan that weighs those two
        // nodes against others on a view of the same length (a shorter one
        // would truncate the evidence), and scans on a shorter view and on
        // the old one again, all with the same `Scratch`: a group bit, a
        // head or an effective wait left behind would show in one of them.
        let forced_only: Vec<FragmentRequest> =
            (0..6).map(|i| req(i, 10 + i, &[4 + i % 2])).collect();
        let doomed = [req(0, 5, &[4]), req(1, 5, &[6])]; // node 6 unknown
        let short: Vec<FragmentRequest> = (0..5).map(|i| req(i, 7, &[i % 2, 2])).collect();
        let mixed: Vec<FragmentRequest> = (0..6)
            .map(|i| match i % 3 {
                0 => req(i, 9, &[4]),
                _ => req(i, 9, &[4, 5, i % 4]),
            })
            .collect();
        let steps: [(&[FragmentRequest], &[u64]); 6] = [
            (&forced_only, &[0, 0, 0, 0, 3, 1]),
            (&doomed, &[0, 0, 0, 0, 0, 0]),
            (&mixed, &[0, 0, 0, 0, 0, 0]),
            (&short, &[2, 0, 1]),
            (&forced_only, &[0, 0, 0, 0, 0, 0]),
            (&short, &[0, 0, 0, 0, 0, 0]),
        ];
        for phi in [0, 35, 100_000] {
            let (mut scratch, mut out) = (Scratch::default(), Vec::new());
            for (reqs, waits) in steps {
                assert_routes_like_reference(phi, reqs, waits, &mut scratch, &mut out);
            }
        }
    }

    #[test]
    fn duplicate_fragment_ids_keep_the_request_order() {
        // The API accepts repeated fragment ids; ties between them fall to
        // the request index, the key's last component. Pinned from the
        // router as it was before node groups: per scan, the fragments and
        // the nodes in assignment order, then the final waits. In the first
        // scan the reference, whose `swap_remove` reorders what is left,
        // places the last two the other way round.
        let routed = |phi: u64, reqs: &[FragmentRequest], waits: &[u64]| {
            let mut q = QueueView::from_waits(waits.to_vec());
            let out = MaxOfMins::new(phi).route(reqs, &mut q).unwrap();
            [
                out.iter().map(|a| a.fragment.0).collect::<Vec<_>>(),
                out.iter().map(|a| a.node.0).collect(),
                (0..waits.len() as u64).map(|n| q.wait(NodeId(n))).collect(),
            ]
        };
        let tie = [req(7, 10, &[2]), req(7, 10, &[0]), req(7, 10, &[1])];
        let [frags, nodes, waits] = routed(35, &tie, &[0, 0, 0]);
        assert_eq!(
            (frags, nodes, waits),
            (vec![7; 3], vec![2, 0, 1], vec![10; 3])
        );
        let mut q = QueueView::new(3);
        let naive = reference::max_of_mins(35, &tie, &mut q).unwrap();
        let order: Vec<u64> = naive.iter().map(|a| a.node.0).collect();
        assert_eq!(
            order,
            [2, 1, 0],
            "the reference breaks this tie by position"
        );

        let mut forced = tie.to_vec();
        forced.extend([
            req(2, 10, &[1]),
            req(7, 10, &[3]),
            req(2, 10, &[0]),
            req(7, 3, &[2]),
            req(7, 10, &[0]),
        ]);
        let [frags, nodes, waits] = routed(35, &forced, &[0, 0, 0, 0]);
        assert_eq!(frags, [2, 2, 7, 7, 7, 7, 7, 7]);
        assert_eq!(nodes, [1, 0, 2, 3, 0, 0, 1, 2]);
        assert_eq!(waits, [30, 20, 13, 10]);

        let multi = [
            req(4, 8, &[0, 1]),
            req(4, 8, &[1, 2]),
            req(4, 8, &[2, 3]),
            req(1, 8, &[0, 3]),
            req(4, 8, &[0, 2]),
            req(4, 2, &[3]),
            req(1, 8, &[1, 3]),
            req(4, 8, &[1, 2]),
        ];
        let [frags, nodes, waits] = routed(20, &multi, &[0, 0, 0, 0]);
        assert_eq!(frags, [1, 1, 4, 4, 4, 4, 4, 4]);
        assert_eq!(nodes, [0, 1, 2, 3, 0, 1, 2, 1]);
        assert_eq!(waits, [16, 24, 16, 2]);
        let [frags, nodes, waits] = routed(20, &multi, &[0, 4, 4, 9]);
        assert_eq!(frags, [4, 4, 4, 4, 1, 4, 1, 4]);
        assert_eq!(nodes, [3, 1, 0, 1, 3, 3, 0, 0]);
        assert_eq!(waits, [24, 20, 4, 27]);
    }

    #[test]
    fn heap_holds_one_group_per_node_and_walks_each_list_once() {
        // The work bound as counts. An all-forced scan of R requests over K
        // nodes keeps at most K groups in the heap and never walks a lister
        // or re-derives a minimum: its groups never change.
        let distinct = |reqs: &[FragmentRequest]| {
            let nodes = reqs.iter().flat_map(|r| r.candidates.iter().copied());
            nodes.collect::<BTreeSet<_>>().len()
        };
        let waits = [9, 0, 4, 2];
        let all_forced: Vec<FragmentRequest> =
            (0..60).map(|i| req(i, 1 + i % 7, &[i % 4])).collect();
        let mut scratch = Scratch::default();
        let mut out = Vec::new();
        assert_routes_like_reference(35, &all_forced, &waits, &mut scratch, &mut out);
        let tally = scratch.tally();
        assert_eq!(tally.peak_len, waits.len());
        assert!(tally.walked.is_empty());
        assert_eq!(tally.rederived, 0);

        // With requests that have a choice the heap still holds at most one
        // group per node the scan names, and a node's listers are walked at
        // most once: only its first read, smaller than ϕ, lowers its wait.
        let mut next = lcg(7);
        for _ in 0..if cfg!(miri) { 4 } else { 200 } {
            let reqs = stress_case(&mut next, (1, 150), &mut scratch, &mut out);
            let tally = scratch.tally();
            assert!(tally.peak_len <= distinct(&reqs));
            let walked: BTreeSet<usize> = tally.walked.iter().copied().collect();
            assert_eq!(walked.len(), tally.walked.len(), "a list walked twice");
        }
    }

    #[test]
    fn route_scans_is_route_batch_over_kept_buffers() {
        // The flat layout against the owning one, with the buffers reused
        // across batches; then a layout whose ends run backwards and past
        // the requests, whose impossible scans are read as empty instead of
        // indexing out of bounds.
        let mut batch = zoned_batch(2, 5, 4);
        batch.insert(3, Vec::new());
        let flat: Vec<FragmentRequest> = batch.iter().flatten().cloned().collect();
        let ends_of = |scans: &[Vec<_>]| -> Vec<usize> {
            let ends = scans.iter().scan(0, |end, scan: &Vec<_>| {
                *end += scan.len();
                Some(*end)
            });
            ends.collect()
        };
        let ends = ends_of(&batch);
        let router = MaxOfMins::new(35);
        let (mut scratch, mut out, mut out_ends) = (Scratch::default(), Vec::new(), Vec::new());
        for waits in [vec![0; 8], vec![3, 0, 0, 40, 0, 7, 0, 0, 0]] {
            let mut q_flat = QueueView::from_waits(waits);
            let mut q_owned = q_flat.clone();
            router
                .route_scans(
                    &flat,
                    &ends,
                    &mut q_flat,
                    &mut scratch,
                    &mut out,
                    &mut out_ends,
                )
                .unwrap();
            let owned = router.route_batch(batch.clone(), &mut q_owned).unwrap();
            assert_eq!(out, owned.concat());
            assert_eq!(out_ends, ends);
            for n in 0..8 {
                assert_eq!(q_flat.wait(NodeId(n)), q_owned.wait(NodeId(n)));
            }
        }
        let mut q = QueueView::new(8);
        MaxOfMins::new(0)
            .route_scans(
                &flat,
                &[4, 2, 1_000],
                &mut q,
                &mut scratch,
                &mut out,
                &mut out_ends,
            )
            .unwrap();
        assert_eq!(out_ends, vec![4, 4, 4]);
        // A doomed batch is rejected before anything is placed.
        let mut doomed = flat.clone();
        doomed[flat.len() - 1].candidates.clear();
        let mut q = QueueView::new(8);
        let err = MaxOfMins::new(0)
            .route_scans(
                &doomed,
                &ends,
                &mut q,
                &mut scratch,
                &mut out,
                &mut out_ends,
            )
            .unwrap_err();
        assert!(matches!(err, RouteError::NoReplicas { .. }));
        assert_eq!((0..8).map(|n| q.wait(NodeId(n))).sum::<u64>(), 0);
    }

    #[test]
    fn batch_validates_every_scan_before_placing() {
        // A routable scan ahead of an unroutable one: validate-all-first
        // means the queues stay untouched rather than half-routed.
        let router = MaxOfMins::new(0);
        let mut q = QueueView::new(2);
        let scans = vec![
            vec![req(0, 100, &[0, 1])],
            vec![FragmentRequest {
                fragment: FragmentId(9),
                size: 5,
                candidates: vec![],
            }],
        ];
        let err = router.route_batch(scans, &mut q).unwrap_err();
        assert_eq!(
            err,
            RouteError::NoReplicas {
                fragment: FragmentId(9)
            }
        );
        assert_eq!(q.wait(NodeId(0)) + q.wait(NodeId(1)), 0);
    }

    #[test]
    fn default_route_batch_threads_queues_for_any_router() {
        // The trait's default batch path (used by PowerOfTwoChoices) is
        // per-scan routing in order; check queue threading end-to-end.
        let router = PowerOfTwoChoices::new(10, 99);
        let scans: Vec<Vec<FragmentRequest>> =
            (0..6).map(|i| vec![req(i, 50, &[0, 1, 2])]).collect();
        let mut q = QueueView::new(3);
        let out = router.route_batch(scans, &mut q).unwrap();
        assert_eq!(out.len(), 6);
        let total: u64 = (0..3).map(|n| q.wait(NodeId(n))).sum();
        assert_eq!(total, 6 * 50);
    }

    #[test]
    fn span_helper_counts_distinct_nodes() {
        let a = [
            Assignment {
                fragment: FragmentId(0),
                node: NodeId(0),
            },
            Assignment {
                fragment: FragmentId(1),
                node: NodeId(0),
            },
            Assignment {
                fragment: FragmentId(2),
                node: NodeId(2),
            },
        ];
        assert_eq!(span(&a), 2);
        assert_eq!(span(&[]), 0);
    }
}
