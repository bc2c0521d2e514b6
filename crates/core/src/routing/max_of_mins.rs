//! The production Max-of-mins router: Eq. 11 run incrementally.
//!
//! Each pending request announces its current minimum `(effective wait,
//! node)` to a max-heap ordered by the Eq. 11 selection key. Placing a
//! request grows one node's queue and (on the scan's first touch of that
//! node) drops its ϕ penalty, so only requests listing that node as a
//! candidate — found through an inverted node → requests index — can see a
//! different minimum. Those are patched in O(1) when the placed node merely
//! undercuts their announcement and re-derived by a plain scan of their
//! candidates when their announcement ran through it; every other
//! announcement is still exact. Superseded heap entries are skipped by
//! version on pop.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::{
    record_batch_metrics, record_scan_metrics, validate_requests, Assignment, FragmentRequest,
    QueueView, RouteError, ScanRouter,
};
use crate::ids::{FragmentId, NodeId};

/// The paper's Max-of-mins router (Eq. 11), incremental formulation.
///
/// Produces exactly the assignments (and assignment order) of the naive
/// re-evaluate-everything loop in
/// [`reference::max_of_mins`](super::reference::max_of_mins) whenever
/// fragment ids are distinct within the scan (which
/// `DistScheme::requests_for_query` guarantees by deduplication), at
/// O((R + I)·log R) heap work plus O(I·C) re-derivations, where `I` is the
/// number of announcements a placement invalidated, instead of the naive
/// R²-ish full rescans.
#[derive(Debug, Clone, Copy)]
pub struct MaxOfMins {
    /// Span penalty ϕ in tuple units: the wait-equivalent cost of touching
    /// a node this query is not already using.
    pub phi: u64,
}

impl MaxOfMins {
    /// Creates the router with span penalty `phi` (tuples).
    pub fn new(phi: u64) -> Self {
        MaxOfMins { phi }
    }
}

/// A pending request's place in the bottleneck-first max-heap. Ordered by
/// the Eq. 11 selection key — largest best-achievable wait first, ties
/// toward larger reads, then smaller fragment id, then smaller request
/// index — so `BinaryHeap::pop` yields exactly the request the naive scan
/// would pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapEntry {
    eff: u64,
    size: u64,
    fragment: Reverse<FragmentId>,
    index: Reverse<usize>,
    version: u64,
}

impl HeapEntry {
    /// The heap entry announcing request `index`'s current minimum.
    fn announcing(index: usize, req: &FragmentRequest, pending: &Pending) -> Self {
        HeapEntry {
            eff: pending.announced.0,
            size: req.size,
            fragment: Reverse(req.fragment),
            index: Reverse(index),
            version: pending.version,
        }
    }
}

/// What one request of the current scan last announced to the heap.
#[derive(Debug, Clone, Copy)]
struct Pending {
    /// The announced Eq. 11 minimum `(effective wait, node)`.
    announced: (u64, NodeId),
    /// Bumped whenever `announced` changes, superseding older heap entries.
    version: u64,
    placed: bool,
}

/// Router state reused across every scan of one `route`/`route_batch` call,
/// so the node-indexed tables, the per-request table and the heap are
/// allocated once per call instead of once per scan.
#[derive(Debug)]
struct Scratch {
    /// Nodes already serving the current scan's query (ϕ-free).
    chosen: Vec<bool>,
    /// Which requests of the current scan list each node as a candidate.
    by_node: Vec<Vec<usize>>,
    /// Nodes touched by the current scan, for sparse O(touched) reset.
    touched: Vec<usize>,
    pending: Vec<Pending>,
    heap: BinaryHeap<HeapEntry>,
}

impl Scratch {
    /// Scratch for a queue view of `nodes` nodes; validation guarantees
    /// every candidate id indexes inside it.
    fn new(nodes: usize) -> Self {
        Scratch {
            chosen: vec![false; nodes],
            by_node: vec![Vec::new(); nodes],
            touched: Vec::new(),
            pending: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// Clears what the previous scan left behind.
    fn reset_for_scan(&mut self) {
        for &n in &self.touched {
            self.chosen[n] = false;
            self.by_node[n].clear();
        }
        self.touched.clear();
        self.pending.clear();
        self.heap.clear();
    }
}

impl MaxOfMins {
    /// Eq. 11 inner minimum: the candidate with the smallest effective wait
    /// (queue plus ϕ unless the scan already uses the node), ties toward the
    /// smaller node id.
    fn best_of(
        &self,
        req: &FragmentRequest,
        queues: &QueueView,
        chosen: &[bool],
    ) -> Result<(u64, NodeId), RouteError> {
        req.candidates
            .iter()
            .map(|&n| {
                let penalty = if chosen[n.index()] { 0 } else { self.phi };
                (queues.wait(n).saturating_add(penalty), n)
            })
            .min()
            // Candidates are validated nonempty before routing; a miss is a
            // router bug, surfaced typed rather than as a panic.
            .ok_or(RouteError::InvariantBreach {
                fragment: req.fragment,
            })
    }

    /// Routes one pre-validated scan — the one production Eq. 11 loop, which
    /// both [`ScanRouter::route`] and [`ScanRouter::route_batch`] reach.
    fn route_scan_into(
        &self,
        requests: &[FragmentRequest],
        queues: &mut QueueView,
        scratch: &mut Scratch,
    ) -> Result<Vec<Assignment>, RouteError> {
        scratch.reset_for_scan();
        for (i, req) in requests.iter().enumerate() {
            for &n in &req.candidates {
                let slot = &mut scratch.by_node[n.index()];
                if slot.is_empty() {
                    scratch.touched.push(n.index());
                }
                slot.push(i);
            }
        }
        for (i, req) in requests.iter().enumerate() {
            let pending = Pending {
                announced: self.best_of(req, queues, &scratch.chosen)?,
                version: 0,
                placed: false,
            };
            scratch.heap.push(HeapEntry::announcing(i, req, &pending));
            scratch.pending.push(pending);
        }

        // One session check per scan instead of a thread-local round-trip
        // per placement.
        let observed = crate::obs_hooks::is_active();
        let mut out = Vec::with_capacity(requests.len());
        while let Some(entry) = scratch.heap.pop() {
            let idx = entry.index.0;
            let pending = &mut scratch.pending[idx];
            if pending.placed || entry.version != pending.version {
                continue; // superseded by a re-evaluation
            }
            pending.placed = true;
            let (_, node) = pending.announced;
            let req = &requests[idx];
            if observed {
                crate::obs_hooks::record("routing.queue_wait_tuples", queues.wait(node));
            }
            queues.enqueue(node, req.size);
            scratch.chosen[node.index()] = true;
            out.push(Assignment {
                fragment: req.fragment,
                node,
            });

            // Re-evaluate only what this placement could have changed: the
            // placed node's queue grew and (on first touch) its ϕ penalty
            // vanished, so only requests listing it as a candidate can see
            // a different Eq. 11 minimum.
            let via = (queues.wait(node), node); // chosen ⇒ no penalty
            for &j in &scratch.by_node[node.index()] {
                let pending = &mut scratch.pending[j];
                if pending.placed {
                    continue;
                }
                let announced = pending.announced;
                let best = if announced.1 == node {
                    // The announced minimum ran through the placed node and
                    // its wait just grew: re-derive the true minimum.
                    self.best_of(&requests[j], queues, &scratch.chosen)?
                } else if via < announced {
                    // First touch dropped the placed node's ϕ penalty below
                    // the announced minimum (only a penalty flip can
                    // undercut — waits never shrink): patch in O(1).
                    via
                } else {
                    // Every other candidate's key is unchanged and the
                    // placed node does not undercut: still exact.
                    continue;
                };
                if best != announced {
                    pending.announced = best;
                    pending.version += 1;
                    scratch
                        .heap
                        .push(HeapEntry::announcing(j, &requests[j], pending));
                }
            }
        }
        record_scan_metrics(&out);
        Ok(out)
    }
}

impl ScanRouter for MaxOfMins {
    fn route(
        &self,
        requests: &[FragmentRequest],
        queues: &mut QueueView,
    ) -> Result<Vec<Assignment>, RouteError> {
        validate_requests(requests, queues)?;
        self.route_scan_into(requests, queues, &mut Scratch::new(queues.len()))
    }

    fn route_batch(
        &self,
        scans: Vec<Vec<FragmentRequest>>,
        queues: &mut QueueView,
    ) -> Result<Vec<Vec<Assignment>>, RouteError> {
        for scan in &scans {
            validate_requests(scan, queues)?;
        }
        let mut scratch = Scratch::new(queues.len());
        let out = scans
            .iter()
            .map(|scan| self.route_scan_into(scan, queues, &mut scratch))
            .collect::<Result<Vec<_>, _>>()?;
        record_batch_metrics(out.len());
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "max-of-mins"
    }
}
