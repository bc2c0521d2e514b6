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
//! announcement is still exact. A changed announcement moves its heap entry
//! in place (the heap is indexed by request), so the heap never holds more
//! than one entry per pending request and every pop is a placement.

use std::cmp::Reverse;

use super::{
    record_scan_metrics, validate_requests, Assignment, FragmentRequest, QueueView, RouteError,
    ScanRouter,
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
/// index — so the heap's maximum is exactly the request the naive scan
/// would pick. Keys are distinct (the index is), so the pop order does not
/// depend on how the heap happens to be laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapEntry {
    eff: u64,
    size: u64,
    fragment: Reverse<FragmentId>,
    index: Reverse<usize>,
}

impl HeapEntry {
    /// The heap entry announcing that request `index`'s minimum is `eff`.
    fn announcing(index: usize, req: &FragmentRequest, eff: u64) -> Self {
        HeapEntry {
            eff,
            size: req.size,
            fragment: Reverse(req.fragment),
            index: Reverse(index),
        }
    }
}

/// What one request of the current scan last announced to the heap.
#[derive(Debug, Clone, Copy)]
struct Pending {
    /// The announced Eq. 11 minimum `(effective wait, node)`.
    announced: (u64, NodeId),
    placed: bool,
}

/// A binary max-heap of the scan's pending requests that knows where each
/// request's entry sits, so an announcement that changed is re-keyed where
/// it is instead of being superseded by a second entry.
#[derive(Debug, Default)]
struct IndexedHeap {
    entries: Vec<HeapEntry>,
    /// Per request of the scan, the slot of its entry in `entries`
    /// (meaningless once the request was popped).
    slot_of: Vec<usize>,
}

impl IndexedHeap {
    fn clear(&mut self) {
        self.entries.clear();
        self.slot_of.clear();
    }

    /// Adds the entry of the scan's next request, in request order, without
    /// restoring heap order: [`heapify`](Self::heapify) follows the last.
    fn push_unordered(&mut self, entry: HeapEntry) {
        self.slot_of.push(self.entries.len());
        self.entries.push(entry);
    }

    fn heapify(&mut self) {
        for slot in (0..self.entries.len() / 2).rev() {
            self.sift_down(slot);
        }
    }

    fn pop(&mut self) -> Option<HeapEntry> {
        let last = self.entries.pop()?;
        let Some(root) = self.entries.first_mut() else {
            return Some(last);
        };
        let top = std::mem::replace(root, last);
        self.sift_down(0);
        Some(top)
    }

    /// Replaces the entry of request `entry.index` and moves it to where
    /// its new key belongs.
    fn update(&mut self, entry: HeapEntry) {
        let slot = self.slot_of[entry.index.0];
        let old = std::mem::replace(&mut self.entries[slot], entry);
        if entry > old {
            self.sift_up(slot);
        } else {
            self.sift_down(slot);
        }
    }

    fn sift_up(&mut self, mut slot: usize) {
        let entry = self.entries[slot];
        while slot > 0 {
            let parent = (slot - 1) / 2;
            if self.entries[parent] >= entry {
                break;
            }
            self.put(slot, self.entries[parent]);
            slot = parent;
        }
        self.put(slot, entry);
    }

    fn sift_down(&mut self, mut slot: usize) {
        let entry = self.entries[slot];
        loop {
            let mut child = 2 * slot + 1;
            let Some(left) = self.entries.get(child) else {
                break;
            };
            let mut larger = *left;
            if let Some(right) = self.entries.get(child + 1).filter(|r| **r > larger) {
                larger = *right;
                child += 1;
            }
            if entry >= larger {
                break;
            }
            self.put(slot, larger);
            slot = child;
        }
        self.put(slot, entry);
    }

    fn put(&mut self, slot: usize, entry: HeapEntry) {
        self.entries[slot] = entry;
        self.slot_of[entry.index.0] = slot;
    }
}

/// Working memory a router keeps between scans — [`MaxOfMins`]'s
/// node-indexed tables, per-request table and heap — owned by whoever calls
/// [`ScanRouter::route_into`], so that a caller routing scan after scan
/// allocates them once. Opaque: create one with `Scratch::default()` and
/// hand the same one to every call. It re-sizes itself when the queue
/// view's node count changes and clears itself at the start of each scan,
/// so nothing a scan (or a failed scan) leaves behind reaches the next.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Nodes already serving the current scan's query (ϕ-free).
    chosen: Vec<bool>,
    /// Which requests of the current scan list each node as a candidate.
    /// The inner lists keep their capacity from scan to scan.
    by_node: Vec<Vec<usize>>,
    /// Nodes touched by the current scan, for sparse O(touched) reset.
    touched: Vec<usize>,
    pending: Vec<Pending>,
    heap: IndexedHeap,
}

impl Scratch {
    /// Clears what the previous scan left behind, then fits the node tables
    /// to a queue view of `nodes` nodes (`touched` indexes the old size, so
    /// the order matters).
    fn reset_for_scan(&mut self, nodes: usize) {
        for &n in &self.touched {
            self.chosen[n] = false;
            self.by_node[n].clear();
        }
        self.touched.clear();
        self.pending.clear();
        self.heap.clear();
        if self.chosen.len() != nodes {
            self.chosen.resize(nodes, false);
            self.by_node.resize_with(nodes, Vec::new);
        }
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
}

impl ScanRouter for MaxOfMins {
    /// The one production Eq. 11 loop.
    fn route_into(
        &self,
        requests: &[FragmentRequest],
        queues: &mut QueueView,
        scratch: &mut Scratch,
        out: &mut Vec<Assignment>,
    ) -> Result<(), RouteError> {
        validate_requests(requests, queues)?;
        scratch.reset_for_scan(queues.len());
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
            let announced = self.best_of(req, queues, &scratch.chosen)?;
            let entry = HeapEntry::announcing(i, req, announced.0);
            scratch.heap.push_unordered(entry);
            scratch.pending.push(Pending {
                announced,
                placed: false,
            });
        }
        scratch.heap.heapify();

        // One session check per scan instead of a thread-local round-trip
        // per placement.
        let observed = crate::obs_hooks::is_active();
        let first = out.len();
        while let Some(entry) = scratch.heap.pop() {
            let idx = entry.index.0;
            let pending = &mut scratch.pending[idx];
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
                    if best.0 != announced.0 {
                        let entry = HeapEntry::announcing(j, &requests[j], best.0);
                        scratch.heap.update(entry);
                    }
                }
            }
        }
        record_scan_metrics(&out[first..]);
        Ok(())
    }

    fn name(&self) -> &'static str {
        "max-of-mins"
    }
}
