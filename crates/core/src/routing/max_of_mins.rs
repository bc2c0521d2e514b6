//! The production Max-of-mins router: Eq. 11 run incrementally.
//!
//! A request is in the heap only while it has a choice or heads its node's
//! chain. A request with several candidates announces its current minimum
//! `(effective wait, node)` to a max-heap ordered by the Eq. 11 selection
//! key. Placing a request grows one node's queue and (on the scan's first
//! touch of that node) drops its ϕ penalty, so only requests listing that
//! node as a candidate — found through an inverted node → requests index —
//! can see a different minimum. Those are patched in O(1) when the placed
//! node merely undercuts their announcement and re-derived by a plain scan
//! of their candidates when their announcement ran through it; every other
//! announcement is still exact. A changed announcement moves its heap entry
//! in place (the heap is indexed by request).
//!
//! A request with one candidate `n` has no decision to make: its minimum is
//! `n`'s effective wait, the same value for every such request of `n`, so
//! the key orders them among themselves by its static tail alone, the
//! largest of them dominates the rest for as long as it is pending, and a
//! pending request influences the loop only by being picked. Such requests
//! wait in a per-node *chain* sorted once by that tail; only the chain's
//! head is in the heap, none of them is in the inverted index, and a
//! placement on `n` re-keys the one head instead of every request still
//! waiting on `n`. The placed request keeps its heap slot until its step
//! ends and then hands it to its chain's next head (or to the heap's last
//! entry), so a step on a chain costs one sift that usually does not move.

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
/// O((R + I)·log(M + K) + F·log k + I·C): the heap holds the `M` requests
/// with a choice and the heads of the `K` per-node chains, each of the `R`
/// placements is one sift in it, the `F` single-candidate requests are
/// sorted within chains of length ≤ `k`, and `I` is the number of
/// announcements a placement invalidated — those of requests with a choice
/// plus at most one chain head per placement, never the rest of a chain —
/// each re-derived over ≤ `C` candidates, instead of the naive R²-ish full
/// rescans.
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

/// What one request of the current scan last announced to the heap. A
/// single-candidate request announces only while it heads its node's chain;
/// until then `announced` holds its node and a wait nothing reads.
#[derive(Debug, Clone, Copy)]
struct Pending {
    /// The announced Eq. 11 minimum `(effective wait, node)`.
    announced: (u64, NodeId),
    placed: bool,
}

/// What the heap did during the last scan: the work bound as counts.
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(super) struct HeapTally {
    /// Entries re-keyed where they sat.
    pub(super) updates: usize,
    /// Placements (each gives up one slot).
    pub(super) hand_overs: usize,
    /// Entries at scan start — the most the heap ever holds.
    pub(super) peak_len: usize,
}

/// A binary max-heap of the scan's announcing requests that knows where
/// each request's entry sits, so an announcement that changed is re-keyed
/// where it is instead of being superseded by a second entry.
#[derive(Debug, Default)]
struct IndexedHeap {
    entries: Vec<HeapEntry>,
    /// Per request of the scan, the slot of its entry in `entries`
    /// (meaningless unless the request has an entry).
    slot_of: Vec<usize>,
    #[cfg(test)]
    tally: HeapTally,
}

impl IndexedHeap {
    /// Empties the heap for a scan of `requests` requests. Slots an earlier
    /// scan left in `slot_of` stay: a slot is written before it is read.
    fn reset(&mut self, requests: usize) {
        self.entries.clear();
        self.slot_of.resize(requests, 0);
        #[cfg(test)]
        {
            self.tally = HeapTally::default();
        }
    }

    /// Adds an entry without restoring heap order:
    /// [`heapify`](Self::heapify) follows the last.
    fn push_unordered(&mut self, entry: HeapEntry) {
        self.slot_of[entry.index.0] = self.entries.len();
        self.entries.push(entry);
    }

    fn heapify(&mut self) {
        for slot in (0..self.entries.len() / 2).rev() {
            self.sift_down(slot);
        }
        #[cfg(test)]
        {
            self.tally.peak_len = self.entries.len();
        }
    }

    fn peek(&self) -> Option<HeapEntry> {
        self.entries.first().copied()
    }

    /// Replaces the entry of request `entry.index` and moves it to where
    /// its new key belongs.
    fn update(&mut self, entry: HeapEntry) {
        #[cfg(test)]
        {
            self.tally.updates += 1;
        }
        self.replace(self.slot_of[entry.index.0], entry);
    }

    /// Ends the step that placed request `placed`: its entry, kept under
    /// its stale key while the step re-keyed others, gives its slot to
    /// `successor` — or, with none, to the heap's last entry. The slot is
    /// read from `slot_of`, not assumed to be the root: an entry re-keyed
    /// during the step may have risen above the stale key.
    fn hand_over(&mut self, placed: usize, successor: Option<HeapEntry>) {
        #[cfg(test)]
        {
            self.tally.hand_overs += 1;
        }
        let slot = self.slot_of[placed];
        let entry = match successor {
            Some(entry) => entry,
            None => {
                let Some(last) = self.entries.pop() else {
                    return;
                };
                if slot == self.entries.len() {
                    return; // the placed entry was the last one
                }
                last
            }
        };
        self.replace(slot, entry);
    }

    /// Stores `entry` at `slot` and sifts it in whichever direction its key
    /// differs from the entry it replaces — one direction suffices, the
    /// replaced key having been in heap order with its parent and children.
    fn replace(&mut self, slot: usize, entry: HeapEntry) {
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
    /// Which requests of the current scan with more than one candidate list
    /// each node as one. The inner lists keep their capacity from scan to
    /// scan.
    by_node: Vec<Vec<usize>>,
    /// Per node, its chain: the pending requests of the current scan whose
    /// only candidate it is, ascending by the selection key's static tail,
    /// so the chain's head is its last. Kept like `by_node`'s lists.
    forced: Vec<Vec<usize>>,
    /// Nodes some request of the current scan lists in `by_node`, for
    /// sparse O(touched) reset.
    touched: Vec<usize>,
    /// Nodes with a chain in the current scan — a node may be reached
    /// through a chain alone, so the sparse reset covers these too.
    chained: Vec<usize>,
    pending: Vec<Pending>,
    heap: IndexedHeap,
}

impl Scratch {
    /// Clears what the previous scan left behind, then fits the node tables
    /// to a queue view of `nodes` nodes (`touched` and `chained` index the
    /// old size, so the order matters) and the heap to a scan of `requests`
    /// requests.
    fn reset_for_scan(&mut self, nodes: usize, requests: usize) {
        for n in self.touched.drain(..) {
            self.chosen[n] = false;
            self.by_node[n].clear();
        }
        for n in self.chained.drain(..) {
            self.chosen[n] = false;
            self.forced[n].clear();
        }
        self.pending.clear();
        self.heap.reset(requests);
        if self.chosen.len() != nodes {
            self.chosen.resize(nodes, false);
            self.by_node.resize_with(nodes, Vec::new);
            self.forced.resize_with(nodes, Vec::new);
        }
    }

    /// What the heap did during the last scan routed with this `Scratch`.
    #[cfg(test)]
    pub(super) fn heap_tally(&self) -> HeapTally {
        self.heap.tally
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
        scratch.reset_for_scan(queues.len(), requests.len());
        for (i, req) in requests.iter().enumerate() {
            let announced = if let [only] = req.candidates[..] {
                // No decision to make: the request waits in its node's
                // chain, outside the heap and the inverted index.
                let chain = &mut scratch.forced[only.index()];
                if chain.is_empty() {
                    scratch.chained.push(only.index());
                }
                chain.push(i);
                (0, only)
            } else {
                for &n in &req.candidates {
                    let listing = &mut scratch.by_node[n.index()];
                    if listing.is_empty() {
                        scratch.touched.push(n.index());
                    }
                    listing.push(i);
                }
                let announced = self.best_of(req, queues, &scratch.chosen)?;
                let entry = HeapEntry::announcing(i, req, announced.0);
                scratch.heap.push_unordered(entry);
                announced
            };
            scratch.pending.push(Pending {
                announced,
                placed: false,
            });
        }
        // Every request of a chain has the same minimum, so the key orders
        // them by its static tail for the whole scan: sort once, and let
        // only the head — which dominates the rest while it is pending —
        // announce. Nothing is in use yet, so it announces with ϕ.
        for &n in &scratch.chained {
            let chain = &mut scratch.forced[n];
            chain.sort_unstable_by_key(|&i| {
                let req = &requests[i];
                (req.size, Reverse(req.fragment), Reverse(i))
            });
            if let Some(&head) = chain.last() {
                let (_, node) = scratch.pending[head].announced;
                let eff = queues.wait(node).saturating_add(self.phi);
                let entry = HeapEntry::announcing(head, &requests[head], eff);
                scratch.heap.push_unordered(entry);
            }
        }
        scratch.heap.heapify();

        // One session check per scan instead of a thread-local round-trip
        // per placement.
        let observed = nashdb_obs::is_active();
        let first = out.len();
        // The placed request's entry stays in the heap, under its now stale
        // key, until its step ends: the heap property is about stored keys,
        // so every comparison of the step stays valid, and the step ends by
        // handing the slot over instead of popping it and pushing another.
        while let Some(entry) = scratch.heap.peek() {
            let idx = entry.index.0;
            let pending = &mut scratch.pending[idx];
            pending.placed = true;
            let (_, node) = pending.announced;
            let req = &requests[idx];
            if observed {
                nashdb_obs::record(
                    nashdb_obs::Metric::RoutingQueueWaitTuples,
                    queues.wait(node),
                );
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

            // Of the node's chain only the head can see the placement: its
            // minimum is now `via`. A head that was just placed passes the
            // heap slot on to the next of its chain; a head still pending
            // is re-keyed where it sits. The rest of the chain is not
            // visited.
            let chain = &mut scratch.forced[node.index()];
            let was_head = chain.last() == Some(&idx);
            if was_head {
                chain.pop();
            }
            let head = chain
                .last()
                .map(|&h| HeapEntry::announcing(h, &requests[h], via.0));
            let successor = if was_head {
                head
            } else {
                if let Some(entry) = head {
                    scratch.heap.update(entry);
                }
                None
            };
            scratch.heap.hand_over(idx, successor);
        }
        record_scan_metrics(&out[first..]);
        Ok(())
    }

    fn name(&self) -> &'static str {
        "max-of-mins"
    }
}
