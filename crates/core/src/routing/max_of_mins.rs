//! The production Max-of-mins router: Eq. 11 run incrementally, one heap
//! entry per node.
//!
//! Every pending request belongs to the *group* of the node it currently
//! announces — its Eq. 11 minimum `(effective wait, node)`. Members of one
//! group share that wait, so within a group only the selection key's static
//! tail `(size, Reverse(fragment), Reverse(index))` orders them. One sort
//! per scan turns the tail into a rank, a group is a bitset over ranks, its
//! head is its highest rank, and the max-heap holds one entry per nonempty
//! group keyed `(wait << 64) | head` — the order of the per-request key, so
//! the root's head is the request the naive loop picks.
//!
//! A placement on node `n` changes only `n`'s effective wait. If the wait
//! fell (the scan's first read on `n`, smaller than ϕ), only `n`'s listers
//! can gain: each pending lister `n` now undercuts moves to `n`'s group, and
//! that walk of the inverted node → listers index happens at most once per
//! node per scan. If it rose, only `n`'s members can lose: each member with
//! a choice is re-derived over its candidates and moves if its minimum left
//! `n`; a member with one candidate never moves. A read that leaves the
//! wait where it was (a zero-size one) moves nobody. Each group the step
//! touched is then re-keyed once. Waits only grow and ϕ only falls on a
//! first touch, so every pending request stays in its true minimum's group.
//! The validation every router owes its caller is fused into the pass that
//! files the requests: the same errors, in the same request order, as
//! `validate_requests`, and nothing placed.

use std::cmp::Reverse;

use super::{Assignment, FragmentRequest, QueueView, RouteError, ScanRouter};
use crate::ids::{FragmentId, NodeId};

/// The paper's Max-of-mins router (Eq. 11), incremental formulation.
///
/// Produces exactly the assignments (and assignment order) of the naive
/// re-evaluate-everything loop in
/// [`reference::max_of_mins`](super::reference::max_of_mins) whenever
/// fragment ids are distinct within the scan (which
/// `DistScheme::requests_for_query` guarantees by deduplication), at
/// O(R·log R + R·(W + log K) + L + I·C) for `R` requests over `K` nodes: one
/// sort, each placement a head search over `W = ⌈R/64⌉` bitset words and
/// one sift per group it touched, `L` inverted-list entries walked (each
/// node's list at most once), and `I` minima re-derived over ≤ `C`
/// candidates — only for members of a node whose wait rose.
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

/// `Scratch::group_of` of a placed request, and `Node::slot` of a node
/// whose group is not in the heap.
const NONE: usize = usize::MAX;

/// One node of the queue view, as the current scan sees it. Valid only while
/// `seen`; the scan's first touch writes every field.
#[derive(Debug, Default, Clone, Copy)]
struct Node {
    /// Effective wait: queued tuples, plus ϕ until the scan places here.
    eff: u64,
    /// Its listers — the requests with a choice that name it — are
    /// `Scratch::listers[start..start + len]`.
    start: usize,
    len: usize,
    /// Its group's highest rank, while the group is in the heap.
    head: usize,
    /// Its group's heap slot, or `NONE`.
    slot: usize,
    seen: bool,
    /// Queued for re-keying at the end of the current step.
    dirty: bool,
}

/// What the router did during the last scan: the work bound as counts.
#[cfg(test)]
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(super) struct Tally {
    /// The most groups the heap ever held.
    pub(super) peak_len: usize,
    /// The nodes whose listers were walked, in walk order (an empty list
    /// is not walked).
    pub(super) walked: Vec<usize>,
    /// Minima re-derived over a request's candidates.
    pub(super) rederived: usize,
}

/// Working memory a router keeps between scans — [`MaxOfMins`]'s
/// node-indexed tables, per-request ranks, group bitsets and heap — owned by
/// whoever calls [`ScanRouter::route_into`], so that a caller routing scan
/// after scan allocates them once. Opaque: create one with
/// `Scratch::default()` and hand the same one to every call. It re-sizes
/// itself when the queue view's node count changes and clears itself at the
/// start of each scan, so nothing a scan (or a failed scan) leaves behind
/// reaches the next. Its group bitsets are indexed by node id: ⌈R/64⌉ words
/// per node of the view for a scan of `R` requests.
#[derive(Debug, Default)]
pub struct Scratch {
    nodes: Vec<Node>,
    /// Nodes the current scan names, for the sparse reset.
    touched: Vec<usize>,
    /// Inverted lists, back to back in `touched` order (see `Node::start`).
    listers: Vec<usize>,
    /// Per rank, the selection key's static tail; sorted, so a request's
    /// rank is its position.
    ranked: Vec<(u64, Reverse<FragmentId>, Reverse<usize>)>,
    /// Per request, its rank.
    rank_of: Vec<usize>,
    /// Per request, the node whose group holds it, or `NONE` once placed.
    group_of: Vec<usize>,
    /// Node `n`'s group: bits `n * words..(n + 1) * words`, one per rank.
    groups: Vec<u64>,
    words: usize,
    /// The ranks of requests with more than one candidate.
    multi: Vec<u64>,
    /// Max-heap of `(key, node)`, one entry per nonempty group.
    heap: Vec<(u128, usize)>,
    /// Nodes whose group the current step touched (see `Node::dirty`).
    dirty: Vec<usize>,
    #[cfg(test)]
    tally: Tally,
}

impl Scratch {
    /// Clears what the previous scan left behind — only the `seen` marks of
    /// the nodes it touched; a node's first touch rewrites the rest — then
    /// fits the tables to a view of `nodes` nodes and a scan of `requests`
    /// requests (`touched` indexes the old size, so the order matters).
    fn reset_for_scan(&mut self, nodes: usize, requests: usize) {
        for n in self.touched.drain(..) {
            self.nodes[n].seen = false;
        }
        self.nodes.resize(nodes, Node::default());
        self.words = requests.div_ceil(64);
        if self.groups.len() < nodes * self.words {
            self.groups.resize(nodes * self.words, 0);
        }
        self.multi.clear();
        self.multi.resize(self.words, 0);
        self.ranked.clear();
        self.rank_of.resize(requests, 0);
        self.group_of.clear();
        self.heap.clear();
        self.dirty.clear();
        #[cfg(test)]
        {
            self.tally = Tally::default();
        }
    }

    /// Node `n`'s group's highest rank, if it has a member.
    fn head(&self, n: usize) -> Option<usize> {
        let group = &self.groups[n * self.words..(n + 1) * self.words];
        let (w, word) = group.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
        Some(w * 64 + 63 - word.leading_zeros() as usize)
    }

    fn flip(&mut self, n: usize, rank: usize) {
        self.groups[n * self.words + rank / 64] ^= 1u64 << (rank % 64);
    }

    /// Moves request `j` of rank `rank` from group `from` to group `to`.
    fn regroup(&mut self, j: usize, rank: usize, from: usize, to: usize) {
        self.flip(from, rank);
        self.flip(to, rank);
        self.group_of[j] = to;
        self.mark(from);
        self.mark(to);
    }

    /// Queues node `n`'s group for re-keying at the end of the step.
    fn mark(&mut self, n: usize) {
        if !self.nodes[n].dirty {
            self.nodes[n].dirty = true;
            self.dirty.push(n);
        }
    }

    /// Re-keys every group the step touched, once: set, insert or remove.
    fn rekey_dirty(&mut self) {
        while let Some(n) = self.dirty.pop() {
            self.nodes[n].dirty = false;
            let slot = self.nodes[n].slot;
            match self.head(n) {
                Some(head) => {
                    self.nodes[n].head = head;
                    let key = (u128::from(self.nodes[n].eff) << 64) | head as u128;
                    if slot == NONE {
                        self.heap.push((key, n));
                        self.sift_up(self.heap.len() - 1);
                    } else {
                        self.replace(slot, (key, n));
                    }
                }
                None if slot != NONE => {
                    self.nodes[n].slot = NONE;
                    if let Some(last) = self.heap.pop() {
                        if slot < self.heap.len() {
                            self.replace(slot, last);
                        }
                    }
                }
                None => {}
            }
        }
        #[cfg(test)]
        {
            self.tally.peak_len = self.tally.peak_len.max(self.heap.len());
        }
    }

    /// Stores `entry` at `slot` and sifts it in whichever direction its key
    /// differs from the entry it replaces — one direction suffices, the
    /// replaced key having been in heap order with its parent and children.
    fn replace(&mut self, slot: usize, entry: (u128, usize)) {
        let old = std::mem::replace(&mut self.heap[slot], entry);
        if entry.0 > old.0 {
            self.sift_up(slot);
        } else {
            self.sift_down(slot);
        }
    }

    fn sift_up(&mut self, mut slot: usize) {
        let entry = self.heap[slot];
        while slot > 0 {
            let parent = (slot - 1) / 2;
            if self.heap[parent].0 >= entry.0 {
                break;
            }
            self.put(slot, self.heap[parent]);
            slot = parent;
        }
        self.put(slot, entry);
    }

    fn sift_down(&mut self, mut slot: usize) {
        let entry = self.heap[slot];
        loop {
            let mut child = 2 * slot + 1;
            let Some(&left) = self.heap.get(child) else {
                break;
            };
            let mut larger = left;
            if let Some(&right) = self.heap.get(child + 1).filter(|r| r.0 > larger.0) {
                larger = right;
                child += 1;
            }
            if entry.0 >= larger.0 {
                break;
            }
            self.put(slot, larger);
            slot = child;
        }
        self.put(slot, entry);
    }

    fn put(&mut self, slot: usize, entry: (u128, usize)) {
        self.heap[slot] = entry;
        self.nodes[entry.1].slot = slot;
    }

    /// What the router did during the last scan routed with this `Scratch`.
    #[cfg(test)]
    pub(super) fn tally(&self) -> &Tally {
        &self.tally
    }
}

/// Eq. 11 inner minimum: the candidate with the smallest effective wait,
/// ties toward the smaller node id.
fn best(req: &FragmentRequest, nodes: &[Node]) -> Result<(u64, usize), RouteError> {
    let key = |n: &NodeId| Some((nodes.get(n.index())?.eff, n.index()));
    // Candidates are validated nonempty and in the view before routing; a
    // miss is a router bug, surfaced typed rather than as a panic.
    let breach = RouteError::InvariantBreach {
        fragment: req.fragment,
    };
    req.candidates.iter().filter_map(key).min().ok_or(breach)
}

impl MaxOfMins {
    /// Validates the scan the way `validate_requests` does — the same
    /// errors in the same request order — while it counts each node's
    /// listers, files every request under its first minimum and ranks it;
    /// then builds the inverted lists, the groups and the heap.
    fn group(
        &self,
        requests: &[FragmentRequest],
        queues: &QueueView,
        s: &mut Scratch,
    ) -> Result<(), RouteError> {
        for (i, req) in requests.iter().enumerate() {
            if req.candidates.is_empty() {
                return Err(RouteError::NoReplicas {
                    fragment: req.fragment,
                });
            }
            let choice = req.candidates.len() > 1;
            let mut min = (u64::MAX, NONE);
            for &c in &req.candidates {
                let n = c.index();
                let Some(node) = s.nodes.get_mut(n) else {
                    return Err(RouteError::UnknownNode {
                        fragment: req.fragment,
                        node: c,
                    });
                };
                if !node.seen {
                    let eff = queues.wait(c).saturating_add(self.phi);
                    *node = Node {
                        eff,
                        slot: NONE,
                        seen: true,
                        ..Node::default()
                    };
                    s.touched.push(n);
                    for w in n * s.words..(n + 1) * s.words {
                        s.groups[w] = 0;
                    }
                }
                node.len += usize::from(choice);
                min = min.min((node.eff, n));
            }
            s.group_of.push(min.1);
            s.ranked.push((req.size, Reverse(req.fragment), Reverse(i)));
        }
        let mut end = 0;
        for &n in &s.touched {
            let node = &mut s.nodes[n];
            node.start = end;
            end += std::mem::take(&mut node.len);
        }
        s.listers.resize(end, 0);
        for (i, req) in requests.iter().enumerate() {
            if req.candidates.len() > 1 {
                for c in &req.candidates {
                    let node = &mut s.nodes[c.index()];
                    s.listers[node.start + node.len] = i;
                    node.len += 1;
                }
            }
        }
        s.ranked.sort_unstable();
        // Highest rank first, so a group's first member is its head.
        for rank in (0..s.ranked.len()).rev() {
            let Reverse(i) = s.ranked[rank].2;
            s.rank_of[i] = rank;
            let n = s.group_of[i];
            s.flip(n, rank);
            if requests[i].candidates.len() > 1 {
                s.multi[rank / 64] |= 1u64 << (rank % 64);
            }
            let node = &mut s.nodes[n];
            if node.slot == NONE {
                (node.head, node.slot) = (rank, s.heap.len());
                s.heap
                    .push(((u128::from(node.eff) << 64) | rank as u128, n));
            }
        }
        for slot in (0..s.heap.len() / 2).rev() {
            s.sift_down(slot);
        }
        #[cfg(test)]
        {
            s.tally.peak_len = s.heap.len();
        }
        Ok(())
    }
}

impl ScanRouter for MaxOfMins {
    /// The one production Eq. 11 loop.
    fn route_into(
        &self,
        requests: &[FragmentRequest],
        queues: &mut QueueView,
        s: &mut Scratch,
        out: &mut Vec<Assignment>,
    ) -> Result<(), RouteError> {
        s.reset_for_scan(queues.len(), requests.len());
        self.group(requests, queues, s)?;
        while let Some(&(_, n)) = s.heap.first() {
            let rank = s.nodes[n].head;
            let Reverse(i) = s.ranked[rank].2;
            s.flip(n, rank);
            s.group_of[i] = NONE;
            s.mark(n);
            let req = &requests[i];
            let node = NodeId(n as u64);
            queues.enqueue(node, req.size);
            out.push(Assignment {
                fragment: req.fragment,
                node,
            });
            let was = s.nodes[n].eff;
            let eff = queues.wait(node); // placed here ⇒ no penalty
            s.nodes[n].eff = eff;
            if eff < was {
                // The first read here was smaller than ϕ: only `n`'s
                // listers can gain, and its own members stay.
                let Node { start, len, .. } = s.nodes[n];
                #[cfg(test)]
                s.tally.walked.extend((len > 0).then_some(n));
                for l in start..start + len {
                    let j = s.listers[l];
                    let m = s.group_of[j];
                    if m != NONE && m != n && (eff, n) < (s.nodes[m].eff, m) {
                        s.regroup(j, s.rank_of[j], m, n);
                    }
                }
            } else if eff > was {
                // Only `n`'s members can lose; those with one candidate
                // have nowhere to go.
                for w in 0..s.words {
                    let mut bits = s.groups[n * s.words + w] & s.multi[w];
                    while bits != 0 {
                        let rank = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let Reverse(j) = s.ranked[rank].2;
                        #[cfg(test)]
                        {
                            s.tally.rederived += 1;
                        }
                        let (_, m) = best(&requests[j], &s.nodes)?;
                        if m != n {
                            s.regroup(j, rank, n, m);
                        }
                    }
                }
            }
            s.rekey_dirty();
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "max-of-mins"
    }
}
