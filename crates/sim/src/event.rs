//! A stable-ordered discrete-event queue.
//!
//! Events are popped in nondecreasing time order; ties are broken by
//! insertion order (FIFO), which keeps simulations deterministic even when
//! many events share a timestamp (common with integer clocks).
//!
//! Every event draws a sequence number when it is scheduled, and a pop takes
//! the minimum `(at, seq)` — the order one heap over every pending event
//! would give. The queue keeps events in three kinds of store, so that a pop
//! costs a comparison per store plus the logarithm of what is scheduled out
//! of order, not of everything pending:
//!
//! * **Lanes** ([`EventQueue::schedule_in`]): FIFO runs, one per stream its
//!   caller schedules in time order — a workload's arrivals loaded before
//!   the run (the default lane, which [`EventQueue::schedule`] fills), a
//!   fault schedule, periodic timers, the completions of a FIFO link. An
//!   event joins its lane when its time is no earlier than the lane's tail,
//!   and `seq` only grows, so every lane is sorted by `(at, seq)`.
//! * **Slots** ([`EventQueue::schedule_slot`]): at most one pending event
//!   per numbered slot — a server's one job in service — in a binary
//!   min-heap whose entries carry their keys inline. Popping a slot's event
//!   leaves its entry at the root, *vacant*; the slot's next event re-keys
//!   it there with one sift instead of a pop and a push.
//! * **The fallback heap**: a lane's event that falls below the lane's tail,
//!   and a slot's event moved out by [`EventQueue::release_slot`] with the
//!   `(at, seq)` it was scheduled with.
//!
//! Each store yields its own `(at, seq)` minimum, so the smallest of their
//! heads is the global minimum: which store holds an event never changes
//! when it pops.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// A pending event: a payload scheduled at a point in simulated time.
#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (then
        // first-inserted) event is the "largest".
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A FIFO lane of one [`EventQueue`], issued by [`EventQueue::add_lane`].
/// `Lane::default()` is the lane [`EventQueue::schedule`] fills.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lane(usize);

/// A slot's entry in the slot heap, its key inline so a sift reads no
/// payload.
#[derive(Debug, Clone, Copy)]
struct SlotKey {
    at: SimTime,
    seq: u64,
    slot: usize,
}

impl SlotKey {
    /// `(at, seq)` packed into one integer, so an order test is one
    /// comparison rather than two branches.
    fn key(&self) -> u128 {
        (u128::from(self.at.as_nanos()) << 64) | u128::from(self.seq)
    }
}

/// The slots: a binary min-heap by `(at, seq)` over the occupied ones, and
/// each slot's pending payload.
#[derive(Debug)]
struct Slots<E> {
    heap: Vec<SlotKey>,
    /// Indexed by slot.
    payloads: Vec<Option<E>>,
    /// `heap[0]`'s event has popped and its slot holds nothing yet. Its key
    /// — the last one popped — is no later than any other in the heap,
    /// because nothing is scheduled before the clock, so heap order holds
    /// and the pending minimum is one of the root's two children.
    vacant: bool,
}

impl<E> Slots<E> {
    fn len(&self) -> usize {
        self.heap.len() - usize::from(self.vacant)
    }

    /// The pending minimum; a vacant root reads as absent.
    fn head(&self) -> Option<&SlotKey> {
        if !self.vacant {
            return self.heap.first();
        }
        match (self.heap.get(1), self.heap.get(2)) {
            (Some(left), Some(right)) if right.key() < left.key() => Some(right),
            (left, _) => left,
        }
    }

    fn peek(&self) -> Option<(SimTime, &E)> {
        let head = self.head()?;
        let payload = self.payloads.get(head.slot)?.as_ref()?;
        Some((head.at, payload))
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        if std::mem::take(&mut self.vacant) {
            self.remove(0);
        }
        let root = *self.heap.first()?;
        let payload = self.payloads.get_mut(root.slot)?.take()?;
        self.vacant = true;
        Some((root.at, payload))
    }

    fn push(&mut self, key: SlotKey) {
        self.heap.push(key);
        self.sift_up(self.heap.len() - 1);
    }

    /// Removes the entry at `i`, restoring heap order.
    fn remove(&mut self, i: usize) -> SlotKey {
        let removed = self.heap.swap_remove(i);
        if i < self.heap.len() {
            self.sift_down(i);
            self.sift_up(i);
        }
        removed
    }

    fn sift_up(&mut self, mut i: usize) {
        let heap = &mut self.heap[..];
        let moving = heap[i];
        let key = moving.key();
        while i > 0 {
            let parent = (i - 1) / 2;
            if heap[parent].key() <= key {
                break;
            }
            heap[i] = heap[parent];
            i = parent;
        }
        heap[i] = moving;
    }

    fn sift_down(&mut self, mut i: usize) {
        let heap = &mut self.heap[..];
        let end = heap.len();
        let moving = heap[i];
        let key = moving.key();
        let mut child = 2 * i + 1;
        while child + 1 < end {
            // The smaller child without a branch: on random keys a branch
            // here mispredicts half the time.
            child += usize::from(heap[child + 1].key() < heap[child].key());
            if key <= heap[child].key() {
                break;
            }
            heap[i] = heap[child];
            i = child;
            child = 2 * i + 1;
        }
        if child + 1 == end && heap[child].key() < key {
            heap[i] = heap[child];
            i = child;
        }
        heap[i] = moving;
    }

    fn clear(&mut self) {
        self.heap.clear();
        self.payloads.clear();
        self.vacant = false;
    }
}

/// Where the next event sits.
#[derive(Debug, Clone, Copy)]
enum Store {
    Lane(usize),
    Heap,
    Slots,
}

/// What a queue did with the events scheduled into it: the work bound as
/// counts. Kept only in builds with debug assertions — every `cargo test`
/// build — for tests to read; a release build carries none of it.
#[cfg(debug_assertions)]
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Tally {
    /// Per lane, events that fell below the lane's tail into the fallback
    /// heap.
    spilled: Vec<u64>,
    /// Slot events moved into the fallback heap by a release.
    pub released: u64,
    /// Slot events that re-keyed the vacant root in place.
    pub rekeyed: u64,
    /// Slot events pushed into the slot heap.
    pub pushed: u64,
}

#[cfg(debug_assertions)]
impl Tally {
    /// Events scheduled into `lane` that went to the fallback heap.
    pub fn spilled(&self, lane: Lane) -> u64 {
        self.spilled.get(lane.0).copied().unwrap_or(0)
    }
}

/// A discrete-event queue with deterministic FIFO tie-breaking.
///
/// ```
/// use nashdb_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), "later");
/// q.schedule(SimTime::from_secs(1), "first");
/// q.schedule(SimTime::from_secs(1), "second");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "first")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "second")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "later")));
/// assert_eq!(q.pop(), None);
/// ```
///
/// Streams the caller schedules in time order can have lanes of their own,
/// and a server's one pending completion a slot; the pop order is the same
/// whichever way an event was scheduled:
///
/// ```
/// use nashdb_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// let timers = q.add_lane();
/// q.schedule_in(timers, SimTime::from_secs(3), "timer");
/// q.schedule_slot(0, SimTime::from_secs(1), "disk 0 done");
/// q.schedule(SimTime::from_secs(2), "arrival");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "disk 0 done")));
/// // Slot 0's next job re-keys its entry in place.
/// q.schedule_slot(0, SimTime::from_secs(4), "disk 0 done again");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "arrival")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(3), "timer")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(4), "disk 0 done again")));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// FIFO lanes, each sorted by `(at, seq)`; lane 0 is the default.
    lanes: Vec<VecDeque<Scheduled<E>>>,
    /// Lane events below their lane's tail, and released slot events.
    heap: BinaryHeap<Scheduled<E>>,
    slots: Slots<E>,
    next_seq: u64,
    now: SimTime,
    #[cfg(debug_assertions)]
    tally: Tally,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue, with only the default lane, and the clock at
    /// [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            lanes: vec![VecDeque::new()],
            heap: BinaryHeap::new(),
            slots: Slots {
                heap: Vec::new(),
                payloads: Vec::new(),
                vacant: false,
            },
            next_seq: 0,
            now: SimTime::ZERO,
            #[cfg(debug_assertions)]
            tally: Tally {
                spilled: vec![0],
                ..Tally::default()
            },
        }
    }

    /// The current simulated time: the timestamp of the most recently popped
    /// event (or zero before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum::<usize>() + self.heap.len() + self.slots.len()
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Makes room in `lane` for `additional` more events without growing
    /// it, for a caller about to load a stream of known length. A lane
    /// this queue did not issue has nothing to reserve.
    pub fn reserve(&mut self, lane: Lane, additional: usize) {
        if let Some(run) = self.lanes.get_mut(lane.0) {
            run.reserve(additional);
        }
    }

    /// Adds a FIFO lane for a stream the caller schedules in time order.
    /// Only lanes this queue issued are lanes of it; an event scheduled into
    /// any other goes to the fallback heap, still in order.
    pub fn add_lane(&mut self) -> Lane {
        self.lanes.push(VecDeque::new());
        #[cfg(debug_assertions)]
        self.tally.spilled.push(0);
        Lane(self.lanes.len() - 1)
    }

    /// Draws the sequence number of an event at `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock — an event scheduled
    /// in the past indicates a simulation bug, not a recoverable condition.
    fn next_seq(&mut self, at: SimTime) -> u64 {
        assert!(
            at >= self.now,
            "event scheduled in the past: {at} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `payload` to fire at time `at`, in the default lane.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock — an event scheduled
    /// in the past indicates a simulation bug, not a recoverable condition.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        self.schedule_in(Lane::default(), at, payload);
    }

    /// Schedules `payload` to fire at time `at`, at the tail of `lane` if it
    /// is no earlier than the lane's tail and in the fallback heap
    /// otherwise. Either way it pops in `(at, scheduling order)`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock.
    pub fn schedule_in(&mut self, lane: Lane, at: SimTime, payload: E) {
        let seq = self.next_seq(at);
        let event = Scheduled { at, seq, payload };
        match self.lanes.get_mut(lane.0) {
            Some(run) if run.back().is_none_or(|tail| tail.at <= at) => run.push_back(event),
            _ => {
                self.heap.push(event);
                #[cfg(debug_assertions)]
                if let Some(spilled) = self.tally.spilled.get_mut(lane.0) {
                    *spilled += 1;
                }
            }
        }
    }

    /// Schedules `payload` to fire at time `at` as `slot`'s one pending
    /// event. Slots are numbered densely from 0; the queue keeps an entry
    /// per slot up to the largest used. If the slot's last event is the
    /// last slot event popped, its entry is re-keyed in place; if the slot
    /// still holds a pending event, that one is first released as by
    /// [`release_slot`](Self::release_slot).
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock.
    pub fn schedule_slot(&mut self, slot: usize, at: SimTime, payload: E) {
        let seq = self.next_seq(at);
        let key = SlotKey { at, seq, slot };
        let slots = &mut self.slots;
        if slots.vacant && slots.heap.first().is_some_and(|root| root.slot == slot) {
            slots.heap[0] = key;
            slots.vacant = false;
            slots.sift_down(0);
            #[cfg(debug_assertions)]
            {
                self.tally.rekeyed += 1;
            }
        } else {
            self.release_slot(slot);
            self.slots.push(key);
            #[cfg(debug_assertions)]
            {
                self.tally.pushed += 1;
            }
        }
        let payloads = &mut self.slots.payloads;
        if payloads.len() <= slot {
            payloads.resize_with(slot + 1, || None);
        }
        payloads[slot] = Some(payload);
    }

    /// Moves `slot`'s pending event, if any, to the fallback heap with the
    /// `(at, seq)` it was scheduled with: it still pops, at the same point
    /// of the order, and the slot is free for a new event.
    pub fn release_slot(&mut self, slot: usize) {
        let slots = &mut self.slots;
        let Some(payload) = slots.payloads.get_mut(slot).and_then(Option::take) else {
            return;
        };
        // An occupied slot has one entry. The search is linear, over at most
        // one entry per slot, and a release is rare.
        let Some(i) = slots.heap.iter().position(|k| k.slot == slot) else {
            return;
        };
        let key = slots.remove(i);
        self.heap.push(Scheduled {
            at: key.at,
            seq: key.seq,
            payload,
        });
        #[cfg(debug_assertions)]
        {
            self.tally.released += 1;
        }
    }

    /// The store holding the next event.
    fn next_store(&self) -> Option<Store> {
        // A plain loop: an iterator chain with `min_by_key` here cost ≈ 40 ns
        // a pop on a cluster-shaped stream.
        let mut best = self.heap.peek().map(|s| ((s.at, s.seq), Store::Heap));
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(head) = lane.front() {
                let key = (head.at, head.seq);
                if best.is_none_or(|(least, _)| key < least) {
                    best = Some((key, Store::Lane(i)));
                }
            }
        }
        if let Some(head) = self.slots.head() {
            let key = (head.at, head.seq);
            if best.is_none_or(|(least, _)| key < least) {
                best = Some((key, Store::Slots));
            }
        }
        best.map(|(_, store)| store)
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek().map(|(at, _)| at)
    }

    /// The next event — timestamp and a borrow of its payload — without
    /// popping it or advancing the clock. Lets callers batch coincident
    /// events: inspect the head, and only pop when it belongs to the batch.
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        match self.next_store()? {
            Store::Lane(i) => self.lanes[i].front().map(|s| (s.at, &s.payload)),
            Store::Heap => self.heap.peek().map(|s| (s.at, &s.payload)),
            Store::Slots => self.slots.peek(),
        }
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, payload) = match self.next_store()? {
            Store::Lane(i) => self.lanes[i].pop_front().map(|s| (s.at, s.payload))?,
            Store::Heap => self.heap.pop().map(|s| (s.at, s.payload))?,
            Store::Slots => self.slots.pop()?,
        };
        self.now = at;
        Some((at, payload))
    }

    /// Drops all pending events without advancing the clock.
    pub fn clear(&mut self) {
        self.lanes.iter_mut().for_each(VecDeque::clear);
        self.heap.clear();
        self.slots.clear();
    }

    /// What the queue has done so far, as counts.
    #[cfg(debug_assertions)]
    pub fn tally(&self) -> &Tally {
        &self.tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for secs in [5u64, 1, 3, 2, 4] {
            q.schedule(SimTime::from_secs(secs), secs);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(7));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        q.pop();
        q.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    fn interleaved_scheduling_is_stable() {
        // Events scheduled *while draining* still honour time order and FIFO.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), "a");
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, "a");
        q.schedule(t + SimDuration::from_secs(1), "b");
        q.schedule(t + SimDuration::from_secs(1), "c");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn peek_and_clear() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        assert!(q.is_empty());
        q.schedule(SimTime::from_secs(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3)));
        assert_eq!(q.len(), 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
    }

    #[test]
    fn peek_exposes_the_head_without_popping() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek(), None);
        q.schedule(SimTime::from_secs(2), "later");
        q.schedule(SimTime::from_secs(1), "first");
        q.schedule(SimTime::from_secs(1), "second");
        // FIFO tie-break is visible through peek, and peek neither pops
        // nor advances the clock.
        assert_eq!(q.peek(), Some((SimTime::from_secs(1), &"first")));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "first")));
        assert_eq!(q.peek(), Some((SimTime::from_secs(1), &"second")));
    }

    /// Pops `q` once and checks it against `reference`, a list popped by
    /// minimum `(at, insertion index)`, through `peek`, `peek_time`, `pop`
    /// and `len`.
    fn pop_and_check(q: &mut EventQueue<u32>, reference: &mut Vec<(u64, u32)>) {
        let expected = reference.iter().copied().min();
        reference.retain(|&e| Some(e) != expected);
        let expected = expected.map(|(at, id)| (SimTime::from_nanos(at), id));
        assert_eq!(q.peek().map(|(at, &id)| (at, id)), expected);
        assert_eq!(q.peek_time(), expected.map(|(at, _)| at));
        assert_eq!(q.pop(), expected);
        assert_eq!(q.len(), reference.len());
    }

    #[test]
    fn sorted_run_and_heap_pop_as_one_stable_queue() {
        // The shape a cluster run has: a time-ordered bulk (it fills the
        // run), then stragglers below its tail (the heap), equal timestamps
        // on both sides, scheduling at `now` once the run has drained, and a
        // `clear` in the middle.
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, u32)> = Vec::new();
        let mut next = 0u32;
        let mut schedule = |q: &mut EventQueue<u32>, reference: &mut Vec<(u64, u32)>, at: u64| {
            q.schedule(SimTime::from_nanos(at), next);
            reference.push((at, next));
            next += 1;
        };
        for at in [2, 2, 5, 5, 9, 9, 9, 14] {
            schedule(&mut q, &mut reference, at);
        }
        for at in [7, 2, 9, 3, 14, 1] {
            schedule(&mut q, &mut reference, at);
        }
        for _ in 0..6 {
            pop_and_check(&mut q, &mut reference);
        }
        // Mid-drain: at `now`, below the run's tail, and past it.
        let now = q.now().as_nanos();
        for at in [now, now, 14, 20, now + 1] {
            schedule(&mut q, &mut reference, at);
        }
        for _ in 0..4 {
            pop_and_check(&mut q, &mut reference);
        }
        q.clear();
        reference.clear();
        assert!(q.is_empty());
        pop_and_check(&mut q, &mut reference);
        // The run is empty again: the next events restart it at `now`.
        let now = q.now().as_nanos();
        for at in [now, now + 3, now, now + 3, now + 1] {
            schedule(&mut q, &mut reference, at);
        }
        while !reference.is_empty() {
            pop_and_check(&mut q, &mut reference);
        }
        pop_and_check(&mut q, &mut reference);
    }

    /// The slot heap's index arithmetic: every entry no earlier than its
    /// parent, one entry per occupied slot, and `len` counting the vacancy
    /// out.
    fn assert_slot_heap(q: &EventQueue<u32>) {
        let slots = &q.slots;
        for (i, entry) in slots.heap.iter().enumerate().skip(1) {
            assert!(
                slots.heap[(i - 1) / 2].key() <= entry.key(),
                "heap order at {i}"
            );
        }
        let occupied = slots.payloads.iter().filter(|p| p.is_some()).count();
        assert_eq!(slots.len(), occupied);
        for (i, entry) in slots.heap.iter().enumerate() {
            let vacant_root = i == 0 && slots.vacant;
            assert_eq!(
                slots.payloads[entry.slot].is_some(),
                !vacant_root,
                "entry {i}"
            );
        }
    }

    #[test]
    fn popped_slot_is_rekeyed_in_place_and_peek_reads_past_the_vacancy() {
        let mut q = EventQueue::new();
        for (slot, at) in [(0, 1), (1, 4), (2, 3), (3, 6), (4, 5)] {
            q.schedule_slot(slot, SimTime::from_secs(at), u32::try_from(slot).unwrap());
        }
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 0)));
        // The root is vacant: `peek` answers from its children and `len`
        // does not count it.
        assert!(q.slots.vacant);
        assert_slot_heap(&q);
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek(), Some((SimTime::from_secs(3), &2)));
        // Another slot's event leaves the vacancy where it is ...
        q.schedule_slot(5, SimTime::from_secs(2), 5);
        assert!(q.slots.vacant);
        assert_slot_heap(&q);
        assert_eq!(q.peek(), Some((SimTime::from_secs(2), &5)));
        // ... and slot 0's next event takes its entry back.
        q.schedule_slot(0, SimTime::from_secs(7), 0);
        assert!(!q.slots.vacant);
        assert_slot_heap(&q);
        #[cfg(debug_assertions)]
        assert_eq!((q.tally().rekeyed, q.tally().pushed), (1, 6));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![5, 2, 1, 4, 3, 0]);
        assert!(q.is_empty());
    }

    #[test]
    fn released_slot_event_pops_where_it_was() {
        let mut q = EventQueue::new();
        q.schedule_slot(0, SimTime::from_secs(5), 0);
        q.schedule_slot(1, SimTime::from_secs(2), 1);
        q.schedule(SimTime::from_secs(5), 2);
        q.release_slot(0);
        q.release_slot(0); // nothing left to release
        q.release_slot(9); // never used
        assert_slot_heap(&q);
        assert_eq!(q.len(), 3);
        // The freed slot takes a new event, which ties the released one's
        // time and was scheduled after it.
        q.schedule_slot(0, SimTime::from_secs(5), 3);
        // Scheduling into a slot that still holds an event releases it.
        q.schedule_slot(1, SimTime::from_secs(1), 4);
        assert_slot_heap(&q);
        #[cfg(debug_assertions)]
        assert_eq!(q.tally().released, 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![4, 1, 0, 2, 3]);
    }

    #[test]
    fn release_refills_from_the_other_subtree() {
        // Pushed in this order, the slot heap is laid out as the times read.
        // Releasing slot 3 (time 6, under 5) refills its entry with the last
        // one, slot 6 (time 4), which must then rise above 5.
        let mut q = EventQueue::new();
        for (slot, at) in [1, 5, 2, 6, 7, 3, 4].into_iter().enumerate() {
            q.schedule_slot(slot, SimTime::from_secs(at), u32::try_from(slot).unwrap());
        }
        q.release_slot(3);
        assert_slot_heap(&q);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 2, 5, 6, 1, 3, 4]);
    }

    #[test]
    fn lanes_slots_and_heap_pop_as_one_stable_queue() {
        // A seeded script over every store — two lanes besides the default,
        // eight slots (so a release can pull an entry from one subtree of
        // the slot heap and refill it from the other), releases, clears —
        // against the stable sort.
        let mut q = EventQueue::new();
        let lanes = [Lane::default(), q.add_lane(), q.add_lane()];
        let mut reference: Vec<(u64, u32)> = Vec::new();
        let mut id = 0u32;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            usize::try_from((state >> 33) % bound).unwrap()
        };
        for _ in 0..400 {
            match next(10) {
                0..=4 => {
                    let at = q.now().as_nanos() + next(6) as u64;
                    let time = SimTime::from_nanos(at);
                    match next(3) {
                        0 => q.schedule_in(lanes[next(3)], time, id),
                        1 => q.schedule_slot(next(8), time, id),
                        _ => q.schedule(time, id),
                    }
                    reference.push((at, id));
                    id += 1;
                }
                5 => q.release_slot(next(9)),
                6 if next(8) == 0 => {
                    q.clear();
                    reference.clear();
                }
                _ => pop_and_check(&mut q, &mut reference),
            }
            assert_slot_heap(&q);
            assert_eq!(q.len(), reference.len());
        }
        while !reference.is_empty() {
            pop_and_check(&mut q, &mut reference);
        }
        pop_and_check(&mut q, &mut reference);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn in_order_lanes_spill_nothing() {
        let mut q = EventQueue::new();
        let timers = q.add_lane();
        for secs in [1, 2, 2, 5] {
            q.schedule_in(timers, SimTime::from_secs(secs), 0u32);
        }
        q.schedule(SimTime::from_secs(9), 0);
        q.schedule(SimTime::from_secs(3), 0);
        q.schedule_in(timers, SimTime::from_secs(4), 0);
        assert_eq!(q.tally().spilled(timers), 1);
        assert_eq!(q.tally().spilled(Lane::default()), 1);
        assert_eq!(q.tally().spilled(Lane(7)), 0);
    }
}
