//! A stable-ordered discrete-event queue.
//!
//! Events are popped in nondecreasing time order; ties are broken by
//! insertion order (FIFO), which keeps simulations deterministic even when
//! many events share a timestamp (common with integer clocks).
//!
//! Events scheduled in time order — a whole workload's arrivals, loaded
//! before the run — are kept in a FIFO *run* beside the heap rather than in
//! it, so the heap holds only what was scheduled out of order (in a cluster
//! simulation: about one completion per node) and a pop costs the logarithm
//! of that, not of the workload's length. The run is sorted by `(at, seq)`
//! because an event joins it only when its time is no earlier than the
//! run's tail and `seq` only grows; the heap yields its own minimum; so the
//! smaller of the two heads is the global minimum and the pop order is the
//! one a single heap would produce.

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
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Events that arrived in `(at, seq)` order, oldest first.
    run: VecDeque<Scheduled<E>>,
    /// Every other event.
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            run: VecDeque::new(),
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulated time: the timestamp of the most recently popped
    /// event (or zero before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }

    /// Schedules `payload` to fire at time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock — an event scheduled
    /// in the past indicates a simulation bug, not a recoverable condition.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: {at} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let event = Scheduled { at, seq, payload };
        match self.run.back() {
            Some(tail) if at < tail.at => self.heap.push(event),
            _ => self.run.push_back(event),
        }
    }

    /// Whether the next event is the run's head (else the heap's). `Ord` on
    /// [`Scheduled`] is inverted for the max-heap, so "greater" is earlier.
    fn run_is_next(&self) -> bool {
        match (self.run.front(), self.heap.peek()) {
            (Some(run), Some(heap)) => run > heap,
            (run, _) => run.is_some(),
        }
    }

    fn head(&self) -> Option<&Scheduled<E>> {
        if self.run_is_next() {
            self.run.front()
        } else {
            self.heap.peek()
        }
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.head().map(|s| s.at)
    }

    /// The next event — timestamp and a borrow of its payload — without
    /// popping it or advancing the clock. Lets callers batch coincident
    /// events: inspect the head, and only pop when it belongs to the batch.
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        self.head().map(|s| (s.at, &s.payload))
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = if self.run_is_next() {
            self.run.pop_front()
        } else {
            self.heap.pop()
        }?;
        self.now = s.at;
        Some((s.at, s.payload))
    }

    /// Drops all pending events without advancing the clock.
    pub fn clear(&mut self) {
        self.run.clear();
        self.heap.clear();
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

    #[test]
    fn sorted_run_and_heap_pop_as_one_stable_queue() {
        // The shape a cluster run has: a time-ordered bulk (it fills the
        // run), then stragglers below its tail (the heap), equal timestamps
        // on both sides, scheduling at `now` once the run has drained, and a
        // `clear` in the middle. The reference is a list popped by minimum
        // `(at, insertion index)`.
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, u32)> = Vec::new();
        let mut next = 0u32;
        let mut schedule = |q: &mut EventQueue<u32>, reference: &mut Vec<(u64, u32)>, at: u64| {
            q.schedule(SimTime::from_nanos(at), next);
            reference.push((at, next));
            next += 1;
        };
        let pop_and_check = |q: &mut EventQueue<u32>, reference: &mut Vec<(u64, u32)>| {
            let expected = reference.iter().copied().min();
            reference.retain(|&e| Some(e) != expected);
            let expected = expected.map(|(at, id)| (SimTime::from_nanos(at), id));
            assert_eq!(q.peek().map(|(at, &id)| (at, id)), expected);
            assert_eq!(q.peek_time(), expected.map(|(at, _)| at));
            assert_eq!(q.pop(), expected);
            assert_eq!(q.len(), reference.len());
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
}
