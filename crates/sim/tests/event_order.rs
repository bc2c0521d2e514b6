//! `EventQueue` against its specification: whatever the interleaving of
//! `schedule`, `pop`, `peek` and `clear`, events leave in the order a stable
//! sort by `(time, insertion index)` would give them — whether they sat in
//! the queue's sorted run or in its heap.

use proptest::prelude::*;

use nashdb_sim::{EventQueue, SimTime};

/// One step of a script. Times are offsets from the clock at that step, so
/// every script is schedulable.
#[derive(Debug, Clone, Copy)]
enum Op {
    Schedule { ahead: u64 },
    Pop,
    Peek,
    Clear,
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Offsets from a handful of values: equal timestamps are the common
    // case, `0` is schedule-at-`now`.
    (0u32..20, 0u64..6).prop_map(|(kind, ahead)| match kind {
        0..=9 => Op::Schedule { ahead },
        10..=16 => Op::Pop,
        17..=18 => Op::Peek,
        _ => Op::Clear,
    })
}

/// The specification: a list popped by minimum `(at, insertion index)`.
#[derive(Debug, Default)]
struct Reference {
    pending: Vec<(u64, u32)>,
    now: u64,
}

impl Reference {
    fn head(&self) -> Option<(u64, u32)> {
        self.pending.iter().copied().min()
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        let head = self.head()?;
        self.pending.retain(|&e| e != head);
        self.now = head.0;
        Some(head)
    }
}

proptest! {
    #[test]
    fn pops_match_a_stable_sort(
        bulk in proptest::collection::vec(0u64..4, 0..40),
        script in proptest::collection::vec(arb_op(), 1..200),
    ) {
        let mut queue: EventQueue<u32> = EventQueue::new();
        let mut reference = Reference::default();
        let mut next = 0u32;
        // A time-ordered prefix, as a driver loading a workload produces.
        let mut at = 0u64;
        for step in bulk {
            at += step;
            queue.schedule(SimTime::from_nanos(at), next);
            reference.pending.push((at, next));
            next += 1;
        }
        let timed = |e: (u64, u32)| (SimTime::from_nanos(e.0), e.1);
        for op in script {
            match op {
                Op::Schedule { ahead } => {
                    let at = reference.now + ahead;
                    queue.schedule(SimTime::from_nanos(at), next);
                    reference.pending.push((at, next));
                    next += 1;
                }
                Op::Pop => prop_assert_eq!(queue.pop(), reference.pop().map(timed)),
                Op::Peek => {
                    let expected = reference.head().map(timed);
                    prop_assert_eq!(queue.peek().map(|(at, &id)| (at, id)), expected);
                    prop_assert_eq!(queue.peek_time(), expected.map(|(at, _)| at));
                }
                Op::Clear => {
                    queue.clear();
                    reference.pending.clear();
                }
            }
            prop_assert_eq!(queue.len(), reference.pending.len());
            prop_assert_eq!(queue.is_empty(), reference.pending.is_empty());
            prop_assert_eq!(queue.now(), SimTime::from_nanos(reference.now));
        }
        // Drain what is left: the tail of the order is checked too.
        while let Some(expected) = reference.pop() {
            prop_assert_eq!(queue.pop(), Some(timed(expected)));
        }
        prop_assert_eq!(queue.pop(), None);
    }
}
