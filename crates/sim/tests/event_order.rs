//! `EventQueue` against its specification: whatever the interleaving of
//! scheduling — into the default lane, another lane or a slot — with
//! `release_slot`, `pop` and `clear`, events leave in the order a stable
//! sort by `(time, insertion index)` would give them, whichever store held
//! them: a lane, the slot heap (through a vacant root) or the fallback heap.

use proptest::prelude::*;

use nashdb_sim::{EventQueue, SimTime};

/// Where a scheduled event goes.
#[derive(Debug, Clone, Copy)]
enum Dest {
    Default,
    /// One of two lanes besides the default.
    Lane(usize),
    /// One of three slots.
    Slot(usize),
}

/// One step of a script. Times are offsets from the clock at that step, so
/// every script is schedulable, and a lane whose tail is ahead of the clock
/// takes some events below it.
#[derive(Debug, Clone, Copy)]
enum Op {
    Schedule {
        ahead: u64,
        dest: Dest,
    },
    Pop,
    /// Slots 0–2 are in use; slot 3 never is.
    Release(usize),
    Clear,
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Offsets from a handful of values: equal timestamps are the common
    // case, `0` is schedule-at-`now`.
    (0u32..24, 0u64..6, 0usize..6).prop_map(|(kind, ahead, pick)| match kind {
        0..=11 => {
            let dest = match pick {
                0 => Dest::Default,
                1 | 2 => Dest::Lane(pick - 1),
                _ => Dest::Slot(pick - 3),
            };
            Op::Schedule { ahead, dest }
        }
        12..=19 => Op::Pop,
        20..=22 => Op::Release(pick % 4),
        _ => Op::Clear,
    })
}

/// The specification: a list popped by minimum `(at, insertion index)`.
/// Releasing a slot moves an event without cancelling it, so it does not
/// appear here at all.
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
        let lanes = [queue.add_lane(), queue.add_lane()];
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
                Op::Schedule { ahead, dest } => {
                    let at = reference.now + ahead;
                    let time = SimTime::from_nanos(at);
                    match dest {
                        Dest::Default => queue.schedule(time, next),
                        Dest::Lane(lane) => queue.schedule_in(lanes[lane], time, next),
                        Dest::Slot(slot) => queue.schedule_slot(slot, time, next),
                    }
                    reference.pending.push((at, next));
                    next += 1;
                }
                Op::Pop => prop_assert_eq!(queue.pop(), reference.pop().map(timed)),
                Op::Release(slot) => queue.release_slot(slot),
                Op::Clear => {
                    queue.clear();
                    reference.pending.clear();
                }
            }
            // After every step, a slot's pop that left the root vacant
            // included: the head as `peek` sees it, and the counts.
            let expected = reference.head().map(timed);
            prop_assert_eq!(queue.peek().map(|(at, &id)| (at, id)), expected);
            prop_assert_eq!(queue.peek_time(), expected.map(|(at, _)| at));
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
