//! Schedule-stress tests: drive `nashdb-par` under seeded adversarial
//! thread timing and assert the crate's load-bearing guarantees —
//! item-order merge, panic propagation, and pool reuse — hold no matter
//! which worker finishes first.
//!
//! Real nondeterminism comes from the OS scheduler; these tests *force*
//! pessimal schedules instead of hoping for them: per-item sleeps drawn
//! from a seeded LCG (so failures reproduce), reversed so late chunks
//! finish before early ones, plus a worst case where worker 0 is the
//! straggler every merge must wait for.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use nashdb_par::{fill_with, map_mut_vec, map_vec, pool_stats};

const ITEMS: usize = 256;

/// Deterministic per-(seed, index) delay in {0, …, 750} microseconds.
/// Same-seed runs sleep identically, so a failing schedule replays.
fn lcg_delay_us(seed: u64, i: usize) -> u64 {
    let mut x = seed
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(i as u64)
        .wrapping_mul(1_442_695_040_888_963_407);
    x ^= x >> 33;
    (x % 4) * 250
}

fn sleep_us(us: u64) {
    if us > 0 {
        std::thread::sleep(Duration::from_micros(us));
    }
}

#[test]
fn merge_order_survives_seeded_adversarial_timing() {
    let serial: Vec<u64> = (0..ITEMS as u64).map(|x| x * 7 + 3).collect();
    for seed in [1, 0xDEAD_BEEF, u64::MAX] {
        for min_chunk in [1, 3, 16] {
            let items: Vec<u64> = (0..ITEMS as u64).collect();
            let got = map_vec(items, min_chunk, move |i, x| {
                sleep_us(lcg_delay_us(seed, i));
                x * 7 + 3
            });
            assert_eq!(got, serial, "seed {seed:#x}, min_chunk {min_chunk}");
        }
    }
}

#[test]
fn merge_order_survives_reversed_completion() {
    // Delay grows with the item index *reversed*: the last chunk's items
    // are the quickest, so workers complete in reverse dispatch order and
    // the merge must reorder every chunk.
    let items: Vec<usize> = (0..ITEMS).collect();
    let got = map_vec(items.clone(), 1, |i, x| {
        sleep_us(((ITEMS - 1 - i) as u64 % 16) * 100);
        x
    });
    assert_eq!(got, items);
}

#[test]
fn merge_waits_for_a_single_straggler_first_worker() {
    // Worker 0 owns the lowest indices; making only those slow means every
    // other worker finishes long before the one whose results go first.
    let items: Vec<usize> = (0..ITEMS).collect();
    let got = map_vec(items.clone(), 1, |i, x| {
        if i < ITEMS / 8 {
            sleep_us(500);
        }
        x * 2
    });
    assert_eq!(got, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
}

#[test]
fn map_mut_vec_touches_each_item_exactly_once_under_stress() {
    let items: Vec<u64> = vec![0; ITEMS];
    let visits = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&visits);
    let (items, out) = map_mut_vec(items, 1, move |i, slot| {
        sleep_us(lcg_delay_us(7, i));
        counter.fetch_add(1, Ordering::Relaxed);
        *slot += 1;
        i
    });
    assert_eq!(visits.load(Ordering::Relaxed), ITEMS);
    assert!(
        items.iter().all(|&x| x == 1),
        "an item was skipped or revisited"
    );
    assert_eq!(
        out,
        (0..ITEMS).collect::<Vec<_>>(),
        "results out of item order"
    );
}

#[test]
fn fill_with_is_identical_across_schedules_and_granularities() {
    let reference: Vec<u64> = (0..ITEMS as u64).map(|i| i * i).collect();
    for seed in [3, 99] {
        for min_chunk in [1, 8, usize::MAX] {
            let got = fill_with(ITEMS, min_chunk, move |i| {
                sleep_us(lcg_delay_us(seed, i));
                (i * i) as u64
            });
            assert_eq!(got, reference, "seed {seed}, min_chunk {min_chunk}");
        }
    }
}

#[test]
fn panic_payload_survives_fanout_with_live_siblings() {
    // The panicking item sits mid-range while sibling workers are still
    // sleeping, so propagation must work with the pool still busy; the
    // payload string must arrive intact on the caller.
    let result = std::panic::catch_unwind(|| {
        map_vec((0..ITEMS).collect::<Vec<_>>(), 1, |i, x: usize| {
            sleep_us(lcg_delay_us(11, i));
            assert!(i != ITEMS / 2, "boom at {i}");
            x
        })
    });
    let payload = result.expect_err("the worker panic must reach the caller");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .expect("panic payload is a message");
    assert!(
        msg.contains(&format!("boom at {}", ITEMS / 2)),
        "payload was not preserved: {msg:?}"
    );
}

#[test]
fn pool_survives_a_panicking_round_and_keeps_serving() {
    // A panic inside a chunk must not kill the worker thread that ran it:
    // the pool has to keep answering later rounds with zero fresh spawns.
    // The panic is the point; only the pool's state afterwards is checked.
    #[allow(clippy::let_underscore_must_use)]
    let _ = std::panic::catch_unwind(|| {
        map_vec((0..ITEMS).collect::<Vec<_>>(), 1, |i, x: usize| {
            assert!(i != 3, "poisoning attempt at {i}");
            x
        })
    });
    let spawned_after_panic = pool_stats().threads_spawned;
    let reference: Vec<usize> = (0..ITEMS).map(|x| x + 1).collect();
    for round in 0..4u64 {
        let got = map_vec((0..ITEMS).collect::<Vec<_>>(), 1, move |i, x| {
            sleep_us(lcg_delay_us(round, i) / 5);
            x + 1
        });
        assert_eq!(got, reference, "round {round} after the panic diverged");
    }
    assert_eq!(
        pool_stats().threads_spawned,
        spawned_after_panic,
        "a panicking chunk must not cost worker threads"
    );
}

#[test]
fn repeated_rounds_stay_deterministic() {
    // The pipeline's byte-identical-replay contract, in miniature: many
    // fan-out rounds with scheduler-perturbing sleeps must all agree.
    let reference = map_vec((0..ITEMS as u64).collect::<Vec<_>>(), 1, |_, x| {
        x.wrapping_mul(0x9E37_79B9)
    });
    for round in 0..8u64 {
        let got = map_vec((0..ITEMS as u64).collect::<Vec<_>>(), 1, move |i, x| {
            sleep_us(lcg_delay_us(round, i) / 5);
            x.wrapping_mul(0x9E37_79B9)
        });
        assert_eq!(got, reference, "round {round} diverged");
    }
}
