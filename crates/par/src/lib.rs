//! # nashdb-par
//!
//! Dependency-free data parallelism for the NashDB reproduction, built on
//! a **persistent deterministic worker pool**.
//!
//! The build environment is fully offline, so rayon is unavailable; this
//! crate provides the tiny slice of data parallelism the pipeline actually
//! needs — "map this independent per-item work across cores". Three
//! properties are guaranteed:
//!
//! * **Deterministic merge order.** Results come back in item order,
//!   regardless of which worker finished first, so same-seed runs stay
//!   byte-identical whether they ran on 1 core or 64.
//! * **Panic propagation.** A panic on a worker is re-raised on the calling
//!   thread via [`std::panic::resume_unwind`] — the payload of the *first
//!   chunk in item order* that panicked — preserving invariant-audit
//!   assertions under fan-out.
//! * **Serial fast path.** Work smaller than the caller's `min_chunk`
//!   threshold (or a single-core host) runs inline with zero pool traffic,
//!   so small reconfigurations pay nothing for the capability.
//!
//! ## Why a pool, and how it stays deterministic
//!
//! Earlier revisions spawned scoped threads per call, which was fine for a
//! handful of fan-outs per reconfiguration period but dominates cost when
//! the batch router fans out per sim event. Workers are now spawned once
//! (lazily, on first parallel call) and live for the process; each call
//! ships **owned** `'static` jobs to them. Determinism does not come from
//! the schedule — workers race freely — but from the merge: chunk `i` of a
//! call is always assigned to worker `i % workers`, every chunk reports
//! `(chunk_index, result)` on a per-call channel, and the caller reassembles
//! strictly in chunk order. Same-input calls therefore return bit-identical
//! results on any core count, which is what the replay/snapshot gates test.
//!
//! Jobs must own their data (`'static` bound): a persistent pool cannot
//! borrow from the caller's stack in safe Rust, and this workspace forbids
//! `unsafe`. Callers hand items in by value ([`map_vec`], [`map_mut_vec`],
//! [`fill_with`]) and get them back in the result merge.
//!
//! Nested fan-out (a pool job that itself calls into this crate) runs
//! serially inline on the worker: shipping sub-jobs to a fixed-size pool
//! from inside the pool can deadlock, and the serial path is
//! result-identical by the merge contract anyway.
//!
//! [`pool_stats`] exposes thread/chunk counters so benchmarks can assert
//! the pool is actually reused rather than respawned.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, OnceLock};

/// Number of worker threads a fan-out may use: the machine's available
/// parallelism, floored at 1 (the query if the host refuses to answer).
pub fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Worker threads in the persistent pool. Floored at 2 even on single-core
/// hosts: the merge machinery must stay exercised everywhere, and
/// correctness never depends on physical parallelism — only the merge order
/// matters.
fn pool_size() -> usize {
    max_threads().max(2)
}

/// How many workers to use for `len` items when each worker should hold at
/// least `min_chunk` items: 0 or 1 means "run serially".
fn worker_count(len: usize, min_chunk: usize) -> usize {
    let min_chunk = min_chunk.max(1);
    (len / min_chunk).min(pool_size())
}

/// Splits `len` items into `workers` contiguous chunks whose sizes differ by
/// at most one, returned as `(start, end)` index pairs.
fn chunk_bounds(len: usize, workers: usize) -> Vec<(usize, usize)> {
    let base = len / workers;
    let extra = len % workers;
    let mut bounds = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let size = base + usize::from(w < extra);
        bounds.push((start, start + size));
        start += size;
    }
    bounds
}

/// An owned unit of work shipped to a pool worker.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The persistent pool: one channel per long-lived worker thread. Chunk `i`
/// of any call goes to worker `i % senders.len()`, so the job→worker map is
/// a pure function of the call shape.
struct Pool {
    senders: Vec<Sender<Job>>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// Lifetime count of worker threads actually spawned (≤ [`max_threads`],
/// and constant after the first parallel call — that constancy *is* the
/// reuse property).
static THREADS_SPAWNED: AtomicU64 = AtomicU64::new(0);
/// Lifetime count of chunks shipped to pool workers.
static CHUNKS_EXECUTED: AtomicU64 = AtomicU64::new(0);
/// Lifetime count of parallel (non-serial-fast-path) calls.
static PARALLEL_ROUNDS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// True on pool worker threads; nested fan-out goes serial (see module
    /// docs).
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Lazily spawns the pool. A worker that fails to spawn leaves a sender
/// whose receiver is gone; sends to it fail and the chunk runs inline on
/// the caller, so a thread-starved host degrades to serial, not to error.
fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let senders = (0..pool_size())
            .map(|w| {
                let (tx, rx) = channel::<Job>();
                let spawned = std::thread::Builder::new()
                    .name(format!("nashdb-par-{w}"))
                    .spawn(move || {
                        IN_POOL_WORKER.with(|flag| flag.set(true));
                        while let Ok(job) = rx.recv() {
                            job();
                        }
                    })
                    .is_ok();
                if spawned {
                    THREADS_SPAWNED.fetch_add(1, Ordering::Relaxed);
                }
                tx
            })
            .collect();
        Pool { senders }
    })
}

/// Pool usage counters, for bench gauges and reuse assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads ever spawned (constant after pool init).
    pub threads_spawned: u64,
    /// Chunks executed on pool workers over the process lifetime.
    pub chunks_executed: u64,
    /// Parallel calls (serial fast-path calls are not counted).
    pub parallel_rounds: u64,
}

/// Snapshot of the pool counters.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        threads_spawned: THREADS_SPAWNED.load(Ordering::Relaxed),
        chunks_executed: CHUNKS_EXECUTED.load(Ordering::Relaxed),
        parallel_rounds: PARALLEL_ROUNDS.load(Ordering::Relaxed),
    }
}

/// Ships the given chunk closures to the pool and merges their outputs in
/// chunk order. Panics from chunks are re-raised in chunk order (first
/// panicking chunk wins), after all chunks have reported.
fn run_chunks<R>(chunks: Vec<Box<dyn FnOnce() -> Vec<R> + Send + 'static>>) -> Vec<R>
where
    R: Send + 'static,
{
    let n = chunks.len();
    let pool = pool();
    PARALLEL_ROUNDS.fetch_add(1, Ordering::Relaxed);
    let (tx, rx) = channel::<(usize, std::thread::Result<Vec<R>>)>();
    for (idx, chunk) in chunks.into_iter().enumerate() {
        let txc = tx.clone();
        let job: Job = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(chunk));
            // The receiver outlives every job (we block on it below); a
            // failed send means the caller already unwound, so drop it.
            #[allow(clippy::let_underscore_must_use)]
            let _ = txc.send((idx, result));
        });
        CHUNKS_EXECUTED.fetch_add(1, Ordering::Relaxed);
        let worker = idx % pool.senders.len();
        if let Err(rejected) = pool.senders[worker].send(job) {
            // Worker never spawned (thread-starved host): run inline; the
            // job still reports through the channel like any other.
            (rejected.0)();
        }
    }
    drop(tx);
    let mut slots: Vec<Option<std::thread::Result<Vec<R>>>> = Vec::new();
    slots.resize_with(n, || None);
    // Every dispatched job sends exactly once (catch_unwind swallows chunk
    // panics before the send), so this receives exactly `n` messages.
    while let Ok((idx, result)) = rx.recv() {
        slots[idx] = Some(result);
    }
    let mut out = Vec::new();
    let mut first_panic = None;
    for (idx, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(Ok(part)) => out.extend(part),
            Some(Err(payload)) => {
                if first_panic.is_none() {
                    first_panic = Some(payload);
                }
            }
            None => {
                // Unreachable by the exactly-once send argument above; kept
                // as a loud typed failure rather than a silent short merge.
                if first_panic.is_none() {
                    first_panic = Some(Box::new(format!(
                        "nashdb-par: chunk {idx} never reported a result"
                    )));
                }
            }
        }
    }
    if let Some(payload) = first_panic {
        resume_unwind(payload);
    }
    out
}

/// Maps `f` over owned `items` (with each item's global index), fanning out
/// across the persistent pool when there are at least `min_chunk` items per
/// worker to justify the traffic. Results are returned in item order.
pub fn map_vec<T, R, F>(items: Vec<T>, min_chunk: usize, f: F) -> Vec<R>
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(usize, T) -> R + Send + Sync + 'static,
{
    let workers = worker_count(items.len(), min_chunk);
    if workers <= 1 || IN_POOL_WORKER.with(Cell::get) {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let bounds = chunk_bounds(items.len(), workers);
    let f = Arc::new(f);
    let mut items = items.into_iter();
    let chunks = bounds
        .iter()
        .map(|&(start, end)| {
            let chunk: Vec<T> = items.by_ref().take(end - start).collect();
            let f = Arc::clone(&f);
            let closure = move || {
                chunk
                    .into_iter()
                    .enumerate()
                    .map(|(off, t)| f(start + off, t))
                    .collect::<Vec<R>>()
            };
            Box::new(closure) as Box<dyn FnOnce() -> Vec<R> + Send + 'static>
        })
        .collect();
    run_chunks(chunks)
}

/// Like [`map_vec`] but for per-item state machines (one fragmenter per
/// table, say) that each worker advances in place: `f` gets `&mut T`, and
/// the mutated items come back alongside the results, both in item order.
pub fn map_mut_vec<T, R, F>(items: Vec<T>, min_chunk: usize, f: F) -> (Vec<T>, Vec<R>)
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(usize, &mut T) -> R + Send + Sync + 'static,
{
    map_vec(items, min_chunk, move |i, mut t| {
        let r = f(i, &mut t);
        (t, r)
    })
    .into_iter()
    .unzip()
}

/// Builds a `Vec` of `len` values where element `i` is `f(i)` — the
/// "parallelize this independent loop" primitive (a DP layer, a per-index
/// table fill). Fan-out rules are as in [`map_vec`]; shared inputs travel
/// inside `f` (clone an [`Arc`] into the closure).
pub fn fill_with<R, F>(len: usize, min_chunk: usize, f: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(usize) -> R + Send + Sync + 'static,
{
    let workers = worker_count(len, min_chunk);
    if workers <= 1 || IN_POOL_WORKER.with(Cell::get) {
        return (0..len).map(f).collect();
    }
    let bounds = chunk_bounds(len, workers);
    let f = Arc::new(f);
    let chunks = bounds
        .iter()
        .map(|&(start, end)| {
            let f = Arc::clone(&f);
            let closure = move || (start..end).map(|i| f(i)).collect::<Vec<R>>();
            Box::new(closure) as Box<dyn FnOnce() -> Vec<R> + Send + 'static>
        })
        .collect();
    run_chunks(chunks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_vec_preserves_order_at_any_granularity() {
        let serial: Vec<u64> = (0..1000).map(|x| x * 3 + 1).collect();
        for min_chunk in [1, 7, 100, 10_000] {
            let items: Vec<u64> = (0..1000).collect();
            let parallel = map_vec(items, min_chunk, |_, x| x * 3 + 1);
            assert_eq!(parallel, serial, "min_chunk {min_chunk}");
        }
    }

    #[test]
    fn map_vec_passes_global_indices() {
        let idxs = map_vec(vec![(); 503], 1, |i, ()| i);
        assert_eq!(idxs, (0..503).collect::<Vec<usize>>());
    }

    #[test]
    fn map_mut_vec_mutates_every_item_once_and_returns_them() {
        let items: Vec<u64> = vec![0; 257];
        let (items, out) = map_mut_vec(items, 1, |i, slot| {
            *slot += 1;
            i as u64
        });
        assert_eq!(items.len(), 257);
        assert!(items.iter().all(|&x| x == 1));
        assert_eq!(out, (0..257).collect::<Vec<u64>>());
    }

    #[test]
    fn fill_with_matches_serial_construction() {
        let serial: Vec<usize> = (0..97).map(|i| i * i).collect();
        assert_eq!(fill_with(97, 1, |i| i * i), serial);
        assert_eq!(fill_with(97, 1000, |i| i * i), serial);
    }

    #[test]
    fn empty_and_tiny_inputs_are_fine() {
        assert_eq!(map_vec(Vec::<u8>::new(), 1, |_, x| x), Vec::<u8>::new());
        assert_eq!(fill_with(0, 1, |i| i), Vec::<usize>::new());
        assert_eq!(map_vec(vec![5u8], 1, |_, x| x), vec![5]);
    }

    #[test]
    fn chunks_cover_exactly_once() {
        for len in [1usize, 2, 9, 10, 11, 100] {
            for workers in 1..=8.min(len) {
                let bounds = chunk_bounds(len, workers);
                assert_eq!(bounds.first().map(|b| b.0), Some(0));
                assert_eq!(bounds.last().map(|b| b.1), Some(len));
                for w in bounds.windows(2) {
                    assert_eq!(w[0].1, w[1].0);
                }
            }
        }
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            map_vec((0..64usize).collect::<Vec<_>>(), 1, |i, _| {
                assert!(i != 40, "boom at {i}");
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn pool_threads_are_reused_across_rounds() {
        // Warm the pool, then check that more rounds do not spawn threads.
        let _ = fill_with(4096, 1, |i| i);
        let before = pool_stats();
        for _ in 0..8 {
            let _ = fill_with(4096, 1, |i| i * 2);
        }
        let after = pool_stats();
        assert_eq!(
            after.threads_spawned, before.threads_spawned,
            "rounds after pool init must not spawn threads"
        );
        // Other tests share the pool, so counters may advance by more than
        // this test's own traffic — but at least by it.
        assert!(after.parallel_rounds >= before.parallel_rounds + 8);
        assert!(after.chunks_executed > before.chunks_executed);
    }

    #[test]
    fn nested_fanout_runs_serial_and_does_not_deadlock() {
        let items: Vec<u64> = (0..64).collect();
        let got = map_vec(items, 1, |_, x| {
            // Inner call from a pool worker: must not ship jobs back into
            // the (busy) pool. min_chunk 1 would fan out if allowed.
            fill_with(32, 1, move |j| x + j as u64).iter().sum::<u64>()
        });
        let want: Vec<u64> = (0..64u64)
            .map(|x| (0..32u64).map(|j| x + j).sum())
            .collect();
        assert_eq!(got, want);
    }
}
