//! §10.1 (text) — value estimation tree overhead.
//!
//! The paper reports: at |W| = 50 the tree + buffer stays under 1 KB with
//! access times under 5 ms; at |W| = 1000 under 4 KB, still under 5 ms.
//! We measure the tree's payload bytes (a lower bound on its heap footprint:
//! B-tree node slack is not counted) and its access times directly.

use std::time::Instant;

use nashdb_core::value::{PricedScan, TupleValueEstimator};
use nashdb_sim::SimRng;

use super::{fmt, row, table_header};
use crate::header;

fn measure(window: usize, table_len: u64) -> (usize, usize, f64, f64) {
    let mut est = TupleValueEstimator::new(window);
    let mut rng = SimRng::seed_from_u64(9);
    let scan = move |rng: &mut SimRng| {
        let a = rng.uniform_u64(0, table_len - 1);
        let len = rng.uniform_u64(1, table_len / 4);
        PricedScan::new(a, (a + len).min(table_len), 1.0)
    };
    // Warm to a full window.
    for _ in 0..window * 2 {
        est.observe(scan(&mut rng));
    }
    let keys = est.tracked_keys();
    let bytes = keys * TupleValueEstimator::BYTES_PER_TRACKED_KEY;

    // Insert+evict cost.
    let n = 20_000;
    // Appendix D overhead table: the wall-clock *is* the measurement.
    #[allow(clippy::disallowed_methods)]
    let t0 = Instant::now();
    for _ in 0..n {
        est.observe(scan(&mut rng));
    }
    let insert_us = t0.elapsed().as_secs_f64() * 1e6 / n as f64;

    // Full value recovery (Algorithm 1), the access the fragmenter performs.
    let m = 2_000;
    // Appendix D overhead table: the wall-clock *is* the measurement.
    #[allow(clippy::disallowed_methods)]
    let t0 = Instant::now();
    let mut sink = 0usize;
    for _ in 0..m {
        sink = sink.saturating_add(est.chunks(table_len).len());
    }
    let access_ms = t0.elapsed().as_secs_f64() * 1e3 / m as f64;
    assert!(sink > 0);
    (bytes, keys, insert_us, access_ms)
}

/// Runs the overhead measurement at the paper's two window sizes.
pub fn run() {
    header("§10.1 — value estimation tree overhead");
    table_header(&["|W|", "tree bytes ≥", "keys", "insert (µs)", "iterate (ms)"]);
    for window in [50usize, 1000] {
        let (bytes, keys, insert_us, access_ms) = measure(window, 100_000_000);
        row(&[
            format!("{window}"),
            format!("{bytes}"),
            format!("{keys}"),
            fmt(insert_us),
            fmt(access_ms),
        ]);
    }
    println!("  paper: <1 KB and <5 ms at |W| = 50; <4 KB and <5 ms at |W| = 1000.");
    println!("  (tree bytes = keys × one entry, a lower bound: B-tree node slack is not");
    println!("  counted; an entry keeps start/end counts beside ∆ for exact removal)");
}
