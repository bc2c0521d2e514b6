//! Tuple value estimation (paper §4).
//!
//! Each incoming query's price is split across its range scans in proportion
//! to scan size (Eq. 1); each scan then contributes `Price(s)/Size(s)` to
//! every tuple it reads. Averaged over a sliding window of the most recent
//! `|W|` scans this yields the tuple value function `V(x)` (Eq. 2), which is
//! piecewise constant with breakpoints only at scan start/end indices — so
//! NashDB stores just those breakpoints in an ordered map (`tree.rs`) and
//! recovers all values with one in-order traversal (Algorithm 1).
//! [`mod@reference`] is the stage's oracle: the same breakpoints folded straight
//! from a scan list, with no tree.

pub mod reference;
mod tree;

use std::collections::VecDeque;

use nashdb_obs::Metric;

use tree::ValueTree;

/// Errors from value-tree scan removal: both variants indicate the caller is
/// trying to un-track a scan endpoint that is not currently tracked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueTreeError {
    /// No windowed scan starts or ends at the key.
    UntrackedKey {
        /// The untracked tuple index.
        key: u64,
    },
    /// The key is tracked, but no scan with the given endpoint kind (start
    /// vs. end) was inserted there.
    EndpointUnderflow {
        /// The tuple index whose endpoint count would go negative.
        key: u64,
    },
}

impl std::fmt::Display for ValueTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValueTreeError::UntrackedKey { key } => {
                write!(f, "removing a scan endpoint at untracked key {key}")
            }
            ValueTreeError::EndpointUnderflow { key } => {
                write!(f, "removing a scan endpoint never inserted at key {key}")
            }
        }
    }
}

impl std::error::Error for ValueTreeError {}

/// Eq. 1 with a block floor: the income one scan of a query pays, its
/// `size`-proportional share of the query's `price` over the query's
/// `total` scanned tuples, scaled by `size / max(size, floor)`. The floor is
/// the read block: a scan much smaller than a block still costs a block
/// read (§2), and without it one tiny scan would pay an astronomical rate
/// per tuple. A price that passes `Database::check_query` keeps the result
/// finite. Every Eq. 1 split in the workspace is this expression, in this
/// order, so two callers that replay one workload agree bit for bit.
pub fn scan_income(price: f64, size: u64, total: u64, floor: u64) -> f64 {
    let effective = size.max(floor);
    price * size as f64 / total as f64 * (size as f64 / effective as f64)
}

/// A range scan annotated with the share of its query's price it carries
/// (paper Eq. 1).
///
/// `start` is inclusive, `end` exclusive, both tuple indices in the physical
/// ordering of the scanned table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PricedScan {
    /// First tuple read (inclusive).
    pub start: u64,
    /// One past the last tuple read (exclusive).
    pub end: u64,
    /// The price apportioned to this scan.
    pub price: f64,
}

impl PricedScan {
    /// Creates a scan, validating its range and price.
    ///
    /// # Panics
    /// Panics if the range is empty/inverted or the price is negative or
    /// non-finite.
    pub fn new(start: u64, end: u64, price: f64) -> Self {
        assert!(start < end, "empty scan range {start}..{end}");
        assert!(
            price.is_finite() && price >= 0.0,
            "scan price must be finite and nonnegative, got {price}"
        );
        PricedScan { start, end, price }
    }

    /// Number of tuples the scan reads.
    pub fn size(&self) -> u64 {
        self.end - self.start
    }

    /// The scan's per-tuple income `Price(s)/Size(s)`.
    pub fn weight(&self) -> f64 {
        self.price / self.size() as f64
    }
}

/// A maximal run of tuples sharing the same estimated value `V(x)` — the
/// output of Algorithm 1 and the unit the fragmentation algorithms operate
/// on (splitting inside a constant-value run can never reduce fragment
/// error, so chunk boundaries are the only candidate cut points).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chunk {
    /// First tuple (inclusive).
    pub start: u64,
    /// One past the last tuple (exclusive).
    pub end: u64,
    /// Per-tuple value `V(x)` for every tuple in the run.
    pub value: f64,
}

impl Chunk {
    /// Number of tuples in the run.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True iff the run is empty (never produced by the estimator).
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Σ V(x) over the run.
    pub fn sum(&self) -> f64 {
        self.value * self.len() as f64
    }

    /// Σ V(x)² over the run.
    pub fn sum_sq(&self) -> f64 {
        self.value * self.value * self.len() as f64
    }
}

/// The tuple value estimator: a scan window (ring buffer) plus a value
/// estimation tree, per table.
///
/// ```
/// use nashdb_core::value::{PricedScan, TupleValueEstimator};
///
/// let mut est = TupleValueEstimator::new(3);
/// est.observe(PricedScan::new(7, 10, 6.0));
/// est.observe(PricedScan::new(4, 10, 3.0));
/// est.observe(PricedScan::new(0, 5, 5.0));
/// // Paper §4.2 worked example: tuples 7..10 are worth 2.5/3 each.
/// let v = est.value_at(8, 12);
/// assert!((v - 2.5 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug)]
pub struct TupleValueEstimator {
    tree: ValueTree,
    window: VecDeque<PricedScan>,
    capacity: usize,
}

impl TupleValueEstimator {
    /// Bytes the tree stores per tracked key — a lower bound on its heap
    /// footprint per key, B-tree node slack not counted (for overhead
    /// reporting).
    pub const BYTES_PER_TRACKED_KEY: usize = ValueTree::BYTES_PER_KEY;

    /// Creates an estimator over a window of `capacity` scans.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "scan window must hold at least one scan");
        TupleValueEstimator {
            tree: ValueTree::default(),
            window: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Number of scans currently in the window.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Number of breakpoints tracked by the tree (for overhead reporting).
    pub fn tracked_keys(&self) -> usize {
        self.tree.len()
    }

    /// The tree's in-order `(key, ∆)` pairs, for the audit.
    pub(crate) fn deltas(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.tree.deltas()
    }

    /// The scans currently in the window, oldest first.
    pub fn scans(&self) -> impl Iterator<Item = &PricedScan> + '_ {
        self.window.iter()
    }

    /// Folds one priced scan into the window, evicting the oldest scan if
    /// the window is full. Returns the evicted scan, if any.
    pub fn observe(&mut self, scan: PricedScan) -> Option<PricedScan> {
        let evicted = if self.window.len() == self.capacity {
            self.window.pop_front()
        } else {
            None
        };
        if let Some(old) = &evicted {
            // Every windowed scan was added to the tree when it entered the
            // window, so removing it on eviction cannot fail.
            if let Err(e) = self.tree.remove_scan(old) {
                unreachable!("windowed scan missing from value tree: {e}");
            }
            nashdb_obs::counter_add(Metric::ValueTreeEvictions, 1);
        }
        self.tree.add_scan(&scan);
        self.window.push_back(scan);
        nashdb_obs::counter_add(Metric::ValueTreeInserts, 1);
        evicted
    }

    /// Algorithm 1: recovers the piecewise-constant `V(x)` over
    /// `[0, table_len)` as a list of [`Chunk`]s, including zero-valued gaps,
    /// in one in-order traversal.
    ///
    /// Scan endpoints beyond `table_len` are clamped to it.
    pub fn chunks(&self, table_len: u64) -> Vec<Chunk> {
        let mut chunks = Vec::new();
        if table_len == 0 {
            return chunks;
        }
        let w = self.window.len();
        if w == 0 {
            chunks.push(Chunk {
                start: 0,
                end: table_len,
                value: 0.0,
            });
            return chunks;
        }
        let norm = |alpha: f64| (alpha / w as f64).max(0.0);
        let mut alpha = 0.0f64;
        let mut prev = 0u64;
        for (key, delta) in self.tree.deltas() {
            let key = key.min(table_len);
            if key > prev {
                chunks.push(Chunk {
                    start: prev,
                    end: key,
                    value: norm(alpha),
                });
                prev = key;
            }
            alpha += delta;
        }
        if table_len > prev {
            chunks.push(Chunk {
                start: prev,
                end: table_len,
                value: norm(alpha),
            });
        }
        chunks
    }

    /// `V(x)` for a single tuple — a test/debug helper; use
    /// [`chunks`](Self::chunks) for bulk access.
    pub fn value_at(&self, x: u64, table_len: u64) -> f64 {
        self.chunks(table_len)
            .iter()
            .find(|c| c.start <= x && x < c.end)
            .map_or(0.0, |c| c.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }

    /// The paper's §4.2 worked example end to end: values 1/3, 1.5/3, 0.5/3,
    /// 2.5/3, 0 across the breakpoints 0,4,5,7,10.
    #[test]
    fn paper_worked_example() {
        let mut est = TupleValueEstimator::new(3);
        est.observe(PricedScan::new(7, 10, 6.0));
        est.observe(PricedScan::new(4, 10, 3.0));
        est.observe(PricedScan::new(0, 5, 5.0));
        let chunks = est.chunks(12);
        let expect = [
            (0u64, 4u64, 1.0 / 3.0),
            (4, 5, 1.5 / 3.0),
            (5, 7, 0.5 / 3.0),
            (7, 10, 2.5 / 3.0),
            (10, 12, 0.0),
        ];
        assert_eq!(chunks.len(), expect.len());
        for (c, &(s, e, v)) in chunks.iter().zip(&expect) {
            assert_eq!((c.start, c.end), (s, e));
            assert_close(c.value, v);
        }
    }

    #[test]
    fn eviction_forgets_old_scans() {
        let mut est = TupleValueEstimator::new(2);
        est.observe(PricedScan::new(0, 10, 10.0));
        est.observe(PricedScan::new(0, 10, 10.0));
        assert_eq!(est.window_len(), 2);
        // Third scan evicts the first.
        let evicted = est.observe(PricedScan::new(50, 60, 20.0));
        assert_eq!(evicted, Some(PricedScan::new(0, 10, 10.0)));
        assert_eq!(est.window_len(), 2);
        // 0..10 now carries only one scan of weight 1.0 over window 2.
        assert_close(est.value_at(5, 100), 0.5);
        assert_close(est.value_at(55, 100), 1.0);
    }

    #[test]
    fn empty_window_is_all_zero() {
        let est = TupleValueEstimator::new(5);
        let chunks = est.chunks(100);
        assert_eq!(chunks.len(), 1);
        assert_close(chunks[0].value, 0.0);
        assert_eq!((chunks[0].start, chunks[0].end), (0, 100));
    }

    #[test]
    fn zero_table_has_no_chunks() {
        let est = TupleValueEstimator::new(5);
        assert!(est.chunks(0).is_empty());
    }

    #[test]
    fn chunks_cover_table_exactly() {
        let mut est = TupleValueEstimator::new(10);
        est.observe(PricedScan::new(3, 9, 1.0));
        est.observe(PricedScan::new(20, 40, 3.0));
        let chunks = est.chunks(64);
        assert_eq!(chunks.first().unwrap().start, 0);
        assert_eq!(chunks.last().unwrap().end, 64);
        for w in chunks.windows(2) {
            assert_eq!(w[0].end, w[1].start, "gap or overlap in {chunks:?}");
        }
    }

    #[test]
    fn scan_past_table_end_is_clamped() {
        let mut est = TupleValueEstimator::new(1);
        est.observe(PricedScan::new(5, 100, 1.0));
        let chunks = est.chunks(10);
        assert_eq!(chunks.last().unwrap().end, 10);
        assert!(chunks.iter().all(|c| c.end <= 10));
    }

    #[test]
    fn chunk_sums() {
        let c = Chunk {
            start: 10,
            end: 20,
            value: 0.5,
        };
        assert_eq!(c.len(), 10);
        assert_close(c.sum(), 5.0);
        assert_close(c.sum_sq(), 2.5);
        assert!(!c.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one scan")]
    fn zero_capacity_rejected() {
        let _ = TupleValueEstimator::new(0);
    }

    #[test]
    #[should_panic(expected = "empty scan range")]
    fn inverted_scan_rejected() {
        let _ = PricedScan::new(5, 5, 1.0);
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn negative_price_rejected() {
        let _ = PricedScan::new(0, 5, -1.0);
    }

    /// Through fills and evictions the tree holds exactly what a fold over
    /// the window says it should.
    #[test]
    fn estimator_matches_window_fold() {
        let mut est = TupleValueEstimator::new(8);
        let scans = [
            (0u64, 50u64, 5.0f64),
            (10, 30, 2.0),
            (25, 75, 7.0),
            (0, 100, 1.0),
            (40, 45, 9.0),
            (10, 30, 2.0),
            (60, 90, 4.0),
            (5, 6, 1.0),
            (0, 50, 5.0),
            (25, 75, 7.0),
            (90, 100, 3.0),
            (1, 99, 2.5),
        ];
        for &(s, e, p) in &scans {
            est.observe(PricedScan::new(s, e, p));
            let window: Vec<PricedScan> = est.scans().copied().collect();
            reference::assert_matches_fold(est.deltas(), &window, 1e-12);
        }
    }
}
