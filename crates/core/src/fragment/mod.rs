//! Fragmentation (paper §5).
//!
//! NashDB cuts each table into contiguous fragments whose per-tuple values
//! are as uniform as possible, because fragments are replicated by their
//! *mean* value: a fragment mixing hot and cold tuples over-replicates the
//! cold ones and under-replicates the hot ones (paper Fig. 3). Uniformity is
//! measured by the *unnormalized variance* of `V(x)` within the fragment
//! (Eq. 4), and the optimization objective is to minimize the summed error
//! subject to a cap `maxFrags` on the fragment count (Eq. 5) chosen so the
//! *average* fragment fills a disk block.
//!
//! Two solvers are provided, as in the paper:
//! * [`optimal::optimal_fragmentation`] — exact `O(maxFrags · m²)` dynamic
//!   programming over the `m` value chunks,
//! * [`greedy::GreedyFragmenter`] — the incremental split/merge heuristic
//!   that adapts a live fragmentation to workload drift, with
//!   [`mod@reference`] as the executable specification of one of its rounds.

mod findsplit;
mod greedy;
mod optimal;
mod prefix;
pub mod reference;

pub use findsplit::{find_split, SplitPoint};
pub use greedy::{GreedyFragmenter, MergePolicy, StepOutcome};
pub use optimal::optimal_fragmentation;
pub use prefix::ChunkPrefix;

use crate::ids::FragmentId;
use crate::value::Chunk;

/// Contract violations of the fragmentation layer, surfaced as typed errors
/// instead of panics (the same convention as `RouteError` and
/// `HungarianError`): malformed value-chunk inputs and out-of-contract
/// queries. Construction-time validation lives in [`ChunkPrefix::new`]; the
/// `try_*` query variants re-validate per call for callers that cannot
/// guarantee the contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FragmentError {
    /// No value chunks were provided.
    NoChunks,
    /// The first chunk does not start at tuple 0.
    NotAtZero {
        /// Where the first chunk actually starts.
        start: u64,
    },
    /// Adjacent chunks leave a gap or overlap.
    Discontiguous {
        /// Where the next chunk had to start.
        expected: u64,
        /// Where it actually starts.
        got: u64,
    },
    /// A chunk covers no tuples.
    EmptyChunk {
        /// The chunk's start.
        start: u64,
        /// The chunk's (non-exclusive-of-start) end.
        end: u64,
    },
    /// A queried tuple index is beyond the table.
    TupleOutOfRange {
        /// The tuple index.
        x: u64,
        /// The table length.
        table_len: u64,
    },
    /// A queried fragment range `[start, end)` is empty.
    EmptyRange {
        /// Range start.
        start: u64,
        /// Range end.
        end: u64,
    },
    /// A queried fragment range extends beyond the table.
    RangeBeyondTable {
        /// Range start.
        start: u64,
        /// Range end.
        end: u64,
        /// The table length.
        table_len: u64,
    },
    /// A fragment range is not fully covered by the given chunks.
    Uncovered {
        /// Range start.
        start: u64,
        /// Range end.
        end: u64,
        /// Tuples of the range the chunks actually cover.
        covered: u64,
    },
    /// The requested fragment budget is zero.
    ZeroMaxFrags,
}

impl std::fmt::Display for FragmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FragmentError::NoChunks => write!(f, "cannot build prefix over no chunks"),
            FragmentError::NotAtZero { start } => {
                write!(f, "chunks must start at tuple 0, got {start}")
            }
            FragmentError::Discontiguous { expected, got } => {
                write!(
                    f,
                    "chunks must be contiguous: expected start {expected}, got {got}"
                )
            }
            FragmentError::EmptyChunk { start, end } => {
                write!(f, "empty chunk {start}..{end}")
            }
            FragmentError::TupleOutOfRange { x, table_len } => {
                write!(f, "tuple {x} out of range (table length {table_len})")
            }
            FragmentError::EmptyRange { start, end } => {
                write!(f, "empty fragment {start}..{end}")
            }
            FragmentError::RangeBeyondTable {
                start,
                end,
                table_len,
            } => {
                write!(
                    f,
                    "fragment {start}..{end} beyond table of {table_len} tuples"
                )
            }
            FragmentError::Uncovered {
                start,
                end,
                covered,
            } => {
                write!(
                    f,
                    "chunks do not cover {start}..{end} (only {covered} tuples covered)"
                )
            }
            FragmentError::ZeroMaxFrags => write!(f, "need at least one fragment"),
        }
    }
}

impl std::error::Error for FragmentError {}

/// A fragment's tuple range: `start` inclusive, `end` exclusive, in the
/// physical ordering of its table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FragmentRange {
    /// First tuple of the fragment.
    pub start: u64,
    /// One past the last tuple.
    pub end: u64,
}

impl FragmentRange {
    /// Creates a range, validating it is nonempty.
    ///
    /// # Panics
    /// Panics if `start >= end`.
    pub fn new(start: u64, end: u64) -> Self {
        assert!(start < end, "empty fragment range {start}..{end}");
        FragmentRange { start, end }
    }

    /// Number of tuples (paper: `Size(f)`).
    pub fn size(&self) -> u64 {
        self.end - self.start
    }

    /// True iff `x` falls inside the fragment.
    pub fn contains(&self, x: u64) -> bool {
        self.start <= x && x < self.end
    }

    /// Number of tuples shared with `[start, end)`.
    pub fn overlap(&self, start: u64, end: u64) -> u64 {
        let lo = self.start.max(start);
        let hi = self.end.min(end);
        hi.saturating_sub(lo)
    }
}

impl std::fmt::Display for FragmentRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// A complete fragmentation of one table: an ordered set of cut points
/// `0 = b₀ < b₁ < … < b_k = table_len` defining `k` disjoint fragments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fragmentation {
    boundaries: Vec<u64>,
}

impl Fragmentation {
    /// A single fragment spanning the whole table.
    ///
    /// # Panics
    /// Panics if `table_len` is zero.
    pub fn single(table_len: u64) -> Self {
        assert!(table_len > 0, "cannot fragment an empty table");
        Fragmentation {
            boundaries: vec![0, table_len],
        }
    }

    /// Builds a fragmentation from explicit cut points. The list must be
    /// strictly increasing, start at 0, and end at the table length.
    ///
    /// # Panics
    /// Panics on malformed boundaries.
    pub fn from_boundaries(boundaries: Vec<u64>) -> Self {
        assert!(
            boundaries.len() >= 2,
            "need at least [0, table_len], got {boundaries:?}"
        );
        assert_eq!(boundaries[0], 0, "first boundary must be 0");
        assert!(
            boundaries.windows(2).all(|w| w[0] < w[1]),
            "boundaries must be strictly increasing: {boundaries:?}"
        );
        Fragmentation { boundaries }
    }

    /// Splits the table into `count` near-equal fragments (the paper's
    /// *Naive* baseline).
    ///
    /// # Panics
    /// Panics if `count` is zero or exceeds `table_len`.
    pub fn equal_width(table_len: u64, count: usize) -> Self {
        assert!(count > 0, "need at least one fragment");
        assert!(
            count as u64 <= table_len,
            "cannot cut {table_len} tuples into {count} fragments"
        );
        let mut boundaries = Vec::with_capacity(count + 1);
        for i in 0..=count as u64 {
            boundaries.push(i * table_len / count as u64);
        }
        boundaries.dedup();
        Fragmentation { boundaries }
    }

    /// Number of fragments.
    pub fn len(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// True iff there are no fragments (never constructible).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Total tuples covered.
    pub fn table_len(&self) -> u64 {
        let Some(&last) = self.boundaries.last() else {
            unreachable!("every constructor validates at least two boundaries");
        };
        last
    }

    /// The cut points, including 0 and `table_len`.
    pub fn boundaries(&self) -> &[u64] {
        &self.boundaries
    }

    /// Iterates fragments in physical order.
    pub fn ranges(&self) -> impl Iterator<Item = FragmentRange> + '_ {
        self.boundaries
            .windows(2)
            .map(|w| FragmentRange::new(w[0], w[1]))
    }

    /// Fragments paired with their ids (assigned in physical order).
    pub fn fragments(&self) -> impl Iterator<Item = (FragmentId, FragmentRange)> + '_ {
        self.ranges()
            .enumerate()
            .map(|(i, r)| (FragmentId(i as u64), r))
    }

    /// Summed fragment error (the paper's Eq. 5 objective) against a value
    /// function.
    pub fn total_error(&self, prefix: &ChunkPrefix) -> f64 {
        assert_eq!(
            prefix.table_len(),
            self.table_len(),
            "value function covers a different table"
        );
        self.ranges().map(|r| prefix.error(r.start, r.end)).sum()
    }
}

/// Splits any fragment larger than `max_size` into equal pieces of at most
/// `max_size` tuples, leaving other boundaries untouched.
///
/// The paper sizes fragments so the *average* fits a disk block and nodes
/// are far larger than blocks, so it never faces a fragment that exceeds a
/// node's disk; a from-scratch deployment does (the cold-start fragmentation
/// is one table-sized fragment). Splitting inside a fragment cannot increase
/// the error objective (Eq. 5 is a sum over fragments and each split is a
/// refinement), so this post-pass preserves optimality properties while
/// making BFFD packing feasible.
///
/// # Panics
/// Panics if `max_size` is zero.
pub fn split_oversized(frag: &Fragmentation, max_size: u64) -> Fragmentation {
    assert!(max_size > 0, "max fragment size must be nonzero");
    let mut boundaries = Vec::with_capacity(frag.boundaries().len());
    boundaries.push(0);
    for r in frag.ranges() {
        if r.size() > max_size {
            // Cut on the absolute `max_size` grid (not into equal pieces):
            // grid cuts are *stable* — when the enclosing fragment's
            // boundary drifts between reconfigurations, interior pieces
            // keep identical ranges, so replica placement barely changes
            // and transitions stay cheap.
            let mut cut = (r.start / max_size + 1) * max_size;
            while cut < r.end {
                if cut > r.start {
                    boundaries.push(cut);
                }
                cut += max_size;
            }
        }
        boundaries.push(r.end);
    }
    Fragmentation::from_boundaries(boundaries)
}

/// Per-fragment statistics consumed by the replication manager.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FragmentStats {
    /// The fragment.
    pub id: FragmentId,
    /// Its tuple range.
    pub range: FragmentRange,
    /// `Value(f)` — Σ V(x) over the fragment (paper Eq. 3).
    pub value: f64,
    /// Its error contribution (Eq. 4).
    pub error: f64,
}

/// Computes [`FragmentStats`] for every fragment of a scheme: one forward
/// sweep resolves every boundary, and each fragment's value and error come
/// from its two ends' sums.
///
/// # Errors
/// Returns a chunk-validation [`FragmentError`] if `chunks` is malformed.
pub fn fragment_stats(
    frag: &Fragmentation,
    chunks: &[Chunk],
) -> Result<Vec<FragmentStats>, FragmentError> {
    let prefix = ChunkPrefix::new(chunks)?;
    let ends = prefix.points(frag.boundaries());
    Ok(frag
        .fragments()
        .zip(ends.windows(2))
        .map(|((id, range), w)| FragmentStats {
            id,
            range,
            value: w[1].s - w[0].s,
            error: prefix.error_between(&w[0], &w[1]),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_and_ids() {
        let f = Fragmentation::from_boundaries(vec![0, 10, 25, 40]);
        assert_eq!(f.len(), 3);
        assert_eq!(f.table_len(), 40);
        let frags: Vec<_> = f.fragments().collect();
        assert_eq!(frags[0], (FragmentId(0), FragmentRange::new(0, 10)));
        assert_eq!(frags[2], (FragmentId(2), FragmentRange::new(25, 40)));
    }

    #[test]
    fn equal_width_covers_table() {
        let f = Fragmentation::equal_width(100, 7);
        assert_eq!(f.table_len(), 100);
        assert_eq!(f.len(), 7);
        let total: u64 = f.ranges().map(|r| r.size()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn equal_width_tiny_table() {
        let f = Fragmentation::equal_width(3, 3);
        assert_eq!(f.len(), 3);
        assert!(f.ranges().all(|r| r.size() == 1));
    }

    #[test]
    fn overlap_math() {
        let r = FragmentRange::new(10, 20);
        assert_eq!(r.overlap(0, 5), 0);
        assert_eq!(r.overlap(15, 30), 5);
        assert_eq!(r.overlap(0, 100), 10);
        assert!(r.contains(10));
        assert!(!r.contains(20));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn duplicate_boundary_rejected() {
        let _ = Fragmentation::from_boundaries(vec![0, 10, 10, 20]);
    }

    #[test]
    fn split_oversized_caps_every_fragment() {
        let f = Fragmentation::from_boundaries(vec![0, 10, 1_000, 1_005]);
        let capped = split_oversized(&f, 300);
        assert!(capped.ranges().all(|r| r.size() <= 300));
        assert_eq!(capped.table_len(), 1_005);
        // Original boundaries survive.
        for b in f.boundaries() {
            assert!(capped.boundaries().contains(b), "lost boundary {b}");
        }
    }

    #[test]
    fn split_oversized_noop_when_small() {
        let f = Fragmentation::from_boundaries(vec![0, 10, 20]);
        assert_eq!(split_oversized(&f, 100), f);
    }

    #[test]
    fn split_oversized_exact_multiple() {
        let f = Fragmentation::from_boundaries(vec![0, 900]);
        let capped = split_oversized(&f, 300);
        assert_eq!(capped.boundaries(), &[0, 300, 600, 900]);
    }

    #[test]
    fn stats_sum_to_table_value() {
        let chunks = vec![
            Chunk {
                start: 0,
                end: 10,
                value: 2.0,
            },
            Chunk {
                start: 10,
                end: 30,
                value: 1.0,
            },
        ];
        let f = Fragmentation::from_boundaries(vec![0, 5, 30]);
        let stats = fragment_stats(&f, &chunks).unwrap();
        let total: f64 = stats.iter().map(|s| s.value).sum();
        assert!((total - 40.0).abs() < 1e-9);
        // First fragment is entirely inside the constant chunk: zero error.
        assert!(stats[0].error < 1e-12);
        assert!(stats[1].error > 0.0);
    }
}
