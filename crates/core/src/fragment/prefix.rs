//! Prefix statistics over value chunks (paper §5.2).
//!
//! The fragment error (unnormalized variance, Eq. 4) of any tuple range is
//! a constant-time expression in the cumulative sums of `V(x)` and `V(x)²`
//! at its two ends — the paper's array lookup. Our "array" is compressed
//! into the `m` chunks of the piecewise-constant value function, so an
//! arbitrary tuple position is first resolved to a [`Point`] by one binary
//! search over the chunk bounds (or by one forward sweep for an ascending
//! list of positions); a chunk bound's sums are read by index, with no
//! search at all. [`ChunkPrefix::error`] resolves both ends of every call;
//! the greedy fragmenter resolves each fragment end once and reads its
//! candidate cuts by index.

use super::FragmentError;
use crate::value::Chunk;

/// Prefix sums of `V(x)` and `V(x)²` over a chunked value function.
#[derive(Debug, Clone)]
pub struct ChunkPrefix {
    /// Chunk boundaries: `bounds[0] = 0`, `bounds[m] = table_len`.
    bounds: Vec<u64>,
    /// Per-chunk value (length `m`).
    values: Vec<f64>,
    /// `s[i]` = Σ V(x) for tuples before `bounds[i]`.
    s: Vec<f64>,
    /// `s2[i]` = Σ V(x)² for tuples before `bounds[i]`.
    s2: Vec<f64>,
}

impl ChunkPrefix {
    /// Builds prefix statistics from contiguous chunks covering
    /// `[0, table_len)`.
    ///
    /// # Errors
    /// Returns a [`FragmentError`] if the chunks are empty, do not start at
    /// zero, are not contiguous, or contain an empty chunk.
    pub fn new(chunks: &[Chunk]) -> Result<Self, FragmentError> {
        let Some(first) = chunks.first() else {
            return Err(FragmentError::NoChunks);
        };
        if first.start != 0 {
            return Err(FragmentError::NotAtZero { start: first.start });
        }
        let m = chunks.len();
        let mut bounds = Vec::with_capacity(m + 1);
        let mut values = Vec::with_capacity(m);
        let mut s = Vec::with_capacity(m + 1);
        let mut s2 = Vec::with_capacity(m + 1);
        bounds.push(0);
        s.push(0.0);
        s2.push(0.0);
        let mut acc = 0.0;
        let mut acc2 = 0.0;
        let mut prev_end = 0;
        for c in chunks {
            if c.start != prev_end {
                return Err(FragmentError::Discontiguous {
                    expected: prev_end,
                    got: c.start,
                });
            }
            if c.end <= c.start {
                return Err(FragmentError::EmptyChunk {
                    start: c.start,
                    end: c.end,
                });
            }
            prev_end = c.end;
            acc += c.sum();
            acc2 += c.sum_sq();
            bounds.push(c.end);
            values.push(c.value);
            s.push(acc);
            s2.push(acc2);
        }
        Ok(ChunkPrefix {
            bounds,
            values,
            s,
            s2,
        })
    }

    /// Total number of tuples covered.
    pub fn table_len(&self) -> u64 {
        self.bounds.last().map_or(0, |&last| last)
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.values.len()
    }

    /// The chunk boundaries (candidate fragment cut points), including 0 and
    /// `table_len`.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Index of the chunk containing tuple `x`.
    ///
    /// # Errors
    /// Returns [`FragmentError::TupleOutOfRange`] if `x >= table_len`.
    pub fn chunk_of(&self, x: u64) -> Result<usize, FragmentError> {
        if x >= self.table_len() {
            return Err(FragmentError::TupleOutOfRange {
                x,
                table_len: self.table_len(),
            });
        }
        // partition_point gives the first bound > x; the chunk is one before.
        Ok(self.bounds.partition_point(|&b| b <= x).saturating_sub(1))
    }

    /// Σ V(x) over tuple range `[a, b)`.
    pub fn sum(&self, a: u64, b: u64) -> f64 {
        self.at(b).s - self.at(a).s
    }

    /// Σ V(x)² over tuple range `[a, b)`.
    pub fn sum_sq(&self, a: u64, b: u64) -> f64 {
        self.at(b).s2 - self.at(a).s2
    }

    /// Fragment error (paper Eq. 4 via Eq. 6, with the `1/Size` that the
    /// paper's printed Eq. 6 drops — see DESIGN.md): the unnormalized
    /// variance of `V(x)` over `[a, b)`. Clamped at zero against float
    /// residue.
    ///
    /// Out-of-contract ranges (empty, or extending beyond the table) are
    /// clamped and contribute zero error; debug builds assert on them so
    /// tests still catch misuse. Use [`ChunkPrefix::try_error`] to surface
    /// the violation as a typed error instead.
    pub fn error(&self, a: u64, b: u64) -> f64 {
        debug_assert!(a < b, "empty fragment {a}..{b}");
        debug_assert!(b <= self.table_len(), "fragment {a}..{b} beyond table");
        self.error_between(&self.at(a), &self.at(b))
    }

    /// [`ChunkPrefix::error`] of `[a.x, b.x)` from the two ends' resolved
    /// sums: no search. Zero if the range is empty.
    pub(super) fn error_between(&self, a: &Point, b: &Point) -> f64 {
        if a.x >= b.x {
            return 0.0;
        }
        let sum = b.s - a.s;
        let sum_sq = b.s2 - a.s2;
        (sum_sq - sum * sum / (b.x - a.x) as f64).max(0.0)
    }

    /// Checked variant of [`ChunkPrefix::error`].
    ///
    /// # Errors
    /// Returns [`FragmentError::EmptyRange`] if `a >= b` and
    /// [`FragmentError::RangeBeyondTable`] if `b > table_len`.
    pub fn try_error(&self, a: u64, b: u64) -> Result<f64, FragmentError> {
        if a >= b {
            return Err(FragmentError::EmptyRange { start: a, end: b });
        }
        if b > self.table_len() {
            return Err(FragmentError::RangeBeyondTable {
                start: a,
                end: b,
                table_len: self.table_len(),
            });
        }
        Ok(self.error(a, b))
    }

    /// Resolves tuple position `x` (clamped to `table_len`) by one binary
    /// search over the chunk bounds.
    pub(super) fn at(&self, x: u64) -> Point {
        self.point(x, self.bounds.partition_point(|&b| b <= x))
    }

    /// Resolves ascending positions `xs` in one forward sweep over the
    /// chunk bounds; the same points [`ChunkPrefix::at`] gives one by one.
    pub(super) fn points(&self, xs: &[u64]) -> Vec<Point> {
        debug_assert!(
            xs.windows(2).all(|w| w[0] <= w[1]),
            "positions out of order"
        );
        let mut after = 0;
        xs.iter()
            .map(|&x| {
                after += self.bounds[after..].iter().take_while(|&&b| b <= x).count();
                self.point(x, after)
            })
            .collect()
    }

    /// Chunk bound `i` (`0..=num_chunks()`), read by index.
    pub(super) fn at_bound(&self, i: usize) -> Point {
        Point {
            x: self.bounds[i],
            s: self.s[i],
            s2: self.s2[i],
            after: i + 1,
            on_bound: true,
        }
    }

    /// The chunk bounds strictly inside `(a.x, b.x)`, by index; empty
    /// unless `a.x < b.x`.
    pub(super) fn bounds_inside(a: &Point, b: &Point) -> std::ops::Range<usize> {
        let hi = b.after - usize::from(b.on_bound);
        a.after..hi.max(a.after)
    }

    /// The point at `x`, given `after` = the number of chunk bounds `<= x`.
    /// Between bounds the sums add the partial chunk, `(x − bound) · v` and
    /// `(x − bound) · v²`; at a bound that term is `0 · v`, a zero for
    /// finite `v`, and adding a zero to a prefix sum (never `−0.0`) leaves
    /// its bits alone, so [`ChunkPrefix::at_bound`]'s plain read is the
    /// same sum.
    fn point(&self, x: u64, after: usize) -> Point {
        let len = self.table_len();
        let x = x.min(len);
        let idx = after - 1;
        let on_bound = self.bounds[idx] == x;
        let (s, s2) = if x == 0 {
            (0.0, 0.0)
        } else if x >= len {
            (
                self.s.last().map_or(0.0, |&t| t),
                self.s2.last().map_or(0.0, |&t| t),
            )
        } else {
            let v = self.values[idx];
            let d = (x - self.bounds[idx]) as f64;
            (self.s[idx] + d * v, self.s2[idx] + d * v.powi(2))
        };
        Point {
            x,
            s,
            s2,
            after,
            on_bound,
        }
    }
}

/// A tuple position resolved against a [`ChunkPrefix`]: the cumulative sums
/// before it and where it falls among the chunk bounds. Two points give
/// their range's error in O(1) ([`ChunkPrefix::error_between`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct Point {
    /// The position (at most `table_len`).
    pub(super) x: u64,
    /// Σ V(x) for tuples before `x`.
    pub(super) s: f64,
    /// Σ V(x)² for tuples before `x`.
    pub(super) s2: f64,
    /// Number of chunk bounds `<= x`.
    after: usize,
    /// `x` is a chunk bound.
    on_bound: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunks() -> Vec<Chunk> {
        vec![
            Chunk {
                start: 0,
                end: 4,
                value: 1.0,
            },
            Chunk {
                start: 4,
                end: 10,
                value: 3.0,
            },
            Chunk {
                start: 10,
                end: 12,
                value: 0.0,
            },
        ]
    }

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn sums_match_direct() {
        let p = ChunkPrefix::new(&chunks()).unwrap();
        assert_eq!(p.table_len(), 12);
        assert_eq!(p.num_chunks(), 3);
        assert_close(p.sum(0, 12), 4.0 + 18.0);
        assert_close(p.sum(2, 6), 2.0 + 6.0);
        assert_close(p.sum_sq(2, 6), 2.0 + 18.0);
        assert_close(p.sum(10, 12), 0.0);
        assert_close(p.sum(5, 5), 0.0);
    }

    #[test]
    fn chunk_of_boundaries() {
        let p = ChunkPrefix::new(&chunks()).unwrap();
        assert_eq!(p.chunk_of(0), Ok(0));
        assert_eq!(p.chunk_of(3), Ok(0));
        assert_eq!(p.chunk_of(4), Ok(1));
        assert_eq!(p.chunk_of(11), Ok(2));
        assert_eq!(
            p.chunk_of(12),
            Err(FragmentError::TupleOutOfRange {
                x: 12,
                table_len: 12
            })
        );
    }

    /// A chunk bound read by index, a binary search and a forward sweep
    /// resolve every position to the same point.
    #[test]
    fn resolutions_agree() {
        let p = ChunkPrefix::new(&chunks()).unwrap();
        let xs: Vec<u64> = (0..=13).collect();
        let swept = p.points(&xs);
        for (&x, point) in xs.iter().zip(&swept) {
            assert_eq!(*point, p.at(x), "position {x}");
        }
        for (i, &b) in p.bounds().iter().enumerate() {
            assert_eq!(p.at_bound(i), p.at(b), "bound {i}");
        }
        assert_eq!(p.at(13), p.at(12), "clamped to the table");
    }

    #[test]
    fn error_of_constant_range_is_zero() {
        let p = ChunkPrefix::new(&chunks()).unwrap();
        assert_close(p.error(0, 4), 0.0);
        assert_close(p.error(4, 10), 0.0);
        assert_close(p.error(5, 9), 0.0);
    }

    #[test]
    fn error_matches_direct_variance() {
        let p = ChunkPrefix::new(&chunks()).unwrap();
        // Range 2..6: values [1,1,3,3]; mean 2; sum sq dev = 4.
        assert_close(p.error(2, 6), 4.0);
        // Whole table: values [1×4, 3×6, 0×2]; mean 22/12.
        let mean: f64 = 22.0 / 12.0;
        let direct = 4.0 * (1.0 - mean).powi(2) + 6.0 * (3.0 - mean).powi(2) + 2.0 * mean * mean;
        assert_close(p.error(0, 12), direct);
    }

    #[test]
    fn error_is_never_negative() {
        // A constant function whose float sums could leave tiny residue.
        let c = vec![Chunk {
            start: 0,
            end: 1000,
            value: 0.1,
        }];
        let p = ChunkPrefix::new(&c).unwrap();
        for a in (0..900).step_by(97) {
            assert!(p.error(a, a + 100) >= 0.0);
        }
    }

    #[test]
    fn gap_in_chunks_rejected() {
        let got = ChunkPrefix::new(&[
            Chunk {
                start: 0,
                end: 4,
                value: 1.0,
            },
            Chunk {
                start: 5,
                end: 9,
                value: 1.0,
            },
        ]);
        assert!(matches!(
            got,
            Err(FragmentError::Discontiguous {
                expected: 4,
                got: 5
            })
        ));
    }

    #[test]
    fn offset_chunks_rejected() {
        let got = ChunkPrefix::new(&[Chunk {
            start: 1,
            end: 4,
            value: 1.0,
        }]);
        assert!(matches!(got, Err(FragmentError::NotAtZero { start: 1 })));
    }

    #[test]
    fn no_chunks_rejected() {
        assert!(matches!(
            ChunkPrefix::new(&[]),
            Err(FragmentError::NoChunks)
        ));
    }

    #[test]
    fn empty_chunk_rejected() {
        let got = ChunkPrefix::new(&[Chunk {
            start: 0,
            end: 0,
            value: 1.0,
        }]);
        assert!(matches!(
            got,
            Err(FragmentError::EmptyChunk { start: 0, end: 0 })
        ));
    }

    #[test]
    fn empty_error_range_rejected() {
        let p = ChunkPrefix::new(&chunks()).unwrap();
        assert_eq!(
            p.try_error(5, 5),
            Err(FragmentError::EmptyRange { start: 5, end: 5 })
        );
        assert_eq!(
            p.try_error(5, 13),
            Err(FragmentError::RangeBeyondTable {
                start: 5,
                end: 13,
                table_len: 12
            })
        );
        assert_close(p.try_error(2, 6).unwrap(), p.error(2, 6));
    }
}
