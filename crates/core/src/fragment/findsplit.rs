//! The paper's Algorithm 2 (`FindSplit`, Appendix C), implemented as
//! printed: a single linear pass that tracks the running sum and sum of
//! squares of `V(x)` on each side of the candidate split point (a
//! Welford-flavoured sweep, per the paper's citation), returning the split
//! that minimizes the two resulting fragments' summed error.
//!
//! The production fragmenters use the equivalent chunk-restricted search in
//! [`GreedyFragmenter`](super::GreedyFragmenter) (the optimization the
//! paper's Appendix C itself suggests: the optimal split can only fall
//! where `V(x)` changes). This module exists so the printed algorithm is
//! present, tested, and *proved equivalent* to the optimized one — see the
//! differential tests below and `crates/core/tests/`.

use super::FragmentError;
use crate::value::Chunk;

/// The outcome of `FindSplit` on a fragment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitPoint {
    /// The cut position (a tuple index strictly inside the fragment).
    pub point: u64,
    /// `Err(left) + Err(right)` at that cut.
    pub error: f64,
}

/// Algorithm 2, literally: scans every interior tuple position of the
/// fragment `[start, end)` (walking the chunk representation tuple-run by
/// tuple-run, as Appendix C notes one may), maintaining left/right sums and
/// squared sums, and returns the best split.
///
/// Returns `Ok(None)` for fragments of fewer than two tuples (no interior
/// point).
///
/// # Errors
/// Returns [`FragmentError::EmptyRange`] if `start >= end` and
/// [`FragmentError::Uncovered`] if `[start, end)` is not covered by
/// `chunks`.
pub fn find_split(
    chunks: &[Chunk],
    start: u64,
    end: u64,
) -> Result<Option<SplitPoint>, FragmentError> {
    if start >= end {
        return Err(FragmentError::EmptyRange { start, end });
    }
    if end - start < 2 {
        return Ok(None);
    }

    // Clip the chunk list to the fragment.
    let runs: Vec<(u64, f64)> = chunks
        .iter()
        .filter_map(|c| {
            let lo = c.start.max(start);
            let hi = c.end.min(end);
            (lo < hi).then_some((hi - lo, c.value))
        })
        .collect();
    let covered: u64 = runs.iter().map(|&(n, _)| n).sum();
    if covered != end - start {
        return Err(FragmentError::Uncovered {
            start,
            end,
            covered,
        });
    }

    // Lines 2–5 of Algorithm 2: α/α₂ hold the left side (initially the
    // first tuple), β/β₂ the right side (everything else).
    let mut alpha = 0.0f64;
    let mut alpha2 = 0.0f64;
    let mut beta: f64 = runs.iter().map(|&(n, v)| n as f64 * v).sum();
    let mut beta2: f64 = runs.iter().map(|&(n, v)| n as f64 * v * v).sum();

    let err = |sum: f64, sum2: f64, size: u64| -> f64 {
        if size == 0 {
            0.0
        } else {
            (sum2 - sum * sum / size as f64).max(0.0)
        }
    };

    let mut best: Option<SplitPoint> = None;
    let mut pos = start;
    for &(n, v) in &runs {
        // Within a constant-value run the error curve is smooth; Appendix C
        // notes the optimum can only sit at a run boundary, but the printed
        // algorithm checks every tuple — so we do too, by stepping through
        // the run one tuple at a time *analytically*: moving k tuples of
        // value v left shifts the sums by k·v and k·v². Evaluating at each
        // k is the literal per-tuple loop, just without re-summing.
        for k in 1..=n {
            let a = alpha + k as f64 * v;
            let a2 = alpha2 + k as f64 * v * v;
            let b = beta - k as f64 * v;
            let b2 = beta2 - k as f64 * v * v;
            let split = pos + k;
            if split >= end {
                break;
            }
            let e = err(a, a2, split - start) + err(b, b2, end - split);
            if best.is_none_or(|s| e < s.error) {
                best = Some(SplitPoint {
                    point: split,
                    error: e,
                });
            }
        }
        alpha += n as f64 * v;
        alpha2 += n as f64 * v * v;
        beta -= n as f64 * v;
        beta2 -= n as f64 * v * v;
        pos += n;
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::ChunkPrefix;

    fn chunk(start: u64, end: u64, value: f64) -> Chunk {
        Chunk { start, end, value }
    }

    #[test]
    fn splits_a_step_at_the_step() {
        let chunks = [chunk(0, 50, 1.0), chunk(50, 100, 9.0)];
        let s = find_split(&chunks, 0, 100).unwrap().unwrap();
        assert_eq!(s.point, 50);
        assert!(s.error < 1e-9);
    }

    #[test]
    fn single_tuple_fragment_has_no_split() {
        let chunks = [chunk(0, 10, 1.0)];
        assert_eq!(find_split(&chunks, 3, 4), Ok(None));
    }

    #[test]
    fn constant_fragment_any_split_is_zero_error() {
        let chunks = [chunk(0, 100, 2.0)];
        let s = find_split(&chunks, 10, 90).unwrap().unwrap();
        assert!(s.error < 1e-9);
        assert!(s.point > 10 && s.point < 90);
    }

    /// The literal algorithm agrees with brute-force error evaluation at
    /// every interior point.
    #[test]
    fn matches_exhaustive_search() {
        use nashdb_sim::SimRng;
        let mut rng = SimRng::seed_from_u64(77);
        for _ in 0..25 {
            let m = rng.uniform_usize(1, 6);
            let mut chunks = Vec::new();
            let mut pos = 0u64;
            for _ in 0..m {
                let len = rng.uniform_u64(1, 12);
                chunks.push(chunk(pos, pos + len, 5.0 * rng.uniform_f64()));
                pos += len;
            }
            let prefix = ChunkPrefix::new(&chunks).unwrap();
            let got = find_split(&chunks, 0, pos).unwrap();
            if pos < 2 {
                assert_eq!(got, None);
                continue;
            }
            let mut best = f64::INFINITY;
            for p in 1..pos {
                let e = prefix.error(0, p) + prefix.error(p, pos);
                if e < best {
                    best = e;
                }
            }
            let got = got.unwrap();
            assert!(
                (got.error - best).abs() < 1e-9 * (1.0 + best),
                "findsplit {} vs exhaustive {}",
                got.error,
                best
            );
        }
    }

    /// Appendix C's claim: the optimum found over all tuples equals the
    /// optimum restricted to value-change boundaries (what the production
    /// fragmenter searches).
    #[test]
    fn chunk_boundaries_suffice() {
        use nashdb_sim::SimRng;
        let mut rng = SimRng::seed_from_u64(78);
        for _ in 0..25 {
            let m = rng.uniform_usize(2, 8);
            let mut chunks = Vec::new();
            let mut pos = 0u64;
            for _ in 0..m {
                let len = rng.uniform_u64(1, 30);
                chunks.push(chunk(pos, pos + len, 5.0 * rng.uniform_f64()));
                pos += len;
            }
            let prefix = ChunkPrefix::new(&chunks).unwrap();
            let all = find_split(&chunks, 0, pos).unwrap().unwrap();
            let boundary_best = chunks[..m - 1]
                .iter()
                .map(|c| prefix.error(0, c.end) + prefix.error(c.end, pos))
                .fold(f64::INFINITY, f64::min);
            assert!(
                all.error <= boundary_best + 1e-9,
                "all-points {} worse than boundary {}",
                all.error,
                boundary_best
            );
            assert!(
                boundary_best <= all.error + 1e-9 * (1.0 + all.error),
                "boundary {} worse than all-points {} — Appendix C violated",
                boundary_best,
                all.error
            );
        }
    }

    #[test]
    fn uncovered_fragment_rejected() {
        let chunks = [chunk(0, 10, 1.0)];
        assert_eq!(
            find_split(&chunks, 5, 20),
            Err(FragmentError::Uncovered {
                start: 5,
                end: 20,
                covered: 5
            })
        );
        assert_eq!(
            find_split(&chunks, 5, 5),
            Err(FragmentError::EmptyRange { start: 5, end: 5 })
        );
    }
}
