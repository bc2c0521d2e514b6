//! Optimal fragmentation by dynamic programming (paper §5.2).
//!
//! The classic optimal-k-segments scheme ([Mahlknecht et al.], [Jagadish et
//! al.]): `dp[j][i]` is the minimum summed error of cutting the first `i`
//! chunks into `j` fragments, with the error of a candidate fragment
//! computable in O(1) from prefix sums. The paper notes the optimal cut
//! points can only fall where `V(x)` changes, so we run the DP over the `m`
//! value chunks rather than the `n` tuples — `O(maxFrags · m²)` time and
//! `O(maxFrags · m)` space, with `m ≤ 2|W| + 1`.

use nashdb_obs::Metric;

use super::prefix::ChunkPrefix;
use super::{FragmentError, Fragmentation};
use crate::value::Chunk;

/// Computes a fragmentation of minimum total error with **at most**
/// `max_frags` fragments.
///
/// If the value function has fewer chunks than `max_frags`, every chunk
/// boundary is used and the error is exactly zero; adding further cuts
/// inside constant-value runs could not reduce it (the paper's `|F| =
/// maxFrags` constraint is met with equality only when it matters).
///
/// # Errors
/// Returns [`FragmentError::ZeroMaxFrags`] if `max_frags` is zero and a
/// chunk-validation error if `chunks` is empty/malformed.
pub fn optimal_fragmentation(
    chunks: &[Chunk],
    max_frags: usize,
) -> Result<Fragmentation, FragmentError> {
    if max_frags == 0 {
        return Err(FragmentError::ZeroMaxFrags);
    }
    let watch = nashdb_obs::stopwatch();
    nashdb_obs::counter_add(Metric::FragmentOptimalRuns, 1);
    nashdb_obs::record(Metric::FragmentOptimalChunks, chunks.len() as u64);
    let frag = unrecorded_optimal(chunks, max_frags)?;
    watch.record(Metric::FragmentOptimalNs);
    Ok(frag)
}

/// [`optimal_fragmentation`] without its metrics: the DP an audit re-solves
/// with, so an audited run's snapshot carries only what the pipeline did.
///
/// # Errors
/// As [`optimal_fragmentation`].
#[allow(clippy::needless_range_loop)] // index arithmetic *is* the DP
pub(crate) fn unrecorded_optimal(
    chunks: &[Chunk],
    max_frags: usize,
) -> Result<Fragmentation, FragmentError> {
    if max_frags == 0 {
        return Err(FragmentError::ZeroMaxFrags);
    }
    let prefix = ChunkPrefix::new(chunks)?;
    let bounds = prefix.bounds();
    let m = prefix.num_chunks();
    let k = max_frags.min(m);

    if k == m {
        // One fragment per chunk: zero error, no DP needed.
        return Ok(Fragmentation::from_boundaries(bounds.to_vec()));
    }

    // err(a_chunk, b_chunk): error of the fragment spanning chunks [a, b).
    let err = |a: usize, b: usize| prefix.error(bounds[a], bounds[b]);

    // dp[i]: min error covering chunks [0, i) with the current layer's
    // fragment count; choice[j][i]: the best last cut for that state.
    let mut dp = vec![0.0f64; m + 1];
    for i in 1..=m {
        dp[i] = err(0, i);
    }
    let mut choice = vec![vec![0usize; m + 1]; k + 1];

    for j in 2..=k {
        // With j fragments we can cover at least j chunks and must leave at
        // least j-1 chunks behind the last cut. The row slices are zipped
        // because indexed stores (`next[i]`, `choice[j][i]`) in this loop
        // measured ≈ 20 % slower over the whole DP.
        let mut next = vec![f64::INFINITY; m + 1];
        for ((i, slot), cut) in (j..=m).zip(&mut next[j..]).zip(&mut choice[j][j..]) {
            let mut best = f64::INFINITY;
            let mut best_p = j - 1;
            for p in (j - 1)..i {
                let cand = dp[p] + err(p, i);
                if cand < best {
                    best = cand;
                    best_p = p;
                }
            }
            *slot = best;
            *cut = best_p;
        }
        dp = next;
    }

    // Reconstruct cut points walking choice backwards.
    let mut cuts = Vec::with_capacity(k + 1);
    cuts.push(m);
    let mut i = m;
    for j in (2..=k).rev() {
        i = choice[j][i];
        cuts.push(i);
    }
    cuts.push(0);
    cuts.reverse();
    let boundaries: Vec<u64> = cuts.into_iter().map(|c| bounds[c]).collect();
    Ok(Fragmentation::from_boundaries(boundaries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::ChunkPrefix;

    fn chunk(start: u64, end: u64, value: f64) -> Chunk {
        Chunk { start, end, value }
    }

    /// Brute force: try every way to cut `m` chunks into exactly `k`
    /// fragments and return the minimum error.
    fn brute_force_error(chunks: &[Chunk], k: usize) -> f64 {
        let prefix = ChunkPrefix::new(chunks).unwrap();
        let bounds = prefix.bounds().to_vec();
        let m = chunks.len();
        fn rec(
            prefix: &ChunkPrefix,
            bounds: &[u64],
            from: usize,
            m: usize,
            k: usize,
            best: &mut f64,
            acc: f64,
        ) {
            if k == 1 {
                let total = acc + prefix.error(bounds[from], bounds[m]);
                if total < *best {
                    *best = total;
                }
                return;
            }
            for next in (from + 1)..=(m - k + 1) {
                rec(
                    prefix,
                    bounds,
                    next,
                    m,
                    k - 1,
                    best,
                    acc + prefix.error(bounds[from], bounds[next]),
                );
            }
        }
        let mut best = f64::INFINITY;
        rec(&prefix, &bounds, 0, m, k, &mut best, 0.0);
        best
    }

    #[test]
    fn figure3_splits_between_c1_and_c2() {
        // Paper Fig. 3: a low-valued run followed by a high-valued run. Two
        // fragments should split exactly at the value change.
        let chunks = vec![chunk(0, 50, 1.0), chunk(50, 100, 5.0)];
        let f = optimal_fragmentation(&chunks, 2).unwrap();
        assert_eq!(f.boundaries(), &[0, 50, 100]);
        let prefix = ChunkPrefix::new(&chunks).unwrap();
        assert!(f.total_error(&prefix) < 1e-9);
    }

    #[test]
    fn respects_max_frags() {
        let chunks = vec![
            chunk(0, 10, 1.0),
            chunk(10, 20, 5.0),
            chunk(20, 30, 1.0),
            chunk(30, 40, 9.0),
        ];
        for k in 1..=4 {
            let f = optimal_fragmentation(&chunks, k).unwrap();
            assert!(f.len() <= k, "k={k} gave {} fragments", f.len());
        }
        // With k = m, error is zero.
        let prefix = ChunkPrefix::new(&chunks).unwrap();
        let f = optimal_fragmentation(&chunks, 4).unwrap();
        assert!(f.total_error(&prefix) < 1e-12);
        // k = 0 is a contract violation, surfaced as a typed error.
        assert_eq!(
            optimal_fragmentation(&chunks, 0).unwrap_err(),
            FragmentError::ZeroMaxFrags
        );
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for trial in 0..30 {
            let m = rng.gen_range(2..8usize);
            let mut chunks = Vec::new();
            let mut pos = 0u64;
            for _ in 0..m {
                let len = rng.gen_range(1..20u64);
                chunks.push(chunk(pos, pos + len, rng.gen_range(0.0..10.0f64)));
                pos += len;
            }
            let k = rng.gen_range(1..=m);
            let f = optimal_fragmentation(&chunks, k).unwrap();
            let prefix = ChunkPrefix::new(&chunks).unwrap();
            let dp_err = f.total_error(&prefix);
            let bf_err = brute_force_error(&chunks, k.min(m));
            assert!(
                (dp_err - bf_err).abs() < 1e-6 * (1.0 + bf_err),
                "trial {trial}: dp {dp_err} vs brute force {bf_err}"
            );
        }
    }

    #[test]
    fn single_fragment_covers_table() {
        let chunks = vec![chunk(0, 10, 1.0), chunk(10, 20, 2.0)];
        let f = optimal_fragmentation(&chunks, 1).unwrap();
        assert_eq!(f.boundaries(), &[0, 20]);
    }

    #[test]
    fn monotone_in_k() {
        // More allowed fragments never increases optimal error.
        let chunks = vec![
            chunk(0, 7, 2.0),
            chunk(7, 19, 8.0),
            chunk(19, 23, 1.0),
            chunk(23, 40, 4.0),
            chunk(40, 55, 6.0),
        ];
        let prefix = ChunkPrefix::new(&chunks).unwrap();
        let mut prev = f64::INFINITY;
        for k in 1..=5 {
            let e = optimal_fragmentation(&chunks, k)
                .unwrap()
                .total_error(&prefix);
            assert!(e <= prev + 1e-9, "error rose from {prev} to {e} at k={k}");
            prev = e;
        }
    }
}
