//! The Kuhn–Munkres (Hungarian) algorithm for minimum-weight perfect
//! bipartite matching, `O(n³)` via shortest augmenting paths with
//! potentials.
//!
//! The paper uses an off-the-shelf implementation (JGraphT); we implement it
//! from scratch and verify against brute-force permutation search in tests.

/// Why the Hungarian solver rejected its input matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HungarianError {
    /// The cost matrix has no rows.
    Empty,
    /// One row's length disagrees with the row count.
    NotSquare {
        /// Index of the offending row.
        row: usize,
        /// Its length.
        len: usize,
        /// The matrix's row count (the required length).
        n: usize,
    },
    /// An entry exceeds [`max_cost`] for the matrix's size, so the solver's
    /// `i64` potentials could not hold the sums it forms.
    CostTooLarge {
        /// Row of the offending entry.
        row: usize,
        /// Its column.
        col: usize,
        /// The entry.
        cost: u64,
        /// The largest entry the matrix may hold.
        max: u64,
    },
}

impl std::fmt::Display for HungarianError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            HungarianError::Empty => write!(f, "empty cost matrix"),
            HungarianError::NotSquare { row, len, n } => {
                write!(
                    f,
                    "cost matrix is not square: row {row} has {len} entries, expected {n}"
                )
            }
            HungarianError::CostTooLarge {
                row,
                col,
                cost,
                max,
            } => write!(
                f,
                "cost {cost} at row {row}, column {col} exceeds the solver's bound {max}"
            ),
        }
    }
}

impl std::error::Error for HungarianError {}

/// The largest entry an `n × n` matrix may hold: `n` of them sum to at
/// most `i64::MAX / 2`.
///
/// The solver keeps dual potentials `u` (rows) and `v` (columns) with
/// `0 ≤ u ≤ C` and `−C ≤ v ≤ 0` for the largest entry `C`, except the
/// virtual column's, which reaches `−n·C`; a reduced cost `c − u − v` lies
/// in `[0, 2C]`. With `n·C ≤ i64::MAX / 2` each of these, and the total of
/// the `n` matched entries, fits, and every reduced cost stays below the
/// solver's `i64::MAX` "unreached" mark.
pub fn max_cost(n: usize) -> u64 {
    (i64::MAX / 2).unsigned_abs() / (n.max(1) as u64)
}

/// Solves the assignment problem for a square `n × n` cost matrix.
///
/// Returns `(assignment, total_cost)` where `assignment[row] = col`.
///
/// # Errors
/// [`HungarianError`] if the matrix is empty or not square, or an entry
/// exceeds [`max_cost`]`(n)`.
pub fn hungarian(cost: &[Vec<u64>]) -> Result<(Vec<usize>, u64), HungarianError> {
    let n = cost.len();
    if n == 0 {
        return Err(HungarianError::Empty);
    }
    let max = max_cost(n);
    for (row, r) in cost.iter().enumerate() {
        if r.len() != n {
            return Err(HungarianError::NotSquare {
                row,
                len: r.len(),
                n,
            });
        }
        if let Some((col, &cost)) = r.iter().enumerate().find(|&(_, &c)| c > max) {
            return Err(HungarianError::CostTooLarge {
                row,
                col,
                cost,
                max,
            });
        }
    }
    let flat: Vec<u64> = cost.iter().flatten().copied().collect();
    Ok(solve_square(&flat, n))
}

/// The solver proper. `cost` is a square matrix with `n ≥ 1`, flat and
/// row-major: the cost of giving row `r` column `c` is `cost[r * n + c]`,
/// and no entry exceeds [`max_cost`]`(n)`. [`hungarian`] validates and
/// flattens public inputs; `plan_transition` and its `reference` twin build
/// their matrices flat and square by design and call in directly.
pub(super) fn solve_square(cost: &[u64], n: usize) -> (Vec<usize>, u64) {
    let watch = nashdb_obs::stopwatch();
    debug_assert_eq!(cost.len(), n * n, "flat cost matrix is not n × n");
    debug_assert!(
        cost.iter().all(|&c| c <= max_cost(n)),
        "cost matrix entry above the solver's bound"
    );

    // Above every reduced cost (see `max_cost`): a column not yet reached.
    const INF: i64 = i64::MAX;

    // 1-indexed arrays, the classic formulation: p[j] = row matched to
    // column j (p[0] is the row currently being inserted).
    let mut u = vec![0i64; n + 1];
    let mut v = vec![0i64; n + 1];
    let mut p = vec![0usize; n + 1];
    let mut way = vec![0usize; n + 1];
    // Per-insertion state, reset at the top of each row.
    let mut minv = vec![INF; n + 1];
    let mut used = vec![false; n + 1];

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        minv.fill(INF);
        used.fill(false);
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let row = &cost[(i0 - 1) * n..i0 * n];
            let mut delta = INF;
            let mut j1 = 0usize;
            for j in 1..=n {
                if used[j] {
                    continue;
                }
                // No wrap: entries are at most `max_cost(n)`.
                let cur = row[j - 1] as i64 - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut assignment = vec![0usize; n];
    for j in 1..=n {
        if p[j] > 0 {
            assignment[p[j] - 1] = j - 1;
        }
    }
    let total = assignment
        .iter()
        .enumerate()
        .map(|(r, &c)| cost[r * n + c])
        .sum();
    watch.record(nashdb_obs::Metric::TransitionHungarianNs);
    (assignment, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force(cost: &[Vec<u64>]) -> u64 {
        fn rec(cost: &[Vec<u64>], row: usize, used: &mut Vec<bool>, acc: u64, best: &mut u64) {
            if row == cost.len() {
                *best = (*best).min(acc);
                return;
            }
            for col in 0..cost.len() {
                if !used[col] {
                    used[col] = true;
                    rec(cost, row + 1, used, acc + cost[row][col], best);
                    used[col] = false;
                }
            }
        }
        let mut best = u64::MAX;
        rec(cost, 0, &mut vec![false; cost.len()], 0, &mut best);
        best
    }

    fn assert_valid_assignment(cost: &[Vec<u64>], assignment: &[usize], total: u64) {
        let n = cost.len();
        let mut seen = vec![false; n];
        let mut sum = 0;
        for (r, &c) in assignment.iter().enumerate() {
            assert!(!seen[c], "column {c} assigned twice");
            seen[c] = true;
            sum += cost[r][c];
        }
        assert_eq!(sum, total, "reported total does not match assignment");
    }

    #[test]
    fn trivial_one_by_one() {
        let (a, t) = hungarian(&[vec![7]]).unwrap();
        assert_eq!(a, vec![0]);
        assert_eq!(t, 7);
    }

    #[test]
    fn classic_three_by_three() {
        let cost = vec![vec![4, 1, 3], vec![2, 0, 5], vec![3, 2, 2]];
        let (a, t) = hungarian(&cost).unwrap();
        assert_valid_assignment(&cost, &a, t);
        assert_eq!(t, 5); // 1 + 2 + 2
    }

    #[test]
    fn identity_preferred_on_diagonal_zeros() {
        let cost = vec![vec![0, 9, 9], vec![9, 0, 9], vec![9, 9, 0]];
        let (a, t) = hungarian(&cost).unwrap();
        assert_eq!(t, 0);
        assert_eq!(a, vec![0, 1, 2]);
    }

    #[test]
    fn matches_brute_force_on_random_matrices() {
        use nashdb_sim::SimRng;
        let mut rng = SimRng::seed_from_u64(17);
        for trial in 0..50 {
            let n = rng.uniform_usize(1, 8);
            let cost: Vec<Vec<u64>> = (0..n)
                .map(|_| (0..n).map(|_| rng.uniform_u64(0, 1_000)).collect())
                .collect();
            let (a, t) = hungarian(&cost).unwrap();
            assert_valid_assignment(&cost, &a, t);
            let bf = brute_force(&cost);
            assert_eq!(t, bf, "trial {trial}: hungarian {t} vs brute force {bf}");
        }
    }

    #[test]
    fn handles_large_costs_without_overflow() {
        // Tuple counts can reach billions; make sure potentials don't wrap.
        let big = 3_000_000_000u64;
        let cost = vec![vec![big, big / 2], vec![big / 3, big]];
        let (a, t) = hungarian(&cost).unwrap();
        assert_valid_assignment(&cost, &a, t);
        assert_eq!(t, big / 2 + big / 3);
    }

    #[test]
    fn rejects_ragged_matrix() {
        assert_eq!(
            hungarian(&[vec![1, 2], vec![3]]),
            Err(HungarianError::NotSquare {
                row: 1,
                len: 1,
                n: 2
            })
        );
    }

    #[test]
    fn rejects_entries_the_potentials_cannot_hold() {
        // An entry of 2^63 or more used to wrap negative in the `i64` cast:
        // the solver returned [0, 1], the worst matching, and the total's
        // sum overflowed (a panic in debug, a wrapped total in release).
        let near_max = u64::MAX - 1;
        assert_eq!(
            hungarian(&[vec![near_max, 0], vec![0, near_max]]),
            Err(HungarianError::CostTooLarge {
                row: 0,
                col: 0,
                cost: near_max,
                max: max_cost(2),
            })
        );
        // The bound itself is accepted and solved exactly.
        let max = max_cost(2);
        let (a, t) = hungarian(&[vec![max, 0], vec![0, max]]).unwrap();
        assert_eq!((a, t), (vec![1, 0], 0));
        let (a, t) = hungarian(&[vec![0, max], vec![max, max]]).unwrap();
        assert_eq!((a, t), (vec![0, 1], max));
        assert_eq!(
            hungarian(&[vec![0, 0], vec![0, max + 1]]),
            Err(HungarianError::CostTooLarge {
                row: 1,
                col: 1,
                cost: max + 1,
                max,
            })
        );
    }

    #[test]
    fn matches_brute_force_near_the_bound() {
        use nashdb_sim::SimRng;
        let mut rng = SimRng::seed_from_u64(29);
        for trial in 0..30 {
            let n = rng.uniform_usize(1, 6);
            let max = max_cost(n);
            let cost: Vec<Vec<u64>> = (0..n)
                .map(|_| (0..n).map(|_| max - rng.uniform_u64(0, 3)).collect())
                .collect();
            let (a, t) = hungarian(&cost).unwrap();
            assert_valid_assignment(&cost, &a, t);
            assert_eq!(t, brute_force(&cost), "trial {trial}");
        }
    }

    #[test]
    fn rejects_empty_matrix() {
        assert_eq!(hungarian(&[]), Err(HungarianError::Empty));
    }

    #[test]
    fn all_dummy_columns_cost_nothing() {
        // A scale-to-zero transition pads every column with decommission
        // dummies: whole columns of zeros. The matching must still be a
        // valid permutation with total zero.
        let cost = vec![vec![0, 0, 0], vec![0, 0, 0], vec![0, 0, 0]];
        let (a, t) = hungarian(&cost).unwrap();
        assert_valid_assignment(&cost, &a, t);
        assert_eq!(t, 0);
    }

    #[test]
    fn mixed_real_and_dummy_columns() {
        // Two real new nodes (columns 0-1) and one dummy (column 2, all
        // zeros): the dummy must absorb the row whose real options are
        // worst.
        let cost = vec![vec![10, 20, 0], vec![30, 10, 0], vec![90, 90, 0]];
        let (a, t) = hungarian(&cost).unwrap();
        assert_valid_assignment(&cost, &a, t);
        assert_eq!(t, 20); // rows 0->0, 1->1, 2->dummy
        assert_eq!(a[2], 2);
    }

    #[test]
    fn single_node_dominant_column() {
        // 1×1 with a huge cost: trivially matched, no overflow.
        let (a, t) = hungarian(&[vec![u64::MAX / 8]]).unwrap();
        assert_eq!(a, vec![0]);
        assert_eq!(t, u64::MAX / 8);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn scales_to_hundreds_of_nodes() {
        // The paper reports standard implementations handle thousands of
        // nodes; verify ours completes a few-hundred-node instance quickly
        // and produces a no-worse-than-greedy matching.
        use nashdb_sim::SimRng;
        let mut rng = SimRng::seed_from_u64(5);
        let n = 200;
        let cost: Vec<Vec<u64>> = (0..n)
            .map(|_| (0..n).map(|_| rng.uniform_u64(0, 1_000_000)).collect())
            .collect();
        let (a, t) = hungarian(&cost).unwrap();
        assert_valid_assignment(&cost, &a, t);
        // Greedy row-by-row assignment for comparison.
        let mut used = vec![false; n];
        let mut greedy = 0u64;
        for row in &cost {
            let (c, w) = (0..n)
                .filter(|&c| !used[c])
                .map(|c| (c, row[c]))
                .min_by_key(|&(_, w)| w)
                .unwrap();
            used[c] = true;
            greedy += w;
        }
        assert!(t <= greedy, "optimal {t} worse than greedy {greedy}");
    }
}
