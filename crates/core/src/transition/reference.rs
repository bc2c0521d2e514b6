//! The per-pair cost matrix (paper §7, Eq. 10 as written), retained as the
//! executable specification [`plan_transition`](super::plan_transition) is
//! property-tested against. Not for production paths: it merge-walks the
//! run lists of every (old, new) pair, almost all of which share nothing —
//! the `nodes²` formulation the stretch merge replaced.

use super::{plan_from_costs, IntervalSet, TransitionPlan};

/// The square cost matrix of dimension `max(|old|, |new|)`, flat and
/// row-major. Rows are old nodes then dummies, columns new nodes then
/// dummies; entry `(i, j)` is `|new[j] − old[i]|` (reuse), `|new[j]|` for a
/// dummy row (provision) and 0 for a dummy column (decommission).
pub fn cost_matrix(old: &[IntervalSet], new: &[IntervalSet]) -> Vec<u64> {
    let n = old.len().max(new.len());
    (0..n)
        .flat_map(|i| {
            (0..n).map(move |j| match (old.get(i), new.get(j)) {
                (Some(o), Some(nw)) => nw.difference_len(o),
                (None, Some(nw)) => nw.len(),
                (_, None) => 0,
            })
        })
        .collect()
}

/// The plan the same solver returns for [`cost_matrix`]: identical to
/// [`plan_transition`](super::plan_transition), move for move.
pub fn plan(old: &[IntervalSet], new: &[IntervalSet]) -> TransitionPlan {
    if old.is_empty() && new.is_empty() {
        return TransitionPlan {
            moves: Vec::new(),
            total_transfer: 0,
        };
    }
    plan_from_costs(&cost_matrix(old, new), old.len(), new.len())
}
