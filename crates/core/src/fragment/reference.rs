//! The textbook greedy round (paper §5.3), retained as the executable
//! specification [`GreedyFragmenter`](super::GreedyFragmenter) is
//! property-tested against. Not for production paths: it re-derives the best
//! cut of every fragment and the best re-cut of every merge window from the
//! prefix sums each round, which is the O(table) formulation the
//! fragmenter's run-local cache replaced, and it scores every candidate cut
//! with [`ChunkPrefix::error`] over raw positions, where the fragmenter reads
//! resolved ends and chunk bounds by index.

use super::greedy::{MergePolicy, StepOutcome, MIN_SPLIT_GAIN, REL_EPSILON};
use super::prefix::ChunkPrefix;

/// One maintenance round over `boundaries` (`0 = b₀ < … < b_k = table_len`)
/// against the value function behind `prefix`: below the cap, apply the best
/// split; at the cap, merge the best window and re-split, reverting unless
/// the pair lowers total error by more than the relative floor; above the
/// cap (an adopted fragmentation), merge without re-splitting. Identical
/// boundaries and outcomes to one
/// [`GreedyFragmenter::step`](super::GreedyFragmenter::step) with the same
/// cap, `min_relative_gain` and policy.
pub fn greedy_round(
    boundaries: &mut Vec<u64>,
    prefix: &ChunkPrefix,
    max_frags: usize,
    min_relative_gain: f64,
    policy: MergePolicy,
) -> StepOutcome {
    let rel_floor = REL_EPSILON + min_relative_gain;
    let len = boundaries.len().saturating_sub(1);
    if len > max_frags {
        if len < policy.window() {
            // Two fragments under a cap of one: only the whole table fits.
            boundaries.drain(1..len);
        } else {
            apply_best_merge(boundaries, prefix, policy);
        }
        return StepOutcome::Changed;
    }
    if len < max_frags {
        if let Some((frag_idx, point, _gain)) = best_split(boundaries, prefix, rel_floor) {
            boundaries.insert(frag_idx + 1, point);
            return StepOutcome::Changed;
        }
        return StepOutcome::Stable;
    }

    // At the cap: merging needs enough adjacent fragments.
    if len < policy.window() {
        return StepOutcome::Stable;
    }
    let before_boundaries = boundaries.clone();
    let before_err = total_error(boundaries, prefix);
    apply_best_merge(boundaries, prefix, policy);
    if let Some((frag_idx, point, _gain)) = best_split(boundaries, prefix, rel_floor) {
        boundaries.insert(frag_idx + 1, point);
    }
    let after_err = total_error(boundaries, prefix);
    let floor = MIN_SPLIT_GAIN + rel_floor * before_err;
    if after_err < before_err - floor {
        StepOutcome::Changed
    } else {
        *boundaries = before_boundaries;
        StepOutcome::Stable
    }
}

fn total_error(boundaries: &[u64], prefix: &ChunkPrefix) -> f64 {
    boundaries
        .windows(2)
        .map(|w| prefix.error(w[0], w[1]))
        .sum()
}

/// Finds the globally best split: `(fragment_index, cut_point, gain)`
/// maximizing `Err(f) − (Err(left) + Err(right))`, or `None` if no split
/// clears the gain floors.
fn best_split(
    boundaries: &[u64],
    prefix: &ChunkPrefix,
    rel_floor: f64,
) -> Option<(usize, u64, f64)> {
    let mut best: Option<(usize, u64, f64)> = None;
    for (idx, w) in boundaries.windows(2).enumerate() {
        let (a, b) = (w[0], w[1]);
        let whole = prefix.error(a, b);
        if whole <= MIN_SPLIT_GAIN {
            continue; // already uniform; no split can gain enough
        }
        if let Some((point, split_err)) = best_cut(prefix, a, b, &[]) {
            let gain = whole - split_err;
            // Both an absolute and a magnitude-relative floor: the gain
            // must be a real reduction, not float residue.
            if gain > MIN_SPLIT_GAIN
                && gain > rel_floor * whole
                && best.is_none_or(|(_, _, g)| gain > g)
            {
                best = Some((idx, point, gain));
            }
        }
    }
    best
}

fn apply_best_merge(boundaries: &mut Vec<u64>, prefix: &ChunkPrefix, policy: MergePolicy) {
    match policy {
        MergePolicy::TripleToPair => apply_best_triple_merge(boundaries, prefix),
        MergePolicy::PairToOne => apply_best_pair_merge(boundaries, prefix),
    }
}

/// Merges the adjacent triple whose optimal re-cut into two fragments
/// increases total error the least (paper §5.3.2).
fn apply_best_triple_merge(boundaries: &mut Vec<u64>, prefix: &ChunkPrefix) {
    debug_assert!(boundaries.len() >= 4);
    let mut best: Option<(usize, u64, f64)> = None; // (first boundary idx, cut, delta)
    for (i, w) in boundaries.windows(4).enumerate() {
        let (a, b, c, d) = (w[0], w[1], w[2], w[3]);
        let old = prefix.error(a, b) + prefix.error(b, c) + prefix.error(c, d);
        // The optimal two-way cut of [a, d): chunk boundaries plus the
        // existing cuts b and c (which are always legal and guarantee a
        // candidate even when no value change falls strictly inside).
        let Some((point, new)) = best_cut(prefix, a, d, &[b, c]) else {
            continue;
        };
        let delta = new - old;
        if best.is_none_or(|(_, _, d0)| delta < d0) {
            best = Some((i, point, delta));
        }
    }
    let Some((i, point, _)) = best else {
        return;
    };
    // Replace boundaries b, c with the single cut `point`.
    boundaries.splice(i + 1..i + 3, [point]);
    debug_assert!(boundaries.windows(2).all(|w| w[0] < w[1]));
}

/// The pairwise strawman: delete the interior boundary whose removal
/// increases total error the least.
fn apply_best_pair_merge(boundaries: &mut Vec<u64>, prefix: &ChunkPrefix) {
    debug_assert!(boundaries.len() >= 3);
    let mut best: Option<(usize, f64)> = None; // (boundary idx, delta)
    for (i, w) in boundaries.windows(3).enumerate() {
        let (a, b, c) = (w[0], w[1], w[2]);
        let delta = prefix.error(a, c) - (prefix.error(a, b) + prefix.error(b, c));
        if best.is_none_or(|(_, d0)| delta < d0) {
            best = Some((i + 1, delta));
        }
    }
    let Some((i, _)) = best else {
        return;
    };
    boundaries.remove(i);
}

/// The best single cut of `[a, b)`: considers every chunk boundary strictly
/// inside plus `extra` candidates, returning `(point, err_left + err_right)`
/// minimized. `None` if there are no candidates.
///
/// This is the paper's `FindSplit` (Algorithm 2) restricted to value-change
/// points (Appendix C): linear in the number of candidates.
pub fn best_cut(prefix: &ChunkPrefix, a: u64, b: u64, extra: &[u64]) -> Option<(u64, f64)> {
    let bounds = prefix.bounds();
    let lo = bounds.partition_point(|&x| x <= a);
    let hi = bounds.partition_point(|&x| x < b);
    let candidates = bounds[lo..hi]
        .iter()
        .copied()
        .chain(extra.iter().copied().filter(|&p| p > a && p < b));
    let mut best: Option<(u64, f64)> = None;
    for p in candidates {
        let e = prefix.error(a, p) + prefix.error(p, b);
        if best.is_none_or(|(_, be)| e < be) {
            best = Some((p, e));
        }
    }
    best
}
