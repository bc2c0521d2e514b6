//! The value stage's oracle: the in-order `(key, ∆)` pairs a scan window
//! implies, re-derived with no tree — sort every endpoint, sum per key.
//!
//! Shares no code with the production tree. The fold adds each weight
//! exactly once, so it carries none of the add/remove rounding residue a
//! long-lived tree accumulates; compare within a tolerance, not bit for bit.

use super::PricedScan;

/// Folds `scans` into sorted `(key, Σ ±w)` pairs, `w = price / size`: `+w`
/// where a scan starts, `−w` where it ends. A key where the two cancel stays
/// in the output with a net ∆ of zero, as it stays in the tree.
pub fn window_fold(scans: &[PricedScan]) -> Vec<(u64, f64)> {
    let mut endpoints: Vec<(u64, f64)> = Vec::with_capacity(2 * scans.len());
    for s in scans {
        let w = s.price / (s.end - s.start) as f64;
        endpoints.push((s.start, w));
        endpoints.push((s.end, -w));
    }
    endpoints.sort_by_key(|&(key, _)| key);
    let mut folded: Vec<(u64, f64)> = Vec::new();
    for (key, w) in endpoints {
        match folded.last_mut() {
            Some((last, delta)) if *last == key => *delta += w,
            _ => folded.push((key, w)),
        }
    }
    folded
}

/// Test helper: `got` must be [`window_fold`] of `scans` key for key, each
/// ∆ within `tol`.
#[cfg(test)]
pub(super) fn assert_matches_fold(
    got: impl Iterator<Item = (u64, f64)>,
    scans: &[PricedScan],
    tol: f64,
) {
    let (got, expect): (Vec<_>, _) = (got.collect(), window_fold(scans));
    assert_eq!(got.len(), expect.len(), "{got:?} vs {expect:?}");
    for (&(k, d), &(ek, ed)) in got.iter().zip(&expect) {
        assert_eq!(k, ek, "{got:?} vs {expect:?}");
        assert!((d - ed).abs() < tol, "key {k}: {d} vs {ed}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_folds_to_nothing() {
        assert!(window_fold(&[]).is_empty());
    }

    #[test]
    fn shared_keys_accumulate() {
        let fold = window_fold(&[
            PricedScan::new(0, 10, 10.0),
            PricedScan::new(0, 10, 20.0),
            PricedScan::new(4, 10, 3.0),
        ]);
        assert_eq!(fold, vec![(0, 3.0), (4, 0.5), (10, -3.5)]);
    }

    #[test]
    fn start_and_end_at_one_key_net_out() {
        // 0..5 ends where 5..9 starts, both of weight 1: key 5 stays, at ∆ 0.
        let fold = window_fold(&[PricedScan::new(5, 9, 4.0), PricedScan::new(0, 5, 5.0)]);
        assert_eq!(fold, vec![(0, 1.0), (5, 0.0), (9, -1.0)]);
    }
}
