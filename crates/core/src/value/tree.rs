//! The value estimation tree (paper §4.2, with the Appendix A optimization).
//!
//! The paper's "augmented BST over scan start/end points" is an ordered map
//! from tuple index to ∆ with an in-order walk, which is what
//! `std::collections::BTreeMap` provides. Following Appendix A we store the
//! net delta `∆(n) = S(n) − E(n)` (the change in per-scan income at that
//! index) rather than `S` and `E` separately; to make scan *removal* exact
//! we additionally keep integer counts of the scans starting/ending at each
//! key and drop a key only when both counts reach zero, so float residue can
//! never strand ghost keys or drop live ones.
//!
//! An in-order traversal yields `(key, ∆)` pairs from which Algorithm 1
//! recovers the piecewise-constant tuple value function in `O(|W|)`.

use std::collections::BTreeMap;

use super::{PricedScan, ValueTreeError};

/// What the tree knows about one scan start/end index.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    /// Net per-scan income change at the key: Σ weights of scans starting
    /// here minus Σ weights of scans ending here.
    delta: f64,
    /// Number of windowed scans starting at the key.
    start_count: u32,
    /// Number of windowed scans ending at the key.
    end_count: u32,
}

/// Which endpoint of a scan a tree update refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Endpoint {
    /// The (inclusive) starting tuple of a scan.
    Start,
    /// The (exclusive) ending tuple of a scan.
    End,
}

/// The value estimation tree: one [`Entry`] per distinct tuple index where
/// some windowed scan starts or ends.
#[derive(Debug, Default)]
pub(crate) struct ValueTree {
    map: BTreeMap<u64, Entry>,
}

impl ValueTree {
    /// Payload bytes per tracked key (the key and its [`Entry`]); the map's
    /// own node slack comes on top.
    pub(crate) const BYTES_PER_KEY: usize =
        std::mem::size_of::<u64>() + std::mem::size_of::<Entry>();

    /// Number of distinct scan start/end indices currently tracked.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Records a newly windowed scan: its weight `Price(s)/Size(s)` is added
    /// at its start key and subtracted at its end key.
    pub(crate) fn add_scan(&mut self, scan: &PricedScan) {
        self.add(scan.start, scan.weight(), Endpoint::Start);
        self.add(scan.end, scan.weight(), Endpoint::End);
    }

    /// Reverses [`add_scan`](Self::add_scan) when the scan leaves the window.
    ///
    /// # Errors
    /// Fails (leaving the tree unchanged) when the scan was never added —
    /// see [`ValueTreeError`].
    pub(crate) fn remove_scan(&mut self, scan: &PricedScan) -> Result<(), ValueTreeError> {
        // A scan spans two distinct keys; validate both before touching
        // either so a failed removal leaves the tree fully intact.
        self.check_removable(scan.start, Endpoint::Start)?;
        self.check_removable(scan.end, Endpoint::End)?;
        self.remove(scan.start, scan.weight(), Endpoint::Start)?;
        self.remove(scan.end, scan.weight(), Endpoint::End)
    }

    /// In-order `(key, ∆)` pairs — the input to Algorithm 1.
    pub(crate) fn deltas(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.map.iter().map(|(&k, e)| (k, e.delta))
    }

    fn add(&mut self, key: u64, weight: f64, endpoint: Endpoint) {
        let e = self.map.entry(key).or_default();
        match endpoint {
            Endpoint::Start => {
                e.delta += weight;
                e.start_count += 1;
            }
            Endpoint::End => {
                e.delta -= weight;
                e.end_count += 1;
            }
        }
    }

    /// Reverses a prior [`add`](Self::add), dropping the key once no
    /// windowed scan starts or ends there. On error the tree is unchanged.
    fn remove(&mut self, key: u64, weight: f64, endpoint: Endpoint) -> Result<(), ValueTreeError> {
        let e = self
            .map
            .get_mut(&key)
            .ok_or(ValueTreeError::UntrackedKey { key })?;
        let (count, signed) = match endpoint {
            Endpoint::Start => (&mut e.start_count, -weight),
            Endpoint::End => (&mut e.end_count, weight),
        };
        *count = count
            .checked_sub(1)
            .ok_or(ValueTreeError::EndpointUnderflow { key })?;
        e.delta += signed;
        if e.start_count == 0 && e.end_count == 0 {
            self.map.remove(&key);
        }
        Ok(())
    }

    /// Verifies that a scan endpoint of the given kind is tracked at `key`.
    fn check_removable(&self, key: u64, endpoint: Endpoint) -> Result<(), ValueTreeError> {
        let e = self
            .map
            .get(&key)
            .ok_or(ValueTreeError::UntrackedKey { key })?;
        let count = match endpoint {
            Endpoint::Start => e.start_count,
            Endpoint::End => e.end_count,
        };
        if count > 0 {
            Ok(())
        } else {
            Err(ValueTreeError::EndpointUnderflow { key })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::reference::assert_matches_fold;
    use super::*;

    fn add_scan(tree: &mut ValueTree, start: u64, end: u64, weight: f64) {
        tree.add(start, weight, Endpoint::Start);
        tree.add(end, weight, Endpoint::End);
    }

    fn remove_scan(tree: &mut ValueTree, start: u64, end: u64, weight: f64) {
        tree.remove(start, weight, Endpoint::Start).unwrap();
        tree.remove(end, weight, Endpoint::End).unwrap();
    }

    fn keys(tree: &ValueTree) -> Vec<u64> {
        tree.deltas().map(|(k, _)| k).collect()
    }

    /// The paper's Figure 2: s1 = (7..10, price 6), s2 = (4..10, price 3),
    /// s3 = (0..5, price 5).
    fn figure2_tree() -> ValueTree {
        let mut t = ValueTree::default();
        add_scan(&mut t, 7, 10, 6.0 / 3.0); // s1: 3 tuples, price 6
        add_scan(&mut t, 4, 10, 3.0 / 6.0); // s2: 6 tuples, price 3
        add_scan(&mut t, 0, 5, 1.0); // s3: 5 tuples, price 5 -> weight 1
        t
    }

    #[test]
    fn figure2_deltas_match_paper() {
        let t = figure2_tree();
        assert_eq!(t.len(), 5);
        let deltas: Vec<(u64, f64)> = t.deltas().collect();
        let expect = [
            (0u64, 1.0), // S=1, E=0
            (4, 0.5),    // S=0.5, E=0
            (5, -1.0),   // S=0, E=1
            (7, 2.0),    // S=2, E=0
            (10, -2.5),  // S=0, E=2.5
        ];
        assert_eq!(deltas.len(), expect.len());
        for ((k, d), (ek, ed)) in deltas.iter().zip(expect.iter()) {
            assert_eq!(k, ek);
            assert!((d - ed).abs() < 1e-12, "key {k}: {d} vs {ed}");
        }
    }

    #[test]
    fn shared_keys_accumulate() {
        let mut t = ValueTree::default();
        add_scan(&mut t, 0, 10, 1.0);
        add_scan(&mut t, 0, 10, 2.0);
        assert_eq!(t.len(), 2);
        let d: Vec<_> = t.deltas().collect();
        assert!((d[0].1 - 3.0).abs() < 1e-12);
        assert!((d[1].1 + 3.0).abs() < 1e-12);
    }

    #[test]
    fn removal_deletes_empty_nodes() {
        let mut t = figure2_tree();
        remove_scan(&mut t, 7, 10, 6.0 / 3.0);
        // Key 7 disappears; key 10 stays (s2 still ends there).
        assert_eq!(keys(&t), vec![0, 4, 5, 10]);
        remove_scan(&mut t, 4, 10, 3.0 / 6.0);
        assert_eq!(keys(&t), vec![0, 5]);
        remove_scan(&mut t, 0, 5, 1.0);
        assert_eq!(t.len(), 0);
        assert_eq!(t.deltas().count(), 0);
    }

    #[test]
    fn start_and_end_at_same_key_keeps_node_until_both_gone() {
        let mut t = ValueTree::default();
        add_scan(&mut t, 0, 5, 1.0); // ends at 5
        add_scan(&mut t, 5, 9, 2.0); // starts at 5
        assert_eq!(t.len(), 3); // keys 0, 5 (shared), 9
        remove_scan(&mut t, 0, 5, 1.0);
        // Key 5 must survive: a scan still starts there.
        assert_eq!(keys(&t), vec![5, 9]);
    }

    #[test]
    fn removing_unknown_key_is_an_error() {
        let mut t = ValueTree::default();
        assert_eq!(
            t.remove(3, 1.0, Endpoint::Start),
            Err(ValueTreeError::UntrackedKey { key: 3 })
        );
    }

    #[test]
    fn removing_wrong_endpoint_is_an_error() {
        let mut t = ValueTree::default();
        t.add(3, 1.0, Endpoint::Start);
        assert_eq!(
            t.remove(3, 1.0, Endpoint::End),
            Err(ValueTreeError::EndpointUnderflow { key: 3 })
        );
        // The failed removal left the tree untouched.
        assert_eq!(t.len(), 1);
        let d: Vec<_> = t.deltas().collect();
        assert!((d[0].1 - 1.0).abs() < 1e-12);
    }

    /// A scan whose start is tracked but whose end is not must fail without
    /// touching the start key.
    #[test]
    fn failed_scan_removal_leaves_both_keys_intact() {
        let mut t = ValueTree::default();
        t.add_scan(&PricedScan::new(0, 10, 10.0));
        assert_eq!(
            t.remove_scan(&PricedScan::new(0, 7, 7.0)),
            Err(ValueTreeError::UntrackedKey { key: 7 })
        );
        let d: Vec<_> = t.deltas().collect();
        assert_eq!(d, vec![(0, 1.0), (10, -1.0)]);
    }

    /// Deterministic churn over a 10-key space, small enough for Miri: every
    /// key is shared, started at, ended at and emptied many times, and after
    /// every step the tree must equal the fold over the live scans.
    #[test]
    fn churn_matches_window_fold() {
        let mut t = ValueTree::default();
        let mut live: Vec<PricedScan> = Vec::new();
        // A fixed LCG; the low bits of `state >> 33` pick the operation.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        for _ in 0..400 {
            if live.len() < 12 && (live.is_empty() || next(3) > 0) {
                let start = next(9);
                let end = start + 1 + next(9 - start);
                let scan = PricedScan::new(start, end, 1.0 + next(4) as f64);
                t.add_scan(&scan);
                live.push(scan);
            } else {
                let victim = live.remove(usize::try_from(next(live.len() as u64)).unwrap());
                t.remove_scan(&victim).unwrap();
            }
            assert_matches_fold(t.deltas(), &live, 1e-9);
        }
        for scan in live.drain(..) {
            t.remove_scan(&scan).unwrap();
        }
        assert_eq!(t.len(), 0);
    }
}
