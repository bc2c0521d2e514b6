//! A `BTreeMap`-backed reference implementation of the value estimation
//! tree, used for differential testing of the AVL implementation.
//!
//! Semantically identical to [`AvlValueTree`](super::tree::AvlValueTree):
//! same keys, same deltas, same deletion rule (a key is dropped only when no
//! windowed scan starts or ends there).

use std::collections::BTreeMap;

use super::tree::Endpoint;
use super::ValueTreeError;

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    delta: f64,
    start_count: u32,
    end_count: u32,
}

/// Reference value tree on `std::collections::BTreeMap`.
#[derive(Debug, Default)]
pub struct BTreeValueTree {
    map: BTreeMap<u64, Entry>,
}

impl BTreeValueTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tracked keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True iff no scans are tracked.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub(crate) fn add(&mut self, key: u64, weight: f64, endpoint: Endpoint) {
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

    pub(crate) fn remove(
        &mut self,
        key: u64,
        weight: f64,
        endpoint: Endpoint,
    ) -> Result<(), ValueTreeError> {
        let e = self
            .map
            .get_mut(&key)
            .ok_or(ValueTreeError::UntrackedKey { key })?;
        match endpoint {
            Endpoint::Start => {
                let next = e
                    .start_count
                    .checked_sub(1)
                    .ok_or(ValueTreeError::EndpointUnderflow { key })?;
                e.delta -= weight;
                e.start_count = next;
            }
            Endpoint::End => {
                let next = e
                    .end_count
                    .checked_sub(1)
                    .ok_or(ValueTreeError::EndpointUnderflow { key })?;
                e.delta += weight;
                e.end_count = next;
            }
        }
        if e.start_count == 0 && e.end_count == 0 {
            self.map.remove(&key);
        }
        Ok(())
    }

    /// Verifies that a scan endpoint of the given kind is tracked at `key`.
    pub(crate) fn check_removable(
        &self,
        key: u64,
        endpoint: Endpoint,
    ) -> Result<(), ValueTreeError> {
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

    /// In-order `(key, ∆)` pairs.
    pub fn deltas(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.map.iter().map(|(&k, e)| (k, e.delta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirrors_basic_semantics() {
        let mut t = BTreeValueTree::new();
        t.add(0, 1.0, Endpoint::Start);
        t.add(10, 1.0, Endpoint::End);
        t.add(0, 0.5, Endpoint::Start);
        t.add(5, 0.5, Endpoint::End);
        assert_eq!(t.len(), 3);
        let d: Vec<_> = t.deltas().collect();
        assert_eq!(d[0].0, 0);
        assert!((d[0].1 - 1.5).abs() < 1e-12);
        t.remove(0, 1.0, Endpoint::Start).unwrap();
        t.remove(10, 1.0, Endpoint::End).unwrap();
        assert_eq!(t.len(), 2);
        t.remove(0, 0.5, Endpoint::Start).unwrap();
        t.remove(5, 0.5, Endpoint::End).unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn remove_unknown_is_an_error() {
        let mut t = BTreeValueTree::new();
        assert_eq!(
            t.remove(1, 1.0, Endpoint::Start),
            Err(ValueTreeError::UntrackedKey { key: 1 })
        );
        t.add(1, 1.0, Endpoint::End);
        assert_eq!(
            t.remove(1, 1.0, Endpoint::Start),
            Err(ValueTreeError::EndpointUnderflow { key: 1 })
        );
    }
}
