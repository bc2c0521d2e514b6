//! Invariant audits: each pipeline stage's correctness condition,
//! re-derived independently of the code that maintains it.
//!
//! Each pipeline stage of NashDB maintains a structural or economic
//! invariant that the paper's correctness argument leans on: the value
//! tree stays consistent with the scan window (§4), a
//! fragmentation tiles its table and never beats the DP optimum (§5), a
//! replica configuration is a Nash equilibrium (§6, Definition 6.1 —
//! [`check_equilibrium`](crate::economics::check_equilibrium) is that
//! stage's oracle and lives with the economics it checks), a packing
//! respects the one-replica-per-fragment class constraint and node
//! capacity (§6.3), and a transition plan is a minimum-weight perfect
//! matching (§7, Eq. 10).
//!
//! The functions here re-derive each invariant from first principles —
//! independent reference implementations, brute force where the instance
//! is small enough — and return a typed [`AuditError`] instead of
//! panicking. They are pure functions over shared references: they observe
//! and never steer, so the module is ordinary code in the one build there
//! is. They are deliberately slow (quadratic scans, permutation
//! enumeration) and nothing here belongs on a hot path: the `nashdb`
//! driver and distributor call them only inside `debug_assert_eq!` (or
//! `if cfg!(debug_assertions)`), so every `cargo test` and every debug run
//! is audit-armed and a release build evaluates none of them. Tests and
//! fuzzers call them directly.

use std::collections::{BTreeMap, BTreeSet};

use crate::fragment::{unrecorded_optimal, ChunkPrefix, Fragmentation};
use crate::ids::{FragmentId, NodeId};
use crate::replication::ReplicationDecision;
use crate::transition::{self, IntervalSet, NodeMove, TransitionPlan};
use crate::value::{self, Chunk, PricedScan, TupleValueEstimator};

/// Absolute floating-point tolerance used by the delta-sum and
/// fragmentation-error comparisons.
pub const AUDIT_EPSILON: f64 = 1e-6;

/// Largest instance (old/new node count) for which [`audit_transition`]
/// brute-forces all permutations as a minimality certificate. `7! = 5040`
/// candidate matchings keeps the certificate cheap.
pub const CERTIFICATE_LIMIT: usize = 7;

/// Largest chunk count for which [`audit_fragmentation`] re-runs the exact
/// DP to certify the error objective.
pub const OPTIMALITY_CHUNK_LIMIT: usize = 64;

/// A violated invariant, reported by one of the `audit_*` functions.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditError {
    /// The tree's in-order deltas disagree with the fold of the scan
    /// window.
    TreeDivergence {
        /// Human-readable description of the first disagreement.
        detail: String,
    },
    /// The tree's deltas do not sum to (approximately) zero, i.e. some
    /// scan's start and end contributions no longer cancel.
    DeltaSumNonzero {
        /// The offending sum.
        sum: f64,
    },
    /// A fragmentation does not cover its table exactly.
    CoverageGap {
        /// Table length implied by the value chunks.
        expected: u64,
        /// Table length the fragmentation actually covers.
        actual: u64,
    },
    /// A fragmentation has more fragments than the `maxFrags` cap.
    TooManyFragments {
        /// Fragments in the fragmentation.
        count: usize,
        /// The cap it was built under.
        max_frags: usize,
    },
    /// A fragmentation's summed error (Eq. 5) is *below* the exact DP
    /// optimum for the same fragment budget — impossible for a correct
    /// objective, so one of the two error computations is wrong.
    BeatsOptimal {
        /// The audited fragmentation's total error.
        actual: f64,
        /// The DP optimum for the same `k`.
        optimal: f64,
    },
    /// The audited value chunks are malformed (empty, offset, or
    /// discontiguous), so no fragmentation property can be re-derived.
    InvalidChunks(crate::fragment::FragmentError),
    /// A packed node references a fragment with no replication decision.
    UnknownFragment {
        /// The unknown fragment.
        fragment: FragmentId,
        /// The node referencing it.
        node: NodeId,
    },
    /// A node holds two replicas of the same fragment, violating the
    /// class constraint of §6.3.
    DuplicateReplica {
        /// The offending node.
        node: NodeId,
        /// The duplicated fragment.
        fragment: FragmentId,
    },
    /// A node's hosted fragments exceed its disk capacity.
    NodeOverCapacity {
        /// The offending node.
        node: NodeId,
        /// Tuples placed on it.
        used: u64,
        /// Its disk capacity.
        disk: u64,
    },
    /// The number of placed replicas of a fragment differs from its
    /// replication decision.
    ReplicaCountMismatch {
        /// The fragment.
        fragment: FragmentId,
        /// Replicas the decision called for.
        wanted: u64,
        /// Replicas actually placed.
        placed: u64,
    },
    /// A transition plan is not a perfect matching over old and new nodes
    /// (a node is missing, repeated, or out of range).
    BrokenMatching {
        /// Human-readable description of the structural defect.
        detail: String,
    },
    /// A move's recorded transfer disagrees with the interval-set
    /// difference it should equal, or the per-move transfers do not sum
    /// to `total_transfer`.
    WrongTransfer {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A transition plan moves more tuples than the brute-force optimum.
    SuboptimalTransition {
        /// The plan's total transfer.
        actual: u64,
        /// The brute-force minimum.
        optimal: u64,
    },
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::TreeDivergence { detail } => {
                write!(f, "value tree diverges from scan window: {detail}")
            }
            AuditError::DeltaSumNonzero { sum } => {
                write!(f, "value-tree deltas sum to {sum}, expected 0")
            }
            AuditError::CoverageGap { expected, actual } => {
                write!(f, "fragmentation covers {actual} tuples of {expected}")
            }
            AuditError::TooManyFragments { count, max_frags } => {
                write!(f, "{count} fragments exceed maxFrags={max_frags}")
            }
            AuditError::BeatsOptimal { actual, optimal } => {
                write!(f, "error {actual} beats the DP optimum {optimal}")
            }
            AuditError::InvalidChunks(e) => write!(f, "malformed value chunks: {e}"),
            AuditError::UnknownFragment { fragment, node } => {
                write!(f, "node {node} hosts unknown fragment {fragment}")
            }
            AuditError::DuplicateReplica { node, fragment } => {
                write!(f, "node {node} holds fragment {fragment} twice")
            }
            AuditError::NodeOverCapacity { node, used, disk } => {
                write!(f, "node {node} stores {used} tuples of {disk} capacity")
            }
            AuditError::ReplicaCountMismatch {
                fragment,
                wanted,
                placed,
            } => {
                write!(
                    f,
                    "fragment {fragment} placed {placed} times, decision wanted {wanted}"
                )
            }
            AuditError::BrokenMatching { detail } => {
                write!(f, "transition is not a perfect matching: {detail}")
            }
            AuditError::WrongTransfer { detail } => {
                write!(f, "transition transfer accounting broken: {detail}")
            }
            AuditError::SuboptimalTransition { actual, optimal } => {
                write!(f, "transition copies {actual} tuples, optimum is {optimal}")
            }
        }
    }
}

impl std::error::Error for AuditError {}

// ---------------------------------------------------------------------------
// §4 — value tree
// ---------------------------------------------------------------------------

/// Audits an estimator against its own scan window.
///
/// # Errors
/// [`AuditError::TreeDivergence`] or [`AuditError::DeltaSumNonzero`].
pub fn audit_value_tree(est: &TupleValueEstimator) -> Result<(), AuditError> {
    let scans: Vec<PricedScan> = est.scans().copied().collect();
    audit_tree_consistency(est, &scans)
}

/// Audits an estimator's tree against an explicit scan list: the tree's
/// in-order deltas must match [`value::reference::window_fold`] of `scans`
/// key-for-key within [`AUDIT_EPSILON`]; the deltas of a well-formed tree
/// also sum to zero, since every scan contributes `+w` at its start and
/// `-w` at its end.
///
/// # Errors
/// [`AuditError::TreeDivergence`] or [`AuditError::DeltaSumNonzero`].
pub fn audit_tree_consistency(
    est: &TupleValueEstimator,
    scans: &[PricedScan],
) -> Result<(), AuditError> {
    let actual: Vec<(u64, f64)> = est.deltas().collect();
    let expected = value::reference::window_fold(scans);
    if actual.len() != expected.len() {
        return Err(AuditError::TreeDivergence {
            detail: format!(
                "{} tracked keys, reference has {}",
                actual.len(),
                expected.len()
            ),
        });
    }
    for (&(ak, ad), &(ek, ed)) in actual.iter().zip(&expected) {
        if ak != ek {
            return Err(AuditError::TreeDivergence {
                detail: format!("key {ak} where reference has {ek}"),
            });
        }
        if (ad - ed).abs() > AUDIT_EPSILON {
            return Err(AuditError::TreeDivergence {
                detail: format!("delta {ad} at key {ak}, reference has {ed}"),
            });
        }
    }
    let sum: f64 = actual.iter().map(|&(_, d)| d).sum();
    if sum.abs() > AUDIT_EPSILON {
        return Err(AuditError::DeltaSumNonzero { sum });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// §5 — fragmentation
// ---------------------------------------------------------------------------

/// Audits a fragmentation against the value chunks it was derived from:
/// it must tile exactly the table the chunks describe, respect the
/// `maxFrags` cap, and — on instances small enough to re-solve exactly —
/// its Eq. 5 error must not *beat* the DP optimum for the same fragment
/// count (the optimum is a lower bound, so "beating" it means an error
/// computation is broken).
///
/// Contiguity and strictly-increasing boundaries are enforced by
/// [`Fragmentation`]'s constructors; this audit re-checks the properties
/// that depend on the pairing of a fragmentation with a value function.
///
/// # Errors
/// [`AuditError::CoverageGap`], [`AuditError::TooManyFragments`], or
/// [`AuditError::BeatsOptimal`].
pub fn audit_fragmentation(
    frag: &Fragmentation,
    chunks: &[Chunk],
    max_frags: usize,
) -> Result<(), AuditError> {
    let expected = chunks.last().map_or(frag.table_len(), |c| c.end);
    if frag.table_len() != expected {
        return Err(AuditError::CoverageGap {
            expected,
            actual: frag.table_len(),
        });
    }
    if frag.len() > max_frags {
        return Err(AuditError::TooManyFragments {
            count: frag.len(),
            max_frags,
        });
    }
    if !chunks.is_empty() && chunks.len() <= OPTIMALITY_CHUNK_LIMIT {
        let prefix = ChunkPrefix::new(chunks).map_err(AuditError::InvalidChunks)?;
        let actual = frag.total_error(&prefix);
        let best = unrecorded_optimal(chunks, frag.len()).map_err(AuditError::InvalidChunks)?;
        let optimal = best.total_error(&prefix);
        // Relative tolerance: errors scale with value² × tuples.
        let tol = AUDIT_EPSILON * (1.0 + optimal.abs());
        if actual < optimal - tol {
            return Err(AuditError::BeatsOptimal { actual, optimal });
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// §6.3 — packing
// ---------------------------------------------------------------------------

/// Audits a packed placement against its replication decisions: every
/// hosted fragment has a decision, no node holds the same fragment twice
/// (the class constraint), no node exceeds `disk`, and each fragment is
/// placed exactly as many times as its decision calls for.
///
/// # Errors
/// [`AuditError::UnknownFragment`], [`AuditError::DuplicateReplica`],
/// [`AuditError::NodeOverCapacity`], or
/// [`AuditError::ReplicaCountMismatch`].
pub fn audit_packing(
    nodes: &[Vec<FragmentId>],
    decisions: &[ReplicationDecision],
    disk: u64,
) -> Result<(), AuditError> {
    let by_id: BTreeMap<FragmentId, &ReplicationDecision> =
        decisions.iter().map(|d| (d.id, d)).collect();
    let mut placed: BTreeMap<FragmentId, u64> = BTreeMap::new();
    for (i, frags) in nodes.iter().enumerate() {
        let node = NodeId(i as u64);
        let mut seen: BTreeSet<FragmentId> = BTreeSet::new();
        let mut used: u64 = 0;
        for &fid in frags {
            let Some(d) = by_id.get(&fid) else {
                return Err(AuditError::UnknownFragment {
                    fragment: fid,
                    node,
                });
            };
            if !seen.insert(fid) {
                return Err(AuditError::DuplicateReplica {
                    node,
                    fragment: fid,
                });
            }
            used = used.saturating_add(d.range.size());
            *placed.entry(fid).or_insert(0) += 1;
        }
        if used > disk {
            return Err(AuditError::NodeOverCapacity { node, used, disk });
        }
    }
    for d in decisions {
        let got = placed.get(&d.id).copied().unwrap_or(0);
        if got != d.replicas {
            return Err(AuditError::ReplicaCountMismatch {
                fragment: d.id,
                wanted: d.replicas,
                placed: got,
            });
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// §7 — transition
// ---------------------------------------------------------------------------

/// Audits a transition plan against the schemes it transitions between:
/// the moves must form a perfect matching (every old node reused or
/// decommissioned exactly once, every new node reused or provisioned
/// exactly once), each move's transfer must equal the interval-set
/// difference it stands for, the transfers must sum to `total_transfer`,
/// and — for instances of at most [`CERTIFICATE_LIMIT`] nodes — the total
/// must match the brute-force minimum over all matchings (Eq. 10).
///
/// # Errors
/// [`AuditError::BrokenMatching`], [`AuditError::WrongTransfer`], or
/// [`AuditError::SuboptimalTransition`].
pub fn audit_transition(
    old: &[IntervalSet],
    new: &[IntervalSet],
    plan: &TransitionPlan,
) -> Result<(), AuditError> {
    let n = old.len().max(new.len());
    if plan.moves.len() != n {
        return Err(AuditError::BrokenMatching {
            detail: format!("{} moves for {n} matched pairs", plan.moves.len()),
        });
    }
    let mut old_seen = vec![false; old.len()];
    let mut new_seen = vec![false; new.len()];
    let visit = |seen: &mut [bool], idx: u64, side: &str| -> Result<usize, AuditError> {
        let i = usize::try_from(idx).unwrap_or(usize::MAX);
        match seen.get_mut(i) {
            None => Err(AuditError::BrokenMatching {
                detail: format!("{side} node {idx} out of range"),
            }),
            Some(s) if *s => Err(AuditError::BrokenMatching {
                detail: format!("{side} node {idx} matched twice"),
            }),
            Some(s) => {
                *s = true;
                Ok(i)
            }
        }
    };
    let mut sum: u64 = 0;
    for m in &plan.moves {
        let (want, got) = match m {
            NodeMove::Reuse {
                old: o,
                new: nw,
                transfer,
            } => {
                let i = visit(&mut old_seen, o.get(), "old")?;
                let j = visit(&mut new_seen, nw.get(), "new")?;
                (new[j].difference_len(&old[i]), *transfer)
            }
            NodeMove::Provision { new: nw, transfer } => {
                let j = visit(&mut new_seen, nw.get(), "new")?;
                (new[j].len(), *transfer)
            }
            NodeMove::Decommission { old: o } => {
                visit(&mut old_seen, o.get(), "old")?;
                (0, 0)
            }
        };
        if want != got {
            return Err(AuditError::WrongTransfer {
                detail: format!("move {m:?} records {got} tuples, interval difference is {want}"),
            });
        }
        sum = sum.saturating_add(got);
    }
    if !old_seen.iter().all(|&s| s) || !new_seen.iter().all(|&s| s) {
        return Err(AuditError::BrokenMatching {
            detail: "a node was never matched".to_owned(),
        });
    }
    if sum != plan.total_transfer {
        return Err(AuditError::WrongTransfer {
            detail: format!("moves sum to {sum}, plan claims {}", plan.total_transfer),
        });
    }
    if n > 0 && n <= CERTIFICATE_LIMIT {
        let optimal = brute_force_transfer(old, new, n);
        if plan.total_transfer != optimal {
            return Err(AuditError::SuboptimalTransition {
                actual: plan.total_transfer,
                optimal,
            });
        }
    }
    Ok(())
}

/// Minimum total transfer over all perfect matchings of the dummy-padded
/// `n × n` instance, by permutation enumeration (Heap's algorithm).
fn brute_force_transfer(old: &[IntervalSet], new: &[IntervalSet], n: usize) -> u64 {
    let cost = transition::reference::cost_matrix(old, new);
    let mut perm: Vec<usize> = (0..n).collect();
    let mut counters = vec![0usize; n];
    let total = |p: &[usize]| -> u64 { p.iter().enumerate().map(|(i, &j)| cost[i * n + j]).sum() };
    let mut best = total(&perm);
    let mut i = 0;
    while i < n {
        if counters[i] < i {
            if i % 2 == 0 {
                perm.swap(0, i);
            } else {
                perm.swap(counters[i], i);
            }
            best = best.min(total(&perm));
            counters[i] += 1;
            i = 0;
        } else {
            counters[i] = 0;
            i += 1;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::economics::{check_equilibrium, EconomicConfig, EquilibriumViolation, NodeSpec};
    use crate::fragment::{fragment_stats, optimal_fragmentation};
    use crate::replication::{decide_replicas, economic_config, pack_bffd, ReplicationPolicy};
    use crate::transition::plan_transition;

    fn scan(start: u64, end: u64, price: f64) -> PricedScan {
        PricedScan::new(start, end, price)
    }

    fn set(runs: &[(u64, u64)]) -> IntervalSet {
        IntervalSet::from_intervals(runs.iter().copied())
    }

    #[test]
    fn healthy_estimator_passes() {
        let mut est = TupleValueEstimator::new(16);
        for i in 0..40u64 {
            est.observe(scan(i % 7, i % 7 + 10, 1.0 + (i % 3) as f64));
        }
        audit_value_tree(&est).unwrap();
    }

    #[test]
    fn mismatched_window_is_divergence() {
        let mut est = TupleValueEstimator::new(8);
        est.observe(scan(0, 10, 1.0));
        est.observe(scan(5, 20, 2.0));
        // Claim the window held only the first scan: its fold then
        // disagrees with the real tree.
        let err = audit_tree_consistency(&est, &[scan(0, 10, 1.0)]).unwrap_err();
        assert!(matches!(err, AuditError::TreeDivergence { .. }), "{err}");
    }

    #[test]
    fn phantom_scan_is_divergence() {
        // A tree holding a scan the window claims was never observed: the
        // fold is empty, the tree is not.
        let mut est = TupleValueEstimator::new(8);
        est.observe(scan(0, 10, 1.0));
        let err = audit_tree_consistency(&est, &[]).unwrap_err();
        assert!(matches!(err, AuditError::TreeDivergence { .. }), "{err}");
    }

    fn chunks() -> Vec<Chunk> {
        vec![
            Chunk {
                start: 0,
                end: 10,
                value: 5.0,
            },
            Chunk {
                start: 10,
                end: 60,
                value: 1.0,
            },
            Chunk {
                start: 60,
                end: 100,
                value: 3.0,
            },
        ]
    }

    #[test]
    fn optimal_fragmentation_passes_audit() {
        let frag = optimal_fragmentation(&chunks(), 3).unwrap();
        audit_fragmentation(&frag, &chunks(), 3).unwrap();
    }

    #[test]
    fn short_fragmentation_is_coverage_gap() {
        let frag = Fragmentation::from_boundaries(vec![0, 50]);
        let err = audit_fragmentation(&frag, &chunks(), 4).unwrap_err();
        assert!(matches!(err, AuditError::CoverageGap { .. }), "{err}");
    }

    #[test]
    fn cap_violation_detected() {
        let frag = Fragmentation::equal_width(100, 10);
        let err = audit_fragmentation(&frag, &chunks(), 4).unwrap_err();
        assert!(matches!(err, AuditError::TooManyFragments { .. }), "{err}");
    }

    /// Eq. 9 counts for three fragments and their BFFD packing.
    fn scheme() -> (
        ReplicationPolicy,
        Vec<ReplicationDecision>,
        Vec<Vec<FragmentId>>,
    ) {
        let frag = Fragmentation::from_boundaries(vec![0, 10, 60, 100]);
        let stats = fragment_stats(&frag, &chunks()).unwrap();
        let policy = ReplicationPolicy::new(10, NodeSpec::new(1.0, 120));
        let decisions = decide_replicas(&stats, &policy);
        let nodes = pack_bffd(&decisions, policy.spec.disk).unwrap();
        (policy, decisions, nodes)
    }

    #[test]
    fn built_scheme_passes_packing_and_equilibrium() {
        let (policy, decisions, nodes) = scheme();
        audit_packing(&nodes, &decisions, policy.spec.disk).unwrap();
        check_equilibrium(&economic_config(&policy, &decisions, &nodes)).unwrap();
    }

    #[test]
    fn duplicate_replica_detected() {
        let (policy, decisions, mut nodes) = scheme();
        let first = nodes[0][0];
        nodes[0].push(first);
        let err = audit_packing(&nodes, &decisions, policy.spec.disk).unwrap_err();
        assert!(matches!(err, AuditError::DuplicateReplica { .. }), "{err}");
    }

    #[test]
    fn lost_replica_detected() {
        let (policy, decisions, mut nodes) = scheme();
        nodes[0].remove(0);
        let err = audit_packing(&nodes, &decisions, policy.spec.disk).unwrap_err();
        assert!(
            matches!(err, AuditError::ReplicaCountMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn capacity_violation_detected() {
        let (_, decisions, nodes) = scheme();
        let err = audit_packing(&nodes, &decisions, 1).unwrap_err();
        assert!(matches!(err, AuditError::NodeOverCapacity { .. }), "{err}");
    }

    #[test]
    fn unknown_fragment_detected() {
        let (policy, decisions, mut nodes) = scheme();
        nodes[0].push(FragmentId(999));
        let err = audit_packing(&nodes, &decisions, policy.spec.disk).unwrap_err();
        assert!(matches!(err, AuditError::UnknownFragment { .. }), "{err}");
    }

    #[test]
    fn over_replication_breaks_equilibrium() {
        let spec = NodeSpec::new(1.0, 100);
        let config = EconomicConfig {
            window: 10,
            spec,
            fragments: vec![crate::economics::FragmentEconomics {
                id: FragmentId(0),
                size: 50,
                value: 0.01, // Ideal ≈ 0: any replica loses money.
                replicas: 2,
            }],
            assignment: vec![
                (NodeId(0), vec![FragmentId(0)]),
                (NodeId(1), vec![FragmentId(0)]),
            ],
        };
        let err = check_equilibrium(&config).unwrap_err();
        assert!(
            matches!(err, EquilibriumViolation::DropProfitable { .. }),
            "{err}"
        );
    }

    #[test]
    fn planned_transition_passes() {
        let old = vec![set(&[(0, 100)]), set(&[(100, 200)])];
        let new = vec![set(&[(0, 150)]), set(&[(150, 200)]), set(&[(0, 50)])];
        let plan = plan_transition(&old, &new);
        audit_transition(&old, &new, &plan).unwrap();
    }

    #[test]
    fn tampered_total_is_wrong_transfer() {
        let old = vec![set(&[(0, 100)])];
        let new = vec![set(&[(50, 150)])];
        let mut plan = plan_transition(&old, &new);
        plan.total_transfer += 1;
        let err = audit_transition(&old, &new, &plan).unwrap_err();
        assert!(matches!(err, AuditError::WrongTransfer { .. }), "{err}");
    }

    #[test]
    fn dropped_move_is_broken_matching() {
        let old = vec![set(&[(0, 100)]), set(&[(100, 200)])];
        let new = vec![set(&[(0, 100)]), set(&[(100, 200)])];
        let mut plan = plan_transition(&old, &new);
        plan.moves.pop();
        let err = audit_transition(&old, &new, &plan).unwrap_err();
        assert!(matches!(err, AuditError::BrokenMatching { .. }), "{err}");
    }

    #[test]
    fn greedy_pairing_flagged_suboptimal() {
        // A deliberately bad matching: pair each new node with the *worst*
        // old node. The per-move transfers are internally consistent, so
        // only the brute-force certificate can catch it.
        let old = vec![set(&[(0, 100)]), set(&[(100, 200)])];
        let new = vec![set(&[(100, 200)]), set(&[(0, 100)])];
        let bad = TransitionPlan {
            moves: vec![
                NodeMove::Reuse {
                    old: NodeId(0),
                    new: NodeId(0),
                    transfer: 100,
                },
                NodeMove::Reuse {
                    old: NodeId(1),
                    new: NodeId(1),
                    transfer: 100,
                },
            ],
            total_transfer: 200,
        };
        let err = audit_transition(&old, &new, &bad).unwrap_err();
        assert!(
            matches!(err, AuditError::SuboptimalTransition { .. }),
            "{err}"
        );
    }
}
