//! Cluster transitioning (paper §7).
//!
//! When a new fragmentation/replication scheme is adopted, each node of the
//! old cluster should be "turned into" the new node it already most
//! resembles, so that as few tuples as possible cross the network. With
//! per-node data modeled as tuple [`IntervalSet`]s, the cost of turning old
//! node `m` into new node `m′` is `|Data(m′) − Data(m)|`; adding dummy
//! vertices for provisioned/decommissioned nodes makes the cost matrix
//! square, and a minimum-weight perfect matching ([`hungarian`]) is the
//! optimal transition strategy (Eq. 10).
//!
//! The matrix is one flat row-major `Vec<u64>`, and `|Data(m′) − Data(m)|`
//! is `|Data(m′)| − |Data(m) ∩ Data(m′)|`. Each side is a [`Side`]: sorted,
//! disjoint stretches of the tuple line, each listing its holders, which a
//! fragment table (`nashdb::DistScheme`) yields directly and
//! [`Side::from_sets`] derives from interval sets. [`plan_sides`] takes every
//! pairwise intersection from one linear merge of the two stretch lists. The
//! per-pair [`IntervalSet::difference_len`] matrix is kept in
//! [`mod@reference`] as the executable specification the merge is
//! property-tested against, entry for entry.

mod hungarian;
mod interval_set;
pub mod reference;

pub use hungarian::{hungarian, max_cost, HungarianError};
pub use interval_set::IntervalSet;

use nashdb_obs::Metric;

use crate::ids::NodeId;
use crate::routing::run_of;

/// One node's fate in a transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeMove {
    /// An existing node is kept and turned into a node of the new scheme,
    /// copying `transfer` tuples it does not already hold.
    Reuse {
        /// The node's id in the old scheme.
        old: NodeId,
        /// Its id in the new scheme.
        new: NodeId,
        /// Tuples to copy onto it.
        transfer: u64,
    },
    /// A fresh node is provisioned and receives its full contents.
    Provision {
        /// The node's id in the new scheme.
        new: NodeId,
        /// Tuples to copy onto it (its entire data set).
        transfer: u64,
    },
    /// An old node is released; nothing is copied.
    Decommission {
        /// The node's id in the old scheme.
        old: NodeId,
    },
}

impl NodeMove {
    /// Tuples this move copies.
    pub fn transfer(&self) -> u64 {
        match self {
            NodeMove::Reuse { transfer, .. } | NodeMove::Provision { transfer, .. } => *transfer,
            NodeMove::Decommission { .. } => 0,
        }
    }
}

/// The optimal transition between two schemes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionPlan {
    /// One entry per matched pair (including dummy pairings rendered as
    /// provision/decommission moves).
    pub moves: Vec<NodeMove>,
    /// Total tuples copied — the minimized objective (Eq. 10).
    pub total_transfer: u64,
}

impl TransitionPlan {
    /// Moves that reuse an old node.
    pub fn reused(&self) -> impl Iterator<Item = (NodeId, NodeId, u64)> + '_ {
        self.moves.iter().filter_map(|m| match m {
            NodeMove::Reuse { old, new, transfer } => Some((*old, *new, *transfer)),
            _ => None,
        })
    }

    /// Number of freshly provisioned nodes.
    pub fn provisioned(&self) -> usize {
        self.moves
            .iter()
            .filter(|m| matches!(m, NodeMove::Provision { .. }))
            .count()
    }

    /// Number of decommissioned nodes.
    pub fn decommissioned(&self) -> usize {
        self.moves
            .iter()
            .filter(|m| matches!(m, NodeMove::Decommission { .. }))
            .count()
    }
}

/// One side of a transition: sorted, disjoint stretches of the tuple line,
/// stretch `k` spanning `spans[k]` and held by run `k` of `holders` (ending at
/// `ends[k]`: CSR), and the node count, since a node may hold nothing.
#[derive(Debug, Clone, Default)]
pub struct Side {
    nodes: usize,
    spans: Vec<(u64, u64)>,
    ends: Vec<usize>,
    holders: Vec<usize>,
}

impl Side {
    /// A side of `nodes` nodes holding nothing, with room for `stretches`
    /// stretches and `holders` holders.
    pub fn with_capacity(nodes: usize, stretches: usize, holders: usize) -> Side {
        Side {
            nodes,
            spans: Vec::with_capacity(stretches),
            ends: Vec::with_capacity(stretches),
            holders: Vec::with_capacity(holders),
        }
    }

    /// Appends the stretch `start..end`, held by each of `holders` once; it
    /// may not start before the last one ends. A reversed stretch is empty,
    /// and a holder past the node count raises the count.
    pub fn push(&mut self, start: u64, end: u64, holders: impl IntoIterator<Item = usize>) {
        let last = self.spans.last().map_or(0, |s| s.1);
        debug_assert!(last <= start, "stretch {start}..{end} is out of order");
        self.spans.push((start, end));
        for h in holders {
            self.nodes = self.nodes.max(h.saturating_add(1));
            self.holders.push(h);
        }
        self.ends.push(self.holders.len());
    }

    /// The side whose node `i` holds `sets[i]`, cut at every run end of every
    /// set; each stretch's holders are counted, then placed.
    pub fn from_sets(sets: &[IntervalSet]) -> Side {
        let mut cuts: Vec<u64> = sets
            .iter()
            .flat_map(|set| set.runs().iter().flat_map(|&(s, e)| [s, e]))
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        // Where stretch `k`'s holders start, with a spare slot for the last cut.
        let mut starts = vec![0usize; cuts.len() + 1];
        for set in sets {
            for_each_stretch(&cuts, set, |k| starts[k + 1] += 1);
        }
        for k in 1..starts.len() {
            starts[k] = starts[k].saturating_add(starts[k - 1]);
        }
        let mut holders = vec![0usize; starts[cuts.len()]];
        let mut ends = starts; // Each placement moves a stretch's cursor on.
        for (i, set) in sets.iter().enumerate() {
            for_each_stretch(&cuts, set, |k| {
                holders[ends[k]] = i;
                ends[k] += 1;
            });
        }
        let spans: Vec<(u64, u64)> = cuts.windows(2).map(|w| (w[0], w[1])).collect();
        ends.truncate(spans.len());
        Side {
            nodes: sets.len(),
            spans,
            ends,
            holders,
        }
    }
}

/// Visits, in order, the index `k` of every stretch `cuts[k]..cuts[k + 1]`
/// that `set` holds. Every run of `set` must start and end on a cut; the runs
/// are sorted, so one cursor finds them all moving forward only.
fn for_each_stretch(cuts: &[u64], set: &IntervalSet, mut visit: impl FnMut(usize)) {
    let mut k = 0;
    for &(s, e) in set.runs() {
        k += cuts[k..].partition_point(|&c| c < s);
        while cuts[k] < e {
            visit(k);
            k += 1;
        }
    }
}

/// Plans the minimum-transfer transition from the nodes of `old` to the
/// nodes of `new`, each given as the interval set of tuples it stores.
pub fn plan_transition(old: &[IntervalSet], new: &[IntervalSet]) -> TransitionPlan {
    plan_sides(&Side::from_sets(old), &Side::from_sets(new))
}

/// Plans the minimum-transfer transition from the nodes of `old` to the
/// nodes of `new`.
///
/// The matrix goes to the solver unchecked, so it relies on the solver's
/// bound ([`max_cost`]): every entry is at most the tuples one
/// new node holds, and `max(|old|, |new|)` times the largest new node must
/// stay within `i64::MAX / 2` ≈ 4.6 · 10¹⁸ tuples. A node holds at most its
/// disk, so a cluster of a million nodes of 10¹² tuples each is inside it.
pub fn plan_sides(old: &Side, new: &Side) -> TransitionPlan {
    let watch = nashdb_obs::stopwatch();
    let n = old.nodes.max(new.nodes);
    if n == 0 {
        nashdb_obs::counter_add(Metric::TransitionPlans, 1);
        watch.record(Metric::TransitionPlanNs);
        return TransitionPlan {
            moves: Vec::new(),
            total_transfer: 0,
        };
    }

    let plan = plan_from_costs(&cost_matrix(old, new), old.nodes, new.nodes);
    nashdb_obs::counter_add(Metric::TransitionPlans, 1);
    nashdb_obs::counter_add(Metric::TransitionTuplesMoved, plan.total_transfer);
    nashdb_obs::counter_add(Metric::TransitionProvisioned, plan.provisioned() as u64);
    nashdb_obs::counter_add(
        Metric::TransitionDecommissioned,
        plan.decommissioned() as u64,
    );
    nashdb_obs::record(Metric::TransitionMatrixDim, n as u64);
    watch.record(Metric::TransitionPlanNs);
    plan
}

/// The square cost matrix of dimension `n = max(|old|, |new|) ≥ 1`, flat
/// and row-major — entry for entry [`reference::cost_matrix`]. Rows are old
/// nodes then dummies, columns new nodes then dummies. Every row starts as a
/// provision (`|new_j|`, and 0 to decommission); old row `i` then loses
/// `|old_i ∩ new_j|`. The merge steps past whichever stretch ends first, so
/// each overlapping pair of stretches meets once and takes its shared length
/// off each (old holder, new holder) cell: once per shared tuple and `(i, j)`,
/// as a node holds a stretch at most once and a side's stretches are disjoint.
fn cost_matrix(old: &Side, new: &Side) -> Vec<u64> {
    let (n, m) = (old.nodes.max(new.nodes), new.nodes);
    let mut cost = vec![0u64; n * n];
    for (k, &(s, e)) in new.spans.iter().enumerate() {
        for &j in run_of(&new.holders, &new.ends, k) {
            cost[j] = cost[j].saturating_add(e.saturating_sub(s));
        }
    }
    let (first, rest) = cost.split_at_mut(n);
    for row in rest.chunks_exact_mut(n) {
        row[..m].copy_from_slice(&first[..m]);
    }
    let (mut a, mut b) = (0, 0);
    while a < old.spans.len() && b < new.spans.len() {
        let ((os, oe), (ns, ne)) = (old.spans[a], new.spans[b]);
        let shared = oe.min(ne).saturating_sub(os.max(ns));
        if shared > 0 {
            for &i in run_of(&old.holders, &old.ends, a) {
                let row = &mut cost[i * n..i * n + m];
                for &j in run_of(&new.holders, &new.ends, b) {
                    row[j] = row[j].saturating_sub(shared);
                }
            }
        }
        if oe <= ne {
            a += 1;
        } else {
            b += 1;
        }
    }
    cost
}

/// Solves a flat square cost matrix whose first `old` rows and first `new`
/// columns are real nodes (the rest dummies) and renders the matching as
/// moves, in row order.
fn plan_from_costs(cost: &[u64], old: usize, new: usize) -> TransitionPlan {
    let n = old.max(new);
    // The matrix is square by construction with n ≥ 1 (the callers return
    // early otherwise), so the solver is called directly rather than
    // through the validating public wrapper.
    let (assignment, total_transfer) = hungarian::solve_square(cost, n);

    let moves = assignment
        .iter()
        .enumerate()
        .filter_map(|(i, &j)| match (i < old, j < new) {
            (true, true) => Some(NodeMove::Reuse {
                old: NodeId(i as u64),
                new: NodeId(j as u64),
                transfer: cost[i * n + j],
            }),
            (false, true) => Some(NodeMove::Provision {
                new: NodeId(j as u64),
                transfer: cost[i * n + j],
            }),
            (true, false) => Some(NodeMove::Decommission {
                old: NodeId(i as u64),
            }),
            // Dummy-to-dummy pairs cannot occur (dummies pad one side only);
            // dropping the arm keeps the plan well-typed without a panic.
            (false, false) => None,
        })
        .collect();

    TransitionPlan {
        moves,
        total_transfer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(runs: &[(u64, u64)]) -> IntervalSet {
        IntervalSet::from_intervals(runs.iter().copied())
    }

    #[test]
    fn identity_transition_is_free() {
        let nodes = vec![set(&[(0, 100)]), set(&[(100, 200)])];
        let plan = plan_transition(&nodes, &nodes);
        assert_eq!(plan.total_transfer, 0);
        assert_eq!(plan.provisioned(), 0);
        assert_eq!(plan.decommissioned(), 0);
        // Each node maps to its identical twin.
        for (old, new, t) in plan.reused() {
            assert_eq!(t, 0);
            assert_eq!(nodes[old.index()], nodes[new.index()]);
        }
    }

    #[test]
    fn scale_up_provisions_new_nodes() {
        let old = vec![set(&[(0, 100)])];
        let new = vec![set(&[(0, 100)]), set(&[(100, 200)])];
        let plan = plan_transition(&old, &new);
        assert_eq!(plan.total_transfer, 100);
        assert_eq!(plan.provisioned(), 1);
        assert_eq!(plan.decommissioned(), 0);
        // The surviving node keeps its data.
        let reused: Vec<_> = plan.reused().collect();
        assert_eq!(reused, vec![(NodeId(0), NodeId(0), 0)]);
    }

    #[test]
    fn scale_down_decommissions_for_free() {
        let old = vec![set(&[(0, 100)]), set(&[(100, 200)])];
        let new = vec![set(&[(0, 100)])];
        let plan = plan_transition(&old, &new);
        assert_eq!(plan.total_transfer, 0);
        assert_eq!(plan.decommissioned(), 1);
    }

    #[test]
    fn reuses_most_similar_node() {
        // New node wants (0, 90): old node A holds (0, 80), old node B holds
        // (200, 300). Matching must pick A (transfer 10), not B (90).
        let old = vec![set(&[(200, 300)]), set(&[(0, 80)])];
        let new = vec![set(&[(0, 90)])];
        let plan = plan_transition(&old, &new);
        assert_eq!(plan.total_transfer, 10);
        let reused: Vec<_> = plan.reused().collect();
        assert_eq!(reused, vec![(NodeId(1), NodeId(0), 10)]);
    }

    /// Structure of the paper's Fig. 5: three old nodes, four new nodes
    /// after re-fragmentation; the matching reuses the similar nodes and the
    /// total is the sum of the cheap edges.
    #[test]
    fn refragmentation_transition() {
        let old = vec![
            set(&[(0, 20), (30, 50)]),
            set(&[(20, 30), (30, 50)]),
            set(&[(0, 20), (50, 75)]),
        ];
        let new = vec![set(&[(0, 20), (20, 35)]), set(&[(35, 55), (55, 75)])];
        let plan = plan_transition(&old, &new);
        // One old node is destroyed (dummy column), two are reused.
        assert_eq!(plan.decommissioned(), 1);
        assert_eq!(plan.provisioned(), 0);
        // Brute force over the 3 choices of destroyed node × 2 pairings:
        // old0 -> new0 costs |(0,35) - {0-20,30-50}| = 10; old0 -> new1 = 20
        // old1 -> new0 costs 35 - (20..35∩{20-50}=15) = 20; old1 -> new1 = 20
        // old2 -> new0 costs 35 - 20 = 15;                  old2 -> new1 = 15
        // Best: old0->new0 (10) + old2->new1 (15) = 25, destroy old1.
        assert_eq!(plan.total_transfer, 25);
        let reused: Vec<_> = plan.reused().collect();
        assert!(reused.contains(&(NodeId(0), NodeId(0), 10)));
        assert!(reused.contains(&(NodeId(2), NodeId(1), 15)));
    }

    #[test]
    fn empty_both_sides() {
        let plan = plan_transition(&[], &[]);
        assert!(plan.moves.is_empty());
        assert_eq!(plan.total_transfer, 0);
    }

    #[test]
    fn scale_to_zero_decommissions_everything() {
        // New side empty: the cost matrix is all dummy columns.
        let old = vec![set(&[(0, 100)]), set(&[(100, 200)]), set(&[(200, 300)])];
        let plan = plan_transition(&old, &[]);
        assert_eq!(plan.total_transfer, 0);
        assert_eq!(plan.decommissioned(), 3);
        assert_eq!(plan.provisioned(), 0);
        assert_eq!(plan.reused().count(), 0);
    }

    #[test]
    fn single_old_node_to_single_new_node() {
        let old = vec![set(&[(0, 100)])];
        let new = vec![set(&[(50, 180)])];
        let plan = plan_transition(&old, &new);
        assert_eq!(plan.total_transfer, 80);
        let reused: Vec<_> = plan.reused().collect();
        assert_eq!(reused, vec![(NodeId(0), NodeId(0), 80)]);
    }

    #[test]
    fn rectangular_wide_growth() {
        // 1 old node, 4 new: three provisions plus one reuse, and the reuse
        // must pick the new node most similar to the survivor.
        let old = vec![set(&[(0, 100)])];
        let new = vec![
            set(&[(300, 400)]),
            set(&[(0, 90)]),
            set(&[(100, 200)]),
            set(&[(200, 300)]),
        ];
        let plan = plan_transition(&old, &new);
        assert_eq!(plan.provisioned(), 3);
        assert_eq!(plan.decommissioned(), 0);
        let reused: Vec<_> = plan.reused().collect();
        assert_eq!(reused, vec![(NodeId(0), NodeId(1), 0)]);
        // 100 + 100 + 100 provisioned, 0 for the reuse.
        assert_eq!(plan.total_transfer, 300);
    }

    #[test]
    fn rectangular_deep_shrink() {
        // 4 old nodes, 1 new: three decommissions, and the survivor is the
        // old node needing the least copying.
        let old = vec![
            set(&[(300, 400)]),
            set(&[(0, 60)]),
            set(&[(0, 95)]),
            set(&[(200, 300)]),
        ];
        let new = vec![set(&[(0, 100)])];
        let plan = plan_transition(&old, &new);
        assert_eq!(plan.decommissioned(), 3);
        assert_eq!(plan.provisioned(), 0);
        let reused: Vec<_> = plan.reused().collect();
        assert_eq!(reused, vec![(NodeId(2), NodeId(0), 5)]);
        assert_eq!(plan.total_transfer, 5);
    }

    #[test]
    fn empty_interval_sets_are_valid_nodes() {
        // A node holding nothing (all replicas evacuated) still matches:
        // turning it into any new node costs that node's full contents.
        let old = vec![IntervalSet::new(), set(&[(0, 100)])];
        let new = vec![set(&[(0, 100)]), set(&[(100, 150)])];
        let plan = plan_transition(&old, &new);
        // Reuse the full node for free, fill the empty one with 50 tuples.
        assert_eq!(plan.total_transfer, 50);
        assert_eq!(plan.provisioned(), 0);
    }

    #[test]
    fn cold_start_provisions_everything() {
        let new = vec![set(&[(0, 50)]), set(&[(50, 100)])];
        let plan = plan_transition(&[], &new);
        assert_eq!(plan.total_transfer, 100);
        assert_eq!(plan.provisioned(), 2);
    }

    #[test]
    fn plan_is_optimal_vs_brute_force() {
        use nashdb_sim::SimRng;
        let mut rng = SimRng::seed_from_u64(23);
        for _ in 0..20 {
            let n_old = rng.uniform_usize(1, 5);
            let n_new = rng.uniform_usize(1, 5);
            let mk = |rng: &mut SimRng| {
                let a = rng.uniform_u64(0, 100);
                let b = a + rng.uniform_u64(1, 100);
                set(&[(a, b)])
            };
            let old: Vec<_> = (0..n_old).map(|_| mk(&mut rng)).collect();
            let new: Vec<_> = (0..n_new).map(|_| mk(&mut rng)).collect();
            let plan = plan_transition(&old, &new);

            // Under CERTIFICATE_LIMIT nodes, so the audit's brute-force
            // minimum over all matchings always runs.
            assert_eq!(crate::audit::audit_transition(&old, &new, &plan), Ok(()));
        }
    }

    /// `side`'s matrix against the per-pair one over `sets`, and the plan
    /// against the reference plan, move for move.
    fn assert_matches_reference(old: (&Side, &[IntervalSet]), new: (&Side, &[IntervalSet])) {
        assert_eq!(
            cost_matrix(old.0, new.0),
            reference::cost_matrix(old.1, new.1)
        );
        assert_eq!(plan_sides(old.0, new.0), reference::plan(old.1, new.1));
    }

    #[test]
    fn merge_counts_touching_stretches_once() {
        // Old stretches touch at 10 and 20 (nodes 0, 1, then both); the new
        // side cuts at 15 and 20. Every stretch boundary meets another.
        let mut old = Side::default();
        old.push(0, 10, [0]);
        old.push(10, 20, [1]);
        old.push(20, 30, [0, 1]);
        let mut new = Side::default();
        new.push(5, 15, [1, 0]);
        new.push(15, 20, [0]);
        new.push(20, 30, [1]);
        let old_sets = [set(&[(0, 10), (20, 30)]), set(&[(10, 30)])];
        let new_sets = [set(&[(5, 20)]), set(&[(5, 15), (20, 30)])];
        assert_matches_reference((&old, &old_sets), (&new, &new_sets));
        // Node 1 holds all of new node 1 but 5..10: 5 tuples to copy.
        assert_eq!(cost_matrix(&old, &new)[3], 5);
    }

    #[test]
    fn holderless_gap_adds_nothing() {
        // A stretch nobody holds, and a node (2) that holds nothing, on the
        // old side; the new side spans the gap.
        let mut old = Side::with_capacity(3, 3, 2);
        old.push(0, 10, [0]);
        old.push(10, 20, []);
        old.push(20, 30, [1]);
        let mut new = Side::default();
        new.push(0, 30, [0]);
        let old_sets = [set(&[(0, 10)]), set(&[(20, 30)]), IntervalSet::new()];
        let new_sets = [set(&[(0, 30)])];
        assert_eq!(old.nodes, 3);
        assert_matches_reference((&old, &old_sets), (&new, &new_sets));
        let from_sets = Side::from_sets(&old_sets);
        assert_matches_reference((&from_sets, &old_sets), (&new, &new_sets));
    }

    #[test]
    fn sides_ending_at_u64_max() {
        let top = u64::MAX;
        let mut old = Side::default();
        old.push(top - 20, top - 10, [1]);
        old.push(top - 10, top, [0, 1]);
        let mut new = Side::default();
        new.push(top - 15, top, [0]);
        let old_sets = [set(&[(top - 10, top)]), set(&[(top - 20, top)])];
        let new_sets = [set(&[(top - 15, top)])];
        assert_matches_reference((&old, &old_sets), (&new, &new_sets));
        let (old_cut, new_cut) = (Side::from_sets(&old_sets), Side::from_sets(&new_sets));
        assert_matches_reference((&old_cut, &old_sets), (&new_cut, &new_sets));
        assert_eq!(plan_sides(&old, &new).total_transfer, 0);
    }

    /// The stretch merge fills the matrix the per-pair walks fill,
    /// entry for entry, on clusters shaped like real ones: a few fragment
    /// boundaries, every fragment replicated on several nodes, fragments
    /// that touch end to end, and nodes that hold nothing.
    #[test]
    fn cost_matrix_matches_reference_entry_for_entry() {
        use nashdb_sim::SimRng;
        let mut rng = SimRng::seed_from_u64(41);
        for trial in 0..200 {
            let bounds: Vec<u64> = (0..=rng.uniform_u64(1, 12)).map(|b| b * 10).collect();
            let side = |rng: &mut SimRng| -> Vec<IntervalSet> {
                (0..rng.uniform_usize(0, 7))
                    .map(|_| {
                        (0..rng.uniform_usize(0, 5))
                            .map(|_| {
                                let f = rng.uniform_usize(0, bounds.len() - 1);
                                // Mostly whole fragments, sometimes re-cut.
                                let shift = rng.uniform_u64(0, 4).saturating_sub(2);
                                (bounds[f] + shift, bounds[f + 1])
                            })
                            .collect()
                    })
                    .collect()
            };
            let (old, new) = (side(&mut rng), side(&mut rng));
            if old.is_empty() && new.is_empty() {
                continue;
            }
            assert_eq!(
                cost_matrix(&Side::from_sets(&old), &Side::from_sets(&new)),
                reference::cost_matrix(&old, &new),
                "trial {trial}: {old:?} -> {new:?}"
            );
        }
    }
}
