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
//! The matrix is one flat row-major `Vec<u64>`. `|Data(m′) − Data(m)|` is
//! `|Data(m′)| − |Data(m) ∩ Data(m′)|`, and the intersection is nonzero only
//! for node pairs that share a stretch of tuples, so [`plan_transition`]
//! derives every pairwise intersection from one pass over the stretches the
//! old side's run boundaries cut the tuple line into — its cost follows the
//! replicas and the overlapping pairs, not `nodes²` merge walks. The
//! per-pair [`IntervalSet::difference_len`] formulation it replaced is kept
//! in [`mod@reference`] as the executable specification the pass is
//! property-tested against, entry for entry.

mod hungarian;
mod interval_set;
pub mod reference;

pub use hungarian::{hungarian, HungarianError};
pub use interval_set::IntervalSet;

use nashdb_obs::Metric;

use crate::ids::NodeId;

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

/// Plans the minimum-transfer transition from the nodes of `old` to the
/// nodes of `new`, each given as the interval set of tuples it stores.
pub fn plan_transition(old: &[IntervalSet], new: &[IntervalSet]) -> TransitionPlan {
    let watch = nashdb_obs::stopwatch();
    let n = old.len().max(new.len());
    if n == 0 {
        nashdb_obs::counter_add(Metric::TransitionPlans, 1);
        watch.record(Metric::TransitionPlanNs);
        return TransitionPlan {
            moves: Vec::new(),
            total_transfer: 0,
        };
    }

    let plan = plan_from_costs(&cost_matrix(old, new), old.len(), new.len());
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
/// and row-major — entry for entry [`reference::cost_matrix`].
fn cost_matrix(old: &[IntervalSet], new: &[IntervalSet]) -> Vec<u64> {
    let n = old.len().max(new.len());
    let inter = intersection_lens(old, new);
    let new_lens: Vec<u64> = new.iter().map(IntervalSet::len).collect();
    // Rows: old nodes then dummies. Columns: new nodes then dummies. With
    // `n = max(|old|, |new|)`, dummies only ever pad the smaller side, so a
    // dummy row never meets a dummy column. Dummy columns (decommissioning,
    // free) keep the zero the matrix starts with.
    let m = new.len();
    let mut cost = vec![0u64; n * n];
    for (i, row) in cost.chunks_exact_mut(n).enumerate() {
        let row = &mut row[..m];
        if i < old.len() {
            // Turning an old node into a new one: copy what's missing.
            let shared = &inter[i * m..(i + 1) * m];
            for ((c, len), shared) in row.iter_mut().zip(&new_lens).zip(shared) {
                *c = len - shared;
            }
        } else {
            // Provisioning a fresh node: copy everything.
            row.copy_from_slice(&new_lens);
        }
    }
    cost
}

/// `|old[i] ∩ new[j]|` for every pair, flat and row-major
/// (`[i * new.len() + j]`), from one pass over shared stretches.
///
/// The distinct run boundaries of the *old* side cut the tuple line into
/// stretches; between two consecutive cuts the set of old nodes holding the
/// stretch is fixed. Those holders are listed once per stretch (CSR:
/// `holders[starts[k]..starts[k + 1]]` for the stretch from `cuts[k]` to
/// `cuts[k + 1]`), and every run of every new node adds its overlap with
/// each stretch it crosses to that stretch's holders. One set's runs are
/// disjoint, so a tuple held by both `old[i]` and `new[j]` lies in exactly
/// one stretch held by `i` and one run of `j`: it is counted once per pair,
/// which is [`IntervalSet::intersection_len`].
fn intersection_lens(old: &[IntervalSet], new: &[IntervalSet]) -> Vec<u64> {
    let mut inter = vec![0u64; old.len() * new.len()];
    if inter.is_empty() {
        return inter;
    }
    let mut cuts: Vec<u64> = old
        .iter()
        .flat_map(|set| set.runs().iter().flat_map(|&(s, e)| [s, e]))
        .collect();
    cuts.sort_unstable();
    cuts.dedup();

    // Two passes over the old side: count each stretch's holders, then
    // place them. The last cut starts no stretch; giving it a (holderless)
    // slot all the same keeps a side of empty sets, with no cut at all, in
    // bounds.
    let mut starts = vec![0usize; cuts.len() + 1];
    for set in old {
        for_each_stretch(&cuts, set, |k| starts[k + 1] += 1);
    }
    for k in 1..starts.len() {
        starts[k] = starts[k].saturating_add(starts[k - 1]);
    }
    let mut holders = vec![0usize; starts[cuts.len()]];
    let mut filled = starts.clone();
    for (i, set) in old.iter().enumerate() {
        for_each_stretch(&cuts, set, |k| {
            holders[filled[k]] = i;
            filled[k] += 1;
        });
    }

    for (j, set) in new.iter().enumerate() {
        for &(s, e) in set.runs() {
            // The stretch holding `s`, or the first one if `s` precedes
            // every cut; a run past the last cut finds none.
            let mut k = cuts.partition_point(|&c| c <= s).saturating_sub(1);
            while k + 1 < cuts.len() && cuts[k] < e {
                let shared = cuts[k + 1].min(e) - cuts[k].max(s);
                for &i in &holders[starts[k]..starts[k + 1]] {
                    let cell = &mut inter[i * new.len() + j];
                    *cell = cell.saturating_add(shared);
                }
                k += 1;
            }
        }
    }
    inter
}

/// Visits, in order, the index of every stretch `set` holds: stretch `k`
/// runs from `cuts[k]` to `cuts[k + 1]`. Every run of `set` must start and
/// end on a cut; the runs are sorted, so one cursor finds them all moving
/// forward only.
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
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for _ in 0..20 {
            let n_old = rng.gen_range(1..5usize);
            let n_new = rng.gen_range(1..5usize);
            let mk = |rng: &mut rand::rngs::StdRng| {
                let a = rng.gen_range(0..100u64);
                let b = a + rng.gen_range(1..100u64);
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

    /// The shared-stretch pass fills the matrix the per-pair walks fill,
    /// entry for entry, on clusters shaped like real ones: a few fragment
    /// boundaries, every fragment replicated on several nodes, fragments
    /// that touch end to end, and nodes that hold nothing.
    #[test]
    fn cost_matrix_matches_reference_entry_for_entry() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        for trial in 0..200 {
            let bounds: Vec<u64> = (0..=rng.gen_range(1..12u64)).map(|b| b * 10).collect();
            let side = |rng: &mut rand::rngs::StdRng| -> Vec<IntervalSet> {
                (0..rng.gen_range(0..7usize))
                    .map(|_| {
                        (0..rng.gen_range(0..5usize))
                            .map(|_| {
                                let f = rng.gen_range(0..bounds.len() - 1);
                                // Mostly whole fragments, sometimes re-cut.
                                let shift = rng.gen_range(0..4u64).saturating_sub(2);
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
                cost_matrix(&old, &new),
                reference::cost_matrix(&old, &new),
                "trial {trial}: {old:?} -> {new:?}"
            );
        }
    }
}
