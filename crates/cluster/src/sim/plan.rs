//! The validate-first check of a transition plan: a rejected plan leaves
//! no partial transition behind.

use nashdb_core::ids::NodeId;
use nashdb_core::transition::{NodeMove, TransitionPlan};

/// Why a [`ClusterSim::reconfigure`](super::ClusterSim::reconfigure) call
/// rejected its plan. The simulator is left untouched: no node is
/// provisioned, decommissioned, or sent a transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigureError {
    /// A move names an old node outside the current cluster.
    UnknownOldNode {
        /// The out-of-range old node.
        node: NodeId,
    },
    /// Two moves target the same new node slot.
    DuplicateNewNode {
        /// The doubly-assigned new slot.
        node: NodeId,
    },
    /// A new node slot below the plan's maximum is assigned by no move.
    UncoveredNewNode {
        /// The uncovered slot.
        node: NodeId,
    },
    /// Two moves reuse or decommission the same old node.
    DuplicateOldNode {
        /// The doubly-used old node.
        node: NodeId,
    },
    /// A node of the current cluster is neither reused nor decommissioned.
    UncoveredOldNode {
        /// The node the plan leaves out.
        node: NodeId,
    },
}

impl std::fmt::Display for ReconfigureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReconfigureError::UnknownOldNode { node } => {
                write!(f, "transition plan references unknown old node {node}")
            }
            ReconfigureError::DuplicateNewNode { node } => {
                write!(f, "transition plan assigns new node {node} twice")
            }
            ReconfigureError::UncoveredNewNode { node } => {
                write!(f, "transition plan does not cover new node {node}")
            }
            ReconfigureError::DuplicateOldNode { node } => {
                write!(f, "transition plan uses old node {node} twice")
            }
            ReconfigureError::UncoveredOldNode { node } => {
                write!(f, "transition plan does not cover old node {node}")
            }
        }
    }
}

impl std::error::Error for ReconfigureError {}

/// Checks `plan` against a cluster of `old_nodes` logical nodes: every old
/// node appears in exactly one `Reuse` or `Decommission`, and every new
/// slot below the plan's maximum in exactly one `Reuse` or `Provision`.
/// Returns the new node count.
pub(super) fn check(plan: &TransitionPlan, old_nodes: usize) -> Result<usize, ReconfigureError> {
    let mut covered: Vec<bool> = Vec::new();
    let mut used_old = vec![false; old_nodes];
    let mut use_old = |old: NodeId| {
        let Some(used) = used_old.get_mut(old.index()) else {
            return Err(ReconfigureError::UnknownOldNode { node: old });
        };
        if std::mem::replace(used, true) {
            return Err(ReconfigureError::DuplicateOldNode { node: old });
        }
        Ok(())
    };
    for m in &plan.moves {
        let new = match *m {
            NodeMove::Reuse { old, new, .. } => {
                use_old(old)?;
                new
            }
            NodeMove::Provision { new, .. } => new,
            NodeMove::Decommission { old } => {
                use_old(old)?;
                continue;
            }
        };
        if covered.len() <= new.index() {
            covered.resize(new.index() + 1, false);
        }
        if std::mem::replace(&mut covered[new.index()], true) {
            return Err(ReconfigureError::DuplicateNewNode { node: new });
        }
    }
    let first_gap = |flags: &[bool]| {
        let slot = flags.iter().position(|&c| !c)?;
        Some(NodeId(u64::try_from(slot).unwrap_or(u64::MAX)))
    };
    if let Some(node) = first_gap(&covered) {
        return Err(ReconfigureError::UncoveredNewNode { node });
    }
    if let Some(node) = first_gap(&used_old) {
        return Err(ReconfigureError::UncoveredOldNode { node });
    }
    Ok(covered.len())
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::*;
    use super::super::ClusterSim;
    use super::*;

    #[test]
    fn malformed_plans_are_typed_errors() {
        let mut sim = ClusterSim::new(cfg());
        sim.reconfigure(&provision(1)).unwrap();
        // Reuse of a node the cluster does not have.
        let bad_old = TransitionPlan {
            moves: vec![NodeMove::Reuse {
                old: NodeId(5),
                new: NodeId(0),
                transfer: 0,
            }],
            total_transfer: 0,
        };
        assert_eq!(
            sim.reconfigure(&bad_old),
            Err(ReconfigureError::UnknownOldNode { node: NodeId(5) })
        );
        // A plan that leaves slot 0 unassigned.
        let uncovered = TransitionPlan {
            moves: vec![NodeMove::Provision {
                new: NodeId(1),
                transfer: 0,
            }],
            total_transfer: 0,
        };
        assert_eq!(
            sim.reconfigure(&uncovered),
            Err(ReconfigureError::UncoveredNewNode { node: NodeId(0) })
        );
        // Two moves landing on the same new slot.
        let duplicate = TransitionPlan {
            moves: vec![
                NodeMove::Provision {
                    new: NodeId(0),
                    transfer: 0,
                },
                NodeMove::Reuse {
                    old: NodeId(0),
                    new: NodeId(0),
                    transfer: 0,
                },
            ],
            total_transfer: 0,
        };
        assert_eq!(
            sim.reconfigure(&duplicate),
            Err(ReconfigureError::DuplicateNewNode { node: NodeId(0) })
        );
        // The old side: one node reused into two slots (two logical slots
        // would share it), reused and decommissioned (its slot would refuse
        // work), or left out (it would never retire and bill forever).
        let reuse = |old, new| NodeMove::Reuse {
            old: NodeId(old),
            new: NodeId(new),
            transfer: 0,
        };
        let old_side = [
            (
                vec![reuse(0, 0), reuse(0, 1)],
                ReconfigureError::DuplicateOldNode { node: NodeId(0) },
            ),
            (
                vec![reuse(0, 0), NodeMove::Decommission { old: NodeId(0) }],
                ReconfigureError::DuplicateOldNode { node: NodeId(0) },
            ),
            (
                vec![NodeMove::Provision {
                    new: NodeId(0),
                    transfer: 0,
                }],
                ReconfigureError::UncoveredOldNode { node: NodeId(0) },
            ),
        ];
        for (moves, err) in old_side {
            let plan = TransitionPlan {
                moves,
                total_transfer: 0,
            };
            assert_eq!(sim.reconfigure(&plan), Err(err), "{plan:?}");
        }
        // Every rejection left the cluster untouched.
        assert_eq!(sim.logical.len(), 1);
        assert_eq!(sim.metrics.reconfigurations, 1);
    }
}
