//! The economic model (paper §3 and §6).
//!
//! Queries are patrons, tuples are goods, nodes are firms. A node pays a
//! storage cost for each fragment replica it holds and collects the
//! fragment's expected income, diluted by the number of replicas in the
//! cluster. NashDB chooses replica counts so that every replica is
//! profitable but one more of any fragment would not be — a Nash equilibrium
//! (Definition 6.1). This module defines the cost/income/profit arithmetic
//! and a checker for all four equilibrium conditions, used both by tests and
//! by the replication manager's debug assertions.
//!
//! Monetary amounts are `f64` in the paper's reporting unit of **1/100 of a
//! cent**; time is abstract ("per unit time" — the reconfiguration period).

use std::collections::BTreeSet;

use crate::ids::{FragmentId, NodeId};

/// Tolerance for floating-point profit comparisons: a deviation must improve
/// profit by more than this to count as an equilibrium violation.
pub const PROFIT_EPSILON: f64 = 1e-9;

/// A cluster node's economic parameters: usage cost per unit time and disk
/// capacity in tuples. The paper assumes (as we do by default) that all
/// nodes are identical; the arithmetic itself does not require it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    /// Rent cost per unit time, in 1/100 cent.
    pub cost: f64,
    /// Disk capacity, in tuples.
    pub disk: u64,
}

impl NodeSpec {
    /// Creates a spec, validating that both parameters are positive.
    ///
    /// # Panics
    /// Panics if `cost` is not finite and positive or `disk` is zero.
    pub fn new(cost: f64, disk: u64) -> Self {
        assert!(
            cost.is_finite() && cost > 0.0,
            "node cost must be positive, got {cost}"
        );
        assert!(disk > 0, "node disk capacity must be nonzero");
        NodeSpec { cost, disk }
    }

    /// `C(f)` — expected cost of storing one replica of a fragment of
    /// `size` tuples for one unit of time: `size × Cost / Disk`.
    pub fn storage_cost(&self, size: u64) -> f64 {
        size as f64 * self.cost / self.disk as f64
    }
}

/// `I(f)` — expected income per replica of a fragment (paper §6): the
/// fragment's windowed value `|W| × Value(f)` split evenly across its
/// `replicas` copies.
///
/// # Panics
/// Panics if `replicas` is zero (an unhosted fragment has no income to
/// split).
pub fn expected_income(window: usize, value: f64, replicas: u64) -> f64 {
    assert!(replicas > 0, "income of a fragment with zero replicas");
    window as f64 * value / replicas as f64
}

/// Profit a node earns from holding one replica of a fragment.
pub fn replica_profit(window: usize, value: f64, replicas: u64, size: u64, spec: &NodeSpec) -> f64 {
    expected_income(window, value, replicas) - spec.storage_cost(size)
}

/// A fragment's economic summary within a cluster configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FragmentEconomics {
    /// The fragment.
    pub id: FragmentId,
    /// Size in tuples.
    pub size: u64,
    /// Windowed aggregate tuple value `Value(f)` (paper Eq. 3).
    pub value: f64,
    /// Number of replicas in the configuration.
    pub replicas: u64,
}

/// A concrete assignment of fragment replicas to nodes, as checked for Nash
/// equilibrium.
#[derive(Debug, Clone)]
pub struct EconomicConfig {
    /// Window size `|W|` the values were estimated over.
    pub window: usize,
    /// Per-node economic parameters (shared by all nodes).
    pub spec: NodeSpec,
    /// Every fragment in the scheme.
    pub fragments: Vec<FragmentEconomics>,
    /// For each node, the fragments it hosts.
    pub assignment: Vec<(NodeId, Vec<FragmentId>)>,
}

/// A way some agent could profitably deviate — i.e. a violated condition of
/// Definition 6.1.
#[derive(Debug, Clone, PartialEq)]
pub enum EquilibriumViolation {
    /// Condition 1: `node` profits by dropping `fragment` (the replica's
    /// profit is negative by `loss`).
    DropProfitable {
        /// The deviating node.
        node: NodeId,
        /// The unprofitable fragment it would drop.
        fragment: FragmentId,
        /// How negative the replica's profit is.
        loss: f64,
    },
    /// Condition 2: `node` profits by adding one more replica of `fragment`.
    AddProfitable {
        /// The deviating node.
        node: NodeId,
        /// The fragment worth adding.
        fragment: FragmentId,
        /// The profit the extra replica would earn.
        gain: f64,
    },
    /// Condition 3: `node` profits by swapping `drop` for `add`.
    SwapProfitable {
        /// The deviating node.
        node: NodeId,
        /// The fragment it would drop.
        drop: FragmentId,
        /// The fragment it would pick up.
        add: FragmentId,
        /// Net profit of the swap.
        gain: f64,
    },
    /// Condition 4: a brand-new node could enter hosting `fragments` and
    /// earn `gain`.
    EntryProfitable {
        /// The profitable bundle a new node could host.
        fragments: Vec<FragmentId>,
        /// The profit it would earn.
        gain: f64,
    },
    /// The configuration is malformed (e.g. a node holds a fragment twice, a
    /// hosted fragment is missing from `fragments`, or replica counts do not
    /// match the assignment).
    Malformed(
        /// Description of the inconsistency.
        String,
    ),
}

impl std::fmt::Display for EquilibriumViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EquilibriumViolation::DropProfitable {
                node,
                fragment,
                loss,
            } => write!(
                f,
                "node {node} profits by dropping fragment {fragment} (replica loses {loss})"
            ),
            EquilibriumViolation::AddProfitable {
                node,
                fragment,
                gain,
            } => write!(
                f,
                "node {node} profits by adding fragment {fragment} (gain {gain})"
            ),
            EquilibriumViolation::SwapProfitable {
                node,
                drop,
                add,
                gain,
            } => write!(
                f,
                "node {node} profits by swapping fragment {drop} for {add} (gain {gain})"
            ),
            EquilibriumViolation::EntryProfitable { fragments, gain } => write!(
                f,
                "a new node could enter hosting {fragments:?} and earn {gain}"
            ),
            EquilibriumViolation::Malformed(detail) => {
                write!(f, "malformed configuration: {detail}")
            }
        }
    }
}

impl std::error::Error for EquilibriumViolation {}

/// Checks all four conditions of Definition 6.1 against a configuration.
///
/// Returns `Ok(())` when the configuration is a Nash equilibrium, or the
/// first violation found. Structural inconsistencies (duplicate replicas on
/// a node, replica-count mismatches) are reported as
/// [`EquilibriumViolation::Malformed`] — they would make the economic
/// comparison meaningless.
pub fn check_equilibrium(config: &EconomicConfig) -> Result<(), EquilibriumViolation> {
    let econ_of = |id: FragmentId| config.fragments.iter().find(|f| f.id == id);

    // Structural validation: counts implied by the assignment must match the
    // declared replica counts, and no node may hold a fragment twice.
    let mut counted = vec![0u64; config.fragments.len()];
    for (node, frags) in &config.assignment {
        let mut seen = BTreeSet::new();
        for &fid in frags {
            if !seen.insert(fid) {
                return Err(EquilibriumViolation::Malformed(format!(
                    "node {node} holds {fid} more than once"
                )));
            }
            match config.fragments.iter().position(|f| f.id == fid) {
                Some(idx) => counted[idx] += 1,
                None => {
                    return Err(EquilibriumViolation::Malformed(format!(
                        "node {node} hosts unknown fragment {fid}"
                    )))
                }
            }
        }
    }
    for (f, &count) in config.fragments.iter().zip(&counted) {
        if f.replicas != count {
            return Err(EquilibriumViolation::Malformed(format!(
                "fragment {} declares {} replicas but {} are assigned",
                f.id, f.replicas, count
            )));
        }
    }

    for (node, frags) in &config.assignment {
        let held: BTreeSet<FragmentId> = frags.iter().copied().collect();

        // Condition 1: dropping any held replica must not increase profit,
        // i.e. every held replica's profit must be >= 0.
        for &fid in frags {
            let Some(f) = econ_of(fid) else {
                // Unreachable after structural validation, but surfacing it
                // as Malformed keeps this function panic-free.
                return Err(EquilibriumViolation::Malformed(format!(
                    "node {node} hosts unknown fragment {fid}"
                )));
            };
            let profit = replica_profit(config.window, f.value, f.replicas, f.size, &config.spec);
            if profit < -PROFIT_EPSILON {
                return Err(EquilibriumViolation::DropProfitable {
                    node: *node,
                    fragment: fid,
                    loss: -profit,
                });
            }
        }

        // Condition 2: adding one more replica of any fragment the node does
        // not hold must not be profitable at the diluted income.
        for f in &config.fragments {
            if held.contains(&f.id) {
                continue;
            }
            let gain = replica_profit(config.window, f.value, f.replicas + 1, f.size, &config.spec);
            if gain > PROFIT_EPSILON {
                return Err(EquilibriumViolation::AddProfitable {
                    node: *node,
                    fragment: f.id,
                    gain,
                });
            }
        }

        // Condition 3: swapping a held fragment for an unheld one must not
        // be profitable: new replica's (diluted) profit must not exceed the
        // dropped replica's current profit.
        for &drop_id in frags {
            let Some(d) = econ_of(drop_id) else {
                return Err(EquilibriumViolation::Malformed(format!(
                    "node {node} hosts unknown fragment {drop_id}"
                )));
            };
            let drop_profit =
                replica_profit(config.window, d.value, d.replicas, d.size, &config.spec);
            for a in &config.fragments {
                if held.contains(&a.id) {
                    continue;
                }
                let add_profit =
                    replica_profit(config.window, a.value, a.replicas + 1, a.size, &config.spec);
                let gain = add_profit - drop_profit;
                if gain > PROFIT_EPSILON {
                    return Err(EquilibriumViolation::SwapProfitable {
                        node: *node,
                        drop: drop_id,
                        add: a.id,
                        gain,
                    });
                }
            }
        }
    }

    // Condition 4: a new (empty) node's best entry bundle is every fragment
    // whose next replica would be profitable; if that bundle is nonempty the
    // market invites entry.
    let mut bundle = Vec::new();
    let mut gain = 0.0;
    for f in &config.fragments {
        let p = replica_profit(config.window, f.value, f.replicas + 1, f.size, &config.spec);
        if p > PROFIT_EPSILON {
            bundle.push(f.id);
            gain += p;
        }
    }
    if !bundle.is_empty() {
        return Err(EquilibriumViolation::EntryProfitable {
            fragments: bundle,
            gain,
        });
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> NodeSpec {
        NodeSpec::new(100.0, 1_000)
    }

    fn frag(id: u64, size: u64, value: f64, replicas: u64) -> FragmentEconomics {
        FragmentEconomics {
            id: FragmentId(id),
            size,
            value,
            replicas,
        }
    }

    #[test]
    fn storage_cost_is_prorated() {
        let s = spec();
        assert!((s.storage_cost(500) - 50.0).abs() < 1e-12);
        assert!((s.storage_cost(0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn spec_rejects_nonpositive_cost() {
        let _ = NodeSpec::new(0.0, 10);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn spec_rejects_zero_disk() {
        let _ = NodeSpec::new(1.0, 0);
    }

    #[test]
    fn income_dilutes_with_replicas() {
        let one = expected_income(50, 10.0, 1);
        let five = expected_income(50, 10.0, 5);
        assert!((one - 500.0).abs() < 1e-12);
        assert!((five - 100.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero replicas")]
    fn income_requires_replicas() {
        let _ = expected_income(50, 10.0, 0);
    }

    /// The worked equilibrium: with |W|=50, Value=1.0, size=250 and
    /// cost/disk = 0.1, Ideal = floor(50·1.0/25) = 2; two replicas each earn
    /// 25 − 25 = 0 ≥ 0 and a third would earn 50/3 − 25 < 0.
    fn equilibrium_config() -> EconomicConfig {
        EconomicConfig {
            window: 50,
            spec: spec(),
            fragments: vec![frag(0, 250, 1.0, 2)],
            assignment: vec![
                (NodeId(0), vec![FragmentId(0)]),
                (NodeId(1), vec![FragmentId(0)]),
            ],
        }
    }

    #[test]
    fn ideal_counts_pass_the_checker() {
        assert_eq!(check_equilibrium(&equilibrium_config()), Ok(()));
    }

    #[test]
    fn under_replication_invites_add_or_entry() {
        let mut c = equilibrium_config();
        // Value 1.2 -> a second replica earns 30 - 25 > 0 (with value 1.0 a
        // second replica is exactly profit-neutral, which weak Nash allows).
        c.fragments[0].value = 1.2;
        c.fragments[0].replicas = 1;
        c.assignment = vec![(NodeId(0), vec![FragmentId(0)])];
        match check_equilibrium(&c) {
            Err(EquilibriumViolation::AddProfitable { .. })
            | Err(EquilibriumViolation::EntryProfitable { .. }) => {}
            other => panic!("expected profitable add/entry, got {other:?}"),
        }
    }

    #[test]
    fn over_replication_makes_drops_profitable() {
        let mut c = equilibrium_config();
        c.fragments[0].replicas = 3;
        c.assignment = vec![
            (NodeId(0), vec![FragmentId(0)]),
            (NodeId(1), vec![FragmentId(0)]),
            (NodeId(2), vec![FragmentId(0)]),
        ];
        match check_equilibrium(&c) {
            Err(EquilibriumViolation::DropProfitable { .. }) => {}
            other => panic!("expected profitable drop, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_replica_on_node_is_malformed() {
        let mut c = equilibrium_config();
        c.assignment = vec![(NodeId(0), vec![FragmentId(0), FragmentId(0)])];
        assert!(matches!(
            check_equilibrium(&c),
            Err(EquilibriumViolation::Malformed(_))
        ));
    }

    #[test]
    fn replica_count_mismatch_is_malformed() {
        let mut c = equilibrium_config();
        c.assignment.pop();
        assert!(matches!(
            check_equilibrium(&c),
            Err(EquilibriumViolation::Malformed(_))
        ));
    }

    #[test]
    fn unknown_fragment_is_malformed() {
        let mut c = equilibrium_config();
        c.assignment[0].1.push(FragmentId(99));
        assert!(matches!(
            check_equilibrium(&c),
            Err(EquilibriumViolation::Malformed(_))
        ));
    }

    #[test]
    fn swap_violation_detected() {
        // Fragment 0 barely profitable at its count, fragment 1 wildly
        // profitable even after dilution — a holder of 0 should swap to 1.
        // (This also triggers add/entry checks; force the swap arm by making
        // the adding node already full... simplest: check that *some*
        // violation fires and that the configuration is not an equilibrium.)
        let c = EconomicConfig {
            window: 50,
            spec: spec(),
            fragments: vec![frag(0, 250, 1.0, 2), frag(1, 100, 50.0, 1)],
            assignment: vec![
                (NodeId(0), vec![FragmentId(0)]),
                (NodeId(1), vec![FragmentId(0), FragmentId(1)]),
            ],
        };
        assert!(check_equilibrium(&c).is_err());
    }
}
