//! Heterogeneous nodes (paper §6: "For simplicity, we assume that the cost
//! and disk space of all nodes are equal, but our techniques can be easily
//! extended to work with non-uniform costs and disk sizes"). This module is
//! that extension, carried out.
//!
//! With several node classes (say, cheap HDD boxes and pricey NVMe boxes),
//! a replica's storage cost depends on where it lives: class `c` charges
//! `Size(f) · Costᶜ/Diskᶜ` per period — its **density** `Costᶜ/Diskᶜ` is
//! what matters. Income is still `|W| · Value(f) / r`, host-independent.
//!
//! In equilibrium, replicas occupy the *cheapest-density* classes first: a
//! replica on an expensive class while a cheaper slot exists is not stable
//! (the holder — or an entrant of the cheaper class — can profitably
//! undercut). So the equilibrium count follows from a greedy sweep: keep
//! adding replicas to the cheapest class with free capacity while the *new*
//! replica (which, by the sweep order, has the highest density of any
//! holder) is still profitable at the diluted income. Uniform classes
//! recover Eq. 9 exactly.

use super::{pack_bffd, ReplicationDecision};
use crate::economics::NodeSpec;
use crate::fragment::FragmentStats;
use crate::ids::{FragmentId, NodeId};

/// One class of nodes available to rent.
#[derive(Debug, Clone, Copy)]
pub struct NodeClass {
    /// Cost and disk of every node in the class.
    pub spec: NodeSpec,
    /// How many nodes of this class exist (`None` = unbounded, as in the
    /// paper's elastic market).
    pub available: Option<u32>,
}

impl NodeClass {
    /// An unbounded class.
    pub fn unbounded(spec: NodeSpec) -> Self {
        NodeClass {
            spec,
            available: None,
        }
    }

    /// Storage-cost density `Cost/Disk` (per tuple per period).
    pub fn density(&self) -> f64 {
        self.spec.cost / self.spec.disk as f64
    }

    /// Replica capacity of the class for a fragment of `size` tuples: each
    /// node holds at most one replica of a fragment, so a bounded class
    /// offers at most `available` replica slots (and none if the fragment
    /// cannot fit on a node at all).
    fn replica_slots(&self, size: u64) -> u64 {
        if size > self.spec.disk {
            return 0;
        }
        self.available.map_or(u64::MAX, u64::from)
    }
}

/// A named node-class mix, scaled from a reference [`NodeSpec`].
///
/// The scenario matrix (and any other caller wanting "the same cluster,
/// different hardware market") picks a preset and applies it to the spec its
/// autotuner produced for the uniform case. Multipliers are relative to that
/// reference, so presets compose with workloads of any size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixPreset {
    /// One unbounded class at the reference spec (the paper's §6 baseline).
    Uniform,
    /// Unbounded budget boxes: half the rent, double the disk (density ×¼).
    BudgetHdd,
    /// Unbounded premium boxes: double the rent, three-quarters the disk.
    PremiumNvme,
    /// A bounded premium tier over an unbounded budget tier: the elastic
    /// margin is the budget class, but hot replicas can claim the handful of
    /// fast nodes.
    MixedTier,
}

impl MixPreset {
    /// All presets, in a stable order (the scenario matrix sweeps these).
    pub const ALL: [MixPreset; 4] = [
        MixPreset::Uniform,
        MixPreset::BudgetHdd,
        MixPreset::PremiumNvme,
        MixPreset::MixedTier,
    ];

    /// Stable machine-readable name (used in artifacts and CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            MixPreset::Uniform => "uniform",
            MixPreset::BudgetHdd => "budget-hdd",
            MixPreset::PremiumNvme => "premium-nvme",
            MixPreset::MixedTier => "mixed-tier",
        }
    }

    /// Parses a preset from its [`name`](Self::name).
    pub fn parse(s: &str) -> Option<MixPreset> {
        MixPreset::ALL.into_iter().find(|p| p.name() == s)
    }

    /// The concrete class list, scaled from `reference`.
    ///
    /// Every preset contains at least one unbounded class, so elastic
    /// provisioning never dead-ends.
    pub fn classes(self, reference: &NodeSpec) -> Vec<NodeClass> {
        let scaled = |cost_mult: f64, disk_mult: f64| {
            NodeSpec::new(
                reference.cost * cost_mult,
                crate::num::saturating_u64(reference.disk as f64 * disk_mult).max(1),
            )
        };
        match self {
            MixPreset::Uniform => vec![NodeClass::unbounded(*reference)],
            MixPreset::BudgetHdd => vec![NodeClass::unbounded(scaled(0.5, 2.0))],
            MixPreset::PremiumNvme => vec![NodeClass::unbounded(scaled(2.0, 0.75))],
            MixPreset::MixedTier => vec![
                NodeClass {
                    spec: scaled(2.0, 0.75),
                    available: Some(4),
                },
                NodeClass::unbounded(scaled(0.5, 2.0)),
            ],
        }
    }

    /// The spec of the preset's *marginal* class — the cheapest-density
    /// unbounded class, i.e. the hardware elastic growth actually rents.
    /// A homogeneous cluster simulation consumes a mix through this: run at
    /// the marginal spec, since in equilibrium the unbounded cheap class
    /// absorbs all marginal replicas (bounded classes only shift a constant
    /// number of slots).
    pub fn effective_spec(self, reference: &NodeSpec) -> NodeSpec {
        let unbounded: Vec<NodeClass> = self
            .classes(reference)
            .into_iter()
            .filter(|c| c.available.is_none())
            .collect();
        // Every preset has ≥ 1 unbounded class by construction; fall back to
        // the reference rather than panic if that invariant ever breaks.
        unbounded
            .iter()
            .min_by(|a, b| a.density().total_cmp(&b.density()))
            .map_or(*reference, |c| c.spec)
    }
}

/// The equilibrium replica counts of one fragment across node classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeteroDecision {
    /// The fragment.
    pub id: FragmentId,
    /// Replicas per class (same order as the input classes).
    pub per_class: Vec<u64>,
}

impl HeteroDecision {
    /// Total replicas across classes.
    pub fn total(&self) -> u64 {
        self.per_class.iter().sum()
    }
}

/// Computes the heterogeneous `Ideal(f)`: how many replicas, and on which
/// classes, a free market would hold.
///
/// Returns one count per class (input order preserved). A fragment worth
/// less than the cheapest feasible storage gets zero replicas — callers
/// wanting the availability floor apply it per class afterwards, as the
/// homogeneous pipeline does.
///
/// # Panics
/// Panics if `classes` is empty or `size` is zero.
pub fn ideal_replicas_hetero(
    window: usize,
    value: f64,
    size: u64,
    classes: &[NodeClass],
) -> Vec<u64> {
    assert!(!classes.is_empty(), "need at least one node class");
    assert!(size > 0, "fragment of zero size");

    // Sweep classes cheapest-density first.
    let mut order: Vec<usize> = (0..classes.len()).collect();
    order.sort_by(|&a, &b| {
        classes[a]
            .density()
            .total_cmp(&classes[b].density())
            .then(a.cmp(&b))
    });

    let mut counts = vec![0u64; classes.len()];
    let mut total = 0u64;
    for &c in &order {
        let slots = classes[c].replica_slots(size);
        while counts[c] < slots {
            // The candidate replica is the most expensive holder so far; if
            // it profits at the diluted income, every replica profits.
            let income = window as f64 * value / (total + 1) as f64;
            let cost = size as f64 * classes[c].density();
            if income < cost {
                return counts;
            }
            counts[c] += 1;
            total = total.saturating_add(1);
            if total == u64::MAX {
                return counts;
            }
        }
    }
    counts
}

/// Per-fragment decisions for a whole scheme.
pub fn decide_replicas_hetero(
    stats: &[FragmentStats],
    window: usize,
    classes: &[NodeClass],
) -> Vec<HeteroDecision> {
    stats
        .iter()
        .map(|s| HeteroDecision {
            id: s.id,
            per_class: ideal_replicas_hetero(window, s.value, s.range.size(), classes),
        })
        .collect()
}

/// A packed heterogeneous cluster: nodes with their class and contents.
#[derive(Debug, Clone)]
pub struct HeteroNode {
    /// The node's id (dense across the whole cluster).
    pub id: NodeId,
    /// Index into the class list it was provisioned from.
    pub class: usize,
    /// Fragments hosted.
    pub fragments: Vec<FragmentId>,
}

/// Why heterogeneous packing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeteroPackError {
    /// A class cannot host the replicas assigned to it: it ran out of
    /// nodes, or one of its fragments is larger than the class's disk.
    ClassExhausted {
        /// The exhausted class.
        class: usize,
    },
    /// A decision references a fragment absent from the stats.
    UnknownFragment {
        /// The unknown fragment.
        fragment: FragmentId,
    },
}

impl std::fmt::Display for HeteroPackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeteroPackError::ClassExhausted { class } => {
                write!(f, "node class {class} has no capacity left")
            }
            HeteroPackError::UnknownFragment { fragment } => {
                write!(f, "replica decision for unknown fragment {fragment}")
            }
        }
    }
}

impl std::error::Error for HeteroPackError {}

/// BFFD within each class: replicas were already assigned to classes by the
/// economics, so each class's replicas are packed by [`pack_bffd`] onto
/// that class's disks, then checked against the class's node cap.
pub fn pack_bffd_hetero(
    stats: &[FragmentStats],
    decisions: &[HeteroDecision],
    classes: &[NodeClass],
) -> Result<Vec<HeteroNode>, HeteroPackError> {
    let mut nodes: Vec<HeteroNode> = Vec::new();
    for (c, class) in classes.iter().enumerate() {
        let mut on_class = Vec::new();
        for d in decisions.iter().filter(|d| d.per_class[c] > 0) {
            let s = stats
                .iter()
                .find(|s| s.id == d.id)
                .ok_or(HeteroPackError::UnknownFragment { fragment: d.id })?;
            on_class.push(ReplicationDecision {
                id: d.id,
                range: s.range,
                value: s.value,
                replicas: d.per_class[c],
                forced: false,
            });
        }
        let exhausted = HeteroPackError::ClassExhausted { class: c };
        let packed = pack_bffd(&on_class, class.spec.disk).map_err(|_| exhausted.clone())?;
        if class
            .available
            .is_some_and(|cap| packed.len() > cap as usize)
        {
            return Err(exhausted);
        }
        for fragments in packed {
            let id = NodeId(nodes.len() as u64);
            nodes.push(HeteroNode {
                id,
                class: c,
                fragments,
            });
        }
    }
    Ok(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::FragmentRange;
    use crate::replication::ideal_replicas;

    fn classes_cheap_pricey() -> Vec<NodeClass> {
        vec![
            // Pricey NVMe: density 0.5.
            NodeClass {
                spec: NodeSpec::new(500.0, 1_000),
                available: Some(4),
            },
            // Cheap HDD: density 0.1, bounded.
            NodeClass {
                spec: NodeSpec::new(100.0, 1_000),
                available: Some(3),
            },
        ]
    }

    #[test]
    fn uniform_classes_recover_eq9() {
        let spec = NodeSpec::new(100.0, 1_000);
        let classes = [NodeClass::unbounded(spec)];
        for &(value, size) in &[(1.0f64, 250u64), (5.0, 100), (0.0, 500), (2.5, 40)] {
            let hetero: u64 = ideal_replicas_hetero(50, value, size, &classes)
                .iter()
                .sum();
            assert_eq!(hetero, ideal_replicas(50, value, size, &spec));
        }
    }

    #[test]
    fn cheap_class_fills_first_then_spills() {
        // Value high enough for 5 replicas at density 0.1 but only 3 cheap
        // slots exist; the 4th/5th replicas must clear the pricier density.
        // income at r: 50·value/r ≥ size·density.
        let classes = classes_cheap_pricey();
        // size 100: cheap cost 10/replica, pricey 50/replica.
        // value = 6: incomes 300, 150, 100, 75, 60 → cheap supports r ≤ 30;
        // pricey needs income ≥ 50 → up to r = 6. 3 cheap + 3 pricey = 6.
        let counts = ideal_replicas_hetero(50, 6.0, 100, &classes);
        assert_eq!(counts, vec![3, 3]); // [pricey, cheap] in input order
    }

    #[test]
    fn expensive_marginal_replica_stops_the_sweep() {
        let classes = classes_cheap_pricey();
        // value = 1: incomes 50, 25, 16.7 … cheap (cost 10) supports r ≤ 5
        // but only 3 slots; pricey replica #4 would need income ≥ 50 but
        // gets 12.5 → stop at the cheap capacity.
        let counts = ideal_replicas_hetero(50, 1.0, 100, &classes);
        assert_eq!(counts, vec![0, 3]);
    }

    #[test]
    fn oversized_fragment_skips_small_class() {
        let classes = vec![
            NodeClass::unbounded(NodeSpec::new(10.0, 100)), // too small
            NodeClass::unbounded(NodeSpec::new(100.0, 10_000)),
        ];
        let counts = ideal_replicas_hetero(50, 5.0, 500, &classes);
        assert_eq!(counts[0], 0, "fragment cannot fit the small class");
        assert!(counts[1] > 0);
    }

    #[test]
    fn worthless_fragment_gets_nothing() {
        let counts = ideal_replicas_hetero(50, 0.0, 100, &classes_cheap_pricey());
        assert_eq!(counts, vec![0, 0]);
    }

    fn stats(id: u64, start: u64, end: u64, value: f64) -> FragmentStats {
        FragmentStats {
            id: FragmentId(id),
            range: FragmentRange::new(start, end),
            value,
            error: 0.0,
        }
    }

    #[test]
    fn hetero_packing_respects_class_capacity_and_disks() {
        let classes = classes_cheap_pricey();
        let st = vec![
            stats(0, 0, 100, 6.0),
            stats(1, 100, 500, 1.2),
            stats(2, 500, 900, 0.4),
        ];
        let decisions = decide_replicas_hetero(&st, 50, &classes);
        let nodes = pack_bffd_hetero(&st, &decisions, &classes).unwrap();
        // No node over its class disk; no duplicate replicas per node.
        for n in &nodes {
            let used: u64 = n
                .fragments
                .iter()
                .map(|f| st.iter().find(|s| s.id == *f).unwrap().range.size())
                .sum();
            assert!(used <= classes[n.class].spec.disk);
            let mut seen = std::collections::BTreeSet::new();
            assert!(n.fragments.iter().all(|f| seen.insert(*f)));
        }
        // Per-class node caps respected.
        for (c, class) in classes.iter().enumerate() {
            if let Some(cap) = class.available {
                let used = nodes.iter().filter(|n| n.class == c).count();
                assert!(used <= cap as usize);
            }
        }
        // Every decided replica is placed.
        for d in &decisions {
            let placed = nodes.iter().filter(|n| n.fragments.contains(&d.id)).count() as u64;
            assert_eq!(placed, d.total(), "fragment {}", d.id);
        }
    }

    #[test]
    fn class_exhaustion_is_reported() {
        // Force more replicas onto a bounded class than it has nodes by
        // hand-building decisions (the economics would not do this, but the
        // packer must still fail loudly).
        let classes = vec![NodeClass {
            spec: NodeSpec::new(100.0, 1_000),
            available: Some(1),
        }];
        let st = vec![stats(0, 0, 100, 1.0)];
        let decisions = vec![HeteroDecision {
            id: FragmentId(0),
            per_class: vec![2],
        }];
        let err = pack_bffd_hetero(&st, &decisions, &classes).unwrap_err();
        assert_eq!(err, HeteroPackError::ClassExhausted { class: 0 });
        assert!(err.to_string().contains("no capacity"));
    }

    #[test]
    fn fragment_larger_than_the_class_disk_exhausts_the_class() {
        let classes = vec![NodeClass::unbounded(NodeSpec::new(100.0, 50))];
        let st = vec![stats(0, 0, 100, 1.0)];
        let decisions = vec![HeteroDecision {
            id: FragmentId(0),
            per_class: vec![1],
        }];
        let err = pack_bffd_hetero(&st, &decisions, &classes).unwrap_err();
        assert_eq!(err, HeteroPackError::ClassExhausted { class: 0 });
    }

    #[test]
    fn mix_presets_round_trip_names_and_stay_unbounded() {
        for p in MixPreset::ALL {
            assert_eq!(MixPreset::parse(p.name()), Some(p), "{}", p.name());
            let classes = p.classes(&NodeSpec::new(100.0, 1_000));
            assert!(
                classes.iter().any(|c| c.available.is_none()),
                "{} has no unbounded class",
                p.name()
            );
        }
        assert_eq!(MixPreset::parse("warp-drive"), None);
    }

    #[test]
    fn effective_spec_is_the_cheap_unbounded_margin() {
        let reference = NodeSpec::new(100.0, 1_000);
        assert_eq!(MixPreset::Uniform.effective_spec(&reference), reference);
        // Mixed tier's margin is the budget class, not the bounded premium.
        let eff = MixPreset::MixedTier.effective_spec(&reference);
        assert_eq!(eff, NodeSpec::new(50.0, 2_000));
        // Budget halves the density twice over; premium raises it.
        let density = |s: NodeSpec| s.cost / s.disk as f64;
        assert!(density(MixPreset::BudgetHdd.effective_spec(&reference)) < density(reference));
        assert!(density(MixPreset::PremiumNvme.effective_spec(&reference)) > density(reference));
    }

    #[test]
    fn hetero_counts_monotone_in_value() {
        let classes = classes_cheap_pricey();
        let mut prev = 0;
        for v in [0.5, 1.0, 2.0, 4.0, 8.0] {
            let total: u64 = ideal_replicas_hetero(50, v, 100, &classes).iter().sum();
            assert!(total >= prev, "value {v}: {total} < {prev}");
            prev = total;
        }
    }
}
