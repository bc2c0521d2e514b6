//! Replication and provisioning (paper §6).
//!
//! Given a fragmentation and each fragment's windowed value, NashDB decides
//! (1) how many replicas each fragment gets, (2) how many nodes to
//! provision, and (3) which node hosts which replica — collectively a
//! *cluster configuration*.
//!
//! Replica counts come straight from the profit-neutrality condition
//! (Eq. 9): `Ideal(f) = ⌊|W| · Value(f) · Disk / (Size(f) · Cost)⌋` — the
//! largest count at which every replica is still profitable. The paper
//! proves (Theorem 6.1) that these counts are a Nash equilibrium under
//! Definition 6.1; [`crate::economics::check_equilibrium`] re-verifies this
//! at runtime in tests.
//!
//! Replica placement minimizes wasted disk: packing replicas onto the
//! fewest nodes such that no node holds two replicas of the same fragment
//! is class-constrained bin packing (NP-hard), approximated by Best First
//! Fit Decreasing (approximation factor 2). The number of bins BFFD opens
//! *is* the provisioning decision.

pub mod market;

use nashdb_obs::Metric;

use crate::economics::{replica_profit, EconomicConfig, FragmentEconomics, NodeSpec};
use crate::fragment::{FragmentRange, FragmentStats};
use crate::ids::{FragmentId, NodeId};

/// `Ideal(f)` (paper Eq. 9): the equilibrium replica count for a fragment.
/// Zero means no replica of this fragment is profitable even alone.
pub fn ideal_replicas(window: usize, value: f64, size: u64, spec: &NodeSpec) -> u64 {
    assert!(size > 0, "fragment of zero size");
    let ideal = (window as f64 * value * spec.disk as f64) / (size as f64 * spec.cost);
    if !ideal.is_finite() || ideal <= 0.0 {
        0
    } else {
        crate::num::saturating_u64(ideal.floor())
    }
}

/// Replication policy parameters.
#[derive(Debug, Clone, Copy)]
pub struct ReplicationPolicy {
    /// Scan window size `|W|` the fragment values were estimated over.
    pub window: usize,
    /// Node cost/capacity (all nodes identical, as in the paper).
    pub spec: NodeSpec,
    /// Safety cap on replicas per fragment. Eq. 9 is unbounded in fragment
    /// value; the cap keeps a mispriced workload from provisioning an
    /// absurd cluster. Forced to at least 1.
    pub max_replicas_per_fragment: u64,
}

impl ReplicationPolicy {
    /// A policy with the paper's behaviour (no practical cap).
    pub fn new(window: usize, spec: NodeSpec) -> Self {
        ReplicationPolicy {
            window,
            spec,
            max_replicas_per_fragment: u64::MAX,
        }
    }

    /// Applies a replica cap.
    pub fn with_max_replicas(mut self, cap: u64) -> Self {
        self.max_replicas_per_fragment = cap.max(1);
        self
    }
}

/// The replica-count decision for one fragment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicationDecision {
    /// The fragment.
    pub id: FragmentId,
    /// Its tuple range.
    pub range: FragmentRange,
    /// Its windowed value `Value(f)`.
    pub value: f64,
    /// Replicas to create: `max(Ideal(f), 1)`.
    pub replicas: u64,
    /// True when `Ideal(f) = 0` and the single replica exists only so the
    /// data stays available — such replicas are *not* economically
    /// profitable and are excluded from equilibrium checking.
    pub forced: bool,
}

/// Computes replica counts for every fragment (Eq. 9, floored at one copy so
/// no data is lost).
pub fn decide_replicas(
    stats: &[FragmentStats],
    policy: &ReplicationPolicy,
) -> Vec<ReplicationDecision> {
    let decisions: Vec<ReplicationDecision> = stats
        .iter()
        .map(|s| {
            let ideal = ideal_replicas(policy.window, s.value, s.range.size(), &policy.spec);
            let capped = ideal.min(policy.max_replicas_per_fragment);
            ReplicationDecision {
                id: s.id,
                range: s.range,
                value: s.value,
                replicas: capped.max(1),
                forced: ideal == 0,
            }
        })
        .collect();
    // Aggregate equilibrium economics: total surplus of the economically
    // motivated (non-forced) replicas. At the exact Eq. 9 counts this is the
    // residual profit the floor leaves on the table — a drift indicator.
    let mut surplus = 0.0f64;
    let mut total_replicas = 0u64;
    let mut forced = 0u64;
    for d in &decisions {
        nashdb_obs::record(Metric::ReplicationReplicasPerFragment, d.replicas);
        total_replicas = total_replicas.saturating_add(d.replicas);
        if d.forced {
            forced += 1;
        } else {
            surplus += d.replicas as f64
                * replica_profit(
                    policy.window,
                    d.value,
                    d.replicas,
                    d.range.size(),
                    &policy.spec,
                );
        }
    }
    nashdb_obs::counter_add(Metric::ReplicationDecisions, decisions.len() as u64);
    nashdb_obs::counter_add(Metric::ReplicationReplicasTotal, total_replicas);
    nashdb_obs::counter_add(Metric::ReplicationForcedSingles, forced);
    nashdb_obs::gauge_set(Metric::ReplicationNashSurplus, surplus);
    decisions
}

/// The economically meaningful part of a cluster configuration as an
/// [`EconomicConfig`], for equilibrium verification: `nodes[n]` lists the
/// fragments node `NodeId(n)` hosts, as [`pack_bffd`] returns them. Forced
/// single replicas (Ideal = 0) are excluded: they exist for availability,
/// not profit, and the paper's theorem does not cover them.
///
/// `fragments` follows `decisions` order and each node keeps its own order,
/// so equal inputs always give equal outputs.
pub fn economic_config(
    policy: &ReplicationPolicy,
    decisions: &[ReplicationDecision],
    nodes: &[Vec<FragmentId>],
) -> EconomicConfig {
    let fragments: Vec<FragmentEconomics> = decisions
        .iter()
        .filter(|d| !d.forced)
        .map(|d| FragmentEconomics {
            id: d.id,
            size: d.range.size(),
            value: d.value,
            replicas: d.replicas,
        })
        .collect();
    let mut kept: Vec<FragmentId> = fragments.iter().map(|f| f.id).collect();
    kept.sort_unstable();
    let assignment = nodes
        .iter()
        .enumerate()
        .map(|(n, frags)| {
            let economic = frags.iter().filter(|f| kept.binary_search(f).is_ok());
            (NodeId(n as u64), economic.copied().collect())
        })
        .collect();
    EconomicConfig {
        window: policy.window,
        spec: policy.spec,
        fragments,
        assignment,
    }
}

/// Why packing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackError {
    /// A single fragment is larger than a node's disk, so no assignment
    /// exists. Carries the offending fragment and its size.
    FragmentExceedsDisk {
        /// The oversized fragment.
        fragment: FragmentId,
        /// Its size in tuples.
        size: u64,
        /// The node disk capacity in tuples.
        disk: u64,
    },
}

impl std::fmt::Display for PackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackError::FragmentExceedsDisk {
                fragment,
                size,
                disk,
            } => write!(
                f,
                "fragment {fragment} ({size} tuples) exceeds node disk ({disk} tuples)"
            ),
        }
    }
}

impl std::error::Error for PackError {}

/// Best First Fit Decreasing class-constrained bin packing (paper §6,
/// following Xavier & Miyazawa): fragments in decreasing replica count;
/// each replica goes to the first node with room that does not already hold
/// that fragment; a new node is opened when none fits.
///
/// Returns the per-node fragment lists.
pub fn pack_bffd(
    decisions: &[ReplicationDecision],
    disk: u64,
) -> Result<Vec<Vec<FragmentId>>, PackError> {
    let mut order: Vec<&ReplicationDecision> = decisions.iter().collect();
    // Decreasing replica count, then a deterministic hash of the fragment's
    // *position*. The hash order matters twice over: (1) physically
    // adjacent fragments are exactly the ones range scans read *together*,
    // and placing equal-replica fragments in physical (or size) order would
    // first-fit whole runs of them onto the same node, serializing every
    // scan that crosses the run; (2) hashing the tuple range — rather than
    // the (positional, hence unstable) fragment id — keeps the placement
    // order, and so the packing, nearly identical across reconfigurations,
    // which is what lets the Hungarian transition planner find cheap
    // matchings. (The paper specifies only the replica-count ordering.)
    let scatter = |d: &ReplicationDecision| {
        (d.range.start ^ d.range.end.rotate_left(17)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    };
    order.sort_by(|a, b| {
        b.replicas
            .cmp(&a.replicas)
            .then(scatter(a).cmp(&scatter(b)))
            .then(a.id.cmp(&b.id))
    });

    let mut nodes: Vec<Vec<FragmentId>> = Vec::new();
    let mut free: Vec<u64> = Vec::new();

    for d in order {
        let size = d.range.size();
        if size > disk {
            return Err(PackError::FragmentExceedsDisk {
                fragment: d.id,
                size,
                disk,
            });
        }
        for _ in 0..d.replicas {
            let slot = nodes
                .iter()
                .enumerate()
                .position(|(i, frags)| free[i] >= size && !frags.contains(&d.id));
            match slot {
                Some(i) => {
                    nodes[i].push(d.id);
                    free[i] -= size;
                }
                None => {
                    nodes.push(vec![d.id]);
                    free.push(disk - size);
                }
            }
        }
    }
    Ok(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::economics::check_equilibrium;

    fn spec() -> NodeSpec {
        NodeSpec::new(100.0, 1_000)
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
    fn ideal_matches_eq9() {
        // |W|=50, Value=1.0, Disk=1000, Size=250, Cost=100:
        // 50·1·1000 / (250·100) = 2.
        assert_eq!(ideal_replicas(50, 1.0, 250, &spec()), 2);
        // Worthless fragment: zero.
        assert_eq!(ideal_replicas(50, 0.0, 250, &spec()), 0);
        // Doubling disk doubles replicas (ceteris paribus).
        let big = NodeSpec::new(100.0, 2_000);
        assert_eq!(ideal_replicas(50, 1.0, 250, &big), 4);
        // Doubling size halves replicas.
        assert_eq!(ideal_replicas(50, 1.0, 500, &spec()), 1);
    }

    #[test]
    fn ideal_monotonicity_paper_claims() {
        let s = spec();
        // More scans per unit time => more replicas.
        assert!(ideal_replicas(100, 1.0, 250, &s) >= ideal_replicas(50, 1.0, 250, &s));
        // Higher value => more replicas.
        assert!(ideal_replicas(50, 2.0, 250, &s) >= ideal_replicas(50, 1.0, 250, &s));
        // Higher cost => fewer replicas.
        let pricey = NodeSpec::new(200.0, 1_000);
        assert!(ideal_replicas(50, 1.0, 250, &pricey) <= ideal_replicas(50, 1.0, 250, &s));
    }

    #[test]
    fn decisions_floor_at_one_and_mark_forced() {
        let policy = ReplicationPolicy::new(50, spec());
        let d = decide_replicas(&[stats(0, 0, 250, 1.0), stats(1, 250, 500, 0.0)], &policy);
        assert_eq!(d[0].replicas, 2);
        assert!(!d[0].forced);
        assert_eq!(d[1].replicas, 1);
        assert!(d[1].forced);
    }

    #[test]
    fn replica_cap_applies() {
        let policy = ReplicationPolicy::new(50, spec()).with_max_replicas(3);
        let d = decide_replicas(&[stats(0, 0, 10, 1_000.0)], &policy);
        assert_eq!(d[0].replicas, 3);
        assert!(!d[0].forced);
    }

    #[test]
    fn bffd_no_duplicates_and_capacity_respected() {
        let policy = ReplicationPolicy::new(50, spec());
        let decisions = decide_replicas(
            &[
                stats(0, 0, 400, 4.0),
                stats(1, 400, 700, 2.0),
                stats(2, 700, 1000, 0.5),
            ],
            &policy,
        );
        let nodes = pack_bffd(&decisions, 1_000).unwrap();
        for frags in &nodes {
            let mut seen = std::collections::BTreeSet::new();
            let mut used = 0;
            for f in frags {
                assert!(seen.insert(*f), "duplicate replica on a node");
                used += decisions.iter().find(|d| d.id == *f).unwrap().range.size();
            }
            assert!(used <= 1_000, "node over capacity: {used}");
        }
        // Every replica placed.
        let placed: u64 = nodes.iter().map(|f| f.len() as u64).sum();
        let wanted: u64 = decisions.iter().map(|d| d.replicas).sum();
        assert_eq!(placed, wanted);
    }

    #[test]
    fn bffd_highest_replica_count_first_opens_enough_nodes() {
        // One fragment with 5 replicas forces >= 5 nodes even though each is
        // tiny (class constraint: distinct nodes per replica).
        let d = vec![ReplicationDecision {
            id: FragmentId(0),
            range: FragmentRange::new(0, 10),
            value: 1.0,
            replicas: 5,
            forced: false,
        }];
        let nodes = pack_bffd(&d, 1_000).unwrap();
        assert_eq!(nodes.len(), 5);
    }

    #[test]
    fn bffd_oversized_fragment_errors() {
        let d = vec![ReplicationDecision {
            id: FragmentId(0),
            range: FragmentRange::new(0, 2_000),
            value: 1.0,
            replicas: 1,
            forced: false,
        }];
        let err = pack_bffd(&d, 1_000).unwrap_err();
        assert!(matches!(err, PackError::FragmentExceedsDisk { .. }));
        assert!(err.to_string().contains("exceeds node disk"));
    }

    #[test]
    fn scheme_is_nash_equilibrium() {
        let policy = ReplicationPolicy::new(50, spec());
        let decisions = decide_replicas(
            &[
                stats(0, 0, 250, 1.0),    // ideal 2
                stats(1, 250, 500, 2.5),  // ideal 5
                stats(2, 500, 1000, 0.2), // ideal 0 -> forced
                stats(3, 1000, 1250, 1.0),
            ],
            &policy,
        );
        let nodes = pack_bffd(&decisions, policy.spec.disk).unwrap();
        let cfg = economic_config(&policy, &decisions, &nodes);
        assert_eq!(check_equilibrium(&cfg), Ok(()));
        // Forced fragment still hosted exactly once, and left out of the
        // economics; the rest follow decision (id) order.
        let hosting = |f| nodes.iter().filter(|frags| frags.contains(&f)).count();
        assert_eq!(hosting(FragmentId(2)), 1);
        let ids: Vec<FragmentId> = cfg.fragments.iter().map(|f| f.id).collect();
        assert_eq!(ids, [FragmentId(0), FragmentId(1), FragmentId(3)]);
        assert!(cfg
            .assignment
            .iter()
            .all(|(_, f)| !f.contains(&FragmentId(2))));
    }
}
