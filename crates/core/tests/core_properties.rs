//! Property tests over `nashdb-core` invariants not covered by the
//! workspace-level suite: AVL structural health under churn, error-function
//! agreement with direct computation, FindSplit ≡ the chunk-restricted
//! search, cached greedy rounds ≡ the full-rescan oracle, market dynamics ≡
//! the closed form, and the shared-stretch transition plan ≡ the per-pair
//! one.

use proptest::prelude::*;

use nashdb_core::economics::NodeSpec;
use nashdb_core::fragment::reference::greedy_round;
use nashdb_core::fragment::{
    find_split, ChunkPrefix, FragmentRange, FragmentStats, Fragmentation, GreedyFragmenter,
    MergePolicy, StepOutcome,
};
use nashdb_core::ids::FragmentId;
use nashdb_core::replication::market::{simulate_market, MarketConfig};
use nashdb_core::replication::{ideal_replicas, ReplicationPolicy};
use nashdb_core::transition::{self, plan_transition, IntervalSet};
use nashdb_core::value::{Chunk, PricedScan, TupleValueEstimator};

const TABLE: u64 = 5_000;

fn arb_scans() -> impl Strategy<Value = Vec<PricedScan>> {
    proptest::collection::vec((0..TABLE - 1, 1..TABLE / 2, 0.01f64..5.0), 1..60).prop_map(|v| {
        v.into_iter()
            .map(|(s, l, p)| PricedScan::new(s, (s + l).min(TABLE), p))
            .collect()
    })
}

fn arb_chunks() -> impl Strategy<Value = Vec<Chunk>> {
    proptest::collection::vec((1u64..40, 0.0f64..4.0), 1..12).prop_map(|parts| {
        let mut out = Vec::new();
        let mut pos = 0;
        for (len, value) in parts {
            out.push(Chunk {
                start: pos,
                end: pos + len,
                value,
            });
            pos += len;
        }
        out
    })
}

/// Tuples in the table the drifting value functions of [`arb_drift`] cover.
const DRIFT_TABLE: u64 = 240;

/// A sequence of value functions over one table, each a fresh set of cuts.
/// Values come from a six-step ladder so equal gains and zero-error
/// fragments — the cases scan order and strict comparisons decide — are
/// common rather than measure-zero.
fn arb_drift() -> impl Strategy<Value = Vec<Vec<Chunk>>> {
    let set = proptest::collection::vec((1..DRIFT_TABLE, 0u32..6), 0..14).prop_map(|mut cuts| {
        cuts.push((DRIFT_TABLE, 0));
        cuts.sort_unstable();
        cuts.dedup_by_key(|c| c.0);
        let mut start = 0;
        cuts.into_iter()
            .map(|(end, step)| {
                let c = Chunk {
                    start,
                    end,
                    value: f64::from(step) * 0.37,
                };
                start = end;
                c
            })
            .collect()
    });
    proptest::collection::vec(set, 3..=8)
}

/// Fragments in the pool [`arb_interval_nodes`] draws replicas from, and
/// their size in tuples.
const POOL_FRAGMENTS: u64 = 12;
const POOL_FRAGMENT_TUPLES: u64 = 100;

/// One side of a transition as `plan_transition` sees it: per node, the
/// tuples it holds. Most runs are whole fragments of a small shared pool, so
/// a fragment sits on several nodes, neighbours touch across nodes (and merge
/// within one) and both sides share boundaries; the rest are re-cut
/// fragments, single tuples and free-form runs. A node may hold nothing, a
/// side may have no node (0 × n, n × 0), the first node sometimes has an
/// identical twin, and a third of the sides sit at the top of `u64`, the
/// last fragment ending on `u64::MAX`. At most seven nodes, so the audit's
/// brute-force certificate always runs.
fn arb_interval_nodes() -> impl Strategy<Value = Vec<IntervalSet>> {
    let run = (0..POOL_FRAGMENTS, 0u8..8, 0u64..1_000, 1u64..200);
    let nodes = proptest::collection::vec(proptest::collection::vec(run, 0..5), 0..7);
    (nodes, 0u8..4, 0usize..3).prop_map(|(nodes, twin, base)| {
        let base = [0, 0, u64::MAX - POOL_FRAGMENTS * POOL_FRAGMENT_TUPLES][base];
        let mut sets: Vec<IntervalSet> = nodes
            .into_iter()
            .map(|runs| {
                runs.into_iter()
                    .map(|(f, kind, free_start, free_len)| {
                        let start = base + f * POOL_FRAGMENT_TUPLES;
                        match kind {
                            0 => (start + 37, start + 38),
                            1 => (start + 10, start + POOL_FRAGMENT_TUPLES),
                            2 => (start, start + 60),
                            3 => (base + free_start, base + free_start + free_len),
                            _ => (start, start + POOL_FRAGMENT_TUPLES),
                        }
                    })
                    .collect()
            })
            .collect();
        if twin == 0 {
            sets.extend(sets.first().cloned());
        }
        sets
    })
}

proptest! {
    /// The production fragmenter, which scores each fragment and merge
    /// window once per run and re-scores only what a round touched, makes
    /// the decisions of the textbook round that rescans the table: same
    /// boundaries and same change count after every run of a drifting
    /// sequence, below the cap, at it, and across the transition; and a
    /// run of `n` rounds is `n` steps.
    #[test]
    fn greedy_rounds_match_reference(
        sets in arb_drift(),
        cap in 1usize..=12,
        pairwise in 0u8..2,
        damped in 0u8..2,
        rounds in 1usize..=40,
    ) {
        let policy = [MergePolicy::TripleToPair, MergePolicy::PairToOne][usize::from(pairwise)];
        let gain = [0.0, 0.05][usize::from(damped)];
        let mut ran = GreedyFragmenter::new(DRIFT_TABLE, cap)
            .with_merge_policy(policy)
            .with_min_relative_gain(gain);
        let mut stepped = ran.clone();
        let mut oracle = vec![0, DRIFT_TABLE];
        for chunks in &sets {
            let prefix = ChunkPrefix::new(chunks).unwrap();
            let expect = (0..rounds)
                .take_while(|_| {
                    greedy_round(&mut oracle, &prefix, cap, gain, policy) == StepOutcome::Changed
                })
                .count();
            prop_assert_eq!(ran.run(chunks, rounds), expect);
            prop_assert_eq!(ran.fragmentation(), Fragmentation::from_boundaries(oracle.clone()));
            let steps = (0..rounds)
                .filter(|_| stepped.step(chunks) == StepOutcome::Changed)
                .count();
            prop_assert_eq!(steps, expect);
            prop_assert_eq!(stepped.fragmentation(), Fragmentation::from_boundaries(oracle.clone()));
        }
    }

    /// The estimator's value function always integrates to the window's
    /// mean query price, and per-tuple values stay within the maximum
    /// possible scan weight.
    #[test]
    fn estimator_values_are_bounded(scans in arb_scans(), window in 1usize..24) {
        let mut est = TupleValueEstimator::new(window);
        let mut recent: Vec<PricedScan> = Vec::new();
        for s in &scans {
            est.observe(*s);
            recent.push(*s);
            if recent.len() > window {
                recent.remove(0);
            }
        }
        let max_weight = recent.iter().map(|s| s.weight()).fold(0.0, f64::max);
        for c in est.chunks(TABLE) {
            // No tuple can be worth more than the sum of all windowed
            // weights / |W|... a simpler sound bound: |W| × max weight.
            prop_assert!(c.value <= max_weight * recent.len() as f64 + 1e-9);
            prop_assert!(c.value >= 0.0);
        }
    }

    /// ChunkPrefix::error equals the direct unnormalized variance computed
    /// tuple by tuple.
    #[test]
    fn error_matches_direct_variance(chunks in arb_chunks()) {
        let prefix = ChunkPrefix::new(&chunks).unwrap();
        let table = prefix.table_len();
        // Expand V(x) per tuple (tables here are tiny).
        let mut v = Vec::with_capacity(nashdb_core::num::usize_from(table));
        for c in &chunks {
            for _ in c.start..c.end {
                v.push(c.value);
            }
        }
        // A handful of ranges.
        for (a, b) in [(0, table), (0, table.div_ceil(2)), (table / 3, table)] {
            if a >= b {
                continue;
            }
            let xs = &v[nashdb_core::num::usize_from(a)..nashdb_core::num::usize_from(b)];
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            let direct: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum();
            let fast = prefix.error(a, b);
            prop_assert!(
                (fast - direct).abs() < 1e-6 * (1.0 + direct),
                "range {a}..{b}: fast {fast} vs direct {direct}"
            );
        }
    }

    /// Algorithm 2 over all tuples never beats (and never loses to) the
    /// chunk-boundary-restricted split the production code uses.
    #[test]
    fn findsplit_equals_boundary_search(chunks in arb_chunks()) {
        let prefix = ChunkPrefix::new(&chunks).unwrap();
        let table = prefix.table_len();
        if table < 2 {
            return Ok(());
        }
        let literal = find_split(&chunks, 0, table).unwrap().expect("table >= 2");
        let boundary = chunks[..chunks.len().saturating_sub(1)]
            .iter()
            .map(|c| prefix.error(0, c.end) + prefix.error(c.end, table))
            .fold(f64::INFINITY, f64::min);
        if boundary.is_finite() {
            prop_assert!((literal.error - boundary).abs() < 1e-6 * (1.0 + boundary));
        } else {
            // Single chunk: any interior point splits a constant run.
            prop_assert!(literal.error < 1e-9);
        }
    }

    /// Best-response dynamics always converge to the closed form.
    #[test]
    fn market_always_matches_closed_form(
        frags in proptest::collection::vec((1u64..2_000, 0.0f64..10.0), 1..20),
    ) {
        let mut pos = 0u64;
        let stats: Vec<FragmentStats> = frags
            .into_iter()
            .enumerate()
            .map(|(i, (size, value))| {
                let s = FragmentStats {
                    id: FragmentId(i as u64),
                    range: FragmentRange::new(pos, pos + size),
                    value,
                    error: 0.0,
                };
                pos += size;
                s
            })
            .collect();
        let policy = ReplicationPolicy::new(50, NodeSpec::new(40.0, 4_000))
            .with_max_replicas(500);
        let out = simulate_market(&stats, &policy, MarketConfig::default());
        prop_assert!(out.converged);
        for (s, &r) in stats.iter().zip(&out.replicas) {
            let ideal = ideal_replicas(50, s.value, s.range.size(), &policy.spec).min(500);
            prop_assert_eq!(r, ideal, "fragment {}", s.id);
        }
    }

    /// §7: the plan built from one pass over shared stretches is the plan
    /// built from a set difference per node pair — the same moves in the
    /// same order, so the two cost matrices lead the solver down one path.
    #[test]
    fn plan_transition_matches_reference(
        old in arb_interval_nodes(),
        new in arb_interval_nodes(),
    ) {
        prop_assert_eq!(plan_transition(&old, &new), transition::reference::plan(&old, &new));
    }
}

/// The invariant audits themselves, property-tested: every artifact the real
/// pipeline produces must pass its audit, and deliberately corrupted
/// artifacts must fail it.
mod audit_props {
    use super::*;
    use nashdb_core::audit::{
        audit_fragmentation, audit_packing, audit_transition, audit_tree_consistency,
        audit_value_tree, AuditError,
    };
    use nashdb_core::economics::check_equilibrium;
    use nashdb_core::fragment::{fragment_stats, optimal_fragmentation, Fragmentation};
    use nashdb_core::replication::{
        decide_replicas, economic_config, pack_bffd, ReplicationDecision,
    };

    type Scheme = (
        ReplicationPolicy,
        Vec<ReplicationDecision>,
        Vec<Vec<FragmentId>>,
    );

    /// Eq. 9 counts over the optimal `k`-fragmentation, packed by BFFD.
    // Test-helper panics are the failure mode here, but this free fn sits
    // outside any #[cfg(test)] scope so `allow-unwrap-in-tests` misses it.
    #[allow(clippy::unwrap_used)]
    fn build_scheme(chunks: &[Chunk], k: usize) -> Scheme {
        let frag = optimal_fragmentation(chunks, k).unwrap();
        let stats = fragment_stats(&frag, chunks).unwrap();
        let policy = ReplicationPolicy::new(50, NodeSpec::new(1_000.0, frag.table_len()));
        let decisions = decide_replicas(&stats, &policy);
        let nodes = pack_bffd(&decisions, policy.spec.disk).unwrap();
        (policy, decisions, nodes)
    }

    proptest! {
        /// §4: a churned estimator always passes the window-consistency
        /// audit.
        #[test]
        fn value_tree_audit_accepts_real_estimators(
            scans in arb_scans(),
            window in 1usize..24,
        ) {
            let mut est = TupleValueEstimator::new(window);
            for s in &scans {
                est.observe(*s);
            }
            prop_assert!(audit_value_tree(&est).is_ok());
        }

        /// §4 negative: a window claiming a scan the tree never saw is
        /// always caught.
        #[test]
        fn value_tree_audit_rejects_fabricated_scan(scans in arb_scans()) {
            let mut est = TupleValueEstimator::new(scans.len());
            for s in &scans {
                est.observe(*s);
            }
            let mut claimed: Vec<PricedScan> = est.scans().copied().collect();
            claimed.push(PricedScan::new(0, TABLE, 1_000.0));
            prop_assert!(audit_tree_consistency(&est, &claimed).is_err());
        }

        /// §5: the DP fragmenter's output always passes the audit that
        /// re-runs the DP against it.
        #[test]
        fn fragmentation_audit_accepts_optimal(chunks in arb_chunks(), k in 1usize..6) {
            let frag = optimal_fragmentation(&chunks, k).unwrap();
            prop_assert!(audit_fragmentation(&frag, &chunks, k).is_ok());
        }

        /// §5 negative: a fragmentation for the wrong table length is
        /// always a coverage gap.
        #[test]
        fn fragmentation_audit_rejects_wrong_table(chunks in arb_chunks()) {
            let table = chunks.last().map_or(0, |c| c.end);
            let frag = Fragmentation::from_boundaries(vec![0, table + 7]);
            let is_gap = matches!(
                audit_fragmentation(&frag, &chunks, 8),
                Err(AuditError::CoverageGap { .. })
            );
            prop_assert!(is_gap);
        }

        /// §6: a scheme built by Eq. 9 + BFFD always satisfies the packing
        /// constraints and is a Nash equilibrium.
        #[test]
        fn built_scheme_audits_clean(chunks in arb_chunks(), k in 1usize..6) {
            let (policy, decisions, nodes) = build_scheme(&chunks, k);
            prop_assert!(audit_packing(&nodes, &decisions, policy.spec.disk).is_ok());
            prop_assert!(check_equilibrium(&economic_config(&policy, &decisions, &nodes)).is_ok());
        }

        /// §6 negative: duplicating any replica on any node breaks either
        /// the class constraint or the replica-count bookkeeping.
        #[test]
        fn packing_audit_rejects_duplicate(chunks in arb_chunks()) {
            let (policy, decisions, mut nodes) = build_scheme(&chunks, 4);
            let f = nodes[0][0];
            nodes[0].push(f);
            prop_assert!(audit_packing(&nodes, &decisions, policy.spec.disk).is_err());
        }

        /// §6 negative: inflating a replica count without repacking is
        /// structurally malformed.
        #[test]
        fn equilibrium_audit_rejects_phantom_replicas(chunks in arb_chunks()) {
            let (policy, mut decisions, nodes) = build_scheme(&chunks, 4);
            decisions[0].replicas += 5;
            decisions[0].forced = false;
            prop_assert!(check_equilibrium(&economic_config(&policy, &decisions, &nodes)).is_err());
        }

        /// §7: the Hungarian plan always passes the structural audit and
        /// the brute-force minimality certificate (instances here are small
        /// enough that the certificate always runs).
        #[test]
        fn transition_audit_accepts_hungarian_plans(
            old in arb_interval_nodes(),
            new in arb_interval_nodes(),
        ) {
            let plan = plan_transition(&old, &new);
            prop_assert!(audit_transition(&old, &new, &plan).is_ok());
        }

        /// §7 negative: any tampering with the claimed total is caught.
        #[test]
        fn transition_audit_rejects_tampered_total(
            old in arb_interval_nodes(),
            new in arb_interval_nodes(),
        ) {
            let mut plan = plan_transition(&old, &new);
            plan.total_transfer += 1;
            prop_assert!(audit_transition(&old, &new, &plan).is_err());
        }
    }
}
