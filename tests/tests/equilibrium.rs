//! Integration tests for the paper's Theorem 6.1: the paper's §6
//! construction — Eq. 9 replica counts packed by BFFD — over estimated and
//! fragmented statistics is a Nash equilibrium (Definition 6.1), verified by
//! the independent checker.
//!
//! This certifies the construction, not the deployed placer:
//! `NashDbDistributor` damps counts with a hysteresis band and places them
//! incrementally, and its cold-start scheme is checked by
//! `distributor::tests::cold_start_scheme_is_an_equilibrium`.

use nashdb_core::economics::{check_equilibrium, EquilibriumViolation, NodeSpec};
use nashdb_core::fragment::{
    fragment_stats, optimal_fragmentation, FragmentStats, GreedyFragmenter,
};
use nashdb_core::replication::{decide_replicas, economic_config, pack_bffd, ReplicationPolicy};
use nashdb_core::value::{PricedScan, TupleValueEstimator};
use nashdb_sim::SimRng;

const TABLE: u64 = 1_000_000;
const WINDOW: usize = 50;

fn estimator_after(scans: usize, seed: u64) -> TupleValueEstimator {
    let mut est = TupleValueEstimator::new(WINDOW);
    let mut rng = SimRng::seed_from_u64(seed);
    for _ in 0..scans {
        let a = rng.uniform_u64(0, TABLE - 1);
        let len = rng.uniform_u64(1_000, TABLE / 3);
        est.observe(PricedScan::new(
            a,
            (a + len).min(TABLE),
            0.5 + 4.0 * rng.uniform_f64(),
        ));
    }
    est
}

fn spec() -> NodeSpec {
    NodeSpec::new(30.0, 300_000)
}

/// Eq. 9 counts for `stats`, packed by BFFD, under Definition 6.1.
// A helper outside any #[cfg(test)] scope, so `allow-unwrap-in-tests` misses
// it; a packing failure is a test failure.
#[allow(clippy::unwrap_used)]
fn check(stats: &[FragmentStats], policy: ReplicationPolicy) -> Result<(), EquilibriumViolation> {
    let decisions = decide_replicas(stats, &policy);
    let nodes = pack_bffd(&decisions, policy.spec.disk).unwrap();
    check_equilibrium(&economic_config(&policy, &decisions, &nodes))
}

#[test]
fn greedy_pipeline_schemes_are_equilibria() {
    for seed in [1u64, 7, 42, 1337] {
        let est = estimator_after(200, seed);
        let chunks = est.chunks(TABLE);
        let mut frag = GreedyFragmenter::new(TABLE, 16);
        frag.run(&chunks, 64);
        let frag = nashdb_core::fragment::split_oversized(&frag.fragmentation(), spec().disk);
        let stats = fragment_stats(&frag, &chunks).unwrap();
        assert_eq!(
            check(&stats, ReplicationPolicy::new(WINDOW, spec())),
            Ok(()),
            "seed {seed}: scheme is not in equilibrium"
        );
    }
}

#[test]
fn optimal_pipeline_schemes_are_equilibria() {
    let est = estimator_after(120, 5);
    let chunks = est.chunks(TABLE);
    let frag = optimal_fragmentation(&chunks, 12).unwrap();
    let frag = nashdb_core::fragment::split_oversized(&frag, spec().disk);
    let stats = fragment_stats(&frag, &chunks).unwrap();
    assert_eq!(
        check(&stats, ReplicationPolicy::new(WINDOW, spec())),
        Ok(())
    );
}

#[test]
fn equilibrium_holds_across_window_evolution() {
    // Keep observing and rebuilding: every intermediate scheme must be an
    // equilibrium for its own window state.
    let mut est = TupleValueEstimator::new(WINDOW);
    let mut rng = SimRng::seed_from_u64(9);
    let mut fragmenter = GreedyFragmenter::new(TABLE, 12);
    for round in 0..10 {
        for _ in 0..25 {
            let a = rng.uniform_u64(0, TABLE - 1);
            let len = rng.uniform_u64(10_000, TABLE / 4);
            est.observe(PricedScan::new(a, (a + len).min(TABLE), 1.0));
        }
        let chunks = est.chunks(TABLE);
        fragmenter.run(&chunks, 8);
        let frag = nashdb_core::fragment::split_oversized(&fragmenter.fragmentation(), spec().disk);
        let stats = fragment_stats(&frag, &chunks).unwrap();
        assert_eq!(
            check(&stats, ReplicationPolicy::new(WINDOW, spec())),
            Ok(()),
            "round {round}"
        );
    }
}

#[test]
fn replica_cap_can_break_equilibrium_but_only_toward_entry() {
    // With a hard replica cap, very hot fragments stay under-replicated:
    // the only violations the checker may report are profitable additions
    // (conditions 2/4), never profitable drops (condition 1).
    let mut est = TupleValueEstimator::new(WINDOW);
    for _ in 0..WINDOW {
        // A single scalding range read by every scan in the window.
        est.observe(PricedScan::new(0, 10_000, 100.0));
    }
    let chunks = est.chunks(TABLE);
    let frag = optimal_fragmentation(&chunks, 4).unwrap();
    let frag = nashdb_core::fragment::split_oversized(&frag, spec().disk);
    let stats = fragment_stats(&frag, &chunks).unwrap();
    let policy = ReplicationPolicy::new(WINDOW, spec()).with_max_replicas(3);
    match check(&stats, policy) {
        Ok(()) => {}
        Err(EquilibriumViolation::AddProfitable { .. })
        | Err(EquilibriumViolation::EntryProfitable { .. }) => {}
        Err(other) => panic!("unexpected violation under a cap: {other:?}"),
    }
}
