//! Property-based tests (proptest) over the core invariants promised in
//! DESIGN.md §6.

use proptest::prelude::*;

use nashdb_core::audit::{audit_packing, audit_transition};
use nashdb_core::fragment::{
    fragment_stats, optimal_fragmentation, split_oversized, ChunkPrefix, Fragmentation,
    GreedyFragmenter,
};
use nashdb_core::replication::{decide_replicas, pack_bffd, ReplicationPolicy};
use nashdb_core::transition::{hungarian, plan_transition, IntervalSet};
use nashdb_core::value::reference::window_fold;
use nashdb_core::value::{Chunk, PricedScan, TupleValueEstimator};
use nashdb_core::NodeSpec;

// ---------------------------------------------------------------------------
// Value estimation
// ---------------------------------------------------------------------------

const TABLE: u64 = 10_000;

fn arb_scan() -> impl Strategy<Value = PricedScan> {
    (0..TABLE - 1, 1..TABLE / 2, 0.0f64..10.0)
        .prop_map(|(start, len, price)| PricedScan::new(start, (start + len).min(TABLE), price))
}

proptest! {
    /// Under any insert/evict sequence the estimator's chunks are the ones
    /// Algorithm 1 draws from a fold over the scans still in the window.
    #[test]
    fn chunks_match_window_fold(scans in proptest::collection::vec(arb_scan(), 1..120),
                                window in 1usize..40) {
        let mut est = TupleValueEstimator::new(window);
        for (i, s) in scans.iter().enumerate() {
            est.observe(*s);
            let windowed = &scans[(i + 1).saturating_sub(window)..=i];
            let mut expect = Vec::new();
            let (mut alpha, mut prev) = (0.0f64, 0u64);
            for (key, delta) in window_fold(windowed).into_iter().chain([(TABLE, 0.0)]) {
                if key > prev {
                    expect.push((prev, key, (alpha / windowed.len() as f64).max(0.0)));
                    prev = key;
                }
                alpha += delta;
            }
            let chunks = est.chunks(TABLE);
            prop_assert_eq!(chunks.len(), expect.len());
            for (c, &(start, end, value)) in chunks.iter().zip(&expect) {
                prop_assert_eq!((c.start, c.end), (start, end));
                prop_assert!((c.value - value).abs() < 1e-9);
            }
        }
    }

    /// Chunks tile the table exactly, and every value is nonnegative. The
    /// total value equals the windowed per-scan average income.
    #[test]
    fn chunks_tile_table_and_conserve_value(
        scans in proptest::collection::vec(arb_scan(), 1..80),
        window in 1usize..30,
    ) {
        let mut est = TupleValueEstimator::new(window);
        let mut windowed: Vec<PricedScan> = Vec::new();
        for s in &scans {
            est.observe(*s);
            windowed.push(*s);
            if windowed.len() > window {
                windowed.remove(0);
            }
        }
        let chunks = est.chunks(TABLE);
        prop_assert_eq!(chunks.first().unwrap().start, 0);
        prop_assert_eq!(chunks.last().unwrap().end, TABLE);
        for w in chunks.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
        let total: f64 = chunks.iter().map(Chunk::sum).sum();
        let expected: f64 = windowed.iter().map(|s| s.price).sum::<f64>()
            / windowed.len() as f64;
        prop_assert!((total - expected).abs() < 1e-6 * (1.0 + expected),
            "total {} vs windowed mean price {}", total, expected);
        prop_assert!(chunks.iter().all(|c| c.value >= 0.0));
    }
}

// ---------------------------------------------------------------------------
// Fragmentation
// ---------------------------------------------------------------------------

fn arb_chunks() -> impl Strategy<Value = Vec<Chunk>> {
    proptest::collection::vec((1u64..500, 0.0f64..5.0), 1..24).prop_map(|parts| {
        let mut chunks = Vec::with_capacity(parts.len());
        let mut pos = 0;
        for (len, value) in parts {
            chunks.push(Chunk {
                start: pos,
                end: pos + len,
                value,
            });
            pos += len;
        }
        chunks
    })
}

proptest! {
    /// Optimal ≤ greedy ≤ single-fragment error, and all are nonnegative.
    #[test]
    fn error_ordering(chunks in arb_chunks(), k in 1usize..10) {
        let prefix = ChunkPrefix::new(&chunks).unwrap();
        let table = prefix.table_len();
        let single = Fragmentation::single(table).total_error(&prefix);
        let opt = optimal_fragmentation(&chunks, k).unwrap().total_error(&prefix);
        let mut g = GreedyFragmenter::new(table, k);
        g.run(&chunks, 8 * k);
        let greedy = g.fragmentation().total_error(&prefix);
        prop_assert!(opt >= 0.0);
        prop_assert!(opt <= greedy + 1e-9 + 1e-9 * single);
        prop_assert!(greedy <= single + 1e-9 + 1e-9 * single);
    }

    /// Greedy steps never lose coverage or exceed the cap, and error never
    /// increases along the trajectory.
    #[test]
    fn greedy_trajectory_is_sound(chunks in arb_chunks(), k in 1usize..10) {
        let prefix = ChunkPrefix::new(&chunks).unwrap();
        let table = prefix.table_len();
        let mut g = GreedyFragmenter::new(table, k);
        let mut prev = g.fragmentation().total_error(&prefix);
        for _ in 0..4 * k {
            if g.step(&chunks) == nashdb_core::fragment::StepOutcome::Stable {
                break;
            }
            let f = g.fragmentation();
            prop_assert!(f.len() <= k);
            prop_assert_eq!(f.table_len(), table);
            let err = f.total_error(&prefix);
            prop_assert!(err <= prev + 1e-9 + 1e-9 * prev.abs());
            prev = err;
        }
    }

    /// split_oversized caps sizes, preserves coverage, and never raises the
    /// error objective.
    #[test]
    fn split_oversized_invariants(chunks in arb_chunks(), max_size in 1u64..400) {
        let prefix = ChunkPrefix::new(&chunks).unwrap();
        let table = prefix.table_len();
        let base = Fragmentation::single(table);
        let capped = split_oversized(&base, max_size);
        prop_assert_eq!(capped.table_len(), table);
        prop_assert!(capped.ranges().all(|r| r.size() <= max_size));
        prop_assert!(capped.total_error(&prefix) <= base.total_error(&prefix) + 1e-9);
    }
}

// ---------------------------------------------------------------------------
// Replication & packing
// ---------------------------------------------------------------------------

proptest! {
    /// BFFD output: every replica placed, no duplicates per node, capacity
    /// respected — the §6.3 oracle is `audit_packing`.
    #[test]
    fn bffd_invariants(chunks in arb_chunks(), disk in 500u64..5_000) {
        let frag = split_oversized(
            &Fragmentation::single(ChunkPrefix::new(&chunks).unwrap().table_len()),
            disk,
        );
        let stats = fragment_stats(&frag, &chunks).unwrap();
        let policy = ReplicationPolicy::new(20, NodeSpec::new(10.0, disk))
            .with_max_replicas(12);
        let decisions = decide_replicas(&stats, &policy);
        let nodes = pack_bffd(&decisions, disk).unwrap();
        prop_assert_eq!(audit_packing(&nodes, &decisions, disk), Ok(()));
    }

    /// Replica decisions never drop below one and respect the cap; higher
    /// value never means fewer replicas (monotonicity in V).
    #[test]
    fn replica_decisions_monotone(value in 0.0f64..50.0, size in 1u64..100_000) {
        let spec = NodeSpec::new(25.0, 200_000);
        let policy = ReplicationPolicy::new(50, spec).with_max_replicas(64);
        let mk = |v: f64| nashdb_core::fragment::FragmentStats {
            id: nashdb_core::FragmentId(0),
            range: nashdb_core::fragment::FragmentRange::new(0, size),
            value: v,
            error: 0.0,
        };
        let lo = decide_replicas(&[mk(value)], &policy)[0].replicas;
        let hi = decide_replicas(&[mk(value * 2.0)], &policy)[0].replicas;
        prop_assert!(lo >= 1);
        prop_assert!(hi >= lo);
        prop_assert!(hi <= 64);
    }
}

// ---------------------------------------------------------------------------
// Transitions
// ---------------------------------------------------------------------------

fn arb_interval_set() -> impl Strategy<Value = IntervalSet> {
    proptest::collection::vec((0u64..5_000, 1u64..2_000), 0..6)
        .prop_map(|v| IntervalSet::from_intervals(v.into_iter().map(|(s, l)| (s, s + l))))
}

proptest! {
    /// Interval-set algebra: |A∩B| ≤ min(|A|,|B|), |A−B| + |A∩B| = |A|, and
    /// the union is no smaller than either side.
    #[test]
    fn interval_set_algebra(a in arb_interval_set(), b in arb_interval_set()) {
        let inter = a.intersection_len(&b);
        prop_assert!(inter <= a.len().min(b.len()));
        prop_assert_eq!(a.difference_len(&b) + inter, a.len());
        let u = a.union(&b);
        prop_assert!(u.len() >= a.len().max(b.len()));
        prop_assert!(u.len() <= a.len() + b.len());
    }

    /// The Hungarian matching never exceeds the identity or any single
    /// random permutation's cost.
    #[test]
    fn hungarian_not_worse_than_samples(
        n in 1usize..7,
        seed in 0u64..1_000,
    ) {
        use nashdb_sim::SimRng;
        let mut rng = SimRng::seed_from_u64(seed);
        let cost: Vec<Vec<u64>> = (0..n)
            .map(|_| (0..n).map(|_| rng.uniform_u64(0, 10_000)).collect())
            .collect();
        let (_, best) = hungarian(&cost).unwrap();
        let identity: u64 = (0..n).map(|i| cost[i][i]).sum();
        prop_assert!(best <= identity);
        // A few random permutations.
        for _ in 0..5 {
            let mut perm: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                perm.swap(i, rng.uniform_usize(0, i + 1));
            }
            let c: u64 = perm.iter().enumerate().map(|(i, &j)| cost[i][j]).sum();
            prop_assert!(best <= c);
        }
    }

    /// Transition plans conserve nodes and move the minimum: the audit
    /// checks the perfect matching, every move's transfer and — at these
    /// sizes always — the brute-force optimum.
    #[test]
    fn transition_plans_conserve_nodes(
        old in proptest::collection::vec(arb_interval_set(), 0..6),
        new in proptest::collection::vec(arb_interval_set(), 0..6),
    ) {
        let plan = plan_transition(&old, &new);
        prop_assert_eq!(audit_transition(&old, &new, &plan), Ok(()));
        // Identity transitions are free.
        if old == new {
            prop_assert_eq!(plan.total_transfer, 0);
        }
    }
}
