//! Property tests for the Pareto-front marker shared by Fig. 7 and the
//! scenario matrix, plus the scenario artifact's determinism and the
//! frontier gate's behaviour against the committed baseline fixture.

// This whole file is test code, where a failed expect IS the test failure;
// clippy's allow-expect-in-tests only recognizes `#[test]` fns, not their
// helpers.
#![allow(clippy::expect_used)]

use proptest::prelude::*;

use nashdb_bench::compare::compare_scenarios;
use nashdb_bench::experiments::pareto::{pareto_front, Point};
use nashdb_bench::scenarios::{run_scenarios, ScenarioConfig};
use nashdb_obs::ScenarioArtifact;

fn dominates(p: &Point, q: &Point) -> bool {
    (p.cost <= q.cost && p.latency < q.latency) || (p.cost < q.cost && p.latency <= q.latency)
}

fn arb_points() -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..40).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(cost, latency)| Point {
                system: "x",
                param: 0.0,
                latency,
                cost,
            })
            .collect()
    })
}

proptest! {
    /// No point marked on the front is dominated by any other point.
    #[test]
    fn front_points_are_undominated(points in arb_points()) {
        let front = pareto_front(&points);
        for (i, p) in points.iter().enumerate() {
            if front[i] {
                for q in &points {
                    prop_assert!(!dominates(q, p));
                }
            }
        }
    }

    /// Every point left off the front is dominated by some front point.
    #[test]
    fn off_front_points_are_dominated_by_the_front(points in arb_points()) {
        let front = pareto_front(&points);
        prop_assert!(front.iter().any(|&f| f), "a nonempty set has a front");
        for (i, p) in points.iter().enumerate() {
            if !front[i] {
                prop_assert!(
                    points
                        .iter()
                        .zip(&front)
                        .any(|(q, &on)| on && dominates(q, p)),
                    "point {i} is off the front but no front point dominates it"
                );
            }
        }
    }

    /// Front membership is a property of the point, not of its position:
    /// permuting the input permutes the marks identically.
    #[test]
    fn front_is_permutation_invariant(points in arb_points(), seed in 0u64..u64::MAX) {
        let front = pareto_front(&points);
        // Fisher-Yates with a hand-rolled LCG (the shim has no shuffle).
        let mut order: Vec<usize> = (0..points.len()).collect();
        let mut state = seed | 1;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        let shuffled: Vec<Point> = order.iter().map(|&i| points[i].clone()).collect();
        let shuffled_front = pareto_front(&shuffled);
        for (k, &i) in order.iter().enumerate() {
            prop_assert_eq!(shuffled_front[k], front[i]);
        }
    }
}

/// Two same-seed scenario sweeps serialize byte-identically (the CI
/// baseline contract).
#[test]
fn same_seed_scenario_runs_are_byte_identical() {
    let cfg = ScenarioConfig {
        quick: true,
        queries: 40,
        ..ScenarioConfig::default()
    };
    let stable = || {
        let mut art = run_scenarios(&cfg).unwrap();
        art.scrub_timings();
        art.to_json_string()
    };
    assert_eq!(stable(), stable());
}

fn committed_baseline() -> ScenarioArtifact {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../SCENARIO_BASELINE.json");
    let raw = std::fs::read_to_string(path).expect("committed SCENARIO_BASELINE.json");
    ScenarioArtifact::from_json_str(&raw).expect("baseline passes its own schema")
}

/// The committed baseline compared against itself passes the gate.
#[test]
fn committed_baseline_self_compare_passes() {
    let baseline = committed_baseline();
    let report = compare_scenarios(&baseline, &baseline).unwrap();
    assert!(report.passed());
    assert_eq!(report.cells, baseline.cells.len());
    assert!(report.cells >= 24, "matrix must cover at least 24 cells");
}

/// Raising nashdb's cost in one baseline cell until a frontier peer
/// dominates it fails the gate — the injected-regression fixture the CI
/// job relies on. The flags are recomputed from the points, as the reader
/// re-derives them.
#[test]
fn injected_frontier_loss_fails_the_gate() {
    let baseline = committed_baseline();
    let mut broken = baseline.clone();
    // A cell where a frontier peer has lower latency than nashdb: a higher
    // cost than that peer's puts nashdb behind it on both axes.
    let cell = broken
        .cells
        .iter_mut()
        .find(|c| {
            let nash = c.system("nashdb").expect("every cell runs nashdb");
            c.systems.iter().any(|s| {
                s.on_front && s.system != "nashdb" && s.mean_latency_secs < nash.mean_latency_secs
            })
        })
        .expect("some baseline cell has a shared frontier");
    let key = cell.key();
    let peer_cost = (cell.systems.iter())
        .filter(|s| s.on_front && s.system != "nashdb")
        .map(|s| s.cost)
        .fold(0.0, f64::max);
    for s in &mut cell.systems {
        if s.system == "nashdb" {
            assert!(s.on_front, "nashdb shares every baseline frontier");
            s.cost = peer_cost + 1.0;
        }
    }
    cell.mark_frontier();
    // The mutation must survive the schema round-trip CI performs.
    let reparsed = ScenarioArtifact::from_json_str(&broken.to_json_string()).unwrap();
    let report = compare_scenarios(&reparsed, &baseline).unwrap();
    assert!(!report.passed());
    assert_eq!(report.lost_frontier, vec![key]);
}
