//! Fig. 7 — cost vs. latency production possibilities and Pareto fronts on
//! the static workloads (paper §10.3).
//!
//! Each system is swept through its tuning knob: NashDB by query price,
//! Hypergraph by partition count, Threshold by node count. A configuration
//! is Pareto optimal if no other point (from any system) has both lower or
//! equal cost and lower or equal latency.

use nashdb_workload::Workload;

use super::{fmt, row, table_header};
use crate::env::{min_nodes, run_system, ExpEnv, Router, System};
use crate::header;

/// One swept configuration's outcome.
#[derive(Debug, Clone)]
pub struct Point {
    /// System name.
    pub system: &'static str,
    /// Knob value.
    pub param: f64,
    /// Mean query latency (s).
    pub latency: f64,
    /// Total monetary cost (1/100 cent).
    pub cost: f64,
}

/// Marks the Pareto-optimal members of a point set (min latency, min cost)
/// under the scenario gate's dominance rule, [`nashdb_obs::dominates`].
pub fn pareto_front(points: &[Point]) -> Vec<bool> {
    let at = |p: &Point| [p.cost, p.latency];
    points
        .iter()
        .map(|p| !points.iter().any(|q| nashdb_obs::dominates(at(q), at(p))))
        .collect()
}

/// Sweeps all three systems over one static workload.
pub fn sweep(w: &Workload, env: &ExpEnv) -> Vec<Point> {
    let mut points = Vec::new();
    for price_mult in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0] {
        let m = run_system(w, System::NashDb { price_mult }, Router::MaxOfMins, env);
        points.push(Point {
            system: "NashDB",
            param: price_mult,
            latency: m.mean_latency_secs(),
            cost: m.total_cost,
        });
    }
    let floor = min_nodes(w, env.disk);
    for mult in [1.0, 1.5, 2.0, 3.0, 4.0, 6.0] {
        let parts = nashdb_core::num::saturating_usize(floor as f64 * mult).max(floor);
        let m = run_system(w, System::Hypergraph { parts }, Router::MaxOfMins, env);
        points.push(Point {
            system: "Hypergraph",
            param: parts as f64,
            latency: m.mean_latency_secs(),
            cost: m.total_cost,
        });
        let m = run_system(
            w,
            System::Threshold { nodes: parts },
            Router::MaxOfMins,
            env,
        );
        points.push(Point {
            system: "Threshold",
            param: parts as f64,
            latency: m.mean_latency_secs(),
            cost: m.total_cost,
        });
    }
    points
}

/// Runs the full Fig. 7 suite.
pub fn run() {
    header("Fig 7 — cost/latency production possibilities (static workloads)");
    for w in [
        super::tpch_static(1.0),
        super::bernoulli_static(1.0),
        super::real1_static(),
    ] {
        let env = ExpEnv::for_workload(&w, 1.0 / 8.0).warmed(w.queries.len() / 2);
        println!();
        println!("  workload: {}", w.name);
        table_header(&["system", "param", "mean lat (s)", "cost", "pareto"]);
        let points = sweep(&w, &env);
        let front = pareto_front(&points);
        let mut nash_on_front = 0usize;
        let mut other_on_front = 0usize;
        for (p, &on) in points.iter().zip(&front) {
            if on {
                if p.system == "NashDB" {
                    nash_on_front += 1;
                } else {
                    other_on_front += 1;
                }
            }
            row(&[
                p.system.to_string(),
                fmt(p.param),
                fmt(p.latency),
                fmt(p.cost),
                if on { "*".into() } else { "".into() },
            ]);
        }
        println!(
            "  Pareto front: {nash_on_front} NashDB point(s), {other_on_front} other point(s)"
        );
    }
    println!("  paper: the front is (almost) entirely NashDB points, one Hypergraph");
    println!("  point surviving on the real workload. reproduced: NashDB dominates");
    println!("  Hypergraph throughout and holds the high-performance end of the front;");
    println!("  our Threshold comparator holds more of the front than the paper's,");
    println!("  because (unlike E-Store) it is given NashDB's own Max-of-mins router");
    println!("  and read-block granularity — see EXPERIMENTS.md for the analysis.");
}
