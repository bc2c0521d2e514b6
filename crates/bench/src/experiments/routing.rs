//! Fig. 8c and Fig. 9c — scan-router comparison (paper §10.4).
//!
//! NashDB's distribution pipeline is held fixed; only the router changes:
//! Max-of-mins (ϕ = 350 ms) vs. Shortest-queue vs. Greedy set cover.

use std::sync::OnceLock;

use nashdb_sim::SimDuration;

use super::{fmt, row, table_header};
use crate::env::{run_system, ExpEnv, Router, System};
use crate::header;

/// One router's outcome on one workload.
#[derive(Debug, Clone)]
pub struct RouterPoint {
    /// Workload name.
    pub workload: String,
    /// Router name.
    pub router: &'static str,
    /// Mean latency (s).
    pub latency: f64,
    /// Mean query span (nodes per query).
    pub span: f64,
    /// Total cost.
    pub cost: f64,
}

/// All router × dynamic-workload runs, computed once per process.
pub fn runs() -> &'static [RouterPoint] {
    static CACHE: OnceLock<Vec<RouterPoint>> = OnceLock::new();
    CACHE.get_or_init(|| {
        let mut out = Vec::new();
        for w in [
            super::random_dynamic(),
            super::real1_dynamic(),
            super::real2_dynamic(),
        ] {
            let env = ExpEnv::for_workload(&w, 1.0 / 8.0);
            for router in [
                Router::MaxOfMins,
                Router::ShortestQueue,
                Router::GreedySetCover,
            ] {
                let m = run_system(&w, System::NashDb { price_mult: 1.0 }, router, &env);
                out.push(RouterPoint {
                    workload: w.name.clone(),
                    router: router.name(),
                    latency: m.mean_latency_secs(),
                    span: m.mean_span(),
                    cost: m.total_cost,
                });
            }
        }
        out
    })
}

/// Fig. 8c: latency by router.
pub fn run_latency() {
    header("Fig 8c — average latency by scan router (dynamic workloads)");
    table_header(&["workload", "router", "lat (s)", "cost"]);
    for p in runs() {
        row(&[
            p.workload.clone(),
            p.router.into(),
            fmt(p.latency),
            fmt(p.cost),
        ]);
    }
    println!("  expectation: Max of mins < Shortest queue < Greedy SC on latency");
    println!("  at approximately the same cost.");
}

/// Fig. 9c: average query span by router, plus the ϕ-sensitivity ablation
/// called out in DESIGN.md.
pub fn run_span() {
    header("Fig 9c — average query span by scan router");
    table_header(&["workload", "router", "avg span"]);
    for p in runs() {
        row(&[p.workload.clone(), p.router.into(), fmt(p.span)]);
    }
    println!("  paper: Greedy SC ~1.1 < Max of mins ~1.5 < Shortest queue ~3.3.");
    println!("  our queries span dozens of read blocks, so absolute spans are");
    println!("  larger; the ordering and the span/latency trade reproduce.");

    // Ablation: Max-of-mins span penalty sweep. ϕ is a *wait-equivalent*
    // (350 ms at cluster throughput by default); larger penalties trade
    // latency for narrower span.
    header("Fig 9c (ablation) — Max-of-mins ϕ sensitivity (random workload)");
    table_header(&["phi (s)", "avg span", "lat (s)"]);
    let w = super::random_dynamic();
    let mut env = ExpEnv::for_workload(&w, 1.0 / 8.0);
    for phi_secs in [0.0f64, 0.35, 3.5, 35.0] {
        env.run.phi = SimDuration::from_secs_f64(phi_secs);
        let m = run_system(
            &w,
            System::NashDb { price_mult: 1.0 },
            Router::MaxOfMins,
            &env,
        );
        row(&[
            fmt(phi_secs),
            fmt(m.mean_span()),
            fmt(m.mean_latency_secs()),
        ]);
    }
    println!("  expectation: span falls monotonically as ϕ grows; latency is flat");
    println!("  until ϕ forces queueing behind busy replicas, then rises.");
}
