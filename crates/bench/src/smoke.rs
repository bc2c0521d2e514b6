//! Deterministic observability smoke run for CI.
//!
//! Runs a small fixed-seed Bernoulli workload through the full NashDB
//! pipeline under an [`ObsSession`] and returns the captured
//! [`ObsSnapshot`], wall clock included. CI serializes the snapshot to
//! `BENCH_PR.json`, validates it round-trips through the schema, and fails
//! the build if any pipeline stage stopped emitting metrics
//! ([`ObsSnapshot::missing_stages`]).

use nashdb::{run_workload, NashDbConfig, NashDbDistributor, RunConfig};
use nashdb_cluster::ClusterConfig;
use nashdb_core::economics::NodeSpec;
use nashdb_core::routing::MaxOfMins;
use nashdb_obs::{ObsSession, ObsSnapshot};
use nashdb_sim::SimDuration;
use nashdb_workload::bernoulli::{workload as bernoulli, BernoulliConfig};

/// Smoke-run parameters. The defaults are what CI runs.
#[derive(Debug, Clone, Copy)]
pub struct SmokeConfig {
    /// Workload RNG seed.
    pub seed: u64,
    /// Query count.
    pub queries: usize,
    /// Database size in GB-equivalents (millions of tuples).
    pub size_gb: u64,
}

impl Default for SmokeConfig {
    fn default() -> Self {
        SmokeConfig {
            seed: 42,
            queries: 150,
            size_gb: 4,
        }
    }
}

/// Runs the smoke workload and captures its observability snapshot.
///
/// Everything that feeds the snapshot's counters, gauges, and non-timing
/// histograms is simulation state, so two runs with the same config produce
/// identical values; once [`ObsSnapshot::scrub_timings`] has zeroed the
/// wall clock the whole snapshot is byte-reproducible.
pub fn run_smoke(cfg: &SmokeConfig) -> ObsSnapshot {
    let w = bernoulli(&BernoulliConfig {
        size_gb: cfg.size_gb,
        queries: cfg.queries,
        seed: cfg.seed,
        // Spread arrivals past several reconfiguration intervals, and price
        // queries high enough that replication buys real replicas.
        spacing: SimDuration::from_secs(10),
        price: 8.0,
    });
    let run = RunConfig {
        cluster: ClusterConfig {
            throughput_tps: 1_000_000.0,
            node_cost_per_hour: 100.0,
            metrics_bucket: SimDuration::from_secs(600),
            network: None,
        },
        // Short interval so the run exercises reconfiguration transitions,
        // not just the initial provision.
        reconfig_interval: SimDuration::from_secs(300),
        ..RunConfig::default()
    };
    let nash = NashDbConfig {
        spec: NodeSpec::new(100.0, 2_000_000),
        max_frags_per_table: 16,
        ..NashDbConfig::default()
    };

    let mut session = ObsSession::start();
    session.label("workload", "bernoulli");
    session.label("seed", &cfg.seed.to_string());
    session.label("queries", &cfg.queries.to_string());

    let mut dist = NashDbDistributor::new(&w.db, nash);
    let router = MaxOfMins::new(run.phi_tuples());
    let metrics = run_workload(&w, &mut dist, &router, &run);
    session.label("completed", &metrics.queries.len().to_string());

    session.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nashdb_obs::Span::{self, Distributor, Pipeline, Provision, Query, Reconfigure, Scheme};

    fn quick() -> SmokeConfig {
        SmokeConfig {
            queries: 60,
            size_gb: 2,
            ..SmokeConfig::default()
        }
    }

    #[test]
    fn smoke_covers_every_stage() {
        let snap = run_smoke(&quick());
        let missing = snap.missing_stages();
        assert!(missing.is_empty(), "stages without metrics: {missing:?}");
        // The serving loop's span hierarchy is present and nested.
        assert!(snap.span(&[Pipeline]).is_some());
        assert!(snap.span(&[Pipeline, Query]).is_some());
        assert!(snap.span(&[Pipeline, Provision]).is_some());
        // So is the distributor's, under its own root.
        assert!(snap.span(&[Distributor, Scheme, Span::Fragment]).is_some());
        // The run is long enough to exercise periodic reconfiguration: one
        // scheme per wake-up beside the provisioning one.
        let reconfigure = snap.span(&[Pipeline, Reconfigure]).map(|s| s.count);
        let schemes = snap.span(&[Distributor, Scheme]).map(|s| s.count);
        assert!(reconfigure.is_some_and(|n| n > 0));
        assert_eq!(schemes, reconfigure.map(|n| n + 1));
    }

    #[test]
    fn stable_runs_serialize_byte_identically() {
        let stable = || {
            let mut snap = run_smoke(&quick());
            snap.scrub_timings();
            snap.to_json_string()
        };
        let a = stable();
        let b = stable();
        assert_eq!(a, b);
        // And the stable form still round-trips through the parser.
        let parsed = ObsSnapshot::from_json_str(&a).unwrap();
        assert_eq!(parsed.to_json_string(), a);
    }
}
