//! The per-layer measurement: one traced mirror run, one `ObsSession`-on
//! run and the core probe, interleaved with untraced runs that give the
//! baseline the two overheads are measured against.

use std::time::Instant;

use nashdb_cluster::Metrics;
use nashdb_obs::ObsSession;

use crate::e2e::{self, Ready};
use crate::host;
use crate::probe;
use crate::report::{Measurement, MetricSet, PER_LAYER};
use crate::stats;
use crate::trace;

/// Tallies shared by every run of one measurement.
struct Tally<'a> {
    ready: &'a Ready,
    problems: Vec<String>,
    runs: u64,
    failed: u64,
}

impl Tally<'_> {
    /// Checks one run's outcome and counts it.
    fn note(&mut self, m: &Metrics, what: &str) {
        e2e::check_run(self.ready, m, what, &mut self.problems);
        self.runs += 1;
        self.failed += m.availability.queries_abandoned;
    }

    /// One untraced run; returns its wall in seconds.
    fn untraced(&mut self) -> f64 {
        let (m, wall) = e2e::run_once(&self.ready.case);
        self.note(&m, "untraced run");
        wall.as_secs_f64()
    }
}

/// Measures the named workload layer by layer. After one set-up the order
/// is untraced, traced, untraced, `ObsSession`, untraced — so the baseline
/// brackets both observed runs — then further untraced runs until `seconds`
/// have passed, then the probes.
pub fn measure(
    name: &str,
    seed: u64,
    seconds: f64,
    quick: bool,
    spans_out: Option<&str>,
    process_start: Instant,
) -> Option<Measurement> {
    let ready = e2e::set_up(name, seed, quick, 1, process_start)?;
    let case = &ready.case;
    let mut tally = Tally {
        ready: &ready,
        problems: Vec::new(),
        runs: 0,
        failed: 0,
    };
    let measured = Instant::now();
    let mut baseline = vec![tally.untraced()];

    let traced = trace::run_traced(case);
    let mirror_match = e2e::same_outcome(&ready.reference, &traced.metrics);
    if mirror_match {
        tally.note(&traced.metrics, "traced run");
    }
    if traced.counts.uncovered_schemes > 0 {
        tally.problems.push(format!(
            "traced run: {} schemes do not cover the database",
            traced.counts.uncovered_schemes
        ));
    }
    baseline.push(tally.untraced());

    let session = ObsSession::start();
    let obs_start = Instant::now();
    let (obs_metrics, _) = e2e::run_once(case);
    let obs_wall = obs_start.elapsed().as_secs_f64();
    let snapshot = session.finish();
    tally.note(&obs_metrics, "ObsSession run");

    baseline.push(tally.untraced());
    while !quick && measured.elapsed().as_secs_f64() < seconds {
        baseline.push(tally.untraced());
    }
    let base = stats::median(&mut baseline)?;

    let mut metrics = MetricSet::new(PER_LAYER);
    trace::summarise(&traced, &mut metrics);
    probe::run_core_probe(case, &mut metrics);
    metrics.put(
        "sim.event.ns_per_push_pop",
        probe::event_queue_ns_per_push_pop(traced.counts.events),
    );

    let traced_wall = traced.wall_s();
    metrics.put("trace.overhead_frac", (traced_wall - base) / base);
    metrics.put("trace.mirror_match", f64::from(u8::from(mirror_match)));
    metrics.put("obs.session_overhead_frac", (obs_wall - base) / base);
    metrics.put("obs.snapshot_bytes", snapshot.to_json_string().len() as f64);
    let pool = nashdb_par::pool_stats();
    metrics.put("par.pool.threads", pool.threads_spawned as f64);
    metrics.put("par.pool.parallel_rounds", pool.parallel_rounds as f64);
    metrics.put("par.pool.chunks", pool.chunks_executed as f64);
    let queries = &case.workload.queries;
    let scans: usize = queries.iter().map(|tq| tq.query.scans.len()).sum();
    metrics.put("workload.generate_s", ready.generate_s);
    metrics.put("workload.queries", queries.len() as f64);
    metrics.put(
        "workload.scans_per_query",
        scans as f64 / queries.len() as f64,
    );
    metrics.put("host.calib_ms", host::calib_ms());

    if let Some(path) = spans_out {
        let written = std::fs::File::create(path).and_then(|f| traced.write_spans(f));
        if let Err(e) = written {
            tally
                .problems
                .push(format!("cannot write spans to {path}: {e}"));
        }
    }
    if !mirror_match {
        eprintln!(
            "{name}: the traced mirror no longer matches the driver; per-layer metrics are stale"
        );
    }
    Some(Measurement {
        attempted: tally.runs * queries.len() as u64,
        failed: tally.failed,
        metrics,
        problems: tally.problems,
    })
}
