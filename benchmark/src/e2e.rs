//! The end-to-end measurement: whole runs of the public
//! `nashdb::run_workload_with_faults`, with no tracing and no `ObsSession`.

use std::time::{Duration, Instant};

use nashdb::{run_workload_with_faults, MaxOfMins, NashDbDistributor};
use nashdb_cluster::Metrics;

use crate::host;
use crate::report::{Measurement, MetricSet, END_TO_END};
use crate::stats;
use crate::workloads::{self, Case};

/// Set-ups per run: `setup_s` is their median, so one slow page-in or a
/// neighbour's burst does not decide it.
const SETUPS: usize = 5;

/// Timed repetitions never drop below this, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// One untraced run of the program under test, with its wall time.
pub fn run_once(case: &Case) -> (Metrics, Duration) {
    let start = Instant::now();
    let mut distributor = NashDbDistributor::new(&case.workload.db, case.nash);
    let router = MaxOfMins::new(case.run.phi_tuples());
    let metrics = run_workload_with_faults(
        &case.workload,
        &mut distributor,
        &router,
        &case.run,
        &case.faults,
    );
    (metrics, start.elapsed())
}

/// True iff two runs produced the same simulated outcome, bit for bit.
pub fn same_outcome(a: &Metrics, b: &Metrics) -> bool {
    a.queries == b.queries
        && a.total_cost.to_bits() == b.total_cost.to_bits()
        && a.transfers == b.transfers
        && a.reconfigurations == b.reconfigurations
        && a.peak_nodes == b.peak_nodes
        && a.availability == b.availability
}

/// Conservation: every scheduled query either completed or was abandoned.
pub fn conserved(case: &Case, m: &Metrics) -> bool {
    m.queries.len() as u64 + m.availability.queries_abandoned == case.workload.queries.len() as u64
}

/// A generated case, warmed up and ready for timed repetitions.
#[derive(Debug)]
pub struct Ready {
    /// The inputs.
    pub case: Case,
    /// The warm-up run's outcome: the reference every later run must equal.
    pub reference: Metrics,
    /// Median wall of the set-ups (generation, validation, fault schedule,
    /// pool spin-up and one full warm-up run each).
    pub setup_s: f64,
    /// Wall of the last generation alone.
    pub generate_s: f64,
}

/// Generates and warms up the named workload `setups` times, timing each
/// from scratch; the first set-up is timed from `process_start`, so it
/// includes everything a user waits for before the first measured run.
pub fn set_up(
    name: &str,
    seed: u64,
    quick: bool,
    setups: usize,
    process_start: Instant,
) -> Option<Ready> {
    let mut walls = Vec::with_capacity(setups);
    let mut ready = None;
    for k in 0..setups {
        // Free the previous copy first so peak RSS stays that of one case.
        drop(ready.take());
        let start = if k == 0 {
            process_start
        } else {
            Instant::now()
        };
        let generate = Instant::now();
        let case = workloads::build(name, seed, quick)?;
        let generate_s = generate.elapsed().as_secs_f64();
        let (reference, _) = run_once(&case);
        walls.push(start.elapsed().as_secs_f64());
        ready = Some((case, reference, generate_s));
    }
    let (case, reference, generate_s) = ready?;
    Some(Ready {
        case,
        reference,
        setup_s: stats::median(&mut walls)?,
        generate_s,
    })
}

/// Checks one run's outcome against the workload's invariants, appending a
/// line per violation.
pub fn check_run(ready: &Ready, m: &Metrics, what: &str, problems: &mut Vec<String>) {
    if !conserved(&ready.case, m) {
        problems.push(format!(
            "{what}: completed {} + abandoned {} != scheduled {}",
            m.queries.len(),
            m.availability.queries_abandoned,
            ready.case.workload.queries.len()
        ));
    }
    if ready.case.faults.is_empty() && m.availability.queries_abandoned > 0 {
        problems.push(format!(
            "{what}: abandoned queries on a fault-free workload"
        ));
    }
    if !same_outcome(&ready.reference, m) {
        problems.push(format!("{what}: outcome differs from the warm-up run's"));
    }
}

/// Runs the named workload's end-to-end measurement: [`SETUPS`] set-ups, then
/// timed repetitions for `seconds` (at least [`MIN_REPS`]; exactly one of
/// each with `quick`).
pub fn measure(
    name: &str,
    seed: u64,
    seconds: f64,
    quick: bool,
    process_start: Instant,
) -> Option<Measurement> {
    let setups = if quick { 1 } else { SETUPS };
    let ready = set_up(name, seed, quick, setups, process_start)?;
    let mut problems = Vec::new();
    check_run(&ready, &ready.reference, "warm-up", &mut problems);

    let min_reps = if quick { 1 } else { MIN_REPS };
    let budget = if quick { 0.0 } else { seconds };
    let mut walls = Vec::new();
    let mut failed = 0u64;
    let timed = Instant::now();
    while walls.len() < min_reps || timed.elapsed().as_secs_f64() < budget {
        let (m, wall) = run_once(&ready.case);
        check_run(
            &ready,
            &m,
            &format!("repetition {}", walls.len()),
            &mut problems,
        );
        failed += m.availability.queries_abandoned;
        walls.push(wall.as_secs_f64());
    }
    let scheduled = ready.case.workload.queries.len() as u64;
    let attempted = scheduled * walls.len() as u64;

    let reference = &ready.reference;
    let median_wall = stats::median(&mut walls)?;
    let mut metrics = MetricSet::new(END_TO_END);
    metrics.put("setup_s", ready.setup_s);
    metrics.put(
        "queries_per_s",
        reference.queries.len() as f64 / median_wall,
    );
    metrics.put("peak_rss_mb", host::peak_rss_mb().unwrap_or(f64::NAN));
    metrics.put("sim_mean_latency_s", reference.mean_latency_secs());
    metrics.put("sim_cost", reference.total_cost);
    metrics.put("sim_transfer_tuples", reference.total_transfer() as f64);
    if let Some((q1, q3)) = stats::quartiles(&mut walls) {
        eprintln!(
            "{name}: run wall median {median_wall:.4} s, quartiles {q1:.4}..{q3:.4} s, n = {}, \
             sorted {walls:.4?}; simulated p99 latency {:.4} s",
            walls.len(),
            reference.latency_percentile_secs(99.0).unwrap_or(f64::NAN)
        );
    }
    Some(Measurement {
        attempted,
        failed,
        metrics,
        problems,
    })
}
