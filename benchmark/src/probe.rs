//! The core probe: replays the workload's scan stream through
//! `nashdb_core`'s public functions, one timer per function, so the parts
//! that `nashdb.distributor.scheme_s` lumps together get a number each.
//!
//! The probe follows the distributor's recipe (Eq. 1 price split with the
//! block floor, one estimator and one greedy fragmenter per table, a first
//! run to convergence and `greedy_rounds` afterwards, disk-fit split, Eq. 9,
//! BFFD) at every reconfiguration boundary of the workload. It leaves out
//! the distributor's hysteresis and incremental placement — those are not
//! `nashdb_core` functions — so its replica counts are the undamped ones.

use std::hint::black_box;
use std::time::{Duration, Instant};

use nashdb_cluster::QueryRequest;
use nashdb_core::fragment::{fragment_stats, split_oversized, FragmentStats, GreedyFragmenter};
use nashdb_core::ids::FragmentId;
use nashdb_core::replication::{decide_replicas, pack_bffd, ReplicationPolicy};
use nashdb_core::value::{PricedScan, TupleValueEstimator};
use nashdb_sim::{EventQueue, SimTime};

use crate::report::MetricSet;
use crate::workloads::Case;

/// A running total of time and calls for one probed function.
#[derive(Debug, Default, Clone, Copy)]
struct Timer {
    total: Duration,
    calls: u64,
}

impl Timer {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.total += start.elapsed();
        self.calls += 1;
        out
    }

    /// Mean time per one of `n` units of work, in units of `unit` seconds.
    fn per(&self, n: u64, unit: f64) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.total.as_secs_f64() / unit / n as f64
        }
    }

    /// Mean time per call, in units of `unit` seconds.
    fn per_call(&self, unit: f64) -> f64 {
        self.per(self.calls, unit)
    }
}

fn mean(total: u64, calls: u64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        total as f64 / calls as f64
    }
}

struct Table {
    tuples: u64,
    estimator: TupleValueEstimator,
    fragmenter: GreedyFragmenter,
}

#[derive(Default)]
struct Probe {
    observe: Timer,
    scans: u64,
    chunks: Timer,
    chunk_count: u64,
    greedy: Timer,
    greedy_changes: u64,
    stats: Timer,
    fragments: u64,
    decide: Timer,
    replicas: u64,
    pack: Timer,
    pack_nodes: u64,
}

impl Probe {
    /// One reconfiguration boundary: every table's chunks → fragmentation →
    /// stats, then Eq. 9 and BFFD over the whole database.
    fn boundary(&mut self, case: &Case, tables: &mut [Table], converged: bool) {
        let cfg = &case.nash;
        let rounds = if converged {
            cfg.greedy_rounds
        } else {
            cfg.greedy_rounds.max(24 * cfg.max_frags_per_table)
        };
        let mut all: Vec<FragmentStats> = Vec::new();
        for t in tables.iter_mut() {
            let chunks = self.chunks.time(|| t.estimator.chunks(t.tuples));
            self.chunk_count += chunks.len() as u64;
            self.greedy_changes += self.greedy.time(|| t.fragmenter.run(&chunks, rounds)) as u64;
            let frag = t.fragmenter.fragmentation();
            let stats = self.stats.time(|| {
                let fit = split_oversized(&frag, cfg.spec.disk.min(cfg.max_fragment_tuples.max(1)));
                fragment_stats(&fit, &chunks).unwrap_or_default()
            });
            for s in stats {
                let id = FragmentId(all.len() as u64);
                all.push(FragmentStats { id, ..s });
            }
        }
        self.fragments += all.len() as u64;
        let policy =
            ReplicationPolicy::new(cfg.window, cfg.spec).with_max_replicas(cfg.max_replicas);
        let decisions = self.decide.time(|| decide_replicas(&all, &policy));
        self.replicas += decisions.iter().map(|d| d.replicas).sum::<u64>();
        let nodes = self.pack.time(|| pack_bffd(&decisions, cfg.spec.disk));
        self.pack_nodes += nodes.map_or(0, |n| n.len() as u64);
    }

    /// Eq. 1 with the distributor's block floor, then the estimator.
    fn feed(&mut self, case: &Case, tables: &mut [Table], query: &QueryRequest) {
        let block = case
            .nash
            .max_fragment_tuples
            .min(case.nash.spec.disk)
            .max(1);
        let total: u64 = query.scans.iter().map(|s| s.size()).sum();
        if total == 0 {
            return;
        }
        for s in &query.scans {
            let table = &mut tables[s.table.index()];
            let end = s.end.min(table.tuples);
            if s.start < end {
                let size = end - s.start;
                let effective = size.max(block.min(table.tuples));
                let price =
                    query.price * s.size() as f64 / total as f64 * size as f64 / effective as f64;
                table
                    .estimator
                    .observe(PricedScan::new(s.start, end, price));
                self.scans += 1;
            }
        }
    }
}

/// Replays `case` through the core functions and records the
/// `core.value.*`, `core.fragment.*` and `core.replication.*` metrics.
pub fn run_core_probe(case: &Case, out: &mut MetricSet) {
    let cfg = &case.nash;
    let mut tables: Vec<Table> = case
        .workload
        .db
        .tables
        .iter()
        .map(|t| Table {
            tuples: t.tuples,
            estimator: TupleValueEstimator::new(cfg.window),
            fragmenter: GreedyFragmenter::new(t.tuples, cfg.max_frags_per_table)
                .with_min_relative_gain(cfg.refrag_sensitivity),
        })
        .collect();
    let mut probe = Probe::default();
    let queries = &case.workload.queries;

    for tq in queries.iter().take(case.run.warmup_queries) {
        probe.feed(case, &mut tables, &tq.query);
    }
    // The priming scans are not timed, so they are not counted either.
    probe.scans = 0;
    probe.boundary(case, &mut tables, false);

    // The driver's wake-ups: every interval through the last arrival. Each
    // stretch of arrivals between two wake-ups is timed as one block, so the
    // timer's own cost is paid once per stretch, not once per scan.
    let last = queries.last().map_or(SimTime::ZERO, |q| q.at);
    let mut next_wakeup = SimTime::ZERO + case.run.reconfig_interval;
    let mut i = 0;
    while i < queries.len() {
        // An arrival at the wake-up's own instant was scheduled first, so
        // the sim hands it to the driver before the wake-up.
        let stretch = queries[i..]
            .iter()
            .take_while(|tq| tq.at <= next_wakeup || next_wakeup > last)
            .count();
        let start = Instant::now();
        for tq in &queries[i..i + stretch] {
            probe.feed(case, &mut tables, &tq.query);
        }
        probe.observe.total += start.elapsed();
        i += stretch;
        if next_wakeup <= last {
            probe.boundary(case, &mut tables, true);
            next_wakeup += case.run.reconfig_interval;
        }
    }

    out.put(
        "core.value.observe_ns_per_scan",
        probe.observe.per(probe.scans, 1e-9),
    );
    out.put("core.value.chunks_us_per_call", probe.chunks.per_call(1e-6));
    out.put(
        "core.value.chunks_per_call",
        mean(probe.chunk_count, probe.chunks.calls),
    );
    out.put(
        "core.fragment.greedy_ms_per_run",
        probe.greedy.per_call(1e-3),
    );
    out.put("core.fragment.greedy_changes", probe.greedy_changes as f64);
    out.put(
        "core.fragment.stats_us_per_call",
        probe.stats.per_call(1e-6),
    );
    out.put(
        "core.fragment.fragments",
        mean(probe.fragments, probe.decide.calls),
    );
    out.put(
        "core.replication.decide_us_per_call",
        probe.decide.per_call(1e-6),
    );
    out.put(
        "core.replication.replicas_total",
        mean(probe.replicas, probe.decide.calls),
    );
    out.put(
        "core.replication.pack_bffd_us_per_call",
        probe.pack.per_call(1e-6),
    );
    out.put(
        "core.replication.pack_nodes",
        mean(probe.pack_nodes, probe.pack.calls),
    );
}

/// `sim.event.ns_per_push_pop`: the simulator's event queue filled to
/// `events` entries at pseudo-random times and drained, per entry.
pub fn event_queue_ns_per_push_pop(events: u64) -> f64 {
    let events = events.max(1);
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let start = Instant::now();
    for i in 0..events {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        queue.schedule(SimTime::from_nanos(x >> 24), i);
    }
    while let Some(event) = queue.pop() {
        black_box(event);
    }
    start.elapsed().as_secs_f64() * 1e9 / events as f64
}
