//! Dependency-free observability for the NashDB reproduction.
//!
//! The pipeline (value estimation → fragmentation → replication/packing →
//! transition → routing → cluster simulation) records into a thread-local
//! [`ObsSession`]: counters, gauges, log-bucketed [`Histogram`]s, and
//! nestable stage [`span`]s measuring wall-clock per phase. When no session
//! is active every recording call is a cheap no-op — a thread-local read
//! and a branch — so library code can instrument unconditionally without
//! imposing overhead on callers that never asked for metrics. Every name
//! is a variant of the closed [`Metric`] / [`Span`] / [`Stage`] tables.
//! Work handed to another thread records through a [`fork`]: the worker
//! collects under a root span of its own, and [`Recording::absorb`] folds
//! what it collected into the session it was forked from.
//!
//! A finished session exports an [`ObsSnapshot`]: a versioned, schema-
//! validated, byte-deterministic JSON document that `nashdb-bench smoke`
//! writes and CI uploads as the per-PR benchmarking artifact.
//!
//! ```
//! use nashdb_obs::{self as obs, Metric, Span};
//!
//! let session = obs::ObsSession::start();
//! {
//!     let _pipeline = obs::span(Span::Pipeline);
//!     obs::counter_add(Metric::ValueTreeInserts, 3);
//!     obs::record(Metric::RoutingQueueWaitTuples, 17);
//! }
//! let snapshot = session.finish();
//! assert_eq!(snapshot.counter(Metric::ValueTreeInserts), Some(3));
//! assert_eq!(snapshot.span(&[Span::Pipeline]).map(|s| s.count), Some(1));
//! ```

mod artifact;
mod histogram;
mod json;
mod names;
mod registry;
mod scenario;
mod snapshot;

pub use artifact::{Artifact, SnapshotError, SNAPSHOT_VERSION};
pub use histogram::{bucket_index, Histogram, NUM_BUCKETS};
pub use json::{parse as parse_json, write_json_string, JsonError, JsonValue};
pub use names::{Metric, Span, Stage};
pub use scenario::{dominates, CellSnapshot, ScenarioArtifact, SystemPoint};
pub use snapshot::{HistogramSnapshot, ObsSnapshot, SpanSnapshot};

use registry::MetricsRegistry;

use std::cell::RefCell;
use std::time::Instant;

/// One open span on the stack: its full path and how much time its direct
/// children have consumed so far.
#[derive(Debug)]
struct Frame {
    path: String,
    child_ns: u64,
}

/// The thread's live collection state while a session is active.
#[derive(Debug)]
struct ActiveSession {
    registry: MetricsRegistry,
    stack: Vec<Frame>,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveSession>> = const { RefCell::new(None) };
}

/// Runs `f` against the live session, or returns `default` when inactive.
fn with_active<T>(default: T, f: impl FnOnce(&mut ActiveSession) -> T) -> T {
    ACTIVE.with(|cell| match cell.borrow_mut().as_mut() {
        Some(active) => f(active),
        None => default,
    })
}

/// A recording session bound to the current thread.
///
/// Starting a session arms every instrumentation call on this thread;
/// [`finish`](ObsSession::finish) disarms them and returns the collected
/// [`ObsSnapshot`]. Sessions nest: starting a new one shelves the previous
/// registry and finishing restores it, so a test can observe a narrow
/// region even while an outer session is live. Dropping a session without
/// finishing discards its data and restores the shelved one.
#[must_use = "dropping an unfinished session discards its metrics"]
#[derive(Debug)]
pub struct ObsSession {
    previous: Option<ActiveSession>,
    labels: Vec<(String, String)>,
    finished: bool,
}

impl ObsSession {
    /// Begins collecting on the current thread.
    pub fn start() -> Self {
        let previous = ACTIVE.with(|cell| {
            cell.borrow_mut().replace(ActiveSession {
                registry: MetricsRegistry::default(),
                stack: Vec::new(),
            })
        });
        ObsSession {
            previous,
            labels: Vec::new(),
            finished: false,
        }
    }

    /// Attaches a run-metadata label (workload name, seed, …) that will be
    /// embedded in the snapshot.
    pub fn label(&mut self, key: &str, value: &str) {
        self.labels.push((key.to_owned(), value.to_owned()));
    }

    /// Stops collecting and returns everything recorded since
    /// [`start`](ObsSession::start). Spans still open at this point are
    /// not included — close (drop) their guards first.
    pub fn finish(mut self) -> ObsSnapshot {
        let registry = self.stop();
        ObsSnapshot::capture(registry, std::mem::take(&mut self.labels))
    }

    /// Stops collecting, restores the shelved session and returns the
    /// registry collected since [`start`](ObsSession::start).
    fn stop(&mut self) -> MetricsRegistry {
        self.finished = true;
        let collected = ACTIVE.with(|cell| {
            let mut slot = cell.borrow_mut();
            let collected = slot.take();
            *slot = self.previous.take();
            collected
        });
        collected.map(|a| a.registry).unwrap_or_default()
    }
}

/// Whether the calling thread records, as a token a worker thread can
/// carry: take it with [`fork`] where work is handed off, execute the work
/// through [`Fork::run`] on the worker, and [`Recording::absorb`] what it
/// recorded back on the thread whose session should hold it.
#[derive(Debug, Clone, Copy)]
pub struct Fork {
    armed: bool,
}

/// Forks the calling thread's recording state for a worker thread.
pub fn fork() -> Fork {
    Fork { armed: is_active() }
}

impl Fork {
    /// Runs `f` on the calling (worker) thread. If a session was live where
    /// the fork was taken, `f` records into a session of this thread under
    /// a root span `root` of its own, so the worker's spans partition its
    /// wall time as the forking thread's partition theirs.
    pub fn run<T>(self, root: Span, f: impl FnOnce() -> T) -> (T, Recording) {
        if !self.armed {
            return (f(), Recording { registry: None });
        }
        let mut session = ObsSession::start();
        let out = {
            let _root = span(root);
            f()
        };
        let registry = session.stop();
        (
            out,
            Recording {
                registry: Some(registry),
            },
        )
    }
}

/// What a [`Fork::run`] recorded, on its way back to a session.
#[must_use = "a recording that is not absorbed is lost"]
#[derive(Debug)]
pub struct Recording {
    /// `None` iff the fork was not armed.
    registry: Option<MetricsRegistry>,
}

impl Recording {
    /// Folds the recording into the session live on the calling thread:
    /// counters add, histograms merge, span statistics add path by path,
    /// and a gauge the worker set replaces this thread's. No-op without a
    /// live session.
    pub fn absorb(self) {
        if let Some(other) = self.registry {
            with_active((), |a| a.registry.absorb(other));
        }
    }
}

impl Drop for ObsSession {
    fn drop(&mut self) {
        if !self.finished {
            ACTIVE.with(|cell| {
                let mut slot = cell.borrow_mut();
                slot.take();
                *slot = self.previous.take();
            });
        }
    }
}

/// Adds `delta` to a counter. No-op without an active session.
pub fn counter_add(metric: Metric, delta: u64) {
    with_active((), |a| a.registry.counter_add(metric, delta));
}

/// Sets a gauge to its latest value (non-finite values are ignored).
/// No-op without an active session.
pub fn gauge_set(metric: Metric, value: f64) {
    with_active((), |a| a.registry.gauge_set(metric, value));
}

/// Records one sample into a histogram. No-op without an active session.
pub fn record(metric: Metric, value: u64) {
    with_active((), |a| a.registry.record(metric, value));
}

/// Records a [`std::time::Duration`] in nanoseconds (saturating at
/// `u64::MAX`). No-op without an active session.
pub fn record_duration(metric: Metric, elapsed: std::time::Duration) {
    record(
        metric,
        u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
    );
}

/// True iff an observability session is live on this thread. Lets callers
/// skip expensive metric *computation* (not just recording).
pub fn is_active() -> bool {
    ACTIVE.with(|cell| cell.borrow().is_some())
}

/// Opens a nested wall-clock span. The span closes when the returned guard
/// drops, accumulating its elapsed time under a slash-joined path of every
/// open span (`distributor/scheme/fragment`). Returns an inert guard when
/// no session is active.
// Timing is this crate's job; durations are scrubbed from `--stable` output.
#[allow(clippy::disallowed_methods)]
pub fn span(segment: Span) -> SpanGuard {
    let armed = with_active(false, |a| {
        let name = segment.name();
        let path = match a.stack.last() {
            Some(parent) => format!("{}/{name}", parent.path),
            None => name.to_owned(),
        };
        a.stack.push(Frame { path, child_ns: 0 });
        true
    });
    SpanGuard {
        started: armed.then(Instant::now),
    }
}

/// Guard for an open [`span`]; closing (dropping) it records the elapsed
/// wall-clock time.
#[must_use = "a span measures the scope of its guard; dropping it immediately records nothing"]
#[derive(Debug)]
pub struct SpanGuard {
    /// `Some` iff a session was active when the span opened.
    started: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(started) = self.started else {
            return;
        };
        let elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        with_active((), |a| {
            let Some(frame) = a.stack.pop() else {
                // A fresh session started inside the span; nothing to record.
                return;
            };
            a.registry.span_add(&frame.path, elapsed_ns, frame.child_ns);
            if let Some(parent) = a.stack.last_mut() {
                parent.child_ns = parent.child_ns.saturating_add(elapsed_ns);
            }
        });
    }
}

/// Starts a wall-clock stopwatch for one-shot duration histograms. Unlike
/// [`span`], a stopwatch does not participate in the span hierarchy — it
/// records into a wall-clock histogram via
/// [`record`](Stopwatch::record).
// Timing is this crate's job; durations are scrubbed from `--stable` output.
#[allow(clippy::disallowed_methods)]
pub fn stopwatch() -> Stopwatch {
    Stopwatch {
        started: is_active().then(Instant::now),
    }
}

/// A running [`stopwatch`]; consume it with [`record`](Stopwatch::record).
#[must_use = "a stopwatch records nothing until `record` is called"]
#[derive(Debug)]
pub struct Stopwatch {
    started: Option<Instant>,
}

impl Stopwatch {
    /// Records the elapsed nanoseconds into the histogram. No-op if no
    /// session was active when the stopwatch started.
    pub fn record(self, metric: Metric) {
        if let Some(started) = self.started {
            record_duration(metric, started.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn inactive_calls_are_noops() {
        counter_add(Metric::RoutingRequests, 1);
        gauge_set(Metric::ClusterNodes, 1.0);
        record(Metric::RoutingQuerySpan, 1);
        let _span = span(Span::Query);
        stopwatch().record(Metric::FragmentGreedyNs);
        assert!(!is_active());
        // A session started afterwards sees none of it.
        let snap = ObsSession::start().finish();
        assert_eq!(snap.counters.len(), 0);
        assert_eq!(snap.histograms.len(), 0);
        assert_eq!(snap.spans.len(), 0);
    }

    #[test]
    fn session_collects_and_disarms() {
        let mut session = ObsSession::start();
        assert!(is_active());
        session.label("workload", "test");
        counter_add(Metric::ValueTreeInserts, 2);
        counter_add(Metric::ValueTreeInserts, 3);
        gauge_set(Metric::ReplicationNashSurplus, 1.25);
        record(Metric::RoutingQueueWaitTuples, 64);
        let snap = session.finish();
        assert!(!is_active());
        assert_eq!(snap.version, SNAPSHOT_VERSION);
        assert_eq!(
            snap.labels,
            vec![("workload".to_owned(), "test".to_owned())]
        );
        assert_eq!(snap.counter(Metric::ValueTreeInserts), Some(5));
        assert_eq!(snap.gauge(Metric::ReplicationNashSurplus), Some(1.25));
        assert_eq!(
            snap.histogram(Metric::RoutingQueueWaitTuples)
                .map(|h| h.max),
            Some(64)
        );
    }

    #[test]
    fn nested_spans_attribute_child_time() {
        let session = ObsSession::start();
        {
            let _outer = span(Span::Pipeline);
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = span(Span::Scheme);
                std::thread::sleep(Duration::from_millis(2));
            }
            {
                let _inner = span(Span::Scheme);
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let snap = session.finish();
        let outer = snap.span(&[Span::Pipeline]).unwrap();
        let inner = snap.span(&[Span::Pipeline, Span::Scheme]).unwrap();
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 2);
        // Child wall-clock is contained in the parent's.
        assert!(inner.total_ns <= outer.total_ns);
        // The parent's child_ns is exactly the inner spans' total.
        assert_eq!(outer.child_ns, inner.total_ns);
        // Leaf spans have no children.
        assert_eq!(inner.child_ns, 0);
        // Self time is non-negative by construction and here strictly
        // positive because the outer scope slept on its own.
        assert!(outer.total_ns - outer.child_ns > 0);
    }

    #[test]
    fn sessions_shelve_and_restore() {
        let outer = ObsSession::start();
        counter_add(Metric::TransitionPlans, 1);
        {
            let inner = ObsSession::start();
            counter_add(Metric::TransitionProvisioned, 1);
            let snap = inner.finish();
            assert_eq!(snap.counter(Metric::TransitionProvisioned), Some(1));
            assert_eq!(snap.counter(Metric::TransitionPlans), None);
        }
        // The outer session is live again and kept its data.
        counter_add(Metric::TransitionPlans, 1);
        let snap = outer.finish();
        assert_eq!(snap.counter(Metric::TransitionPlans), Some(2));
        assert_eq!(snap.counter(Metric::TransitionProvisioned), None);
    }

    #[test]
    fn dropping_unfinished_session_restores_previous() {
        let outer = ObsSession::start();
        counter_add(Metric::TransitionPlans, 1);
        {
            let _abandoned = ObsSession::start();
            counter_add(Metric::TransitionDecommissioned, 1);
            // dropped without finish()
        }
        let snap = outer.finish();
        assert_eq!(snap.counter(Metric::TransitionPlans), Some(1));
        assert_eq!(snap.counter(Metric::TransitionDecommissioned), None);
        assert!(!is_active());
    }

    #[test]
    fn a_forked_worker_records_under_its_own_root_and_is_absorbed() {
        let session = ObsSession::start();
        // Run here rather than on a second thread: the worker's session
        // shelves this one while it runs, as a thread-local one would
        // stand beside it.
        let (out, recording) = fork().run(Span::Distributor, || {
            let _scheme = span(Span::Scheme);
            counter_add(Metric::ValueTreeInserts, 2);
            gauge_set(Metric::DistributorNodes, 4.0);
            7
        });
        assert_eq!(out, 7);
        {
            let _pipeline = span(Span::Pipeline);
            counter_add(Metric::ValueTreeInserts, 1);
        }
        recording.absorb();
        let snap = session.finish();
        assert_eq!(snap.counter(Metric::ValueTreeInserts), Some(3));
        assert_eq!(snap.gauge(Metric::DistributorNodes), Some(4.0));
        let root = snap.span(&[Span::Distributor]).unwrap();
        let scheme = snap.span(&[Span::Distributor, Span::Scheme]).unwrap();
        assert_eq!((root.count, scheme.count), (1, 1));
        assert_eq!(root.child_ns, scheme.total_ns);
        assert!(snap.span(&[Span::Pipeline]).is_some());
    }

    #[test]
    fn an_unarmed_fork_records_nothing() {
        let ((), recording) = fork().run(Span::Distributor, || {
            counter_add(Metric::ValueTreeInserts, 1);
        });
        let session = ObsSession::start();
        recording.absorb();
        let snap = session.finish();
        assert_eq!(snap.counters.len(), 0);
        assert_eq!(snap.spans.len(), 0);
    }

    #[test]
    fn stopwatch_records_into_histogram() {
        let session = ObsSession::start();
        let sw = stopwatch();
        std::thread::sleep(Duration::from_millis(1));
        sw.record(Metric::FragmentGreedyNs);
        let snap = session.finish();
        let h = snap.histogram(Metric::FragmentGreedyNs).unwrap();
        assert_eq!(h.count, 1);
        assert!(h.max >= 1_000_000, "slept ≥1ms, got {}ns", h.max);
    }

    #[test]
    fn record_duration_saturates() {
        let session = ObsSession::start();
        record_duration(Metric::TransitionPlanNs, Duration::from_secs(u64::MAX));
        let snap = session.finish();
        assert_eq!(
            snap.histogram(Metric::TransitionPlanNs).map(|h| h.max),
            Some(u64::MAX)
        );
    }
}
