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
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One open span on a session's stack: its full path, how much time its
/// direct children have consumed so far, and the id its guard closes it by.
#[derive(Debug)]
struct Frame {
    path: String,
    child_ns: u64,
    id: u64,
}

/// One session's collection state on its thread.
#[derive(Debug)]
struct ActiveSession {
    id: u64,
    registry: MetricsRegistry,
    stack: Vec<Frame>,
}

thread_local! {
    /// The thread's sessions, oldest first. The last one is live; the
    /// others are shelved until the sessions started after them end.
    static SESSIONS: RefCell<Vec<ActiveSession>> = const { RefCell::new(Vec::new()) };
}

/// A fresh id for a session or a span frame, unique across threads, so a
/// guard or a session can only ever find what it opened.
fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Runs `f` against the live session, or returns `default` when inactive.
fn with_active<T>(default: T, f: impl FnOnce(&mut ActiveSession) -> T) -> T {
    SESSIONS.with(|cell| match cell.borrow_mut().last_mut() {
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
    id: u64,
    labels: Vec<(String, String)>,
}

impl ObsSession {
    /// Begins collecting on the current thread.
    pub fn start() -> Self {
        let id = next_id();
        SESSIONS.with(|cell| {
            cell.borrow_mut().push(ActiveSession {
                id,
                registry: MetricsRegistry::default(),
                stack: Vec::new(),
            });
        });
        ObsSession {
            id,
            labels: Vec::new(),
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

    /// Stops collecting and returns the registry collected since
    /// [`start`](ObsSession::start); empty once stopped.
    fn stop(&mut self) -> MetricsRegistry {
        SESSIONS
            .with(|cell| {
                let mut sessions = cell.borrow_mut();
                let at = sessions.iter().rposition(|s| s.id == self.id)?;
                Some(sessions.remove(at).registry)
            })
            .unwrap_or_default()
    }
}

impl Drop for ObsSession {
    fn drop(&mut self) {
        self.stop();
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

/// True iff an observability session is live on this thread. Lets callers
/// skip expensive metric *computation* (not just recording).
pub fn is_active() -> bool {
    SESSIONS.with(|cell| !cell.borrow().is_empty())
}

/// Opens a nested wall-clock span, the crate's one clock. The span closes
/// when the returned guard drops, accumulating its elapsed time under a
/// slash-joined path of every open span (`distributor/scheme/fragment`).
/// Returns an inert guard when no session is active.
// Timing is this crate's job; durations are scrubbed from `--stable` output.
#[allow(clippy::disallowed_methods)]
pub fn span(segment: Span) -> SpanGuard {
    let frame = with_active(None, |a| {
        let name = segment.name();
        let path = match a.stack.last() {
            Some(parent) => format!("{}/{name}", parent.path),
            None => name.to_owned(),
        };
        let id = next_id();
        a.stack.push(Frame {
            path,
            child_ns: 0,
            id,
        });
        Some(id)
    });
    SpanGuard {
        open: frame.map(|id| (id, Instant::now())),
    }
}

/// Guard for an open [`span`]; closing (dropping) it records the elapsed
/// wall-clock time.
#[must_use = "a span measures the scope of its guard; dropping it immediately records nothing"]
#[derive(Debug)]
pub struct SpanGuard {
    /// The id of the frame it opened and when, iff a session was active.
    open: Option<(u64, Instant)>,
}

impl Drop for SpanGuard {
    /// Closes the guard's own frame in whichever of the thread's sessions
    /// holds it, live or shelved. The frame records only if it is on top of
    /// its stack: one whose session ended, or that outlived a span opened
    /// inside it, records nothing.
    fn drop(&mut self) {
        let Some((id, started)) = self.open else {
            return;
        };
        let elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        SESSIONS.with(|cell| {
            for a in cell.borrow_mut().iter_mut().rev() {
                let Some(at) = a.stack.iter().rposition(|f| f.id == id) else {
                    continue;
                };
                let frame = a.stack.remove(at);
                if at == a.stack.len() {
                    a.registry.span_add(&frame.path, elapsed_ns, frame.child_ns);
                    if let Some(parent) = a.stack.last_mut() {
                        parent.child_ns = parent.child_ns.saturating_add(elapsed_ns);
                    }
                }
                return;
            }
        });
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
    fn a_guard_outliving_its_session_records_nothing_in_the_next() {
        let a = ObsSession::start();
        let pipeline = span(Span::Pipeline);
        assert_eq!(a.finish().spans.len(), 0);
        let b = ObsSession::start();
        let query = span(Span::Query);
        drop(pipeline);
        {
            // `query` is still open, so this nests under it.
            let _route = span(Span::Route);
        }
        drop(query);
        let snap = b.finish();
        let paths: Vec<_> = snap.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, ["query", "query/route"]);
        let query = snap.span(&[Span::Query]).unwrap();
        let route = snap.span(&[Span::Query, Span::Route]).unwrap();
        assert_eq!(query.child_ns, route.total_ns);
    }

    #[test]
    fn a_guard_closes_its_frame_in_a_shelved_session() {
        let a = ObsSession::start();
        let pipeline = span(Span::Pipeline);
        let b = ObsSession::start();
        let query = span(Span::Query);
        drop(pipeline);
        drop(query);
        let inner = b.finish();
        assert!(inner.span(&[Span::Query]).is_some());
        assert!(inner.span(&[Span::Pipeline]).is_none());
        {
            let _route = span(Span::Route);
        }
        let outer = a.finish();
        let paths: Vec<_> = outer.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, ["pipeline", "route"]);
    }

    #[test]
    fn a_guard_dropped_before_a_span_opened_inside_it_records_nothing() {
        let session = ObsSession::start();
        let outer = span(Span::Pipeline);
        let inner = span(Span::Scheme);
        drop(outer);
        drop(inner);
        {
            let _route = span(Span::Route);
        }
        let snap = session.finish();
        let paths: Vec<_> = snap.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, ["pipeline/scheme", "route"]);
    }
}
