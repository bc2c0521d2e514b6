//! The query slab: each query's state, indexed by its id.

use std::collections::BTreeSet;

use nashdb_core::ids::{NodeId, QueryId};
use nashdb_sim::SimTime;

use super::disk::Read;
use super::QueryRequest;

/// Why a [`ClusterSim::dispatch`](super::ClusterSim::dispatch) call was
/// rejected. The simulator is left untouched: no read of the rejected query
/// is enqueued, and a query that was awaiting dispatch still is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchError {
    /// The query already had its reads dispatched (it is running, completed,
    /// or was abandoned).
    DuplicateQuery {
        /// The query dispatched twice.
        id: QueryId,
    },
    /// The query was never scheduled, or has not arrived / failed yet.
    UnknownQuery {
        /// The unknown query.
        id: QueryId,
    },
    /// A read targets a node id outside the current scheme.
    UnknownNode {
        /// The out-of-range node.
        node: NodeId,
    },
    /// A read targets a crashed node.
    FailedNode {
        /// The crashed node.
        node: NodeId,
    },
}

impl std::fmt::Display for DispatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DispatchError::DuplicateQuery { id } => write!(f, "query {id} dispatched twice"),
            DispatchError::UnknownQuery { id } => write!(f, "query {id} is not awaiting dispatch"),
            DispatchError::UnknownNode { node } => write!(f, "dispatch to unknown node {node}"),
            DispatchError::FailedNode { node } => write!(f, "dispatch to crashed node {node}"),
        }
    }
}

impl std::error::Error for DispatchError {}

/// Where a query is in its life:
///
/// ```text
/// Scheduled ──arrival──► Awaiting ──dispatch──► Running ──last read──► Done
///                         │  ▲                     │
///                         │  └────── crash ────────┘   (attempt + 1)
///                         └──abandon_query / empty dispatch──────────► Done
/// ```
#[derive(Debug)]
enum QueryState {
    /// Holds the request until the arrival event hands it to the driver.
    Scheduled(QueryRequest),
    /// The arrival time and the attempts made (0 for a fresh arrival).
    Awaiting(SimTime, u32),
    /// The arrival time, the attempt whose reads are out, the reads still
    /// pending, and the distinct nodes they went to.
    Running(SimTime, u32, usize, u32),
    /// Completed or abandoned: re-dispatching it is a duplicate, not an
    /// unknown.
    Done,
}

/// Every query ever scheduled. Ids are issued densely, so a `Vec` indexed
/// by id is all the bookkeeping a query needs; ids also reach the simulator
/// from outside, so a never-issued one is looked up, never indexed.
#[derive(Debug, Default)]
pub(super) struct QuerySlab(Vec<QueryState>);

impl QuerySlab {
    pub(super) fn reserve(&mut self, additional: usize) {
        self.0.reserve(additional);
    }

    pub(super) fn schedule(&mut self, query: QueryRequest) -> QueryId {
        let id = QueryId(self.0.len() as u64);
        self.0.push(QueryState::Scheduled(query));
        id
    }

    fn get(&self, id: QueryId) -> Option<&QueryState> {
        self.0.get(usize::try_from(id.get()).ok()?)
    }

    fn get_mut(&mut self, id: QueryId) -> Option<&mut QueryState> {
        self.0.get_mut(usize::try_from(id.get()).ok()?)
    }

    /// Query `id` arrives at `now` and awaits dispatch; returns its request
    /// for the driver. Each id arrives once, so `None` only follows corrupt
    /// state, and the caller skips the event.
    pub(super) fn arrive(&mut self, id: QueryId, now: SimTime) -> Option<QueryRequest> {
        let state = self.get_mut(id)?;
        match std::mem::replace(state, QueryState::Awaiting(now, 0)) {
            QueryState::Scheduled(query) => Some(query),
            other => {
                *state = other;
                None
            }
        }
    }

    /// The arrival time and attempts made of a query awaiting dispatch.
    pub(super) fn awaiting(&self, id: QueryId) -> Result<(SimTime, u32), DispatchError> {
        match self.get(id) {
            Some(&QueryState::Awaiting(arrival, attempt)) => Ok((arrival, attempt)),
            Some(QueryState::Running(..) | QueryState::Done) => {
                Err(DispatchError::DuplicateQuery { id })
            }
            Some(QueryState::Scheduled(_)) | None => Err(DispatchError::UnknownQuery { id }),
        }
    }

    /// An awaiting query's `pending` reads went out, to `span` nodes.
    pub(super) fn run(&mut self, id: QueryId, pending: usize, span: u32) {
        if let Some(state) = self.get_mut(id) {
            if let QueryState::Awaiting(arrival, attempt) = *state {
                *state = QueryState::Running(arrival, attempt, pending, span);
            }
        }
    }

    /// Ends an awaiting query: abandoned, or dispatched with nothing to
    /// read. False if it was not awaiting dispatch.
    pub(super) fn close(&mut self, id: QueryId) -> bool {
        let Some(state @ QueryState::Awaiting(..)) = self.get_mut(id) else {
            return false;
        };
        *state = QueryState::Done;
        true
    }

    /// Whether a read of `(id, attempt)` belongs to the query's running
    /// attempt.
    pub(super) fn is_fresh(&self, id: QueryId, attempt: u32) -> bool {
        matches!(self.get(id), Some(&QueryState::Running(_, a, ..)) if a == attempt)
    }

    /// Delivers a read of `(id, attempt)`; `None` if it is stale. Returns
    /// the reads still pending, and the arrival time and span for the
    /// record. The last read ends the query.
    pub(super) fn deliver(&mut self, id: QueryId, attempt: u32) -> Option<(usize, SimTime, u32)> {
        let state = self.get_mut(id)?;
        let QueryState::Running(arrival, current, pending, span) = *state else {
            return None;
        };
        if current != attempt {
            return None;
        }
        let pending = pending.saturating_sub(1);
        *state = match pending {
            0 => QueryState::Done,
            _ => QueryState::Running(arrival, attempt, pending, span),
        };
        Some((pending, arrival, span))
    }

    /// A crash lost `reads`: each query whose running attempt lost one
    /// awaits dispatch again. Returns those queries in id order, with the
    /// attempts each has made.
    pub(super) fn fail(&mut self, reads: &[Read]) -> Vec<(QueryId, u32)> {
        let fresh = reads.iter().filter(|&&(id, a)| self.is_fresh(id, a));
        let victims: BTreeSet<QueryId> = fresh.map(|&(id, _)| id).collect();
        let mut failed = Vec::with_capacity(victims.len());
        for id in victims {
            let Some(state) = self.get_mut(id) else {
                continue;
            };
            if let QueryState::Running(arrival, attempt, ..) = *state {
                let attempts = attempt.saturating_add(1);
                *state = QueryState::Awaiting(arrival, attempts);
                failed.push((id, attempts));
            }
        }
        failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_query_walks_its_states() {
        let mut slab = QuerySlab::default();
        let request = QueryRequest {
            price: 1.0,
            scans: Vec::new(),
            tag: 0,
        };
        let id = slab.schedule(request);
        let at = SimTime::from_secs(3);
        assert_eq!(slab.awaiting(id), Err(DispatchError::UnknownQuery { id }));
        assert!(slab.arrive(id, at).is_some());
        assert!(slab.arrive(id, at).is_none());
        assert_eq!(slab.awaiting(id), Ok((at, 0)));
        slab.run(id, 2, 1);
        assert_eq!(slab.awaiting(id), Err(DispatchError::DuplicateQuery { id }));
        assert!(slab.is_fresh(id, 0) && !slab.is_fresh(id, 1));
        assert_eq!(slab.deliver(id, 0), Some((1, at, 1)));
        // A crash loses the other read, listed twice: one failure.
        assert_eq!(slab.fail(&[(id, 0), (id, 0)]), vec![(id, 1)]);
        assert_eq!(slab.awaiting(id), Ok((at, 1)));
        assert_eq!(slab.deliver(id, 0), None);
        slab.run(id, 1, 1);
        assert_eq!(slab.deliver(id, 1), Some((0, at, 1)));
        assert!(!slab.close(id));
        assert_eq!(slab.awaiting(id), Err(DispatchError::DuplicateQuery { id }));
        assert!(!slab.close(QueryId(u64::MAX)));
    }
}
