//! Routing baselines (paper §10.4).
//!
//! * **Shortest queue** — schedules each fragment request on the node with
//!   the shortest queue, ignoring query span entirely (load-balancing
//!   extreme, like E-Store's access spreading).
//! * **Greedy SC** — minimizes query span by repeatedly selecting the node
//!   that covers the most remaining fragments (the greedy set-cover of
//!   SWORD), ignoring queue lengths entirely.

use std::collections::BTreeSet;

use nashdb_core::ids::NodeId;
use nashdb_core::routing::{
    validate_requests, Assignment, FragmentRequest, QueueView, RouteError, ScanRouter, Scratch,
};

/// Always pick the least-loaded replica.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShortestQueue;

impl ScanRouter for ShortestQueue {
    fn route_into(
        &self,
        requests: &[FragmentRequest],
        queues: &mut QueueView,
        _scratch: &mut Scratch,
        out: &mut Vec<Assignment>,
    ) -> Result<(), RouteError> {
        validate_requests(requests, queues)?;
        out.extend(requests.iter().map(|req| {
            let mut node = req.candidates[0];
            for &n in &req.candidates[1..] {
                if (queues.wait(n), n) < (queues.wait(node), node) {
                    node = n;
                }
            }
            queues.enqueue(node, req.size);
            Assignment {
                fragment: req.fragment,
                node,
            }
        }));
        Ok(())
    }

    fn name(&self) -> &'static str {
        "shortest-queue"
    }
}

/// Minimize span with greedy set cover: repeatedly pick the node hosting the
/// most still-unassigned fragments (ties: more queued work last, then lower
/// id) and assign all of them to it.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedySetCover;

impl ScanRouter for GreedySetCover {
    fn route_into(
        &self,
        requests: &[FragmentRequest],
        queues: &mut QueueView,
        _scratch: &mut Scratch,
        out: &mut Vec<Assignment>,
    ) -> Result<(), RouteError> {
        validate_requests(requests, queues)?;
        let mut remaining: Vec<&FragmentRequest> = requests.iter().collect();
        while !remaining.is_empty() {
            // Count coverage per candidate node.
            let mut nodes: BTreeSet<NodeId> = BTreeSet::new();
            for r in &remaining {
                nodes.extend(r.candidates.iter().copied());
            }
            let best = nodes
                .into_iter()
                .map(|n| {
                    let covers = remaining
                        .iter()
                        .filter(|r| r.candidates.contains(&n))
                        .count();
                    (
                        covers,
                        std::cmp::Reverse(queues.wait(n)),
                        std::cmp::Reverse(n),
                    )
                })
                .max();
            // Every remaining request has at least one candidate (validated
            // above), so a round always finds a node.
            let Some(best) = best else { break };
            let node = best.2 .0;
            let mut i = 0;
            while i < remaining.len() {
                if remaining[i].candidates.contains(&node) {
                    let r = remaining.swap_remove(i);
                    queues.enqueue(node, r.size);
                    out.push(Assignment {
                        fragment: r.fragment,
                        node,
                    });
                } else {
                    i += 1;
                }
            }
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "greedy-sc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nashdb_core::ids::FragmentId;
    use nashdb_core::routing::span;

    fn req(frag: u64, size: u64, candidates: &[u64]) -> FragmentRequest {
        FragmentRequest {
            fragment: FragmentId(frag),
            size,
            candidates: candidates.iter().map(|&n| NodeId(n)).collect(),
        }
    }

    #[test]
    fn shortest_queue_balances_ignoring_span() {
        let r = ShortestQueue;
        let mut q = QueueView::new(3);
        let out = r
            .route(
                &[
                    req(0, 10, &[0, 1, 2]),
                    req(1, 10, &[0, 1, 2]),
                    req(2, 10, &[0, 1, 2]),
                ],
                &mut q,
            )
            .unwrap();
        // Perfect spread: span 3.
        assert_eq!(span(&out), 3);
    }

    #[test]
    fn shortest_queue_respects_existing_load() {
        let r = ShortestQueue;
        let mut q = QueueView::from_waits(vec![1_000, 0]);
        let out = r.route(&[req(0, 10, &[0, 1])], &mut q).unwrap();
        assert_eq!(out[0].node, NodeId(1));
    }

    #[test]
    fn greedy_sc_minimizes_span() {
        let r = GreedySetCover;
        let mut q = QueueView::new(3);
        // Node 2 covers everything; others cover one each.
        let out = r
            .route(
                &[req(0, 10, &[0, 2]), req(1, 10, &[1, 2]), req(2, 10, &[2])],
                &mut q,
            )
            .unwrap();
        assert_eq!(span(&out), 1);
        assert!(out.iter().all(|a| a.node == NodeId(2)));
    }

    #[test]
    fn greedy_sc_ignores_queues() {
        let r = GreedySetCover;
        // Node 0 covers both fragments but is heavily loaded; Greedy SC
        // still funnels everything to it (that is its pathology, Fig. 8c).
        let mut q = QueueView::from_waits(vec![1_000_000, 0, 0]);
        let out = r
            .route(&[req(0, 10, &[0, 1]), req(1, 10, &[0, 2])], &mut q)
            .unwrap();
        assert_eq!(span(&out), 1);
        assert!(out.iter().all(|a| a.node == NodeId(0)));
    }

    #[test]
    fn greedy_sc_multiple_rounds() {
        let r = GreedySetCover;
        let mut q = QueueView::new(3);
        // No single node covers everything.
        let out = r
            .route(
                &[req(0, 10, &[0]), req(1, 10, &[1]), req(2, 10, &[1])],
                &mut q,
            )
            .unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(span(&out), 2);
    }

    #[test]
    fn both_deterministic() {
        let reqs = vec![
            req(0, 10, &[0, 1, 2]),
            req(1, 20, &[1, 2]),
            req(2, 30, &[0, 2]),
        ];
        for router in [&ShortestQueue as &dyn ScanRouter, &GreedySetCover] {
            let mut q1 = QueueView::new(3);
            let mut q2 = QueueView::new(3);
            assert_eq!(
                router.route(&reqs, &mut q1).unwrap(),
                router.route(&reqs, &mut q2).unwrap()
            );
        }
    }
}
