//! The textbook Eq. 11 loop, retained as the executable specification the
//! production router is property-tested against. Not for production paths:
//! it is the O(R²·C) formulation the incremental router replaced.

use super::{validate_requests, Assignment, FragmentRequest, QueueView, RouteError};
use crate::ids::NodeId;
use std::collections::BTreeSet;

/// The textbook Eq. 11 loop: every outer iteration re-derives every
/// pending request's best choice from scratch and places the worst
/// best. Identical assignments (and assignment order) to
/// [`MaxOfMins`](super::MaxOfMins) for scans with distinct fragment
/// ids.
pub fn max_of_mins(
    phi: u64,
    requests: &[FragmentRequest],
    queues: &mut QueueView,
) -> Result<Vec<Assignment>, RouteError> {
    validate_requests(requests, queues)?;
    let mut remaining: Vec<&FragmentRequest> = requests.iter().collect();
    let mut chosen: BTreeSet<NodeId> = BTreeSet::new();
    let mut out = Vec::with_capacity(requests.len());

    while !remaining.is_empty() {
        // For each pending request, its best effective wait and the
        // node achieving it; then schedule the *worst best* (the
        // bottleneck).
        let mut pick: Option<(usize, NodeId, u64)> = None; // (idx, node, eff wait)
        for (idx, req) in remaining.iter().enumerate() {
            let Some((node, eff)) = req
                .candidates
                .iter()
                .map(|&n| {
                    let penalty = if chosen.contains(&n) { 0 } else { phi };
                    (n, queues.wait(n).saturating_add(penalty))
                })
                .min_by_key(|&(n, eff)| (eff, n))
            else {
                // Candidates were validated nonempty above; a miss is a
                // router bug, surfaced typed rather than as a panic.
                return Err(RouteError::InvariantBreach {
                    fragment: req.fragment,
                });
            };
            let better = match pick {
                None => true,
                // Strict max; ties broken toward larger reads first,
                // then fragment id, for determinism.
                Some((pidx, _, peff)) => {
                    let (ps, pf) = (remaining[pidx].size, remaining[pidx].fragment);
                    (eff, req.size, std::cmp::Reverse(req.fragment))
                        > (peff, ps, std::cmp::Reverse(pf))
                }
            };
            if better {
                pick = Some((idx, node, eff));
            }
        }
        let Some((idx, node, _)) = pick else {
            // The loop guard keeps `remaining` nonempty, so a pick
            // always exists; a miss is a router bug, surfaced typed.
            return Err(RouteError::InvariantBreach {
                fragment: remaining[0].fragment,
            });
        };
        let req = remaining.swap_remove(idx);
        queues.enqueue(node, req.size);
        chosen.insert(node);
        out.push(Assignment {
            fragment: req.fragment,
            node,
        });
    }
    Ok(out)
}

/// The batch specification: validate every scan up front, then route
/// each scan with [`max_of_mins`] against the same evolving queue view.
/// This sequential threading *is* the semantics
/// [`ScanRouter::route_batch`](super::ScanRouter::route_batch)
/// implementations must reproduce exactly — assignments, selection order,
/// and final queue waits.
pub fn max_of_mins_batch(
    phi: u64,
    scans: &[Vec<FragmentRequest>],
    queues: &mut QueueView,
) -> Result<Vec<Vec<Assignment>>, RouteError> {
    for scan in scans {
        validate_requests(scan, queues)?;
    }
    scans.iter().map(|s| max_of_mins(phi, s, queues)).collect()
}
