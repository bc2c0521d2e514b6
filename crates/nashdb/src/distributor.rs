//! NashDB proper: the value-estimation → fragmentation → replication
//! pipeline behind the [`Distributor`] interface.

use nashdb_cluster::QueryRequest;
use nashdb_core::economics::NodeSpec;
use nashdb_core::fragment::{fragment_stats, split_oversized, FragmentStats, GreedyFragmenter};
use nashdb_core::ids::FragmentId;
use nashdb_core::num::{saturating_u64, usize_from};
use nashdb_core::replication::{decide_replicas, ReplicationDecision, ReplicationPolicy};
use nashdb_core::value::{PricedScan, TupleValueEstimator};
use nashdb_obs::{Metric, Span};
use nashdb_workload::Database;

use crate::scheme::{DistScheme, Distributor, GlobalFragment};

/// What [`NashDbDistributor::decide`] hands [`NashDbDistributor::place`]:
/// the next scheme's fragments, their replica decisions, and for each
/// previous fragment its index among the new ones.
type Decided = (
    Vec<GlobalFragment>,
    Vec<ReplicationDecision>,
    Vec<Option<usize>>,
);

/// NashDB configuration.
#[derive(Debug, Clone, Copy)]
pub struct NashDbConfig {
    /// Scan window size `|W|` (the paper's experiments use 50).
    pub window: usize,
    /// Node economics: rent per reconfiguration period (1/100 cent) and
    /// disk capacity (tuples).
    pub spec: NodeSpec,
    /// Fragment cap per table (`maxFrags`), the paper's "average fragment
    /// fills a disk block" knob.
    pub max_frags_per_table: usize,
    /// Greedy split/merge rounds per reconfiguration.
    pub greedy_rounds: usize,
    /// Safety cap on replicas per fragment.
    pub max_replicas: u64,
    /// Maximum fragment size in tuples (the paper's "average fragment fits
    /// a disk block": fragments are the unit of a replica *and* of a read,
    /// so oversized uniform-value regions are split to this cap to keep
    /// single reads bounded). Always additionally capped by `spec.disk`.
    pub max_fragment_tuples: u64,
    /// Minimum relative error improvement for a refragmentation change
    /// (paper footnote 2); damps boundary churn from window noise.
    pub refrag_sensitivity: f64,
}

impl Default for NashDbConfig {
    fn default() -> Self {
        NashDbConfig {
            window: 50,
            spec: NodeSpec::new(100.0, 50_000_000), // 50 GB-equivalent nodes
            max_frags_per_table: 64,
            greedy_rounds: 96,
            max_replicas: 512,
            max_fragment_tuples: u64::MAX,
            refrag_sensitivity: 0.05,
        }
    }
}

struct TableState {
    tuples: u64,
    estimator: TupleValueEstimator,
    fragmenter: GreedyFragmenter,
}

/// One table's slice of the fragmentation stage: value chunks -> greedy
/// fragmentation -> disk-fit split -> per-fragment statistics.
/// Stats come back with table-local ids; the caller re-identifies them globally.
fn table_fragments(
    cfg: &NashDbConfig,
    converged: bool,
    t_idx: usize,
    t: &mut TableState,
) -> Vec<FragmentStats> {
    let chunks = {
        let _chunks = nashdb_obs::span(Span::ValueChunks);
        t.estimator.chunks(t.tuples)
    };
    let rounds = if converged {
        cfg.greedy_rounds
    } else {
        cfg.greedy_rounds.max(24 * cfg.max_frags_per_table)
    };
    t.fragmenter.run(&chunks, rounds);
    let frag = t.fragmenter.fragmentation();
    debug_assert_eq!(
        nashdb_core::audit::audit_value_tree(&t.estimator),
        Ok(()),
        "table {t_idx} value-tree audit"
    );
    debug_assert_eq!(
        nashdb_core::audit::audit_fragmentation(&frag, &chunks, cfg.max_frags_per_table),
        Ok(()),
        "table {t_idx} fragmentation audit"
    );
    let frag = split_oversized(&frag, cfg.spec.disk.min(cfg.max_fragment_tuples.max(1)));
    let stats = fragment_stats(&frag, &chunks);
    debug_assert!(stats.is_ok(), "table {t_idx}: {:?}", stats.as_ref().err());
    stats.unwrap_or_default()
}

/// The NashDB system: per-table tuple value estimators and fragmenters, plus
/// the economic replication manager.
pub struct NashDbDistributor {
    cfg: NashDbConfig,
    tables: Vec<TableState>,
    /// False until the first scheme computation, which runs the greedy
    /// fragmenter to convergence; later calls apply only `greedy_rounds`
    /// incremental rounds so fragment boundaries (and therefore replica
    /// placements) drift slowly and transitions stay cheap.
    converged: bool,
    /// The scheme the last reconfiguration emitted, which the next one
    /// adapts rather than replaces.
    prev: Previous,
}

/// The previous scheme, persisted once per reconfiguration by
/// [`NashDbDistributor::place`]. A fragment's index is not stable across a
/// boundary move, so the next scheme reaches it through the old→new
/// correspondence [`correspondence`] takes from one merge of the two
/// fragment lists.
#[derive(Debug, Default)]
struct Previous {
    /// Its fragments, in `(table, range.start)` order.
    fragments: Vec<GlobalFragment>,
    /// Replica counts per fragment, for hysteresis: a fragment whose
    /// `Ideal(f)` stayed within ±25 % (min ±1) of its old count keeps the
    /// old count. Without damping, count flutter re-sorts the packing order
    /// every period and churns the whole placement (the paper's
    /// <200 MB/transition measurements imply its schemes were similarly
    /// stable hour over hour). The damped counts are not Eq. 9's, and the
    /// scheme they give is usually *not* a Definition 6.1 equilibrium: on a
    /// 40-round drifting stream (20 scans a round on `small_cfg()`) it
    /// passes `check_equilibrium` in 4 rounds; of the other 36, 26 have a
    /// profitable drop and 10 a profitable add (ROADMAP item G).
    counts: Vec<u64>,
    /// The persistent replica placement: per node, the indices into
    /// `fragments` of the fragments it hosts. Re-running BFFD from scratch
    /// each period would re-deal most of the cluster whenever a count or
    /// boundary changes; instead existing assignments are kept, BFFD places
    /// only the deltas, and under-filled nodes are evacuated (see DESIGN.md
    /// §6, item 7).
    nodes: Vec<Vec<usize>>,
}

/// For each fragment of `old`, the index in `new` of the same fragment
/// (table and range), if the new scheme still has it. Both lists are in
/// `(table, range.start)` order with distinct keys, so one merge finds
/// every match.
fn correspondence(old: &[GlobalFragment], new: &[GlobalFragment]) -> Vec<Option<usize>> {
    let mut from_old = vec![None; old.len()];
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < new.len() {
        let o = (old[i].table, old[i].range.start);
        let n = (new[j].table, new[j].range.start);
        if o < n {
            i += 1;
        } else if n < o {
            j += 1;
        } else {
            if old[i].range.end == new[j].range.end {
                from_old[i] = Some(j);
            }
            i += 1;
            j += 1;
        }
    }
    from_old
}

/// Tuples `a` and `b` share: zero across tables.
fn overlap(a: &GlobalFragment, b: &GlobalFragment) -> u64 {
    if a.table == b.table {
        a.range.overlap(b.range.start, b.range.end)
    } else {
        0
    }
}

impl std::fmt::Debug for NashDbDistributor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NashDbDistributor")
            .field("cfg", &self.cfg)
            .field("tables", &self.tables.len())
            .field("converged", &self.converged)
            .field("nodes", &self.prev.nodes.len())
            .finish_non_exhaustive()
    }
}

impl NashDbDistributor {
    /// Creates the system for a database.
    pub fn new(db: &Database, cfg: NashDbConfig) -> Self {
        assert!(cfg.window > 0, "window must be nonzero");
        assert!(cfg.max_frags_per_table > 0, "maxFrags must be nonzero");
        let tables = db
            .tables
            .iter()
            .map(|t| TableState {
                tuples: t.tuples,
                estimator: TupleValueEstimator::new(cfg.window),
                fragmenter: GreedyFragmenter::new(t.tuples, cfg.max_frags_per_table)
                    .with_min_relative_gain(cfg.refrag_sensitivity),
            })
            .collect();
        NashDbDistributor {
            cfg,
            tables,
            converged: false,
            prev: Previous::default(),
        }
    }

    /// What the next scheme hosts: every table's fragments, in
    /// `(table, range.start)` order, the replica count Eq. 9 and the
    /// hysteresis band give each, and the old→new [`correspondence`] the
    /// band read. [`place`](Self::place) decides where.
    fn decide(&mut self) -> Decided {
        let policy = ReplicationPolicy::new(self.cfg.window, self.cfg.spec)
            .with_max_replicas(self.cfg.max_replicas);

        // Per table: value chunks -> fragmentation -> disk-fit split ->
        // fragment statistics, re-identified globally.
        let fragment_span = nashdb_obs::span(Span::Fragment);
        let mut globals: Vec<GlobalFragment> = Vec::new();
        let mut stats: Vec<FragmentStats> = Vec::new();
        for (t_idx, t) in self.tables.iter_mut().enumerate() {
            for s in table_fragments(&self.cfg, self.converged, t_idx, t) {
                let global_id = FragmentId(globals.len() as u64);
                globals.push(GlobalFragment {
                    table: nashdb_core::ids::TableId(t_idx as u64),
                    range: s.range,
                });
                stats.push(FragmentStats { id: global_id, ..s });
            }
        }

        self.converged = true;
        drop(fragment_span);

        // Eq. 9 replica counts, damped by hysteresis against the previous
        // scheme.
        let replication_span = nashdb_obs::span(Span::Replication);
        let mut decisions = decide_replicas(&stats, &policy);
        let from_old = correspondence(&self.prev.fragments, &globals);
        for (&old, &new) in self.prev.counts.iter().zip(&from_old) {
            let Some(d) = new.map(|j| &mut decisions[j]) else {
                continue;
            };
            // Counting noise in a |W|-scan window moves V(f) (hence Ideal)
            // by ~±25% between periods; inside that band keep the old count
            // and a quiet cluster, at the cost of Eq. 9 exactness (see
            // `Previous::counts`).
            let band = saturating_u64(((old as f64) * 0.25).ceil().max(1.0));
            if d.replicas.abs_diff(old) <= band {
                d.replicas = old;
            }
        }
        drop(replication_span);

        (globals, decisions, from_old)
    }

    /// Placement-preserving replica allocation: keeps every still-valid
    /// assignment, removes stale/surplus replicas, first-fit-places the
    /// deficit (highest replica counts first, hash-scattered within a
    /// count), evacuates under-filled nodes, and drops empty ones; then
    /// persists the result as the next call's [`Previous`].
    ///
    /// `globals` must be in `(table, range.start)` order, which is how
    /// [`decide`](Self::decide) builds it, and `from_old` its
    /// [`correspondence`] to the previous scheme. Every step works on dense
    /// fragment indices: new ones for what the scheme hosts, old ones for
    /// what nodes lost. The order of every node's list, of the node list
    /// itself and of every tie-break below is pinned, call after call,
    /// against the map-keyed formulation in this module's tests
    /// (`place_matches_map_keyed_twin`).
    fn place(
        &mut self,
        globals: &[GlobalFragment],
        decisions: &[ReplicationDecision],
        from_old: &[Option<usize>],
    ) -> Vec<Vec<usize>> {
        debug_assert_eq!(globals.len(), decisions.len(), "one decision per fragment");
        debug_assert!(
            globals
                .windows(2)
                .all(|w| (w[0].table, w[0].range.start) < (w[1].table, w[1].range.start)),
            "fragments out of (table, start) order"
        );
        debug_assert_eq!(
            from_old.len(),
            self.prev.fragments.len(),
            "one entry per old fragment"
        );
        let disk = self.cfg.spec.disk;
        let size_of = |i: usize| globals[i].range.size();
        let desired: Vec<u64> = decisions.iter().map(|d| d.replicas).collect();
        let old = std::mem::take(&mut self.prev);

        // 1. Drop replicas of fragments that no longer exist, remembering
        //    what each node lost: a boundary shift renames a fragment, and
        //    the replacement should land where the old data already sits so
        //    the transition only ships the boundary delta. What was lost
        //    names fragments the new scheme does not have, so it stays
        //    indexed by old fragment.
        let mut nodes: Vec<Vec<usize>> = Vec::with_capacity(old.nodes.len());
        let mut removed: Vec<Vec<usize>> = Vec::with_capacity(old.nodes.len());
        for node in &old.nodes {
            let mut kept = Vec::with_capacity(node.len());
            let mut lost = Vec::new();
            for &i in node {
                match from_old[i] {
                    Some(j) => kept.push(j),
                    None => lost.push(i),
                }
            }
            nodes.push(kept);
            removed.push(lost);
        }

        // 2. Current counts.
        let mut current = vec![0u64; desired.len()];
        for &f in nodes.iter().flatten() {
            current[f] += 1;
        }

        // 3. Remove surplus replicas, from the last nodes backwards (they
        //    are the most recently opened and emptiest on average).
        for node in nodes.iter_mut().rev() {
            node.retain(|&f| {
                if current[f] > desired[f] {
                    current[f] -= 1;
                    false
                } else {
                    true
                }
            });
        }

        // 4. Place the deficit: highest counts first, hash-scattered within
        //    a count class so physically adjacent fragments spread.
        let scatter = |f: usize| {
            let GlobalFragment { table, range } = globals[f];
            (range.start ^ range.end.rotate_left(17) ^ table.get().rotate_left(41))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        };
        let mut used: Vec<u64> = nodes
            .iter()
            .map(|node| node.iter().map(|&f| size_of(f)).sum())
            .collect();
        let mut deficit: Vec<(usize, u64)> = (0..desired.len())
            .filter(|&f| desired[f] > current[f])
            .map(|f| (f, desired[f] - current[f]))
            .collect();
        deficit.sort_by_key(|&(f, _)| (std::cmp::Reverse(desired[f]), scatter(f)));
        // The lost replicas again, by old fragment: `lost_on[i]` lists the
        // nodes that lost fragment `i`, each with a flag cleared once a
        // reclaim consumes it there.
        let mut lost_on: Vec<Vec<(usize, bool)>> = vec![Vec::new(); old.fragments.len()];
        for (n, lost) in removed.iter().enumerate() {
            for &i in lost {
                lost_on[i].push((n, true));
            }
        }
        let any_lost = removed.iter().any(|lost| !lost.is_empty());
        let mut gain = vec![0u64; nodes.len()];
        let mut touched: Vec<usize> = Vec::new();
        for (f, missing) in deficit {
            let g = &globals[f];
            let size = size_of(f);
            // The old fragments overlapping `f`: a contiguous run, as both
            // schemes tile each table in order. Searched only when some
            // replica was lost at all.
            let olds = if !any_lost {
                0..0
            } else {
                let lo = old
                    .fragments
                    .partition_point(|o| (o.table, o.range.end) <= (g.table, g.range.start));
                let n = old.fragments[lo..]
                    .iter()
                    .take_while(|o| o.table == g.table && o.range.start < g.range.end)
                    .count();
                lo..lo + n
            };
            for _ in 0..missing {
                // Prefer the node that just lost the most overlapping data
                // (it already stores most of these tuples); fall back to
                // first fit. Only nodes that lost an overlapping replica
                // still unclaimed score above zero.
                let fits = |n: usize| used[n] + size <= disk && !nodes[n].contains(&f);
                for i in olds.clone() {
                    let ov = overlap(&old.fragments[i], g);
                    for &(n, live) in &lost_on[i] {
                        if live {
                            if gain[n] == 0 {
                                touched.push(n);
                            }
                            gain[n] = gain[n].saturating_add(ov);
                        }
                    }
                }
                let slot = touched
                    .iter()
                    .map(|&n| (gain[n], n))
                    .filter(|&(ov, n)| ov > 0 && fits(n))
                    .max_by_key(|&(ov, n)| (ov, std::cmp::Reverse(n)))
                    .map(|(_, n)| n)
                    .or_else(|| (0..nodes.len()).find(|&n| fits(n)));
                for n in touched.drain(..) {
                    gain[n] = 0;
                }
                match slot {
                    Some(n) => {
                        nodes[n].push(f);
                        used[n] = used[n].saturating_add(size);
                        // The reclaimed overlap is no longer "lost" there.
                        if let Some(pos) = removed[n]
                            .iter()
                            .position(|&r| overlap(&old.fragments[r], g) > 0)
                        {
                            let r = removed[n].swap_remove(pos);
                            for entry in &mut lost_on[r] {
                                if entry.0 == n {
                                    entry.1 = false;
                                }
                            }
                        }
                    }
                    None => {
                        nodes.push(vec![f]);
                        used.push(size);
                        removed.push(Vec::new());
                    }
                }
            }
        }

        // 5. Evacuate under-filled nodes (< 25% of disk) whose contents fit
        //    elsewhere, so drift cannot slowly strand half-empty rentals.
        for n in (0..nodes.len()).rev() {
            if used[n] == 0 || used[n] >= disk / 4 {
                continue;
            }
            let mut moves: Vec<(usize, usize)> = Vec::new();
            let mut tentative = used.clone();
            let mut ok = true;
            for &f in &nodes[n] {
                let size = size_of(f);
                let target = (0..nodes.len()).find(|&m| {
                    m != n
                        && tentative[m] + size <= disk
                        && !nodes[m].contains(&f)
                        && !moves.contains(&(m, f))
                });
                match target {
                    Some(m) => {
                        tentative[m] += size;
                        moves.push((m, f));
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                for (m, f) in moves {
                    nodes[m].push(f);
                    used[m] = used[m].saturating_add(size_of(f));
                }
                nodes[n].clear();
                used[n] = 0;
            }
        }

        // 6. Drop empty nodes and persist the scheme for the next call.
        nodes.retain(|node| !node.is_empty());
        // The incremental packer is the only source of the `packing.*`
        // metrics: the from-scratch `pack_bffd` records none.
        nashdb_obs::gauge_set(Metric::PackingNodes, nodes.len() as f64);
        nashdb_obs::counter_add(
            Metric::PackingPlacements,
            nodes.iter().map(|node| node.len() as u64).sum(),
        );
        for node in &nodes {
            nashdb_obs::record(
                Metric::PackingNodeFillTuples,
                node.iter().map(|&f| size_of(f)).sum(),
            );
        }
        self.prev = Previous {
            fragments: globals.to_vec(),
            counts: desired,
            nodes: nodes.clone(),
        };
        nodes
    }

    /// The configuration in force.
    pub fn config(&self) -> &NashDbConfig {
        &self.cfg
    }
}

impl Distributor for NashDbDistributor {
    fn observe(&mut self, query: &QueryRequest) {
        // Eq. 1: split the query's price across its scans proportionally to
        // scan size, then feed each scan to its table's estimator.
        //
        // The per-tuple income a scan pays is Price(s)/Size(s); a scan much
        // smaller than a read block would pay an astronomically high rate
        // per tuple even though serving it still costs a block read (§2:
        // scans fetch whole blocks). Flooring the denominator at the block
        // size keeps one tiny scan in the window from spiking V(x) by
        // orders of magnitude and yo-yoing the cluster size.
        let block = self.cfg.max_fragment_tuples.min(self.cfg.spec.disk).max(1);
        let total: u64 = query.scans.iter().map(|s| s.size()).sum();
        for s in &query.scans {
            let table = &mut self.tables[usize_from(s.table.get())];
            let size = s.size();
            let effective = size.max(block.min(table.tuples));
            let price = query.price * size as f64 / total as f64 * (size as f64 / effective as f64);
            table
                .estimator
                .observe(PricedScan::new(s.start, s.end, price));
        }
    }

    fn scheme(&mut self) -> DistScheme {
        let _scheme = nashdb_obs::span(Span::Scheme);
        let (globals, decisions, from_old) = self.decide();
        let nodes = {
            let _place = nashdb_obs::span(Span::Place);
            self.place(&globals, &decisions, &from_old)
        };
        nashdb_obs::gauge_set(Metric::DistributorFragments, globals.len() as f64);
        nashdb_obs::gauge_set(Metric::DistributorNodes, nodes.len() as f64);
        if cfg!(debug_assertions) {
            let as_frags: Vec<Vec<FragmentId>> = nodes
                .iter()
                .map(|node| node.iter().map(|&i| FragmentId(i as u64)).collect())
                .collect();
            debug_assert_eq!(
                nashdb_core::audit::audit_packing(&as_frags, &decisions, self.cfg.spec.disk),
                Ok(()),
                "packing audit"
            );
        }
        DistScheme::new(globals, &nodes)
    }

    fn name(&self) -> &'static str {
        "nashdb"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nashdb_cluster::ScanRange;
    use nashdb_core::economics::check_equilibrium;
    use nashdb_core::fragment::FragmentRange;
    use nashdb_core::ids::TableId;
    use nashdb_core::replication::economic_config;
    use std::collections::BTreeMap;

    fn db() -> Database {
        Database::new([("fact", 1_000_000), ("dim", 10_000)])
    }

    fn query(price: f64, scans: &[(u64, u64, u64)]) -> QueryRequest {
        QueryRequest {
            price,
            scans: scans
                .iter()
                .map(|&(t, s, e)| ScanRange::new(TableId(t), s, e))
                .collect(),
            tag: 0,
        }
    }

    fn small_cfg() -> NashDbConfig {
        NashDbConfig {
            spec: NodeSpec::new(100.0, 600_000),
            max_frags_per_table: 16,
            ..NashDbConfig::default()
        }
    }

    /// A fragment's identity across reconfigurations, as the map-keyed
    /// placer persists it.
    type PlacementKey = (TableId, FragmentRange);

    /// How often each branch of the placement fired, so the twin test can
    /// insist its stream reached all of them.
    #[derive(Debug, Default)]
    struct Fired {
        /// Step 1: replicas of fragments the new scheme no longer has.
        lost: usize,
        /// Step 3: surplus replicas removed.
        surplus: usize,
        /// Step 4: deficit replicas put where overlapping data was lost.
        reclaimed: usize,
        /// Step 4: reclaims on a node that had lost two or more replicas
        /// overlapping the one placed, so which of them the reclaim
        /// consumes decides the node's later overlap sums.
        reclaimed_among_several: usize,
        /// Step 4: nodes opened because nothing fit.
        opened: usize,
        /// Step 5: under-filled nodes evacuated.
        evacuated: usize,
    }

    /// `place` as it was before it moved to dense fragment indices: every
    /// step keyed by [`PlacementKey`] through maps, only ever looked up.
    /// Kept verbatim (but for the `fired` tallies and the obs metrics, which
    /// it does not emit) as the oracle `place_matches_map_keyed_twin` drives
    /// beside the real one.
    struct MapKeyedPlacer {
        disk: u64,
        placement: Vec<Vec<PlacementKey>>,
        fired: Fired,
    }

    impl MapKeyedPlacer {
        fn place(
            &mut self,
            globals: &[GlobalFragment],
            decisions: &[ReplicationDecision],
        ) -> Vec<Vec<usize>> {
            let disk = self.disk;
            let key_of = |i: usize| (globals[i].table, globals[i].range);
            let mut desired: BTreeMap<PlacementKey, u64> = BTreeMap::new();
            let mut index: BTreeMap<PlacementKey, usize> = BTreeMap::new();
            for (i, d) in decisions.iter().enumerate() {
                desired.insert(key_of(i), d.replicas);
                index.insert(key_of(i), i);
            }
            let size_of = |k: &PlacementKey| k.1.size();

            // 1. Drop replicas of fragments that no longer exist, remembering
            //    what each node lost: a boundary shift renames a fragment, and
            //    the replacement should land where the old data already sits so
            //    the transition only ships the boundary delta.
            let mut removed: Vec<Vec<PlacementKey>> = Vec::with_capacity(self.placement.len());
            for node in &mut self.placement {
                let mut lost = Vec::new();
                node.retain(|k| {
                    if desired.contains_key(k) {
                        true
                    } else {
                        self.fired.lost += 1;
                        lost.push(*k);
                        false
                    }
                });
                removed.push(lost);
            }

            // 2. Current counts.
            let mut current: BTreeMap<PlacementKey, u64> = BTreeMap::new();
            for node in &self.placement {
                for k in node {
                    *current.entry(*k).or_default() += 1;
                }
            }

            // 3. Remove surplus replicas, from the last nodes backwards (they
            //    are the most recently opened and emptiest on average).
            for node in self.placement.iter_mut().rev() {
                node.retain(|k| {
                    // Every retained key was counted in step 2, so the lookup
                    // always succeeds; an absent key is simply kept.
                    let Some(cur) = current.get_mut(k) else {
                        return true;
                    };
                    if *cur > desired[k] {
                        self.fired.surplus += 1;
                        *cur -= 1;
                        false
                    } else {
                        true
                    }
                });
            }

            // 4. Place the deficit: highest counts first, hash-scattered within
            //    a count class so physically adjacent fragments spread.
            let scatter = |k: &PlacementKey| {
                (k.1.start ^ k.1.end.rotate_left(17) ^ k.0.get().rotate_left(41))
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            };
            let mut used: Vec<u64> = self
                .placement
                .iter()
                .map(|node| node.iter().map(size_of).sum())
                .collect();
            let mut deficit: Vec<(PlacementKey, u64)> = decisions
                .iter()
                .enumerate()
                .filter_map(|(i, d)| {
                    let k = key_of(i);
                    let have = current.get(&k).copied().unwrap_or(0);
                    (d.replicas > have).then_some((k, d.replicas - have))
                })
                .collect();
            deficit.sort_by_key(|(k, _)| (std::cmp::Reverse(desired[k]), scatter(k)));
            let overlap = |a: &PlacementKey, b: &PlacementKey| -> u64 {
                if a.0 == b.0 {
                    a.1.overlap(b.1.start, b.1.end)
                } else {
                    0
                }
            };
            for (k, missing) in deficit {
                let size = size_of(&k);
                for _ in 0..missing {
                    // Prefer the node that just lost the most overlapping data
                    // (it already stores most of these tuples); fall back to
                    // first fit.
                    let fits = |n: usize| used[n] + size <= disk && !self.placement[n].contains(&k);
                    let slot = (0..self.placement.len())
                        .filter(|&n| fits(n))
                        .map(|n| (removed[n].iter().map(|r| overlap(r, &k)).sum::<u64>(), n))
                        .filter(|&(ov, _)| ov > 0)
                        .max_by_key(|&(ov, n)| (ov, std::cmp::Reverse(n)))
                        .map(|(_, n)| n);
                    self.fired.reclaimed += usize::from(slot.is_some());
                    self.fired.reclaimed_among_several += usize::from(slot.is_some_and(|n| {
                        removed[n].iter().filter(|r| overlap(r, &k) > 0).count() >= 2
                    }));
                    let slot = slot.or_else(|| (0..self.placement.len()).find(|&n| fits(n)));
                    match slot {
                        Some(n) => {
                            self.placement[n].push(k);
                            used[n] = used[n].saturating_add(size);
                            // The reclaimed overlap is no longer "lost" there.
                            if let Some(pos) = removed[n].iter().position(|r| overlap(r, &k) > 0) {
                                removed[n].swap_remove(pos);
                            }
                        }
                        None => {
                            self.fired.opened += 1;
                            self.placement.push(vec![k]);
                            used.push(size);
                            removed.push(Vec::new());
                        }
                    }
                }
            }

            // 5. Evacuate under-filled nodes (< 25% of disk) whose contents fit
            //    elsewhere, so drift cannot slowly strand half-empty rentals.
            for n in (0..self.placement.len()).rev() {
                if used[n] == 0 || used[n] >= disk / 4 {
                    continue;
                }
                let mut moves: Vec<(usize, PlacementKey)> = Vec::new();
                let mut tentative = used.clone();
                let mut ok = true;
                for k in &self.placement[n] {
                    let size = size_of(k);
                    let target = (0..self.placement.len()).find(|&m| {
                        m != n
                            && tentative[m] + size <= disk
                            && !self.placement[m].contains(k)
                            && !moves.iter().any(|(t, mk)| *t == m && mk == k)
                    });
                    match target {
                        Some(m) => {
                            tentative[m] += size;
                            moves.push((m, *k));
                        }
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    self.fired.evacuated += 1;
                    for (m, k) in moves {
                        self.placement[m].push(k);
                        used[m] = used[m].saturating_add(size_of(&k));
                    }
                    self.placement[n].clear();
                    used[n] = 0;
                }
            }

            // 6. Drop empty nodes and emit global indices.
            self.placement.retain(|node| !node.is_empty());
            self.placement
                .iter()
                .map(|node| node.iter().map(|k| index[k]).collect())
                .collect()
        }
    }

    #[test]
    fn cold_start_scheme_covers_database() {
        let database = db();
        let mut nash = NashDbDistributor::new(&database, small_cfg());
        let s = nash.scheme();
        assert!(s.covers(&database));
        assert!(s.num_nodes() >= 1);
    }

    /// The scheme the pipeline emits, not the §6 construction alone: with
    /// no hysteresis history yet the counts are exact Eq. 9, and the
    /// incremental placer's packing of them is a Definition 6.1 equilibrium.
    #[test]
    fn cold_start_scheme_is_an_equilibrium() {
        let cfg = small_cfg();
        let mut nash = NashDbDistributor::new(&db(), cfg);
        for i in 0..20u64 {
            let lo = 11_000 * i % 900_000;
            let hi = lo + 80_000 + (i % 5) * 20_000;
            nash.observe(&query(2.0 + 3.0 * (i % 9) as f64, &[(0, lo, hi)]));
        }
        let (globals, decisions, from_old) = nash.decide();
        let nodes: Vec<Vec<FragmentId>> = nash
            .place(&globals, &decisions, &from_old)
            .iter()
            .map(|node| node.iter().map(|&f| FragmentId(f as u64)).collect())
            .collect();
        let policy =
            ReplicationPolicy::new(cfg.window, cfg.spec).with_max_replicas(cfg.max_replicas);
        let config = economic_config(&policy, &decisions, &nodes);
        assert_eq!(check_equilibrium(&config), Ok(()));
    }

    #[test]
    fn hot_range_gets_more_replicas() {
        let database = db();
        let mut nash = NashDbDistributor::new(&database, small_cfg());
        // Hammer the first 100k tuples of the fact table at a high price.
        for _ in 0..60 {
            nash.observe(&query(50.0, &[(0, 0, 100_000)]));
        }
        let s = nash.scheme();
        assert!(s.covers(&database));
        // Replicas hosting some part of the hot range vs a cold range.
        let replicas_touching = |lo: u64, hi: u64| -> usize {
            s.fragments()
                .iter()
                .enumerate()
                .filter(|(_, gf)| gf.table == TableId(0) && gf.range.overlap(lo, hi) > 0)
                .map(|(i, _)| s.hosts(i).len())
                .sum()
        };
        let hot = replicas_touching(0, 100_000);
        let cold = replicas_touching(500_000, 600_000);
        assert!(hot > cold, "hot range has {hot} replicas, cold has {cold}");
    }

    #[test]
    fn higher_prices_provision_more_nodes() {
        let database = db();
        let mut cheap = NashDbDistributor::new(&database, small_cfg());
        let mut pricey = NashDbDistributor::new(&database, small_cfg());
        for _ in 0..60 {
            cheap.observe(&query(1.0, &[(0, 0, 1_000_000)]));
            pricey.observe(&query(16.0, &[(0, 0, 1_000_000)]));
        }
        let n_cheap = cheap.scheme().num_nodes();
        let n_pricey = pricey.scheme().num_nodes();
        assert!(
            n_pricey > n_cheap,
            "pricey {n_pricey} <= cheap {n_cheap} nodes"
        );
    }

    #[test]
    fn eq1_splits_price_across_tables() {
        let database = db();
        let mut nash = NashDbDistributor::new(&database, small_cfg());
        // One query scanning both tables: the dim scan is 1% of the size,
        // so it carries ~1% of the price.
        for _ in 0..50 {
            nash.observe(&query(10.0, &[(0, 0, 990_000), (1, 0, 10_000)]));
        }
        let fact_est = &nash.tables[0].estimator;
        let dim_est = &nash.tables[1].estimator;
        let v_fact = fact_est.value_at(0, 1_000_000);
        let v_dim = dim_est.value_at(0, 10_000);
        // Per-tuple value is the same on both tables under Eq. 1.
        assert!(
            (v_fact - v_dim).abs() < 1e-12,
            "per-tuple values diverge: {v_fact} vs {v_dim}"
        );
    }

    #[test]
    fn fragments_fit_node_disk() {
        let database = db();
        let mut nash = NashDbDistributor::new(&database, small_cfg());
        let s = nash.scheme();
        for gf in s.fragments() {
            assert!(gf.range.size() <= 600_000);
        }
    }

    /// Dense-index `place` makes the decisions of the map-keyed one: fed
    /// the same fragments and replica counts call after call, both return
    /// the same node lists in the same order and persist the same placement.
    /// The stream moves a hot spot across two tables (boundaries shift, so
    /// replicas are lost and reclaimed), steps the price up and down around
    /// the ±25 % hysteresis band (replica counts flutter: surplus and
    /// deficit), and collapses demand (under-filled nodes are evacuated).
    #[test]
    fn place_matches_map_keyed_twin() {
        let database = db();
        let cfg = NashDbConfig {
            spec: NodeSpec::new(100.0, 200_000),
            max_frags_per_table: 24,
            greedy_rounds: 8,
            ..NashDbConfig::default()
        };
        let mut nash = NashDbDistributor::new(&database, cfg);
        let mut twin = MapKeyedPlacer {
            disk: cfg.spec.disk,
            placement: Vec::new(),
            fired: Fired::default(),
        };
        use nashdb_sim::SimRng;
        let mut rng = SimRng::seed_from_u64(19);
        for call in 0..260u64 {
            // Three sweeps of the hot spot; demand collapses for a stretch
            // of each, and the price steps every few calls in between.
            let collapsed = (60..80).contains(&(call % 87));
            let price = if collapsed {
                0.02
            } else {
                [40.0, 52.0, 40.0, 31.0][usize_from((call / 3) % 4)]
            };
            let centre = (call % 87) * 10_000;
            for _ in 0..rng.uniform_u64(4, 20) {
                let start = centre + rng.uniform_u64(0, 40_000);
                let dim = (call * 113 + rng.uniform_u64(0, 2_000)) % 8_000;
                let scans = [(0, start, start + 60_000), (1, dim, dim + 1_500)];
                nash.observe(&query(price, &scans));
            }
            let (globals, decisions, from_old) = nash.decide();
            let nodes = nash.place(&globals, &decisions, &from_old);
            let expect = twin.place(&globals, &decisions);
            assert_eq!(nodes, expect, "call {call}: returned node lists");
            let persisted: Vec<Vec<PlacementKey>> = nash
                .prev
                .nodes
                .iter()
                .map(|node| {
                    node.iter()
                        .map(|&i| {
                            let g = nash.prev.fragments[i];
                            (g.table, g.range)
                        })
                        .collect()
                })
                .collect();
            assert_eq!(
                persisted, twin.placement,
                "call {call}: persisted placement"
            );
        }
        let fired = &twin.fired;
        assert!(
            fired.lost > 0
                && fired.surplus > 0
                && fired.reclaimed > 0
                && fired.reclaimed_among_several > 0
                && fired.opened > 0
                && fired.evacuated > 0,
            "the stream missed a branch of the placement: {fired:?}"
        );
    }
}
