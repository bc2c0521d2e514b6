//! The SWORD-like *Hypergraph* baseline (paper §10.1, §10.3).
//!
//! SWORD models tuples as vertices and queries as hyperedges and cuts the
//! hypergraph into `k` balanced partitions breaking as few edges as
//! possible; leftover disk space is filled with replicas chosen to repair
//! broken edges ("Improved LMBR"). Our queries are *range scans over
//! ordered tables*, for which the min-cut balanced partition can be taken
//! contiguous: a hyperedge (scan) is broken exactly by the cut points that
//! fall strictly inside it, so choosing `k − 1` cut points minimizing the
//! number of scans they cross *is* the hypergraph cut objective. We solve
//! that exactly with dynamic programming under a balance constraint,
//! matching SWORD's balanced k-way cut on this workload class.
//!
//! The tuning knob, as in the paper, is the partition count (= node count):
//! more partitions → more nodes → more cost, less latency.

use std::collections::VecDeque;

use nashdb_cluster::QueryRequest;
use nashdb_core::fragment::{split_oversized, FragmentRange, Fragmentation};
use nashdb_core::num::{saturating_u64, usize_from};
use nashdb_workload::Database;

use nashdb::{DistScheme, Distributor, GlobalFragment};

/// Balance slack: every partition must hold between `avg/BALANCE` and
/// `avg × BALANCE` tuples (SWORD's ε-balanced partitioning).
const BALANCE: f64 = 2.0;

/// Contiguous min-cut partitioning of `[0, table_len)` into `parts` pieces,
/// where the cost of a cut point is the number of `scans` strictly crossing
/// it. Exact DP over candidate cut points (scan endpoints plus an
/// equal-width grid for balance feasibility).
///
/// # Panics
/// Panics if `parts` is zero or `table_len` is zero.
#[allow(clippy::needless_range_loop)] // index arithmetic *is* the DP
pub fn hypergraph_fragmentation(
    scans: &[(u64, u64)],
    table_len: u64,
    parts: usize,
) -> Fragmentation {
    assert!(parts > 0, "need at least one partition");
    assert!(table_len > 0, "cannot partition an empty table");
    let parts = parts.min(usize_from(table_len));
    if parts == 1 {
        return Fragmentation::single(table_len);
    }

    // Candidate cut points: scan endpoints inside the table plus a grid.
    let mut candidates: Vec<u64> = scans
        .iter()
        .flat_map(|&(s, e)| [s, e])
        .filter(|&p| p > 0 && p < table_len)
        .collect();
    for i in 1..(parts as u64 * 4) {
        let p = i * table_len / (parts as u64 * 4);
        if p > 0 && p < table_len {
            candidates.push(p);
        }
    }
    candidates.push(0);
    candidates.push(table_len);
    candidates.sort_unstable();
    candidates.dedup();

    // cross[i]: scans strictly containing candidates[i].
    let cross: Vec<u64> = candidates
        .iter()
        .map(|&p| scans.iter().filter(|&&(s, e)| s < p && p < e).count() as u64)
        .collect();

    let avg = table_len as f64 / parts as f64;
    let min_sz = saturating_u64((avg / BALANCE).floor());
    let max_sz = saturating_u64((avg * BALANCE).ceil());
    let feasible = |a: u64, b: u64| {
        let sz = b - a;
        sz >= min_sz.max(1) && sz <= max_sz
    };

    // dp[j][i]: min crossings placing j parts over candidates[..=i], with a
    // cut at candidates[i].
    let m = candidates.len();
    const INF: u64 = u64::MAX / 2;
    let mut dp = vec![INF; m];
    for (i, &c) in candidates.iter().enumerate() {
        if feasible(0, c) {
            dp[i] = 0; // cut cost counted when the cut is *interior*
        }
    }
    let mut choice = vec![vec![usize::MAX; m]; parts + 1];
    for j in 2..=parts {
        let mut next = vec![INF; m];
        for i in 0..m {
            for p in 0..i {
                if dp[p] == INF || !feasible(candidates[p], candidates[i]) {
                    continue;
                }
                let cand = dp[p] + cross[p];
                if cand < next[i] {
                    next[i] = cand;
                    choice[j][i] = p;
                }
            }
        }
        dp = next;
    }

    let last = m - 1;
    if dp[last] >= INF {
        // Balance-infeasible with these candidates: fall back to equal
        // width (the degenerate answer SWORD's ε-relaxation converges to).
        return Fragmentation::equal_width(table_len, parts);
    }
    let mut cuts = vec![table_len];
    let mut i = last;
    for j in (2..=parts).rev() {
        i = choice[j][i];
        cuts.push(candidates[i]);
    }
    cuts.push(0);
    cuts.sort_unstable();
    cuts.dedup();
    Fragmentation::from_boundaries(cuts)
}

/// The end-to-end Hypergraph distributor: global contiguous min-cut
/// partitions (one node each) plus span-repairing replication into leftover
/// disk space.
#[derive(Debug)]
pub struct HypergraphDistributor {
    db: Database,
    /// Partition count (the tuning knob; = primary node count).
    parts: usize,
    /// Node disk capacity in tuples.
    disk: u64,
    /// Recent scans in global coordinates.
    window: VecDeque<(u64, u64)>,
    capacity: usize,
    offsets: Vec<u64>,
    /// Read-block size: fragments within a partition are cut to at most
    /// this many tuples (a partition is the placement unit, a block the
    /// read unit — SWORD fetches tuples, not whole partitions).
    block: u64,
}

impl HypergraphDistributor {
    /// Creates the distributor with `parts` partitions, `disk`-tuple nodes,
    /// and a scan window of `window` scans.
    ///
    /// # Panics
    /// Panics if any partition could not fit on a node even at perfect
    /// balance (`parts` too small for the database).
    pub fn new(db: &Database, parts: usize, disk: u64, window: usize) -> Self {
        assert!(parts > 0 && disk > 0 && window > 0);
        let mut offsets = Vec::with_capacity(db.tables.len());
        let mut acc = 0;
        for t in &db.tables {
            offsets.push(acc);
            acc += t.tuples;
        }
        HypergraphDistributor {
            db: db.clone(),
            parts,
            disk,
            window: VecDeque::with_capacity(window),
            capacity: window,
            offsets,
            block: disk,
        }
    }

    /// Caps the read-block (fragment) size within each partition.
    pub fn with_block(mut self, block: u64) -> Self {
        assert!(block > 0, "block size must be nonzero");
        self.block = block;
        self
    }

    /// Splits a global tuple range at table boundaries (and then into
    /// read-block-sized pieces) into per-table fragments.
    fn global_to_fragments(&self, start: u64, end: u64) -> Vec<GlobalFragment> {
        let mut out = Vec::new();
        for (idx, t) in self.db.tables.iter().enumerate() {
            let off = self.offsets[idx];
            let lo = start.max(off);
            let hi = end.min(off + t.tuples);
            if lo < hi {
                let span = hi - lo;
                let pieces = span.div_ceil(self.block).max(1);
                for p in 0..pieces {
                    let a = lo + p * span / pieces;
                    let b = lo + (p + 1) * span / pieces;
                    if a < b {
                        out.push(GlobalFragment {
                            table: t.id,
                            range: FragmentRange::new(a - off, b - off),
                        });
                    }
                }
            }
        }
        out
    }
}

impl Distributor for HypergraphDistributor {
    fn observe(&mut self, query: &QueryRequest) {
        for s in &query.scans {
            let off = self.offsets[usize_from(s.table.get())];
            if self.window.len() == self.capacity {
                self.window.pop_front();
            }
            self.window.push_back((off + s.start, off + s.end));
        }
    }

    fn scheme(&mut self) -> DistScheme {
        let total = self.db.total_tuples();
        let scans: Vec<(u64, u64)> = self.window.iter().copied().collect();
        let partition = hypergraph_fragmentation(&scans, total, self.parts);
        let partition = split_oversized(&partition, self.disk);

        // Each partition piece -> fragments (cut at table boundaries), all
        // primary on one node per *original* partition piece.
        let mut fragments: Vec<GlobalFragment> = Vec::new();
        let mut nodes: Vec<Vec<usize>> = Vec::new();
        let mut node_used: Vec<u64> = Vec::new();
        let mut node_ranges: Vec<(u64, u64)> = Vec::new(); // global primary range
        for r in partition.ranges() {
            let mut holding = Vec::new();
            for gf in self.global_to_fragments(r.start, r.end) {
                holding.push(fragments.len());
                fragments.push(gf);
            }
            node_used.push(r.size());
            node_ranges.push((r.start, r.end));
            nodes.push(holding);
        }

        // Improved-LMBR-style replication: fill leftover disk with replicas
        // that repair broken edges. Benefit of hosting fragment f on node n:
        // number of windowed scans touching both n's primary range and f.
        let frag_global: Vec<(u64, u64)> = fragments
            .iter()
            .map(|gf| {
                let off = self.offsets[usize_from(gf.table.get())];
                (off + gf.range.start, off + gf.range.end)
            })
            .collect();
        let overlaps = |a: (u64, u64), b: (u64, u64)| a.0 < b.1 && b.0 < a.1;
        let mut pairs: Vec<(u64, usize, usize)> = Vec::new(); // (benefit, node, frag)
        for (n, &nr) in node_ranges.iter().enumerate() {
            for (f, &fr) in frag_global.iter().enumerate() {
                if nodes[n].contains(&f) {
                    continue;
                }
                let benefit = scans
                    .iter()
                    .filter(|&&(s, e)| overlaps((s, e), nr) && overlaps((s, e), fr))
                    .count() as u64;
                if benefit > 0 {
                    pairs.push((benefit, n, f));
                }
            }
        }
        pairs.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        for (_, n, f) in pairs {
            let size = fragments[f].range.size();
            if node_used[n] + size <= self.disk && !nodes[n].contains(&f) {
                nodes[n].push(f);
                node_used[n] = node_used[n].saturating_add(size);
            }
        }

        DistScheme::new(fragments, &nodes)
    }

    fn name(&self) -> &'static str {
        "hypergraph"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nashdb_cluster::ScanRange;
    use nashdb_core::ids::TableId;

    #[test]
    fn cuts_avoid_crossing_hot_scans() {
        // Scans repeatedly read [40, 60): with 2 parts, the cut should not
        // fall inside that range.
        let scans: Vec<(u64, u64)> = (0..20).map(|_| (40, 60)).collect();
        let f = hypergraph_fragmentation(&scans, 100, 2);
        let cut = f.boundaries()[1];
        assert!(!(40 < cut && cut < 60), "cut {cut} crosses the hot scan");
    }

    #[test]
    fn partitions_are_balanced() {
        let scans = vec![(0, 100), (10, 20), (80, 90)];
        let f = hypergraph_fragmentation(&scans, 1_000, 4);
        assert_eq!(f.len(), 4);
        let avg = 250.0;
        for r in f.ranges() {
            assert!(
                (r.size() as f64) <= avg * BALANCE + 1.0
                    && (r.size() as f64) >= avg / BALANCE - 1.0,
                "unbalanced partition {r}"
            );
        }
    }

    #[test]
    fn no_scans_degenerates_gracefully() {
        let f = hypergraph_fragmentation(&[], 100, 4);
        assert_eq!(f.len(), 4);
        assert_eq!(f.table_len(), 100);
    }

    #[test]
    fn single_part_is_whole_table() {
        let f = hypergraph_fragmentation(&[(0, 10)], 100, 1);
        assert_eq!(f.boundaries(), &[0, 100]);
    }

    fn db() -> Database {
        Database::new([("a", 60_000), ("b", 40_000)])
    }

    fn query(scans: &[(u64, u64, u64)]) -> QueryRequest {
        QueryRequest {
            price: 1.0,
            scans: scans
                .iter()
                .map(|&(t, s, e)| ScanRange::new(TableId(t), s, e))
                .collect(),
            tag: 0,
        }
    }

    #[test]
    fn distributor_scheme_covers_database() {
        let database = db();
        let mut h = HypergraphDistributor::new(&database, 4, 60_000, 50);
        for _ in 0..20 {
            h.observe(&query(&[(0, 0, 30_000), (1, 0, 10_000)]));
        }
        let s = h.scheme();
        assert!(s.covers(&database));
        assert!(s.num_nodes() >= 4);
    }

    #[test]
    fn replication_fills_free_space_for_hot_edges() {
        let database = db();
        // Big disks: lots of leftover space for repair replicas.
        let mut h = HypergraphDistributor::new(&database, 4, 90_000, 50);
        for _ in 0..30 {
            h.observe(&query(&[(0, 0, 60_000)])); // spans many partitions
        }
        let s = h.scheme();
        assert!(
            s.total_replicas() > s.fragments().len(),
            "no repair replicas were added"
        );
    }

    #[test]
    fn more_parts_more_nodes() {
        let database = db();
        let mut small = HypergraphDistributor::new(&database, 2, 60_000, 50);
        let mut big = HypergraphDistributor::new(&database, 8, 60_000, 50);
        let q = query(&[(0, 0, 30_000)]);
        for _ in 0..10 {
            small.observe(&q);
            big.observe(&q);
        }
        assert!(big.scheme().num_nodes() > small.scheme().num_nodes());
    }
}
