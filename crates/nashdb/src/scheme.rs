//! Distribution schemes and the system-under-evaluation interface.

use nashdb_cluster::{QueryRequest, ScanRange};
use nashdb_core::fragment::FragmentRange;
use nashdb_core::ids::{FragmentId, NodeId, TableId};
use nashdb_core::num::usize_from;
use nashdb_core::routing::{run_of, FragmentRequest};
use nashdb_core::transition::{IntervalSet, Side};
use nashdb_workload::Database;

/// A fragment identified across all tables of the database: its table plus
/// its tuple range within that table. A scheme's fragments are indexed
/// densely; the index doubles as the routing-level [`FragmentId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalFragment {
    /// The owning table.
    pub table: TableId,
    /// Tuple range within the table.
    pub range: FragmentRange,
}

/// Part of a scanned range lies in no fragment of the scheme, so the scan
/// has no decomposition into fragment reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UncoveredScan {
    /// The scan crosses a hole before or between fragments.
    Gap {
        /// The offending scan.
        scan: ScanRange,
        /// The first tuple no fragment holds.
        at: u64,
    },
    /// The scan runs past its table's last fragment, or its table has none.
    /// The scan is checked, so the scheme stops short of the table's end.
    PastEnd {
        /// The offending scan.
        scan: ScanRange,
        /// Where coverage stops.
        covered: u64,
    },
}

impl std::fmt::Display for UncoveredScan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (UncoveredScan::Gap { scan, .. } | UncoveredScan::PastEnd { scan, .. }) = self;
        write!(
            f,
            "scan {}..{} of table {} ",
            scan.start, scan.end, scan.table
        )?;
        match self {
            UncoveredScan::Gap { at, .. } => write!(f, "hits a fragmentation gap at {at}"),
            UncoveredScan::PastEnd { covered, .. } => {
                write!(f, "extends past the fragmented region ({covered})")
            }
        }
    }
}

/// The fragment requests of a batch of queries, built in place by
/// [`DistScheme::append_query`] and reused from batch to batch: the pooled
/// requests keep their candidate lists' capacity and the dedup table is
/// stamped, not refilled, so a warm buffer takes a query without allocating.
/// Query `i` of the batch owns `requests()[ends()[i - 1]..ends()[i]]`.
#[derive(Debug, Default)]
pub(crate) struct RequestBuf {
    /// The batch's requests are the first `used`; the rest are spares kept
    /// for their candidate lists.
    pool: Vec<FragmentRequest>,
    used: usize,
    /// Per query of the batch, where its requests end.
    ends: Vec<usize>,
    /// Per fragment of the scheme, the query that last requested it and the
    /// request's slot in `pool`: one request per fragment per query.
    seen: Vec<(u64, usize)>,
    /// Stamp of the query being appended. Stamps only grow, so an entry a
    /// previous query — or a previous scheme — left in `seen` never matches.
    query: u64,
}

impl RequestBuf {
    /// Forgets the previous batch.
    pub(crate) fn start_batch(&mut self) {
        self.used = 0;
        self.ends.clear();
    }

    /// Every request of the batch, query after query.
    pub(crate) fn requests(&self) -> &[FragmentRequest] {
        &self.pool[..self.used]
    }

    /// Where each query's requests end in [`requests`](Self::requests).
    pub(crate) fn ends(&self) -> &[usize] {
        &self.ends
    }

    /// The requests of query `i` of the batch (empty for a query that has
    /// none, or for an `i` past the batch).
    pub(crate) fn query(&self, i: usize) -> &[FragmentRequest] {
        run_of(&self.pool, &self.ends, i)
    }

    /// The batch's requests as an owned list, for the allocating adapters.
    fn into_requests(mut self) -> Vec<FragmentRequest> {
        self.pool.truncate(self.used);
        self.pool
    }

    /// Opens the next query of the batch under a scheme of `fragments`
    /// fragments; [`end_query`](Self::end_query) closes it.
    fn begin_query(&mut self, fragments: usize) {
        if self.seen.len() != fragments {
            self.seen.resize(fragments, (0, 0));
        }
        self.query = self.query.wrapping_add(1);
    }

    /// Closes the open query. Unless it is `live`, it keeps none of its
    /// requests and is an empty scan of the batch.
    fn end_query(&mut self, live: bool) {
        if !live {
            self.used = self.ends.last().copied().unwrap_or(0);
        }
        self.ends.push(self.used);
    }

    /// Adds a read of `size` tuples of fragment `f` (`cap` tuples long,
    /// hosted on `hosts`) to the open query: a new request listing the hosts
    /// `alive` accepts, or more tuples on the request the query already has
    /// for `f` (capped at the fragment — overlapping scans do not re-read).
    /// `false` if the fragment has no live host.
    fn read(
        &mut self,
        f: usize,
        size: u64,
        cap: u64,
        hosts: &[NodeId],
        alive: impl Fn(NodeId) -> bool,
    ) -> bool {
        let (query, slot) = self.seen[f];
        if query == self.query {
            let request = &mut self.pool[slot];
            request.size = request.size.saturating_add(size).min(cap);
            return true;
        }
        self.seen[f] = (self.query, self.used);
        if self.used == self.pool.len() {
            self.pool.push(FragmentRequest {
                fragment: FragmentId(0),
                size: 0,
                candidates: Vec::with_capacity(hosts.len()),
            });
        }
        let request = &mut self.pool[self.used];
        self.used += 1;
        request.fragment = FragmentId(f as u64);
        request.size = size;
        request.candidates.clear();
        request.candidates.extend_from_slice(hosts);
        request.candidates.retain(|&n| alive(n));
        !request.candidates.is_empty()
    }
}

/// A complete data distribution: every fragment of every table, and which
/// node hosts which replicas. This is what each *system* (NashDB or a
/// baseline) hands the driver at every reconfiguration.
#[derive(Debug, Clone)]
pub struct DistScheme {
    fragments: Vec<GlobalFragment>,
    nodes: usize,
    /// Fragment `f` is hosted by `hosts[host_starts[f]..host_starts[f + 1]]`,
    /// in ascending node order (CSR).
    host_starts: Vec<usize>,
    hosts: Vec<NodeId>,
    /// Fragment indices sorted by `(table, range start)`: a table's
    /// fragments are one run of it, in tuple order (for scan lookup).
    by_start: Vec<usize>,
}

impl DistScheme {
    /// Builds and validates a scheme.
    ///
    /// # Panics
    /// Panics if a fragment is hosted nowhere, a node hosts the same
    /// fragment twice, or a table's fragments overlap.
    pub fn new(fragments: Vec<GlobalFragment>, nodes: &[Vec<usize>]) -> Self {
        // Count each fragment's hosts, then place them in node order.
        let mut host_starts = vec![0usize; fragments.len() + 1];
        for (n, frags) in nodes.iter().enumerate() {
            for &f in frags {
                assert!(f < fragments.len(), "node {n} hosts unknown fragment {f}");
                host_starts[f + 1] += 1;
            }
        }
        for f in 1..host_starts.len() {
            host_starts[f] = host_starts[f].saturating_add(host_starts[f - 1]);
        }
        let mut hosts = vec![NodeId(0); host_starts[fragments.len()]];
        let mut filled = host_starts.clone();
        for (n, frags) in nodes.iter().enumerate() {
            let node = NodeId(n as u64);
            for &f in frags {
                // Nodes are visited in order, so if this node already hosts
                // `f` it is the last host placed.
                assert!(
                    filled[f] == host_starts[f] || hosts[filled[f] - 1] != node,
                    "node {n} hosts fragment {f} twice"
                );
                hosts[filled[f]] = node;
                filled[f] += 1;
            }
        }
        for (f, h) in host_starts.windows(2).enumerate() {
            assert!(h[0] < h[1], "fragment {f} has no replicas");
        }
        let mut by_start: Vec<usize> = (0..fragments.len()).collect();
        by_start.sort_by_key(|&i| (fragments[i].table, fragments[i].range.start));
        for w in by_start.windows(2) {
            let (a, b) = (&fragments[w[0]], &fragments[w[1]]);
            assert!(
                a.table != b.table || a.range.end <= b.range.start,
                "fragments of table {} overlap",
                a.table
            );
        }
        DistScheme {
            fragments,
            nodes: nodes.len(),
            host_starts,
            hosts,
            by_start,
        }
    }

    /// Number of nodes the scheme provisions.
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// All fragments, by dense index.
    pub fn fragments(&self) -> &[GlobalFragment] {
        &self.fragments
    }

    /// Total replicas across the scheme.
    pub fn total_replicas(&self) -> usize {
        self.hosts.len()
    }

    /// The nodes hosting fragment index `f`.
    pub fn hosts(&self, f: usize) -> &[NodeId] {
        &self.hosts[self.host_starts[f]..self.host_starts[f + 1]]
    }

    /// All fragment requests for a query: one request per overlapped
    /// fragment, reading the scans' overlap with it. Two scans touching the
    /// same fragment issue one request whose size is the summed overlap,
    /// capped at the fragment size (overlapping scans do not re-read). A read
    /// is the overlap, not the whole fragment: the paper's fragments are
    /// disk-block sized, ours can be far larger than a block, and charging
    /// the full fragment would bill a sliver scan for megabytes it never
    /// reads.
    ///
    /// # Panics
    /// Panics if part of a scanned range is not covered by any fragment — a
    /// scheme must cover every tuple a query can touch. The serving path
    /// takes the error instead.
    pub fn requests_for_query(&self, query: &QueryRequest) -> Vec<FragmentRequest> {
        let mut buf = RequestBuf::default();
        let uncovered = self.append_query(query, |_| true, &mut buf).err();
        assert!(
            uncovered.is_none(),
            "{}",
            uncovered.map_or_else(String::new, |e| e.to_string())
        );
        buf.into_requests()
    }

    /// [`requests_for_query`](Self::requests_for_query) in place, for a
    /// caller that serves query after query: appends `query` to the batch in
    /// `buf` as its next scan, listing per request only the hosts `alive`
    /// accepts. `Ok(false)` means some fragment the query reads has no live
    /// host; such a query, like one that is not covered, joins the batch as
    /// an empty scan.
    pub(crate) fn append_query(
        &self,
        query: &QueryRequest,
        alive: impl Fn(NodeId) -> bool,
        buf: &mut RequestBuf,
    ) -> Result<bool, UncoveredScan> {
        buf.begin_query(self.fragments.len());
        let mut live = Ok(true);
        for scan in &query.scans {
            live = self.append_scan(scan, &alive, buf);
            if live != Ok(true) {
                break;
            }
        }
        buf.end_query(live == Ok(true));
        live
    }

    /// The one scan → fragments decomposition: walks the fragments `scan`
    /// overlaps, in tuple order, adding a read of each overlap to the query
    /// open in `buf`. Stops at the first fragment without a live host
    /// (`Ok(false)`) or the first uncovered tuple.
    fn append_scan(
        &self,
        scan: &ScanRange,
        alive: impl Fn(NodeId) -> bool,
        buf: &mut RequestBuf,
    ) -> Result<bool, UncoveredScan> {
        let mut covered = scan.start;
        // A table with no fragments at all finds an empty run and reports
        // its whole range uncovered below.
        let first = self.by_start.partition_point(|&i| {
            let f = &self.fragments[i];
            (f.table, f.range.end) <= (scan.table, scan.start)
        });
        for &i in &self.by_start[first..] {
            let GlobalFragment { table, range } = self.fragments[i];
            if table != scan.table || range.start >= scan.end {
                break;
            }
            if range.start > covered {
                return Err(UncoveredScan::Gap {
                    scan: *scan,
                    at: covered,
                });
            }
            covered = range.end;
            let size = range.overlap(scan.start, scan.end);
            if !buf.read(i, size, range.size(), self.hosts(i), &alive) {
                return Ok(false);
            }
        }
        if covered < scan.end {
            return Err(UncoveredScan::PastEnd {
                scan: *scan,
                covered,
            });
        }
        Ok(true)
    }

    /// The scheme as one side of a transition: its fragments in *global*
    /// coordinates (tables laid out end to end, each fragment inside its
    /// table), in `(table, start)` order, held by their hosts.
    pub fn transition_side(&self, db: &Database) -> Side {
        let offsets = table_offsets(db);
        let mut side = Side::with_capacity(self.nodes, self.by_start.len(), self.hosts.len());
        for &f in &self.by_start {
            let GlobalFragment { table, range } = self.fragments[f];
            let off = offsets[usize_from(table.get())];
            let hosts = self.hosts(f).iter().map(|n| n.index());
            side.push(off + range.start, off + range.end, hosts);
        }
        side
    }

    /// The data of [`transition_side`](Self::transition_side) as per-node sets.
    pub fn node_intervals(&self, db: &Database) -> Vec<IntervalSet> {
        let offsets = table_offsets(db);
        let mut runs = vec![Vec::new(); self.nodes];
        for (f, &GlobalFragment { table, range }) in self.fragments.iter().enumerate() {
            let off = offsets[usize_from(table.get())];
            for n in self.hosts(f) {
                runs[n.index()].push((off + range.start, off + range.end));
            }
        }
        runs.into_iter().map(IntervalSet::from_intervals).collect()
    }

    /// Checks that every tuple of every table is covered by some fragment.
    pub fn covers(&self, db: &Database) -> bool {
        db.tables.iter().all(|t| {
            let first = self
                .by_start
                .partition_point(|&i| self.fragments[i].table < t.id);
            let mut covered = 0;
            for &i in &self.by_start[first..] {
                let GlobalFragment { table, range } = self.fragments[i];
                if table != t.id {
                    break;
                }
                if range.start > covered {
                    return false;
                }
                covered = covered.max(range.end);
            }
            covered >= t.tuples
        })
    }
}

/// Global tuple offset of each table (tables laid out end to end).
pub(crate) fn table_offsets(db: &Database) -> Vec<u64> {
    let mut offsets = Vec::with_capacity(db.tables.len());
    let mut acc = 0;
    for t in &db.tables {
        offsets.push(acc);
        acc += t.tuples;
    }
    offsets
}

/// A system under evaluation: it watches the query stream and produces a
/// distribution scheme on demand. `Send`, because the driver runs it on a
/// thread of its own beside the serving loop.
pub trait Distributor: Send {
    /// Folds one arrived query into the system's statistics. The query is
    /// checked: it passes [`Database::check_query`] against the database
    /// the system was built for, as every query the driver hands over does.
    fn observe(&mut self, query: &QueryRequest);

    /// Computes the distribution scheme the system currently wants.
    fn scheme(&mut self) -> DistScheme;

    /// Name for experiment output.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_table_db() -> Database {
        Database::new([("a", 100), ("b", 50)])
    }

    fn gf(table: u64, start: u64, end: u64) -> GlobalFragment {
        GlobalFragment {
            table: TableId(table),
            range: FragmentRange::new(start, end),
        }
    }

    fn one_scan(table: u64, start: u64, end: u64) -> QueryRequest {
        QueryRequest {
            price: 1.0,
            scans: vec![ScanRange::new(TableId(table), start, end)],
            tag: 0,
        }
    }

    fn scheme() -> DistScheme {
        // Table a: [0,60) f0, [60,100) f1. Table b: [0,50) f2.
        DistScheme::new(
            vec![gf(0, 0, 60), gf(0, 60, 100), gf(1, 0, 50)],
            &[vec![0, 2], vec![1, 0]],
        )
    }

    #[test]
    fn hosts_are_collected() {
        let s = scheme();
        assert_eq!(s.hosts(0), &[NodeId(0), NodeId(1)]);
        assert_eq!(s.hosts(1), &[NodeId(1)]);
        assert_eq!(s.num_nodes(), 2);
        assert_eq!(s.total_replicas(), 4);
    }

    #[test]
    fn hosts_are_ascending_whatever_order_nodes_list_them_in() {
        // Node 3 hosts nothing; nodes list their fragments in any order.
        let s = DistScheme::new(
            vec![gf(0, 0, 10), gf(0, 10, 20), gf(0, 20, 30)],
            &[vec![2, 0], vec![1], vec![0, 2, 1], vec![], vec![1]],
        );
        let ids = |ns: &[u64]| ns.iter().map(|&n| NodeId(n)).collect::<Vec<_>>();
        assert_eq!(s.hosts(0), ids(&[0, 2]));
        assert_eq!(s.hosts(1), ids(&[1, 2, 4]));
        assert_eq!(s.hosts(2), ids(&[0, 2]));
        assert_eq!(s.total_replicas(), 7);
    }

    #[test]
    fn transition_side_plans_like_node_intervals() {
        use nashdb_core::transition::{plan_sides, plan_transition};
        let db = two_table_db();
        // Fragments given out of `(table, start)` order, one node empty.
        let other = DistScheme::new(
            vec![gf(1, 0, 50), gf(0, 30, 100), gf(0, 0, 30)],
            &[vec![1, 2], vec![], vec![0, 2], vec![0]],
        );
        for (old, new) in [(scheme(), other.clone()), (other, scheme())] {
            let sides = plan_sides(&old.transition_side(&db), &new.transition_side(&db));
            let sets = plan_transition(&old.node_intervals(&db), &new.node_intervals(&db));
            assert_eq!(sides, sets);
        }
    }

    #[test]
    fn scan_decomposes_into_overlaps() {
        let s = scheme();
        let reqs = s.requests_for_query(&one_scan(0, 50, 70));
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].fragment, FragmentId(0));
        assert_eq!(reqs[0].size, 10); // overlap with [0, 60)
        assert_eq!(reqs[1].fragment, FragmentId(1));
        assert_eq!(reqs[1].size, 10); // overlap with [60, 100)
    }

    #[test]
    fn query_overlaps_accumulate_and_cap() {
        let s = scheme();
        let q = QueryRequest {
            price: 1.0,
            scans: vec![
                ScanRange::new(TableId(0), 0, 30),
                ScanRange::new(TableId(0), 10, 60), // overlaps the first scan
            ],
            tag: 0,
        };
        let reqs = s.requests_for_query(&q);
        assert_eq!(reqs.len(), 1);
        // 30 + 50 = 80 summed overlap, capped at fragment size 60.
        assert_eq!(reqs[0].size, 60);
    }

    #[test]
    fn query_requests_deduplicate() {
        let s = scheme();
        let q = QueryRequest {
            price: 1.0,
            scans: vec![
                ScanRange::new(TableId(0), 0, 10),
                ScanRange::new(TableId(0), 20, 30),
                ScanRange::new(TableId(1), 0, 5),
            ],
            tag: 0,
        };
        let reqs = s.requests_for_query(&q);
        // Both table-a scans hit fragment 0; it is fetched once.
        assert_eq!(reqs.len(), 2);
    }

    #[test]
    fn node_intervals_use_global_offsets() {
        let s = scheme();
        let db = two_table_db();
        let iv = s.node_intervals(&db);
        // Node 0 holds a[0,60) and b[0,50) -> global [0,60) and [100,150).
        assert_eq!(iv[0].runs(), &[(0, 60), (100, 150)]);
        // Node 1 holds a[60,100) and a[0,60) -> merged [0,100).
        assert_eq!(iv[1].runs(), &[(0, 100)]);
    }

    #[test]
    fn coverage_check() {
        let db = two_table_db();
        assert!(scheme().covers(&db));
        let partial = DistScheme::new(vec![gf(0, 0, 60), gf(1, 0, 50)], &[vec![0, 1]]);
        assert!(!partial.covers(&db));
    }

    #[test]
    #[should_panic(expected = "no replicas")]
    fn unhosted_fragment_rejected() {
        let _ = DistScheme::new(vec![gf(0, 0, 10)], &[vec![]]);
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn duplicate_replica_rejected() {
        let _ = DistScheme::new(vec![gf(0, 0, 10)], &[vec![0, 0]]);
    }

    #[test]
    #[should_panic(expected = "node 0 hosts fragment 0 twice")]
    fn replica_listed_twice_apart_rejected() {
        let _ = DistScheme::new(vec![gf(0, 0, 10), gf(0, 10, 20)], &[vec![0, 1, 0]]);
    }

    #[test]
    #[should_panic(expected = "fragment 1 has no replicas")]
    fn unhosted_middle_fragment_rejected() {
        let frags = vec![gf(0, 0, 10), gf(0, 10, 20), gf(0, 20, 30)];
        let _ = DistScheme::new(frags, &[vec![0], vec![2, 0]]);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_fragments_rejected() {
        let _ = DistScheme::new(vec![gf(0, 0, 10), gf(0, 5, 15)], &[vec![0, 1]]);
    }

    #[test]
    #[should_panic(expected = "gap")]
    fn scan_over_gap_panics() {
        let s = DistScheme::new(vec![gf(0, 0, 10), gf(0, 20, 30)], &[vec![0, 1]]);
        let _ = s.requests_for_query(&one_scan(0, 5, 25));
    }
}
