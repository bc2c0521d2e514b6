//! # nashdb-workload
//!
//! The workloads of the paper's evaluation (§10 + Appendix F), regenerated
//! synthetically at the interface NashDB actually consumes: *streams of
//! priced range scans over ordered tables*.
//!
//! * [`tpch`] — a TPC-H-like batch: the 22 templates' scan footprints over a
//!   schema with the benchmark's table-cardinality ratios.
//! * [`bernoulli`] — the paper's time-series analysis workload: every query
//!   ends at the last tuple of the fact table and reaches back a
//!   geometrically distributed number of gigabytes (95 % touch the last GB,
//!   `100·(19/20)ⁿ` % touch the n-th GB from the end).
//! * [`random`] — uniformly random aggregated range queries (dynamic).
//! * [`realistic`] — synthetic analogues of the proprietary "Real data 1/2"
//!   workloads, matched to the summary statistics the paper publishes in
//!   Table 1 (database size, query count, median/min bytes read) with
//!   drifting hot spots in the dynamic variants.
//! * [`trace`] — save/load any workload as a portable text trace.
//! * [`matrix`] — the scenario-matrix workload axis: generator × drift
//!   cells buildable deterministically from a seed.
//!
//! All generators are deterministic under a fixed seed. One "gigabyte" is
//! [`TUPLES_PER_GB`] tuples throughout.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bernoulli;
pub mod matrix;
pub mod random;
pub mod realistic;
pub mod tpch;
pub mod trace;

use nashdb_cluster::{QueryRequest, ScanRange};
use nashdb_core::ids::TableId;
use nashdb_sim::SimTime;

/// Tuples per simulated gigabyte (a 1 KB tuple). Sizes in the paper are
/// quoted in GB/TB; all generators convert through this constant.
pub const TUPLES_PER_GB: u64 = 1_000_000;

/// One table of a workload's database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableSpec {
    /// The table's id (dense, starting at 0).
    pub id: TableId,
    /// Its cardinality in tuples (physical order assumed, as in the paper).
    pub tuples: u64,
    /// Human-readable name for reports.
    pub name: &'static str,
}

/// The database a workload runs against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Database {
    /// All tables, indexed by `TableId`.
    pub tables: Vec<TableSpec>,
}

impl Database {
    /// Builds a database, assigning dense table ids.
    pub fn new(tables: impl IntoIterator<Item = (&'static str, u64)>) -> Self {
        let tables: Vec<TableSpec> = tables
            .into_iter()
            .enumerate()
            .map(|(i, (name, tuples))| {
                assert!(tuples > 0, "table {name} is empty");
                TableSpec {
                    id: TableId(i as u64),
                    tuples,
                    name,
                }
            })
            .collect();
        assert!(!tables.is_empty(), "database needs at least one table");
        Database { tables }
    }

    /// Total tuples across all tables.
    pub fn total_tuples(&self) -> u64 {
        self.tables.iter().map(|t| t.tuples).sum()
    }

    /// The largest table (the "fact table" of the scan-heavy workloads).
    pub fn fact_table(&self) -> &TableSpec {
        let Some(t) = self.tables.iter().max_by_key(|t| t.tuples) else {
            unreachable!("the constructor rejects empty databases")
        };
        t
    }

    /// The one definition of a valid query: at least one scan, each of a
    /// table of this database with `start < end <= tuples`, and a finite,
    /// nonnegative price. The driver checks every query with it.
    ///
    /// # Errors
    /// The first rule `query` breaks, in that order.
    pub fn check_query(&self, query: &QueryRequest) -> Result<(), QueryError> {
        if query.scans.is_empty() {
            return Err(QueryError::NoScans);
        }
        for &scan in &query.scans {
            let table = self
                .tables
                .get(scan.table.index())
                .ok_or(QueryError::UnknownTable(scan.table))?;
            if scan.start >= scan.end || scan.end > table.tuples {
                return Err(QueryError::OutOfRange(scan));
            }
        }
        if !(query.price.is_finite() && query.price >= 0.0) {
            return Err(QueryError::Price(query.price));
        }
        Ok(())
    }
}

/// Why [`Database::check_query`] refused a query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryError {
    /// The query has no scans.
    NoScans,
    /// A scan names a table the database does not have.
    UnknownTable(TableId),
    /// A scan is empty or runs past the end of its table.
    OutOfRange(ScanRange),
    /// The price is NaN, infinite or negative.
    Price(f64),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            QueryError::NoScans => write!(f, "query has no scans"),
            QueryError::UnknownTable(table) => write!(f, "scan of unknown table {table}"),
            QueryError::OutOfRange(s) => write!(
                f,
                "scan {}..{} out of range: empty or beyond table {}",
                s.start, s.end, s.table
            ),
            QueryError::Price(price) => write!(f, "price {price} must be finite and nonnegative"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A query with its arrival time.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedQuery {
    /// Arrival time.
    pub at: SimTime,
    /// The query.
    pub query: QueryRequest,
}

/// A complete workload: a database and a time-ordered query stream.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name (for reports).
    pub name: String,
    /// The database scanned.
    pub db: Database,
    /// Queries sorted by arrival time.
    pub queries: Vec<TimedQuery>,
}

impl Workload {
    /// Asserts that the queries are sorted by arrival and each passes
    /// [`Database::check_query`]; generators return `validated()` workloads.
    pub fn validated(self) -> Self {
        assert!(
            self.queries.windows(2).all(|w| w[0].at <= w[1].at),
            "queries must be sorted by arrival"
        );
        for (i, tq) in self.queries.iter().enumerate() {
            let checked = self.db.check_query(&tq.query).map_err(|e| e.to_string());
            assert_eq!(checked, Ok(()), "query {i}");
        }
        self
    }

    /// Total tuples read by all queries.
    pub fn total_read(&self) -> u64 {
        self.queries
            .iter()
            .flat_map(|tq| tq.query.scans.iter())
            .map(|s| s.size())
            .sum()
    }

    /// Per-query tuples read, sorted ascending (for Table 1 statistics).
    pub fn reads_sorted(&self) -> Vec<u64> {
        let mut reads: Vec<u64> = self
            .queries
            .iter()
            .map(|tq| tq.query.scans.iter().map(|s| s.size()).sum())
            .collect();
        reads.sort_unstable();
        reads
    }

    /// Summary statistics in the shape of the paper's Table 1.
    pub fn summary(&self) -> WorkloadSummary {
        let reads = self.reads_sorted();
        WorkloadSummary {
            name: self.name.clone(),
            db_gb: self.db.total_tuples() as f64 / TUPLES_PER_GB as f64,
            queries: self.queries.len(),
            median_read_gb: reads
                .get(reads.len().saturating_sub(1) / 2)
                .map_or(0.0, |&r| r as f64 / TUPLES_PER_GB as f64),
            min_read_gb: reads
                .first()
                .map_or(0.0, |&r| r as f64 / TUPLES_PER_GB as f64),
        }
    }
}

/// Table 1-style workload statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSummary {
    /// Workload name.
    pub name: String,
    /// Database size in (simulated) GB.
    pub db_gb: f64,
    /// Number of queries.
    pub queries: usize,
    /// Median data read per query, GB.
    pub median_read_gb: f64,
    /// Minimum data read per query, GB.
    pub min_read_gb: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_workload() -> Workload {
        let db = Database::new([("t", 1000)]);
        let q = |at, s, e| TimedQuery {
            at: SimTime::from_secs(at),
            query: QueryRequest {
                price: 1.0,
                scans: vec![ScanRange::new(TableId(0), s, e)],
                tag: 0,
            },
        };
        Workload {
            name: "tiny".into(),
            db,
            queries: vec![q(0, 0, 100), q(1, 50, 950), q(2, 0, 10)],
        }
    }

    #[test]
    fn database_basics() {
        let db = Database::new([("small", 10), ("big", 100)]);
        assert_eq!(db.total_tuples(), 110);
        assert_eq!(db.fact_table().name, "big");
        assert_eq!(db.tables[0].name, "small");
    }

    #[test]
    fn workload_totals_and_summary() {
        let w = tiny_workload().validated();
        assert_eq!(w.total_read(), 100 + 900 + 10);
        let s = w.summary();
        assert_eq!(s.queries, 3);
        assert_eq!(w.reads_sorted(), vec![10, 100, 900]);
        // Median of [10, 100, 900] is 100 tuples.
        assert!((s.median_read_gb - 100.0 / TUPLES_PER_GB as f64).abs() < 1e-12);
        assert!((s.min_read_gb - 10.0 / TUPLES_PER_GB as f64).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "beyond table")]
    fn validation_catches_out_of_range_scan() {
        let mut w = tiny_workload();
        w.queries[0].query.scans[0] = ScanRange::new(TableId(0), 0, 2000);
        let _ = w.validated();
    }

    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn validation_catches_unsorted() {
        let mut w = tiny_workload();
        w.queries.swap(0, 2);
        let _ = w.validated();
    }
}
