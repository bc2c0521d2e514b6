//! Workload trace I/O.
//!
//! The paper's real workloads were shared as query traces; this module
//! gives the reproduction the same currency: any [`Workload`] — generated
//! or captured — can be written to a line-oriented text trace and loaded
//! back bit-identically, so experiments can be re-run from files and custom
//! workloads can be authored by hand or by external tools.
//!
//! Format (`#` starts a comment, fields are space-separated):
//!
//! ```text
//! nashdb-trace v1
//! name bernoulli-4gb
//! table fact 4000000
//! query 0 1.0 0 0:3871999:4000000
//! query 100000000 1.0 0 0:0:4000000 1:10:20
//! ```
//!
//! `query <at_nanos> <price> <tag> <table>:<start>:<end>...` — times in
//! nanoseconds, scans as table-index:start:end triples.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use nashdb_cluster::{QueryRequest, ScanRange};
use nashdb_core::ids::TableId;
use nashdb_sim::SimTime;

use crate::{Database, TimedQuery, Workload};

/// A malformed trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number the error was found on (0 = structural).
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, TraceError> {
    Err(TraceError {
        line,
        message: message.into(),
    })
}

/// Serializes a workload to the trace format.
// `fmt::Write` for `String` never fails, so every `write!` result is dropped.
#[allow(clippy::let_underscore_must_use)]
pub fn to_trace(w: &Workload) -> String {
    let mut out = String::new();
    out.push_str("nashdb-trace v1\n");
    let _ = writeln!(out, "name {}", w.name);
    for t in &w.db.tables {
        let _ = writeln!(out, "table {} {}", t.name, t.tuples);
    }
    for tq in &w.queries {
        let _ = write!(
            out,
            "query {} {} {}",
            tq.at.as_nanos(),
            tq.query.price,
            tq.query.tag
        );
        for s in &tq.query.scans {
            let _ = write!(out, " {}:{}:{}", s.table.get(), s.start, s.end);
        }
        out.push('\n');
    }
    out
}

/// Parses a workload from the trace format. The returned workload is
/// valid: its arrivals are sorted and each query passes
/// [`Database::check_query`].
///
/// Table names are interned for the life of the process (traces are loaded
/// once per run).
pub fn from_trace(text: &str) -> Result<Workload, TraceError> {
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l.trim()));
    let (line_no, header) = lines.next().ok_or_else(|| TraceError {
        line: 0,
        message: "empty trace".into(),
    })?;
    if header != "nashdb-trace v1" {
        return err(line_no, format!("bad header {header:?}"));
    }

    let mut name = String::from("trace");
    let mut tables: Vec<(&'static str, u64)> = Vec::new();
    // Built at the first query line, which ends the table lines.
    let mut db: Option<Database> = None;
    let mut queries: Vec<TimedQuery> = Vec::new();

    for (line_no, line) in lines {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_ascii_whitespace();
        match fields.next() {
            Some("name") => {
                name = fields.collect::<Vec<_>>().join(" ");
                if name.is_empty() {
                    return err(line_no, "name requires a value");
                }
            }
            Some("table") => {
                let Some(tname) = fields.next() else {
                    return err(line_no, "table requires <name> <tuples>");
                };
                let tuples: u64 = match fields.next().map(str::parse) {
                    Some(Ok(n)) if n > 0 => n,
                    _ => return err(line_no, "table requires a positive tuple count"),
                };
                if db.is_some() {
                    return err(line_no, "table lines must precede query lines");
                }
                tables.push((Box::leak(tname.to_owned().into_boxed_str()), tuples));
            }
            Some("query") => {
                if db.is_none() && tables.is_empty() {
                    return err(line_no, "query before any table");
                }
                let db = db.get_or_insert_with(|| Database::new(std::mem::take(&mut tables)));
                let at: u64 = parse_field(fields.next(), line_no, "arrival nanos")?;
                let price: f64 = parse_field(fields.next(), line_no, "price")?;
                let tag: u32 = parse_field(fields.next(), line_no, "tag")?;
                let mut scans = Vec::new();
                for triple in fields {
                    let mut parts = triple.split(':');
                    let table = TableId(parse_field(parts.next(), line_no, "table index")?);
                    let start: u64 = parse_field(parts.next(), line_no, "scan start")?;
                    let end: u64 = parse_field(parts.next(), line_no, "scan end")?;
                    if parts.next().is_some() {
                        return err(line_no, format!("malformed scan triple {triple:?}"));
                    }
                    scans.push(ScanRange { table, start, end });
                }
                let query = QueryRequest { price, scans, tag };
                if let Err(e) = db.check_query(&query) {
                    return err(line_no, e.to_string());
                }
                queries.push(TimedQuery {
                    at: SimTime::from_nanos(at),
                    query,
                });
            }
            Some(other) => return err(line_no, format!("unknown directive {other:?}")),
            None => unreachable!("blank lines filtered above"),
        }
    }

    let Some(db) = db.or_else(|| (!tables.is_empty()).then(|| Database::new(tables))) else {
        return err(0, "trace declares no tables");
    };
    if !queries.windows(2).all(|w| w[0].at <= w[1].at) {
        return err(0, "queries must be sorted by arrival time");
    }
    Ok(Workload { name, db, queries })
}

fn parse_field<T: std::str::FromStr>(
    field: Option<&str>,
    line: usize,
    what: &str,
) -> Result<T, TraceError> {
    match field.map(str::parse::<T>) {
        Some(Ok(v)) => Ok(v),
        _ => err(line, format!("missing or invalid {what}")),
    }
}

/// Writes a workload trace to a file.
pub fn save(w: &Workload, path: impl AsRef<Path>) -> std::io::Result<()> {
    fs::write(path, to_trace(w))
}

/// Loads a workload trace from a file.
pub fn load(path: impl AsRef<Path>) -> Result<Workload, Box<dyn std::error::Error>> {
    Ok(from_trace(&fs::read_to_string(path)?)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bernoulli::{workload as bernoulli, BernoulliConfig};
    use crate::tpch::{workload as tpch, TpchConfig};

    #[test]
    fn round_trips_generated_workloads() {
        for w in [
            bernoulli(&BernoulliConfig {
                size_gb: 2,
                queries: 30,
                ..BernoulliConfig::default()
            }),
            tpch(&TpchConfig {
                size_gb: 2,
                rounds: 1,
                ..TpchConfig::default()
            }),
            crate::realistic::real1_dynamic(3),
        ] {
            let text = to_trace(&w);
            let back = from_trace(&text).expect("round trip parses");
            assert_eq!(back.name, w.name);
            assert_eq!(back.db.total_tuples(), w.db.total_tuples());
            assert_eq!(back.queries.len(), w.queries.len());
            for (a, b) in back.queries.iter().zip(&w.queries) {
                assert_eq!(a.at, b.at);
                assert_eq!(a.query.scans, b.query.scans);
                assert_eq!(a.query.tag, b.query.tag);
                assert!((a.query.price - b.query.price).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn hand_written_trace_parses() {
        let text = "nashdb-trace v1\n\
                    name tiny\n\
                    # a comment\n\
                    table events 1000\n\
                    table dims 100\n\
                    query 0 1.5 7 0:0:500\n\
                    query 2000000000 0.5 0 0:500:1000 1:0:100\n";
        let w = from_trace(text).unwrap();
        assert_eq!(w.name, "tiny");
        assert_eq!(w.db.tables.len(), 2);
        assert_eq!(w.queries.len(), 2);
        assert_eq!(w.queries[0].query.tag, 7);
        assert_eq!(w.queries[1].query.scans.len(), 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases = [
            ("wrong header\n", 1, "bad header"),
            ("nashdb-trace v1\ntable t\n", 2, "positive tuple count"),
            (
                "nashdb-trace v1\nquery 0 1 0 0:0:1\n",
                2,
                "before any table",
            ),
            (
                "nashdb-trace v1\ntable t 10\nquery 0 1 0 0:5:20\n",
                3,
                "out of range",
            ),
            (
                "nashdb-trace v1\ntable t 10\nquery 0 1 0 9:0:5\n",
                3,
                "unknown table",
            ),
            (
                "nashdb-trace v1\ntable t 10\nquery 0 -1 0 0:0:5\n",
                3,
                "nonnegative",
            ),
            ("nashdb-trace v1\ntable t 10\nquery 0 1 0\n", 3, "no scans"),
            (
                "nashdb-trace v1\ntable t 10\nquery 0 1 0 0:0:5:9\n",
                3,
                "malformed scan",
            ),
            ("nashdb-trace v1\nfrobnicate\n", 2, "unknown directive"),
        ];
        for (text, line, needle) in cases {
            let e = from_trace(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?}");
            assert!(
                e.message.contains(needle),
                "{text:?}: {} !~ {needle}",
                e.message
            );
        }
    }

    #[test]
    fn unsorted_queries_rejected() {
        let text = "nashdb-trace v1\ntable t 10\nquery 5 1 0 0:0:5\nquery 1 1 0 0:0:5\n";
        let e = from_trace(text).unwrap_err();
        assert!(e.message.contains("sorted"));
    }

    #[test]
    fn file_round_trip() {
        let w = bernoulli(&BernoulliConfig {
            size_gb: 1,
            queries: 5,
            ..BernoulliConfig::default()
        });
        let dir = std::env::temp_dir().join("nashdb-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.trace");
        save(&w, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.queries.len(), 5);
        std::fs::remove_file(&path).ok();
    }
}
