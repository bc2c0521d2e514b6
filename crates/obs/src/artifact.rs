//! The one record format behind every committed artifact.
//!
//! [`ObsSnapshot`] (the smoke run's per-stage metrics) and
//! [`ScenarioArtifact`] (the scenario matrix's Pareto frontier) are records
//! of one versioned format: an envelope (`version`, `labels`) and typed
//! fields, listed once per record in [`Record::fields`], which both writes
//! and reads them. The reader is strict: a missing, mistyped, repeated or
//! unknown key is an error naming its path, collection names are unique
//! (and ascending where the writer sorts them), and every record then
//! passes its own [`Record::check`].

use crate::json::{self, JsonError, JsonValue};
use crate::{ObsSnapshot, ScenarioArtifact};

/// Schema version of every artifact kind; bump on a breaking layout change.
pub const SNAPSHOT_VERSION: u64 = 1;

/// Why an artifact failed to load or validate.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The input was not well-formed JSON.
    Json(JsonError),
    /// The JSON parsed but violated the artifact schema.
    Schema {
        /// Dotted path to the offending element (e.g. `histograms[2].buckets`).
        at: String,
        /// What was wrong.
        message: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Json(e) => write!(f, "artifact is not valid JSON: {e}"),
            SnapshotError::Schema { at, message } => {
                write!(f, "schema violation at {at}: {message}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<JsonError> for SnapshotError {
    fn from(e: JsonError) -> Self {
        SnapshotError::Json(e)
    }
}

/// What reading (part of) an artifact gives.
pub(crate) type Checked<T = ()> = Result<T, SnapshotError>;

type Key = &'static str;

/// A schema error at the dotted path `at` (the top level has no name, so a
/// leading `.` is dropped).
pub(crate) fn schema_err<T>(at: &str, message: impl Into<String>) -> Checked<T> {
    Err(SnapshotError::Schema {
        at: at.trim_start_matches('.').to_owned(),
        message: message.into(),
    })
}

/// An artifact of either kind. The document says which: a scenario
/// artifact has `cells`, a smoke snapshot does not.
#[derive(Debug, Clone, PartialEq)]
pub enum Artifact {
    /// A smoke run's observability snapshot.
    Snapshot(ObsSnapshot),
    /// A scenario-matrix sweep.
    Scenarios(ScenarioArtifact),
}

impl Artifact {
    /// Parses and validates an artifact of the kind the document shows.
    ///
    /// # Errors
    /// [`SnapshotError::Json`] on malformed JSON, [`SnapshotError::Schema`]
    /// on any violation of that kind's schema, a key of the other kind
    /// included.
    pub fn from_json_str(input: &str) -> Result<Self, SnapshotError> {
        let root = json::parse(input)?;
        Ok(match root.get("cells") {
            Some(_) => Artifact::Scenarios(decode(&root, "")?),
            None => Artifact::Snapshot(decode(&root, "")?),
        })
    }

    /// Serializes to deterministic pretty-printed JSON.
    pub fn to_json_string(&self) -> String {
        match self {
            Artifact::Snapshot(s) => s.to_json_string(),
            Artifact::Scenarios(s) => s.to_json_string(),
        }
    }

    /// Zeroes every host wall-clock measurement (see each kind's
    /// `scrub_timings`), so same-seed runs serialize byte-identically.
    pub fn scrub_timings(&mut self) {
        match self {
            Artifact::Snapshot(s) => s.scrub_timings(),
            Artifact::Scenarios(s) => s.scrub_timings(),
        }
    }
}

/// A record of the format.
pub(crate) trait Record: Default + Clone {
    /// Passes every field to `c`, in the order they are written.
    fn fields(&mut self, c: &mut Codec<'_>) -> Checked;

    /// The name that must be unique within a list of these records.
    fn name(&self) -> String {
        String::new()
    }

    /// Checks beyond the field types, run once the record is read.
    fn check(&self, _at: &str) -> Checked {
        Ok(())
    }
}

/// A field type: how it is written, and what reads back (`WHAT` says).
pub(crate) trait Value: Sized {
    const WHAT: &'static str;
    fn encode(&self) -> JsonValue;
    fn decode(json: &JsonValue) -> Option<Self>;
}

macro_rules! scalar_values {
    ($($t:ty: $what:literal, $encode:expr, $decode:expr;)*) => {$(
        impl Value for $t {
            const WHAT: &'static str = $what;
            fn encode(&self) -> JsonValue {
                $encode(self)
            }
            fn decode(json: &JsonValue) -> Option<Self> {
                $decode(json)
            }
        }
    )*};
}

scalar_values! {
    u64: "must be an unsigned integer", |v: &u64| JsonValue::UInt(*v), JsonValue::as_u64;
    f64: "must be a finite number", |v: &f64| JsonValue::Float(*v),
        |j: &JsonValue| j.as_f64().filter(|v| v.is_finite());
    bool: "must be a boolean", |v: &bool| JsonValue::Bool(*v), JsonValue::as_bool;
    String: "must be a string", |v: &String| JsonValue::Str(v.clone()),
        |j: &JsonValue| j.as_str().map(str::to_owned);
}

/// Histogram buckets: `[index, count]` pairs.
impl Value for Vec<(u64, u64)> {
    const WHAT: &'static str = "must be a list of [index, count] pairs";
    fn encode(&self) -> JsonValue {
        let pair = |&(i, c): &(u64, u64)| JsonValue::Array(vec![i.encode(), c.encode()]);
        JsonValue::Array(self.iter().map(pair).collect())
    }
    fn decode(json: &JsonValue) -> Option<Self> {
        let pair = |p: &JsonValue| match p.as_array()? {
            [i, c] => Some((i.as_u64()?, c.as_u64()?)),
            _ => None,
        };
        json.as_array()?.iter().map(pair).collect()
    }
}

/// One direction of [`Record::fields`]: writing a record's fields out
/// (`input` is `None`), or reading them from the object `input`.
#[derive(Default)]
pub(crate) struct Codec<'a> {
    /// Path of the record, for error messages (`""` at the top level).
    at: &'a str,
    input: Option<&'a [(String, JsonValue)]>,
    /// Keys asked for so far, while reading.
    known: Vec<&'static str>,
    /// Fields written so far, while writing.
    out: Vec<(String, JsonValue)>,
}

impl<'a> Codec<'a> {
    /// While reading, the value at `key` and its path (an error when the
    /// key is absent); while writing, `None`.
    fn take(&mut self, key: Key) -> Checked<Option<(&'a JsonValue, String)>> {
        let Some(fields) = self.input else {
            return Ok(None);
        };
        self.known.push(key);
        let at = format!("{}.{key}", self.at);
        match fields.iter().find(|(k, _)| k == key) {
            Some((_, v)) => Ok(Some((v, at))),
            None => schema_err(&at, "missing"),
        }
    }

    /// Writes or reads the value at `key`.
    pub fn field<T: Value>(&mut self, key: Key, v: &mut T) -> Checked {
        match self.take(key)? {
            None => self.out.push((key.to_owned(), v.encode())),
            Some((json, at)) => {
                *v = T::decode(json).map_or_else(|| schema_err(&at, T::WHAT), Ok)?;
            }
        }
        Ok(())
    }

    /// [`field`](Self::field) for a string left out while it is `default`,
    /// which it reads as when absent.
    pub fn optional(&mut self, key: Key, v: &mut String, default: &str) -> Checked {
        let absent = match self.input {
            None => v == default,
            Some(fields) => fields.iter().all(|(k, _)| k != key),
        };
        if !absent {
            return self.field(key, v);
        }
        default.clone_into(v);
        Ok(())
    }

    /// The envelope every artifact opens with: `version`, which must be
    /// [`SNAPSHOT_VERSION`], and free-form `labels` in insertion order.
    pub fn envelope(&mut self, version: &mut u64, labels: &mut Vec<(String, String)>) -> Checked {
        self.field("version", version)?;
        if self.input.is_some() && *version != SNAPSHOT_VERSION {
            let message = format!("unsupported version {version}, expected {SNAPSHOT_VERSION}");
            return schema_err("version", message);
        }
        self.map("labels", labels, false)
    }

    /// The name-keyed object at `key`. Names must be unique, and strictly
    /// ascending when `sorted`.
    pub fn map<T: Value>(&mut self, key: Key, v: &mut Vec<(String, T)>, sorted: bool) -> Checked {
        let Some((json, at)) = self.take(key)? else {
            let fields = v.iter().map(|(k, x)| (k.clone(), x.encode())).collect();
            self.out.push((key.to_owned(), JsonValue::Object(fields)));
            return Ok(());
        };
        let JsonValue::Object(fields) = json else {
            return schema_err(&at, "must be an object");
        };
        let read = |(k, x): &(String, JsonValue)| match T::decode(x) {
            Some(x) => Ok((k.clone(), x)),
            None => schema_err(&format!("{at}.{k}"), T::WHAT),
        };
        *v = fields.iter().map(read).collect::<Checked<_>>()?;
        check_names(&at, v.iter().map(|(k, _)| k.clone()).collect(), sorted)
    }

    /// The array of records at `key`. Their [`Record::name`]s must be
    /// unique, and strictly ascending when `sorted`.
    pub fn list<R: Record>(&mut self, key: Key, v: &mut Vec<R>, sorted: bool) -> Checked {
        let Some((json, at)) = self.take(key)? else {
            let items = v.iter().map(encode).collect();
            self.out.push((key.to_owned(), JsonValue::Array(items)));
            return Ok(());
        };
        let Some(items) = json.as_array() else {
            return schema_err(&at, "must be an array");
        };
        let read = |(i, item): (usize, &JsonValue)| decode(item, &format!("{at}[{i}]"));
        *v = items.iter().enumerate().map(read).collect::<Checked<_>>()?;
        if let Some(i) = v.iter().position(|r| r.name().is_empty()) {
            return schema_err(&format!("{at}[{i}]"), "empty name");
        }
        check_names(&at, v.iter().map(R::name).collect(), sorted)
    }
}

/// Rejects a repeated name, or (when `sorted`) one below its predecessor.
fn check_names(at: &str, mut names: Vec<String>, sorted: bool) -> Checked {
    if !sorted {
        names.sort_unstable();
    }
    match names.windows(2).find(|w| w[0] >= w[1]) {
        Some(w) if w[0] == w[1] => schema_err(&format!("{at}.{}", w[1]), "duplicate name"),
        Some(w) => schema_err(
            &format!("{at}.{}", w[1]),
            format!("out of order after {:?}", w[0]),
        ),
        None => Ok(()),
    }
}

/// Writes a record as a JSON object.
pub(crate) fn encode<R: Record>(record: &R) -> JsonValue {
    let mut c = Codec::default();
    // The one field list takes `&mut` so that it can read; writing walks a
    // copy, and only reading can fail.
    let written = record.clone().fields(&mut c);
    debug_assert!(written.is_ok(), "writing a record cannot fail");
    JsonValue::Object(c.out)
}

/// Reads a record from the object `json` at path `at`: every field, then
/// no unknown or repeated key, then the record's own checks.
pub(crate) fn decode<R: Record>(json: &JsonValue, at: &str) -> Checked<R> {
    let JsonValue::Object(fields) = json else {
        return schema_err(at, "must be an object");
    };
    let mut c = Codec {
        at,
        input: Some(fields),
        ..Codec::default()
    };
    let mut record = R::default();
    record.fields(&mut c)?;
    for (i, (k, _)) in fields.iter().enumerate() {
        if !c.known.contains(&k.as_str()) {
            return schema_err(&format!("{at}.{k}"), "unknown key");
        }
        if fields[..i].iter().any(|(seen, _)| seen == k) {
            return schema_err(&format!("{at}.{k}"), "repeated key");
        }
    }
    record.check(at)?;
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellSnapshot, Metric, ObsSession, Span, SystemPoint};

    fn snapshot() -> ObsSnapshot {
        let session = ObsSession::start();
        crate::counter_add(Metric::ValueTreeInserts, 3);
        crate::record(Metric::ClusterQueryLatencyNs, 1_500);
        drop(crate::span(Span::Pipeline));
        session.finish()
    }

    fn scenarios() -> ScenarioArtifact {
        let point = |system: &str, cost: f64| SystemPoint {
            system: system.to_owned(),
            cost,
            mean_latency_secs: 1.0,
            p99_latency_secs: 2.0,
            ..SystemPoint::default()
        };
        let mut cell = CellSnapshot {
            workload: "tpch".to_owned(),
            drift: "steady".to_owned(),
            mix: "uniform".to_owned(),
            budget: "tight".to_owned(),
            faults: "none".to_owned(),
            systems: vec![point("nashdb", 1.0), point("threshold", 2.0)],
            wall_ns: 0,
        };
        cell.mark_frontier();
        ScenarioArtifact {
            version: SNAPSHOT_VERSION,
            labels: Vec::new(),
            cells: vec![cell],
        }
    }

    #[test]
    fn the_document_names_its_kind() {
        let snap = snapshot();
        let scen = scenarios();
        assert_eq!(
            Artifact::from_json_str(&snap.to_json_string()),
            Ok(Artifact::Snapshot(snap))
        );
        assert_eq!(
            Artifact::from_json_str(&scen.to_json_string()),
            Ok(Artifact::Scenarios(scen))
        );
    }

    #[test]
    fn unknown_keys_are_rejected_at_every_level() {
        let snap = snapshot().to_json_string();
        let scen = scenarios().to_json_string();
        for (doc, anchor, at) in [
            (&snap, "\"version\": 1,", "extra"),
            (
                &snap,
                "\"name\": \"cluster.query_latency_ns\",",
                "histograms[0].extra",
            ),
            (&snap, "\"path\": \"pipeline\",", "spans[0].extra"),
            (&scen, "\"workload\": \"tpch\",", "cells[0].extra"),
            (
                &scen,
                "\"system\": \"nashdb\",",
                "cells[0].systems[0].extra",
            ),
        ] {
            let text = doc.replacen(anchor, &format!("{anchor} \"extra\": 0,"), 1);
            assert_ne!(&text, doc, "anchor {anchor} not found");
            assert_eq!(
                Artifact::from_json_str(&text),
                schema_err(at, "unknown key"),
                "{at}"
            );
        }
    }

    #[test]
    fn a_document_of_both_kinds_is_rejected() {
        let scen = scenarios().to_json_string();
        let both = scen.replacen("\"cells\":", "\"counters\": {},\n  \"cells\":", 1);
        assert_eq!(
            Artifact::from_json_str(&both),
            schema_err("counters", "unknown key")
        );
        let repeated = scen.replacen("\"version\": 1,", "\"version\": 1, \"version\": 1,", 1);
        assert_eq!(
            Artifact::from_json_str(&repeated),
            schema_err("version", "repeated key")
        );
    }
}
