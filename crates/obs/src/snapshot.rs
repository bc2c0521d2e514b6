//! Stable JSON snapshot of a finished observability session.
//!
//! The snapshot is the CI artifact contract: `nashdb-bench smoke` emits it,
//! the `bench-smoke` job re-parses and validates it, and perf PRs diff two
//! of them. The format therefore versions itself (`version` field), sorts
//! every collection, and round-trips floats exactly.

use crate::histogram::{Histogram, NUM_BUCKETS};
use crate::json::{self, JsonError, JsonValue};
use crate::names::{Metric, Span, Stage};
use crate::registry::{filled, MetricsRegistry};

/// Current snapshot schema version; bump on breaking layout changes.
pub const SNAPSHOT_VERSION: u64 = 1;

/// Serialized form of one histogram: summary statistics plus the populated
/// log buckets as `(bucket_index, count)` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name (e.g. `cluster.query_latency_ns`).
    pub name: String,
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of samples (saturating).
    pub sum: u64,
    /// Exact maximum sample.
    pub max: u64,
    /// Estimated 50th percentile (0 if empty).
    pub p50: u64,
    /// Estimated 95th percentile (0 if empty).
    pub p95: u64,
    /// Estimated 99th percentile (0 if empty).
    pub p99: u64,
    /// Populated `(bucket_index, count)` pairs in ascending bucket order.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    fn from_histogram(metric: Metric, h: &Histogram) -> Self {
        HistogramSnapshot {
            name: metric.name().to_owned(),
            count: h.count(),
            sum: h.sum(),
            max: h.max(),
            p50: h.quantile(50.0).unwrap_or(0),
            p95: h.quantile(95.0).unwrap_or(0),
            p99: h.quantile(99.0).unwrap_or(0),
            buckets: h.nonzero_buckets().map(|(i, c)| (i as u64, c)).collect(),
        }
    }
}

/// Serialized form of one span path's accumulated wall-clock statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Slash-separated span path (e.g. `pipeline/reconfigure/scheme`).
    pub path: String,
    /// Times the span closed.
    pub count: u64,
    /// Total nanoseconds inside the span, children included.
    pub total_ns: u64,
    /// Nanoseconds spent in directly nested child spans.
    pub child_ns: u64,
}

/// A complete, self-describing dump of one observability session.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsSnapshot {
    /// Schema version (`SNAPSHOT_VERSION` when produced by this crate).
    pub version: u64,
    /// Free-form run metadata (workload name, seed, …) in insertion order.
    pub labels: Vec<(String, String)>,
    /// Counters in sorted name order. Names stay strings so files written
    /// under older [`Metric`] tables still load.
    pub counters: Vec<(String, u64)>,
    /// Gauges in sorted name order.
    pub gauges: Vec<(String, f64)>,
    /// Histograms in sorted name order.
    pub histograms: Vec<HistogramSnapshot>,
    /// Spans in sorted path order.
    pub spans: Vec<SpanSnapshot>,
}

/// Why a snapshot failed to load or validate.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The input was not well-formed JSON.
    Json(JsonError),
    /// The JSON parsed but violated the snapshot schema.
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
            SnapshotError::Json(e) => write!(f, "snapshot is not valid JSON: {e}"),
            SnapshotError::Schema { at, message } => {
                write!(f, "snapshot schema violation at {at}: {message}")
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

pub(crate) fn schema_err<T>(at: &str, message: impl Into<String>) -> Result<T, SnapshotError> {
    Err(SnapshotError::Schema {
        at: at.to_owned(),
        message: message.into(),
    })
}

impl ObsSnapshot {
    /// Captures a registry into snapshot form with the given labels.
    pub(crate) fn capture(registry: MetricsRegistry, labels: Vec<(String, String)>) -> Self {
        fn named<T: Copy>((m, &v): (Metric, &T)) -> (String, T) {
            (m.name().to_owned(), v)
        }
        ObsSnapshot {
            version: SNAPSHOT_VERSION,
            labels,
            counters: filled(&registry.counters).map(named).collect(),
            gauges: filled(&registry.gauges).map(named).collect(),
            histograms: filled(&registry.histograms)
                .map(|(m, h)| HistogramSnapshot::from_histogram(m, h))
                .collect(),
            spans: registry.spans.into_values().collect(),
        }
    }

    /// Looks up a counter value.
    pub fn counter(&self, metric: Metric) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == metric.name())
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge value.
    pub fn gauge(&self, metric: Metric) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(k, _)| k == metric.name())
            .map(|&(_, v)| v)
    }

    /// Looks up a histogram snapshot.
    pub fn histogram(&self, metric: Metric) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == metric.name())
    }

    /// Looks up a span snapshot by its exact path of segments.
    pub fn span(&self, path: &[Span]) -> Option<&SpanSnapshot> {
        let path = path.iter().map(|s| s.name()).collect::<Vec<_>>().join("/");
        self.spans.iter().find(|s| s.path == path)
    }

    /// The stages of [`Stage::ALL`] with **no** counter, histogram or gauge
    /// under their prefix. Empty means full coverage — the driver-level
    /// acceptance check for "every stage emitted a metric".
    pub fn missing_stages(&self) -> Vec<Stage> {
        let names = self
            .counters
            .iter()
            .map(|(k, _)| k)
            .chain(self.gauges.iter().map(|(k, _)| k))
            .chain(self.histograms.iter().map(|h| &h.name));
        let mut missing = Stage::ALL.to_vec();
        for name in names {
            missing.retain(|stage| !name.starts_with(stage.prefix()));
        }
        missing
    }

    /// Zeroes every wall-clock measurement while keeping structure and
    /// counts: span `total_ns`/`child_ns` become 0 and histograms of a
    /// [`Metric::is_wall_clock`] metric lose their samples (count is
    /// preserved, the buckets collapse into bucket 0). Sim-time histograms
    /// such as `cluster.query_latency_ns`, whose nanoseconds come from the
    /// deterministic simulation clock rather than the host, are untouched.
    ///
    /// Two same-seed runs scrubbed this way are byte-identical, which is
    /// what lets CI diff artifacts across machines of different speeds.
    pub fn scrub_timings(&mut self) {
        for span in &mut self.spans {
            span.total_ns = 0;
            span.child_ns = 0;
        }
        for h in &mut self.histograms {
            if Metric::from_name(&h.name).is_some_and(Metric::is_wall_clock) {
                h.sum = 0;
                h.max = 0;
                h.p50 = 0;
                h.p95 = 0;
                h.p99 = 0;
                h.buckets = if h.count > 0 {
                    vec![(0, h.count)]
                } else {
                    Vec::new()
                };
            }
        }
    }

    /// Serializes to deterministic pretty-printed JSON.
    pub fn to_json_string(&self) -> String {
        let labels = object(&self.labels, |v| JsonValue::Str(v.clone()));
        let counters = object(&self.counters, |&v| JsonValue::UInt(v));
        let gauges = object(&self.gauges, |&v| JsonValue::Float(v));
        let histograms = JsonValue::Array(
            self.histograms
                .iter()
                .map(|h| {
                    JsonValue::Object(vec![
                        ("name".to_owned(), JsonValue::Str(h.name.clone())),
                        ("count".to_owned(), JsonValue::UInt(h.count)),
                        ("sum".to_owned(), JsonValue::UInt(h.sum)),
                        ("max".to_owned(), JsonValue::UInt(h.max)),
                        ("p50".to_owned(), JsonValue::UInt(h.p50)),
                        ("p95".to_owned(), JsonValue::UInt(h.p95)),
                        ("p99".to_owned(), JsonValue::UInt(h.p99)),
                        (
                            "buckets".to_owned(),
                            JsonValue::Array(
                                h.buckets
                                    .iter()
                                    .map(|&(i, c)| {
                                        JsonValue::Array(vec![
                                            JsonValue::UInt(i),
                                            JsonValue::UInt(c),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        let spans = JsonValue::Array(
            self.spans
                .iter()
                .map(|s| {
                    JsonValue::Object(vec![
                        ("path".to_owned(), JsonValue::Str(s.path.clone())),
                        ("count".to_owned(), JsonValue::UInt(s.count)),
                        ("total_ns".to_owned(), JsonValue::UInt(s.total_ns)),
                        ("child_ns".to_owned(), JsonValue::UInt(s.child_ns)),
                    ])
                })
                .collect(),
        );
        JsonValue::Object(vec![
            ("version".to_owned(), JsonValue::UInt(self.version)),
            ("labels".to_owned(), labels),
            ("counters".to_owned(), counters),
            ("gauges".to_owned(), gauges),
            ("histograms".to_owned(), histograms),
            ("spans".to_owned(), spans),
        ])
        .to_pretty_string()
    }

    /// Parses and schema-validates a snapshot produced by
    /// [`ObsSnapshot::to_json_string`]: besides each field's type, names
    /// must be unique, and in strictly ascending order everywhere but
    /// `labels` (which keep insertion order).
    pub fn from_json_str(input: &str) -> Result<Self, SnapshotError> {
        let root = json::parse(input)?;
        Ok(ObsSnapshot {
            version: parse_version(&root, SNAPSHOT_VERSION)?,
            labels: parse_fields(&root, "labels", false, "label must be a string", |v| {
                v.as_str().map(str::to_owned)
            })?,
            counters: parse_fields(
                &root,
                "counters",
                true,
                "counter must be an unsigned integer",
                JsonValue::as_u64,
            )?,
            gauges: parse_fields(
                &root,
                "gauges",
                true,
                "gauge must be a finite number",
                |v| v.as_f64().filter(|g| g.is_finite()),
            )?,
            histograms: parse_items(&root, "histograms", true, parse_histogram, |h| {
                h.name.clone()
            })?,
            spans: parse_items(&root, "spans", true, parse_span, |s| s.path.clone())?,
        })
    }
}

/// A name-keyed JSON object from `(name, value)` pairs.
pub(crate) fn object<T>(pairs: &[(String, T)], value: impl Fn(&T) -> JsonValue) -> JsonValue {
    JsonValue::Object(pairs.iter().map(|(k, v)| (k.clone(), value(v))).collect())
}

/// The document's `version`, which must equal `expected`.
pub(crate) fn parse_version(root: &JsonValue, expected: u64) -> Result<u64, SnapshotError> {
    match root.get("version").and_then(JsonValue::as_u64) {
        Some(v) if v == expected => Ok(v),
        Some(v) => schema_err(
            "version",
            format!("unsupported version {v}, expected {expected}"),
        ),
        None => schema_err("version", "missing or not an unsigned integer"),
    }
}

/// Parses the name-keyed object `root.key`, converting each value with
/// `convert` (`what` says what a value must be). Names must be unique, and
/// strictly ascending when `sorted`.
pub(crate) fn parse_fields<T>(
    root: &JsonValue,
    key: &str,
    sorted: bool,
    what: &str,
    convert: impl Fn(&JsonValue) -> Option<T>,
) -> Result<Vec<(String, T)>, SnapshotError> {
    let Some(JsonValue::Object(fields)) = root.get(key) else {
        return schema_err(key, "missing or not an object");
    };
    let mut out = Vec::with_capacity(fields.len());
    for (k, v) in fields {
        let Some(value) = convert(v) else {
            return schema_err(&format!("{key}.{k}"), what);
        };
        out.push((k.clone(), value));
    }
    check_names(key, out.iter().map(|(k, _)| k.clone()).collect(), sorted)?;
    Ok(out)
}

/// Parses the array `root.key` item by item. The names `name` picks must
/// be unique, and strictly ascending when `sorted`.
pub(crate) fn parse_items<T>(
    root: &JsonValue,
    key: &str,
    sorted: bool,
    parse: fn(&JsonValue, usize) -> Result<T, SnapshotError>,
    name: fn(&T) -> String,
) -> Result<Vec<T>, SnapshotError> {
    let Some(items) = root.get(key).and_then(JsonValue::as_array) else {
        return schema_err(key, "missing or not an array");
    };
    let out = items
        .iter()
        .enumerate()
        .map(|(i, item)| parse(item, i))
        .collect::<Result<Vec<_>, _>>()?;
    check_names(key, out.iter().map(name).collect(), sorted)?;
    Ok(out)
}

/// Rejects a repeated name, or (when `sorted`) one below its predecessor.
fn check_names(at: &str, mut names: Vec<String>, sorted: bool) -> Result<(), SnapshotError> {
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

pub(crate) fn field_str(item: &JsonValue, at: &str, key: &str) -> Result<String, SnapshotError> {
    match item.get(key).and_then(JsonValue::as_str) {
        Some(s) if !s.is_empty() => Ok(s.to_owned()),
        _ => schema_err(&format!("{at}.{key}"), "missing or empty string"),
    }
}

pub(crate) fn field_u64(item: &JsonValue, at: &str, key: &str) -> Result<u64, SnapshotError> {
    match item.get(key).and_then(JsonValue::as_u64) {
        Some(v) => Ok(v),
        None => schema_err(&format!("{at}.{key}"), "missing or not an unsigned integer"),
    }
}

fn parse_histogram(item: &JsonValue, index: usize) -> Result<HistogramSnapshot, SnapshotError> {
    let at = format!("histograms[{index}]");
    let name = field_str(item, &at, "name")?;
    let count = field_u64(item, &at, "count")?;
    let sum = field_u64(item, &at, "sum")?;
    let max = field_u64(item, &at, "max")?;
    let p50 = field_u64(item, &at, "p50")?;
    let p95 = field_u64(item, &at, "p95")?;
    let p99 = field_u64(item, &at, "p99")?;

    let Some(raw_buckets) = item.get("buckets").and_then(JsonValue::as_array) else {
        return schema_err(&format!("{at}.buckets"), "missing or not an array");
    };
    let mut buckets = Vec::with_capacity(raw_buckets.len());
    let mut bucket_total = 0u64;
    let mut prev_index: Option<u64> = None;
    for (j, pair) in raw_buckets.iter().enumerate() {
        let bat = format!("{at}.buckets[{j}]");
        let pair = match pair.as_array() {
            Some(p) if p.len() == 2 => p,
            _ => return schema_err(&bat, "bucket must be a [index, count] pair"),
        };
        let (Some(bi), Some(bc)) = (pair[0].as_u64(), pair[1].as_u64()) else {
            return schema_err(&bat, "bucket index/count must be unsigned integers");
        };
        if bi >= NUM_BUCKETS as u64 {
            return schema_err(&bat, format!("bucket index {bi} out of range"));
        }
        if bc == 0 {
            return schema_err(&bat, "empty buckets must be omitted");
        }
        if let Some(prev) = prev_index {
            if bi <= prev {
                return schema_err(&bat, "bucket indices must be strictly ascending");
            }
        }
        prev_index = Some(bi);
        bucket_total = bucket_total.saturating_add(bc);
        buckets.push((bi, bc));
    }
    if bucket_total != count {
        return schema_err(
            &format!("{at}.buckets"),
            format!("bucket counts sum to {bucket_total} but count is {count}"),
        );
    }
    if max > 0 && count == 0 {
        return schema_err(&format!("{at}.max"), "max is nonzero but count is zero");
    }

    Ok(HistogramSnapshot {
        name,
        count,
        sum,
        max,
        p50,
        p95,
        p99,
        buckets,
    })
}

fn parse_span(item: &JsonValue, index: usize) -> Result<SpanSnapshot, SnapshotError> {
    let at = format!("spans[{index}]");
    let path = field_str(item, &at, "path")?;
    let count = field_u64(item, &at, "count")?;
    let total_ns = field_u64(item, &at, "total_ns")?;
    let child_ns = field_u64(item, &at, "child_ns")?;
    if count == 0 {
        return schema_err(&format!("{at}.count"), "span count must be nonzero");
    }
    if child_ns > total_ns {
        return schema_err(
            &format!("{at}.child_ns"),
            format!("child time {child_ns}ns exceeds total {total_ns}ns"),
        );
    }
    Ok(SpanSnapshot {
        path,
        count,
        total_ns,
        child_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> ObsSnapshot {
        let mut r = MetricsRegistry::default();
        r.counter_add(Metric::ValueTreeInserts, 120);
        r.counter_add(Metric::RoutingScansRouted, 7);
        r.gauge_set(Metric::ReplicationNashSurplus, 0.1 + 0.2);
        r.gauge_set(Metric::ClusterTotalCost, -1e-12);
        r.record(Metric::ClusterQueryLatencyNs, 1_500);
        r.record(Metric::ClusterQueryLatencyNs, 3_000);
        r.record(Metric::FragmentGreedyNs, 900);
        r.span_add("pipeline", 10_000, 6_000);
        r.span_add("pipeline/provision", 6_000, 0);
        ObsSnapshot::capture(
            r,
            vec![
                ("workload".to_owned(), "bernoulli".to_owned()),
                ("seed".to_owned(), "42".to_owned()),
            ],
        )
    }

    #[test]
    fn round_trip_is_lossless() {
        let snap = sample_snapshot();
        let text = snap.to_json_string();
        let parsed = ObsSnapshot::from_json_str(&text).unwrap();
        assert_eq!(parsed, snap);
        // Emitting again yields byte-identical output: no float drift.
        assert_eq!(parsed.to_json_string(), text);
    }

    #[test]
    fn awkward_floats_round_trip_exactly() {
        let mut r = MetricsRegistry::default();
        for (metric, v) in [
            (Metric::ClusterDegradedMs, 0.1_f64 + 0.2),
            (Metric::ClusterNodes, 1e-12),
            (Metric::ClusterTotalCost, -0.0),
            (Metric::DistributorFragments, f64::MAX),
            (Metric::DistributorNodes, f64::MIN_POSITIVE),
            (Metric::PackingNodes, 1.0 / 3.0),
        ] {
            r.gauge_set(metric, v);
        }
        let snap = ObsSnapshot::capture(r, Vec::new());
        let parsed = ObsSnapshot::from_json_str(&snap.to_json_string()).unwrap();
        for ((_, orig), (_, back)) in snap.gauges.iter().zip(&parsed.gauges) {
            assert_eq!(orig.to_bits(), back.to_bits());
        }
    }

    #[test]
    fn lookup_helpers() {
        let snap = sample_snapshot();
        assert_eq!(snap.counter(Metric::ValueTreeInserts), Some(120));
        assert_eq!(snap.counter(Metric::ClusterJobsLost), None);
        assert!(snap.gauge(Metric::ReplicationNashSurplus).is_some());
        assert_eq!(
            snap.histogram(Metric::ClusterQueryLatencyNs)
                .map(|h| h.count),
            Some(2)
        );
        assert_eq!(snap.span(&[Span::Pipeline]).map(|s| s.count), Some(1));
        let provision = snap.span(&[Span::Pipeline, Span::Provision]);
        assert_eq!(provision.map(|s| s.total_ns), Some(6_000));
    }

    #[test]
    fn missing_stages_reports_uncovered_prefixes() {
        let snap = sample_snapshot();
        assert_eq!(
            snap.missing_stages(),
            vec![Stage::Packing, Stage::Transition, Stage::Distributor]
        );
    }

    #[test]
    fn scrub_zeroes_wall_clock_but_keeps_sim_time() {
        let mut snap = sample_snapshot();
        snap.scrub_timings();
        for s in &snap.spans {
            assert_eq!(s.total_ns, 0);
            assert_eq!(s.child_ns, 0);
            assert!(s.count > 0);
        }
        // Wall-clock histogram collapsed, count preserved.
        let g = snap.histogram(Metric::FragmentGreedyNs).unwrap();
        assert_eq!(g.count, 1);
        assert_eq!(g.max, 0);
        assert_eq!(g.buckets, vec![(0, 1)]);
        // Sim-time latency histogram untouched.
        let lat = snap.histogram(Metric::ClusterQueryLatencyNs).unwrap();
        assert_eq!(lat.sum, 4_500);
        // Scrubbed snapshots still pass validation and stay deterministic.
        let text = snap.to_json_string();
        let parsed = ObsSnapshot::from_json_str(&text).unwrap();
        assert_eq!(parsed.to_json_string(), text);
    }

    #[test]
    fn validation_rejects_schema_violations() {
        let good = sample_snapshot().to_json_string();
        let mutated = |edit: fn(&mut ObsSnapshot)| {
            let mut snap = sample_snapshot();
            edit(&mut snap);
            snap.to_json_string()
        };
        let cases: Vec<(String, &str)> = vec![
            (good.replace("\"version\": 1", "\"version\": 99"), "version"),
            (
                good.replace("\"total_ns\": 10000", "\"total_ns\": 100"),
                "child_ns exceeds total",
            ),
            (
                good.replace("\"counters\": {", "\"counters\": {\n    \"bad\": -1,"),
                "negative counter",
            ),
            (good.replace("\"spans\"", "\"zpans\""), "missing spans"),
            (
                mutated(|s| s.labels.push(("seed".to_owned(), "7".to_owned()))),
                "duplicate label",
            ),
            (
                mutated(|s| s.counters.push(s.counters[0].clone())),
                "duplicate counter",
            ),
            (mutated(|s| s.gauges.reverse()), "gauges out of order"),
            (
                mutated(|s| s.histograms.reverse()),
                "histograms out of order",
            ),
            (
                mutated(|s| s.spans.push(s.spans[0].clone())),
                "duplicate span",
            ),
        ];
        for (text, why) in cases {
            assert!(
                ObsSnapshot::from_json_str(&text).is_err(),
                "should reject: {why}"
            );
        }
        assert!(matches!(
            ObsSnapshot::from_json_str("not json"),
            Err(SnapshotError::Json(_))
        ));
    }

    #[test]
    fn validation_rejects_bucket_mismatch() {
        let mut snap = sample_snapshot();
        snap.histograms[0].count += 1;
        let err = ObsSnapshot::from_json_str(&snap.to_json_string()).unwrap_err();
        assert!(matches!(err, SnapshotError::Schema { .. }), "{err}");
    }
}
