//! Stable JSON snapshot of a finished observability session.
//!
//! The snapshot is the CI artifact contract: `nashdb-bench smoke` emits it,
//! the `bench-smoke` job re-parses and validates it, and perf PRs diff two
//! of them. It is a record of the one artifact format ([`crate::artifact`]).

use crate::artifact::{self, schema_err, Checked, Codec, Record, SnapshotError};
use crate::histogram::Histogram;
use crate::names::{Metric, Span, Stage};

/// Serialized form of one histogram: summary statistics plus the populated
/// log buckets as `(bucket_index, count)` pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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

impl Record for HistogramSnapshot {
    fn fields(&mut self, c: &mut Codec<'_>) -> Checked {
        c.field("name", &mut self.name)?;
        c.field("count", &mut self.count)?;
        c.field("sum", &mut self.sum)?;
        c.field("max", &mut self.max)?;
        c.field("p50", &mut self.p50)?;
        c.field("p95", &mut self.p95)?;
        c.field("p99", &mut self.p99)?;
        c.field("buckets", &mut self.buckets)
    }

    fn name(&self) -> String {
        self.name.clone()
    }

    /// The histogram is one [`Histogram`] could have recorded: the buckets
    /// are in range, populated and ascending, they sum to `count`, `max` lies
    /// in the highest, `sum` is one their samples can add up to, and the
    /// percentiles are what [`Histogram::quantile`] derives from them.
    fn check(&self, at: &str) -> Checked {
        let derived = Histogram::from_parts(&self.buckets, self.sum, self.max);
        match derived.map(|h| h.snapshot(&self.name)) {
            Some(d) if d == *self => Ok(()),
            Some(d) => schema_err(at, format!("disagrees with its buckets, which give {d:?}")),
            None => schema_err(
                at,
                format!(
                    "a bucket is out of range, max {} is not in the highest, or sum {} \
                     is not one the buckets can add up to",
                    self.max, self.sum
                ),
            ),
        }
    }
}

/// Serialized form of one span path's accumulated wall-clock statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Slash-separated span path (e.g. `distributor/scheme/fragment`).
    pub path: String,
    /// Times the span closed.
    pub count: u64,
    /// Total nanoseconds inside the span, children included.
    pub total_ns: u64,
    /// Nanoseconds spent in directly nested child spans.
    pub child_ns: u64,
}

impl Record for SpanSnapshot {
    fn fields(&mut self, c: &mut Codec<'_>) -> Checked {
        c.field("path", &mut self.path)?;
        c.field("count", &mut self.count)?;
        c.field("total_ns", &mut self.total_ns)?;
        c.field("child_ns", &mut self.child_ns)
    }

    fn name(&self) -> String {
        self.path.clone()
    }

    fn check(&self, at: &str) -> Checked {
        if self.count == 0 {
            return schema_err(&format!("{at}.count"), "span count must be nonzero");
        }
        if self.child_ns > self.total_ns {
            let message = format!("exceeds total_ns {}", self.total_ns);
            return schema_err(&format!("{at}.child_ns"), message);
        }
        Ok(())
    }
}

/// A complete, self-describing dump of one observability session.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsSnapshot {
    /// Schema version ([`SNAPSHOT_VERSION`](crate::SNAPSHOT_VERSION) when
    /// produced by this crate).
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

impl Record for ObsSnapshot {
    fn fields(&mut self, c: &mut Codec<'_>) -> Checked {
        c.envelope(&mut self.version, &mut self.labels)?;
        c.map("counters", &mut self.counters, true)?;
        c.map("gauges", &mut self.gauges, true)?;
        c.list("histograms", &mut self.histograms, true)?;
        c.list("spans", &mut self.spans, true)
    }
}

impl ObsSnapshot {
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
    /// counts: span `total_ns`/`child_ns` become 0. Spans are the only host
    /// clock; every counter, gauge and histogram (`cluster.query_latency_ns`
    /// counts simulated nanoseconds) is already a function of the seed.
    ///
    /// Two same-seed runs scrubbed this way are byte-identical, which is
    /// what lets CI diff artifacts across machines of different speeds.
    pub fn scrub_timings(&mut self) {
        for span in &mut self.spans {
            span.total_ns = 0;
            span.child_ns = 0;
        }
    }

    /// Serializes to deterministic pretty-printed JSON.
    pub fn to_json_string(&self) -> String {
        artifact::encode(self).to_pretty_string()
    }

    /// Parses and validates a snapshot produced by
    /// [`ObsSnapshot::to_json_string`] with the strict artifact reader: names
    /// are unique, and strictly ascending everywhere but `labels` (which
    /// keep insertion order).
    ///
    /// # Errors
    /// [`SnapshotError::Json`] on malformed JSON, [`SnapshotError::Schema`]
    /// naming the first element that violates the schema.
    pub fn from_json_str(input: &str) -> Result<Self, SnapshotError> {
        artifact::decode(&crate::json::parse(input)?, "")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn sample_snapshot() -> ObsSnapshot {
        let mut r = MetricsRegistry::default();
        r.counter_add(Metric::ValueTreeInserts, 120);
        r.counter_add(Metric::RoutingScansRouted, 7);
        r.counter_add(Metric::FragmentGreedyRuns, 1);
        r.gauge_set(Metric::ReplicationNashSurplus, 0.1 + 0.2);
        r.gauge_set(Metric::ClusterTotalCost, -1e-12);
        r.record(Metric::ClusterQueryLatencyNs, 1_500);
        r.record(Metric::ClusterQueryLatencyNs, 3_000);
        r.record(Metric::ReplicationReplicasPerFragment, 900);
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
        // Histograms, sim-time latency included, are untouched.
        assert_eq!(snap.histograms, sample_snapshot().histograms);
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
            (
                mutated(|s| {
                    let h = &mut s.histograms[0];
                    (h.max, h.sum, h.p50, h.p95, h.p99) = (5, 0, 900, 900, 900);
                }),
                "max outside its bucket, percentiles above max",
            ),
            (
                mutated(|s| s.histograms[0].p50 += 1),
                "percentile the buckets do not give",
            ),
            (
                mutated(|s| s.histograms[0].sum = 0),
                "sum below its buckets",
            ),
            (
                mutated(|s| s.histograms[0].sum = u64::MAX),
                "sum above its buckets",
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
