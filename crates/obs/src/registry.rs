//! The in-memory metric store behind an observability session.

use std::collections::BTreeMap;

use crate::histogram::Histogram;

/// Accumulated wall-clock statistics for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Times the span was entered.
    pub count: u64,
    /// Total nanoseconds spent inside the span (including children).
    pub total_ns: u64,
    /// Nanoseconds attributed to directly nested child spans.
    pub child_ns: u64,
}

/// All metrics recorded during one session: counters, gauges, histograms,
/// and span statistics, each keyed by name.
///
/// `BTreeMap` keeps iteration (and therefore snapshot emission) in sorted,
/// deterministic order — two identical runs produce byte-identical output.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    spans: BTreeMap<String, SpanStat>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter (saturating).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        if let Some(slot) = self.counters.get_mut(name) {
            *slot = slot.saturating_add(delta);
        } else {
            self.counters.insert(name.to_owned(), delta);
        }
    }

    /// Sets the named gauge to its latest value. Non-finite values are
    /// ignored so snapshots stay valid JSON.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        if value.is_finite() {
            self.gauges.insert(name.to_owned(), value);
        }
    }

    /// Records one sample into the named histogram.
    pub fn record(&mut self, name: &str, value: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record(value);
        } else {
            let mut h = Histogram::new();
            h.record(value);
            self.histograms.insert(name.to_owned(), h);
        }
    }

    /// Adds one completed span occurrence to the named span path.
    pub fn span_add(&mut self, path: &str, elapsed_ns: u64, child_ns: u64) {
        let stat = self.spans.entry(path.to_owned()).or_default();
        stat.count = stat.count.saturating_add(1);
        stat.total_ns = stat.total_ns.saturating_add(elapsed_ns);
        stat.child_ns = stat.child_ns.saturating_add(child_ns);
    }

    /// The named counter's value (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named gauge's latest value, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// The named span path's statistics, if the span ever closed.
    pub fn span(&self, path: &str) -> Option<&SpanStat> {
        self.spans.get(path)
    }

    /// All counters in sorted name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges in sorted name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms in sorted name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// All span paths in sorted order.
    pub fn spans(&self) -> impl Iterator<Item = (&str, &SpanStat)> {
        self.spans.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True iff nothing at all has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_saturate() {
        let mut r = MetricsRegistry::new();
        assert_eq!(r.counter("x"), 0);
        r.counter_add("x", 3);
        r.counter_add("x", 4);
        assert_eq!(r.counter("x"), 7);
        r.counter_add("x", u64::MAX);
        assert_eq!(r.counter("x"), u64::MAX);
    }

    #[test]
    fn gauges_keep_latest_and_reject_non_finite() {
        let mut r = MetricsRegistry::new();
        r.gauge_set("g", 1.5);
        r.gauge_set("g", -2.5);
        assert_eq!(r.gauge("g"), Some(-2.5));
        r.gauge_set("g", f64::NAN);
        r.gauge_set("g", f64::INFINITY);
        assert_eq!(r.gauge("g"), Some(-2.5));
        r.gauge_set("never", f64::NAN);
        assert_eq!(r.gauge("never"), None);
    }

    #[test]
    fn histograms_record_samples() {
        let mut r = MetricsRegistry::new();
        r.record("h", 10);
        r.record("h", 20);
        let h = r.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 30);
        assert!(r.histogram("missing").is_none());
    }

    #[test]
    fn spans_accumulate_occurrences() {
        let mut r = MetricsRegistry::new();
        r.span_add("a/b", 100, 40);
        r.span_add("a/b", 50, 0);
        let s = r.span("a/b").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.total_ns, 150);
        assert_eq!(s.child_ns, 40);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut r = MetricsRegistry::new();
        r.counter_add("z", 1);
        r.counter_add("a", 1);
        r.counter_add("m", 1);
        let names: Vec<_> = r.counters().map(|(n, _)| n.to_owned()).collect();
        assert_eq!(names, vec!["a", "m", "z"]);
    }

    #[test]
    fn empty_registry_reports_empty() {
        let mut r = MetricsRegistry::new();
        assert!(r.is_empty());
        r.counter_add("c", 1);
        assert!(!r.is_empty());
    }
}
