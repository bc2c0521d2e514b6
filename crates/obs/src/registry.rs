//! The in-memory metric store behind an observability session.

use std::collections::BTreeMap;

use crate::histogram::Histogram;
use crate::names::Metric;
use crate::snapshot::SpanSnapshot;
use crate::{ObsSnapshot, SNAPSHOT_VERSION};

/// All metrics recorded during one session: counters, gauges and
/// histograms in one slot per [`Metric`], and span statistics keyed by
/// slash-joined path.
///
/// A slot is `None` until first touched, so a zero-delta counter still
/// appears. Iterating [`Metric::ALL`] visits slots in name order and the
/// span `BTreeMap` is sorted too, so two identical runs produce
/// byte-identical snapshots.
#[derive(Debug)]
pub(crate) struct MetricsRegistry {
    pub counters: Vec<Option<u64>>,
    pub gauges: Vec<Option<f64>>,
    pub histograms: Vec<Option<Histogram>>,
    pub spans: BTreeMap<String, SpanSnapshot>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        let slots = Metric::ALL.len();
        MetricsRegistry {
            counters: vec![None; slots],
            gauges: vec![None; slots],
            histograms: vec![None; slots],
            spans: BTreeMap::new(),
        }
    }
}

/// `(metric, value)` for every filled slot, in name order.
pub(crate) fn filled<T>(slots: &[Option<T>]) -> impl Iterator<Item = (Metric, &T)> {
    Metric::ALL
        .iter()
        .zip(slots)
        .filter_map(|(&m, slot)| slot.as_ref().map(|v| (m, v)))
}

impl MetricsRegistry {
    /// Adds `delta` to the counter (saturating).
    pub fn counter_add(&mut self, metric: Metric, delta: u64) {
        let slot = self.counters[metric as usize].get_or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// Sets the gauge to its latest value. Non-finite values are ignored
    /// so snapshots stay valid JSON.
    pub fn gauge_set(&mut self, metric: Metric, value: f64) {
        if value.is_finite() {
            self.gauges[metric as usize] = Some(value);
        }
    }

    /// Records one sample into the histogram.
    pub fn record(&mut self, metric: Metric, value: u64) {
        self.histograms[metric as usize]
            .get_or_insert_with(Histogram::new)
            .record(value);
    }

    /// Adds one completed span occurrence to the named span path.
    pub fn span_add(&mut self, path: &str, elapsed_ns: u64, child_ns: u64) {
        let stat = self
            .spans
            .entry(path.to_owned())
            .or_insert_with(|| SpanSnapshot {
                path: path.to_owned(),
                ..SpanSnapshot::default()
            });
        stat.count = stat.count.saturating_add(1);
        stat.total_ns = stat.total_ns.saturating_add(elapsed_ns);
        stat.child_ns = stat.child_ns.saturating_add(child_ns);
    }

    /// Folds in what another thread's session recorded: counters add,
    /// histograms merge and span statistics add path by path, all
    /// saturating, so the order registries are folded in does not matter.
    /// A gauge `other` set replaces this one's, which is order-free only
    /// while each gauge is set on one thread.
    pub fn absorb(&mut self, other: MetricsRegistry) {
        for (slot, delta) in self.counters.iter_mut().zip(other.counters) {
            if let Some(delta) = delta {
                let total = slot.get_or_insert(0);
                *total = total.saturating_add(delta);
            }
        }
        for (slot, value) in self.gauges.iter_mut().zip(other.gauges) {
            if value.is_some() {
                *slot = value;
            }
        }
        for (slot, h) in self.histograms.iter_mut().zip(other.histograms) {
            match (slot.as_mut(), h) {
                (Some(mine), Some(h)) => mine.merge(&h),
                (None, h) => *slot = h,
                (Some(_), None) => {}
            }
        }
        for (path, s) in other.spans {
            let stat = self.spans.entry(path).or_insert_with(|| SpanSnapshot {
                path: s.path.clone(),
                ..SpanSnapshot::default()
            });
            stat.count = stat.count.saturating_add(s.count);
            stat.total_ns = stat.total_ns.saturating_add(s.total_ns);
            stat.child_ns = stat.child_ns.saturating_add(s.child_ns);
        }
    }
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
                .map(|(m, h)| h.snapshot(m.name()))
                .collect(),
            spans: registry.spans.into_values().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_saturate() {
        let mut r = MetricsRegistry::default();
        let x = Metric::RoutingRequests;
        r.counter_add(x, 3);
        r.counter_add(x, 4);
        assert_eq!(filled(&r.counters).collect::<Vec<_>>(), [(x, &7)]);
        r.counter_add(x, u64::MAX);
        // A zero delta still makes the counter appear.
        r.counter_add(Metric::ClusterTuplesLost, 0);
        let all: Vec<_> = filled(&r.counters).collect();
        assert_eq!(all, [(Metric::ClusterTuplesLost, &0), (x, &u64::MAX)]);
    }

    #[test]
    fn gauges_keep_latest_and_reject_non_finite() {
        let mut r = MetricsRegistry::default();
        let g = Metric::ClusterTotalCost;
        r.gauge_set(g, 1.5);
        r.gauge_set(g, -2.5);
        r.gauge_set(g, f64::NAN);
        r.gauge_set(g, f64::INFINITY);
        r.gauge_set(Metric::ClusterNodes, f64::NAN);
        assert_eq!(filled(&r.gauges).collect::<Vec<_>>(), [(g, &-2.5)]);
    }

    #[test]
    fn histograms_record_samples() {
        let mut r = MetricsRegistry::default();
        r.record(Metric::RoutingQuerySpan, 10);
        r.record(Metric::RoutingQuerySpan, 20);
        let all: Vec<_> = filled(&r.histograms).collect();
        assert_eq!(all.len(), 1);
        let (metric, h) = all[0];
        assert_eq!(metric, Metric::RoutingQuerySpan);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 30);
    }

    #[test]
    fn spans_accumulate_occurrences() {
        let mut r = MetricsRegistry::default();
        r.span_add("a/b", 100, 40);
        r.span_add("a/b", 50, 0);
        let s = r.spans.get("a/b").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.total_ns, 150);
        assert_eq!(s.child_ns, 40);
    }

    #[test]
    fn absorbing_equals_recording_in_one_registry() {
        let worker = |r: &mut MetricsRegistry| {
            r.counter_add(Metric::ValueTreeInserts, 5);
            r.counter_add(Metric::RoutingRequests, 1);
            r.gauge_set(Metric::DistributorNodes, 7.0);
            r.record(Metric::PackingNodeFillTuples, 900);
            r.span_add("distributor", 50, 30);
            r.span_add("distributor/scheme", 30, 0);
        };
        let serving = |r: &mut MetricsRegistry| {
            r.counter_add(Metric::RoutingRequests, 2);
            r.gauge_set(Metric::ClusterNodes, 3.0);
            r.record(Metric::PackingNodeFillTuples, 4);
            r.span_add("pipeline", 80, 0);
        };
        let mut one = MetricsRegistry::default();
        worker(&mut one);
        serving(&mut one);
        let (mut main, mut other) = (MetricsRegistry::default(), MetricsRegistry::default());
        serving(&mut main);
        worker(&mut other);
        main.absorb(other);
        let capture = |r| ObsSnapshot::capture(r, Vec::new()).to_json_string();
        assert_eq!(capture(main), capture(one));
    }

    #[test]
    fn iteration_is_sorted() {
        let mut r = MetricsRegistry::default();
        r.counter_add(Metric::ValueTreeInserts, 1);
        r.counter_add(Metric::ClusterJobsLost, 1);
        r.counter_add(Metric::PackingPlacements, 1);
        let order: Vec<_> = filled(&r.counters).map(|(m, _)| m).collect();
        let expected = [
            Metric::ClusterJobsLost,
            Metric::PackingPlacements,
            Metric::ValueTreeInserts,
        ];
        assert_eq!(order, expected);
    }

    #[test]
    fn empty_registry_reports_empty() {
        let r = MetricsRegistry::default();
        assert_eq!(filled(&r.counters).count(), 0);
        assert_eq!(filled(&r.gauges).count(), 0);
        assert_eq!(filled(&r.histograms).count(), 0);
        assert!(r.spans.is_empty());
    }
}
