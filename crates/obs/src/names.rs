//! The closed set of names a session can record under: pipeline stages,
//! metrics and span segments.
//!
//! Each name is written once, in a table below; call sites pass the enum,
//! so a misspelled or unregistered name does not compile. The tables are
//! append-only in spirit: a variant's string is what snapshots on disk
//! carry, so renaming one is a schema change. `Metric` rows stay in name
//! (byte) order, which makes [`Metric::ALL`] the snapshot emission order
//! and lets the registry index a fixed array by variant.

/// Declares a fieldless enum whose variants each stand for one string,
/// with `ALL` in declaration order and `$accessor` returning the string.
macro_rules! named_enum {
    ($(#[$meta:meta])* $ty:ident::$accessor:ident { $($variant:ident => $name:literal,)* }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[allow(missing_docs)]
        pub enum $ty {
            $($variant,)*
        }

        impl $ty {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$ty] = &[$($ty::$variant,)*];

            /// The string this variant stands for.
            pub const fn $accessor(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)*
                }
            }
        }
    };
}

/// Declares [`Metric`] from rows of `Variant => "name", Stage`.
macro_rules! metrics {
    ($($variant:ident => $name:literal, $stage:ident;)*) => {
        named_enum! {
            /// Every counter, gauge and histogram the pipeline records,
            /// declared in name order.
            Metric::name { $($variant => $name,)* }
        }

        impl Metric {
            /// The pipeline stage this metric reports on.
            pub const fn stage(self) -> Stage {
                match self {
                    $(Metric::$variant => Stage::$stage,)*
                }
            }
        }
    };
}

named_enum! {
    /// The pipeline stages, in pipeline order. Every metric name starts
    /// with its stage's prefix.
    Stage::prefix {
        ValueTree => "value_tree.",
        Fragment => "fragment.",
        Replication => "replication.",
        Packing => "packing.",
        Transition => "transition.",
        Routing => "routing.",
        Cluster => "cluster.",
        Distributor => "distributor.",
    }
}

named_enum! {
    /// The span segments [`crate::span`] nests into slash-joined paths
    /// such as `distributor/scheme/fragment`.
    Span::name {
        Pipeline => "pipeline",
        Provision => "provision",
        Reconfigure => "reconfigure",
        Query => "query",
        Scheme => "scheme",
        Fragment => "fragment",
        Greedy => "greedy",
        Replication => "replication",
        ValueChunks => "value_chunks",
        Route => "route",
        Place => "place",
        Transition => "transition",
        Hungarian => "hungarian",
        Retry => "retry",
        Distributor => "distributor",
    }
}

metrics! {
    ClusterDegradedMs => "cluster.degraded_ms", Cluster;
    ClusterDispatchRejected => "cluster.dispatch_rejected", Cluster;
    ClusterFaultsSkipped => "cluster.faults_skipped", Cluster;
    ClusterJobsLost => "cluster.jobs_lost", Cluster;
    ClusterNodeCrashes => "cluster.node_crashes", Cluster;
    ClusterNodeRestarts => "cluster.node_restarts", Cluster;
    ClusterNodeUtilizationPpm => "cluster.node_utilization_ppm", Cluster;
    ClusterNodes => "cluster.nodes", Cluster;
    ClusterPlansRejected => "cluster.plans_rejected", Cluster;
    ClusterQueriesAbandoned => "cluster.queries_abandoned", Cluster;
    ClusterQueriesCompleted => "cluster.queries_completed", Cluster;
    ClusterQueriesFailed => "cluster.queries_failed", Cluster;
    ClusterQueriesRejected => "cluster.queries_rejected", Cluster;
    ClusterQueriesRetried => "cluster.queries_retried", Cluster;
    ClusterQueryLatencyNs => "cluster.query_latency_ns", Cluster;
    ClusterQuerySpan => "cluster.query_span", Cluster;
    ClusterReadsDispatched => "cluster.reads_dispatched", Cluster;
    ClusterReadsWasted => "cluster.reads_wasted", Cluster;
    ClusterReconfigurations => "cluster.reconfigurations", Cluster;
    ClusterTotalCost => "cluster.total_cost", Cluster;
    ClusterTransferTuples => "cluster.transfer_tuples", Cluster;
    ClusterTuplesLost => "cluster.tuples_lost", Cluster;
    DistributorFragments => "distributor.fragments", Distributor;
    DistributorNodes => "distributor.nodes", Distributor;
    FragmentGreedyChanges => "fragment.greedy_changes", Fragment;
    FragmentGreedyRuns => "fragment.greedy_runs", Fragment;
    PackingNodeFillTuples => "packing.node_fill_tuples", Packing;
    PackingNodes => "packing.nodes", Packing;
    PackingPlacements => "packing.placements", Packing;
    ReplicationDecisions => "replication.decisions", Replication;
    ReplicationForcedSingles => "replication.forced_singles", Replication;
    ReplicationNashSurplus => "replication.nash_surplus", Replication;
    ReplicationReplicasPerFragment => "replication.replicas_per_fragment", Replication;
    ReplicationReplicasTotal => "replication.replicas_total", Replication;
    RoutingBatchScans => "routing.batch_scans", Routing;
    RoutingBatchesRouted => "routing.batches_routed", Routing;
    RoutingQuerySpan => "routing.query_span", Routing;
    RoutingQueueWaitTuples => "routing.queue_wait_tuples", Routing;
    RoutingRequests => "routing.requests", Routing;
    RoutingScansRouted => "routing.scans_routed", Routing;
    RoutingUnroutableScans => "routing.unroutable_scans", Routing;
    TransitionDecommissioned => "transition.decommissioned", Transition;
    TransitionMatrixDim => "transition.matrix_dim", Transition;
    TransitionPlans => "transition.plans", Transition;
    TransitionProvisioned => "transition.provisioned", Transition;
    TransitionTuplesMoved => "transition.tuples_moved", Transition;
    ValueTreeEvictions => "value_tree.evictions", ValueTree;
    ValueTreeInserts => "value_tree.inserts", ValueTree;
}

impl Metric {
    /// The metric a snapshot entry names, if it is one of today's.
    pub fn from_name(name: &str) -> Option<Metric> {
        Metric::ALL
            .binary_search_by(|m| m.name().cmp(name))
            .ok()
            .map(|i| Metric::ALL[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn metrics_are_declared_in_strict_name_order() {
        for pair in Metric::ALL.windows(2) {
            assert!(pair[0].name() < pair[1].name(), "{pair:?}");
        }
        // The registry indexes its slots by discriminant.
        for (i, &m) in Metric::ALL.iter().enumerate() {
            assert_eq!(m as usize, i);
        }
    }

    #[test]
    fn names_are_unique() {
        // Metric names are: the order above is strict.
        let spans: BTreeSet<_> = Span::ALL.iter().map(|s| s.name()).collect();
        let stages: BTreeSet<_> = Stage::ALL.iter().map(|s| s.prefix()).collect();
        assert_eq!(spans.len(), Span::ALL.len());
        assert_eq!(stages.len(), Stage::ALL.len());
    }

    #[test]
    fn every_metric_carries_its_stage_prefix_and_every_stage_has_one() {
        for &m in Metric::ALL {
            assert!(m.name().starts_with(m.stage().prefix()), "{m:?}");
        }
        for &stage in Stage::ALL {
            assert!(Metric::ALL.iter().any(|m| m.stage() == stage), "{stage:?}");
        }
    }

    #[test]
    fn span_segments_are_single_segments() {
        for &s in Span::ALL {
            assert!(!s.name().is_empty() && !s.name().contains('/'), "{s:?}");
        }
    }

    #[test]
    fn only_simulated_time_is_a_metric_in_nanoseconds_and_names_invert() {
        // Host wall-clock is a span's job; the one `_ns` metric is the
        // simulator's own, deterministic clock.
        for &m in Metric::ALL {
            let ns = m.name().ends_with("_ns");
            assert_eq!(ns, m == Metric::ClusterQueryLatencyNs, "{m:?}");
            assert_eq!(Metric::from_name(m.name()), Some(m));
        }
        assert_eq!(Metric::from_name("cluster.querys_completed"), None);
    }
}
