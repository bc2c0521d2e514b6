//! What is left of the retired worker pool: the two read-only functions the
//! frozen `benchmark/` package still links. The pipeline has no pool — its
//! one extra thread is the driver's distributor worker (DESIGN.md §10.3) —
//! and nothing in the workspace depends on this crate; it is deleted by
//! ROADMAP item A's benchmark PR.

/// The machine's available parallelism, floored at 1.
pub fn max_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Counters of the retired pool, in the shape the benchmark reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads ever spawned: none.
    pub threads_spawned: u64,
    /// Chunks executed on pool workers: none.
    pub chunks_executed: u64,
    /// Parallel calls: none.
    pub parallel_rounds: u64,
}

/// All zero: there is no pool.
pub fn pool_stats() -> PoolStats {
    PoolStats::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stub_reports_no_pool_and_at_least_one_thread() {
        let s = pool_stats();
        assert_eq!(
            (s.threads_spawned, s.chunks_executed, s.parallel_rounds),
            (0, 0, 0)
        );
        assert!(max_threads() >= 1);
    }
}
