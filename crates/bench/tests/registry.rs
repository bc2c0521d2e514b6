//! The two stage-name registries — `nashdb-bench smoke`'s coverage gate
//! ([`nashdb_bench::smoke::REQUIRED_STAGES`]) and the linter's metric-name
//! allowlist ([`nashdb_lint::STAGE_PREFIXES`]) — must agree, or a metric
//! can pass the linter yet be invisible to the coverage check (and vice
//! versa).

use nashdb_bench::smoke::REQUIRED_STAGES;
use nashdb_lint::STAGE_PREFIXES;

#[test]
fn smoke_coverage_equals_the_lint_registry() {
    assert_eq!(REQUIRED_STAGES, STAGE_PREFIXES);
}
