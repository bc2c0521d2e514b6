//! # nashdb-bench
//!
//! The experiment harness: one module per figure/table of the paper's
//! evaluation (§10 + appendices), all runnable through the `figures` binary:
//!
//! ```text
//! cargo run -p nashdb-bench --release --bin figures -- all
//! cargo run -p nashdb-bench --release --bin figures -- fig6a fig8c
//! ```
//!
//! Shared infrastructure lives in [`mod@env`]: per-workload experiment
//! environments (cluster parameters, NashDB economics autotuned to the
//! workload's scan sizes) and the system/router sweep helpers every
//! comparison experiment uses.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod compare;
pub mod env;
pub mod experiments;
pub mod scenarios;
pub mod smoke;

/// All experiment ids, in presentation order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "tab1", "fig6a", "fig6b", "fig6c", "fig9a", "fig7", "fig8a", "fig8b", "fig9b", "fig8c",
    "fig9c", "fig10", "fig11", "overhead", "market", "merge2", "p2c", "hetero",
];

/// An experiment id not listed in [`ALL_EXPERIMENTS`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownExperiment {
    /// The unrecognized id.
    pub id: String,
}

impl std::fmt::Display for UnknownExperiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown experiment id {:?} (known: {})",
            self.id,
            ALL_EXPERIMENTS.join(", ")
        )
    }
}

impl std::error::Error for UnknownExperiment {}

/// Runs one experiment by id, printing its table(s) to stdout.
///
/// # Errors
/// Returns [`UnknownExperiment`] for an id not in [`ALL_EXPERIMENTS`].
pub fn run_experiment(id: &str) -> Result<(), UnknownExperiment> {
    use experiments::*;
    match id {
        "tab1" => tab1::run(),
        "fig6a" => fig6::run_static(),
        "fig6b" => fig6::run_dynamic(),
        "fig6c" => priority::run_uniform_price(),
        "fig9a" => priority::run_template_price(),
        "fig7" => pareto::run(),
        "fig8a" => fixed::run_fixed_latency(),
        "fig8b" => fixed::run_fixed_cost(),
        "fig9b" => fixed::run_transfer(),
        "fig8c" => routing::run_latency(),
        "fig9c" => routing::run_span(),
        "fig10" => fixed::run_tail_latency(),
        "fig11" => throughput::run(),
        "overhead" => overhead::run(),
        "market" => ablations::run_market(),
        "merge2" => ablations::run_merge2(),
        "p2c" => ablations::run_p2c(),
        "hetero" => ablations::run_hetero(),
        other => {
            return Err(UnknownExperiment {
                id: other.to_owned(),
            })
        }
    }
    Ok(())
}

/// Prints a section header.
pub fn header(title: &str) {
    println!();
    println!("==== {title} ====");
}
