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

/// Every experiment, in presentation order: its id and its entry point.
pub const EXPERIMENTS: &[(&str, fn())] = {
    use experiments::*;
    &[
        ("tab1", tab1::run),
        ("fig6a", fig6::run_static),
        ("fig6b", fig6::run_dynamic),
        ("fig6c", priority::run_uniform_price),
        ("fig9a", priority::run_template_price),
        ("fig7", pareto::run),
        ("fig8a", fixed::run_fixed_latency),
        ("fig8b", fixed::run_fixed_cost),
        ("fig9b", fixed::run_transfer),
        ("fig8c", routing::run_latency),
        ("fig9c", routing::run_span),
        ("fig10", fixed::run_tail_latency),
        ("fig11", throughput::run),
        ("overhead", overhead::run),
        ("market", ablations::run_market),
        ("merge2", ablations::run_merge2),
        ("p2c", ablations::run_p2c),
    ]
};

/// An experiment id not listed in [`EXPERIMENTS`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownExperiment {
    /// The unrecognized id.
    pub id: String,
}

impl std::fmt::Display for UnknownExperiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|&(id, _)| id).collect();
        write!(
            f,
            "unknown experiment id {:?} (known: {})",
            self.id,
            known.join(", ")
        )
    }
}

impl std::error::Error for UnknownExperiment {}

/// The entry point of the experiment `id`, which prints its table(s) to
/// stdout.
///
/// # Errors
/// Returns [`UnknownExperiment`] for an id not in [`EXPERIMENTS`].
pub fn find_experiment(id: &str) -> Result<fn(), UnknownExperiment> {
    EXPERIMENTS
        .iter()
        .find(|&&(known, _)| known == id)
        .map(|&(_, run)| run)
        .ok_or_else(|| UnknownExperiment { id: id.to_owned() })
}

/// Command-line arguments not yet consumed; each accessor removes what it
/// reads, so whatever is left at the end is unrecognized.
#[derive(Debug)]
pub struct Args(pub Vec<String>);

impl Args {
    /// The process's arguments, program name skipped.
    pub fn from_env() -> Args {
        Args(std::env::args().skip(1).collect())
    }

    /// Consumes the switch `name`, reporting whether it was present.
    pub fn flag(&mut self, name: &str) -> bool {
        if let Some(i) = self.0.iter().position(|a| a == name) {
            self.0.remove(i);
            true
        } else {
            false
        }
    }

    /// Consumes `name VALUE`, returning the value; dies if `name` is last.
    pub fn value(&mut self, name: &str) -> Option<String> {
        let i = self.0.iter().position(|a| a == name)?;
        if i + 1 >= self.0.len() {
            die(&format!("{name} requires a value"));
        }
        let v = self.0.remove(i + 1);
        self.0.remove(i);
        Some(v)
    }

    /// [`value`](Self::value), parsed; dies on a value that does not parse.
    pub fn parse<T: std::str::FromStr>(&mut self, name: &str) -> Option<T> {
        self.value(name).map(|v| {
            v.parse().unwrap_or_else(|_| {
                die(&format!("invalid value {v:?} for {name}"));
            })
        })
    }

    /// Dies if any argument was left unconsumed.
    pub fn finish(&self) {
        if !self.0.is_empty() {
            die(&format!("unrecognized arguments: {:?}", self.0));
        }
    }
}

/// Rejects generator flags a generator cannot take: a zero size or query
/// count and a negative or non-finite price panic inside it, a size whose
/// tuple count overflows `u64` would silently wrap, and a price whose
/// product with the database's tuples is infinite would fail
/// `Database::check_query` on the larger scans. Both binaries call it
/// before any generator runs, and [`die`] on its error.
pub fn check_generator_flags(size_gb: u64, queries: usize, price: f64) -> Result<(), String> {
    let max_gb = u64::MAX / nashdb_workload::TUPLES_PER_GB;
    if !(1..=max_gb).contains(&size_gb) {
        return Err(format!("--size-gb must be in 1..={max_gb}, got {size_gb}"));
    }
    if queries == 0 {
        return Err("--queries must be at least 1".into());
    }
    check_price("--price", price)?;
    let tuples = size_gb * nashdb_workload::TUPLES_PER_GB;
    if (price * tuples as f64).is_finite() {
        Ok(())
    } else {
        Err(format!(
            "--price {price:e} times the database's {tuples} tuples must be finite"
        ))
    }
}

/// Rejects a negative or non-finite `--price` or `--price-mult`: every
/// query it priced would fail `Database::check_query` and be abandoned.
pub fn check_price(flag: &str, value: f64) -> Result<(), String> {
    if value.is_finite() && value >= 0.0 {
        Ok(())
    } else {
        Err(format!("{flag} must be finite and >= 0, got {value}"))
    }
}

/// Reports a usage error and exits with status 2.
pub fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n\nrun with --help for usage");
    std::process::exit(2)
}

/// Prints a section header.
pub fn header(title: &str) {
    println!();
    println!("==== {title} ====");
}

#[cfg(test)]
mod tests {
    use super::*;
    use nashdb_workload::TUPLES_PER_GB;

    #[test]
    fn generator_flags_are_checked() {
        assert_eq!(check_generator_flags(8, 200, 1.0), Ok(()));
        assert_eq!(
            check_generator_flags(u64::MAX / TUPLES_PER_GB, 1, 0.0),
            Ok(())
        );
        assert_eq!(check_generator_flags(1, 40, 1e300), Ok(()));
        for (size_gb, queries, price) in [
            (0, 200, 1.0),
            (20_000_000_000_000, 200, 1.0),
            (8, 0, 1.0),
            (8, 200, f64::NAN),
            (8, 200, -3.0),
            (8, 200, f64::INFINITY),
            (1, 40, 1e308),
        ] {
            assert!(
                check_generator_flags(size_gb, queries, price).is_err(),
                "accepted --size-gb {size_gb} --queries {queries} --price {price}"
            );
        }
        assert_eq!(check_price("--price-mult", 0.0), Ok(()));
        for mult in [f64::NAN, -1.0, f64::NEG_INFINITY] {
            assert!(check_price("--price-mult", mult).is_err(), "{mult}");
        }
    }
}
