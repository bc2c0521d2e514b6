//! Regenerates the paper's figures and tables.
//!
//! ```text
//! figures all            # everything, in presentation order
//! figures fig6a fig8c    # specific experiments
//! figures --list         # available ids
//! ```

use std::time::Instant;

use nashdb_bench::{run_experiment, ALL_EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: figures <all | --list | ids...>");
        eprintln!("ids: {}", ALL_EXPERIMENTS.join(" "));
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    if args.iter().any(|a| a == "--list") {
        for id in ALL_EXPERIMENTS {
            println!("{id}");
        }
        return;
    }
    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        ALL_EXPERIMENTS.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    // Reject bad ids before running anything — a typo after an hour-long
    // sweep should not cost the sweep.
    for id in &ids {
        if !ALL_EXPERIMENTS.contains(id) {
            eprintln!("figures: unknown experiment id {id:?} (run with --list for the known ids)");
            std::process::exit(2);
        }
    }
    for id in ids {
        // Progress line for the operator; not part of any figure.
        #[allow(clippy::disallowed_methods)]
        let t0 = Instant::now();
        if let Err(e) = run_experiment(id) {
            eprintln!("figures: {e}");
            std::process::exit(2);
        }
        println!("  [{id} took {:.1}s]", t0.elapsed().as_secs_f64());
    }
}
