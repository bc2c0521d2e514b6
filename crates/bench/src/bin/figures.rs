//! Regenerates the paper's figures and tables.
//!
//! ```text
//! figures all            # everything, in presentation order
//! figures fig6a fig8c    # specific experiments
//! figures --list         # available ids
//! ```

use std::time::Instant;

use nashdb_bench::{find_experiment, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all: Vec<&str> = EXPERIMENTS.iter().map(|&(id, _)| id).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: figures <all | --list | ids...>");
        eprintln!("ids: {}", all.join(" "));
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    if args.iter().any(|a| a == "--list") {
        for id in &all {
            println!("{id}");
        }
        return;
    }
    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        all
    } else {
        args.iter().map(String::as_str).collect()
    };
    // Resolve every id before running anything — a typo after an hour-long
    // sweep should not cost the sweep.
    let runs: Vec<(&str, fn())> = ids
        .into_iter()
        .map(|id| match find_experiment(id) {
            Ok(run) => (id, run),
            Err(e) => {
                eprintln!("figures: {e}");
                std::process::exit(2);
            }
        })
        .collect();
    for (id, run) in runs {
        // Progress line for the operator; not part of any figure.
        #[allow(clippy::disallowed_methods)]
        let t0 = Instant::now();
        run();
        println!("  [{id} took {:.1}s]", t0.elapsed().as_secs_f64());
    }
}
