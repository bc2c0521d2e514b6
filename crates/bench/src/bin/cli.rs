//! `nashdb-cli` — run any of the reproduced systems on a workload, from a
//! generator or a trace file, and print the run's metrics.
//!
//! ```text
//! nashdb-cli --generate bernoulli --size-gb 8 --queries 300
//! nashdb-cli --trace my.trace --system threshold --nodes 12
//! nashdb-cli --generate tpch --save-trace tpch.trace --dry-run
//! nashdb-cli --help
//! ```

use nashdb_bench::env::{run_system, ExpEnv, Router, System};
use nashdb_bench::scenarios::BudgetLevel;
use nashdb_bench::{check_generator_flags, check_price, die, Args};
use nashdb_sim::SimDuration;
use nashdb_workload::bernoulli::{self, BernoulliConfig};
use nashdb_workload::random::{self, RandomConfig};
use nashdb_workload::tpch::{self, TpchConfig};
use nashdb_workload::{realistic, trace, Workload};

const HELP: &str = "\
nashdb-cli — run a NashDB (or baseline) simulation on a workload

WORKLOAD (exactly one):
  --trace FILE            load a workload trace (see nashdb_workload::trace)
  --generate KIND         bernoulli | random | tpch | real1-static |
                          real1-dynamic | real2-dynamic

GENERATOR OPTIONS:
  --size-gb N             database size for bernoulli/random/tpch (default 8)
  --queries N             query count for bernoulli/random (default 200)
  --seed N                RNG seed (default 1)
  --price X               uniform query price (default 1.0)

SYSTEM:
  --system NAME           nashdb (default) | hypergraph | threshold
  --nodes N               partition/node count for the baselines (default:
                          twice the nodes one copy of the database needs)
  --price-mult X          scale all query prices (NashDB's knob, default 1)

ROUTER:
  --router NAME           max-of-mins (default) | shortest-queue |
                          greedy-sc | power-of-two

CLUSTER (defaults autotuned from the workload, as in the experiments):
  --disk-frac X           node disk as a fraction of the DB (default 0.125)
  --interval SECS         reconfiguration interval (default 3600)
  --warmup N              prime the system with the first N queries

OUTPUT:
  --save-trace FILE       write the workload as a trace and continue
  --dry-run               stop after generating/saving (no simulation)
  --throughput            also print the throughput-over-time series
  -h, --help              this text
";

fn main() {
    let mut args = Args::from_env();
    if args.flag("--help") || args.flag("-h") {
        print!("{HELP}");
        return;
    }

    // Workload.
    let size_gb: u64 = args.parse("--size-gb").unwrap_or(8);
    let queries: usize = args.parse("--queries").unwrap_or(200);
    let seed: u64 = args.parse("--seed").unwrap_or(1);
    let price: f64 = args.parse("--price").unwrap_or(1.0);
    let price_mult: f64 = args.parse("--price-mult").unwrap_or(1.0);
    check_generator_flags(size_gb, queries, price)
        .and_then(|()| check_price("--price-mult", price_mult))
        .unwrap_or_else(|e| die(&e));
    let workload: Workload = match (args.value("--trace"), args.value("--generate")) {
        (Some(path), None) => trace::load(&path).unwrap_or_else(|e| die(&format!("{e}"))),
        (None, Some(kind)) => match kind.as_str() {
            "bernoulli" => bernoulli::workload(&BernoulliConfig {
                size_gb,
                queries,
                price,
                spacing: SimDuration::from_secs(10),
                seed,
            }),
            "random" => random::workload(&RandomConfig {
                size_gb,
                queries,
                duration: SimDuration::from_secs(24 * 3600),
                price,
                seed,
            }),
            "tpch" => tpch::workload(&TpchConfig {
                size_gb,
                rounds: (queries / 22).max(1),
                price,
                price_overrides: Vec::new(),
                spacing: SimDuration::from_secs(20),
                seed,
            }),
            "real1-static" => realistic::real1_static(seed),
            "real1-dynamic" => realistic::real1_dynamic(seed),
            "real2-dynamic" => realistic::real2_dynamic(seed),
            other => die(&format!("unknown generator {other:?}")),
        },
        (Some(_), Some(_)) => die("--trace and --generate are mutually exclusive"),
        (None, None) => die("need --trace FILE or --generate KIND"),
    };
    println!(
        "workload: {} — {} queries over {:.1} GB",
        workload.name,
        workload.queries.len(),
        workload.db.total_tuples() as f64 / 1e6
    );

    if let Some(path) = args.value("--save-trace") {
        trace::save(&workload, &path).unwrap_or_else(|e| die(&format!("saving trace: {e}")));
        println!("trace written to {path}");
    }
    if args.flag("--dry-run") {
        return;
    }

    // Environment.
    let disk_frac: f64 = args.parse("--disk-frac").unwrap_or(0.125);
    let mut env = ExpEnv::for_workload(&workload, disk_frac);
    if let Some(secs) = args.parse::<u64>("--interval") {
        env.run.reconfig_interval = SimDuration::from_secs(secs.max(1));
    }
    if let Some(n) = args.parse::<usize>("--warmup") {
        env = env.warmed(n);
    }

    // System and router.
    let nodes: usize = args
        .parse("--nodes")
        .unwrap_or_else(|| BudgetLevel::Ample.baseline_nodes(&workload, env.disk));
    let system_flag = args.value("--system").unwrap_or_else(|| "nashdb".into());
    let system = [
        System::NashDb { price_mult },
        System::Hypergraph { parts: nodes },
        System::Threshold { nodes },
    ]
    .into_iter()
    .find(|s| s.flag() == system_flag)
    .unwrap_or_else(|| die(&format!("unknown system {system_flag:?}")));
    let router_flag = args
        .value("--router")
        .unwrap_or_else(|| "max-of-mins".into());
    let router = Router::all(seed)
        .into_iter()
        .find(|r| r.flag() == router_flag)
        .unwrap_or_else(|| die(&format!("unknown router {router_flag:?}")));

    let want_throughput = args.flag("--throughput");
    args.finish();

    let metrics = run_system(&workload, system, router, &env);

    println!();
    println!("system            : {system_flag} + {router_flag}");
    println!("completed queries : {}", metrics.queries.len());
    println!("mean latency      : {:.3} s", metrics.mean_latency_secs());
    for p in [50.0, 95.0, 99.0] {
        println!(
            "p{p:<2} latency       : {:.3} s",
            metrics.latency_percentile_secs(p).unwrap_or(0.0)
        );
    }
    println!("mean query span   : {:.2} nodes", metrics.mean_span());
    println!("peak cluster size : {} nodes", metrics.peak_nodes);
    println!("reconfigurations  : {}", metrics.reconfigurations);
    println!(
        "data transferred  : {:.2} GB total ({:.2} GB/transition)",
        metrics.total_transfer() as f64 / 1e6,
        metrics.total_transfer() as f64 / 1e6 / metrics.reconfigurations.max(1) as f64
    );
    println!("total cost        : {:.1} (1/100 cent)", metrics.total_cost);

    if want_throughput {
        println!();
        println!("throughput (GB read per bucket):");
        for (t, v) in metrics.read_throughput.buckets() {
            if v > 0.0 {
                println!("  {:>10.1} min  {:>10.2}", t.as_secs_f64() / 60.0, v / 1e6);
            }
        }
    }
}
