#!/bin/sh
# Runs the end-to-end set twice on this commit and checks the second run
# against the first with the bounds of BENCHMARK.json (simulated outcomes
# must be equal bit for bit). Extra arguments (--seed N, --seconds S,
# --quick) are passed through. Exits nonzero if any pair disagrees.
set -eu
cd "$(dirname "$0")/.."
exec cargo run --quiet --release --offline --manifest-path benchmark/Cargo.toml -- --repeat-check "$@"
