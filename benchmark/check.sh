#!/usr/bin/env bash
# Lint, test and smoke-run the benchmark harness. Run from anywhere:
#
#     benchmark/check.sh
#
# Fails if formatting or clippy complain, a harness unit test fails
# (one of them compares every workload and metric name with
# BENCHMARK.json, in both directions, and checks the name charset), or
# a --quick pass of any workload, untraced or traced, exits non-zero.
# A run refuses to print its result line unless the names it measured
# are exactly the declared ones, so a passing run is a name check too.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline
cargo build --release --offline

# From the repository root, as the benchmark command runs it.
bin="$(cd "${CARGO_TARGET_DIR:-target}" && pwd)/release/eie-benchmark"
cd ..
"$bin" --list | sed -n 's/^workload //p' | while read -r workload; do
    for trace in 0 1; do
        echo "== $workload --quick --trace $trace"
        "$bin" --workload "$workload" --quick --trace "$trace" --seed 1 | tail -n 1
    done
done
echo "benchmark/check.sh: all good"
