#!/usr/bin/env bash
# One command: build release, run all four workloads (each in its own
# process), write the result artifact, and compare it with the committed
# seed-state baseline.
#
#   crates/slotbench/run.sh                 # run + compare with baseline/
#   crates/slotbench/run.sh --rebaseline    # run + replace the baseline
#
# BENCHMARK.json at the repository root carries no numbers (its schema is
# fixed by the PR driver); the seed-state numbers live in
# crates/slotbench/baseline/seed_state.json and in the README.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cd "$here/../.."

out_dir="$here/out"
baseline="$here/baseline/seed_state.json"
mkdir -p "$out_dir"

cargo build --release -p waran-slotbench
bin="${CARGO_TARGET_DIR:-target}/release/slotbench"

"$bin" run all --out "$out_dir/latest.json" --trace-out "$out_dir/spans.csv"
echo "results: $out_dir/latest.json   spans: $out_dir/spans.<workload>.csv"

if [ "${1:-}" = "--rebaseline" ]; then
    mkdir -p "$(dirname "$baseline")"
    cp "$out_dir/latest.json" "$baseline"
    echo "baseline replaced: $baseline"
else
    "$bin" compare "$baseline" "$out_dir/latest.json"
fi
