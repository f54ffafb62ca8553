#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green. Correctness only — the
# perf gate is the PR pipeline's slotbench parent-vs-change run
# (BENCHMARK.json; crates/slotbench/run.sh locally), not a wall-clock
# comparison on whatever host this script happens to run on.
set -euo pipefail
cd "$(dirname "$0")/.."

# golden <file> <cmd...>: the command's output must equal the committed
# golden file. A missing file fails first and by name: left to `diff`,
# its one-line error drowns under the producer's broken-pipe panic.
golden() {
    local file=$1
    shift
    if [ ! -f "$file" ]; then
        echo "missing golden file: $file" >&2
        exit 1
    fi
    "$@" | diff "$file" -
}

cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check
# A doc link to a deleted or private item fails here, by name.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Static analysis: translation validation (register lowering proven
# equivalent to the flat IR) plus resource-bound reports over every
# builtin example/fig5 plugin. Nonzero exit = a lowering failed its proof.
# The report and the register code each plugin executes must equal the
# committed golden file: a lowering change that adds an op, moves a bound
# or grows a frame shows up as a diff hunk naming the function.
golden crates/bench/analyze.golden target/release/analyze --builtin --reg
echo "static analyzer validated every builtin lowering; code and bounds match crates/bench/analyze.golden"

# Guest work: instructions each stock scheduler retires per call on
# Fig. 5d's fixed request, per policy and UE count — exact and
# host-independent, unlike the figure's timings. A plugin or PlugC change
# that makes the guest do more (or less) work shows as a hunk naming
# policy and UE count.
golden crates/bench/fig5d_fuel.golden target/release/fig5d --fuel
echo "guest instructions per call match crates/bench/fig5d_fuel.golden"

# Smoke: the one-cell RIC deployment end to end (the only caller of that
# shape outside the test suites). The example exits nonzero when no
# handover or no slice-target action was applied.
cargo run --release --quiet --example ric_xapps > /dev/null
echo "ric_xapps example: steering handover and SLA boost applied"

# Determinism: per-cell digests of the four fleet deployments (RIC
# attached, mobility, hostile pushes, million-UE plane) must equal the
# committed golden file at 2 and at 8 workers — worker-count independence
# and commit-to-commit stability in one diff, whose hunk names the
# scenario, the cell and both digests. The bin also asserts the rollback
# and population-ledger invariants.
for workers in 2 8; do
    golden crates/bench/digests.golden target/release/digests "$workers"
done
echo "fleet digests match crates/bench/digests.golden at 2 and 8 workers"
