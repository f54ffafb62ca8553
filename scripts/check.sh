#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check

# Multi-cell + RIC determinism: per-cell digests of the attached
# deployment must not depend on the worker count.
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

# Static analysis: translation validation (register lowering proven
# equivalent to the flat IR) plus resource-bound reports over every
# builtin example/fig5 plugin. Nonzero exit = a lowering failed its proof.
cargo run -q --release -p waran-bench --bin analyze -- --builtin > "$tmpdir/analyze.txt"
echo "static analyzer validated every builtin plugin lowering"
cargo run -q --release -p waran-bench --bin bench_pr4 -- digests 2 > "$tmpdir/digests_2w.txt"
cargo run -q --release -p waran-bench --bin bench_pr4 -- digests 8 > "$tmpdir/digests_8w.txt"
diff "$tmpdir/digests_2w.txt" "$tmpdir/digests_8w.txt"
echo "RIC-attached digests identical across 2 and 8 workers"

# Mobility determinism: the lockstep exchange engine must keep per-cell
# digests worker-count independent while UEs migrate between cells.
cargo run -q --release -p waran-bench --bin bench_pr5 -- digests 2 > "$tmpdir/mobility_2w.txt"
cargo run -q --release -p waran-bench --bin bench_pr5 -- digests 8 > "$tmpdir/mobility_8w.txt"
diff "$tmpdir/mobility_2w.txt" "$tmpdir/mobility_8w.txt"
echo "Mobility-enabled digests identical across 2 and 8 workers"

# Snapshot-instantiation determinism: stamping plugins out of cached
# templates must leave per-cell digests identical to cold segment init,
# at any worker count.
cargo run -q --release -p waran-bench --bin bench_pr7 -- digests 2 on > "$tmpdir/snap_2w_on.txt"
cargo run -q --release -p waran-bench --bin bench_pr7 -- digests 8 on > "$tmpdir/snap_8w_on.txt"
cargo run -q --release -p waran-bench --bin bench_pr7 -- digests 8 off > "$tmpdir/snap_8w_off.txt"
diff "$tmpdir/snap_2w_on.txt" "$tmpdir/snap_8w_on.txt"
diff "$tmpdir/snap_8w_on.txt" "$tmpdir/snap_8w_off.txt"
echo "Snapshot-instantiation digests identical across 2 and 8 workers and snapshot on/off"

# Governance determinism: with strike accounting and auto-rollback
# active, a hostile mid-run push must strike out and roll back to the
# retained last-good module identically on every cell — the per-cell
# digests (governance counters folded in) must not depend on the worker
# count. bench_pr9 also asserts the rollback invariants internally.
cargo run -q --release -p waran-bench --bin bench_pr9 -- digests 2 > "$tmpdir/gov_2w.txt"
cargo run -q --release -p waran-bench --bin bench_pr9 -- digests 8 > "$tmpdir/gov_8w.txt"
diff "$tmpdir/gov_2w.txt" "$tmpdir/gov_8w.txt"
echo "Governance-enabled digests identical across 2 and 8 workers"

# Massive-plane determinism: the million-UE two-tier deployment (500
# cells x 2000 background UEs, promotion/demotion churn) must keep
# per-cell digests — massive-plane counters folded in — independent of
# the worker count. bench_pr10 also asserts the population-ledger and
# byte-conservation invariants internally.
cargo run -q --release -p waran-bench --bin bench_pr10 -- digests 2 > "$tmpdir/massive_2w.txt"
cargo run -q --release -p waran-bench --bin bench_pr10 -- digests 8 > "$tmpdir/massive_8w.txt"
diff "$tmpdir/massive_2w.txt" "$tmpdir/massive_8w.txt"
echo "Massive-plane digests identical across 2 and 8 workers"

# Perf regression gate: compare the live deployment throughput, snapshot
# instantiation latency, governance and massive-plane throughput against
# the highest-numbered committed benchmark snapshot.
# Picked by name, not mtime (all equal on a fresh clone), and fails
# closed: no snapshot, or one without a `gate` object, is an error.
newest="$(ls BENCH_*.json 2>/dev/null | sort -V | tail -1 || true)"
if [ -z "$newest" ] || ! grep -q '"gate"' "$newest"; then
    echo "perf gate: no BENCH_*.json baseline with a \"gate\" object (newest: ${newest:-none})" >&2
    exit 1
fi
cargo run -q --release -p waran-bench --bin bench_pr7 -- gate "$newest"
cargo run -q --release -p waran-bench --bin bench_pr9 -- gate "$newest"
cargo run -q --release -p waran-bench --bin bench_pr10 -- gate "$newest"
