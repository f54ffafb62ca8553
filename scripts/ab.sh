#!/usr/bin/env bash
# A/B two frozen slotbench binaries the way choosing-metrics §8 asks:
# alternating order, N pairs, and per workload x end-to-end metric one
# markdown row — median [min, max] per side, Δ median, pairs won (ties
# count for neither), parent IQR / median — ready to paste into CHANGES.md.
#
#   scripts/ab.sh <parent-slotbench> <change-slotbench> \
#       [--pairs N] [--seconds S] [workload...]
#
# Defaults come from BENCHMARK.json: its `run_seconds`, all its workloads,
# its `end_to_end` metrics and their `better` direction; --pairs is 10.
# Each run is `run --workload W --seed 3 --trace 0`; its last output line
# (the driver's JSON result) is echoed to stderr, so `2> runs.log` keeps
# every run made. Exits non-zero if any run reports `correct:false` or
# `failed > 0`, or if two runs of a workload disagree on `attempted`.
# Build each side once into its own target dir and pass copies of the
# binaries: a rebuild mid-series would compare a commit with itself.
# Not a gate; bash + awk only.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
bench="$root/BENCHMARK.json"

usage() {
    sed -n '2,18p' "$0" >&2
    exit 2
}

[ "$#" -ge 2 ] || usage
parent=$1
change=$2
shift 2
pairs=10
seconds=$(awk -F'[:,]' '/"run_seconds"/ { gsub(/ /, "", $2); print $2 }' "$bench")
workloads=()
while [ "$#" -gt 0 ]; do
    case $1 in
    --pairs) pairs=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    -*) usage ;;
    *) workloads+=("$1"); shift ;;
    esac
done

# The `"name"` values of one top-level array of BENCHMARK.json, each with
# the `"better"` that follows it when the entry has one.
section() {
    awk -v want="\"$1\"" '
        /^  "[a-z_]+": \[/ { inside = ($1 == want ":") }
        inside && /"name":/ { gsub(/[",]/, "", $2); name = $2 }
        inside && /"better":/ { gsub(/[",]/, "", $2); print name, $2; name = "" }
        inside && /"why":/ { print name; name = "" }
    ' "$bench"
}
[ "${#workloads[@]}" -gt 0 ] || mapfile -t workloads < <(section workloads)
metrics=$(section end_to_end)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for w in "${workloads[@]}"; do
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then order="parent change"; else order="change parent"; fi
        for side in $order; do
            if [ "$side" = parent ]; then bin=$parent; else bin=$change; fi
            line=$("$bin" run --workload "$w" --seed 3 --seconds "$seconds" --trace 0 | tail -n 1)
            echo "$w pair $i $side $line" >&2
            echo "$w $i $side $line" >>"$tmp/runs"
        done
    done
done

echo "| workload | metric | parent: median [min, max] | change: median [min, max] | Δ median | pairs won | parent IQR / median |"
echo "|---|---|---|---|---|---|---|"
awk -v metrics="$metrics" -v pairs="$pairs" '
    # The number that follows `key` in a one-line JSON object.
    function num(json, key,    at, rest) {
        at = index(json, key)
        if (!at) return "missing"
        rest = substr(json, at + length(key))
        match(rest, /^-?[0-9.]+([eE][-+]?[0-9]+)?/)
        return substr(rest, 1, RLENGTH) + 0
    }
    # Quantile q of v[1..n] (sorted in place), linear interpolation.
    function quantile(v, n, q,    i, j, t, h, lo) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
        h = 1 + (n - 1) * q
        lo = int(h)
        return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    {
        w = $1; pair = $2; side = $3
        json = $0; sub(/^[^ ]+ [^ ]+ [^ ]+ /, "", json)
        if (!(w in seen)) { seen[w] = 1; order[++n_w] = w }
        if (index(json, "\"correct\":true") == 0) { print "ab.sh: " w " pair " pair " " side ": correct is not true" > "/dev/stderr"; bad = 1 }
        if (num(json, "\"failed\":") != 0) { print "ab.sh: " w " pair " pair " " side ": failed ops" > "/dev/stderr"; bad = 1 }
        attempted = num(json, "\"attempted\":")
        if (!(w in ops)) ops[w] = attempted
        if (attempted != ops[w]) { print "ab.sh: " w " pair " pair " " side ": attempted " attempted " != " ops[w] > "/dev/stderr"; bad = 1 }
        n_m = split(metrics, m, "\n")
        for (k = 1; k <= n_m; k++) {
            split(m[k], nb, " ")
            val[w, nb[1], side, pair] = num(json, "\"" nb[1] "\":{\"value\":")
        }
    }
    END {
        for (a = 1; a <= n_w; a++) {
            w = order[a]
            for (k = 1; k <= n_m; k++) {
                split(m[k], nb, " ")
                name = nb[1]; sign = (nb[2] == "higher") ? 1 : -1
                won = 0
                for (i = 1; i <= pairs; i++) {
                    p[i] = val[w, name, "parent", i]; c[i] = val[w, name, "change", i]
                    if ((c[i] - p[i]) * sign > 0) won++
                }
                p_med = quantile(p, pairs, 0.5); c_med = quantile(c, pairs, 0.5)
                iqr = quantile(p, pairs, 0.75) - quantile(p, pairs, 0.25)
                printf "| %s (%d pairs) | %s | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] ", w, pairs, name, p_med, p[1], p[pairs], c_med, c[1], c[pairs]
                printf "| %+.1f %% | %d/%d | %.1f %% |\n", 100 * (c_med - p_med) / p_med, won, pairs, 100 * iqr / p_med
            }
        }
        exit bad
    }
' "$tmp/runs"
