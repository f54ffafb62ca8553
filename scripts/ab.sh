#!/usr/bin/env bash
# A/B two frozen slotbench binaries the way choosing-metrics §8 asks:
# alternating order, N pairs, and per workload x end-to-end metric one
# markdown row — median [min, max] per side, Δ median, pairs won (ties
# count for neither), parent IQR / median and a verdict — ready to paste
# into CHANGES.md. The verdict is choosing-metrics §8's rule: `gain` when
# the change wins at least 9/10 of the pairs and |Δ median| exceeds the
# parent's IQR, `loss` when the parent does, `unresolved` otherwise.
# The rule assumes at least 10 pairs: with fewer the verdict reads
# `unresolved (<10 pairs)`, never `gain` or `loss`.
# Beneath each such row a `runs` row lists each side's values in pair
# order, so the host's fast and slow clusters show.
#
#   scripts/ab.sh <parent-slotbench> <change-slotbench> \
#       [--pairs N] [--seconds S] [--seed N] [--layers] [workload...]
#
# Defaults come from BENCHMARK.json: its `run_seconds`, all its workloads,
# its `end_to_end` metrics and their `better` direction; --pairs is 10 and
# --seed is 3. Rerunning with another --seed (e.g. 11) is the other-seed
# confirmation of a claimed gain: same pairs, same table.
# Each run is `run --workload W --seed N --trace 0`; its last output line
# (the driver's JSON result) is echoed to stderr, so `2> runs.log` keeps
# every run made. Exits non-zero if any run reports `correct:false` or
# `failed > 0`, or if two runs of a workload disagree on `attempted`.
# --layers then makes one `--trace 1` run per side per workload and prints
# every BENCHMARK.json `per_layer` metric side by side, flagging `!=` each
# count or byte counter (unit `count` or `B`) whose values differ.
# Build each side once into its own target dir and pass copies of the
# binaries: a rebuild mid-series would compare a commit with itself.
# Not a gate; bash + awk only.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
bench="$root/BENCHMARK.json"

usage() {
    sed -n '2,30p' "$0" >&2
    exit 2
}

[ "$#" -ge 2 ] || usage
parent=$1
change=$2
shift 2
pairs=10
seed=3
layers=0
seconds=$(awk -F'[:,]' '/"run_seconds"/ { gsub(/ /, "", $2); print $2 }' "$bench")
workloads=()
while [ "$#" -gt 0 ]; do
    case $1 in
    --pairs) pairs=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --layers) layers=1; shift ;;
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
            line=$("$bin" run --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
            echo "$w pair $i $side $line" >&2
            echo "$w $i $side $line" >>"$tmp/runs"
        done
    done
done

# The number that follows `key` in a one-line JSON object (awk source,
# shared by both tables).
num_fn='
    function num(json, key,    at, rest) {
        at = index(json, key)
        if (!at) return "missing"
        rest = substr(json, at + length(key))
        match(rest, /^-?[0-9.]+([eE][-+]?[0-9]+)?/)
        return substr(rest, 1, RLENGTH) + 0
    }'

echo "| workload | metric | parent: median [min, max] | change: median [min, max] | Δ median | pairs won | parent IQR / median | verdict |"
echo "|---|---|---|---|---|---|---|---|"
status=0
awk -v metrics="$metrics" -v pairs="$pairs" "$num_fn"'
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
                won = 0; lost = 0; p_runs = ""; c_runs = ""
                for (i = 1; i <= pairs; i++) {
                    p[i] = val[w, name, "parent", i]; c[i] = val[w, name, "change", i]
                    if ((c[i] - p[i]) * sign > 0) won++
                    if ((c[i] - p[i]) * sign < 0) lost++
                    p_runs = p_runs sprintf(" %.4g", p[i]); c_runs = c_runs sprintf(" %.4g", c[i])
                }
                p_med = quantile(p, pairs, 0.5); c_med = quantile(c, pairs, 0.5)
                iqr = quantile(p, pairs, 0.75) - quantile(p, pairs, 0.25)
                moved = (c_med - p_med) * (c_med - p_med) > iqr * iqr
                verdict = "unresolved"
                if (moved && 10 * won >= 9 * pairs) verdict = "gain"
                if (moved && 10 * lost >= 9 * pairs) verdict = "loss"
                if (pairs < 10) verdict = "unresolved (<10 pairs)"
                printf "| %s (%d pairs) | %s | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] ", w, pairs, name, p_med, p[1], p[pairs], c_med, c[1], c[pairs]
                printf "| %+.1f %% | %d/%d | %.1f %% | %s |\n", 100 * (c_med - p_med) / p_med, won, pairs, 100 * iqr / p_med, verdict
                printf "| | %s runs |%s |%s | | | | |\n", name, p_runs, c_runs
            }
        }
        exit bad
    }
' "$tmp/runs" || status=$?

((layers)) || exit "$status"
for w in "${workloads[@]}"; do
    for side in parent change; do
        if [ "$side" = parent ]; then bin=$parent; else bin=$change; fi
        line=$("$bin" run --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 | tail -n 1)
        echo "$w layers $side $line" >&2
        echo "$w $side $line" >>"$tmp/layers"
    done
done

echo
echo "| workload | per-layer metric | unit | parent | change | Δ | |"
echo "|---|---|---|---|---|---|---|"
awk -v metrics="$(section per_layer)" "$num_fn"'
    FNR == NR {
        if (/^  "[a-z_]+": \[/) inside = ($1 == "\"per_layer\":")
        if (inside && /"name":/) { gsub(/[",]/, "", $2); name = $2 }
        if (inside && /"unit":/) { gsub(/[",]/, "", $2); unit[name] = $2 }
        next
    }
    {
        w = $1; side = $2
        json = $0; sub(/^[^ ]+ [^ ]+ /, "", json)
        if (!(w in seen)) { seen[w] = 1; order[++n_w] = w }
        n_m = split(metrics, m, "\n")
        for (k = 1; k <= n_m; k++) {
            split(m[k], nb, " ")
            val[w, nb[1], side] = num(json, "\"" nb[1] "\":{\"value\":")
        }
    }
    END {
        for (a = 1; a <= n_w; a++) {
            w = order[a]
            for (k = 1; k <= n_m; k++) {
                split(m[k], nb, " ")
                name = nb[1]; p = val[w, name, "parent"]; c = val[w, name, "change"]
                delta = (p != 0 && p != "missing" && c != "missing") ? sprintf("%+.1f %%", 100 * (c - p) / p) : ""
                flag = ((unit[name] == "count" || unit[name] == "B") && p != c) ? "!=" : ""
                printf "| %s | %s | %s | %s | %s | %s | %s |\n", w, name, unit[name], show(p), show(c), delta, flag
            }
        }
    }
    function show(v) { return v == "missing" ? v : sprintf("%.6g", v) }
' "$bench" "$tmp/layers"
exit "$status"
