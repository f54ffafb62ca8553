#!/usr/bin/env bash
# One way to count lines, so CHANGES.md and the next issue quote the same
# numbers. Not a gate.
#
#   scripts/loc.sh                 first-party Rust total
#   scripts/loc.sh PATH...         also, per file or directory: non-test
#                                  lines (each .rs file up to its first
#                                  `#[cfg(test)]`), non-test panic sites
#                                  (matches of `.unwrap()`, `.expect(`,
#                                  `panic!(` and `unreachable!(` in those
#                                  same lines, skipping comment and doc
#                                  lines: those whose first non-blank
#                                  characters are `//`), and the sum of
#                                  the lines
#
# "First-party" is crates/ src/ tests/ examples/ — not vendor/, not target/.
set -euo pipefail
cd "$(dirname "$0")/.."

# Lines of one file before its first `#[cfg(test)]` (all of them if none).
non_test() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"
}

# Panic sites in the same lines, code only: a `//` comment or `//!`/`///`
# doc line (doctests included) is skipped.
panic_sites() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
         /^[[:space:]]*\/\// { next }
         { n += gsub(/\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(/, "") }
         END { print n + 0 }' "$1"
}

echo "first-party Rust total: $(find crates src tests examples -name '*.rs' -print0 | xargs -0 cat | wc -l)"

sum=0
for path in "$@"; do
    n=0
    p=0
    while IFS= read -r -d '' file; do
        n=$((n + $(non_test "$file")))
        p=$((p + $(panic_sites "$file")))
    done < <(find "$path" -name '*.rs' -print0)
    echo "non-test $path: $n"
    echo "panic sites $path: $p"
    sum=$((sum + n))
done
if [ "$#" -gt 1 ]; then
    echo "non-test sum: $sum"
fi
