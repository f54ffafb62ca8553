#!/usr/bin/env bash
# One way to count lines, so CHANGES.md and the next issue quote the same
# numbers. Not a gate.
#
#   scripts/loc.sh                 first-party Rust total
#   scripts/loc.sh PATH...         also, per file or directory: non-test
#                                  lines (each .rs file up to its first
#                                  `#[cfg(test)]`), and their sum
#
# "First-party" is crates/ src/ tests/ examples/ — not vendor/, not target/.
set -euo pipefail
cd "$(dirname "$0")/.."

# Lines of one file before its first `#[cfg(test)]` (all of them if none).
non_test() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"
}

echo "first-party Rust total: $(find crates src tests examples -name '*.rs' -print0 | xargs -0 cat | wc -l)"

sum=0
for path in "$@"; do
    n=0
    while IFS= read -r -d '' file; do
        n=$((n + $(non_test "$file")))
    done < <(find "$path" -name '*.rs' -print0)
    echo "non-test $path: $n"
    sum=$((sum + n))
done
if [ "$#" -gt 1 ]; then
    echo "non-test sum: $sum"
fi
