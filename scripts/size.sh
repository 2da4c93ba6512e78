#!/usr/bin/env bash
# Prints the size of the program: the non-test lines of `src/` and of
# each `crates/*/src`, per crate and in total. A file's non-test lines
# are all its lines before its first `#[cfg(test)]` (every line of a file
# without one). Comments and blank lines count. Prints; gates nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in src crates/*/src; do
    lines=$(find "$dir" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { cut = 0 } /#\[cfg\(test\)\]/ { cut = 1 } !cut { n++ } END { print n + 0 }')
    printf '%-24s %6d\n' "$dir" "$lines"
    total=$((total + lines))
done
printf '%-24s %6d\n' total "$total"
