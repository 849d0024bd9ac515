#!/usr/bin/env bash
# Non-test source lines per crate and in total.
#
# A file's non-test lines are the lines before its first `#[cfg(test)]`
# (the whole file when it has none), summed over every
# `crates/*/src/**/*.rs`. Bins under `src/bin` count with their crate.
#
# Usage: bash scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for src in crates/*/src; do
    n=0
    while IFS= read -r -d '' file; do
        lines=$(awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
        n=$((n + lines))
    done < <(find "$src" -name '*.rs' -print0)
    printf '%-28s %6d\n' "$src" "$n"
    total=$((total + n))
done
printf '%-28s %6d\n' total "$total"
