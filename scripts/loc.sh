#!/usr/bin/env bash
# Prints, per crate, the non-test lines of Rust under `crates/<crate>/src/`:
# every line of a file before its first `#[cfg(test)]` (all of it when the
# file has none). A report only, not a gate.
#
#   scripts/loc.sh          # this checkout
#   scripts/loc.sh DIR      # another checkout, e.g. an exported parent commit

set -euo pipefail
root="${1:-$(dirname "$0")/..}"

total=0
for src in "$root"/crates/*/src; do
    n=$(find "$src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { live = 1 } /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 } live { n++ } END { print n + 0 }')
    printf '%-12s %6d\n' "$(basename "$(dirname "$src")")" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
