#!/usr/bin/env bash
# Print the non-test library line count: non-blank lines before the first
# top-level `#[cfg(test)]` of every Rust file under crates/*/src and src.
#
# xargs may split the file list over several awk runs; the last awk sums
# their partial counts.
#
# Usage: scripts/lib_loc.sh
set -euo pipefail

cd "$(dirname "$0")/.."
find crates/*/src src -name '*.rs' -print0 |
    xargs -0 awk '
        FNR == 1 { in_test = 0 }
        /^#\[cfg\(test\)\]/ { in_test = 1 }
        !in_test && NF > 0 { n++ }
        END { print n + 0 }
    ' |
    awk '{ total += $1 } END { print total }'
