#!/usr/bin/env bash
# Snapshot every figure exhibit's machine-readable output into <outdir>.
#
# Runs the 12 figure binaries at NTGA_SCALE=small with --json and --profile
# (fig3 additionally with --trace), keeping each binary's stdout. Every file
# is written under a path relative to <outdir>, so two snapshots of the same
# code are byte-identical and `diff -r a b` is empty. Diff a snapshot of one
# commit against another to prove a refactor changed no exhibit.
#
# Usage: scripts/fig_snapshot.sh <outdir>
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 <outdir>" >&2
    exit 2
fi

root="$(cd "$(dirname "$0")/.." && pwd)"
cargo build --release --locked --quiet --manifest-path "$root/Cargo.toml" -p ntga-bench --bins
bin="${CARGO_TARGET_DIR:-$root/target}/release"
case "$bin" in /*) ;; *) bin="$root/$bin" ;; esac

mkdir -p "$1"
cd "$1"
export NTGA_SCALE=small
for fig in fig3 fig9a fig9b fig9c fig10 fig11 fig12 fig13 fig14 fig_chaos fig_optimizer fig_profile; do
    args=(--json "$fig.rows.json" --profile "$fig.profile.json")
    if [ "$fig" = fig3 ]; then
        args+=(--trace "$fig.trace.json")
    fi
    "$bin/$fig" "${args[@]}" > "$fig.stdout"
done
