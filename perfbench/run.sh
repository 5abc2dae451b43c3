#!/usr/bin/env bash
# Builds the `serve` daemon and the benchmark from source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload table4 --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last stdout line is the result JSON.
# CARGO_TARGET_DIR defaults to .bench_build at the repository root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/Cargo.toml" || ! -d "$root/crates" ]]; then
    echo "perfbench: run from the repository root (no Cargo.toml or crates/ here)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$CARGO_TARGET_DIR" in
    /*) ;;
    *) CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;;
esac

cargo build --release --offline --quiet --bin serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/perfbench" \
    --serve-bin "$CARGO_TARGET_DIR/release/serve" \
    --work-dir "$root/.perfbench_work" \
    "$@"
