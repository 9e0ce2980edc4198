#!/usr/bin/env bash
# Builds the `s4e` release binary and the benchmark from source, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload vp-run --seed 1 --seconds 12 --trace 0
#
# Both binaries land in $CARGO_TARGET_DIR/release (default .bench_build),
# where the benchmark finds `s4e` and keeps its scratch files.
set -euo pipefail
here="$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/../Cargo.toml" --bin s4e >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
# A child, not `exec`: an exec'd process keeps the resource usage of the
# children this shell already waited for, so `campaign-sharded`'s
# descendant memory peak would report cargo's.
"$CARGO_TARGET_DIR/release/benchmark" "$@"
