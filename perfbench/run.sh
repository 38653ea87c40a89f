#!/usr/bin/env bash
# Build brokerd and the benchmark from this checkout's sources into one
# target directory, then run the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
#
# Build output goes to stderr, so the last line of stdout is the
# benchmark's result object.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --offline --release --quiet --manifest-path Cargo.toml -p bench --bin brokerd >&2
cargo build --offline --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
