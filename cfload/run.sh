#!/usr/bin/env bash
# Builds the release cfserve/cfrouter binaries and the cfload harness
# from source, then runs one benchmark workload. Run from the repository
# root:
#
#   bash cfload/run.sh --workload api-hot --seed 1 --seconds 30 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: target).
set -euo pipefail

bench_dir="$(dirname "$0")"
target_dir="${CARGO_TARGET_DIR:-target}"
export CARGO_TARGET_DIR="$target_dir"

cargo build --release --quiet --offline --bin cfserve --bin cfrouter 1>&2
cargo build --release --quiet --offline --manifest-path "$bench_dir/Cargo.toml" 1>&2

exec "$target_dir/release/cfload" --bin-dir "$target_dir/release" --bench-dir "$bench_dir" "$@"
