#!/usr/bin/env bash
# Builds `afforest` and the benchmark from source, then runs one benchmark
# workload against a fresh `afforest serve` child process.
#
#   bash perfbench/run.sh --workload query|mix|router-mix --seed N \
#                         --seconds S --trace 0|1
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the last
# line of standard output is the result as one JSON object.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p afforest-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/afforest-perfbench" \
  --afforest "$target/release/afforest" --root "$root" "$@"
