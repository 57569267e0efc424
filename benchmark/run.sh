#!/usr/bin/env bash
# The one command: builds the benchmark package, then runs it.
#
#   benchmark/run.sh                       every workload, untraced
#   benchmark/run.sh --trace               every workload, per-layer metrics + trace files
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#
# Prints every metric by name with its unit, ops_attempted and ops_failed,
# then one JSON result line per workload; exits non-zero on a failed check.
# Run it from anywhere: paths are taken from this script's location.
set -euo pipefail
here="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/dosco-benchmark" --out "$here/out" "$@"
