#!/usr/bin/env bash
# Build the benchmark (release, offline, against ../vendor) and run it.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--workload W] [--trace [0|1]]
#   benchmark/run.sh --smoke
#
# Without --workload every workload runs, each in its own subprocess. With
# it, the last line of standard output is the JSON result the driver reads.
# Build output goes to $CARGO_TARGET_DIR, or benchmark/target when unset.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/bdbench-benchmark" "$@"
