#!/usr/bin/env bash
# Statistical hot-path bench: measures parallel datagen, dispatch routing,
# the window pipeline, the behavioral sessionize kernel, LSM put/get and
# the concurrent load driver's per-engine saturation throughput + p99 —
# N repeated samples per path (after warmup discard), MAD outlier
# rejection and t-distribution 95% confidence intervals — writing a
# machine-readable ledger (default BENCH_15.json) for the perf-regression
# gate.
#
#   ./scripts/bench.sh [OUT] [extra bdbench-bench args...]
#
# Retention rule: the previous ledger at OUT is rotated to OUT.prev
# before the new run writes, never silently overwritten. Committed
# BENCH_N.json ledgers are the durable history — one per PR that
# intentionally moved performance — so regenerate and commit a new
# BENCH_N.json (and point the ci.sh --compare baseline at the old one)
# whenever a change is *supposed* to shift a hot path.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_15.json}"
shift || true

if [ -f "$OUT" ]; then
    cp -f "$OUT" "$OUT.prev"
    echo "bench: rotated previous ledger to $OUT.prev"
fi

cargo build --release -q
./target/release/bdbench bench --out "$OUT" "$@"
