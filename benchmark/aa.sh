#!/usr/bin/env bash
# A/A check: run the untraced set twice on the same build, alternating
# workloads between the two sets, and print a (metric, workload, set A,
# set B, gap, bound, ok) table. Exits non-zero when any gap is outside its
# metric's bound. Accepts --seed N and --seconds S.
set -euo pipefail
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" --aa "$@"
