#!/usr/bin/env bash
# The line counts ROADMAP.md and CHANGES.md quote, from one place.
#
#   scripts/loc.sh
#
# Per crate: whole-file Rust lines and non-test lines (in each file, the
# text before its first `#[cfg(test)]`). Then the two totals the ROADMAP
# tracks: `exec + workloads + bench`, and everything under `crates/ src/
# tests/ examples/` (`vendor/` and `benchmark/` aside).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Prints "<whole-file lines> <non-test lines>" summed over the .rs files
# under the given directories.
count() {
    find "$@" -name '*.rs' -print0 | xargs -0 -r awk '
        FNR == 1 { in_tests = 0 }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        { all++; if (!in_tests) code++ }
        END { print all + 0, code + 0 }'
}

row='%-28s %8s %10s\n'
# shellcheck disable=SC2059
printf "$row" crate lines non-test
for crate in crates/*/; do
    read -r all code < <(count "$crate")
    # shellcheck disable=SC2059
    printf "$row" "$(basename "$crate")" "$all" "$code"
done
read -r all code < <(count crates/exec crates/workloads crates/bench)
# shellcheck disable=SC2059
printf "$row" "exec + workloads + bench" "$all" "$code"
read -r all code < <(count crates src tests examples)
# shellcheck disable=SC2059
printf "$row" "crates src tests examples" "$all" "$code"
