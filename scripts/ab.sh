#!/usr/bin/env bash
# A/B two revisions on one machine: this working tree ("change") against
# <rev> ("parent"), measured by benchmark/ — the only measurement system.
#
#   scripts/ab.sh <rev> [workload...]    # default: every workload in BENCHMARK.json
#
# <rev> is exported with `git archive` into a temp dir and built with its
# own CARGO_TARGET_DIR. Each workload then runs exactly as the cross-commit
# driver runs it (`benchmark/run.sh --workload W --seed 42 --seconds
# <run_seconds> --trace 0`) as ten parent/change pairs, alternating which
# side goes first. One row per (workload, end-to-end metric): both medians,
# pairs the change won/lost/tied, the parent's IQR, direction and bound
# from BENCHMARK.json, and a verdict:
#
#   gain        >= 9/10 of the non-tied pairs won AND the medians differ by
#               more than the parent's IQR
#   regressed   the change's median is worse than the parent's by more
#               than the bound
#   unresolved  the parent's own IQR is wider than the bound
#   unchanged   otherwise
#
# benchmark/Cargo.lock (cargo rewrites it) is restored and the temp dir
# removed on exit. Takes ~2 x 10 x (set-up + run_seconds) per workload.
set -euo pipefail
[ $# -ge 1 ] || { echo "usage: scripts/ab.sh <rev> [workload...]" >&2; exit 2; }
command -v jq >/dev/null \
    || { echo "ab.sh: jq not found (it reads BENCHMARK.json and the result lines)" >&2; exit 2; }
cd "$(dirname "${BASH_SOURCE[0]}")/.."

rev=$(git rev-parse --verify "$1^{commit}")
shift
if [ $# -gt 0 ]; then workloads=("$@"); else mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json); fi
seconds=$(jq -r '.run_seconds' BENCHMARK.json)
pairs=10

tmp=$(mktemp -d)
cp benchmark/Cargo.lock "$tmp/Cargo.lock"
trap 'cp "$tmp/Cargo.lock" benchmark/Cargo.lock; rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git archive "$rev" | tar -x -C "$tmp/parent"
declare -A dir=([parent]="$tmp/parent" [change]="$PWD")
declare -A target=([parent]="$tmp/target" [change]="$PWD/benchmark/target")

# One run of workload $2 on side $1; prints the JSON result line.
run() {
    (cd "${dir[$1]}" && CARGO_TARGET_DIR="${target[$1]}" benchmark/run.sh \
        --workload "$2" --seed 42 --seconds "$seconds" --trace 0 | tail -n 1)
}

echo "ab: parent ${rev:0:7} vs working tree, $pairs pairs, --seed 42 --seconds $seconds --trace 0"
row='%-16s %-12s %12s %12s %-14s %12s %-12s %s\n'
# shellcheck disable=SC2059
printf "$row" workload metric parent change won/lost/tied parent_iqr better/bound verdict
for w in "${workloads[@]}"; do
    : >"$tmp/parent.jsonl"; : >"$tmp/change.jsonl"
    for i in $(seq 1 "$pairs"); do
        if ((i % 2)); then order="parent change"; else order="change parent"; fi
        for side in $order; do
            echo "ab: $w pair $i/$pairs $side" >&2
            run "$side" "$w" >>"$tmp/$side.jsonl"
        done
    done
    jq -rn --arg w "$w" --slurpfile spec BENCHMARK.json \
        --slurpfile pa "$tmp/parent.jsonl" --slurpfile ch "$tmp/change.jsonl" '
        def quant(p): sort as $s | ((($s | length) - 1) * p) as $i
            | $s[$i | floor] + ($s[$i | ceil] - $s[$i | floor]) * ($i - ($i | floor));
        def r: . * 10000 | round / 10000;
        $spec[0].end_to_end[] as $m
        | [$pa[].metrics[$m.name].value] as $p | [$ch[].metrics[$m.name].value] as $c
        | (if $m.better == "lower" then 1 else -1 end) as $sign
        # Per pair and for the medians: positive = the change is worse.
        | [range($p | length) | $sign * ($c[.] - $p[.])] as $d
        | ($d | map(select(. < 0)) | length) as $won
        | ($d | map(select(. > 0)) | length) as $lost
        | ($p | quant(0.5)) as $mp | ($c | quant(0.5)) as $mc
        | (($p | quant(0.75)) - ($p | quant(0.25))) as $iqr
        | ($sign * ($mc - $mp)) as $gap
        | (if $won > 0 and $won * 10 >= ($won + $lost) * 9 and -$gap > $iqr then "gain"
           elif $gap > $m.bound * $mp then "regressed"
           elif $iqr > $m.bound * $mp then "unresolved"
           else "unchanged" end) as $verdict
        | [$w, $m.name, ($mp | r), ($mc | r),
           "\($won)/\($lost)/\(($d | length) - $won - $lost)", ($iqr | r),
           "\($m.better) \($m.bound)", $verdict]
        | @tsv' | while IFS=$'\t' read -r -a cells; do
        # shellcheck disable=SC2059
        printf "$row" "${cells[@]}"
    done
done
