#!/usr/bin/env bash
# Tier-1 CI gate: release build + full test suite + clippy.
#
#   ./scripts/ci.sh
#
# Build, tests and clippy (for the workspace's own crates) are all hard
# failures. The vendored std-only dependency stubs under vendor/ are
# excluded from the clippy gate: they mirror external API surfaces and are
# not held to the workspace's lint standard.
#
# The gate reads the repository and writes only temp files: it ends by
# checking that no tracked file differs from how the run found it.
set -uo pipefail
cd "$(dirname "$0")/.."
tracked_before=$(git diff HEAD 2>/dev/null | cksum)

echo "== cargo build --release =="
cargo build --release --workspace || exit 1

echo "== benchmark smoke (benchmark/ still builds against the public API) =="
# benchmark/ is its own workspace, so the build above never compiles it:
# a refactor that moves an item named in benchmark/API.md would only
# surface in the cross-commit pipeline. The smoke builds it and runs every
# workload at 1/20 size. Read-only use of benchmark/: cargo rewrites the
# lock file in place when it has stale entries, so it is put back.
bench_lock=$(mktemp)
cp benchmark/Cargo.lock "$bench_lock"
bench_smoke=$(mktemp)
benchmark/run.sh --smoke >"$bench_smoke" 2>&1; bench_status=$?
cp "$bench_lock" benchmark/Cargo.lock
if [ "$bench_status" -ne 0 ]; then
    echo "benchmark smoke failed"; tail -40 "$bench_smoke"; exit 1
fi
rm -f "$bench_lock" "$bench_smoke"
echo "benchmark smoke: seven workloads ran, traced and untraced"

echo "== cargo test =="
cargo test -q --workspace || exit 1

echo "== cargo clippy (workspace crates, hard gate) =="
clippy_excludes=()
for vendored in vendor/*/Cargo.toml; do
    name=$(sed -n 's/^name *= *"\(.*\)"/\1/p' "$vendored" | head -1)
    clippy_excludes+=(--exclude "$name")
done
cargo clippy --workspace "${clippy_excludes[@]}" --all-targets -- -D warnings || exit 1
echo "clippy: clean"

echo "== chaos smoke (seeded fault injection) =="
# A seeded chaos run: an injected fault fails the data set or dispatch it
# hits, and with it the run — nothing retries it. The generator worker
# panic fires first, so the run must exit nonzero with an error naming
# the datagen site, and the same seed + plan must print the same stderr,
# byte for byte (an injected panic is a named error, not a real panic
# whose hook report would name a thread id).
chaos_err_a=$(mktemp); chaos_err_b=$(mktemp)
for err in "$chaos_err_a" "$chaos_err_b"; do
    if ./target/release/bdbench run micro/wordcount --scale 200 --seed 42 \
        --faults "error@exec:1:max=2,panic@datagen:1:max=1" >/dev/null 2>"$err"; then
        echo "chaos smoke: an injected fault must fail the run"; exit 1
    fi
done
grep -q "^error: .*worker panic.*injected worker panic at datagen/" "$chaos_err_a" \
    || { echo "chaos smoke: expected a worker-panic error naming the datagen site, got:"; cat "$chaos_err_a"; exit 1; }
if ! diff "$chaos_err_a" "$chaos_err_b" >/dev/null; then
    echo "chaos smoke: same seed must print the same stderr"; diff "$chaos_err_a" "$chaos_err_b"; exit 1
fi
chaos_error=$(grep "^error:" "$chaos_err_a")
rm -f "$chaos_err_a" "$chaos_err_b"
echo "chaos smoke: the injected fault failed the run: $chaos_error"
# A latency fault delays the operation it hits and the run completes:
# exit 0, the fault in the trace, and the same faults for the same seed.
latency_a=$(mktemp); latency_b=$(mktemp)
for trace in "$latency_a" "$latency_b"; do
    ./target/release/bdbench run micro/wordcount --scale 200 --seed 42 \
        --faults "latency@exec:1:ms=5" --trace "$trace" >/dev/null 2>&1 \
        || { echo "chaos smoke: a latency fault must not fail the run"; exit 1; }
done
faults=$(grep -c '"FaultInjected"' "$latency_a")
if [ "$faults" -lt 1 ]; then
    echo "chaos smoke: expected the latency fault in the trace"; exit 1
fi
if ! diff <(grep '"FaultInjected"' "$latency_a") <(grep '"FaultInjected"' "$latency_b") >/dev/null; then
    echo "chaos smoke: same seed must inject the same latency faults"; exit 1
fi
rm -f "$latency_a" "$latency_b"
echo "chaos smoke: $faults latency fault(s) traced, run completed"

echo "== crash smoke (kill point, journal, resume) =="
# A seeded verification sweep is killed by an injected crash point
# mid-matrix (exit nonzero, completed cells checkpointed to the journal),
# then resumed: the resumed sweep must go CONFORMANT against the
# committed goldens, with the journaled cells re-verified rather than
# re-executed. Same seed + plan = same kill point, always.
crash_journal=$(mktemp -d)
crash_out=$(mktemp)
if ./target/release/bdbench verify --scale 300 --seed 42 --mode digest --goldens goldens \
    --journal "$crash_journal" --faults "crash@exec:1:max=1" >/dev/null 2>"$crash_out"; then
    echo "crash smoke: the killed run must exit nonzero"; exit 1
fi
grep -q "crashed: injected kill point mid-matrix" "$crash_out" \
    || { echo "crash smoke: expected a crash error, got:"; cat "$crash_out"; exit 1; }
checkpoints=$(find "$crash_journal" -name '*.json' | wc -l)
if [ "$checkpoints" -lt 1 ] || [ "$checkpoints" -ge 33 ]; then
    echo "crash smoke: kill point must land mid-sweep (checkpoints=$checkpoints)"; exit 1
fi
./target/release/bdbench verify --scale 300 --seed 42 --mode digest --goldens goldens \
    --resume "$crash_journal" >"$crash_out" \
    || { echo "crash smoke: resumed run failed"; cat "$crash_out"; exit 1; }
grep -q "CONFORMANT" "$crash_out" \
    || { echo "crash smoke: resumed run not conformant"; cat "$crash_out"; exit 1; }
grep -q "resumed from journal" "$crash_out" \
    || { echo "crash smoke: resumed run did not honour the journal"; cat "$crash_out"; exit 1; }
rm -rf "$crash_journal" "$crash_out"
echo "crash smoke: killed after $checkpoints cell(s), resumed to CONFORMANT"

echo "== conformance gate (golden digests) =="
# Two seeded runs verified against the committed golden store: a digest
# mismatch (any semantics drift in generators, binding or engines) fails
# CI. Machine-independent prescriptions only — Element-class digests
# depend on the engine thread count, which `bdbench verify` pins but a
# plain run does not.
for prescription in micro/wordcount relational/select-aggregate; do
    ./target/release/bdbench run "$prescription" --scale 300 --seed 42 \
        --verify=digest --goldens goldens >/dev/null \
        || { echo "conformance gate: $prescription diverged from its golden"; exit 1; }
    echo "conformance gate: $prescription matches its golden digest"
done
# Velocity control is pacing only: a rate-controlled, 2-worker run must
# hit the same golden the plain run above just matched.
./target/release/bdbench run relational/select-aggregate --scale 300 --seed 42 \
    --rate 1000000 --workers 2 --verify=digest --goldens goldens \
    | grep -q "verdict   CONFORMANT" \
    || { echo "conformance gate: --rate/--workers changed the generated data"; exit 1; }
echo "conformance gate: rate-controlled run matches the same golden digest"
# Stream data has one clock: at a scale whose 1 s windows would show any
# drift in the event timestamps, a 2-worker, rate-controlled run must match
# the golden the plain run records in a scratch store.
stream_goldens=$(mktemp -d)
./target/release/bdbench run streaming/window-aggregation --scale 20000 --seed 42 \
    --verify=digest --goldens "$stream_goldens" >/dev/null \
    || { echo "conformance gate: the plain stream run failed"; exit 1; }
./target/release/bdbench run streaming/window-aggregation --scale 20000 --seed 42 \
    --workers 2 --rate 100000000 --verify=digest --goldens "$stream_goldens" \
    | grep -q "verdict   CONFORMANT" \
    || { echo "conformance gate: --rate/--workers changed the stream data"; exit 1; }
rm -rf "$stream_goldens"
echo "conformance gate: rate-controlled stream run matches the plain run's golden"
# The strict tier through the binary: each run re-derives its answer on the
# reference oracle, diffs the engine's row set against it, and matches the
# committed golden. A run that recorded a golden instead of matching one
# would leave a new file under goldens/, which fails the gate here.
for prescription in relational/join micro/sort; do
    for system in sql mapreduce; do
        ./target/release/bdbench run "$prescription" --scale 300 --seed 42 --system "$system" \
            --verify --goldens goldens | grep -q "verdict   CONFORMANT" \
            || { echo "strict gate: $prescription on $system diverged"; exit 1; }
        echo "strict gate: $prescription on $system matches the oracle and its golden"
    done
done
if [ -n "$(git status --porcelain goldens)" ]; then
    echo "strict gate: a run recorded a golden instead of matching one:"
    git status --porcelain goldens; exit 1
fi

echo "== paper tables (Table 1 and Table 2 regenerate) =="
# Table 1 exits nonzero when a measured row stops matching the paper.
# Table 2 runs every suite's prescriptions through the pipeline under the
# strict oracle and exits nonzero when a run errors or diverges; a type
# cell that differs from the paper is printed as a finding. Its goldens
# go to a directory the runner owns, so goldens/ stays as it was (the
# closing tracked-file check proves it).
./target/release/bdbench table1 >/dev/null || { echo "table1: a row stopped matching the paper"; exit 1; }
./target/release/bdbench table2 --scale 200 >/dev/null \
    || { echo "table2: a suite run errored or diverged"; exit 1; }
echo "paper tables: table1 matches the paper, table2 runs CONFORMANT"

echo "== load smoke (concurrent driver, seeded) =="
# A 2-second seeded load drive across every builtin load target: the
# run must complete a nonzero number of ops on each engine and every
# sampled-result oracle check must pass (zero divergences — a diverged
# run exits nonzero).
load_out=$(mktemp)
./target/release/bdbench load --clients 4 --inflight 8 --duration-ms 2000 --seed 42 \
    >"$load_out" || { echo "load smoke: drive failed or diverged"; cat "$load_out"; exit 1; }
grep -q "verdict: CONFORMANT" "$load_out" \
    || { echo "load smoke: expected a CONFORMANT verdict"; cat "$load_out"; exit 1; }
for engine in kv sql native streaming; do
    completed=$(sed -n "s/^load\[$engine\]: .* (\([0-9]*\) completed.*/\1/p" "$load_out")
    if [ -z "$completed" ] || [ "$completed" -lt 1 ]; then
        echo "load smoke: $engine completed no ops"; cat "$load_out"; exit 1
    fi
    echo "load smoke: $engine completed $completed ops, zero divergences"
done
rm -f "$load_out"

echo "== open-loop load smoke (every target, seeded, no faults) =="
# A 1-second Poisson drive at 2000 ops/s on one client over all four
# targets: each lane waits for its op's intended arrival. The drive must
# be CONFORMANT, conserve every op per engine
# (issued == completed + shed + failed), and print each engine's mean
# dispatch lateness on its load[...] line.
open_out=$(mktemp)
./target/release/bdbench load --clients 1 --arrival poisson:2000 --duration-ms 1000 --seed 42 \
    >"$open_out" || { echo "open-loop smoke: drive failed or diverged"; cat "$open_out"; exit 1; }
grep -q "verdict: CONFORMANT" "$open_out" \
    || { echo "open-loop smoke: expected a CONFORMANT verdict"; cat "$open_out"; exit 1; }
for engine in kv sql native streaming; do
    read -r issued completed shed failed <<<"$(awk -v e="$engine" '$1==e && NF>10 {print $4, $5, $6, $7}' "$open_out")"
    if [ -z "$failed" ] || [ "$issued" -ne $((completed + shed + failed)) ]; then
        echo "open-loop smoke: $engine conservation violated ($issued != $completed + $shed + $failed)"
        cat "$open_out"; exit 1
    fi
    grep -Eq "^load\[$engine\]: .*, mean lateness [0-9.]+ us \(" "$open_out" \
        || { echo "open-loop smoke: load[$engine] line lacks its mean lateness"; cat "$open_out"; exit 1; }
    echo "open-loop smoke: $engine conserved $issued ops ($completed completed, $shed shed, $failed failed)"
done
rm -f "$open_out"

echo "== chaos load smoke (closed and open loop, seeded) =="
# Closed-loop chaos: a 40% error rate fails the ops it hits but the
# drive stays CONFORMANT, conserves every op
# (issued == completed + shed + failed), and the same seed reproduces
# identical chaos accounting and the identical issued-op digest.
chaos_a=$(mktemp); chaos_b=$(mktemp)
for out in "$chaos_a" "$chaos_b"; do
    ./target/release/bdbench load --clients 2 --inflight 2 --duration-ms 300 \
        --engine native --seed 42 --faults "error@exec:0.4" >"$out" \
        || { echo "chaos load smoke: drive failed or diverged"; cat "$out"; exit 1; }
    grep -q "verdict: CONFORMANT" "$out" \
        || { echo "chaos load smoke: expected CONFORMANT"; cat "$out"; exit 1; }
done
read -r issued completed shed failed <<<"$(awk '$1=="native" && NF>10 {print $4, $5, $6, $7}' "$chaos_a")"
if [ -z "$failed" ] || [ "$failed" -lt 1 ]; then
    echo "chaos load smoke: expected failed ops under chaos"; cat "$chaos_a"; exit 1
fi
if [ "$issued" -ne $((completed + shed + failed)) ]; then
    echo "chaos load smoke: conservation violated ($issued != $completed + $shed + $failed)"
    cat "$chaos_a"; exit 1
fi
if ! diff <(grep -E "^chaos\[|^issued-op digest" "$chaos_a") \
          <(grep -E "^chaos\[|^issued-op digest" "$chaos_b") >/dev/null; then
    echo "chaos load smoke: same seed must reproduce identical chaos accounting"
    diff "$chaos_a" "$chaos_b"; exit 1
fi
echo "chaos load smoke: conserved $issued ops ($completed completed, $failed failed), deterministic"
# Open-loop chaos: a 30% error rate under uniform arrivals fails some
# ops on the one target, the drive stays CONFORMANT, and every op is
# accounted for (issued == completed + shed + failed).
./target/release/bdbench load --clients 2 --inflight 2 --duration-ms 300 \
    --engine native --seed 42 --arrival uniform:2000 \
    --faults "error@exec:0.3" >"$chaos_a" \
    || { echo "chaos load smoke: open-loop drive failed"; cat "$chaos_a"; exit 1; }
grep -q "verdict: CONFORMANT" "$chaos_a" \
    || { echo "chaos load smoke: open loop expected CONFORMANT"; cat "$chaos_a"; exit 1; }
read -r issued completed shed failed <<<"$(awk '$1=="native" && NF>10 {print $4, $5, $6, $7}' "$chaos_a")"
if [ -z "$failed" ] || [ "$failed" -lt 1 ]; then
    echo "chaos load smoke: expected failed ops under open-loop chaos"; cat "$chaos_a"; exit 1
fi
if [ "$issued" -ne $((completed + shed + failed)) ]; then
    echo "chaos load smoke: open-loop conservation violated ($issued != $completed + $shed + $failed)"
    cat "$chaos_a"; exit 1
fi
rm -f "$chaos_a" "$chaos_b"
echo "chaos load smoke: open loop conserved $issued ops ($completed completed, $shed shed, $failed failed)"

echo "== report program smoke (paper-artifact report, cheapest) =="
# The report programs under crates/bench/benches/ and the examples are
# plain `fn main`s that `cargo test` only compiles; running some of them
# end to end keeps the set from rotting.
report_out=$(mktemp)
cargo bench -q -p bdb-bench --bench fig4_testgen >"$report_out" \
    || { echo "report smoke: fig4_testgen failed"; cat "$report_out"; exit 1; }
grep -q "^FIG4: " "$report_out" && grep -q "relational/select-aggregate" "$report_out" \
    || { echo "report smoke: expected the FIG4 prescription inventory"; cat "$report_out"; exit 1; }
echo "report smoke: fig4_testgen printed the prescription inventory"
# abl_bloom's 16 KiB memtable and max_runs 64 make each compaction merge
# ~65 runs in release; it exits nonzero if a loaded key reads back None.
cargo bench -q -p bdb-bench --bench abl_bloom >"$report_out" \
    || { echo "report smoke: abl_bloom failed"; cat "$report_out"; exit 1; }
grep -q "^ABL3" "$report_out" && grep -q "all hits" "$report_out" \
    || { echo "report smoke: expected the ABL3 table"; cat "$report_out"; exit 1; }
echo "report smoke: abl_bloom read every loaded key back through many-run compactions"
# The four examples and the EXT1 report take their results from
# Benchmark::run on repository prescriptions; each must exit 0 and print
# its headline line.
for pair in "quickstart|^=== micro/wordcount on native ===$" \
    "search_engine|^functional view: search/index native == mapreduce" \
    "social_network|^connected components: [0-9]* components" \
    "ecommerce|^ecommerce/naive-bayes: .*sql == mapreduce$"; do
    example=${pair%%|*}; headline=${pair#*|}
    cargo run -q --release --example "$example" >"$report_out" \
        || { echo "report smoke: example $example failed"; cat "$report_out"; exit 1; }
    grep -q "$headline" "$report_out" \
        || { echo "report smoke: example $example did not print its headline"; cat "$report_out"; exit 1; }
    echo "report smoke: example $example printed its headline"
done
cargo bench -q -p bdb-bench --bench ext_platforms >"$report_out" \
    || { echo "report smoke: ext_platforms failed"; cat "$report_out"; exit 1; }
grep -q "^EXT1: " "$report_out" && grep -q "^Question (1): " "$report_out" \
    || { echo "report smoke: expected the EXT1 table and its answers"; cat "$report_out"; exit 1; }
rm -f "$report_out"
echo "report smoke: ext_platforms projected five pipeline results and answered Question (1)"

echo "== cargo test --release (stable) =="
# The release profile is what every benchmark number runs, so its test
# suite must pass on the default (stable) toolchain too, not only on the
# nightly one below.
cargo test --offline --release -q --workspace || exit 1

echo "== second-compiler differential (nightly release build, same answers) =="
# Every benchmark number comes from the release binary, so its answers are
# checked against a second compiler. The nightly toolchain builds the
# workspace in release into its own target dir, and its release test suite
# must pass. Its binary must print what the stable binary prints for the
# strict verification sweep, the load driver's issued-op digest and
# Table 2 with its time columns masked: a miscompile that changes an answer
# rather than crashing shows up here.
nightly_target=target/nightly
cargo +nightly build --offline --release --workspace --target-dir "$nightly_target" || exit 1
cargo +nightly test --offline --release -q --workspace --target-dir "$nightly_target" || exit 1
# Table 2 cells split on runs of two or more spaces; the time-derived
# columns (secs, ops/s, p99 us, Mrops) become `#`, and rule lines, whose
# width follows those cells, become one dash.
mask_table2_times() {
    awk '
        /^== / { header = 1; split("", mask); print; next }
        /^-+$/ { print "-"; next }
        /^$/ || /^finding:/ { print; next }
        {
            n = split($0, f, /  +/); line = ""
            for (i = 1; i <= n; i++) {
                if (header && f[i] ~ /^(total secs|Mrops \(geo\)|secs|ops\/s|p99 us|Mrops)$/) mask[i] = 1
                line = line (i > 1 ? "  " : "") ((!header && i in mask) ? "#" : f[i])
            }
            header = 0
            print line
        }'
}
differential=$(mktemp -d)
for toolchain in stable nightly; do
    bin=target/release/bdbench
    [ "$toolchain" = nightly ] && bin=$nightly_target/release/bdbench
    out=$differential/$toolchain
    mkdir "$out"
    "$bin" verify --scale 300 --seed 42 --mode strict --goldens goldens >"$out/verify" \
        || { echo "differential: $toolchain verify failed"; cat "$out/verify"; exit 1; }
    "$bin" load --seed 42 | grep "^issued-op digest" >"$out/load" \
        || { echo "differential: $toolchain load printed no digest"; exit 1; }
    "$bin" table2 | mask_table2_times >"$out/table2" \
        || { echo "differential: $toolchain table2 failed"; exit 1; }
done
for check in verify load table2; do
    if ! diff "$differential/stable/$check" "$differential/nightly/$check" >/dev/null; then
        echo "differential: stable and nightly binaries disagree on $check:"
        diff "$differential/stable/$check" "$differential/nightly/$check" | head -20; exit 1
    fi
done
rm -rf "$differential"
echo "differential: nightly release tests pass; verify, load digest and table2 match stable"

echo "== ab.sh smoke (the A/B script parses and rejects bad invocations) =="
# scripts/ab.sh takes minutes per workload, so the gate only checks what
# cannot wait for a real comparison: it parses, and its two precondition
# failures are named errors rather than a half-run.
bash -n scripts/ab.sh || { echo "ab smoke: syntax error"; exit 1; }
ab_err=$(bash scripts/ab.sh 2>&1 >/dev/null); ab_status=$?
if [ "$ab_status" -ne 2 ] || ! grep -q "^usage: scripts/ab.sh <rev>" <<<"$ab_err"; then
    echo "ab smoke: no arguments must print usage on stderr and exit 2 (got $ab_status: $ab_err)"; exit 1
fi
ab_err=$(PATH=/nonexistent "$BASH" scripts/ab.sh HEAD 2>&1 >/dev/null); ab_status=$?
if [ "$ab_status" -eq 0 ] || ! grep -q "jq not found" <<<"$ab_err"; then
    echo "ab smoke: a missing jq must be a named error (got $ab_status: $ab_err)"; exit 1
fi
echo "ab smoke: usage and missing-jq errors named"

echo "== line counts (scripts/loc.sh; informational, never fails the gate) =="
# The numbers ROADMAP.md and CHANGES.md quote come from this table.
bash -n scripts/loc.sh && bash scripts/loc.sh || echo "loc: scripts/loc.sh did not run"

if [ "$(git diff HEAD 2>/dev/null | cksum)" != "$tracked_before" ]; then
    echo "ci: the gate changed a tracked file:"; git status --short; exit 1
fi
echo "CI gate passed."
