//! Every name the benchmark reports: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repo root carries the same
//! list for the driver; a unit test keeps the two identical.
//!
//! A per-layer metric is *owned* by the workloads whose traced run
//! measures it. The driver's contract wants every per-layer name on every
//! traced run, so a workload that does not own a metric reports it as 0;
//! the human-readable report lists owned metrics only.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, counts of wasted work).
    Lower,
    /// Larger is better (rates, hit shares, speed-ups).
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// One workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadInfo {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// One line: what it exercises that the others do not.
    pub why: &'static str,
}

/// The seven workloads, in run order.
pub const WORKLOADS: [WorkloadInfo; 7] = [
    WorkloadInfo {
        name: "run_sql",
        why: "five-step Benchmark::run over five relational prescriptions on the SQL engine: what `bdbench run` users wait for",
    },
    WorkloadInfo {
        name: "run_mapreduce",
        why: "the same prescriptions, seeds and scales on the MapReduce engine: a sqlengine change must leave it flat, shared glue must move it",
    },
    WorkloadInfo {
        name: "verify_matrix",
        why: "the 33-cell strict conformance sweep at scale 300: fixed costs dominate, and it alone touches native, streaming, kv and verify",
    },
    WorkloadInfo {
        name: "load_sql_closed",
        why: "closed loop, 2 clients x 8 in flight, 32000 point selects: saturation throughput of parse+plan+memo+scan per op",
    },
    WorkloadInfo {
        name: "load_kv_open",
        why: "open loop poisson:15000 on the LSM target, 1 client: latency from intended arrival at a fixed rate, flush stalls in the p99",
    },
    WorkloadInfo {
        name: "datagen_volume",
        why: "every builtin generator family at volume, sequential then 2 workers: the paper's volume/velocity axis, all time in datagen",
    },
    WorkloadInfo {
        name: "kv_ycsb",
        why: "YCSB A (200k records, 400k ops) then E (range scans) with 1 client: the LSM past its memtable, through runs, blooms and scans",
    },
];

/// One end-to-end metric with its regression bound.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, reported by every workload on an untraced run.
///
/// Bounds are the benchmark's own, from the A/A evidence in `README.md`:
/// on the shared 2-core reference box ten runs of one workload spread
/// 6–10 % when the host is quiet and 15–20 % when it is not, so timings
/// get the contract's cap. A tail percentile is not here: `op_p99_us`
/// spread 37 % on `load_kv_open` with the host quiet, past any bound the
/// contract allows, and is a per-layer metric of the two load workloads.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "pass_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.15,
    },
];

/// One per-layer metric and the workloads whose traced run measures it.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `<crate>.<module>.<what>_<unit>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Workloads that measure it.
    pub owners: &'static [&'static str],
}

const RUN: &[&str] = &["run_sql", "run_mapreduce"];
const MATRIX: &[&str] = &["verify_matrix"];
const SQL: &[&str] = &["load_sql_closed"];
const KV: &[&str] = &["load_kv_open"];
const GEN: &[&str] = &["datagen_volume"];
const YCSB: &[&str] = &["kv_ycsb"];
const ALL: &[&str] = &[
    "run_sql",
    "run_mapreduce",
    "verify_matrix",
    "load_sql_closed",
    "load_kv_open",
    "datagen_volume",
    "kv_ycsb",
];

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    owners: &'static [&'static str],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        owners,
    }
}

/// The per-layer metrics, reported on a traced run.
pub const PER_LAYER: [PerLayer; 93] = [
    // run_sql and run_mapreduce: values per pass, summed over the five prescriptions.
    pl("core.pipeline.planning_ms", "ms", Lower, RUN),
    pl("core.pipeline.datagen_ms", "ms", Lower, RUN),
    pl("core.pipeline.testgen_ms", "ms", Lower, RUN),
    pl("core.pipeline.execution_ms", "ms", Lower, RUN),
    pl("core.pipeline.analysis_ms", "ms", Lower, RUN),
    pl("testgen.repository.get_us", "us", Lower, RUN),
    pl("testgen.generator.materialize_us", "us", Lower, RUN),
    pl("datagen.table.gen_ms", "ms", Lower, RUN),
    pl("exec.planner.route_us", "us", Lower, RUN),
    pl("exec.engine.execute_ms", "ms", Lower, RUN),
    pl("exec.engine.glue_ms", "ms", Lower, RUN),
    pl("testgen.bind.exec_ms", "ms", Lower, RUN),
    pl("testgen.bind.step_ms.select", "ms", Lower, RUN),
    pl("testgen.bind.step_ms.aggregate", "ms", Lower, RUN),
    pl("testgen.bind.step_ms.join", "ms", Lower, RUN),
    pl("testgen.bind.step_ms.sort", "ms", Lower, RUN),
    pl("testgen.bind.step_ms.project", "ms", Lower, RUN),
    pl("testgen.bind.record_ops_per_input_row", "count", Lower, RUN),
    pl("exec.analyzer.summaries_us", "us", Lower, RUN),
    pl("exec.trace.events_per_run", "count", Lower, RUN),
    pl("exec.trace.record_ns", "ns", Lower, RUN),
    pl("exec.convert.trace_jsonl_us", "us", Lower, RUN),
    pl("verify.oracle.payload_ms", "ms", Lower, RUN),
    pl("verify.conformance.check_ms", "ms", Lower, RUN),
    // verify_matrix: the sweep replayed cell by cell.
    pl("exec.engine.native.cells_ms", "ms", Lower, MATRIX),
    pl("exec.engine.sql.cells_ms", "ms", Lower, MATRIX),
    pl("exec.engine.kv.cells_ms", "ms", Lower, MATRIX),
    pl("exec.engine.streaming.cells_ms", "ms", Lower, MATRIX),
    pl("exec.engine.mapreduce.cells_ms", "ms", Lower, MATRIX),
    pl("core.matrix.sweep_overhead_ms", "ms", Lower, MATRIX),
    pl("verify.golden.load_us", "us", Lower, MATRIX),
    pl("verify.oracle.cells_ms", "ms", Lower, MATRIX),
    pl("core.matrix.cells_passed", "count", Higher, MATRIX),
    // load_sql_closed.
    pl("sqlengine.parser.parse_us", "us", Lower, SQL),
    pl("sqlengine.plan.build_us", "us", Lower, SQL),
    pl("sqlengine.memo.optimize_us", "us", Lower, SQL),
    pl("sqlengine.exec.run_us", "us", Lower, SQL),
    pl("sqlengine.exec.rows_scanned_per_query", "count", Lower, SQL),
    pl("exec.loadgen.sql.session_open_us", "us", Lower, SQL),
    pl("exec.loadgen.sql.execute_us", "us", Lower, SQL),
    pl("exec.loadgen.sql.scaling_2c", "ratio", Higher, SQL),
    pl("exec.loadgen.sql_closed.p99_us", "us", Lower, SQL),
    pl("exec.loadgen.driver_ns_per_op", "ns", Lower, SQL),
    pl("common.histogram.log_record_ns", "ns", Lower, SQL),
    pl("exec.loadgen.build_schedule_ms", "ms", Lower, SQL),
    pl("exec.loadgen.sql_open.sojourn_p50_us", "us", Lower, SQL),
    // load_kv_open.
    pl("kvstore.lsm.get_ns", "ns", Lower, KV),
    pl("kvstore.lsm.put_ns", "ns", Lower, KV),
    pl("kvstore.lsm.scan_us", "us", Lower, KV),
    pl("kvstore.lsm.flushes", "count", Lower, KV),
    pl("kvstore.lsm.compactions", "count", Lower, KV),
    pl("kvstore.lsm.run_probes_per_get", "count", Lower, KV),
    pl("kvstore.lsm.bloom_skip_share", "share", Higher, KV),
    pl("kvstore.lsm.memtable_hit_share", "share", Higher, KV),
    pl("exec.loadgen.service_p50_us", "us", Lower, KV),
    pl("exec.loadgen.service_p99_us", "us", Lower, KV),
    pl("exec.loadgen.wait_p50_us", "us", Lower, KV),
    pl("exec.loadgen.queue_delay_mean_us", "us", Lower, KV),
    pl("exec.loadgen.shed_ops", "count", Lower, KV),
    pl("exec.loadgen.kv_open.p99_us_at_5k", "us", Lower, KV),
    pl("exec.loadgen.kv_open.p99_us_at_15k", "us", Lower, KV),
    pl("exec.loadgen.kv_open.p99_us_at_30k", "us", Lower, KV),
    pl("exec.loadgen.kv_closed.ops_per_s", "1/s", Higher, KV),
    // datagen_volume.
    pl("datagen.text.lda.items_per_s", "1/s", Higher, GEN),
    pl("datagen.text.markov.items_per_s", "1/s", Higher, GEN),
    pl("datagen.table.retail.items_per_s", "1/s", Higher, GEN),
    pl("datagen.graph.rmat.items_per_s", "1/s", Higher, GEN),
    pl("datagen.graph.ba.items_per_s", "1/s", Higher, GEN),
    pl("datagen.stream.poisson.items_per_s", "1/s", Higher, GEN),
    pl("datagen.stream.mmpp.items_per_s", "1/s", Higher, GEN),
    pl("datagen.behavioral.items_per_s", "1/s", Higher, GEN),
    pl("datagen.mb_per_s", "MB/s", Higher, GEN),
    pl("datagen.parallel_speedup_2w", "ratio", Higher, GEN),
    pl("datagen.merge_ms", "ms", Lower, GEN),
    // kv_ycsb: one client, so the counts repeat exactly.
    pl("workloads.oltp.a.load_s", "s", Lower, YCSB),
    pl("workloads.oltp.a.run_ops_per_s", "1/s", Higher, YCSB),
    pl("workloads.oltp.e.run_ops_per_s", "1/s", Higher, YCSB),
    pl("workloads.oltp.a.scaling_2c", "ratio", Higher, YCSB),
    pl("kvstore.lsm.fill_put_ns", "ns", Lower, YCSB),
    pl("kvstore.lsm.get_hit_ns", "ns", Lower, YCSB),
    pl("kvstore.lsm.get_miss_ns", "ns", Lower, YCSB),
    pl("kvstore.lsm.scan_unbounded_us", "us", Lower, YCSB),
    pl("kvstore.lsm.scan100_us", "us", Lower, YCSB),
    pl("kvstore.lsm.flush_ms", "ms", Lower, YCSB),
    pl("kvstore.lsm.compact_ms", "ms", Lower, YCSB),
    pl("kvstore.lsm.a.flushes", "count", Lower, YCSB),
    pl("kvstore.lsm.a.compactions", "count", Lower, YCSB),
    pl("kvstore.lsm.a.run_probes_per_get", "count", Lower, YCSB),
    pl("kvstore.lsm.a.bloom_skip_share", "share", Higher, YCSB),
    pl("kvstore.wal.durable_put_ns", "ns", Lower, YCSB),
    pl("kvstore.lsm.reopen_ms", "ms", Lower, YCSB),
    pl("kvstore.disk_bytes_per_user_byte", "ratio", Lower, YCSB),
    // Every workload: what recording spans costs the replay.
    pl("benchmark.trace_overhead_ratio", "ratio", Lower, ALL),
];

/// The per-layer metrics `workload` measures.
pub fn owned_by(workload: &str) -> impl Iterator<Item = &'static PerLayer> + '_ {
    PER_LAYER
        .iter()
        .filter(move |m| m.owners.contains(&workload))
}

/// The text `BENCHMARK.json` must hold for this catalogue.
#[cfg(test)]
fn benchmark_json(run_seconds: u32) -> String {
    let mut out = String::from(
        "{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n",
    );
    out.push_str(&format!(
        "  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n"
    ));
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.word(),
                m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.word()
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_used_once() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(name_ok(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit_ok(unit), "{unit}");
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'),
                "{}",
                w.name
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
    }

    #[test]
    fn every_per_layer_metric_has_an_owner_that_exists() {
        for m in &PER_LAYER {
            assert!(!m.owners.is_empty(), "{}", m.name);
            for o in m.owners {
                assert!(
                    WORKLOADS.iter().any(|w| w.name == *o),
                    "{} owned by unknown {o}",
                    m.name
                );
            }
        }
        for w in &WORKLOADS {
            assert!(
                owned_by(w.name).count() > 1,
                "{} owns nothing of its own",
                w.name
            );
        }
    }

    #[test]
    fn benchmark_json_at_the_repo_root_matches_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let run_seconds: u32 = on_disk
            .split("\"run_seconds\":")
            .nth(1)
            .and_then(|rest| {
                rest.trim_start()
                    .split(|c: char| !c.is_ascii_digit())
                    .next()
            })
            .and_then(|digits| digits.parse().ok())
            .expect("run_seconds in BENCHMARK.json");
        assert!((1..=60).contains(&run_seconds));
        let expected = benchmark_json(run_seconds);
        assert!(
            on_disk == expected,
            "BENCHMARK.json differs from catalog.rs; it should read:\n{expected}"
        );
    }
}
