//! `run_sql` and `run_mapreduce`: the five-step `Benchmark::run` over five
//! relational prescriptions, on one engine.
//!
//! Scales are chosen so no prescription is more than ~45 % of the pass.
//! Both workloads run the same prescriptions, seeds and scales, and both
//! pass the strict oracle check in warm-up, so the two engines agree
//! through the shared reference (float aggregates may differ in the last
//! bits between engines at these scales, so raw digests are compared
//! within an engine only).

use super::pipeline::{output_digest, replay, run_digest, Replayed};
use super::{engine_config, fresh_dir};
use crate::harness::{Ctx, Pass, Replays, Traced, Workload};
use crate::span::total_ms_per_pass;
use crate::stats::median;
use bdbench::common::record::Table;
use bdbench::core::pipeline::Phase;
use bdbench::core::{Benchmark, BenchmarkRun, BenchmarkSpec};
use bdbench::datagen::Dataset;
use bdbench::exec::convert::trace_to_jsonl;
use bdbench::exec::engine::EngineRegistry;
use bdbench::exec::trace::{RunTrace, TraceEvent};
use bdbench::testgen::bind::{BoundExecution, MapReduceBinding, PatternExecutor, SqlBinding};
use bdbench::testgen::SystemKind;
use bdbench::verify::{oracle_payload, Conformance, GoldenStore, VerifyMode};
use std::collections::BTreeMap;
use std::time::Instant;

/// `(prescription, scale)` of one pass.
const BODY: [(&str, u64); 5] = [
    ("relational/select-aggregate", 200_000),
    ("relational/join", 3_000),
    ("micro/sort", 50_000),
    ("ecommerce/naive-bayes", 100_000),
    ("ecommerce/collaborative-filtering", 20_000),
];

/// Operator names `BoundExecution.steps` can carry on this body.
const STEP_OPS: [(&str, &str); 5] = [
    ("select", "testgen.bind.step_ms.select"),
    ("aggregate", "testgen.bind.step_ms.aggregate"),
    ("join", "testgen.bind.step_ms.join"),
    ("sort", "testgen.bind.step_ms.sort"),
    ("project", "testgen.bind.step_ms.project"),
];

/// The pipeline workload on one engine.
pub struct RunEngine {
    system: SystemKind,
    specs: Vec<BenchmarkSpec>,
    /// Output digest of each prescription's warm-up run; `None` when its
    /// strict check failed, which fails the prescription in every pass.
    warm: Vec<Option<u64>>,
}

impl RunEngine {
    /// The workload for `system` (`Sql` or `MapReduce`).
    pub fn new(system: SystemKind) -> Self {
        Self {
            system,
            specs: Vec::new(),
            warm: Vec::new(),
        }
    }

    /// A runner as `bdbench run` builds it, with engine threads pinned.
    fn bench() -> Benchmark {
        let mut b = Benchmark::new();
        b.execution_layer_mut().system_config = engine_config();
        b
    }

    /// One untraced pass; `on_run` sees every finished run.
    fn untraced_pass(&self, mut on_run: impl FnMut(&BenchmarkRun)) -> Result<Pass, String> {
        let mut pass = Pass::default();
        for (spec, want) in self.specs.iter().zip(&self.warm) {
            pass.attempted += 1;
            let t0 = Instant::now();
            let run = Self::bench().run(spec);
            pass.op_ns.push(t0.elapsed().as_nanos() as u64);
            match run {
                Ok(run) => {
                    pass.work += run.data_summary.iter().map(|d| d.2 as u64).sum::<u64>();
                    if want.is_none() || run_digest(&run) != *want {
                        pass.failed += 1;
                    }
                    on_run(&run);
                }
                Err(e) => {
                    eprintln!("{}: {e}", spec.prescription);
                    pass.failed += 1;
                }
            }
        }
        pass.wall_s = pass.op_ns.iter().sum::<u64>() as f64 / 1e9;
        Ok(pass)
    }

    fn binding(&self) -> Box<dyn PatternExecutor> {
        match self.system {
            SystemKind::Sql => Box::new(SqlBinding),
            _ => Box::new(MapReduceBinding {
                config: bdbench::mapreduce::JobConfig {
                    workers: engine_config().threads,
                    ..Default::default()
                },
            }),
        }
    }
}

fn tables_of(datasets: &BTreeMap<String, Dataset>) -> BTreeMap<String, Table> {
    datasets
        .iter()
        .filter_map(|(k, v)| match v {
            Dataset::Table(t) => Some((k.clone(), t.clone())),
            _ => None,
        })
        .collect()
}

impl Workload for RunEngine {
    fn setup(&mut self, ctx: &Ctx) -> Result<(), String> {
        // Strict verification records a golden when one is missing, so it
        // gets a directory of its own and never sees the repo's goldens/.
        let goldens = fresh_dir(&ctx.scratch.join("goldens-run"))?;
        self.specs = BODY
            .iter()
            .map(|(name, scale)| {
                BenchmarkSpec::new(name)
                    .with_prescription(name)
                    .with_system(self.system)
                    .with_scale(ctx.sized(*scale, 60))
                    .with_seed(ctx.seed)
            })
            .collect();
        self.warm.clear();
        for spec in &self.specs {
            let verified = spec
                .clone()
                .with_verify(VerifyMode::Strict)
                .with_goldens_dir(&goldens);
            let run = Self::bench()
                .run(&verified)
                .map_err(|e| format!("{}: {e}", spec.prescription))?;
            let verified = run.conformance.checks > 0 && run.conformance.all_passed();
            if !verified {
                eprintln!(
                    "{}: strict check failed: {:?}",
                    spec.prescription, run.conformance.failures
                );
            }
            self.warm.push(run_digest(&run).filter(|_| verified));
        }
        Ok(())
    }

    fn pass(&mut self, _ctx: &Ctx) -> Result<Pass, String> {
        self.untraced_pass(|_| {})
    }

    fn traced(&mut self, ctx: &Ctx) -> Result<Traced, String> {
        let mut out = Traced::default();
        let config = engine_config();
        let engines = EngineRegistry::with_builtins();
        let mut replays = Replays::default();
        let mut untraced_s = Vec::new();
        let mut phase_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut events_per_run = Vec::new();
        let mut operator_ms = Vec::new();
        let mut last: Vec<Replayed> = Vec::new();
        let mut jsonl_events: Vec<TraceEvent> = Vec::new();
        let start = Instant::now();
        while replays.rounds() < 2 || !ctx.window_over(start, 0.8) {
            // Untraced: the real pipeline, for its phase timings.
            let mut phases: BTreeMap<&'static str, f64> = BTreeMap::new();
            let mut events = 0usize;
            let pass = self.untraced_pass(|run| {
                for p in &run.phases {
                    let key = match p.phase {
                        Phase::Planning => "core.pipeline.planning_ms",
                        Phase::DataGeneration => "core.pipeline.datagen_ms",
                        Phase::TestGeneration => "core.pipeline.testgen_ms",
                        Phase::Execution => "core.pipeline.execution_ms",
                        Phase::Analysis => "core.pipeline.analysis_ms",
                    };
                    *phases.entry(key).or_default() += p.duration.as_secs_f64() * 1e3;
                }
                events += run.trace.len();
                if jsonl_events.is_empty() {
                    jsonl_events = run.trace.events();
                }
            })?;
            out.attempted += pass.attempted;
            out.failed += pass.failed;
            untraced_s.push(pass.wall_s);
            for (k, v) in phases {
                phase_ms.entry(k).or_default().push(v);
            }
            events_per_run.push(events as f64 / self.specs.len() as f64);

            // The same body, replayed under spans and without.
            replays.round(|t, recorded| {
                let t0 = Instant::now();
                let mut replayed = Vec::with_capacity(self.specs.len());
                for spec in &self.specs {
                    replayed.push(replay(t, spec, &config, &engines).map_err(|e| e.to_string())?);
                }
                let wall_s = t0.elapsed().as_secs_f64();
                for (r, want) in replayed.iter().zip(&self.warm) {
                    out.attempted += 1;
                    if output_digest(&r.results) != *want {
                        eprintln!(
                            "replay digest differs from Benchmark::run on {}",
                            r.prepared.test.prescription.name
                        );
                        out.failed += 1;
                    }
                }
                if recorded {
                    operator_ms.push(
                        replayed.iter().map(Replayed::operator_micros).sum::<u64>() as f64 / 1e3,
                    );
                    last = replayed;
                }
                Ok(wall_s)
            })?;
        }

        // Faithfulness: the replay must cost what the pipeline costs.
        ctx.report_within_15_percent(
            "replayed pass against Benchmark::run",
            median(replays.traced_s()),
            median(&untraced_s),
            "s",
        );
        out.put_one("benchmark.trace_overhead_ratio", replays.overhead_ratio());

        for (name, samples) in &phase_ms {
            out.put(name, samples);
        }
        let spans = replays.spans();
        let us = |name: &str| {
            total_ms_per_pass(spans, name)
                .iter()
                .map(|ms| ms * 1e3)
                .collect::<Vec<_>>()
        };
        out.put("testgen.repository.get_us", &us("testgen.repository.get"));
        out.put(
            "testgen.generator.materialize_us",
            &us("testgen.generator.materialize"),
        );
        out.put(
            "datagen.table.gen_ms",
            &total_ms_per_pass(spans, "datagen.generate"),
        );
        out.put("exec.planner.route_us", &us("exec.planner.route"));
        let execute_ms = total_ms_per_pass(spans, "exec.engine.execute");
        out.put("exec.engine.execute_ms", &execute_ms);
        let glue: Vec<f64> = execute_ms
            .iter()
            .zip(&operator_ms)
            .map(|(e, o)| (e - o).max(0.0))
            .collect();
        out.put("exec.engine.glue_ms", &glue);
        out.put("exec.analyzer.summaries_us", &us("exec.analyzer.summaries"));
        out.put("exec.trace.events_per_run", &events_per_run);

        self.probe_bindings(&last, &mut out)?;
        self.probe_verify(ctx, &last, &config, &mut out)?;
        probe_trace(&jsonl_events, &mut out)?;
        out.spans = spans.to_vec();
        Ok(out)
    }
}

impl RunEngine {
    /// `PatternExecutor::execute` called directly on the replay's inputs:
    /// what the engine's operators cost without the engine's glue.
    fn probe_bindings(&self, last: &[Replayed], out: &mut Traced) -> Result<(), String> {
        let binding = self.binding();
        let inputs: Vec<BTreeMap<String, Table>> = last
            .iter()
            .map(|r| tables_of(&r.prepared.datasets))
            .collect();
        let mut exec_ms = Vec::new();
        let mut step_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut ops_per_row = 0.0;
        for _ in 0..3 {
            let mut total = 0.0;
            let mut by_op: BTreeMap<&str, f64> =
                STEP_OPS.iter().map(|(op, _)| (*op, 0.0)).collect();
            let (mut record_ops, mut rows) = (0u64, 0u64);
            for (r, tables) in last.iter().zip(&inputs) {
                let bound: BoundExecution = binding
                    .execute(&r.prepared.test.prescription.pattern, tables)
                    .map_err(|e| e.to_string())?;
                total += bound.elapsed.as_secs_f64() * 1e3;
                for step in &bound.steps {
                    let slot = by_op.get_mut(step.op.as_str()).ok_or_else(|| {
                        format!("step {} has no testgen.bind.step_ms metric", step.op)
                    })?;
                    *slot += step.elapsed.as_secs_f64() * 1e3;
                }
                record_ops += bound.record_ops;
                rows += tables.values().map(|t| t.len() as u64).sum::<u64>();
            }
            exec_ms.push(total);
            for (op, ms) in by_op {
                step_ms.entry(op).or_default().push(ms);
            }
            ops_per_row = record_ops as f64 / rows as f64;
        }
        out.put("testgen.bind.exec_ms", &exec_ms);
        for (op, name) in STEP_OPS {
            out.put(name, &step_ms[op]);
        }
        out.put_one("testgen.bind.record_ops_per_input_row", ops_per_row);
        Ok(())
    }

    /// The strict check the warm-up pays for: oracle and conformance.
    fn probe_verify(
        &self,
        ctx: &Ctx,
        last: &[Replayed],
        config: &bdbench::exec::SystemConfig,
        out: &mut Traced,
    ) -> Result<(), String> {
        let goldens = fresh_dir(&ctx.scratch.join("goldens-probe"))?;
        let (mut oracle_ms, mut check_ms) = (0.0, 0.0);
        for (r, spec) in last.iter().zip(&self.specs) {
            let trace = RunTrace::new();
            let request = r.prepared.request(spec, config, &trace);
            let t0 = Instant::now();
            oracle_payload(&request).map_err(|e| e.to_string())?;
            oracle_ms += t0.elapsed().as_secs_f64() * 1e3;
            let checker =
                Conformance::with_store(VerifyMode::Strict, Some(GoldenStore::at(&goldens)));
            let t0 = Instant::now();
            let passed = checker.check(&request, &r.results);
            check_ms += t0.elapsed().as_secs_f64() * 1e3;
            out.attempted += 1;
            if !passed {
                out.failed += 1;
            }
        }
        out.put_one("verify.oracle.payload_ms", oracle_ms);
        out.put_one("verify.conformance.check_ms", check_ms);
        Ok(())
    }
}

/// What the run trace costs: recording an event, exporting a run.
fn probe_trace(events: &[TraceEvent], out: &mut Traced) -> Result<(), String> {
    const EVENTS: u32 = 100_000;
    let mut record_ns = Vec::new();
    for _ in 0..5 {
        let trace = RunTrace::new();
        let t0 = Instant::now();
        for i in 0..EVENTS {
            trace.operation(
                "sql",
                "select",
                u64::from(i),
                std::time::Duration::from_micros(7),
            );
        }
        record_ns.push(t0.elapsed().as_nanos() as f64 / f64::from(EVENTS));
        std::hint::black_box(trace.len());
    }
    out.put("exec.trace.record_ns", &record_ns);
    let mut jsonl_us = Vec::new();
    for _ in 0..20 {
        let t0 = Instant::now();
        let text = trace_to_jsonl(events).map_err(|e| e.to_string())?;
        jsonl_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        std::hint::black_box(text.len());
    }
    out.put("exec.convert.trace_jsonl_us", &jsonl_us);
    Ok(())
}
