//! The five-step benchmarking process of Figure 1.
//!
//! Planning → Data generation → Test generation → Execution → Analysis &
//! Evaluation. [`Benchmark::run`] walks all five steps for a
//! [`BenchmarkSpec`], timing each, and produces a [`BenchmarkRun`] whose
//! analysis text is rendered by the Execution Layer's reporter.
//!
//! The execution step itself is delegated to the Execution Layer's
//! [`EngineRegistry`](bdb_exec::engine::EngineRegistry): the pipeline
//! builds one [`ExecutionRequest`] and the registry routes it to the
//! capable engine. Each data-set generation and the one engine dispatch
//! run once under [`bdb_exec::fault::run_with_fault`]: a panic becomes a
//! named error, and when the spec sets a fault plan
//! ([`BenchmarkSpec::faults`]) an injected fault fails the data set or
//! dispatch it hits, and with it the run. Nothing is retried.
//! Every step, generated data set, dispatch decision, executed operation
//! and injected fault is recorded in the run's [`RunTrace`].

use crate::layers::{BenchmarkSpec, ExecutionLayer, FunctionLayer};
use bdb_common::{pool, BdbError, Result};
use bdb_datagen::velocity::VelocityController;
use bdb_datagen::Dataset;
use bdb_exec::analyzer::{ConformanceSummary, LoadSummary, RecoverySummary};
use bdb_exec::engine::{ExecutionRequest, RoutingPolicy};
use bdb_exec::fault::{self, FaultInjector, FaultSite};
use bdb_exec::loadgen::{self, LoadProfile};
use bdb_exec::reporter::{
    fmt_num, render_conformance, render_load, render_resilience, TableReporter,
};
use bdb_exec::trace::{RunTrace, TraceEvent};
use bdb_metrics::GenerationMetrics;
use bdb_testgen::TestGenerator;
use bdb_verify::{Conformance, GoldenStore, VerifyMode};
use bdb_workloads::WorkloadResult;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One of the five Figure 1 steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Determine object, domain and metrics.
    Planning,
    /// Generate the input data sets.
    DataGeneration,
    /// Generate the prescribed test.
    TestGeneration,
    /// Run the test on the target system.
    Execution,
    /// Analyse and report.
    Analysis,
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Phase::Planning => "planning",
            Phase::DataGeneration => "data generation",
            Phase::TestGeneration => "test generation",
            Phase::Execution => "execution",
            Phase::Analysis => "analysis",
        };
        f.write_str(s)
    }
}

/// Wall-clock timing of one step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseTiming {
    /// The step.
    pub phase: Phase,
    /// Its duration.
    pub duration: Duration,
}

/// The complete output of a benchmark run.
#[derive(Debug)]
pub struct BenchmarkRun {
    /// Spec name.
    pub name: String,
    /// Per-step timings, in Figure 1 order.
    pub phases: Vec<PhaseTiming>,
    /// (dataset name, kind, items, approx bytes) per generated input.
    pub data_summary: Vec<(String, String, usize, usize)>,
    /// Generation throughput across all datasets of the run (items/s,
    /// bytes/s, workers used); `None` only when the spec generated no data.
    pub generation: Option<GenerationMetrics>,
    /// Workload results from the execution step.
    pub results: Vec<WorkloadResult>,
    /// Conformance verdicts distilled from the trace. Empty (zero
    /// checks) unless the spec asked for verification.
    pub conformance: ConformanceSummary,
    /// The rendered analysis table.
    pub analysis: String,
    /// Structured events of the whole run: phase spans, generated data
    /// sets, engine dispatch decisions and executed operations.
    pub trace: RunTrace,
}

/// The complete output of a concurrent load drive ([`Benchmark::run_load`]).
#[derive(Debug)]
pub struct LoadRun {
    /// The profile that was driven.
    pub profile: LoadProfile,
    /// Per-engine reports plus session/shed event counts.
    pub summary: LoadSummary,
    /// Conformance verdicts for the sampled-result oracle checks.
    pub conformance: ConformanceSummary,
    /// The rendered load table.
    pub analysis: String,
    /// Structured events: session start/stop, shed, conformance.
    pub trace: RunTrace,
    /// Issued-op digest — identical for any client count at a fixed seed.
    pub digest: String,
}

/// The benchmark runner: Function + Execution layers with a run method.
#[derive(Debug, Default)]
pub struct Benchmark {
    function_layer: FunctionLayer,
    execution_layer: ExecutionLayer,
}

impl Benchmark {
    /// A runner with default layers (built-in generators + prescriptions).
    pub fn new() -> Self {
        Self::default()
    }

    /// Access the function layer (to register generators/prescriptions).
    pub fn function_layer_mut(&mut self) -> &mut FunctionLayer {
        &mut self.function_layer
    }

    /// Access the execution layer configuration.
    pub fn execution_layer_mut(&mut self) -> &mut ExecutionLayer {
        &mut self.execution_layer
    }

    /// Run the five-step process for `spec`.
    pub fn run(&self, spec: &BenchmarkSpec) -> Result<BenchmarkRun> {
        let trace = RunTrace::new();
        let injector = spec.faults.clone().map(|plan| FaultInjector::new(plan, spec.seed));
        let mut phases = Vec::with_capacity(5);
        let mut finish_phase = |trace: &RunTrace, phase: Phase, started: Instant| {
            let duration = started.elapsed();
            trace.phase_finished(phase, duration);
            phases.push(PhaseTiming { phase, duration });
        };

        // ---- 1. Planning ----
        trace.phase_started(Phase::Planning);
        let t0 = Instant::now();
        let prescription = self.function_layer.repository.get(&spec.prescription)?.clone();
        prescription.validate()?;
        if let Some(rate) = spec.target_rate {
            if !(rate.is_finite() && rate > 0.0) {
                return Err(BdbError::InvalidConfig(format!(
                    "target rate must be a positive number of items/sec, got {rate}"
                )));
            }
        }
        // A golden store exists only where the spec points. The digest
        // tier compares against one and the update tier writes one, so
        // neither has anything to do without it.
        if let (Some(mode @ (VerifyMode::Digest | VerifyMode::Update)), None) =
            (spec.verify, &spec.goldens_dir)
        {
            return Err(BdbError::InvalidConfig(format!(
                "verify mode {mode} needs a golden store; name its directory (--goldens DIR)"
            )));
        }
        finish_phase(&trace, Phase::Planning, t0);

        // ---- 2. Data generation ----
        trace.phase_started(Phase::DataGeneration);
        let t0 = Instant::now();
        let mut datasets: BTreeMap<String, Dataset> = BTreeMap::new();
        let mut data_summary = Vec::new();
        let mut generation: Option<GenerationMetrics> = None;
        // The spec's worker knob; unset is sequential, 0 is available
        // parallelism.
        let workers = pool::effective_workers(spec.generator_workers.unwrap_or(1));
        for (i, data_spec) in prescription.data.iter().enumerate() {
            let generator = self.function_layer.generators.build(&data_spec.generator)?;
            let items = spec.scale.unwrap_or(data_spec.items);
            let seed = spec.seed.wrapping_add(i as u64);
            // One generation path: the controller shards the volume over
            // the workers and paces the shards when a rate is set. Workers
            // and rate change how fast the data arrives, never the data;
            // one worker and no rate is a single `generate` call.
            let mut controller =
                VelocityController::new(workers)?.with_chunk_items((items / 8).max(16));
            if let Some(rate) = spec.target_rate {
                controller = controller.with_target_rate(rate);
            }
            let gen_started = Instant::now();
            let site = FaultSite::datagen(&data_spec.name);
            // An injected fault (including a worker panic surfaced by the
            // hardened pool) fails the data set, and with it the run.
            let drawn = injector.as_ref().and_then(|inj| inj.sample(&site));
            let outcome = fault::run_with_fault(drawn, &trace, &site, || {
                controller.run(generator.as_ref(), seed, items)
            })?;
            let gen_elapsed = gen_started.elapsed();
            let dataset = outcome.dataset;
            // One walk over the data set feeds the metrics, the trace event
            // and the summary row.
            let (kind, items, bytes) =
                (dataset.kind().to_string(), dataset.item_count(), dataset.byte_size());
            let gm = GenerationMetrics::measure(
                items as u64,
                bytes as u64,
                gen_elapsed,
                outcome.workers,
            );
            match &mut generation {
                Some(total) => total.merge(&gm),
                None => generation = Some(gm),
            }
            trace.record(TraceEvent::DatasetGenerated {
                name: data_spec.name.clone(),
                kind: kind.clone(),
                items: items as u64,
                bytes: bytes as u64,
                workers: outcome.workers,
                micros: gen_elapsed.as_micros().min(u128::from(u64::MAX)) as u64,
            });
            data_summary.push((data_spec.name.clone(), kind, items, bytes));
            datasets.insert(data_spec.name.clone(), dataset);
        }
        finish_phase(&trace, Phase::DataGeneration, t0);

        // ---- 3. Test generation ----
        trace.phase_started(Phase::TestGeneration);
        let t0 = Instant::now();
        let test = TestGenerator::materialize(prescription, spec.system, spec.seed)?;
        finish_phase(&trace, Phase::TestGeneration, t0);

        // ---- 4. Execution ----
        trace.phase_started(Phase::Execution);
        let t0 = Instant::now();
        let scale = spec
            .scale
            .unwrap_or_else(|| test.prescription.data.first().map_or(1000, |d| d.items));
        let request = ExecutionRequest {
            prescription: &test.prescription,
            system: spec.system,
            seed: spec.seed,
            scale,
            datasets: &datasets,
            config: &self.execution_layer.system_config,
            trace: &trace,
            routing: RoutingPolicy::FirstCapable,
        };
        let results = self.execution_layer.engines.dispatch(&request, injector.as_ref())?;
        finish_phase(&trace, Phase::Execution, t0);

        // ---- 5. Analysis & evaluation ----
        trace.phase_started(Phase::Analysis);
        let t0 = Instant::now();
        // Evaluation: when the spec asks for verification, re-check every
        // result against the reference oracle / golden store. Verdicts
        // land in the trace; the summary distils them for the report.
        if let Some(mode) = spec.verify {
            let store = spec.goldens_dir.as_ref().map(GoldenStore::at);
            Conformance::with_store(mode, store).check(&request, &results);
        }
        // One snapshot of the trace feeds every summary below.
        let events = trace.events();
        let conformance = ConformanceSummary::from_events(&events);
        let analysis = render_analysis(
            &spec.name,
            &results,
            &data_summary,
            generation.as_ref(),
            spec.target_rate,
            &events,
            &conformance,
        );
        finish_phase(&trace, Phase::Analysis, t0);

        Ok(BenchmarkRun {
            name: spec.name.clone(),
            phases,
            data_summary,
            generation,
            results,
            conformance,
            analysis,
            trace,
        })
    }

    /// Drive the spec's concurrent load profile against the execution
    /// layer's engines and distil tail-latency/saturation reports.
    ///
    /// Uses [`BenchmarkSpec::load`] when set, the default
    /// [`LoadProfile`] otherwise; the spec's seed fixes the issued-op
    /// schedule, so reruns (at any client count) issue identical ops.
    ///
    /// # Errors
    /// Fails on an invalid profile, an empty engine filter, or a worker
    /// panic inside a client session.
    pub fn run_load(&self, spec: &BenchmarkSpec) -> Result<LoadRun> {
        let trace = RunTrace::new();
        let profile = spec.load.clone().unwrap_or_default();
        // The spec's fault plan rides into every lane: each issued op
        // draws its own fault.
        trace.phase_started("load");
        let t0 = Instant::now();
        let reports = loadgen::run_load(
            &self.execution_layer.engines,
            &profile,
            spec.faults.as_ref(),
            spec.seed,
            &trace,
        )?;
        trace.phase_finished("load", t0.elapsed());
        let events = trace.events();
        let summary = LoadSummary::new(reports, &events);
        let conformance = ConformanceSummary::from_events(&events);
        let digest = summary
            .reports
            .first()
            .map(|r| r.digest.clone())
            .unwrap_or_default();
        let analysis = format!("{}: load\n{}", spec.name, render_load(&summary));
        Ok(LoadRun { profile, summary, conformance, analysis, trace, digest })
    }
}

fn render_analysis(
    name: &str,
    results: &[WorkloadResult],
    data_summary: &[(String, String, usize, usize)],
    generation: Option<&GenerationMetrics>,
    target_rate: Option<f64>,
    events: &[TraceEvent],
    conformance: &ConformanceSummary,
) -> String {
    let mut data = TableReporter::new(
        &format!("{name}: generated data"),
        &["dataset", "kind", "items", "bytes"],
    );
    for (n, k, items, bytes) in data_summary {
        data.add_row(&[n.clone(), k.clone(), items.to_string(), bytes.to_string()]);
    }
    // One generation line over every data set of the run; a paced run
    // adds its target and the merged rate's error against it.
    let gen_line = generation.map_or(String::new(), |g| {
        let target = target_rate.map_or(String::new(), |rate| {
            format!(", target {rate} items/s, error {:.3}", g.rate_error(rate))
        });
        format!(
            "generation: {} items/s, {} bytes/s on {} worker(s){target}\n",
            fmt_num(g.items_per_sec()),
            fmt_num(g.bytes_per_sec()),
            g.workers
        )
    });
    let dispatch_lines: String = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::EngineDispatched { prescription, engine, explicit, .. } => Some(format!(
                "dispatch: {prescription} -> {engine} engine ({})\n",
                if *explicit { "requested system" } else { "capability fallback" }
            )),
            _ => None,
        })
        .collect();
    let mut table = TableReporter::new(
        &format!("{name}: results"),
        &["workload", "system", "category", "secs", "ops/s", "Mrops", "joules", "dollars"],
    );
    for r in results {
        table.add_row(&[
            r.report.workload.clone(),
            r.report.system.clone(),
            r.category.to_string(),
            fmt_num(r.report.user.duration_secs),
            fmt_num(r.report.user.throughput_ops_per_sec),
            fmt_num(r.report.arch.mrops),
            fmt_num(r.report.energy_joules),
            fmt_num(r.report.cost_dollars),
        ]);
    }
    // Recovery metrics appear only when the run saw recovery activity —
    // clean runs keep their analysis unchanged.
    let recovery = RecoverySummary::from_events(events);
    let resilience_section = if recovery.is_quiet() {
        String::new()
    } else {
        format!("\n{}", render_resilience(&recovery))
    };
    // Conformance appears only on verified runs — like recovery, clean
    // unverified runs keep their analysis unchanged.
    let conformance_section = if conformance.is_empty() {
        String::new()
    } else {
        format!("\n{}", render_conformance(conformance))
    };
    format!(
        "{}\n{}{}{}{}{}",
        data.to_text(),
        gen_line,
        dispatch_lines,
        table.to_text(),
        resilience_section,
        conformance_section
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_testgen::SystemKind;
    use bdb_workloads::WorkloadCategory;

    fn run(prescription: &str, system: SystemKind, scale: u64) -> BenchmarkRun {
        let spec = BenchmarkSpec::new("test")
            .with_prescription(prescription)
            .with_system(system)
            .with_scale(scale)
            .with_seed(5);
        Benchmark::new().run(&spec).unwrap()
    }

    #[test]
    fn five_phases_in_order() {
        let r = run("micro/wordcount", SystemKind::Native, 100);
        let order: Vec<Phase> = r.phases.iter().map(|p| p.phase).collect();
        assert_eq!(
            order,
            vec![
                Phase::Planning,
                Phase::DataGeneration,
                Phase::TestGeneration,
                Phase::Execution,
                Phase::Analysis,
            ]
        );
        assert_eq!(r.results.len(), 1);
        assert!(r.analysis.contains("micro/wordcount"));
        // The structured trace spans all five Figure 1 phases and saw the
        // dispatch decision plus at least one executed operation.
        assert!(!r.trace.is_empty());
        assert_eq!(
            r.trace.phases_finished(),
            vec![
                "analysis",
                "data generation",
                "execution",
                "planning",
                "test generation"
            ]
        );
        let events = r.trace.events();
        assert!(events.iter().any(|e| e.label() == "dataset_generated"));
        assert!(events.iter().any(|e| e.label() == "engine_dispatched"));
        assert!(events.iter().any(|e| e.label() == "operation_executed"));
    }

    #[test]
    fn data_summary_trace_and_generation_metrics_agree() {
        // Two data sets (a join), so the per-data-set rows and the merged
        // metrics are both exercised.
        let r = run("relational/join", SystemKind::Sql, 200);
        assert_eq!(r.data_summary.len(), 2);
        let traced: Vec<(String, String, usize, usize)> = r
            .trace
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::DatasetGenerated { name, kind, items, bytes, .. } => {
                    Some((name.clone(), kind.clone(), *items as usize, *bytes as usize))
                }
                _ => None,
            })
            .collect();
        assert_eq!(traced, r.data_summary);
        let g = r.generation.expect("data was generated");
        assert_eq!(g.items as usize, r.data_summary.iter().map(|d| d.2).sum::<usize>());
        assert_eq!(g.bytes as usize, r.data_summary.iter().map(|d| d.3).sum::<usize>());
    }

    #[test]
    fn wordcount_runs_on_both_systems() {
        let native = run("micro/wordcount", SystemKind::Native, 100);
        let mr = run("micro/wordcount", SystemKind::MapReduce, 100);
        assert_eq!(native.results[0].report.system, "native");
        assert_eq!(mr.results[0].report.system, "mapreduce");
    }

    #[test]
    fn grep_dispatches() {
        let r = run("micro/grep", SystemKind::Native, 100);
        assert_eq!(r.results[0].report.workload, "micro/grep");
    }

    #[test]
    fn relational_prescription_binds_to_sql_and_mapreduce() {
        let sql = run("relational/select-aggregate", SystemKind::Sql, 300);
        let mr = run("relational/select-aggregate", SystemKind::MapReduce, 300);
        assert_eq!(sql.results[0].report.system, "sql");
        assert_eq!(mr.results[0].report.system, "mapreduce");
        // Functional view: identical output row counts.
        assert_eq!(
            sql.results[0].detail("output_rows"),
            mr.results[0].detail("output_rows")
        );
    }

    #[test]
    fn verified_run_records_conformance() {
        let spec = BenchmarkSpec::new("test")
            .with_prescription("micro/wordcount")
            .with_system(SystemKind::Native)
            .with_scale(100)
            .with_seed(5)
            .with_verify(bdb_verify::VerifyMode::Strict);
        let r = Benchmark::new().run(&spec).unwrap();
        assert!(r.conformance.checks >= 1);
        assert!(r.conformance.all_passed());
        assert!(r.analysis.contains("Conformance"));
        assert!(r.trace.events().iter().any(|e| e.label() == "conformance_checked"));
    }

    #[test]
    fn unverified_run_stays_quiet() {
        let r = run("micro/wordcount", SystemKind::Native, 100);
        assert!(r.conformance.is_empty());
        assert!(!r.analysis.contains("Conformance"));
    }

    #[test]
    fn oltp_prescription_runs_on_kv() {
        let r = run("oltp/read-mostly", SystemKind::KeyValue, 300);
        assert_eq!(r.results[0].report.system, "kv");
        assert_eq!(r.results[0].category, WorkloadCategory::OnlineServices);
    }

    #[test]
    fn iterative_graph_prescription_runs_pagerank() {
        let r = run("search/pagerank", SystemKind::Native, 256);
        assert_eq!(r.results[0].report.workload, "search/pagerank");
        assert!(r.results[0].detail("iterations").unwrap() >= 1.0);
    }

    #[test]
    fn iterative_cc_prescription() {
        let r = run("social/connected-components", SystemKind::Native, 256);
        assert_eq!(r.results[0].report.workload, "social/connected-components");
    }

    #[test]
    fn iterative_table_prescription_runs_kmeans() {
        let r = run("social/kmeans", SystemKind::Native, 300);
        assert_eq!(r.results[0].report.workload, "social/kmeans");
    }

    #[test]
    fn velocity_controlled_generation_reports_rate() {
        // Streams do not shard; `--rate` still holds the data set until
        // its last event is due. A join's rate and error are over both of
        // its data sets.
        for (prescription, system, datasets) in [
            ("micro/wordcount", SystemKind::Native, 1),
            ("streaming/window-aggregation", SystemKind::Streaming, 1),
            ("relational/join", SystemKind::Sql, 2),
        ] {
            let spec = BenchmarkSpec::new("rate")
                .with_prescription(prescription)
                .with_system(system)
                .with_scale(200)
                .with_generator_workers(2)
                .with_target_rate(5_000.0)
                .with_seed(1);
            let r = Benchmark::new().run(&spec).unwrap();
            let g = r.generation.unwrap();
            assert_eq!(g.items, 200 * datasets, "{prescription}");
            let err = g.rate_error(5_000.0);
            assert!(err < 0.5, "{prescription}: rate error {err}");
            let line = format!("target 5000 items/s, error {err:.3}\n");
            assert!(r.analysis.contains(&line), "{prescription}: {}", r.analysis);
            // All requested items were generated.
            assert_eq!(r.data_summary.len() as u64, datasets, "{prescription}");
            assert!(r.data_summary.iter().all(|d| d.2 == 200), "{prescription}");
        }
    }

    #[test]
    fn parallel_generation_matches_sequential_output() {
        // The sharded parallel path must produce the same data the
        // sequential path produces — not just the same count.
        let base = BenchmarkSpec::new("par")
            .with_prescription("relational/select-aggregate")
            .with_system(SystemKind::Sql)
            .with_scale(400)
            .with_seed(9);
        let seq = Benchmark::new().run(&base.clone()).unwrap();
        let par = Benchmark::new()
            .run(&base.with_generator_workers(4))
            .unwrap();
        assert_eq!(seq.data_summary, par.data_summary);
        assert_eq!(
            seq.results[0].detail("output_rows"),
            par.results[0].detail("output_rows")
        );
        // And the parallel run reports its generation throughput.
        let g = par.generation.unwrap();
        assert_eq!(g.workers, 4);
        assert!(g.items_per_sec() > 0.0);
        assert!(g.bytes_per_sec() > 0.0);
        assert!(par.analysis.contains("generation:"));
    }

    #[test]
    fn generation_reports_the_workers_that_ran() {
        // A stream generator does not shard: asked for 2 workers, it runs
        // once on the calling thread, and the run says so.
        let spec = BenchmarkSpec::new("stream")
            .with_prescription("streaming/window-aggregation")
            .with_system(SystemKind::Streaming)
            .with_scale(500)
            .with_generator_workers(2);
        let r = Benchmark::new().run(&spec).unwrap();
        assert_eq!(r.generation.unwrap().workers, 1);
        assert!(r.analysis.contains("on 1 worker(s)"), "{}", r.analysis);
        let traced: Vec<usize> = r
            .trace
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::DatasetGenerated { workers, .. } => Some(*workers),
                _ => None,
            })
            .collect();
        assert_eq!(traced, vec![1]);
    }

    #[test]
    fn generator_workers_default_is_sequential() {
        let spec = BenchmarkSpec::new("seq").with_prescription("micro/wordcount").with_scale(150);
        let r = Benchmark::new().run(&spec).unwrap();
        assert_eq!(r.generation.unwrap().workers, 1);
        assert!(!r.analysis.contains("target"), "{}", r.analysis);
    }

    #[test]
    fn load_run_reports_every_selected_engine() {
        let profile = LoadProfile {
            clients: 2,
            inflight: 4,
            duration_ms: 10,
            engines: Some(vec!["native".into(), "kv".into()]),
            ..LoadProfile::default()
        };
        let spec = BenchmarkSpec::new("drive").with_seed(11).with_load(profile);
        let r = Benchmark::new().run_load(&spec).unwrap();
        let names: Vec<&str> = r.summary.reports.iter().map(|x| x.engine.as_str()).collect();
        assert_eq!(names, vec!["kv", "native"]);
        assert!(r.summary.total_completed() > 0);
        assert!(r.summary.all_conformant());
        assert!(r.conformance.all_passed());
        assert!(r.analysis.contains("drive: load"));
        assert!(r.analysis.contains("p99 us"));
        assert!(r.digest.starts_with("0x"));
        // Both engines drove the same deterministic schedule.
        assert_eq!(r.summary.reports[0].digest, r.summary.reports[1].digest);
        let events = r.trace.events();
        assert!(events.iter().any(|e| e.label() == "load_session_started"));
        assert!(events.iter().any(|e| e.label() == "load_session_finished"));
        assert!(events.iter().any(|e| e.label() == "conformance_checked"));
    }

    #[test]
    fn load_run_digest_is_client_count_invariant() {
        let base = LoadProfile {
            inflight: 4,
            duration_ms: 10,
            engines: Some(vec!["native".into()]),
            ..LoadProfile::default()
        };
        let one = BenchmarkSpec::new("c1")
            .with_seed(7)
            .with_load(LoadProfile { clients: 1, ..base.clone() });
        let eight = BenchmarkSpec::new("c8")
            .with_seed(7)
            .with_load(LoadProfile { clients: 8, ..base });
        let b = Benchmark::new();
        let r1 = b.run_load(&one).unwrap();
        let r8 = b.run_load(&eight).unwrap();
        assert_eq!(r1.digest, r8.digest);
        assert_eq!(
            r1.summary.reports[0].issued,
            r8.summary.reports[0].issued
        );
    }

    #[test]
    fn load_run_rejects_invalid_profile() {
        let spec = BenchmarkSpec::new("bad")
            .with_load(LoadProfile { clients: 0, ..LoadProfile::default() });
        assert!(Benchmark::new().run_load(&spec).is_err());
    }

    #[test]
    fn unknown_prescription_fails_in_planning() {
        let spec = BenchmarkSpec::new("x").with_prescription("nope/nothing");
        assert!(Benchmark::new().run(&spec).is_err());
    }
}
