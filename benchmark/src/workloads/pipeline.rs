//! The five steps of `Benchmark::run`, performed by the benchmark itself
//! so each layer's public call can sit inside a span.
//!
//! The replay makes the same calls in the same order as
//! `core::pipeline::Benchmark::run` does for a spec without faults, rate
//! control or verification: repository lookup, one `generate` per data
//! spec, `materialize`, `route`, `Engine::execute`, the analyzer's
//! summaries. It is kept honest by two checks in the workloads that use
//! it: same output digest as `Benchmark::run`, and top-level spans
//! reported against the untraced pass (marked when over 15 % apart).

use crate::span::Tracer;
use bdbench::common::{BdbError, Result};
use bdbench::core::{BenchmarkRun, BenchmarkSpec, GeneratorRegistry};
use bdbench::datagen::volume::VolumeSpec;
use bdbench::datagen::Dataset;
use bdbench::exec::analyzer::{ConformanceSummary, HealthSummary, RecoverySummary, RoutingSummary};
use bdbench::exec::engine::{Engine, EngineRegistry, ExecutionRequest};
use bdbench::exec::trace::{RunTrace, TraceEvent};
use bdbench::exec::SystemConfig;
use bdbench::testgen::{PrescribedTest, PrescriptionRepository, TestGenerator};
use bdbench::workloads::WorkloadResult;
use std::collections::BTreeMap;

/// Everything steps 1–3 produce: what an [`ExecutionRequest`] borrows.
pub struct Prepared {
    /// The prescribed test (step 3).
    pub test: PrescribedTest,
    /// The generated inputs (step 2), by data-spec name.
    pub datasets: BTreeMap<String, Dataset>,
    /// Data volume of the run.
    pub scale: u64,
}

impl Prepared {
    /// The request the pipeline would build for this run.
    pub fn request<'a>(
        &'a self,
        spec: &BenchmarkSpec,
        config: &'a SystemConfig,
        trace: &'a RunTrace,
    ) -> ExecutionRequest<'a> {
        ExecutionRequest {
            prescription: &self.test.prescription,
            system: spec.system,
            seed: spec.seed,
            scale: self.scale,
            datasets: &self.datasets,
            config,
            trace,
            routing: spec.routing,
        }
    }
}

/// Steps 1–3 under spans: planning, data generation, test generation.
///
/// # Errors
/// Fails as the pipeline does: unknown prescription or generator, or a
/// generator error.
pub fn prepare(t: &mut Tracer, spec: &BenchmarkSpec) -> Result<Prepared> {
    let prescription = t.span("testgen.repository.get", |_| {
        let repository = PrescriptionRepository::with_builtins();
        let p = repository.get(&spec.prescription)?.clone();
        p.validate()?;
        Ok::<_, BdbError>(p)
    })?;
    let generators = GeneratorRegistry::with_builtins();
    let mut datasets = BTreeMap::new();
    for (i, data) in prescription.data.iter().enumerate() {
        let items = spec.scale.unwrap_or(data.items);
        let dataset = t.span("datagen.generate", |_| {
            generators
                .build(&data.generator)?
                .generate(spec.seed.wrapping_add(i as u64), &VolumeSpec::Items(items))
        })?;
        datasets.insert(data.name.clone(), dataset);
    }
    let test = t.span("testgen.generator.materialize", |_| {
        TestGenerator::materialize(prescription, spec.system, spec.seed)
    })?;
    let scale = spec
        .scale
        .unwrap_or_else(|| test.prescription.data.first().map_or(1000, |d| d.items));
    Ok(Prepared {
        test,
        datasets,
        scale,
    })
}

/// What one replayed run produced.
pub struct Replayed {
    /// Steps 1–3.
    pub prepared: Prepared,
    /// Step 4's results.
    pub results: Vec<WorkloadResult>,
    /// The events the engine recorded while executing.
    pub events: Vec<TraceEvent>,
}

impl Replayed {
    /// Σ `OperationExecuted.micros`: the time the engine attributes to
    /// its operators; the rest of `execute` is glue.
    pub fn operator_micros(&self) -> u64 {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::OperationExecuted { micros, .. } => Some(*micros),
                _ => None,
            })
            .sum()
    }
}

/// Digest of a run's first output payload, as the matrix reports it.
pub fn output_digest(results: &[WorkloadResult]) -> Option<u64> {
    results
        .iter()
        .find_map(|r| r.output.as_ref())
        .map(bdbench::workloads::OutputPayload::digest)
}

/// [`output_digest`] of a pipeline run.
pub fn run_digest(run: &BenchmarkRun) -> Option<u64> {
    output_digest(&run.results)
}

/// All five steps under one `core.pipeline.run` span, on `engines`.
///
/// # Errors
/// Fails as the pipeline does, including "no engine can execute".
pub fn replay(
    t: &mut Tracer,
    spec: &BenchmarkSpec,
    config: &SystemConfig,
    engines: &EngineRegistry,
) -> Result<Replayed> {
    t.span("core.pipeline.run", |t| {
        let prepared = prepare(t, spec)?;
        let (results, events) = {
            let trace = RunTrace::new();
            let request = prepared.request(spec, config, &trace);
            let engine: &dyn Engine = t.span("exec.planner.route", |_| engines.route(&request))?.0;
            let results = t.span("exec.engine.execute", |_| engine.execute(&request))?;
            let events = t.span("exec.analyzer.summaries", |_| {
                let events = trace.events();
                std::hint::black_box((
                    ConformanceSummary::from_events(&events),
                    RecoverySummary::from_events(&events),
                    RoutingSummary::from_events(&events),
                    HealthSummary::from_events(&events),
                ));
                events
            });
            (results, events)
        };
        Ok(Replayed {
            prepared,
            results,
            events,
        })
    })
}
