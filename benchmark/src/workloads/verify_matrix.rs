//! `verify_matrix`: the 33-cell strict conformance sweep CI runs.
//!
//! Tiny inputs (scale 300), so fixed costs dominate: registry builds,
//! thread spawns, golden reads and JSON parses, the oracle. The only
//! workload that touches the native, streaming and kv engines and the
//! verify crate. The sweep pins its own `MATRIX_THREADS`.

use super::fresh_dir;
use super::pipeline::{prepare, run_digest};
use crate::harness::{Ctx, Pass, Replays, Traced, Workload};
use crate::span::{self_ms_per_pass, total_ms_per_pass, Tracer};
use crate::stats::median;
use bdbench::common::BdbError;
use bdbench::core::matrix::MATRIX_THREADS;
use bdbench::core::{verify_matrix, Benchmark, BenchmarkSpec, MatrixReport};
use bdbench::exec::engine::{
    Engine, EngineRegistry, KvEngine, MapReduceEngine, NativeEngine, SqlEngine, StreamingEngine,
};
use bdbench::exec::trace::RunTrace;
use bdbench::exec::SystemConfig;
use bdbench::testgen::{PrescriptionRepository, SystemKind};
use bdbench::verify::{oracle_payload, GoldenStore, VerifyMode};
use std::path::Path;
use std::time::Instant;

/// Cells in the sweep: every builtin prescription on every capable engine.
const CELLS: usize = 33;
/// The scale the repo's goldens were recorded at.
const SCALE: u64 = 300;

/// The sweep workload.
#[derive(Default)]
pub struct VerifyMatrix {
    goldens: String,
    scale: u64,
}

/// `(span of one cell, metric summing a pass's cells)` per builtin engine,
/// in the sweep's registration order.
const ENGINE_SPANS: [(&str, &str); 5] = [
    ("exec.engine.native.cell", "exec.engine.native.cells_ms"),
    ("exec.engine.sql.cell", "exec.engine.sql.cells_ms"),
    ("exec.engine.kv.cell", "exec.engine.kv.cells_ms"),
    (
        "exec.engine.streaming.cell",
        "exec.engine.streaming.cells_ms",
    ),
    (
        "exec.engine.mapreduce.cell",
        "exec.engine.mapreduce.cells_ms",
    ),
];

/// Fresh instances of the five builtin engines, in [`ENGINE_SPANS`] order.
fn engines() -> [Box<dyn Engine>; 5] {
    [
        Box::new(NativeEngine),
        Box::new(SqlEngine),
        Box::new(KvEngine),
        Box::new(StreamingEngine),
        Box::new(MapReduceEngine),
    ]
}

/// One (prescription, engine) pair of the sweep.
struct Pair {
    engine: Box<dyn Engine>,
    /// Span name of the pair's run when it turns out to be a cell.
    span: &'static str,
    /// The spec `matrix.rs` builds for the pair.
    spec: BenchmarkSpec,
}

fn copy_goldens(from: &Path, to: &str) -> Result<(), String> {
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let target = Path::new(to).join(entry.file_name());
        std::fs::copy(entry.path(), &target)
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

impl VerifyMatrix {
    fn sweep(&self, ctx: &Ctx) -> Result<(MatrixReport, f64), String> {
        let t0 = Instant::now();
        let report = verify_matrix(
            self.scale,
            ctx.seed,
            VerifyMode::Strict,
            Some(&self.goldens),
        )
        .map_err(|e| e.to_string())?;
        let wall = t0.elapsed().as_secs_f64();
        if report.cells.len() != CELLS {
            return Err(format!(
                "the sweep has {} cells, expected {CELLS}",
                report.cells.len()
            ));
        }
        Ok((report, wall))
    }

    /// Every (prescription, engine) pair in the sweep's order:
    /// prescription-major, engines in registration order.
    fn pairs(&self, ctx: &Ctx) -> Vec<Pair> {
        let repository = PrescriptionRepository::with_builtins();
        let mut pairs = Vec::new();
        for name in repository.names() {
            for (engine, (span, _)) in engines().into_iter().zip(ENGINE_SPANS) {
                let system = engine
                    .capabilities()
                    .systems
                    .first()
                    .copied()
                    .unwrap_or(SystemKind::Native);
                let spec = BenchmarkSpec::new(&format!("verify/{name}/{}", engine.name()))
                    .with_prescription(name)
                    .with_system(system)
                    .with_scale(self.scale)
                    .with_seed(ctx.seed)
                    .with_verify(VerifyMode::Strict)
                    .with_goldens_dir(&self.goldens);
                pairs.push(Pair { engine, span, spec });
            }
        }
        pairs
    }

    /// The sweep as `matrix.rs` performs it, one `Benchmark::run` per pair
    /// on a single-engine registry. Returns the digest of every cell, in
    /// sweep order.
    fn replay(&self, t: &mut Tracer, ctx: &Ctx) -> Result<Vec<String>, String> {
        t.span("core.matrix.sweep", |t| {
            let mut digests = Vec::with_capacity(CELLS);
            for Pair { engine, span, spec } in self.pairs(ctx) {
                let mut bench = Benchmark::new();
                bench.execution_layer_mut().system_config =
                    SystemConfig::default().with_threads(MATRIX_THREADS);
                let mut registry = EngineRegistry::new();
                registry.register(engine);
                bench.execution_layer_mut().engines = registry;
                // Whether the pair is a cell is only known once its run
                // reaches dispatch, so the span is named after.
                match t.span("core.matrix.incapable_pair", |_| bench.run(&spec)) {
                    Ok(run) => {
                        t.rename_last(span);
                        digests.push(
                            run_digest(&run)
                                .map_or_else(|| "-".to_string(), |d| format!("{d:016x}")),
                        );
                    }
                    // Outside the matrix, not a failure; its cost is part
                    // of the sweep's overhead.
                    Err(BdbError::Execution(msg)) if msg.contains("no engine can execute") => {}
                    Err(e) => return Err(e.to_string()),
                }
            }
            Ok(digests)
        })
    }
}

impl Workload for VerifyMatrix {
    fn setup(&mut self, ctx: &Ctx) -> Result<(), String> {
        // Strict mode records a golden when one is missing (any seed but
        // the goldens' own 42), so the sweep gets a copy to write into.
        self.goldens = fresh_dir(&ctx.scratch.join("goldens-matrix"))?;
        copy_goldens(Path::new("goldens"), &self.goldens)?;
        self.scale = ctx.sized(SCALE, 100);
        let (report, _) = self.sweep(ctx)?;
        if !report.all_passed() {
            return Err(format!("warm-up sweep diverged:\n{}", report.render()));
        }
        Ok(())
    }

    fn pass(&mut self, ctx: &Ctx) -> Result<Pass, String> {
        let (report, wall_s) = self.sweep(ctx)?;
        for cell in report.failed_cells() {
            eprintln!("{}@{}: {:?}", cell.prescription, cell.engine, cell.failures);
        }
        Ok(Pass {
            wall_s,
            work: CELLS as u64,
            op_ns: vec![(wall_s * 1e9) as u64],
            attempted: CELLS as u64,
            failed: report.failed_cells().len() as u64,
        })
    }

    fn traced(&mut self, ctx: &Ctx) -> Result<Traced, String> {
        let mut out = Traced::default();
        let mut replays = Replays::default();
        let mut untraced_s = Vec::new();
        let mut passed = 0usize;
        let start = Instant::now();
        while replays.rounds() < 2 || !ctx.window_over(start, 0.7) {
            let (report, wall) = self.sweep(ctx)?;
            untraced_s.push(wall);
            passed = report.cells.iter().filter(|c| c.passed).count();
            replays.round(|t, _| {
                let t0 = Instant::now();
                let digests = self.replay(t, ctx)?;
                let wall_s = t0.elapsed().as_secs_f64();
                out.attempted += CELLS as u64;
                let differing = digests
                    .iter()
                    .zip(&report.cells)
                    .filter(|(mine, cell)| **mine != cell.digest)
                    .count();
                if differing > 0 || digests.len() != CELLS {
                    eprintln!("replayed cell digests differ from verify_matrix's");
                    out.failed += differing.max(1) as u64;
                }
                Ok(wall_s)
            })?;
        }
        ctx.report_within_15_percent(
            "replayed sweep against verify_matrix",
            median(replays.traced_s()),
            median(&untraced_s),
            "s",
        );
        out.put_one("benchmark.trace_overhead_ratio", replays.overhead_ratio());
        out.put_one("core.matrix.cells_passed", passed as f64);

        let spans = replays.spans();
        for (span, metric) in ENGINE_SPANS {
            out.put(metric, &total_ms_per_pass(spans, span));
        }
        // Overhead: the sweep's own time plus the incapable pairs, each of
        // which plans and generates data before dispatch turns it away.
        let overhead: Vec<f64> = self_ms_per_pass(spans, "core.matrix.sweep")
            .iter()
            .zip(total_ms_per_pass(spans, "core.matrix.incapable_pair"))
            .map(|(own, turned_away)| own + turned_away)
            .collect();
        out.put("core.matrix.sweep_overhead_ms", &overhead);

        self.probe_goldens_and_oracle(ctx, &mut out)?;
        out.spans = spans.to_vec();
        Ok(out)
    }
}

impl VerifyMatrix {
    /// What the sweep pays per cell outside the engines: reading its
    /// golden, and recomputing its payload on the reference oracle.
    fn probe_goldens_and_oracle(&self, ctx: &Ctx, out: &mut Traced) -> Result<(), String> {
        let store = GoldenStore::at(&self.goldens);
        let config = SystemConfig::default().with_threads(MATRIX_THREADS);
        let pairs = self.pairs(ctx);
        let mut load_us = Vec::new();
        let mut oracle_ms = 0.0;
        let mut cells = 0usize;
        for repeat in 0..5 {
            let mut total_us = 0.0;
            for Pair { engine, spec, .. } in &pairs {
                let key = GoldenStore::key(&spec.prescription, engine.name(), ctx.seed, self.scale);
                let t0 = Instant::now();
                let golden = store.load(&key);
                let us = t0.elapsed().as_nanos() as f64 / 1e3;
                // Only capable pairs have a golden: the warm-up sweep
                // recorded or read one for each of the 33 cells.
                if golden.is_none() {
                    continue;
                }
                total_us += us;
                if repeat == 0 {
                    cells += 1;
                    let prepared = prepare(&mut Tracer::noop(), spec).map_err(|e| e.to_string())?;
                    let trace = RunTrace::new();
                    let request = prepared.request(spec, &config, &trace);
                    let t0 = Instant::now();
                    oracle_payload(&request)
                        .map_err(|e| format!("oracle on {}: {e}", spec.prescription))?;
                    oracle_ms += t0.elapsed().as_secs_f64() * 1e3;
                }
            }
            load_us.push(total_us);
        }
        if cells != CELLS {
            return Err(format!(
                "{cells} goldens found for the sweep's pairs, expected {CELLS}"
            ));
        }
        out.put("verify.golden.load_us", &load_us);
        out.put_one("verify.oracle.cells_ms", oracle_ms);
        Ok(())
    }
}
