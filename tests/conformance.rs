//! Differential-conformance integration: the verification harness passes
//! on the honest builtin engines, flags a deliberately wrong engine
//! (mutation smoke), and catches tampered golden digests.

use bdbench::core::layers::BenchmarkSpec;
use bdbench::core::matrix::verify_matrix;
use bdbench::core::pipeline::Benchmark;
use bdbench::exec::engine::{
    Capabilities, Engine, EngineRegistry, ExecutionRequest, NativeEngine,
};
use bdbench::testgen::SystemKind;
use bdbench::verify::{GoldenRecord, GoldenStore, VerifyMode};
use bdbench::workloads::{OutputPayload, WorkloadResult};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bdb-conformance-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The whole routing matrix verifies clean in strict mode, and records
/// one golden per cell on the way through.
#[test]
fn matrix_sweep_is_conformant() {
    let goldens = tmp_dir("matrix");
    let report = verify_matrix(240, 7, VerifyMode::Strict, goldens.to_str()).unwrap();
    assert!(report.all_passed(), "divergent cells:\n{}", report.render());
    // Every builtin engine appears somewhere in the matrix.
    for engine in ["native", "sql", "kv", "streaming", "mapreduce"] {
        assert!(
            report.cells.iter().any(|c| c.engine == engine),
            "engine {engine} never swept"
        );
    }
    // Each cell ran an oracle check and recorded a golden.
    assert!(report.cells.iter().all(|c| c.checks == 2));
    let recorded = GoldenStore::at(&goldens).keys().len();
    assert_eq!(recorded, report.cells.len());
    // A second digest-mode sweep validates against the recorded goldens.
    let again = verify_matrix(240, 7, VerifyMode::Digest, goldens.to_str()).unwrap();
    assert!(again.all_passed(), "goldens unstable:\n{}", again.render());
    let _ = std::fs::remove_dir_all(&goldens);
}

/// An engine that executes correctly and then corrupts its payload —
/// the mutation the harness must flag.
struct LyingEngine;

impl Engine for LyingEngine {
    fn name(&self) -> &'static str {
        "lying"
    }

    fn capabilities(&self) -> Capabilities {
        NativeEngine.capabilities()
    }

    fn execute(&self, request: &ExecutionRequest<'_>) -> bdbench::common::Result<Vec<WorkloadResult>> {
        let mut results = NativeEngine.execute(request)?;
        for r in &mut results {
            match &mut r.output {
                Some(OutputPayload::RowSet(lines)) => {
                    if let Some(line) = lines.first_mut() {
                        line.push('9');
                    }
                }
                Some(OutputPayload::Ordered(items)) => {
                    items.pop();
                }
                Some(OutputPayload::Numeric(entries)) => {
                    if let Some((_, v)) = entries.first_mut() {
                        *v += 1.0;
                    }
                }
                None => {}
            }
        }
        Ok(results)
    }
}

#[test]
fn strict_verify_flags_a_broken_engine() {
    let goldens = tmp_dir("mutation");
    let mut bench = Benchmark::new();
    let mut registry = EngineRegistry::new();
    registry.register(Box::new(LyingEngine));
    bench.execution_layer_mut().engines = registry;
    let spec = BenchmarkSpec::new("mutation-smoke")
        .with_prescription("micro/wordcount")
        .with_system(SystemKind::Native)
        .with_scale(200)
        .with_seed(11)
        .with_verify(VerifyMode::Strict)
        .with_goldens_dir(goldens.to_str().unwrap());
    let run = bench.run(&spec).unwrap();
    assert!(run.conformance.checks > 0);
    assert!(!run.conformance.all_passed(), "mutated payload slipped past the oracle");
    assert!(run.analysis.contains("DIVERGED"));
    // Same spec on the honest engines passes — against a store the lying
    // engine has not poisoned.
    let _ = std::fs::remove_dir_all(&goldens);
    let honest = Benchmark::new().run(&spec).unwrap();
    assert!(honest.conformance.all_passed());
    assert!(honest.analysis.contains("CONFORMANT"));
    let _ = std::fs::remove_dir_all(&goldens);
}

#[test]
fn tampered_golden_digest_fails_digest_mode() {
    let goldens = tmp_dir("tamper");
    let spec = BenchmarkSpec::new("golden-gate")
        .with_prescription("micro/grep")
        .with_system(SystemKind::Native)
        .with_scale(150)
        .with_seed(3)
        .with_verify(VerifyMode::Digest)
        .with_goldens_dir(goldens.to_str().unwrap());
    // First run records the golden; a re-run against it passes.
    let first = Benchmark::new().run(&spec).unwrap();
    assert!(first.conformance.all_passed());
    let second = Benchmark::new().run(&spec).unwrap();
    assert!(second.conformance.all_passed());
    // Corrupt the stored digest: the gate must now fail.
    let store = GoldenStore::at(&goldens);
    let key = store.keys().pop().expect("one golden recorded");
    let mut record: GoldenRecord = store.load(&key).unwrap();
    record.digest = "deadbeefdeadbeef".to_string();
    store.store(&key, &record).unwrap();
    let tampered = Benchmark::new().run(&spec).unwrap();
    assert!(!tampered.conformance.all_passed(), "tampered golden not flagged");
    // Update mode rewrites the golden and heals the store.
    let healed = Benchmark::new()
        .run(&spec.clone().with_verify(VerifyMode::Update))
        .unwrap();
    assert!(healed.conformance.all_passed());
    let again = Benchmark::new().run(&spec).unwrap();
    assert!(again.conformance.all_passed());
    let _ = std::fs::remove_dir_all(&goldens);
}

/// Velocity control paces generation, it does not pick a different data
/// set: a rate-controlled 2-worker run verifies against the very goldens
/// the unthrottled sequential run recorded. The stream also runs at a
/// scale whose 1 s windows would show any drift in its event clock.
#[test]
fn rate_controlled_run_conforms_to_the_unthrottled_goldens() {
    let goldens = tmp_dir("rate");
    for (prescription, system, scale) in [
        ("relational/select-aggregate", SystemKind::Sql, 300),
        ("streaming/window-aggregation", SystemKind::Streaming, 300),
        ("streaming/window-aggregation", SystemKind::Streaming, 20_000),
    ] {
        let unthrottled = BenchmarkSpec::new("rate-gate")
            .with_prescription(prescription)
            .with_system(system)
            .with_scale(scale)
            .with_seed(42)
            .with_verify(VerifyMode::Digest)
            .with_goldens_dir(goldens.to_str().unwrap());
        // The plain run records the golden.
        let plain = Benchmark::new().run(&unthrottled).unwrap();
        assert!(plain.conformance.all_passed());
        let paced = Benchmark::new()
            .run(&unthrottled.with_generator_workers(2).with_target_rate(1_000_000.0))
            .unwrap();
        assert!(paced.generation_rate.unwrap().1.is_some(), "{prescription}: rate was controlled");
        assert_eq!(plain.data_summary, paced.data_summary, "{prescription}");
        assert!(
            paced.conformance.all_passed(),
            "{prescription}: --rate changed the data:\n{}",
            paced.analysis
        );
    }
    let _ = std::fs::remove_dir_all(&goldens);
}
