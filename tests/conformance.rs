//! Differential-conformance integration: the verification harness passes
//! on the honest builtin engines, flags a deliberately wrong engine
//! (mutation smoke), and catches tampered golden digests.

use bdbench::common::BdbError;
use bdbench::core::layers::BenchmarkSpec;
use bdbench::core::matrix::verify_matrix;
use bdbench::core::pipeline::Benchmark;
use bdbench::exec::engine::{
    Capabilities, Engine, EngineRegistry, ExecutionRequest, NativeEngine,
};
use bdbench::exec::trace::TraceEvent;
use bdbench::exec::SystemConfig;
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

/// A golden store exists only where the spec points. The working
/// directory of this test holds the committed `goldens/`, with a golden
/// for this very cell; a strict run that names no store checks against
/// the reference oracle alone and reads and writes no golden. The tiers
/// that need a store are refused by name.
#[test]
fn strict_run_without_goldens_checks_only_the_oracle() {
    let spec = BenchmarkSpec::new("no-store")
        .with_prescription("micro/wordcount")
        .with_system(SystemKind::Native)
        .with_scale(300)
        .with_seed(42);
    let strict = Benchmark::new().run(&spec.clone().with_verify(VerifyMode::Strict)).unwrap();
    let checks: Vec<String> = strict
        .trace
        .events()
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::ConformanceChecked { check, passed, .. } => {
                assert!(passed, "{check} failed");
                Some(check)
            }
            _ => None,
        })
        .collect();
    assert_eq!(checks, vec!["oracle"]);
    for mode in [VerifyMode::Digest, VerifyMode::Update] {
        let err = Benchmark::new().run(&spec.clone().with_verify(mode)).unwrap_err();
        assert!(matches!(err, BdbError::InvalidConfig(_)), "{mode}: {err}");
        assert!(err.to_string().contains(&format!("verify mode {mode} needs a golden store")), "{err}");
    }
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
        assert!(
            paced.analysis.contains("target 1000000 items/s"),
            "{prescription}: rate was controlled:\n{}",
            paced.analysis
        );
        assert_eq!(plain.data_summary, paced.data_summary, "{prescription}");
        assert!(
            paced.conformance.all_passed(),
            "{prescription}: --rate changed the data:\n{}",
            paced.analysis
        );
    }
    let _ = std::fs::remove_dir_all(&goldens);
}

/// The engine thread count tunes how a stack runs a test, not what the
/// test computes: every committed golden cell reproduces its digest at
/// any `SystemConfig.threads`, and no run records a golden of its own.
#[test]
fn every_golden_reproduces_at_any_thread_count() {
    use SystemKind::{KeyValue, MapReduce, Native, Sql, Streaming};
    let records_of = |store: &GoldenStore| -> Vec<(String, GoldenRecord)> {
        store.keys().into_iter().map(|key| (key.clone(), store.load(&key).unwrap())).collect()
    };
    let records = records_of(&GoldenStore::at(concat!(env!("CARGO_MANIFEST_DIR"), "/goldens")));
    assert_eq!(records.len(), 33);
    let goldens = tmp_dir("threads");
    let store = GoldenStore::at(&goldens);
    for (key, record) in &records {
        store.store(key, record).unwrap();
    }
    for threads in [1, 2, 3, 8] {
        for (_, golden) in &records {
            let system = [Native, Sql, KeyValue, Streaming, MapReduce]
                .into_iter()
                .find(|s| s.to_string() == golden.engine)
                .unwrap();
            let mut bench = Benchmark::new();
            bench.execution_layer_mut().system_config = SystemConfig::default().with_threads(threads);
            let spec = BenchmarkSpec::new("thread-count")
                .with_prescription(&golden.prescription)
                .with_system(system)
                .with_scale(golden.scale)
                .with_seed(golden.seed)
                .with_verify(VerifyMode::Digest)
                .with_goldens_dir(goldens.to_str().unwrap());
            let run = bench.run(&spec).unwrap();
            let cell = format!("{}@{} at {threads} thread(s)", golden.prescription, golden.engine);
            assert!(run.conformance.all_passed(), "{cell}:\n{}", run.analysis);
        }
    }
    assert!(records_of(&store) == records, "a run rewrote or added a golden");
    let _ = std::fs::remove_dir_all(&goldens);
}
