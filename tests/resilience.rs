//! End-to-end tests for fault injection: an injected fault fails the
//! operation it hits, and the run with it, on the engine the request was
//! routed to; the same seed gives the same failure and the same trace; a
//! latency fault slows a run without changing its answers; and the
//! recovery trace/report contract.

use bdbench::core::layers::BenchmarkSpec;
use bdbench::core::pipeline::Benchmark;
use bdbench::exec::analyzer::RecoverySummary;
use bdbench::exec::engine::{EngineRegistry, ExecutionRequest, RoutingPolicy};
use bdbench::exec::fault::FaultInjector;
use bdbench::exec::trace::{RunTrace, TraceEvent};
use bdbench::exec::SystemConfig;
use bdbench::testgen::{PrescriptionRepository, SystemKind};
use std::collections::BTreeMap;

fn chaos_spec(faults: &str) -> BenchmarkSpec {
    BenchmarkSpec::new("chaos")
        .with_prescription("micro/wordcount")
        .with_system(SystemKind::Native)
        .with_scale(200)
        .with_seed(17)
        .with_faults(faults.parse().unwrap())
}

/// A run's recovery events, or its error as printed.
fn outcome(spec: &BenchmarkSpec) -> Result<Vec<TraceEvent>, String> {
    Benchmark::new()
        .run(spec)
        .map(|run| run.trace.events().into_iter().filter(|e| e.is_recovery()).collect())
        .map_err(|e| e.to_string())
}

#[test]
fn injected_engine_error_fails_the_run() {
    // The first execution draw fails; the run has no second one, and no
    // other engine runs the request.
    let err = Benchmark::new().run(&chaos_spec("error@exec:1:max=2")).unwrap_err();
    assert_eq!(
        err.to_string(),
        "execution error: injected engine fault at exec/native:micro/wordcount"
    );
}

#[test]
fn generator_worker_panic_fails_the_run_naming_the_dataset() {
    // A panic injected into data generation rides through a real pool
    // worker; the hardened pool converts it to a structured error that
    // names the data set, and the process does not abort.
    let err = Benchmark::new().run(&chaos_spec("panic@datagen:1:max=1")).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("worker panic"), "{msg}");
    assert!(msg.contains("injected worker panic at datagen/docs"), "{msg}");
}

#[test]
fn fault_and_recovery_sequence_is_deterministic() {
    // Same seed + same plan => the same error, or the same recovery event
    // sequence byte for byte.
    for plan in ["error@exec:1", "panic@datagen:1", "error@any:0.4,latency@exec:0.5:ms=1"] {
        let spec = chaos_spec(plan);
        assert_eq!(outcome(&spec), outcome(&spec), "{plan}");
    }
    assert!(outcome(&chaos_spec("error@exec:1")).is_err());

    // A different seed draws a different sequence (rates are not 0/1).
    let spec = chaos_spec("latency@any:0.5:ms=1");
    let a = outcome(&spec).unwrap();
    assert!(!a.is_empty(), "the plan should have injected something");
    assert_ne!(a, outcome(&spec.clone().with_seed(18)).unwrap(), "seed must steer the faults");
}

#[test]
fn a_failed_dispatch_traces_the_same_labels_on_rerun() {
    // The injected error pre-empts the engine, so the request needs no
    // data. The trace of the failed dispatch names the engine and the
    // fault, identically for the same seed.
    let repo = PrescriptionRepository::with_builtins();
    let prescription = repo.get("micro/sort").unwrap();
    let datasets = BTreeMap::new();
    let config = SystemConfig::default();
    let registry = EngineRegistry::with_builtins();
    let dispatch = || {
        let trace = RunTrace::new();
        let request = ExecutionRequest {
            prescription,
            system: SystemKind::Sql,
            seed: 42,
            scale: 20,
            datasets: &datasets,
            config: &config,
            trace: &trace,
            routing: RoutingPolicy::FirstCapable,
        };
        let injector = FaultInjector::new("error@exec:1".parse().unwrap(), 42);
        let err = registry.dispatch(&request, Some(&injector)).unwrap_err().to_string();
        (err, trace.events())
    };
    let (err, events) = dispatch();
    assert_eq!(err, "execution error: injected engine fault at exec/sql:micro/sort");
    let labels: Vec<&str> = events.iter().map(|e| e.label()).collect();
    assert_eq!(labels, vec!["engine_dispatched", "fault_injected"]);
    assert_eq!(dispatch(), (err, events));
}

#[test]
fn latency_faults_leave_results_unchanged() {
    let clean = BenchmarkSpec::new("clean")
        .with_prescription("micro/wordcount")
        .with_scale(200)
        .with_seed(17);
    let slow = clean.clone().with_faults("latency@any:1:ms=5".parse().unwrap());
    let digests = |spec: &BenchmarkSpec| -> Vec<Option<u64>> {
        let run = Benchmark::new().run(spec).unwrap();
        run.results.iter().map(|r| r.output.as_ref().map(|o| o.digest())).collect()
    };
    assert_eq!(digests(&slow), digests(&clean));
    let run = Benchmark::new().run(&slow).unwrap();
    let sites: Vec<&str> = run
        .trace
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::FaultInjected { site, kind, latency_ms } => {
                assert_eq!((kind.as_str(), *latency_ms), ("latency", 5));
                Some(if site.starts_with("datagen/") { "datagen" } else { "exec" })
            }
            _ => None,
        })
        .collect();
    assert_eq!(sites, vec!["datagen", "exec"]);
    assert!(run.analysis.contains("== Resilience =="), "{}", run.analysis);
}

#[test]
fn recovery_summary_matches_trace_counts() {
    let run = Benchmark::new().run(&chaos_spec("latency@exec:1:ms=3")).unwrap();
    let summary = RecoverySummary::from_events(&run.trace.events());
    assert_eq!(summary.faults_injected(), 1);
    assert_eq!(summary.added_latency_ms, 3);
    assert!(!summary.is_quiet());
    // One faulted site out of two resilient ops (1 datagen + 1 dispatch).
    assert_eq!(summary.total_ops, 2);
    assert!((summary.degraded_pct() - 0.5).abs() < 1e-9);
}

#[test]
fn clean_runs_stay_clean() {
    // No fault plan: no recovery events and no resilience section.
    let spec = BenchmarkSpec::new("clean")
        .with_prescription("micro/wordcount")
        .with_scale(200)
        .with_seed(17);
    let run = Benchmark::new().run(&spec).unwrap();
    assert!(run.trace.events().iter().all(|e| !e.is_recovery()));
    assert!(!run.analysis.contains("== Resilience =="));
}
