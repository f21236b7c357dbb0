//! Integration tests for the capability-routed engine registry: every
//! builtin prescription reaches a capable engine on every requested
//! system, incapable pairings fail with a candidate-listing error, and
//! the SQL and MapReduce engines stay functionally interchangeable.

use bdb_core::layers::BenchmarkSpec;
use bdb_core::pipeline::{Benchmark, BenchmarkRun};
use bdb_exec::engine::{EngineRegistry, ExecutionRequest, RoutingPolicy};
use bdb_exec::fault::Resilience;
use bdb_exec::trace::{RunTrace, TraceEvent};
use bdb_exec::SystemConfig;
use bdb_testgen::arrival::ArrivalSpec;
use bdb_testgen::ops::AggSpec;
use bdb_testgen::pattern::WorkloadPattern;
use bdb_testgen::{Operation, Prescription, SystemKind};
use std::collections::BTreeMap;

const ALL_SYSTEMS: [SystemKind; 5] = [
    SystemKind::Native,
    SystemKind::MapReduce,
    SystemKind::Sql,
    SystemKind::KeyValue,
    SystemKind::Streaming,
];

fn run(prescription: &str, system: SystemKind) -> BenchmarkRun {
    let spec = BenchmarkSpec::new("routing")
        .with_prescription(prescription)
        .with_system(system)
        .with_scale(300)
        .with_seed(11);
    Benchmark::new()
        .run(&spec)
        .unwrap_or_else(|e| panic!("{prescription} on {system}: {e}"))
}

fn dispatched_engine(run: &BenchmarkRun) -> (String, bool) {
    let dispatches: Vec<(String, bool)> = run
        .trace
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::EngineDispatched { engine, explicit, .. } => {
                Some((engine.clone(), *explicit))
            }
            _ => None,
        })
        .collect();
    assert_eq!(dispatches.len(), 1, "expected exactly one dispatch decision");
    dispatches.into_iter().next().unwrap()
}

/// The engine each builtin prescription must land on per requested
/// system. This is the old hard-coded dispatch chain's behavior, now an
/// observable routing contract.
fn expected_engine(prescription: &str, system: SystemKind) -> &'static str {
    let domain = prescription.split('/').next().unwrap();
    match prescription {
        // Text kernels: native unless MapReduce is requested.
        "micro/wordcount" | "micro/grep" | "search/index" => match system {
            SystemKind::MapReduce => "mapreduce",
            _ => "native",
        },
        // Iterative kernels: same pairing, on graphs and tables.
        "search/pagerank" | "social/connected-components" | "social/kmeans" => match system {
            SystemKind::MapReduce => "mapreduce",
            _ => "native",
        },
        // Windowed streams only run on the streaming engine.
        "streaming/window-aggregation" => "streaming",
        _ => match domain {
            // Behavioral-analytics streams: streaming unless MapReduce is
            // explicitly requested (both engines implement the class).
            "behavioral" => match system {
                SystemKind::MapReduce => "mapreduce",
                _ => "streaming",
            },
            // Element-operation mixes only run on the KV store.
            "oltp" => "kv",
            // Relational patterns bind to SQL unless MapReduce is requested.
            _ => match system {
                SystemKind::MapReduce => "mapreduce",
                _ => "sql",
            },
        },
    }
}

#[test]
fn every_builtin_prescription_routes_on_every_system() {
    let repo = bdb_testgen::PrescriptionRepository::with_builtins();
    for name in repo.names() {
        for system in ALL_SYSTEMS {
            let r = run(name, system);
            assert!(!r.results.is_empty(), "{name} on {system}: no results");
            let (engine, explicit) = dispatched_engine(&r);
            assert_eq!(
                engine,
                expected_engine(name, system),
                "{name} on {system} routed to the wrong engine"
            );
            // An explicit route means the engine implements the requested
            // system; the report should agree with the routing decision.
            if explicit {
                assert_eq!(
                    r.results[0].report.system, engine,
                    "{name} on {system}: report disagrees with routing"
                );
            }
        }
    }
}

#[test]
fn incapable_pairing_lists_candidate_engines() {
    // A windowed aggregation over a *table* data set: the streaming
    // engine is the only one that understands windows but it only
    // consumes streams, so no registered engine is capable.
    let prescription = Prescription {
        name: "custom/windowed-table".into(),
        description: "window aggregation over structured data".into(),
        data: vec![bdb_testgen::DataSpec {
            name: "orders".into(),
            source: "table".into(),
            generator: "table/retail-fitted".into(),
            items: 100,
        }],
        pattern: WorkloadPattern::Single {
            op: Operation::WindowAggregate { window_ms: 1_000, function: AggSpec::Sum },
            input: "orders".into(),
        },
        arrival: ArrivalSpec::Batch,
    };
    prescription.validate().unwrap();

    let mut bench = Benchmark::new();
    bench.function_layer_mut().repository.register(prescription).unwrap();
    let spec = BenchmarkSpec::new("impossible")
        .with_prescription("custom/windowed-table")
        .with_system(SystemKind::Streaming)
        .with_scale(100);
    let err = bench.run(&spec).unwrap_err().to_string();
    assert!(err.contains("no engine"), "unexpected error: {err}");
    for name in EngineRegistry::with_builtins().names() {
        assert!(err.contains(name), "error does not list candidate {name}: {err}");
    }
}

#[test]
fn empty_registry_reports_the_absence_of_candidates() {
    let trace = RunTrace::new();
    let datasets = BTreeMap::new();
    let config = SystemConfig::default();
    let prescription = Prescription {
        name: "micro/count".into(),
        description: "count".into(),
        data: vec![],
        pattern: WorkloadPattern::Single {
            op: Operation::Count,
            input: "t".into(),
        },
        arrival: ArrivalSpec::Batch,
    };
    let request = ExecutionRequest {
        prescription: &prescription,
        system: SystemKind::Sql,
        seed: 1,
        scale: 10,
        datasets: &datasets,
        config: &config,
        trace: &trace,
        routing: RoutingPolicy::FirstCapable,
    };
    let err = EngineRegistry::new()
        .dispatch_resilient(&request, &Resilience::passive(0)).unwrap_err().to_string();
    assert!(err.contains("no engine"), "unexpected error: {err}");
}

#[test]
fn sql_and_mapreduce_agree_on_relational_output() {
    // The functional contract behind Table 2's cross-engine rows: the
    // same prescription executed by the SQL and MapReduce engines must
    // produce the same multiset of rows, observable through the one
    // order-insensitive digest of the payload each engine attaches.
    for name in ["micro/sort", "relational/select-aggregate", "relational/join",
                 "ecommerce/collaborative-filtering", "ecommerce/naive-bayes"] {
        let sql = run(name, SystemKind::Sql);
        let mr = run(name, SystemKind::MapReduce);
        assert_eq!(sql.results[0].report.system, "sql");
        assert_eq!(mr.results[0].report.system, "mapreduce");
        assert_eq!(
            sql.results[0].detail("output_rows"),
            mr.results[0].detail("output_rows"),
            "{name}: row counts diverge"
        );
        let digest = |r: &BenchmarkRun| r.results[0].output.as_ref().map(|p| p.digest());
        assert_eq!(digest(&sql), digest(&mr), "{name}: output rows diverge");
        assert!(digest(&sql).is_some());
    }
}

#[test]
fn run_trace_spans_the_five_figure1_phases() {
    let r = run("relational/join", SystemKind::Sql);
    assert!(!r.trace.is_empty());
    assert_eq!(
        r.trace.phases_finished(),
        vec!["analysis", "data generation", "execution", "planning", "test generation"]
    );
    // Phase spans nest correctly: every started phase also finished.
    let events = r.trace.events();
    let started = events.iter().filter(|e| e.label() == "phase_started").count();
    let finished = events.iter().filter(|e| e.label() == "phase_finished").count();
    assert_eq!(started, 5);
    assert_eq!(finished, 5);
    // The DAG engines record one operation event per executed step.
    assert!(events.iter().any(|e| matches!(
        e,
        TraceEvent::OperationExecuted { engine, .. } if engine == "sql"
    )));
}

#[test]
fn explicit_workers_override_system_config() {
    // The spec's worker knob (--workers) is the only one: the execution
    // layer's thread count sizes the engines, never data generation.
    let mut b = Benchmark::new();
    b.execution_layer_mut().system_config =
        b.execution_layer_mut().system_config.clone().with_threads(4);
    let spec = BenchmarkSpec::new("cfg").with_prescription("micro/wordcount").with_scale(150);
    let r = b.run(&spec).unwrap();
    assert_eq!(r.generation.unwrap().workers, 1);

    let r = b.run(&spec.with_generator_workers(3).with_seed(3)).unwrap();
    assert_eq!(r.generation.unwrap().workers, 3);
}
