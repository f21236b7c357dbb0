//! Integration tests for the capability-routed engine registry: every
//! builtin prescription reaches a capable engine on every requested
//! system, incapable pairings fail with a candidate-listing error, and
//! the SQL and MapReduce engines stay functionally interchangeable.

use bdb_core::layers::BenchmarkSpec;
use bdb_core::pipeline::{Benchmark, BenchmarkRun};
use bdb_exec::engine::{
    EngineRegistry, ExecutionRequest, KvEngine, MapReduceEngine, NativeEngine, RoutingPolicy,
    SqlEngine,
};
use bdb_exec::trace::{RunTrace, TraceEvent};
use bdb_exec::SystemConfig;
use bdb_testgen::arrival::ArrivalSpec;
use bdb_testgen::ops::AggSpec;
use bdb_testgen::pattern::{InputRef, Step, WorkloadPattern};
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

/// A window aggregation over a *table* data set.
fn windowed_table() -> Prescription {
    Prescription {
        name: "custom/windowed-table".into(),
        description: "window aggregation over structured data".into(),
        data: vec![bdb_testgen::DataSpec {
            name: "orders".into(),
            generator: "table/retail-fitted".into(),
            items: 100,
        }],
        pattern: WorkloadPattern::Single {
            op: Operation::WindowAggregate { window_ms: 1_000, function: AggSpec::Sum },
            input: "orders".into(),
        },
        arrival: ArrivalSpec::Batch,
    }
}

fn run_custom(bench: &mut Benchmark, prescription: Prescription, system: SystemKind) -> String {
    let name = prescription.name.clone();
    bench.function_layer_mut().repository.register(prescription).unwrap();
    let spec = BenchmarkSpec::new("custom")
        .with_prescription(&name)
        .with_system(system)
        .with_scale(100);
    bench.run(&spec).unwrap_err().to_string()
}

#[test]
fn incapable_pairing_lists_candidate_engines() {
    // Routing reads the operation class only: a windowed aggregation goes
    // to the streaming engine, which names the data set it needs.
    let err = run_custom(&mut Benchmark::new(), windowed_table(), SystemKind::Streaming);
    assert!(err.contains("window aggregation needs a stream data set"), "{err}");

    // Without a streaming engine no registered engine has the class, and
    // the error names the system, the class and every candidate.
    let mut bench = Benchmark::new();
    let mut engines = EngineRegistry::new();
    engines.register(Box::new(NativeEngine));
    engines.register(Box::new(SqlEngine));
    engines.register(Box::new(KvEngine));
    engines.register(Box::new(MapReduceEngine));
    let candidates = engines.names();
    bench.execution_layer_mut().engines = engines;
    let err = run_custom(&mut bench, windowed_table(), SystemKind::Streaming);
    assert!(err.contains("no engine can execute"), "unexpected error: {err}");
    assert!(err.contains("system=streaming, class=windowed"), "{err}");
    for name in candidates {
        assert!(err.contains(name), "error does not list candidate {name}: {err}");
    }
}

#[test]
fn multi_step_behavioral_pattern_is_refused_by_name() {
    // Behavioral kernels run one operation; a two-step pattern fails on
    // the engine it was routed to instead of running its first step only.
    let step = |id, op| Step { id, op, inputs: vec![InputRef::Dataset("events".into())] };
    let two_step = Prescription {
        name: "custom/two-step-behavioral".into(),
        description: "sessionize, then retention".into(),
        data: vec![bdb_testgen::DataSpec {
            name: "events".into(),
            generator: "behavioral/events".into(),
            items: 100,
        }],
        pattern: WorkloadPattern::Multi {
            steps: vec![
                step(0, Operation::Sessionize { gap_ms: 10_000 }),
                step(1, Operation::Retention { period_ms: 5_000, periods: 8 }),
            ],
        },
        arrival: ArrivalSpec::Batch,
    };
    for system in [SystemKind::Streaming, SystemKind::MapReduce] {
        let err = run_custom(&mut Benchmark::new(), two_step.clone(), system);
        assert!(
            err.contains("custom/two-step-behavioral has a multi-operation pattern"),
            "{system}: {err}"
        );
        assert!(err.starts_with(&format!("execution error: {system} engine")), "{system}: {err}");
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
        .dispatch(&request, None).unwrap_err().to_string();
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
