//! End-to-end tests of the Figure 1 pipeline over the Figure 2 layers.

use bdbench::prelude::*;
use bdbench::testgen::repository::builtin_prescriptions;

fn run(prescription: &str, system: SystemKind, scale: u64) -> BenchmarkRun {
    let spec = BenchmarkSpec::new("e2e")
        .with_prescription(prescription)
        .with_system(system)
        .with_scale(scale)
        .with_seed(0xE2E);
    Benchmark::new().run(&spec).expect("pipeline runs")
}

#[test]
fn every_builtin_prescription_executes_on_its_natural_system() {
    // FIG1/FIG4: each repository prescription materialises and runs.
    for p in builtin_prescriptions() {
        let system = if p.name.starts_with("oltp/") {
            SystemKind::KeyValue
        } else if p.name.starts_with("relational/") || p.name.starts_with("ecommerce/") {
            SystemKind::Sql
        } else {
            SystemKind::Native
        };
        let run = run(&p.name, system, 300);
        assert!(
            !run.results.is_empty(),
            "{} produced no results",
            p.name
        );
        assert_eq!(run.phases.len(), 5, "{} missed a phase", p.name);
    }
}

#[test]
fn every_result_is_named_timed_and_filed_by_its_engine() {
    // A result has one maker: whatever kernel ran, the result carries the
    // prescription's name, the engine that ran it, and the Table 2
    // category of the prescription's class; a kernel's duration, and the
    // kv element mix's, is the span its one trace event reports.
    use bdbench::exec::engine::{EngineRegistry, WorkloadClass};
    use bdbench::exec::trace::TraceEvent;
    use WorkloadCategory::{OfflineAnalytics, OnlineServices, RealTimeAnalytics};
    let engines = EngineRegistry::with_builtins();
    let mut runs = 0;
    for p in builtin_prescriptions() {
        let class = WorkloadClass::of(&p);
        let category = match class {
            WorkloadClass::Text | WorkloadClass::Iterative => OfflineAnalytics,
            WorkloadClass::Relational | WorkloadClass::Windowed | WorkloadClass::Behavioral => {
                RealTimeAnalytics
            }
            WorkloadClass::Element => OnlineServices,
        };
        let one_span = class != WorkloadClass::Relational;
        for engine in engines.engines().filter(|e| e.capabilities().supports(class)) {
            let run = run(&p.name, engine.capabilities().systems[0], 200);
            let cell = format!("{} on {}", p.name, engine.name());
            let [r] = run.results.as_slice() else { panic!("{cell}: one result") };
            assert_eq!(r.report.workload, p.name, "{cell}");
            assert_eq!(r.report.system, engine.name(), "{cell}");
            assert_eq!(r.category, category, "{cell}");
            if one_span {
                let spans: Vec<u64> = run
                    .trace
                    .events()
                    .into_iter()
                    .filter_map(|e| match e {
                        TraceEvent::OperationExecuted { micros, .. } => Some(micros),
                        _ => None,
                    })
                    .collect();
                let [micros] = spans.as_slice() else { panic!("{cell}: one span, got {spans:?}") };
                let secs = r.report.user.duration_secs;
                let gap = (secs * 1e6 - *micros as f64).abs();
                assert!(gap <= 1.0, "{cell}: {secs} s vs {micros} us");
            }
            runs += 1;
        }
    }
    assert!(runs > builtin_prescriptions().len(), "{runs} runs");
}

#[test]
fn layers_compose_a_custom_generator_and_prescription() {
    // FIG2: register a custom generator + prescription through the
    // function layer and run it.
    use bdbench::datagen::text::NaiveTextGenerator;
    use bdbench::testgen::ops::Operation;
    use bdbench::testgen::pattern::WorkloadPattern;
    use bdbench::testgen::prescription::DataSpec;

    let mut bench = Benchmark::new();
    bench
        .function_layer_mut()
        .generators
        .register("text/custom", || {
            Ok(Box::new(NaiveTextGenerator::from_corpus(&[
                "custom corpus about benchmarks and data",
            ])))
        });
    bench
        .function_layer_mut()
        .repository
        .register(Prescription {
            name: "custom/wc".into(),
            description: "custom wordcount".into(),
            data: vec![DataSpec {
                name: "docs".into(),
                generator: "text/custom".into(),
                items: 100,
            }],
            pattern: WorkloadPattern::Single {
                op: Operation::WordCount,
                input: "docs".into(),
            },
            arrival: bdbench::testgen::arrival::ArrivalSpec::Batch,
        })
        .unwrap();
    let spec = BenchmarkSpec::new("custom").with_prescription("custom/wc").with_scale(50);
    let run = bench.run(&spec).unwrap();
    assert_eq!(run.data_summary[0].2, 50);
    assert_eq!(run.results[0].report.workload, "custom/wc");
}

#[test]
fn functional_view_same_abstract_test_identical_results() {
    // The paper's functional view: a DBMS and a MapReduce system produce
    // the same answer for the same abstract test.
    for p in ["relational/select-aggregate", "relational/join", "ecommerce/naive-bayes"] {
        let sql = run(p, SystemKind::Sql, 400);
        let mr = run(p, SystemKind::MapReduce, 400);
        assert_eq!(
            sql.results[0].detail("output_rows"),
            mr.results[0].detail("output_rows"),
            "functional view violated for {p}"
        );
    }
}

#[test]
fn volume_scaling_changes_generated_size_not_shape() {
    let small = run("micro/wordcount", SystemKind::Native, 100);
    let large = run("micro/wordcount", SystemKind::Native, 800);
    assert_eq!(small.data_summary[0].2, 100);
    assert_eq!(large.data_summary[0].2, 800);
    // Bytes grow roughly with items (same generator, same doc-length law).
    let ratio = large.data_summary[0].3 as f64 / small.data_summary[0].3.max(1) as f64;
    assert!((4.0..16.0).contains(&ratio), "byte ratio {ratio}");
}

#[test]
fn velocity_layer_reports_rate_for_parallel_generation() {
    let spec = BenchmarkSpec::new("vel")
        .with_prescription("micro/grep")
        .with_scale(400)
        .with_generator_workers(4)
        .with_seed(3);
    let r = Benchmark::new().run(&spec).unwrap();
    let g = r.generation.expect("parallel run measures rate");
    assert!(g.items_per_sec() > 0.0);
    assert_eq!(g.workers, 4);
    assert_eq!(r.data_summary[0].2, 400);
}

#[test]
fn streaming_prescription_runs_the_window_workload() {
    // The fourth data source (stream) flows through the same pipeline.
    let r = run("streaming/window-aggregation", SystemKind::Streaming, 5_000);
    assert_eq!(r.results[0].report.workload, "streaming/window-aggregation");
    assert_eq!(r.data_summary[0].1, "stream");
    assert!(r.results[0].detail("windows").unwrap() >= 1.0);
}

#[test]
fn parallel_generation_of_table_data_merges_correctly() {
    // Two workers generate a table prescription in chunks; the merged
    // dataset must hold exactly the requested rows and bind identically.
    let spec = BenchmarkSpec::new("par-table")
        .with_prescription("relational/select-aggregate")
        .with_system(SystemKind::Sql)
        .with_scale(600)
        .with_generator_workers(2)
        .with_seed(11);
    let run = Benchmark::new().run(&spec).unwrap();
    assert_eq!(run.data_summary[0].2, 600);
    assert!(run.results[0].detail("output_rows").unwrap() >= 1.0);
}

#[test]
fn analysis_text_contains_all_sections() {
    let r = run("relational/select-aggregate", SystemKind::Sql, 200);
    assert!(r.analysis.contains("generated data"));
    assert!(r.analysis.contains("results"));
    assert!(r.analysis.contains("relational/select-aggregate"));
}
