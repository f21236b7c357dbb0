//! ABL2 — ablation: the same abstract test on two engine types.
//!
//! The paper's system view made measurable: one abstract
//! select→aggregate→join workload bound to the relational engine and to
//! the MapReduce engine, swept across input sizes. The functional view
//! requires identical answers; the system view shows who is faster and
//! whether a crossover exists.

use bdb_datagen::corpus::raw_retail_table;
use bdb_datagen::table::TableGenerator;
use bdb_exec::analyzer::find_crossover;
use bdb_exec::reporter::{fmt_num, TableReporter};
use bdb_testgen::bind::{MapReduceBinding, PatternExecutor, SqlBinding};
use bdb_testgen::ops::{AggSpec, CompareOp, Operation, PredicateSpec, ScalarSpec};
use bdb_testgen::pattern::{InputRef, Step, WorkloadPattern};
use std::collections::BTreeMap;
use std::time::Instant;

fn pattern() -> WorkloadPattern {
    WorkloadPattern::Multi {
        steps: vec![
            Step {
                id: 0,
                op: Operation::Select {
                    predicate: PredicateSpec {
                        column: "quantity".into(),
                        op: CompareOp::Ge,
                        value: ScalarSpec::Int(2),
                    },
                },
                inputs: vec![InputRef::Dataset("orders".into())],
            },
            Step {
                id: 1,
                op: Operation::Aggregate {
                    function: AggSpec::Sum,
                    column: Some("price".into()),
                    group_by: vec!["category".into()],
                },
                inputs: vec![InputRef::Step(0)],
            },
        ],
    }
}

fn datasets(rows: u64) -> BTreeMap<String, bdb_common::record::Table> {
    let gen = TableGenerator::fit("orders", &raw_retail_table()).expect("fits");
    let mut m = BTreeMap::new();
    m.insert("orders".to_string(), gen.generate_shard(1, 0, rows));
    m
}

/// Who won one `(rows, sql ms, mapreduce ms)` point (ties go to sql, as in
/// `find_crossover`), and by what factor.
fn faster(&(_, sql_ms, mr_ms): &(f64, f64, f64)) -> (&'static str, f64) {
    if sql_ms <= mr_ms {
        ("sql", mr_ms / sql_ms)
    } else {
        ("mapreduce", sql_ms / mr_ms)
    }
}

fn report() {
    bdb_bench::banner("ABL2", "same abstract test on SQL vs MapReduce, size sweep");
    let p = pattern();
    let mut table = TableReporter::new(
        "select -> group-sum, wall-clock (ms)",
        &["rows", "sql ms", "mapreduce ms", "faster", "identical output"],
    );
    let mut series = Vec::new();
    for rows in [500u64, 5_000, 50_000] {
        let ds = datasets(rows);
        let t0 = Instant::now();
        let sql = SqlBinding.execute(&p, &ds).expect("binds");
        let sql_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let mr = MapReduceBinding::default().execute(&p, &ds).expect("binds");
        let mr_ms = t0.elapsed().as_secs_f64() * 1e3;
        // Functional view: group keys and approximate sums agree.
        let (a, b) = (sql.sorted_rows(), mr.sorted_rows());
        assert_eq!(a.len(), b.len());
        let identical = a.iter().zip(&b).all(|(ra, rb)| {
            ra[0] == rb[0]
                && (ra[1].as_f64().unwrap() - rb[1].as_f64().unwrap()).abs() < 1e-6
        });
        let point = (rows as f64, sql_ms, mr_ms);
        series.push(point);
        table.add_row(&[
            rows.to_string(),
            fmt_num(sql_ms),
            fmt_num(mr_ms),
            faster(&point).0.into(),
            identical.to_string(),
        ]);
    }
    println!("{}", table.to_text());
    println!("Shape: identical outputs at every size (functional view).");
    // The system view is whatever the sweep measured, not a fixed claim.
    let (small, large) = (faster(&series[0]), faster(&series[series.len() - 1]));
    match find_crossover(&series) {
        Some(x) => println!(
            "System view: {} wins the small inputs and {} overtakes it by ~{x} rows\n\
             (the DBMS-vs-MapReduce crossover the Pavlo benchmark made famous).",
            small.0, large.0
        ),
        None => println!(
            "System view: no crossover in range; {} is faster at every size\n\
             ({:.1}x at {} rows, {:.1}x at {} rows).",
            small.0, small.1, series[0].0, large.1, series[series.len() - 1].0
        ),
    }
}

fn main() {
    report();
}
