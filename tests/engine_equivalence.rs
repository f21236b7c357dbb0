//! Property tests: the same abstract test on different engines yields the
//! same answer (the paper's functional view), the reference oracle agrees
//! with them, and engine kernels agree with straightforward reference
//! implementations.

use bdbench::common::record::{Table, CELL_SEP};
use bdbench::common::value::{DataType, Field, Schema, Value};
use bdbench::datagen::Dataset;
use bdbench::exec::engine::{Engine, ExecutionRequest, SqlEngine};
use bdbench::exec::{RoutingPolicy, RunTrace, SystemConfig};
use bdbench::mapreduce::JobConfig;
use bdbench::testgen::arrival::ArrivalSpec;
use bdbench::testgen::bind::{BoundExecution, MapReduceBinding, PatternExecutor, SqlBinding};
use bdbench::testgen::ops::{AggSpec, CompareOp, Operation, PredicateSpec, ScalarSpec};
use bdbench::testgen::pattern::{InputRef, Step, WorkloadPattern};
use bdbench::testgen::{Prescription, SystemKind};
use bdbench::verify::oracle::oracle_payload;
use bdbench::workloads::OutputPayload;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A row of the test table: key, group, value, text. All but the value
/// may be NULL (see `arb_op` for why the value may not).
type Row = (Option<i64>, Option<i64>, f64, Option<&'static str>);

/// `rows` as the table `(k, g, v, t)`, the key column typed `key_type`
/// (an Int key and the Float of the same value are one key to every engine;
/// a Float zero key is `-0.0`, whose text differs from the Int `0` it equals).
fn table_of(rows: &[Row], key_type: DataType) -> Table {
    let schema = Schema::new(vec![
        Field::nullable("k", key_type),
        Field::nullable("g", DataType::Int),
        Field::new("v", DataType::Float),
        Field::nullable("t", DataType::Text),
    ]);
    let mut t = Table::new(schema);
    for &(k, g, v, text) in rows {
        let key = match key_type {
            DataType::Float => k.map(|k| Value::Float(if k == 0 { -0.0 } else { k as f64 })),
            _ => k.map(Value::Int),
        };
        t.push(vec![
            key.unwrap_or(Value::Null),
            g.map_or(Value::Null, Value::Int),
            Value::Float(v),
            text.map_or(Value::Null, Value::from),
        ])
        .unwrap();
    }
    t
}

fn table_from_rows(rows: &[Row]) -> Table {
    table_of(rows, DataType::Int)
}

/// One time in eight NULL, otherwise a draw from `values`.
fn nullable<T: std::fmt::Debug>(
    values: impl Strategy<Value = T>,
) -> impl Strategy<Value = Option<T>> {
    (0u8..8, values).prop_map(|(null, v)| (null != 0).then_some(v))
}

fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(
        (
            nullable(-20i64..20),
            nullable(0i64..5),
            (-100i32..100).prop_map(|x| x as f64 / 4.0),
            nullable((0usize..5).prop_map(|i| ["", "a", "ab", "b", "10"][i])),
        ),
        0..60,
    )
}

fn arb_op() -> impl Strategy<Value = Operation> {
    let column = || prop_oneof![Just("g".to_string()), Just("t".to_string())];
    prop_oneof![
        ( -20i64..20, prop_oneof![
            Just(CompareOp::Eq), Just(CompareOp::Ne), Just(CompareOp::Lt),
            Just(CompareOp::Le), Just(CompareOp::Gt), Just(CompareOp::Ge),
        ]).prop_map(|(n, op)| Operation::Select {
            predicate: PredicateSpec { column: "k".into(), op, value: ScalarSpec::Int(n) },
        }),
        Just(Operation::Count),
        column().prop_map(|column| Operation::Distinct { column }),
        (1usize..10).prop_map(|k| Operation::TopK { column: "v".into(), k }),
        (
            prop_oneof![
                Just(AggSpec::Count), Just(AggSpec::Sum), Just(AggSpec::Avg),
                Just(AggSpec::Min), Just(AggSpec::Max),
            ],
            any::<bool>(),
            prop_oneof![
                Just(vec![]), Just(vec!["g".to_string()]), Just(vec!["t".to_string()]),
                Just(vec!["t".to_string(), "g".to_string()]),
            ],
        ).prop_map(|(function, over_g, group_by)| {
            // `g` holds NULLs, which every aggregate skips; over an all-NULL
            // group SUM, AVG, MIN and MAX are NULL and COUNT is 0.
            let column = if over_g { "g" } else { "v" };
            Operation::Aggregate { function, column: Some(column.into()), group_by }
        }),
        Just(Operation::Project { columns: vec!["t".into(), "v".into()] }),
        (prop_oneof![Just("k".to_string()), Just("t".to_string())], any::<bool>())
            .prop_map(|(column, descending)| Operation::SortBy { column, descending }),
    ]
}

/// What a bound execution computed, without its timings.
fn untimed(b: &BoundExecution) -> (&Table, u64, Vec<&str>) {
    (&b.output, b.record_ops, b.steps.iter().map(|s| s.op.as_str()).collect())
}

/// The third party: one request for `pattern` over `tables`, answered by
/// the reference oracle and by the SQL engine (the sql binding's output as
/// the row set it attaches). Returns `(oracle, sql)` payloads.
fn oracle_and_sql(
    pattern: &WorkloadPattern,
    tables: &BTreeMap<String, Table>,
) -> (OutputPayload, OutputPayload) {
    let datasets: BTreeMap<String, Dataset> =
        tables.iter().map(|(name, t)| (name.clone(), Dataset::Table(t.clone()))).collect();
    let prescription = Prescription {
        name: "equivalence".into(),
        description: String::new(),
        data: vec![],
        pattern: pattern.clone(),
        arrival: ArrivalSpec::Batch,
        metrics: vec![],
    };
    let (config, trace) = (SystemConfig::default(), RunTrace::new());
    let request = ExecutionRequest {
        prescription: &prescription,
        system: SystemKind::Sql,
        seed: 1,
        scale: 0,
        datasets: &datasets,
        config: &config,
        trace: &trace,
        routing: RoutingPolicy::default(),
    };
    let oracle = oracle_payload(&request).unwrap();
    let sql = SqlEngine.execute(&request).unwrap().remove(0).output.unwrap();
    (oracle, sql)
}

/// Column `col` of a row-set payload, as sorted cell texts.
fn column_of(payload: &OutputPayload, col: usize) -> Vec<String> {
    let OutputPayload::RowSet(lines) = payload else { panic!("a row set, got {payload:?}") };
    let mut cells: Vec<String> =
        lines.iter().map(|l| l.split(CELL_SEP).nth(col).unwrap().to_string()).collect();
    cells.sort_unstable();
    cells
}

/// SQL's rule on every engine: SUM over a group without a non-NULL value
/// is NULL, over an Int column and over a Float one (where a `0` would not
/// even fit the output schema).
#[test]
fn sum_over_an_all_null_group_is_null_on_every_engine() {
    let mut t = Table::new(Schema::new(vec![
        Field::new("grp", DataType::Text),
        Field::nullable("i", DataType::Int),
        Field::nullable("f", DataType::Float),
    ]));
    for (grp, i, f) in [("a", Some(1), Some(1.5)), ("a", None, None), ("b", None, None)] {
        let (i, f) = (i.map_or(Value::Null, Value::Int), f.map_or(Value::Null, Value::Float));
        t.push(vec![Value::from(grp), i, f]).unwrap();
    }
    let tables = BTreeMap::from([("t".to_string(), t)]);
    for (column, sum_a) in [("i", Value::Int(1)), ("f", Value::Float(1.5))] {
        let op = Operation::Aggregate {
            function: AggSpec::Sum,
            column: Some(column.into()),
            group_by: vec!["grp".into()],
        };
        let pattern = WorkloadPattern::Single { op, input: "t".into() };
        let expected = vec![vec![Value::from("a"), sum_a], vec![Value::from("b"), Value::Null]];
        let sql = SqlBinding.execute(&pattern, &tables).unwrap();
        assert_eq!(sql.sorted_rows(), expected, "sql SUM({column})");
        let mr = MapReduceBinding::default().execute(&pattern, &tables).unwrap();
        assert_eq!(mr.sorted_rows(), expected, "mapreduce SUM({column})");
        let (oracle, sql) = oracle_and_sql(&pattern, &tables);
        assert_eq!(oracle.diff(&sql, 0.0), None, "oracle SUM({column})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sql_and_mapreduce_agree_on_any_single_op(rows in arb_rows(), op in arb_op()) {
        let is_topk = matches!(op, Operation::TopK { .. });
        let mut datasets = BTreeMap::new();
        datasets.insert("t".to_string(), table_from_rows(&rows));
        let pattern = WorkloadPattern::Single { op, input: "t".into() };
        let sql = SqlBinding.execute(&pattern, &datasets).unwrap();
        // The binding's answer does not depend on how a job is cut into
        // tasks: one split and one reducer, or more of both than rows.
        let [mr_binding, wide_binding] =
            [(1, 1, 1), (7, 9, 2)].map(|(map_tasks, reduce_tasks, workers)| MapReduceBinding {
                config: JobConfig { map_tasks, reduce_tasks, workers },
            });
        let mr = mr_binding.execute(&pattern, &datasets).unwrap();
        let wide = wide_binding.execute(&pattern, &datasets).unwrap();
        prop_assert_eq!(wide.sorted_rows(), mr.sorted_rows());
        prop_assert_eq!(wide.output.schema(), mr.output.schema());
        prop_assert_eq!(wide.record_ops, mr.record_ops);
        // One execution path: the owned-map adapter and the lent entry the
        // engines call return the same rows, work and steps.
        let lent_sql = SqlBinding.execute_lent(&pattern, &|n| datasets.get(n)).unwrap();
        let lent_mr = mr_binding.execute_lent(&pattern, &|n| datasets.get(n)).unwrap();
        prop_assert_eq!(untimed(&lent_sql), untimed(&sql));
        prop_assert_eq!(untimed(&lent_mr), untimed(&mr));
        prop_assert_eq!(sql.output.schema(), mr.output.schema());
        if is_topk {
            // Ties at the k-th rank legitimately admit different row
            // choices; the ranking-column values must still agree.
            let vs = |t: &bdbench::common::record::Table| -> Vec<i64> {
                let idx = t.schema().index_of("v").unwrap();
                let mut v: Vec<i64> = t
                    .rows()
                    .iter()
                    .map(|r| (r[idx].as_f64().unwrap() * 4.0) as i64)
                    .collect();
                v.sort_unstable();
                v
            };
            prop_assert_eq!(vs(&sql.output), vs(&mr.output));
        } else {
            prop_assert_eq!(sql.sorted_rows(), mr.sorted_rows());
        }
        // The oracle agrees with the sql engine's payload (for TopK, on
        // the ranking column `v` only).
        let (oracle, sql) = oracle_and_sql(&pattern, &datasets);
        if is_topk {
            prop_assert_eq!(column_of(&oracle, 2), column_of(&sql, 2));
        } else {
            prop_assert_eq!(oracle.diff(&sql, 0.0), None);
        }
    }

    #[test]
    fn sql_and_mapreduce_agree_on_select_then_aggregate(rows in arb_rows(), threshold in -20i64..20) {
        let mut datasets = BTreeMap::new();
        datasets.insert("t".to_string(), table_from_rows(&rows));
        let pattern = WorkloadPattern::Multi {
            steps: vec![
                Step {
                    id: 0,
                    op: Operation::Select {
                        predicate: PredicateSpec {
                            column: "k".into(),
                            op: CompareOp::Gt,
                            value: ScalarSpec::Int(threshold),
                        },
                    },
                    inputs: vec![InputRef::Dataset("t".into())],
                },
                Step {
                    id: 1,
                    op: Operation::Aggregate {
                        function: AggSpec::Sum,
                        column: Some("v".into()),
                        group_by: vec!["g".into()],
                    },
                    inputs: vec![InputRef::Step(0)],
                },
            ],
        };
        let sql = SqlBinding.execute(&pattern, &datasets).unwrap();
        let mr = MapReduceBinding::default().execute(&pattern, &datasets).unwrap();
        // Float sums accumulate in different orders: compare approximately.
        let (a, b) = (sql.sorted_rows(), mr.sorted_rows());
        prop_assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(b.iter()) {
            prop_assert_eq!(ra[0].as_i64(), rb[0].as_i64());
            let (x, y) = (ra[1].as_f64().unwrap(), rb[1].as_f64().unwrap());
            prop_assert!((x - y).abs() < 1e-9, "{} vs {}", x, y);
        }
    }

    #[test]
    fn two_input_ops_agree_and_match_nested_loop_references(
        left in arb_rows(), right in arb_rows(), float_right in any::<bool>()
    ) {
        // An Int key against the Float of the same value is one key.
        let right_key = if float_right { DataType::Float } else { DataType::Int };
        let mut datasets = BTreeMap::new();
        datasets.insert("l".to_string(), table_from_rows(&left));
        datasets.insert("r".to_string(), table_of(&right, right_key));
        let pattern_of = |op: Operation| WorkloadPattern::Multi {
            steps: vec![Step {
                id: 0,
                op,
                inputs: vec![InputRef::Dataset("l".into()), InputRef::Dataset("r".into())],
            }],
        };
        let run = |op: Operation| {
            let pattern = pattern_of(op);
            let sql = SqlBinding.execute(&pattern, &datasets);
            let mr = MapReduceBinding::default().execute(&pattern, &datasets);
            (sql, mr)
        };
        // The oracle agrees with the sql engine's payload.
        let oracle_agrees = |op: Operation| {
            let (oracle, sql) = oracle_and_sql(&pattern_of(op), &datasets);
            oracle.diff(&sql, 0.0)
        };
        let keys_of = |rows: &[Row]| -> Vec<Option<i64>> { rows.iter().map(|r| r.0).collect() };
        let (lk, rk) = (keys_of(&left), keys_of(&right));

        let (sql, mr) = run(Operation::Join { left_on: "k".into(), right_on: "k".into() });
        let (sql, mr) = (sql.unwrap(), mr.unwrap());
        prop_assert_eq!(sql.sorted_rows(), mr.sorted_rows());
        prop_assert_eq!(sql.output.schema(), mr.output.schema());
        // Reference: nested-loop cardinality; a NULL key joins nothing.
        let expected: usize =
            lk.iter().flatten().map(|k| rk.iter().flatten().filter(|k2| *k2 == k).count()).sum();
        prop_assert_eq!(sql.output.len(), expected);
        prop_assert_eq!(oracle_agrees(Operation::Join { left_on: "k".into(), right_on: "k".into() }), None);

        let (sql, mr) = run(Operation::IntersectOn { column: "k".into() });
        let (sql, mr) = (sql.unwrap(), mr.unwrap());
        prop_assert_eq!(sql.sorted_rows(), mr.sorted_rows());
        // Reference: a semi-join keeps each left row once; NULL matches NULL.
        prop_assert_eq!(sql.output.len(), lk.iter().filter(|k| rk.contains(k)).count());
        // The oracle's semi-join keys by value, not text: a `0` key meets
        // the right side's `-0.0`, and NULL meets NULL.
        prop_assert_eq!(oracle_agrees(Operation::IntersectOn { column: "k".into() }), None);

        match run(Operation::Union) {
            (Ok(sql), Ok(mr)) => {
                prop_assert!(!float_right);
                prop_assert_eq!(&sql.output, &mr.output);
                prop_assert_eq!(sql.output.len(), left.len() + right.len());
                prop_assert_eq!(oracle_agrees(Operation::Union), None);
            }
            // Differently typed key columns are not union-compatible.
            (sql, mr) => {
                prop_assert!(float_right);
                prop_assert_eq!(sql.unwrap_err(), mr.unwrap_err());
            }
        }
    }

    #[test]
    fn mapreduce_sort_matches_std_sort(keys in prop::collection::vec(any::<u64>(), 0..300)) {
        let (mr, _) = bdbench::workloads::micro::sort_mapreduce(&keys, &JobConfig::default());
        let mut expect = keys.clone();
        expect.sort_unstable();
        prop_assert_eq!(mr, expect);
    }

    #[test]
    fn terasort_matches_std_sort(
        keys in prop::collection::vec(any::<u64>(), 0..300),
        partitions in 1usize..8,
    ) {
        let (ts, _) = bdbench::workloads::micro::terasort(&keys, partitions, 1);
        let mut expect = keys.clone();
        expect.sort_unstable();
        prop_assert_eq!(ts, expect);
    }

    #[test]
    fn wordcount_bindings_match_reference(
        words in prop::collection::vec(prop::collection::vec(0u32..50, 0..20), 0..30)
    ) {
        use bdbench::common::text::Document;
        let docs: Vec<Document> = words.into_iter().map(|w| Document { words: w }).collect();
        let (native, _) = bdbench::workloads::micro::wordcount_native(&docs);
        let (mr, _) = bdbench::workloads::micro::wordcount_mapreduce(&docs, &JobConfig::default());
        prop_assert_eq!(&native, &mr);
        // Reference counting.
        let mut reference = std::collections::BTreeMap::new();
        for d in &docs {
            for &w in &d.words {
                *reference.entry(w).or_insert(0u64) += 1;
            }
        }
        let reference: Vec<(u32, u64)> = reference.into_iter().collect();
        prop_assert_eq!(native, reference);
    }
}
