//! Property tests: the same abstract test on different engines yields the
//! same answer (the paper's functional view), and engine kernels agree
//! with straightforward reference implementations.

use bdbench::common::record::Table;
use bdbench::common::value::{DataType, Field, Schema, Value};
use bdbench::mapreduce::JobConfig;
use bdbench::testgen::bind::{BoundExecution, MapReduceBinding, PatternExecutor, SqlBinding};
use bdbench::testgen::ops::{AggSpec, CompareOp, Operation, PredicateSpec, ScalarSpec};
use bdbench::testgen::pattern::{InputRef, Step, WorkloadPattern};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn table_from_rows(rows: &[(i64, i64, f64)]) -> Table {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("g", DataType::Int),
        Field::new("v", DataType::Float),
    ]);
    let mut t = Table::new(schema);
    for &(k, g, v) in rows {
        t.push(vec![Value::Int(k), Value::Int(g), Value::Float(v)])
            .unwrap();
    }
    t
}

fn arb_rows() -> impl Strategy<Value = Vec<(i64, i64, f64)>> {
    prop::collection::vec(
        (
            -20i64..20,
            0i64..5,
            (-100i32..100).prop_map(|x| x as f64 / 4.0),
        ),
        0..60,
    )
}

fn arb_op() -> impl Strategy<Value = Operation> {
    prop_oneof![
        ( -20i64..20, prop_oneof![
            Just(CompareOp::Eq), Just(CompareOp::Ne), Just(CompareOp::Lt),
            Just(CompareOp::Le), Just(CompareOp::Gt), Just(CompareOp::Ge),
        ]).prop_map(|(n, op)| Operation::Select {
            predicate: PredicateSpec { column: "k".into(), op, value: ScalarSpec::Int(n) },
        }),
        Just(Operation::Count),
        Just(Operation::Distinct { column: "g".into() }),
        (1usize..10).prop_map(|k| Operation::TopK { column: "v".into(), k }),
        prop_oneof![
            Just(AggSpec::Count), Just(AggSpec::Sum), Just(AggSpec::Avg),
            Just(AggSpec::Min), Just(AggSpec::Max),
        ].prop_map(|f| Operation::Aggregate {
            function: f,
            column: Some("v".into()),
            group_by: vec!["g".into()],
        }),
        Just(Operation::Project { columns: vec!["g".into(), "v".into()] }),
        Just(Operation::SortBy { column: "k".into(), descending: false }),
    ]
}

/// What a bound execution computed, without its timings.
fn untimed(b: &BoundExecution) -> (&Table, u64, Vec<&str>) {
    (&b.output, b.record_ops, b.steps.iter().map(|s| s.op.as_str()).collect())
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
        let mr_binding =
            MapReduceBinding { config: JobConfig { map_tasks: 3, reduce_tasks: 2, workers: 2 } };
        let mr = mr_binding.execute(&pattern, &datasets).unwrap();
        // One execution path: the owned-map adapter and the lent entry the
        // engines call return the same rows, work and steps.
        let lent_sql = SqlBinding.execute_lent(&pattern, &|n| datasets.get(n)).unwrap();
        let lent_mr = mr_binding.execute_lent(&pattern, &|n| datasets.get(n)).unwrap();
        prop_assert_eq!(untimed(&lent_sql), untimed(&sql));
        prop_assert_eq!(untimed(&lent_mr), untimed(&mr));
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
    fn join_agrees_and_matches_nested_loop_reference(
        left in arb_rows(), right in arb_rows()
    ) {
        let mut datasets = BTreeMap::new();
        datasets.insert("l".to_string(), table_from_rows(&left));
        datasets.insert("r".to_string(), table_from_rows(&right));
        let pattern = WorkloadPattern::Multi {
            steps: vec![Step {
                id: 0,
                op: Operation::Join { left_on: "k".into(), right_on: "k".into() },
                inputs: vec![
                    InputRef::Dataset("l".into()),
                    InputRef::Dataset("r".into()),
                ],
            }],
        };
        let sql = SqlBinding.execute(&pattern, &datasets).unwrap();
        let mr = MapReduceBinding::default().execute(&pattern, &datasets).unwrap();
        prop_assert_eq!(sql.sorted_rows(), mr.sorted_rows());
        // Reference: nested-loop join cardinality.
        let expected: usize = left
            .iter()
            .map(|&(k, ..)| right.iter().filter(|&&(k2, ..)| k2 == k).count())
            .sum();
        prop_assert_eq!(sql.output.len(), expected);
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
