//! Property test: the SQL engine against a direct reference evaluation
//! over the same rows (filter → sort → limit, and grouped aggregation).

use bdbench::common::record::Table;
use bdbench::common::value::{DataType, Field, Schema, Value};
use bdbench::sql::Engine;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn table_of(rows: &[(i64, i64)]) -> Table {
    let schema = Schema::new(vec![
        Field::new("a", DataType::Int),
        Field::new("g", DataType::Int),
    ]);
    let mut t = Table::new(schema);
    for &(a, g) in rows {
        t.push(vec![Value::Int(a), Value::Int(g)]).unwrap();
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn filter_sort_limit_matches_reference(
        rows in prop::collection::vec((-50i64..50, 0i64..5), 0..80),
        threshold in -50i64..50,
        limit in 0usize..20,
    ) {
        let mut engine = Engine::new();
        engine.register("t", table_of(&rows)).unwrap();
        let out = engine
            .sql(&format!(
                "SELECT a FROM t WHERE a > {threshold} ORDER BY a LIMIT {limit}"
            ))
            .unwrap();
        let got: Vec<i64> = out.rows().iter().map(|r| r[0].as_i64().unwrap()).collect();
        // Reference.
        let mut want: Vec<i64> = rows
            .iter()
            .map(|&(a, _)| a)
            .filter(|&a| a > threshold)
            .collect();
        want.sort_unstable();
        want.truncate(limit);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn grouped_count_and_sum_match_reference(
        rows in prop::collection::vec((-50i64..50, 0i64..5), 0..80),
    ) {
        let mut engine = Engine::new();
        engine.register("t", table_of(&rows)).unwrap();
        let out = engine
            .sql("SELECT g, COUNT(*) AS n, SUM(a) AS s FROM t GROUP BY g ORDER BY g")
            .unwrap();
        let mut want: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
        for &(a, g) in &rows {
            let e = want.entry(g).or_insert((0, 0));
            e.0 += 1;
            e.1 += a;
        }
        prop_assert_eq!(out.len(), want.len());
        for row in out.rows() {
            let g = row[0].as_i64().unwrap();
            let (n, s) = want[&g];
            prop_assert_eq!(row[1].as_i64().unwrap(), n);
            prop_assert_eq!(row[2].as_i64().unwrap(), s);
        }
    }

    #[test]
    fn distinct_matches_reference(
        rows in prop::collection::vec((-50i64..50, 0i64..5), 0..80),
    ) {
        let mut engine = Engine::new();
        engine.register("t", table_of(&rows)).unwrap();
        let out = engine.sql("SELECT DISTINCT g FROM t ORDER BY g").unwrap();
        let mut want: Vec<i64> = rows.iter().map(|&(_, g)| g).collect();
        want.sort_unstable();
        want.dedup();
        let got: Vec<i64> = out.rows().iter().map(|r| r[0].as_i64().unwrap()).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn having_matches_reference(
        rows in prop::collection::vec((-50i64..50, 0i64..5), 0..80),
        min_n in 1i64..6,
    ) {
        let mut engine = Engine::new();
        engine.register("t", table_of(&rows)).unwrap();
        let out = engine
            .sql(&format!(
                "SELECT g, COUNT(*) AS n FROM t GROUP BY g HAVING n >= {min_n} ORDER BY g"
            ))
            .unwrap();
        let mut counts: BTreeMap<i64, i64> = BTreeMap::new();
        for &(_, g) in &rows {
            *counts.entry(g).or_insert(0) += 1;
        }
        let want: Vec<(i64, i64)> = counts
            .into_iter()
            .filter(|&(_, n)| n >= min_n)
            .collect();
        let got: Vec<(i64, i64)> = out
            .rows()
            .iter()
            .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
            .collect();
        prop_assert_eq!(got, want);
    }
}

// ---------------------------------------------------------------------
// Optimizer equivalence: predicate pushdown and projection pruning must
// never change a query's result — random queries run through both the
// optimized and the unoptimized plan and the row sets are compared.

mod optimizer_equivalence {
    use super::table_of;
    use bdbench::common::record::Table;
    use bdbench::common::value::{DataType, Field, Schema, Value};
    use bdbench::sql::optimizer::optimize;
    use bdbench::sql::parser::parse;
    use bdbench::sql::plan::build_logical_plan;
    use bdbench::sql::{Catalog, Executor};
    use proptest::prelude::*;

    fn right_table(rows: &[(i64, i64)]) -> Table {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Int),
            Field::new("w", DataType::Int),
        ]);
        let mut t = Table::new(schema);
        for &(g, w) in rows {
            t.push(vec![Value::Int(g), Value::Int(w)]).unwrap();
        }
        t
    }

    /// Execute `sql` against `catalog` twice — raw plan and optimized
    /// plan — and return both results as sorted row text.
    fn both_ways(catalog: &Catalog, sql: &str) -> (Vec<String>, Vec<String>) {
        let raw_plan = build_logical_plan(parse(sql).unwrap(), catalog).unwrap();
        let opt_plan = optimize(raw_plan.clone());
        let sorted = |t: Table| {
            let mut rows: Vec<String> = t
                .rows()
                .iter()
                .map(|r| {
                    r.iter().map(|v| format!("{v:?}")).collect::<Vec<_>>().join("\u{1f}")
                })
                .collect();
            rows.sort();
            rows
        };
        let raw = sorted(Executor::new(catalog).run(&raw_plan).unwrap());
        let opt = sorted(Executor::new(catalog).run(&opt_plan).unwrap());
        (raw, opt)
    }

    fn arb_query() -> impl Strategy<Value = String> {
        let pred = prop_oneof![
            Just(String::new()),
            (-40i64..40).prop_map(|x| format!(" WHERE a > {x}")),
            (-40i64..40).prop_map(|x| format!(" WHERE a < {x} AND g >= 1")),
            (-40i64..40, 0i64..5).prop_map(|(x, y)| format!(" WHERE a >= {x} AND g = {y}")),
        ];
        let shape = prop_oneof![
            Just("SELECT a, g FROM t".to_string()),
            Just("SELECT a FROM t".to_string()),
            Just("SELECT g, COUNT(*) AS n, SUM(a) AS s FROM t{P} GROUP BY g".to_string()),
            Just("SELECT t.a, r.w FROM t JOIN r ON t.g = r.g".to_string()),
            Just("SELECT t.a, r.w FROM t JOIN r ON t.g = r.g ORDER BY t.a, r.w LIMIT 10".to_string()),
        ];
        (shape, pred).prop_map(|(shape, pred)| {
            if shape.contains("{P}") {
                shape.replace("{P}", &pred)
            } else if shape.contains("JOIN") {
                shape
            } else {
                format!("{shape}{pred}")
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn optimized_plan_returns_identical_rows(
            left in prop::collection::vec((-50i64..50, 0i64..5), 0..60),
            right in prop::collection::vec((0i64..5, -20i64..20), 0..30),
            sql in arb_query(),
        ) {
            let mut catalog = Catalog::new();
            catalog.register("t", table_of(&left)).unwrap();
            catalog.register("r", right_table(&right)).unwrap();
            let (raw, opt) = both_ways(&catalog, &sql);
            prop_assert_eq!(raw, opt, "optimizer changed {}", sql);
        }

        /// The optimizer is idempotent: optimizing an optimized plan is a
        /// fixpoint, and still evaluates identically.
        #[test]
        fn optimize_is_idempotent_on_random_predicates(
            left in prop::collection::vec((-50i64..50, 0i64..5), 0..40),
            threshold in -40i64..40,
        ) {
            let mut catalog = Catalog::new();
            catalog.register("t", table_of(&left)).unwrap();
            let sql = format!("SELECT a FROM t WHERE a > {threshold} AND g < 4");
            let plan = build_logical_plan(parse(&sql).unwrap(), &catalog).unwrap();
            let once = optimize(plan);
            let twice = optimize(once.clone());
            let a = Executor::new(&catalog).run(&once).unwrap();
            let b = Executor::new(&catalog).run(&twice).unwrap();
            prop_assert_eq!(a.rows(), b.rows());
        }
    }
}

// ---------------------------------------------------------------------
// Bound expressions: `Expr::bind` + `BoundExpr::eval` is the engine's only
// evaluator. It is checked against a by-name interpreter written here,
// which resolves a column by its name on every visit and copies every
// operand — the obvious way, and the way the engine no longer works.

mod bound_expressions {
    use bdbench::common::value::{DataType, Field, Schema, Value};
    use bdbench::sql::expr::{BinOp, Expr};
    use proptest::prelude::*;
    use std::cmp::Ordering;

    const COLUMNS: [&str; 4] = ["i", "f", "t", "b"];

    fn schema() -> Schema {
        Schema::new(vec![
            Field::nullable("i", DataType::Int),
            Field::nullable("f", DataType::Float),
            Field::nullable("t", DataType::Text),
            Field::nullable("b", DataType::Bool),
        ])
    }

    fn ref_cmp(l: &Value, r: &Value) -> Result<Ordering, ()> {
        let float = |a: f64, b: f64| a.partial_cmp(&b).ok_or(());
        match (l, r) {
            (Value::Int(a), Value::Int(b)) => Ok(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => float(*a, *b),
            (Value::Int(a), Value::Float(b)) => float(*a as f64, *b),
            (Value::Float(a), Value::Int(b)) => float(*a, *b as f64),
            (Value::Text(a), Value::Text(b)) => Ok(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Ok(a.cmp(b)),
            _ => Err(()),
        }
    }

    /// Evaluate `e` by name. `Err(())` is "some type error"; which one
    /// is the engine's business.
    fn ref_eval(e: &Expr, schema: &Schema, row: &[Value]) -> Result<Value, ()> {
        match e {
            Expr::Column(name) => {
                let at = schema.fields().iter().position(|f| &f.name == name).ok_or(())?;
                Ok(row[at].clone())
            }
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Not(inner) => match ref_eval(inner, schema, row)? {
                Value::Bool(b) => Ok(Value::Bool(!b)),
                Value::Null => Ok(Value::Null),
                _ => Err(()),
            },
            Expr::Binary { left, op, right } => {
                // Strict: both operands are evaluated, so an error on
                // either side wins over `false AND …`.
                let l = ref_eval(left, schema, row)?;
                let r = ref_eval(right, schema, row)?;
                let null = matches!(l, Value::Null) || matches!(r, Value::Null);
                match op {
                    BinOp::And | BinOp::Or => match (&l, &r) {
                        (Value::Bool(a), Value::Bool(b)) => {
                            Ok(Value::Bool(if *op == BinOp::And { *a && *b } else { *a || *b }))
                        }
                        _ if null => Ok(Value::Null),
                        _ => Err(()),
                    },
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        if null {
                            return Ok(Value::Null);
                        }
                        let ord = ref_cmp(&l, &r)?;
                        Ok(Value::Bool(match op {
                            BinOp::Eq => ord.is_eq(),
                            BinOp::Ne => ord.is_ne(),
                            BinOp::Lt => ord.is_lt(),
                            BinOp::Le => ord.is_le(),
                            BinOp::Gt => ord.is_gt(),
                            _ => ord.is_ge(),
                        }))
                    }
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                        if null {
                            return Ok(Value::Null);
                        }
                        if let (Value::Int(a), Value::Int(b)) = (&l, &r) {
                            return Ok(match op {
                                BinOp::Add => Value::Int(a.wrapping_add(*b)),
                                BinOp::Sub => Value::Int(a.wrapping_sub(*b)),
                                BinOp::Mul => Value::Int(a.wrapping_mul(*b)),
                                _ if *b == 0 => Value::Null,
                                _ => Value::Int(a / b),
                            });
                        }
                        let num = |v: &Value| match v {
                            Value::Int(i) => Ok(*i as f64),
                            Value::Float(x) => Ok(*x),
                            _ => Err(()),
                        };
                        let (a, b) = (num(&l)?, num(&r)?);
                        Ok(match op {
                            BinOp::Add => Value::Float(a + b),
                            BinOp::Sub => Value::Float(a - b),
                            BinOp::Mul => Value::Float(a * b),
                            _ if b == 0.0 => Value::Null,
                            _ => Value::Float(a / b),
                        })
                    }
                }
            }
        }
    }

    /// One strategy per column of [`schema`], in column order. Small
    /// domains, so equal operands and zero divisors are common.
    fn typed_values() -> [BoxedStrategy<Value>; 4] {
        [
            (-3i64..4).prop_map(Value::Int).boxed(),
            (-2i64..3).prop_map(|h| Value::Float(h as f64 / 2.0)).boxed(),
            (0usize..3).prop_map(|i| Value::from(["", "a", "b"][i])).boxed(),
            any::<bool>().prop_map(Value::Bool).boxed(),
        ]
    }

    /// A literal of any type, NULL included.
    fn arb_value() -> BoxedStrategy<Value> {
        let [i, f, t, b] = typed_values();
        prop_oneof![Just(Value::Null), i, f, t, b].boxed()
    }

    /// A row of [`schema`], each column NULL one time in four.
    fn arb_row() -> impl Strategy<Value = Vec<Value>> {
        let [i, f, t, b] = typed_values().map(|s| prop_oneof![1 => Just(Value::Null), 3 => s]);
        (i, f, t, b).prop_map(|(i, f, t, b)| vec![i, f, t, b])
    }

    fn arb_expr(depth: u32) -> BoxedStrategy<Expr> {
        let leaf = prop_oneof![
            (0usize..COLUMNS.len()).prop_map(|c| Expr::col(COLUMNS[c])),
            arb_value().prop_map(Expr::Literal),
        ];
        if depth == 0 {
            return leaf.boxed();
        }
        let op = (0usize..12).prop_map(|i| {
            use BinOp::*;
            [Eq, Ne, Lt, Le, Gt, Ge, And, Or, Add, Sub, Mul, Div][i]
        });
        prop_oneof![
            1 => leaf,
            4 => (arb_expr(depth - 1), op, arb_expr(depth - 1))
                .prop_map(|(l, op, r)| Expr::binary(l, op, r)),
            1 => arb_expr(depth - 1).prop_map(|e| Expr::Not(Box::new(e))),
        ]
        .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn bound_evaluation_matches_by_name_reference(e in arb_expr(3), row in arb_row()) {
            let schema = schema();
            let bound = e.bind(&schema).unwrap();
            let want = ref_eval(&e, &schema, &row);
            match (bound.eval(&row), &want) {
                // Debug text, not `==`: `Value::eq` calls Int(1) and Float(1.0) equal.
                (Ok(got), Ok(want)) => prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "{:?}", e),
                (Err(_), Err(())) => {}
                (got, want) => prop_assert!(false, "{:?} over {:?}: engine {:?}, reference {:?}", e, row, got, want),
            }
            let selected = matches!(want, Ok(Value::Bool(true)));
            prop_assert_eq!(bound.eval_predicate(&row).ok(), want.is_ok().then_some(selected));
        }

        /// Reading a pruned scan's stored rows through `remap` is reading
        /// the pruned rows.
        #[test]
        fn remapped_evaluation_reads_the_stored_row(e in arb_expr(2), row in arb_row(), pad in arb_value()) {
            let schema = schema();
            // Stored layout: [pad, b, pad, t, f, i]; output column c is at map[c].
            let map = [5usize, 4, 3, 1];
            let stored = vec![pad.clone(), row[3].clone(), pad, row[2].clone(), row[1].clone(), row[0].clone()];
            let direct = e.bind(&schema).unwrap();
            let mut remapped = direct.clone();
            remapped.remap(&map);
            prop_assert_eq!(
                format!("{:?}", remapped.eval(&stored).map_err(|_| ())),
                format!("{:?}", direct.eval(&row).map_err(|_| ()))
            );
        }
    }
}

// ---------------------------------------------------------------------
// The executor lends rows: the same optimised plan over a catalog that
// owns its tables and over one that only borrows them must return the
// same table and count the same work, and both must agree with a naive
// evaluation of the statement over the generated rows.

mod lent_execution {
    use bdbench::common::record::Table;
    use bdbench::common::value::{DataType, Field, Schema, Value};
    use bdbench::sql::memo::optimize_with_cost;
    use bdbench::sql::parser::parse;
    use bdbench::sql::plan::build_logical_plan;
    use bdbench::sql::{Catalog, ExecStats, Executor};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    type Key = Option<i64>;

    fn value_of(k: Key) -> Value {
        k.map_or(Value::Null, Value::Int)
    }

    /// `t(a, g, s)`: `g` is a nullable key, `s` a text payload.
    fn left_table(rows: &[(i64, Key)]) -> Table {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::nullable("g", DataType::Int),
            Field::new("s", DataType::Text),
        ]);
        let mut t = Table::new(schema);
        for &(a, g) in rows {
            t.push(vec![Value::Int(a), value_of(g), Value::from(format!("s{a}"))]).unwrap();
        }
        t
    }

    /// `r(g, w)`, `g` nullable.
    fn right_table(rows: &[(Key, i64)]) -> Table {
        let schema = Schema::new(vec![
            Field::nullable("g", DataType::Int),
            Field::new("w", DataType::Int),
        ]);
        let mut t = Table::new(schema);
        for &(g, w) in rows {
            t.push(vec![value_of(g), Value::Int(w)]).unwrap();
        }
        t
    }

    fn arb_key() -> impl Strategy<Value = Key> {
        prop_oneof![1 => Just(None), 4 => (0i64..4).prop_map(Some)]
    }

    /// Run `sql`'s memo-extracted plan over an owned and a borrowed
    /// catalog; assert they agree to the byte and return what they said.
    fn run_both(left: &Table, right: &Table, sql: &str) -> (Table, ExecStats) {
        let mut owned = Catalog::new();
        owned.register("t", left.clone()).unwrap();
        owned.register("r", right.clone()).unwrap();
        let mut lent = Catalog::new();
        lent.register("t", left).unwrap();
        lent.register("r", right).unwrap();
        let logical = build_logical_plan(parse(sql).unwrap(), &lent).unwrap();
        assert_eq!(logical, build_logical_plan(parse(sql).unwrap(), &owned).unwrap());
        let (plan, cost) = optimize_with_cost(logical.clone(), &lent);
        assert_eq!((plan.clone(), cost), optimize_with_cost(logical, &owned), "{sql}");
        let mut over_owned = Executor::new(&owned);
        let mut over_lent = Executor::new(&lent);
        let a = over_owned.run(&plan).unwrap();
        let b = over_lent.run(&plan).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{sql}");
        assert_eq!(over_owned.stats(), over_lent.stats(), "{sql}");
        (a, *over_owned.stats())
    }

    fn ints(t: &Table) -> Vec<Vec<Key>> {
        t.rows().iter().map(|r| r.iter().map(Value::as_i64).collect()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The load target's statement shape. `g` is pruned from the
        /// scan, so the filter reads stored rows through the scan's map.
        #[test]
        fn pruned_point_select(
            left in prop::collection::vec((-6i64..6, arb_key()), 0..60),
            k in -6i64..6,
        ) {
            let (out, stats) = run_both(
                &left_table(&left),
                &right_table(&[]),
                &format!("SELECT s FROM t WHERE a = {k}"),
            );
            let want: Vec<String> =
                left.iter().filter(|(a, _)| *a == k).map(|(a, _)| format!("s{a}")).collect();
            let got: Vec<&str> = out.rows().iter().map(|r| r[0].as_str().unwrap()).collect();
            prop_assert_eq!(got, want.iter().map(String::as_str).collect::<Vec<_>>());
            let (n, hits) = (left.len() as u64, want.len() as u64);
            prop_assert_eq!(stats, ExecStats {
                rows_scanned: n,
                predicate_evals: n,
                rows_produced: n + 2 * hits, // scan, filter, project
                ..ExecStats::default()
            });
        }

        #[test]
        fn join_with_null_keys(
            left in prop::collection::vec((-6i64..6, arb_key()), 0..40),
            right in prop::collection::vec((arb_key(), -9i64..9), 0..25),
        ) {
            let (out, stats) = run_both(
                &left_table(&left),
                &right_table(&right),
                "SELECT t.a, r.w FROM t JOIN r ON t.g = r.g",
            );
            // Nested loops; NULL joins nothing, not even NULL.
            let mut want: Vec<Vec<Key>> = Vec::new();
            for (a, lg) in &left {
                for (rg, w) in &right {
                    if lg.is_some() && lg == rg {
                        want.push(vec![Some(*a), Some(*w)]);
                    }
                }
            }
            let mut got = ints(&out);
            got.sort();
            want.sort();
            prop_assert_eq!(&got, &want);
            // The smaller side builds (the left on a tie), NULL keys are
            // never inserted, every row of the other side probes.
            let non_null = |keys: Vec<Key>| keys.iter().flatten().count() as u64;
            let left_keys: Vec<Key> = left.iter().map(|(_, g)| *g).collect();
            let right_keys: Vec<Key> = right.iter().map(|(g, _)| *g).collect();
            let (build, probe) = if left.len() <= right.len() {
                (non_null(left_keys), right.len())
            } else {
                (non_null(right_keys), left.len())
            };
            let (n, m, j) = (left.len() as u64, right.len() as u64, want.len() as u64);
            prop_assert_eq!(stats, ExecStats {
                rows_scanned: n + m,
                rows_produced: 2 * (n + m) + 2 * j, // scans, qualifying projects, join, project
                hash_build_rows: build,
                hash_probe_rows: probe as u64,
                ..ExecStats::default()
            });
        }

        #[test]
        fn grouped_aggregates_with_a_null_group(
            left in prop::collection::vec((-6i64..6, arb_key()), 0..60),
        ) {
            let (out, stats) = run_both(
                &left_table(&left),
                &right_table(&[]),
                "SELECT g, COUNT(*) AS n, SUM(a) AS total, MIN(s) AS first FROM t GROUP BY g",
            );
            let mut want: BTreeMap<Key, (i64, i64, String)> = BTreeMap::new();
            for &(a, g) in &left {
                let s = format!("s{a}");
                let e = want.entry(g).or_insert((0, 0, s.clone()));
                e.0 += 1;
                e.1 += a;
                e.2 = e.2.clone().min(s);
            }
            // Output is ordered by `cmp_records`, NULL group first, as
            // `BTreeMap<Option<_>, _>` orders it.
            let got: Vec<(Key, i64, i64, String)> = out
                .rows()
                .iter()
                .map(|r| (r[0].as_i64(), r[1].as_i64().unwrap(), r[2].as_i64().unwrap(), r[3].as_str().unwrap().to_string()))
                .collect();
            let want: Vec<(Key, i64, i64, String)> =
                want.into_iter().map(|(g, (n, total, first))| (g, n, total, first)).collect();
            prop_assert_eq!(&got, &want);
            let n = left.len() as u64;
            prop_assert_eq!(stats, ExecStats {
                rows_scanned: n,
                rows_produced: n + want.len() as u64,
                hash_build_rows: n,
                ..ExecStats::default()
            });
        }

        #[test]
        fn sort_and_limit(
            left in prop::collection::vec((-6i64..6, arb_key()), 0..60),
            threshold in -6i64..6,
            limit in 0usize..12,
        ) {
            let (out, stats) = run_both(
                &left_table(&left),
                &right_table(&[]),
                &format!("SELECT a FROM t WHERE a > {threshold} ORDER BY a DESC LIMIT {limit}"),
            );
            let mut kept: Vec<i64> = left.iter().map(|&(a, _)| a).filter(|&a| a > threshold).collect();
            kept.sort_unstable_by(|a, b| b.cmp(a));
            let want: Vec<i64> = kept.iter().copied().take(limit).collect();
            let got: Vec<i64> = out.rows().iter().map(|r| r[0].as_i64().unwrap()).collect();
            prop_assert_eq!(&got, &want);
            let (n, k) = (left.len() as u64, kept.len() as u64);
            prop_assert_eq!(stats.rows_scanned, n);
            prop_assert_eq!(stats.predicate_evals, n);
            // scan, filter, project, sort, limit
            prop_assert_eq!(stats.rows_produced, n + 3 * k + want.len() as u64);
            prop_assert_eq!(stats.sort_comparisons == 0, k < 2);
            prop_assert_eq!((stats.hash_build_rows, stats.hash_probe_rows), (0, 0));
        }
    }
}
