//! Physical execution of logical plans.
//!
//! The executor interprets the (optimised) logical plan directly, row at
//! a time over `Vec<Record>` tables. Rows are lent, not copied: a scan
//! hands its parent the base table's own rows (and, when pruned, the map
//! from output column to stored column); filter, project, join and
//! aggregate read their input by reference and allocate only the rows
//! they emit; sort and the plan root copy what they must own. Column
//! names are resolved to indices once per operator ([`Expr::bind`]),
//! never per row. Sort, group and join keys compare and hash as [`Key`]s,
//! the one value order every engine shares. Every operator updates
//! [`ExecStats`], the engine's operation counters for the architecture
//! metrics.

use crate::catalog::Catalog;
use crate::expr::{BoundExpr, Expr};
use crate::parser::AggFunc;
use crate::plan::LogicalPlan;
use bdb_common::record::{cmp_records, Record, Table};
use bdb_common::value::{Key, Schema, Value};
use bdb_common::{BdbError, Result};
use std::borrow::{Borrow, Cow};
use std::collections::HashMap;

/// Operation counters collected during execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows read from base tables.
    pub rows_scanned: u64,
    /// Predicate evaluations.
    pub predicate_evals: u64,
    /// Rows produced by all operators.
    pub rows_produced: u64,
    /// Hash-table inserts (join build + aggregation).
    pub hash_build_rows: u64,
    /// Hash-table probes (join probe side).
    pub hash_probe_rows: u64,
    /// Key comparisons performed by sorts.
    pub sort_comparisons: u64,
}

impl ExecStats {
    /// Total counted operations — the instruction proxy for MIPS-style
    /// architecture metrics.
    pub fn total_ops(&self) -> u64 {
        self.rows_scanned
            + self.predicate_evals
            + self.rows_produced
            + self.hash_build_rows
            + self.hash_probe_rows
            + self.sort_comparisons
    }
}

/// Executes plans against a catalog of owned (`T = Table`) or borrowed
/// (`T = &Table`) tables.
#[derive(Debug)]
pub struct Executor<'a, T = Table> {
    catalog: &'a Catalog<T>,
    stats: ExecStats,
}

/// What an operator hands its parent.
enum Batch<'a> {
    /// A base table's rows on loan from the catalog. With `map`, output
    /// column `i` is stored column `map[i]` (a pruned scan).
    Lent { rows: &'a [Record], map: Option<&'a [usize]> },
    /// Rows the operator built.
    Owned(Vec<Record>),
}

impl Batch<'_> {
    /// The rows as stored; find their columns with [`Batch::col_named`]
    /// and [`Batch::bind`].
    fn rows(&self) -> &[Record] {
        match self {
            Batch::Lent { rows, .. } => rows,
            Batch::Owned(rows) => rows,
        }
    }

    fn map(&self) -> Option<&[usize]> {
        match self {
            Batch::Lent { map, .. } => *map,
            Batch::Owned(_) => None,
        }
    }

    /// The stored position of the output column called `name`.
    fn col_named(&self, schema: &Schema, name: &str, what: &str) -> Result<usize> {
        schema
            .index_of(name)
            .map(|i| self.map().map_or(i, |m| m[i]))
            .ok_or_else(|| BdbError::NotFound(format!("{what} {name}")))
    }

    /// `expr` over the output `schema`, bound to read stored rows.
    fn bind(&self, expr: &Expr, schema: &Schema) -> Result<BoundExpr> {
        let mut bound = expr.bind(schema)?;
        if let Some(map) = self.map() {
            bound.remap(map);
        }
        Ok(bound)
    }

    /// Append the output columns of stored row `r` to `out`.
    fn extend_from(&self, out: &mut Record, r: &Record) {
        match self.map() {
            None => out.extend(r.iter().cloned()),
            Some(m) => out.extend(m.iter().map(|&c| r[c].clone())),
        }
    }

    /// The output row of stored row `r`, copied.
    fn output_row(&self, r: &Record) -> Record {
        let mut out = Vec::with_capacity(self.map().map_or(r.len(), <[usize]>::len));
        self.extend_from(&mut out, r);
        out
    }

    /// Output rows the caller owns: lent rows are copied here, through
    /// the map, and nowhere earlier.
    fn into_owned(self) -> Vec<Record> {
        match self {
            Batch::Owned(rows) => rows,
            Batch::Lent { rows, .. } => rows.iter().map(|r| self.output_row(r)).collect(),
        }
    }
}

impl<'a, T: Borrow<Table>> Executor<'a, T> {
    /// An executor over `catalog`.
    pub fn new(catalog: &'a Catalog<T>) -> Self {
        Self { catalog, stats: ExecStats::default() }
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Execute a plan to a materialised table.
    pub fn run(&mut self, plan: &LogicalPlan) -> Result<Table> {
        let rows = self.execute(plan)?.into_owned();
        Table::from_rows(plan.schema().clone(), rows)
    }

    fn execute<'p>(&mut self, plan: &'p LogicalPlan) -> Result<Batch<'p>>
    where
        'a: 'p,
    {
        match plan {
            LogicalPlan::Scan { table, projection, .. } => {
                let catalog: &'a Catalog<T> = self.catalog;
                let rows = catalog.get(table)?.rows();
                self.stats.rows_scanned += rows.len() as u64;
                self.stats.rows_produced += rows.len() as u64;
                Ok(Batch::Lent { rows, map: projection.as_deref() })
            }
            LogicalPlan::Filter { input, predicate } => {
                let batch = self.execute(input)?;
                let predicate = batch.bind(predicate, input.schema())?;
                self.stats.predicate_evals += batch.rows().len() as u64;
                let mut out = Vec::new();
                match batch {
                    Batch::Owned(rows) => {
                        for r in rows {
                            if predicate.eval_predicate(&r)? {
                                out.push(r);
                            }
                        }
                    }
                    Batch::Lent { rows, .. } => {
                        for r in rows {
                            if predicate.eval_predicate(r)? {
                                out.push(batch.output_row(r));
                            }
                        }
                    }
                }
                self.stats.rows_produced += out.len() as u64;
                Ok(Batch::Owned(out))
            }
            LogicalPlan::Project { input, exprs, .. } => {
                let batch = self.execute(input)?;
                let bound: Vec<BoundExpr> = exprs
                    .iter()
                    .map(|(e, _)| batch.bind(e, input.schema()))
                    .collect::<Result<_>>()?;
                let mut out = Vec::with_capacity(batch.rows().len());
                for r in batch.rows() {
                    let row: Record = bound
                        .iter()
                        .map(|e| e.eval(r).map(Cow::into_owned))
                        .collect::<Result<_>>()?;
                    out.push(row);
                }
                self.stats.rows_produced += out.len() as u64;
                Ok(Batch::Owned(out))
            }
            LogicalPlan::Join { left, right, left_key, right_key, .. } => {
                let left_batch = self.execute(left)?;
                let right_batch = self.execute(right)?;
                let lk = left_batch.col_named(left.schema(), left_key, "join key")?;
                let rk = right_batch.col_named(right.schema(), right_key, "join key")?;
                // Build on the smaller side for memory; probe the larger.
                let build_is_left = left_batch.rows().len() <= right_batch.rows().len();
                let (build, probe, build_idx, probe_idx) = if build_is_left {
                    (&left_batch, &right_batch, lk, rk)
                } else {
                    (&right_batch, &left_batch, rk, lk)
                };
                let mut table: HashMap<Key<'_>, Vec<&Record>> = HashMap::new();
                for r in build.rows() {
                    if r[build_idx].is_null() {
                        continue; // NULL never joins
                    }
                    self.stats.hash_build_rows += 1;
                    table.entry(Key(&r[build_idx])).or_default().push(r);
                }
                let mut out = Vec::new();
                for probe_row in probe.rows() {
                    self.stats.hash_probe_rows += 1;
                    if probe_row[probe_idx].is_null() {
                        continue;
                    }
                    if let Some(matches) = table.get(&Key(&probe_row[probe_idx])) {
                        for build_row in matches {
                            let (l, r) = if build_is_left {
                                (*build_row, probe_row)
                            } else {
                                (probe_row, *build_row)
                            };
                            let mut row = Vec::with_capacity(plan.schema().len());
                            left_batch.extend_from(&mut row, l);
                            right_batch.extend_from(&mut row, r);
                            out.push(row);
                        }
                    }
                }
                self.stats.rows_produced += out.len() as u64;
                Ok(Batch::Owned(out))
            }
            LogicalPlan::Aggregate { input, group_by, aggregates, .. } => {
                let batch = self.execute(input)?;
                let schema = input.schema();
                let group_idx: Vec<usize> = group_by
                    .iter()
                    .map(|g| batch.col_named(schema, g, "group key"))
                    .collect::<Result<_>>()?;
                let agg_idx: Vec<Option<usize>> = aggregates
                    .iter()
                    .map(|(_, arg, _)| {
                        arg.as_ref().map(|a| batch.col_named(schema, a, "agg arg")).transpose()
                    })
                    .collect::<Result<_>>()?;
                let new_states = || -> Vec<AggState> {
                    aggregates.iter().map(|(f, _, _)| AggState::new(*f)).collect()
                };
                // Group states keyed by the grouping values. `key` is one
                // buffer refilled per row; only a new group copies it.
                let mut groups: HashMap<Vec<Key<'_>>, (Record, Vec<AggState>)> = HashMap::new();
                let mut key: Vec<Key<'_>> = Vec::with_capacity(group_idx.len());
                for r in batch.rows() {
                    self.stats.hash_build_rows += 1;
                    key.clear();
                    key.extend(group_idx.iter().map(|&i| Key(&r[i])));
                    let update = |states: &mut [AggState]| {
                        for (state, idx) in states.iter_mut().zip(&agg_idx) {
                            state.update(idx.map(|i| &r[i]));
                        }
                    };
                    if let Some((_, states)) = groups.get_mut(&key) {
                        update(states);
                    } else {
                        let reps: Record = group_idx.iter().map(|&i| r[i].clone()).collect();
                        let mut states = new_states();
                        update(&mut states);
                        groups.insert(key.clone(), (reps, states));
                    }
                }
                // A global aggregate over zero rows still yields one row.
                if groups.is_empty() && group_idx.is_empty() {
                    groups.insert(Vec::new(), (Vec::new(), new_states()));
                }
                let mut out: Vec<Record> = groups
                    .into_values()
                    .map(|(mut reps, states)| {
                        reps.extend(states.into_iter().map(AggState::finish));
                        reps
                    })
                    .collect();
                // Deterministic output order for tests and reports.
                out.sort_by(cmp_records);
                self.stats.rows_produced += out.len() as u64;
                Ok(Batch::Owned(out))
            }
            LogicalPlan::Sort { input, keys } => {
                let schema = input.schema();
                let mut rows = self.execute(input)?.into_owned();
                let key_idx: Vec<(usize, bool)> = keys
                    .iter()
                    .map(|(k, desc)| {
                        schema
                            .index_of(k)
                            .map(|i| (i, *desc))
                            .ok_or_else(|| BdbError::NotFound(format!("sort key {k}")))
                    })
                    .collect::<Result<_>>()?;
                let mut comparisons = 0u64;
                rows.sort_by(|a, b| {
                    for &(i, desc) in &key_idx {
                        comparisons += 1;
                        let ord = a[i].total_cmp(&b[i]);
                        let ord = if desc { ord.reverse() } else { ord };
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                self.stats.sort_comparisons += comparisons;
                self.stats.rows_produced += rows.len() as u64;
                Ok(Batch::Owned(rows))
            }
            LogicalPlan::Limit { input, n } => {
                let batch = match self.execute(input)? {
                    Batch::Lent { rows, map } => {
                        Batch::Lent { rows: &rows[..rows.len().min(*n)], map }
                    }
                    Batch::Owned(mut rows) => {
                        rows.truncate(*n);
                        Batch::Owned(rows)
                    }
                };
                self.stats.rows_produced += batch.rows().len() as u64;
                Ok(batch)
            }
        }
    }
}

/// Streaming aggregate accumulator.
#[derive(Debug, Clone)]
enum AggState {
    Count(u64),
    SumInt { sum: i64, any: bool, as_float: bool, fsum: f64 },
    Avg { sum: f64, n: u64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::SumInt { sum: 0, any: false, as_float: false, fsum: 0.0 },
            AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    fn update(&mut self, v: Option<&Value>) {
        match self {
            AggState::Count(n) => {
                // COUNT(*) counts rows; COUNT(col) skips NULLs.
                match v {
                    None => *n += 1,
                    Some(val) if !val.is_null() => *n += 1,
                    Some(_) => {}
                }
            }
            AggState::SumInt { sum, any, as_float, fsum } => {
                if let Some(val) = v {
                    match val {
                        Value::Int(i) => {
                            *sum += i;
                            *fsum += *i as f64;
                            *any = true;
                        }
                        Value::Float(f) => {
                            *fsum += f;
                            *as_float = true;
                            *any = true;
                        }
                        _ => {}
                    }
                }
            }
            AggState::Avg { sum, n } => {
                if let Some(x) = v.and_then(Value::as_f64) {
                    *sum += x;
                    *n += 1;
                }
            }
            AggState::Min(cur) => {
                if let Some(val) = v {
                    if !val.is_null() && cur.as_ref().is_none_or(|c| val.total_cmp(c).is_lt()) {
                        *cur = Some(val.clone());
                    }
                }
            }
            AggState::Max(cur) => {
                if let Some(val) = v {
                    if !val.is_null() && cur.as_ref().is_none_or(|c| val.total_cmp(c).is_gt()) {
                        *cur = Some(val.clone());
                    }
                }
            }
        }
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n as i64),
            AggState::SumInt { sum, any, as_float, fsum } => {
                if !any {
                    Value::Null
                } else if as_float {
                    Value::Float(fsum)
                } else {
                    Value::Int(sum)
                }
            }
            AggState::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use bdb_common::value::{DataType, Field, Schema};

    fn engine() -> Engine {
        let mut e = Engine::new();
        let orders = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("user_id", DataType::Int),
            Field::new("total", DataType::Float),
            Field::new("city", DataType::Text),
        ]);
        let mut t = Table::new(orders);
        for (id, uid, total, city) in [
            (1, 10, 5.0, "york"),
            (2, 11, 7.5, "leeds"),
            (3, 10, 2.5, "york"),
            (4, 12, 10.0, "hull"),
            (5, 10, 1.0, "leeds"),
        ] {
            t.push(vec![
                Value::Int(id),
                Value::Int(uid),
                Value::Float(total),
                Value::from(city),
            ])
            .unwrap();
        }
        e.register("orders", t).unwrap();

        let users = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("name", DataType::Text),
        ]);
        let mut u = Table::new(users);
        for (id, name) in [(10, "ann"), (11, "bob"), (13, "cat")] {
            u.push(vec![Value::Int(id), Value::from(name)]).unwrap();
        }
        e.register("users", u).unwrap();
        e
    }

    #[test]
    fn filter_project() {
        let e = engine();
        let out = e
            .sql("SELECT id, total * 2 AS dbl FROM orders WHERE total >= 5.0")
            .unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.rows()[0][1], Value::Float(10.0));
    }

    #[test]
    fn global_aggregates() {
        let e = engine();
        let out = e
            .sql("SELECT COUNT(*), SUM(total), AVG(total), MIN(total), MAX(total) FROM orders")
            .unwrap();
        let r = &out.rows()[0];
        assert_eq!(r[0], Value::Int(5));
        assert_eq!(r[1], Value::Float(26.0));
        assert_eq!(r[2], Value::Float(5.2));
        assert_eq!(r[3], Value::Float(1.0));
        assert_eq!(r[4], Value::Float(10.0));
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let e = engine();
        let out = e
            .sql("SELECT COUNT(*), SUM(total) FROM orders WHERE total > 100.0")
            .unwrap();
        let r = &out.rows()[0];
        assert_eq!(r[0], Value::Int(0));
        assert!(r[1].is_null());
    }

    #[test]
    fn group_by_aggregation() {
        let e = engine();
        let out = e
            .sql("SELECT city, COUNT(*) AS n, SUM(total) AS t FROM orders GROUP BY city ORDER BY city")
            .unwrap();
        let rows = out.rows();
        assert_eq!(rows.len(), 3);
        // hull, leeds, york in order.
        assert_eq!(rows[0][0], Value::from("hull"));
        assert_eq!(rows[0][1], Value::Int(1));
        assert_eq!(rows[2][0], Value::from("york"));
        assert_eq!(rows[2][2], Value::Float(7.5));
    }

    #[test]
    fn hash_join_inner_semantics() {
        let e = engine();
        let out = e
            .sql(
                "SELECT users.name, orders.total FROM orders JOIN users ON orders.user_id = users.id ORDER BY orders.total",
            )
            .unwrap();
        // user 12 has no match; user 13 has no orders.
        assert_eq!(out.len(), 4);
        assert_eq!(out.rows()[0][0], Value::from("ann")); // total 1.0
        assert_eq!(out.rows()[3][1], Value::Float(7.5)); // bob's order
    }

    #[test]
    fn join_then_group() {
        let e = engine();
        let out = e
            .sql(
                "SELECT users.name, SUM(orders.total) AS spend FROM orders JOIN users ON orders.user_id = users.id GROUP BY users.name ORDER BY spend DESC",
            )
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.rows()[0][0], Value::from("ann"));
        assert_eq!(out.rows()[0][1], Value::Float(8.5));
    }

    #[test]
    fn order_by_desc_and_limit() {
        let e = engine();
        let out = e
            .sql("SELECT id FROM orders ORDER BY total DESC LIMIT 2")
            .unwrap();
        let ids: Vec<i64> = out.rows().iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(ids, vec![4, 2]);
    }

    #[test]
    fn count_column_skips_nulls() {
        let mut e = Engine::new();
        let schema = Schema::new(vec![Field::nullable("x", DataType::Int)]);
        let mut t = Table::new(schema);
        t.push(vec![Value::Int(1)]).unwrap();
        t.push(vec![Value::Null]).unwrap();
        t.push(vec![Value::Int(3)]).unwrap();
        e.register("t", t).unwrap();
        let out = e.sql("SELECT COUNT(*), COUNT(x) FROM t").unwrap();
        assert_eq!(out.rows()[0][0], Value::Int(3));
        assert_eq!(out.rows()[0][1], Value::Int(2));
    }

    #[test]
    fn stats_count_join_work() {
        let e = engine();
        e.sql("SELECT users.name FROM orders JOIN users ON orders.user_id = users.id")
            .unwrap();
        let s = e.stats();
        assert!(s.hash_build_rows > 0);
        assert!(s.hash_probe_rows > 0);
        assert!(s.total_ops() > 0);
    }

    #[test]
    fn select_distinct_dedupes() {
        let e = engine();
        let out = e.sql("SELECT DISTINCT city FROM orders ORDER BY city").unwrap();
        let cities: Vec<String> = out
            .rows()
            .iter()
            .map(|r| r[0].as_str().unwrap().to_string())
            .collect();
        assert_eq!(cities, vec!["hull", "leeds", "york"]);
    }

    #[test]
    fn having_filters_groups() {
        let e = engine();
        let out = e
            .sql("SELECT city, COUNT(*) AS n FROM orders GROUP BY city HAVING n >= 2 ORDER BY city")
            .unwrap();
        assert_eq!(out.len(), 2); // leeds and york have 2 orders each
        for row in out.rows() {
            assert!(row[1].as_i64().unwrap() >= 2);
        }
        // HAVING on an aggregate's default name works too.
        let out = e
            .sql("SELECT city, SUM(total) FROM orders GROUP BY city HAVING sum_total > 8.0")
            .unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn having_without_group_by_is_rejected() {
        let e = engine();
        assert!(e.sql("SELECT id FROM orders HAVING id > 1").is_err());
    }

    /// The one behaviour bound expressions change: a column the input
    /// does not have is reported when the operator binds, so also when
    /// the input has no rows to evaluate it against.
    #[test]
    fn unknown_column_over_an_empty_input_is_a_named_error() {
        let mut catalog = Catalog::new();
        catalog
            .register("empty", Table::new(Schema::new(vec![Field::new("x", DataType::Int)])))
            .unwrap();
        let scan = || LogicalPlan::Scan {
            table: "empty".into(),
            schema: Schema::new(vec![Field::new("x", DataType::Int)]),
            projection: None,
        };
        let nope = || Expr::col("nope");
        let filter = LogicalPlan::Filter { input: Box::new(scan()), predicate: nope() };
        let project = LogicalPlan::Project {
            input: Box::new(scan()),
            exprs: vec![(nope(), "y".into())],
            schema: Schema::new(vec![Field::nullable("y", DataType::Int)]),
        };
        for plan in [filter, project] {
            let err = Executor::new(&catalog).run(&plan).unwrap_err();
            assert_eq!(err, BdbError::NotFound("column nope".into()), "{}", plan.describe());
        }
    }

    /// Every operator reads a pruned scan's stored rows through the
    /// scan's column map — here with no `Project` in between, which SQL
    /// text never produces for a join.
    #[test]
    fn a_pruned_scan_feeds_every_operator_directly() {
        let e = engine();
        let field = |name: &str, dt| Field::new(name, dt);
        // orders(id, user_id, total, city) kept as (total, user_id).
        let orders = || LogicalPlan::Scan {
            table: "orders".into(),
            schema: Schema::new(vec![field("total", DataType::Float), field("user_id", DataType::Int)]),
            projection: Some(vec![2, 1]),
        };
        // users(id, name) kept as (name, id).
        let users = || LogicalPlan::Scan {
            table: "users".into(),
            schema: Schema::new(vec![field("name", DataType::Text), field("id", DataType::Int)]),
            projection: Some(vec![1, 0]),
        };
        let run = |plan: &LogicalPlan| {
            let mut exec = Executor::new(e.catalog());
            let out = exec.run(plan).unwrap();
            (out.rows().to_vec(), *exec.stats())
        };
        let row = |total: f64, uid: i64| vec![Value::Float(total), Value::Int(uid)];

        let (rows, stats) = run(&orders());
        assert_eq!(rows[0], row(5.0, 10));
        assert_eq!((stats.rows_scanned, stats.rows_produced), (5, 5));

        let (rows, _) = run(&LogicalPlan::Limit { input: Box::new(orders()), n: 2 });
        assert_eq!(rows, vec![row(5.0, 10), row(7.5, 11)]);

        let (rows, _) = run(&LogicalPlan::Sort {
            input: Box::new(orders()),
            keys: vec![("total".into(), true)],
        });
        assert_eq!(rows[0], row(10.0, 12));

        let join = LogicalPlan::Join {
            left: Box::new(orders()),
            right: Box::new(users()),
            left_key: "user_id".into(),
            right_key: "id".into(),
            schema: Schema::new(vec![
                field("total", DataType::Float),
                field("user_id", DataType::Int),
                field("name", DataType::Text),
                field("id", DataType::Int),
            ]),
        };
        let (mut rows, stats) = run(&join);
        rows.sort_by(cmp_records);
        assert_eq!(rows.len(), 4);
        assert_eq!(
            rows[0],
            vec![Value::Float(1.0), Value::Int(10), Value::from("ann"), Value::Int(10)]
        );
        // users (3 rows) builds, orders (5) probes.
        assert_eq!((stats.hash_build_rows, stats.hash_probe_rows), (3, 5));

        let (rows, _) = run(&LogicalPlan::Aggregate {
            input: Box::new(orders()),
            group_by: vec!["user_id".into()],
            aggregates: vec![(AggFunc::Sum, Some("total".into()), "spend".into())],
            schema: Schema::new(vec![
                field("user_id", DataType::Int),
                Field::nullable("spend", DataType::Float),
            ]),
        });
        assert_eq!(rows[0], vec![Value::Int(10), Value::Float(8.5)]);
        assert_eq!(rows.len(), 3);
    }

    /// Join and group keys are [`Key`]s: an Int equals the Float of the
    /// same value and `-0.0` equals `0.0`, as on every other engine.
    #[test]
    fn int_and_float_keys_of_one_value_join_and_group_together() {
        let mut e = Engine::new();
        let mut ints = Table::new(Schema::new(vec![Field::new("k", DataType::Int)]));
        let mut floats = Table::new(Schema::new(vec![Field::new("f", DataType::Float)]));
        for k in [0, 1, 2] {
            ints.push(vec![Value::Int(k)]).unwrap();
        }
        for f in [-0.0, 0.0, 1.0, 1.5] {
            floats.push(vec![Value::Float(f)]).unwrap();
        }
        e.register("ints", ints).unwrap();
        e.register("floats", floats).unwrap();
        let joined = e
            .sql("SELECT ints.k, floats.f FROM ints JOIN floats ON ints.k = floats.f")
            .unwrap();
        let mut pairs: Vec<String> =
            joined.rows().iter().map(|r| format!("{}={}", r[0], r[1])).collect();
        pairs.sort();
        assert_eq!(pairs, ["0=-0", "0=0", "1=1"]);
        let grouped = e.sql("SELECT f, COUNT(*) FROM floats GROUP BY f").unwrap();
        let counts: Vec<i64> = grouped.rows().iter().map(|r| r[1].as_i64().unwrap()).collect();
        assert_eq!(counts, [2, 1, 1], "the two zeros are one group");
    }

    /// `ORDER BY` sorts by a total order: NaN (after every number) and a
    /// mixed-type column neither panic the sort nor order differently
    /// between two runs.
    #[test]
    fn order_by_over_nan_and_mixed_type_columns_is_total() {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Float),
            Field::nullable("m", DataType::Int),
        ]);
        let mut t = Table::new(schema);
        for i in 0..64 {
            let x = if i % 3 == 0 { f64::NAN } else { f64::from(i % 7) - 3.0 };
            let m = match i % 4 {
                0 => Value::Int(i64::from(i % 5)),
                1 => Value::from("t"),
                2 => Value::Null,
                _ => Value::Float(f64::from(i % 5) + 0.5),
            };
            // Unchecked: a typed table cannot hold the mixed column.
            t.push_unchecked(vec![Value::Float(x), m]);
        }
        let mut catalog = Catalog::new();
        catalog.register("t", t.clone()).unwrap();
        for key in ["x", "m"] {
            let plan = LogicalPlan::Sort {
                input: Box::new(LogicalPlan::Scan {
                    table: "t".into(),
                    schema: t.schema().clone(),
                    projection: None,
                }),
                keys: vec![(key.into(), false)],
            };
            // `run` validates rows against the schema, which the mixed
            // column fails by design; `execute` is the sort itself.
            let sorted = |plan: &LogicalPlan| {
                let rows = Executor::new(&catalog).execute(plan).unwrap().into_owned();
                rows.iter().map(|r| format!("{r:?}")).collect::<Vec<_>>()
            };
            let once = sorted(&plan);
            assert_eq!(sorted(&plan), once, "ORDER BY {key}");
            assert_eq!(once.len(), 64);
            if key == "x" {
                assert!(once[..42].iter().all(|r| !r.contains("NaN")), "numbers first");
                assert!(once[42..].iter().all(|r| r.contains("NaN")), "NaN last");
            }
        }
    }

    #[test]
    fn sum_of_ints_stays_int() {
        let e = engine();
        let out = e.sql("SELECT SUM(id) FROM orders").unwrap();
        assert_eq!(out.rows()[0][0], Value::Int(15));
    }
}
