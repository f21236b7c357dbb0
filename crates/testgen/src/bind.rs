//! Binding abstract tests to concrete engines (the *system view*).
//!
//! "An abstracted benchmark test ... is independent of underlying systems
//! and software stacks. From the system view, this abstract test can be
//! implemented over different systems and thereby allows the comparison of
//! systems of the same type" — and, via the functional view, of different
//! types. [`SqlBinding`] lowers a pattern to relational plans on
//! `bdb-sql`; [`MapReduceBinding`] lowers the same pattern to MapReduce
//! jobs on `bdb-mapreduce` (map-only jobs for select and project). Both
//! are lent their input rows, build their output by one schema rule and
//! compare keys by one order (`Value::total_cmp`), so that both produce
//! identical result sets (up to row order) — which the ABL2 ablation
//! bench, the binding tests and `tests/engine_equivalence.rs` verify.

use crate::ops::{AggSpec, CompareOp, Operation, PredicateSpec, ScalarSpec};
use crate::pattern::{InputRef, Step, WorkloadPattern};
use bdb_common::record::{cmp_records, Record, Table};
use bdb_common::value::{DataType, Field, Key, Schema, Value};
use bdb_common::{BdbError, Result};
use bdb_mapreduce::{run_job, run_map, JobConfig};
use bdb_sql::expr::{BinOp, Expr};
use bdb_sql::parser::AggFunc;
use bdb_sql::plan::LogicalPlan;
use bdb_sql::{Catalog, Executor};
use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

/// One executed step of a bound test, for structured tracing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepExecution {
    /// Operation name (see `Operation::name`).
    pub op: String,
    /// Rows the step produced.
    pub rows_out: u64,
    /// Wall-clock time of the step.
    pub elapsed: Duration,
}

/// The result of executing a bound test.
#[derive(Debug)]
pub struct BoundExecution {
    /// The terminal step's output.
    pub output: Table,
    /// Record-level operations the engine performed.
    pub record_ops: u64,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// Per-step execution records, in DAG order.
    pub steps: Vec<StepExecution>,
}

impl BoundExecution {
    /// Output rows sorted canonically, for cross-engine comparison.
    pub fn sorted_rows(&self) -> Vec<Record> {
        let mut rows = Vec::from(self.output.rows());
        rows.sort_by(cmp_records);
        rows
    }
}

/// How a binding is lent its input tables: a lookup by data-set name.
/// Nothing is copied; the tables outlive the call.
pub type TableLookup<'a, 't> = &'a dyn Fn(&str) -> Option<&'t Table>;

/// An engine that can execute table-processing workload patterns.
pub trait PatternExecutor {
    /// Engine name for reports.
    fn name(&self) -> &'static str;

    /// Execute `pattern` over the tables `dataset` lends by name. The one
    /// method a binding implements.
    fn execute_lent(
        &self,
        pattern: &WorkloadPattern,
        dataset: TableLookup<'_, '_>,
    ) -> Result<BoundExecution>;

    /// [`Self::execute_lent`] over an owned map of tables.
    fn execute(
        &self,
        pattern: &WorkloadPattern,
        datasets: &BTreeMap<String, Table>,
    ) -> Result<BoundExecution> {
        self.execute_lent(pattern, &|name| datasets.get(name))
    }
}

// ---------------------------------------------------------------------
// Shared lowering helpers
// ---------------------------------------------------------------------

fn predicate_to_expr(p: &PredicateSpec) -> Expr {
    let lit = match &p.value {
        ScalarSpec::Int(i) => Value::Int(*i),
        ScalarSpec::Float(f) => Value::Float(*f),
        ScalarSpec::Text(s) => Value::Text(s.clone()),
    };
    let op = match p.op {
        CompareOp::Eq => BinOp::Eq,
        CompareOp::Ne => BinOp::Ne,
        CompareOp::Lt => BinOp::Lt,
        CompareOp::Le => BinOp::Le,
        CompareOp::Gt => BinOp::Gt,
        CompareOp::Ge => BinOp::Ge,
    };
    Expr::binary(Expr::col(&p.column), op, Expr::Literal(lit))
}

fn col_index(schema: &Schema, name: &str) -> Result<usize> {
    schema
        .index_of(name)
        .ok_or_else(|| BdbError::NotFound(format!("column {name}")))
}

/// The schema `op` produces over `inputs`: the one rule both bindings
/// build their output tables by.
fn output_schema(op: &Operation, inputs: &[&Table]) -> Result<Schema> {
    let input = inputs[0].schema();
    let field = |name: &String| col_index(input, name).map(|i| input.fields()[i].clone());
    let qualified = |prefix: &'static str, t: &Table| -> Vec<Field> {
        // Qualify both join sides to avoid duplicate column names.
        let fields = t.schema().fields().iter();
        fields.map(|f| Field::nullable(format!("{prefix}.{}", f.name), f.data_type)).collect()
    };
    Ok(match op {
        Operation::Select { .. }
        | Operation::SortBy { .. }
        | Operation::TopK { .. }
        | Operation::IntersectOn { .. } => input.clone(),
        Operation::Project { columns } => {
            input.project(&columns.iter().map(String::as_str).collect::<Vec<_>>())?
        }
        Operation::Count => Schema::new(vec![Field::nullable("count", DataType::Int)]),
        Operation::Distinct { column } => Schema::new(vec![field(column)?]),
        Operation::Aggregate { function, column, group_by } => {
            let mut fields: Vec<Field> = group_by.iter().map(field).collect::<Result<_>>()?;
            let out_type = match function {
                AggSpec::Count => DataType::Int,
                AggSpec::Avg => DataType::Float,
                _ => column
                    .as_ref()
                    .and_then(|c| input.field(c))
                    .map_or(DataType::Float, |f| f.data_type),
            };
            fields.push(Field::nullable("agg", out_type));
            Schema::new(fields)
        }
        Operation::Join { .. } => {
            let mut fields = qualified("l", inputs[0]);
            fields.extend(qualified("r", inputs[1]));
            Schema::new(fields)
        }
        Operation::Union if input != inputs[1].schema() => {
            return Err(BdbError::TestGen("union schema mismatch".into()))
        }
        Operation::Union => input.clone(),
        other => {
            return Err(BdbError::TestGen(format!(
                "operation {} has no table lowering",
                other.name()
            )))
        }
    })
}

/// Union is the same on every engine: the rows of both inputs, in order
/// ([`output_schema`] has checked the schemas match).
fn union(inputs: &[&Table]) -> Result<Table> {
    let mut t = inputs[0].clone();
    t.append(inputs[1].clone())?;
    Ok(t)
}

/// The one DAG walk both bindings share: resolve the tables each step
/// consumes (lent data sets or earlier steps' outputs), in pattern order,
/// and time every step. `run_step` executes one operation over its inputs
/// and reports the record-level operations it performed.
fn run_pattern<F>(
    pattern: &WorkloadPattern,
    dataset: TableLookup<'_, '_>,
    mut run_step: F,
) -> Result<BoundExecution>
where
    F: FnMut(&Operation, Vec<&Table>) -> Result<(Table, u64)>,
{
    let steps = steps_of(pattern)?;
    let start = Instant::now();
    let mut record_ops = 0u64;
    let mut executed = Vec::with_capacity(steps.len());
    let mut outputs: BTreeMap<u32, Table> = BTreeMap::new();
    let mut terminal = None;
    for step in &steps {
        let mut inputs: Vec<&Table> = Vec::with_capacity(step.inputs.len());
        for r in &step.inputs {
            let t = match r {
                InputRef::Dataset(name) => dataset(name)
                    .ok_or_else(|| BdbError::NotFound(format!("dataset {name}")))?,
                InputRef::Step(id) => outputs
                    .get(id)
                    .ok_or_else(|| BdbError::TestGen(format!("step {id} not yet run")))?,
            };
            inputs.push(t);
        }
        let t0 = Instant::now();
        let (out, ops) = run_step(&step.op, inputs)?;
        record_ops += ops;
        executed.push(StepExecution {
            op: step.op.name().to_string(),
            rows_out: out.len() as u64,
            elapsed: t0.elapsed(),
        });
        outputs.insert(step.id, out);
        terminal = Some(step.id);
    }
    let id = terminal.ok_or_else(|| BdbError::TestGen("empty pattern".into()))?;
    let output = outputs.remove(&id).expect("terminal output exists");
    Ok(BoundExecution { output, record_ops, elapsed: start.elapsed(), steps: executed })
}

fn steps_of(pattern: &WorkloadPattern) -> Result<Vec<Step>> {
    pattern.validate()?;
    Ok(match pattern {
        WorkloadPattern::Single { op, input } => vec![Step {
            id: 0,
            op: op.clone(),
            inputs: vec![InputRef::Dataset(input.clone())],
        }],
        WorkloadPattern::Multi { steps } => steps.clone(),
        WorkloadPattern::Iterative { .. } => {
            return Err(BdbError::TestGen(
                "iterative patterns bind via workload kernels, not table engines".into(),
            ))
        }
    })
}

// ---------------------------------------------------------------------
// SQL binding
// ---------------------------------------------------------------------

/// Lower patterns to `bdb-sql` logical plans.
#[derive(Debug, Default, Clone, Copy)]
pub struct SqlBinding;

impl SqlBinding {
    /// Lend step inputs to a fresh catalog as `__in0` / `__in1`.
    fn input_catalog<'t>(inputs: &[&'t Table]) -> Result<Catalog<&'t Table>> {
        let mut catalog = Catalog::new();
        for (i, t) in inputs.iter().enumerate() {
            catalog.register(&format!("__in{i}"), *t)?;
        }
        Ok(catalog)
    }

    /// Build the logical plan one operation lowers to, or `None` for the
    /// direct table operations (union, intersect) that bypass the
    /// planner.
    ///
    /// # Errors
    /// Fails when the operation has no relational lowering.
    fn build_step_plan(op: &Operation, inputs: &[&Table]) -> Result<Option<LogicalPlan>> {
        let schema = output_schema(op, inputs)?;
        let scan = |i: usize| -> Box<LogicalPlan> {
            Box::new(LogicalPlan::Scan {
                table: format!("__in{i}"),
                schema: inputs[i].schema().clone(),
                projection: None,
            })
        };
        let aggregate = |group_by: &[String], aggregates, schema| LogicalPlan::Aggregate {
            input: scan(0),
            group_by: group_by.to_vec(),
            aggregates,
            schema,
        };
        Ok(Some(match op {
            Operation::Select { predicate } => {
                LogicalPlan::Filter { input: scan(0), predicate: predicate_to_expr(predicate) }
            }
            Operation::Project { columns } => LogicalPlan::Project {
                input: scan(0),
                exprs: columns.iter().map(|c| (Expr::col(c), c.clone())).collect(),
                schema,
            },
            Operation::SortBy { column, descending } => {
                LogicalPlan::Sort { input: scan(0), keys: vec![(column.clone(), *descending)] }
            }
            Operation::TopK { column, k } => LogicalPlan::Limit {
                input: Box::new(LogicalPlan::Sort {
                    input: scan(0),
                    keys: vec![(column.clone(), true)],
                }),
                n: *k,
            },
            Operation::Count => {
                aggregate(&[], vec![(AggFunc::Count, None, "count".into())], schema)
            }
            Operation::Distinct { column } => {
                aggregate(std::slice::from_ref(column), vec![], schema)
            }
            Operation::Aggregate { function, column, group_by } => {
                let func = match function {
                    AggSpec::Count => AggFunc::Count,
                    AggSpec::Sum => AggFunc::Sum,
                    AggSpec::Avg => AggFunc::Avg,
                    AggSpec::Min => AggFunc::Min,
                    AggSpec::Max => AggFunc::Max,
                };
                aggregate(group_by, vec![(func, column.clone(), "agg".into())], schema)
            }
            Operation::Join { left_on, right_on } => {
                // Each side is projected to its share of the qualified
                // output columns.
                let (l_fields, r_fields) = schema.fields().split_at(inputs[0].schema().len());
                let qualify = |i: usize, fields: &[Field]| -> Box<LogicalPlan> {
                    let stored = inputs[i].schema().fields().iter();
                    Box::new(LogicalPlan::Project {
                        input: scan(i),
                        exprs: stored
                            .zip(fields)
                            .map(|(f, q)| (Expr::col(&f.name), q.name.clone()))
                            .collect(),
                        schema: Schema::new(fields.to_vec()),
                    })
                };
                LogicalPlan::Join {
                    left: qualify(0, l_fields),
                    right: qualify(1, r_fields),
                    left_key: format!("l.{left_on}"),
                    right_key: format!("r.{right_on}"),
                    schema,
                }
            }
            // `output_schema` has refused everything without a lowering.
            _ => return Ok(None),
        }))
    }

    /// Execute the direct table operations that bypass the planner.
    fn run_direct(op: &Operation, inputs: &[&Table]) -> Result<Table> {
        match op {
            Operation::IntersectOn { column } => {
                // Semi-join: keep left rows whose key appears on the right.
                let li = col_index(inputs[0].schema(), column)?;
                let ri = col_index(inputs[1].schema(), column)?;
                let keys: HashSet<Key<'_>> = inputs[1].rows().iter().map(|r| Key(&r[ri])).collect();
                let rows = inputs[0].rows().iter().filter(|r| keys.contains(&Key(&r[li])));
                Table::from_rows(inputs[0].schema().clone(), rows.cloned().collect())
            }
            Operation::Union => union(inputs),
            other => Err(BdbError::TestGen(format!(
                "operation {} is not a direct table operation",
                other.name()
            ))),
        }
    }

    fn lower_step(op: &Operation, inputs: Vec<&Table>) -> Result<Table> {
        match Self::build_step_plan(op, &inputs)? {
            Some(plan) => {
                let catalog = Self::input_catalog(&inputs)?;
                let mut exec = Executor::new(&catalog);
                exec.run(&bdb_sql::optimizer::optimize(plan))
            }
            None => Self::run_direct(op, &inputs),
        }
    }
}

impl PatternExecutor for SqlBinding {
    fn name(&self) -> &'static str {
        "sql"
    }

    fn execute_lent(
        &self,
        pattern: &WorkloadPattern,
        dataset: TableLookup<'_, '_>,
    ) -> Result<BoundExecution> {
        run_pattern(pattern, dataset, |op, inputs| {
            let before: u64 = inputs.iter().map(|t| t.len() as u64).sum();
            let out = Self::lower_step(op, inputs)?;
            let ops = before + out.len() as u64;
            Ok((out, ops))
        })
    }
}

// ---------------------------------------------------------------------
// MapReduce binding
// ---------------------------------------------------------------------

/// Lower patterns to MapReduce jobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct MapReduceBinding {
    /// Job configuration used for every lowered job.
    pub config: JobConfig,
}

/// Both inputs of a two-input job as one tagged input: 0 = left, 1 = right.
fn tagged<'t>(left: &'t Table, right: &'t Table) -> Vec<(u8, &'t Record)> {
    let side = |tag, t: &'t Table| t.rows().iter().map(move |r| (tag, r));
    side(0, left).chain(side(1, right)).collect()
}

impl MapReduceBinding {
    fn run_step(&self, op: &Operation, inputs: Vec<&Table>) -> Result<(Table, u64)> {
        let cfg = &self.config;
        let schema = output_schema(op, &inputs)?;
        let input = inputs[0].schema();
        let rows = inputs[0].rows();
        let (out, ops) = match op {
            // Select and project are map-only jobs, as Hive plans them.
            Operation::Select { predicate } => {
                let pred = predicate_to_expr(predicate).bind(input)?;
                let r = run_map(cfg, rows, |row: &Record, out| match pred.eval_predicate(row) {
                    Ok(true) => out(Ok(row.clone())),
                    Ok(false) => {}
                    Err(e) => out(Err(e)),
                });
                // The first error in input order, as the SQL filter reports.
                let selected = r.outputs.into_iter().collect::<Result<_>>()?;
                (selected, r.counters.total_record_ops())
            }
            Operation::Project { columns } => {
                let idx: Vec<usize> =
                    columns.iter().map(|c| col_index(input, c)).collect::<Result<_>>()?;
                let r = run_map(cfg, rows, |row: &Record, out| {
                    out(idx.iter().map(|&i| row[i].clone()).collect::<Record>());
                });
                (r.outputs, r.counters.total_record_ops())
            }
            Operation::SortBy { column, descending } => {
                // The classic MR sort: key on the column, one reducer,
                // framework sort order.
                let idx = col_index(input, column)?;
                let r = run_job(
                    &JobConfig { reduce_tasks: 1, ..*cfg },
                    rows,
                    |row, emit| emit(Key(&row[idx]), row),
                    |_k, vs: Vec<&Record>, out| vs.into_iter().for_each(|v| out(v.clone())),
                );
                let mut sorted = r.outputs;
                if *descending {
                    sorted.reverse();
                }
                (sorted, r.counters.total_record_ops())
            }
            Operation::TopK { column, k } => {
                let by = Operation::SortBy { column: column.clone(), descending: true };
                let (sorted, ops) = self.run_step(&by, inputs)?;
                let mut top = sorted.into_rows();
                top.truncate(*k);
                (top, ops)
            }
            Operation::Count => {
                let r = run_job(
                    cfg,
                    rows,
                    |_row, emit| emit(0u8, 1u64),
                    |_k, vs: Vec<u64>, out| out(vs.iter().sum::<u64>()),
                );
                let count = r.outputs.first().copied().unwrap_or(0);
                (vec![vec![Value::Int(count as i64)]], r.counters.total_record_ops())
            }
            Operation::Distinct { column } => {
                let idx = col_index(input, column)?;
                let r = run_job(
                    cfg,
                    rows,
                    |row, emit| emit(Key(&row[idx]), ()),
                    |k, _vs: Vec<()>, out| out(vec![k.0.clone()]),
                );
                (r.outputs, r.counters.total_record_ops())
            }
            Operation::Aggregate { function, column, group_by } => {
                self.run_aggregate(*function, column.as_deref(), group_by, inputs[0])?
            }
            Operation::Join { left_on, right_on } => {
                let li = col_index(input, left_on)?;
                let ri = col_index(inputs[1].schema(), right_on)?;
                let r = run_job(
                    cfg,
                    &tagged(inputs[0], inputs[1]),
                    |&(tag, row), emit| {
                        let key = &row[if tag == 0 { li } else { ri }];
                        if !key.is_null() {
                            emit(Key(key), (tag, row));
                        }
                    },
                    |_k, vs: Vec<(u8, &Record)>, out| {
                        let (lefts, rights): (Vec<_>, Vec<_>) =
                            vs.into_iter().partition(|(t, _)| *t == 0);
                        for (_, l) in &lefts {
                            for (_, r) in &rights {
                                out(l.iter().chain(r.iter()).cloned().collect::<Record>());
                            }
                        }
                    },
                );
                (r.outputs, r.counters.total_record_ops())
            }
            Operation::IntersectOn { column } => {
                // Repartition semi-join as one MR job over tagged rows.
                let li = col_index(input, column)?;
                let ri = col_index(inputs[1].schema(), column)?;
                let r = run_job(
                    cfg,
                    &tagged(inputs[0], inputs[1]),
                    |&(tag, row), emit| emit(Key(&row[if tag == 0 { li } else { ri }]), (tag, row)),
                    |_k, vs: Vec<(u8, &Record)>, out| {
                        if vs.iter().any(|(t, _)| *t == 1) {
                            for (_, row) in vs.iter().filter(|(t, _)| *t == 0) {
                                out((*row).clone());
                            }
                        }
                    },
                );
                (r.outputs, r.counters.total_record_ops())
            }
            // Union is all that is left: `output_schema` refused the rest.
            _ => {
                let t = union(&inputs)?;
                let n = t.len() as u64;
                return Ok((t, n));
            }
        };
        Ok((Table::from_rows(schema, out)?, ops))
    }

    fn run_aggregate(
        &self,
        function: AggSpec,
        column: Option<&str>,
        group_by: &[String],
        input: &Table,
    ) -> Result<(Vec<Record>, u64)> {
        let schema = input.schema();
        let group_idx: Vec<usize> =
            group_by.iter().map(|g| col_index(schema, g)).collect::<Result<_>>()?;
        let col_idx = column.map(|c| col_index(schema, c)).transpose()?;
        // COUNT(*) counts a non-null constant per row.
        static ONE: Value = Value::Int(1);
        let r = run_job(
            &self.config,
            input.rows(),
            |row, emit| {
                let key: Vec<Key<'_>> = group_idx.iter().map(|&i| Key(&row[i])).collect();
                emit(key, col_idx.map_or(&ONE, |i| &row[i]));
            },
            |key, vs: Vec<&Value>, out| {
                let present = || vs.iter().copied().filter(|v| !v.is_null());
                let or_null = |v: Option<&Value>| v.cloned().unwrap_or(Value::Null);
                let agg = match function {
                    AggSpec::Count => Value::Int(present().count() as i64),
                    // SQL's SUM: NULL when the group has no value to add.
                    AggSpec::Sum if present().next().is_none() => Value::Null,
                    AggSpec::Sum => {
                        if vs.iter().all(|v| matches!(v, Value::Int(_) | Value::Null)) {
                            Value::Int(vs.iter().filter_map(|v| v.as_i64()).sum())
                        } else {
                            Value::Float(vs.iter().filter_map(|v| v.as_f64()).sum())
                        }
                    }
                    AggSpec::Avg => {
                        let xs: Vec<f64> = vs.iter().filter_map(|v| v.as_f64()).collect();
                        if xs.is_empty() {
                            Value::Null
                        } else {
                            Value::Float(xs.iter().sum::<f64>() / xs.len() as f64)
                        }
                    }
                    AggSpec::Min => or_null(present().min_by(|a, b| a.total_cmp(b))),
                    AggSpec::Max => or_null(present().max_by(|a, b| a.total_cmp(b))),
                };
                let mut row: Record = key.iter().map(|k| k.0.clone()).collect();
                row.push(agg);
                out(row);
            },
        );
        let mut rows = r.outputs;
        // Deterministic order, matching the SQL engine's aggregate output.
        rows.sort_by(cmp_records);
        Ok((rows, r.counters.total_record_ops()))
    }
}

impl PatternExecutor for MapReduceBinding {
    fn name(&self) -> &'static str {
        "mapreduce"
    }

    fn execute_lent(
        &self,
        pattern: &WorkloadPattern,
        dataset: TableLookup<'_, '_>,
    ) -> Result<BoundExecution> {
        run_pattern(pattern, dataset, |op, inputs| self.run_step(op, inputs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{CompareOp, ScalarSpec};
    use crate::pattern::{InputRef, Step};

    fn orders() -> Table {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("user_id", DataType::Int),
            Field::new("total", DataType::Float),
            Field::new("city", DataType::Text),
        ]);
        let mut t = Table::new(schema);
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
        t
    }

    fn users() -> Table {
        let schema = Schema::new(vec![
            Field::new("uid", DataType::Int),
            Field::new("name", DataType::Text),
        ]);
        let mut t = Table::new(schema);
        for (uid, name) in [(10, "ann"), (11, "bob"), (13, "cat")] {
            t.push(vec![Value::Int(uid), Value::from(name)]).unwrap();
        }
        t
    }

    fn datasets() -> BTreeMap<String, Table> {
        let mut m = BTreeMap::new();
        m.insert("orders".to_string(), orders());
        m.insert("users".to_string(), users());
        m
    }

    fn both_agree(pattern: &WorkloadPattern) -> (BoundExecution, BoundExecution) {
        let ds = datasets();
        let sql = SqlBinding.execute(pattern, &ds).unwrap();
        let mr = MapReduceBinding::default().execute(pattern, &ds).unwrap();
        assert_eq!(
            sql.sorted_rows(),
            mr.sorted_rows(),
            "engines disagree on {pattern:?}"
        );
        (sql, mr)
    }

    #[test]
    fn select_agrees_across_engines() {
        let p = WorkloadPattern::Single {
            op: Operation::Select {
                predicate: PredicateSpec {
                    column: "total".into(),
                    op: CompareOp::Ge,
                    value: ScalarSpec::Float(5.0),
                },
            },
            input: "orders".into(),
        };
        let (sql, _) = both_agree(&p);
        assert_eq!(sql.output.len(), 3);
    }

    #[test]
    fn select_on_an_unknown_column_is_a_named_error_on_both_engines() {
        let p = WorkloadPattern::Single {
            op: Operation::Select {
                predicate: PredicateSpec {
                    column: "nope".into(),
                    op: CompareOp::Eq,
                    value: ScalarSpec::Int(1),
                },
            },
            input: "orders".into(),
        };
        let want = BdbError::NotFound("column nope".into());
        assert_eq!(SqlBinding.execute(&p, &datasets()).unwrap_err(), want);
        assert_eq!(MapReduceBinding::default().execute(&p, &datasets()).unwrap_err(), want);
    }

    /// A predicate the column cannot be compared by is an error on both
    /// engines, not an empty selection on one of them.
    #[test]
    fn select_with_an_untypable_predicate_is_the_same_error_on_both_engines() {
        let p = WorkloadPattern::Single {
            op: Operation::Select {
                predicate: PredicateSpec {
                    column: "user_id".into(),
                    op: CompareOp::Eq,
                    value: ScalarSpec::Text("x".into()),
                },
            },
            input: "orders".into(),
        };
        let sql = SqlBinding.execute(&p, &datasets()).unwrap_err();
        assert!(matches!(sql, BdbError::TypeMismatch { .. }), "{sql:?}");
        // Whatever the split count, the first failing row in input order reports.
        for map_tasks in [1, 2, 5] {
            let mr = MapReduceBinding { config: JobConfig { map_tasks, ..JobConfig::default() } };
            assert_eq!(mr.execute(&p, &datasets()).unwrap_err(), sql, "{map_tasks} map tasks");
        }
    }

    /// Select and project are map-only jobs: rows in and rows out, no
    /// shuffle or reduce records, and input order kept.
    #[test]
    fn select_and_project_run_map_only() {
        let select = Operation::Select {
            predicate: PredicateSpec {
                column: "total".into(),
                op: CompareOp::Ge,
                value: ScalarSpec::Float(5.0),
            },
        };
        let project = Operation::Project { columns: vec!["city".into(), "id".into()] };
        for (op, rows_out) in [(select, 3), (project, 5)] {
            let p = WorkloadPattern::Single { op, input: "orders".into() };
            let (sql, mr) = both_agree(&p);
            assert_eq!(mr.record_ops, 5 + rows_out, "{p:?}");
            assert_eq!(mr.output, sql.output, "same rows in the same (input) order");
        }
    }

    #[test]
    fn project_and_sort_agree() {
        let p = WorkloadPattern::Multi {
            steps: vec![
                Step {
                    id: 0,
                    op: Operation::Project { columns: vec!["city".into(), "total".into()] },
                    inputs: vec![InputRef::Dataset("orders".into())],
                },
                Step {
                    id: 1,
                    op: Operation::SortBy { column: "total".into(), descending: false },
                    inputs: vec![InputRef::Step(0)],
                },
            ],
        };
        let (sql, mr) = both_agree(&p);
        // Sorted ascending by total on both engines (ordered comparison,
        // not just set equality).
        let totals = |t: &Table| -> Vec<f64> {
            t.rows().iter().map(|r| r[1].as_f64().unwrap()).collect()
        };
        assert_eq!(totals(&sql.output), vec![1.0, 2.5, 5.0, 7.5, 10.0]);
        assert_eq!(totals(&mr.output), totals(&sql.output));
    }

    #[test]
    fn grouped_aggregate_agrees() {
        let p = WorkloadPattern::Single {
            op: Operation::Aggregate {
                function: AggSpec::Sum,
                column: Some("total".into()),
                group_by: vec!["city".into()],
            },
            input: "orders".into(),
        };
        let (sql, _) = both_agree(&p);
        assert_eq!(sql.output.len(), 3);
    }

    #[test]
    fn global_avg_agrees() {
        let p = WorkloadPattern::Single {
            op: Operation::Aggregate {
                function: AggSpec::Avg,
                column: Some("total".into()),
                group_by: vec![],
            },
            input: "orders".into(),
        };
        let (sql, _) = both_agree(&p);
        assert_eq!(sql.output.rows()[0].last().unwrap(), &Value::Float(5.2));
    }

    #[test]
    fn count_distinct_topk_agree() {
        for op in [
            Operation::Count,
            Operation::Distinct { column: "city".into() },
            Operation::TopK { column: "total".into(), k: 2 },
        ] {
            let p = WorkloadPattern::Single { op, input: "orders".into() };
            both_agree(&p);
        }
    }

    #[test]
    fn join_agrees_and_matches_inner_semantics() {
        let p = WorkloadPattern::Multi {
            steps: vec![Step {
                id: 0,
                op: Operation::Join { left_on: "user_id".into(), right_on: "uid".into() },
                inputs: vec![
                    InputRef::Dataset("orders".into()),
                    InputRef::Dataset("users".into()),
                ],
            }],
        };
        let (sql, _) = both_agree(&p);
        assert_eq!(sql.output.len(), 4); // user 12 unmatched, user 13 orderless
        assert!(sql.output.schema().index_of("l.total").is_some());
        assert!(sql.output.schema().index_of("r.name").is_some());
    }

    #[test]
    fn join_then_aggregate_pipeline_agrees() {
        let p = WorkloadPattern::Multi {
            steps: vec![
                Step {
                    id: 0,
                    op: Operation::Join { left_on: "user_id".into(), right_on: "uid".into() },
                    inputs: vec![
                        InputRef::Dataset("orders".into()),
                        InputRef::Dataset("users".into()),
                    ],
                },
                Step {
                    id: 1,
                    op: Operation::Aggregate {
                        function: AggSpec::Sum,
                        column: Some("l.total".into()),
                        group_by: vec!["r.name".into()],
                    },
                    inputs: vec![InputRef::Step(0)],
                },
            ],
        };
        let (sql, _) = both_agree(&p);
        assert_eq!(sql.output.len(), 2);
    }

    #[test]
    fn union_and_intersect_agree() {
        let union = WorkloadPattern::Multi {
            steps: vec![Step {
                id: 0,
                op: Operation::Union,
                inputs: vec![
                    InputRef::Dataset("orders".into()),
                    InputRef::Dataset("orders".into()),
                ],
            }],
        };
        let (sql, _) = both_agree(&union);
        assert_eq!(sql.output.len(), 10);

        let mut ds = datasets();
        // Intersect orders with a table sharing the user_id column name.
        let schema = Schema::new(vec![Field::new("user_id", DataType::Int)]);
        let mut small = Table::new(schema);
        small.push(vec![Value::Int(10)]).unwrap();
        ds.insert("keys".into(), small);
        let p = WorkloadPattern::Multi {
            steps: vec![Step {
                id: 0,
                op: Operation::IntersectOn { column: "user_id".into() },
                inputs: vec![
                    InputRef::Dataset("orders".into()),
                    InputRef::Dataset("keys".into()),
                ],
            }],
        };
        let sql = SqlBinding.execute(&p, &ds).unwrap();
        let mr = MapReduceBinding::default().execute(&p, &ds).unwrap();
        assert_eq!(sql.sorted_rows(), mr.sorted_rows());
        assert_eq!(sql.output.len(), 3);
    }

    #[test]
    fn engines_report_work_and_time() {
        let p = WorkloadPattern::Single { op: Operation::Count, input: "orders".into() };
        let (sql, mr) = both_agree(&p);
        assert!(sql.record_ops > 0);
        assert!(mr.record_ops > 0);
        // Both bindings report per-step execution records for tracing.
        assert_eq!(sql.steps.len(), 1);
        assert_eq!(sql.steps[0].op, "count");
        assert_eq!(sql.steps[0].rows_out, 1);
        assert_eq!(mr.steps.len(), 1);
        assert_eq!(mr.steps[0].op, "count");
    }

    #[test]
    fn unbindable_operation_errors() {
        let p = WorkloadPattern::Single {
            op: Operation::Get { key: "k".into() },
            input: "orders".into(),
        };
        assert!(SqlBinding.execute(&p, &datasets()).is_err());
        assert!(MapReduceBinding::default().execute(&p, &datasets()).is_err());
    }

    #[test]
    fn missing_dataset_errors() {
        let p = WorkloadPattern::Single { op: Operation::Count, input: "nope".into() };
        assert!(SqlBinding.execute(&p, &datasets()).is_err());
    }
}
