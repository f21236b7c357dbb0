//! Logical query plans.
//!
//! [`build_logical_plan`] turns a parsed statement into a tree of
//! [`LogicalPlan`] nodes with resolved column references and computed
//! output schemas. Joins qualify every output column as `table.column`, so
//! queries over joins use qualified names (matching how the Pavlo
//! benchmark's join queries are written); unqualified references are
//! resolved by unique suffix match.

use crate::catalog::Catalog;
use crate::expr::Expr;
use crate::parser::{AggFunc, Projection, SelectStatement};
use bdb_common::record::Table;
use bdb_common::value::{DataType, Field, Schema};
use bdb_common::{BdbError, Result};
use std::borrow::Borrow;

/// A logical plan node. Every node knows its output schema.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Read a base table, optionally keeping only some columns.
    Scan {
        /// Table name in the catalog.
        table: String,
        /// Output schema (after projection pruning).
        schema: Schema,
        /// Indices of kept columns in the base table; `None` = all.
        projection: Option<Vec<usize>>,
    },
    /// Keep rows matching the predicate.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Boolean predicate with resolved column names.
        predicate: Expr,
    },
    /// Compute output expressions.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// (expression, output name) pairs.
        exprs: Vec<(Expr, String)>,
        /// Output schema.
        schema: Schema,
    },
    /// Inner hash equi-join.
    Join {
        /// Left (build) input.
        left: Box<LogicalPlan>,
        /// Right (probe) input.
        right: Box<LogicalPlan>,
        /// Resolved join key in the left schema.
        left_key: String,
        /// Resolved join key in the right schema.
        right_key: String,
        /// Output schema: qualified left fields then qualified right fields.
        schema: Schema,
    },
    /// Hash aggregation.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Resolved grouping columns.
        group_by: Vec<String>,
        /// (function, argument column or None for `*`, output name).
        aggregates: Vec<(AggFunc, Option<String>, String)>,
        /// Output schema: group columns then aggregate columns.
        schema: Schema,
    },
    /// Sort by (column, descending) keys.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort keys, applied left to right.
        keys: Vec<(String, bool)>,
    },
    /// Keep the first `n` rows.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Row cap.
        n: usize,
    },
}

impl LogicalPlan {
    /// The node's output schema.
    pub fn schema(&self) -> &Schema {
        match self {
            LogicalPlan::Scan { schema, .. } => schema,
            LogicalPlan::Filter { input, .. } => input.schema(),
            LogicalPlan::Project { schema, .. } => schema,
            LogicalPlan::Join { schema, .. } => schema,
            LogicalPlan::Aggregate { schema, .. } => schema,
            LogicalPlan::Sort { input, .. } => input.schema(),
            LogicalPlan::Limit { input, .. } => input.schema(),
        }
    }

    /// A single-line description of the operator tree (for tests and
    /// EXPLAIN-style output).
    pub fn describe(&self) -> String {
        match self {
            LogicalPlan::Scan { table, projection, .. } => match projection {
                Some(p) => format!("Scan({table} cols={})", p.len()),
                None => format!("Scan({table})"),
            },
            LogicalPlan::Filter { input, .. } => format!("Filter -> {}", input.describe()),
            LogicalPlan::Project { input, exprs, .. } => {
                format!("Project[{}] -> {}", exprs.len(), input.describe())
            }
            LogicalPlan::Join { left, right, .. } => {
                format!("Join({} , {})", left.describe(), right.describe())
            }
            LogicalPlan::Aggregate { input, group_by, aggregates, .. } => format!(
                "Aggregate[groups={} aggs={}] -> {}",
                group_by.len(),
                aggregates.len(),
                input.describe()
            ),
            LogicalPlan::Sort { input, keys } => {
                format!("Sort[{}] -> {}", keys.len(), input.describe())
            }
            LogicalPlan::Limit { input, n } => format!("Limit[{n}] -> {}", input.describe()),
        }
    }
}

/// Resolve a possibly-unqualified column name against a schema.
///
/// Exact match wins; otherwise a unique `*.name` suffix match resolves;
/// ambiguity or absence is an error.
pub fn resolve_column(schema: &Schema, name: &str) -> Result<String> {
    if schema.index_of(name).is_some() {
        return Ok(name.to_string());
    }
    let suffix = format!(".{name}");
    let matches: Vec<&Field> = schema
        .fields()
        .iter()
        .filter(|f| f.name.ends_with(&suffix))
        .collect();
    match matches.len() {
        0 => Err(BdbError::NotFound(format!("column {name}"))),
        1 => Ok(matches[0].name.clone()),
        _ => Err(BdbError::TestGen(format!("ambiguous column {name}"))),
    }
}

fn resolve_expr(expr: &Expr, schema: &Schema) -> Result<Expr> {
    Ok(match expr {
        Expr::Column(name) => Expr::Column(resolve_column(schema, name)?),
        Expr::Literal(v) => Expr::Literal(v.clone()),
        Expr::Not(e) => Expr::Not(Box::new(resolve_expr(e, schema)?)),
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(resolve_expr(left, schema)?),
            op: *op,
            right: Box::new(resolve_expr(right, schema)?),
        },
    })
}

fn infer_expr_type(expr: &Expr, schema: &Schema) -> DataType {
    match expr {
        Expr::Column(name) => schema
            .field(name)
            .map_or(DataType::Float, |f| f.data_type),
        Expr::Literal(v) => v.data_type().unwrap_or(DataType::Int),
        Expr::Not(_) => DataType::Bool,
        Expr::Binary { op, left, right } => {
            use crate::expr::BinOp::*;
            match op {
                Eq | Ne | Lt | Le | Gt | Ge | And | Or => DataType::Bool,
                Add | Sub | Mul | Div => {
                    let (l, r) = (infer_expr_type(left, schema), infer_expr_type(right, schema));
                    if l == DataType::Int && r == DataType::Int {
                        DataType::Int
                    } else {
                        DataType::Float
                    }
                }
            }
        }
    }
}

fn default_expr_name(expr: &Expr, ordinal: usize) -> String {
    match expr {
        Expr::Column(name) => name.clone(),
        _ => format!("expr_{ordinal}"),
    }
}

/// Build a resolved logical plan from a parsed statement.
pub fn build_logical_plan<T: Borrow<Table>>(
    stmt: SelectStatement,
    catalog: &Catalog<T>,
) -> Result<LogicalPlan> {
    // FROM (and JOIN): establish the input relation.
    let base = catalog.get(&stmt.from)?;
    let mut plan = LogicalPlan::Scan {
        table: stmt.from.clone(),
        schema: base.schema().clone(),
        projection: None,
    };

    if let Some(join) = &stmt.join {
        let right_table = catalog.get(&join.table)?;
        let qualify = |table: &str, schema: &Schema| -> Schema {
            Schema::new(
                schema
                    .fields()
                    .iter()
                    .map(|f| {
                        let mut q = Field::new(format!("{table}.{}", f.name), f.data_type);
                        q.nullable = f.nullable;
                        q
                    })
                    .collect(),
            )
        };
        // Qualify both sides via a Project so joined columns are unambiguous.
        let left_schema = qualify(&stmt.from, base.schema());
        let left_exprs = base
            .schema()
            .fields()
            .iter()
            .zip(left_schema.fields())
            .map(|(f, q)| (Expr::col(&f.name), q.name.clone()))
            .collect();
        let left = LogicalPlan::Project {
            input: Box::new(plan),
            exprs: left_exprs,
            schema: left_schema.clone(),
        };
        let right_scan = LogicalPlan::Scan {
            table: join.table.clone(),
            schema: right_table.schema().clone(),
            projection: None,
        };
        let right_schema = qualify(&join.table, right_table.schema());
        let right_exprs = right_table
            .schema()
            .fields()
            .iter()
            .zip(right_schema.fields())
            .map(|(f, q)| (Expr::col(&f.name), q.name.clone()))
            .collect();
        let right = LogicalPlan::Project {
            input: Box::new(right_scan),
            exprs: right_exprs,
            schema: right_schema.clone(),
        };
        let left_key = resolve_column(&left_schema, &join.left_col)?;
        let right_key = resolve_column(&right_schema, &join.right_col)?;
        let mut fields = left_schema.fields().to_vec();
        fields.extend(right_schema.fields().to_vec());
        plan = LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            left_key,
            right_key,
            schema: Schema::new(fields),
        };
    }

    // WHERE.
    if let Some(filter) = &stmt.filter {
        let predicate = resolve_expr(filter, plan.schema())?;
        plan = LogicalPlan::Filter { input: Box::new(plan), predicate };
    }

    // Aggregation or plain projection.
    let has_aggregates = stmt
        .projections
        .iter()
        .any(|p| matches!(p, Projection::Aggregate { .. }));
    if has_aggregates || !stmt.group_by.is_empty() {
        let input_schema = plan.schema().clone();
        let group_by: Vec<String> = stmt
            .group_by
            .iter()
            .map(|g| resolve_column(&input_schema, g))
            .collect::<Result<_>>()?;
        let mut aggregates = Vec::new();
        let mut fields: Vec<Field> = group_by
            .iter()
            .map(|g| input_schema.field(g).expect("resolved").clone())
            .collect();
        for (i, p) in stmt.projections.iter().enumerate() {
            match p {
                Projection::Aggregate { func, arg, alias } => {
                    let arg = arg
                        .as_ref()
                        .map(|a| resolve_column(&input_schema, a))
                        .transpose()?;
                    let name = alias.clone().unwrap_or_else(|| match &arg {
                        Some(a) => format!("{}_{}", func.name(), a.replace('.', "_")),
                        None => func.name().to_string(),
                    });
                    let out_type = match func {
                        AggFunc::Count => DataType::Int,
                        AggFunc::Avg => DataType::Float,
                        AggFunc::Sum | AggFunc::Min | AggFunc::Max => arg
                            .as_ref()
                            .and_then(|a| input_schema.field(a))
                            .map_or(DataType::Float, |f| f.data_type),
                    };
                    fields.push(Field::nullable(name.clone(), out_type));
                    aggregates.push((*func, arg, name));
                }
                Projection::Expr { expr: Expr::Column(c), .. } => {
                    // Bare columns in an aggregate query must be group keys.
                    let resolved = resolve_column(&input_schema, c)?;
                    if !group_by.contains(&resolved) {
                        return Err(BdbError::TestGen(format!(
                            "column {c} must appear in GROUP BY"
                        )));
                    }
                }
                Projection::Star => {
                    return Err(BdbError::TestGen(
                        "SELECT * cannot be combined with aggregates".into(),
                    ))
                }
                Projection::Expr { .. } => {
                    return Err(BdbError::TestGen(format!(
                        "projection {i} must be a group key or aggregate"
                    )))
                }
            }
        }
        plan = LogicalPlan::Aggregate {
            input: Box::new(plan),
            group_by,
            aggregates,
            schema: Schema::new(fields),
        };
        // HAVING: a filter over the aggregate's output columns.
        if let Some(having) = &stmt.having {
            let predicate = resolve_expr(having, plan.schema())?;
            plan = LogicalPlan::Filter { input: Box::new(plan), predicate };
        }
    } else if stmt.having.is_some() {
        return Err(BdbError::TestGen("HAVING requires GROUP BY or aggregates".into()));
    } else {
        // Plain projection (unless SELECT *).
        let is_star = stmt.projections.len() == 1
            && matches!(stmt.projections[0], Projection::Star);
        if !is_star {
            let input_schema = plan.schema().clone();
            let mut exprs = Vec::new();
            let mut fields = Vec::new();
            for (i, p) in stmt.projections.iter().enumerate() {
                match p {
                    Projection::Star => {
                        for f in input_schema.fields() {
                            exprs.push((Expr::col(&f.name), f.name.clone()));
                            fields.push(f.clone());
                        }
                    }
                    Projection::Expr { expr, alias } => {
                        let resolved = resolve_expr(expr, &input_schema)?;
                        // Output name: the alias, else the name as written
                        // (`SELECT city ...` yields a column named `city`
                        // even when it resolves to `users.city`).
                        let name = alias
                            .clone()
                            .unwrap_or_else(|| default_expr_name(expr, i));
                        let dt = infer_expr_type(&resolved, &input_schema);
                        fields.push(Field::nullable(name.clone(), dt));
                        exprs.push((resolved, name));
                    }
                    Projection::Aggregate { .. } => unreachable!("handled above"),
                }
            }
            plan = LogicalPlan::Project {
                input: Box::new(plan),
                exprs,
                schema: Schema::new(fields),
            };
        }
    }

    // DISTINCT: group by every output column (no aggregates).
    if stmt.distinct {
        let schema = plan.schema().clone();
        let group_by: Vec<String> = schema.fields().iter().map(|f| f.name.clone()).collect();
        plan = LogicalPlan::Aggregate {
            input: Box::new(plan),
            group_by,
            aggregates: vec![],
            schema,
        };
    }

    // ORDER BY. Keys usually name output columns; SQL also allows sorting
    // a plain projection by an input-only column (`SELECT id ... ORDER BY
    // total`), in which case the sort sinks below the projection.
    if !stmt.order_by.is_empty() {
        let top_schema = plan.schema().clone();
        let all_resolve_on_top = stmt
            .order_by
            .iter()
            .all(|(c, _)| resolve_column(&top_schema, c).is_ok());
        if all_resolve_on_top {
            let keys = stmt
                .order_by
                .iter()
                .map(|(c, desc)| Ok((resolve_column(&top_schema, c)?, *desc)))
                .collect::<Result<Vec<_>>>()?;
            plan = LogicalPlan::Sort { input: Box::new(plan), keys };
        } else if let LogicalPlan::Project { input, exprs, schema } = plan {
            let inner_schema = input.schema().clone();
            let keys = stmt
                .order_by
                .iter()
                .map(|(c, desc)| Ok((resolve_column(&inner_schema, c)?, *desc)))
                .collect::<Result<Vec<_>>>()?;
            let sorted = LogicalPlan::Sort { input, keys };
            plan = LogicalPlan::Project { input: Box::new(sorted), exprs, schema };
        } else {
            // Force the original error for a missing column.
            for (c, _) in &stmt.order_by {
                resolve_column(&top_schema, c)?;
            }
            unreachable!("at least one key failed to resolve");
        }
    }

    // LIMIT.
    if let Some(n) = stmt.limit {
        plan = LogicalPlan::Limit { input: Box::new(plan), n };
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use bdb_common::value::Value;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let users = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("city", DataType::Text),
        ]);
        let orders = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("user_id", DataType::Int),
            Field::new("total", DataType::Float),
        ]);
        let mut u = Table::new(users);
        u.push(vec![Value::Int(1), Value::from("york")]).unwrap();
        c.register("users", u).unwrap();
        c.register("orders", Table::new(orders)).unwrap();
        c
    }

    fn plan_for(sql: &str) -> LogicalPlan {
        build_logical_plan(parse(sql).unwrap(), &catalog()).unwrap()
    }

    #[test]
    fn star_select_is_bare_scan() {
        let p = plan_for("SELECT * FROM users");
        assert!(matches!(p, LogicalPlan::Scan { .. }));
        assert_eq!(p.schema().len(), 2);
    }

    #[test]
    fn projection_schema_names_and_types() {
        let p = plan_for("SELECT id, id + 1 AS next FROM users");
        let s = p.schema();
        assert_eq!(s.fields()[0].name, "id");
        assert_eq!(s.fields()[1].name, "next");
        assert_eq!(s.fields()[1].data_type, DataType::Int);
    }

    #[test]
    fn join_schema_is_qualified() {
        let p = plan_for("SELECT users.city FROM users JOIN orders ON users.id = orders.user_id");
        match &p {
            LogicalPlan::Project { input, .. } => {
                let join_schema = input.schema();
                assert!(join_schema.index_of("users.id").is_some());
                assert!(join_schema.index_of("orders.user_id").is_some());
            }
            other => panic!("expected project over join, got {}", other.describe()),
        }
    }

    #[test]
    fn unqualified_unique_column_resolves_in_join() {
        // `city` exists only in users, so it resolves without a qualifier;
        // `total` exists only in orders.
        let p = plan_for(
            "SELECT city FROM users JOIN orders ON users.id = orders.user_id WHERE total > 5",
        );
        assert_eq!(p.schema().fields()[0].name, "city");
    }

    #[test]
    fn ambiguous_column_in_join_is_rejected() {
        let stmt =
            parse("SELECT id FROM users JOIN orders ON users.id = orders.user_id").unwrap();
        let err = build_logical_plan(stmt, &catalog()).unwrap_err();
        assert!(err.to_string().contains("ambiguous"), "{err}");
    }

    #[test]
    fn aggregate_plan_shapes_schema() {
        let p = plan_for("SELECT city, COUNT(*), AVG(id) FROM users GROUP BY city");
        let s = p.schema();
        assert_eq!(s.fields()[0].name, "city");
        assert_eq!(s.fields()[1].name, "count");
        assert_eq!(s.fields()[1].data_type, DataType::Int);
        assert_eq!(s.fields()[2].name, "avg_id");
        assert_eq!(s.fields()[2].data_type, DataType::Float);
    }

    #[test]
    fn bare_column_outside_group_by_is_rejected() {
        let stmt = parse("SELECT id, COUNT(*) FROM users GROUP BY city").unwrap();
        assert!(build_logical_plan(stmt, &catalog()).is_err());
    }

    #[test]
    fn order_and_limit_wrap_the_plan() {
        let p = plan_for("SELECT id FROM users ORDER BY id DESC LIMIT 3");
        match p {
            LogicalPlan::Limit { input, n } => {
                assert_eq!(n, 3);
                assert!(matches!(*input, LogicalPlan::Sort { .. }));
            }
            other => panic!("expected limit, got {}", other.describe()),
        }
    }

    #[test]
    fn missing_column_is_an_error() {
        let stmt = parse("SELECT nope FROM users").unwrap();
        assert!(build_logical_plan(stmt, &catalog()).is_err());
    }
}
