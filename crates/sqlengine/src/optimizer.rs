//! Logical plan rewrites: predicate pushdown and projection pruning.
//!
//! Small but real: pushdown moves filters below the projection wrappers a
//! join introduces (so non-matching rows die before the hash tables), and
//! pruning narrows scans to the columns any ancestor actually uses.

use crate::expr::Expr;
use crate::plan::LogicalPlan;
use bdb_common::value::Schema;

/// Optimise a plan. Idempotent.
pub fn optimize(plan: LogicalPlan) -> LogicalPlan {
    let plan = push_down_filters(plan);
    prune_scan_columns(plan)
}

/// Does `schema` contain every column the expression needs?
fn expr_is_covered(expr: &Expr, schema: &Schema) -> bool {
    let mut cols = Vec::new();
    expr.referenced_columns(&mut cols);
    cols.iter().all(|c| schema.index_of(c).is_some())
}

/// Rewrite a predicate's column names through a projection's (expr, name)
/// mapping, if every referenced column is a simple rename.
fn rewrite_through_project(
    predicate: &Expr,
    exprs: &[(Expr, String)],
) -> Option<Expr> {
    match predicate {
        Expr::Literal(v) => Some(Expr::Literal(v.clone())),
        Expr::Column(name) => {
            let (source, _) = exprs.iter().find(|(_, out)| out == name)?;
            match source {
                Expr::Column(inner) => Some(Expr::Column(inner.clone())),
                _ => None, // computed column: cannot push below
            }
        }
        Expr::Not(e) => Some(Expr::Not(Box::new(rewrite_through_project(e, exprs)?))),
        Expr::Binary { left, op, right } => Some(Expr::Binary {
            left: Box::new(rewrite_through_project(left, exprs)?),
            op: *op,
            right: Box::new(rewrite_through_project(right, exprs)?),
        }),
    }
}

/// Split an AND-chain into conjuncts.
fn split_conjuncts(expr: Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::Binary { left, op: crate::expr::BinOp::And, right } => {
            split_conjuncts(*left, out);
            split_conjuncts(*right, out);
        }
        other => out.push(other),
    }
}

/// Rebuild an AND-chain from conjuncts.
fn join_conjuncts(mut conjuncts: Vec<Expr>) -> Option<Expr> {
    let first = conjuncts.pop()?;
    Some(
        conjuncts
            .into_iter()
            .fold(first, |acc, c| Expr::binary(acc, crate::expr::BinOp::And, c)),
    )
}

fn push_down_filters(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let input = push_down_filters(*input);
            match input {
                // Filter over join: route each conjunct to the side that
                // covers it; keep the rest above the join.
                LogicalPlan::Join { left, right, left_key, right_key, schema } => {
                    let mut conjuncts = Vec::new();
                    split_conjuncts(predicate, &mut conjuncts);
                    let mut left_preds = Vec::new();
                    let mut right_preds = Vec::new();
                    let mut kept = Vec::new();
                    for c in conjuncts {
                        if expr_is_covered(&c, left.schema()) {
                            left_preds.push(c);
                        } else if expr_is_covered(&c, right.schema()) {
                            right_preds.push(c);
                        } else {
                            kept.push(c);
                        }
                    }
                    let mut new_left = *left;
                    if let Some(p) = join_conjuncts(left_preds) {
                        new_left = push_down_filters(LogicalPlan::Filter {
                            input: Box::new(new_left),
                            predicate: p,
                        });
                    }
                    let mut new_right = *right;
                    if let Some(p) = join_conjuncts(right_preds) {
                        new_right = push_down_filters(LogicalPlan::Filter {
                            input: Box::new(new_right),
                            predicate: p,
                        });
                    }
                    let joined = LogicalPlan::Join {
                        left: Box::new(new_left),
                        right: Box::new(new_right),
                        left_key,
                        right_key,
                        schema,
                    };
                    match join_conjuncts(kept) {
                        Some(p) => LogicalPlan::Filter { input: Box::new(joined), predicate: p },
                        None => joined,
                    }
                }
                // Filter over a pure-rename projection: swap them.
                LogicalPlan::Project { input: proj_in, exprs, schema } => {
                    if let Some(rewritten) = rewrite_through_project(&predicate, &exprs) {
                        let filtered = push_down_filters(LogicalPlan::Filter {
                            input: proj_in,
                            predicate: rewritten,
                        });
                        LogicalPlan::Project { input: Box::new(filtered), exprs, schema }
                    } else {
                        LogicalPlan::Filter {
                            input: Box::new(LogicalPlan::Project {
                                input: proj_in,
                                exprs,
                                schema,
                            }),
                            predicate,
                        }
                    }
                }
                other => LogicalPlan::Filter { input: Box::new(other), predicate },
            }
        }
        LogicalPlan::Project { input, exprs, schema } => LogicalPlan::Project {
            input: Box::new(push_down_filters(*input)),
            exprs,
            schema,
        },
        LogicalPlan::Join { left, right, left_key, right_key, schema } => LogicalPlan::Join {
            left: Box::new(push_down_filters(*left)),
            right: Box::new(push_down_filters(*right)),
            left_key,
            right_key,
            schema,
        },
        LogicalPlan::Aggregate { input, group_by, aggregates, schema } => {
            LogicalPlan::Aggregate {
                input: Box::new(push_down_filters(*input)),
                group_by,
                aggregates,
                schema,
            }
        }
        LogicalPlan::Sort { input, keys } => {
            LogicalPlan::Sort { input: Box::new(push_down_filters(*input)), keys }
        }
        LogicalPlan::Limit { input, n } => {
            LogicalPlan::Limit { input: Box::new(push_down_filters(*input)), n }
        }
        leaf @ LogicalPlan::Scan { .. } => leaf,
    }
}

/// Collect the columns a node needs from its input, then narrow the scans.
fn prune_scan_columns(plan: LogicalPlan) -> LogicalPlan {
    // Top level: all output columns are needed.
    let needed: Vec<String> = plan
        .schema()
        .fields()
        .iter()
        .map(|f| f.name.clone())
        .collect();
    prune(plan, &needed)
}

fn prune(plan: LogicalPlan, needed: &[String]) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan { table, schema, projection } => {
            // Only narrow un-projected scans whose parent demands a subset.
            if projection.is_none() && needed.len() < schema.len() {
                let mut cols: Vec<usize> = needed
                    .iter()
                    .filter_map(|n| schema.index_of(n))
                    .collect();
                cols.sort_unstable();
                cols.dedup();
                if !cols.is_empty() && cols.len() < schema.len() {
                    let fields = cols
                        .iter()
                        .map(|&i| schema.fields()[i].clone())
                        .collect();
                    return LogicalPlan::Scan {
                        table,
                        schema: Schema::new(fields),
                        projection: Some(cols),
                    };
                }
            }
            LogicalPlan::Scan { table, schema, projection }
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut need: Vec<String> = needed.to_vec();
            predicate.referenced_columns(&mut need);
            LogicalPlan::Filter { input: Box::new(prune(*input, &need)), predicate }
        }
        LogicalPlan::Project { input, exprs, schema } => {
            let mut need = Vec::new();
            for (e, _) in &exprs {
                e.referenced_columns(&mut need);
            }
            LogicalPlan::Project { input: Box::new(prune(*input, &need)), exprs, schema }
        }
        LogicalPlan::Join { left, right, left_key, right_key, schema } => {
            // A join needs its keys plus whatever the parent needs from
            // each side.
            let mut left_need: Vec<String> = vec![left_key.clone()];
            let mut right_need: Vec<String> = vec![right_key.clone()];
            for n in needed {
                if left.schema().index_of(n).is_some() {
                    if !left_need.contains(n) {
                        left_need.push(n.clone());
                    }
                } else if right.schema().index_of(n).is_some()
                    && !right_need.contains(n)
                {
                    right_need.push(n.clone());
                }
            }
            LogicalPlan::Join {
                left: Box::new(prune(*left, &left_need)),
                right: Box::new(prune(*right, &right_need)),
                left_key,
                right_key,
                schema,
            }
        }
        LogicalPlan::Aggregate { input, group_by, aggregates, schema } => {
            let mut need: Vec<String> = group_by.clone();
            for (_, arg, _) in &aggregates {
                if let Some(a) = arg {
                    if !need.contains(a) {
                        need.push(a.clone());
                    }
                }
            }
            LogicalPlan::Aggregate {
                input: Box::new(prune(*input, &need)),
                group_by,
                aggregates,
                schema,
            }
        }
        LogicalPlan::Sort { input, keys } => {
            let mut need: Vec<String> = needed.to_vec();
            for (k, _) in &keys {
                if !need.contains(k) {
                    need.push(k.clone());
                }
            }
            LogicalPlan::Sort { input: Box::new(prune(*input, &need)), keys }
        }
        LogicalPlan::Limit { input, n } => {
            LogicalPlan::Limit { input: Box::new(prune(*input, needed)), n }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::parser::parse;
    use crate::plan::build_logical_plan;
    use bdb_common::record::Table;
    use bdb_common::value::{DataType, Field, Value};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let wide = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
            Field::new("c", DataType::Int),
            Field::new("d", DataType::Int),
        ]);
        let mut t = Table::new(wide);
        for i in 0..10 {
            t.push(vec![
                Value::Int(i),
                Value::Int(i * 2),
                Value::Int(i * 3),
                Value::Int(i * 4),
            ])
            .unwrap();
        }
        c.register("wide", t).unwrap();

        let other = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("x", DataType::Int),
        ]);
        let mut t2 = Table::new(other);
        for i in 0..10 {
            t2.push(vec![Value::Int(i), Value::Int(100 + i)]).unwrap();
        }
        c.register("other", t2).unwrap();
        c
    }

    fn optimized(sql: &str) -> LogicalPlan {
        let c = catalog();
        optimize(build_logical_plan(parse(sql).unwrap(), &c).unwrap())
    }

    fn scan_widths(plan: &LogicalPlan, out: &mut Vec<usize>) {
        match plan {
            LogicalPlan::Scan { schema, .. } => out.push(schema.len()),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. } => scan_widths(input, out),
            LogicalPlan::Join { left, right, .. } => {
                scan_widths(left, out);
                scan_widths(right, out);
            }
        }
    }

    #[test]
    fn projection_pruning_narrows_scan() {
        let p = optimized("SELECT a FROM wide");
        let mut widths = Vec::new();
        scan_widths(&p, &mut widths);
        assert_eq!(widths, vec![1]);
    }

    #[test]
    fn pruning_keeps_filter_columns() {
        let p = optimized("SELECT a FROM wide WHERE d > 5");
        let mut widths = Vec::new();
        scan_widths(&p, &mut widths);
        assert_eq!(widths, vec![2]); // a and d
    }

    #[test]
    fn filter_pushes_below_join_qualifier_projections() {
        let p = optimized(
            "SELECT wide.b FROM wide JOIN other ON wide.a = other.a WHERE wide.c > 3 AND other.x > 105",
        );
        // No Filter may remain above the Join: both conjuncts are
        // side-local and must sink below it.
        fn filter_above_join(plan: &LogicalPlan) -> bool {
            match plan {
                LogicalPlan::Filter { input, .. } => {
                    matches!(**input, LogicalPlan::Join { .. }) || filter_above_join(input)
                }
                LogicalPlan::Project { input, .. }
                | LogicalPlan::Sort { input, .. }
                | LogicalPlan::Limit { input, .. }
                | LogicalPlan::Aggregate { input, .. } => filter_above_join(input),
                LogicalPlan::Join { left, right, .. } => {
                    filter_above_join(left) || filter_above_join(right)
                }
                LogicalPlan::Scan { .. } => false,
            }
        }
        assert!(!filter_above_join(&p), "plan: {}", p.describe());
    }

    #[test]
    fn optimized_plans_execute_identically() {
        let c = catalog();
        for sql in [
            "SELECT a FROM wide WHERE d > 5",
            "SELECT wide.b FROM wide JOIN other ON wide.a = other.a WHERE wide.c > 3",
            "SELECT a, COUNT(*) FROM wide WHERE b > 2 GROUP BY a ORDER BY a LIMIT 3",
            "SELECT wide.b, other.x FROM wide JOIN other ON wide.a = other.a WHERE wide.c > 3 AND other.x > 105 ORDER BY other.x",
        ] {
            let raw = build_logical_plan(parse(sql).unwrap(), &c).unwrap();
            let opt = optimize(raw.clone());
            let mut e1 = crate::Executor::new(&c);
            let mut e2 = crate::Executor::new(&c);
            let r1 = e1.run(&raw).unwrap();
            let r2 = e2.run(&opt).unwrap();
            assert_eq!(r1.rows(), r2.rows(), "mismatch for {sql}");
        }
    }

    #[test]
    fn pushdown_reduces_join_input_rows() {
        let c = catalog();
        let sql = "SELECT wide.b FROM wide JOIN other ON wide.a = other.a WHERE wide.c > 20";
        let raw = build_logical_plan(parse(sql).unwrap(), &c).unwrap();
        let opt = optimize(raw.clone());
        let mut e_raw = crate::Executor::new(&c);
        let mut e_opt = crate::Executor::new(&c);
        e_raw.run(&raw).unwrap();
        e_opt.run(&opt).unwrap();
        assert!(
            e_opt.stats().hash_build_rows + e_opt.stats().hash_probe_rows
                < e_raw.stats().hash_build_rows + e_raw.stats().hash_probe_rows,
            "pushdown should shrink join work"
        );
    }

    #[test]
    fn optimize_is_idempotent() {
        let p = optimized("SELECT a FROM wide WHERE d > 5 ORDER BY a");
        assert_eq!(optimize(p.clone()), p);
    }
}
