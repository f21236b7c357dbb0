//! A small cost-ranked memo over logical-plan alternatives.
//!
//! The classic memo keeps groups of logically-equivalent expressions and
//! extracts the cheapest physical tree. This one is deliberately small:
//! one root group whose alternatives are the optimizer's rewrite stages —
//! the raw plan, the plan after predicate pushdown, and the plan after
//! pushdown plus projection pruning — each costed bottom-up with
//! cardinalities estimated from catalog row counts and default
//! selectivities. Extraction picks the minimum-cost alternative,
//! preferring the most-rewritten plan on ties, so the extracted plan is
//! exactly what [`crate::optimizer::optimize`] produces whenever the
//! rewrites don't hurt (they never do under this model — each pass only
//! shrinks intermediate cardinalities or scan widths).

use crate::catalog::Catalog;
use crate::expr::{BinOp, Expr};
use crate::optimizer::{prune_scan_columns, push_down_filters};
use crate::plan::LogicalPlan;
use bdb_common::record::Table;
use std::borrow::Borrow;

/// Fraction of rows a filter conjunct is assumed to keep when nothing
/// better is known.
pub const DEFAULT_FILTER_SELECTIVITY: f64 = 0.25;

/// Fraction of input rows a grouped aggregation is assumed to emit.
pub const DEFAULT_GROUP_FRACTION: f64 = 0.1;

/// Cardinality assumed for a scanned table the catalog can't size.
const DEFAULT_TABLE_ROWS: f64 = 1000.0;

/// Estimated output cardinality and cumulative cost of a plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanCost {
    /// Estimated rows the plan emits.
    pub rows: f64,
    /// Estimated total work to produce them (rows-touched units).
    pub cost: f64,
}

fn conjunct_count(expr: &Expr) -> u32 {
    match expr {
        Expr::Binary { left, op: BinOp::And, right } => {
            conjunct_count(left) + conjunct_count(right)
        }
        _ => 1,
    }
}

/// Estimate cardinality and cost bottom-up.
///
/// Scans cost rows × width; filters keep
/// [`DEFAULT_FILTER_SELECTIVITY`] per conjunct; equi-joins assume
/// key-ndv ≈ rows so output is the smaller side; grouped aggregates emit
/// [`DEFAULT_GROUP_FRACTION`] of their input (1 row ungrouped); sorts pay
/// `n·log2(n)`.
pub fn estimate<T: Borrow<Table>>(plan: &LogicalPlan, catalog: &Catalog<T>) -> PlanCost {
    match plan {
        LogicalPlan::Scan { table, schema, projection } => {
            let rows = catalog
                .row_count(table)
                .map_or(DEFAULT_TABLE_ROWS, |n| n as f64);
            let width = projection
                .as_ref()
                .map_or(schema.len(), Vec::len)
                .max(1) as f64;
            PlanCost { rows, cost: rows * width }
        }
        LogicalPlan::Filter { input, predicate } => {
            let i = estimate(input, catalog);
            let keep = DEFAULT_FILTER_SELECTIVITY.powi(conjunct_count(predicate) as i32);
            PlanCost { rows: i.rows * keep, cost: i.cost + i.rows }
        }
        LogicalPlan::Project { input, .. } => {
            let i = estimate(input, catalog);
            PlanCost { rows: i.rows, cost: i.cost + i.rows }
        }
        LogicalPlan::Join { left, right, .. } => {
            let l = estimate(left, catalog);
            let r = estimate(right, catalog);
            PlanCost { rows: l.rows.min(r.rows), cost: l.cost + r.cost + l.rows + r.rows }
        }
        LogicalPlan::Aggregate { input, group_by, .. } => {
            let i = estimate(input, catalog);
            let rows = if group_by.is_empty() {
                1.0
            } else {
                (i.rows * DEFAULT_GROUP_FRACTION).max(1.0)
            };
            PlanCost { rows, cost: i.cost + i.rows }
        }
        LogicalPlan::Sort { input, .. } => {
            let i = estimate(input, catalog);
            let lg = if i.rows > 1.0 { i.rows.log2() } else { 0.0 };
            PlanCost { rows: i.rows, cost: i.cost + i.rows * lg }
        }
        LogicalPlan::Limit { input, n } => {
            let i = estimate(input, catalog);
            PlanCost { rows: i.rows.min(*n as f64), cost: i.cost }
        }
    }
}

/// One costed plan alternative in the root group.
#[derive(Debug, Clone)]
pub struct Alternative {
    /// Which rewrite stage produced the plan.
    pub rule: &'static str,
    /// The candidate plan.
    pub plan: LogicalPlan,
    /// Its estimated cardinality and cost.
    pub cost: PlanCost,
}

/// The root plan group: logically-equivalent alternatives ranked by cost.
#[derive(Debug, Clone)]
pub struct Memo {
    alternatives: Vec<Alternative>,
}

impl Memo {
    /// Populate the group from a logical plan: the raw plan plus one
    /// alternative per optimizer rewrite stage.
    pub fn explore<T: Borrow<Table>>(plan: LogicalPlan, catalog: &Catalog<T>) -> Self {
        let pushed = push_down_filters(plan.clone());
        let pruned = prune_scan_columns(pushed.clone());
        let mut alternatives = vec![Alternative {
            rule: "raw",
            cost: estimate(&plan, catalog),
            plan,
        }];
        // Skip duplicates so no-op rewrites don't inflate the group.
        if pushed != alternatives[0].plan {
            alternatives.push(Alternative {
                rule: "pushdown",
                cost: estimate(&pushed, catalog),
                plan: pushed.clone(),
            });
        }
        if pruned != pushed {
            alternatives.push(Alternative {
                rule: "pushdown+prune",
                cost: estimate(&pruned, catalog),
                plan: pruned,
            });
        }
        Memo { alternatives }
    }

    /// All alternatives in generation order (raw first).
    pub fn alternatives(&self) -> &[Alternative] {
        &self.alternatives
    }

    /// Extract the cheapest alternative, preferring the most-rewritten
    /// plan on cost ties.
    pub fn best(&self) -> &Alternative {
        let mut best = &self.alternatives[0];
        for a in &self.alternatives[1..] {
            if a.cost.cost <= best.cost.cost {
                best = a;
            }
        }
        best
    }
}

/// Optimise via the memo: explore the rewrite alternatives and extract
/// the cheapest, returning it with its estimated cost.
pub fn optimize_with_cost<T: Borrow<Table>>(
    plan: LogicalPlan,
    catalog: &Catalog<T>,
) -> (LogicalPlan, PlanCost) {
    let memo = Memo::explore(plan, catalog);
    let best = memo.best();
    (best.plan.clone(), best.cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::plan::build_logical_plan;
    use bdb_common::value::{DataType, Field, Schema, Value};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let wide = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
            Field::new("c", DataType::Int),
            Field::new("d", DataType::Int),
        ]);
        let mut t = Table::new(wide);
        for i in 0..100 {
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

    fn planned(sql: &str, c: &Catalog) -> LogicalPlan {
        build_logical_plan(parse(sql).unwrap(), c).unwrap()
    }

    #[test]
    fn scan_cardinality_comes_from_catalog() {
        let c = catalog();
        let cost = estimate(&planned("SELECT a, b, c, d FROM wide", &c), &c);
        assert_eq!(cost.rows, 100.0);
        let missing = estimate(
            &LogicalPlan::Scan {
                table: "nope".into(),
                schema: Schema::new(vec![Field::new("x", DataType::Int)]),
                projection: None,
            },
            &c,
        );
        assert_eq!(missing.rows, 1000.0);
    }

    #[test]
    fn filters_and_groups_shrink_cardinality() {
        let c = catalog();
        let filtered = estimate(&planned("SELECT a FROM wide WHERE b > 5", &c), &c);
        assert!((filtered.rows - 100.0 * DEFAULT_FILTER_SELECTIVITY).abs() < 1e-9);
        let two = estimate(&planned("SELECT a FROM wide WHERE b > 5 AND c > 6", &c), &c);
        assert!(two.rows < filtered.rows);
        let grouped = estimate(&planned("SELECT a, COUNT(*) FROM wide GROUP BY a", &c), &c);
        assert!((grouped.rows - 100.0 * DEFAULT_GROUP_FRACTION).abs() < 1e-9);
        let global = estimate(&planned("SELECT COUNT(*) FROM wide", &c), &c);
        assert_eq!(global.rows, 1.0);
    }

    #[test]
    fn join_output_is_bounded_by_smaller_side() {
        let c = catalog();
        let cost = estimate(
            &planned("SELECT wide.b FROM wide JOIN other ON wide.a = other.a", &c),
            &c,
        );
        assert_eq!(cost.rows, 10.0);
    }

    #[test]
    fn extraction_matches_optimizer_and_never_costs_more_than_raw() {
        let c = catalog();
        for sql in [
            "SELECT a FROM wide WHERE d > 5",
            "SELECT wide.b FROM wide JOIN other ON wide.a = other.a WHERE wide.c > 3",
            "SELECT a, COUNT(*) FROM wide WHERE b > 2 GROUP BY a ORDER BY a LIMIT 3",
            "SELECT a FROM wide",
        ] {
            let raw = planned(sql, &c);
            let raw_cost = estimate(&raw, &c);
            let (best, best_cost) = optimize_with_cost(raw.clone(), &c);
            assert_eq!(best, crate::optimizer::optimize(raw), "{sql}");
            assert!(best_cost.cost <= raw_cost.cost, "{sql}");
        }
    }

    #[test]
    fn memo_keeps_distinct_alternatives_only() {
        let c = catalog();
        // Pushdown is a no-op here (no filter); pruning narrows the scan.
        let memo = Memo::explore(planned("SELECT a FROM wide", &c), &c);
        let rules: Vec<&str> = memo.alternatives().iter().map(|a| a.rule).collect();
        assert_eq!(rules, vec!["raw", "pushdown+prune"]);
        assert_eq!(memo.best().rule, "pushdown+prune");
    }

    proptest::proptest! {
        /// The extracted plan never costs more than any explored
        /// alternative, whatever the (tiny, generated) query shape.
        #[test]
        fn extraction_is_minimal(filter in 0u8..3, narrow in proptest::any::<bool>()) {
            let c = catalog();
            let mut sql = String::from(if narrow { "SELECT a FROM wide" } else { "SELECT a, b, c, d FROM wide" });
            for (i, col) in ["b", "c", "d"].iter().enumerate().take(filter as usize) {
                sql.push_str(if i == 0 { " WHERE " } else { " AND " });
                sql.push_str(&format!("{col} > 5"));
            }
            let memo = Memo::explore(planned(&sql, &c), &c);
            let best = memo.best().cost.cost;
            for a in memo.alternatives() {
                proptest::prop_assert!(best <= a.cost.cost, "{sql}: {} beat best", a.rule);
            }
        }
    }
}
