//! A compatibility shim: the statement path's plan is
//! [`crate::optimizer::optimize`]'s, and this module only keeps the name the
//! benchmark's `load_sql_closed` workload replays it through.

use crate::catalog::Catalog;
use crate::plan::LogicalPlan;
use bdb_common::record::Table;
use std::borrow::Borrow;

/// [`crate::optimizer::optimize`]'s plan, under the name the benchmark
/// pins. Deleted by the benchmark refresh (ROADMAP item 11).
pub fn optimize_with_cost<T: Borrow<Table>>(
    plan: LogicalPlan,
    _catalog: &Catalog<T>,
) -> (LogicalPlan, ()) {
    (crate::optimizer::optimize(plan), ())
}
