//! A miniature relational query engine.
//!
//! The substrate standing in for the parallel SQL DBMSs the paper's survey
//! benchmarks target (DBMS-X/Vertica in the Pavlo benchmark, TPC-DS
//! engines, Teradata Aster in BigBench). It executes the *real-time
//! analytics* workload class of Table 2 — `select`, `aggregate`, `join` —
//! through a genuine pipeline: SQL text → tokens → AST → logical plan →
//! optimizer (predicate pushdown, projection pruning) → physical operators
//! (scan, filter, project, hash join, hash aggregate, sort, limit).
//!
//! ```
//! use bdb_sql::Engine;
//! use bdb_common::record::Table;
//! use bdb_common::value::{DataType, Field, Schema, Value};
//!
//! let schema = Schema::new(vec![
//!     Field::new("id", DataType::Int),
//!     Field::new("city", DataType::Text),
//! ]);
//! let mut t = Table::new(schema);
//! t.push(vec![Value::Int(1), Value::from("york")]).unwrap();
//! t.push(vec![Value::Int(2), Value::from("leeds")]).unwrap();
//!
//! let mut engine = Engine::new();
//! engine.register("users", t).unwrap();
//! let out = engine.sql("SELECT city FROM users WHERE id = 2").unwrap();
//! assert_eq!(out.rows()[0][0], Value::from("leeds"));
//! ```

pub mod catalog;
pub mod exec;
pub mod expr;
pub mod memo;
pub mod optimizer;
pub mod parser;
pub mod plan;

use bdb_common::record::Table;
use bdb_common::Result;
use std::sync::atomic::{AtomicU64, Ordering};

pub use catalog::Catalog;
pub use exec::{ExecStats, Executor};
pub use memo::{optimize_with_cost, Memo, PlanCost};
pub use plan::LogicalPlan;

/// The engine facade: a catalog plus the full SQL pipeline. Queries take
/// `&self`, so one registered engine is `Sync` and serves every session.
#[derive(Debug, Default)]
pub struct Engine {
    catalog: Catalog,
    /// The cumulative [`ExecStats`] counters in field order, as relaxed
    /// atomics: they are statistics and publish no other data.
    stats: [AtomicU64; 6],
}

impl Engine {
    /// An engine with an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a table under a name.
    ///
    /// # Errors
    /// Fails if the name is already taken.
    pub fn register(&mut self, name: &str, table: Table) -> Result<()> {
        self.catalog.register(name, table)
    }

    /// The engine's catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable catalog access, for load/maintenance workloads that
    /// replace or drop tables.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Parse, plan, optimise (via the cost-ranked memo) and execute a
    /// SQL query.
    pub fn sql(&self, query: &str) -> Result<Table> {
        let (plan, _) = self.plan_with_cost(query)?;
        let mut exec = Executor::new(&self.catalog);
        let out = exec.run(&plan)?;
        let s = exec.stats();
        let deltas = [
            s.rows_scanned,
            s.predicate_evals,
            s.rows_produced,
            s.hash_build_rows,
            s.hash_probe_rows,
            s.sort_comparisons,
        ];
        for (cell, delta) in self.stats.iter().zip(deltas) {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
        Ok(out)
    }

    /// Plan a query without executing it (for inspection and tests).
    pub fn plan(&self, query: &str) -> Result<LogicalPlan> {
        Ok(self.plan_with_cost(query)?.0)
    }

    /// Plan a query and return the memo-extracted plan with its
    /// estimated cost — what the engine reports to the dispatch router.
    pub fn plan_with_cost(&self, query: &str) -> Result<(LogicalPlan, PlanCost)> {
        let stmt = parser::parse(query)?;
        let plan = plan::build_logical_plan(stmt, &self.catalog)?;
        Ok(memo::optimize_with_cost(plan, &self.catalog))
    }

    /// Cumulative execution statistics across all queries run so far —
    /// the engine's operation counters for the architecture metrics —
    /// as a snapshot by value.
    pub fn stats(&self) -> ExecStats {
        let [rows_scanned, predicate_evals, rows_produced, hash_build_rows, hash_probe_rows, sort_comparisons] =
            self.stats.each_ref().map(|c| c.load(Ordering::Relaxed));
        ExecStats {
            rows_scanned,
            predicate_evals,
            rows_produced,
            hash_build_rows,
            hash_probe_rows,
            sort_comparisons,
        }
    }

    /// Reset the cumulative statistics.
    pub fn reset_stats(&self) {
        for cell in &self.stats {
            cell.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_common::value::{DataType, Field, Schema, Value};

    fn users() -> Table {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("city", DataType::Text),
            Field::new("age", DataType::Int),
        ]);
        let mut t = Table::new(schema);
        for (id, city, age) in [
            (1, "york", 30),
            (2, "leeds", 25),
            (3, "york", 41),
            (4, "hull", 25),
        ] {
            t.push(vec![Value::Int(id), Value::from(city), Value::Int(age)])
                .unwrap();
        }
        t
    }

    #[test]
    fn end_to_end_select_where() {
        let mut e = Engine::new();
        e.register("users", users()).unwrap();
        let out = e.sql("SELECT id FROM users WHERE city = 'york'").unwrap();
        let ids: Vec<i64> = out.rows().iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(ids, vec![1, 3]);
        assert!(e.stats().rows_scanned >= 4);
    }

    #[test]
    fn register_twice_fails() {
        let mut e = Engine::new();
        e.register("users", users()).unwrap();
        assert!(e.register("users", users()).is_err());
    }

    #[test]
    fn query_unknown_table_fails() {
        let e = Engine::new();
        assert!(e.sql("SELECT x FROM nope").is_err());
    }

    #[test]
    fn one_engine_serves_concurrent_point_selects() {
        // The load target's shape: a 1024-row `load(k, v)` table and
        // `SELECT v FROM load WHERE k = N`, one engine shared by every
        // thread. The barrier puts all threads in `sql` at once.
        const THREADS: usize = 4;
        const ROWS: i64 = 1024;
        let schema = Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Text)]);
        let mut load = Table::new(schema);
        for k in 0..ROWS {
            load.push(vec![Value::Int(k), Value::from(format!("val-{k:06}"))]).unwrap();
        }
        let mut e = Engine::new();
        e.register("load", load).unwrap();
        let keys: Vec<i64> = (0..64).map(|i| (i * 37) % ROWS).collect();
        let select = |k: i64| e.sql(&format!("SELECT v FROM load WHERE k = {k}")).unwrap();
        let sequential: Vec<Table> = keys.iter().map(|&k| select(k)).collect();
        assert_eq!(sequential[1].rows(), [vec![Value::from("val-000037")]]);
        e.reset_stats();
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    barrier.wait();
                    let answers: Vec<Table> = keys.iter().map(|&k| select(k)).collect();
                    assert_eq!(answers, sequential);
                });
            }
        });
        assert_eq!(e.stats().rows_scanned, (THREADS * keys.len()) as u64 * ROWS as u64);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut e = Engine::new();
        e.register("users", users()).unwrap();
        e.sql("SELECT id FROM users").unwrap();
        let first = e.stats().rows_scanned;
        e.sql("SELECT id FROM users").unwrap();
        assert_eq!(e.stats().rows_scanned, first * 2);
        e.reset_stats();
        assert_eq!(e.stats().rows_scanned, 0);
    }
}
