//! The five-step test generation process of Figure 4.
//!
//! Step 1 selects a data set, steps 2–3 select operations and workload
//! patterns, step 4 produces a [`Prescription`], and step 5 materialises a
//! [`PrescribedTest`] for a specific system and software stack using the
//! system configuration tools (`bdb-exec`).

use crate::arrival::ArrivalSpec;
use crate::ops::Operation;
use crate::pattern::WorkloadPattern;
use crate::prescription::{DataSpec, Prescription};
use bdb_common::{BdbError, Result};
use serde::{Deserialize, Serialize};

/// The concrete system a prescribed test targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SystemKind {
    /// The MapReduce engine (`bdb-mapreduce`).
    MapReduce,
    /// The relational engine (`bdb-sql`).
    Sql,
    /// The LSM key-value store (`bdb-kv`).
    KeyValue,
    /// The streaming engine (`bdb-stream`).
    Streaming,
    /// A hand-written native kernel in `bdb-workloads`.
    Native,
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SystemKind::MapReduce => "mapreduce",
            SystemKind::Sql => "sql",
            SystemKind::KeyValue => "kv",
            SystemKind::Streaming => "streaming",
            SystemKind::Native => "native",
        };
        f.write_str(s)
    }
}

/// A prescription bound to a target system: the output of Figure 4 step 5.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrescribedTest {
    /// The underlying prescription.
    pub prescription: Prescription,
    /// Target system.
    pub system: SystemKind,
    /// Master seed for the test's data generation.
    pub seed: u64,
}

/// Builder walking the five steps of Figure 4.
#[derive(Debug, Default, Clone)]
pub struct TestGenerator {
    data: Vec<DataSpec>,
    operations: Vec<Operation>,
    pattern: Option<WorkloadPattern>,
    arrival: ArrivalSpec,
}

impl TestGenerator {
    /// Start a fresh generation session.
    pub fn new() -> Self {
        Self::default()
    }

    /// Step 1: select an input data set.
    pub fn select_data(mut self, spec: DataSpec) -> Self {
        self.data.push(spec);
        self
    }

    /// Step 2: select an abstracted operation (bookkeeping; the pattern in
    /// step 3 wires them together).
    pub fn select_operation(mut self, op: Operation) -> Self {
        self.operations.push(op);
        self
    }

    /// Step 3: select the workload pattern combining the operations.
    pub fn select_pattern(mut self, pattern: WorkloadPattern) -> Self {
        self.pattern = Some(pattern);
        self
    }

    /// Optional: set the arrival pattern (defaults to batch).
    pub fn with_arrival(mut self, arrival: ArrivalSpec) -> Self {
        self.arrival = arrival;
        self
    }

    /// Step 4: produce and validate the prescription.
    pub fn prescribe(
        self,
        name: impl Into<String>,
        description: impl Into<String>,
    ) -> Result<Prescription> {
        let pattern = self
            .pattern
            .ok_or_else(|| BdbError::TestGen("no workload pattern selected".into()))?;
        // Every selected operation must appear in the pattern: catches
        // mismatched step-2/step-3 selections.
        for op in &self.operations {
            if !pattern.operations().contains(&op) {
                return Err(BdbError::TestGen(format!(
                    "selected operation {} is not used by the pattern",
                    op.name()
                )));
            }
        }
        let p = Prescription {
            name: name.into(),
            description: description.into(),
            data: self.data,
            pattern,
            arrival: self.arrival,
        };
        p.validate()?;
        Ok(p)
    }

    /// Step 5: bind a prescription to a system, yielding a prescribed test.
    pub fn materialize(prescription: Prescription, system: SystemKind, seed: u64) -> Result<PrescribedTest> {
        prescription.validate()?;
        Ok(PrescribedTest { prescription, system, seed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{AggSpec, Operation};
    use crate::pattern::{InputRef, Step};

    fn data_spec() -> DataSpec {
        DataSpec { name: "orders".into(), generator: "table/retail-fitted".into(), items: 1000 }
    }

    #[test]
    fn five_steps_produce_a_valid_prescribed_test() {
        let agg = Operation::Aggregate {
            function: AggSpec::Sum,
            column: Some("total".into()),
            group_by: vec!["city".into()],
        };
        let prescription = TestGenerator::new()
            .select_data(data_spec())
            .select_operation(agg.clone())
            .select_pattern(WorkloadPattern::Multi {
                steps: vec![Step {
                    id: 0,
                    op: agg,
                    inputs: vec![InputRef::Dataset("orders".into())],
                }],
            })
            .prescribe("db/sum-by-city", "grouped revenue")
            .unwrap();
        let test =
            TestGenerator::materialize(prescription, SystemKind::Sql, 42).unwrap();
        assert_eq!(test.system, SystemKind::Sql);
        assert_eq!(test.prescription.name, "db/sum-by-city");
        assert_eq!(SystemKind::MapReduce.to_string(), "mapreduce");
    }

    #[test]
    fn pattern_is_mandatory() {
        let r = TestGenerator::new()
            .select_data(data_spec())
            .prescribe("x", "y");
        assert!(r.is_err());
    }

    #[test]
    fn selected_operation_must_appear_in_pattern() {
        let r = TestGenerator::new()
            .select_data(data_spec())
            .select_operation(Operation::Count)
            .select_pattern(WorkloadPattern::Single {
                op: Operation::WordCount,
                input: "orders".into(),
            })
            .prescribe("x", "y");
        assert!(r.is_err());
    }
}
