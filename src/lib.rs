//! `bdbench` — a big data benchmarking framework in Rust.
//!
//! A full implementation of the methodology of *"On Big Data
//! Benchmarking"* (Han & Lu, 2014): data generators preserving the 4V
//! properties of big data, an abstract test generator (operations,
//! workload patterns, prescriptions), user-perceivable and architecture
//! metrics with energy/cost models, an execution layer with format
//! conversion and result analysis, the workloads of the paper's survey,
//! runnable models of the ten surveyed benchmark suites, and the engines
//! (MapReduce, SQL, LSM key-value, streaming) everything runs on.
//!
//! Start with [`core::pipeline::Benchmark`] for the five-step process, or
//! the `examples/` directory for end-to-end scenarios. See DESIGN.md for
//! the crate inventory and EXPERIMENTS.md for the reproduced tables and
//! figures.

pub use bdb_common as common;
pub use bdb_core as core;
pub use bdb_datagen as datagen;
pub use bdb_exec as exec;
pub use bdb_kv as kv;
pub use bdb_mapreduce as mapreduce;
pub use bdb_metrics as metrics;
pub use bdb_sql as sql;
pub use bdb_stream as stream;
pub use bdb_suites as suites;
pub use bdb_testgen as testgen;
pub use bdb_verify as verify;
pub use bdb_workloads as workloads;

/// Everything an application typically needs.
pub mod prelude {
    pub use bdb_core::prelude::*;
}
