//! The benchmark framework facade: Figure 1's process over Figure 2's
//! layers.
//!
//! * [`registry`] — the data-generator registry: prescriptions name
//!   generators by id ("text/lda", "table/retail-fitted", …); the registry
//!   materialises them.
//! * [`layers`] — the three-layer architecture of Figure 2: the *User
//!   Interface Layer* ([`layers::BenchmarkSpec`]), the *Function Layer*
//!   (data generators + test generator + metrics), and the *Execution
//!   Layer* (system configuration, format conversion, analysis).
//! * [`pipeline`] — the five-step benchmarking process of Figure 1:
//!   Planning → Data generation → Test generation → Execution →
//!   Analysis & Evaluation, with per-step timings.
//!
//! ```
//! use bdb_core::pipeline::Benchmark;
//! use bdb_core::layers::BenchmarkSpec;
//!
//! let spec = BenchmarkSpec::new("demo")
//!     .with_prescription("micro/wordcount")
//!     .with_scale(200)
//!     .with_seed(42);
//! let run = Benchmark::new().run(&spec).unwrap();
//! assert_eq!(run.phases.len(), 5);
//! assert!(!run.results.is_empty());
//! ```

pub mod layers;
pub mod matrix;
pub mod pipeline;
pub mod registry;

pub use layers::{BenchmarkSpec, ExecutionLayer, FunctionLayer, UserInterfaceLayer};
pub use matrix::{verify_matrix, verify_matrix_routed, MatrixCell, MatrixReport};
pub use pipeline::{Benchmark, BenchmarkRun, LoadRun, PhaseTiming};
pub use registry::GeneratorRegistry;

/// Glob import for applications.
pub mod prelude {
    pub use crate::layers::BenchmarkSpec;
    pub use crate::matrix::{verify_matrix, verify_matrix_routed, MatrixReport};
    pub use crate::pipeline::{Benchmark, BenchmarkRun, LoadRun};
    pub use bdb_exec::loadgen::{LoadArrival, LoadProfile};
    pub use bdb_verify::VerifyMode;
    pub use crate::registry::GeneratorRegistry;
    pub use bdb_common::prelude::*;
    pub use bdb_datagen::volume::VolumeSpec;
    pub use bdb_datagen::{DataGenerator, DataSourceKind, Dataset};
    pub use bdb_metrics::MetricReport;
    pub use bdb_testgen::{Prescription, PrescriptionRepository, SystemKind};
    pub use bdb_workloads::{WorkloadCategory, WorkloadResult};
}
