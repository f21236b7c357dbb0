//! The test generator (Section 3.3, Figure 4).
//!
//! The paper's test generator "abstracts from the workload behaviours of
//! current big data systems to a set of *operations* and *workload
//! patterns*", combines them into *prescriptions*, and materialises
//! *prescribed tests* for concrete systems. This crate implements each
//! component:
//!
//! * [`ops`] — the operation taxonomy: element operations, single-set
//!   operations, and double-set operations, classified exactly as the
//!   paper does (by the number of data sets an operation processes).
//! * [`pattern`] — the three workload patterns: single-operation,
//!   multi-operation (a finite DAG), and iterative-operation (a body plus
//!   a stopping condition, so the operation count is only known at run
//!   time).
//! * [`prescription`] — the serialisable artifact bundling a data spec,
//!   operations/pattern and an arrival pattern — "the information needed
//!   to produce a benchmarking test". Every result reports all four
//!   metric families, so a prescription does not pick them.
//! * [`arrival`] — operation arrival patterns (rates and sequences,
//!   Section 5.2), including hybrid mixes of prescriptions.
//! * [`bind`] — the *system view*: executing one abstract test on
//!   different engines (the SQL engine and the MapReduce engine) so
//!   systems of different types can be compared on identical semantics.
//! * [`repository`] — the reusable prescription repository Section 5.2
//!   calls for, pre-loaded with the paper's application domains.
//! * [`generator`] — the five-step generation process of Figure 4.

pub mod arrival;
pub mod bind;
pub mod generator;
pub mod ops;
pub mod pattern;
pub mod prescription;
pub mod repository;

pub use generator::{PrescribedTest, SystemKind, TestGenerator};
pub use ops::{Operation, OperationKind};
pub use pattern::{StoppingCondition, WorkloadPattern};
pub use prescription::{DataSpec, Prescription};
pub use repository::PrescriptionRepository;
