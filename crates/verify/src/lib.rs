//! Differential conformance for the Execution Layer.
//!
//! Section 6 of the paper asks how one *trusts* a benchmark result that
//! was produced by five different engines over four data source kinds.
//! This crate answers with three oracle tiers, each catching what the
//! tier above cannot:
//!
//! 1. **A reference interpreter** ([`oracle`]): naive, obviously-correct
//!    implementations of every operation class (text kernels, relational
//!    DAGs, iterative graph/clustering kernels, YCSB element mixes,
//!    windowed streams) over plain in-memory data. No parallelism, no
//!    optimizer, no LSM — just the semantics.
//! 2. **Differential checking** ([`conformance`]): every dispatched
//!    prescription can be re-run on the oracle and diffed against the
//!    engine's [`bdb_workloads::OutputPayload`] — row-set equality for
//!    tables, ordered equality for streams (the zero-lateness watermark
//!    contract makes pane emission deterministic), numeric equality
//!    within a stated epsilon for iterative kernels.
//! 3. **Golden runs** ([`golden`]): canonical payload digests stored
//!    under `goldens/`, keyed by `(prescription, engine, seed, scale)`,
//!    so a behaviour change that shifts *both* the engine and the oracle
//!    (a shared-substrate bug) still trips the gate.
//!
//! The run journal ([`journal`]) sits beside the golden store: a
//! journaled sweep checkpoints each cell's verdict under the cell's
//! golden key, so a killed sweep resumes without re-executing the cells
//! it completed.
//!
//! Verdicts are recorded as
//! [`bdb_exec::trace::TraceEvent::ConformanceChecked`] events and roll up
//! into the analyzer's [`bdb_exec::analyzer::ConformanceSummary`].

pub mod conformance;
pub mod golden;
pub mod journal;
pub mod oracle;

pub use conformance::{Conformance, VerifyMode};
pub use golden::{GoldenRecord, GoldenStore};
pub use journal::{CellCheckpoint, RunJournal};
pub use oracle::oracle_payload;
