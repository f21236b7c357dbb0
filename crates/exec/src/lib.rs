//! The Execution Layer (Figure 2, bottom).
//!
//! "The Execution Layer offers several functions to support the execution
//! of benchmark tests over different software stacks. Specifically, the
//! system configuration tools enable a generated test running in a
//! specific software stack. The data format conversion tools transform a
//! generated data set into a format capable of being used by this test.
//! The result analyzer and reporter display evaluation results."
//!
//! * [`config`] — system configuration tools (engine threads).
//! * [`convert`] — format conversion: CSV/TSV, JSON-lines, plain text and
//!   a length-prefixed binary format, all round-trippable.
//! * [`analyzer`] — result analysis: crossover points and the trace
//!   summaries (recovery, conformance, load) run reports print.
//! * [`reporter`] — plain-text and Markdown table rendering.
//! * [`fault`] — deterministic fault injection ([`fault::FaultPlan`])
//!   and the one guarded attempt ([`fault::run_with_fault`]) every
//!   dataset, dispatch and load op runs under. Nothing is retried.
//! * [`journal`] — the run journal: atomic per-cell checkpoints that let
//!   a killed run `--resume` without re-executing completed cells.
//! * [`loadgen`] — the concurrent load driver: N client sessions × M
//!   in-flight ops, closed- and open-loop arrivals (self-pacing lanes, a
//!   bounded queue of waiting ops with shedding), tail-latency, rate and
//!   dispatch-lateness reporting.
//! * [`engine`] — the pluggable engine abstraction: an [`engine::Engine`]
//!   trait with declared [`engine::Capabilities`], five builtin engine
//!   implementations (native, sql, kv, streaming, mapreduce) and a
//!   capability-routing [`engine::EngineRegistry`] (explicit system
//!   first, then registration order).
//! * [`trace`] — structured phase/dispatch/operation tracing for one run.

pub mod analyzer;
pub mod config;
pub mod convert;
pub mod engine;
pub mod fault;
pub mod journal;
pub mod loadgen;
pub mod reporter;
pub mod trace;

pub use analyzer::{
    find_crossover, ConformanceSummary, HealthSummary, LoadSummary, RecoverySummary,
    RoutingSummary,
};
pub use config::SystemConfig;
pub use convert::DataFormat;
pub use engine::{
    Capabilities, Engine, EngineRegistry, ExecutionRequest, PatternShape, Routing, RoutingPolicy,
    TestProfile, WorkloadClass,
};
pub use fault::{FaultInjector, FaultKind, FaultPhase, FaultPlan, FaultSite};
pub use journal::{CellCheckpoint, RunJournal};
pub use loadgen::{run_load, LoadArrival, LoadProfile, LoadReport};
pub use reporter::TableReporter;
pub use trace::{RunTrace, TraceEvent};
