//! The Execution Layer (Figure 2, bottom).
//!
//! "The Execution Layer offers several functions to support the execution
//! of benchmark tests over different software stacks. Specifically, the
//! system configuration tools enable a generated test running in a
//! specific software stack. The data format conversion tools transform a
//! generated data set into a format capable of being used by this test.
//! The result analyzer and reporter display evaluation results."
//!
//! * [`config`] — system configuration tools (threads, generator
//!   workers, engine parameters).
//! * [`convert`] — format conversion: CSV/TSV, JSON-lines, plain text and
//!   a length-prefixed binary format, all round-trippable.
//! * [`analyzer`] — result analysis: speedups, winners, crossover points
//!   and recovery summaries for chaos runs.
//! * [`reporter`] — plain-text and Markdown table rendering.
//! * [`fault`] — deterministic fault injection ([`fault::FaultPlan`]),
//!   retry with jittered backoff ([`fault::RetryPolicy`]) and the
//!   recovery loop resilient dispatch is built from.
//! * [`journal`] — the run journal: atomic per-cell checkpoints that let
//!   a killed run `--resume` without re-executing completed cells.
//! * [`health`] — health-aware serving: per-engine circuit breakers
//!   (closed → open → half-open) in a thread-safe shared
//!   [`health::HealthStore`]; the router demotes open engines, dispatch
//!   skips them, and the load driver's brownout controller sheds
//!   proportionally while they recover.
//! * [`loadgen`] — the concurrent load driver: N client sessions × M
//!   in-flight ops, closed- and open-loop arrivals, bounded admission
//!   with shedding, tail-latency and saturation reporting.
//! * [`engine`] — the pluggable engine abstraction: an [`engine::Engine`]
//!   trait with declared [`engine::Capabilities`], five builtin engine
//!   implementations (native, sql, kv, streaming, mapreduce) and a
//!   capability-routing [`engine::EngineRegistry`].
//! * [`cost`] — the dispatch cost model: static per-engine cost functions
//!   over (class × data kind × scale) and the EWMA observed-runtime store
//!   the adaptive router learns from.
//! * [`planner`] — the cost-based router: scores `route_all` candidates
//!   and re-orders each routing partition by predicted cost under
//!   `--routing cost|adaptive`.
//! * [`trace`] — structured phase/dispatch/operation tracing for one run.

pub mod analyzer;
pub mod config;
pub mod convert;
pub mod cost;
pub mod engine;
pub mod fault;
pub mod health;
pub mod journal;
pub mod loadgen;
pub mod planner;
pub mod reporter;
pub mod trace;

pub use analyzer::{
    compare, find_crossover, Comparison, ConformanceSummary, HealthSummary, LoadSummary,
    RecoverySummary, RoutingSummary,
};
pub use config::SystemConfig;
pub use convert::DataFormat;
pub use cost::{CostFn, ObservedCosts, StaticCostModel};
pub use engine::{
    Capabilities, Engine, EngineRegistry, ExecutionRequest, PatternShape, Routing, TestProfile,
    WorkloadClass,
};
pub use planner::{CostSource, Ranked, Router, RoutingPolicy, Score};
pub use fault::{FaultInjector, FaultKind, FaultPhase, FaultPlan, FaultSite, Resilience, RetryPolicy};
pub use health::{Admission, BreakerPolicy, BreakerSnapshot, BreakerState, HealthStore};
pub use journal::{CellCheckpoint, RunJournal};
pub use loadgen::{run_load, run_load_resilient, LoadArrival, LoadProfile, LoadReport};
pub use reporter::TableReporter;
pub use trace::{RunTrace, TraceEvent};
