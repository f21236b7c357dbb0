//! Benchmark metrics (the Metrics component of the Function Layer).
//!
//! The paper splits evaluation metrics into two families plus two
//! extensions, all implemented here:
//!
//! * **User-perceivable metrics** ([`collector`]) — "the duration of a
//!   test, request latency, and throughput": a wall-clock run timer, a
//!   log-bucketed latency histogram with p50/p95/p99, and derived
//!   throughput. Used to compare workloads *of the same category*.
//! * **Architecture metrics** ([`arch`]) — MIPS/MFLOPS-style rates built
//!   from deterministic engine operation counters (the substitution for
//!   hardware counters; see DESIGN.md). Used to compare workloads *across
//!   categories*.
//! * **Energy and cost models** ([`model`]) — the paper requires metrics
//!   to "take energy consumption, cost efficiency into consideration"; a
//!   parameterised linear power model and $/core-hour cost model make both
//!   computable.
//! * **Platform models** ([`platform`]) — the Section 5.2 heterogeneous
//!   hardware extension: project measured runs onto modeled Xeon+GPGPU /
//!   Xeon+MIC / microserver platforms and answer the paper's two
//!   cross-platform questions.
//! * [`report`] assembles everything into one serialisable
//!   [`report::MetricReport`].

pub mod arch;
pub mod collector;
pub mod model;
pub mod platform;
pub mod report;

pub use arch::{ArchMetrics, OpCounts};
pub use collector::{GenerationMetrics, MetricsCollector, UserMetrics};
pub use model::{CostModel, PowerModel};
pub use platform::{PlatformProfile, PlatformProjection, PlatformStudy};
pub use report::MetricReport;
