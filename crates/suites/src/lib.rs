//! Mini-models of the surveyed benchmark suites, and the harnesses that
//! regenerate the paper's Table 1 and Table 2.
//!
//! The paper's evaluation artifacts are two survey tables classifying ten
//! benchmark efforts. This crate makes those classifications *executable*:
//! each suite in [`catalog`] generates data the way the original suite
//! does (e.g. HiBench's random text writer vs BigDataBench's model-fitted
//! generation) and pairs each of the paper's example workloads with the
//! repository prescription and system that run it, or "not run".
//!
//! * [`descriptor`] — the classification vocabulary (scalable /
//!   partially-scalable, un-/semi-/fully-controllable, un-/partially-/
//!   considered), the example-to-prescription pairing, and the
//!   `BenchmarkSuite` trait.
//! * [`catalog`] — the ten surveyed suites (HiBench, GridMix, PigMix,
//!   YCSB, the Pavlo performance benchmark, TPC-DS, BigBench, LinkBench,
//!   CloudSuite, BigDataBench) **plus** `bdbench` itself, the framework
//!   this paper proposes, which demonstrates the Section 5.1 extensions
//!   (fully controllable velocity, veracity metrics).
//! * [`table1`] — empirically measures each suite's 4V classification and
//!   prints the Table 1 comparison (paper's cell vs measured cell).
//! * [`table2`] — runs each suite's prescriptions through
//!   `Benchmark::run` under the strict oracle and prints the Table 2
//!   comparison (measured workload types, examples, stacks, verdicts).

pub mod catalog;
pub mod descriptor;
pub mod table1;
pub mod table2;

pub use catalog::all_suites;
pub use descriptor::{
    BenchmarkSuite, SuiteDescriptor, SuiteWorkload, VelocityClass, VeracityClass, VolumeClass,
};
pub use table1::{measure_suite, MeasuredRow};
pub use table2::{run_suite, SuiteRun};
