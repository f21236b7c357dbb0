//! A miniature in-process MapReduce engine.
//!
//! The substrate standing in for Hadoop in this reproduction (see
//! DESIGN.md's substitution table). It executes the genuine MapReduce
//! dataflow — input splits → parallel map → optional combine →
//! hash-partitioned shuffle → per-partition sort → grouped reduce — on
//! threads instead of a cluster, with Hadoop-style job counters feeding
//! the architecture metrics. A job borrows its input, so keys and values
//! may borrow from it too; [`run_map`] is the map-only job a filter or a
//! projection runs as.
//!
//! ```
//! use bdb_mapreduce::{run_job, JobConfig};
//!
//! // WordCount over three "lines"; the keys are slices of the input.
//! let input = ["big data", "big systems", "data"];
//! let result = run_job(
//!     &JobConfig::default(),
//!     &input,
//!     |line, emit| {
//!         for w in line.split(' ') {
//!             emit(w, 1u64);
//!         }
//!     },
//!     |word, counts, out| out((word.to_string(), counts.iter().sum::<u64>())),
//! );
//! let mut pairs = result.outputs;
//! pairs.sort();
//! assert_eq!(pairs, vec![
//!     ("big".into(), 2), ("data".into(), 2), ("systems".into(), 1),
//! ]);
//! ```

pub mod counters;
pub mod runtime;

pub use counters::{CounterSnapshot, Counters};
pub use runtime::{run_job, run_job_with_combiner, run_map, JobConfig, JobResult};
