//! `bdb-bench`: the statistical measurement subsystem plus the paper's
//! report programs.
//!
//! Two halves live here:
//!
//! * The **statistical hot-path bench** behind `bdbench bench` —
//!   [`sampling`] (warmup discard, N repeated samples, MAD outlier
//!   classification, t-distribution 95% confidence intervals),
//!   [`hotpaths`] (the ten measured hot paths), and [`ledger`] (the
//!   committed `BENCH_N.json` perf-regression ledger and its
//!   non-overlapping-CI significance comparison). This is where kernel
//!   timing lives.
//! * The **report programs** under `benches/`, each a plain `fn main`
//!   that regenerates one paper artifact (a figure, a Section 5 proposal
//!   or an ablation; see the experiment index in DESIGN.md) and prints
//!   its paper-style rows with its own `Instant` timings. Tables 1 and 2
//!   are regenerated by `bdbench table1` / `bdbench table2`.

pub mod hotpaths;
pub mod ledger;
pub mod sampling;

/// Print a banner naming the paper artifact a bench regenerates.
pub fn banner(id: &str, what: &str) {
    println!("\n================================================================");
    println!("{id}: {what}");
    println!("================================================================");
}
