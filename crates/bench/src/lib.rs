//! `bdb-bench`: the paper's report programs.
//!
//! Each target under `benches/` is a plain `fn main` that regenerates one
//! paper artifact (a figure, a Section 5 proposal or an ablation; see the
//! experiment index in DESIGN.md) and prints its paper-style rows with its
//! own `Instant` timings. Tables 1 and 2 are regenerated by
//! `bdbench table1` / `bdbench table2`. Measuring `bdbench` itself is the
//! job of `benchmark/` at the repo root, not of this crate.

/// Print a banner naming the paper artifact a bench regenerates.
pub fn banner(id: &str, what: &str) {
    println!("\n================================================================");
    println!("{id}: {what}");
    println!("================================================================");
}
