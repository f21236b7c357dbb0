//! FIG1 — the five-step benchmarking process (Figure 1).
//!
//! Runs the full pipeline (planning → data generation → test generation →
//! execution → analysis) on the micro/sort domain across volumes and
//! prints the per-step breakdown the figure describes.

use bdb_core::layers::BenchmarkSpec;
use bdb_core::pipeline::Benchmark;
use bdb_exec::reporter::{fmt_num, TableReporter};
use bdb_testgen::SystemKind;

fn report() {
    bdb_bench::banner("FIG1", "five-step benchmarking process, micro/sort, volume sweep");
    let bench = Benchmark::new();
    let mut table = TableReporter::new(
        "Per-step wall-clock (ms)",
        &["volume", "planning", "data gen", "test gen", "execution", "analysis"],
    );
    for scale in [1_000u64, 10_000, 100_000] {
        let spec = BenchmarkSpec::new("fig1")
            .with_prescription("micro/sort")
            .with_system(SystemKind::Native)
            .with_scale(scale)
            .with_seed(1);
        let run = bench.run(&spec).expect("pipeline runs");
        let ms: Vec<String> = run
            .phases
            .iter()
            .map(|p| fmt_num(p.duration.as_secs_f64() * 1e3))
            .collect();
        let mut row = vec![scale.to_string()];
        row.extend(ms);
        table.add_row(&row);
    }
    println!("{}", table.to_text());
    println!("Shape: execution and data generation dominate and scale with volume;\nplanning/test generation/analysis stay constant.");
}

fn main() {
    report();
}
