//! EXT1 — heterogeneous hardware platforms (Section 5.2).
//!
//! Runs real workloads on the baseline engines, then projects each onto
//! the modeled platform set (Xeon, Xeon+GPGPU, Xeon+MIC, microserver) and
//! answers the paper's two questions: is there a consistent
//! performance+energy winner across all applications (expected: no), and
//! which platform suits each application class.

use bdb_common::rng::{Rng, Xoshiro256};
use bdb_datagen::corpus::RAW_TEXT_CORPUS;
use bdb_datagen::graph::RmatGenerator;
use bdb_datagen::text::NaiveTextGenerator;
use bdb_datagen::volume::VolumeSpec;
use bdb_datagen::{DataGenerator, Dataset};
use bdb_exec::reporter::{fmt_num, TableReporter};
use bdb_metrics::platform::{PlatformProfile, PlatformStudy};
use bdb_metrics::MetricReport;
use bdb_workloads::{micro, oltp, search, social};

fn measured_workloads() -> Vec<MetricReport> {
    let mut rng = Xoshiro256::new(1);
    let keys: Vec<u64> = (0..50_000).map(|_| rng.next_u64()).collect();
    let gen = NaiveTextGenerator::from_corpus(&RAW_TEXT_CORPUS);
    let docs = match gen.generate(1, &VolumeSpec::Items(2_000)).expect("generates") {
        Dataset::Text { docs, .. } => docs,
        _ => unreachable!(),
    };
    let graph = RmatGenerator::standard(8.0).generate_graph(1, 12);
    let (points, _) = social::gaussian_mixture(20_000, 5, 8, 2.0, 1);
    let ycsb = oltp::run_ycsb(
        &oltp::YcsbSpec::b(),
        &oltp::YcsbConfig {
            record_count: 5_000,
            operation_count: 10_000,
            clients: 2,
            value_size: 64,
        },
        1,
    )
    .2;
    vec![
        micro::sort_native(&keys).1.report,
        micro::wordcount_native(&docs).1.report,
        search::pagerank_native(&graph.to_csr(), &Default::default()).2.report,
        social::kmeans_native(&points, &social::KMeansConfig { k: 5, ..Default::default() }, 1)
            .3
            .report,
        ycsb.report,
    ]
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
