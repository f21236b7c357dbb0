//! FIG3 — the data generation process (Figure 3).
//!
//! Exercises the per-type generation paths (text via LDA and Markov,
//! table via fitted models, graph via RMAT and BA, stream via Poisson and
//! MMPP) across a volume sweep, printing items/sec per generator — the
//! *volume* and *velocity* columns of the process.

use bdb_datagen::behavioral::BehavioralEvents;
use bdb_datagen::corpus::{karate_club_graph, raw_retail_table, RAW_TEXT_CORPUS};
use bdb_datagen::graph::{fit_rmat, BaGenerator, RmatGenerator};
use bdb_datagen::stream::{MmppArrivals, PoissonArrivals};
use bdb_datagen::table::TableGenerator;
use bdb_datagen::text::lda::{LdaConfig, LdaModel};
use bdb_datagen::text::markov::MarkovTextGenerator;
use bdb_datagen::volume::VolumeSpec;
use bdb_datagen::DataGenerator;
use bdb_exec::reporter::{fmt_num, TableReporter};
use std::time::Instant;

fn generators() -> Vec<Box<dyn DataGenerator>> {
    let lda = LdaModel::train(
        &RAW_TEXT_CORPUS,
        LdaConfig { iterations: 60, ..Default::default() },
        7,
    )
    .expect("trains");
    vec![
        Box::new(lda),
        Box::new(MarkovTextGenerator::train(&RAW_TEXT_CORPUS).expect("trains")),
        Box::new(TableGenerator::fit("retail", &raw_retail_table()).expect("fits")),
        Box::new(fit_rmat(&karate_club_graph(), 7).expect("fits")),
        Box::new(BaGenerator::new(4).expect("valid")),
        Box::new(RmatGenerator::standard(8.0)),
        Box::new(PoissonArrivals::new(10_000.0, 64).expect("valid")),
        Box::new(MmppArrivals::new(2_000.0, 20_000.0, 200.0, 64).expect("valid")),
    ]
}

fn report() {
    bdb_bench::banner(
        "FIG3",
        "data generation process: per-type generators, volume sweep 10^3..10^5",
    );
    let mut table = TableReporter::new(
        "Generation rate (items/sec) by volume",
        &["generator", "kind", "1k", "10k", "100k", "scaling"],
    );
    for gen in generators() {
        let mut rates = Vec::new();
        for items in [1_000u64, 10_000, 100_000] {
            let t0 = Instant::now();
            let d = gen.generate(3, &VolumeSpec::Items(items)).expect("generates");
            let secs = t0.elapsed().as_secs_f64().max(1e-9);
            // Graphs interpret Items as vertices but count edges as items.
            rates.push(d.item_count() as f64 / secs);
        }
        // Linear scaling: the rate stays within an order of magnitude.
        let scaling = if rates[2] > rates[0] / 8.0 { "~linear" } else { "sub-linear" };
        table.add_row(&[
            gen.name().to_string(),
            gen.kind().to_string(),
            fmt_num(rates[0]),
            fmt_num(rates[1]),
            fmt_num(rates[2]),
            scaling.to_string(),
        ]);
    }
    println!("{}", table.to_text());
    println!("Shape: every generator family sustains its rate as volume grows\n(scalable volume, Figure 3 step 3).");
}

/// Thread-scaling report: the BDGS-style parallel deployment lever.
/// Prints achieved items/sec and speedup vs one worker for the table and
/// behavioral event generators at 1/2/4/N workers (N = available
/// parallelism); Poisson and MMPP streams do not shard.
fn thread_scaling_report() {
    let n_auto = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut workers: Vec<usize> = vec![1, 2, 4];
    if !workers.contains(&n_auto) {
        workers.push(n_auto);
    }
    let table_gen = TableGenerator::fit("retail", &raw_retail_table()).expect("fits");
    let events_gen = BehavioralEvents::new(64, 8, 500, 2_000).expect("valid");
    let cases: Vec<(&str, &dyn DataGenerator, u64)> = vec![
        ("table/retail-fitted", &table_gen, 1_000_000),
        ("behavioral/events", &events_gen, 2_000_000),
    ];
    let mut report = TableReporter::new(
        "Parallel generation scaling (items/sec by workers)",
        &["generator", "items", "workers", "items/s", "speedup"],
    );
    for (name, gen, items) in cases {
        let mut base_rate = None;
        for &w in &workers {
            let t0 = Instant::now();
            let d = gen
                .generate_parallel(3, &VolumeSpec::Items(items), w)
                .expect("generates");
            let secs = t0.elapsed().as_secs_f64().max(1e-9);
            let rate = d.item_count() as f64 / secs;
            let base = *base_rate.get_or_insert(rate);
            report.add_row(&[
                name.to_string(),
                items.to_string(),
                w.to_string(),
                fmt_num(rate),
                format!("{:.2}x", rate / base),
            ]);
        }
    }
    println!("{}", report.to_text());
    println!("Shape: sharded generation scales with workers while staying\nbyte-identical to the sequential run (deterministic PDGF sharding).");
}

fn main() {
    report();
    thread_scaling_report();
}
