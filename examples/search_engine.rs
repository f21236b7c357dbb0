//! Search-engine domain scenario.
//!
//! Trains an LDA topic model on the raw corpus, generates a larger
//! synthetic corpus from it and reports its veracity against the raw one.
//! Then runs the domain's prescriptions through the five-step pipeline:
//! `search/index` on the native kernel and on MapReduce (the functional
//! view requires identical answers, compared by output digest) and
//! `search/pagerank` over a generated web graph.
//!
//! ```text
//! cargo run --release --example search_engine
//! ```

use bdbench::datagen::corpus::RAW_TEXT_CORPUS;
use bdbench::datagen::text::lda::{LdaConfig, LdaModel};
use bdbench::datagen::veracity;
use bdbench::prelude::*;
use bdbench::workloads::OutputPayload;

/// Run one prescription through `Benchmark::run`.
fn run(prescription: &str, system: SystemKind, scale: u64) -> Result<BenchmarkRun> {
    let spec = BenchmarkSpec::new("search_engine")
        .with_prescription(prescription)
        .with_system(system)
        .with_scale(scale)
        .with_seed(7);
    Benchmark::new().run(&spec)
}

/// The first result of a run (every prescription here makes one).
fn result(run: &BenchmarkRun) -> &WorkloadResult {
    &run.results[0]
}

fn main() -> Result<()> {
    // --- Data generation (Figure 3): learn a dictionary + topic model
    // from the raw corpus, then generate a larger synthetic corpus.
    println!("training LDA on the raw corpus ...");
    let model = LdaModel::train(&RAW_TEXT_CORPUS, LdaConfig::default(), 42)?;
    for topic in 0..model.num_topics() {
        println!("  topic {topic}: {}", model.top_words(topic, 6).join(" "));
    }
    let dataset = model.generate(7, &VolumeSpec::Items(3_000))?;
    let (docs, vocab) = match &dataset {
        Dataset::Text { docs, vocab } => (docs, vocab),
        _ => unreachable!(),
    };
    println!(
        "generated {} synthetic documents ({} bytes approx)",
        docs.len(),
        dataset.byte_size()
    );

    // Veracity of the synthetic corpus vs the raw one (Section 5.1).
    let mut raw_vocab = Vocabulary::new();
    let raw_docs: Vec<Document> = RAW_TEXT_CORPUS
        .iter()
        .map(|t| Document::from_text(t, &mut raw_vocab))
        .collect();
    let mut rng = Xoshiro256::new(1);
    let report = veracity::text_veracity(&raw_docs, docs, vocab.len(), Some(&model), &mut rng);
    for (name, score) in &report.metrics {
        println!("  veracity {name}: {score:.4}");
    }

    // --- Index construction on both bindings.
    let native = run("search/index", SystemKind::Native, 3_000)?;
    let mapreduce = run("search/index", SystemKind::MapReduce, 3_000)?;
    let digest = |run: &BenchmarkRun| result(run).output.as_ref().map(OutputPayload::digest);
    assert_eq!(digest(&native), digest(&mapreduce), "functional view: indexes must match");
    println!(
        "\nfunctional view: search/index native == mapreduce (digest {:016x})",
        digest(&native).unwrap_or_default()
    );
    println!("{}", result(&native).report);
    println!("{}", result(&mapreduce).report);

    // --- PageRank over a generated web graph.
    let pagerank = run("search/pagerank", SystemKind::Native, 1 << 12)?;
    let pr = result(&pagerank);
    if let Some(OutputPayload::Numeric(ranks)) = &pr.output {
        let mut top: Vec<&(String, f64)> = ranks.iter().collect();
        top.sort_by(|a, b| b.1.total_cmp(&a.1));
        let names: Vec<&str> = top.iter().take(5).map(|(v, _)| v.as_str()).collect();
        println!(
            "\npagerank: {} vertices, {} iterations",
            ranks.len(),
            pr.detail("iterations").unwrap_or_default()
        );
        println!("  top pages: {names:?}");
    }
    println!("{}", pr.report);
    Ok(())
}
