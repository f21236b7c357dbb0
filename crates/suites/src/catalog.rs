//! Models of the ten surveyed suites plus `bdbench` itself.
//!
//! Each suite reproduces the *generation style* the paper attributes to
//! it, at laptop scale: HiBench writes random text and also ships fixed
//! inputs; TPC-DS's MUDD draws most columns from textbook distributions
//! with a few realistic ones; LinkBench fits a graph model to a real
//! social graph; BigDataBench fits a model per data type; and `bdbench`
//! adds the Section 5.1 extensions (update-frequency and algorithmic
//! velocity control). Its *workload set* is the paper's example cells,
//! each paired with the repository prescription and system that run it
//! (or "not run"); [`crate::table2`] runs them through the pipeline.

use crate::descriptor::{
    BenchmarkSuite, GenerationCapabilities, SuiteDescriptor, SuiteWorkload, VelocityClass,
    VeracityClass, VeracityProbe, VolumeClass,
};
use bdb_common::prelude::*;
use bdb_common::text::Document;
use bdb_common::Result;
use bdb_core::registry::builtin_lda;
use bdb_datagen::corpus::{karate_club_graph, raw_retail_table, RAW_TEXT_CORPUS};
use bdb_datagen::graph::{fit_rmat, ErdosRenyiGenerator, RmatGenerator};
use bdb_datagen::stream::PoissonArrivals;
use bdb_datagen::table::TableGenerator;
use bdb_datagen::text::markov::MarkovTextGenerator;
use bdb_datagen::text::NaiveTextGenerator;
use bdb_datagen::veracity;
use bdb_datagen::volume::VolumeSpec;
use bdb_datagen::{DataGenerator, DataSourceKind, Dataset};
use bdb_testgen::SystemKind::{KeyValue, MapReduce, Native, Sql, Streaming};
use bdb_workloads::{relational, WorkloadCategory};

// ---------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------

fn raw_documents() -> (Vec<Document>, Vocabulary) {
    let mut vocab = Vocabulary::new();
    let docs = RAW_TEXT_CORPUS
        .iter()
        .map(|t| Document::from_text(t, &mut vocab))
        .collect();
    (docs, vocab)
}

fn text_docs(gen: &dyn DataGenerator, seed: u64, n: u64) -> Result<Vec<Document>> {
    match gen.generate(seed, &VolumeSpec::Items(n))? {
        Dataset::Text { docs, .. } => Ok(docs),
        _ => unreachable!("text generator yields text"),
    }
}

/// Word-frequency + topic-distribution veracity of a text generator
/// against the raw corpus, with the naive generator as baseline.
fn text_veracity_probe(gen: &dyn DataGenerator, seed: u64) -> VeracityProbe {
    let (raw, vocab) = raw_documents();
    let m = Some(builtin_lda());
    let synth = text_docs(gen, seed, 200).expect("generation succeeds");
    let naive = NaiveTextGenerator::from_corpus(&RAW_TEXT_CORPUS);
    let base = text_docs(&naive, seed ^ 0x55, 200).expect("generation succeeds");
    let mut rng = Xoshiro256::new(seed);
    let score = veracity::text_veracity(&raw, &synth, vocab.len(), m, &mut rng).overall();
    let baseline = veracity::text_veracity(&raw, &base, vocab.len(), m, &mut rng).overall();
    VeracityProbe { score, naive_baseline: baseline }
}

/// Table veracity of a generator against the raw retail table, with the
/// naive table generator as baseline.
fn table_veracity_probe(gen: &TableGenerator, seed: u64) -> VeracityProbe {
    let raw = raw_retail_table();
    let synth = gen.generate_shard(seed, 0, raw.len() as u64);
    let naive = TableGenerator::naive("retail", &raw).expect("naive fits");
    let base = naive.generate_shard(seed, 0, raw.len() as u64);
    VeracityProbe {
        score: veracity::table_veracity(&raw, &synth).expect("schemas match").overall(),
        naive_baseline: veracity::table_veracity(&raw, &base)
            .expect("schemas match")
            .overall(),
    }
}

/// Graph veracity of a fitted RMAT against the karate club, with
/// Erdős–Rényi as baseline.
///
/// The structural characteristic is the degree distribution, compared at
/// the raw graph's own scale and averaged over several generation seeds —
/// a 34-vertex reference graph is too small for a single sample to be
/// stable.
fn graph_veracity_probe(seed: u64) -> VeracityProbe {
    use bdb_datagen::graph::hub_concentration;
    let raw = karate_club_graph();
    let fitted = fit_rmat(&raw, seed).expect("fit succeeds");
    let er = ErdosRenyiGenerator {
        edges_per_vertex: raw.num_edges() as f64 / raw.num_vertices() as f64,
    };
    let scale = 6u32; // 64 vertices >= 34
    let rounds = 5u64;
    let target = hub_concentration(&raw);
    let mut fit_score = 0.0;
    let mut er_score = 0.0;
    for r in 0..rounds {
        let s = seed.wrapping_add(r * 7919);
        fit_score += (hub_concentration(&fitted.generate_graph(s, scale)) - target).abs();
        er_score += (hub_concentration(&er.generate_graph(s, 64)) - target).abs();
    }
    VeracityProbe {
        score: fit_score / rounds as f64,
        naive_baseline: er_score / rounds as f64,
    }
}

/// A fixed-size input data set (HiBench/LinkBench/CloudSuite ship these):
/// always returns the embedded corpus regardless of the requested volume.
#[derive(Debug, Clone, Copy)]
pub struct FixedCorpusDataset;

impl DataGenerator for FixedCorpusDataset {
    fn name(&self) -> &str {
        "text/fixed-corpus"
    }

    fn kind(&self) -> DataSourceKind {
        DataSourceKind::Text
    }

    fn generate(&self, _seed: u64, _volume: &VolumeSpec) -> Result<Dataset> {
        let (docs, vocab) = raw_documents();
        Ok(Dataset::Text { docs, vocab })
    }
}

/// A fixed social graph input (LinkBench's Facebook-graph shape).
#[derive(Debug, Clone, Copy)]
pub struct FixedGraphDataset;

impl DataGenerator for FixedGraphDataset {
    fn name(&self) -> &str {
        "graph/fixed-karate"
    }

    fn kind(&self) -> DataSourceKind {
        DataSourceKind::Graph
    }

    fn generate(&self, _seed: u64, _volume: &VolumeSpec) -> Result<Dataset> {
        Ok(Dataset::Graph(karate_club_graph()))
    }
}

/// The MUDD-style TPC-DS table generator: most columns from textbook
/// distributions, "a small portion of crucial data sets using more
/// realistic distributions derived from real data" — here the product
/// popularity column is fitted empirically, everything else is naive.
pub fn mudd_table_generator() -> TableGenerator {
    let raw = raw_retail_table();
    let fitted = TableGenerator::fit("retail", &raw).expect("fit succeeds");
    let naive = TableGenerator::naive("retail", &raw).expect("naive fits");
    let product_idx = raw.schema().index_of("product").expect("product column");
    let category_idx = raw.schema().index_of("category").expect("category column");
    let mut models = naive.models().to_vec();
    for i in [product_idx, category_idx] {
        models[i] = fitted.models()[i].clone();
    }
    TableGenerator::new("retail", raw.schema().clone(), models).expect("valid generator")
}

// ---------------------------------------------------------------------
// The suites
// ---------------------------------------------------------------------

/// HiBench: Hadoop micro + ML workloads over random text and fixed inputs.
#[derive(Debug, Clone, Copy)]
pub struct HiBench;

impl BenchmarkSuite for HiBench {
    fn descriptor(&self) -> SuiteDescriptor {
        SuiteDescriptor {
            name: "HiBench",
            volume: VolumeClass::PartiallyScalable,
            velocity: VelocityClass::UnControllable,
            variety: vec![DataSourceKind::Text],
            veracity: VeracityClass::UnConsidered,
            workload_types: vec![
                WorkloadCategory::OfflineAnalytics,
                WorkloadCategory::RealTimeAnalytics,
            ],
            workloads: vec![
                SuiteWorkload::on("Sort", "micro/sort", MapReduce),
                SuiteWorkload::on("WordCount", "micro/wordcount", MapReduce),
                SuiteWorkload::not_run("TeraSort"),
                SuiteWorkload::on("PageRank", "search/pagerank", MapReduce),
                SuiteWorkload::on("K-means", "social/kmeans", MapReduce),
                SuiteWorkload::on("Bayes classification", "ecommerce/naive-bayes", MapReduce),
                SuiteWorkload::on("Nutch Indexing", "search/index", MapReduce),
            ],
            software_stacks: vec![("Hadoop-analog", MapReduce), ("Hive-analog", MapReduce)],
        }
    }

    fn generators(&self) -> Vec<Box<dyn DataGenerator>> {
        vec![
            Box::new(NaiveTextGenerator::from_corpus(&RAW_TEXT_CORPUS)),
            Box::new(FixedCorpusDataset),
        ]
    }

    fn capabilities(&self) -> GenerationCapabilities {
        GenerationCapabilities { has_fixed_size_inputs: true, ..Default::default() }
    }

    fn veracity_probe(&self, _seed: u64) -> Option<VeracityProbe> {
        None // random text writer: generation is independent of real data
    }
}

/// GridMix: Hadoop cluster mix — sort and dataset sampling.
#[derive(Debug, Clone, Copy)]
pub struct GridMix;

impl BenchmarkSuite for GridMix {
    fn descriptor(&self) -> SuiteDescriptor {
        SuiteDescriptor {
            name: "GridMix",
            volume: VolumeClass::Scalable,
            velocity: VelocityClass::UnControllable,
            variety: vec![DataSourceKind::Text],
            veracity: VeracityClass::UnConsidered,
            workload_types: vec![WorkloadCategory::OnlineServices],
            workloads: vec![
                SuiteWorkload::on("Sort", "micro/sort", MapReduce),
                SuiteWorkload::not_run("sampling a large dataset"),
            ],
            software_stacks: vec![("Hadoop-analog", MapReduce)],
        }
    }

    fn generators(&self) -> Vec<Box<dyn DataGenerator>> {
        vec![Box::new(NaiveTextGenerator::from_corpus(&RAW_TEXT_CORPUS))]
    }

    fn capabilities(&self) -> GenerationCapabilities {
        GenerationCapabilities::default()
    }

    fn veracity_probe(&self, _seed: u64) -> Option<VeracityProbe> {
        None
    }
}

/// PigMix: latency queries over generated data.
#[derive(Debug, Clone, Copy)]
pub struct PigMix;

impl BenchmarkSuite for PigMix {
    fn descriptor(&self) -> SuiteDescriptor {
        SuiteDescriptor {
            name: "PigMix",
            volume: VolumeClass::Scalable,
            velocity: VelocityClass::UnControllable,
            variety: vec![DataSourceKind::Text],
            veracity: VeracityClass::UnConsidered,
            workload_types: vec![WorkloadCategory::OnlineServices],
            workloads: vec![
                SuiteWorkload::on("12 data queries", "relational/select-aggregate", MapReduce),
                SuiteWorkload::on("12 data queries", "relational/join", MapReduce),
            ],
            software_stacks: vec![("Hadoop-analog", MapReduce)],
        }
    }

    fn generators(&self) -> Vec<Box<dyn DataGenerator>> {
        vec![Box::new(NaiveTextGenerator::from_corpus(&RAW_TEXT_CORPUS))]
    }

    fn capabilities(&self) -> GenerationCapabilities {
        GenerationCapabilities::default()
    }

    fn veracity_probe(&self, _seed: u64) -> Option<VeracityProbe> {
        None
    }
}

/// YCSB: cloud-serving OLTP mixes on NoSQL stores.
#[derive(Debug, Clone, Copy)]
pub struct Ycsb;

impl BenchmarkSuite for Ycsb {
    fn descriptor(&self) -> SuiteDescriptor {
        SuiteDescriptor {
            name: "YCSB",
            volume: VolumeClass::Scalable,
            velocity: VelocityClass::UnControllable,
            variety: vec![DataSourceKind::Table],
            veracity: VeracityClass::UnConsidered,
            workload_types: vec![WorkloadCategory::OnlineServices],
            workloads: vec![
                SuiteWorkload::on("OLTP (read, write, scan, update)", "oltp/read-mostly", KeyValue),
                SuiteWorkload::on("OLTP (read, write, scan, update)", "oltp/scan-heavy", KeyValue),
            ],
            software_stacks: vec![("NoSQL-analog (LSM store)", KeyValue)],
        }
    }

    fn generators(&self) -> Vec<Box<dyn DataGenerator>> {
        let raw = raw_retail_table();
        vec![Box::new(TableGenerator::naive("records", &raw).expect("naive fits"))]
    }

    fn capabilities(&self) -> GenerationCapabilities {
        GenerationCapabilities::default()
    }

    fn veracity_probe(&self, _seed: u64) -> Option<VeracityProbe> {
        None
    }
}

/// The Pavlo et al. performance benchmark: DBMS vs MapReduce tasks.
#[derive(Debug, Clone, Copy)]
pub struct PavloBenchmark;

impl BenchmarkSuite for PavloBenchmark {
    fn descriptor(&self) -> SuiteDescriptor {
        SuiteDescriptor {
            name: "Performance benchmark",
            volume: VolumeClass::Scalable,
            velocity: VelocityClass::UnControllable,
            variety: vec![DataSourceKind::Table, DataSourceKind::Text],
            veracity: VeracityClass::UnConsidered,
            workload_types: vec![WorkloadCategory::OnlineServices],
            workloads: vec![
                SuiteWorkload::not_run("Data loading"),
                SuiteWorkload::on("select", "relational/select-aggregate", Sql),
                SuiteWorkload::on("aggregate", "relational/select-aggregate", MapReduce),
                SuiteWorkload::on("join", "relational/join", Sql),
                SuiteWorkload::on("join", "relational/join", MapReduce),
                SuiteWorkload::not_run("count URL links"),
            ],
            software_stacks: vec![("DBMS-analog (bdb-sql)", Sql), ("Hadoop-analog", MapReduce)],
        }
    }

    fn generators(&self) -> Vec<Box<dyn DataGenerator>> {
        vec![
            Box::new(relational::uservisits_generator(1000)),
            Box::new(NaiveTextGenerator::from_corpus(&RAW_TEXT_CORPUS)),
        ]
    }

    fn capabilities(&self) -> GenerationCapabilities {
        GenerationCapabilities::default()
    }

    fn veracity_probe(&self, _seed: u64) -> Option<VeracityProbe> {
        None
    }
}

/// TPC-DS: decision support on a DBMS, generated with MUDD.
#[derive(Debug, Clone, Copy)]
pub struct TpcDs;

impl BenchmarkSuite for TpcDs {
    fn descriptor(&self) -> SuiteDescriptor {
        SuiteDescriptor {
            name: "TPC-DS",
            volume: VolumeClass::Scalable,
            velocity: VelocityClass::SemiControllable,
            variety: vec![DataSourceKind::Table],
            veracity: VeracityClass::PartiallyConsidered,
            workload_types: vec![WorkloadCategory::OnlineServices],
            workloads: vec![
                SuiteWorkload::not_run("Data loading"),
                SuiteWorkload::on("queries", "relational/select-aggregate", Sql),
                SuiteWorkload::on("queries", "relational/join", Sql),
                SuiteWorkload::not_run("maintenance"),
            ],
            software_stacks: vec![("DBMS-analog (bdb-sql)", Sql)],
        }
    }

    fn generators(&self) -> Vec<Box<dyn DataGenerator>> {
        vec![Box::new(mudd_table_generator())]
    }

    fn capabilities(&self) -> GenerationCapabilities {
        GenerationCapabilities {
            supports_rate_control: true, // MUDD generates in parallel
            ..Default::default()
        }
    }

    fn veracity_probe(&self, seed: u64) -> Option<VeracityProbe> {
        Some(table_veracity_probe(&mudd_table_generator(), seed))
    }
}

/// BigBench: TPC-DS plus web logs and reviews, on DBMS + MapReduce.
#[derive(Debug, Clone, Copy)]
pub struct BigBench;

impl BenchmarkSuite for BigBench {
    fn descriptor(&self) -> SuiteDescriptor {
        SuiteDescriptor {
            name: "BigBench",
            volume: VolumeClass::Scalable,
            velocity: VelocityClass::SemiControllable,
            variety: vec![DataSourceKind::Text, DataSourceKind::Stream, DataSourceKind::Table],
            veracity: VeracityClass::PartiallyConsidered,
            workload_types: vec![
                WorkloadCategory::OnlineServices,
                WorkloadCategory::OfflineAnalytics,
            ],
            workloads: vec![
                SuiteWorkload::on(
                    "Database operations (select, create and drop tables)",
                    "relational/select-aggregate",
                    Sql,
                ),
                SuiteWorkload::on("K-means", "social/kmeans", MapReduce),
                SuiteWorkload::on("classification", "ecommerce/naive-bayes", MapReduce),
            ],
            software_stacks: vec![("DBMS-analog (bdb-sql)", Sql), ("Hadoop-analog", MapReduce)],
        }
    }

    fn generators(&self) -> Vec<Box<dyn DataGenerator>> {
        vec![
            Box::new(mudd_table_generator()),
            // Web logs: click events derived from the table's key space.
            Box::new(PoissonArrivals::new(2000.0, 160).expect("valid arrivals")),
            Box::new(MarkovTextGenerator::train(&RAW_TEXT_CORPUS).expect("trains")),
        ]
    }

    fn capabilities(&self) -> GenerationCapabilities {
        GenerationCapabilities { supports_rate_control: true, ..Default::default() }
    }

    fn veracity_probe(&self, seed: u64) -> Option<VeracityProbe> {
        // Veracity "relies on the table data": probe the table path.
        Some(table_veracity_probe(&mudd_table_generator(), seed))
    }
}

/// LinkBench: the Facebook social-graph store benchmark.
#[derive(Debug, Clone, Copy)]
pub struct LinkBench;

impl BenchmarkSuite for LinkBench {
    fn descriptor(&self) -> SuiteDescriptor {
        SuiteDescriptor {
            name: "LinkBench",
            volume: VolumeClass::PartiallyScalable,
            velocity: VelocityClass::SemiControllable,
            variety: vec![DataSourceKind::Graph],
            veracity: VeracityClass::PartiallyConsidered,
            workload_types: vec![WorkloadCategory::OnlineServices],
            workloads: vec![
                SuiteWorkload::on("select/insert/update/delete", "oltp/read-mostly", KeyValue),
                SuiteWorkload::on("association range queries", "oltp/scan-heavy", KeyValue),
                SuiteWorkload::not_run("count queries"),
            ],
            software_stacks: vec![("DBMS-analog (LSM store)", KeyValue)],
        }
    }

    fn generators(&self) -> Vec<Box<dyn DataGenerator>> {
        let fitted = fit_rmat(&karate_club_graph(), 0xFB).expect("fit succeeds");
        vec![Box::new(fitted), Box::new(FixedGraphDataset)]
    }

    fn capabilities(&self) -> GenerationCapabilities {
        GenerationCapabilities {
            has_fixed_size_inputs: true,
            supports_rate_control: true,
            ..Default::default()
        }
    }

    fn veracity_probe(&self, seed: u64) -> Option<VeracityProbe> {
        // LinkBench fits only the graph *topology* to the real social
        // graph; node and link payloads are synthetic bytes, no more
        // faithful than the naive table path. The probe averages both
        // aspects, which is what makes the suite "partially considered".
        let graph = graph_veracity_probe(seed);
        let raw = raw_retail_table();
        let naive = TableGenerator::naive("payload", &raw).expect("naive fits");
        let payload = table_veracity_probe(&naive, seed);
        Some(VeracityProbe {
            score: 0.5 * (graph.score + payload.score),
            naive_baseline: 0.5 * (graph.naive_baseline + payload.naive_baseline),
        })
    }
}

/// CloudSuite: scale-out cloud service workloads.
#[derive(Debug, Clone, Copy)]
pub struct CloudSuite;

impl BenchmarkSuite for CloudSuite {
    fn descriptor(&self) -> SuiteDescriptor {
        SuiteDescriptor {
            name: "CloudSuite",
            volume: VolumeClass::PartiallyScalable,
            velocity: VelocityClass::SemiControllable,
            variety: vec![
                DataSourceKind::Text,
                DataSourceKind::Graph,
                DataSourceKind::Stream,
                DataSourceKind::Table,
            ],
            veracity: VeracityClass::PartiallyConsidered,
            workload_types: vec![
                WorkloadCategory::OnlineServices,
                WorkloadCategory::OfflineAnalytics,
            ],
            workloads: vec![
                SuiteWorkload::on("YCSB's workloads", "oltp/read-mostly", KeyValue),
                SuiteWorkload::not_run("Text classification"),
                SuiteWorkload::on("WordCount", "micro/wordcount", MapReduce),
            ],
            software_stacks: vec![
                ("NoSQL-analog", KeyValue),
                ("Hadoop-analog", MapReduce),
                ("GraphLab-analog", Native),
            ],
        }
    }

    fn generators(&self) -> Vec<Box<dyn DataGenerator>> {
        let raw = raw_retail_table();
        vec![
            Box::new(MarkovTextGenerator::train(&RAW_TEXT_CORPUS).expect("trains")),
            Box::new(RmatGenerator::standard(8.0)),
            // Media streams stand-in for the video inputs.
            Box::new(PoissonArrivals::new(5_000.0, 32).expect("valid arrivals")),
            Box::new(TableGenerator::naive("records", &raw).expect("naive fits")),
            Box::new(FixedCorpusDataset),
        ]
    }

    fn capabilities(&self) -> GenerationCapabilities {
        GenerationCapabilities {
            has_fixed_size_inputs: true,
            supports_rate_control: true,
            ..Default::default()
        }
    }

    fn veracity_probe(&self, seed: u64) -> Option<VeracityProbe> {
        // Markov text keeps co-occurrence but loses topic structure:
        // measured with both metrics it lands between LDA and naive.
        let markov = MarkovTextGenerator::train(&RAW_TEXT_CORPUS).expect("trains");
        Some(text_veracity_probe(&markov, seed))
    }
}

/// BigDataBench: model-fitted generation for every data type, hybrid
/// system coverage.
#[derive(Debug, Clone, Copy)]
pub struct BigDataBench;

impl BenchmarkSuite for BigDataBench {
    fn descriptor(&self) -> SuiteDescriptor {
        SuiteDescriptor {
            name: "BigDataBench",
            volume: VolumeClass::Scalable,
            velocity: VelocityClass::SemiControllable,
            variety: vec![
                DataSourceKind::Text,
                DataSourceKind::Graph,
                DataSourceKind::Table,
            ],
            veracity: VeracityClass::Considered,
            workload_types: vec![
                WorkloadCategory::OnlineServices,
                WorkloadCategory::OfflineAnalytics,
                WorkloadCategory::RealTimeAnalytics,
            ],
            workloads: vec![
                SuiteWorkload::on("read/write/scan", "oltp/read-mostly", KeyValue),
                SuiteWorkload::on("read/write/scan", "oltp/scan-heavy", KeyValue),
                SuiteWorkload::on("sort", "micro/sort", MapReduce),
                SuiteWorkload::on("grep", "micro/grep", Native),
                SuiteWorkload::on("WordCount", "micro/wordcount", Native),
                SuiteWorkload::on("index", "search/index", Native),
                SuiteWorkload::on("PageRank", "search/pagerank", Native),
                SuiteWorkload::on("K-means", "social/kmeans", Native),
                SuiteWorkload::on("connected components", "social/connected-components", Native),
                SuiteWorkload::on(
                    "collaborative filtering",
                    "ecommerce/collaborative-filtering",
                    Sql,
                ),
                SuiteWorkload::on("Naive Bayes", "ecommerce/naive-bayes", MapReduce),
                SuiteWorkload::on("select/aggregate/join", "relational/select-aggregate", Sql),
                SuiteWorkload::on("select/aggregate/join", "relational/join", Sql),
            ],
            software_stacks: vec![
                ("NoSQL-analog", KeyValue),
                ("DBMS-analog", Sql),
                ("Hadoop-analog", MapReduce),
                ("streaming-analog", Streaming),
                ("MPI-analog (native kernels)", Native),
            ],
        }
    }

    fn generators(&self) -> Vec<Box<dyn DataGenerator>> {
        let raw = raw_retail_table();
        vec![
            Box::new(builtin_lda().clone()),
            Box::new(fit_rmat(&karate_club_graph(), 0xBD).expect("fit succeeds")),
            Box::new(TableGenerator::fit("retail", &raw).expect("fit succeeds")),
            // Resumes: semi-structured text from the Markov model.
            Box::new(MarkovTextGenerator::train(&RAW_TEXT_CORPUS).expect("trains")),
        ]
    }

    fn capabilities(&self) -> GenerationCapabilities {
        GenerationCapabilities { supports_rate_control: true, ..Default::default() }
    }

    fn veracity_probe(&self, seed: u64) -> Option<VeracityProbe> {
        // Model-based across types: average the text and table probes.
        let text = text_veracity_probe(builtin_lda(), seed);
        let raw = raw_retail_table();
        let table = table_veracity_probe(
            &TableGenerator::fit("retail", &raw).expect("fit succeeds"),
            seed,
        );
        Some(VeracityProbe {
            score: 0.5 * (text.score + table.score),
            naive_baseline: 0.5 * (text.naive_baseline + table.naive_baseline),
        })
    }
}

/// `bdbench` — this framework, demonstrating the paper's Section 5
/// extensions on top of BigDataBench-style generation.
#[derive(Debug, Clone, Copy)]
pub struct Bdbench;

impl BenchmarkSuite for Bdbench {
    fn descriptor(&self) -> SuiteDescriptor {
        SuiteDescriptor {
            name: "bdbench (this framework)",
            volume: VolumeClass::Scalable,
            velocity: VelocityClass::FullyControllable,
            variety: vec![
                DataSourceKind::Text,
                DataSourceKind::Graph,
                DataSourceKind::Table,
                DataSourceKind::Stream,
            ],
            veracity: VeracityClass::Considered,
            workload_types: vec![
                WorkloadCategory::OnlineServices,
                WorkloadCategory::OfflineAnalytics,
                WorkloadCategory::RealTimeAnalytics,
            ],
            workloads: vec![
                SuiteWorkload::not_run("hybrid OLTP+analytics mix"),
                SuiteWorkload::on(
                    "windowed stream analytics",
                    "streaming/window-aggregation",
                    Streaming,
                ),
                SuiteWorkload::not_run("update-frequency replay"),
                SuiteWorkload::on("behavioral analytics", "behavioral/sessionize", Streaming),
                SuiteWorkload::on("Cloud OLTP", "oltp/read-mostly", KeyValue),
                SuiteWorkload::on("PageRank", "search/pagerank", Native),
            ],
            software_stacks: vec![
                ("native kernels", Native),
                ("bdb-sql", Sql),
                ("LSM store", KeyValue),
                ("stream engine", Streaming),
                ("MapReduce runtime", MapReduce),
            ],
        }
    }

    fn generators(&self) -> Vec<Box<dyn DataGenerator>> {
        let raw = raw_retail_table();
        vec![
            Box::new(builtin_lda().clone()),
            Box::new(fit_rmat(&karate_club_graph(), 0xBD).expect("fit succeeds")),
            Box::new(TableGenerator::fit("retail", &raw).expect("fit succeeds")),
            Box::new(PoissonArrivals::new(5_000.0, 64).expect("valid arrivals")),
        ]
    }

    fn capabilities(&self) -> GenerationCapabilities {
        GenerationCapabilities {
            has_fixed_size_inputs: false,
            supports_rate_control: true,
            supports_update_frequency: true,
            supports_algorithmic_velocity: true,
        }
    }

    fn veracity_probe(&self, seed: u64) -> Option<VeracityProbe> {
        BigDataBench.veracity_probe(seed)
    }
}

/// Every suite of Tables 1–2, plus `bdbench`, in the paper's row order.
pub fn all_suites() -> Vec<Box<dyn BenchmarkSuite>> {
    vec![
        Box::new(HiBench),
        Box::new(GridMix),
        Box::new(PigMix),
        Box::new(Ycsb),
        Box::new(PavloBenchmark),
        Box::new(TpcDs),
        Box::new(BigBench),
        Box::new(LinkBench),
        Box::new(CloudSuite),
        Box::new(BigDataBench),
        Box::new(Bdbench),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eleven_suites_in_paper_order() {
        let suites = all_suites();
        assert_eq!(suites.len(), 11);
        assert_eq!(suites[0].descriptor().name, "HiBench");
        assert_eq!(suites[9].descriptor().name, "BigDataBench");
    }

    #[test]
    fn every_suite_has_generators_matching_its_variety() {
        for suite in all_suites() {
            let desc = suite.descriptor();
            let kinds: std::collections::BTreeSet<String> = suite
                .generators()
                .iter()
                .map(|g| g.kind().to_string())
                .collect();
            for k in &desc.variety {
                assert!(
                    kinds.contains(&k.to_string()),
                    "{}: descriptor lists {} but no generator produces it",
                    desc.name,
                    k
                );
            }
        }
    }

    #[test]
    fn unconsidered_suites_have_no_probe() {
        for suite in all_suites() {
            let desc = suite.descriptor();
            let probe = suite.veracity_probe(1);
            match desc.veracity {
                VeracityClass::UnConsidered => assert!(
                    probe.is_none(),
                    "{} claims un-considered but probes",
                    desc.name
                ),
                _ => assert!(
                    probe.is_some(),
                    "{} claims veracity but has no probe",
                    desc.name
                ),
            }
        }
    }

    #[test]
    fn considered_suites_beat_partial_suites_on_probe_ratio() {
        let bdb = BigDataBench.veracity_probe(3).unwrap();
        let tpcds = TpcDs.veracity_probe(3).unwrap();
        assert!(
            bdb.ratio() < tpcds.ratio(),
            "BigDataBench ratio {} should beat TPC-DS ratio {}",
            bdb.ratio(),
            tpcds.ratio()
        );
        assert!(bdb.ratio() < 1.0);
    }

    #[test]
    fn fixed_datasets_ignore_volume() {
        let d1 = FixedCorpusDataset.generate(1, &VolumeSpec::Items(10)).unwrap();
        let d2 = FixedCorpusDataset.generate(2, &VolumeSpec::Items(1000)).unwrap();
        assert_eq!(d1.item_count(), d2.item_count());
        let g = FixedGraphDataset.generate(1, &VolumeSpec::Items(10)).unwrap();
        assert_eq!(g.item_count(), 156);
    }

    #[test]
    fn every_entry_runs_a_builtin_prescription_on_a_capable_named_system() {
        use bdb_exec::engine::{EngineRegistry, WorkloadClass};
        use bdb_testgen::PrescriptionRepository;
        let repository = PrescriptionRepository::with_builtins();
        let engines = EngineRegistry::with_builtins();
        for suite in all_suites() {
            let desc = suite.descriptor();
            for w in &desc.workloads {
                let Some((name, system)) = w.run else { continue };
                let at = format!("{} / {}: {name} on {system}", desc.name, w.example);
                let prescription = repository.get(name).unwrap_or_else(|e| panic!("{at}: {e}"));
                let class = WorkloadClass::of(prescription);
                let engine = engines
                    .engines()
                    .find(|e| e.capabilities().implements(system))
                    .unwrap_or_else(|| panic!("{at}: no engine implements the system"));
                assert!(engine.capabilities().supports(class), "{at}: {class}");
                assert!(
                    desc.software_stacks.iter().any(|(_, s)| *s == system),
                    "{at}: no software stack of the suite names {system}"
                );
            }
        }
    }

    fn not_run(run: &crate::table2::SuiteRun) -> Vec<&'static str> {
        run.cells.iter().filter(|c| c.run.is_none()).map(|c| c.workload.example).collect()
    }

    #[test]
    fn hibench_workloads_run() {
        let run = crate::table2::run_suite(&HiBench, 300, 1).unwrap();
        assert_eq!(run.cells.len(), 7);
        assert_eq!(not_run(&run), vec!["TeraSort"]);
        assert!(run.conformant());
        assert!(run.results().all(|r| r.report.system == "mapreduce"));
        assert!(run.results().all(|r| r.report.user.duration_secs > 0.0));
    }

    #[test]
    fn linkbench_workload_runs() {
        let run = crate::table2::run_suite(&LinkBench, 100, 2).unwrap();
        assert_eq!(run.runs(), 2);
        assert_eq!(not_run(&run), vec!["count queries"]);
        assert!(run.conformant());
        assert!(run.results().all(|r| r.report.system == "kv"));
    }

    #[test]
    fn bdbench_workloads_cover_extensions() {
        // The Section 5 mixes no prescription expresses print as not run;
        // what runs still spans all three categories, streaming included.
        let run = crate::table2::run_suite(&Bdbench, 200, 3).unwrap();
        assert_eq!(not_run(&run), vec!["hybrid OLTP+analytics mix", "update-frequency replay"]);
        assert!(run.conformant());
        assert_eq!(run.categories().len(), 3);
        assert!(run.results().any(|r| r.report.system == "streaming"));
    }
}
