//! Social-network domain scenario.
//!
//! Fits an RMAT model to a real social graph (Zachary's karate club) and
//! checks that a larger synthetic graph preserves its degree-distribution
//! shape. Runs the domain's prescriptions, `social/connected-components`
//! and `social/kmeans`, through the five-step pipeline, and demonstrates
//! the *update frequency* meaning of velocity with a controlled update
//! stream.
//!
//! ```text
//! cargo run --release --example social_network
//! ```

use bdbench::datagen::corpus::karate_club_graph;
use bdbench::datagen::graph::{degree_distribution_distance, fit_rmat, ErdosRenyiGenerator};
use bdbench::datagen::stream::{UpdateOp, UpdateStreamGenerator};
use bdbench::kv::SharedLsm;
use bdbench::prelude::*;

/// Run one prescription on the native kernels and return its result.
fn run(prescription: &str, scale: u64) -> Result<WorkloadResult> {
    let spec = BenchmarkSpec::new("social_network")
        .with_prescription(prescription)
        .with_system(SystemKind::Native)
        .with_scale(scale)
        .with_seed(3);
    Ok(Benchmark::new().run(&spec)?.results.remove(0))
}

fn main() -> Result<()> {
    // --- Fit a graph model to the raw data (Figure 3 step 2).
    let raw = karate_club_graph();
    println!(
        "raw graph: {} vertices, {} directed edges",
        raw.num_vertices(),
        raw.num_edges()
    );
    let fitted = fit_rmat(&raw, 7)?;
    println!("fitted RMAT quadrants: a={:.2} b={:.2} c={:.2}", fitted.a, fitted.b, fitted.c);

    // Scale up: 2^12 vertices with the same degree shape (the paper's
    // "2^20 vertices" convention, shrunk for a laptop).
    let synthetic = fitted.generate_graph(11, 12);
    let er = ErdosRenyiGenerator {
        edges_per_vertex: raw.num_edges() as f64 / raw.num_vertices() as f64,
    }
    .generate_graph(11, 1 << 12);
    println!(
        "degree-distribution JS vs raw: fitted={:.4}  erdos-renyi={:.4}",
        degree_distribution_distance(&raw, &synthetic),
        degree_distribution_distance(&raw, &er),
    );

    // --- Workloads: connected components + k-means.
    let cc = run("social/connected-components", 1 << 12)?;
    println!(
        "\nconnected components: {} components in {} iterations",
        cc.detail("components").unwrap_or_default(),
        cc.detail("iterations").unwrap_or_default()
    );
    println!("{}", cc.report);

    let kmeans = run("social/kmeans", 5_000)?;
    println!(
        "\nk-means: {} points converged in {} iterations",
        kmeans.detail("input_points").unwrap_or_default(),
        kmeans.detail("iterations").unwrap_or_default()
    );
    println!("{}", kmeans.report);

    // --- Velocity as update frequency (Section 5.1): replay a 2k ops/sec
    // social-graph update stream against the KV store.
    let gen = UpdateStreamGenerator::new(2_000.0, 0.4, 0.4, 1_000)?;
    let ops = gen.generate_ops(9, 10_000);
    println!(
        "\nupdate stream: target 2000 ops/s, generated at {:.0} ops/s",
        UpdateStreamGenerator::measured_rate(&ops)
    );
    let store = SharedLsm::default();
    for op in &ops {
        match &op.op {
            UpdateOp::Insert { key, value } | UpdateOp::Update { key, value } => {
                store.put(key.to_be_bytes().to_vec(), value.to_le_bytes().to_vec());
            }
            UpdateOp::Delete { key } => store.delete(key.to_be_bytes().to_vec()),
        }
    }
    let stats = store.stats();
    println!(
        "replayed {} ops into the store ({} flushes, {} compactions)",
        stats.writes, stats.flushes, stats.compactions
    );
    Ok(())
}
