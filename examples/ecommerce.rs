//! E-commerce domain scenario.
//!
//! Fits column models to the raw retail table and generates a larger
//! synthetic table, then queries it on the SQL engine. Runs the domain's
//! prescriptions through the five-step pipeline: an OLTP read/update mix
//! on the key-value store (`oltp/read-mostly`), and `ecommerce/*` on the
//! SQL engine and on MapReduce, whose answers must agree.
//!
//! ```text
//! cargo run --release --example ecommerce
//! ```

use bdbench::datagen::corpus::raw_retail_table;
use bdbench::datagen::table::TableGenerator;
use bdbench::datagen::veracity;
use bdbench::prelude::*;
use bdbench::sql::Engine;

/// Run one prescription on `system` and return its result.
fn run(prescription: &str, system: SystemKind) -> Result<WorkloadResult> {
    let spec = BenchmarkSpec::new("ecommerce")
        .with_prescription(prescription)
        .with_system(system)
        .with_scale(10_000)
        .with_seed(1);
    Ok(Benchmark::new().run(&spec)?.results.remove(0))
}

fn main() -> Result<()> {
    // --- 4V table generation: fit models to the raw orders extract.
    let raw = raw_retail_table();
    let generator = TableGenerator::fit("orders", &raw)?;
    let orders = generator.generate_shard(42, 0, 20_000);
    println!(
        "generated {} synthetic orders ({} bytes)",
        orders.len(),
        orders.byte_size()
    );
    let small = generator.generate_shard(42, 0, raw.len() as u64);
    println!(
        "veracity vs raw extract: {:.4} (mean divergence, lower is better)",
        veracity::table_veracity(&raw, &small)?.overall()
    );

    // --- Relational queries (real-time analytics) on the generated table.
    let mut engine = Engine::new();
    engine.register("orders", orders)?;
    let revenue = engine.sql(
        "SELECT category, SUM(price) AS revenue, COUNT(*) AS n \
         FROM orders GROUP BY category ORDER BY revenue DESC",
    )?;
    println!("\nrevenue by category:");
    for row in revenue.rows() {
        println!("  {:<12} {:>12} ({} orders)", row[0], format!("{:.2}", row[1].as_f64().unwrap()), row[2]);
    }

    // --- Cloud OLTP on the KV store: equal reads and updates (one step
    //     per op kind), not YCSB workload B's 95/5 mix.
    let oltp = run("oltp/read-mostly", SystemKind::KeyValue)?;
    println!(
        "\noltp/read-mostly: read hit rate {:.3}",
        oltp.detail("read_hit_rate").unwrap_or_default()
    );
    println!("{}", oltp.report);

    // --- The e-commerce analytics on both bindings (functional view).
    for prescription in ["ecommerce/collaborative-filtering", "ecommerce/naive-bayes"] {
        let sql = run(prescription, SystemKind::Sql)?;
        let mapreduce = run(prescription, SystemKind::MapReduce)?;
        let digest = |r: &WorkloadResult| r.output.as_ref().map(|o| o.digest());
        assert_eq!(digest(&sql), digest(&mapreduce), "functional view: {prescription}");
        println!(
            "\n{prescription}: {} output rows, sql == mapreduce",
            sql.detail("output_rows").unwrap_or_default()
        );
        println!("{}", sql.report);
        println!("{}", mapreduce.report);
    }
    Ok(())
}
