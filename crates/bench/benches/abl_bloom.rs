//! ABL3 — ablation: Bloom filters on the LSM read path.
//!
//! The design choice behind the KV substrate's read performance: run-level
//! Bloom filters let point reads for absent keys skip binary searches.
//! Measures hit-only and miss-heavy read workloads with filters on and
//! off, reporting both wall-clock and the probe counters that explain it.

use bdb_exec::reporter::{fmt_num, TableReporter};
use bdb_kv::{LsmConfig, LsmStore};
use std::hint::black_box;
use std::time::Instant;

fn key(i: u64) -> Vec<u8> {
    format!("user{i:012}").into_bytes()
}

fn loaded_store(bloom_bits: usize, records: u64) -> LsmStore {
    let mut s = LsmStore::with_config(LsmConfig {
        // Small memtable: the data lives in many runs, as in a real LSM.
        memtable_capacity_bytes: 16 << 10,
        max_runs: 64,
        bloom_bits_per_key: bloom_bits,
    });
    for i in 0..records {
        s.put(key(i), vec![b'v'; 64]);
    }
    s.flush();
    s
}

/// Prints the table; returns how many "all hits" reads found nothing.
fn report() -> u64 {
    bdb_bench::banner("ABL3", "Bloom filters on the LSM read path");
    let records = 50_000u64;
    let reads = 50_000u64;
    let mut lost = 0u64;
    let mut table = TableReporter::new(
        "Point-read cost, 50k records across many runs",
        &["workload", "bloom", "reads/sec", "run probes", "bloom skips"],
    );
    for (name, miss) in [("all hits", false), ("all misses", true)] {
        for bits in [0usize, 10] {
            let s = loaded_store(bits, records);
            let base = s.stats();
            let t0 = Instant::now();
            for i in 0..reads {
                let k = if miss { records + i } else { i % records };
                let found = black_box(s.get(&key(k))).is_some();
                lost += u64::from(!miss && !found);
            }
            let secs = t0.elapsed().as_secs_f64().max(1e-9);
            let st = s.stats();
            table.add_row(&[
                name.into(),
                if bits > 0 { "on".into() } else { "off".into() },
                fmt_num(reads as f64 / secs),
                (st.run_probes - base.run_probes).to_string(),
                (st.bloom_skips - base.bloom_skips).to_string(),
            ]);
        }
    }
    println!("{}", table.to_text());
    println!("Shape: with filters on, miss-heavy reads skip nearly every run\nprobe and get markedly faster; hit reads pay only the filter check.");
    lost
}

fn main() {
    // The stores' compactions merge ~65 runs; a lost key fails the run.
    let lost = report();
    if lost > 0 {
        eprintln!("ABL3: {lost} \"all hits\" reads returned None");
        std::process::exit(1);
    }
}
