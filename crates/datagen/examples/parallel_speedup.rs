//! Measures the parallel-generation speedup of every builtin generator
//! family, against the speedup this machine gives a pure CPU-bound loop.
//!
//! ```text
//! cargo run --release -p bdb-datagen --example parallel_speedup
//! ```
//!
//! `available_parallelism` counts the CPUs a process may use, not the
//! throughput they deliver: vCPUs that share a physical core, or a CPU
//! quota, give less. So the harness first times a fixed multiply-add loop
//! split over 1 and N threads and prints that ratio as the *box ideal*.
//! A family's sharded speedup is then read against the ideal, not against
//! N: a family at its ideal is sharded as well as this machine allows.

use bdb_datagen::behavioral::BehavioralEvents;
use bdb_datagen::corpus::{raw_retail_table, RAW_TEXT_CORPUS};
use bdb_datagen::graph::{BaGenerator, RmatGenerator};
use bdb_datagen::stream::{MmppArrivals, PoissonArrivals};
use bdb_datagen::table::TableGenerator;
use bdb_datagen::text::lda::{LdaConfig, LdaModel};
use bdb_datagen::text::markov::MarkovTextGenerator;
use bdb_datagen::volume::VolumeSpec;
use bdb_datagen::DataGenerator;
use std::hint::black_box;
use std::time::Instant;

/// Multiply-add steps in the calibration loop, split over the threads.
const SPIN_STEPS: u64 = 400_000_000;

/// Best of this many runs per measurement.
const REPEATS: usize = 3;

/// `steps` opaque multiply-add steps: CPU only, no memory traffic.
fn spin(steps: u64) -> u64 {
    let mut x = 1u64;
    for i in 0..steps {
        x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
    }
    x
}

/// The fastest of [`REPEATS`] runs of `f`, in seconds.
fn best_secs(mut f: impl FnMut()) -> f64 {
    (0..REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// How much faster `threads` threads finish [`SPIN_STEPS`] than one does.
fn box_ideal(threads: usize) -> f64 {
    let split = |n: usize| {
        best_secs(|| {
            std::thread::scope(|s| {
                for _ in 0..n {
                    s.spawn(|| spin(SPIN_STEPS / n as u64));
                }
            })
        })
    };
    split(1) / split(threads)
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut workers = vec![2];
    if cores > 2 {
        workers.push(cores);
    }
    println!("available parallelism: {cores}");
    let ideals: Vec<f64> = workers.iter().map(|&w| box_ideal(w)).collect();
    for (w, ideal) in workers.iter().zip(&ideals) {
        println!("box ideal: {w} threads run a fixed CPU-bound loop {ideal:.2}x faster than 1");
    }

    let lda = LdaConfig { num_topics: 4, alpha: 0.1, beta: 0.01, iterations: 80 };
    let lda = LdaModel::train(&RAW_TEXT_CORPUS, lda, 0xBD).unwrap();
    let markov = MarkovTextGenerator::train(&RAW_TEXT_CORPUS).unwrap();
    let retail = TableGenerator::fit("retail", &raw_retail_table()).unwrap();
    let mmpp = MmppArrivals::new(500.0, 4_000.0, 500.0, 64).unwrap();
    let behavioral = BehavioralEvents::new(64, 8, 500, 2_000).unwrap();
    // The families and sizes of the benchmark's `datagen_volume` workload.
    let families: Vec<(&str, u64, Box<dyn DataGenerator>)> = vec![
        ("text/lda", 100_000, Box::new(lda)),
        ("text/markov-bigram", 150_000, Box::new(markov)),
        ("table/retail-fitted", 200_000, Box::new(retail)),
        ("graph/rmat", 30_000, Box::new(RmatGenerator::standard(8.0))),
        ("graph/barabasi-albert", 300_000, Box::new(BaGenerator::new(4).unwrap())),
        ("stream/poisson", 1_000_000, Box::new(PoissonArrivals::new(2_000.0, 64).unwrap())),
        ("stream/mmpp", 1_000_000, Box::new(mmpp)),
        ("behavioral/events", 2_000_000, Box::new(behavioral)),
    ];
    print!("{:<22} {:>9} {:>12}", "family", "items", "1 worker/s");
    for w in &workers {
        print!(" {:>11} {:>9}", format!("{w}w speedup"), "of ideal");
    }
    println!();
    for (id, items, g) in &families {
        let vol = VolumeSpec::Items(*items);
        let secs = |w: usize| {
            best_secs(|| drop(black_box(g.generate_parallel(9, &vol, w).unwrap())))
        };
        let one = secs(1);
        print!("{id:<22} {items:>9} {:>12.0}", *items as f64 / one);
        for (&w, ideal) in workers.iter().zip(&ideals) {
            let speedup = one / secs(w);
            print!(" {speedup:>10.2}x {:>8.0}%", speedup / ideal * 100.0);
        }
        println!();
    }
}
