//! Velocity control: generation-rate management (Section 5.1).
//!
//! The paper describes two ways to control data velocity:
//!
//! 1. **Parallel strategy** — deploy multiple data generators; the rate
//!    scales with the worker count. [`VelocityController`] runs the shards
//!    of one [`DataGenerator`] volume across N pool threads: the same
//!    sharded path as [`DataGenerator::generate_parallel`], so workers
//!    raise the rate without changing the data.
//! 2. **Algorithmic strategy** — adjust the generator algorithm itself
//!    (e.g. spend memory to gain speed). The framework's concrete lever is
//!    `LdaModel::generate_doc` (alias tables, memory-heavy, O(1)/word) vs
//!    `LdaModel::generate_doc_low_memory` (O(V)/word); the controller's
//!    [`measure_rate`] quantifies any such lever.
//!
//! Both strategies support a *target* rate: a deadline pacer holds each
//! finished shard until its last item is due, so the achieved rate tracks
//! the target, and the outcome reports the relative rate error (the
//! Table 1 "velocity controllability" probe). Velocity is pacing only:
//! the output equals `generate(seed, volume)` for every worker count,
//! chunk size and target rate.

use crate::volume::VolumeSpec;
use crate::{DataGenerator, Dataset};
use bdb_common::pool::{self, Chunk};
use bdb_common::{BdbError, Result};
use std::time::{Duration, Instant};

/// Outcome of a rate-controlled generation run.
#[derive(Debug)]
pub struct GenerationOutcome {
    /// The generated data: what `generate(seed, volume)` produces.
    pub dataset: Dataset,
    /// Total items generated (rows, documents, edges, events).
    pub items: u64,
    /// Wall-clock duration of the run in seconds.
    pub elapsed_secs: f64,
    /// Items per second achieved.
    pub achieved_rate: f64,
    /// The requested rate, if any.
    pub target_rate: Option<f64>,
    /// Worker threads that generated the data: 1 when the generator
    /// cannot shard or the run is sequential.
    pub workers: usize,
}

impl GenerationOutcome {
    /// Relative error |achieved − target| / target, if a target was set.
    pub fn rate_error(&self) -> Option<f64> {
        self.target_rate
            .map(|t| ((self.achieved_rate - t) / t).abs())
    }
}

/// Runs a data generator's shards across parallel workers at an optional
/// target rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VelocityController {
    workers: usize,
    target_rate: Option<f64>,
    chunk_items: u64,
}

impl VelocityController {
    /// A controller with `workers` parallel generator instances.
    ///
    /// # Errors
    /// Fails when `workers == 0`.
    pub fn new(workers: usize) -> Result<Self> {
        if workers == 0 {
            return Err(BdbError::InvalidConfig("need at least one worker".into()));
        }
        Ok(Self { workers, target_rate: None, chunk_items: 256 })
    }

    /// Set a target aggregate rate in items/second.
    ///
    /// # Panics
    /// Panics on a non-positive rate.
    pub fn with_target_rate(mut self, items_per_sec: f64) -> Self {
        assert!(items_per_sec > 0.0, "target rate must be positive");
        self.target_rate = Some(items_per_sec);
        self
    }

    /// Set the per-chunk item count (pacing granularity).
    pub fn with_chunk_items(mut self, chunk: u64) -> Self {
        self.chunk_items = chunk.max(1);
        self
    }

    /// Generate `total_items` items from `generator` on the controller's
    /// workers, throttled to the target rate if one is set.
    ///
    /// The planned volume is cut into `chunk_items`-sized shards and run
    /// through [`DataGenerator::generate_chunks`]; under a target rate a
    /// worker holds each finished shard until `(offset + len) / rate`
    /// seconds after the start. A generator that cannot shard is
    /// generated once, sequentially, on the calling thread, and under a
    /// target rate held as one chunk until its last item is due; the
    /// outcome reports one worker. With one worker and no target rate the
    /// run is exactly one `generate` call.
    pub fn run(
        &self,
        generator: &dyn DataGenerator,
        seed: u64,
        total_items: u64,
    ) -> Result<GenerationOutcome> {
        let volume = VolumeSpec::Items(total_items);
        let start = Instant::now();
        let planned = if self.workers > 1 || self.target_rate.is_some() {
            generator.plan_items(seed, &volume)?.filter(|&n| n > 0)
        } else {
            None
        };
        let pace = |c: Chunk| {
            if let Some(rate) = self.target_rate {
                let due = Duration::from_secs_f64((c.offset + c.len) as f64 / rate);
                std::thread::sleep(due.saturating_sub(start.elapsed()));
            }
        };
        let (dataset, workers) = match planned {
            Some(n) => {
                let chunks = pool::chunk_ranges(n, self.chunk_items);
                let workers = self.workers.min(chunks.len());
                (generator.generate_chunks(seed, &volume, workers, chunks, &pace)?, workers)
            }
            None => {
                let dataset = generator.generate(seed, &volume)?;
                pace(Chunk { index: 0, offset: 0, len: dataset.item_count() as u64 });
                (dataset, 1)
            }
        };
        let elapsed = start.elapsed().as_secs_f64().max(1e-9);
        let items = dataset.item_count() as u64;
        Ok(GenerationOutcome {
            items,
            elapsed_secs: elapsed,
            achieved_rate: items as f64 / elapsed,
            target_rate: self.target_rate,
            workers,
            dataset,
        })
    }
}

/// Measure the raw rate (items/sec) of an arbitrary per-item generation
/// closure — the probe used to compare *algorithmic* velocity levers.
pub fn measure_rate<F: FnMut(u64)>(items: u64, mut f: F) -> f64 {
    let start = Instant::now();
    for i in 0..items {
        f(i);
    }
    items as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::RAW_TEXT_CORPUS;
    use crate::text::NaiveTextGenerator;

    fn gen() -> NaiveTextGenerator {
        NaiveTextGenerator::from_corpus(&RAW_TEXT_CORPUS)
    }

    #[test]
    fn controller_rejects_zero_workers() {
        assert!(VelocityController::new(0).is_err());
    }

    #[test]
    fn run_produces_requested_items() {
        let c = VelocityController::new(3).unwrap().with_chunk_items(16);
        let out = c.run(&gen(), 11, 100).unwrap();
        assert_eq!(out.items, 100);
        assert_eq!(out.dataset.item_count(), 100);
        assert!(out.achieved_rate > 0.0);
        assert_eq!(out.rate_error(), None);
        assert_eq!(out.workers, 3);
    }

    #[test]
    fn run_equals_sequential_generate_at_any_pace() {
        let docs = |d: Dataset| match d {
            Dataset::Text { docs, .. } => docs,
            _ => panic!("expected text"),
        };
        let sequential = docs(gen().generate(4, &VolumeSpec::Items(40)).unwrap());
        for c in [
            VelocityController::new(1).unwrap(),
            VelocityController::new(2).unwrap().with_chunk_items(8),
            VelocityController::new(3).unwrap().with_chunk_items(7).with_target_rate(1e6),
        ] {
            assert_eq!(docs(c.run(&gen(), 4, 40).unwrap().dataset), sequential, "{c:?}");
        }
    }

    #[test]
    fn throttling_tracks_target_rate() {
        // A slow target the machine can easily sustain: 2000 docs/sec.
        let c = VelocityController::new(2)
            .unwrap()
            .with_chunk_items(25)
            .with_target_rate(2000.0);
        let out = c.run(&gen(), 1, 1000).unwrap();
        let err = out.rate_error().unwrap();
        assert!(err < 0.25, "rate error {err}, achieved {}", out.achieved_rate);
    }

    #[test]
    fn unthrottled_beats_throttled() {
        let free = VelocityController::new(2).unwrap().with_chunk_items(50);
        let capped = free.with_target_rate(500.0);
        let fast = free.run(&gen(), 2, 500).unwrap();
        let slow = capped.run(&gen(), 2, 500).unwrap();
        assert!(fast.achieved_rate > slow.achieved_rate);
    }

    #[test]
    fn measure_rate_is_positive() {
        let mut acc = 0u64;
        let r = measure_rate(10_000, |i| acc = acc.wrapping_add(i));
        assert!(r > 0.0);
        assert!(acc > 0);
    }
}
