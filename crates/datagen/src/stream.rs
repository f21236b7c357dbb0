//! Stream data generation: arrival processes and update streams.
//!
//! The paper gives *velocity* three meanings; two of them live here:
//!
//! * **Processing-speed inputs** — [`PoissonArrivals`] and
//!   [`MmppArrivals`] generate timestamped event streams whose arrival
//!   law is controllable (smooth vs bursty); the streaming engine consumes
//!   them to measure processing speed. A timestamp depends on every
//!   earlier gap (and, for MMPP, on the modulation state), so an
//!   exact shard would cost the sequential pass it meant to save: neither
//!   generator plans items, and [`DataGenerator::generate_parallel`] and
//!   the velocity controller generate them once, in order.
//! * **Update frequency** — [`UpdateStreamGenerator`] emits a mixed
//!   insert/update/delete operation stream against a keyspace at a
//!   configured updates-per-second rate (the axis the paper says existing
//!   benchmarks ignore).

use crate::volume::VolumeSpec;
use crate::{DataGenerator, DataSourceKind, Dataset};
use bdb_common::prelude::*;
use bdb_common::{BdbError, Result};

pub use bdb_common::event::Event;

/// A Poisson process: exponential inter-arrival gaps at a constant rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonArrivals {
    /// Mean events per second.
    pub rate_per_sec: f64,
    /// Number of distinct keys; keys are Zipf(0.99)-popular.
    pub num_keys: u64,
}

impl PoissonArrivals {
    /// A Poisson arrival generator.
    ///
    /// # Errors
    /// Fails on non-positive rate or zero keys.
    pub fn new(rate_per_sec: f64, num_keys: u64) -> Result<Self> {
        if rate_per_sec <= 0.0 || num_keys == 0 {
            return Err(BdbError::InvalidConfig("rate and keys must be positive".into()));
        }
        Ok(Self { rate_per_sec, num_keys })
    }

    /// Generate `n` events.
    ///
    /// Every event draws its gap, key and value from its own [`SeedTree`]
    /// cell; its timestamp is the running sum of every earlier gap.
    pub fn generate_events(&self, seed: u64, n: u64) -> Vec<Event> {
        let tree = SeedTree::new(seed).child_named("poisson");
        let gap = Exponential::new(self.rate_per_sec / 1000.0); // per ms
        let keys = Zipf::new(self.num_keys, 0.99);
        let value = Gaussian::new(100.0, 15.0);
        let mut ts = 0.0f64;
        (0..n)
            .map(|i| {
                let mut rng = tree.cell(i);
                ts += gap.sample(&mut rng);
                Event {
                    ts_ms: ts as u64,
                    key: keys.sample(&mut rng),
                    value: value.sample(&mut rng),
                }
            })
            .collect()
    }
}

impl DataGenerator for PoissonArrivals {
    fn name(&self) -> &str {
        "stream/poisson"
    }

    fn kind(&self) -> DataSourceKind {
        DataSourceKind::Stream
    }

    fn generate(&self, seed: u64, volume: &VolumeSpec) -> Result<Dataset> {
        let n = volume.resolve_items(std::mem::size_of::<Event>() as f64, 10_000)?;
        Ok(Dataset::Stream(self.generate_events(seed, n)))
    }
}

/// A two-state Markov-modulated Poisson process: alternates between a calm
/// rate and a burst rate, producing the bursty traffic real services see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmppArrivals {
    /// Events per second in the calm state.
    pub calm_rate_per_sec: f64,
    /// Events per second in the burst state.
    pub burst_rate_per_sec: f64,
    /// Mean milliseconds spent in each state before switching.
    pub mean_state_ms: f64,
    /// Number of distinct keys.
    pub num_keys: u64,
}

impl MmppArrivals {
    /// An MMPP generator.
    ///
    /// # Errors
    /// Fails on non-positive rates, dwell time, or zero keys.
    pub fn new(
        calm_rate_per_sec: f64,
        burst_rate_per_sec: f64,
        mean_state_ms: f64,
        num_keys: u64,
    ) -> Result<Self> {
        if calm_rate_per_sec <= 0.0
            || burst_rate_per_sec <= 0.0
            || mean_state_ms <= 0.0
            || num_keys == 0
        {
            return Err(BdbError::InvalidConfig("MMPP parameters must be positive".into()));
        }
        Ok(Self { calm_rate_per_sec, burst_rate_per_sec, mean_state_ms, num_keys })
    }

    /// Generate `n` events.
    ///
    /// Per-event randomness (a unit-mean gap scaled by the current state's
    /// rate, the key, the value) comes from the event's own [`SeedTree`]
    /// cell; the calm/burst dwell process is its own boundary sequence
    /// (seed subtree `"dwell"`), walked alongside the running clock.
    pub fn generate_events(&self, seed: u64, n: u64) -> Vec<Event> {
        let tree = SeedTree::new(seed).child_named("mmpp");
        let dwell_tree = tree.child_named("dwell");
        let keys = Zipf::new(self.num_keys, 0.99);
        let value = Gaussian::new(100.0, 15.0);
        let dwell = Exponential::new(1.0 / self.mean_state_ms);
        let unit_gap = Exponential::new(1.0);
        let mut ts = 0.0f64;
        let mut burst = false;
        let mut state_ends = dwell.sample(&mut dwell_tree.cell(0));
        let mut boundary = 1u64;
        let mut events = Vec::with_capacity(n as usize);
        for i in 0..n {
            let mut rng = tree.cell(i);
            let rate = if burst { self.burst_rate_per_sec } else { self.calm_rate_per_sec };
            ts += unit_gap.sample(&mut rng) * 1000.0 / rate;
            while ts > state_ends {
                burst = !burst;
                state_ends += dwell.sample(&mut dwell_tree.cell(boundary));
                boundary += 1;
            }
            events.push(Event {
                ts_ms: ts as u64,
                key: keys.sample(&mut rng),
                value: value.sample(&mut rng),
            });
        }
        events
    }
}

impl DataGenerator for MmppArrivals {
    fn name(&self) -> &str {
        "stream/mmpp"
    }

    fn kind(&self) -> DataSourceKind {
        DataSourceKind::Stream
    }

    fn generate(&self, seed: u64, volume: &VolumeSpec) -> Result<Dataset> {
        let n = volume.resolve_items(std::mem::size_of::<Event>() as f64, 10_000)?;
        Ok(Dataset::Stream(self.generate_events(seed, n)))
    }
}

/// One operation of an update stream.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateOp {
    /// Insert a fresh key.
    Insert {
        /// The new key.
        key: u64,
        /// Initial value.
        value: f64,
    },
    /// Overwrite an existing key.
    Update {
        /// Target key.
        key: u64,
        /// New value.
        value: f64,
    },
    /// Remove a key.
    Delete {
        /// Target key.
        key: u64,
    },
}

/// A timestamped update operation.
#[derive(Debug, Clone, PartialEq)]
pub struct TimestampedOp {
    /// Operation time in ms since stream start.
    pub ts_ms: u64,
    /// The operation.
    pub op: UpdateOp,
}

/// Generates a mixed insert/update/delete stream at a configured update
/// frequency — the paper's second meaning of data velocity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateStreamGenerator {
    /// Target operations per second.
    pub updates_per_sec: f64,
    /// Fraction of inserts (the rest splits between update and delete).
    pub insert_fraction: f64,
    /// Fraction of updates.
    pub update_fraction: f64,
    /// Initial keyspace size (keys `0..initial_keys` pre-exist).
    pub initial_keys: u64,
}

impl UpdateStreamGenerator {
    /// A generator with the given mix.
    ///
    /// # Errors
    /// Fails unless fractions are non-negative and sum to at most 1, and
    /// the rate is positive.
    pub fn new(
        updates_per_sec: f64,
        insert_fraction: f64,
        update_fraction: f64,
        initial_keys: u64,
    ) -> Result<Self> {
        if updates_per_sec <= 0.0 {
            return Err(BdbError::InvalidConfig("update rate must be positive".into()));
        }
        if insert_fraction < 0.0
            || update_fraction < 0.0
            || insert_fraction + update_fraction > 1.0
        {
            return Err(BdbError::InvalidConfig("bad operation mix".into()));
        }
        Ok(Self { updates_per_sec, insert_fraction, update_fraction, initial_keys })
    }

    /// Generate `n` operations.
    ///
    /// Updates and deletes always target currently live keys, so replaying
    /// the stream against a store never references a missing key.
    pub fn generate_ops(&self, seed: u64, n: u64) -> Vec<TimestampedOp> {
        let mut rng = SeedTree::new(seed).child_named("updates").rng();
        let gap = Exponential::new(self.updates_per_sec / 1000.0);
        let value = Gaussian::new(50.0, 10.0);
        let mut live: Vec<u64> = (0..self.initial_keys).collect();
        let mut next_key = self.initial_keys;
        let mut ts = 0.0f64;
        let mut ops = Vec::with_capacity(n as usize);
        for _ in 0..n {
            ts += gap.sample(&mut rng);
            let r = rng.next_f64();
            let op = if r < self.insert_fraction || live.is_empty() {
                let key = next_key;
                next_key += 1;
                live.push(key);
                UpdateOp::Insert { key, value: value.sample(&mut rng) }
            } else if r < self.insert_fraction + self.update_fraction {
                let idx = rng.next_bounded(live.len() as u64) as usize;
                UpdateOp::Update { key: live[idx], value: value.sample(&mut rng) }
            } else {
                let idx = rng.next_bounded(live.len() as u64) as usize;
                let key = live.swap_remove(idx);
                UpdateOp::Delete { key }
            };
            ops.push(TimestampedOp { ts_ms: ts as u64, op });
        }
        ops
    }

    /// The achieved update frequency of a generated stream, in ops/sec.
    pub fn measured_rate(ops: &[TimestampedOp]) -> f64 {
        match (ops.first(), ops.last()) {
            (Some(first), Some(last)) if last.ts_ms > first.ts_ms => {
                (ops.len() as f64 - 1.0) / ((last.ts_ms - first.ts_ms) as f64 / 1000.0)
            }
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_is_respected() {
        let g = PoissonArrivals::new(1000.0, 100).unwrap();
        let events = g.generate_events(1, 10_000);
        assert_eq!(events.len(), 10_000);
        let span_sec = events.last().unwrap().ts_ms as f64 / 1000.0;
        let rate = 10_000.0 / span_sec;
        assert!((900.0..1100.0).contains(&rate), "rate {rate}");
        // Timestamps are non-decreasing.
        assert!(events.windows(2).all(|w| w[0].ts_ms <= w[1].ts_ms));
    }

    #[test]
    fn poisson_rejects_bad_config() {
        assert!(PoissonArrivals::new(0.0, 10).is_err());
        assert!(PoissonArrivals::new(10.0, 0).is_err());
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        // Compare variance of per-window counts at matched mean rate.
        let poisson = PoissonArrivals::new(1000.0, 10).unwrap().generate_events(3, 20_000);
        let mmpp = MmppArrivals::new(200.0, 1800.0, 500.0, 10)
            .unwrap()
            .generate_events(3, 20_000);
        let window_counts = |evts: &[Event]| -> Vec<f64> {
            let mut counts = std::collections::BTreeMap::new();
            for e in evts {
                *counts.entry(e.ts_ms / 100).or_insert(0.0) += 1.0;
            }
            counts.into_values().collect()
        };
        let vp = Summary::of(&window_counts(&poisson)).variance();
        let vm = Summary::of(&window_counts(&mmpp)).variance();
        assert!(vm > 2.0 * vp, "mmpp var {vm} vs poisson var {vp}");
    }

    #[test]
    fn parallel_stream_generation_preserves_count_and_keys() {
        // Streams do not shard: `generate_parallel` is the sequential run.
        let vol = VolumeSpec::Items(4000);
        let poisson = PoissonArrivals::new(1000.0, 50).unwrap();
        let mmpp = MmppArrivals::new(200.0, 1800.0, 500.0, 50).unwrap();
        for g in [&poisson as &dyn DataGenerator, &mmpp] {
            assert_eq!(g.plan_items(3, &vol).unwrap(), None, "{}", g.name());
            match (g.generate(3, &vol).unwrap(), g.generate_parallel(3, &vol, 4).unwrap()) {
                (Dataset::Stream(a), Dataset::Stream(b)) => assert_eq!(a, b, "{}", g.name()),
                _ => panic!("expected streams"),
            }
        }
    }

    #[test]
    fn update_stream_mix_matches_config() {
        let g = UpdateStreamGenerator::new(100.0, 0.5, 0.3, 50).unwrap();
        let ops = g.generate_ops(1, 10_000);
        let inserts = ops
            .iter()
            .filter(|o| matches!(o.op, UpdateOp::Insert { .. }))
            .count() as f64
            / 10_000.0;
        let updates = ops
            .iter()
            .filter(|o| matches!(o.op, UpdateOp::Update { .. }))
            .count() as f64
            / 10_000.0;
        assert!((inserts - 0.5).abs() < 0.03, "inserts {inserts}");
        assert!((updates - 0.3).abs() < 0.03, "updates {updates}");
    }

    #[test]
    fn update_stream_never_touches_dead_keys() {
        let g = UpdateStreamGenerator::new(100.0, 0.2, 0.3, 10).unwrap();
        let ops = g.generate_ops(2, 5_000);
        let mut live: std::collections::BTreeSet<u64> = (0..10).collect();
        for op in &ops {
            match &op.op {
                UpdateOp::Insert { key, .. } => {
                    assert!(live.insert(*key), "duplicate insert of {key}");
                }
                UpdateOp::Update { key, .. } => {
                    assert!(live.contains(key), "update of dead key {key}");
                }
                UpdateOp::Delete { key } => {
                    assert!(live.remove(key), "delete of dead key {key}");
                }
            }
        }
    }

    #[test]
    fn update_rate_measurement() {
        let g = UpdateStreamGenerator::new(500.0, 0.4, 0.4, 10).unwrap();
        let ops = g.generate_ops(4, 5_000);
        let rate = UpdateStreamGenerator::measured_rate(&ops);
        assert!((400.0..600.0).contains(&rate), "rate {rate}");
        assert_eq!(UpdateStreamGenerator::measured_rate(&[]), 0.0);
    }

    #[test]
    fn update_generator_validates() {
        assert!(UpdateStreamGenerator::new(0.0, 0.5, 0.3, 1).is_err());
        assert!(UpdateStreamGenerator::new(10.0, 0.8, 0.3, 1).is_err());
    }
}
