//! The truly hybrid workload of Section 5.2.
//!
//! "The truly hybrid workload, i.e. the workload \[that\] consists of the
//! mix of various data processing operations and their arriving rates and
//! sequences, has not been adequately supported." This module supports
//! the "sequences" half: a weighted mix of OLTP point operations (on the
//! LSM store) and relational analytics queries (on the SQL engine),
//! interleaved in a seeded sequence and issued back to back, with
//! per-component latency metrics. The mix is not paced by an arrival rate.

use crate::{WorkloadCategory, WorkloadResult};
use bdb_common::prelude::*;
use bdb_kv::SharedLsm;
use bdb_metrics::{MetricsCollector, OpCounts};
use bdb_sql::Engine;
use bdb_testgen::arrival::{ArrivalSpec, HybridMix};
use bdb_common::Result;
use std::time::Instant;

/// Configuration of the hybrid driver.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridConfig {
    /// Weight of the OLTP component.
    pub oltp_weight: f64,
    /// Weight of the analytics component.
    pub olap_weight: f64,
    /// Total operations to issue.
    pub operations: usize,
    /// Records preloaded into the KV store.
    pub kv_records: u64,
    /// Rows in the analytics table.
    pub table_rows: u64,
}

impl Default for HybridConfig {
    fn default() -> Self {
        Self {
            oltp_weight: 0.9,
            olap_weight: 0.1,
            operations: 1000,
            kv_records: 2000,
            table_rows: 2000,
        }
    }
}

/// Per-component measurements of a hybrid run.
#[derive(Debug, Clone)]
pub struct HybridOutcome {
    /// OLTP operations issued.
    pub oltp_ops: u64,
    /// Analytics queries issued.
    pub olap_ops: u64,
    /// OLTP median latency, microseconds.
    pub oltp_p50_us: f64,
    /// Analytics median latency, microseconds.
    pub olap_p50_us: f64,
}

/// Run the hybrid mix and return per-component stats plus the combined
/// metric result.
pub fn run_hybrid(config: &HybridConfig, seed: u64) -> Result<(HybridOutcome, WorkloadResult)> {
    let mix = HybridMix::new(
        vec![
            ("oltp/point-ops".into(), config.oltp_weight),
            ("relational/aggregate".into(), config.olap_weight),
        ],
        ArrivalSpec::Batch,
    )?;
    let slots = mix.schedule(config.operations, seed)?;

    // Substrate setup: KV store + SQL engine over a generated table.
    let store = SharedLsm::default();
    let tree = SeedTree::new(seed);
    {
        let mut rng = tree.child_named("kv-load").rng();
        for i in 0..config.kv_records {
            let mut v = vec![0u8; 64];
            v.iter_mut().for_each(|b| *b = (rng.next_u64() & 0xFF) as u8);
            store.put(format!("user{i:012}").into_bytes(), v);
        }
    }
    let table = crate::relational::uservisits_generator(1000)
        .generate_shard(seed, 0, config.table_rows);
    let mut engine = Engine::new();
    engine.register("uservisits", table)?;

    let zipf = Zipf::new(config.kv_records.max(1), 0.99);
    let mut rng = tree.child_named("hybrid-run").rng();
    let collector = MetricsCollector::new();
    let mut oltp_lat = MetricsCollector::new();
    let mut olap_lat = MetricsCollector::new();
    let mut oltp_ops = 0u64;
    let mut olap_ops = 0u64;
    for slot in &slots {
        let t0 = Instant::now();
        if slot.component == 0 {
            oltp_ops += 1;
            let key = format!("user{:012}", zipf.sample(&mut rng)).into_bytes();
            if rng.next_bool(0.5) {
                let _ = store.get(&key);
            } else {
                store.put(key, vec![1u8; 64]);
            }
            oltp_lat.record_latency(t0.elapsed());
        } else {
            olap_ops += 1;
            engine.sql(
                "SELECT dest_page, SUM(ad_revenue) AS r FROM uservisits \
                 GROUP BY dest_page ORDER BY r DESC LIMIT 5",
            )?;
            olap_lat.record_latency(t0.elapsed());
        }
    }
    let mut all = collector;
    all.merge(&oltp_lat);
    all.merge(&olap_lat);
    let user = all.finish();
    let ops = OpCounts {
        record_ops: store.stats().total_ops() + engine.stats().total_ops(),
        float_ops: 0,
    };
    let result = WorkloadResult::assemble(
        "hybrid/oltp+olap",
        "kv+sql",
        WorkloadCategory::OnlineServices,
        user,
        ops,
        config.operations as u64,
    )
    .with_detail("oltp_ops", oltp_ops as f64)
    .with_detail("olap_ops", olap_ops as f64);
    let outcome = HybridOutcome {
        oltp_ops,
        olap_ops,
        oltp_p50_us: oltp_lat.finish().latency_p50_us,
        olap_p50_us: olap_lat.finish().latency_p50_us,
    };
    Ok((outcome, result))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_fractions_follow_weights() {
        let cfg = HybridConfig { operations: 2000, ..Default::default() };
        let (outcome, result) = run_hybrid(&cfg, 1).unwrap();
        assert_eq!(outcome.oltp_ops + outcome.olap_ops, 2000);
        let frac = outcome.oltp_ops as f64 / 2000.0;
        assert!((frac - 0.9).abs() < 0.04, "oltp fraction {frac}");
        assert_eq!(result.detail("oltp_ops"), Some(outcome.oltp_ops as f64));
    }

    #[test]
    fn analytics_queries_are_slower_than_point_ops() {
        let cfg = HybridConfig { operations: 400, ..Default::default() };
        let (outcome, _) = run_hybrid(&cfg, 2).unwrap();
        assert!(
            outcome.olap_p50_us > outcome.oltp_p50_us,
            "olap {} vs oltp {}",
            outcome.olap_p50_us,
            outcome.oltp_p50_us
        );
    }

    #[test]
    fn deterministic_sequencing() {
        let cfg = HybridConfig { operations: 500, ..Default::default() };
        let (a, _) = run_hybrid(&cfg, 9).unwrap();
        let (b, _) = run_hybrid(&cfg, 9).unwrap();
        assert_eq!(a.oltp_ops, b.oltp_ops);
        assert_eq!(a.olap_ops, b.olap_ops);
    }
}
