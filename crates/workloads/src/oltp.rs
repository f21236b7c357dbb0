//! Cloud OLTP: YCSB-style operation mixes on the LSM store.
//!
//! Table 2 attributes "OLTP (read, write, scan, update)" to YCSB and
//! "database operations (read, write, scan)" to BigDataBench's online
//! services. [`YcsbSpec`] encodes the canonical YCSB core workloads A–F;
//! [`run_ycsb`] loads the store and drives the mix from parallel clients
//! with Zipfian key choice, collecting per-operation latencies.

use crate::{WorkloadCategory, WorkloadResult};
use bdb_common::pool;
use bdb_common::prelude::*;
use bdb_kv::{LsmConfig, SharedLsm};
use bdb_metrics::{MetricsCollector, OpCounts};
use std::time::Instant;

/// One YCSB-style operation mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YcsbSpec {
    /// Workload name ("A".."F").
    pub name: &'static str,
    /// Fraction of point reads.
    pub read: f64,
    /// Fraction of updates (overwrite existing key).
    pub update: f64,
    /// Fraction of inserts (new keys).
    pub insert: f64,
    /// Fraction of short range scans.
    pub scan: f64,
    /// Fraction of read-modify-writes.
    pub rmw: f64,
    /// Zipf exponent of the key-popularity distribution.
    pub zipf_exponent: f64,
    /// Maximum records per scan.
    pub scan_len: usize,
}

impl YcsbSpec {
    /// YCSB workload A: update heavy (50/50 read/update).
    pub fn a() -> Self {
        Self { name: "A", read: 0.5, update: 0.5, insert: 0.0, scan: 0.0, rmw: 0.0, zipf_exponent: 0.99, scan_len: 0 }
    }

    /// YCSB workload B: read mostly (95/5 read/update).
    pub fn b() -> Self {
        Self { name: "B", read: 0.95, update: 0.05, insert: 0.0, scan: 0.0, rmw: 0.0, zipf_exponent: 0.99, scan_len: 0 }
    }

    /// YCSB workload C: read only.
    pub fn c() -> Self {
        Self { name: "C", read: 1.0, update: 0.0, insert: 0.0, scan: 0.0, rmw: 0.0, zipf_exponent: 0.99, scan_len: 0 }
    }

    /// YCSB workload D: read latest (95 read / 5 insert).
    pub fn d() -> Self {
        Self { name: "D", read: 0.95, update: 0.0, insert: 0.05, scan: 0.0, rmw: 0.0, zipf_exponent: 0.99, scan_len: 0 }
    }

    /// YCSB workload E: short ranges (95 scan / 5 insert).
    pub fn e() -> Self {
        Self { name: "E", read: 0.0, update: 0.0, insert: 0.05, scan: 0.95, rmw: 0.0, zipf_exponent: 0.99, scan_len: 100 }
    }

    /// YCSB workload F: read-modify-write (50 read / 50 RMW).
    pub fn f() -> Self {
        Self { name: "F", read: 0.5, update: 0.0, insert: 0.0, scan: 0.0, rmw: 0.5, zipf_exponent: 0.99, scan_len: 0 }
    }

    /// All six core workloads.
    pub fn all() -> Vec<Self> {
        vec![Self::a(), Self::b(), Self::c(), Self::d(), Self::e(), Self::f()]
    }

    fn validate(&self) {
        let total = self.read + self.update + self.insert + self.scan + self.rmw;
        assert!((total - 1.0).abs() < 1e-9, "op mix must sum to 1, got {total}");
    }
}

/// Driver configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YcsbConfig {
    /// Records pre-loaded into the store.
    pub record_count: u64,
    /// Operations to run (across all clients).
    pub operation_count: u64,
    /// Parallel client threads.
    pub clients: usize,
    /// Value payload size in bytes.
    pub value_size: usize,
}

impl Default for YcsbConfig {
    fn default() -> Self {
        Self { record_count: 10_000, operation_count: 20_000, clients: 4, value_size: 100 }
    }
}

fn key_of(i: u64) -> Vec<u8> {
    format!("user{i:012}").into_bytes()
}

/// Per-operation counts actually executed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct YcsbOpCounts {
    /// Point reads issued.
    pub reads: u64,
    /// Updates issued.
    pub updates: u64,
    /// Inserts issued.
    pub inserts: u64,
    /// Scans issued.
    pub scans: u64,
    /// Read-modify-writes issued.
    pub rmws: u64,
    /// Point reads that found their key.
    pub read_hits: u64,
}

/// Load the store and run the YCSB mix. Returns the populated store, the
/// executed op counts, and the metric result.
pub fn run_ycsb(
    spec: &YcsbSpec,
    config: &YcsbConfig,
    seed: u64,
) -> (SharedLsm, YcsbOpCounts, WorkloadResult) {
    spec.validate();
    let store = SharedLsm::with_config(LsmConfig::default());
    // ---- Load phase ----
    let tree = SeedTree::new(seed);
    {
        let mut rng = tree.child_named("load").rng();
        for i in 0..config.record_count {
            let mut v = vec![0u8; config.value_size];
            v.iter_mut().for_each(|b| *b = (rng.next_u64() & 0xFF) as u8);
            store.put(key_of(i), v);
        }
    }

    // ---- Run phase ----
    let collector = MetricsCollector::new();
    let zipf = Zipf::new(config.record_count.max(1), spec.zipf_exponent.max(0.01));
    let next_insert = std::sync::atomic::AtomicU64::new(config.record_count);
    let clients = config.clients.max(1);
    let per_client = config.operation_count / clients as u64;
    let tallies = pool::par_map(clients, (0..clients).collect(), |client: usize| {
        let mut rng = tree.child_named("run").child(client as u64).rng();
        let mut local = MetricsCollector::new();
        let mut counts = YcsbOpCounts::default();
        let mut payload = vec![0u8; config.value_size];
        for _ in 0..per_client {
            let u = rng.next_f64();
            let key = key_of(zipf.sample(&mut rng));
            payload[0] = payload[0].wrapping_add(1);
            let t0 = Instant::now();
            if u < spec.read {
                counts.reads += 1;
                if store.get(&key).is_some() {
                    counts.read_hits += 1;
                }
            } else if u < spec.read + spec.update {
                counts.updates += 1;
                store.put(key, payload.clone());
            } else if u < spec.read + spec.update + spec.insert {
                counts.inserts += 1;
                let id = next_insert.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                store.put(key_of(id), payload.clone());
            } else if u < spec.read + spec.update + spec.insert + spec.scan {
                counts.scans += 1;
                let _ = store.scan(&key, None, spec.scan_len);
            } else {
                counts.rmws += 1;
                let mut v = store.get(&key).unwrap_or_default();
                if v.is_empty() {
                    v = payload.clone();
                } else {
                    v[0] = v[0].wrapping_add(1);
                }
                store.put(key, v);
            }
            local.record_latency(t0.elapsed());
        }
        (local, counts)
    });
    let mut merged = collector;
    let mut counts = YcsbOpCounts::default();
    for (local, c) in &tallies {
        merged.merge(local);
        counts.reads += c.reads;
        counts.updates += c.updates;
        counts.inserts += c.inserts;
        counts.scans += c.scans;
        counts.rmws += c.rmws;
        counts.read_hits += c.read_hits;
    }
    let user = merged.finish();
    let kv_stats = store.stats();
    let ops = OpCounts { record_ops: kv_stats.total_ops(), float_ops: 0 };
    let result = WorkloadResult::assemble(
        &format!("oltp/ycsb-{}", spec.name),
        "kv",
        WorkloadCategory::OnlineServices,
        user,
        ops,
        config.record_count,
    )
    .with_detail("read_hit_rate", counts.read_hits as f64 / counts.reads.max(1) as f64);
    (store, counts, result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> YcsbConfig {
        YcsbConfig { record_count: 500, operation_count: 2000, clients: 2, value_size: 32 }
    }

    #[test]
    fn mixes_sum_to_one() {
        for spec in YcsbSpec::all() {
            spec.validate();
        }
    }

    #[test]
    fn workload_a_runs_reads_and_updates() {
        let (_, counts, result) = run_ycsb(&YcsbSpec::a(), &small(), 1);
        let total = counts.reads + counts.updates;
        assert_eq!(total, 2000);
        let read_frac = counts.reads as f64 / 2000.0;
        assert!((read_frac - 0.5).abs() < 0.05, "read fraction {read_frac}");
        assert_eq!(result.category, WorkloadCategory::OnlineServices);
        assert!(result.report.user.latency_samples == 2000);
        // Every read targets a loaded key.
        assert_eq!(counts.read_hits, counts.reads);
    }

    #[test]
    fn workload_c_is_read_only() {
        let (_, counts, _) = run_ycsb(&YcsbSpec::c(), &small(), 2);
        assert_eq!(counts.reads, 2000);
        assert_eq!(counts.updates + counts.inserts + counts.scans + counts.rmws, 0);
    }

    #[test]
    fn workload_e_scans_and_inserts() {
        let (_, counts, _) = run_ycsb(&YcsbSpec::e(), &small(), 3);
        assert!(counts.scans > 1700);
        assert!(counts.inserts > 20);
    }

    #[test]
    fn workload_d_inserts_extend_keyspace() {
        let (store, counts, _) = run_ycsb(&YcsbSpec::d(), &small(), 4);
        assert!(counts.inserts > 0);
        // Inserted keys are readable.
        let k = format!("user{:012}", 500).into_bytes();
        assert!(store.get(&k).is_some());
    }

    #[test]
    fn zipfian_reads_hit_hot_keys() {
        // With exponent 0.99 over 500 keys, key 0 should absorb a clearly
        // super-uniform share of reads; verify via store counters versus a
        // uniform run (approximately: hit rate of hottest key).
        let (_, _, result) = run_ycsb(&YcsbSpec::c(), &small(), 5);
        assert_eq!(result.detail("read_hit_rate"), Some(1.0));
    }

    #[test]
    fn rmw_preserves_value_size() {
        let (store, counts, _) = run_ycsb(&YcsbSpec::f(), &small(), 6);
        assert!(counts.rmws > 0);
        let v = store.get(&key_of(0)).unwrap();
        assert_eq!(v.len(), 32);
    }
}
