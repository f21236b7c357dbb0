//! `kv_ycsb`: the LSM store past its memtable.
//!
//! One pass is `run_ycsb` workload A (200 000 records, 400 000 ops,
//! 100 B values: point reads and updates through runs and blooms, ~33
//! flushes) then workload E (2 000 records, 4 000 ops: range scans with
//! inserts). `load_kv_open` keeps 1024 keys and never gets there. One
//! client on purpose: with two, workload A is bimodal across process
//! starts (a write-lock convoy), which measures the scheduler; the
//! 2-client figure is a per-layer metric instead.

use crate::harness::{Ctx, Pass, Replays, Traced, Workload};
use crate::span::Tracer;
use crate::stats::median;
use bdbench::kv::{KvStats, LsmConfig, LsmStore};
use bdbench::workloads::oltp::{run_ycsb, YcsbConfig, YcsbSpec};
use std::path::Path;
use std::time::Instant;

/// The YCSB workload.
#[derive(Default)]
pub struct KvYcsb {
    a: YcsbConfig,
    e: YcsbConfig,
}

/// One `run_ycsb` call, timed from outside.
struct YcsbRun {
    wall_s: f64,
    /// `report.user.duration_secs`: the run phase alone.
    run_s: f64,
    ops: u64,
    /// Point reads that missed a key the load phase wrote.
    read_misses: u64,
    stats: KvStats,
}

fn ycsb(spec: &YcsbSpec, config: &YcsbConfig, seed: u64) -> YcsbRun {
    let t0 = Instant::now();
    let (store, counts, result) = run_ycsb(spec, config, seed);
    let wall_s = t0.elapsed().as_secs_f64();
    YcsbRun {
        wall_s,
        run_s: result.report.user.duration_secs,
        ops: config.operation_count,
        read_misses: counts.reads - counts.read_hits,
        stats: store.stats(),
    }
}

impl KvYcsb {
    /// Workload A then E under `t`.
    fn body(&self, t: &mut Tracer, ctx: &Ctx) -> (Pass, YcsbRun, YcsbRun) {
        let a = t.span("workloads.oltp.run_ycsb.a", |_| {
            ycsb(&YcsbSpec::a(), &self.a, ctx.seed)
        });
        let e = t.span("workloads.oltp.run_ycsb.e", |_| {
            ycsb(&YcsbSpec::e(), &self.e, ctx.seed)
        });
        let pass = Pass {
            wall_s: a.wall_s + e.wall_s,
            work: a.ops + e.ops,
            op_ns: vec![(a.wall_s * 1e9) as u64, (e.wall_s * 1e9) as u64],
            // Every read of workload A must hit: its keys were all loaded.
            attempted: a.stats.reads,
            failed: a.read_misses,
        };
        (pass, a, e)
    }
}

impl Workload for KvYcsb {
    fn setup(&mut self, ctx: &Ctx) -> Result<(), String> {
        self.a = YcsbConfig {
            record_count: ctx.sized(200_000, 500),
            operation_count: ctx.sized(400_000, 1000),
            clients: 1,
            value_size: 100,
        };
        self.e = YcsbConfig {
            record_count: ctx.sized(2_000, 100),
            operation_count: ctx.sized(4_000, 200),
            clients: 1,
            value_size: 100,
        };
        let (pass, ..) = self.body(&mut Tracer::noop(), ctx);
        if pass.failed > 0 {
            return Err(format!(
                "warm-up pass: {} reads of workload A missed a loaded key",
                pass.failed
            ));
        }
        Ok(())
    }

    fn pass(&mut self, ctx: &Ctx) -> Result<Pass, String> {
        Ok(self.body(&mut Tracer::noop(), ctx).0)
    }

    fn traced(&mut self, ctx: &Ctx) -> Result<Traced, String> {
        let mut out = Traced::default();
        let mut replays = Replays::default();
        let (mut load_s, mut a_rate, mut e_rate) = (Vec::new(), Vec::new(), Vec::new());
        let mut a_stats = KvStats::default();
        let start = Instant::now();
        while replays.rounds() < 2 || !ctx.window_over(start, 0.7) {
            replays.round(|t, _| {
                let (pass, a, e) = self.body(t, ctx);
                out.attempted += pass.attempted;
                out.failed += pass.failed;
                load_s.push(a.wall_s - a.run_s);
                a_rate.push(a.ops as f64 / a.run_s);
                e_rate.push(e.ops as f64 / e.run_s);
                a_stats = a.stats;
                Ok(pass.wall_s)
            })?;
        }
        out.put_one("benchmark.trace_overhead_ratio", replays.overhead_ratio());
        out.put("workloads.oltp.a.load_s", &load_s);
        out.put("workloads.oltp.a.run_ops_per_s", &a_rate);
        out.put("workloads.oltp.e.run_ops_per_s", &e_rate);
        // One client, so these counts repeat exactly.
        out.put_one("kvstore.lsm.a.flushes", a_stats.flushes as f64);
        out.put_one("kvstore.lsm.a.compactions", a_stats.compactions as f64);
        out.put_one(
            "kvstore.lsm.a.run_probes_per_get",
            a_stats.run_probes as f64 / a_stats.reads.max(1) as f64,
        );
        out.put_one(
            "kvstore.lsm.a.bloom_skip_share",
            a_stats.bloom_skips as f64 / (a_stats.bloom_skips + a_stats.run_probes).max(1) as f64,
        );

        // Two clients on workload A, against the one-client rate above.
        let two = YcsbConfig {
            clients: 2,
            ..self.a
        };
        let two_rate: Vec<f64> = (0..2)
            .map(|_| {
                let r = ycsb(&YcsbSpec::a(), &two, ctx.seed);
                out.attempted += r.stats.reads;
                out.failed += r.read_misses;
                r.ops as f64 / r.run_s
            })
            .collect();
        out.put_one(
            "workloads.oltp.a.scaling_2c",
            median(&two_rate) / median(&a_rate),
        );

        self.probe_store(&mut out);
        probe_durable(ctx, &mut out)?;
        out.spans = replays.spans().to_vec();
        Ok(out)
    }
}

fn user_key(i: u64) -> Vec<u8> {
    format!("user{i:012}").into_bytes()
}

/// Per-op nanoseconds of `n` calls of `f(i)`.
fn ns_per_op(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

impl KvYcsb {
    /// `LsmStore` called directly with workload A's shape: fill, point
    /// reads that hit and miss, the scan YCSB-E issues against a bounded
    /// one, then an explicit flush and compaction.
    fn probe_store(&self, out: &mut Traced) {
        let n = self.a.record_count;
        let mut store = LsmStore::with_config(LsmConfig::default());
        let value = vec![0x5au8; self.a.value_size];
        out.put_one(
            "kvstore.lsm.fill_put_ns",
            ns_per_op(n, |i| store.put(user_key(i), value.clone())),
        );
        // A stride coprime to n visits every key once, out of insert order.
        let stride = 7_919;
        let mut hits = 0u64;
        let hit_ns = ns_per_op(n, |i| {
            hits += u64::from(store.get(&user_key((i * stride) % n)).is_some())
        });
        out.put_one("kvstore.lsm.get_hit_ns", hit_ns);
        let miss_ns = ns_per_op(n, |i| {
            hits += u64::from(store.get(&user_key(n + i)).is_some())
        });
        out.put_one("kvstore.lsm.get_miss_ns", miss_ns);
        out.attempted += 2 * n;
        out.failed += n.abs_diff(hits);

        let starts: Vec<u64> = (0..20)
            .map(|i| (i * stride * 13) % n.saturating_sub(100).max(1))
            .collect();
        let mut unbounded_us = Vec::new();
        let mut bounded_us = Vec::new();
        for &k in &starts {
            let t0 = Instant::now();
            let open = store.scan(&user_key(k), None, 100);
            unbounded_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            let t0 = Instant::now();
            let closed = store.scan(&user_key(k), Some(&user_key(k + 100)), 100);
            bounded_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            out.attempted += 1;
            if open != closed {
                out.failed += 1;
            }
        }
        out.put("kvstore.lsm.scan_unbounded_us", &unbounded_us);
        out.put("kvstore.lsm.scan100_us", &bounded_us);

        let t0 = Instant::now();
        store.flush();
        out.put_one("kvstore.lsm.flush_ms", t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        store.compact();
        out.put_one("kvstore.lsm.compact_ms", t0.elapsed().as_secs_f64() * 1e3);
    }
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        total += entry
            .and_then(|e| e.metadata())
            .map_err(|e| e.to_string())?
            .len();
    }
    Ok(total)
}

/// The durable store: WAL-backed puts, a reopen, and what it keeps on
/// disk. No end-to-end workload is durable today; this is the baseline.
/// Every key acknowledged before `flush` must be readable after a reopen.
fn probe_durable(ctx: &Ctx, out: &mut Traced) -> Result<(), String> {
    let dir = ctx.scratch.join("lsm-durable");
    super::fresh_dir(&dir)?;
    let n = ctx.sized(50_000, 500);
    let value = vec![0xa5u8; 100];
    let mut store = LsmStore::open(&dir, LsmConfig::default()).map_err(|e| e.to_string())?;
    let mut put_error = None;
    let put_ns = ns_per_op(n, |i| {
        if let Err(e) = store.try_put(user_key(i), value.clone()) {
            put_error.get_or_insert(e.to_string());
        }
    });
    if let Some(e) = put_error {
        return Err(format!("durable put: {e}"));
    }
    out.put_one("kvstore.wal.durable_put_ns", put_ns);
    store.try_flush().map_err(|e| e.to_string())?;
    drop(store);
    let user_bytes: u64 = (0..n)
        .map(|i| (user_key(i).len() + value.len()) as u64)
        .sum();
    out.put_one(
        "kvstore.disk_bytes_per_user_byte",
        dir_bytes(&dir)? as f64 / user_bytes as f64,
    );
    let t0 = Instant::now();
    let reopened = LsmStore::open(&dir, LsmConfig::default()).map_err(|e| e.to_string())?;
    out.put_one("kvstore.lsm.reopen_ms", t0.elapsed().as_secs_f64() * 1e3);
    out.attempted += n;
    out.failed += (0..n)
        .filter(|&i| reopened.get(&user_key(i)).as_deref() != Some(&value[..]))
        .count() as u64;
    Ok(())
}
