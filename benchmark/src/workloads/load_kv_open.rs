//! `load_kv_open`: latency at a fixed arrival rate on the LSM target.
//!
//! Open loop `poisson:15000` for 2000 ms → 30 000 ops (70 % get / 20 %
//! put / 10 % scan, Zipf 0.99) on a fresh `KvLoadTarget` (64 KiB
//! memtable). One client beside the pacer thread, and a FIFO queue as
//! long as the schedule, so a stall shows as latency and never as a shed
//! operation. Latency is sojourn time from the *intended* arrival, so a
//! stall is charged to every op that waited behind it.

use super::THREADS;
use crate::harness::{Ctx, Pass, Replays, Traced, Workload};
use crate::stats::nearest_rank;
use crate::timed::{closed_drive, drive_failures, sojourn_ns, Stamp, TimedTarget};
use bdbench::exec::loadgen::{
    build_schedule, key_of, run_target, value_of, KvLoadTarget, LoadArrival, LoadOp, LoadProfile,
    LoadReport, ScheduledOp,
};
use bdbench::exec::trace::RunTrace;
use bdbench::kv::KvStats;
use std::time::Instant;

const RATE_PER_S: f64 = 15_000.0;
const DURATION_MS: u64 = 2000;

/// The open-loop KV workload.
#[derive(Default)]
pub struct LoadKvOpen {
    profile: LoadProfile,
    schedule: Vec<ScheduledOp>,
}

fn open_profile(rate_per_sec: f64, duration_ms: u64) -> LoadProfile {
    LoadProfile {
        clients: 1,
        inflight: 1,
        duration_ms,
        arrival: LoadArrival::Poisson { rate_per_sec },
        // Room for every scheduled op (rate × duration, with slack for
        // rounding): the queue can fill only if nothing is ever served.
        queue_capacity: Some((rate_per_sec * duration_ms as f64 / 1000.0) as usize + 64),
        sample_every: 16,
        engines: None,
    }
}

/// One timed open-loop drive of a fresh target.
struct OpenDrive {
    report: LoadReport,
    wall_s: f64,
    /// Ascending sojourn times.
    sojourn: Vec<u64>,
    /// The single session's stamps, in schedule order.
    stamps: Vec<Stamp>,
    /// Store counters over the drive alone (preload excluded).
    stats: KvStats,
    failed: u64,
}

fn open_drive(profile: &LoadProfile, schedule: &[ScheduledOp]) -> Result<OpenDrive, String> {
    let target = KvLoadTarget::new();
    let before = target.store().stats();
    let timed = TimedTarget::new(&target, schedule.len());
    let t0 = Instant::now();
    let report =
        run_target(&timed, profile, schedule, &RunTrace::new()).map_err(|e| e.to_string())?;
    let wall_s = t0.elapsed().as_secs_f64();
    let after = target.store().stats();
    let failed = drive_failures(&report, schedule.len() as u64);
    let mut sessions = timed.into_sessions();
    // Fails loudly on a shed op, a second session or an op out of order.
    let sojourn = sojourn_ns(&sessions, schedule)?;
    let stats = KvStats {
        writes: after.writes - before.writes,
        reads: after.reads - before.reads,
        memtable_hits: after.memtable_hits - before.memtable_hits,
        run_probes: after.run_probes - before.run_probes,
        bloom_skips: after.bloom_skips - before.bloom_skips,
        scans: after.scans - before.scans,
        flushes: after.flushes - before.flushes,
        compactions: after.compactions - before.compactions,
        ..KvStats::default()
    };
    Ok(OpenDrive {
        report,
        wall_s,
        sojourn,
        stamps: sessions.remove(0),
        stats,
        failed,
    })
}

impl Workload for LoadKvOpen {
    fn setup(&mut self, ctx: &Ctx) -> Result<(), String> {
        self.profile = open_profile(RATE_PER_S, ctx.sized(DURATION_MS, 20));
        self.schedule = build_schedule(&self.profile, ctx.seed).map_err(|e| e.to_string())?;
        // Warm-up with full verification: every result against the oracle.
        let checked = LoadProfile {
            sample_every: 1,
            ..self.profile.clone()
        };
        let drive = open_drive(&checked, &self.schedule)?;
        if drive.failed > 0 {
            return Err(format!(
                "warm-up drive: {} operations shed, failed or wrong",
                drive.failed
            ));
        }
        Ok(())
    }

    fn pass(&mut self, _ctx: &Ctx) -> Result<Pass, String> {
        let d = open_drive(&self.profile, &self.schedule)?;
        Ok(Pass {
            wall_s: d.wall_s,
            work: d.report.completed,
            op_ns: d.sojourn,
            attempted: d.report.issued,
            failed: d.failed,
        })
    }

    fn traced(&mut self, ctx: &Ctx) -> Result<Traced, String> {
        let mut out = Traced::default();

        // The workload's own drive: service against waiting, and what the
        // store did underneath.
        let d = open_drive(&self.profile, &self.schedule)?;
        out.attempted += d.report.issued;
        out.failed += d.failed;
        let mut service: Vec<u64> = d.stamps.iter().map(|s| s.end_ns - s.start_ns).collect();
        // Waiting = sojourn − service, op by op (stamps are in schedule order).
        let mut wait: Vec<u64> = d
            .stamps
            .iter()
            .zip(&self.schedule)
            .map(|(s, slot)| s.start_ns.saturating_sub((slot.at_ms * 1e6) as u64))
            .collect();
        service.sort_unstable();
        wait.sort_unstable();
        out.put_one(
            "exec.loadgen.service_p50_us",
            nearest_rank(&service, 0.5) as f64 / 1e3,
        );
        out.put_one(
            "exec.loadgen.service_p99_us",
            nearest_rank(&service, 0.99) as f64 / 1e3,
        );
        out.put_one(
            "exec.loadgen.wait_p50_us",
            nearest_rank(&wait, 0.5) as f64 / 1e3,
        );
        out.put_one(
            "exec.loadgen.queue_delay_mean_us",
            d.report.mean_queue_delay_ms * 1e3,
        );
        out.put_one("exec.loadgen.shed_ops", d.report.shed as f64);
        out.put_one(
            "exec.loadgen.kv_open.p99_us_at_15k",
            nearest_rank(&d.sojourn, 0.99) as f64 / 1e3,
        );
        let gets = d.stats.reads.max(1) as f64;
        out.put_one("kvstore.lsm.flushes", d.stats.flushes as f64);
        out.put_one("kvstore.lsm.compactions", d.stats.compactions as f64);
        out.put_one(
            "kvstore.lsm.run_probes_per_get",
            d.stats.run_probes as f64 / gets,
        );
        out.put_one(
            "kvstore.lsm.bloom_skip_share",
            d.stats.bloom_skips as f64 / (d.stats.bloom_skips + d.stats.run_probes).max(1) as f64,
        );
        out.put_one(
            "kvstore.lsm.memtable_hit_share",
            d.stats.memtable_hits as f64 / gets,
        );

        // The latency-vs-rate curve: latency rises before throughput stops.
        for (rate, metric) in [
            (5_000.0, "exec.loadgen.kv_open.p99_us_at_5k"),
            (30_000.0, "exec.loadgen.kv_open.p99_us_at_30k"),
        ] {
            let profile = open_profile(rate, ctx.sized(DURATION_MS / 2, 20));
            let schedule = build_schedule(&profile, ctx.seed).map_err(|e| e.to_string())?;
            let d = open_drive(&profile, &schedule)?;
            out.attempted += d.report.issued;
            out.failed += d.failed;
            out.put_one(metric, nearest_rank(&d.sojourn, 0.99) as f64 / 1e3);
        }

        // The same target the other way round: closed loop, 2 clients.
        let profile = LoadProfile {
            clients: THREADS,
            inflight: 8,
            arrival: LoadArrival::Closed,
            queue_capacity: None,
            ..open_profile(1.0, ctx.sized(3000, 8))
        };
        let schedule = build_schedule(&profile, ctx.seed).map_err(|e| e.to_string())?;
        let d = closed_drive(&KvLoadTarget::new(), &profile, &schedule)?;
        out.attempted += d.report.issued;
        out.failed += d.failed;
        out.put_one(
            "exec.loadgen.kv_closed.ops_per_s",
            d.report.completed as f64 / d.wall_s,
        );

        self.probe_store(&mut out)?;
        Ok(out)
    }
}

impl LoadKvOpen {
    /// The schedule's ops straight on `KvLoadTarget::store()`, same keys
    /// and lengths, one span per op; then the same without recording.
    fn probe_store(&self, out: &mut Traced) -> Result<(), String> {
        let mut replays = Replays::default();
        for _ in 0..3 {
            replays.round(|t, _| {
                let target = KvLoadTarget::new();
                let store = target.store();
                let t0 = Instant::now();
                for slot in &self.schedule {
                    match slot.op {
                        LoadOp::Get { key } => {
                            let k = key_of(key);
                            std::hint::black_box(
                                t.span("kvstore.lsm.get", |_| store.get(k.as_bytes())),
                            );
                        }
                        LoadOp::Put { key } => {
                            let (k, v) = (key_of(key).into_bytes(), value_of(key).into_bytes());
                            t.span("kvstore.lsm.put", |_| store.put(k, v));
                        }
                        LoadOp::Scan { start, len } => {
                            let k = key_of(start);
                            std::hint::black_box(
                                t.span("kvstore.lsm.scan", |_| {
                                    store.scan(k.as_bytes(), None, len as usize)
                                })
                                .len(),
                            );
                        }
                    }
                }
                Ok(t0.elapsed().as_secs_f64())
            })?;
        }
        out.put_one("benchmark.trace_overhead_ratio", replays.overhead_ratio());
        let ns = |name: &str| -> Vec<f64> {
            replays
                .spans()
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration_ns() as f64)
                .collect()
        };
        out.put("kvstore.lsm.get_ns", &ns("kvstore.lsm.get"));
        out.put("kvstore.lsm.put_ns", &ns("kvstore.lsm.put"));
        let scan_us: Vec<f64> = ns("kvstore.lsm.scan").iter().map(|v| v / 1e3).collect();
        out.put("kvstore.lsm.scan_us", &scan_us);
        out.spans = replays.spans().to_vec();
        Ok(())
    }
}
