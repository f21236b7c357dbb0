//! `load_sql_closed`: saturation throughput of the SQL point-select path.
//!
//! Closed loop, 2 clients × 8 in flight, 32 000 `SELECT v FROM load WHERE
//! k = N` on a fresh `SqlLoadTarget`, driven by the real
//! `loadgen::run_target` through a [`TimedTarget`]. Every op parses,
//! plans, runs the memo and scans 1024 rows; every session clones the
//! table.

use super::THREADS;
use crate::harness::{Ctx, Pass, Replays, Traced, Workload};
use crate::span::durations_us;
use crate::stats::{median, nearest_rank};
use crate::timed::{closed_drive, drive_failures, sojourn_ns, TimedTarget};
use bdbench::common::histogram::LogHistogram;
use bdbench::common::record::Table;
use bdbench::common::value::{DataType, Field, Schema, Value};
use bdbench::exec::loadgen::{
    build_schedule, run_target, value_of, LoadArrival, LoadOp, LoadProfile, LoadTarget,
    NativeLoadTarget, ScheduledOp, SqlLoadTarget, KEYSPACE,
};
use bdbench::exec::trace::RunTrace;
use bdbench::sql::{memo, parser, plan, Catalog, Executor};
use std::time::Instant;

/// 32 ops per scheduled millisecond: 1000 ms → 32 000 point selects.
const DURATION_MS: u64 = 1000;

/// The closed-loop SQL workload.
#[derive(Default)]
pub struct LoadSqlClosed {
    profile: LoadProfile,
    schedule: Vec<ScheduledOp>,
}

fn closed_profile(clients: usize, duration_ms: u64) -> LoadProfile {
    LoadProfile {
        clients,
        inflight: 8,
        duration_ms,
        arrival: LoadArrival::Closed,
        queue_capacity: None,
        sample_every: 16,
        engines: None,
    }
}

impl Workload for LoadSqlClosed {
    fn setup(&mut self, ctx: &Ctx) -> Result<(), String> {
        self.profile = closed_profile(THREADS, ctx.sized(DURATION_MS, 8));
        self.schedule = build_schedule(&self.profile, ctx.seed).map_err(|e| e.to_string())?;
        // Warm-up with full verification: every op's result against the
        // oracle, not the drive's 1-in-16 sample.
        let checked = LoadProfile {
            sample_every: 1,
            ..self.profile.clone()
        };
        let failed = closed_drive(&SqlLoadTarget::new(), &checked, &self.schedule)?.failed;
        if failed > 0 {
            return Err(format!(
                "warm-up drive: {failed} operations failed verification"
            ));
        }
        Ok(())
    }

    fn pass(&mut self, _ctx: &Ctx) -> Result<Pass, String> {
        let d = closed_drive(&SqlLoadTarget::new(), &self.profile, &self.schedule)?;
        Ok(Pass {
            wall_s: d.wall_s,
            work: d.report.completed,
            op_ns: d.service_ns,
            attempted: d.report.issued,
            failed: d.failed,
        })
    }

    fn traced(&mut self, ctx: &Ctx) -> Result<Traced, String> {
        let mut out = Traced::default();
        let statements: Vec<String> = self
            .schedule
            .iter()
            .take(ctx.sized(8_000, 200) as usize)
            .map(|s| match s.op {
                LoadOp::Get { key } | LoadOp::Put { key } => key,
                LoadOp::Scan { start, .. } => start,
            })
            .map(|key| format!("SELECT v FROM load WHERE k = {key}"))
            .collect();

        // The four steps `sql::Engine::sql` makes, in sequence, under spans
        // and then without.
        let catalog = load_catalog()?;
        let mut replays = Replays::default();
        let mut rows_scanned = 0u64;
        for half in statements.chunks(statements.len().div_ceil(2)) {
            replays.round(|t, _| {
                let t0 = Instant::now();
                for (i, sql) in half.iter().enumerate() {
                    rows_scanned += t
                        .span("sqlengine.statement", |t| -> bdbench::common::Result<u64> {
                            let stmt = t.span("sqlengine.parser.parse", |_| parser::parse(sql))?;
                            let logical = t.span("sqlengine.plan.build", |_| {
                                plan::build_logical_plan(stmt, &catalog)
                            })?;
                            let (best, _) = t.span("sqlengine.memo.optimize", |_| {
                                memo::optimize_with_cost(logical, &catalog)
                            });
                            t.span("sqlengine.exec.run", |_| {
                                let mut exec = Executor::new(&catalog);
                                let rows = exec.run(&best)?;
                                std::hint::black_box(rows.len());
                                Ok(exec.stats().rows_scanned)
                            })
                        })
                        .map_err(|e| format!("statement {i}: {e}"))?;
                }
                Ok(t0.elapsed().as_secs_f64())
            })?;
        }
        out.put_one("benchmark.trace_overhead_ratio", replays.overhead_ratio());
        out.put_one(
            "sqlengine.exec.rows_scanned_per_query",
            rows_scanned as f64 / (2 * statements.len()) as f64,
        );
        let spans = replays.spans();
        let mut steps_us = 0.0;
        for (span_name, metric) in [
            ("sqlengine.parser.parse", "sqlengine.parser.parse_us"),
            ("sqlengine.plan.build", "sqlengine.plan.build_us"),
            ("sqlengine.memo.optimize", "sqlengine.memo.optimize_us"),
            ("sqlengine.exec.run", "sqlengine.exec.run_us"),
        ] {
            let us = durations_us(spans, span_name);
            steps_us += median(&us);
            out.put(metric, &us);
        }

        // The same statements through one session, no driver.
        let target = SqlLoadTarget::new();
        let mut open_us = Vec::new();
        for _ in 0..50 {
            let t0 = Instant::now();
            let session = target.session();
            open_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            drop(session);
        }
        out.put("exec.loadgen.sql.session_open_us", &open_us);
        let mut session = target.session();
        let mut execute_us = Vec::with_capacity(statements.len());
        for slot in self.schedule.iter().take(statements.len()) {
            let t0 = Instant::now();
            let got = session.execute(&slot.op);
            execute_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            out.attempted += 1;
            if got != target.expected(&slot.op) {
                out.failed += 1;
            }
        }
        drop(session);
        let whole_us = median(&execute_us);
        out.put("exec.loadgen.sql.execute_us", &execute_us);
        ctx.report_within_15_percent(
            "parse+plan+memo+run medians against LoadSession::execute",
            steps_us,
            whole_us,
            "us",
        );

        self.probe_scaling(ctx, &mut out)?;
        probe_driver(ctx, &self.profile, &mut out)?;
        self.probe_open_loop(ctx, &mut out)?;
        out.spans = spans.to_vec();
        Ok(out)
    }
}

/// The table `SqlLoadTarget` serves, in a catalog of the benchmark's own.
fn load_catalog() -> Result<Catalog, String> {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Text),
    ]);
    let mut table = Table::new(schema);
    for i in 0..KEYSPACE {
        table.push_unchecked(vec![Value::Int(i as i64), Value::from(value_of(i))]);
    }
    let mut catalog = Catalog::new();
    catalog.register("load", table).map_err(|e| e.to_string())?;
    Ok(catalog)
}

impl LoadSqlClosed {
    /// Throughput with 2 clients over throughput with 1 (2.0 is perfect),
    /// and the service-time tail of the 2-client drive.
    fn probe_scaling(&self, ctx: &Ctx, out: &mut Traced) -> Result<(), String> {
        let mut ops_per_s = [0.0f64; 2];
        for (clients, slot) in [1usize, 2].into_iter().zip(&mut ops_per_s) {
            let profile = closed_profile(clients, ctx.sized(DURATION_MS / 2, 8));
            let schedule = build_schedule(&profile, ctx.seed).map_err(|e| e.to_string())?;
            let d = closed_drive(&SqlLoadTarget::new(), &profile, &schedule)?;
            out.attempted += d.report.issued;
            out.failed += d.failed;
            *slot = d.report.completed as f64 / d.wall_s;
            if clients == THREADS {
                out.put_one(
                    "exec.loadgen.sql_closed.p99_us",
                    nearest_rank(&d.service_ns, 0.99) as f64 / 1e3,
                );
            }
        }
        out.put_one("exec.loadgen.sql.scaling_2c", ops_per_s[1] / ops_per_s[0]);
        Ok(())
    }

    /// The open-loop recipe of `load_kv_open` on the SQL target at a rate
    /// well below saturation: shows waiting shrink when service time does.
    fn probe_open_loop(&self, ctx: &Ctx, out: &mut Traced) -> Result<(), String> {
        let profile = LoadProfile {
            clients: 1,
            inflight: 1,
            duration_ms: ctx.sized(1000, 50),
            arrival: LoadArrival::Poisson {
                rate_per_sec: 2500.0,
            },
            queue_capacity: Some(4096), // more than the 2500 ops scheduled
            sample_every: 16,
            engines: None,
        };
        let schedule = build_schedule(&profile, ctx.seed).map_err(|e| e.to_string())?;
        let target = SqlLoadTarget::new();
        let timed = TimedTarget::new(&target, schedule.len());
        let report =
            run_target(&timed, &profile, &schedule, &RunTrace::new()).map_err(|e| e.to_string())?;
        out.attempted += report.issued;
        out.failed += drive_failures(&report, schedule.len() as u64);
        let sojourn = sojourn_ns(&timed.into_sessions(), &schedule)?;
        out.put_one(
            "exec.loadgen.sql_open.sojourn_p50_us",
            nearest_rank(&sojourn, 0.5) as f64 / 1e3,
        );
        Ok(())
    }
}

/// What the harness itself costs per op, on the native target where the
/// op is nearly free: `run_target` (cursor, clock reads, `LogHistogram`,
/// `ShardedCounter`, oracle sampling) against a bare `execute` loop. Plus
/// its two ingredients that can be called alone.
fn probe_driver(ctx: &Ctx, workload_profile: &LoadProfile, out: &mut Traced) -> Result<(), String> {
    let mut build_ms = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let schedule = build_schedule(workload_profile, ctx.seed).map_err(|e| e.to_string())?;
        build_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(schedule.len());
    }
    out.put("exec.loadgen.build_schedule_ms", &build_ms);

    // 192 000 native ops: long enough that thread start-up is not the cost.
    let profile = closed_profile(1, ctx.sized(6_000, 8));
    let schedule = build_schedule(&profile, ctx.seed).map_err(|e| e.to_string())?;
    let target = NativeLoadTarget;
    let mut per_op = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let report = run_target(&target, &profile, &schedule, &RunTrace::new())
            .map_err(|e| e.to_string())?;
        let driven_ns = t0.elapsed().as_nanos() as f64;
        std::hint::black_box(report.completed);
        let mut session = target.session();
        let t0 = Instant::now();
        for slot in &schedule {
            std::hint::black_box(session.execute(&slot.op));
        }
        let bare_ns = t0.elapsed().as_nanos() as f64;
        per_op.push(((driven_ns - bare_ns) / schedule.len() as f64).max(0.0));
    }
    out.put("exec.loadgen.driver_ns_per_op", &per_op);

    const RECORDS: u64 = 1_000_000;
    let mut record_ns = Vec::new();
    for _ in 0..5 {
        let mut h = LogHistogram::new();
        let t0 = Instant::now();
        for i in 0..RECORDS {
            h.record(std::hint::black_box(100_000 + (i & 0xFFFF)));
        }
        record_ns.push(t0.elapsed().as_nanos() as f64 / RECORDS as f64);
        std::hint::black_box(h.count());
    }
    out.put("common.histogram.log_record_ns", &record_ns);
    Ok(())
}
