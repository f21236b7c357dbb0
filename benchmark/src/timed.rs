//! Exact per-operation timestamps around a load target.
//!
//! `LoadReport.p50_us/p99_us` come out of power-of-two histogram buckets
//! (98.304, 196.608, 393.216 µs, …), so a 30 % latency change can be
//! invisible and a 1 % one can read as 2×. [`TimedTarget`] wraps a real
//! target, delegates everything, and stamps `(start, end, op)` around
//! each `execute` — two clock reads per operation — so the benchmark
//! computes percentiles from the exact values while the real
//! `loadgen::run_target` still does the driving.

use bdbench::exec::loadgen::{
    run_target, LoadOp, LoadProfile, LoadReport, LoadSession, LoadTarget, ScheduledOp,
};
use bdbench::exec::trace::RunTrace;
use std::sync::Mutex;
use std::time::Instant;

/// One executed operation, in nanoseconds since the target was wrapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// Just before `execute`.
    pub start_ns: u64,
    /// Just after `execute` returned.
    pub end_ns: u64,
    /// The operation that ran.
    pub op: LoadOp,
}

/// A [`LoadTarget`] that behaves exactly like `inner` and remembers when
/// every operation ran.
pub struct TimedTarget<'a> {
    inner: &'a dyn LoadTarget,
    epoch: Instant,
    /// One entry per closed session, in the order sessions ended.
    sessions: Mutex<Vec<Vec<Stamp>>>,
    reserve: usize,
}

impl<'a> TimedTarget<'a> {
    /// Wrap `inner`; the clock starts now, so wrap immediately before
    /// the drive. `reserve` pre-sizes each session's stamp buffer so the
    /// drive does not pay for its growth.
    pub fn new(inner: &'a dyn LoadTarget, reserve: usize) -> Self {
        Self {
            inner,
            epoch: Instant::now(),
            sessions: Mutex::new(Vec::new()),
            reserve,
        }
    }

    /// The stamps of every session that ran, one `Vec` per session, each
    /// in execution order. Call after the drive has returned.
    pub fn into_sessions(self) -> Vec<Vec<Stamp>> {
        self.sessions
            .into_inner()
            .unwrap_or_else(|p| p.into_inner())
    }
}

struct TimedSession<'t> {
    inner: Box<dyn LoadSession + 't>,
    epoch: Instant,
    stamps: Vec<Stamp>,
    sink: &'t Mutex<Vec<Vec<Stamp>>>,
}

impl LoadSession for TimedSession<'_> {
    fn execute(&mut self, op: &LoadOp) -> String {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = self.inner.execute(op);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.stamps.push(Stamp {
            start_ns,
            end_ns,
            op: *op,
        });
        out
    }
}

impl Drop for TimedSession<'_> {
    fn drop(&mut self) {
        // A poisoned sink means another session panicked; the drive is
        // already failing, so losing these stamps changes nothing.
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(std::mem::take(&mut self.stamps));
        }
    }
}

impl LoadTarget for TimedTarget<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn session(&self) -> Box<dyn LoadSession + '_> {
        Box::new(TimedSession {
            inner: self.inner.session(),
            epoch: self.epoch,
            stamps: Vec::with_capacity(self.reserve),
            sink: &self.sessions,
        })
    }

    fn expected(&self, op: &LoadOp) -> String {
        self.inner.expected(op)
    }
}

/// `shed + failed` of a drive, or every issued op when its sampled
/// results missed the oracle or conservation (`issued == completed + shed
/// + failed`) broke.
pub fn drive_failures(report: &LoadReport, issued: u64) -> u64 {
    let conserved =
        report.issued == issued && report.issued == report.completed + report.shed + report.failed;
    if !report.conformance_passed || !conserved {
        issued
    } else {
        report.shed + report.failed
    }
}

/// One closed-loop drive through a [`TimedTarget`], with its checks.
pub struct ClosedDrive {
    /// What `run_target` reported.
    pub report: LoadReport,
    /// Seconds `run_target` took.
    pub wall_s: f64,
    /// Exact service time of every op, ascending.
    pub service_ns: Vec<u64>,
    /// [`drive_failures`], plus one when the executed ops were not the
    /// scheduled ones.
    pub failed: u64,
}

/// Drive `target` closed-loop with the real `run_target`, timing every op.
///
/// # Errors
/// Fails when `run_target` does (invalid profile, worker panic).
pub fn closed_drive(
    target: &dyn LoadTarget,
    profile: &LoadProfile,
    schedule: &[ScheduledOp],
) -> Result<ClosedDrive, String> {
    let timed = TimedTarget::new(target, schedule.len());
    let t0 = Instant::now();
    let report =
        run_target(&timed, profile, schedule, &RunTrace::new()).map_err(|e| e.to_string())?;
    let wall_s = t0.elapsed().as_secs_f64();
    let sessions = timed.into_sessions();
    let failed = drive_failures(&report, schedule.len() as u64)
        + u64::from(check_same_ops(&sessions, schedule).is_err());
    Ok(ClosedDrive {
        report,
        wall_s,
        service_ns: service_ns(&sessions),
        failed,
    })
}

/// Closed-loop service times, ascending: `end − start` of every stamp.
pub fn service_ns(sessions: &[Vec<Stamp>]) -> Vec<u64> {
    let mut v: Vec<u64> = sessions
        .iter()
        .flatten()
        .map(|s| s.end_ns - s.start_ns)
        .collect();
    v.sort_unstable();
    v
}

/// Open-loop sojourn times, ascending: `end_k − (t0 + schedule[k].at_ms)`
/// for a drive with one client session and a FIFO queue, where the k-th
/// executed operation is `schedule[k]`.
///
/// # Errors
/// Fails loudly when that premise does not hold: more than one session,
/// an operation count that differs from the schedule (something was
/// shed), or an operation out of schedule order.
pub fn sojourn_ns(sessions: &[Vec<Stamp>], schedule: &[ScheduledOp]) -> Result<Vec<u64>, String> {
    let [stamps] = sessions else {
        return Err(format!(
            "open-loop timing needs exactly 1 session, saw {}",
            sessions.len()
        ));
    };
    if stamps.len() != schedule.len() {
        return Err(format!(
            "{} operations executed of {} scheduled",
            stamps.len(),
            schedule.len()
        ));
    }
    let mut v = Vec::with_capacity(stamps.len());
    for (k, (stamp, slot)) in stamps.iter().zip(schedule).enumerate() {
        if stamp.op != slot.op {
            return Err(format!(
                "operation {k} ran {:?}, schedule says {:?}",
                stamp.op, slot.op
            ));
        }
        let due_ns = (slot.at_ms * 1e6) as u64;
        v.push(stamp.end_ns.saturating_sub(due_ns));
    }
    v.sort_unstable();
    Ok(v)
}

/// Check that a closed-loop drive executed exactly the scheduled
/// operations (as a multiset: sessions interleave, batches do not).
///
/// # Errors
/// Names the first difference.
pub fn check_same_ops(sessions: &[Vec<Stamp>], schedule: &[ScheduledOp]) -> Result<(), String> {
    fn key(op: &LoadOp) -> (u8, u64, u64) {
        match *op {
            LoadOp::Get { key } => (0, key, 0),
            LoadOp::Put { key } => (1, key, 0),
            LoadOp::Scan { start, len } => (2, start, len),
        }
    }
    let mut ran: Vec<_> = sessions.iter().flatten().map(|s| key(&s.op)).collect();
    let mut want: Vec<_> = schedule.iter().map(|s| key(&s.op)).collect();
    if ran.len() != want.len() {
        return Err(format!(
            "{} operations executed of {} scheduled",
            ran.len(),
            want.len()
        ));
    }
    ran.sort_unstable();
    want.sort_unstable();
    match ran.iter().zip(&want).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!(
            "executed operations differ from the schedule at sorted index {i}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdbench::exec::loadgen::{build_schedule, LoadArrival, NativeLoadTarget, SqlLoadTarget};

    #[test]
    fn wrapper_returns_the_inner_outcomes_and_oracle_unchanged() {
        let inner = SqlLoadTarget::new();
        let timed = TimedTarget::new(&inner, 8);
        assert_eq!(timed.name(), inner.name());
        let ops = [
            LoadOp::Get { key: 3 },
            LoadOp::Put { key: 900 },
            LoadOp::Scan { start: 17, len: 9 },
        ];
        {
            let mut a = timed.session();
            let mut b = inner.session();
            for op in &ops {
                assert_eq!(a.execute(op), b.execute(op));
                assert_eq!(timed.expected(op), inner.expected(op));
            }
        }
        let sessions = timed.into_sessions();
        assert_eq!(sessions.len(), 1);
        let stamps = &sessions[0];
        assert_eq!(stamps.iter().map(|s| s.op).collect::<Vec<_>>(), ops);
        assert!(stamps.iter().all(|s| s.start_ns <= s.end_ns));
        assert!(stamps.windows(2).all(|w| w[0].end_ns <= w[1].start_ns));
    }

    #[test]
    fn driven_through_run_target_the_report_matches_an_unwrapped_drive() {
        let profile = LoadProfile {
            clients: 2,
            inflight: 4,
            duration_ms: 10,
            ..LoadProfile::default()
        };
        let schedule = build_schedule(&profile, 5).unwrap();
        let inner = NativeLoadTarget;
        let plain = run_target(&inner, &profile, &schedule, &RunTrace::new()).unwrap();
        let timed = TimedTarget::new(&inner, schedule.len());
        let wrapped = run_target(&timed, &profile, &schedule, &RunTrace::new()).unwrap();
        assert_eq!(
            (wrapped.issued, wrapped.completed, wrapped.shed),
            (plain.issued, plain.completed, 0)
        );
        assert_eq!(wrapped.digest, plain.digest);
        assert!(wrapped.conformance_passed);
        let sessions = timed.into_sessions();
        assert_eq!(sessions.len(), 2);
        check_same_ops(&sessions, &schedule).unwrap();
        assert_eq!(service_ns(&sessions).len(), schedule.len());
    }

    #[test]
    fn open_loop_sojourn_follows_schedule_order_and_rejects_anything_else() {
        let profile = LoadProfile {
            clients: 1,
            inflight: 1,
            duration_ms: 20,
            arrival: LoadArrival::Uniform {
                rate_per_sec: 2000.0,
            },
            queue_capacity: Some(4096),
            ..LoadProfile::default()
        };
        let schedule = build_schedule(&profile, 9).unwrap();
        let inner = NativeLoadTarget;
        let timed = TimedTarget::new(&inner, schedule.len());
        let report = run_target(&timed, &profile, &schedule, &RunTrace::new()).unwrap();
        assert_eq!(report.shed, 0);
        let sessions = timed.into_sessions();
        let sojourn = sojourn_ns(&sessions, &schedule).unwrap();
        assert_eq!(sojourn.len(), schedule.len());

        // A dropped operation, a reordered one and a second session all fail.
        let mut short = sessions.clone();
        short[0].pop();
        assert!(sojourn_ns(&short, &schedule)
            .unwrap_err()
            .contains("executed of"));
        let mut swapped = sessions.clone();
        let other = swapped[0]
            .iter()
            .position(|s| s.op != swapped[0][0].op)
            .unwrap();
        swapped[0].swap(0, other);
        assert!(sojourn_ns(&swapped, &schedule)
            .unwrap_err()
            .contains("schedule says"));
        assert!(check_same_ops(&swapped, &schedule).is_ok());
        let two = vec![sessions[0].clone(), Vec::new()];
        assert!(sojourn_ns(&two, &schedule)
            .unwrap_err()
            .contains("exactly 1 session"));
    }
}
