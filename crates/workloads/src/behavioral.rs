//! Behavioral analytics workloads: sessionize / retention / funnel /
//! sequence-match, bound to both capable engines.
//!
//! The streaming binding feeds events straight through the bounded-state
//! aggregates in [`bdb_stream::behavioral`]. The MapReduce binding lowers
//! the same operations onto the map → shuffle → reduce pipeline: map
//! emits `(user, (ts, action))`, each reducer group builds the *same*
//! per-user aggregate, and (for retention) the driver folds the per-user
//! cohort masks into the period table. Because every aggregate is
//! arrival-order-insensitive, both bindings produce identical rows for
//! any task count or shuffle interleaving.

use crate::{OutputPayload, WorkloadCategory, WorkloadResult};
use bdb_common::event::Event;
use bdb_common::record::row_lines;
use bdb_mapreduce::{run_job, JobConfig};
use bdb_metrics::{MetricsCollector, OpCounts};

pub use bdb_stream::behavioral::{
    run_behavioral, BehavioralOutcome, BehavioralSpec, FunnelAgg, RetentionAgg, SequenceAgg,
    SessionizeAgg, RETENTION_MAX_PERIODS,
};

/// Assemble the standard result for one behavioral run on `system`.
fn assemble(outcome: &BehavioralOutcome, spec: &BehavioralSpec, system: &str) -> WorkloadResult {
    let mut collector = MetricsCollector::new();
    collector.record_operations(outcome.events);
    let user = collector.finish();
    let ops = OpCounts {
        record_ops: outcome.events + outcome.rows.len() as u64,
        // One float→action decode per event.
        float_ops: outcome.events,
    };
    WorkloadResult::assemble(
        &format!("behavioral/{}", spec.name()),
        system,
        WorkloadCategory::RealTimeAnalytics,
        user,
        ops,
        outcome.events,
    )
    .with_detail("users", outcome.users as f64)
    .with_detail("peak_state_bytes", outcome.peak_state_bytes as f64)
    .with_output(OutputPayload::RowSet(outcome.rows.clone()))
}

/// Run one behavioral operation on the streaming engine.
pub fn behavioral_streaming(
    events: &[Event],
    spec: &BehavioralSpec,
) -> (BehavioralOutcome, WorkloadResult) {
    let outcome = run_behavioral(events, spec);
    let result = assemble(&outcome, spec, "streaming");
    (outcome, result)
}

/// Run one behavioral operation as a MapReduce job.
pub fn behavioral_mapreduce(
    events: &[Event],
    spec: &BehavioralSpec,
    config: &JobConfig,
) -> (BehavioralOutcome, WorkloadResult) {
    let total = events.len() as u64;
    let map = |e: &Event, emit: &mut dyn FnMut(u64, (u64, u64))| {
        emit(e.key, (e.ts_ms, e.value as u64));
    };
    let outcome = match spec {
        BehavioralSpec::Sessionize { gap_ms } => {
            let gap_ms = *gap_ms;
            let job = run_job(config, events, map, |user: &u64, hits, out| {
                let mut agg = SessionizeAgg::default();
                for (ts, _) in hits {
                    agg.observe(ts);
                }
                let bytes = agg.state_bytes();
                let (sessions, count) = agg.finalize(gap_ms);
                out(([*user, sessions, count], bytes));
            });
            per_user_outcome(job.outputs, total)
        }
        BehavioralSpec::Retention { period_ms, periods } => {
            let period_ms = *period_ms;
            let job = run_job(config, events, map, |_user: &u64, hits, out| {
                let mut agg = RetentionAgg::default();
                for (ts, _) in hits {
                    agg.observe(ts, period_ms);
                }
                out((agg, agg.state_bytes()));
            });
            let users = job.outputs.len() as u64;
            let peak = job.outputs.iter().map(|(_, b)| *b).sum();
            let periods = (*periods).min(RETENTION_MAX_PERIODS);
            let rows = row_lines((0..periods).map(|d| {
                let returned = job.outputs.iter().filter(|(a, _)| a.returned(d)).count() as u64;
                [u64::from(d), returned, users]
            }));
            BehavioralOutcome { rows, users, events: total, peak_state_bytes: peak }
        }
        BehavioralSpec::WindowFunnel { window_ms, steps } => {
            let (window_ms, steps) = (*window_ms, steps.clone());
            let job = run_job(config, events, map, |user: &u64, hits, out| {
                let mut agg = FunnelAgg::default();
                for (ts, action) in hits {
                    agg.observe(ts, action, &steps);
                }
                let bytes = agg.state_bytes();
                let depth = agg.finalize(window_ms, &steps);
                out(([*user, depth], bytes));
            });
            per_user_outcome(job.outputs, total)
        }
        BehavioralSpec::SequenceMatch { steps } => {
            let steps = steps.clone();
            let job = run_job(config, events, map, |user: &u64, hits, out| {
                let mut agg = SequenceAgg::default();
                for (ts, action) in hits {
                    agg.observe(ts, action, &steps);
                }
                let bytes = agg.state_bytes();
                let (matched, hit) = agg.finalize(&steps);
                out(([*user, matched, u64::from(hit)], bytes));
            });
            per_user_outcome(job.outputs, total)
        }
    };
    let result = assemble(&outcome, spec, "mapreduce");
    (outcome, result)
}

/// Fold per-user reducer outputs (cells led by the user id, state bytes)
/// into an outcome with rows in user order — the same order the streaming
/// binding emits.
fn per_user_outcome<const N: usize>(
    outputs: Vec<([u64; N], usize)>,
    total: u64,
) -> BehavioralOutcome {
    let users = outputs.len() as u64;
    let peak = outputs.iter().map(|(_, b)| *b).sum();
    let mut rows: Vec<[u64; N]> = outputs.into_iter().map(|(row, _)| row).collect();
    rows.sort_unstable_by_key(|row| row[0]);
    BehavioralOutcome { rows: row_lines(rows), users, events: total, peak_state_bytes: peak }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_datagen::behavioral::BehavioralEvents;

    fn events(seed: u64, n: u64) -> Vec<Event> {
        BehavioralEvents::new(16, 4, 500, 2_000)
            .unwrap()
            .generate_events(seed, n)
    }

    fn specs() -> Vec<BehavioralSpec> {
        vec![
            BehavioralSpec::Sessionize { gap_ms: 10_000 },
            BehavioralSpec::Retention { period_ms: 5_000, periods: 8 },
            BehavioralSpec::WindowFunnel { window_ms: 30_000, steps: vec![0, 1, 2] },
            BehavioralSpec::SequenceMatch { steps: vec![1, 2, 0] },
        ]
    }

    #[test]
    fn mapreduce_binding_matches_streaming_binding() {
        let evts = events(42, 3_000);
        for spec in specs() {
            let (stream_out, stream_res) = behavioral_streaming(&evts, &spec);
            let (mr_out, mr_res) = behavioral_mapreduce(&evts, &spec, &JobConfig::default());
            assert_eq!(stream_out, mr_out, "{}", spec.name());
            assert_eq!(stream_res.output, mr_res.output, "{}", spec.name());
        }
    }

    #[test]
    fn mapreduce_result_is_independent_of_task_counts() {
        let evts = events(7, 1_000);
        for spec in specs() {
            let base = behavioral_mapreduce(&evts, &spec, &JobConfig::default()).0;
            for (m, r, w) in [(1, 1, 1), (4, 2, 3), (7, 9, 2)] {
                let cfg = JobConfig { map_tasks: m, reduce_tasks: r, workers: w };
                let got = behavioral_mapreduce(&evts, &spec, &cfg).0;
                assert_eq!(got, base, "{} cfg {m}/{r}/{w}", spec.name());
            }
        }
    }

    #[test]
    fn results_carry_state_and_user_details() {
        let evts = events(1, 2_000);
        let (outcome, result) =
            behavioral_streaming(&evts, &BehavioralSpec::Sessionize { gap_ms: 10_000 });
        assert_eq!(result.detail("users"), Some(outcome.users as f64));
        assert_eq!(
            result.detail("peak_state_bytes"),
            Some(outcome.peak_state_bytes as f64)
        );
        assert!(matches!(result.output, Some(OutputPayload::RowSet(_))));
        assert_eq!(result.report.workload, "behavioral/sessionize");
    }
}
