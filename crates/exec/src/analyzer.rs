//! Result analysis: crossovers and trace summaries.
//!
//! The benchmarking process's final step "analyse\[s\] and evaluate\[s\]" the
//! results. [`find_crossover`] locates the input size where the faster system
//! changes — the shape the EXPERIMENTS.md reproduction checks care about.
//! [`RecoverySummary`] condenses the recovery-path trace events of a
//! chaos run (injected faults, journal checkpoints, resumed cells) into
//! the dependability metrics the resilience reports print.

use crate::trace::TraceEvent;
use std::collections::{BTreeMap, BTreeSet};

/// Given a series of `(x, duration_a, duration_b)` points sorted by `x`,
/// find the first `x` interval where the faster system flips. Returns the
/// `x` of the first point after the flip, or `None` when one system wins
/// everywhere (ties break toward `a`).
pub fn find_crossover(series: &[(f64, f64, f64)]) -> Option<f64> {
    let mut prev: Option<bool> = None;
    for &(x, a, b) in series {
        let a_wins = a <= b;
        if let Some(p) = prev {
            if p != a_wins {
                return Some(x);
            }
        }
        prev = Some(a_wins);
    }
    None
}

/// Recovery metrics distilled from a run's trace: how much chaos the run
/// absorbed and what it cost.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecoverySummary {
    /// Injected faults by kind ("error", "latency", "panic", "crash").
    pub faults_by_kind: BTreeMap<String, u64>,
    /// Latency added by injected spikes, milliseconds.
    pub added_latency_ms: u64,
    /// Operation sites an injected fault hit.
    pub faulted_sites: BTreeSet<String>,
    /// Resilient operations the run executed (generated data sets plus
    /// engine dispatches) — the denominator for [`degraded_pct`](Self::degraded_pct).
    pub total_ops: u64,
    /// Run-journal checkpoints the run wrote (healthy bookkeeping, not
    /// recovery by itself).
    pub checkpoints_written: u64,
    /// Cells skipped on `--resume` because a prior (crashed) run already
    /// completed them.
    pub cells_resumed: u64,
}

impl RecoverySummary {
    /// Build the summary from a run's trace events.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut s = RecoverySummary::default();
        for e in events {
            match e {
                TraceEvent::DatasetGenerated { .. } | TraceEvent::EngineDispatched { .. } => {
                    s.total_ops += 1;
                }
                TraceEvent::FaultInjected { site, kind, latency_ms } => {
                    *s.faults_by_kind.entry(kind.clone()).or_insert(0) += 1;
                    s.added_latency_ms += latency_ms;
                    s.faulted_sites.insert(site.clone());
                }
                TraceEvent::CheckpointWritten { .. } => s.checkpoints_written += 1,
                TraceEvent::CellResumed { .. } => s.cells_resumed += 1,
                _ => {}
            }
        }
        s
    }

    /// Total injected faults across kinds.
    pub fn faults_injected(&self) -> u64 {
        self.faults_by_kind.values().sum()
    }

    /// True when the run saw no recovery activity at all. Checkpoint
    /// writes alone keep a run quiet (journaling is routine); resumed
    /// cells do not (the run recovered from a crash).
    pub fn is_quiet(&self) -> bool {
        self.faults_injected() == 0 && self.cells_resumed == 0
    }

    /// Fraction of resilient operations an injected fault hit, in
    /// `[0, 1]`.
    pub fn degraded_pct(&self) -> f64 {
        if self.total_ops == 0 {
            return 0.0;
        }
        (self.faulted_sites.len() as f64 / self.total_ops as f64).min(1.0)
    }
}

/// Conformance metrics distilled from a run's trace: how many results
/// were checked against the reference oracle / golden digests and which
/// diverged.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConformanceSummary {
    /// Checks performed, total.
    pub checks: u64,
    /// Checks that passed.
    pub passes: u64,
    /// Pass/fail counts per check kind ("oracle", "golden").
    pub by_check: BTreeMap<String, (u64, u64)>,
    /// Failed checks: `(prescription, engine, check kind, mismatch)`.
    pub failures: Vec<(String, String, String, String)>,
}

impl ConformanceSummary {
    /// Build the summary from a run's trace events.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut s = ConformanceSummary::default();
        for e in events {
            if let TraceEvent::ConformanceChecked {
                prescription,
                engine,
                check,
                passed,
                detail,
                ..
            } = e
            {
                s.checks += 1;
                let entry = s.by_check.entry(check.clone()).or_insert((0, 0));
                if *passed {
                    s.passes += 1;
                    entry.0 += 1;
                } else {
                    entry.1 += 1;
                    s.failures.push((
                        prescription.clone(),
                        engine.clone(),
                        check.clone(),
                        detail.clone(),
                    ));
                }
            }
        }
        s
    }

    /// True when no conformance checks ran.
    pub fn is_empty(&self) -> bool {
        self.checks == 0
    }

    /// True when every check passed (vacuously true with no checks).
    pub fn all_passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Load-driving metrics distilled from a run's
/// [`LoadReport`](crate::loadgen::LoadReport)s and trace: per-engine tail
/// latency and saturation throughput plus session and shedding
/// bookkeeping.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LoadSummary {
    /// Per-engine reports, in drive order.
    pub reports: Vec<crate::loadgen::LoadReport>,
    /// Client sessions that started.
    pub sessions_started: u64,
    /// Client sessions that quiesced.
    pub sessions_finished: u64,
    /// `LoadShed` events recorded (one per engine that shed).
    pub shed_events: u64,
}

impl LoadSummary {
    /// Build the summary from the drive's reports and trace events.
    pub fn new(reports: Vec<crate::loadgen::LoadReport>, events: &[TraceEvent]) -> Self {
        let mut s = LoadSummary { reports, ..LoadSummary::default() };
        for e in events {
            match e {
                TraceEvent::LoadSessionStarted { .. } => s.sessions_started += 1,
                TraceEvent::LoadSessionFinished { .. } => s.sessions_finished += 1,
                TraceEvent::LoadShed { .. } => s.shed_events += 1,
                _ => {}
            }
        }
        s
    }

    /// True when nothing was driven.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Ops completed across all engines.
    pub fn total_completed(&self) -> u64 {
        self.reports.iter().map(|r| r.completed).sum()
    }

    /// Ops shed across all engines.
    pub fn total_shed(&self) -> u64 {
        self.reports.iter().map(|r| r.shed).sum()
    }

    /// Ops that exhausted recovery and failed, across all engines.
    pub fn total_failed(&self) -> u64 {
        self.reports.iter().map(|r| r.failed).sum()
    }

    /// Faults injected across all engines' lanes.
    pub fn total_faults(&self) -> u64 {
        self.reports.iter().map(|r| r.faults).sum()
    }

    /// True when every engine's sampled results matched the oracle.
    pub fn all_conformant(&self) -> bool {
        self.reports.iter().all(|r| r.conformance_passed)
    }

    /// Engines whose drive sampled no result, so checked nothing.
    pub fn unchecked(&self) -> Vec<&str> {
        self.reports.iter().filter(|r| r.sampled == 0).map(|r| r.engine.as_str()).collect()
    }

    /// The drive's verdict: `DIVERGED` when a sampled result mismatched,
    /// else `UNCHECKED` when an engine sampled nothing, else `CONFORMANT`.
    pub fn verdict(&self) -> &'static str {
        if self.reports.iter().any(|r| r.sampled > 0 && !r.conformance_passed) {
            "DIVERGED"
        } else if self.reports.iter().any(|r| r.sampled == 0) {
            "UNCHECKED"
        } else {
            "CONFORMANT"
        }
    }
}

/// What is left of the health report now that a request runs on the one
/// engine it was routed to, with no breakers: nothing. `benchmark/API.md`
/// pins `from_events`, so the name survives until a `[benchmark]` change
/// deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthSummary;

impl HealthSummary {
    /// The empty summary, whatever the events.
    pub fn from_events(_events: &[TraceEvent]) -> Self {
        HealthSummary
    }
}

/// What is left of the routing report now that the registry has one
/// fixed order: nothing. `benchmark/API.md` pins `from_events`, so the
/// name survives until a `[benchmark]` change deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoutingSummary;

impl RoutingSummary {
    /// The empty summary, whatever the events.
    pub fn from_events(_events: &[TraceEvent]) -> Self {
        RoutingSummary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_found_at_flip() {
        let series = vec![
            (100.0, 1.0, 2.0), // a wins
            (1000.0, 2.0, 2.1),
            (10000.0, 5.0, 3.0), // b wins
        ];
        assert_eq!(find_crossover(&series), Some(10000.0));
    }

    #[test]
    fn no_crossover_when_one_system_dominates() {
        let series = vec![(1.0, 1.0, 2.0), (2.0, 2.0, 3.0)];
        assert_eq!(find_crossover(&series), None);
        assert_eq!(find_crossover(&[]), None);
    }

    #[test]
    fn recovery_summary_condenses_trace() {
        let events = vec![
            TraceEvent::DatasetGenerated {
                name: "events".into(),
                kind: "stream".into(),
                items: 10,
                bytes: 100,
                workers: 2,
                micros: 5,
            },
            TraceEvent::EngineDispatched {
                prescription: "micro/sort".into(),
                engine: "sql".into(),
                requested_system: "sql".into(),
                explicit: true,
                candidates: vec!["sql".into()],
            },
            TraceEvent::FaultInjected {
                site: "exec/sql:micro/sort".into(),
                kind: "error".into(),
                latency_ms: 0,
            },
            TraceEvent::FaultInjected {
                site: "exec/sql:micro/sort".into(),
                kind: "latency".into(),
                latency_ms: 25,
            },
            TraceEvent::FaultInjected {
                site: "datagen/events".into(),
                kind: "latency".into(),
                latency_ms: 10,
            },
        ];
        let s = RecoverySummary::from_events(&events);
        assert_eq!(s.faults_injected(), 3);
        assert_eq!(s.faults_by_kind.get("error"), Some(&1));
        assert_eq!(s.faults_by_kind.get("latency"), Some(&2));
        assert_eq!(s.added_latency_ms, 25 + 10);
        assert_eq!(s.total_ops, 2);
        let sites: Vec<&str> = s.faulted_sites.iter().map(String::as_str).collect();
        assert_eq!(sites, vec!["datagen/events", "exec/sql:micro/sort"]);
        assert!((s.degraded_pct() - 1.0).abs() < 1e-9);
        assert!(!s.is_quiet());
    }

    #[test]
    fn recovery_summary_counts_checkpoints_and_resumes() {
        let checkpointed = RecoverySummary::from_events(&[
            TraceEvent::CheckpointWritten { key: "a__e__s1__n1".into(), digest: "0x1".into() },
            TraceEvent::CheckpointWritten { key: "b__e__s1__n1".into(), digest: "0x2".into() },
        ]);
        assert_eq!(checkpointed.checkpoints_written, 2);
        assert_eq!(checkpointed.cells_resumed, 0);
        assert!(checkpointed.is_quiet(), "journaling alone is not recovery");

        let resumed = RecoverySummary::from_events(&[
            TraceEvent::RunResumed { journal: "/tmp/run".into(), completed: 1 },
            TraceEvent::CellResumed {
                key: "a__e__s1__n1".into(),
                digest: "0x1".into(),
                reverified: true,
            },
        ]);
        assert_eq!(resumed.cells_resumed, 1);
        assert!(!resumed.is_quiet(), "a resumed run recovered from a crash");
    }

    #[test]
    fn recovery_summary_quiet_on_clean_trace() {
        let s = RecoverySummary::from_events(&[TraceEvent::PhaseStarted { phase: "planning".into() }]);
        assert!(s.is_quiet());
        assert_eq!(s.degraded_pct(), 0.0);
        assert_eq!(s.faults_injected(), 0);
    }

    #[test]
    fn conformance_summary_condenses_trace() {
        let check = |engine: &str, check: &str, passed: bool, detail: &str| {
            TraceEvent::ConformanceChecked {
                prescription: "micro/sort".into(),
                engine: engine.into(),
                check: check.into(),
                payload: "rowset".into(),
                passed,
                detail: detail.into(),
            }
        };
        let s = ConformanceSummary::from_events(&[
            TraceEvent::PhaseStarted { phase: "execution".into() },
            check("sql", "oracle", true, "digest 0x1"),
            check("sql", "golden", true, "digest 0x1"),
            check("mapreduce", "oracle", false, "rowset entry 3 differs"),
        ]);
        assert_eq!(s.checks, 3);
        assert_eq!(s.passes, 2);
        assert!(!s.all_passed());
        assert!(!s.is_empty());
        assert_eq!(s.by_check.get("oracle"), Some(&(1, 1)));
        assert_eq!(s.by_check.get("golden"), Some(&(1, 0)));
        assert_eq!(s.failures.len(), 1);
        assert_eq!(s.failures[0].1, "mapreduce");

        let quiet = ConformanceSummary::from_events(&[]);
        assert!(quiet.is_empty());
        assert!(quiet.all_passed());
    }

    #[test]
    fn load_summary_condenses_reports_and_events() {
        let report = crate::loadgen::LoadReport {
            engine: "kv".into(),
            clients: 2,
            inflight: 4,
            arrival: crate::loadgen::LoadArrival::Poisson { rate_per_sec: 100.0 },
            issued: 100,
            completed: 90,
            shed: 10,
            failed: 0,
            faults: 0,
            duration_secs: 1.0,
            throughput_ops_per_sec: 90.0,
            p50_us: 10.0,
            p99_us: 50.0,
            p999_us: 80.0,
            mean_queue_delay_ms: 0.5,
            sampled: 7,
            conformance_passed: true,
            digest: "0x1".into(),
        };
        let events = vec![
            TraceEvent::LoadSessionStarted { engine: "kv".into(), session: 0, lanes: 4 },
            TraceEvent::LoadSessionStarted { engine: "kv".into(), session: 1, lanes: 4 },
            TraceEvent::LoadSessionFinished {
                engine: "kv".into(),
                session: 0,
                completed: 45,
                micros: 10,
            },
            TraceEvent::LoadShed { engine: "kv".into(), count: 10 },
        ];
        let s = LoadSummary::new(vec![report], &events);
        assert!(!s.is_empty());
        assert_eq!(s.sessions_started, 2);
        assert_eq!(s.sessions_finished, 1);
        assert_eq!(s.shed_events, 1);
        assert_eq!(s.total_completed(), 90);
        assert_eq!(s.total_shed(), 10);
        assert!(s.all_conformant());

        let quiet = LoadSummary::new(Vec::new(), &[]);
        assert!(quiet.is_empty());
        assert!(quiet.all_conformant());
        assert_eq!(quiet.total_completed(), 0);
    }
}
