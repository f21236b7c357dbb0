//! Result analysis: speedups, winners, crossovers, recovery metrics.
//!
//! The benchmarking process's final step "analyse\[s\] and evaluate\[s\]" the
//! results. [`compare`] ranks two runs of the same workload;
//! [`find_crossover`] locates the input size where the faster system
//! changes — the shape the EXPERIMENTS.md reproduction checks care about.
//! [`RecoverySummary`] condenses the recovery-path trace events of a
//! chaos run (injected faults, retries, failovers, deadline hits) into
//! the dependability metrics the resilience reports print.

use crate::trace::TraceEvent;
use bdb_metrics::MetricReport;
use std::collections::BTreeMap;

/// The outcome of comparing two runs of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Name of the faster system.
    pub winner: String,
    /// Name of the slower system.
    pub loser: String,
    /// How many times faster the winner was (>= 1).
    pub speedup: f64,
    /// Winner's advantage in ops/joule (>= 0; 0 when not computable).
    pub energy_ratio: f64,
}

/// Compare two metric reports of the same workload by duration.
pub fn compare(a: &MetricReport, b: &MetricReport) -> Comparison {
    let (w, l) = if a.user.duration_secs <= b.user.duration_secs {
        (a, b)
    } else {
        (b, a)
    };
    let speedup = l.user.duration_secs / w.user.duration_secs.max(1e-12);
    let energy_ratio = {
        let (we, le) = (w.ops_per_joule(), l.ops_per_joule());
        if le > 0.0 {
            we / le
        } else {
            0.0
        }
    };
    Comparison {
        winner: w.system.clone(),
        loser: l.system.clone(),
        speedup,
        energy_ratio,
    }
}

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

/// Geometric-mean speedup across many paired runs — the standard way to
/// summarise multi-workload suites.
pub fn geomean_speedup(pairs: &[(f64, f64)]) -> f64 {
    if pairs.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = pairs
        .iter()
        .map(|&(a, b)| (b.max(1e-12) / a.max(1e-12)).ln())
        .sum();
    (log_sum / pairs.len() as f64).exp()
}

/// Recovery metrics distilled from a run's trace: how much chaos the run
/// absorbed and what it cost.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecoverySummary {
    /// Injected faults by kind ("error", "latency", "panic", "crash").
    pub faults_by_kind: BTreeMap<String, u64>,
    /// Retries performed.
    pub retries: u64,
    /// Engine failovers performed.
    pub failovers: u64,
    /// Operations that ran out of their deadline.
    pub deadline_hits: u64,
    /// Latency added by injected spikes and retry backoffs, milliseconds.
    pub added_latency_ms: u64,
    /// Attempts per operation site (first attempt included), for every
    /// site that needed recovery.
    pub attempts_per_site: BTreeMap<String, u64>,
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
                    s.attempts_per_site.entry(site.clone()).or_insert(1);
                }
                TraceEvent::OperationRetried { site, delay_ms, .. } => {
                    s.retries += 1;
                    s.added_latency_ms += delay_ms;
                    // attempt n failed, so the site is at attempt n + 1.
                    let entry = s.attempts_per_site.entry(site.clone()).or_insert(1);
                    *entry += 1;
                }
                TraceEvent::EngineFailedOver { .. } => s.failovers += 1,
                TraceEvent::DeadlineExceeded { site, .. } => {
                    s.deadline_hits += 1;
                    s.attempts_per_site.entry(site.clone()).or_insert(1);
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
        self.faults_injected() == 0
            && self.retries == 0
            && self.failovers == 0
            && self.deadline_hits == 0
            && self.cells_resumed == 0
    }

    /// Fraction of resilient operations that were degraded (needed a
    /// fault recovery, a retry, or hit a deadline), in `[0, 1]`.
    pub fn degraded_pct(&self) -> f64 {
        if self.total_ops == 0 {
            return 0.0;
        }
        (self.attempts_per_site.len() as f64 / self.total_ops as f64).min(1.0)
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

/// Load-driving metrics distilled from a run's [`LoadReport`]s and trace:
/// per-engine tail latency and saturation throughput plus session and
/// shedding bookkeeping.
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

    /// Breaker trips across all engines during the drive.
    pub fn total_breaker_trips(&self) -> u64 {
        self.reports.iter().map(|r| r.breaker_trips).sum()
    }

    /// True when every engine's sampled results matched the oracle.
    pub fn all_conformant(&self) -> bool {
        self.reports.iter().all(|r| r.conformance_passed)
    }
}

/// One engine's breaker history within a [`HealthSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct HealthEngineRow {
    /// Engine name.
    pub engine: String,
    /// Times the breaker tripped open.
    pub trips: u64,
    /// Times the breaker closed again after probing.
    pub recoveries: u64,
    /// Half-open probes admitted.
    pub probes: u64,
    /// Probes that failed (each re-opens the breaker).
    pub probe_failures: u64,
    /// The state the breaker quiesced in ("closed", "open", "half-open").
    pub final_state: String,
}

/// Health metrics distilled from a run's trace: per-engine circuit
/// breaker trips, probe outcomes, and recoveries, replayed from the
/// `breaker_*`/`probe_result` events resilient dispatch and the load
/// driver record.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HealthSummary {
    /// One row per engine whose breaker left the closed state, in
    /// first-trip order.
    pub engines: Vec<HealthEngineRow>,
}

impl HealthSummary {
    /// Build the summary from a run's trace events.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut s = HealthSummary::default();
        for e in events {
            match e {
                TraceEvent::BreakerOpened { engine, .. } => {
                    let row = s.row(engine);
                    row.trips += 1;
                    row.final_state = "open".into();
                }
                TraceEvent::BreakerHalfOpen { engine } => {
                    s.row(engine).final_state = "half-open".into();
                }
                TraceEvent::BreakerClosed { engine } => {
                    let row = s.row(engine);
                    row.recoveries += 1;
                    row.final_state = "closed".into();
                }
                TraceEvent::ProbeResult { engine, ok } => {
                    let row = s.row(engine);
                    row.probes += 1;
                    if !ok {
                        row.probe_failures += 1;
                    }
                }
                _ => {}
            }
        }
        s
    }

    fn row(&mut self, engine: &str) -> &mut HealthEngineRow {
        if let Some(i) = self.engines.iter().position(|r| r.engine == engine) {
            &mut self.engines[i]
        } else {
            self.engines.push(HealthEngineRow {
                engine: engine.to_string(),
                trips: 0,
                recoveries: 0,
                probes: 0,
                probe_failures: 0,
                final_state: "closed".into(),
            });
            self.engines.last_mut().expect("row just pushed")
        }
    }

    /// True when no breaker ever left the closed state.
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// Breaker trips across all engines.
    pub fn total_trips(&self) -> u64 {
        self.engines.iter().map(|r| r.trips).sum()
    }

    /// True when every tracked breaker quiesced closed (vacuously true
    /// when none ever tripped).
    pub fn all_closed(&self) -> bool {
        self.engines.iter().all(|r| r.final_state == "closed")
    }

    /// Engines whose breaker did not quiesce closed.
    pub fn not_closed(&self) -> Vec<String> {
        self.engines
            .iter()
            .filter(|r| r.final_state != "closed")
            .map(|r| r.engine.clone())
            .collect()
    }
}

/// Routing metrics distilled from a run's trace: what the cost-based
/// router decided, how its predictions compared with observed runtimes,
/// and which prescriptions migrated engines mid-run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RoutingSummary {
    /// Routing decisions recorded, total.
    pub decisions: u64,
    /// Decisions per winning engine.
    pub by_engine: BTreeMap<String, u64>,
    /// Decisions per prediction source ("observed", "engine", "static",
    /// "unknown").
    pub by_source: BTreeMap<String, u64>,
    /// Cost observations folded into the EWMA store.
    pub observations: u64,
    /// Prediction-vs-reality pairs:
    /// `(prescription, engine, predicted µs, observed µs)`, one per
    /// observation whose dispatch carried a usable prediction.
    pub pairs: Vec<(String, String, f64, f64)>,
    /// Engine migrations: `(prescription, from, to)` each time a repeated
    /// prescription's winning engine changed.
    pub migrations: Vec<(String, String, String)>,
}

impl RoutingSummary {
    /// Build the summary from a run's trace events.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut s = RoutingSummary::default();
        // Last winning engine per prescription (for migrations) and the
        // prediction attached to the most recent decision per
        // (prescription, engine) pair (to match with CostObserved).
        let mut last_engine: BTreeMap<String, String> = BTreeMap::new();
        let mut last_prediction: BTreeMap<(String, String), (f64, String)> = BTreeMap::new();
        for e in events {
            match e {
                TraceEvent::RoutingDecision {
                    prescription,
                    engine,
                    predicted_micros,
                    source,
                    ..
                } => {
                    s.decisions += 1;
                    *s.by_engine.entry(engine.clone()).or_insert(0) += 1;
                    *s.by_source.entry(source.clone()).or_insert(0) += 1;
                    if let Some(prev) = last_engine.insert(prescription.clone(), engine.clone()) {
                        if prev != *engine {
                            s.migrations.push((prescription.clone(), prev, engine.clone()));
                        }
                    }
                    last_prediction.insert(
                        (prescription.clone(), engine.clone()),
                        (*predicted_micros, source.clone()),
                    );
                }
                TraceEvent::CostObserved { prescription, engine, micros, .. } => {
                    s.observations += 1;
                    if let Some((predicted, source)) =
                        last_prediction.get(&(prescription.clone(), engine.clone()))
                    {
                        if source != "unknown" && *predicted > 0.0 {
                            s.pairs.push((
                                prescription.clone(),
                                engine.clone(),
                                *predicted,
                                *micros as f64,
                            ));
                        }
                    }
                }
                _ => {}
            }
        }
        s
    }

    /// True when the run recorded no routing activity (the default
    /// first-capable path).
    pub fn is_empty(&self) -> bool {
        self.decisions == 0 && self.observations == 0
    }

    /// Decisions whose prediction came from the observed-runtime store.
    pub fn from_observed(&self) -> u64 {
        self.by_source.get("observed").copied().unwrap_or(0)
    }

    /// Geometric mean of the prediction error ratio
    /// `max(predicted, observed) / min(predicted, observed)` across all
    /// pairs — 1.0 means perfect prediction; returns 1.0 with no pairs.
    pub fn mean_error_ratio(&self) -> f64 {
        if self.pairs.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = self
            .pairs
            .iter()
            .map(|(_, _, p, o)| {
                let (p, o) = (p.max(1e-9), o.max(1e-9));
                (p.max(o) / p.min(o)).ln()
            })
            .sum();
        (log_sum / self.pairs.len() as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_metrics::collector::UserMetrics;

    fn report(system: &str, duration: f64) -> MetricReport {
        MetricReport {
            system: system.into(),
            workload: "w".into(),
            user: UserMetrics { duration_secs: duration, operations: 100, ..Default::default() },
            energy_joules: duration * 100.0,
            ..Default::default()
        }
    }

    #[test]
    fn compare_picks_faster_system() {
        let a = report("sql", 1.0);
        let b = report("mapreduce", 4.0);
        let c = compare(&a, &b);
        assert_eq!(c.winner, "sql");
        assert_eq!(c.loser, "mapreduce");
        assert!((c.speedup - 4.0).abs() < 1e-9);
        // Energy scales with duration here, so the winner also wins energy.
        assert!(c.energy_ratio > 1.0);
    }

    #[test]
    fn compare_is_symmetric_in_winner() {
        let a = report("sql", 5.0);
        let b = report("mapreduce", 1.0);
        assert_eq!(compare(&a, &b).winner, "mapreduce");
        assert_eq!(compare(&b, &a).winner, "mapreduce");
    }

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
            TraceEvent::OperationRetried {
                site: "exec/sql:micro/sort".into(),
                attempt: 1,
                delay_ms: 10,
                error: "injected engine fault".into(),
            },
            TraceEvent::FaultInjected {
                site: "exec/sql:micro/sort".into(),
                kind: "latency".into(),
                latency_ms: 25,
            },
            TraceEvent::EngineFailedOver {
                prescription: "micro/sort".into(),
                from: "sql".into(),
                to: "mapreduce".into(),
                attempts: 2,
                engine_attempts: 2,
                error: "injected engine fault".into(),
            },
            TraceEvent::DeadlineExceeded {
                site: "datagen/events".into(),
                elapsed_ms: 70,
                deadline_ms: 50,
            },
        ];
        let s = RecoverySummary::from_events(&events);
        assert_eq!(s.faults_injected(), 2);
        assert_eq!(s.faults_by_kind.get("error"), Some(&1));
        assert_eq!(s.faults_by_kind.get("latency"), Some(&1));
        assert_eq!(s.retries, 1);
        assert_eq!(s.failovers, 1);
        assert_eq!(s.deadline_hits, 1);
        assert_eq!(s.added_latency_ms, 10 + 25);
        assert_eq!(s.total_ops, 2);
        assert_eq!(s.attempts_per_site.get("exec/sql:micro/sort"), Some(&2));
        assert_eq!(s.attempts_per_site.get("datagen/events"), Some(&1));
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
            issued: 100,
            completed: 90,
            shed: 10,
            failed: 0,
            faults: 0,
            retries: 0,
            breaker_trips: 0,
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

    #[test]
    fn health_summary_replays_breaker_lifecycle() {
        let s = HealthSummary::from_events(&[
            TraceEvent::BreakerOpened { engine: "kv".into(), failure_rate: 0.75 },
            TraceEvent::BreakerHalfOpen { engine: "kv".into() },
            TraceEvent::ProbeResult { engine: "kv".into(), ok: false },
            TraceEvent::BreakerOpened { engine: "kv".into(), failure_rate: 0.8 },
            TraceEvent::BreakerHalfOpen { engine: "kv".into() },
            TraceEvent::ProbeResult { engine: "kv".into(), ok: true },
            TraceEvent::ProbeResult { engine: "kv".into(), ok: true },
            TraceEvent::BreakerClosed { engine: "kv".into() },
            TraceEvent::BreakerOpened { engine: "sql".into(), failure_rate: 1.0 },
        ]);
        assert!(!s.is_empty());
        assert_eq!(s.total_trips(), 3);
        assert_eq!(s.engines.len(), 2);
        let kv = &s.engines[0];
        assert_eq!(kv.engine, "kv");
        assert_eq!(kv.trips, 2);
        assert_eq!(kv.recoveries, 1);
        assert_eq!(kv.probes, 3);
        assert_eq!(kv.probe_failures, 1);
        assert_eq!(kv.final_state, "closed");
        // sql tripped and never recovered, so the run did not quiesce
        // healthy.
        assert!(!s.all_closed());
        assert_eq!(s.not_closed(), vec!["sql".to_string()]);

        let quiet = HealthSummary::from_events(&[]);
        assert!(quiet.is_empty());
        assert!(quiet.all_closed());
        assert_eq!(quiet.total_trips(), 0);
    }

    #[test]
    fn routing_summary_condenses_trace() {
        let decision = |prescription: &str, engine: &str, predicted: f64, source: &str| {
            TraceEvent::RoutingDecision {
                prescription: prescription.into(),
                policy: "adaptive".into(),
                engine: engine.into(),
                predicted_micros: predicted,
                source: source.into(),
                rejected: vec![],
            }
        };
        let observed = |prescription: &str, engine: &str, micros: u64| TraceEvent::CostObserved {
            prescription: prescription.into(),
            engine: engine.into(),
            key: format!("{engine}/relational/table/s2"),
            micros,
            ewma_micros: micros as f64,
            samples: 1,
        };
        let s = RoutingSummary::from_events(&[
            decision("relational/join", "mapreduce", 800.0, "static"),
            observed("relational/join", "mapreduce", 1600),
            decision("relational/join", "sql", 400.0, "observed"),
            observed("relational/join", "sql", 400),
            decision("micro/sort", "native", 0.0, "unknown"),
            observed("micro/sort", "native", 100),
        ]);
        assert!(!s.is_empty());
        assert_eq!(s.decisions, 3);
        assert_eq!(s.observations, 3);
        assert_eq!(s.by_engine.get("sql"), Some(&1));
        assert_eq!(s.by_source.get("static"), Some(&1));
        assert_eq!(s.from_observed(), 1);
        // The unknown-source decision contributes no prediction pair.
        assert_eq!(s.pairs.len(), 2);
        // mapreduce over-ran its prediction 2x, sql was exact → geomean √2.
        assert!((s.mean_error_ratio() - 2f64.sqrt()).abs() < 1e-9);
        assert_eq!(
            s.migrations,
            vec![("relational/join".to_string(), "mapreduce".to_string(), "sql".to_string())]
        );

        let quiet = RoutingSummary::from_events(&[]);
        assert!(quiet.is_empty());
        assert_eq!(quiet.mean_error_ratio(), 1.0);
    }

    #[test]
    fn routing_events_do_not_skew_recovery_total_ops() {
        let s = RecoverySummary::from_events(&[
            TraceEvent::RoutingDecision {
                prescription: "micro/sort".into(),
                policy: "cost".into(),
                engine: "native".into(),
                predicted_micros: 90.0,
                source: "static".into(),
                rejected: vec![],
            },
            TraceEvent::CostObserved {
                prescription: "micro/sort".into(),
                engine: "native".into(),
                key: "native/text/text/s2".into(),
                micros: 120,
                ewma_micros: 120.0,
                samples: 1,
            },
        ]);
        assert_eq!(s.total_ops, 0);
        assert!(s.is_quiet());
    }

    #[test]
    fn geomean_is_scale_stable() {
        // Speedups of 2x and 8x → geomean 4x.
        let g = geomean_speedup(&[(1.0, 2.0), (1.0, 8.0)]);
        assert!((g - 4.0).abs() < 1e-9);
        assert_eq!(geomean_speedup(&[]), 1.0);
    }
}
