//! Result reporting: aligned text and Markdown tables.
//!
//! The reporter renders the evaluation tables the harnesses regenerate
//! (Table 1, Table 2, and the per-figure series) as plain text for the
//! terminal and Markdown for EXPERIMENTS.md.

/// A simple column-aligned table builder.
#[derive(Debug, Clone, Default)]
pub struct TableReporter {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TableReporter {
    /// A reporter with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row; short rows are padded with empty cells.
    pub fn add_row(&mut self, cells: &[String]) {
        let mut row: Vec<String> = cells.to_vec();
        row.resize(self.header.len(), String::new());
        row.truncate(self.header.len());
        self.rows.push(row);
    }

    /// Convenience for `&str` cells.
    pub fn add_row_strs(&mut self, cells: &[&str]) {
        self.add_row(&cells.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                w[i] = w[i].max(c.len());
            }
        }
        w
    }

    /// Render as an aligned plain-text table.
    pub fn to_text(&self) -> String {
        let w = self.widths();
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("== {} ==\n", self.title));
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = w[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(w.iter().sum::<usize>() + 2 * (w.len().saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Render as a Markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("### {}\n\n", self.title));
        }
        out.push_str(&format!("| {} |\n", self.header.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            "---|".repeat(self.header.len())
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

/// Render a [`RunTrace`](crate::trace::RunTrace) as an aligned text table:
/// one row per event, in record order, with the event-specific fields
/// flattened into a detail column.
pub fn render_trace(trace: &crate::trace::RunTrace) -> String {
    use crate::trace::TraceEvent;
    let mut t = TableReporter::new("Run trace", &["event", "subject", "detail"]);
    for e in trace.events() {
        let (subject, detail) = match &e {
            TraceEvent::PhaseStarted { phase } => (phase.clone(), String::new()),
            TraceEvent::PhaseFinished { phase, micros } => {
                (phase.clone(), format!("{micros} us"))
            }
            TraceEvent::DatasetGenerated { name, kind, items, bytes, workers, micros } => (
                name.clone(),
                format!("{kind}, {items} items, {bytes} bytes, {workers} workers, {micros} us"),
            ),
            TraceEvent::EngineDispatched {
                prescription,
                engine,
                requested_system,
                explicit,
                candidates,
            } => (
                prescription.clone(),
                format!(
                    "-> {engine} ({} for system {requested_system}; candidates: {})",
                    if *explicit { "explicit" } else { "capability fallback" },
                    candidates.join(", ")
                ),
            ),
            TraceEvent::OperationExecuted { engine, op, rows_out, micros } => {
                (format!("{engine}/{op}"), format!("{rows_out} rows, {micros} us"))
            }
            TraceEvent::FaultInjected { site, kind, latency_ms } => (
                site.clone(),
                if *latency_ms > 0 {
                    format!("{kind} (+{latency_ms} ms)")
                } else {
                    kind.clone()
                },
            ),
            TraceEvent::OperationRetried { site, attempt, delay_ms, error } => (
                site.clone(),
                format!("attempt {attempt} failed ({error}); backoff {delay_ms} ms"),
            ),
            TraceEvent::EngineFailedOver {
                prescription,
                from,
                to,
                attempts,
                engine_attempts,
                error,
            } => (
                prescription.clone(),
                format!(
                    "{from} -> {to} after {attempts} attempts ({engine_attempts} on {from}): {error}"
                ),
            ),
            TraceEvent::DeadlineExceeded { site, elapsed_ms, deadline_ms } => (
                site.clone(),
                format!("{elapsed_ms} ms elapsed > {deadline_ms} ms deadline"),
            ),
            TraceEvent::CheckpointWritten { key, digest } => {
                (key.clone(), format!("digest {digest}"))
            }
            TraceEvent::CellResumed { key, digest, reverified } => (
                key.clone(),
                format!(
                    "digest {digest} from journal{}",
                    if *reverified { " (re-verified vs golden)" } else { "" }
                ),
            ),
            TraceEvent::RunResumed { journal, completed } => (
                journal.clone(),
                format!("{completed} completed cells honoured"),
            ),
            TraceEvent::LoadSessionStarted { engine, session, lanes } => (
                format!("{engine}#{session}"),
                format!("{lanes} in-flight lanes"),
            ),
            TraceEvent::LoadSessionFinished { engine, session, completed, micros } => (
                format!("{engine}#{session}"),
                format!("{completed} ops, {micros} us"),
            ),
            TraceEvent::LoadShed { engine, count } => {
                (engine.clone(), format!("{count} ops shed at the admission queue"))
            }
            TraceEvent::RoutingDecision {
                prescription,
                policy,
                engine,
                predicted_micros,
                source,
                rejected,
            } => (
                prescription.clone(),
                format!(
                    "-> {engine} @{predicted_micros:.1} us [{source}] ({policy}){}",
                    if rejected.is_empty() {
                        String::new()
                    } else {
                        format!("; rejected: {}", rejected.join(", "))
                    }
                ),
            ),
            TraceEvent::CostObserved { prescription, engine, key, micros, ewma_micros, samples } => (
                format!("{prescription}@{engine}"),
                format!("{micros} us -> ewma {ewma_micros:.1} us over {samples} sample(s) [{key}]"),
            ),
            TraceEvent::BreakerOpened { engine, failure_rate } => (
                engine.clone(),
                format!("tripped at {:.0}% windowed failure rate", failure_rate * 100.0),
            ),
            TraceEvent::BreakerHalfOpen { engine } => {
                (engine.clone(), "cooldown elapsed; admitting probes".to_string())
            }
            TraceEvent::BreakerClosed { engine } => {
                (engine.clone(), "probes succeeded; breaker closed".to_string())
            }
            TraceEvent::ProbeResult { engine, ok } => (
                engine.clone(),
                format!("probe {}", if *ok { "succeeded" } else { "failed" }),
            ),
            TraceEvent::BrownoutEngaged { engine, pressure, shed_fraction } => (
                engine.clone(),
                format!(
                    "brownout engaged at pressure {pressure}: shedding {:.0}% of arrivals",
                    shed_fraction * 100.0
                ),
            ),
            TraceEvent::BrownoutReleased { engine, shed } => {
                (engine.clone(), format!("brownout released after shedding {shed} arrival(s)"))
            }
            TraceEvent::ConformanceChecked { prescription, engine, check, payload, passed, detail } => (
                format!("{prescription}@{engine}"),
                format!(
                    "{check} [{payload}] {}{}{detail}",
                    if *passed { "PASS" } else { "FAIL" },
                    if detail.is_empty() { "" } else { ": " },
                ),
            ),
        };
        t.add_row(&[e.label().to_string(), subject, detail]);
    }
    t.to_text()
}

/// Render a [`RecoverySummary`](crate::analyzer::RecoverySummary) as an
/// aligned text table, one metric per row. Returns a one-line note when
/// the run saw no recovery activity.
pub fn render_resilience(summary: &crate::analyzer::RecoverySummary) -> String {
    if summary.is_quiet() {
        return "== Resilience ==\nno faults injected, no retries, no failovers\n".to_string();
    }
    let mut t = TableReporter::new("Resilience", &["metric", "value"]);
    t.add_row(&["faults injected".into(), summary.faults_injected().to_string()]);
    for (kind, n) in &summary.faults_by_kind {
        t.add_row(&[format!("  {kind}"), n.to_string()]);
    }
    t.add_row(&["retries".into(), summary.retries.to_string()]);
    t.add_row(&["failovers".into(), summary.failovers.to_string()]);
    t.add_row(&["deadline hits".into(), summary.deadline_hits.to_string()]);
    if summary.checkpoints_written > 0 || summary.cells_resumed > 0 {
        t.add_row(&["checkpoints written".into(), summary.checkpoints_written.to_string()]);
        t.add_row(&["cells resumed".into(), summary.cells_resumed.to_string()]);
    }
    t.add_row(&["added latency (ms)".into(), summary.added_latency_ms.to_string()]);
    t.add_row(&[
        "degraded ops".into(),
        format!(
            "{}/{} ({:.1}%)",
            summary.attempts_per_site.len(),
            summary.total_ops,
            summary.degraded_pct() * 100.0
        ),
    ]);
    for (site, attempts) in &summary.attempts_per_site {
        t.add_row(&[format!("  {site}"), format!("{attempts} attempts")]);
    }
    t.to_text()
}

/// Render a [`ConformanceSummary`](crate::analyzer::ConformanceSummary)
/// as an aligned text table. Returns a one-line note when no checks ran.
pub fn render_conformance(summary: &crate::analyzer::ConformanceSummary) -> String {
    if summary.is_empty() {
        return "== Conformance ==\nno conformance checks ran\n".to_string();
    }
    let mut t = TableReporter::new("Conformance", &["metric", "value"]);
    t.add_row(&[
        "checks".into(),
        format!("{}/{} passed", summary.passes, summary.checks),
    ]);
    for (kind, (pass, fail)) in &summary.by_check {
        t.add_row(&[format!("  {kind}"), format!("{pass} passed, {fail} failed")]);
    }
    t.add_row(&[
        "verdict".into(),
        if summary.all_passed() { "CONFORMANT".into() } else { "DIVERGED".into() },
    ]);
    for (prescription, engine, check, detail) in &summary.failures {
        t.add_row(&[format!("  {prescription}@{engine}"), format!("{check}: {detail}")]);
    }
    t.to_text()
}

/// Render a [`LoadSummary`](crate::analyzer::LoadSummary) as an aligned
/// text table: one row per engine with saturation throughput and
/// p50/p99/p999 tail latency. Returns a one-line note when no load ran.
pub fn render_load(summary: &crate::analyzer::LoadSummary) -> String {
    if summary.is_empty() {
        return "== Load ==\nno load was driven\n".to_string();
    }
    let mut t = TableReporter::new(
        "Load",
        &[
            "engine", "clients", "inflight", "issued", "completed", "shed", "failed", "ops/s",
            "p50 us", "p99 us", "p999 us", "conformance",
        ],
    );
    for r in &summary.reports {
        t.add_row(&[
            r.engine.clone(),
            r.clients.to_string(),
            r.inflight.to_string(),
            r.issued.to_string(),
            r.completed.to_string(),
            r.shed.to_string(),
            r.failed.to_string(),
            fmt_num(r.throughput_ops_per_sec),
            fmt_num(r.p50_us),
            fmt_num(r.p99_us),
            fmt_num(r.p999_us),
            if r.conformance_passed { "pass".into() } else { "FAIL".into() },
        ]);
    }
    let mut out = t.to_text();
    out.push_str(&format!(
        "sessions: {} started, {} finished; shed events: {}; verdict: {}\n",
        summary.sessions_started,
        summary.sessions_finished,
        summary.shed_events,
        if summary.all_conformant() { "CONFORMANT" } else { "DIVERGED" },
    ));
    // Chaos accounting appears only when the drive actually saw faults,
    // retries, failures or breaker trips — clean drives keep the
    // historical footer untouched.
    let chaos: u64 = summary
        .reports
        .iter()
        .map(|r| r.failed + r.faults + r.retries + r.breaker_trips)
        .sum();
    if chaos > 0 {
        for r in &summary.reports {
            out.push_str(&format!(
                "chaos[{}]: {} failed, {} faults, {} retries, {} breaker trip(s)\n",
                r.engine, r.failed, r.faults, r.retries, r.breaker_trips,
            ));
        }
    }
    out
}

/// Render a [`HealthSummary`](crate::analyzer::HealthSummary) as an
/// aligned text table: per engine the breaker trips, recoveries, probe
/// outcomes, and the state the breaker quiesced in. Returns a one-line
/// note when no breaker ever left the closed state.
pub fn render_health(summary: &crate::analyzer::HealthSummary) -> String {
    if summary.is_empty() {
        return "== Health ==\nall circuit breakers stayed closed\n".to_string();
    }
    let mut t = TableReporter::new(
        "Health",
        &["engine", "trips", "recoveries", "probes", "probe fails", "final state"],
    );
    for e in &summary.engines {
        t.add_row(&[
            e.engine.clone(),
            e.trips.to_string(),
            e.recoveries.to_string(),
            e.probes.to_string(),
            e.probe_failures.to_string(),
            e.final_state.clone(),
        ]);
    }
    let mut out = t.to_text();
    out.push_str(&format!(
        "health: {} trip(s) across {} engine(s); at quiesce {}\n",
        summary.total_trips(),
        summary.engines.len(),
        if summary.all_closed() {
            "all breakers closed".to_string()
        } else {
            format!("open breakers: {}", summary.not_closed().join(", "))
        },
    ));
    out
}

/// Render a [`RoutingSummary`](crate::analyzer::RoutingSummary) as an
/// aligned text table: decisions per engine and prediction source, the
/// prediction error against observed runtimes, and engine migrations.
/// Returns a one-line note when no routing decisions were recorded (the
/// default first-capable path).
pub fn render_routing(summary: &crate::analyzer::RoutingSummary) -> String {
    if summary.is_empty() {
        return "== Routing ==\nno routing decisions recorded (first-capable)\n".to_string();
    }
    let mut t = TableReporter::new("Routing", &["metric", "value"]);
    t.add_row(&["decisions".into(), summary.decisions.to_string()]);
    for (engine, n) in &summary.by_engine {
        t.add_row(&[format!("  -> {engine}"), n.to_string()]);
    }
    for (source, n) in &summary.by_source {
        t.add_row(&[format!("  from {source}"), n.to_string()]);
    }
    t.add_row(&["observations".into(), summary.observations.to_string()]);
    if !summary.pairs.is_empty() {
        t.add_row(&[
            "prediction error".into(),
            format!(
                "{}x geomean over {} pair(s)",
                fmt_num(summary.mean_error_ratio()),
                summary.pairs.len()
            ),
        ]);
    }
    t.add_row(&["migrations".into(), summary.migrations.len().to_string()]);
    for (prescription, from, to) in &summary.migrations {
        t.add_row(&[format!("  {prescription}"), format!("{from} -> {to}")]);
    }
    let mut out = t.to_text();
    out.push_str(&format!(
        "routing: {} decision(s), {} predicted from observed costs\n",
        summary.decisions,
        summary.from_observed(),
    ));
    out
}

/// Format a float compactly for table cells.
pub fn fmt_num(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1e6 {
        format!("{:.2e}", x)
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TableReporter {
        let mut t = TableReporter::new("Demo", &["name", "value"]);
        t.add_row_strs(&["alpha", "1"]);
        t.add_row(&["beta-long-name".into(), "2".into()]);
        t
    }

    #[test]
    fn trace_renders_one_row_per_event() {
        use crate::trace::RunTrace;
        let trace = RunTrace::new();
        trace.phase_started("execution");
        trace.operation("sql", "sort", 42, std::time::Duration::from_micros(5));
        let text = render_trace(&trace);
        assert!(text.contains("== Run trace =="));
        assert!(text.contains("phase_started"));
        assert!(text.contains("sql/sort"));
        assert!(text.contains("42 rows"));
    }

    #[test]
    fn trace_renders_recovery_events() {
        use crate::trace::{RunTrace, TraceEvent};
        let trace = RunTrace::new();
        trace.record(TraceEvent::FaultInjected {
            site: "exec/sql:micro/sort".into(),
            kind: "latency".into(),
            latency_ms: 25,
        });
        trace.record(TraceEvent::OperationRetried {
            site: "exec/sql:micro/sort".into(),
            attempt: 1,
            delay_ms: 10,
            error: "injected".into(),
        });
        trace.record(TraceEvent::EngineFailedOver {
            prescription: "micro/sort".into(),
            from: "sql".into(),
            to: "mapreduce".into(),
            attempts: 3,
            engine_attempts: 2,
            error: "injected engine fault".into(),
        });
        trace.record(TraceEvent::DeadlineExceeded {
            site: "datagen/events".into(),
            elapsed_ms: 70,
            deadline_ms: 50,
        });
        let text = render_trace(&trace);
        assert!(text.contains("fault_injected"));
        assert!(text.contains("latency (+25 ms)"));
        assert!(text.contains("backoff 10 ms"));
        assert!(text.contains(
            "sql -> mapreduce after 3 attempts (2 on sql): injected engine fault"
        ));
        assert!(text.contains("70 ms elapsed > 50 ms deadline"));
    }

    #[test]
    fn trace_renders_breaker_events() {
        use crate::trace::{RunTrace, TraceEvent};
        let trace = RunTrace::new();
        trace.record(TraceEvent::BreakerOpened { engine: "kv".into(), failure_rate: 0.75 });
        trace.record(TraceEvent::BreakerHalfOpen { engine: "kv".into() });
        trace.record(TraceEvent::ProbeResult { engine: "kv".into(), ok: false });
        trace.record(TraceEvent::ProbeResult { engine: "kv".into(), ok: true });
        trace.record(TraceEvent::BreakerClosed { engine: "kv".into() });
        let text = render_trace(&trace);
        assert!(text.contains("breaker_opened"));
        assert!(text.contains("tripped at 75% windowed failure rate"));
        assert!(text.contains("cooldown elapsed; admitting probes"));
        assert!(text.contains("probe failed"));
        assert!(text.contains("probe succeeded"));
        assert!(text.contains("probes succeeded; breaker closed"));
    }

    #[test]
    fn resilience_report_quiet_and_active() {
        use crate::analyzer::RecoverySummary;
        use crate::trace::TraceEvent;
        let quiet = RecoverySummary::default();
        assert!(render_resilience(&quiet).contains("no faults injected"));

        let s = RecoverySummary::from_events(&[
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
                error: "injected".into(),
            },
        ]);
        let text = render_resilience(&s);
        assert!(text.contains("== Resilience =="));
        assert!(text.contains("faults injected"));
        assert!(text.contains("degraded ops"));
        assert!(text.contains("1/1 (100.0%)"));
        assert!(text.contains("2 attempts"));
    }

    #[test]
    fn conformance_report_quiet_and_active() {
        use crate::analyzer::ConformanceSummary;
        use crate::trace::TraceEvent;
        let quiet = ConformanceSummary::default();
        assert!(render_conformance(&quiet).contains("no conformance checks ran"));

        let s = ConformanceSummary::from_events(&[
            TraceEvent::ConformanceChecked {
                prescription: "micro/sort".into(),
                engine: "sql".into(),
                check: "oracle".into(),
                payload: "rowset".into(),
                passed: true,
                detail: String::new(),
            },
            TraceEvent::ConformanceChecked {
                prescription: "micro/sort".into(),
                engine: "mapreduce".into(),
                check: "golden".into(),
                payload: "rowset".into(),
                passed: false,
                detail: "digest differs".into(),
            },
        ]);
        let text = render_conformance(&s);
        assert!(text.contains("== Conformance =="));
        assert!(text.contains("1/2 passed"));
        assert!(text.contains("DIVERGED"));
        assert!(text.contains("micro/sort@mapreduce"));
    }

    #[test]
    fn load_report_quiet_and_active() {
        use crate::analyzer::LoadSummary;
        use crate::trace::TraceEvent;
        let quiet = LoadSummary::default();
        assert!(render_load(&quiet).contains("no load was driven"));

        let report = crate::loadgen::LoadReport {
            engine: "kv".into(),
            clients: 4,
            inflight: 8,
            issued: 1000,
            completed: 950,
            shed: 50,
            failed: 0,
            faults: 0,
            retries: 0,
            breaker_trips: 0,
            duration_secs: 2.0,
            throughput_ops_per_sec: 475.0,
            p50_us: 12.0,
            p99_us: 90.0,
            p999_us: 400.0,
            mean_queue_delay_ms: 1.5,
            sampled: 63,
            conformance_passed: true,
            digest: "0xfeed".into(),
        };
        let s = LoadSummary::new(
            vec![report],
            &[TraceEvent::LoadShed { engine: "kv".into(), count: 50 }],
        );
        let text = render_load(&s);
        assert!(text.contains("== Load =="));
        assert!(text.contains("kv"));
        assert!(text.contains("950"));
        assert!(text.contains("p999 us"));
        assert!(text.contains("CONFORMANT"));
        assert!(text.contains("shed events: 1"));
        // A clean drive keeps the historical footer: no chaos accounting.
        assert!(!text.contains("chaos["));
    }

    #[test]
    fn load_report_with_chaos_appends_accounting() {
        use crate::analyzer::LoadSummary;
        let report = crate::loadgen::LoadReport {
            engine: "kv".into(),
            clients: 4,
            inflight: 8,
            issued: 1000,
            completed: 930,
            shed: 50,
            failed: 20,
            faults: 37,
            retries: 17,
            breaker_trips: 2,
            duration_secs: 2.0,
            throughput_ops_per_sec: 465.0,
            p50_us: 12.0,
            p99_us: 90.0,
            p999_us: 400.0,
            mean_queue_delay_ms: 1.5,
            sampled: 63,
            conformance_passed: true,
            digest: "0xfeed".into(),
        };
        let text = render_load(&LoadSummary::new(vec![report], &[]));
        assert!(text.contains("failed"));
        assert!(
            text.contains("chaos[kv]: 20 failed, 37 faults, 17 retries, 2 breaker trip(s)"),
            "{text}"
        );
    }

    #[test]
    fn health_report_quiet_and_active() {
        use crate::analyzer::HealthSummary;
        use crate::trace::TraceEvent;
        let quiet = HealthSummary::default();
        assert!(render_health(&quiet).contains("all circuit breakers stayed closed"));

        let s = HealthSummary::from_events(&[
            TraceEvent::BreakerOpened { engine: "kv".into(), failure_rate: 0.6 },
            TraceEvent::BreakerHalfOpen { engine: "kv".into() },
            TraceEvent::ProbeResult { engine: "kv".into(), ok: false },
            TraceEvent::BreakerOpened { engine: "kv".into(), failure_rate: 0.6 },
            TraceEvent::BreakerHalfOpen { engine: "kv".into() },
            TraceEvent::ProbeResult { engine: "kv".into(), ok: true },
            TraceEvent::ProbeResult { engine: "kv".into(), ok: true },
            TraceEvent::BreakerClosed { engine: "kv".into() },
        ]);
        let text = render_health(&s);
        assert!(text.contains("== Health =="));
        assert!(text.contains("kv"));
        assert!(text.contains("final state"));
        assert!(text.contains("at quiesce all breakers closed"), "{text}");

        let open = HealthSummary::from_events(&[TraceEvent::BreakerOpened {
            engine: "sql".into(),
            failure_rate: 1.0,
        }]);
        let text = render_health(&open);
        assert!(text.contains("open breakers: sql"), "{text}");
    }

    #[test]
    fn trace_renders_load_events() {
        use crate::trace::{RunTrace, TraceEvent};
        let trace = RunTrace::new();
        trace.record(TraceEvent::LoadSessionStarted { engine: "kv".into(), session: 2, lanes: 8 });
        trace.record(TraceEvent::LoadSessionFinished {
            engine: "kv".into(),
            session: 2,
            completed: 321,
            micros: 5000,
        });
        trace.record(TraceEvent::LoadShed { engine: "kv".into(), count: 9 });
        let text = render_trace(&trace);
        assert!(text.contains("load_session_started"));
        assert!(text.contains("kv#2"));
        assert!(text.contains("8 in-flight lanes"));
        assert!(text.contains("321 ops"));
        assert!(text.contains("9 ops shed"));
    }

    #[test]
    fn routing_report_quiet_and_active() {
        use crate::analyzer::RoutingSummary;
        use crate::trace::TraceEvent;
        let quiet = RoutingSummary::default();
        assert!(render_routing(&quiet).contains("no routing decisions recorded"));

        let s = RoutingSummary::from_events(&[
            TraceEvent::RoutingDecision {
                prescription: "relational/join".into(),
                policy: "adaptive".into(),
                engine: "sql".into(),
                predicted_micros: 400.0,
                source: "observed".into(),
                rejected: vec!["mapreduce@900.0us[static]".into()],
            },
            TraceEvent::CostObserved {
                prescription: "relational/join".into(),
                engine: "sql".into(),
                key: "sql/relational/table/s2".into(),
                micros: 800,
                ewma_micros: 600.0,
                samples: 2,
            },
        ]);
        let text = render_routing(&s);
        assert!(text.contains("== Routing =="));
        assert!(text.contains("-> sql"));
        assert!(text.contains("from observed"));
        assert!(text.contains("prediction error"));
        assert!(text.contains("routing: 1 decision(s), 1 predicted from observed costs"));
    }

    #[test]
    fn trace_renders_routing_events() {
        use crate::trace::{RunTrace, TraceEvent};
        let trace = RunTrace::new();
        trace.record(TraceEvent::RoutingDecision {
            prescription: "relational/join".into(),
            policy: "cost".into(),
            engine: "sql".into(),
            predicted_micros: 410.5,
            source: "engine".into(),
            rejected: vec!["mapreduce@850.0us[static]".into()],
        });
        trace.record(TraceEvent::CostObserved {
            prescription: "relational/join".into(),
            engine: "sql".into(),
            key: "sql/relational/table/s2".into(),
            micros: 390,
            ewma_micros: 402.3,
            samples: 2,
        });
        let text = render_trace(&trace);
        assert!(text.contains("routing_decision"));
        assert!(text.contains("-> sql @410.5 us [engine] (cost)"));
        assert!(text.contains("rejected: mapreduce@850.0us[static]"));
        assert!(text.contains("cost_observed"));
        assert!(text.contains("ewma 402.3 us over 2 sample(s)"));
    }

    #[test]
    fn text_render_aligns_columns() {
        let text = sample().to_text();
        assert!(text.contains("== Demo =="));
        let lines: Vec<&str> = text.lines().collect();
        // Header and both rows present.
        assert!(lines[1].starts_with("name"));
        assert!(text.contains("alpha"));
        assert!(text.contains("beta-long-name"));
        // "value" column starts at the same offset in header and rows.
        let col = lines[1].find("value").unwrap();
        assert_eq!(&lines[3][col..col + 1], "1");
    }

    #[test]
    fn markdown_render_has_separator() {
        let md = sample().to_markdown();
        assert!(md.contains("| name | value |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| alpha | 1 |"));
    }

    #[test]
    fn rows_are_padded_and_truncated() {
        let mut t = TableReporter::new("", &["a", "b"]);
        t.add_row(&["only".into()]);
        t.add_row(&["x".into(), "y".into(), "extra".into()]);
        assert_eq!(t.len(), 2);
        let text = t.to_text();
        assert!(!text.contains("extra"));
    }

    #[test]
    fn number_formatting_tiers() {
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(0.1234), "0.1234");
        assert_eq!(fmt_num(3.17159), "3.17");
        assert_eq!(fmt_num(250.4), "250");
        assert_eq!(fmt_num(2_500_000.0), "2.50e6");
    }
}
