//! Result reporting: aligned text tables.
//!
//! The reporter renders the evaluation tables the harnesses regenerate
//! (Table 1, Table 2, and the per-figure series) and the run analysis's
//! resilience, conformance and load sections as plain text for the
//! terminal.

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
}

/// Render a [`RecoverySummary`](crate::analyzer::RecoverySummary) as an
/// aligned text table, one metric per row. Returns a one-line note when
/// the run saw no recovery activity.
pub fn render_resilience(summary: &crate::analyzer::RecoverySummary) -> String {
    if summary.is_quiet() {
        return "== Resilience ==\nno faults injected\n".to_string();
    }
    let mut t = TableReporter::new("Resilience", &["metric", "value"]);
    t.add_row(&["faults injected".into(), summary.faults_injected().to_string()]);
    for (kind, n) in &summary.faults_by_kind {
        t.add_row(&[format!("  {kind}"), n.to_string()]);
    }
    if summary.checkpoints_written > 0 || summary.cells_resumed > 0 {
        t.add_row(&["checkpoints written".into(), summary.checkpoints_written.to_string()]);
        t.add_row(&["cells resumed".into(), summary.cells_resumed.to_string()]);
    }
    t.add_row(&["added latency (ms)".into(), summary.added_latency_ms.to_string()]);
    t.add_row(&[
        "degraded ops".into(),
        format!(
            "{}/{} ({:.1}%)",
            summary.faulted_sites.len(),
            summary.total_ops,
            summary.degraded_pct() * 100.0
        ),
    ]);
    for site in &summary.faulted_sites {
        t.add_row(&[format!("  {site}"), "faulted".into()]);
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
/// text table: one row per engine with completed ops per second and
/// p50/p99/p999 tail latency. Each open-loop engine adds a line with its
/// offered arrivals and how late, on average, its ops were dispatched.
/// Returns a one-line note when no load ran.
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
            if r.sampled == 0 {
                "unchecked".into()
            } else if r.conformance_passed {
                "pass".into()
            } else {
                "FAIL".into()
            },
        ]);
    }
    let mut out = t.to_text();
    out.push_str(&format!(
        "sessions: {} started, {} finished; shed events: {}; verdict: {}\n",
        summary.sessions_started,
        summary.sessions_finished,
        summary.shed_events,
        summary.verdict(),
    ));
    for r in summary.reports.iter().filter(|r| r.arrival.is_open()) {
        out.push_str(&format!(
            "lateness[{}]: mean {:.1} us from intended arrival to dispatch (offered {})\n",
            r.engine,
            r.mean_queue_delay_ms * 1e3,
            r.arrival,
        ));
    }
    // Chaos accounting appears only when the drive actually saw faults
    // or failures — clean drives keep the historical footer untouched.
    let chaos: u64 = summary.reports.iter().map(|r| r.failed + r.faults).sum();
    if chaos > 0 {
        for r in &summary.reports {
            out.push_str(&format!(
                "chaos[{}]: {} failed, {} faults\n",
                r.engine, r.failed, r.faults,
            ));
        }
    }
    out
}

/// The one-line summary `bdbench load` prints per engine. A closed loop's
/// rate is its saturation throughput; an open loop's is set by the
/// offered arrivals, so its line names them and the mean dispatch
/// lateness instead. The `(N completed, …)` tail is the same for both.
pub fn render_load_line(r: &crate::loadgen::LoadReport) -> String {
    let (rate, late) = if r.arrival.is_open() {
        (
            format!("{:.0} ops/s of offered {}", r.throughput_ops_per_sec, r.arrival),
            format!(", mean lateness {:.1} us", r.mean_queue_delay_ms * 1e3),
        )
    } else {
        (format!("{:.0} ops/s saturation", r.throughput_ops_per_sec), String::new())
    };
    format!(
        "load[{}]: {rate}, p50 {:.1} us, p99 {:.1} us, p999 {:.1} us{late} ({} completed, {} shed, {} failed)",
        r.engine, r.p50_us, r.p99_us, r.p999_us, r.completed, r.shed, r.failed,
    )
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
        t.add_row(&["alpha".into(), "1".into()]);
        t.add_row(&["beta-long-name".into(), "2".into()]);
        t
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
                kind: "latency".into(),
                latency_ms: 10,
            },
        ]);
        let text = render_resilience(&s);
        assert!(text.contains("== Resilience =="));
        assert!(text.contains("faults injected"));
        assert!(text.contains("degraded ops"));
        assert!(text.contains("1/1 (100.0%)"));
        assert!(text.contains("exec/sql:micro/sort") && text.contains("faulted"), "{text}");
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
            arrival: crate::loadgen::LoadArrival::Poisson { rate_per_sec: 500.0 },
            issued: 1000,
            completed: 950,
            shed: 50,
            failed: 0,
            faults: 0,
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

        // A lane that completed nothing sampled nothing: its check is
        // unchecked, not failed, and so is the drive when nothing diverged.
        let starved = crate::loadgen::LoadReport {
            engine: "native".into(),
            completed: 0,
            shed: 0,
            failed: 1000,
            faults: 1000,
            sampled: 0,
            conformance_passed: false,
            ..s.reports[0].clone()
        };
        let text = render_load(&LoadSummary::new(vec![s.reports[0].clone(), starved.clone()], &[]));
        assert!(text.contains("unchecked"), "{text}");
        assert!(text.contains("verdict: UNCHECKED"), "{text}");
        assert!(!text.contains("FAIL"), "{text}");
        // A mismatch anywhere still reads DIVERGED.
        let diverged =
            crate::loadgen::LoadReport { conformance_passed: false, ..s.reports[0].clone() };
        let text = render_load(&LoadSummary::new(vec![diverged, starved], &[]));
        assert!(text.contains("FAIL") && text.contains("verdict: DIVERGED"), "{text}");
    }

    #[test]
    fn load_reports_name_lateness_for_open_loops_only() {
        use crate::analyzer::LoadSummary;
        use crate::loadgen::{LoadArrival, LoadReport};
        let report = |engine: &str, arrival| LoadReport {
            engine: engine.into(),
            clients: 1,
            inflight: 8,
            arrival,
            issued: 2000,
            completed: 2000,
            shed: 0,
            failed: 0,
            faults: 0,
            duration_secs: 1.0,
            throughput_ops_per_sec: 2000.0,
            p50_us: 3.0,
            p99_us: 40.0,
            p999_us: 90.0,
            mean_queue_delay_ms: if arrival.is_open() { 0.0021 } else { 0.0 },
            sampled: 125,
            conformance_passed: true,
            digest: "0xfeed".into(),
        };
        let closed = render_load(&LoadSummary::new(vec![report("kv", LoadArrival::Closed)], &[]));
        assert!(!closed.contains("lateness["), "{closed}");
        assert_eq!(
            render_load_line(&report("kv", LoadArrival::Closed)),
            "load[kv]: 2000 ops/s saturation, p50 3.0 us, p99 40.0 us, p999 90.0 us (2000 completed, 0 shed, 0 failed)"
        );
        assert_eq!(
            render_load_line(&report("kv", LoadArrival::Uniform { rate_per_sec: 2000.0 })),
            "load[kv]: 2000 ops/s of offered uniform:2000, p50 3.0 us, p99 40.0 us, p999 90.0 us, mean lateness 2.1 us (2000 completed, 0 shed, 0 failed)"
        );
        let open = render_load(&LoadSummary::new(
            vec![
                report("kv", LoadArrival::Poisson { rate_per_sec: 2000.0 }),
                report("sql", LoadArrival::Closed),
            ],
            &[],
        ));
        assert!(
            open.contains("lateness[kv]: mean 2.1 us from intended arrival to dispatch (offered poisson:2000)\n"),
            "{open}"
        );
        assert!(!open.contains("lateness[sql]"), "{open}");
    }

    #[test]
    fn load_report_with_chaos_appends_accounting() {
        use crate::analyzer::LoadSummary;
        let report = crate::loadgen::LoadReport {
            engine: "kv".into(),
            clients: 4,
            inflight: 8,
            arrival: crate::loadgen::LoadArrival::Poisson { rate_per_sec: 500.0 },
            issued: 1000,
            completed: 930,
            shed: 50,
            failed: 20,
            faults: 37,
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
            text.contains("chaos[kv]: 20 failed, 37 faults\n"),
            "{text}"
        );
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
