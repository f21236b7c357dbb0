//! The kernels behind the prescriptions the Execution Layer runs.
//!
//! | Module | Kernels | Prescriptions |
//! |---|---|---|
//! | [`micro`] | WordCount, grep | `micro/wordcount`, `micro/grep`, `search/index` |
//! | [`search`] | PageRank | `search/pagerank` |
//! | [`social`] | k-means, connected components | `social/kmeans`, `social/connected-components` |
//! | [`streaming`] | keyed tumbling-window aggregation | `streaming/window-aggregation` |
//! | [`behavioral`] | sessionize, retention, window funnel, sequence match | `behavioral/*` |
//! | [`oltp`] | YCSB A–F analog operation mixes on the LSM store | `oltp/*` |
//! | [`relational`] | the Pavlo `uservisits` table generator | (the hybrid mix's table) |
//! | [`hybrid`] | Section 5.2 truly-hybrid mixed workload | (report program only) |
//!
//! Relational prescriptions (`micro/sort`, `relational/*`, `ecommerce/*`)
//! have no kernel here: they bind to the sql and MapReduce engines through
//! `bdb_testgen::bind`.
//!
//! **Kernels return answers; the engine makes results.** A kernel returns
//! what it computed plus the [`Work`] it counted. The engine that ran it
//! times it once and makes the [`WorkloadResult`]: the prescription's
//! name, the engine's name, the category of the prescription's class, and
//! the one measured span as the duration. Only [`oltp::run_ycsb`] (whose
//! per-operation latencies are the online-services metric) and the hybrid
//! mix assemble their own result.
//!
//! The analytics kernels come in two bindings where Table 2's suites do:
//! a native in-memory kernel and a MapReduce lowering — the *functional
//! view* requires both to produce identical answers, which the tests
//! assert.

pub mod behavioral;
pub mod hybrid;
pub mod micro;
pub mod oltp;
pub mod relational;
pub mod search;
pub mod social;
pub mod streaming;

use bdb_common::hash::Fnv1a;
use bdb_common::record::CELL_SEP;
use bdb_metrics::{CostModel, MetricReport, OpCounts, PowerModel, UserMetrics};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Table 2's three workload categories ("from the perspective of
/// application users").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadCategory {
    /// Response-delay sensitive services.
    OnlineServices,
    /// Complex, time-consuming computations on big data.
    OfflineAnalytics,
    /// Interactive analytics (relational queries, stream dashboards).
    RealTimeAnalytics,
}

impl std::fmt::Display for WorkloadCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            WorkloadCategory::OnlineServices => "online services",
            WorkloadCategory::OfflineAnalytics => "offline analytics",
            WorkloadCategory::RealTimeAnalytics => "real-time analytics",
        };
        f.write_str(s)
    }
}

/// The canonical, comparable *answer* a workload computed, carried
/// alongside the metrics so a conformance checker can diff the result of
/// one engine against another (or against a reference oracle).
///
/// Three shapes cover every operation class, each with its own equality
/// contract:
///
/// * [`OutputPayload::RowSet`] — relational / batch output compared as a
///   multiset of rows (row order is meaningless);
/// * [`OutputPayload::Ordered`] — stream output compared element by
///   element in emission order (in-order streams with zero allowed
///   lateness emit panes in deterministic `(window_start, key)` order);
/// * [`OutputPayload::Numeric`] — named floating-point results compared
///   within a stated epsilon (iterative kernels whose summation order may
///   legally differ across engines).
#[derive(Debug, Clone, PartialEq)]
pub enum OutputPayload {
    /// Unordered relational output: a multiset of row lines, each built by
    /// [`row_lines`](bdb_common::record::row_lines) (the cells' `Display`
    /// joined by U+001F).
    RowSet(Vec<String>),
    /// Ordered output: one string per emitted element, in order.
    Ordered(Vec<String>),
    /// Named numeric outputs: `(name, value)` pairs in name order.
    Numeric(Vec<(String, f64)>),
}

/// A payload's canonical lines, lent from it: what
/// [`OutputPayload::digest`] hashes and [`OutputPayload::diff`] compares.
/// Row-set lines are sorted references; ordered lines are references in
/// emission order; only numeric entries are formatted. A checker that both
/// diffs and hashes one payload builds this once.
#[derive(Debug)]
pub struct CanonicalLines<'a> {
    payload: &'a OutputPayload,
    lines: Vec<Cow<'a, str>>,
}

impl<'a> std::ops::Deref for CanonicalLines<'a> {
    type Target = [Cow<'a, str>];

    fn deref(&self) -> &Self::Target {
        &self.lines
    }
}

impl<'a> CanonicalLines<'a> {
    /// The payload these lines were built from.
    pub fn payload(&self) -> &'a OutputPayload {
        self.payload
    }

    /// A stable 64-bit FNV-1a digest of the lines, prefixed by the payload
    /// shape so a row set never collides with an ordered stream of the same
    /// lines.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(self.payload.label().as_bytes());
        h.write(&[0x1e]);
        for line in &self.lines {
            h.write(line.as_bytes());
            h.write(&[0x1e]);
        }
        h.finish()
    }

    /// Compare against another payload's lines under this shape's equality
    /// contract. Numeric values match within `epsilon` relative error
    /// (absolute for values below 1). Returns a human-readable mismatch
    /// description, or `None` when the payloads agree.
    pub fn diff(&self, other: &CanonicalLines<'_>, epsilon: f64) -> Option<String> {
        match (self.payload, other.payload) {
            (OutputPayload::Numeric(a), OutputPayload::Numeric(b)) => {
                if a.len() != b.len() {
                    return Some(format!(
                        "numeric arity differs: {} vs {} values",
                        a.len(),
                        b.len()
                    ));
                }
                for ((ka, va), (kb, vb)) in a.iter().zip(b) {
                    if ka != kb {
                        return Some(format!("numeric keys differ: {ka} vs {kb}"));
                    }
                    let tol = epsilon * va.abs().max(1.0);
                    if !((va - vb).abs() <= tol || (va.is_nan() && vb.is_nan())) {
                        return Some(format!("{ka}: {va} vs {vb} (tolerance {tol:e})"));
                    }
                }
                None
            }
            (a, b) if a.label() != b.label() => Some(format!(
                "payload shapes differ: {} vs {}",
                a.label(),
                b.label()
            )),
            (a, _) => {
                let (la, lb) = (&self.lines, &other.lines);
                if la.len() != lb.len() {
                    return Some(format!(
                        "{} size differs: {} vs {} entries",
                        a.label(),
                        la.len(),
                        lb.len()
                    ));
                }
                let (i, (x, y)) = la.iter().zip(lb).enumerate().find(|(_, (x, y))| x != y)?;
                Some(format!(
                    "{} entry {i} differs: {:?} vs {:?}",
                    a.label(),
                    x.replace(CELL_SEP, "|"),
                    y.replace(CELL_SEP, "|")
                ))
            }
        }
    }
}

impl OutputPayload {
    /// A short label naming the payload shape.
    pub fn label(&self) -> &'static str {
        match self {
            OutputPayload::RowSet(_) => "rowset",
            OutputPayload::Ordered(_) => "ordered",
            OutputPayload::Numeric(_) => "numeric",
        }
    }

    /// Number of elements (rows / entries / values) in the payload.
    pub fn len(&self) -> usize {
        match self {
            OutputPayload::RowSet(rows) => rows.len(),
            OutputPayload::Ordered(items) => items.len(),
            OutputPayload::Numeric(vals) => vals.len(),
        }
    }

    /// True when the payload holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The canonical lines, the one place a payload is normalised: row
    /// sets are sorted (making multiset equality a plain sequence
    /// comparison), ordered payloads keep their order, and numeric values
    /// render with full precision via `{:?}`. Row-set and ordered lines are
    /// lent, never copied.
    pub fn canonical_lines(&self) -> CanonicalLines<'_> {
        let lines = match self {
            OutputPayload::RowSet(rows) => {
                let mut lines: Vec<Cow<'_, str>> =
                    rows.iter().map(|r| Cow::Borrowed(r.as_str())).collect();
                lines.sort_unstable();
                lines
            }
            OutputPayload::Ordered(items) => {
                items.iter().map(|i| Cow::Borrowed(i.as_str())).collect()
            }
            OutputPayload::Numeric(vals) => {
                vals.iter().map(|(k, v)| Cow::Owned(format!("{k}{CELL_SEP}{v:?}"))).collect()
            }
        };
        CanonicalLines { payload: self, lines }
    }

    /// [`CanonicalLines::digest`] of this payload.
    pub fn digest(&self) -> u64 {
        self.canonical_lines().digest()
    }

    /// [`CanonicalLines::diff`] of this payload against `other`.
    pub fn diff(&self, other: &OutputPayload, epsilon: f64) -> Option<String> {
        self.canonical_lines().diff(&other.canonical_lines(), epsilon)
    }
}

/// What a kernel counted while it computed its answer. The engine that
/// ran the kernel turns this and its own measured span into the result's
/// user and architecture metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Operations a user would count (tokens, edges × iterations, events).
    pub operations: u64,
    /// Record and float operations behind the architecture metrics.
    pub ops: OpCounts,
    /// Input items the kernel read (the per-item denominator).
    pub input_items: u64,
}

/// The uniform result of running any workload.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Full metric report (user + architecture + energy + cost).
    pub report: MetricReport,
    /// Table 2 category.
    pub category: WorkloadCategory,
    /// Workload-specific scalar outputs (iterations, accuracy, …).
    pub details: BTreeMap<String, f64>,
    /// The computed answer in canonical comparable form, when the
    /// executing engine captured one (engines attach this so conformance
    /// checking can diff results without re-running).
    pub output: Option<OutputPayload>,
}

impl WorkloadResult {
    /// Assemble a result from raw measurements with default energy/cost
    /// models.
    pub fn assemble(
        workload: &str,
        system: &str,
        category: WorkloadCategory,
        user: UserMetrics,
        ops: OpCounts,
        input_items: u64,
    ) -> Self {
        let report = MetricReport::assemble(
            workload,
            system,
            user,
            ops,
            input_items,
            &PowerModel::default(),
            &CostModel::default(),
            0.7,
            bdb_common::pool::effective_workers(0),
        );
        Self { report, category, details: BTreeMap::new(), output: None }
    }

    /// Attach a named detail value.
    pub fn with_detail(mut self, key: &str, value: f64) -> Self {
        self.details.insert(key.to_string(), value);
        self
    }

    /// Attach the canonical output payload.
    pub fn with_output(mut self, output: OutputPayload) -> Self {
        self.output = Some(output);
        self
    }

    /// Read a detail value.
    pub fn detail(&self, key: &str) -> Option<f64> {
        self.details.get(key).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_display() {
        assert_eq!(WorkloadCategory::OnlineServices.to_string(), "online services");
        assert_eq!(WorkloadCategory::OfflineAnalytics.to_string(), "offline analytics");
    }

    #[test]
    fn result_assembly_and_details() {
        let r = WorkloadResult::assemble(
            "micro/sort",
            "native",
            WorkloadCategory::OfflineAnalytics,
            UserMetrics { duration_secs: 1.0, operations: 10, ..Default::default() },
            OpCounts { record_ops: 100, float_ops: 0 },
            10,
        )
        .with_detail("items", 10.0);
        assert_eq!(r.report.workload, "micro/sort");
        assert_eq!(r.detail("items"), Some(10.0));
        assert_eq!(r.detail("missing"), None);
        assert!(r.output.is_none());
    }

    fn rows(lines: &[&str]) -> OutputPayload {
        OutputPayload::RowSet(lines.iter().map(|l| l.replace('|', "\u{1f}")).collect())
    }

    #[test]
    fn rowset_equality_ignores_row_order() {
        let a = rows(&["1|x", "2|y"]);
        let b = rows(&["2|y", "1|x"]);
        assert_eq!(a.diff(&b, 0.0), None);
        assert_eq!(a.digest(), b.digest());
        let c = rows(&["1|z"]);
        assert!(a.diff(&c, 0.0).is_some());
        assert_ne!(a.digest(), c.digest());
    }

    /// The digest and diff format goldens and verdicts are written in: an
    /// unsorted row set with a NULL, a `-0.0`, a float, text and a
    /// duplicate row hashes to the value the per-cell form computed.
    #[test]
    fn rowset_digest_and_diff_message_are_pinned() {
        use bdb_common::record::row_lines;
        use bdb_common::value::Value;
        let mut table = vec![
            vec![Value::from("b"), Value::Float(-0.0), Value::Int(3)],
            vec![Value::Null, Value::Float(2.5), Value::Int(-1)],
            vec![Value::from("a"), Value::Float(0.1), Value::Null],
            vec![Value::from("b"), Value::Float(-0.0), Value::Int(3)],
        ];
        let a = OutputPayload::RowSet(row_lines(&table));
        assert_eq!(format!("{:016x}", a.digest()), "7d8f737d05c1d07a");
        table[2][1] = Value::Float(0.25);
        let b = OutputPayload::RowSet(row_lines(&table));
        assert_eq!(
            a.diff(&b, 0.0).as_deref(),
            Some(r#"rowset entry 1 differs: "a|0.1|NULL" vs "a|0.25|NULL""#)
        );
        assert_eq!(
            a.diff(&OutputPayload::RowSet(vec![]), 0.0).as_deref(),
            Some("rowset size differs: 4 vs 0 entries")
        );
    }

    proptest::proptest! {
        /// What lets an engine emit rows unsorted: a row set built in
        /// emission order and one built from the `cmp_records`-sorted rows
        /// are the same payload — over typed (int, float, text) rows with
        /// NULLs, signed zeros and duplicate rows. Both hash to what the
        /// per-cell form (a `String` per cell, joined and sorted per call)
        /// hashed.
        #[test]
        fn rowset_digest_and_diff_ignore_emission_order(
            cells in proptest::collection::vec(
                (-4i64..4, -9i32..9, -1i8..4), // the lowest value of each stands for NULL
                0..40,
            ),
            dup in 0usize..40,
        ) {
            use bdb_common::record::{cmp_records, row_lines, Record};
            use bdb_common::value::Value;
            let mut emitted: Vec<Record> = cells
                .iter()
                .map(|&(i, f, t)| vec![
                    if i == -4 { Value::Null } else { Value::Int(i) },
                    if f == -9 { Value::Null } else { Value::Float(-f64::from(f) / 4.0) },
                    if t == -1 { Value::Null } else { Value::Text(format!("t{t}")) },
                ])
                .collect();
            if let Some(row) = emitted.get(dup).cloned() {
                emitted.push(row);
            }
            let mut sorted = emitted.clone();
            sorted.sort_by(cmp_records);
            let (a, b) = (OutputPayload::RowSet(row_lines(&emitted)), OutputPayload::RowSet(row_lines(&sorted)));
            proptest::prop_assert_eq!(a.digest(), b.digest());
            proptest::prop_assert_eq!(a.diff(&b, 0.0), None);
            let per_cell_digest = {
                let mut lines: Vec<String> = emitted
                    .iter()
                    .map(|r| r.iter().map(ToString::to_string).collect::<Vec<_>>().join("\u{1f}"))
                    .collect();
                lines.sort_unstable();
                let mut h = Fnv1a::new();
                h.write(b"rowset\x1e");
                for line in &lines {
                    h.write(line.as_bytes());
                    h.write(&[0x1e]);
                }
                h.finish()
            };
            proptest::prop_assert_eq!(a.digest(), per_cell_digest);
        }
    }

    #[test]
    fn ordered_equality_is_positional() {
        let a = OutputPayload::Ordered(vec!["w1".into(), "w2".into()]);
        let b = OutputPayload::Ordered(vec!["w2".into(), "w1".into()]);
        assert!(a.diff(&b, 0.0).is_some());
        assert_eq!(a.diff(&a.clone(), 0.0), None);
    }

    #[test]
    fn numeric_equality_uses_epsilon() {
        let a = OutputPayload::Numeric(vec![("rank0".into(), 100.0)]);
        let close = OutputPayload::Numeric(vec![("rank0".into(), 100.0 + 1e-7)]);
        let far = OutputPayload::Numeric(vec![("rank0".into(), 101.0)]);
        assert_eq!(a.diff(&close, 1e-6), None);
        assert!(a.diff(&far, 1e-6).is_some());
        // Shape mismatches are always reported.
        assert!(a.diff(&OutputPayload::Ordered(vec![]), 1e-6).is_some());
    }

    #[test]
    fn digest_separates_shapes() {
        let rows = rows(&["a"]);
        let ordered = OutputPayload::Ordered(vec!["a".into()]);
        assert_ne!(rows.digest(), ordered.digest());
        assert_eq!(rows.len(), 1);
        assert!(!rows.is_empty());
        assert!(OutputPayload::Numeric(vec![]).is_empty());
    }
}
