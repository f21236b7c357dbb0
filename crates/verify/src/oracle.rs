//! The reference interpreter: a naive, obviously-correct implementation
//! of every operation class, used as the differential oracle.
//!
//! Each oracle re-derives the result an engine should have produced,
//! sharing only the low-level substrate that *defines* the semantics
//! (the seeded RNG tree, `Value` comparison, the generated data sets) —
//! never the engine's execution path. Relational DAGs run through a
//! straight-line interpreter over rows it borrows from the input tables
//! (an operation builds rows only when its output is new: project,
//! count, distinct, aggregate, join); graph kernels use
//! union-find and a from-scratch power iteration instead of CSR
//! label propagation. The YCSB mix definition (each op kind's share, the
//! record, op and client-stream counts) is part of what defines the
//! semantics, so the oracle reads it from [`KvEngine::workload`], as the kv
//! engine does, and replays the client streams serially instead of on
//! concurrent threads over the LSM.

use bdb_common::prelude::*;
use bdb_common::record::row_lines;
use bdb_datagen::Dataset;
use bdb_exec::engine::{ExecutionRequest, KvEngine, WorkloadClass};
use bdb_testgen::ops::{AggSpec, CompareOp, Operation, ScalarSpec};
use bdb_testgen::pattern::{InputRef, WorkloadPattern};
use bdb_workloads::search::PageRankConfig;
use bdb_workloads::social::{self, KMeansConfig};
use bdb_workloads::OutputPayload;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

/// Compute the reference result for a request, as the payload the
/// dispatched engine is expected to match.
///
/// # Errors
/// Fails when the prescription references data sets or columns the
/// request does not provide — the same shapes the engines reject.
pub fn oracle_payload(req: &ExecutionRequest<'_>) -> Result<OutputPayload> {
    match WorkloadClass::of(req.prescription) {
        WorkloadClass::Text => text_oracle(req),
        WorkloadClass::Behavioral => behavioral_oracle(req),
        WorkloadClass::Windowed => windowed_oracle(req),
        WorkloadClass::Iterative => iterative_oracle(req),
        WorkloadClass::Element => element_oracle(req),
        WorkloadClass::Relational => relational_oracle(req),
    }
}

// ---------------------------------------------------------------------
// Text kernels
// ---------------------------------------------------------------------

fn text_oracle(req: &ExecutionRequest<'_>) -> Result<OutputPayload> {
    let (docs, vocab) = req
        .datasets
        .values()
        .find_map(|d| match d {
            Dataset::Text { docs, vocab } => Some((docs.as_slice(), vocab)),
            _ => None,
        })
        .ok_or_else(|| {
            BdbError::Execution(format!(
                "oracle needs a text data set for prescription {}",
                req.prescription.name
            ))
        })?;
    let ops = req.prescription.pattern.operations();
    if let Some(Operation::Grep { pattern }) =
        ops.iter().find(|o| matches!(o, Operation::Grep { .. }))
    {
        let hits: Vec<String> = match vocab.id(pattern) {
            Some(t) => docs
                .iter()
                .enumerate()
                .filter(|(_, d)| d.words.contains(&t))
                .map(|(i, _)| i.to_string())
                .collect(),
            None => Vec::new(),
        };
        return Ok(OutputPayload::Ordered(hits));
    }
    let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
    for d in docs {
        for &w in &d.words {
            *counts.entry(w).or_insert(0) += 1;
        }
    }
    Ok(OutputPayload::RowSet(row_lines(counts.into_iter().map(|(w, c)| [u64::from(w), c]))))
}

// ---------------------------------------------------------------------
// Behavioral analytics
// ---------------------------------------------------------------------

/// Naive batch reference for the behavioral operation class. Every
/// computation here is the textbook O(n·m) formulation over the
/// `(ts, action)`-sorted per-user sequence — deliberately different code
/// from the engines' bounded-state aggregates (the funnel uses an
/// anchor-by-anchor forward scan, not the engines' dynamic program).
fn behavioral_oracle(req: &ExecutionRequest<'_>) -> Result<OutputPayload> {
    let events = req
        .datasets
        .values()
        .find_map(|d| match d {
            Dataset::Stream(e) => Some(e.as_slice()),
            _ => None,
        })
        .ok_or_else(|| BdbError::Execution("oracle needs a stream data set".into()))?;
    // Behavioral results are defined on the event-time-ordered per-user
    // sequence, independent of arrival order.
    let mut users: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for e in events {
        users.entry(e.key).or_default().push((e.ts_ms, e.value as u64));
    }
    for seq in users.values_mut() {
        seq.sort_unstable();
    }
    let ops = req.prescription.pattern.operations();
    let op = ops
        .iter()
        .find(|o| {
            matches!(
                o,
                Operation::Sessionize { .. }
                    | Operation::Retention { .. }
                    | Operation::WindowFunnel { .. }
                    | Operation::SequenceMatch { .. }
            )
        })
        .ok_or_else(|| BdbError::Execution("oracle needs a behavioral operation".into()))?;
    let rows: Vec<String> = match op {
        Operation::Sessionize { gap_ms } => row_lines(users.iter().map(|(user, seq)| {
            let sessions =
                1 + seq.windows(2).filter(|w| w[1].0 - w[0].0 > *gap_ms).count() as u64;
            [*user, sessions, seq.len() as u64]
        })),
        Operation::Retention { period_ms, periods } => {
            // One period set per user; periods past 63 clamp to 63 (the
            // engines' documented 64-bit cohort-mask saturation).
            let total = users.len() as u64;
            let sets: Vec<BTreeSet<u64>> = users
                .values()
                .map(|seq| {
                    seq.iter().map(|(ts, _)| (ts / (*period_ms).max(1)).min(63)).collect()
                })
                .collect();
            row_lines((0..(*periods).min(64)).map(|d| {
                let returned = sets
                    .iter()
                    .filter(|s| {
                        s.first().is_some_and(|c| {
                            c + u64::from(d) < 64 && s.contains(&(c + u64::from(d)))
                        })
                    })
                    .count() as u64;
                [u64::from(d), returned, total]
            }))
        }
        Operation::WindowFunnel { window_ms, steps } => {
            // A duplicate step action counts for its first matching step.
            let step_of = |action: u64| steps.iter().position(|&a| a == action);
            row_lines(users.iter().map(|(user, seq)| {
                let mut best = 0u64;
                for (i, &(t0, a0)) in seq.iter().enumerate() {
                    if step_of(a0) != Some(0) {
                        continue;
                    }
                    let mut level = 1usize;
                    for &(ts, action) in &seq[i + 1..] {
                        if level >= steps.len() || ts - t0 > *window_ms {
                            break;
                        }
                        if step_of(action) == Some(level) {
                            level += 1;
                        }
                    }
                    best = best.max(level as u64);
                }
                [*user, best]
            }))
        }
        Operation::SequenceMatch { steps } => row_lines(users.iter().map(|(user, seq)| {
            let mut ptr = 0usize;
            for &(_, action) in seq {
                if ptr < steps.len() && action == steps[ptr] {
                    ptr += 1;
                }
            }
            let hit = u64::from(ptr == steps.len());
            [*user, ptr as u64, hit]
        })),
        _ => unreachable!("filtered to behavioral operations above"),
    };
    Ok(OutputPayload::RowSet(rows))
}

// ---------------------------------------------------------------------
// Windowed streams
// ---------------------------------------------------------------------

fn windowed_oracle(req: &ExecutionRequest<'_>) -> Result<OutputPayload> {
    let window_ms = req
        .prescription
        .pattern
        .operations()
        .iter()
        .find_map(|o| match o {
            Operation::WindowAggregate { window_ms, .. } => Some(*window_ms),
            _ => None,
        })
        .ok_or_else(|| BdbError::Execution("oracle needs a window-aggregate operation".into()))?;
    if window_ms == 0 {
        return Err(BdbError::Execution("zero-width window".into()));
    }
    let events = req
        .datasets
        .values()
        .find_map(|d| match d {
            Dataset::Stream(e) => Some(e.as_slice()),
            _ => None,
        })
        .ok_or_else(|| BdbError::Execution("oracle needs a stream data set".into()))?;
    // Tumbling panes under the zero-lateness watermark contract: an event
    // only counts while its window is still open (start + size >
    // watermark); the watermark is the largest timestamp seen so far.
    let mut watermark = 0u64;
    let mut panes: BTreeMap<(u64, u64), (u64, f64, f64, f64)> = BTreeMap::new();
    for e in events {
        let start = (e.ts_ms / window_ms) * window_ms;
        if start + window_ms > watermark {
            let p = panes
                .entry((start, e.key))
                .or_insert((0, 0.0, f64::INFINITY, f64::NEG_INFINITY));
            p.0 += 1;
            p.1 += e.value;
            p.2 = p.2.min(e.value);
            p.3 = p.3.max(e.value);
        }
        watermark = watermark.max(e.ts_ms);
    }
    Ok(OutputPayload::Ordered(
        panes
            .into_iter()
            .map(|((start, key), (count, sum, min, max))| {
                format!(
                    "{}|{}|{}|{}|{:?}|{:?}|{:?}",
                    start,
                    start + window_ms,
                    key,
                    count,
                    sum,
                    min,
                    max
                )
            })
            .collect(),
    ))
}

// ---------------------------------------------------------------------
// Iterative kernels
// ---------------------------------------------------------------------

fn iterative_oracle(req: &ExecutionRequest<'_>) -> Result<OutputPayload> {
    let agg = match &req.prescription.pattern {
        WorkloadPattern::Iterative { body, .. } => body.iter().find_map(|s| match &s.op {
            Operation::Aggregate { function, .. } => Some(*function),
            _ => None,
        }),
        _ => None,
    };
    if let Some(Dataset::Graph(g)) =
        req.datasets.values().find(|d| matches!(d, Dataset::Graph(_)))
    {
        let vals = if agg == Some(AggSpec::Min) {
            cc_union_find(g.num_vertices(), g.edges())
        } else {
            pagerank_reference(g.num_vertices(), g.edges(), &PageRankConfig::default())
        };
        return Ok(OutputPayload::Numeric(
            vals.into_iter().enumerate().map(|(i, v)| (format!("v{i}"), v)).collect(),
        ));
    }
    let table = req
        .datasets
        .values()
        .find_map(|d| match d {
            Dataset::Table(t) => Some(t),
            _ => None,
        })
        .ok_or_else(|| {
            BdbError::Execution("iterative oracle needs a graph or table data set".into())
        })?;
    let points = social::points_from_table(table)?;
    let centroids = kmeans_reference(&points, &KMeansConfig::default(), req.seed);
    Ok(OutputPayload::Numeric(
        centroids
            .into_iter()
            .enumerate()
            .flat_map(|(i, c)| {
                c.into_iter()
                    .enumerate()
                    .map(move |(d, x)| (format!("c{i}.{d}"), x))
                    .collect::<Vec<_>>()
            })
            .collect(),
    ))
}

/// Connected components by union-find over the undirected closure,
/// labelling every vertex with the smallest vertex id in its component —
/// the fixpoint min-label propagation converges to, computed without
/// iterating.
fn cc_union_find(n: usize, edges: &[(u32, u32)]) -> Vec<f64> {
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for &(u, v) in edges {
        let (ru, rv) = (find(&mut parent, u as usize), find(&mut parent, v as usize));
        if ru != rv {
            parent[ru] = rv;
        }
    }
    let mut min_label: Vec<usize> = (0..n).collect();
    for v in 0..n {
        let r = find(&mut parent, v);
        min_label[r] = min_label[r].min(v);
    }
    (0..n).map(|v| min_label[find(&mut parent, v)] as f64).collect()
}

/// Power iteration with dangling-mass redistribution, written over the
/// raw edge list (no CSR) with the same damping/epsilon/cap contract as
/// the engines' kernels.
fn pagerank_reference(n: usize, edges: &[(u32, u32)], config: &PageRankConfig) -> Vec<f64> {
    if n == 0 {
        return Vec::new();
    }
    let d = config.damping;
    let mut out_deg = vec![0u64; n];
    for &(u, _) in edges {
        out_deg[u as usize] += 1;
    }
    let mut ranks = vec![1.0 / n as f64; n];
    for _ in 0..config.max_iterations {
        let mut next = vec![0.0f64; n];
        let mut dangling = 0.0;
        for v in 0..n {
            if out_deg[v] == 0 {
                dangling += ranks[v];
            }
        }
        for &(u, v) in edges {
            next[v as usize] += ranks[u as usize] / out_deg[u as usize] as f64;
        }
        let base = (1.0 - d) / n as f64 + d * dangling / n as f64;
        let mut residual = 0.0;
        for v in 0..n {
            next[v] = base + d * next[v];
            residual += (next[v] - ranks[v]).abs();
        }
        ranks = next;
        if residual < config.epsilon {
            break;
        }
    }
    ranks
}

/// Naive Lloyd iteration. The seeded initialisation (a Fisher–Yates
/// shuffle of point indices under the run seed's "init" child) is part of
/// the prescription's semantics, so the oracle replays it; everything
/// after — assignment to the first strictly-nearest centroid, mean
/// update, movement-based stop — is re-derived independently.
fn kmeans_reference(points: &[Vec<f64>], config: &KMeansConfig, seed: u64) -> Vec<Vec<f64>> {
    if points.is_empty() || config.k == 0 {
        return Vec::new();
    }
    let mut rng = SeedTree::new(seed).child_named("init").rng();
    let mut idx: Vec<usize> = (0..points.len()).collect();
    rng.shuffle(&mut idx);
    let mut centroids: Vec<Vec<f64>> =
        (0..config.k).map(|i| points[idx[i % idx.len()]].clone()).collect();
    let dims = points[0].len();
    let d2 = |a: &[f64], b: &[f64]| -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    };
    for _ in 0..config.max_iterations {
        let mut sums = vec![vec![0.0f64; dims]; config.k];
        let mut counts = vec![0u64; config.k];
        for p in points {
            let mut best = 0;
            let mut best_d = d2(p, &centroids[0]);
            for (c, centroid) in centroids.iter().enumerate().skip(1) {
                let dist = d2(p, centroid);
                if dist < best_d {
                    best_d = dist;
                    best = c;
                }
            }
            for (s, x) in sums[best].iter_mut().zip(p) {
                *s += x;
            }
            counts[best] += 1;
        }
        let mut movement = 0.0;
        for c in 0..config.k {
            if counts[c] == 0 {
                continue;
            }
            let new: Vec<f64> = sums[c].iter().map(|s| s / counts[c] as f64).collect();
            movement += d2(&centroids[c], &new).sqrt();
            centroids[c] = new;
        }
        if movement < config.epsilon {
            break;
        }
    }
    centroids
}

// ---------------------------------------------------------------------
// Element mixes (YCSB)
// ---------------------------------------------------------------------

/// Serial replay of the YCSB driver's per-client operation streams, on
/// the mix [`KvEngine::workload`] defines. Each client's stream is
/// independently seeded, the first `operation_count % clients` clients run
/// one extra op, an insert allocates from a contiguous id range, and point
/// reads target only the (never-deleted) preloaded keys — so the op counts
/// and final key population the concurrent driver reports are exactly
/// reproducible one client at a time, without a store.
fn element_oracle(req: &ExecutionRequest<'_>) -> Result<OutputPayload> {
    let (spec, config) = KvEngine::workload(req)?;
    let clients = config.clients as u64;
    let zipf = Zipf::new(config.record_count.max(1), spec.zipf_exponent.max(0.01));
    let tree = SeedTree::new(req.seed);

    let (mut reads, mut updates, mut inserts, mut scans, mut rmws) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for client in 0..clients {
        let mut rng = tree.child_named("run").child(client).rng();
        let client_ops =
            config.operation_count / clients + u64::from(client < config.operation_count % clients);
        for _ in 0..client_ops {
            let u = rng.next_f64();
            // The driver samples the zipfian key before branching; replay
            // the draw to keep the per-client stream aligned.
            let _key = zipf.sample(&mut rng);
            if u < spec.read {
                reads += 1;
            } else if u < spec.read + spec.update {
                updates += 1;
            } else if u < spec.read + spec.update + spec.insert {
                inserts += 1;
            } else if u < spec.read + spec.update + spec.insert + spec.scan {
                scans += 1;
            } else {
                rmws += 1;
            }
        }
    }
    Ok(OutputPayload::Numeric(vec![
        ("final_keys".into(), (config.record_count + inserts) as f64),
        ("inserts".into(), inserts as f64),
        ("read_hits".into(), reads as f64),
        ("reads".into(), reads as f64),
        ("rmws".into(), rmws as f64),
        ("scans".into(), scans as f64),
        ("updates".into(), updates as f64),
    ]))
}

// ---------------------------------------------------------------------
// Relational DAGs
// ---------------------------------------------------------------------

/// A borrowed `Value` under the reference order, written apart from the
/// engines' `Value::total_cmp` on purpose: `cmp_values`, falling back to
/// the display-string order for incomparable pairs. The two agree on typed
/// columns (`ord_val_agrees_with_total_cmp_on_typed_columns`).
#[derive(Debug, Clone, Copy)]
struct OrdVal<'v>(&'v Value);

impl Ord for OrdVal<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .cmp_values(other.0)
            .unwrap_or_else(|| self.0.to_string().cmp(&other.0.to_string()))
    }
}
impl PartialOrd for OrdVal<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl PartialEq for OrdVal<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for OrdVal<'_> {}

/// An intermediate relation: named columns over rows that are either lent
/// by an input table or built by an earlier operation.
#[derive(Debug)]
struct Rel<'a> {
    cols: Vec<String>,
    rows: Vec<Cow<'a, [Value]>>,
}

impl<'a> Rel<'a> {
    /// The table's rows, lent: no `Value` is copied.
    fn from_table(t: &'a Table) -> Self {
        Self {
            cols: t.schema().fields().iter().map(|f| f.name.clone()).collect(),
            rows: t.rows().iter().map(|r| Cow::Borrowed(r.as_slice())).collect(),
        }
    }

    fn col(&self, name: &str) -> Result<usize> {
        self.cols
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| BdbError::NotFound(format!("column {name}")))
    }

    /// The same columns over a subset or reordering of these rows.
    fn with_rows(&self, rows: Vec<Cow<'a, [Value]>>) -> Self {
        Self { cols: self.cols.clone(), rows }
    }
}

fn scalar_value(s: &ScalarSpec) -> Value {
    match s {
        ScalarSpec::Int(i) => Value::Int(*i),
        ScalarSpec::Float(f) => Value::Float(*f),
        ScalarSpec::Text(t) => Value::Text(t.clone()),
    }
}

fn relational_oracle(req: &ExecutionRequest<'_>) -> Result<OutputPayload> {
    let data: BTreeMap<&str, Rel<'_>> = req
        .datasets
        .iter()
        .filter_map(|(k, v)| match v {
            Dataset::Table(t) => Some((k.as_str(), Rel::from_table(t))),
            _ => None,
        })
        .collect();
    let data_rel = |name: &str| {
        data.get(name).ok_or_else(|| BdbError::NotFound(format!("data set {name}")))
    };
    let out = match &req.prescription.pattern {
        WorkloadPattern::Single { op, input } => apply(op, &[data_rel(input)?])?,
        WorkloadPattern::Multi { steps } => {
            let mut outs: BTreeMap<u32, Rel<'_>> = BTreeMap::new();
            let mut last = None;
            for step in steps {
                let inputs: Vec<&Rel<'_>> = step
                    .inputs
                    .iter()
                    .map(|r| match r {
                        InputRef::Dataset(d) => data_rel(d),
                        InputRef::Step(id) => outs
                            .get(id)
                            .ok_or_else(|| BdbError::Execution(format!("step {id} not run"))),
                    })
                    .collect::<Result<_>>()?;
                let out = apply(&step.op, &inputs)?;
                outs.insert(step.id, out);
                last = Some(step.id);
            }
            last.and_then(|id| outs.remove(&id))
                .ok_or_else(|| BdbError::Execution("empty multi-operation pattern".into()))?
        }
        WorkloadPattern::Iterative { .. } => {
            return Err(BdbError::Execution(
                "iterative patterns take the kernel oracles, not the relational one".into(),
            ))
        }
    };
    Ok(OutputPayload::RowSet(row_lines(out.rows.iter().map(|row| row.iter()))))
}

/// One operation over its inputs, with the Execution Layer's documented
/// semantics: SQL three-valued predicates (NULL comparisons filter out),
/// nulls sort first, aggregates skip nulls, joins drop null keys. Select,
/// sort, top-k, union and intersect pass their input rows on; only
/// project, count, distinct, aggregate and join build rows.
fn apply<'a>(op: &Operation, inputs: &[&Rel<'a>]) -> Result<Rel<'a>> {
    let one = || -> Result<&Rel<'a>> {
        inputs.first().copied().ok_or_else(|| BdbError::Execution("missing input".into()))
    };
    let two = || -> Result<(&Rel<'a>, &Rel<'a>)> {
        match inputs {
            [a, b, ..] => Ok((a, b)),
            _ => Err(BdbError::Execution("double-set operation needs two inputs".into())),
        }
    };
    let built = |cols: Vec<String>, rows: Vec<Record>| Rel {
        cols,
        rows: rows.into_iter().map(Cow::Owned).collect(),
    };
    match op {
        Operation::Select { predicate } => {
            let rel = one()?;
            let idx = rel.col(&predicate.column)?;
            let lit = scalar_value(&predicate.value);
            let rows = rel
                .rows
                .iter()
                .filter(|row| {
                    let v = &row[idx];
                    if v.is_null() || lit.is_null() {
                        return false;
                    }
                    match v.cmp_values(&lit) {
                        Some(ord) => match predicate.op {
                            CompareOp::Eq => ord == Ordering::Equal,
                            CompareOp::Ne => ord != Ordering::Equal,
                            CompareOp::Lt => ord == Ordering::Less,
                            CompareOp::Le => ord != Ordering::Greater,
                            CompareOp::Gt => ord == Ordering::Greater,
                            CompareOp::Ge => ord != Ordering::Less,
                        },
                        None => false,
                    }
                })
                .cloned()
                .collect();
            Ok(rel.with_rows(rows))
        }
        Operation::Project { columns } => {
            let rel = one()?;
            let idx: Vec<usize> =
                columns.iter().map(|c| rel.col(c)).collect::<Result<_>>()?;
            let rows = rel.rows.iter().map(|row| idx.iter().map(|&i| row[i].clone()).collect());
            Ok(built(columns.clone(), rows.collect()))
        }
        Operation::SortBy { column, descending } => {
            let rel = one()?;
            let idx = rel.col(column)?;
            let mut rows = rel.rows.clone();
            rows.sort_by(|a, b| {
                let ord = OrdVal(&a[idx]).cmp(&OrdVal(&b[idx]));
                if *descending {
                    ord.reverse()
                } else {
                    ord
                }
            });
            Ok(rel.with_rows(rows))
        }
        Operation::TopK { column, k } => {
            let rel = one()?;
            let idx = rel.col(column)?;
            let mut rows = rel.rows.clone();
            rows.sort_by(|a, b| OrdVal(&b[idx]).cmp(&OrdVal(&a[idx])));
            rows.truncate(*k);
            Ok(rel.with_rows(rows))
        }
        Operation::Count => {
            let rel = one()?;
            Ok(built(vec!["count".into()], vec![vec![Value::Int(rel.rows.len() as i64)]]))
        }
        Operation::Distinct { column } => {
            let rel = one()?;
            let idx = rel.col(column)?;
            let distinct: BTreeSet<OrdVal<'_>> =
                rel.rows.iter().map(|row| OrdVal(&row[idx])).collect();
            let rows = distinct.into_iter().map(|v| vec![v.0.clone()]).collect();
            Ok(built(vec![column.clone()], rows))
        }
        Operation::Aggregate { function, column, group_by } => {
            let rel = one()?;
            let gi: Vec<usize> = group_by.iter().map(|g| rel.col(g)).collect::<Result<_>>()?;
            let ci = column.as_ref().map(|c| rel.col(c)).transpose()?;
            // Group in input-row order so float accumulation matches the
            // engines' single-pass reducers bit for bit.
            static ONE: Value = Value::Int(1);
            let mut groups: BTreeMap<Vec<OrdVal<'_>>, Vec<&Value>> = BTreeMap::new();
            for row in &rel.rows {
                let key: Vec<OrdVal<'_>> = gi.iter().map(|&i| OrdVal(&row[i])).collect();
                groups.entry(key).or_default().push(ci.map_or(&ONE, |i| &row[i]));
            }
            let mut rows = Vec::with_capacity(groups.len());
            for (key, vs) in groups {
                let present = || vs.iter().copied().filter(|v| !v.is_null());
                let agg = match function {
                    AggSpec::Count => Value::Int(present().count() as i64),
                    // SQL's SUM: NULL when the group has no value to add.
                    AggSpec::Sum if present().next().is_none() => Value::Null,
                    AggSpec::Sum => {
                        if present().all(|v| matches!(v, Value::Int(_))) {
                            Value::Int(present().filter_map(Value::as_i64).sum())
                        } else {
                            Value::Float(present().filter_map(Value::as_f64).sum())
                        }
                    }
                    AggSpec::Avg => {
                        let xs: Vec<f64> = present().filter_map(Value::as_f64).collect();
                        if xs.is_empty() {
                            Value::Null
                        } else {
                            Value::Float(xs.iter().sum::<f64>() / xs.len() as f64)
                        }
                    }
                    AggSpec::Min => present()
                        .min_by(|a, b| OrdVal(a).cmp(&OrdVal(b)))
                        .cloned()
                        .unwrap_or(Value::Null),
                    AggSpec::Max => present()
                        .max_by(|a, b| OrdVal(a).cmp(&OrdVal(b)))
                        .cloned()
                        .unwrap_or(Value::Null),
                };
                let mut row: Record = key.iter().map(|k| k.0.clone()).collect();
                row.push(agg);
                rows.push(row);
            }
            let mut cols = group_by.clone();
            cols.push("agg".into());
            Ok(built(cols, rows))
        }
        Operation::Join { left_on, right_on } => {
            let (left, right) = two()?;
            let li = left.col(left_on)?;
            let ri = right.col(right_on)?;
            let mut by_key: BTreeMap<OrdVal<'_>, Vec<&[Value]>> = BTreeMap::new();
            for row in &right.rows {
                if !row[ri].is_null() {
                    by_key.entry(OrdVal(&row[ri])).or_default().push(row);
                }
            }
            let mut rows = Vec::new();
            for lrow in &left.rows {
                if lrow[li].is_null() {
                    continue;
                }
                for rrow in by_key.get(&OrdVal(&lrow[li])).into_iter().flatten() {
                    rows.push([&lrow[..], rrow].concat());
                }
            }
            let mut cols: Vec<String> =
                left.cols.iter().map(|c| format!("l.{c}")).collect();
            cols.extend(right.cols.iter().map(|c| format!("r.{c}")));
            Ok(built(cols, rows))
        }
        Operation::Union => {
            let (left, right) = two()?;
            if left.cols != right.cols {
                return Err(BdbError::Execution("union column mismatch".into()));
            }
            Ok(left.with_rows(left.rows.iter().chain(&right.rows).cloned().collect()))
        }
        Operation::IntersectOn { column } => {
            // Semi-join: a left row stays when its key equals some right
            // key under the reference order (NULL equals NULL).
            let (left, right) = two()?;
            let li = left.col(column)?;
            let ri = right.col(column)?;
            let keys: BTreeSet<OrdVal<'_>> = right.rows.iter().map(|row| OrdVal(&row[ri])).collect();
            let rows =
                left.rows.iter().filter(|row| keys.contains(&OrdVal(&row[li]))).cloned().collect();
            Ok(left.with_rows(rows))
        }
        other => Err(BdbError::Execution(format!(
            "operation {} has no relational oracle",
            other.name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conformance, VerifyMode};
    use bdb_exec::engine::{Engine, RoutingPolicy};
    use bdb_exec::{RunTrace, SystemConfig};
    use bdb_testgen::ops::PredicateSpec;
    use bdb_testgen::{PrescriptionRepository, SystemKind};

    /// The kv engine's answer and the oracle's for a built-in `oltp/*`
    /// prescription, after `edit`.
    fn kv_and_oracle(
        name: &str,
        scale: u64,
        edit: impl FnOnce(&mut bdb_testgen::Prescription),
    ) -> (Result<Vec<bdb_workloads::WorkloadResult>>, Result<OutputPayload>, bool) {
        let mut prescription = PrescriptionRepository::with_builtins().get(name).unwrap().clone();
        edit(&mut prescription);
        let (config, trace, datasets) = (SystemConfig::default(), RunTrace::new(), BTreeMap::new());
        let req = ExecutionRequest {
            prescription: &prescription,
            system: SystemKind::KeyValue,
            seed: 42,
            scale,
            datasets: &datasets,
            config: &config,
            trace: &trace,
            routing: RoutingPolicy::FirstCapable,
        };
        let results = KvEngine.execute(&req);
        let strict = results.as_ref().is_ok_and(|r| {
            Conformance::with_store(VerifyMode::Strict, None).check(&req, r)
        });
        (results, oracle_payload(&req), strict)
    }

    /// 602 ops over four clients: the first two run 151, the others 150.
    /// The engine runs every one, and the oracle replays the same split.
    #[test]
    fn kv_runs_every_op_of_an_uneven_split() {
        for name in ["oltp/read-mostly", "oltp/scan-heavy"] {
            let (results, _, strict) = kv_and_oracle(name, 301, |_| {});
            assert!(strict, "{name}: strict verification diverged");
            let Some(OutputPayload::Numeric(counts)) = &results.unwrap()[0].output else {
                panic!("{name}: kv attaches a numeric payload");
            };
            let issued: f64 = counts
                .iter()
                .filter(|(k, _)| ["reads", "updates", "inserts", "scans", "rmws"].contains(&k.as_str()))
                .map(|(_, v)| v)
                .sum();
            assert_eq!(issued, 602.0, "{name}: {counts:?}");
        }
    }

    /// The kv driver runs no deletes: a delete step is refused by name on
    /// the engine and in the oracle, which read one mix definition, instead
    /// of running as an insert.
    #[test]
    fn delete_step_is_refused_by_name() {
        let (engine, oracle, _) = kv_and_oracle("oltp/read-mostly", 100, |p| {
            p.name = "custom/get-delete".into();
            if let WorkloadPattern::Multi { steps } = &mut p.pattern {
                steps[1].op = Operation::DeleteKey { key: "zipfian".into() };
            }
        });
        let refusal = "kv engine does not run delete steps; prescription custom/get-delete has one";
        for err in [engine.unwrap_err(), oracle.unwrap_err()] {
            assert!(err.to_string().contains(refusal), "{err}");
        }
    }

    fn rel(cols: &[&str], rows: Vec<Vec<Value>>) -> Rel<'static> {
        Rel {
            cols: cols.iter().map(|c| (*c).to_string()).collect(),
            rows: rows.into_iter().map(Cow::Owned).collect(),
        }
    }

    fn rows_of(rel: &Rel<'_>) -> Vec<Vec<Value>> {
        rel.rows.iter().map(|r| r.to_vec()).collect()
    }

    /// The reference comparator and the engines' `Value::total_cmp` are
    /// written apart and must agree wherever a typed column can take them:
    /// one type plus NULL per column, an Int column against a Float one
    /// (join keys). They differ by design only off that ground: NaN, ints
    /// past 2^53 against floats, and mixed types (display-string order here,
    /// type rank there).
    #[test]
    fn ord_val_agrees_with_total_cmp_on_typed_columns() {
        let ints = [i64::MIN, -7, 0, 1, 1 << 53, i64::MAX].map(Value::Int);
        let floats = [f64::NEG_INFINITY, -7.0, -0.0, 0.0, 0.5, 1.0, 1e300, f64::INFINITY]
            .map(Value::Float);
        let typed_columns: Vec<Vec<Value>> = vec![
            ints.to_vec(),
            floats.to_vec(),
            ["", "10", "9", "a", "ab"].map(Value::from).to_vec(),
            [false, true].map(Value::Bool).to_vec(),
            [-5, 0, 5].map(Value::Timestamp).to_vec(),
            // Small ints against floats: what an Int-to-Float join compares.
            ints[1..4].iter().chain(&floats).cloned().collect(),
        ];
        for mut column in typed_columns {
            column.push(Value::Null);
            for a in &column {
                for b in &column {
                    let reference = OrdVal(a).cmp(&OrdVal(b));
                    assert_eq!(reference, a.total_cmp(b), "{a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn select_uses_three_valued_logic() {
        let r = rel(
            &["x"],
            vec![vec![Value::Int(1)], vec![Value::Null], vec![Value::Int(3)]],
        );
        let out = apply(
            &Operation::Select {
                predicate: PredicateSpec {
                    column: "x".into(),
                    op: CompareOp::Ge,
                    value: ScalarSpec::Int(2),
                },
            },
            &[&r],
        )
        .unwrap();
        // NULL >= 2 is NULL, which filters out — not "less".
        assert_eq!(rows_of(&out), vec![vec![Value::Int(3)]]);
    }

    /// A table's rows are lent and select / sort pass them on; only an
    /// operation that builds rows (here project) owns what it returns.
    #[test]
    fn table_rows_are_lent_and_passed_on() {
        use bdb_common::value::{DataType, Field, Schema};
        let mut t = Table::new(Schema::new(vec![Field::new("x", DataType::Int)]));
        for x in [3, 1, 2] {
            t.push(vec![Value::Int(x)]).unwrap();
        }
        let input = Rel::from_table(&t);
        let sorted =
            apply(&Operation::SortBy { column: "x".into(), descending: false }, &[&input])
                .unwrap();
        assert!(std::ptr::eq(sorted.rows[0].as_ptr(), t.rows()[1].as_ptr()));
        assert!(sorted.rows.iter().all(|r| matches!(r, Cow::Borrowed(_))));
        let projected =
            apply(&Operation::Project { columns: vec!["x".into()] }, &[&sorted]).unwrap();
        assert!(projected.rows.iter().all(|r| matches!(r, Cow::Owned(_))));
        assert_eq!(rows_of(&projected), rows_of(&sorted));
    }

    #[test]
    fn aggregate_sum_stays_integral_over_ints() {
        let r = rel(
            &["g", "v"],
            vec![
                vec![Value::from("a"), Value::Int(2)],
                vec![Value::from("a"), Value::Int(3)],
                vec![Value::from("b"), Value::Null],
            ],
        );
        let out = apply(
            &Operation::Aggregate {
                function: AggSpec::Sum,
                column: Some("v".into()),
                group_by: vec!["g".into()],
            },
            &[&r],
        )
        .unwrap();
        assert_eq!(out.cols, vec!["g".to_string(), "agg".to_string()]);
        // SQL's SUM: a group with nothing to add sums to NULL, not 0.
        let rows = rows_of(&out);
        assert!(rows.contains(&vec![Value::from("a"), Value::Int(5)]));
        assert!(rows.contains(&vec![Value::from("b"), Value::Null]));
    }

    #[test]
    fn join_drops_null_keys_and_cross_products() {
        let l = rel(
            &["k", "a"],
            vec![
                vec![Value::Int(1), Value::from("l1")],
                vec![Value::Int(1), Value::from("l2")],
                vec![Value::Null, Value::from("l3")],
            ],
        );
        let r = rel(
            &["k", "b"],
            vec![vec![Value::Int(1), Value::from("r1")], vec![Value::Int(1), Value::from("r2")]],
        );
        let out =
            apply(&Operation::Join { left_on: "k".into(), right_on: "k".into() }, &[&l, &r])
                .unwrap();
        assert_eq!(out.rows.len(), 4);
        assert_eq!(out.cols, vec!["l.k", "l.a", "r.k", "r.b"]);
    }

    /// The semi-join keys by the reference order, as the engines key by
    /// `Value::total_cmp`: `0` meets `-0.0` (whose display strings differ)
    /// and NULL meets NULL.
    #[test]
    fn intersect_keys_by_the_reference_order() {
        let l = rel(
            &["k"],
            vec![vec![Value::Int(0)], vec![Value::Null], vec![Value::Int(2)], vec![Value::Int(3)]],
        );
        let r = rel(&["k"], vec![vec![Value::Float(-0.0)], vec![Value::Null], vec![Value::Float(2.5)]]);
        let out = apply(&Operation::IntersectOn { column: "k".into() }, &[&l, &r]).unwrap();
        assert_eq!(rows_of(&out), vec![vec![Value::Int(0)], vec![Value::Null]]);
    }

    #[test]
    fn union_find_labels_are_component_minima() {
        // 0-1-2 form one component; 3 is isolated; 4-5 another.
        let labels = cc_union_find(6, &[(1, 0), (1, 2), (5, 4)]);
        assert_eq!(labels, vec![0.0, 0.0, 0.0, 3.0, 4.0, 4.0]);
    }

    #[test]
    fn pagerank_reference_sums_to_one() {
        let ranks = pagerank_reference(3, &[(0, 1), (1, 2), (2, 0)], &PageRankConfig::default());
        let total: f64 = ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "{total}");
        // A 3-cycle is symmetric: every vertex holds 1/3.
        for r in ranks {
            assert!((r - 1.0 / 3.0).abs() < 1e-9);
        }
    }
}
