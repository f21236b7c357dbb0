//! Pluggable engine backends for the Execution Layer.
//!
//! "The Execution Layer offers several functions to support the execution
//! of benchmark tests over different software stacks." Each software
//! stack is an [`Engine`]: it declares [`Capabilities`] — which
//! [`SystemKind`]s it implements, which data kinds, operation classes and
//! pattern shapes it can execute — and runs an [`ExecutionRequest`] into
//! workload results. An [`EngineRegistry`] routes a prescribed test by
//! capability match, in one fixed order: engines implementing the
//! requested system (the *explicit* partition) first, then capability
//! fallbacks in registration order — BigOP-style mapping of abstract
//! operations onto the first capable system. Adding a backend is a
//! registry entry, not a pipeline edit.
//!
//! There is one dispatch entry point: [`EngineRegistry::dispatch`] runs
//! the one routed engine once, under [`crate::fault::run_with_fault`]
//! (seeded fault injection when the run has a fault plan, and a panic
//! turned into a named error). When that engine fails, its error is the
//! run's result.

use crate::config::SystemConfig;
use crate::fault::{self, FaultInjector, FaultSite};
use crate::trace::RunTrace;
use bdb_common::record::{row_lines, Table};
use bdb_common::text::{Document, Vocabulary};
use bdb_common::{pool, BdbError, Result};
use bdb_datagen::{DataSourceKind, Dataset};
use bdb_mapreduce::JobConfig;
use bdb_metrics::{MetricsCollector, OpCounts};
use bdb_testgen::bind::{MapReduceBinding, PatternExecutor, SqlBinding};
use bdb_testgen::ops::{AggSpec, Operation};
use bdb_testgen::pattern::WorkloadPattern;
use bdb_testgen::{Prescription, SystemKind};
use bdb_workloads::{
    behavioral, micro, oltp, search, social, streaming, OutputPayload, Work, WorkloadCategory,
    WorkloadResult,
};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// The shape of a prescription's workload pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PatternShape {
    /// One operation.
    Single,
    /// A finite DAG of operations.
    Multi,
    /// A body repeated until a stopping condition holds.
    Iterative,
}

impl PatternShape {
    /// The shape of a concrete pattern.
    pub fn of(pattern: &WorkloadPattern) -> Self {
        match pattern {
            WorkloadPattern::Single { .. } => PatternShape::Single,
            WorkloadPattern::Multi { .. } => PatternShape::Multi,
            WorkloadPattern::Iterative { .. } => PatternShape::Iterative,
        }
    }
}

impl std::fmt::Display for PatternShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PatternShape::Single => "single",
            PatternShape::Multi => "multi",
            PatternShape::Iterative => "iterative",
        })
    }
}

/// The operation class a prescribed test belongs to.
///
/// The classes partition the operation taxonomy the way the old dispatch
/// chain did, in the same precedence order: windowed stream operations,
/// text kernels, iterative patterns, element-operation mixes, and
/// relational (single/double-set) table operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WorkloadClass {
    /// Behavioral analytics over a user event stream (sessionize,
    /// retention, window-funnel, sequence-match).
    Behavioral,
    /// Windowed aggregation over an event stream.
    Windowed,
    /// Text kernels (WordCount, grep).
    Text,
    /// Iterative convergence workloads (PageRank, k-means, components).
    Iterative,
    /// Element-operation mixes (get/put/scan — Cloud OLTP).
    Element,
    /// Single/double-set table operations (select, aggregate, join, …).
    Relational,
}

/// The element operations (get/put/update/delete/scan) that make a
/// prescription an [`WorkloadClass::Element`] mix and that the kv engine
/// turns into its operation proportions.
fn is_element_op(op: &Operation) -> bool {
    matches!(
        op,
        Operation::Get { .. }
            | Operation::Put { .. }
            | Operation::UpdateKey { .. }
            | Operation::DeleteKey { .. }
            | Operation::ScanRange { .. }
    )
}

impl WorkloadClass {
    /// Classify a prescription by its pattern and operations, with the
    /// same precedence the Execution Layer uses for routing.
    pub fn of(prescription: &Prescription) -> Self {
        let ops = prescription.pattern.operations();
        if ops.iter().any(|o| {
            matches!(
                o,
                Operation::Sessionize { .. }
                    | Operation::Retention { .. }
                    | Operation::WindowFunnel { .. }
                    | Operation::SequenceMatch { .. }
            )
        }) {
            return WorkloadClass::Behavioral;
        }
        if ops.iter().any(|o| matches!(o, Operation::WindowAggregate { .. })) {
            return WorkloadClass::Windowed;
        }
        if ops
            .iter()
            .any(|o| matches!(o, Operation::WordCount | Operation::Grep { .. }))
        {
            return WorkloadClass::Text;
        }
        if matches!(prescription.pattern, WorkloadPattern::Iterative { .. }) {
            return WorkloadClass::Iterative;
        }
        if ops.iter().any(|o| is_element_op(o)) {
            return WorkloadClass::Element;
        }
        WorkloadClass::Relational
    }

    /// The Table 2 category a result of this class is filed under: text
    /// and iterative kernels are offline analytics; relational, windowed
    /// and behavioral queries real-time analytics; element mixes online
    /// services.
    pub fn category(self) -> WorkloadCategory {
        match self {
            WorkloadClass::Text | WorkloadClass::Iterative => WorkloadCategory::OfflineAnalytics,
            WorkloadClass::Relational | WorkloadClass::Windowed | WorkloadClass::Behavioral => {
                WorkloadCategory::RealTimeAnalytics
            }
            WorkloadClass::Element => WorkloadCategory::OnlineServices,
        }
    }
}

impl std::fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WorkloadClass::Behavioral => "behavioral",
            WorkloadClass::Windowed => "windowed",
            WorkloadClass::Text => "text",
            WorkloadClass::Iterative => "iterative",
            WorkloadClass::Element => "element",
            WorkloadClass::Relational => "relational",
        })
    }
}

/// What an engine can execute.
#[derive(Debug, Clone)]
pub struct Capabilities {
    /// The [`SystemKind`]s this engine implements.
    pub systems: Vec<SystemKind>,
    /// Operation classes the engine executes.
    pub classes: Vec<WorkloadClass>,
    /// Data kinds the engine consumes.
    pub data_kinds: Vec<DataSourceKind>,
    /// Pattern shapes the engine understands.
    pub patterns: Vec<PatternShape>,
}

impl Capabilities {
    /// Can the engine execute a test with this profile? True when the
    /// shape and class are supported and every present data kind is
    /// consumable.
    pub fn supports(&self, profile: &TestProfile) -> bool {
        self.patterns.contains(&profile.shape)
            && self.classes.contains(&profile.class)
            && profile.data_kinds.iter().all(|k| self.data_kinds.contains(k))
    }

    /// True when the engine implements `system`.
    pub fn implements(&self, system: SystemKind) -> bool {
        self.systems.contains(&system)
    }

    /// One-line rendering for `bdbench list`.
    pub fn summary(&self) -> String {
        let join = |parts: Vec<String>| parts.join(",");
        format!(
            "systems={} classes={} data={} patterns={}",
            join(self.systems.iter().map(|s| s.to_string()).collect()),
            join(self.classes.iter().map(|c| c.to_string()).collect()),
            join(self.data_kinds.iter().map(|k| k.to_string()).collect()),
            join(self.patterns.iter().map(|p| p.to_string()).collect()),
        )
    }
}

/// The routing-relevant profile of a prescribed test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestProfile {
    /// Pattern shape.
    pub shape: PatternShape,
    /// Operation class.
    pub class: WorkloadClass,
    /// Kinds of the input data sets, sorted and distinct.
    pub data_kinds: Vec<DataSourceKind>,
}

impl TestProfile {
    fn of(prescription: &Prescription, kinds: impl IntoIterator<Item = DataSourceKind>) -> Self {
        TestProfile {
            shape: PatternShape::of(&prescription.pattern),
            class: WorkloadClass::of(prescription),
            data_kinds: kinds.into_iter().collect::<BTreeSet<_>>().into_iter().collect(),
        }
    }

    /// The profile a prescription declares, from each `DataSpec.source`
    /// — known before any data is generated, and equal to
    /// [`ExecutionRequest::profile`] over the generated data.
    ///
    /// # Errors
    /// Fails when a data spec declares an unknown source kind.
    pub fn declared(prescription: &Prescription) -> Result<Self> {
        let kinds: Vec<DataSourceKind> =
            prescription.data.iter().map(|d| d.source.parse()).collect::<Result<_>>()?;
        Ok(Self::of(prescription, kinds))
    }
}

/// Everything an engine needs to execute one prescribed test.
#[derive(Debug)]
pub struct ExecutionRequest<'a> {
    /// The abstract test to execute.
    pub prescription: &'a Prescription,
    /// The system the spec requested.
    pub system: SystemKind,
    /// Master seed of the run.
    pub seed: u64,
    /// Data volume (items) of the run.
    pub scale: u64,
    /// The generated input data sets, by prescription data-spec name.
    pub datasets: &'a BTreeMap<String, Dataset>,
    /// Engine configuration.
    pub config: &'a SystemConfig,
    /// The run's structured event sink.
    pub trace: &'a RunTrace,
    /// Read by nothing; see [`RoutingPolicy`].
    pub routing: RoutingPolicy,
}

/// The one order the registry routes in. `benchmark/API.md` pins
/// `BenchmarkSpec.routing` and `ExecutionRequest.routing`, so the type
/// survives until ROADMAP item 11's `[benchmark]` change deletes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Explicit system first, then registration order.
    #[default]
    FirstCapable,
}

impl<'a> ExecutionRequest<'a> {
    /// The routing profile of this request.
    pub fn profile(&self) -> TestProfile {
        TestProfile::of(self.prescription, self.datasets.values().map(Dataset::kind))
    }

    /// The MapReduce job configuration derived from the system config.
    pub fn job_config(&self) -> JobConfig {
        JobConfig { workers: self.config.threads, ..JobConfig::default() }
    }

    fn text_dataset(&self) -> Result<(&Vec<Document>, &Vocabulary)> {
        self.datasets
            .values()
            .find_map(|d| match d {
                Dataset::Text { docs, vocab } => Some((docs, vocab)),
                _ => None,
            })
            .ok_or_else(|| BdbError::Execution("prescription needs a text data set".into()))
    }

    /// Lend the table data sets by name — the lookup
    /// [`PatternExecutor::execute_lent`] reads through. Nothing is copied.
    fn lent_tables(&self) -> impl Fn(&str) -> Option<&'a Table> {
        let datasets = self.datasets;
        move |name| match datasets.get(name) {
            Some(Dataset::Table(t)) => Some(t),
            _ => None,
        }
    }

    fn first_table(&self) -> Result<&Table> {
        self.datasets
            .values()
            .find_map(|d| match d {
                Dataset::Table(t) => Some(t),
                _ => None,
            })
            .ok_or_else(|| BdbError::Execution("prescription needs a table data set".into()))
    }
}

/// A pluggable execution backend.
pub trait Engine: Send + Sync {
    /// Engine name, used in reports and dispatch traces.
    fn name(&self) -> &'static str;

    /// What the engine can execute.
    fn capabilities(&self) -> Capabilities;

    /// Execute a prescribed test.
    fn execute(&self, request: &ExecutionRequest<'_>) -> Result<Vec<WorkloadResult>>;
}

/// The outcome of routing a request through the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Routing {
    /// The chosen engine's name.
    pub engine: String,
    /// Whether the requested [`SystemKind`] selected the engine (`false`
    /// means capability fallback).
    pub explicit: bool,
}

/// The Execution Layer's table of registered engines.
///
/// Routing: engines that both *implement the requested system* and
/// *support the test profile* outrank engines that merely support the
/// profile; each partition keeps registration order. When no engine is
/// capable the error lists every candidate with its capabilities.
pub struct EngineRegistry {
    engines: Vec<Box<dyn Engine>>,
}

impl std::fmt::Debug for EngineRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineRegistry").field("engines", &self.names()).finish()
    }
}

impl Default for EngineRegistry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

impl EngineRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self { engines: Vec::new() }
    }

    /// The five built-in backends. Registration order is the capability
    /// fallback order: native kernels, then the SQL engine, the KV store,
    /// the streaming engine, and the (most general) MapReduce engine last.
    pub fn with_builtins() -> Self {
        let mut r = Self::new();
        r.register(Box::new(NativeEngine));
        r.register(Box::new(SqlEngine));
        r.register(Box::new(KvEngine));
        r.register(Box::new(StreamingEngine));
        r.register(Box::new(MapReduceEngine));
        r
    }

    /// Append an engine (later entries lose capability-fallback ties).
    pub fn register(&mut self, engine: Box<dyn Engine>) {
        self.engines.push(engine);
    }

    /// Registered engine names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.engines.iter().map(|e| e.name()).collect()
    }

    /// Iterate the registered engines.
    pub fn engines(&self) -> impl Iterator<Item = &dyn Engine> {
        self.engines.iter().map(Box::as_ref)
    }

    /// Pick the engine for a request without executing it: the first
    /// capable engine that implements the requested system (the
    /// *explicit* partition), else the first capable engine, each in
    /// registration order.
    ///
    /// # Errors
    /// Fails when no engine is capable, listing every candidate with its
    /// capabilities.
    pub fn route(&self, request: &ExecutionRequest<'_>) -> Result<(&dyn Engine, Routing)> {
        let profile = request.profile();
        let capable = || self.engines().filter(|e| e.capabilities().supports(&profile));
        let explicit = capable().find(|e| e.capabilities().implements(request.system));
        if let Some(e) = explicit.or_else(|| capable().next()) {
            return Ok((e, Routing { engine: e.name().into(), explicit: explicit.is_some() }));
        }
        let candidates = self
            .engines
            .iter()
            .map(|e| format!("{} [{}]", e.name(), e.capabilities().summary()))
            .collect::<Vec<_>>()
            .join("; ");
        Err(BdbError::Execution(format!(
            "no engine can execute prescription {} (system={}, class={}, pattern={}, data={}); candidate engines: {}",
            request.prescription.name,
            request.system,
            profile.class,
            profile.shape,
            profile
                .data_kinds
                .iter()
                .map(|k| k.to_string())
                .collect::<Vec<_>>()
                .join(","),
            if candidates.is_empty() { "(none registered)".into() } else { candidates },
        )))
    }

    /// Route the request and run the one routed engine once, drawing a
    /// fault from `injector` when the run has a fault plan (an injected
    /// fault is recorded in the trace). When the engine fails, injected
    /// or not, its error is the run's result: a failure is a finding
    /// about the system named, so nothing re-routes or retries it.
    pub fn dispatch(
        &self,
        request: &ExecutionRequest<'_>,
        injector: Option<&FaultInjector>,
    ) -> Result<Vec<WorkloadResult>> {
        let (engine, routing) = self.route(request)?;
        request.trace.record(crate::trace::TraceEvent::EngineDispatched {
            prescription: request.prescription.name.clone(),
            engine: routing.engine,
            requested_system: request.system.to_string(),
            explicit: routing.explicit,
            candidates: self.names().iter().map(|n| n.to_string()).collect(),
        });
        let site = FaultSite::execution(engine.name(), &request.prescription.name);
        let drawn = injector.and_then(|inj| inj.sample(&site));
        fault::run_with_fault(drawn, request.trace, &site, || engine.execute(request))
    }
}

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------
//
// The result contract: a result has one maker. Kernels return what they
// computed plus the `Work` they counted; `make_result` names the result
// after the prescription, files it under this engine and the category of
// the prescription's class, and takes its duration from the one span the
// engine measured (the same span its `OperationExecuted` event reports).
// An engine attaches what it computed as an `OutputPayload`, in whatever
// order it emitted it. A row becomes text in one place (`row_lines`, one
// line per row), row order is normalised in one place
// (`OutputPayload::canonical_lines`) and hashed in one place
// (`CanonicalLines::digest`); nothing below sorts or hashes.

/// Make the result of `req` on `engine` from what the kernel counted and
/// the span the engine measured.
fn make_result(
    req: &ExecutionRequest<'_>,
    engine: &'static str,
    work: Work,
    elapsed: Duration,
) -> WorkloadResult {
    let mut collector = MetricsCollector::new();
    collector.record_operations(work.operations);
    WorkloadResult::assemble(
        &req.prescription.name,
        engine,
        WorkloadClass::of(req.prescription).category(),
        collector.finish_with_duration(elapsed),
        work.ops,
        work.input_items,
    )
}

/// Run `kernel` once under the engine's clock: the span is recorded as the
/// operation's trace event (with `rows` of its answer) and is the result's
/// duration. Returns the kernel's answer and the result made from it.
fn run_kernel<T>(
    req: &ExecutionRequest<'_>,
    engine: &'static str,
    op: &str,
    kernel: impl FnOnce() -> (T, Work),
    rows: impl FnOnce(&T) -> u64,
) -> (T, WorkloadResult) {
    let t0 = Instant::now();
    let (answer, work) = kernel();
    let elapsed = t0.elapsed();
    req.trace.operation(engine, op, rows(&answer), elapsed);
    (answer, make_result(req, engine, work, elapsed))
}

/// Run a table-pattern binding over the request's lent tables and make
/// the result: one trace event per executed DAG step, and the output rows
/// as row lines, in emission order.
fn execute_table_binding(
    binding: &dyn PatternExecutor,
    engine: &'static str,
    req: &ExecutionRequest<'_>,
) -> Result<Vec<WorkloadResult>> {
    if !req.datasets.values().any(|d| matches!(d, Dataset::Table(_))) {
        return Err(BdbError::Execution(format!(
            "engine {engine} needs a table data set for prescription {}",
            req.prescription.name
        )));
    }
    let bound = binding.execute_lent(&req.prescription.pattern, &req.lent_tables())?;
    for step in &bound.steps {
        req.trace.operation(engine, &step.op, step.rows_out, step.elapsed);
    }
    let rows = bound.output.len() as u64;
    let work = Work {
        operations: rows,
        ops: OpCounts { record_ops: bound.record_ops, float_ops: 0 },
        input_items: req.scale,
    };
    let result = make_result(req, engine, work, bound.elapsed)
        .with_detail("output_rows", rows as f64)
        .with_output(OutputPayload::RowSet(row_lines(bound.output.rows())));
    Ok(vec![result])
}

/// Text dispatch shared by the native and MapReduce engines: grep when the
/// pattern greps, WordCount otherwise (`micro/wordcount`, `search/index`).
fn execute_text(req: &ExecutionRequest<'_>, engine: &'static str) -> Result<Vec<WorkloadResult>> {
    let (docs, vocab) = req.text_dataset()?;
    let job = req.job_config();
    let mapreduce = engine == "mapreduce";
    let ops = req.prescription.pattern.operations();
    let r = if let Some(Operation::Grep { pattern }) =
        ops.iter().find(|o| matches!(o, Operation::Grep { .. }))
    {
        let (hits, r) = run_kernel(
            req,
            engine,
            "grep",
            || {
                if mapreduce {
                    micro::grep_mapreduce(docs, vocab, pattern, &job)
                } else {
                    micro::grep_native(docs, vocab, pattern)
                }
            },
            |hits| hits.len() as u64,
        );
        // Matching document indices, in match order.
        r.with_output(OutputPayload::Ordered(hits.iter().map(ToString::to_string).collect()))
    } else {
        let (counts, r) = run_kernel(
            req,
            engine,
            "wordcount",
            || {
                if mapreduce {
                    micro::wordcount_mapreduce(docs, &job)
                } else {
                    micro::wordcount_native(docs)
                }
            },
            |counts| counts.len() as u64,
        );
        // An order-insensitive row set of `(word id, count)`.
        r.with_output(OutputPayload::RowSet(row_lines(
            counts.iter().map(|&(w, c)| [u64::from(w), c]),
        )))
    };
    Ok(vec![r])
}

/// Per-vertex numeric results (`v<i>` → value) for iterative graph
/// kernels, compared within epsilon across engines.
fn vertex_payload<T: Copy + Into<f64>>(values: &[T]) -> OutputPayload {
    OutputPayload::Numeric(
        values.iter().enumerate().map(|(i, v)| (format!("v{i}"), (*v).into())).collect(),
    )
}

/// Final centroid coordinates (`c<i>.<dim>` → coordinate) for k-means.
fn centroid_payload(centroids: &[social::Point]) -> OutputPayload {
    OutputPayload::Numeric(
        centroids
            .iter()
            .enumerate()
            .flat_map(|(i, c)| {
                c.iter().enumerate().map(move |(d, x)| (format!("c{i}.{d}"), *x)).collect::<Vec<_>>()
            })
            .collect(),
    )
}

/// The aggregate function of an iterative pattern's body, which selects
/// the iterative kernel (Min → connected components, Avg → k-means
/// centroids, otherwise PageRank-style rank summation).
fn iterative_agg(pattern: &WorkloadPattern) -> Option<AggSpec> {
    match pattern {
        WorkloadPattern::Iterative { body, .. } => body.iter().find_map(|s| match &s.op {
            Operation::Aggregate { function, .. } => Some(*function),
            _ => None,
        }),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Built-in engines
// ---------------------------------------------------------------------

/// Hand-written native kernels (`bdb-workloads`): text and iterative
/// workloads on in-memory data structures.
#[derive(Debug, Default, Clone, Copy)]
pub struct NativeEngine;

impl Engine for NativeEngine {
    fn name(&self) -> &'static str {
        "native"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            systems: vec![SystemKind::Native],
            classes: vec![WorkloadClass::Text, WorkloadClass::Iterative],
            data_kinds: vec![
                DataSourceKind::Text,
                DataSourceKind::Graph,
                DataSourceKind::Table,
            ],
            patterns: vec![PatternShape::Single, PatternShape::Multi, PatternShape::Iterative],
        }
    }

    fn execute(&self, req: &ExecutionRequest<'_>) -> Result<Vec<WorkloadResult>> {
        match WorkloadClass::of(req.prescription) {
            WorkloadClass::Text => execute_text(req, "native"),
            WorkloadClass::Iterative => execute_iterative(req, "native"),
            other => Err(BdbError::Execution(format!(
                "native engine cannot execute {other} workloads"
            ))),
        }
    }
}

/// Iterative dispatch shared by the native and MapReduce engines: graph
/// data runs connected components (Min fold) or PageRank; table data runs
/// k-means over the generated feature vectors.
fn execute_iterative(
    req: &ExecutionRequest<'_>,
    engine: &'static str,
) -> Result<Vec<WorkloadResult>> {
    let agg = iterative_agg(&req.prescription.pattern);
    let job = req.job_config();
    let mapreduce = engine == "mapreduce";
    if let Some(Dataset::Graph(g)) =
        req.datasets.values().find(|d| matches!(d, Dataset::Graph(_)))
    {
        let r = if agg == Some(AggSpec::Min) {
            // Connected components over the undirected closure.
            let mut und = g.clone();
            for &(u, v) in g.edges() {
                und.add_edge(v, u);
            }
            let csr = und.to_csr();
            let ((labels, iterations), r) = run_kernel(
                req,
                engine,
                "aggregate",
                || {
                    let (labels, iterations, work) = if mapreduce {
                        social::connected_components_mapreduce(&csr, &job)
                    } else {
                        social::connected_components(&csr)
                    };
                    ((labels, iterations), work)
                },
                |(labels, _)| labels.len() as u64,
            );
            r.with_detail("iterations", f64::from(iterations))
                .with_detail("components", social::component_count(&labels) as f64)
                .with_output(vertex_payload(&labels))
        } else {
            let csr = (!mapreduce).then(|| g.to_csr());
            let ((ranks, iterations), r) = run_kernel(
                req,
                engine,
                "aggregate",
                || {
                    let (ranks, iterations, work) = match &csr {
                        Some(csr) => search::pagerank_native(csr, &Default::default()),
                        None => search::pagerank_mapreduce(g, &Default::default(), &job),
                    };
                    ((ranks, iterations), work)
                },
                |(ranks, _)| ranks.len() as u64,
            );
            r.with_detail("iterations", f64::from(iterations)).with_output(vertex_payload(&ranks))
        };
        return Ok(vec![r]);
    }
    // Table-backed iteration: k-means over the *generated* table's numeric
    // columns, so --scale/--seed data actually reaches the kernel.
    let table = req.first_table()?;
    let points = social::points_from_table(table)?;
    let ((centroids, iterations), r) = run_kernel(
        req,
        engine,
        "aggregate",
        || {
            let (centroids, _, iterations, work) = if mapreduce {
                social::kmeans_mapreduce(&points, &Default::default(), req.seed, &job)
            } else {
                social::kmeans_native(&points, &Default::default(), req.seed)
            };
            ((centroids, iterations), work)
        },
        |_| points.len() as u64,
    );
    Ok(vec![r
        .with_detail("iterations", f64::from(iterations))
        .with_detail("input_points", points.len() as f64)
        .with_output(centroid_payload(&centroids))])
}

/// The MapReduce engine (`bdb-mapreduce`): text kernels, iterative jobs,
/// and relational patterns lowered to map/reduce rounds.
#[derive(Debug, Default, Clone, Copy)]
pub struct MapReduceEngine;

impl Engine for MapReduceEngine {
    fn name(&self) -> &'static str {
        "mapreduce"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            systems: vec![SystemKind::MapReduce],
            classes: vec![
                WorkloadClass::Text,
                WorkloadClass::Iterative,
                WorkloadClass::Relational,
                WorkloadClass::Behavioral,
            ],
            data_kinds: vec![
                DataSourceKind::Text,
                DataSourceKind::Graph,
                DataSourceKind::Table,
                DataSourceKind::Stream,
            ],
            patterns: vec![PatternShape::Single, PatternShape::Multi, PatternShape::Iterative],
        }
    }

    fn execute(&self, req: &ExecutionRequest<'_>) -> Result<Vec<WorkloadResult>> {
        match WorkloadClass::of(req.prescription) {
            WorkloadClass::Text => execute_text(req, "mapreduce"),
            WorkloadClass::Iterative => execute_iterative(req, "mapreduce"),
            WorkloadClass::Relational => execute_table_binding(
                &MapReduceBinding { config: req.job_config() },
                "mapreduce",
                req,
            ),
            WorkloadClass::Behavioral => execute_behavioral(req, "mapreduce"),
            other => Err(BdbError::Execution(format!(
                "mapreduce engine cannot execute {other} workloads"
            ))),
        }
    }
}

/// The relational engine (`bdb-sql`): table patterns lowered to logical
/// plans.
#[derive(Debug, Default, Clone, Copy)]
pub struct SqlEngine;

impl Engine for SqlEngine {
    fn name(&self) -> &'static str {
        "sql"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            systems: vec![SystemKind::Sql],
            classes: vec![WorkloadClass::Relational],
            data_kinds: vec![DataSourceKind::Table],
            patterns: vec![PatternShape::Single, PatternShape::Multi],
        }
    }

    fn execute(&self, req: &ExecutionRequest<'_>) -> Result<Vec<WorkloadResult>> {
        execute_table_binding(&SqlBinding, "sql", req)
    }
}

/// The key-value engine (`bdb-kv`): element-operation mixes run as a
/// YCSB-style driver against the LSM store.
#[derive(Debug, Default, Clone, Copy)]
pub struct KvEngine;

impl Engine for KvEngine {
    fn name(&self) -> &'static str {
        "kv"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            systems: vec![SystemKind::KeyValue],
            classes: vec![WorkloadClass::Element],
            data_kinds: vec![DataSourceKind::Table],
            patterns: vec![PatternShape::Single, PatternShape::Multi],
        }
    }

    fn execute(&self, req: &ExecutionRequest<'_>) -> Result<Vec<WorkloadResult>> {
        let element_ops: Vec<&Operation> = req
            .prescription
            .pattern
            .operations()
            .into_iter()
            .filter(|o| is_element_op(o))
            .collect();
        if element_ops.is_empty() {
            return Err(BdbError::Execution(format!(
                "kv engine needs element operations in prescription {}",
                req.prescription.name
            )));
        }
        let n = element_ops.len() as f64;
        let frac = |pred: fn(&Operation) -> bool| -> f64 {
            element_ops.iter().filter(|o| pred(o)).count() as f64 / n
        };
        let spec = oltp::YcsbSpec {
            name: "prescribed",
            read: frac(|o| matches!(o, Operation::Get { .. })),
            update: frac(|o| matches!(o, Operation::UpdateKey { .. })),
            insert: frac(|o| matches!(o, Operation::Put { .. }))
                + frac(|o| matches!(o, Operation::DeleteKey { .. })),
            scan: frac(|o| matches!(o, Operation::ScanRange { .. })),
            rmw: 0.0,
            zipf_exponent: 0.99,
            scan_len: element_ops
                .iter()
                .find_map(|o| match o {
                    Operation::ScanRange { limit, .. } => Some(*limit),
                    _ => None,
                })
                .unwrap_or(0),
        };
        let config = oltp::YcsbConfig {
            record_count: req.scale,
            operation_count: req.scale * 2,
            clients: pool::effective_workers(req.config.threads).min(8),
            value_size: 100,
        };
        // `run_ycsb` makes its own result: its per-operation latencies,
        // timed over the run phase, are the online-services metric. The
        // engine files it under the prescription.
        let t0 = Instant::now();
        let (_store, counts, mut r) = oltp::run_ycsb(&spec, &config, req.seed);
        let issued = counts.reads + counts.updates + counts.inserts + counts.scans + counts.rmws;
        req.trace.operation("kv", "element-mix", issued, t0.elapsed());
        r.report.workload = req.prescription.name.clone();
        // Op counts and the final key population are deterministic for a
        // given (spec, config, seed) even under concurrent clients: each
        // client's operation stream is seeded independently, and inserted
        // keys form a contiguous id range regardless of interleaving.
        let payload = OutputPayload::Numeric(vec![
            ("final_keys".into(), (config.record_count + counts.inserts) as f64),
            ("inserts".into(), counts.inserts as f64),
            ("read_hits".into(), counts.read_hits as f64),
            ("reads".into(), counts.reads as f64),
            ("rmws".into(), counts.rmws as f64),
            ("scans".into(), counts.scans as f64),
            ("updates".into(), counts.updates as f64),
        ]);
        Ok(vec![r.with_output(payload)])
    }
}

/// Extract the behavioral operation from a prescription's pattern.
fn behavioral_spec(prescription: &Prescription) -> Result<behavioral::BehavioralSpec> {
    prescription
        .pattern
        .operations()
        .iter()
        .find_map(|o| match o {
            Operation::Sessionize { gap_ms } => {
                Some(behavioral::BehavioralSpec::Sessionize { gap_ms: *gap_ms })
            }
            Operation::Retention { period_ms, periods } => {
                Some(behavioral::BehavioralSpec::Retention {
                    period_ms: *period_ms,
                    periods: *periods,
                })
            }
            Operation::WindowFunnel { window_ms, steps } => {
                Some(behavioral::BehavioralSpec::WindowFunnel {
                    window_ms: *window_ms,
                    steps: steps.clone(),
                })
            }
            Operation::SequenceMatch { steps } => {
                Some(behavioral::BehavioralSpec::SequenceMatch { steps: steps.clone() })
            }
            _ => None,
        })
        .ok_or_else(|| {
            BdbError::Execution("behavioral dispatch needs a behavioral operation".into())
        })
}

/// Behavioral dispatch shared by the streaming and MapReduce engines:
/// both bindings run the same order-insensitive per-user aggregates, so
/// their row sets are identical (the conformance matrix asserts it).
fn execute_behavioral(
    req: &ExecutionRequest<'_>,
    engine: &'static str,
) -> Result<Vec<WorkloadResult>> {
    let spec = behavioral_spec(req.prescription)?;
    let events = req
        .datasets
        .values()
        .find_map(|d| match d {
            Dataset::Stream(e) => Some(e.as_slice()),
            _ => None,
        })
        .ok_or_else(|| {
            BdbError::Execution("behavioral operations need a stream data set".into())
        })?;
    let job = req.job_config();
    let (outcome, r) = run_kernel(
        req,
        engine,
        spec.name(),
        || {
            if engine == "mapreduce" {
                behavioral::behavioral_mapreduce(events, &spec, &job)
            } else {
                behavioral::behavioral_streaming(events, &spec)
            }
        },
        |outcome| outcome.rows.len() as u64,
    );
    Ok(vec![r
        .with_detail("users", outcome.users as f64)
        .with_detail("peak_state_bytes", outcome.peak_state_bytes as f64)
        .with_output(OutputPayload::RowSet(outcome.rows))])
}

/// The streaming engine (`bdb-stream`): windowed aggregation and
/// behavioral analytics over event streams.
#[derive(Debug, Default, Clone, Copy)]
pub struct StreamingEngine;

impl Engine for StreamingEngine {
    fn name(&self) -> &'static str {
        "streaming"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            systems: vec![SystemKind::Streaming],
            classes: vec![WorkloadClass::Windowed, WorkloadClass::Behavioral],
            data_kinds: vec![DataSourceKind::Stream],
            patterns: vec![PatternShape::Single],
        }
    }

    fn execute(&self, req: &ExecutionRequest<'_>) -> Result<Vec<WorkloadResult>> {
        if WorkloadClass::of(req.prescription) == WorkloadClass::Behavioral {
            return execute_behavioral(req, "streaming");
        }
        let window_ms = req
            .prescription
            .pattern
            .operations()
            .iter()
            .find_map(|o| match o {
                Operation::WindowAggregate { window_ms, .. } => Some(*window_ms),
                _ => None,
            })
            .ok_or_else(|| {
                BdbError::Execution("streaming engine needs a window-aggregate operation".into())
            })?;
        let events = req
            .datasets
            .values()
            .find_map(|d| match d {
                Dataset::Stream(e) => Some(e),
                _ => None,
            })
            .ok_or_else(|| {
                BdbError::Execution("window aggregation needs a stream data set".into())
            })?;
        let (windows, r) = run_kernel(
            req,
            "streaming",
            "window-aggregate",
            || streaming::windowed_aggregation(events, window_ms),
            |windows| windows.len() as u64,
        );
        // One operation per event: the kernel span's ops/s is events/s.
        let throughput_eps = r.report.user.throughput_ops_per_sec;
        let r = r
            .with_detail("windows", windows.len() as f64)
            .with_detail("throughput_eps", throughput_eps);
        // Stream output is ordered: with zero allowed lateness and an
        // in-order source, panes close in deterministic
        // (window_start, key) order — the documented lateness contract.
        let payload = OutputPayload::Ordered(
            windows
                .iter()
                .map(|w| {
                    format!(
                        "{}|{}|{}|{}|{:?}|{:?}|{:?}",
                        w.window_start, w.window_end, w.key, w.count, w.sum, w.min, w.max
                    )
                })
                .collect(),
        );
        Ok(vec![r.with_output(payload)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_testgen::repository::builtin_prescriptions;

    fn prescription(name: &str) -> Prescription {
        builtin_prescriptions()
            .into_iter()
            .find(|p| p.name == name)
            .expect("builtin prescription exists")
    }

    #[test]
    fn classes_match_the_old_dispatch_precedence() {
        for (name, class) in [
            ("behavioral/sessionize", WorkloadClass::Behavioral),
            ("behavioral/retention", WorkloadClass::Behavioral),
            ("behavioral/window-funnel", WorkloadClass::Behavioral),
            ("behavioral/sequence-match", WorkloadClass::Behavioral),
            ("streaming/window-aggregation", WorkloadClass::Windowed),
            ("micro/wordcount", WorkloadClass::Text),
            ("micro/grep", WorkloadClass::Text),
            ("search/pagerank", WorkloadClass::Iterative),
            ("social/kmeans", WorkloadClass::Iterative),
            ("oltp/read-mostly", WorkloadClass::Element),
            ("micro/sort", WorkloadClass::Relational),
            ("relational/join", WorkloadClass::Relational),
        ] {
            assert_eq!(WorkloadClass::of(&prescription(name)), class, "{name}");
        }
    }

    #[test]
    fn builtin_registry_covers_all_system_kinds() {
        let registry = EngineRegistry::with_builtins();
        let mut systems = BTreeSet::new();
        for engine in registry.engines() {
            for s in engine.capabilities().systems {
                systems.insert(s.to_string());
            }
        }
        assert_eq!(
            systems.into_iter().collect::<Vec<_>>(),
            vec!["kv", "mapreduce", "native", "sql", "streaming"]
        );
        assert_eq!(registry.names(), vec!["native", "sql", "kv", "streaming", "mapreduce"]);
    }

    #[test]
    fn capability_summary_is_descriptive() {
        let caps = SqlEngine.capabilities();
        let s = caps.summary();
        assert!(s.contains("systems=sql"));
        assert!(s.contains("classes=relational"));
        assert!(s.contains("data=table"));
    }

    #[test]
    fn empty_registry_reports_no_candidates() {
        let registry = EngineRegistry::new();
        let p = prescription("micro/sort");
        let datasets = BTreeMap::new();
        let config = SystemConfig::default();
        let trace = RunTrace::new();
        let req = ExecutionRequest {
            prescription: &p,
            system: SystemKind::Sql,
            seed: 1,
            scale: 10,
            datasets: &datasets,
            config: &config,
            trace: &trace,
            routing: RoutingPolicy::FirstCapable,
        };
        let err = registry.dispatch(&req, None).unwrap_err();
        assert!(err.to_string().contains("none registered"), "{err}");
    }

    /// A capable fake relational engine that never runs.
    struct FakeEngine {
        name: &'static str,
        system: SystemKind,
    }

    impl Engine for FakeEngine {
        fn name(&self) -> &'static str {
            self.name
        }

        fn capabilities(&self) -> Capabilities {
            Capabilities {
                systems: vec![self.system],
                classes: vec![WorkloadClass::Relational],
                data_kinds: vec![DataSourceKind::Table],
                patterns: vec![PatternShape::Single, PatternShape::Multi],
            }
        }

        fn execute(&self, _req: &ExecutionRequest<'_>) -> Result<Vec<WorkloadResult>> {
            Err(BdbError::Execution("fake engine does not execute".into()))
        }
    }

    fn routed(registry: &EngineRegistry, system: SystemKind) -> Routing {
        let p = prescription("micro/sort");
        let datasets = BTreeMap::new();
        let config = SystemConfig::default();
        let trace = RunTrace::new();
        let req = ExecutionRequest {
            prescription: &p,
            system,
            seed: 1,
            scale: 100,
            datasets: &datasets,
            config: &config,
            trace: &trace,
            routing: RoutingPolicy::FirstCapable,
        };
        registry.route(&req).unwrap().1
    }

    #[test]
    fn route_picks_explicit_first_then_registration_order() {
        let mut registry = EngineRegistry::new();
        for (name, system) in [
            ("a", SystemKind::Sql),
            ("b", SystemKind::MapReduce),
            ("c", SystemKind::MapReduce),
        ] {
            registry.register(Box::new(FakeEngine { name, system }));
        }
        let route = |system| {
            let r = routed(&registry, system);
            (r.engine, r.explicit)
        };
        // A system nobody implements falls back to registration order; a
        // named system picks its first implementer, ahead of earlier
        // registrations.
        assert_eq!(route(SystemKind::Native), ("a".to_string(), false));
        assert_eq!(route(SystemKind::Sql), ("a".to_string(), true));
        assert_eq!(route(SystemKind::MapReduce), ("b".to_string(), true));
    }
}
