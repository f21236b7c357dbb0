//! The verification matrix: every built-in prescription swept across
//! every capable built-in engine, each cell verified differentially.
//!
//! [`verify_matrix`] is the harness behind `bdbench verify`: it runs each
//! (prescription, engine) pair in isolation — a single-engine registry,
//! so capability routing cannot silently substitute a different backend —
//! and collects the conformance verdicts per cell. Engine threads are
//! pinned (4) so Element-class cells produce machine-independent golden
//! digests regardless of the host's parallelism.
//!
//! [`verify_matrix_routed`] adds crash durability to the sweep: an optional
//! [`RunJournal`] checkpoints every completed cell atomically, and an
//! optional [`FaultPlan`] arms kill points *between* cells — one injector
//! spans the whole sweep (per-cell injectors would reset the draw
//! sequence and kill every cell), and a fired `crash` clause aborts the
//! run with [`BdbError::Crashed`], leaving the journal behind. Re-running
//! with the same journal resumes: checkpointed cells are skipped, their
//! recorded digests re-verified against the golden store, and only the
//! remaining cells execute — so a killed-and-resumed sweep's verdicts are
//! comparable cell-for-cell with an uninterrupted run's.

use crate::layers::BenchmarkSpec;
use crate::pipeline::Benchmark;
use bdb_common::{BdbError, Result};
use bdb_exec::analyzer::RecoverySummary;
use bdb_exec::config::SystemConfig;
use bdb_exec::engine::{
    Engine, EngineRegistry, KvEngine, MapReduceEngine, NativeEngine, SqlEngine, StreamingEngine,
    WorkloadClass,
};
use bdb_exec::fault::{FaultInjector, FaultKind, FaultPlan, FaultSite};
use bdb_exec::journal::{CellCheckpoint, RunJournal};
use bdb_exec::trace::{RunTrace, TraceEvent};
use bdb_testgen::{PrescriptionRepository, SystemKind};
use bdb_verify::{GoldenStore, VerifyMode};

/// Engine threads pinned for matrix runs, keeping KV client sharding —
/// and therefore Element-class golden digests — machine-independent.
pub const MATRIX_THREADS: usize = 4;

/// One verified (prescription, engine) cell.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// Prescription name.
    pub prescription: String,
    /// Engine that executed it.
    pub engine: &'static str,
    /// Conformance checks the cell ran.
    pub checks: u64,
    /// All checks passed (and at least one ran).
    pub passed: bool,
    /// Failure details, when any check diverged.
    pub failures: Vec<String>,
    /// Canonical digest of the cell's output payload, 16 hex digits
    /// (`"-"` when the engine attached no payload).
    pub digest: String,
    /// True when the cell was taken from a run journal instead of
    /// executing (the prior, crashed run completed it).
    pub resumed: bool,
}

/// The outcome of a full matrix sweep.
#[derive(Debug, Clone)]
pub struct MatrixReport {
    /// Verification mode the sweep ran under.
    pub mode: VerifyMode,
    /// Verified cells, in prescription-major order.
    pub cells: Vec<MatrixCell>,
    /// Recovery activity of the sweep itself: checkpoints written, cells
    /// resumed from a journal, kill points fired.
    pub recovery: RecoverySummary,
}

impl MatrixReport {
    /// True when every cell verified clean.
    pub fn all_passed(&self) -> bool {
        !self.cells.is_empty() && self.cells.iter().all(|c| c.passed)
    }

    /// Cells that diverged.
    pub fn failed_cells(&self) -> Vec<&MatrixCell> {
        self.cells.iter().filter(|c| !c.passed).collect()
    }

    /// Render the sweep as an aligned text table.
    pub fn render(&self) -> String {
        use bdb_exec::reporter::TableReporter;
        let mut t = TableReporter::new(
            &format!("Verification matrix ({} mode)", self.mode),
            &["prescription", "engine", "checks", "verdict"],
        );
        for c in &self.cells {
            t.add_row(&[
                c.prescription.clone(),
                c.engine.to_string(),
                c.checks.to_string(),
                match (c.passed, c.resumed) {
                    (true, false) => "pass".into(),
                    (true, true) => "pass (resumed)".into(),
                    (false, false) => "FAIL".into(),
                    (false, true) => "FAIL (resumed)".into(),
                },
            ]);
        }
        let mut out = t.to_text();
        for c in self.failed_cells() {
            for f in &c.failures {
                out.push_str(&format!("  {}@{}: {f}\n", c.prescription, c.engine));
            }
        }
        if !self.recovery.is_quiet() || self.recovery.checkpoints_written > 0 {
            out.push('\n');
            out.push_str(&bdb_exec::reporter::render_resilience(&self.recovery));
        }
        let verdict = if self.all_passed() { "CONFORMANT" } else { "DIVERGED" };
        let resumed = self.cells.iter().filter(|c| c.resumed).count();
        out.push_str(&format!(
            "{} cells, {} passed{}: {verdict}\n",
            self.cells.len(),
            self.cells.iter().filter(|c| c.passed).count(),
            if resumed > 0 {
                format!(" ({resumed} resumed from journal)")
            } else {
                String::new()
            }
        ));
        out
    }
}

/// Fresh instances of the five built-in engines, in registration order.
fn builtin_engines() -> Vec<Box<dyn Engine>> {
    vec![
        Box::new(NativeEngine),
        Box::new(SqlEngine),
        Box::new(KvEngine),
        Box::new(StreamingEngine),
        Box::new(MapReduceEngine),
    ]
}

/// The matrix's cells in sweep order (prescription-major, engines in
/// registration order): every built-in prescription paired with each
/// built-in engine whose capabilities support the prescription's
/// operation class. Asked up front, so an incapable pair costs no
/// pipeline run.
fn capable_cells() -> Result<Vec<(String, Box<dyn Engine>)>> {
    let repository = PrescriptionRepository::with_builtins();
    let mut cells = Vec::new();
    for name in repository.names() {
        let class = WorkloadClass::of(repository.get(name)?);
        cells.extend(
            builtin_engines()
                .into_iter()
                .filter(|engine| engine.capabilities().supports(class))
                .map(|engine| (name.to_string(), engine)),
        );
    }
    Ok(cells)
}

/// Durability knobs for a matrix sweep: where to checkpoint and which
/// kill points to arm.
#[derive(Debug, Default)]
pub struct MatrixDurability<'a> {
    /// Journal completed cells here (and honour any checkpoints already
    /// present — an existing journal resumes the sweep).
    pub journal: Option<&'a RunJournal>,
    /// Kill points for the sweep: `crash` clauses only (any other kind is
    /// an [`BdbError::InvalidConfig`]), sampled once after every completed
    /// cell by one injector spanning the sweep.
    pub faults: Option<&'a FaultPlan>,
}

/// Sweep every built-in prescription across every capable built-in
/// engine, verifying each cell under `mode`. Incapable pairs are skipped
/// (they are not matrix cells); a capable pair that fails to execute is
/// an error.
///
/// # Errors
/// Fails when a capable cell cannot run at all (generation or execution
/// error) — divergence is reported in the cells, not as an error.
pub fn verify_matrix(
    scale: u64,
    seed: u64,
    mode: VerifyMode,
    goldens_dir: Option<&str>,
) -> Result<MatrixReport> {
    verify_matrix_routed(
        scale,
        seed,
        mode,
        goldens_dir,
        &MatrixDurability::default(),
    )
}

/// [`verify_matrix`] with journaling, resumption and kill points (see the
/// module docs for the crash/resume contract).
///
/// # Errors
/// Fails as [`verify_matrix`] does, plus [`BdbError::Crashed`] when an
/// armed kill point fires mid-sweep (completed cells stay checkpointed
/// in the journal).
pub fn verify_matrix_routed(
    scale: u64,
    seed: u64,
    mode: VerifyMode,
    goldens_dir: Option<&str>,
    durability: &MatrixDurability<'_>,
) -> Result<MatrixReport> {
    // Only kill points act between cells: any other clause would be drawn
    // and dropped, injecting nothing while the sweep reads CONFORMANT.
    if let Some(clause) =
        durability.faults.and_then(|p| p.clauses.iter().find(|c| c.kind != FaultKind::Crash))
    {
        return Err(BdbError::InvalidConfig(format!(
            "verify --faults arms kill points between cells and takes only crash@ clauses, \
             got {clause}"
        )));
    }
    // ONE injector spans the sweep: a fresh injector per cell would
    // restart the deterministic draw sequence and a `crash@exec:1`
    // clause would kill every cell instead of one point in the run.
    let injector = durability.faults.map(|p| FaultInjector::new(p.clone(), seed));
    let golden_store = goldens_dir.map(GoldenStore::at).or_else(|| GoldenStore::discover(false));
    let sweep_trace = RunTrace::new();
    if let Some(journal) = durability.journal {
        let completed = journal.completed().len();
        if completed > 0 {
            sweep_trace.record(TraceEvent::RunResumed {
                journal: journal.dir().display().to_string(),
                completed,
            });
        }
    }
    let mut cells = Vec::new();
    for (name, engine) in capable_cells()? {
        let engine_name = engine.name();
        let key = RunJournal::cell_key(&name, engine_name, seed, scale);
        // A checkpointed cell was completed by the prior (crashed) run:
        // honour its verdicts, re-verify its digest against the golden
        // store, and skip execution.
        if let Some(cp) = durability.journal.and_then(|j| j.load(&key)) {
            cells.push(resume_cell(cp, engine_name, &sweep_trace, golden_store.as_ref()));
            continue;
        }
        let system = engine
            .capabilities()
            .systems
            .first()
            .copied()
            .unwrap_or(SystemKind::Native);
        let mut bench = Benchmark::new();
        bench.execution_layer_mut().system_config = SystemConfig::default().with_threads(MATRIX_THREADS);
        let mut registry = EngineRegistry::new();
        registry.register(engine);
        bench.execution_layer_mut().engines = registry;
        let mut spec = BenchmarkSpec::new(&format!("verify/{name}/{engine_name}"))
            .with_prescription(&name)
            .with_system(system)
            .with_scale(scale)
            .with_seed(seed)
            .with_verify(mode);
        if let Some(dir) = goldens_dir {
            spec = spec.with_goldens_dir(dir);
        }
        let run = bench.run(&spec)?;
        let digest = run
            .results
            .iter()
            .find_map(|r| r.output.as_ref())
            .map_or_else(|| "-".to_string(), |p| format!("{:016x}", p.digest()));
        let cell = MatrixCell {
            prescription: name.clone(),
            engine: engine_name,
            checks: run.conformance.checks,
            passed: run.conformance.all_passed() && run.conformance.checks > 0,
            failures: run
                .conformance
                .failures
                .iter()
                .map(|(_, _, check, detail)| format!("{check}: {detail}"))
                .collect(),
            digest,
            resumed: false,
        };
        if let Some(journal) = durability.journal {
            journal.record(&checkpoint_of(&cell, &run, &key, seed, scale))?;
            sweep_trace.record(TraceEvent::CheckpointWritten {
                key: key.clone(),
                digest: cell.digest.clone(),
            });
        }
        cells.push(cell);
        // The kill point sits between cells: the checkpoint for the
        // finished cell is durable, the next cell never starts — exactly
        // a process death mid-sweep.
        let site = FaultSite::execution(engine_name, &name);
        if injector.as_ref().and_then(|inj| inj.sample(&site)).is_some() {
            sweep_trace.record(TraceEvent::FaultInjected {
                site: site.to_string(),
                kind: "crash".into(),
                latency_ms: 0,
            });
            return Err(BdbError::Crashed(format!(
                "injected kill point mid-matrix after {name}@{engine_name} \
                 ({} cells completed{})",
                cells.len(),
                if durability.journal.is_some() { ", checkpointed for --resume" } else { "" }
            )));
        }
    }
    let recovery = RecoverySummary::from_events(&sweep_trace.events());
    Ok(MatrixReport { mode, cells, recovery })
}

/// Turn a journal checkpoint back into a matrix cell, re-verifying its
/// recorded digest against the golden store when one is available.
fn resume_cell(
    cp: CellCheckpoint,
    engine_name: &'static str,
    trace: &RunTrace,
    store: Option<&GoldenStore>,
) -> MatrixCell {
    let mut failures = cp.failures.clone();
    let mut passed = cp.passed;
    let golden = store.and_then(|s| s.load(&cp.key));
    if let Some(golden) = &golden {
        if golden.digest != cp.digest && cp.digest != "-" {
            passed = false;
            failures.push(format!(
                "resume: journal digest {} != golden digest {}",
                cp.digest, golden.digest
            ));
        }
    }
    trace.record(TraceEvent::CellResumed {
        key: cp.key.clone(),
        digest: cp.digest.clone(),
        reverified: golden.is_some(),
    });
    MatrixCell {
        prescription: cp.prescription,
        engine: engine_name,
        checks: u64::from(cp.checks),
        passed,
        failures,
        digest: cp.digest,
        resumed: true,
    }
}

/// The checkpoint a completed cell writes: the cell's verdicts plus the
/// payload coordinates (shape, length, digest) of its first output.
fn checkpoint_of(
    cell: &MatrixCell,
    run: &crate::pipeline::BenchmarkRun,
    key: &str,
    seed: u64,
    scale: u64,
) -> CellCheckpoint {
    let payload = run.results.iter().find_map(|r| r.output.as_ref());
    CellCheckpoint {
        key: key.to_string(),
        prescription: cell.prescription.clone(),
        engine: cell.engine.to_string(),
        seed,
        scale,
        shape: payload.map_or_else(|| "none".to_string(), |p| p.label().to_string()),
        len: payload.map_or(0, |p| p.len() as u64),
        digest: cell.digest.clone(),
        checks: cell.checks.min(u64::from(u32::MAX)) as u32,
        passed: cell.passed,
        failures: cell.failures.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_faults_take_only_crash_clauses() {
        // Non-crash clauses would be drawn between cells and dropped, and
        // one that fires first would shadow the crash behind it: the sweep
        // refuses the plan before running a cell.
        for spec in ["error@exec:1,panic@any:1,latency@exec:1:ms=500", "panic@any:1,crash@exec:1"] {
            let plan: FaultPlan = spec.parse().unwrap();
            let durability = MatrixDurability { journal: None, faults: Some(&plan) };
            let err = verify_matrix_routed(300, 42, VerifyMode::Digest, None, &durability)
                .unwrap_err();
            assert!(matches!(err, BdbError::InvalidConfig(_)), "{spec}: {err}");
            assert!(err.to_string().contains("only crash@ clauses"), "{err}");
        }
    }

    #[test]
    fn builtin_engines_are_the_five() {
        let names: Vec<&str> = builtin_engines().iter().map(|e| e.name()).collect();
        assert_eq!(names, vec!["native", "sql", "kv", "streaming", "mapreduce"]);
    }

    #[test]
    fn capable_cells_are_the_golden_cells() {
        assert_eq!(PrescriptionRepository::with_builtins().names().len(), 18);
        // The capable pairs are exactly the 33 committed golden cells.
        let mut keys: Vec<String> = capable_cells()
            .unwrap()
            .iter()
            .map(|(name, engine)| RunJournal::cell_key(name, engine.name(), 42, 300))
            .collect();
        keys.sort();
        assert_eq!(keys.len(), 33);
        let goldens = GoldenStore::at(concat!(env!("CARGO_MANIFEST_DIR"), "/../../goldens"));
        assert_eq!(keys, goldens.keys());
    }

    #[test]
    fn empty_report_does_not_pass() {
        let r = MatrixReport {
            mode: VerifyMode::Digest,
            cells: Vec::new(),
            recovery: RecoverySummary::default(),
        };
        assert!(!r.all_passed());
    }

    #[test]
    fn resumed_cells_render_as_resumed() {
        let cell = |resumed: bool| MatrixCell {
            prescription: "micro/sort".into(),
            engine: "sql",
            checks: 2,
            passed: true,
            failures: Vec::new(),
            digest: "00000000deadbeef".into(),
            resumed,
        };
        let r = MatrixReport {
            mode: VerifyMode::Digest,
            cells: vec![cell(false), cell(true)],
            recovery: RecoverySummary::default(),
        };
        let text = r.render();
        assert!(text.contains("pass (resumed)"), "{text}");
        assert!(text.contains("(1 resumed from journal)"), "{text}");
        assert!(r.all_passed());
    }

    #[test]
    fn resume_cell_flags_digest_drift_against_goldens() {
        use bdb_verify::golden::GoldenRecord;
        let dir = std::env::temp_dir()
            .join(format!("bdb-matrix-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = GoldenStore::at(&dir);
        let key = RunJournal::cell_key("micro/sort", "sql", 1, 10);
        store
            .store(
                &key,
                &GoldenRecord {
                    prescription: "micro/sort".into(),
                    engine: "sql".into(),
                    seed: 1,
                    scale: 10,
                    shape: "ordered".into(),
                    len: 10,
                    digest: "00000000000000aa".into(),
                },
            )
            .unwrap();
        let cp = |digest: &str| CellCheckpoint {
            key: key.clone(),
            prescription: "micro/sort".into(),
            engine: "sql".into(),
            seed: 1,
            scale: 10,
            shape: "ordered".into(),
            len: 10,
            digest: digest.into(),
            checks: 2,
            passed: true,
            failures: Vec::new(),
        };
        let trace = RunTrace::new();
        let good = resume_cell(cp("00000000000000aa"), "sql", &trace, Some(&store));
        assert!(good.passed && good.resumed);
        let drifted = resume_cell(cp("00000000000000bb"), "sql", &trace, Some(&store));
        assert!(!drifted.passed, "journal/golden digest drift must fail the cell");
        assert!(drifted.failures.iter().any(|f| f.contains("resume:")), "{:?}", drifted.failures);
        let events = trace.events();
        assert_eq!(events.iter().filter(|e| e.label() == "cell_resumed").count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
