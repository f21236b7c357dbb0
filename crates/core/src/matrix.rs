//! The verification matrix: every built-in prescription swept across
//! every capable built-in engine, each cell verified differentially.
//!
//! [`verify_matrix`] is the harness behind `bdbench verify`: it runs each
//! (prescription, engine) pair in isolation — a single-engine registry,
//! so capability routing cannot silently substitute a different backend —
//! and collects the conformance verdicts per cell.
//!
//! [`verify_matrix_routed`] adds crash durability to the sweep: an optional
//! [`RunJournal`] gets one atomic checkpoint per cell, written after the
//! cell completes and named by its golden-store key, so a process killed
//! mid-sweep leaves a journal holding a prefix of a complete one.
//! Re-running with the same journal resumes: checkpointed cells are
//! skipped, their recorded digests re-verified against the golden store,
//! and only the remaining cells execute — so a killed-and-resumed sweep's
//! verdicts are comparable cell-for-cell with an uninterrupted run's.

use crate::layers::BenchmarkSpec;
use crate::pipeline::Benchmark;
use bdb_common::Result;
use bdb_exec::analyzer::RecoverySummary;
use bdb_exec::engine::{
    Engine, EngineRegistry, KvEngine, MapReduceEngine, NativeEngine, SqlEngine, StreamingEngine,
    WorkloadClass,
};
use bdb_exec::trace::{RunTrace, TraceEvent};
use bdb_testgen::{PrescriptionRepository, SystemKind};
use bdb_verify::journal::{CellCheckpoint, RunJournal};
use bdb_verify::{GoldenStore, VerifyMode};

/// The engine thread count the benchmark's `verify_matrix` replay
/// configures. The sweep here runs at the default count: no cell's digest
/// depends on it.
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
    /// The sweep's journal activity: checkpoints written and cells
    /// resumed from a journal.
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
        if self.recovery.checkpoints_written > 0 || self.recovery.cells_resumed > 0 {
            let mut journal = TableReporter::new("Journal", &["metric", "value"]);
            journal.add_row(&[
                "checkpoints written".into(),
                self.recovery.checkpoints_written.to_string(),
            ]);
            journal.add_row(&["cells resumed".into(), self.recovery.cells_resumed.to_string()]);
            out.push('\n');
            out.push_str(&journal.to_text());
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
    verify_matrix_routed(scale, seed, mode, goldens_dir, None)
}

/// [`verify_matrix`] with a run journal: every completed cell is
/// checkpointed there, and cells already checkpointed are resumed rather
/// than run (see the module docs for the crash/resume contract).
///
/// # Errors
/// Fails as [`verify_matrix`] does, plus on journal write errors.
pub fn verify_matrix_routed(
    scale: u64,
    seed: u64,
    mode: VerifyMode,
    goldens_dir: Option<&str>,
    journal: Option<&RunJournal>,
) -> Result<MatrixReport> {
    let golden_store = goldens_dir.map(GoldenStore::at);
    let sweep_trace = RunTrace::new();
    if let Some(journal) = journal {
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
        let key = GoldenStore::key(&name, engine_name, seed, scale);
        // A checkpointed cell was completed by the prior (killed) run:
        // honour its verdicts, re-verify its digest against the golden
        // store, and skip execution.
        if let Some(cp) = journal.and_then(|j| j.load(&key)) {
            let store = golden_store.as_ref();
            cells.push(resume_cell(&name, engine_name, &key, cp, &sweep_trace, store));
            continue;
        }
        let system = engine
            .capabilities()
            .systems
            .first()
            .copied()
            .unwrap_or(SystemKind::Native);
        let mut bench = Benchmark::new();
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
        if let Some(journal) = journal {
            journal.record(&key, &checkpoint_of(&cell))?;
            sweep_trace.record(TraceEvent::CheckpointWritten {
                key: key.clone(),
                digest: cell.digest.clone(),
            });
        }
        cells.push(cell);
    }
    let recovery = RecoverySummary::from_events(&sweep_trace.events());
    Ok(MatrixReport { mode, cells, recovery })
}

/// Turn the journal checkpoint of `prescription` on `engine_name` (whose
/// key is `key`) back into a matrix cell, re-verifying its recorded
/// digest against the golden store when one is given.
fn resume_cell(
    prescription: &str,
    engine_name: &'static str,
    key: &str,
    cp: CellCheckpoint,
    trace: &RunTrace,
    store: Option<&GoldenStore>,
) -> MatrixCell {
    let mut failures = cp.failures;
    let mut passed = cp.passed;
    let golden = store.and_then(|s| s.load(key));
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
        key: key.to_string(),
        digest: cp.digest.clone(),
        reverified: golden.is_some(),
    });
    MatrixCell {
        prescription: prescription.to_string(),
        engine: engine_name,
        checks: u64::from(cp.checks),
        passed,
        failures,
        digest: cp.digest,
        resumed: true,
    }
}

/// The checkpoint a completed cell writes: its digest and verdicts.
fn checkpoint_of(cell: &MatrixCell) -> CellCheckpoint {
    CellCheckpoint {
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
            .map(|(name, engine)| GoldenStore::key(name, engine.name(), 42, 300))
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
        let key = GoldenStore::key("micro/sort", "sql", 1, 10);
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
            digest: digest.into(),
            checks: 2,
            passed: true,
            failures: Vec::new(),
        };
        let trace = RunTrace::new();
        let resume = |digest: &str| {
            resume_cell("micro/sort", "sql", &key, cp(digest), &trace, Some(&store))
        };
        let good = resume("00000000000000aa");
        assert!(good.passed && good.resumed);
        let drifted = resume("00000000000000bb");
        assert!(!drifted.passed, "journal/golden digest drift must fail the cell");
        assert!(drifted.failures.iter().any(|f| f.contains("resume:")), "{:?}", drifted.failures);
        let events = trace.events();
        assert_eq!(events.iter().filter(|e| e.label() == "cell_resumed").count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
