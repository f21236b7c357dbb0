//! The Table 2 harness: run every suite's example workloads through the
//! pipeline and classify them.
//!
//! Table 2 tabulates workload *types* (online services / offline
//! analytics / real-time analytics), example workloads, and software
//! stacks. Each suite names, per example, the repository prescription and
//! system that run it; the runner sends every such cell through
//! [`Benchmark::run`] under the strict oracle and takes the type cell from
//! the categories those runs report. Examples no prescription expresses
//! print as "not run". The runs record their goldens in a directory the
//! runner owns and removes, never in the repository's `goldens/`.

use crate::descriptor::{BenchmarkSuite, SuiteWorkload};
use bdb_common::{BdbError, Result};
use bdb_core::{Benchmark, BenchmarkRun, BenchmarkSpec};
use bdb_exec::reporter::{fmt_num, TableReporter};
use bdb_verify::VerifyMode;
use bdb_workloads::{WorkloadCategory, WorkloadResult};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// One example cell of a suite's row and the run behind it.
#[derive(Debug)]
pub struct CellRun {
    /// The example and the prescription the suite pairs it with.
    pub workload: SuiteWorkload,
    /// The strict-verified pipeline run; `None` when the example is not
    /// run.
    pub run: Option<BenchmarkRun>,
}

impl CellRun {
    /// True when the cell ran, checked at least once, and every check
    /// passed.
    pub fn conformant(&self) -> bool {
        self.run
            .as_ref()
            .is_some_and(|r| !r.conformance.is_empty() && r.conformance.all_passed())
    }
}

/// One suite's measured Table 2 row.
#[derive(Debug)]
pub struct SuiteRun {
    /// Suite name as the paper spells it.
    pub name: &'static str,
    /// Every example cell, in descriptor order.
    pub cells: Vec<CellRun>,
}

impl SuiteRun {
    /// The results of every cell that ran.
    pub fn results(&self) -> impl Iterator<Item = &WorkloadResult> {
        self.cells.iter().filter_map(|c| c.run.as_ref()).flat_map(|r| &r.results)
    }

    /// The measured type cell.
    pub fn categories(&self) -> Vec<WorkloadCategory> {
        observed_categories(self.results())
    }

    /// Cells that ran.
    pub fn runs(&self) -> usize {
        self.cells.iter().filter(|c| c.run.is_some()).count()
    }

    /// True when every cell that ran is conformant.
    pub fn conformant(&self) -> bool {
        self.cells.iter().all(|c| c.run.is_none() || c.conformant())
    }
}

/// A golden directory the runner owns: fresh under the system temp
/// directory, removed on drop.
struct OwnedGoldens(String);

impl OwnedGoldens {
    fn new() -> Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir: PathBuf = std::env::temp_dir().join(format!(
            "bdbench-suite-goldens-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        dir.to_str()
            .map(|d| Self(d.to_string()))
            .ok_or_else(|| BdbError::Io(format!("{} is not UTF-8", dir.display())))
    }
}

impl Drop for OwnedGoldens {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run one suite's cells through the pipeline at `scale` and `seed`.
///
/// # Errors
/// Fails when a cell cannot run (generation or execution error).
/// Divergence is reported in the cells, not as an error.
pub fn run_suite(suite: &dyn BenchmarkSuite, scale: u64, seed: u64) -> Result<SuiteRun> {
    run_cells(suite, scale, seed, &Benchmark::new(), &OwnedGoldens::new()?)
}

fn run_cells(
    suite: &dyn BenchmarkSuite,
    scale: u64,
    seed: u64,
    bench: &Benchmark,
    goldens: &OwnedGoldens,
) -> Result<SuiteRun> {
    let desc = suite.descriptor();
    let cells = desc
        .workloads
        .into_iter()
        .map(|workload| {
            let run = workload
                .run
                .map(|(prescription, system)| {
                    let spec = BenchmarkSpec::new(&format!("{}: {}", desc.name, workload.example))
                        .with_prescription(prescription)
                        .with_system(system)
                        .with_scale(scale)
                        .with_seed(seed)
                        .with_verify(VerifyMode::Strict)
                        .with_goldens_dir(&goldens.0);
                    bench.run(&spec).map_err(|e| {
                        BdbError::Execution(format!(
                            "{}: {prescription} on {system}: {e}",
                            desc.name
                        ))
                    })
                })
                .transpose()?;
            Ok(CellRun { workload, run })
        })
        .collect::<Result<_>>()?;
    Ok(SuiteRun { name: desc.name, cells })
}

/// Categories observed in a set of results, in display order.
fn observed_categories<'a>(
    results: impl IntoIterator<Item = &'a WorkloadResult>,
) -> Vec<WorkloadCategory> {
    let seen: Vec<WorkloadCategory> = results.into_iter().map(|r| r.category).collect();
    [
        WorkloadCategory::OnlineServices,
        WorkloadCategory::OfflineAnalytics,
        WorkloadCategory::RealTimeAnalytics,
    ]
    .into_iter()
    .filter(|c| seen.contains(c))
    .collect()
}

/// Regenerate Table 2: run every suite and render the comparison, with
/// measured totals. All suites share one owned golden directory, so a
/// prescription two suites run on the same system must digest alike.
///
/// # Errors
/// Fails when a cell cannot run.
pub fn render_table2(
    suites: &[Box<dyn BenchmarkSuite>],
    scale: u64,
    seed: u64,
) -> Result<(Vec<SuiteRun>, String)> {
    let mut reporter = TableReporter::new(
        "Table 2 - Comparison of benchmarking techniques (measured)",
        &[
            "Benchmark", "Workload types (measured)", "runs", "not run", "Software stacks",
            "total secs", "Mrops (geo)", "conformant", "types match paper",
        ],
    );
    let (bench, goldens) = (Benchmark::new(), OwnedGoldens::new()?);
    let mut runs = Vec::new();
    for suite in suites {
        let desc = suite.descriptor();
        let run = run_cells(suite.as_ref(), scale, seed, &bench, &goldens)?;
        let cats = run.categories();
        let total_secs: f64 = run.results().map(|r| r.report.user.duration_secs).sum();
        let logs: Vec<f64> =
            run.results().map(|r| r.report.arch.mrops).filter(|m| *m > 0.0).map(f64::ln).collect();
        let geo_mrops = if logs.is_empty() {
            0.0
        } else {
            (logs.iter().sum::<f64>() / logs.len() as f64).exp()
        };
        let stacks: Vec<&str> = desc.software_stacks.iter().map(|(stack, _)| *stack).collect();
        let yes_no = |b: bool| if b { "yes" } else { "NO" }.to_string();
        reporter.add_row(&[
            desc.name.to_string(),
            cats.iter().map(ToString::to_string).collect::<Vec<_>>().join(" + "),
            run.runs().to_string(),
            (run.cells.len() - run.runs()).to_string(),
            stacks.join(", "),
            fmt_num(total_secs),
            fmt_num(geo_mrops),
            yes_no(run.conformant()),
            yes_no(cats == desc.workload_types),
        ]);
        runs.push(run);
    }
    Ok((runs, reporter.to_text()))
}

/// Render the per-cell detail table for one suite: every example, the
/// prescription and engine that ran it (or "not run"), and its measured
/// category, metrics and strict verdict.
pub fn render_workload_details(run: &SuiteRun) -> String {
    let mut reporter = TableReporter::new(
        &format!("{} workloads", run.name),
        &[
            "example", "prescription", "system", "category", "secs", "ops/s", "p99 us", "Mrops",
            "verdict",
        ],
    );
    for cell in &run.cells {
        let example = cell.workload.example.to_string();
        let (Some(r), Some((prescription, _))) = (&cell.run, cell.workload.run) else {
            let mut row = vec![example, "not run".to_string()];
            row.resize(9, "-".to_string());
            reporter.add_row(&row);
            continue;
        };
        let verdict = if cell.conformant() { "CONFORMANT" } else { "DIVERGED" };
        for result in &r.results {
            reporter.add_row(&[
                example.clone(),
                prescription.to_string(),
                result.report.system.clone(),
                result.category.to_string(),
                fmt_num(result.report.user.duration_secs),
                fmt_num(result.report.user.throughput_ops_per_sec),
                fmt_num(result.report.user.latency_p99_us),
                fmt_num(result.report.arch.mrops),
                verdict.to_string(),
            ]);
        }
    }
    let mut text = reporter.to_text();
    for cell in &run.cells {
        for (prescription, engine, check, detail) in
            cell.run.iter().flat_map(|r| &r.conformance.failures)
        {
            text.push_str(&format!("  {prescription}@{engine} {check}: {detail}\n"));
        }
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn observed_categories_order_and_dedupe() {
        let grid = run_suite(&catalog::GridMix, 200, 1).unwrap();
        assert_eq!(grid.categories(), vec![WorkloadCategory::RealTimeAnalytics]);
        let cloud = run_suite(&catalog::CloudSuite, 200, 1).unwrap();
        let mixed = grid.results().chain(cloud.results()).chain(grid.results());
        assert_eq!(
            observed_categories(mixed),
            vec![
                WorkloadCategory::OnlineServices,
                WorkloadCategory::OfflineAnalytics,
                WorkloadCategory::RealTimeAnalytics,
            ]
        );
    }

    #[test]
    fn hibench_covers_offline_analytics() {
        let run = run_suite(&catalog::HiBench, 300, 2).unwrap();
        assert_eq!(
            run.categories(),
            vec![WorkloadCategory::OfflineAnalytics, WorkloadCategory::RealTimeAnalytics]
        );
    }

    #[test]
    fn bigdatabench_covers_all_three_categories() {
        let run = run_suite(&catalog::BigDataBench, 300, 3).unwrap();
        assert_eq!(run.categories().len(), 3, "categories: {:?}", run.categories());
        assert!(run.conformant());
    }

    #[test]
    fn detail_rendering_includes_each_workload() {
        let run = run_suite(&catalog::Ycsb, 200, 4).unwrap();
        let text = render_workload_details(&run);
        assert!(text.contains("oltp/read-mostly"), "{text}");
        assert!(text.contains("oltp/scan-heavy"), "{text}");
        assert!(text.contains("CONFORMANT"), "{text}");
        let grid = render_workload_details(&run_suite(&catalog::GridMix, 200, 4).unwrap());
        assert!(grid.contains("sampling a large dataset  not run"), "{grid}");
    }

    #[test]
    fn owned_goldens_are_the_runners_alone() {
        let goldens = OwnedGoldens::new().unwrap();
        let dir = PathBuf::from(&goldens.0);
        let run = run_cells(&catalog::GridMix, 200, 5, &Benchmark::new(), &goldens).unwrap();
        assert!(run.conformant());
        // The run recorded its golden in the owned directory ...
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        drop(goldens);
        // ... which is gone with the runner.
        assert!(!dir.exists());
    }
}
