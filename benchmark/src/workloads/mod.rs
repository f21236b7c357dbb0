//! The seven workloads. Each is a fixed body of work behind the
//! [`Workload`](crate::harness::Workload) protocol; `README.md` says what
//! each is for.

mod datagen_volume;
mod kv_ycsb;
mod load_kv_open;
mod load_sql_closed;
mod pipeline;
mod run_engine;
mod verify_matrix;

use crate::harness::Workload;
use bdbench::exec::SystemConfig;
use bdbench::testgen::SystemKind;
use std::path::Path;

/// Load is sized for 2 cores: never more than 2 runnable threads.
pub const THREADS: usize = 2;

/// Engine configuration of every pipeline run: threads pinned, not
/// `available_parallelism`, so the same work runs on any host.
pub fn engine_config() -> SystemConfig {
    SystemConfig::default().with_threads(THREADS)
}

/// An empty directory at `path` (removing what a previous set-up left),
/// as the string the library's `goldens_dir` parameters take.
///
/// # Errors
/// Fails when the directory cannot be emptied or created.
pub fn fresh_dir(path: &Path) -> Result<String, String> {
    if path.exists() {
        std::fs::remove_dir_all(path).map_err(|e| format!("remove {}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    path.to_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{} is not UTF-8", path.display()))
}

/// The workload called `name`, if there is one.
pub fn build(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        "run_sql" => Box::new(run_engine::RunEngine::new(SystemKind::Sql)),
        "run_mapreduce" => Box::new(run_engine::RunEngine::new(SystemKind::MapReduce)),
        "verify_matrix" => Box::new(verify_matrix::VerifyMatrix::default()),
        "load_sql_closed" => Box::new(load_sql_closed::LoadSqlClosed::default()),
        "load_kv_open" => Box::new(load_kv_open::LoadKvOpen::default()),
        "datagen_volume" => Box::new(datagen_volume::DatagenVolume::default()),
        "kv_ycsb" => Box::new(kv_ycsb::KvYcsb::default()),
        _ => return None,
    })
}
