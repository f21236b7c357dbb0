//! Crash-point chaos, end to end: kill the process (simulated) at seeded
//! points — mid-WAL-append, pre-flush, pre-manifest, pre-WAL-rotate in
//! the KV store; between cells in the verification matrix; at engine
//! dispatch in a single run — then recover, and assert the recovered
//! state / resumed run is identical to an uninterrupted one.

use bdbench::core::layers::BenchmarkSpec;
use bdbench::core::matrix::{verify_matrix_routed, MatrixDurability};
use bdbench::core::pipeline::Benchmark;
use bdbench::exec::journal::RunJournal;
use bdbench::kv::{CrashPoint, LsmConfig, LsmStore};
use bdbench::testgen::SystemKind;
use bdbench::verify::VerifyMode;
use std::collections::BTreeMap;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bdb-crash-rec-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_config() -> LsmConfig {
    LsmConfig { memtable_capacity_bytes: 128, max_runs: 3, ..LsmConfig::default() }
}

/// Sweep all four KV kill points: for each, build identical committed
/// state, arm the crash, attempt the next operation, reopen, and assert
/// the recovered contents are byte-identical to a store that never
/// crashed — the in-flight write is the only thing allowed to differ,
/// and only for the mid-WAL-append point.
#[test]
fn kv_kill_points_recover_committed_state_exactly() {
    let phases = [
        CrashPoint::WalAppend,
        CrashPoint::PreFlush,
        CrashPoint::PreManifest,
        CrashPoint::PreWalRotate,
    ];
    // The uninterrupted twin: same writes, no crash, no flush boundary
    // dependence (scan sees memtable + runs uniformly).
    let baseline_dir = temp_dir("kv-baseline");
    let mut baseline = LsmStore::open(&baseline_dir, tiny_config()).unwrap();
    for i in 0..40u32 {
        baseline.put(format!("key{i:03}").into_bytes(), i.to_le_bytes().to_vec());
    }
    baseline.delete(b"key007".to_vec());
    let want: Vec<(Vec<u8>, Vec<u8>)> = baseline.scan(&[], None, usize::MAX);

    for phase in phases {
        let dir = temp_dir(&format!("kv-{phase}"));
        {
            let mut store = LsmStore::open(&dir, tiny_config()).unwrap();
            for i in 0..40u32 {
                store.put(format!("key{i:03}").into_bytes(), i.to_le_bytes().to_vec());
            }
            store.delete(b"key007".to_vec());
            store.arm_crash(phase);
            // The armed point fires on the next durable transition. For
            // the WAL point that is any write; for the flush-path points
            // an explicit flush.
            let crashed = match phase {
                CrashPoint::WalAppend => {
                    store.try_put(b"in-flight".to_vec(), b"lost".to_vec())
                }
                _ => store.try_flush(),
            };
            let err = crashed.unwrap_err();
            assert!(err.is_crash(), "{phase}: expected a crash error, got {err}");
        }
        // A fresh process: reopen from disk only.
        let mut recovered = LsmStore::open(&dir, tiny_config()).unwrap();
        assert_eq!(
            recovered.scan(&[], None, usize::MAX),
            want,
            "{phase}: recovered contents diverged from the uninterrupted store"
        );
        // The in-flight write died with the crash, never half-applied.
        assert_eq!(recovered.get(b"in-flight"), None, "{phase}");
        // The store stays writable after recovery.
        recovered.put(b"after".to_vec(), b"ok".to_vec());
        assert_eq!(recovered.get(b"after"), Some(b"ok".to_vec()));
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&baseline_dir);
}

/// Crash-and-recover repeatedly on one directory: every reopen sees all
/// committed writes of every previous incarnation.
#[test]
fn repeated_crashes_accumulate_no_loss() {
    let dir = temp_dir("kv-repeat");
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for round in 0..4u32 {
        let mut store = LsmStore::open(&dir, tiny_config()).unwrap();
        for i in 0..12u32 {
            let key = format!("r{round}-k{i}").into_bytes();
            store.put(key.clone(), vec![i as u8]);
            model.insert(key, vec![i as u8]);
        }
        store.arm_crash(CrashPoint::PreFlush);
        assert!(store.try_flush().unwrap_err().is_crash());
    }
    let recovered = LsmStore::open(&dir, tiny_config()).unwrap();
    let want: Vec<(Vec<u8>, Vec<u8>)> =
        model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert_eq!(recovered.scan(&[], None, usize::MAX), want);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill the matrix sweep mid-run, resume from the journal, and assert
/// the resumed report's cells — verdicts and digests — are identical to
/// an uninterrupted sweep's.
#[test]
fn killed_matrix_resumes_to_identical_digests() {
    let scale = 20;
    let seed = 7;
    let mode = VerifyMode::Strict;
    // A private golden store: missing goldens are recorded on first
    // sight, and pointing the sweep at the repo's committed store would
    // litter it with seed-7 artifacts.
    let goldens_dir = temp_dir("matrix-goldens");
    std::fs::create_dir_all(&goldens_dir).unwrap();
    let goldens = goldens_dir.to_str().unwrap();
    let uninterrupted =
        verify_matrix_routed(scale, seed, mode, Some(goldens), &MatrixDurability::default())
            .unwrap();
    assert!(uninterrupted.all_passed(), "{}", uninterrupted.render());

    let journal_dir = temp_dir("matrix-journal");
    let journal = RunJournal::open(&journal_dir).unwrap();
    // One kill point, armed to fire after the third completed cell.
    let plan = "crash@exec:1:max=1".parse().unwrap();
    let crashed = verify_matrix_routed(
        scale,
        seed,
        mode,
        Some(goldens),
        &MatrixDurability { journal: Some(&journal), faults: Some(&plan) },
    );
    let err = crashed.unwrap_err();
    assert!(err.is_crash(), "expected a crash, got {err}");
    let checkpointed = journal.completed().len();
    assert!(
        checkpointed >= 1 && checkpointed < uninterrupted.cells.len(),
        "crash must land mid-sweep, got {checkpointed} checkpoints"
    );

    let resumed = verify_matrix_routed(
        scale,
        seed,
        mode,
        Some(goldens),
        &MatrixDurability { journal: Some(&journal), faults: None },
    )
    .unwrap();
    assert!(resumed.all_passed(), "{}", resumed.render());
    assert_eq!(resumed.recovery.cells_resumed as usize, checkpointed);
    assert!(resumed.cells.iter().any(|c| c.resumed));

    // Cell-for-cell identity with the uninterrupted sweep: same order,
    // same verdicts, same conformance digests.
    assert_eq!(resumed.cells.len(), uninterrupted.cells.len());
    for (r, u) in resumed.cells.iter().zip(&uninterrupted.cells) {
        assert_eq!(
            (r.prescription.as_str(), r.engine, r.passed),
            (u.prescription.as_str(), u.engine, u.passed)
        );
        assert_eq!(
            r.digest, u.digest,
            "{}@{}: resumed digest diverged from uninterrupted run",
            r.prescription, r.engine
        );
    }
    let _ = std::fs::remove_dir_all(&journal_dir);
    let _ = std::fs::remove_dir_all(&goldens_dir);
}

/// A `crash@exec` fault in a single run is terminal: no retries — the
/// run dies exactly as a killed process would, and the error says so.
#[test]
fn single_run_crash_aborts_without_failover() {
    let spec = BenchmarkSpec::new("crash")
        .with_prescription("micro/wordcount")
        .with_system(SystemKind::Native)
        .with_scale(100)
        .with_seed(17)
        .with_faults("crash@exec:1".parse().unwrap())
        .with_retries(5);
    let err = Benchmark::new().run(&spec).unwrap_err();
    assert!(err.is_crash(), "got {err}");
    assert!(err.to_string().contains("crashed"), "{err}");
}

/// The same crash clause scoped to datagen kills generation instead —
/// proving the phase vocabulary reaches the kill point.
#[test]
fn datagen_crash_is_also_terminal() {
    let spec = BenchmarkSpec::new("crash-datagen")
        .with_prescription("micro/wordcount")
        .with_system(SystemKind::Native)
        .with_scale(100)
        .with_seed(17)
        .with_faults("crash@datagen:1".parse().unwrap())
        .with_retries(5);
    let err = Benchmark::new().run(&spec).unwrap_err();
    assert!(err.is_crash(), "got {err}");
}
