//! Crash recovery, end to end: kill the KV store (simulated) at seeded
//! points — mid-WAL-append, pre-flush, pre-manifest, pre-WAL-rotate — and
//! resume a verification sweep from what a killed process leaves in its
//! journal, then assert the recovered state / resumed sweep is identical
//! to an uninterrupted one.

use bdbench::core::matrix::verify_matrix_routed;
use bdbench::kv::{CrashPoint, LsmConfig, LsmStore};
use bdbench::verify::journal::RunJournal;
use bdbench::verify::{GoldenStore, VerifyMode};
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

/// A killed sweep leaves a journal holding a prefix of a complete one:
/// each checkpoint is one atomic file, written after its cell completes.
/// Resume prefixes of a completed sweep's journal (none, one cell, a
/// third, all but one, all) and assert each resumed report's cells —
/// verdicts and digests — are identical to the uninterrupted sweep's.
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
    let full = RunJournal::open(temp_dir("matrix-journal")).unwrap();
    let uninterrupted = verify_matrix_routed(scale, seed, mode, Some(goldens), Some(&full)).unwrap();
    assert!(uninterrupted.all_passed(), "{}", uninterrupted.render());
    assert_eq!(uninterrupted.recovery.checkpoints_written as usize, uninterrupted.cells.len());

    // The checkpoints in the order the sweep wrote them.
    let keys: Vec<String> = uninterrupted
        .cells
        .iter()
        .map(|c| GoldenStore::key(&c.prescription, c.engine, seed, scale))
        .collect();
    assert_eq!(full.completed().len(), keys.len());
    for prefix in [0, 1, keys.len() / 3, keys.len() - 1, keys.len()] {
        let killed = RunJournal::open(temp_dir(&format!("matrix-prefix-{prefix}"))).unwrap();
        for key in &keys[..prefix] {
            std::fs::copy(full.dir().join(format!("{key}.json")), killed.dir().join(format!("{key}.json")))
                .unwrap();
        }
        let resumed = verify_matrix_routed(scale, seed, mode, Some(goldens), Some(&killed)).unwrap();
        assert!(resumed.all_passed(), "prefix {prefix}:\n{}", resumed.render());
        assert_eq!(resumed.recovery.cells_resumed as usize, prefix);
        assert_eq!(resumed.recovery.checkpoints_written as usize, keys.len() - prefix);
        assert_eq!(killed.completed().len(), keys.len(), "prefix {prefix}: the journal completes");

        // Cell-for-cell identity with the uninterrupted sweep: same order,
        // same verdicts, same conformance digests; exactly the prefix is
        // taken from the journal.
        assert_eq!(resumed.cells.len(), uninterrupted.cells.len());
        for (i, (r, u)) in resumed.cells.iter().zip(&uninterrupted.cells).enumerate() {
            assert_eq!(
                (r.prescription.as_str(), r.engine, r.passed, r.checks),
                (u.prescription.as_str(), u.engine, u.passed, u.checks)
            );
            assert_eq!(
                r.digest, u.digest,
                "{}@{}: resumed digest diverged from uninterrupted run",
                r.prescription, r.engine
            );
            assert_eq!(r.resumed, i < prefix, "{}@{}", r.prescription, r.engine);
        }
        let _ = std::fs::remove_dir_all(killed.dir());
    }
    let _ = std::fs::remove_dir_all(full.dir());
    let _ = std::fs::remove_dir_all(&goldens_dir);
}
