//! The run journal: per-cell checkpoints that make a killed sweep
//! resumable.
//!
//! A journaled `verify` sweep writes one JSON checkpoint file per
//! completed cell into a run directory, named by the cell's golden-store
//! key ([`GoldenStore::key`](crate::golden::GoldenStore::key)), each via
//! temp-file + atomic rename after the cell completes. A process killed mid-sweep
//! therefore leaves a journal holding a prefix of a complete one: no
//! torn file, no checkpoint for the cell it was running. Rerunning with
//! `--journal <run-dir>` resumes: checkpointed cells are skipped, their
//! recorded digests are carried into the report (and re-verified
//! against the golden store when one is given), and only the remaining
//! cells execute.
//!
//! A checkpoint records the cell's verdict, not its payload or its
//! coordinates: the key names the cell, and resumption re-checks
//! identity through the same digest the conformance oracle uses, so a
//! resumed sweep's verdict table is byte-comparable with an
//! uninterrupted one's.

use bdb_common::fsio::write_atomic;
use bdb_common::{BdbError, Result};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// The verdict one completed cell left in the journal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellCheckpoint {
    /// Canonical FNV-1a digest, 16 hex digits ("-" when the cell
    /// attached no output payload).
    pub digest: String,
    /// Conformance checks the cell ran.
    pub checks: u32,
    /// Whether every check passed.
    pub passed: bool,
    /// Failure descriptions, empty when `passed`.
    pub failures: Vec<String>,
}

/// A directory of [`CellCheckpoint`] files for one (possibly killed) run,
/// one file per cell key.
#[derive(Debug, Clone)]
pub struct RunJournal {
    dir: PathBuf,
}

impl RunJournal {
    /// Open (creating if needed) the journal at `dir`.
    ///
    /// # Errors
    /// Fails when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| BdbError::Io(format!("create run journal {}: {e}", dir.display())))?;
        Ok(Self { dir })
    }

    /// The journal's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Persist one completed cell under `key`, atomically. A kill before
    /// the rename leaves no checkpoint (the cell re-runs on resume); a
    /// kill after leaves a complete one — never a torn file.
    ///
    /// # Errors
    /// Fails on filesystem errors.
    pub fn record(&self, key: &str, checkpoint: &CellCheckpoint) -> Result<()> {
        let json = serde_json::to_string(checkpoint)
            .map_err(|e| BdbError::Io(format!("encode checkpoint: {e}")))?;
        write_atomic(&self.path(key), (json + "\n").as_bytes())
    }

    /// Load one checkpoint, or `None` when the cell never completed.
    /// An unparsable file is treated as absent — the cell simply re-runs,
    /// which is always safe.
    pub fn load(&self, key: &str) -> Option<CellCheckpoint> {
        let text = std::fs::read_to_string(self.path(key)).ok()?;
        serde_json::from_str(&text).ok()
    }

    /// Keys of all valid checkpoints, sorted.
    pub fn completed(&self) -> Vec<String> {
        let mut out: Vec<String> = std::fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let key = name.strip_suffix(".json")?;
                self.load(key).map(|_| key.to_string())
            })
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_journal(tag: &str) -> RunJournal {
        let dir = std::env::temp_dir().join(format!("bdb-journal-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        RunJournal::open(dir).unwrap()
    }

    fn checkpoint() -> CellCheckpoint {
        CellCheckpoint {
            digest: "00000000deadbeef".into(),
            checks: 2,
            passed: true,
            failures: Vec::new(),
        }
    }

    #[test]
    fn key_matches_golden_store_format() {
        // A checkpoint and its golden line up by file name: the journal
        // and the golden store name a cell's file by the same key.
        use crate::golden::{GoldenRecord, GoldenStore};
        let journal = tmp_journal("golden-key");
        let goldens = GoldenStore::at(journal.dir().join("goldens"));
        let key = GoldenStore::key("micro/grep", "native", 42, 100);
        journal.record(&key, &checkpoint()).unwrap();
        let payload = bdb_workloads::OutputPayload::Ordered(vec!["a".into()]);
        let golden = GoldenRecord::of(&payload, payload.digest(), "micro/grep", "native", 42, 100);
        goldens.store(&key, &golden).unwrap();
        assert_eq!(journal.completed(), goldens.keys());
        assert!(journal.dir().join("micro-grep__native__s42__n100.json").is_file());
        let _ = std::fs::remove_dir_all(journal.dir());
    }

    #[test]
    fn round_trips_checkpoints() {
        let journal = tmp_journal("roundtrip");
        let key = "micro-sort__sql__s42__n300";
        assert!(journal.load(key).is_none());
        journal.record(key, &checkpoint()).unwrap();
        assert_eq!(journal.load(key), Some(checkpoint()));
        assert_eq!(journal.completed(), vec![key]);
        let _ = std::fs::remove_dir_all(journal.dir());
    }

    #[test]
    fn longer_checkpoints_still_resume() {
        // A checkpoint that also restates the cell's coordinates and
        // payload shape, as journals used to, yields the same verdict.
        let journal = tmp_journal("longer");
        let key = "micro-sort__sql__s42__n300";
        std::fs::write(
            journal.dir().join(format!("{key}.json")),
            format!(
                "{{\"key\":\"{key}\",\"prescription\":\"micro/sort\",\"engine\":\"sql\",\
                 \"seed\":42,\"scale\":300,\"shape\":\"ordered\",\"len\":300,\
                 \"digest\":\"00000000deadbeef\",\"checks\":2,\"passed\":true,\"failures\":[]}}\n"
            ),
        )
        .unwrap();
        assert_eq!(journal.load(key), Some(checkpoint()));
        let _ = std::fs::remove_dir_all(journal.dir());
    }

    #[test]
    fn corrupt_checkpoints_are_treated_as_absent() {
        let journal = tmp_journal("corrupt");
        let key = "bad__cell__s1__n1";
        std::fs::write(journal.dir().join(format!("{key}.json")), b"{torn").unwrap();
        assert!(journal.load(key).is_none());
        assert!(journal.completed().is_empty());
        let _ = std::fs::remove_dir_all(journal.dir());
    }

    #[test]
    fn completed_sorts_by_key_and_reopen_sees_prior_state() {
        let journal = tmp_journal("sorted");
        for key in ["b__e__s1__n1", "a__e__s1__n1"] {
            journal.record(key, &checkpoint()).unwrap();
        }
        let reopened = RunJournal::open(journal.dir()).unwrap();
        assert_eq!(reopened.completed(), vec!["a__e__s1__n1", "b__e__s1__n1"]);
        let _ = std::fs::remove_dir_all(journal.dir());
    }
}
