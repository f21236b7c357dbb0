//! The run journal: per-cell checkpoints that make runs resumable.
//!
//! A journaled run writes one JSON checkpoint file per completed matrix
//! cell (or suite workload) into a run directory, keyed exactly like the
//! golden store (`prescription__engine__s<seed>__n<scale>`), each via
//! temp-file + atomic rename. When a run is killed — by a real crash or
//! an injected `crash@` fault — the directory holds a complete record of
//! everything that finished; rerunning with `--journal <run-dir>` replays
//! it: completed cells are skipped, their recorded digests are carried
//! into the report (and re-verified against the golden store when one is
//! present), and only the remaining cells execute.
//!
//! The journal deliberately records *outcomes* (shape, length, digest,
//! verdicts), not payloads: resumption re-checks identity through the
//! same digests the conformance oracle uses, so a resumed run's verdict
//! table is byte-comparable with an uninterrupted run's.

use bdb_common::fsio::write_atomic;
use bdb_common::{BdbError, Result};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// One checkpointed cell: the run coordinates plus the verdict the cell
/// produced before the crash.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellCheckpoint {
    /// The checkpoint key (also the file stem).
    pub key: String,
    /// Prescription name.
    pub prescription: String,
    /// The engine that executed the cell.
    pub engine: String,
    /// Run seed.
    pub seed: u64,
    /// Run scale (items).
    pub scale: u64,
    /// Payload shape ("rowset", "ordered", "numeric", or "none").
    pub shape: String,
    /// Payload entry count.
    pub len: u64,
    /// Canonical FNV-1a digest, 16 hex digits ("-" when the cell
    /// attached no output payload).
    pub digest: String,
    /// Conformance checks the cell ran before the crash.
    pub checks: u32,
    /// Whether every check passed.
    pub passed: bool,
    /// Failure descriptions, empty when `passed`.
    pub failures: Vec<String>,
}

/// A directory of [`CellCheckpoint`] files for one (possibly crashed) run.
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

    /// The checkpoint key of a run cell — the same format the golden
    /// store uses, so a checkpoint and its golden line up by name.
    /// (Duplicated from the verify crate's `GoldenStore::key`, which sits
    /// above this crate in the dependency order.)
    pub fn cell_key(prescription: &str, engine: &str, seed: u64, scale: u64) -> String {
        let slug: String = prescription
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' { c } else { '-' })
            .collect();
        format!("{slug}__{engine}__s{seed}__n{scale}")
    }

    fn path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Persist one completed cell, atomically. A crash before the rename
    /// leaves no checkpoint (the cell re-runs on resume); a crash after
    /// leaves a complete one — never a torn file.
    ///
    /// # Errors
    /// Fails on filesystem errors.
    pub fn record(&self, checkpoint: &CellCheckpoint) -> Result<()> {
        let json = serde_json::to_string(checkpoint)
            .map_err(|e| BdbError::Io(format!("encode checkpoint: {e}")))?;
        write_atomic(&self.path(&checkpoint.key), (json + "\n").as_bytes())
    }

    /// Load one checkpoint, or `None` when the cell never completed.
    /// An unparsable file is treated as absent — the cell simply re-runs,
    /// which is always safe.
    pub fn load(&self, key: &str) -> Option<CellCheckpoint> {
        let text = std::fs::read_to_string(self.path(key)).ok()?;
        serde_json::from_str(&text).ok()
    }

    /// All valid checkpoints, sorted by key.
    pub fn completed(&self) -> Vec<CellCheckpoint> {
        let mut out: Vec<CellCheckpoint> = std::fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let key = name.strip_suffix(".json")?;
                self.load(key)
            })
            .collect();
        out.sort_by(|a, b| a.key.cmp(&b.key));
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

    fn checkpoint(key: &str) -> CellCheckpoint {
        CellCheckpoint {
            key: key.to_string(),
            prescription: "micro/sort".into(),
            engine: "sql".into(),
            seed: 42,
            scale: 300,
            shape: "ordered".into(),
            len: 300,
            digest: "00000000deadbeef".into(),
            checks: 2,
            passed: true,
            failures: Vec::new(),
        }
    }

    #[test]
    fn key_matches_golden_store_format() {
        assert_eq!(
            RunJournal::cell_key("micro/grep", "native", 42, 100),
            "micro-grep__native__s42__n100"
        );
        assert_eq!(
            RunJournal::cell_key("relational/select-aggregate", "sql", 7, 5),
            "relational-select-aggregate__sql__s7__n5"
        );
    }

    #[test]
    fn round_trips_checkpoints() {
        let journal = tmp_journal("roundtrip");
        let key = RunJournal::cell_key("micro/sort", "sql", 42, 300);
        assert!(journal.load(&key).is_none());
        let cp = checkpoint(&key);
        journal.record(&cp).unwrap();
        assert_eq!(journal.load(&key), Some(cp.clone()));
        assert_eq!(journal.completed(), vec![cp]);
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
            journal.record(&checkpoint(key)).unwrap();
        }
        let reopened = RunJournal::open(journal.dir()).unwrap();
        let keys: Vec<String> = reopened.completed().into_iter().map(|c| c.key).collect();
        assert_eq!(keys, vec!["a__e__s1__n1", "b__e__s1__n1"]);
        let _ = std::fs::remove_dir_all(journal.dir());
    }
}
