//! The golden-run store: canonical payload digests on disk.
//!
//! One JSON file per `(prescription, engine, seed, scale)` cell, holding
//! the payload shape, entry count and 64-bit canonical digest of a known
//! good run. Goldens catch the failure mode differential checking cannot:
//! a semantics change in shared substrate (RNG, generators, `Value`
//! ordering) that moves the engine *and* the oracle together.

use bdb_common::fsio::write_atomic;
use bdb_common::{BdbError, Result};
use bdb_workloads::OutputPayload;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// One stored golden digest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GoldenRecord {
    /// Prescription name.
    pub prescription: String,
    /// Engine that produced the payload.
    pub engine: String,
    /// Run seed.
    pub seed: u64,
    /// Run scale (items).
    pub scale: u64,
    /// Payload shape ("rowset", "ordered", "numeric").
    pub shape: String,
    /// Payload entry count.
    pub len: u64,
    /// Canonical FNV-1a digest, as 16 hex digits.
    pub digest: String,
}

impl GoldenRecord {
    /// Build a record from a payload, its digest (`payload.digest()`, which
    /// a checker that has already hashed the payload passes on rather than
    /// recomputes) and its run coordinates.
    pub fn of(
        payload: &OutputPayload,
        digest: u64,
        prescription: &str,
        engine: &str,
        seed: u64,
        scale: u64,
    ) -> Self {
        Self {
            prescription: prescription.to_string(),
            engine: engine.to_string(),
            seed,
            scale,
            shape: payload.label().to_string(),
            len: payload.len() as u64,
            digest: format!("{digest:016x}"),
        }
    }
}

/// A directory of [`GoldenRecord`] files.
#[derive(Debug, Clone)]
pub struct GoldenStore {
    dir: PathBuf,
}

impl GoldenStore {
    /// A store rooted at an explicit directory.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file-name key of a run cell.
    pub fn key(prescription: &str, engine: &str, seed: u64, scale: u64) -> String {
        let slug: String = prescription
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' { c } else { '-' })
            .collect();
        format!("{slug}__{engine}__s{seed}__n{scale}")
    }

    fn path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Load a record, or `None` when the cell has no golden yet (or the
    /// file does not parse — treated as absent so regeneration heals it).
    pub fn load(&self, key: &str) -> Option<GoldenRecord> {
        let text = std::fs::read_to_string(self.path(key)).ok()?;
        serde_json::from_str(&text).ok()
    }

    /// Write (or overwrite) a record, via temp-file + atomic rename, so
    /// a reader (or a crash mid-update) never sees a torn golden.
    ///
    /// # Errors
    /// Fails on filesystem errors.
    pub fn store(&self, key: &str, record: &GoldenRecord) -> Result<()> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| BdbError::Io(format!("create {}: {e}", self.dir.display())))?;
        let json = serde_json::to_string(record)
            .map_err(|e| BdbError::Io(format!("encode golden: {e}")))?;
        write_atomic(&self.path(key), (json + "\n").as_bytes())
    }

    /// Keys of all stored goldens, sorted.
    pub fn keys(&self) -> Vec<String> {
        let mut out: Vec<String> = std::fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                name.strip_suffix(".json").map(str::to_string)
            })
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> GoldenStore {
        let dir = std::env::temp_dir()
            .join(format!("bdb-goldens-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        GoldenStore::at(dir)
    }

    #[test]
    fn round_trips_records() {
        let store = tmp_store("roundtrip");
        let payload = OutputPayload::Ordered(vec!["a".into(), "b".into()]);
        let rec = GoldenRecord::of(&payload, payload.digest(), "micro/grep", "native", 42, 100);
        let key = GoldenStore::key("micro/grep", "native", 42, 100);
        assert_eq!(key, "micro-grep__native__s42__n100");
        assert!(store.load(&key).is_none());
        store.store(&key, &rec).unwrap();
        assert_eq!(store.load(&key), Some(rec.clone()));
        assert_eq!(store.keys(), vec![key]);
        assert_eq!(rec.digest, format!("{:016x}", payload.digest()));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn store_overwrites_atomically_without_litter() {
        let store = tmp_store("atomic");
        let key = GoldenStore::key("micro/sort", "sql", 1, 10);
        for payload in [
            OutputPayload::Ordered(vec!["a".into()]),
            OutputPayload::Ordered(vec!["b".into()]),
        ] {
            let rec = GoldenRecord::of(&payload, payload.digest(), "micro/sort", "sql", 1, 10);
            store.store(&key, &rec).unwrap();
            assert_eq!(store.load(&key), Some(rec));
        }
        let litter: Vec<_> = std::fs::read_dir(store.dir())
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(litter.is_empty(), "temp files must not survive a store");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn digest_distinguishes_payloads() {
        let a = OutputPayload::Ordered(vec!["a".into()]);
        let b = OutputPayload::Ordered(vec!["b".into()]);
        let ra = GoldenRecord::of(&a, a.digest(), "p", "e", 1, 1);
        let rb = GoldenRecord::of(&b, b.digest(), "p", "e", 1, 1);
        assert_ne!(ra.digest, rb.digest);
    }
}
