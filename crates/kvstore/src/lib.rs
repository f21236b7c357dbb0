//! A miniature LSM key-value store.
//!
//! The substrate standing in for the NoSQL systems in the paper's survey
//! (Cassandra/HBase/PNUTS under YCSB, MySQL under LinkBench). It executes
//! the *Cloud OLTP* workload class of Table 2 — read, write, scan, update,
//! insert, delete — against a real log-structured design: an in-memory
//! memtable that flushes to immutable sorted runs, k-way-merge compaction,
//! tombstone deletes, and ordered range scans across all levels.
//!
//! ```
//! use bdb_kv::LsmStore;
//!
//! let mut store = LsmStore::default();
//! store.put(b"user1".to_vec(), b"alice".to_vec());
//! assert_eq!(store.get(b"user1"), Some(b"alice".to_vec()));
//! store.delete(b"user1".to_vec());
//! assert_eq!(store.get(b"user1"), None);
//! ```

pub mod bloom;
pub mod lsm;
pub mod manifest;
pub mod wal;

pub use bloom::BloomFilter;
pub use lsm::{CrashPoint, KvStats, LsmConfig, LsmStore, SharedLsm};
pub use manifest::Manifest;
pub use wal::{Wal, WalRecord, WalReplay};
