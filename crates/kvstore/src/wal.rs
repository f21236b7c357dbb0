//! The write-ahead log: length-prefixed, checksummed mutation records.
//!
//! Every durable mutation is appended here before it touches the
//! memtable, so a crash at any instant loses at most the record being
//! written — and a torn tail (a partially written final record) is
//! detected by the length prefix + checksum and truncated away on
//! replay, recovering the longest valid prefix.
//!
//! # Record format
//!
//! ```text
//! [u32 LE payload_len][u64 LE fnv1a(payload)][payload]
//! payload = [u8 op (0 = put, 1 = delete)]
//!           [u32 LE key_len][key bytes]
//!           [value bytes]            (puts only; rest of the payload)
//! ```
//!
//! Replay is fsync-free and deterministic: records are applied in append
//! order, and the same log bytes always rebuild the same memtable. The
//! design trades OS-crash durability (no fsync) for reproducible
//! process-crash recovery — exactly the failure model the kill-point
//! chaos tests exercise.

use bdb_common::{BdbError, Result};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Cap on a single record's payload, guarding replay against a corrupt
/// length prefix claiming gigabytes.
pub const MAX_PAYLOAD_BYTES: u32 = 1 << 28;

/// One logged mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Insert or overwrite `key` with `value`.
    Put(Vec<u8>, Vec<u8>),
    /// Delete `key` (a tombstone).
    Delete(Vec<u8>),
}

impl WalRecord {
    /// The record's key.
    pub fn key(&self) -> &[u8] {
        match self {
            WalRecord::Put(k, _) | WalRecord::Delete(k) => k,
        }
    }

    /// Serialize the payload (everything the checksum covers).
    fn payload(&self) -> Vec<u8> {
        let (op, key, val): (u8, &[u8], &[u8]) = match self {
            WalRecord::Put(k, v) => (0, k, v),
            WalRecord::Delete(k) => (1, k, &[]),
        };
        let mut out = Vec::with_capacity(1 + 4 + key.len() + val.len());
        out.push(op);
        out.extend_from_slice(&(key.len() as u32).to_le_bytes());
        out.extend_from_slice(key);
        out.extend_from_slice(val);
        out
    }

    /// The full framed encoding: length prefix, checksum, payload.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.payload();
        let mut out = Vec::with_capacity(12 + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Decode one payload (after its frame validated).
    fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
        let (&op, rest) = payload.split_first()?;
        if rest.len() < 4 {
            return None;
        }
        let key_len = u32::from_le_bytes(rest[..4].try_into().ok()?) as usize;
        let rest = &rest[4..];
        if rest.len() < key_len {
            return None;
        }
        let (key, val) = rest.split_at(key_len);
        match op {
            0 => Some(WalRecord::Put(key.to_vec(), val.to_vec())),
            1 if val.is_empty() => Some(WalRecord::Delete(key.to_vec())),
            _ => None,
        }
    }
}

/// The WAL-frame and MANIFEST checksum: the FNV-1a loop with multiplier
/// `2^48 + 435`, not the FNV prime `2^40 + 435` — so it is *not* the hash
/// `bdb_common::hash::Fnv1a` and the payload digests compute. The value
/// is the on-disk format: changing it would make every existing log read
/// as a torn tail.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// The outcome of replaying a log file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalReplay {
    /// Valid records, in append order.
    pub records: Vec<WalRecord>,
    /// Bytes of the longest valid prefix (where a torn tail, if any,
    /// begins).
    pub valid_bytes: u64,
    /// Torn-tail bytes discarded (0 for a clean log).
    pub torn_bytes: u64,
}

impl WalReplay {
    /// True when the log ended mid-record and was truncated.
    pub fn was_torn(&self) -> bool {
        self.torn_bytes > 0
    }
}

/// Scan log bytes, returning every fully valid record and the offset
/// where the first invalid frame begins. Everything from that offset on
/// is a torn tail: a record the process died inside (or trailing
/// garbage), indistinguishable from each other and equally discardable.
pub fn scan(bytes: &[u8]) -> WalReplay {
    let mut records = Vec::new();
    let mut offset = 0usize;
    loop {
        let rest = &bytes[offset..];
        if rest.len() < 12 {
            break;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD_BYTES {
            break;
        }
        let len = len as usize;
        if rest.len() < 12 + len {
            break;
        }
        let checksum = u64::from_le_bytes(rest[4..12].try_into().expect("8 bytes"));
        let payload = &rest[12..12 + len];
        if fnv1a(payload) != checksum {
            break;
        }
        let Some(record) = WalRecord::decode_payload(payload) else {
            break;
        };
        records.push(record);
        offset += 12 + len;
    }
    WalReplay {
        records,
        valid_bytes: offset as u64,
        torn_bytes: (bytes.len() - offset) as u64,
    }
}

/// An append-only log segment on disk.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
}

impl Wal {
    /// Open (creating if absent) the segment at `path` for appending.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self> {
        let path = path.into();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| BdbError::Io(format!("open wal {}: {e}", path.display())))?;
        Ok(Self { path, file })
    }

    /// The segment's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one record. `torn_after` simulates a mid-append process
    /// kill: only that many bytes of the frame reach the file before the
    /// append "dies" — the caller then surfaces the crash. `None` writes
    /// the whole frame.
    pub fn append(&mut self, record: &WalRecord, torn_after: Option<usize>) -> Result<()> {
        let frame = record.encode();
        let bytes = match torn_after {
            Some(n) => &frame[..n.min(frame.len().saturating_sub(1)).max(1)],
            None => &frame[..],
        };
        self.file
            .write_all(bytes)
            .map_err(|e| BdbError::Io(format!("append wal {}: {e}", self.path.display())))?;
        if torn_after.is_some() {
            return Err(BdbError::Crashed(format!(
                "kill point mid-WAL-append in {} ({} of {} frame bytes written)",
                self.path.display(),
                bytes.len(),
                frame.len()
            )));
        }
        Ok(())
    }

    /// Replay the segment at `path`: scan for the longest valid prefix,
    /// truncate any torn tail off the file, and return the records. A
    /// missing file replays as empty (a store that never wrote).
    pub fn replay(path: &Path) -> Result<WalReplay> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(WalReplay { records: Vec::new(), valid_bytes: 0, torn_bytes: 0 })
            }
            Err(e) => return Err(BdbError::Io(format!("read wal {}: {e}", path.display()))),
        };
        let replay = scan(&bytes);
        if replay.was_torn() {
            let file = OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| BdbError::Io(format!("open wal {}: {e}", path.display())))?;
            file.set_len(replay.valid_bytes)
                .map_err(|e| BdbError::Io(format!("truncate wal {}: {e}", path.display())))?;
        }
        Ok(replay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u32) -> WalRecord {
        WalRecord::Put(format!("k{i:04}").into_bytes(), vec![b'v'; i as usize % 7 + 1])
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bdb-wal-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal-0.log")
    }

    #[test]
    fn append_replay_round_trip() {
        let path = tmp("roundtrip");
        let mut wal = Wal::open(&path).unwrap();
        let records: Vec<WalRecord> = (0..20)
            .map(|i| {
                if i % 5 == 4 {
                    WalRecord::Delete(format!("k{i:04}").into_bytes())
                } else {
                    rec(i)
                }
            })
            .collect();
        for r in &records {
            wal.append(r, None).unwrap();
        }
        drop(wal);
        let replay = Wal::replay(&path).unwrap();
        assert_eq!(replay.records, records);
        assert!(!replay.was_torn());
    }

    #[test]
    fn torn_tail_truncates_to_longest_valid_prefix() {
        let path = tmp("torn");
        let mut wal = Wal::open(&path).unwrap();
        for i in 0..3 {
            wal.append(&rec(i), None).unwrap();
        }
        // The fourth append dies mid-frame.
        let err = wal.append(&rec(3), Some(5)).unwrap_err();
        assert!(err.is_crash());
        drop(wal);
        let replay = Wal::replay(&path).unwrap();
        assert_eq!(replay.records, vec![rec(0), rec(1), rec(2)]);
        assert!(replay.was_torn());
        // The file was physically truncated: a second replay is clean.
        let again = Wal::replay(&path).unwrap();
        assert!(!again.was_torn());
        assert_eq!(again.records.len(), 3);
        // And the log accepts appends after recovery.
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&rec(9), None).unwrap();
        assert_eq!(Wal::replay(&path).unwrap().records.len(), 4);
    }

    #[test]
    fn corrupt_checksum_ends_replay() {
        let path = tmp("corrupt");
        let mut wal = Wal::open(&path).unwrap();
        for i in 0..4 {
            wal.append(&rec(i), None).unwrap();
        }
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte of the third record.
        let two = rec(0).encode().len() * 2;
        bytes[two + 13] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let replay = Wal::replay(&path).unwrap();
        assert_eq!(replay.records, vec![rec(0), rec(1)]);
        assert!(replay.was_torn());
    }

    #[test]
    fn missing_file_replays_empty() {
        let replay = Wal::replay(Path::new("/nonexistent/bdb-wal.log")).unwrap();
        assert!(replay.records.is_empty());
        assert_eq!(replay.valid_bytes, 0);
    }

    #[test]
    fn insane_length_prefix_is_a_torn_tail() {
        let path = tmp("length");
        let mut frame = rec(0).encode();
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        frame.extend_from_slice(&[0u8; 20]);
        std::fs::write(&path, &frame).unwrap();
        let replay = Wal::replay(&path).unwrap();
        assert_eq!(replay.records, vec![rec(0)]);
        assert!(replay.was_torn());
    }
}
