//! The log-structured merge store.
//!
//! Writes land in a sorted in-memory memtable; when it exceeds its budget
//! it is frozen into an immutable sorted run. Reads check the memtable,
//! then runs newest-to-oldest (newest version wins). When the run count
//! exceeds a threshold, all runs merge into one and tombstones are
//! reclaimed. This is the genuine read/write path a YCSB-style workload
//! exercises — memtable hits are cheap, cold point reads pay one binary
//! search per run, scans pay a k-way merge.
//!
//! # The merge
//!
//! Scans, [`LsmStore::len`] and compaction share one lazy newest-wins
//! k-way merge over key-sorted sources given newest first: the memtable,
//! then the runs newest → oldest. It yields each key once — the smallest
//! head, a tie going to the newest source, whose version shadows (and
//! advances past) every older one — so a scan stops after `limit` live
//! keys and clones only what it returns.
//!
//! # Durability
//!
//! A store opened with [`LsmStore::open`] is backed by a directory:
//! every mutation is appended to a checksummed write-ahead log before it
//! touches the memtable, memtable flushes seal the frozen run into an
//! immutable SSTable epoch and rotate the WAL, and a `MANIFEST.json`
//! (always updated by atomic rename) names the live WAL segment and the
//! sealed epochs. Reopening the directory replays the manifest, the
//! sealed runs and the WAL — truncating any torn tail a mid-append crash
//! left behind — and deterministically rebuilds the pre-crash contents.
//! [`LsmStore::arm_crash`] plants one-shot [`CrashPoint`] kill switches
//! at the seeded instants the crash-recovery chaos suite exercises.

use crate::bloom::BloomFilter;
use crate::manifest::{self, Manifest};
use crate::wal::{Wal, WalRecord};
use bdb_common::{BdbError, Result};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Raw byte key.
pub type Key = Vec<u8>;
/// Raw byte value.
pub type Val = Vec<u8>;

/// One borrowed source of the merge: `(key, value-or-tombstone)` pairs
/// in key order.
type Versions<'a> = Box<dyn Iterator<Item = (&'a Key, &'a Option<Val>)> + 'a>;

/// Tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsmConfig {
    /// Flush the memtable when its payload exceeds this many bytes.
    pub memtable_capacity_bytes: usize,
    /// Compact when the number of runs exceeds this.
    pub max_runs: usize,
    /// Bloom-filter bits per key on each run; 0 disables filters (the
    /// `abl_bloom` ablation toggles this).
    pub bloom_bits_per_key: usize,
}

impl Default for LsmConfig {
    fn default() -> Self {
        Self { memtable_capacity_bytes: 1 << 20, max_runs: 6, bloom_bits_per_key: 10 }
    }
}

/// Operation counters (architecture-metric inputs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvStats {
    /// `put`/`delete` calls.
    pub writes: u64,
    /// `get` calls.
    pub reads: u64,
    /// Reads answered by the memtable.
    pub memtable_hits: u64,
    /// Binary searches into immutable runs.
    pub run_probes: u64,
    /// Run probes skipped because the Bloom filter ruled the key out.
    pub bloom_skips: u64,
    /// `scan` calls.
    pub scans: u64,
    /// Memtable flushes.
    pub flushes: u64,
    /// Compactions run.
    pub compactions: u64,
    /// Records appended to the write-ahead log (durable stores only).
    pub wal_appends: u64,
    /// Records replayed from the WAL when the store was opened.
    pub wal_replayed: u64,
    /// Torn WAL tails truncated during recovery.
    pub torn_recoveries: u64,
}

impl KvStats {
    /// Total counted operations.
    pub fn total_ops(&self) -> u64 {
        self.writes + self.reads + self.run_probes + self.scans
    }
}

/// Interior-mutable counter cells behind the public [`KvStats`] snapshot.
///
/// Read-path counters (reads, hits, probes, skips, scans) are bumped from
/// `&self` so point lookups and scans need no exclusive access — this is
/// what lets [`SharedLsm`] serve concurrent readers under a shared read
/// lock while a writer flushes. Relaxed ordering: these are tallies, not
/// synchronisation.
#[derive(Debug, Default)]
struct StatCells {
    writes: AtomicU64,
    reads: AtomicU64,
    memtable_hits: AtomicU64,
    run_probes: AtomicU64,
    bloom_skips: AtomicU64,
    scans: AtomicU64,
    flushes: AtomicU64,
    compactions: AtomicU64,
    wal_appends: AtomicU64,
    wal_replayed: AtomicU64,
    torn_recoveries: AtomicU64,
}

impl StatCells {
    fn bump(cell: &AtomicU64) {
        cell.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> KvStats {
        KvStats {
            writes: self.writes.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            memtable_hits: self.memtable_hits.load(Ordering::Relaxed),
            run_probes: self.run_probes.load(Ordering::Relaxed),
            bloom_skips: self.bloom_skips.load(Ordering::Relaxed),
            scans: self.scans.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            wal_replayed: self.wal_replayed.load(Ordering::Relaxed),
            torn_recoveries: self.torn_recoveries.load(Ordering::Relaxed),
        }
    }
}

/// An immutable sorted run; `None` values are tombstones.
#[derive(Debug, Clone)]
struct Run {
    entries: Vec<(Key, Option<Val>)>,
    bloom: Option<BloomFilter>,
}

impl Run {
    fn build(entries: Vec<(Key, Option<Val>)>, bits_per_key: usize) -> Self {
        let bloom = (bits_per_key > 0).then(|| {
            let mut f = BloomFilter::with_capacity(entries.len(), bits_per_key);
            for (k, _) in &entries {
                f.insert(k);
            }
            f
        });
        Self { entries, bloom }
    }

    fn get(&self, key: &[u8]) -> Option<&Option<Val>> {
        self.entries
            .binary_search_by(|(k, _)| k.as_slice().cmp(key))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    fn range<'a>(
        &'a self,
        start: &'a [u8],
        end: Option<&'a [u8]>,
    ) -> impl Iterator<Item = (&'a Key, &'a Option<Val>)> + 'a {
        let from = self
            .entries
            .partition_point(|(k, _)| k.as_slice() < start);
        self.entries[from..]
            .iter()
            .take_while(move |(k, _)| end.is_none_or(|e| k.as_slice() < e))
            .map(|(k, v)| (k, v))
    }
}

/// The newest-wins k-way merge (see the module docs). Each source must
/// be strictly key-ascending; `sources[0]` is the newest. Tombstones
/// (`None` values) are yielded like any version — callers skip them.
/// There are at most `max_runs + 1` heads (7 by default), so the pick is
/// a linear pass, not a heap.
struct NewestWins<I: Iterator> {
    sources: Vec<I>,
    /// The next unconsumed item of each source, parallel to `sources`.
    heads: Vec<Option<I::Item>>,
}

impl<I: Iterator> NewestWins<I> {
    fn new(sources: impl IntoIterator<Item = I>) -> Self {
        let mut sources: Vec<I> = sources.into_iter().collect();
        let heads = sources.iter_mut().map(Iterator::next).collect();
        Self { sources, heads }
    }
}

impl<I, K: Ord, V> Iterator for NewestWins<I>
where
    I: Iterator<Item = (K, V)>,
{
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        // Smallest head; a strict `<` keeps the first, i.e. newest, on ties.
        let mut best: Option<(usize, &K)> = None;
        for (i, head) in self.heads.iter().enumerate() {
            if let Some((k, _)) = head {
                if best.is_none_or(|(_, b)| k < b) {
                    best = Some((i, k));
                }
            }
        }
        let win = best?.0;
        let next = self.sources[win].next();
        let (key, val) = std::mem::replace(&mut self.heads[win], next)?;
        // Only an older source can hold the same key: drop its shadowed
        // version. Keys are unique within a source, so one step suffices.
        for i in win + 1..self.heads.len() {
            if self.heads[i].as_ref().is_some_and(|(k, _)| *k == key) {
                self.heads[i] = self.sources[i].next();
            }
        }
        Some((key, val))
    }
}

/// One-shot kill switches: the seeded instants at which a durable store
/// can be made to "die" mid-operation, leaving its directory exactly as
/// a process kill at that point would. Each fires once, returns
/// [`BdbError::Crashed`], and the store object must then be dropped —
/// recovery is [`LsmStore::open`] on the same directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Mid-WAL-append: a partial record frame reaches the log (a torn
    /// tail) and the mutation is lost.
    WalAppend,
    /// At flush entry, before anything is sealed: the memtable is lost,
    /// the WAL holds every record.
    PreFlush,
    /// After the SSTable is sealed but before the manifest names it: the
    /// epoch file is an orphan, the WAL still holds every record.
    PreManifest,
    /// After the manifest update but before the old WAL segment is
    /// removed: the sealed epoch is live, the stale WAL is a leftover.
    PreWalRotate,
}

impl std::fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CrashPoint::WalAppend => "wal-append",
            CrashPoint::PreFlush => "pre-flush",
            CrashPoint::PreManifest => "pre-manifest",
            CrashPoint::PreWalRotate => "pre-wal-rotate",
        })
    }
}

/// On-disk state of a durable store.
#[derive(Debug)]
struct Durability {
    dir: PathBuf,
    manifest: Manifest,
    wal: Wal,
    /// Epoch of each in-memory run, parallel to `LsmStore::runs`.
    run_epochs: Vec<u64>,
    armed: Option<CrashPoint>,
}

impl Durability {
    /// Consume the kill switch if it is armed at `point`.
    fn trip(&mut self, point: CrashPoint) -> Result<()> {
        if self.armed == Some(point) {
            self.armed = None;
            return Err(BdbError::Crashed(format!(
                "kill point {point} in {}",
                self.dir.display()
            )));
        }
        Ok(())
    }
}

/// The store: one memtable plus a stack of immutable runs.
#[derive(Debug, Default)]
pub struct LsmStore {
    config: LsmConfig,
    memtable: BTreeMap<Key, Option<Val>>,
    memtable_bytes: usize,
    /// Newest run last.
    runs: Vec<Run>,
    stats: StatCells,
    /// WAL + manifest, present only for stores opened on a directory.
    durability: Option<Durability>,
}

impl LsmStore {
    /// A store with explicit configuration.
    pub fn with_config(config: LsmConfig) -> Self {
        Self { config, ..Self::default() }
    }

    /// Open (or create) a durable store rooted at `dir`, recovering any
    /// state a previous incarnation — cleanly closed or killed at any
    /// instant — left behind: the manifest's sealed SSTable epochs are
    /// loaded as immutable runs, orphan SSTables and stale WAL segments
    /// from interrupted flushes are removed, and the live WAL replays
    /// into the memtable with any torn tail truncated off.
    ///
    /// # Errors
    /// Fails on filesystem errors or a corrupt manifest/SSTable.
    pub fn open(dir: impl Into<PathBuf>, config: LsmConfig) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| BdbError::Io(format!("create {}: {e}", dir.display())))?;
        let manifest = Manifest::load(&dir)?;
        let mut store = Self::with_config(config);
        // Sealed runs, oldest epoch first (manifest order).
        for &epoch in &manifest.sstables {
            let entries = manifest::read_sst(&dir, epoch)?;
            store
                .runs
                .push(Run::build(entries, config.bloom_bits_per_key));
        }
        remove_unreferenced(&dir, &manifest);
        // Replay the live WAL into the memtable, truncating torn tails.
        let wal_path = manifest::wal_path(&dir, manifest.wal_epoch);
        let replay = Wal::replay(&wal_path)?;
        store
            .stats
            .wal_replayed
            .store(replay.records.len() as u64, Ordering::Relaxed);
        store
            .stats
            .torn_recoveries
            .store(u64::from(replay.was_torn()), Ordering::Relaxed);
        for record in replay.records {
            match record {
                WalRecord::Put(k, v) => store.apply(k, Some(v)),
                WalRecord::Delete(k) => store.apply(k, None),
            }
        }
        let run_epochs = manifest.sstables.clone();
        store.durability = Some(Durability {
            wal: Wal::open(&wal_path)?,
            dir,
            manifest,
            run_epochs,
            armed: None,
        });
        Ok(store)
    }

    /// True for stores opened on a directory.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The durable store's directory, when there is one.
    pub fn dir(&self) -> Option<&Path> {
        self.durability.as_ref().map(|d| d.dir.as_path())
    }

    /// Arm a one-shot kill switch (no-op on in-memory stores): the next
    /// time execution reaches `point`, the operation fails with
    /// [`BdbError::Crashed`] leaving the directory exactly as a process
    /// kill at that instant would.
    pub fn arm_crash(&mut self, point: CrashPoint) {
        if let Some(d) = &mut self.durability {
            d.armed = Some(point);
        }
    }

    /// Insert or overwrite a key.
    ///
    /// # Panics
    /// On durable stores, panics if the WAL append or a triggered
    /// flush/compaction fails — fallible callers (and anything arming
    /// crash points) should use [`Self::try_put`].
    pub fn put(&mut self, key: Key, value: Val) {
        self.try_put(key, value).expect("durable write failed");
    }

    /// Insert or overwrite a key, surfacing durability errors.
    ///
    /// # Errors
    /// Fails on WAL/SSTable I/O errors or an armed [`CrashPoint`].
    pub fn try_put(&mut self, key: Key, value: Val) -> Result<()> {
        StatCells::bump(&self.stats.writes);
        self.write(key, Some(value))
    }

    /// Delete a key (writes a tombstone).
    ///
    /// # Panics
    /// As [`Self::put`]; fallible callers should use [`Self::try_delete`].
    pub fn delete(&mut self, key: Key) {
        self.try_delete(key).expect("durable delete failed");
    }

    /// Delete a key, surfacing durability errors.
    ///
    /// # Errors
    /// Fails on WAL/SSTable I/O errors or an armed [`CrashPoint`].
    pub fn try_delete(&mut self, key: Key) -> Result<()> {
        StatCells::bump(&self.stats.writes);
        self.write(key, None)
    }

    fn write(&mut self, key: Key, value: Option<Val>) -> Result<()> {
        if let Some(d) = &mut self.durability {
            let record = match &value {
                Some(v) => WalRecord::Put(key.clone(), v.clone()),
                None => WalRecord::Delete(key.clone()),
            };
            // A WalAppend kill point writes a torn half-frame and dies:
            // the mutation never reaches the memtable.
            let torn = if d.armed == Some(CrashPoint::WalAppend) {
                d.armed = None;
                Some(record.encode().len() / 2)
            } else {
                None
            };
            d.wal.append(&record, torn)?;
            StatCells::bump(&self.stats.wal_appends);
        }
        self.apply(key, value);
        if self.memtable_bytes >= self.config.memtable_capacity_bytes {
            self.try_flush()?;
        }
        Ok(())
    }

    /// Apply one mutation to the memtable (no durability, no flush) —
    /// the shared tail of the write path and WAL replay.
    fn apply(&mut self, key: Key, value: Option<Val>) {
        let added = key.len() + value.as_ref().map_or(1, Val::len);
        if let Some(old) = self.memtable.insert(key, value) {
            self.memtable_bytes = self
                .memtable_bytes
                .saturating_sub(old.map_or(1, |v| v.len()));
        }
        self.memtable_bytes += added;
    }

    /// Freeze the memtable into a run.
    ///
    /// # Panics
    /// On durable stores, panics if sealing fails — use
    /// [`Self::try_flush`] there.
    pub fn flush(&mut self) {
        self.try_flush().expect("durable flush failed");
    }

    /// Freeze the memtable into a run; on durable stores, seal it as an
    /// SSTable epoch, update the manifest atomically, and rotate the WAL.
    ///
    /// # Errors
    /// Fails on I/O errors or an armed [`CrashPoint`].
    pub fn try_flush(&mut self) -> Result<()> {
        if self.memtable.is_empty() {
            return Ok(());
        }
        if let Some(d) = &mut self.durability {
            d.trip(CrashPoint::PreFlush)?;
        }
        let entries: Vec<(Key, Option<Val>)> = std::mem::take(&mut self.memtable)
            .into_iter()
            .collect();
        self.memtable_bytes = 0;
        if let Some(d) = &mut self.durability {
            // Seal the run, then publish it: sstable first (temp+rename),
            // manifest second (atomic), WAL rotation last. A crash
            // between any two steps recovers: an unpublished sstable is
            // an orphan (the WAL still has its records); a published one
            // makes the stale WAL segment a removable leftover.
            let epoch = d.manifest.next_epoch();
            manifest::write_sst(&d.dir, epoch, &entries)?;
            d.trip(CrashPoint::PreManifest)?;
            let old_wal = d.manifest.wal_epoch;
            d.manifest.sstables.push(epoch);
            d.manifest.wal_epoch = epoch + 1;
            d.manifest.store(&d.dir)?;
            d.trip(CrashPoint::PreWalRotate)?;
            let _ = std::fs::remove_file(manifest::wal_path(&d.dir, old_wal));
            d.wal = Wal::open(manifest::wal_path(&d.dir, d.manifest.wal_epoch))?;
            d.run_epochs.push(epoch);
        }
        self.runs
            .push(Run::build(entries, self.config.bloom_bits_per_key));
        StatCells::bump(&self.stats.flushes);
        if self.runs.len() > self.config.max_runs {
            self.try_compact()?;
        }
        Ok(())
    }

    /// Merge all runs into one, dropping shadowed versions and tombstones.
    ///
    /// # Panics
    /// On durable stores, panics if re-sealing fails — use
    /// [`Self::try_compact`] there.
    pub fn compact(&mut self) {
        self.try_compact().expect("durable compaction failed");
    }

    /// Merge all runs into one, dropping shadowed versions and
    /// tombstones; on durable stores the merged run is sealed as a new
    /// epoch and the superseded epochs are dropped from the manifest
    /// (atomically) and deleted. A crash anywhere inside leaves either
    /// the old epochs live or the new one — never both, never neither.
    ///
    /// # Errors
    /// Fails on I/O errors.
    pub fn try_compact(&mut self) -> Result<()> {
        if self.runs.len() <= 1 {
            return Ok(());
        }
        StatCells::bump(&self.stats.compactions);
        let entries: Vec<(Key, Option<Val>)> =
            NewestWins::new(self.runs.drain(..).rev().map(|run| run.entries.into_iter()))
                .filter(|(_, v)| v.is_some())
                .collect();
        if let Some(d) = &mut self.durability {
            let epoch = d.manifest.next_epoch();
            let new_epochs = if entries.is_empty() {
                Vec::new()
            } else {
                manifest::write_sst(&d.dir, epoch, &entries)?;
                vec![epoch]
            };
            let old = std::mem::replace(&mut d.manifest.sstables, new_epochs.clone());
            d.manifest.store(&d.dir)?;
            for stale in old {
                let _ = std::fs::remove_file(manifest::sst_path(&d.dir, stale));
            }
            d.run_epochs = new_epochs;
        }
        if !entries.is_empty() {
            self.runs
                .push(Run::build(entries, self.config.bloom_bits_per_key));
        }
        Ok(())
    }

    /// Point lookup.
    ///
    /// Takes `&self`: reads never mutate the tree, and the counters are
    /// interior-mutable, so any number of lookups may run concurrently
    /// (e.g. under [`SharedLsm`]'s read lock) while no writer holds the
    /// store exclusively.
    pub fn get(&self, key: &[u8]) -> Option<Val> {
        StatCells::bump(&self.stats.reads);
        if let Some(v) = self.memtable.get(key) {
            StatCells::bump(&self.stats.memtable_hits);
            return v.clone();
        }
        for run in self.runs.iter().rev() {
            if let Some(bloom) = &run.bloom {
                if !bloom.may_contain(key) {
                    StatCells::bump(&self.stats.bloom_skips);
                    continue;
                }
            }
            StatCells::bump(&self.stats.run_probes);
            if let Some(v) = run.get(key) {
                return v.clone();
            }
        }
        None
    }

    /// Ordered range scan from `start` (inclusive) to `end` (exclusive,
    /// unbounded when `None`), returning up to `limit` live entries; an
    /// `end` before `start` is an empty range. Takes `&self` for the same
    /// shared-read discipline as [`Self::get`].
    pub fn scan(&self, start: &[u8], end: Option<&[u8]>, limit: usize) -> Vec<(Key, Val)> {
        StatCells::bump(&self.stats.scans);
        self.live(start, end)
            .take(limit)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// The newest live version of every key in `[start, end)`, in key
    /// order, borrowed from the memtable and runs.
    fn live<'a>(
        &'a self,
        start: &'a [u8],
        end: Option<&'a [u8]>,
    ) -> impl Iterator<Item = (&'a Key, &'a Val)> + 'a {
        let mut sources: Vec<Versions<'a>> = Vec::with_capacity(self.runs.len() + 1);
        // `BTreeMap::range` panics on reversed bounds.
        if end.is_none_or(|e| start <= e) {
            let bounds = (Bound::Included(start), end.map_or(Bound::Unbounded, Bound::Excluded));
            sources.push(Box::new(self.memtable.range::<[u8], _>(bounds)));
            for run in self.runs.iter().rev() {
                sources.push(Box::new(run.range(start, end)));
            }
        }
        NewestWins::new(sources).filter_map(|(k, v)| Some((k, v.as_ref()?)))
    }

    /// Number of live keys (walks everything; for tests and reports). Not
    /// a user scan: `KvStats::scans` does not move.
    pub fn len(&self) -> usize {
        self.live(&[], None).count()
    }

    /// True when no live keys exist.
    pub fn is_empty(&self) -> bool {
        self.live(&[], None).next().is_none()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> KvStats {
        self.stats.snapshot()
    }

    /// Number of immutable runs (for observing flush/compaction activity).
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }
}

/// Remove artifacts the manifest does not reference: SSTable epochs a
/// crash sealed but never published (their records are still in the
/// WAL), WAL segments already superseded by a published flush, and
/// abandoned atomic-write temp files.
fn remove_unreferenced(dir: &Path, manifest: &Manifest) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = if let Some(epoch) = parse_epoch(name, "sst-", ".sst") {
            !manifest.sstables.contains(&epoch)
        } else if let Some(epoch) = parse_epoch(name, "wal-", ".log") {
            epoch != manifest.wal_epoch
        } else {
            name.contains(".tmp-")
        };
        if stale {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

fn parse_epoch(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()
}

/// A thread-safe handle: the store behind an `Arc<RwLock>`, matching how
/// multi-threaded OLTP drivers share a store.
#[derive(Debug, Clone, Default)]
pub struct SharedLsm {
    inner: Arc<RwLock<LsmStore>>,
}

impl SharedLsm {
    /// A shared store with explicit configuration.
    pub fn with_config(config: LsmConfig) -> Self {
        Self { inner: Arc::new(RwLock::new(LsmStore::with_config(config))) }
    }

    // A poisoned lock is recovered, not propagated: the thread that
    // panicked under it already surfaces the failure when it is joined,
    // and the other clients sharing the store must not panic a second time.
    fn read(&self) -> RwLockReadGuard<'_, LsmStore> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, LsmStore> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Insert or overwrite.
    pub fn put(&self, key: Key, value: Val) {
        self.write().put(key, value);
    }

    /// Point lookup. Takes the *read* lock: any number of concurrent
    /// readers proceed in parallel and only writers (put/delete, and the
    /// flushes/compactions they trigger) exclude them.
    pub fn get(&self, key: &[u8]) -> Option<Val> {
        self.read().get(key)
    }

    /// Delete.
    pub fn delete(&self, key: Key) {
        self.write().delete(key);
    }

    /// Range scan, under the read lock like [`Self::get`].
    pub fn scan(&self, start: &[u8], end: Option<&[u8]>, limit: usize) -> Vec<(Key, Val)> {
        self.read().scan(start, end, limit)
    }

    /// Freeze the memtable into a run (exclusive, like writes).
    pub fn flush(&self) {
        self.write().flush();
    }

    /// Number of immutable runs.
    pub fn run_count(&self) -> usize {
        self.read().run_count()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> KvStats {
        self.read().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LsmStore {
        // Small budgets so flush/compaction paths run in tests.
        LsmStore::with_config(LsmConfig { memtable_capacity_bytes: 256, max_runs: 2, bloom_bits_per_key: 10 })
    }

    fn k(i: u32) -> Key {
        format!("key{i:06}").into_bytes()
    }

    #[test]
    fn put_get_roundtrip() {
        let mut s = LsmStore::default();
        s.put(k(1), b"one".to_vec());
        s.put(k(2), b"two".to_vec());
        assert_eq!(s.get(&k(1)), Some(b"one".to_vec()));
        assert_eq!(s.get(&k(3)), None);
    }

    #[test]
    fn overwrite_returns_latest() {
        let mut s = tiny();
        for ver in 0..20 {
            s.put(k(7), format!("v{ver}").into_bytes());
        }
        assert_eq!(s.get(&k(7)), Some(b"v19".to_vec()));
    }

    #[test]
    fn delete_shadows_older_runs() {
        let mut s = tiny();
        s.put(k(1), b"x".to_vec());
        s.flush();
        s.delete(k(1));
        s.flush();
        assert_eq!(s.get(&k(1)), None);
        // And scans agree.
        assert!(s.scan(&[], None, 10).is_empty());
    }

    #[test]
    fn flush_and_compaction_fire() {
        let mut s = tiny();
        for i in 0..200 {
            s.put(k(i), vec![b'v'; 32]);
        }
        let st = s.stats();
        assert!(st.flushes > 0, "expected flushes");
        assert!(st.compactions > 0, "expected compactions");
        assert!(s.run_count() <= 3);
        // All keys still readable after compaction.
        for i in 0..200 {
            assert!(s.get(&k(i)).is_some(), "key {i} lost");
        }
    }

    #[test]
    fn compaction_reclaims_tombstones() {
        let mut s = LsmStore::with_config(LsmConfig {
            memtable_capacity_bytes: 64,
            max_runs: 1, bloom_bits_per_key: 10, });
        s.put(k(1), b"x".to_vec());
        s.flush();
        s.delete(k(1));
        s.flush(); // triggers compaction (2 runs > max 1)
        assert_eq!(s.run_count(), 0, "tombstone-only store should compact away");
    }

    #[test]
    fn scan_is_ordered_and_bounded() {
        let mut s = tiny();
        for i in (0..50).rev() {
            s.put(k(i), i.to_string().into_bytes());
        }
        let out = s.scan(&k(10), Some(&k(20)), 100);
        let keys: Vec<Key> = out.iter().map(|(key, _)| key.clone()).collect();
        let expect: Vec<Key> = (10..20).map(k).collect();
        assert_eq!(keys, expect);
        // Limit applies.
        assert_eq!(s.scan(&k(0), None, 5).len(), 5);
    }

    #[test]
    fn reversed_or_empty_bounds_scan_nothing() {
        let mut s = tiny();
        for i in 0..40 {
            s.put(k(i), b"v".to_vec());
        }
        assert!(s.run_count() > 0, "the scan must cross runs too");
        assert!(s.scan(b"b", Some(b"a"), 10).is_empty());
        assert!(s.scan(&k(20), Some(&k(10)), 10).is_empty());
        assert!(s.scan(&k(10), Some(&k(10)), 10).is_empty());
        assert!(s.scan(&k(0), None, 0).is_empty());
        // Under the shared handle too, and the lock is still usable after.
        let shared = SharedLsm::default();
        shared.put(b"a".to_vec(), b"1".to_vec());
        assert!(shared.scan(b"b", Some(b"a"), 10).is_empty());
        shared.put(b"b".to_vec(), b"2".to_vec());
        assert_eq!(shared.scan(b"a", None, 10).len(), 2);
    }

    #[test]
    fn len_is_not_a_user_scan() {
        let mut s = tiny();
        for i in 0..40 {
            s.put(k(i), b"v".to_vec());
        }
        s.delete(k(3));
        s.scan(&k(0), None, 5);
        assert_eq!(s.stats().scans, 1);
        assert_eq!(s.len(), 39);
        assert!(!s.is_empty());
        assert_eq!(s.stats().scans, 1, "len/is_empty must not count as scans");
        assert!(LsmStore::default().is_empty());
    }

    #[test]
    fn scan_sees_newest_version_across_levels() {
        let mut s = tiny();
        s.put(k(5), b"old".to_vec());
        s.flush();
        s.put(k(5), b"new".to_vec());
        let out = s.scan(&k(5), None, 1);
        assert_eq!(out[0].1, b"new".to_vec());
    }

    #[test]
    fn stats_track_read_paths() {
        let mut s = tiny();
        s.put(k(1), b"x".to_vec());
        s.get(&k(1)); // memtable hit
        s.flush();
        s.get(&k(1)); // run probe
        let st = s.stats();
        assert_eq!(st.reads, 2);
        assert_eq!(st.memtable_hits, 1);
        assert!(st.run_probes >= 1);
        assert!(st.total_ops() >= 3);
    }

    #[test]
    fn bloom_filters_skip_cold_run_probes() {
        let mut with_bloom = LsmStore::with_config(LsmConfig {
            memtable_capacity_bytes: 512,
            max_runs: 16,
            bloom_bits_per_key: 10,
        });
        for i in 0..200 {
            with_bloom.put(k(i), vec![b'v'; 16]);
        }
        with_bloom.flush();
        // Misses: keys that exist in no run.
        for i in 1000..1200 {
            assert_eq!(with_bloom.get(&k(i)), None);
        }
        let st = with_bloom.stats();
        assert!(st.bloom_skips > 150, "bloom skips {}", st.bloom_skips);

        let mut without = LsmStore::with_config(LsmConfig {
            memtable_capacity_bytes: 512,
            max_runs: 16,
            bloom_bits_per_key: 0,
        });
        for i in 0..200 {
            without.put(k(i), vec![b'v'; 16]);
        }
        without.flush();
        for i in 1000..1200 {
            assert_eq!(without.get(&k(i)), None);
        }
        assert_eq!(without.stats().bloom_skips, 0);
        assert!(without.stats().run_probes > with_bloom.stats().run_probes);
    }

    #[test]
    fn bloom_never_hides_present_keys() {
        let mut s = LsmStore::with_config(LsmConfig {
            memtable_capacity_bytes: 128,
            max_runs: 32,
            bloom_bits_per_key: 10,
        });
        for i in 0..300 {
            s.put(k(i), i.to_string().into_bytes());
        }
        s.flush();
        for i in 0..300 {
            assert_eq!(s.get(&k(i)), Some(i.to_string().into_bytes()));
        }
    }

    fn durable_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bdb-lsm-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn contents(s: &LsmStore) -> Vec<(Key, Val)> {
        s.scan(&[], None, usize::MAX)
    }

    #[test]
    fn durable_store_survives_reopen() {
        let dir = durable_dir("reopen");
        let cfg = LsmConfig { memtable_capacity_bytes: 256, max_runs: 3, bloom_bits_per_key: 10 };
        let mut s = LsmStore::open(&dir, cfg).unwrap();
        assert!(s.is_durable());
        assert_eq!(s.dir(), Some(dir.as_path()));
        for i in 0..60 {
            s.try_put(k(i), format!("v{i}").into_bytes()).unwrap();
        }
        s.try_delete(k(7)).unwrap();
        let expect = contents(&s);
        let flushed = s.stats().flushes;
        assert!(flushed > 0, "tiny budget should have flushed");
        drop(s);
        let back = LsmStore::open(&dir, cfg).unwrap();
        assert_eq!(contents(&back), expect);
        assert_eq!(back.get(&k(7)), None);
        assert!(back.stats().torn_recoveries == 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_reopen_is_idempotent_and_appendable() {
        let dir = durable_dir("idem");
        let cfg = LsmConfig { memtable_capacity_bytes: 128, max_runs: 2, bloom_bits_per_key: 0 };
        let mut s = LsmStore::open(&dir, cfg).unwrap();
        for i in 0..30 {
            s.try_put(k(i), vec![b'a'; 8]).unwrap();
        }
        let expect = contents(&s);
        drop(s);
        // Two successive reopens with no writes: identical state.
        let once = LsmStore::open(&dir, cfg).unwrap();
        let snapshot = contents(&once);
        drop(once);
        let mut twice = LsmStore::open(&dir, cfg).unwrap();
        assert_eq!(snapshot, expect);
        assert_eq!(contents(&twice), expect);
        // And the store still accepts writes after recovery.
        twice.try_put(k(999), b"late".to_vec()).unwrap();
        drop(twice);
        let last = LsmStore::open(&dir, cfg).unwrap();
        assert_eq!(last.get(&k(999)), Some(b"late".to_vec()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_points_lose_at_most_the_in_flight_write() {
        for point in [
            CrashPoint::WalAppend,
            CrashPoint::PreFlush,
            CrashPoint::PreManifest,
            CrashPoint::PreWalRotate,
        ] {
            let dir = durable_dir(&format!("crash-{point}"));
            let cfg =
                LsmConfig { memtable_capacity_bytes: 1 << 20, max_runs: 4, bloom_bits_per_key: 10 };
            let mut s = LsmStore::open(&dir, cfg).unwrap();
            for i in 0..40 {
                s.try_put(k(i), format!("v{i}").into_bytes()).unwrap();
            }
            let committed = contents(&s);
            s.arm_crash(point);
            // WalAppend dies inside the next write; the flush points die
            // inside an explicit flush.
            let err = if point == CrashPoint::WalAppend {
                s.try_put(k(777), b"lost".to_vec()).unwrap_err()
            } else {
                s.try_flush().unwrap_err()
            };
            assert!(err.is_crash(), "{point}: {err}");
            drop(s);
            let back = LsmStore::open(&dir, cfg).unwrap();
            assert_eq!(
                contents(&back),
                committed,
                "recovery after {point} must restore the committed contents"
            );
            if point == CrashPoint::WalAppend {
                assert_eq!(back.stats().torn_recoveries, 1, "{point} leaves a torn tail");
                assert_eq!(back.get(&k(777)), None, "the in-flight write died with the crash");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn durable_compaction_drops_superseded_epochs() {
        let dir = durable_dir("compact");
        let cfg = LsmConfig { memtable_capacity_bytes: 64, max_runs: 2, bloom_bits_per_key: 10 };
        let mut s = LsmStore::open(&dir, cfg).unwrap();
        for i in 0..120 {
            s.try_put(k(i % 24), format!("v{i}").into_bytes()).unwrap();
        }
        assert!(s.stats().compactions > 0);
        let expect = contents(&s);
        drop(s);
        // Only manifest-referenced files survive, and state round-trips.
        let back = LsmStore::open(&dir, cfg).unwrap();
        assert_eq!(contents(&back), expect);
        let sst_files = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".sst"))
            .count();
        assert!(back.run_count() >= sst_files.min(1), "sealed runs load as runs");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_memory_store_ignores_crash_arming() {
        let mut s = tiny();
        s.arm_crash(CrashPoint::PreFlush);
        s.put(k(1), b"x".to_vec());
        s.flush();
        assert_eq!(s.get(&k(1)), Some(b"x".to_vec()));
        assert!(!s.is_durable());
        assert!(s.dir().is_none());
        assert_eq!(s.stats().wal_appends, 0);
    }

    #[test]
    fn shared_store_is_cloneable_and_consistent() {
        let s = SharedLsm::default();
        let s2 = s.clone();
        s.put(b"a".to_vec(), b"1".to_vec());
        assert_eq!(s2.get(b"a"), Some(b"1".to_vec()));
        s2.delete(b"a".to_vec());
        assert_eq!(s.get(b"a"), None);
        assert!(s.stats().writes >= 2);
    }

    #[test]
    fn shared_store_concurrent_writers() {
        let s = SharedLsm::with_config(LsmConfig {
            memtable_capacity_bytes: 512,
            max_runs: 2, bloom_bits_per_key: 10, });
        std::thread::scope(|scope| {
            for t in 0..4 {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..250 {
                        s.put(
                            format!("t{t}k{i:04}").into_bytes(),
                            vec![b'x'; 16],
                        );
                    }
                });
            }
        });
        let all = s.scan(b"", None, usize::MAX);
        assert_eq!(all.len(), 1000);
    }

    #[test]
    fn shared_store_readers_run_during_flushes() {
        // A writer hammers a tiny memtable (inducing flushes and
        // compactions) while reader threads hold the read lock for gets
        // and scans. Readers must always observe a fully committed value
        // for preloaded keys — never a torn or missing one.
        let s = SharedLsm::with_config(LsmConfig {
            memtable_capacity_bytes: 256,
            max_runs: 2,
            bloom_bits_per_key: 10,
        });
        for i in 0..64u32 {
            s.put(k(i), format!("v{i}").into_bytes());
        }
        std::thread::scope(|scope| {
            let writer = {
                let s = s.clone();
                scope.spawn(move || {
                    for round in 0..40 {
                        for i in 0..64u32 {
                            s.put(k(i), format!("v{i}").into_bytes());
                        }
                        if round % 8 == 0 {
                            s.flush();
                        }
                    }
                })
            };
            for t in 0..3 {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..400u32 {
                        let key = k((i + t * 17) % 64);
                        let got = s.get(&key).expect("preloaded key must be visible");
                        assert!(got.starts_with(b"v"), "torn value {got:?}");
                        if i % 50 == 0 {
                            assert!(!s.scan(&k(0), None, 16).is_empty());
                        }
                    }
                });
            }
            writer.join().unwrap();
        });
        let st = s.stats();
        assert!(st.flushes > 0, "writer must have induced flushes");
        assert!(st.reads >= 1200, "readers must all have counted");
    }
}
