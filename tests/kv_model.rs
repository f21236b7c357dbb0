//! Model-based property test: the LSM store behaves exactly like a
//! `BTreeMap` under arbitrary operation sequences, across flushes and
//! compactions, with and without Bloom filters; and its lazy merge
//! (scan, `len`, compaction) matches the materialising algorithm it
//! replaced, op for op.

use bdbench::kv::{LsmConfig, LsmStore};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::Bound;

#[derive(Debug, Clone)]
enum Op {
    Put(u16, u8),
    Delete(u16),
    Get(u16),
    /// `start`, `end` (unbounded when `None`; may precede `start`), limit.
    Scan(u16, Option<u16>, usize),
    Len,
    Flush,
    Compact,
}

/// Limits a scan is called with: nothing, everything, or a handful.
fn arb_limit() -> impl Strategy<Value = usize> {
    prop_oneof![1 => Just(0usize), 1 => Just(usize::MAX), 4 => 1usize..64]
}

/// A scan over keys `k % domain`; a third of them unbounded.
fn arb_scan(domain: u16) -> impl Strategy<Value = Op> {
    (any::<u16>(), any::<u16>(), 0u8..3, arb_limit())
        .prop_map(move |(a, b, open, l)| Op::Scan(a % domain, (open > 0).then_some(b % domain), l))
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k % 512, v)),
        2 => any::<u16>().prop_map(|k| Op::Delete(k % 512)),
        3 => any::<u16>().prop_map(|k| Op::Get(k % 512)),
        1 => arb_scan(512),
        1 => Just(Op::Len),
        1 => Just(Op::Flush),
        1 => Just(Op::Compact),
    ]
}

fn key_bytes(k: u16) -> Vec<u8> {
    format!("k{k:05}").into_bytes()
}

/// The scan the model answers; an `end` before `start` is empty.
fn model_scan(
    model: &BTreeMap<Vec<u8>, Vec<u8>>,
    start: &[u8],
    end: Option<&[u8]>,
    limit: usize,
) -> Vec<(Vec<u8>, Vec<u8>)> {
    if end.is_some_and(|e| e < start) {
        return Vec::new();
    }
    model
        .range::<[u8], _>((Bound::Included(start), end.map_or(Bound::Unbounded, Bound::Excluded)))
        .take(limit)
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

fn run_model(ops: &[Op], bloom_bits: usize) {
    // A tiny memtable so the sequence crosses many flush boundaries.
    let mut store = LsmStore::with_config(LsmConfig {
        memtable_capacity_bytes: 96,
        max_runs: 3,
        bloom_bits_per_key: bloom_bits,
    });
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for op in ops {
        match op {
            Op::Put(k, v) => {
                store.put(key_bytes(*k), vec![*v]);
                model.insert(key_bytes(*k), vec![*v]);
            }
            Op::Delete(k) => {
                store.delete(key_bytes(*k));
                model.remove(&key_bytes(*k));
            }
            Op::Get(k) => {
                assert_eq!(
                    store.get(&key_bytes(*k)),
                    model.get(&key_bytes(*k)).cloned(),
                    "get({k}) diverged"
                );
            }
            Op::Scan(a, b, limit) => {
                let start = key_bytes(*a);
                let end = b.map(key_bytes);
                let got = store.scan(&start, end.as_deref(), *limit);
                let want = model_scan(&model, &start, end.as_deref(), *limit);
                assert_eq!(got, want, "scan({a}..{b:?}, {limit}) diverged");
            }
            Op::Len => assert_eq!(store.len(), model.len(), "len diverged"),
            Op::Flush => store.flush(),
            Op::Compact => store.compact(),
        }
    }
    // Final full scan agrees with the model.
    let all = store.scan(&[], None, usize::MAX);
    let want: Vec<(Vec<u8>, Vec<u8>)> =
        model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert_eq!(all, want, "final state diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lsm_matches_btreemap_with_bloom(ops in prop::collection::vec(arb_op(), 0..200)) {
        run_model(&ops, 10);
    }

    #[test]
    fn lsm_matches_btreemap_without_bloom(ops in prop::collection::vec(arb_op(), 0..200)) {
        run_model(&ops, 0);
    }
}

// ---------------------------------------------------------------------
// Tombstone-focused coverage: deletes must stay dead across flushes and
// compactions, and only an explicit re-put may resurrect a key.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tombstones_survive_flush_and_compaction(
        entries in prop::collection::vec((any::<u16>(), any::<u8>()), 1..100),
        deletes in prop::collection::vec(any::<u16>(), 0..60),
    ) {
        // Tiny memtable so puts, deletes and tombstones all cross run
        // boundaries before the compaction folds them together.
        let mut store = LsmStore::with_config(LsmConfig {
            memtable_capacity_bytes: 96,
            max_runs: 3,
            bloom_bits_per_key: 10,
        });
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (k, v) in &entries {
            store.put(key_bytes(k % 256), vec![*v]);
            model.insert(key_bytes(k % 256), vec![*v]);
        }
        store.flush();
        for k in &deletes {
            store.delete(key_bytes(k % 256));
            model.remove(&key_bytes(k % 256));
        }
        store.flush();
        store.compact();
        // Deleted keys are gone, survivors keep their latest value.
        for (k, _) in &entries {
            prop_assert_eq!(
                store.get(&key_bytes(k % 256)),
                model.get(&key_bytes(k % 256)).cloned(),
                "key {} diverged after compaction", k % 256
            );
        }
        // A second compaction must not resurrect anything.
        store.compact();
        for k in &deletes {
            prop_assert_eq!(
                store.get(&key_bytes(k % 256)),
                model.get(&key_bytes(k % 256)).cloned(),
                "tombstoned key {} changed on idempotent compaction", k % 256
            );
        }
        // The full scan sees exactly the surviving keys.
        let all = store.scan(&[], None, usize::MAX);
        let want: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(all, want);
        // Re-putting a deleted key resurrects it — tombstones shadow
        // history, not the future.
        if let Some(k) = deletes.first() {
            store.put(key_bytes(k % 256), vec![0xAB]);
            store.flush();
            store.compact();
            prop_assert_eq!(store.get(&key_bytes(k % 256)), Some(vec![0xAB]));
        }
    }

    /// Interleaved put/delete/compact churn on a small key domain: the
    /// store tracks the model through heavy tombstone traffic.
    #[test]
    fn delete_heavy_churn_matches_model(
        ops in prop::collection::vec(
            prop_oneof![
                3 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k % 32, v)),
                3 => any::<u16>().prop_map(|k| Op::Delete(k % 32)),
                2 => any::<u16>().prop_map(|k| Op::Get(k % 32)),
                1 => Just(Op::Flush),
                1 => Just(Op::Compact),
            ],
            0..250,
        ),
    ) {
        run_model(&ops, 10);
    }
}

// ---------------------------------------------------------------------
// Differential: the store's one k-way merge (scan, `len`, compaction) ≡
// a test-local copy of the materialising algorithm it replaced, run on a
// shadow LSM that flushes and compacts at exactly the store's points.

type Version = (Vec<u8>, Option<Vec<u8>>);

/// The shadow store: the store's flush trigger and run layout, with the
/// pre-merge scan (every level's range copied into one `BTreeMap`) and
/// compaction (all runs folded oldest → newest into one `BTreeMap`).
struct Reference {
    config: LsmConfig,
    memtable: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    memtable_bytes: usize,
    /// Newest last.
    runs: Vec<Vec<Version>>,
    /// Set by a compaction that emptied `runs` into at most one run.
    compacted: bool,
}

impl Reference {
    fn new(config: LsmConfig) -> Self {
        Self { config, memtable: BTreeMap::new(), memtable_bytes: 0, runs: Vec::new(), compacted: false }
    }

    fn write(&mut self, key: Vec<u8>, value: Option<Vec<u8>>) {
        let added = key.len() + value.as_ref().map_or(1, Vec::len);
        if let Some(old) = self.memtable.insert(key, value) {
            self.memtable_bytes = self.memtable_bytes.saturating_sub(old.map_or(1, |v| v.len()));
        }
        self.memtable_bytes += added;
        if self.memtable_bytes >= self.config.memtable_capacity_bytes {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.memtable.is_empty() {
            return;
        }
        self.runs.push(std::mem::take(&mut self.memtable).into_iter().collect());
        self.memtable_bytes = 0;
        if self.runs.len() > self.config.max_runs {
            self.compact();
        }
    }

    fn compact(&mut self) {
        if self.runs.len() <= 1 {
            return;
        }
        let mut merged: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        for run in self.runs.drain(..) {
            for (k, v) in run {
                merged.insert(k, v);
            }
        }
        let entries: Vec<Version> = merged.into_iter().filter(|(_, v)| v.is_some()).collect();
        if !entries.is_empty() {
            self.runs.push(entries);
        }
        self.compacted = true;
    }

    fn scan(&self, start: &[u8], end: Option<&[u8]>, limit: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        if end.is_some_and(|e| e < start) {
            return Vec::new();
        }
        let in_range = |k: &[u8]| start <= k && end.is_none_or(|e| k < e);
        let mut view: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        for run in &self.runs {
            for (k, v) in run.iter().filter(|(k, _)| in_range(k)) {
                view.insert(k.clone(), v.clone());
            }
        }
        for (k, v) in self.memtable.iter().filter(|(k, _)| in_range(k)) {
            view.insert(k.clone(), v.clone());
        }
        view.into_iter().filter_map(|(k, v)| v.map(|val| (k, val))).take(limit).collect()
    }
}

/// Run `ops` on the store beside the reference and the model, checking
/// every step; returns the store.
fn run_differential(ops: &[Op], config: LsmConfig) -> LsmStore {
    let mut store = LsmStore::with_config(config);
    let mut reference = Reference::new(config);
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for (step, op) in ops.iter().enumerate() {
        reference.compacted = false;
        match op {
            Op::Put(k, v) => {
                store.put(key_bytes(*k), vec![*v]);
                reference.write(key_bytes(*k), Some(vec![*v]));
                model.insert(key_bytes(*k), vec![*v]);
            }
            Op::Delete(k) => {
                store.delete(key_bytes(*k));
                reference.write(key_bytes(*k), None);
                model.remove(&key_bytes(*k));
            }
            Op::Get(k) => {
                assert_eq!(store.get(&key_bytes(*k)), model.get(&key_bytes(*k)).cloned(), "step {step}: get({k})");
            }
            Op::Scan(a, b, limit) => {
                let start = key_bytes(*a);
                let end = b.map(key_bytes);
                assert_eq!(
                    store.scan(&start, end.as_deref(), *limit),
                    reference.scan(&start, end.as_deref(), *limit),
                    "step {step}: scan({a}..{b:?}, {limit}) over {} runs",
                    reference.runs.len()
                );
            }
            Op::Len => assert_eq!(store.len(), model.len(), "step {step}: len"),
            Op::Flush => {
                store.flush();
                reference.flush();
            }
            Op::Compact => {
                store.compact();
                reference.compact();
            }
        }
        assert_eq!(store.run_count(), reference.runs.len(), "step {step}: {op:?} run layout");
        // A compaction with nothing in the memtable leaves the store's
        // whole contents in its one run: read it back against the fold.
        if reference.compacted && reference.memtable.is_empty() {
            let folded: Vec<(Vec<u8>, Vec<u8>)> = reference
                .runs
                .iter()
                .flatten()
                .map(|(k, v)| (k.clone(), v.clone().expect("the fold drops tombstones")))
                .collect();
            assert_eq!(store.scan(&[], None, usize::MAX), folded, "step {step}: compacted run");
        }
    }
    assert_eq!(store.len(), model.len(), "final len");
    assert_eq!(store.scan(&[], None, usize::MAX), reference.scan(&[], None, usize::MAX), "final scan");
    store
}

/// A small key domain so keys recur across runs: live in one run,
/// deleted in a newer one, re-put in the memtable.
fn arb_history() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            12 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k % 64, v)),
            5 => any::<u16>().prop_map(|k| Op::Delete(k % 64)),
            2 => any::<u16>().prop_map(|k| Op::Get(k % 64)),
            6 => arb_scan(64),
            1 => Just(Op::Len),
            2 => Just(Op::Flush),
            1 => Just(Op::Compact),
        ],
        0..400,
    )
}

/// A tiny memtable and up to 8 runs: scans merge up to 9 sources.
fn arb_config() -> impl Strategy<Value = LsmConfig> {
    (24usize..96, 1usize..=8, any::<bool>()).prop_map(|(bytes, max_runs, bloom)| LsmConfig {
        memtable_capacity_bytes: bytes,
        max_runs,
        bloom_bits_per_key: if bloom { 10 } else { 0 },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn merge_matches_the_materialising_reference(ops in arb_history(), config in arb_config()) {
        run_differential(&ops, config);
    }
}

#[test]
fn key_live_in_a_run_deleted_in_a_newer_run_reput_in_the_memtable() {
    use Op::*;
    let config = LsmConfig { memtable_capacity_bytes: 1 << 20, max_runs: 8, bloom_bits_per_key: 10 };
    let ops = [
        Put(7, 1),
        Put(8, 1),
        Put(9, 1),
        Flush,
        Delete(7),
        Delete(9),
        Flush,
        Put(7, 2),
        Scan(0, None, usize::MAX),
        Scan(7, Some(8), 1),
        Scan(7, None, 1),
        Scan(9, Some(7), 5),
        Scan(0, None, 0),
        Len,
        Flush,
        Compact,
        Scan(0, None, usize::MAX),
        Len,
    ];
    run_differential(&ops, config);
    let store = run_differential(&ops[..8], config);
    assert_eq!(store.run_count(), 2);
    assert_eq!(
        store.scan(&[], None, usize::MAX),
        vec![(key_bytes(7), vec![2]), (key_bytes(8), vec![1])],
        "the memtable's re-put shadows the newer run's tombstone, which shadows the older run"
    );
}
