//! A scoped, index-dispatching worker pool built on `std::thread::scope`:
//! the one body behind every parallel fan-out in the workspace.
//!
//! The data generators need BDGS/PDGF-style parallelism: N workers produce
//! disjoint slices of one logical data set, and the concatenation of the
//! slices — in slice order — must equal a sequential run of the same seed.
//! The pool therefore separates *scheduling* from *merging*: items (a
//! generator's [`Chunk`]s, a MapReduce job's splits and partitions, a load
//! driver's clients) are handed to whichever worker is free (an atomic
//! cursor, so a slow item never stalls the others), but results are always
//! returned in input order, making the output independent of thread timing.
//!
//! No external crates: the registry is offline, so this is plain
//! `std::thread::scope` instead of rayon. Worker count `0` means "use
//! [`std::thread::available_parallelism`]" everywhere, through
//! [`effective_workers`].
//!
//! The pool is panic-hardened: a task that panics is caught in its worker
//! and surfaced as a structured [`WorkerPanic`] by [`try_par_map`] instead
//! of tearing down the process — which is what lets the resilient
//! execution layer turn a crashed generator worker into the named error of
//! the operation it hit.
//! The panic-propagating [`par_map`] wrapper keeps the old contract for
//! callers whose tasks cannot fail.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A worker panic caught by the pool, surfaced as a structured error so a
/// crashing task fails the operation instead of aborting the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the item whose task panicked (the lowest index when
    /// several workers panic).
    pub task_index: usize,
    /// The panic payload rendered as text.
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool worker panicked on task {}: {}", self.task_index, self.message)
    }
}

impl std::error::Error for WorkerPanic {}

/// Render a panic payload (`&str` or `String` payloads, the ones `panic!`
/// produces) as text.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Resolve a requested worker count: `0` = available parallelism.
pub fn effective_workers(workers: usize) -> usize {
    if workers > 0 {
        workers
    } else {
        std::thread::available_parallelism().map_or(4, |n| n.get())
    }
}

/// One contiguous slice of a logical item range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Position of this chunk in the merged output.
    pub index: usize,
    /// First item of the chunk.
    pub offset: u64,
    /// Number of items in the chunk.
    pub len: u64,
}

/// Split `total` items into `parts` contiguous chunks of near-equal size
/// (the first `total % parts` chunks get one extra item). Empty chunks are
/// never emitted; fewer than `parts` chunks are returned when
/// `total < parts`.
pub fn split_even(total: u64, parts: usize) -> Vec<Chunk> {
    let parts = parts.max(1) as u64;
    let base = total / parts;
    let extra = total % parts;
    let mut chunks = Vec::new();
    let mut offset = 0;
    for i in 0..parts {
        let len = base + u64::from(i < extra);
        if len == 0 {
            break;
        }
        chunks.push(Chunk { index: chunks.len(), offset, len });
        offset += len;
    }
    chunks
}

/// Split `total` items into chunks of at most `chunk_size` items.
pub fn chunk_ranges(total: u64, chunk_size: u64) -> Vec<Chunk> {
    let chunk_size = chunk_size.max(1);
    let mut chunks = Vec::with_capacity((total / chunk_size + 1) as usize);
    let mut offset = 0;
    while offset < total {
        let len = chunk_size.min(total - offset);
        chunks.push(Chunk { index: chunks.len(), offset, len });
        offset += len;
    }
    chunks
}

/// Map `f` over `items` on `workers` threads (0 = available parallelism)
/// and return the results **in input order**, independent of which worker
/// ran which item. A panicking task is caught and returned as a
/// [`WorkerPanic`] naming the lowest panicking index; remaining items are
/// not started once a panic is seen.
///
/// Items are dispatched through a shared atomic cursor, so load imbalance
/// between items is absorbed by whichever workers finish early.
pub fn try_par_map<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Result<Vec<R>, WorkerPanic>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = effective_workers(workers).min(items.len().max(1));
    if workers <= 1 || items.len() <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| {
                catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|p| WorkerPanic {
                    task_index: i,
                    message: panic_message(p.as_ref()),
                })
            })
            .collect();
    }
    // Slot items behind Options so workers can take them by index.
    let cells: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let panic: Mutex<Option<WorkerPanic>> = Mutex::new(None);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..cells.len()).map(|_| None).collect());
    let cells = &cells;
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    if failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= cells.len() {
                        break;
                    }
                    let item = cells[i]
                        .lock()
                        .expect("pool item poisoned")
                        .take()
                        .expect("item taken once");
                    match catch_unwind(AssertUnwindSafe(|| f(item))) {
                        Ok(out) => slots.lock().expect("pool slots poisoned")[i] = Some(out),
                        Err(payload) => {
                            let caught = WorkerPanic {
                                task_index: i,
                                message: panic_message(payload.as_ref()),
                            };
                            let mut first = panic.lock().expect("pool panic slot poisoned");
                            // Keep the lowest-index panic so the reported
                            // error is independent of thread timing.
                            if first.as_ref().is_none_or(|p| caught.task_index < p.task_index) {
                                *first = Some(caught);
                            }
                            failed.store(true, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("pool worker thread died outside a task");
        }
    });
    if let Some(p) = panic.into_inner().expect("pool panic slot poisoned") {
        return Err(p);
    }
    Ok(slots
        .into_inner()
        .expect("pool slots poisoned")
        .into_iter()
        .map(|s| s.expect("every item produced a result"))
        .collect())
}

/// Panic-propagating wrapper around [`try_par_map`] for callers whose
/// tasks are known not to panic.
pub fn par_map<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    try_par_map(workers, items, f).unwrap_or_else(|p| panic!("{p}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_workers_resolves_zero() {
        assert!(effective_workers(0) >= 1);
        assert_eq!(effective_workers(3), 3);
    }

    #[test]
    fn split_even_partitions_exactly() {
        let chunks = split_even(10, 3);
        assert_eq!(chunks.len(), 3);
        assert_eq!(
            chunks.iter().map(|c| (c.offset, c.len)).collect::<Vec<_>>(),
            vec![(0, 4), (4, 3), (7, 3)]
        );
        let total: u64 = chunks.iter().map(|c| c.len).sum();
        assert_eq!(total, 10);
        // Fewer items than parts: no empty chunks.
        assert_eq!(split_even(2, 8).len(), 2);
        assert!(split_even(0, 4).is_empty());
    }

    #[test]
    fn chunk_ranges_covers_total() {
        let chunks = chunk_ranges(10, 4);
        assert_eq!(
            chunks.iter().map(|c| (c.offset, c.len)).collect::<Vec<_>>(),
            vec![(0, 4), (4, 4), (8, 2)]
        );
        assert!(chunk_ranges(0, 4).is_empty());
        assert_eq!(chunk_ranges(5, 0).len(), 5); // clamped to 1
    }

    #[test]
    fn par_map_merges_chunks_in_index_order() {
        for workers in [1, 2, 4, 0] {
            let chunks = chunk_ranges(1000, 37);
            let got = par_map(workers, chunks.clone(), |c| {
                (c.offset..c.offset + c.len).collect::<Vec<u64>>()
            });
            let flat: Vec<u64> = got.into_iter().flatten().collect();
            assert_eq!(flat, (0..1000).collect::<Vec<_>>(), "workers {workers}");
        }
    }

    #[test]
    fn par_map_is_deterministic_under_imbalance() {
        // Uneven per-chunk work must not perturb merge order.
        let chunks = split_even(64, 16);
        let run = || {
            par_map(4, chunks.clone(), |c| {
                if c.index.is_multiple_of(3) {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                c.offset
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u32> = (0..100).collect();
        let got = par_map(3, items, |x| x * 2);
        assert_eq!(got, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        // Degenerate sizes.
        assert!(par_map(4, Vec::<u32>::new(), |x| x).is_empty());
        assert_eq!(par_map(4, vec![7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn panicking_task_surfaces_structured_error() {
        for workers in [1, 4] {
            let err = try_par_map(workers, split_even(32, 8), |c| {
                if c.index == 3 {
                    panic!("chunk {} exploded", c.index);
                }
                c.offset
            })
            .unwrap_err();
            assert_eq!(err.task_index, 3, "workers {workers}");
            assert_eq!(err.message, "chunk 3 exploded");
            assert!(err.to_string().contains("pool worker panicked on task 3"));
        }
    }

    #[test]
    fn try_par_map_catches_item_panics() {
        let err = try_par_map(3, (0..20u32).collect(), |x| {
            if x == 7 {
                panic!("bad item");
            }
            x * 2
        })
        .unwrap_err();
        assert_eq!(err.task_index, 7);
        assert_eq!(err.message, "bad item");
        // And the clean path still returns everything in order.
        let ok = try_par_map(3, (0..20u32).collect(), |x| x * 2).unwrap();
        assert_eq!(ok, (0..20).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "pool worker panicked on task 0")]
    fn panic_propagating_wrapper_keeps_old_contract() {
        let _ = par_map(2, vec![1u32, 2], |_| panic!("boom"));
    }

    #[test]
    fn panic_message_renders_payload_kinds() {
        let err = try_par_map(1, vec![0u8], |_| panic!("{}", String::from("heap msg")))
            .unwrap_err();
        assert_eq!(err.message, "heap msg");
    }

    #[test]
    fn pool_actually_runs_on_multiple_threads() {
        use std::collections::BTreeSet;
        let ids = par_map(4, split_even(64, 64), |_c| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            format!("{:?}", std::thread::current().id())
        });
        let distinct: BTreeSet<&String> = ids.iter().collect();
        assert!(distinct.len() > 1, "expected multiple worker threads");
    }
}
