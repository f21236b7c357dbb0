//! The MapReduce execution pipeline.
//!
//! `run_job` executes: split → map (parallel) → \[combine\] → partition by
//! key hash → shuffle → sort within partition → group → reduce (parallel);
//! `run_map` stops after the map phase. A job is lent its input: splits
//! are subslices, and what a mapper emits may borrow from the records it
//! was shown. Both phases run on the workspace pool
//! ([`bdb_common::pool`]): map and reduce tasks queue on `workers`
//! threads. The dataflow is the real thing; only the transport (memory
//! instead of disk/network) is simulated.

use crate::counters::{CounterSnapshot, Counters};
use bdb_common::pool;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Job-level configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobConfig {
    /// Number of map tasks (input splits). 0 = one per worker thread.
    pub map_tasks: usize,
    /// Number of reduce tasks (shuffle partitions).
    pub reduce_tasks: usize,
    /// Worker threads for both phases: map and reduce tasks queue on this
    /// many threads. 0 = available parallelism.
    pub workers: usize,
}

impl Default for JobConfig {
    fn default() -> Self {
        Self { map_tasks: 0, reduce_tasks: 4, workers: 0 }
    }
}

impl JobConfig {
    fn effective_map_tasks(&self) -> usize {
        if self.map_tasks > 0 {
            self.map_tasks
        } else {
            pool::effective_workers(self.workers)
        }
    }
}

/// The result of a completed job.
#[derive(Debug)]
pub struct JobResult<O> {
    /// Reducer outputs, concatenated in partition order (map outputs in
    /// split order for a map-only job).
    pub outputs: Vec<O>,
    /// Final counter values.
    pub counters: CounterSnapshot,
    /// Wall-clock duration of the whole job.
    pub elapsed: Duration,
}

fn hash_partition<K: Hash>(key: &K, partitions: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % partitions as u64) as usize
}

/// Cut `input` into `n` nearly equal subslices, in order.
fn split_input<I>(input: &[I], n: usize) -> Vec<&[I]> {
    let n = n.max(1);
    let base = input.len() / n;
    let extra = input.len() % n;
    let mut rest = input;
    (0..n)
        .map(|i| {
            let (split, tail) = rest.split_at(base + usize::from(i < extra));
            rest = tail;
            split
        })
        .collect()
}

/// Run a MapReduce job without a combiner over the lent `input`: the
/// mapper sees `&'a I`, so keys and values may borrow from the input. See
/// the crate docs for an example.
pub fn run_job<'a, I, K, V, O, M, R>(
    config: &JobConfig,
    input: &'a [I],
    mapper: M,
    reducer: R,
) -> JobResult<O>
where
    I: Sync,
    K: Ord + Hash + Send,
    V: Send,
    O: Send,
    M: Fn(&'a I, &mut dyn FnMut(K, V)) + Sync,
    R: Fn(&K, Vec<V>, &mut dyn FnMut(O)) + Sync,
{
    // A no-op combiner type so both entry points share one pipeline.
    let no_combiner: Option<&fn(&K, Vec<V>) -> V> = None;
    run_pipeline(config, input, &mapper, no_combiner, &reducer)
}

/// Run a MapReduce job with a combiner that folds each mapper's local
/// values per key before the shuffle (Hadoop's `combine` step).
pub fn run_job_with_combiner<'a, I, K, V, O, M, C, R>(
    config: &JobConfig,
    input: &'a [I],
    mapper: M,
    combiner: C,
    reducer: R,
) -> JobResult<O>
where
    I: Sync,
    K: Ord + Hash + Send,
    V: Send,
    O: Send,
    M: Fn(&'a I, &mut dyn FnMut(K, V)) + Sync,
    C: Fn(&K, Vec<V>) -> V + Sync,
    R: Fn(&K, Vec<V>, &mut dyn FnMut(O)) + Sync,
{
    run_pipeline(config, input, &mapper, Some(&combiner), &reducer)
}

/// Run a map-only job (Hive's plan for a filter or a projection): no
/// shuffle, no reducers. Map outputs are concatenated in split order, so
/// input order is kept; only the map counters move.
pub fn run_map<'a, I, O, M>(config: &JobConfig, input: &'a [I], mapper: M) -> JobResult<O>
where
    I: Sync,
    O: Send,
    M: Fn(&'a I, &mut dyn FnMut(O)) + Sync,
{
    let start = Instant::now();
    let counters = Counters::new();
    let splits = split_input(input, config.effective_map_tasks());
    let outputs = pool::par_map(config.workers, splits, |split| {
        let mut out = Vec::new();
        for record in split {
            mapper(record, &mut |o| out.push(o));
        }
        Counters::add(&counters.map_input_records, split.len() as u64);
        Counters::add(&counters.map_output_records, out.len() as u64);
        out
    });
    let outputs = outputs.into_iter().flatten().collect();
    JobResult { outputs, counters: counters.snapshot(), elapsed: start.elapsed() }
}

fn run_pipeline<'a, I, K, V, O, M, C, R>(
    config: &JobConfig,
    input: &'a [I],
    mapper: &M,
    combiner: Option<&C>,
    reducer: &R,
) -> JobResult<O>
where
    I: Sync,
    K: Ord + Hash + Send,
    V: Send,
    O: Send,
    M: Fn(&'a I, &mut dyn FnMut(K, V)) + Sync,
    C: Fn(&K, Vec<V>) -> V + Sync,
    R: Fn(&K, Vec<V>, &mut dyn FnMut(O)) + Sync,
{
    let start = Instant::now();
    let counters = Counters::new();
    let reduce_tasks = config.reduce_tasks.max(1);

    // ---- Map phase (parallel over splits) ----
    // Each map task produces `reduce_tasks` partitions of (K, V).
    let splits = split_input(input, config.effective_map_tasks());
    let map_outputs: Vec<Vec<Vec<(K, V)>>> = pool::par_map(config.workers, splits, |split| {
        let mut partitions: Vec<Vec<(K, V)>> = (0..reduce_tasks).map(|_| Vec::new()).collect();
        let mut emitted = 0u64;
        for record in split {
            let mut emit = |k: K, v: V| {
                emitted += 1;
                let p = hash_partition(&k, reduce_tasks);
                partitions[p].push((k, v));
            };
            mapper(record, &mut emit);
        }
        Counters::add(&counters.map_input_records, split.len() as u64);
        Counters::add(&counters.map_output_records, emitted);
        // ---- Combine (local, per map task) ----
        if let Some(c) = combiner {
            for part in &mut partitions {
                *part = combine_partition(std::mem::take(part), c);
            }
        }
        let after: u64 = partitions.iter().map(|p| p.len() as u64).sum();
        Counters::add(&counters.combine_output_records, after);
        partitions
    });

    // ---- Shuffle: gather partition p from every map task ----
    let mut reduce_inputs: Vec<Vec<(K, V)>> = (0..reduce_tasks).map(|_| Vec::new()).collect();
    let mut shuffled = 0u64;
    for mut task_out in map_outputs {
        for (p, part) in task_out.drain(..).enumerate() {
            shuffled += part.len() as u64;
            reduce_inputs[p].extend(part);
        }
    }
    Counters::add(&counters.shuffle_records, shuffled);

    // ---- Reduce phase (parallel over partitions, sorted input) ----
    let partition_outputs: Vec<Vec<O>> = pool::par_map(config.workers, reduce_inputs, |mut pairs| {
        // The sort that defines MapReduce reduce-input order.
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        let mut outputs = Vec::new();
        let mut groups = 0u64;
        let mut iter = pairs.into_iter().peekable();
        while let Some((key, first)) = iter.next() {
            let mut values = vec![first];
            while iter.peek().is_some_and(|(k, _)| *k == key) {
                values.push(iter.next().unwrap().1);
            }
            groups += 1;
            reducer(&key, values, &mut |o| outputs.push(o));
        }
        Counters::add(&counters.reduce_input_groups, groups);
        Counters::add(&counters.reduce_output_records, outputs.len() as u64);
        outputs
    });
    let outputs = partition_outputs.into_iter().flatten().collect();

    JobResult { outputs, counters: counters.snapshot(), elapsed: start.elapsed() }
}

/// Sort-and-fold a map task's partition with the combiner.
fn combine_partition<K: Ord, V, C: Fn(&K, Vec<V>) -> V>(
    mut pairs: Vec<(K, V)>,
    combiner: &C,
) -> Vec<(K, V)> {
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out: Vec<(K, V)> = Vec::new();
    let mut iter = pairs.into_iter().peekable();
    while let Some((key, first)) = iter.next() {
        let mut values = vec![first];
        while iter.peek().is_some_and(|(k, _)| *k == key) {
            values.push(iter.next().unwrap().1);
        }
        let folded = combiner(&key, values);
        out.push((key, folded));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wordcount(lines: &[&str], cfg: &JobConfig) -> Vec<(String, u64)> {
        let mut r = run_job(
            cfg,
            lines,
            |line: &&str, emit| {
                for w in line.split_whitespace() {
                    emit(w, 1u64);
                }
            },
            |w: &&str, vs: Vec<u64>, out| out((w.to_string(), vs.iter().sum::<u64>())),
        )
        .outputs;
        r.sort();
        r
    }

    #[test]
    fn wordcount_matches_manual_counts() {
        let got = wordcount(
            &["a b a", "c b", "a"],
            &JobConfig { map_tasks: 2, reduce_tasks: 3, workers: 2 },
        );
        assert_eq!(got, vec![("a".into(), 3), ("b".into(), 2), ("c".into(), 1)]);
    }

    #[test]
    fn result_is_independent_of_task_counts() {
        let lines = ["x y", "y z x", "z z z", "w"];
        let base = wordcount(&lines, &JobConfig::default());
        for (m, r, w) in [(1, 1, 1), (4, 2, 3), (7, 9, 2)] {
            let cfg = JobConfig { map_tasks: m, reduce_tasks: r, workers: w };
            assert_eq!(wordcount(&lines, &cfg), base, "cfg {m}/{r}/{w}");
        }
    }

    #[test]
    fn combiner_reduces_shuffle_volume_without_changing_results() {
        let lines: Vec<String> = (0..200).map(|i| format!("k{} k{} k0", i % 5, i % 3)).collect();
        let cfg = JobConfig { map_tasks: 4, reduce_tasks: 2, workers: 2 };
        let map = |line: &String, emit: &mut dyn FnMut(String, u64)| {
            for w in line.split_whitespace() {
                emit(w.to_string(), 1u64);
            }
        };
        let reduce = |w: &String, vs: Vec<u64>, out: &mut dyn FnMut((String, u64))| {
            out((w.clone(), vs.iter().sum::<u64>()));
        };
        let plain = run_job(&cfg, &lines, map, reduce);
        let combine = |_w: &String, vs: Vec<u64>| vs.iter().sum();
        let combined = run_job_with_combiner(&cfg, &lines, map, combine, reduce);
        let mut a = plain.outputs;
        let mut b = combined.outputs;
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert!(
            combined.counters.shuffle_records < plain.counters.shuffle_records,
            "combiner should shrink the shuffle: {} vs {}",
            combined.counters.shuffle_records,
            plain.counters.shuffle_records
        );
    }

    #[test]
    fn counters_track_the_dataflow() {
        let r = run_job(
            &JobConfig { map_tasks: 2, reduce_tasks: 2, workers: 2 },
            &[1u64, 2, 3, 4],
            |x: &u64, emit| emit(x % 2, *x),
            |_k: &u64, vs: Vec<u64>, out| out(vs.iter().sum::<u64>()),
        );
        let c = r.counters;
        assert_eq!(c.map_input_records, 4);
        assert_eq!(c.map_output_records, 4);
        assert_eq!(c.shuffle_records, 4);
        assert_eq!(c.reduce_input_groups, 2);
        assert_eq!(c.reduce_output_records, 2);
        let mut sums = r.outputs;
        sums.sort();
        assert_eq!(sums, vec![4, 6]); // evens 2+4... odds 1+3
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let r = run_job(
            &JobConfig::default(),
            &[],
            |x: &u32, emit| emit(*x, *x),
            |k: &u32, _vs: Vec<u32>, out| out(*k),
        );
        assert!(r.outputs.is_empty());
        assert_eq!(r.counters.map_input_records, 0);
    }

    #[test]
    fn reduce_sees_values_grouped_per_key() {
        let r = run_job(
            &JobConfig { map_tasks: 3, reduce_tasks: 1, workers: 2 },
            &[("a", 1), ("b", 2), ("a", 3), ("a", 4)],
            |(k, v): &(&str, i32), emit| emit(k.to_string(), *v),
            |k: &String, mut vs: Vec<i32>, out| {
                vs.sort();
                out((k.clone(), vs));
            },
        );
        let mut outs = r.outputs;
        outs.sort();
        assert_eq!(
            outs,
            vec![("a".to_string(), vec![1, 3, 4]), ("b".to_string(), vec![2])]
        );
    }

    #[test]
    fn split_input_preserves_order_and_counts() {
        let input: Vec<i32> = (0..10).collect();
        let splits = split_input(&input, 3);
        assert_eq!(splits, vec![&[0, 1, 2, 3][..], &[4, 5, 6], &[7, 8, 9]]);
        // Splits are views of the input, not copies.
        assert!(std::ptr::eq(splits[1].as_ptr(), &input[4]));
        let empty = split_input::<u8>(&[], 4);
        assert_eq!(empty.len(), 4);
        assert!(empty.iter().all(|s| s.is_empty()));
    }

    #[test]
    fn map_only_job_keeps_input_order_and_counts_only_map_records() {
        let input: Vec<u32> = (0..23).collect();
        let want: Vec<&u32> = input.iter().filter(|x| **x > 7).collect();
        for map_tasks in [1, 3, 7] {
            let cfg = JobConfig { map_tasks, reduce_tasks: 5, workers: 2 };
            // What is emitted borrows from the lent input.
            let r = run_map(&cfg, &input, |x: &u32, out| {
                if *x > 7 {
                    out(x);
                }
            });
            assert_eq!(r.outputs, want, "{map_tasks} splits");
            let c = r.counters;
            assert_eq!((c.map_input_records, c.map_output_records), (23, 15));
            assert_eq!(c.total_record_ops(), 23 + 15, "no shuffle or reduce records");
        }
    }

    #[test]
    fn reduce_tasks_queue_on_the_configured_workers() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let input: Vec<u64> = (0..400).collect();
        let run = |workers: usize| {
            let threads = Mutex::new(HashSet::new());
            let r = run_job(
                &JobConfig { map_tasks: 4, reduce_tasks: 8, workers },
                &input,
                |x: &u64, emit| emit(x % 64, *x),
                |k: &u64, vs: Vec<u64>, out| {
                    threads.lock().unwrap().insert(std::thread::current().id());
                    out((*k, vs.iter().sum::<u64>()));
                },
            );
            (r.outputs, threads.into_inner().unwrap().len())
        };
        let (sequential, _) = run(1);
        let (pooled, distinct) = run(2);
        assert!(distinct <= 2, "8 reduce tasks ran on {distinct} threads, want at most 2");
        assert_eq!(pooled, sequential, "partition order must not depend on workers");
    }

    #[test]
    fn sort_job_via_single_reducer() {
        // The classic MR sort: identity map, single partition, sorted keys.
        let r = run_job(
            &JobConfig { map_tasks: 2, reduce_tasks: 1, workers: 2 },
            &[5u64, 1, 9, 3, 7, 2],
            |x: &u64, emit| emit(*x, ()),
            |k: &u64, _vs: Vec<()>, out| out(*k),
        );
        assert_eq!(r.outputs, vec![1, 2, 3, 5, 7, 9]);
    }
}
