//! Micro benchmarks: sort, TeraSort-style parallel sort, WordCount, grep.
//!
//! The workloads HiBench, GridMix and BigDataBench's micro suite run.
//! Each comes as a native kernel and (where Table 2's suites run it on
//! Hadoop) a MapReduce lowering; the two must agree exactly.

use crate::{WorkloadCategory, WorkloadResult};
use bdb_common::prelude::*;
use bdb_common::text::Document;
use bdb_mapreduce::{run_job, run_job_with_combiner, JobConfig};
use bdb_metrics::{MetricsCollector, OpCounts};

/// Native in-memory sort of `u64` keys.
pub fn sort_native(keys: &[u64]) -> (Vec<u64>, WorkloadResult) {
    let collector = MetricsCollector::new();
    let mut sorted = keys.to_vec();
    sorted.sort_unstable();
    let mut c = collector;
    c.record_operations(keys.len() as u64);
    let user = c.finish();
    let ops = OpCounts {
        // ~n log n comparisons.
        record_ops: (keys.len() as f64 * (keys.len().max(2) as f64).log2()) as u64,
        float_ops: 0,
    };
    let result = WorkloadResult::assemble(
        "micro/sort",
        "native",
        WorkloadCategory::OfflineAnalytics,
        user,
        ops,
        keys.len() as u64,
    );
    (sorted, result)
}

/// MapReduce sort: identity map keyed by value, single sorted reducer.
pub fn sort_mapreduce(keys: &[u64], config: &JobConfig) -> (Vec<u64>, WorkloadResult) {
    let collector = MetricsCollector::new();
    let cfg = JobConfig { reduce_tasks: 1, ..*config };
    let r = run_job(
        &cfg,
        keys,
        |k: &u64, emit| emit(*k, ()),
        |k: &u64, vs: Vec<()>, out| {
            for _ in vs {
                out(*k);
            }
        },
    );
    let mut c = collector;
    c.record_operations(keys.len() as u64);
    let user = c.finish();
    let ops = OpCounts { record_ops: r.counters.total_record_ops(), float_ops: 0 };
    let result = WorkloadResult::assemble(
        "micro/sort",
        "mapreduce",
        WorkloadCategory::OfflineAnalytics,
        user,
        ops,
        keys.len() as u64,
    );
    (r.outputs, result)
}

/// TeraSort-style parallel sort: sample the input to build range-partition
/// boundaries, partition, sort partitions in parallel, concatenate.
///
/// This is the real TeraSort structure (sampled partitioner is what
/// distinguishes it from plain MR sort).
pub fn terasort(keys: &[u64], partitions: usize, seed: u64) -> (Vec<u64>, WorkloadResult) {
    let collector = MetricsCollector::new();
    let p = partitions.max(1);
    if keys.is_empty() {
        let result = WorkloadResult::assemble(
            "micro/terasort",
            "native-parallel",
            WorkloadCategory::OfflineAnalytics,
            collector.finish(),
            OpCounts::default(),
            0,
        )
        .with_detail("partitions", p as f64);
        return (Vec::new(), result);
    }
    // Sample ~32 keys per boundary to pick p-1 splitters.
    let mut rng = SeedTree::new(seed).child_named("terasort").rng();
    let sample_size = (32 * p).min(keys.len().max(1));
    let mut sample: Vec<u64> = (0..sample_size)
        .map(|_| keys[rng.next_bounded(keys.len().max(1) as u64) as usize])
        .collect();
    sample.sort_unstable();
    let splitters: Vec<u64> = (1..p)
        .map(|i| sample[i * sample.len() / p])
        .collect();
    // Partition.
    let mut buckets: Vec<Vec<u64>> = (0..p).map(|_| Vec::new()).collect();
    for &k in keys {
        let b = splitters.partition_point(|&s| s <= k);
        buckets[b].push(k);
    }
    // Sort each partition in parallel; partitions are globally ordered.
    let sorted_buckets: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|mut b| {
                scope.spawn(move || {
                    b.sort_unstable();
                    b
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("sorter panicked")).collect()
    });
    let out: Vec<u64> = sorted_buckets.into_iter().flatten().collect();
    let mut c = collector;
    c.record_operations(keys.len() as u64);
    let user = c.finish();
    let ops = OpCounts {
        record_ops: (keys.len() as f64 * (keys.len().max(2) as f64).log2()) as u64
            + keys.len() as u64,
        float_ops: 0,
    };
    let result = WorkloadResult::assemble(
        "micro/terasort",
        "native-parallel",
        WorkloadCategory::OfflineAnalytics,
        user,
        ops,
        keys.len() as u64,
    )
    .with_detail("partitions", p as f64);
    (out, result)
}

/// Native WordCount over a tokenised corpus.
pub fn wordcount_native(docs: &[Document]) -> (Vec<(u32, u64)>, WorkloadResult) {
    let collector = MetricsCollector::new();
    let mut counts: std::collections::HashMap<u32, u64> = Default::default();
    let mut tokens = 0u64;
    for d in docs {
        for &w in &d.words {
            *counts.entry(w).or_insert(0) += 1;
            tokens += 1;
        }
    }
    let mut out: Vec<(u32, u64)> = counts.into_iter().collect();
    out.sort_unstable();
    let mut c = collector;
    c.record_operations(tokens);
    let user = c.finish();
    let ops = OpCounts { record_ops: tokens * 2, float_ops: 0 };
    let result = WorkloadResult::assemble(
        "micro/wordcount",
        "native",
        WorkloadCategory::OfflineAnalytics,
        user,
        ops,
        docs.len() as u64,
    );
    (out, result)
}

/// MapReduce WordCount with a combiner (the canonical Hadoop job).
pub fn wordcount_mapreduce(
    docs: &[Document],
    config: &JobConfig,
) -> (Vec<(u32, u64)>, WorkloadResult) {
    let collector = MetricsCollector::new();
    let r = run_job_with_combiner(
        config,
        docs,
        |d: &Document, emit| {
            for &w in &d.words {
                emit(w, 1u64);
            }
        },
        |_w: &u32, vs: Vec<u64>| vs.iter().sum(),
        |w: &u32, vs: Vec<u64>, out| out((*w, vs.iter().sum::<u64>())),
    );
    let mut outputs = r.outputs;
    outputs.sort_unstable();
    let mut c = collector;
    c.record_operations(r.counters.map_output_records);
    let user = c.finish();
    let ops = OpCounts { record_ops: r.counters.total_record_ops(), float_ops: 0 };
    let result = WorkloadResult::assemble(
        "micro/wordcount",
        "mapreduce",
        WorkloadCategory::OfflineAnalytics,
        user,
        ops,
        docs.len() as u64,
    );
    (outputs, result)
}

/// Native grep: ids of documents containing `pattern` as a word.
pub fn grep_native(
    docs: &[Document],
    vocab: &Vocabulary,
    pattern: &str,
) -> (Vec<usize>, WorkloadResult) {
    let collector = MetricsCollector::new();
    let target = vocab.id(pattern);
    let mut hits = Vec::new();
    let mut scanned = 0u64;
    if let Some(t) = target {
        for (i, d) in docs.iter().enumerate() {
            scanned += d.len() as u64;
            if d.words.contains(&t) {
                hits.push(i);
            }
        }
    } else {
        for d in docs {
            scanned += d.len() as u64;
        }
    }
    let mut c = collector;
    c.record_operations(scanned);
    let user = c.finish();
    let ops = OpCounts { record_ops: scanned, float_ops: 0 };
    let result = WorkloadResult::assemble(
        "micro/grep",
        "native",
        WorkloadCategory::OfflineAnalytics,
        user,
        ops,
        docs.len() as u64,
    );
    (hits, result)
}

/// MapReduce grep.
pub fn grep_mapreduce(
    docs: &[Document],
    vocab: &Vocabulary,
    pattern: &str,
    config: &JobConfig,
) -> (Vec<usize>, WorkloadResult) {
    let collector = MetricsCollector::new();
    let target = vocab.id(pattern);
    let indexed: Vec<(usize, &Document)> = docs.iter().enumerate().collect();
    let r = run_job(
        config,
        &indexed,
        move |(i, d): &(usize, &Document), emit| {
            if let Some(t) = target {
                if d.words.contains(&t) {
                    emit(*i, ());
                }
            }
        },
        |i: &usize, _vs: Vec<()>, out| out(*i),
    );
    let mut hits = r.outputs;
    hits.sort_unstable();
    let mut c = collector;
    c.record_operations(docs.len() as u64);
    let user = c.finish();
    let ops = OpCounts { record_ops: r.counters.total_record_ops(), float_ops: 0 };
    let result = WorkloadResult::assemble(
        "micro/grep",
        "mapreduce",
        WorkloadCategory::OfflineAnalytics,
        user,
        ops,
        docs.len() as u64,
    );
    (hits, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_datagen::corpus::RAW_TEXT_CORPUS;
    use bdb_datagen::text::NaiveTextGenerator;
    use bdb_datagen::volume::VolumeSpec;
    use bdb_datagen::{DataGenerator, Dataset};

    fn keys(n: u64, seed: u64) -> Vec<u64> {
        let mut rng = Xoshiro256::new(seed);
        (0..n).map(|_| rng.next_u64() % 1_000_000).collect()
    }

    fn corpus() -> (Vec<Document>, Vocabulary) {
        let g = NaiveTextGenerator::from_corpus(&RAW_TEXT_CORPUS);
        match g.generate(1, &VolumeSpec::Items(200)).unwrap() {
            Dataset::Text { docs, vocab } => (docs, vocab),
            _ => unreachable!(),
        }
    }

    #[test]
    fn sort_native_is_correct() {
        let ks = keys(5000, 1);
        let (sorted, result) = sort_native(&ks);
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(sorted.len(), ks.len());
        assert!(result.report.user.operations == 5000);
    }

    #[test]
    fn sort_mapreduce_matches_native() {
        let ks = keys(2000, 2);
        let (native, _) = sort_native(&ks);
        let (mr, _) = sort_mapreduce(&ks, &JobConfig::default());
        assert_eq!(native, mr);
    }

    #[test]
    fn terasort_matches_native_sort() {
        let ks = keys(10_000, 3);
        let (native, _) = sort_native(&ks);
        for p in [1, 4, 7] {
            let (ts, result) = terasort(&ks, p, 42);
            assert_eq!(ts, native, "partitions {p}");
            assert_eq!(result.detail("partitions"), Some(p as f64));
        }
    }

    #[test]
    fn terasort_handles_skewed_input() {
        // Mostly-duplicate keys stress the sampled splitters.
        let mut ks = vec![7u64; 5000];
        ks.extend(keys(100, 4));
        let (ts, _) = terasort(&ks, 8, 1);
        let mut expect = ks.clone();
        expect.sort_unstable();
        assert_eq!(ts, expect);
    }

    #[test]
    fn wordcount_bindings_agree() {
        let (docs, _vocab) = corpus();
        let (native, _) = wordcount_native(&docs);
        let (mr, _) = wordcount_mapreduce(&docs, &JobConfig::default());
        assert_eq!(native, mr);
        // Total counted words equals total tokens.
        let tokens: u64 = docs.iter().map(|d| d.len() as u64).sum();
        let counted: u64 = native.iter().map(|(_, c)| c).sum();
        assert_eq!(tokens, counted);
    }

    #[test]
    fn grep_bindings_agree() {
        let (docs, vocab) = corpus();
        // Pick a word guaranteed to exist.
        let word = vocab.word(0).unwrap().to_string();
        let (native, _) = grep_native(&docs, &vocab, &word);
        let (mr, _) = grep_mapreduce(&docs, &vocab, &word, &JobConfig::default());
        assert_eq!(native, mr);
        assert!(!native.is_empty());
        // Missing pattern matches nothing.
        let (none, _) = grep_native(&docs, &vocab, "zzz-not-a-word");
        assert!(none.is_empty());
    }

    #[test]
    fn empty_inputs_are_fine() {
        let (sorted, _) = sort_native(&[]);
        assert!(sorted.is_empty());
        let (ts, _) = terasort(&[], 4, 1);
        assert!(ts.is_empty());
        let (wc, _) = wordcount_native(&[]);
        assert!(wc.is_empty());
    }
}
