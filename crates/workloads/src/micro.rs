//! Micro benchmarks: WordCount and grep.
//!
//! The text kernels HiBench, GridMix and BigDataBench's micro suite run.
//! Each comes as a native kernel and a MapReduce lowering; the two must
//! agree exactly. (Sort is a relational prescription, `micro/sort`, bound
//! to the sql and MapReduce engines.)

use crate::Work;
use bdb_common::prelude::*;
use bdb_common::text::Document;
use bdb_mapreduce::{run_job, run_job_with_combiner, JobConfig};
use bdb_metrics::OpCounts;

/// Native WordCount over a tokenised corpus: `(word id, count)` in word
/// order.
pub fn wordcount_native(docs: &[Document]) -> (Vec<(u32, u64)>, Work) {
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
    let work = Work {
        operations: tokens,
        ops: OpCounts { record_ops: tokens * 2, float_ops: 0 },
        input_items: docs.len() as u64,
    };
    (out, work)
}

/// MapReduce WordCount with a combiner (the canonical Hadoop job).
pub fn wordcount_mapreduce(docs: &[Document], config: &JobConfig) -> (Vec<(u32, u64)>, Work) {
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
    let work = Work {
        operations: r.counters.map_output_records,
        ops: OpCounts { record_ops: r.counters.total_record_ops(), float_ops: 0 },
        input_items: docs.len() as u64,
    };
    (outputs, work)
}

/// Native grep: ids of documents containing `pattern` as a word.
pub fn grep_native(docs: &[Document], vocab: &Vocabulary, pattern: &str) -> (Vec<usize>, Work) {
    let target = vocab.id(pattern);
    let mut hits = Vec::new();
    let mut scanned = 0u64;
    for (i, d) in docs.iter().enumerate() {
        scanned += d.len() as u64;
        if target.is_some_and(|t| d.words.contains(&t)) {
            hits.push(i);
        }
    }
    let work = Work {
        operations: scanned,
        ops: OpCounts { record_ops: scanned, float_ops: 0 },
        input_items: docs.len() as u64,
    };
    (hits, work)
}

/// MapReduce grep.
pub fn grep_mapreduce(
    docs: &[Document],
    vocab: &Vocabulary,
    pattern: &str,
    config: &JobConfig,
) -> (Vec<usize>, Work) {
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
    let work = Work {
        operations: docs.len() as u64,
        ops: OpCounts { record_ops: r.counters.total_record_ops(), float_ops: 0 },
        input_items: docs.len() as u64,
    };
    (hits, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_datagen::corpus::RAW_TEXT_CORPUS;
    use bdb_datagen::text::NaiveTextGenerator;
    use bdb_datagen::volume::VolumeSpec;
    use bdb_datagen::{DataGenerator, Dataset};

    fn corpus() -> (Vec<Document>, Vocabulary) {
        let g = NaiveTextGenerator::from_corpus(&RAW_TEXT_CORPUS);
        match g.generate(1, &VolumeSpec::Items(200)).unwrap() {
            Dataset::Text { docs, vocab } => (docs, vocab),
            _ => unreachable!(),
        }
    }

    #[test]
    fn wordcount_bindings_agree() {
        let (docs, _vocab) = corpus();
        let (native, work) = wordcount_native(&docs);
        let (mr, _) = wordcount_mapreduce(&docs, &JobConfig::default());
        assert_eq!(native, mr);
        // Total counted words equals total tokens, and the kernel counted
        // every token as one operation.
        let tokens: u64 = docs.iter().map(|d| d.len() as u64).sum();
        let counted: u64 = native.iter().map(|(_, c)| c).sum();
        assert_eq!(tokens, counted);
        assert_eq!(work.operations, tokens);
        assert_eq!(work.input_items, docs.len() as u64);
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
        // Missing pattern matches nothing, but every token is still scanned.
        let (none, work) = grep_native(&docs, &vocab, "zzz-not-a-word");
        assert!(none.is_empty());
        assert_eq!(work.operations, docs.iter().map(|d| d.len() as u64).sum::<u64>());
    }

    #[test]
    fn empty_inputs_are_fine() {
        let (wc, work) = wordcount_native(&[]);
        assert!(wc.is_empty());
        assert_eq!(work, Work::default());
        let (mr, _) = wordcount_mapreduce(&[], &JobConfig::default());
        assert!(mr.is_empty());
        let (hits, _) = grep_native(&[], &Vocabulary::new(), "x");
        assert!(hits.is_empty());
    }
}
