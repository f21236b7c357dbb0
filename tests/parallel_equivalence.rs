//! Property tests for the shard-determinism contract behind
//! `DataGenerator::generate_parallel` and the velocity controller: for
//! every shardable generator, concatenating K shards equals the
//! single-shard sequential run of the same seed, byte for byte —
//! timestamps included — and the controller's output is that same data at
//! any worker count, chunk size and target rate.

use bdbench::common::pool::split_even;
use bdbench::datagen::corpus::{raw_retail_table, RAW_TEXT_CORPUS};
use bdbench::datagen::graph::{ErdosRenyiGenerator, RmatGenerator};
use bdbench::datagen::table::TableGenerator;
use bdbench::datagen::text::NaiveTextGenerator;
use bdbench::datagen::velocity::VelocityController;
use bdbench::datagen::volume::VolumeSpec;
use bdbench::datagen::{merge_datasets, DataGenerator, Dataset};
use proptest::prelude::*;

/// Split `total` into `k` contiguous spans covering `[0, total)`.
fn spans(total: u64, k: u64) -> Vec<(u64, u64)> {
    split_even(total, k as usize).into_iter().map(|c| (c.offset, c.len)).collect()
}

fn text_docs(d: Dataset) -> Vec<Vec<u32>> {
    match d {
        Dataset::Text { docs, .. } => docs.into_iter().map(|doc| doc.words).collect(),
        _ => panic!("expected text dataset"),
    }
}

/// Assert two datasets are the same data, byte for byte.
fn assert_same_data(id: &str, expected: &Dataset, got: &Dataset, what: &str) {
    match (expected, got) {
        (Dataset::Text { docs: a, .. }, Dataset::Text { docs: b, .. }) => {
            assert_eq!(a, b, "{id}: {what}");
        }
        (Dataset::Table(a), Dataset::Table(b)) => assert_eq!(a, b, "{id}: {what}"),
        (Dataset::Graph(a), Dataset::Graph(b)) => assert_eq!(a, b, "{id}: {what}"),
        (Dataset::Stream(a), Dataset::Stream(b)) => assert_eq!(a, b, "{id}: {what}"),
        _ => panic!("{id}: {what}: dataset kinds differ"),
    }
}

#[test]
fn controller_output_is_the_sequential_data_for_every_builtin_family() {
    // Velocity is pacing only: whatever the worker count, chunk size or
    // target rate, the controller hands back `generate(seed, volume)`.
    let registry = bdbench::core::GeneratorRegistry::with_builtins();
    let (seed, items) = (42, 120);
    for id in registry.ids() {
        let g = registry.build(id).unwrap();
        let expected = g.generate(seed, &VolumeSpec::Items(items)).unwrap();
        let planned = g.plan_items(seed, &VolumeSpec::Items(items)).unwrap();
        // Three builtins cannot shard exactly — preferential attachment and
        // the two running event clocks: the controller falls back to one
        // sequential run on one worker, paced as a single chunk.
        let sequential_only = ["graph/barabasi-albert", "stream/poisson", "stream/mmpp"];
        assert_eq!(planned.is_some(), !sequential_only.contains(&id), "{id}");
        for workers in [2, 4] {
            let par = g.generate_parallel(seed, &VolumeSpec::Items(items), workers).unwrap();
            assert_same_data(id, &expected, &par, &format!("generate_parallel({workers})"));
        }
        for workers in [1, 2, 4] {
            for chunk in [7, 64] {
                for rate in [None, Some(1e7)] {
                    let mut c = VelocityController::new(workers).unwrap().with_chunk_items(chunk);
                    if let Some(r) = rate {
                        c = c.with_target_rate(r);
                    }
                    let out = c.run(g.as_ref(), seed, items).unwrap();
                    let what = format!("workers {workers}, chunk {chunk}, rate {rate:?}");
                    assert_eq!(out.items as usize, expected.item_count(), "{id}: {what}");
                    assert_eq!(out.target_rate, rate, "{id}: {what}");
                    assert!(out.achieved_rate > 0.0, "{id}: {what}");
                    let ran = planned.map_or(1, |n| workers.min(n.div_ceil(chunk) as usize));
                    assert_eq!(out.workers, ran, "{id}: {what}");
                    assert_same_data(id, &expected, &out.dataset, &what);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn text_shards_concatenate_to_sequential(seed in any::<u64>(), k in 1u64..6) {
        let g = NaiveTextGenerator::from_corpus(&RAW_TEXT_CORPUS);
        let vol = VolumeSpec::Items(60);
        let full = text_docs(g.generate(seed, &vol).unwrap());
        let mut merged = Vec::new();
        for (offset, len) in spans(60, k) {
            merged.extend(text_docs(g.generate_shard(seed, &vol, offset, len).unwrap()));
        }
        prop_assert_eq!(full, merged);
    }

    #[test]
    fn table_shards_concatenate_to_sequential(seed in any::<u64>(), k in 2u64..5) {
        // Each shard anchors its monotonic clock at the exact timestamp of
        // the row before it, so every column matches.
        let g = TableGenerator::fit("retail", &raw_retail_table()).unwrap();
        let vol = VolumeSpec::Items(80);
        let table = |d: Dataset| match d {
            Dataset::Table(t) => t,
            _ => unreachable!(),
        };
        let shards = spans(80, k)
            .into_iter()
            .map(|(offset, len)| {
                DataGenerator::generate_shard(&g, seed, &vol, offset, len).unwrap()
            })
            .collect();
        prop_assert_eq!(
            table(g.generate(seed, &vol).unwrap()),
            table(merge_datasets(shards).unwrap())
        );
    }

    #[test]
    fn table_parallel_is_exactly_sequential(seed in any::<u64>(), workers in 2usize..5) {
        // The trait-level parallel path uses exact gap-sum anchors, so
        // even the timestamp column must match byte for byte.
        let g = TableGenerator::fit("retail", &raw_retail_table()).unwrap();
        let vol = VolumeSpec::Items(120);
        let seq = match DataGenerator::generate(&g, seed, &vol).unwrap() {
            Dataset::Table(t) => t,
            _ => unreachable!(),
        };
        let par = match g.generate_parallel(seed, &vol, workers).unwrap() {
            Dataset::Table(t) => t,
            _ => unreachable!(),
        };
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn graph_shards_concatenate_to_sequential(seed in any::<u64>(), k in 1u64..6) {
        let vol = VolumeSpec::Items(256);
        let rmat = RmatGenerator::standard(4.0);
        let er = ErdosRenyiGenerator { edges_per_vertex: 4.0 };
        for g in [&rmat as &dyn DataGenerator, &er as &dyn DataGenerator] {
            let full = match g.generate(seed, &vol).unwrap() {
                Dataset::Graph(gr) => gr,
                _ => unreachable!(),
            };
            let total = g.plan_items(seed, &vol).unwrap().unwrap();
            prop_assert_eq!(total as usize, full.num_edges());
            let mut merged: Option<bdbench::common::graph::EdgeListGraph> = None;
            for (offset, len) in spans(total, k) {
                let shard = match g.generate_shard(seed, &vol, offset, len).unwrap() {
                    Dataset::Graph(gr) => gr,
                    _ => unreachable!(),
                };
                match &mut merged {
                    None => merged = Some(shard),
                    Some(m) => {
                        for &(u, v) in shard.edges() {
                            m.add_edge(u, v);
                        }
                    }
                }
            }
            prop_assert_eq!(full, merged.unwrap());
        }
    }

    #[test]
    fn generate_parallel_worker_count_is_invisible(
        seed in any::<u64>(), w1 in 2usize..5, w2 in 5usize..9
    ) {
        // Different worker counts (hence different chunkings) must yield
        // identical datasets for the exact-shardable generators.
        let text = NaiveTextGenerator::from_corpus(&RAW_TEXT_CORPUS);
        let vol = VolumeSpec::Items(64);
        prop_assert_eq!(
            text_docs(text.generate_parallel(seed, &vol, w1).unwrap()),
            text_docs(text.generate_parallel(seed, &vol, w2).unwrap())
        );
        let table = TableGenerator::fit("retail", &raw_retail_table()).unwrap();
        match (
            table.generate_parallel(seed, &vol, w1).unwrap(),
            table.generate_parallel(seed, &vol, w2).unwrap(),
        ) {
            (Dataset::Table(a), Dataset::Table(b)) => prop_assert_eq!(a, b),
            _ => unreachable!(),
        }
    }
}
