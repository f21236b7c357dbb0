//! Property tests for the shard-determinism contract behind
//! `DataGenerator::generate_parallel` and the velocity controller: for
//! every shardable generator, concatenating K shards equals the
//! single-shard sequential run of the same seed — exactly for
//! table/text/graph data, and with the documented clock-anchor tolerance
//! for stream timestamps (keys and values stay exact there too) — and the
//! controller's output is that same data at any worker count, chunk size
//! and target rate.

use bdbench::common::pool::split_even;
use bdbench::datagen::corpus::{raw_retail_table, RAW_TEXT_CORPUS};
use bdbench::datagen::graph::{ErdosRenyiGenerator, RmatGenerator};
use bdbench::datagen::stream::{MmppArrivals, PoissonArrivals};
use bdbench::datagen::table::TableGenerator;
use bdbench::datagen::text::NaiveTextGenerator;
use bdbench::datagen::velocity::VelocityController;
use bdbench::datagen::volume::VolumeSpec;
use bdbench::datagen::{DataGenerator, Dataset};
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

/// Assert two datasets are the same data. Poisson/MMPP shards re-anchor
/// their running clock (the documented tolerance), so for those two
/// generators timestamps are exempt; everything else is exact.
fn assert_same_data(id: &str, expected: &Dataset, got: &Dataset, what: &str) {
    match (expected, got) {
        (Dataset::Text { docs: a, .. }, Dataset::Text { docs: b, .. }) => {
            assert_eq!(a, b, "{id}: {what}");
        }
        (Dataset::Table(a), Dataset::Table(b)) => assert_eq!(a, b, "{id}: {what}"),
        (Dataset::Graph(a), Dataset::Graph(b)) => assert_eq!(a, b, "{id}: {what}"),
        (Dataset::Stream(a), Dataset::Stream(b)) if id.starts_with("stream/") => {
            let kv = |e: &[bdbench::datagen::stream::Event]| -> Vec<(u64, u64)> {
                e.iter().map(|e| (e.key, e.value.to_bits())).collect()
            };
            assert_eq!(kv(a), kv(b), "{id}: {what}");
        }
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
        let shardable = g.plan_items(seed, &VolumeSpec::Items(items)).unwrap().is_some();
        // Barabási–Albert is the one builtin that cannot shard: the
        // controller falls back to one sequential, unpaced run.
        assert_eq!(shardable, id != "graph/barabasi-albert", "{id}");
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
    fn table_shards_concatenate_to_sequential_except_clock(
        seed in any::<u64>(), k in 2u64..5
    ) {
        let g = TableGenerator::fit("retail", &raw_retail_table()).unwrap();
        let vol = VolumeSpec::Items(80);
        let full = match g.generate(seed, &vol).unwrap() {
            Dataset::Table(t) => t,
            _ => unreachable!(),
        };
        let ts_idx = full.schema().index_of("order_ts").unwrap();
        let mut row = 0usize;
        for (offset, len) in spans(80, k) {
            let shard = match DataGenerator::generate_shard(&g, seed, &vol, offset, len).unwrap() {
                Dataset::Table(t) => t,
                _ => unreachable!(),
            };
            for r in 0..len as usize {
                for c in 0..full.schema().len() {
                    // The public shard API re-anchors monotonic clocks at
                    // the mean-gap estimate; all other cells are exact.
                    if c != ts_idx {
                        prop_assert_eq!(full.value(row + r, c), shard.value(r, c));
                    }
                }
            }
            row += len as usize;
        }
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
    fn stream_shards_match_keys_values_and_anchor_clock(
        seed in any::<u64>(), k in 2u64..5
    ) {
        let n = 800u64;
        let poisson = PoissonArrivals::new(1000.0, 50).unwrap();
        let mmpp = MmppArrivals::new(300.0, 1700.0, 400.0, 50).unwrap();
        for (name, full, shards) in [
            (
                "poisson",
                poisson.generate_events(seed, n),
                spans(n, k)
                    .into_iter()
                    .map(|(o, l)| poisson.generate_events_shard(seed, o, l))
                    .collect::<Vec<_>>(),
            ),
            (
                "mmpp",
                mmpp.generate_events(seed, n),
                spans(n, k)
                    .into_iter()
                    .map(|(o, l)| mmpp.generate_events_shard(seed, o, l))
                    .collect::<Vec<_>>(),
            ),
        ] {
            // Timestamps are monotone within every shard.
            for shard in &shards {
                prop_assert!(
                    shard.windows(2).all(|w| w[0].ts_ms <= w[1].ts_ms),
                    "{} shard clock went backwards", name
                );
            }
            let merged: Vec<_> = shards.into_iter().flatten().collect();
            prop_assert_eq!(merged.len(), full.len());
            for (i, (m, f)) in merged.iter().zip(&full).enumerate() {
                // Keys and values come from per-event seed cells: exact.
                prop_assert_eq!(m.key, f.key, "{} event {}", name, i);
                prop_assert_eq!(m.value, f.value, "{} event {}", name, i);
            }
        }
        // For the constant-rate Poisson process the anchor error is just
        // |sum of o exponential gaps - o * mean|: std = mean * sqrt(o),
        // so 20 standard deviations is a safely generous ceiling for the
        // documented clock tolerance.
        let full = poisson.generate_events(seed, n);
        for (offset, len) in spans(n, k) {
            let shard = poisson.generate_events_shard(seed, offset, len);
            let drift = (shard[0].ts_ms as f64 - full[offset as usize].ts_ms as f64).abs();
            let bound = 20.0 * (offset.max(1) as f64).sqrt() + 20.0;
            prop_assert!(drift < bound, "poisson drift {drift}ms at offset {offset}");
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
