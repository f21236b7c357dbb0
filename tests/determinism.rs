//! Property tests for the framework's reproducibility guarantees: same
//! seed ⇒ same data, independent of sharding and worker count.

use bdbench::common::rng::{Rng, SeedTree, Xoshiro256};
use bdbench::datagen::corpus::{raw_retail_table, RAW_TEXT_CORPUS};
use bdbench::datagen::table::TableGenerator;
use bdbench::datagen::text::NaiveTextGenerator;
use bdbench::datagen::velocity::VelocityController;
use bdbench::datagen::volume::VolumeSpec;
use bdbench::datagen::{DataGenerator, Dataset};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn seed_tree_paths_are_reproducible_and_distinct(
        seed in any::<u64>(), a in 0u64..1000, b in 0u64..1000
    ) {
        let t1 = SeedTree::new(seed);
        let t2 = SeedTree::new(seed);
        prop_assert_eq!(t1.child(a).seed(), t2.child(a).seed());
        if a != b {
            prop_assert_ne!(t1.child(a).seed(), t1.child(b).seed());
        }
        // Path order matters.
        if a != b {
            prop_assert_ne!(
                t1.child(a).child(b).seed(),
                t1.child(b).child(a).seed()
            );
        }
    }

    #[test]
    fn rng_streams_are_pure_functions_of_seed(seed in any::<u64>()) {
        let mut g1 = Xoshiro256::new(seed);
        let mut g2 = Xoshiro256::new(seed);
        for _ in 0..64 {
            prop_assert_eq!(g1.next_u64(), g2.next_u64());
        }
    }

    #[test]
    fn table_shards_compose_independently_of_split_point(
        seed in any::<u64>(), split in 1u64..59
    ) {
        // PDGF property: any sharding of rows yields the same cells,
        // timestamp columns included.
        let gen = TableGenerator::fit("retail", &raw_retail_table()).unwrap();
        let mut joined = gen.generate_shard(seed, 0, split);
        joined.append(gen.generate_shard(seed, split, 60 - split)).unwrap();
        prop_assert_eq!(joined, gen.generate_shard(seed, 0, 60));
    }

    #[test]
    fn generation_is_invariant_to_workers_chunks_and_rate(seed in any::<u64>()) {
        // The velocity controller paces the shards of one data set: no
        // worker count, chunk size or target rate changes the data.
        let gen = NaiveTextGenerator::from_corpus(&RAW_TEXT_CORPUS);
        let docs = |d: Dataset| match d {
            Dataset::Text { docs, .. } => docs,
            _ => panic!("expected text"),
        };
        let sequential = docs(gen.generate(seed, &VolumeSpec::Items(100)).unwrap());
        for workers in [1usize, 2, 4] {
            for chunk in [16u64, 33] {
                let free = VelocityController::new(workers).unwrap().with_chunk_items(chunk);
                for c in [free, free.with_target_rate(1e7)] {
                    let out = c.run(&gen, seed, 100).unwrap();
                    prop_assert_eq!(out.items, 100);
                    prop_assert_eq!(&docs(out.dataset), &sequential, "{:?}", c);
                }
            }
        }
    }

    #[test]
    fn generators_are_seed_deterministic(seed in any::<u64>(), n in 1u64..50) {
        let gen = NaiveTextGenerator::from_corpus(&RAW_TEXT_CORPUS);
        let d1 = gen.generate(seed, &VolumeSpec::Items(n)).unwrap();
        let d2 = gen.generate(seed, &VolumeSpec::Items(n)).unwrap();
        match (d1, d2) {
            (Dataset::Text { docs: a, .. }, Dataset::Text { docs: b, .. }) => {
                prop_assert_eq!(a, b);
            }
            _ => prop_assert!(false, "expected text"),
        }
    }

    #[test]
    fn bounded_draws_stay_in_bounds(seed in any::<u64>(), bound in 1u64..10_000) {
        let mut g = Xoshiro256::new(seed);
        for _ in 0..100 {
            prop_assert!(g.next_bounded(bound) < bound);
        }
    }
}
