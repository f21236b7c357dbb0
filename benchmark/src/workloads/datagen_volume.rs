//! `datagen_volume`: every builtin generator family at volume.
//!
//! One pass generates each family once sequentially and once with
//! `generate_parallel(.., 2)`. The paper's volume/velocity axis: all of
//! the time is in `datagen`, which is 20–35 % of a `run_*` pass (table
//! family only) and none of a load workload.

use super::THREADS;
use crate::harness::{Ctx, Pass, Replays, Traced, Workload};
use crate::span::{total_ms_per_pass, Tracer};
use bdbench::common::pool;
use bdbench::core::GeneratorRegistry;
use bdbench::datagen::volume::VolumeSpec;
use bdbench::datagen::{merge_datasets, DataGenerator, Dataset};
use std::time::Instant;

/// One generator family of the pass.
struct Family {
    id: &'static str,
    items: u64,
    /// Span around its sequential `generate`.
    span: &'static str,
    metric: &'static str,
}

const fn family(id: &'static str, items: u64, span: &'static str, metric: &'static str) -> Family {
    Family {
        id,
        items,
        span,
        metric,
    }
}

/// Sizes chosen so each family takes roughly the same time sequentially.
const FAMILIES: [Family; 8] = [
    family(
        "text/lda",
        100_000,
        "datagen.text.lda",
        "datagen.text.lda.items_per_s",
    ),
    family(
        "text/markov-bigram",
        150_000,
        "datagen.text.markov",
        "datagen.text.markov.items_per_s",
    ),
    family(
        "table/retail-fitted",
        200_000,
        "datagen.table.retail",
        "datagen.table.retail.items_per_s",
    ),
    family(
        "graph/rmat",
        30_000,
        "datagen.graph.rmat",
        "datagen.graph.rmat.items_per_s",
    ),
    family(
        "graph/barabasi-albert",
        300_000,
        "datagen.graph.ba",
        "datagen.graph.ba.items_per_s",
    ),
    family(
        "stream/poisson",
        1_000_000,
        "datagen.stream.poisson",
        "datagen.stream.poisson.items_per_s",
    ),
    family(
        "stream/mmpp",
        1_000_000,
        "datagen.stream.mmpp",
        "datagen.stream.mmpp.items_per_s",
    ),
    family(
        "behavioral/events",
        2_000_000,
        "datagen.behavioral",
        "datagen.behavioral.items_per_s",
    ),
];

/// The generation workload.
#[derive(Default)]
pub struct DatagenVolume {
    generators: Vec<Box<dyn DataGenerator>>,
    volumes: Vec<VolumeSpec>,
}

/// Does the 2-worker output keep the generator's promise? Tables and text
/// are byte-identical to the sequential output; graphs and streams carry
/// a documented tolerance on running clocks, so their item counts match.
fn parallel_matches(sequential: &Dataset, parallel: &Dataset) -> bool {
    match (sequential, parallel) {
        (Dataset::Table(a), Dataset::Table(b)) => a == b,
        (Dataset::Text { docs: a, .. }, Dataset::Text { docs: b, .. }) => a == b,
        (a, b) => a.kind() == b.kind() && a.item_count() == b.item_count(),
    }
}

/// One pass and what the layer metrics need from it.
struct Generated {
    pass: Pass,
    /// Seconds in the eight `generate` calls.
    sequential_s: f64,
    /// Seconds in the eight `generate_parallel` calls.
    parallel_s: f64,
    /// Bytes the sequential calls produced.
    bytes: u64,
    /// Items each family produced sequentially, in [`FAMILIES`] order.
    items: Vec<u64>,
}

impl DatagenVolume {
    /// One pass under `t`.
    fn generate_all(&self, t: &mut Tracer, ctx: &Ctx) -> Result<Generated, String> {
        let mut pass = Pass::default();
        let (mut seq_s, mut par_s, mut bytes) = (0.0, 0.0, 0u64);
        let mut items = Vec::with_capacity(FAMILIES.len());
        for ((family, generator), volume) in
            FAMILIES.iter().zip(&self.generators).zip(&self.volumes)
        {
            let t0 = Instant::now();
            let sequential = t.span(family.span, |_| generator.generate(ctx.seed, volume));
            let seq_ns = t0.elapsed().as_nanos() as u64;
            let t0 = Instant::now();
            let parallel = t.span("datagen.generate_parallel", |_| {
                generator.generate_parallel(ctx.seed, volume, THREADS)
            });
            let par_ns = t0.elapsed().as_nanos() as u64;
            pass.op_ns.extend([seq_ns, par_ns]);
            seq_s += seq_ns as f64 / 1e9;
            par_s += par_ns as f64 / 1e9;
            pass.attempted += 1;
            match (sequential, parallel) {
                (Ok(s), Ok(p)) => {
                    pass.work += (s.item_count() + p.item_count()) as u64;
                    bytes += s.byte_size() as u64;
                    items.push(s.item_count() as u64);
                    if !parallel_matches(&s, &p) {
                        eprintln!("{}: 2-worker output differs from sequential", family.id);
                        pass.failed += 1;
                    }
                }
                (s, p) => {
                    eprintln!("{}: {:?} {:?}", family.id, s.err(), p.err());
                    items.push(0);
                    pass.failed += 1;
                }
            }
        }
        pass.wall_s = seq_s + par_s;
        Ok(Generated {
            pass,
            sequential_s: seq_s,
            parallel_s: par_s,
            bytes,
            items,
        })
    }
}

impl Workload for DatagenVolume {
    fn setup(&mut self, ctx: &Ctx) -> Result<(), String> {
        let registry = GeneratorRegistry::with_builtins();
        self.generators = FAMILIES
            .iter()
            .map(|f| registry.build(f.id).map_err(|e| format!("{}: {e}", f.id)))
            .collect::<Result<_, _>>()?;
        self.volumes = FAMILIES
            .iter()
            .map(|f| VolumeSpec::Items(ctx.sized(f.items, 200)))
            .collect();
        let pass = self.generate_all(&mut Tracer::noop(), ctx)?.pass;
        if pass.failed > 0 {
            return Err(format!(
                "warm-up pass: {} generator families failed",
                pass.failed
            ));
        }
        Ok(())
    }

    fn pass(&mut self, ctx: &Ctx) -> Result<Pass, String> {
        Ok(self.generate_all(&mut Tracer::noop(), ctx)?.pass)
    }

    fn traced(&mut self, ctx: &Ctx) -> Result<Traced, String> {
        let mut out = Traced::default();
        let mut replays = Replays::default();
        let (mut mb_per_s, mut speedup) = (Vec::new(), Vec::new());
        let mut items = Vec::new();
        let start = Instant::now();
        while replays.rounds() < 2 || !ctx.window_over(start, 0.75) {
            replays.round(|t, recorded| {
                let g = self.generate_all(t, ctx)?;
                if recorded {
                    out.attempted += g.pass.attempted;
                    out.failed += g.pass.failed;
                    mb_per_s.push(g.bytes as f64 / 1e6 / g.sequential_s);
                    speedup.push(g.sequential_s / g.parallel_s);
                    items = g.items;
                }
                Ok(g.pass.wall_s)
            })?;
        }
        out.put_one("benchmark.trace_overhead_ratio", replays.overhead_ratio());
        out.put("datagen.mb_per_s", &mb_per_s);
        out.put("datagen.parallel_speedup_2w", &speedup);
        let spans = replays.spans();
        for (family, n) in FAMILIES.iter().zip(&items) {
            let rate: Vec<f64> = total_ms_per_pass(spans, family.span)
                .iter()
                .map(|ms| *n as f64 / (ms / 1e3))
                .collect();
            out.put(family.metric, &rate);
        }

        // Merging pre-built shards, as `generate_parallel` does after its
        // workers finish: the sequential tail of the parallel path.
        let table = FAMILIES
            .iter()
            .position(|f| f.id == "table/retail-fitted")
            .expect("table family");
        let (generator, volume) = (&self.generators[table], &self.volumes[table]);
        let total = generator
            .plan_items(ctx.seed, volume)
            .map_err(|e| e.to_string())?
            .ok_or("the table generator no longer shards")?;
        let mut merge_ms = Vec::new();
        for _ in 0..5 {
            let shards: Vec<Dataset> = pool::split_even(total, THREADS * 4)
                .into_iter()
                .map(|c| generator.generate_shard(ctx.seed, volume, c.offset, c.len))
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
            let t0 = Instant::now();
            let merged = merge_datasets(shards).map_err(|e| e.to_string())?;
            merge_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(merged.item_count());
        }
        out.put("datagen.merge_ms", &merge_ms);
        out.spans = spans.to_vec();
        Ok(out)
    }
}
