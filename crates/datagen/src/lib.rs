//! Data generators preserving the 4V properties of big data (Figure 3).
//!
//! This crate implements the paper's data-generation methodology end to end:
//!
//! 1. **Select real data** — [`corpus`] embeds public stand-ins for the
//!    confidential real data sets the paper says owners will not share: a
//!    topical text corpus, Zachary's karate-club social graph, and a fixed
//!    retail orders table.
//! 2. **Fit a data model & sample** — [`text`] fits LDA (collapsed Gibbs)
//!    and n-gram Markov models; [`table`] fits per-column distribution
//!    models (and offers MUDD-style purely synthetic columns); [`graph`]
//!    fits a power-law degree model and generates with R-MAT/Kronecker or
//!    Barabási–Albert; [`stream`] models arrivals with Poisson or bursty
//!    MMPP processes. [`volume`] provides the paper's "sampling tools" for
//!    scaling data *down*.
//! 3. **Control volume and velocity** — every generator is parameterised by
//!    a [`volume::VolumeSpec`]; [`velocity`] provides both velocity-control
//!    strategies of Section 5.1 (parallel deployment of generators over
//!    the shards of one data set, and algorithmic adjustment of the
//!    generator itself) plus update-frequency control. Volume and velocity
//!    are independent: a rate or worker count never changes the data.
//! 4. **Format conversion** — conversion tools live in `bdb-exec`; the
//!    generators here emit in-memory [`Dataset`]s.
//!
//! [`veracity`] implements the Section 5.1 veracity *metrics*: divergence
//! of raw-vs-model and raw-vs-synthetic distributions per data type.

pub mod behavioral;
pub mod corpus;
pub mod graph;
pub mod stream;
pub mod table;
pub mod text;
pub mod velocity;
pub mod veracity;
pub mod volume;

use bdb_common::graph::EdgeListGraph;
use bdb_common::pool;
use bdb_common::record::Table;
use bdb_common::text::{Document, Vocabulary};
use bdb_common::{BdbError, Result};

/// A generated data set of one of the four source types the paper's
/// *variety* axis requires (table, text, graph, stream).
#[derive(Debug, Clone)]
pub enum Dataset {
    /// Unstructured text: documents over a shared vocabulary.
    Text {
        /// Generated documents (word-id sequences).
        docs: Vec<Document>,
        /// The dictionary mapping word ids to words.
        vocab: Vocabulary,
    },
    /// Structured rows with a schema.
    Table(Table),
    /// A directed graph (social-network data).
    Graph(EdgeListGraph),
    /// Timestamped events (semi-structured stream data).
    Stream(Vec<stream::Event>),
}

impl Dataset {
    /// The data source kind, for variety accounting.
    pub fn kind(&self) -> DataSourceKind {
        match self {
            Dataset::Text { .. } => DataSourceKind::Text,
            Dataset::Table(_) => DataSourceKind::Table,
            Dataset::Graph(_) => DataSourceKind::Graph,
            Dataset::Stream(_) => DataSourceKind::Stream,
        }
    }

    /// Approximate data volume in bytes.
    pub fn byte_size(&self) -> usize {
        match self {
            Dataset::Text { docs, .. } => docs.iter().map(|d| d.len() * 4).sum(),
            Dataset::Table(t) => t.byte_size(),
            Dataset::Graph(g) => g.num_edges() * 8,
            Dataset::Stream(evts) => evts.len() * std::mem::size_of::<stream::Event>(),
        }
    }

    /// Number of logical items (documents, rows, edges, events).
    pub fn item_count(&self) -> usize {
        match self {
            Dataset::Text { docs, .. } => docs.len(),
            Dataset::Table(t) => t.len(),
            Dataset::Graph(g) => g.num_edges(),
            Dataset::Stream(evts) => evts.len(),
        }
    }
}

/// The four representative data sources named by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DataSourceKind {
    /// Structured data.
    Table,
    /// Unstructured data.
    Text,
    /// Unstructured data with explicit structure between entities.
    Graph,
    /// Semi-structured, timestamped data.
    Stream,
}

impl std::fmt::Display for DataSourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DataSourceKind::Table => "table",
            DataSourceKind::Text => "text",
            DataSourceKind::Graph => "graph",
            DataSourceKind::Stream => "stream",
        };
        f.write_str(s)
    }
}

/// A seeded, volume-controlled data generator (step 3 of Figure 3).
///
/// Implementations are immutable model objects: the same `(seed, volume)`
/// pair always yields the same data, however many workers produce it and
/// at whatever rate.
///
/// Generators that can produce any contiguous item range independently —
/// the PDGF/BDGS property — additionally implement [`plan_items`] and
/// [`generate_shard`]; the provided [`generate_chunks`] then runs the
/// shards of one volume across a [`bdb_common::pool`] worker pool and
/// merges them in index order, so the parallel output equals the
/// sequential output. It is the one sharded path: [`generate_parallel`]
/// runs it unpaced, the [`velocity`] controller with a deadline pacer.
/// A shard is exact, or `plan_items` is `None` and the generator runs
/// once, in order.
///
/// [`plan_items`]: DataGenerator::plan_items
/// [`generate_shard`]: DataGenerator::generate_shard
/// [`generate_chunks`]: DataGenerator::generate_chunks
/// [`generate_parallel`]: DataGenerator::generate_parallel
pub trait DataGenerator: Send + Sync {
    /// Human-readable generator name (for reports).
    fn name(&self) -> &str;

    /// The kind of data this generator produces.
    fn kind(&self) -> DataSourceKind;

    /// Generate a data set of roughly `volume` size using `seed`.
    fn generate(&self, seed: u64, volume: &volume::VolumeSpec) -> Result<Dataset>;

    /// The number of shardable items (rows, documents, edges, events) a
    /// sequential [`generate`](DataGenerator::generate) of this volume
    /// would produce, or `None` when the generator cannot shard exactly
    /// (its items depend on sequential state, like preferential attachment
    /// or a running event clock).
    fn plan_items(&self, _seed: u64, _volume: &volume::VolumeSpec) -> Result<Option<u64>> {
        Ok(None)
    }

    /// Generate items `[offset, offset + len)` of the sequential run for
    /// `(seed, volume)`: shards concatenate to the exact sequential output.
    fn generate_shard(
        &self,
        _seed: u64,
        _volume: &volume::VolumeSpec,
        _offset: u64,
        _len: u64,
    ) -> Result<Dataset> {
        Err(BdbError::DataGen(format!(
            "generator {} does not support sharded generation",
            self.name()
        )))
    }

    /// The sharded generation loop: generate every chunk through
    /// [`generate_shard`](DataGenerator::generate_shard) on `workers` pool
    /// threads, call `after_shard` on the producing thread as each shard
    /// completes (velocity control sleeps there until the shard's
    /// deadline; plain parallel generation passes a no-op), and merge in
    /// index order. `chunks` must tile `[0, plan_items)` in order and be
    /// non-empty; the merged output does not depend on how they tile it.
    fn generate_chunks(
        &self,
        seed: u64,
        volume: &volume::VolumeSpec,
        workers: usize,
        chunks: Vec<pool::Chunk>,
        after_shard: &(dyn Fn(pool::Chunk) + Sync),
    ) -> Result<Dataset> {
        let parts = pool::par_map(workers, chunks, |c| {
            let shard = self.generate_shard(seed, volume, c.offset, c.len);
            after_shard(c);
            shard
        });
        merge_datasets(parts.into_iter().collect::<Result<Vec<_>>>()?)
    }

    /// Generate `volume` items on `workers` threads (0 = available
    /// parallelism) by sharding through the common worker pool and
    /// merging the shards in index order.
    ///
    /// Falls back to the sequential path when the generator cannot shard
    /// or when one worker (or one item) makes sharding pointless, so it
    /// is always safe to call.
    fn generate_parallel(
        &self,
        seed: u64,
        volume: &volume::VolumeSpec,
        workers: usize,
    ) -> Result<Dataset> {
        let workers = pool::effective_workers(workers);
        match self.plan_items(seed, volume)? {
            // A few chunks per worker lets the pool absorb per-chunk cost
            // imbalance without changing the merged output.
            Some(total) if workers > 1 && total >= 2 => self.generate_chunks(
                seed,
                volume,
                workers,
                pool::split_even(total, (workers * 4).min(total as usize)),
                &|_| {},
            ),
            _ => self.generate(seed, volume),
        }
    }
}

/// Merge per-shard datasets (all of one kind) into one, in shard order.
///
/// Text shards share one vocabulary; tables append rows; graphs append
/// edge ranges (vertex counts must agree); streams concatenate events.
pub fn merge_datasets(mut parts: Vec<Dataset>) -> Result<Dataset> {
    let first = parts
        .drain(..1)
        .next()
        .ok_or_else(|| BdbError::DataGen("no data generated".into()))?;
    parts.into_iter().try_fold(first, |acc, part| {
        Ok(match (acc, part) {
            (Dataset::Text { mut docs, vocab }, Dataset::Text { docs: d2, .. }) => {
                docs.extend(d2);
                Dataset::Text { docs, vocab }
            }
            (Dataset::Table(mut t), Dataset::Table(t2)) => {
                t.append(t2)?;
                Dataset::Table(t)
            }
            (Dataset::Graph(mut g), Dataset::Graph(g2)) => {
                for &(u, v) in g2.edges() {
                    g.add_edge(u, v);
                }
                Dataset::Graph(g)
            }
            (Dataset::Stream(mut e), Dataset::Stream(e2)) => {
                e.extend(e2);
                Dataset::Stream(e)
            }
            _ => return Err(BdbError::DataGen("mixed dataset kinds in merge".into())),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_common::value::{DataType, Field, Schema};

    #[test]
    fn dataset_kind_and_counts() {
        let t = Table::new(Schema::new(vec![Field::new("x", DataType::Int)]));
        let d = Dataset::Table(t);
        assert_eq!(d.kind(), DataSourceKind::Table);
        assert_eq!(d.item_count(), 0);
        assert_eq!(d.byte_size(), 0);
        assert_eq!(DataSourceKind::Stream.to_string(), "stream");
    }
}
