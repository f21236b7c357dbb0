//! Structured (table) data generation with fitted column models.
//!
//! Table 1 of the paper distinguishes three veracity levels for table data:
//! purely synthetic distributions (YCSB — "un-considered"), mostly
//! synthetic with some realistic columns (TPC-DS's MUDD — "partially
//! considered"), and model-fitted generation (BigDataBench — "considered").
//! This module provides all three styles over one mechanism:
//!
//! * [`ColumnModel::fit`] learns a per-column model from raw data
//!   (empirical categoricals, log-normal/Gaussian numerics, gap models for
//!   timestamps) — the *considered* style.
//! * [`ColumnModel::naive_for`] substitutes the type-default distribution
//!   (uniform ints, Gaussian floats, uniform categories) — the
//!   *un-considered* baseline for the ablation benches.
//! * Hand-assembled models (e.g. Zipf foreign keys) reproduce the MUDD
//!   middle ground.
//!
//! Generation is PDGF-style: every cell's randomness comes from a
//! [`SeedTree`] path `(table → column → row)`, so any shard of rows can be
//! produced independently on any worker, deterministically.

use crate::volume::VolumeSpec;
use crate::{DataGenerator, DataSourceKind, Dataset};
use bdb_common::pool::{self, Chunk};
use bdb_common::prelude::*;
use bdb_common::record::Table;
use bdb_common::value::{DataType, Field, Schema, Value};
use bdb_common::{BdbError, Result};

/// A generative model for one column.
#[derive(Debug, Clone)]
pub enum ColumnModel {
    /// `start + row_index`: surrogate keys.
    SequentialId {
        /// First id.
        start: i64,
    },
    /// Uniform integer in `[lo, hi]`.
    UniformInt {
        /// Lower bound (inclusive).
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
    },
    /// Zipf-popular reference to `cardinality` entities (foreign keys,
    /// hot-key OLTP columns). `exponent = 0` degenerates to uniform.
    SkewedKey {
        /// Number of distinct keys.
        cardinality: u64,
        /// Zipf exponent; 0 means uniform.
        exponent: f64,
    },
    /// Gaussian float.
    GaussianFloat {
        /// Mean.
        mean: f64,
        /// Standard deviation.
        std_dev: f64,
    },
    /// Log-normal float (positive, right-skewed: prices, durations).
    LogNormalFloat {
        /// Location of `ln x`.
        mu: f64,
        /// Scale of `ln x`.
        sigma: f64,
    },
    /// Draw from an explicit empirical value distribution (fitted).
    Empirical {
        /// Distinct values.
        values: Vec<Value>,
        /// Matching non-negative weights.
        weights: Vec<f64>,
    },
    /// Bernoulli boolean.
    Bernoulli {
        /// P(true).
        p: f64,
    },
    /// Monotonically increasing timestamps with exponential gaps.
    MonotonicTimestamp {
        /// First timestamp (ms).
        start: i64,
        /// Mean gap between consecutive rows (ms).
        mean_gap_ms: f64,
    },
}

impl ColumnModel {
    /// Fit a model to a raw column (the veracity-*considered* path).
    ///
    /// Heuristics, in order: small-support columns become empirical
    /// categoricals (preserving the exact value distribution); consecutive
    /// integers become sequential ids; positive floats fit a log-normal;
    /// other numerics fit a Gaussian; timestamps fit a monotonic
    /// exponential-gap model.
    pub fn fit(field: &Field, values: &[Value]) -> Result<ColumnModel> {
        if values.is_empty() {
            return Err(BdbError::DataGen(format!(
                "cannot fit column {} from zero rows",
                field.name
            )));
        }
        match field.data_type {
            DataType::Text => Ok(Self::fit_empirical(values)),
            DataType::Bool => {
                let t = values.iter().filter(|v| v.as_bool() == Some(true)).count();
                Ok(ColumnModel::Bernoulli { p: t as f64 / values.len() as f64 })
            }
            DataType::Int => {
                let ints: Vec<i64> = values.iter().filter_map(Value::as_i64).collect();
                if ints.len() != values.len() {
                    return Err(BdbError::DataGen("nulls in int column".into()));
                }
                let distinct: std::collections::BTreeSet<i64> = ints.iter().copied().collect();
                if distinct.len() <= 32 {
                    return Ok(Self::fit_empirical(values));
                }
                let sequential = ints.windows(2).all(|w| w[1] == w[0] + 1);
                if sequential {
                    return Ok(ColumnModel::SequentialId { start: ints[0] });
                }
                let lo = *distinct.iter().next().unwrap();
                let hi = *distinct.iter().next_back().unwrap();
                Ok(ColumnModel::UniformInt { lo, hi })
            }
            DataType::Float => {
                let xs: Vec<f64> = values.iter().filter_map(Value::as_f64).collect();
                if xs.len() != values.len() {
                    return Err(BdbError::DataGen("nulls in float column".into()));
                }
                if xs.iter().all(|&x| x > 0.0) {
                    let logs: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
                    let s = Summary::of(&logs);
                    Ok(ColumnModel::LogNormalFloat { mu: s.mean(), sigma: s.std_dev().max(1e-6) })
                } else {
                    let s = Summary::of(&xs);
                    Ok(ColumnModel::GaussianFloat { mean: s.mean(), std_dev: s.std_dev().max(1e-6) })
                }
            }
            DataType::Timestamp => {
                let ts: Vec<i64> = values.iter().filter_map(Value::as_i64).collect();
                if ts.len() < 2 {
                    return Ok(ColumnModel::MonotonicTimestamp { start: 0, mean_gap_ms: 1000.0 });
                }
                let gaps: Vec<f64> = ts.windows(2).map(|w| (w[1] - w[0]).max(1) as f64).collect();
                Ok(ColumnModel::MonotonicTimestamp {
                    start: ts[0],
                    mean_gap_ms: Summary::of(&gaps).mean(),
                })
            }
        }
    }

    fn fit_empirical(values: &[Value]) -> ColumnModel {
        let mut counts: std::collections::BTreeMap<String, (Value, u64)> = Default::default();
        for v in values {
            counts
                .entry(v.to_string())
                .or_insert_with(|| (v.clone(), 0))
                .1 += 1;
        }
        let (values, weights) = counts
            .into_values()
            .map(|(v, c)| (v, c as f64))
            .unzip();
        ColumnModel::Empirical { values, weights }
    }

    /// The veracity-*un-considered* baseline for a column: only the type
    /// (and value support, for categoricals) survives; all distribution
    /// shape is discarded.
    pub fn naive_for(field: &Field, values: &[Value]) -> ColumnModel {
        match field.data_type {
            DataType::Text => {
                let distinct: std::collections::BTreeSet<String> = values
                    .iter()
                    .filter_map(|v| v.as_str().map(str::to_string))
                    .collect();
                let vals: Vec<Value> = distinct.into_iter().map(Value::Text).collect();
                let weights = vec![1.0; vals.len()];
                ColumnModel::Empirical { values: vals, weights }
            }
            DataType::Bool => ColumnModel::Bernoulli { p: 0.5 },
            DataType::Int => {
                let ints: Vec<i64> = values.iter().filter_map(Value::as_i64).collect();
                let lo = ints.iter().copied().min().unwrap_or(0);
                let hi = ints.iter().copied().max().unwrap_or(100);
                ColumnModel::UniformInt { lo, hi: hi.max(lo) }
            }
            DataType::Float => {
                let xs: Vec<f64> = values.iter().filter_map(Value::as_f64).collect();
                let s = Summary::of(&xs);
                // Gaussian with matched mean but arbitrary textbook sigma.
                ColumnModel::GaussianFloat {
                    mean: if s.count() > 0 { s.mean() } else { 0.0 },
                    std_dev: (if s.count() > 0 { s.mean().abs() } else { 1.0 }) * 0.1 + 1e-6,
                }
            }
            DataType::Timestamp => ColumnModel::MonotonicTimestamp { start: 0, mean_gap_ms: 1000.0 },
        }
    }

    /// Compile this model into the sampler that generation draws from,
    /// building each distribution once. The error names the first invalid
    /// parameter: every model that compiles generates without a panic.
    fn compile(&self) -> std::result::Result<ColumnSampler, String> {
        let finite = |name: &str, x: f64| {
            if x.is_finite() {
                Ok(x)
            } else {
                Err(format!("{name} must be finite"))
            }
        };
        let non_negative = |name: &str, x: f64| match finite(name, x)? {
            x if x < 0.0 => Err(format!("{name} must not be negative")),
            x => Ok(x),
        };
        Ok(match self {
            ColumnModel::SequentialId { start } => ColumnSampler::SequentialId(*start),
            ColumnModel::UniformInt { lo, hi } => {
                if lo > hi {
                    return Err("lo must not exceed hi".into());
                }
                ColumnSampler::UniformInt(*lo, *hi)
            }
            ColumnModel::SkewedKey { cardinality, exponent } => {
                if *cardinality == 0 {
                    return Err("cardinality must be positive".into());
                }
                if finite("exponent", *exponent)? <= 0.0 {
                    ColumnSampler::UniformKey(*cardinality)
                } else {
                    ColumnSampler::Zipf(Zipf::new(*cardinality, *exponent))
                }
            }
            ColumnModel::GaussianFloat { mean, std_dev } => ColumnSampler::Gaussian(Gaussian::new(
                finite("mean", *mean)?,
                non_negative("std_dev", *std_dev)?,
            )),
            ColumnModel::LogNormalFloat { mu, sigma } => ColumnSampler::LogNormal(LogNormal::new(
                finite("mu", *mu)?,
                non_negative("sigma", *sigma)?,
            )),
            ColumnModel::Empirical { values, weights } => {
                if values.is_empty() {
                    return Err("no values".into());
                }
                if values.len() != weights.len() {
                    return Err(format!("{} values but {} weights", values.len(), weights.len()));
                }
                for &w in weights {
                    non_negative("every weight", w)?;
                }
                let total: f64 = weights.iter().sum();
                if !(total > 0.0 && total.is_finite()) {
                    return Err("weights must have a positive, finite sum".into());
                }
                ColumnSampler::Empirical(values.clone(), Categorical::new(weights))
            }
            ColumnModel::Bernoulli { p } => {
                if !(0.0..=1.0).contains(p) {
                    return Err("p must be in [0, 1]".into());
                }
                ColumnSampler::Bernoulli(*p)
            }
            ColumnModel::MonotonicTimestamp { start, mean_gap_ms } => ColumnSampler::Timestamp(
                *start,
                Exponential::new(1.0 / finite("mean_gap_ms", *mean_gap_ms)?.max(1.0)),
            ),
        })
    }

    /// The interpreted reference for [`ColumnSampler::draw`]: the value of
    /// this column at `row`, building its distribution per cell.
    ///
    /// `prev_ts` carries the running timestamp for monotonic columns.
    #[cfg(test)]
    fn generate(&self, row: u64, rng: &mut dyn Rng, prev_ts: &mut i64) -> Value {
        match self {
            ColumnModel::SequentialId { start } => Value::Int(start + row as i64),
            ColumnModel::UniformInt { lo, hi } => Value::Int(rng.next_range(*lo, *hi)),
            ColumnModel::SkewedKey { cardinality, exponent } => {
                if *exponent <= 0.0 {
                    Value::Int(rng.next_bounded(*cardinality) as i64)
                } else {
                    Value::Int(Zipf::new(*cardinality, *exponent).sample(rng) as i64)
                }
            }
            ColumnModel::GaussianFloat { mean, std_dev } => {
                Value::Float(Gaussian::new(*mean, *std_dev).sample(rng))
            }
            ColumnModel::LogNormalFloat { mu, sigma } => {
                Value::Float(LogNormal::new(*mu, *sigma).sample(rng))
            }
            ColumnModel::Empirical { values, weights } => {
                let idx = Categorical::new(weights).sample(rng);
                values[idx].clone()
            }
            ColumnModel::Bernoulli { p } => Value::Bool(rng.next_bool(*p)),
            ColumnModel::MonotonicTimestamp { start, mean_gap_ms } => {
                if *prev_ts == i64::MIN {
                    *prev_ts = *start;
                } else {
                    let gap = Exponential::new(1.0 / mean_gap_ms.max(1.0)).sample(rng);
                    *prev_ts += gap as i64 + 1;
                }
                Value::Timestamp(*prev_ts)
            }
        }
    }
}

/// A [`ColumnModel`] compiled by [`ColumnModel::compile`]: its
/// distribution is built, so a cell costs a seed and its draws. Each arm
/// draws exactly what the model's interpreted `generate` draws.
#[derive(Debug, Clone)]
enum ColumnSampler {
    SequentialId(i64),
    UniformInt(i64, i64),
    /// `SkewedKey` with `exponent <= 0`: uniform over `0..cardinality`.
    UniformKey(u64),
    Zipf(Zipf),
    Gaussian(Gaussian),
    LogNormal(LogNormal),
    Empirical(Vec<Value>, Categorical),
    Bernoulli(f64),
    /// First timestamp and the gap distribution.
    Timestamp(i64, Exponential),
}

impl ColumnSampler {
    /// The value of this column at `row`, drawing from the cell's `rng`.
    ///
    /// `prev_ts` carries the running timestamp for monotonic columns.
    fn draw(&self, row: u64, rng: &mut Xoshiro256, prev_ts: &mut i64) -> Value {
        match self {
            ColumnSampler::SequentialId(start) => Value::Int(start + row as i64),
            ColumnSampler::UniformInt(lo, hi) => Value::Int(rng.next_range(*lo, *hi)),
            ColumnSampler::UniformKey(cardinality) => {
                Value::Int(rng.next_bounded(*cardinality) as i64)
            }
            ColumnSampler::Zipf(zipf) => Value::Int(zipf.sample(rng) as i64),
            ColumnSampler::Gaussian(dist) => Value::Float(dist.sample(rng)),
            ColumnSampler::LogNormal(dist) => Value::Float(dist.sample(rng)),
            ColumnSampler::Empirical(values, cdf) => values[cdf.sample(rng)].clone(),
            ColumnSampler::Bernoulli(p) => Value::Bool(rng.next_bool(*p)),
            ColumnSampler::Timestamp(start, gap) => {
                *prev_ts = if *prev_ts == i64::MIN {
                    *start
                } else {
                    *prev_ts + gap_step(gap, rng)
                };
                Value::Timestamp(*prev_ts)
            }
        }
    }
}

/// One row's clock increment: an exponential gap, truncated, plus 1 ms so
/// timestamps strictly increase.
fn gap_step(gap: &Exponential, rng: &mut Xoshiro256) -> i64 {
    gap.sample(rng) as i64 + 1
}

/// A schema plus one [`ColumnModel`] per column, each compiled once into
/// the sampler that generation draws from.
#[derive(Debug, Clone)]
pub struct TableGenerator {
    name: String,
    schema: Schema,
    models: Vec<ColumnModel>,
    samplers: Vec<ColumnSampler>,
}

impl TableGenerator {
    /// Assemble a generator from explicit models (the MUDD / purely
    /// synthetic styles).
    ///
    /// # Errors
    /// Fails when the model count does not match the schema, or when a
    /// model is invalid (an empty range or support, a negative spread or
    /// weight, a non-finite parameter); the error names the table, the
    /// column and the model.
    pub fn new(name: impl Into<String>, schema: Schema, models: Vec<ColumnModel>) -> Result<Self> {
        let name = name.into();
        if models.len() != schema.len() {
            return Err(BdbError::InvalidConfig(format!(
                "{} models for {} columns",
                models.len(),
                schema.len()
            )));
        }
        let samplers = schema
            .fields()
            .iter()
            .zip(&models)
            .map(|(field, model)| {
                model.compile().map_err(|reason| {
                    BdbError::InvalidConfig(format!(
                        "table {name} column {}: {model:?}: {reason}",
                        field.name
                    ))
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { name, schema, models, samplers })
    }

    /// Fit every column from a raw table (veracity-considered).
    pub fn fit(name: impl Into<String>, raw: &Table) -> Result<Self> {
        let models = raw
            .schema()
            .fields()
            .iter()
            .map(|f| ColumnModel::fit(f, &raw.column(&f.name)?))
            .collect::<Result<Vec<_>>>()?;
        Self::new(name, raw.schema().clone(), models)
    }

    /// Type-default models for every column (veracity-un-considered).
    pub fn naive(name: impl Into<String>, raw: &Table) -> Result<Self> {
        let models = raw
            .schema()
            .fields()
            .iter()
            .map(|f| Ok(ColumnModel::naive_for(f, &raw.column(&f.name)?)))
            .collect::<Result<Vec<_>>>()?;
        Self::new(name, raw.schema().clone(), models)
    }

    /// The output schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The per-column models.
    pub fn models(&self) -> &[ColumnModel] {
        &self.models
    }

    /// Generate `rows` rows starting at `row_offset` — the PDGF-style
    /// parallel entry point: workers call this with disjoint offsets and
    /// the union equals a single sequential generation of the same seed,
    /// column by column.
    ///
    /// Monotonic timestamp columns are sequential by nature, so a shard
    /// re-anchors its running clock **unconditionally** at `row_offset`
    /// using the expected mean gap (`start + row_offset * mean_gap_ms`):
    /// those cells match the sequential run in expectation, not exactly.
    /// For byte-exact parallel timestamps use
    /// [`generate_shard_anchored`](Self::generate_shard_anchored) with
    /// anchors from [`ts_gap_sums`](Self::ts_gap_sums), which is what
    /// [`DataGenerator::generate_parallel`] does.
    pub fn generate_shard(&self, seed: u64, row_offset: u64, rows: u64) -> Table {
        let anchors: Vec<i64> = self
            .models
            .iter()
            .map(|m| match m {
                ColumnModel::MonotonicTimestamp { start, mean_gap_ms } if row_offset > 0 => {
                    start + (row_offset as f64 * mean_gap_ms) as i64
                }
                _ => i64::MIN,
            })
            .collect();
        self.generate_shard_anchored(seed, row_offset, rows, &anchors)
    }

    /// Generate `rows` rows starting at `row_offset`, with the running
    /// clock of each monotonic timestamp column pre-seeded to `anchors[c]`
    /// (`i64::MIN` = start fresh, i.e. row 0 semantics).
    ///
    /// When `anchors[c]` carries the **exact** timestamp of row
    /// `row_offset - 1` (see [`ts_gap_sums`](Self::ts_gap_sums)), the
    /// shard is cell-for-cell identical to the sequential run — including
    /// timestamp columns.
    pub fn generate_shard_anchored(
        &self,
        seed: u64,
        row_offset: u64,
        rows: u64,
        anchors: &[i64],
    ) -> Table {
        let columns = self.column_seeds(seed);
        let mut out = Table::with_capacity(self.schema.clone(), rows as usize);
        let mut prev_ts: Vec<i64> = (0..self.samplers.len())
            .map(|c| anchors.get(c).copied().unwrap_or(i64::MIN))
            .collect();
        for r in row_offset..row_offset + rows {
            let row = self
                .samplers
                .iter()
                .zip(&columns)
                .zip(&mut prev_ts)
                .map(|((sampler, column), prev)| sampler.draw(r, &mut column.cell(r), prev))
                .collect();
            out.push_unchecked(row);
        }
        out
    }

    /// The seed-tree node of every column, `(table → column)`; a cell is
    /// `column.cell(row)`.
    fn column_seeds(&self, seed: u64) -> Vec<SeedTree> {
        let table = SeedTree::new(seed).child_named(&self.name);
        (0..self.samplers.len() as u64).map(|c| table.child(c)).collect()
    }

    /// For every column, the summed integer timestamp increments of rows
    /// `[row_offset, row_offset + rows)` — `0` for non-timestamp columns.
    ///
    /// The gap of row `r > 0` depends only on cell `(column, r)` of the
    /// seed tree, so per-chunk sums computed in parallel and prefix-summed
    /// yield the exact clock value at any row boundary: this is the first
    /// pass of the exact two-pass parallel table generation. Row 0
    /// contributes no gap (it emits `start` itself).
    pub fn ts_gap_sums(&self, seed: u64, row_offset: u64, rows: u64) -> Vec<i64> {
        self.samplers
            .iter()
            .zip(self.column_seeds(seed))
            .map(|(sampler, column)| match sampler {
                ColumnSampler::Timestamp(_, gap) => (row_offset.max(1)..row_offset + rows)
                    .map(|r| gap_step(gap, &mut column.cell(r)))
                    .sum(),
                _ => 0,
            })
            .collect()
    }

    /// Resolve a volume spec to a row count, probing a tiny shard for the
    /// average row size (the same resolution `generate` uses).
    fn resolve_rows(&self, seed: u64, volume: &VolumeSpec) -> Result<u64> {
        let probe = self.generate_shard(seed, 0, 8);
        let avg = (probe.byte_size() as f64 / 8.0).max(1.0);
        volume.resolve_items(avg, 1000)
    }
}

impl DataGenerator for TableGenerator {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> DataSourceKind {
        DataSourceKind::Table
    }

    fn generate(&self, seed: u64, volume: &VolumeSpec) -> Result<Dataset> {
        let rows = self.resolve_rows(seed, volume)?;
        Ok(Dataset::Table(self.generate_shard(seed, 0, rows)))
    }

    fn plan_items(&self, seed: u64, volume: &VolumeSpec) -> Result<Option<u64>> {
        self.resolve_rows(seed, volume).map(Some)
    }

    fn generate_shard(
        &self,
        seed: u64,
        _volume: &VolumeSpec,
        offset: u64,
        len: u64,
    ) -> Result<Dataset> {
        Ok(Dataset::Table(TableGenerator::generate_shard(self, seed, offset, len)))
    }

    /// Exact two-pass sharded generation: pass 1 computes per-chunk
    /// timestamp-gap sums in parallel and prefix-sums them into exact
    /// clock anchors, pass 2 generates the anchored shards in parallel —
    /// so the merged table is byte-identical to the sequential run,
    /// monotonic timestamp columns included.
    fn generate_chunks(
        &self,
        seed: u64,
        _volume: &VolumeSpec,
        workers: usize,
        chunks: Vec<Chunk>,
        after_shard: &(dyn Fn(Chunk) + Sync),
    ) -> Result<Dataset> {
        // The first chunk starts fresh (row 0 emits `start` itself).
        let mut anchors = vec![vec![i64::MIN; self.models.len()]];
        if self.models.iter().any(|m| matches!(m, ColumnModel::MonotonicTimestamp { .. })) {
            let sums = pool::par_map(workers, chunks.clone(), |c| {
                self.ts_gap_sums(seed, c.offset, c.len)
            });
            // Exclusive prefix sum over chunk gap sums, offset by each
            // column's `start`, gives the exact clock at each chunk start.
            let mut running: Vec<i64> = self
                .models
                .iter()
                .map(|m| match m {
                    ColumnModel::MonotonicTimestamp { start, .. } => *start,
                    _ => i64::MIN,
                })
                .collect();
            for s in sums.iter().take(chunks.len() - 1) {
                for (c, sum) in s.iter().enumerate() {
                    if running[c] != i64::MIN {
                        running[c] += sum;
                    }
                }
                anchors.push(running.clone());
            }
        } else {
            anchors.resize(chunks.len(), anchors[0].clone());
        }
        let parts = pool::par_map(workers, chunks, |c| {
            let shard = self.generate_shard_anchored(seed, c.offset, c.len, &anchors[c.index]);
            after_shard(c);
            shard
        });
        let mut iter = parts.into_iter();
        let mut out = iter.next().expect("at least one chunk");
        for t in iter {
            out.append(t)?;
        }
        Ok(Dataset::Table(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::raw_retail_table;
    use proptest::prelude::*;

    #[test]
    fn fit_recognises_sequential_ids() {
        let raw = raw_retail_table();
        let g = TableGenerator::fit("retail", &raw).unwrap();
        assert!(matches!(g.models()[0], ColumnModel::SequentialId { start: 0 }));
    }

    #[test]
    fn fit_text_becomes_empirical() {
        let raw = raw_retail_table();
        let g = TableGenerator::fit("retail", &raw).unwrap();
        let product_idx = raw.schema().index_of("product").unwrap();
        match &g.models()[product_idx] {
            ColumnModel::Empirical { values, weights } => {
                assert_eq!(values.len(), weights.len());
                assert!(values.len() <= 12);
            }
            m => panic!("expected empirical, got {m:?}"),
        }
    }

    #[test]
    fn fit_positive_floats_are_lognormal() {
        let raw = raw_retail_table();
        let g = TableGenerator::fit("retail", &raw).unwrap();
        let price_idx = raw.schema().index_of("price").unwrap();
        assert!(matches!(g.models()[price_idx], ColumnModel::LogNormalFloat { .. }));
    }

    #[test]
    fn generated_rows_validate_against_schema() {
        let raw = raw_retail_table();
        let g = TableGenerator::fit("retail", &raw).unwrap();
        let t = g.generate_shard(1, 0, 50);
        assert_eq!(t.len(), 50);
        for row in t.rows() {
            t.schema().validate_row(row).unwrap();
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let raw = raw_retail_table();
        let g = TableGenerator::fit("retail", &raw).unwrap();
        assert_eq!(g.generate_shard(9, 0, 30), g.generate_shard(9, 0, 30));
        assert_ne!(g.generate_shard(9, 0, 30), g.generate_shard(10, 0, 30));
    }

    #[test]
    fn shards_union_to_non_timestamp_columns_of_full_run() {
        let raw = raw_retail_table();
        let g = TableGenerator::fit("retail", &raw).unwrap();
        let full = g.generate_shard(4, 0, 40);
        let a = g.generate_shard(4, 0, 20);
        let b = g.generate_shard(4, 20, 20);
        // Non-timestamp cells must match cell-for-cell (PDGF property).
        let ts_idx = raw.schema().index_of("order_ts").unwrap();
        for r in 0..20 {
            for c in 0..raw.schema().len() {
                if c == ts_idx {
                    continue;
                }
                assert_eq!(full.value(r, c), a.value(r, c), "row {r} col {c}");
                assert_eq!(full.value(r + 20, c), b.value(r, c), "row {} col {c}", r + 20);
            }
        }
    }

    #[test]
    fn timestamps_are_monotonic_within_a_shard() {
        let raw = raw_retail_table();
        let g = TableGenerator::fit("retail", &raw).unwrap();
        let t = g.generate_shard(2, 0, 100);
        let ts = t.column("order_ts").unwrap();
        for w in ts.windows(2) {
            assert!(w[0].as_i64().unwrap() < w[1].as_i64().unwrap());
        }
    }

    #[test]
    fn naive_models_discard_shape() {
        let raw = raw_retail_table();
        let g = TableGenerator::naive("retail", &raw).unwrap();
        let product_idx = raw.schema().index_of("product").unwrap();
        match &g.models()[product_idx] {
            ColumnModel::Empirical { weights, .. } => {
                assert!(weights.windows(2).all(|w| w[0] == w[1]), "uniform weights");
            }
            m => panic!("expected empirical, got {m:?}"),
        }
    }

    #[test]
    fn skewed_key_model_generates_hot_keys() {
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]);
        let g = TableGenerator::new(
            "t",
            schema,
            vec![ColumnModel::SkewedKey { cardinality: 100, exponent: 1.0 }],
        )
        .unwrap();
        let t = g.generate_shard(1, 0, 2000);
        let zeros = t
            .rows()
            .iter()
            .filter(|r| r[0].as_i64() == Some(0))
            .count();
        assert!(zeros > 100, "hot key count {zeros}");
    }

    #[test]
    fn model_count_mismatch_is_rejected() {
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]);
        assert!(TableGenerator::new("t", schema, vec![]).is_err());
    }

    #[test]
    fn shard_reanchors_timestamps_unconditionally() {
        // Regression: the old re-anchor only fired when the shard's first
        // generated clock value equalled `start`, so an offset shard could
        // silently restart its clock at `start` and diverge from the
        // sequential run by the whole anchor offset. The anchor must apply
        // for every `row_offset > 0`, regardless of generated values.
        let schema = Schema::new(vec![Field::new("ts", DataType::Timestamp)]);
        let g = TableGenerator::new(
            "t",
            schema,
            vec![ColumnModel::MonotonicTimestamp { start: 1_000, mean_gap_ms: 100.0 }],
        )
        .unwrap();
        let shard = g.generate_shard(7, 500, 10);
        let anchor = 1_000 + (500.0 * 100.0) as i64;
        let first = shard.value(0, 0).unwrap().as_i64().unwrap();
        assert!(
            first > anchor && first < anchor + 20 * 100,
            "shard clock {first} must continue from anchor {anchor}, not restart at start"
        );
        // And it stays monotonic from there.
        let col = shard.column("ts").unwrap();
        for w in col.windows(2) {
            assert!(w[0].as_i64().unwrap() < w[1].as_i64().unwrap());
        }
    }

    #[test]
    fn parallel_generation_is_byte_identical_including_timestamps() {
        let raw = raw_retail_table();
        let g = TableGenerator::fit("retail", &raw).unwrap();
        let vol = VolumeSpec::Items(500);
        let seq = DataGenerator::generate(&g, 11, &vol).unwrap();
        for workers in [2, 3, 4] {
            let par = g.generate_parallel(11, &vol, workers).unwrap();
            match (&seq, &par) {
                (Dataset::Table(a), Dataset::Table(b)) => {
                    assert_eq!(a, b, "workers {workers}")
                }
                _ => panic!("expected tables"),
            }
        }
    }

    #[test]
    fn ts_gap_sums_match_sequential_clock() {
        let raw = raw_retail_table();
        let g = TableGenerator::fit("retail", &raw).unwrap();
        let ts_idx = raw.schema().index_of("order_ts").unwrap();
        let full = g.generate_shard(5, 0, 64);
        let sums = g.ts_gap_sums(5, 0, 40);
        let start = match g.models()[ts_idx] {
            ColumnModel::MonotonicTimestamp { start, .. } => start,
            _ => unreachable!(),
        };
        // start + gaps of rows 1..=39 == clock value at row 39.
        assert_eq!(
            start + sums[ts_idx],
            full.value(39, ts_idx).unwrap().as_i64().unwrap()
        );
    }

    /// FNV-1a over the rows' lines, in row order: moves if any cell does.
    fn row_digest(t: &Table) -> u64 {
        let mut h = bdb_common::hash::Fnv1a::new();
        for line in bdb_common::record::row_lines(t.rows()) {
            h.write(line.as_bytes());
            h.write(b"\n");
        }
        h.finish()
    }

    /// One column of every model variant, `SkewedKey` at both branches.
    fn every_variant() -> TableGenerator {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("uniform", DataType::Int),
            Field::new("key_uniform", DataType::Int),
            Field::new("key_zipf", DataType::Int),
            Field::new("gauss", DataType::Float),
            Field::new("lognormal", DataType::Float),
            Field::new("category", DataType::Text),
            Field::new("flag", DataType::Bool),
            Field::new("ts", DataType::Timestamp),
        ]);
        let models = vec![
            ColumnModel::SequentialId { start: 10 },
            ColumnModel::UniformInt { lo: -5, hi: 50 },
            ColumnModel::SkewedKey { cardinality: 1000, exponent: 0.0 },
            ColumnModel::SkewedKey { cardinality: 1000, exponent: 0.9 },
            ColumnModel::GaussianFloat { mean: 3.0, std_dev: 2.0 },
            ColumnModel::LogNormalFloat { mu: 0.5, sigma: 0.7 },
            ColumnModel::Empirical {
                values: vec!["a".into(), "b".into(), "c".into(), "d".into()],
                weights: vec![3.0, 1.0, 0.0, 2.0],
            },
            ColumnModel::Bernoulli { p: 0.3 },
            ColumnModel::MonotonicTimestamp { start: 1_000, mean_gap_ms: 250.0 },
        ];
        TableGenerator::new("every", schema, models).unwrap()
    }

    #[test]
    fn every_variant_digest_is_pinned() {
        // Computed with the interpreted per-cell models, before they were
        // compiled: compiling must not move a single cell.
        let g = every_variant();
        assert_eq!(row_digest(&g.generate_shard(1, 0, 2000)), 0xfe6c_f198_738c_69c2);
        assert_eq!(row_digest(&g.generate_shard(42, 0, 2000)), 0x662b_0f81_ebe1_902f);
    }

    /// The interpreted reference: every cell through
    /// [`ColumnModel::generate`], seeded as generation seeds it.
    fn reference_shard(
        g: &TableGenerator,
        seed: u64,
        row_offset: u64,
        rows: u64,
        anchors: &[i64],
    ) -> Table {
        let tree = SeedTree::new(seed).child_named(&g.name);
        let mut prev_ts = anchors.to_vec();
        let mut out = Table::new(g.schema.clone());
        for r in row_offset..row_offset + rows {
            let row = g
                .models
                .iter()
                .enumerate()
                .map(|(c, m)| m.generate(r, &mut tree.child(c as u64).cell(r), &mut prev_ts[c]))
                .collect();
            out.push_unchecked(row);
        }
        out
    }

    /// A valid model of any variant, with the column type it generates.
    fn arb_model() -> impl Strategy<Value = (DataType, ColumnModel)> {
        prop_oneof![
            (-1000i64..1000)
                .prop_map(|start| (DataType::Int, ColumnModel::SequentialId { start })),
            (-1000i64..1000, 0i64..1000).prop_map(|(lo, span)| {
                (DataType::Int, ColumnModel::UniformInt { lo, hi: lo + span })
            }),
            (1u64..5000, 0.0f64..2.0, any::<bool>()).prop_map(|(cardinality, e, zipf)| {
                let exponent = if zipf { e } else { -e };
                (DataType::Int, ColumnModel::SkewedKey { cardinality, exponent })
            }),
            (-100.0f64..100.0, 0.0f64..10.0).prop_map(|(mean, std_dev)| {
                (DataType::Float, ColumnModel::GaussianFloat { mean, std_dev })
            }),
            (-2.0f64..2.0, 0.0f64..2.0).prop_map(|(mu, sigma)| {
                (DataType::Float, ColumnModel::LogNormalFloat { mu, sigma })
            }),
            prop::collection::vec(0.0f64..3.0, 1..12).prop_map(|mut weights| {
                // A third of the weights zero, but never all of them.
                for w in &mut weights {
                    if *w < 1.0 {
                        *w = 0.0;
                    }
                }
                *weights.last_mut().unwrap() += 1.0;
                let values = (0..weights.len()).map(|i| Value::Text(format!("v{i}"))).collect();
                (DataType::Text, ColumnModel::Empirical { values, weights })
            }),
            (0.0f64..=1.0).prop_map(|p| (DataType::Bool, ColumnModel::Bernoulli { p })),
            (-1000i64..1000, -10.0f64..5000.0).prop_map(|(start, mean_gap_ms)| {
                (DataType::Timestamp, ColumnModel::MonotonicTimestamp { start, mean_gap_ms })
            }),
        ]
    }

    proptest! {
        #[test]
        fn compiled_samplers_match_the_interpreted_models(
            columns in prop::collection::vec(arb_model(), 1..7),
            seed in any::<u64>(),
            row_offset in 1u64..100_000,
            rows in 1u64..200,
            anchor in -1_000_000i64..1_000_000,
        ) {
            let (types, models): (Vec<_>, Vec<_>) = columns.into_iter().unzip();
            let fields = types
                .into_iter()
                .enumerate()
                .map(|(i, t)| Field::new(format!("c{i}"), t))
                .collect();
            let g = TableGenerator::new("prop", Schema::new(fields), models).unwrap();
            // A fresh shard (row 0 semantics), an offset one, an anchored one.
            let fresh = vec![i64::MIN; g.models.len()];
            let anchored = vec![anchor; g.models.len()];
            for (offset, anchors) in [(0, &fresh), (row_offset, &fresh), (row_offset, &anchored)] {
                prop_assert_eq!(
                    g.generate_shard_anchored(seed, offset, rows, anchors),
                    reference_shard(&g, seed, offset, rows, anchors)
                );
            }
            // An anchored shard's clock ends at the anchor plus its gap sum.
            let t = reference_shard(&g, seed, row_offset, rows, &anchored);
            let ends: Vec<i64> = g
                .models
                .iter()
                .enumerate()
                .map(|(c, m)| match m {
                    ColumnModel::MonotonicTimestamp { .. } => {
                        t.value(rows as usize - 1, c).unwrap().as_i64().unwrap() - anchor
                    }
                    _ => 0,
                })
                .collect();
            prop_assert_eq!(g.ts_gap_sums(seed, row_offset, rows), ends);
        }
    }

    /// `model` in a one-column table is rejected by name, not by a panic.
    fn assert_rejected(model: ColumnModel, reason: &str) {
        let schema = Schema::new(vec![Field::new("col", DataType::Int)]);
        match TableGenerator::new("tbl", schema, vec![model.clone()]) {
            Err(BdbError::InvalidConfig(m)) => {
                assert!(m.starts_with("table tbl column col: "), "{m}");
                assert!(m.contains(&format!("{model:?}")), "{m}");
                assert!(m.ends_with(reason), "{m}");
            }
            other => panic!("{model:?} must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn zipf_key_over_no_keys_is_rejected() {
        assert_rejected(
            ColumnModel::SkewedKey { cardinality: 0, exponent: 1.0 },
            "cardinality must be positive",
        );
    }

    #[test]
    fn uniform_key_over_no_keys_is_rejected() {
        assert_rejected(
            ColumnModel::SkewedKey { cardinality: 0, exponent: 0.0 },
            "cardinality must be positive",
        );
    }

    #[test]
    fn empty_int_range_is_rejected() {
        assert_rejected(ColumnModel::UniformInt { lo: 5, hi: 1 }, "lo must not exceed hi");
    }

    #[test]
    fn empirical_without_values_is_rejected() {
        assert_rejected(ColumnModel::Empirical { values: vec![], weights: vec![] }, "no values");
    }

    #[test]
    fn empirical_with_zero_weights_is_rejected() {
        assert_rejected(
            ColumnModel::Empirical { values: vec![1.into(), 2.into()], weights: vec![0.0, 0.0] },
            "weights must have a positive, finite sum",
        );
    }

    #[test]
    fn empirical_weight_count_mismatch_is_rejected() {
        assert_rejected(
            ColumnModel::Empirical { values: vec![1.into(), 2.into()], weights: vec![1.0] },
            "2 values but 1 weights",
        );
    }

    #[test]
    fn negative_std_dev_is_rejected() {
        assert_rejected(
            ColumnModel::GaussianFloat { mean: 0.0, std_dev: -1.0 },
            "std_dev must not be negative",
        );
    }

    #[test]
    fn infinite_timestamp_gap_is_rejected() {
        assert_rejected(
            ColumnModel::MonotonicTimestamp { start: 0, mean_gap_ms: f64::INFINITY },
            "mean_gap_ms must be finite",
        );
    }

    #[test]
    fn non_finite_parameters_are_rejected() {
        let nan = f64::NAN;
        let inf = f64::INFINITY;
        for (model, reason) in [
            (ColumnModel::SkewedKey { cardinality: 10, exponent: nan }, "exponent must be finite"),
            (ColumnModel::GaussianFloat { mean: inf, std_dev: 1.0 }, "mean must be finite"),
            (ColumnModel::GaussianFloat { mean: 0.0, std_dev: nan }, "std_dev must be finite"),
            (ColumnModel::LogNormalFloat { mu: nan, sigma: 1.0 }, "mu must be finite"),
            (ColumnModel::LogNormalFloat { mu: 0.0, sigma: -inf }, "sigma must be finite"),
            (
                ColumnModel::Empirical { values: vec![Value::Int(1)], weights: vec![nan] },
                "every weight must be finite",
            ),
            (ColumnModel::Bernoulli { p: nan }, "p must be in [0, 1]"),
            (
                ColumnModel::MonotonicTimestamp { start: 0, mean_gap_ms: nan },
                "mean_gap_ms must be finite",
            ),
        ] {
            assert_rejected(model, reason);
        }
    }

    #[test]
    fn out_of_domain_parameters_are_rejected() {
        for (model, reason) in [
            (
                ColumnModel::Empirical { values: vec![1.into()], weights: vec![-1.0] },
                "every weight must not be negative",
            ),
            (ColumnModel::LogNormalFloat { mu: 0.0, sigma: -0.5 }, "sigma must not be negative"),
            (ColumnModel::Bernoulli { p: 1.5 }, "p must be in [0, 1]"),
        ] {
            assert_rejected(model, reason);
        }
    }

    #[test]
    fn naive_text_column_without_values_is_rejected() {
        let schema = Schema::new(vec![Field::nullable("name", DataType::Text)]);
        for raw in [
            Table::new(schema.clone()),
            Table::from_rows(schema.clone(), vec![vec![Value::Null], vec![Value::Null]]).unwrap(),
        ] {
            match TableGenerator::naive("people", &raw) {
                Err(BdbError::InvalidConfig(m)) => {
                    assert!(m.starts_with("table people column name: "), "{m}");
                    assert!(m.ends_with("no values"), "{m}");
                }
                other => panic!("expected a named error, got {other:?}"),
            }
        }
    }


    #[test]
    fn volume_bytes_resolves() {
        let raw = raw_retail_table();
        let g = TableGenerator::fit("retail", &raw).unwrap();
        let d = g.generate(1, &VolumeSpec::Bytes(10_000)).unwrap();
        let size = d.byte_size();
        assert!((8_000..20_000).contains(&size), "size {size}");
    }
}
