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
                let n = vals.len().max(1);
                ColumnModel::Empirical { values: vals, weights: vec![1.0; n] }
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

    /// Generate the value of this column at `row`, drawing from `rng`.
    ///
    /// `prev_ts` carries the running timestamp for monotonic columns.
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

/// A schema plus one [`ColumnModel`] per column.
#[derive(Debug, Clone)]
pub struct TableGenerator {
    name: String,
    schema: Schema,
    models: Vec<ColumnModel>,
}

impl TableGenerator {
    /// Assemble a generator from explicit models (the MUDD / purely
    /// synthetic styles).
    ///
    /// # Errors
    /// Fails when the model count does not match the schema.
    pub fn new(name: impl Into<String>, schema: Schema, models: Vec<ColumnModel>) -> Result<Self> {
        if models.len() != schema.len() {
            return Err(BdbError::InvalidConfig(format!(
                "{} models for {} columns",
                models.len(),
                schema.len()
            )));
        }
        Ok(Self { name: name.into(), schema, models })
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
        let tree = SeedTree::new(seed).child_named(&self.name);
        let mut out = Table::with_capacity(self.schema.clone(), rows as usize);
        let mut prev_ts: Vec<i64> = self
            .models
            .iter()
            .enumerate()
            .map(|(c, _)| anchors.get(c).copied().unwrap_or(i64::MIN))
            .collect();
        for r in row_offset..row_offset + rows {
            let row = self
                .models
                .iter()
                .enumerate()
                .map(|(c, m)| {
                    let mut rng = tree.child(c as u64).cell(r);
                    m.generate(r, &mut rng, &mut prev_ts[c])
                })
                .collect();
            out.push_unchecked(row);
        }
        out
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
        let tree = SeedTree::new(seed).child_named(&self.name);
        self.models
            .iter()
            .enumerate()
            .map(|(c, m)| match m {
                ColumnModel::MonotonicTimestamp { mean_gap_ms, .. } => {
                    let col = tree.child(c as u64);
                    let dist = Exponential::new(1.0 / mean_gap_ms.max(1.0));
                    (row_offset.max(1)..row_offset + rows)
                        .map(|r| {
                            let mut rng = col.cell(r);
                            dist.sample(&mut rng) as i64 + 1
                        })
                        .sum()
                }
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
            let sums = pool::par_map_chunks(workers, chunks.clone(), |c| {
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
        let parts = pool::par_map_chunks(workers, chunks, |c| {
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

    #[test]
    fn volume_bytes_resolves() {
        let raw = raw_retail_table();
        let g = TableGenerator::fit("retail", &raw).unwrap();
        let d = g.generate(1, &VolumeSpec::Bytes(10_000)).unwrap();
        let size = d.byte_size();
        assert!((8_000..20_000).contains(&size), "size {size}");
    }
}
