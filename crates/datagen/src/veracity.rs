//! Veracity metrics (Section 5.1): how close is synthetic data to raw data?
//!
//! The paper poses this as an open question and sketches the answer this
//! module implements: derive the characteristic distributions from both
//! data sets and compare them with statistical divergences. Per data type:
//!
//! * **Text** — word-frequency divergence, document-length KS, and (when a
//!   trained LDA model is supplied) topic-mixture divergence, exactly the
//!   "derive the topic and word distributions … then apply
//!   Kullback–Leibler divergence" recipe of Section 5.1.
//! * **Table** — per-column divergence: JS over categorical frequencies,
//!   KS over numeric samples.
//! * **Graph** — degree-distribution divergence and power-law exponent
//!   discrepancy.
//! * **Stream** — inter-arrival-time KS and per-window count divergence.
//!
//! All scores are reported so that **lower is better** and 0 means
//! indistinguishable under that statistic; JS scores are bounded by ln 2
//! (≈0.693), making them comparable across data types.

use crate::stream::Event;
use crate::text::lda::LdaModel;
use bdb_common::graph::DegreeDistribution;
use bdb_common::prelude::*;
use bdb_common::record::Table;
use bdb_common::stats::{js_divergence, ks_statistic};
use bdb_common::text::corpus_word_frequencies;
use bdb_common::value::DataType;
use bdb_common::{BdbError, Result};

/// A named collection of veracity scores (lower = more faithful).
#[derive(Debug, Clone, PartialEq)]
pub struct VeracityReport {
    /// Individual (metric name, score) pairs.
    pub metrics: Vec<(String, f64)>,
}

impl VeracityReport {
    /// Mean of all scores: the single-number veracity summary used by the
    /// Table 1 harness.
    pub fn overall(&self) -> f64 {
        if self.metrics.is_empty() {
            return 0.0;
        }
        self.metrics.iter().map(|(_, v)| v).sum::<f64>() / self.metrics.len() as f64
    }

    /// Look up one metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

fn pad_to_common_len(mut a: Vec<f64>, mut b: Vec<f64>) -> (Vec<f64>, Vec<f64>) {
    let len = a.len().max(b.len()).max(1);
    a.resize(len, 0.0);
    b.resize(len, 0.0);
    (a, b)
}

/// Compare two corpora over a shared vocabulary.
///
/// With `model`, also compares average inferred topic mixtures (the
/// raw-vs-synthetic topic-distribution metric). `rng` drives the
/// fold-in inference.
pub fn text_veracity(
    raw: &[Document],
    synthetic: &[Document],
    vocab_size: usize,
    model: Option<&LdaModel>,
    rng: &mut dyn Rng,
) -> VeracityReport {
    let mut metrics = Vec::new();
    let fr = corpus_word_frequencies(raw, vocab_size);
    let fs = corpus_word_frequencies(synthetic, vocab_size);
    metrics.push(("word_freq_js".to_string(), js_divergence(&fr, &fs)));

    let lens = |docs: &[Document]| -> Vec<f64> { docs.iter().map(|d| d.len() as f64).collect() };
    metrics.push(("doc_length_ks".to_string(), ks_statistic(&lens(raw), &lens(synthetic))));

    if let Some(m) = model {
        // Per-document topic mixtures, compared as the *distribution of
        // topic peakedness* (each document's max θ component). A topical
        // corpus has strongly peaked documents; bag-of-uniform-words text
        // infers near-uniform mixtures. Comparing corpus-mean θ would
        // hide this: a balanced topical corpus and random text both
        // average to uniform.
        let peakedness_pmf = |docs: &[Document], rng: &mut dyn Rng| -> Vec<f64> {
            let peaks: Vec<f64> = docs
                .iter()
                .map(|d| m.infer_theta(d, rng).iter().cloned().fold(0.0, f64::max))
                .collect();
            bucket_pmf(&peaks, 0.0, 1.000001, 10)
        };
        let tr = peakedness_pmf(raw, rng);
        let ts = peakedness_pmf(synthetic, rng);
        metrics.push(("topic_dist_js".to_string(), js_divergence(&tr, &ts)));
    }
    VeracityReport { metrics }
}

/// Compare two tables column by column.
///
/// # Errors
/// Fails when the schemas differ.
pub fn table_veracity(raw: &Table, synthetic: &Table) -> Result<VeracityReport> {
    if raw.schema() != synthetic.schema() {
        return Err(BdbError::TypeMismatch {
            expected: "matching schemas".into(),
            found: "different schemas".into(),
        });
    }
    let mut metrics = Vec::new();
    for field in raw.schema().fields() {
        let rv = raw.column(&field.name)?;
        let sv = synthetic.column(&field.name)?;
        match field.data_type {
            DataType::Text | DataType::Bool => {
                let freq = |vals: &[Value]| -> std::collections::BTreeMap<String, f64> {
                    let mut m = std::collections::BTreeMap::new();
                    for v in vals {
                        *m.entry(v.to_string()).or_insert(0.0) += 1.0;
                    }
                    let total: f64 = m.values().sum();
                    for x in m.values_mut() {
                        *x /= total.max(1.0);
                    }
                    m
                };
                let (fr, fs) = (freq(&rv), freq(&sv));
                let keys: std::collections::BTreeSet<&String> =
                    fr.keys().chain(fs.keys()).collect();
                let p: Vec<f64> = keys.iter().map(|k| *fr.get(*k).unwrap_or(&0.0)).collect();
                let q: Vec<f64> = keys.iter().map(|k| *fs.get(*k).unwrap_or(&0.0)).collect();
                metrics.push((format!("{}_js", field.name), js_divergence(&p, &q)));
            }
            DataType::Int | DataType::Float => {
                let nums = |vals: &[Value]| -> Vec<f64> {
                    vals.iter().filter_map(Value::as_f64).collect()
                };
                metrics.push((
                    format!("{}_ks", field.name),
                    ks_statistic(&nums(&rv), &nums(&sv)),
                ));
            }
            DataType::Timestamp => {
                // Compare gap distributions, not absolute epochs.
                let gaps = |vals: &[Value]| -> Vec<f64> {
                    let ts: Vec<i64> = vals.iter().filter_map(Value::as_i64).collect();
                    ts.windows(2).map(|w| (w[1] - w[0]) as f64).collect()
                };
                metrics.push((
                    format!("{}_gap_ks", field.name),
                    ks_statistic(&gaps(&rv), &gaps(&sv)),
                ));
            }
        }
    }
    Ok(VeracityReport { metrics })
}

/// Compare the structural characteristics of two graphs.
pub fn graph_veracity(raw: &EdgeListGraph, synthetic: &EdgeListGraph) -> VeracityReport {
    let mut metrics = Vec::new();
    let dr = DegreeDistribution::from_degrees(&raw.out_degrees());
    let ds = DegreeDistribution::from_degrees(&synthetic.out_degrees());
    let (p, q) = pad_to_common_len(dr.pmf(), ds.pmf());
    metrics.push(("degree_dist_js".to_string(), js_divergence(&p, &q)));

    if let (Some(ar), Some(as_)) = (dr.power_law_alpha(2), ds.power_law_alpha(2)) {
        // Relative exponent gap, capped at 1 so the score stays bounded.
        let gap = ((ar - as_).abs() / ar.abs().max(1e-9)).min(1.0);
        metrics.push(("power_law_alpha_gap".to_string(), gap));
    }
    let mean_gap = {
        let (mr, ms) = (dr.mean(), ds.mean());
        ((mr - ms).abs() / mr.max(1e-9)).min(1.0)
    };
    metrics.push(("mean_degree_gap".to_string(), mean_gap));
    VeracityReport { metrics }
}

/// Compare the temporal characteristics of two event streams.
pub fn stream_veracity(raw: &[Event], synthetic: &[Event]) -> VeracityReport {
    let mut metrics = Vec::new();
    let gaps = |evts: &[Event]| -> Vec<f64> {
        evts.windows(2)
            .map(|w| (w[1].ts_ms.saturating_sub(w[0].ts_ms)) as f64)
            .collect()
    };
    metrics.push((
        "interarrival_ks".to_string(),
        ks_statistic(&gaps(raw), &gaps(synthetic)),
    ));
    // Per-100ms window count distributions, as histograms over count value.
    let window_pmf = |evts: &[Event]| -> Vec<f64> {
        let mut counts: std::collections::BTreeMap<u64, u64> = Default::default();
        for e in evts {
            *counts.entry(e.ts_ms / 100).or_insert(0) += 1;
        }
        let max = counts.values().copied().max().unwrap_or(0) as usize;
        let mut pmf = vec![0.0; max + 1];
        for &c in counts.values() {
            pmf[c as usize] += 1.0;
        }
        let total: f64 = pmf.iter().sum();
        for p in &mut pmf {
            *p /= total.max(1.0);
        }
        pmf
    };
    let (p, q) = pad_to_common_len(window_pmf(raw), window_pmf(synthetic));
    metrics.push(("window_count_js".to_string(), js_divergence(&p, &q)));
    VeracityReport { metrics }
}

/// Compare key-popularity distributions of two event streams (Zipf shape).
pub fn key_popularity_divergence(raw: &[Event], synthetic: &[Event]) -> f64 {
    let pmf = |evts: &[Event]| -> Vec<f64> {
        let mut counts: std::collections::BTreeMap<u64, f64> = Default::default();
        for e in evts {
            *counts.entry(e.key).or_insert(0.0) += 1.0;
        }
        let mut v: Vec<f64> = counts.into_values().collect();
        v.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let total: f64 = v.iter().sum();
        v.iter().map(|c| c / total.max(1.0)).collect()
    };
    let (p, q) = pad_to_common_len(pmf(raw), pmf(synthetic));
    js_divergence(&p, &q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{karate_club_graph, raw_retail_table, RAW_TEXT_CORPUS};
    use crate::graph::{fit_rmat, ErdosRenyiGenerator};
    use crate::stream::PoissonArrivals;
    use crate::table::TableGenerator;
    use crate::text::lda::{LdaConfig, LdaModel};
    use crate::text::NaiveTextGenerator;
    use crate::volume::VolumeSpec;
    use crate::{DataGenerator, Dataset};

    fn raw_docs() -> (Vec<Document>, Vocabulary) {
        let mut vocab = Vocabulary::new();
        let docs = RAW_TEXT_CORPUS
            .iter()
            .map(|t| Document::from_text(t, &mut vocab))
            .collect();
        (docs, vocab)
    }

    #[test]
    fn identical_corpora_score_zero() {
        let (docs, vocab) = raw_docs();
        let mut rng = Xoshiro256::new(1);
        let r = text_veracity(&docs, &docs, vocab.len(), None, &mut rng);
        assert!(r.overall() < 1e-9, "overall {}", r.overall());
        assert_eq!(r.metrics.len(), 2);
        assert!(r.get("word_freq_js").is_some());
        assert!(r.get("missing").is_none());
    }

    #[test]
    fn lda_text_beats_naive_text() {
        // The headline veracity ablation: model-based generation must be
        // measurably closer to the raw corpus than uniform-random words.
        let (docs, vocab) = raw_docs();
        let config = LdaConfig { iterations: 60, ..Default::default() };
        let model = LdaModel::train(&RAW_TEXT_CORPUS, config, 42).unwrap();
        let naive = NaiveTextGenerator::from_corpus(&RAW_TEXT_CORPUS);
        let volume = VolumeSpec::Items(200);
        let synth_lda = match model.generate(7, &volume).unwrap() {
            Dataset::Text { docs, .. } => docs,
            _ => unreachable!(),
        };
        let synth_naive = match naive.generate(7, &volume).unwrap() {
            Dataset::Text { docs, .. } => docs,
            _ => unreachable!(),
        };
        let mut rng = Xoshiro256::new(5);
        let lda_score = text_veracity(&docs, &synth_lda, vocab.len(), None, &mut rng)
            .get("word_freq_js")
            .unwrap();
        let naive_score = text_veracity(&docs, &synth_naive, vocab.len(), None, &mut rng)
            .get("word_freq_js")
            .unwrap();
        assert!(
            lda_score < naive_score * 0.7,
            "lda {lda_score} vs naive {naive_score}"
        );
    }

    #[test]
    fn table_fitted_beats_naive() {
        let raw = raw_retail_table();
        let fitted = TableGenerator::fit("retail", &raw).unwrap();
        let naive = TableGenerator::naive("retail", &raw).unwrap();
        let synth_fit = fitted.generate_shard(3, 0, 512);
        let synth_naive = naive.generate_shard(3, 0, 512);
        let vf = table_veracity(&raw, &synth_fit).unwrap().overall();
        let vn = table_veracity(&raw, &synth_naive).unwrap().overall();
        assert!(vf < vn, "fitted {vf} vs naive {vn}");
    }

    #[test]
    fn table_veracity_requires_matching_schema() {
        let raw = raw_retail_table();
        let other = Table::new(bdb_common::value::Schema::new(vec![
            bdb_common::value::Field::new("x", DataType::Int),
        ]));
        assert!(table_veracity(&raw, &other).is_err());
    }

    #[test]
    fn graph_fitted_beats_uniform() {
        let raw = karate_club_graph();
        let fitted = fit_rmat(&raw, 3).unwrap();
        let scale = 6; // 64 >= 34 vertices
        let synth_fit = fitted.generate_graph(9, scale);
        let synth_er = ErdosRenyiGenerator {
            edges_per_vertex: raw.num_edges() as f64 / raw.num_vertices() as f64,
        }
        .generate_graph(9, 64);
        let vf = graph_veracity(&raw, &synth_fit)
            .get("degree_dist_js")
            .unwrap();
        let ve = graph_veracity(&raw, &synth_er)
            .get("degree_dist_js")
            .unwrap();
        assert!(vf <= ve * 1.1, "fitted {vf} vs er {ve}");
    }

    #[test]
    fn stream_same_process_scores_low() {
        let g = PoissonArrivals::new(500.0, 50).unwrap();
        let a = g.generate_events(1, 5000);
        let b = g.generate_events(2, 5000);
        let r = stream_veracity(&a, &b);
        assert!(r.overall() < 0.2, "overall {}", r.overall());
        // Key popularity of same Zipf process is close.
        assert!(key_popularity_divergence(&a, &b) < 0.1);
    }

    #[test]
    fn stream_different_rates_score_high() {
        let fast = PoissonArrivals::new(2000.0, 50).unwrap().generate_events(1, 5000);
        let slow = PoissonArrivals::new(100.0, 50).unwrap().generate_events(1, 5000);
        let r = stream_veracity(&fast, &slow);
        assert!(
            r.get("interarrival_ks").unwrap() > 0.3,
            "ks {}",
            r.get("interarrival_ks").unwrap()
        );
    }

    #[test]
    fn empty_report_overall_is_zero() {
        assert_eq!(VeracityReport { metrics: vec![] }.overall(), 0.0);
    }
}
