//! Search-engine domain workloads: inverted index and PageRank.
//!
//! Table 2 lists "Nutch Indexing" (HiBench) and "index, PageRank"
//! (BigDataBench's search-engine domain). The index build is implemented
//! natively and as a MapReduce job; PageRank runs natively over CSR and as
//! the classic iterative MapReduce job.

use crate::{WorkloadCategory, WorkloadResult};
use bdb_common::graph::{CsrGraph, EdgeListGraph};
use bdb_common::text::Document;
use bdb_mapreduce::{run_job, JobConfig};
use bdb_metrics::{MetricsCollector, OpCounts};

/// A term → sorted postings-list index.
pub type InvertedIndex = std::collections::BTreeMap<u32, Vec<u32>>;

/// Build an inverted index natively: term id → sorted unique doc ids.
pub fn inverted_index_native(docs: &[Document]) -> (InvertedIndex, WorkloadResult) {
    let collector = MetricsCollector::new();
    let mut index: InvertedIndex = Default::default();
    let mut tokens = 0u64;
    for (doc_id, d) in docs.iter().enumerate() {
        tokens += d.len() as u64;
        let mut seen = std::collections::BTreeSet::new();
        for &w in &d.words {
            if seen.insert(w) {
                index.entry(w).or_default().push(doc_id as u32);
            }
        }
    }
    let mut c = collector;
    c.record_operations(tokens);
    let user = c.finish();
    let ops = OpCounts { record_ops: tokens * 2, float_ops: 0 };
    let result = WorkloadResult::assemble(
        "search/index",
        "native",
        WorkloadCategory::OfflineAnalytics,
        user,
        ops,
        docs.len() as u64,
    )
    .with_detail("terms", index.len() as f64);
    (index, result)
}

/// Build the inverted index as a MapReduce job: map emits
/// `(term, doc_id)`, reduce sorts and dedups postings.
pub fn inverted_index_mapreduce(
    docs: &[Document],
    config: &JobConfig,
) -> (InvertedIndex, WorkloadResult) {
    let collector = MetricsCollector::new();
    let indexed: Vec<(u32, &Document)> = (0u32..).zip(docs).collect();
    let r = run_job(
        config,
        &indexed,
        |(doc_id, d): &(u32, &Document), emit| {
            let mut seen = std::collections::BTreeSet::new();
            for &w in &d.words {
                if seen.insert(w) {
                    emit(w, *doc_id);
                }
            }
        },
        |w: &u32, mut vs: Vec<u32>, out| {
            vs.sort_unstable();
            vs.dedup();
            out((*w, vs));
        },
    );
    let index: InvertedIndex = r.outputs.into_iter().collect();
    let mut c = collector;
    c.record_operations(r.counters.map_output_records);
    let user = c.finish();
    let ops = OpCounts { record_ops: r.counters.total_record_ops(), float_ops: 0 };
    let result = WorkloadResult::assemble(
        "search/index",
        "mapreduce",
        WorkloadCategory::OfflineAnalytics,
        user,
        ops,
        docs.len() as u64,
    )
    .with_detail("terms", index.len() as f64);
    (index, result)
}

/// PageRank configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRankConfig {
    /// Damping factor (0.85 in the original paper).
    pub damping: f64,
    /// Stop when the L1 residual between iterations falls below this.
    pub epsilon: f64,
    /// Hard iteration cap.
    pub max_iterations: u32,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        Self { damping: 0.85, epsilon: 1e-8, max_iterations: 100 }
    }
}

/// Native PageRank: power iteration over CSR with dangling-mass
/// redistribution. Returns (ranks, iterations).
pub fn pagerank_native(
    graph: &CsrGraph,
    config: &PageRankConfig,
) -> (Vec<f64>, u32, WorkloadResult) {
    let collector = MetricsCollector::new();
    let n = graph.num_vertices();
    if n == 0 {
        let result = WorkloadResult::assemble(
            "search/pagerank",
            "native",
            WorkloadCategory::OfflineAnalytics,
            collector.finish(),
            OpCounts::default(),
            0,
        );
        return (Vec::new(), 0, result);
    }
    let d = config.damping;
    let mut ranks = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let mut iterations = 0u32;
    let mut float_ops = 0u64;
    loop {
        iterations += 1;
        next.iter_mut().for_each(|x| *x = 0.0);
        let mut dangling = 0.0;
        for v in 0..n as u32 {
            let deg = graph.out_degree(v);
            let r = ranks[v as usize];
            if deg == 0 {
                dangling += r;
            } else {
                let share = r / deg as f64;
                for &t in graph.neighbors(v) {
                    next[t as usize] += share;
                }
                float_ops += deg as u64 + 1;
            }
        }
        let base = (1.0 - d) / n as f64 + d * dangling / n as f64;
        let mut residual = 0.0;
        for (v, nx) in next.iter_mut().enumerate() {
            *nx = base + d * *nx;
            residual += (*nx - ranks[v]).abs();
        }
        float_ops += 3 * n as u64;
        std::mem::swap(&mut ranks, &mut next);
        if residual < config.epsilon || iterations >= config.max_iterations {
            break;
        }
    }
    let mut c = collector;
    c.record_operations(graph.num_edges() as u64 * iterations as u64);
    let user = c.finish();
    let ops = OpCounts {
        record_ops: graph.num_edges() as u64 * iterations as u64,
        float_ops,
    };
    let result = WorkloadResult::assemble(
        "search/pagerank",
        "native",
        WorkloadCategory::OfflineAnalytics,
        user,
        ops,
        graph.num_vertices() as u64,
    )
    .with_detail("iterations", iterations as f64);
    (ranks, iterations, result)
}

/// PageRank as iterated MapReduce jobs (the classic Hadoop formulation):
/// each iteration is one job whose map emits rank shares along edges and
/// whose reduce sums them.
pub fn pagerank_mapreduce(
    graph: &EdgeListGraph,
    config: &PageRankConfig,
    job: &JobConfig,
) -> (Vec<f64>, u32, WorkloadResult) {
    let collector = MetricsCollector::new();
    let n = graph.num_vertices();
    if n == 0 {
        let result = WorkloadResult::assemble(
            "search/pagerank",
            "mapreduce",
            WorkloadCategory::OfflineAnalytics,
            collector.finish(),
            OpCounts::default(),
            0,
        );
        return (Vec::new(), 0, result);
    }
    let csr = graph.to_csr();
    let d = config.damping;
    let mut ranks = vec![1.0 / n as f64; n];
    let mut iterations = 0u32;
    let mut record_ops = 0u64;
    // Input: one record per vertex; its rank and out-neighbours are read
    // in place.
    let vertices: Vec<u32> = (0..n as u32).collect();
    loop {
        iterations += 1;
        let r = run_job(
            job,
            &vertices,
            |v: &u32, emit| {
                let (rank, neigh) = (ranks[*v as usize], csr.neighbors(*v));
                if neigh.is_empty() {
                    // Dangling mass keyed to a sentinel for redistribution.
                    emit(u32::MAX, rank);
                } else {
                    let share = rank / neigh.len() as f64;
                    for &t in neigh {
                        emit(t, share);
                    }
                }
                // Ensure every vertex id is keyed at least once so the
                // reducer emits it even without inbound edges.
                emit(*v, 0.0);
            },
            |k: &u32, vs: Vec<f64>, out| out((*k, vs.iter().sum::<f64>())),
        );
        record_ops += r.counters.total_record_ops();
        let mut dangling = 0.0;
        let mut sums = vec![0.0f64; n];
        for (k, s) in r.outputs {
            if k == u32::MAX {
                dangling = s;
            } else {
                sums[k as usize] = s;
            }
        }
        let base = (1.0 - d) / n as f64 + d * dangling / n as f64;
        let mut residual = 0.0;
        for v in 0..n {
            let nx = base + d * sums[v];
            residual += (nx - ranks[v]).abs();
            ranks[v] = nx;
        }
        if residual < config.epsilon || iterations >= config.max_iterations {
            break;
        }
    }
    let mut c = collector;
    c.record_operations(record_ops);
    let user = c.finish();
    let ops = OpCounts {
        record_ops,
        float_ops: graph.num_edges() as u64 * iterations as u64,
    };
    let result = WorkloadResult::assemble(
        "search/pagerank",
        "mapreduce",
        WorkloadCategory::OfflineAnalytics,
        user,
        ops,
        n as u64,
    )
    .with_detail("iterations", iterations as f64);
    (ranks, iterations, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_datagen::corpus::{karate_club_graph, RAW_TEXT_CORPUS};
    use bdb_datagen::text::NaiveTextGenerator;
    use bdb_datagen::volume::VolumeSpec;
    use bdb_datagen::{DataGenerator, Dataset};

    fn docs() -> Vec<Document> {
        let g = NaiveTextGenerator::from_corpus(&RAW_TEXT_CORPUS);
        match g.generate(2, &VolumeSpec::Items(100)).unwrap() {
            Dataset::Text { docs, .. } => docs,
            _ => unreachable!(),
        }
    }

    #[test]
    fn index_bindings_agree() {
        let docs = docs();
        let (native, nres) = inverted_index_native(&docs);
        let (mr, _) = inverted_index_mapreduce(&docs, &JobConfig::default());
        assert_eq!(native, mr);
        assert!(nres.detail("terms").unwrap() > 0.0);
    }

    #[test]
    fn index_postings_are_sorted_unique() {
        let docs = docs();
        let (index, _) = inverted_index_native(&docs);
        for (term, postings) in &index {
            assert!(
                postings.windows(2).all(|w| w[0] < w[1]),
                "term {term} postings not strictly sorted"
            );
        }
    }

    #[test]
    fn pagerank_sums_to_one_and_ranks_hubs_highest() {
        let g = karate_club_graph();
        let (ranks, iters, result) = pagerank_native(&g.to_csr(), &PageRankConfig::default());
        let total: f64 = ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "total {total}");
        assert!(iters > 1);
        assert_eq!(result.detail("iterations"), Some(iters as f64));
        // Vertices 33 and 0 are the two hubs of the karate club.
        let mut idx: Vec<usize> = (0..ranks.len()).collect();
        idx.sort_by(|&a, &b| ranks[b].partial_cmp(&ranks[a]).unwrap());
        assert!(idx[..2].contains(&33) && idx[..2].contains(&0), "top: {:?}", &idx[..3]);
    }

    #[test]
    fn pagerank_mapreduce_matches_native() {
        let g = karate_club_graph();
        let cfg = PageRankConfig { epsilon: 1e-10, max_iterations: 60, ..Default::default() };
        let (native, _, _) = pagerank_native(&g.to_csr(), &cfg);
        let (mr, _, _) = pagerank_mapreduce(&g, &cfg, &JobConfig::default());
        for (a, b) in native.iter().zip(mr.iter()) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn pagerank_handles_dangling_nodes() {
        // 0 -> 1 -> 2, vertex 2 dangles.
        let mut g = EdgeListGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let (ranks, _, _) = pagerank_native(&g.to_csr(), &PageRankConfig::default());
        let total: f64 = ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
        assert!(ranks[2] > ranks[0], "sink should outrank source");
    }

    #[test]
    fn pagerank_empty_graph() {
        let g = EdgeListGraph::new(0);
        let (ranks, iters, _) = pagerank_native(&g.to_csr(), &PageRankConfig::default());
        assert!(ranks.is_empty());
        assert_eq!(iters, 0);
    }

    #[test]
    fn pagerank_respects_iteration_cap() {
        let g = karate_club_graph();
        let cfg = PageRankConfig { epsilon: 0.0, max_iterations: 3, ..Default::default() };
        let (_, iters, _) = pagerank_native(&g.to_csr(), &cfg);
        assert_eq!(iters, 3);
    }
}
