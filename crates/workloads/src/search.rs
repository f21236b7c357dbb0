//! Search-engine domain workloads: PageRank.
//!
//! Table 2 lists "Nutch Indexing" (HiBench) and "index, PageRank"
//! (BigDataBench's search-engine domain). The index build is the
//! `search/index` prescription, a keyed term aggregation the text kernels
//! in [`crate::micro`] run; PageRank runs natively over CSR and as the
//! classic iterative MapReduce job.

use crate::Work;
use bdb_common::graph::{CsrGraph, EdgeListGraph};
use bdb_mapreduce::{run_job, JobConfig};
use bdb_metrics::OpCounts;

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
/// redistribution. Returns (ranks, iterations, work).
pub fn pagerank_native(graph: &CsrGraph, config: &PageRankConfig) -> (Vec<f64>, u32, Work) {
    let n = graph.num_vertices();
    if n == 0 {
        return (Vec::new(), 0, Work::default());
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
    let edge_visits = graph.num_edges() as u64 * iterations as u64;
    let work = Work {
        operations: edge_visits,
        ops: OpCounts { record_ops: edge_visits, float_ops },
        input_items: n as u64,
    };
    (ranks, iterations, work)
}

/// PageRank as iterated MapReduce jobs (the classic Hadoop formulation):
/// each iteration is one job whose map emits rank shares along edges and
/// whose reduce sums them.
pub fn pagerank_mapreduce(
    graph: &EdgeListGraph,
    config: &PageRankConfig,
    job: &JobConfig,
) -> (Vec<f64>, u32, Work) {
    let n = graph.num_vertices();
    if n == 0 {
        return (Vec::new(), 0, Work::default());
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
    let work = Work {
        operations: record_ops,
        ops: OpCounts { record_ops, float_ops: graph.num_edges() as u64 * iterations as u64 },
        input_items: n as u64,
    };
    (ranks, iterations, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_datagen::corpus::karate_club_graph;

    #[test]
    fn pagerank_sums_to_one_and_ranks_hubs_highest() {
        let g = karate_club_graph();
        let (ranks, iters, work) = pagerank_native(&g.to_csr(), &PageRankConfig::default());
        let total: f64 = ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "total {total}");
        assert!(iters > 1);
        assert_eq!(work.operations, g.num_edges() as u64 * u64::from(iters));
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
        let (ranks, iters, work) = pagerank_native(&g.to_csr(), &PageRankConfig::default());
        assert!(ranks.is_empty());
        assert_eq!(iters, 0);
        assert_eq!(work, Work::default());
    }

    #[test]
    fn pagerank_respects_iteration_cap() {
        let g = karate_club_graph();
        let cfg = PageRankConfig { epsilon: 0.0, max_iterations: 3, ..Default::default() };
        let (_, iters, _) = pagerank_native(&g.to_csr(), &cfg);
        assert_eq!(iters, 3);
    }
}
