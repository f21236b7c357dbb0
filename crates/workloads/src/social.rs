//! Social-network domain workloads: k-means and connected components.
//!
//! Table 2 lists "K-means, connected components (CC)" under
//! BigDataBench's social-network domain and k-means under HiBench's
//! offline analytics. K-means comes as a native kernel and as iterated
//! MapReduce jobs (assignment map + centroid-average reduce); connected
//! components uses label propagation over CSR.

use crate::Work;
use bdb_common::graph::CsrGraph;
use bdb_common::prelude::*;
use bdb_mapreduce::{run_job, JobConfig};
use bdb_metrics::OpCounts;

/// A point in feature space.
pub type Point = Vec<f64>;

/// K-means configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Stop when total centroid movement falls below this.
    pub epsilon: f64,
    /// Hard iteration cap.
    pub max_iterations: u32,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        Self { k: 4, epsilon: 1e-6, max_iterations: 100 }
    }
}

/// Engine adapter: extract feature vectors from a generated table, one
/// point per row over the table's numeric (Int/Float) columns. This is
/// how table-backed iterative prescriptions feed the clustering kernels
/// with the data the pipeline actually generated.
///
/// # Errors
/// Fails when the table is empty or has no numeric columns.
pub fn points_from_table(table: &Table) -> Result<Vec<Point>> {
    let numeric: Vec<usize> = table
        .schema()
        .fields()
        .iter()
        .enumerate()
        .filter(|(_, f)| matches!(f.data_type, DataType::Int | DataType::Float))
        .map(|(i, _)| i)
        .collect();
    if numeric.is_empty() {
        return Err(BdbError::Execution(
            "table has no numeric columns to use as feature vectors".into(),
        ));
    }
    if table.is_empty() {
        return Err(BdbError::Execution("table has no rows to cluster".into()));
    }
    Ok(table
        .rows()
        .iter()
        .map(|row| {
            numeric
                .iter()
                .map(|&i| row[i].as_f64().unwrap_or(0.0))
                .collect()
        })
        .collect())
}

fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn nearest(centroids: &[Point], p: &Point) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let d = squared_distance(c, p);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

fn init_centroids(points: &[Point], k: usize, seed: u64) -> Vec<Point> {
    // Deterministic spread-out initialisation: evenly spaced samples of a
    // shuffled index range.
    let mut rng = SeedTree::new(seed).child_named("init").rng();
    let mut idx: Vec<usize> = (0..points.len()).collect();
    rng.shuffle(&mut idx);
    (0..k).map(|i| points[idx[i % idx.len()]].clone()).collect()
}

/// Native Lloyd's k-means. Returns (centroids, assignments, iterations,
/// work).
pub fn kmeans_native(
    points: &[Point],
    config: &KMeansConfig,
    seed: u64,
) -> (Vec<Point>, Vec<usize>, u32, Work) {
    assert!(!points.is_empty() && config.k > 0, "kmeans needs points and k");
    let dim = points[0].len();
    let mut centroids = init_centroids(points, config.k, seed);
    let mut assignments = vec![0usize; points.len()];
    let mut iterations = 0u32;
    let mut float_ops = 0u64;
    loop {
        iterations += 1;
        // Assignment step.
        for (i, p) in points.iter().enumerate() {
            assignments[i] = nearest(&centroids, p);
        }
        float_ops += (points.len() * config.k * dim * 3) as u64;
        // Update step.
        let mut sums = vec![vec![0.0f64; dim]; config.k];
        let mut counts = vec![0usize; config.k];
        for (p, &a) in points.iter().zip(&assignments) {
            counts[a] += 1;
            for (s, &x) in sums[a].iter_mut().zip(p) {
                *s += x;
            }
        }
        let mut movement = 0.0;
        for (c, (sum, &count)) in centroids.iter_mut().zip(sums.iter().zip(&counts)) {
            if count == 0 {
                continue; // empty cluster keeps its centroid
            }
            let new: Point = sum.iter().map(|s| s / count as f64).collect();
            movement += squared_distance(c, &new).sqrt();
            *c = new;
        }
        float_ops += (points.len() * dim + config.k * dim) as u64;
        if movement < config.epsilon || iterations >= config.max_iterations {
            break;
        }
    }
    let point_visits = points.len() as u64 * iterations as u64;
    let work = Work {
        operations: point_visits,
        ops: OpCounts { record_ops: point_visits, float_ops },
        input_items: points.len() as u64,
    };
    (centroids, assignments, iterations, work)
}

/// K-means as iterated MapReduce jobs: map assigns points to the nearest
/// centroid, reduce averages each cluster.
pub fn kmeans_mapreduce(
    points: &[Point],
    config: &KMeansConfig,
    seed: u64,
    job: &JobConfig,
) -> (Vec<Point>, Vec<usize>, u32, Work) {
    assert!(!points.is_empty() && config.k > 0, "kmeans needs points and k");
    let dim = points[0].len();
    let mut centroids = init_centroids(points, config.k, seed);
    let mut iterations = 0u32;
    let mut record_ops = 0u64;
    loop {
        iterations += 1;
        let r = run_job(
            job,
            points,
            |p: &Point, emit| emit(nearest(&centroids, p), p),
            |k: &usize, vs: Vec<&Point>, out| {
                let n = vs.len() as f64;
                let mut mean = vec![0.0f64; vs[0].len()];
                for v in vs {
                    for (m, x) in mean.iter_mut().zip(v) {
                        *m += x;
                    }
                }
                for m in &mut mean {
                    *m /= n;
                }
                out((*k, mean));
            },
        );
        record_ops += r.counters.total_record_ops();
        let mut movement = 0.0;
        for (k, mean) in r.outputs {
            movement += squared_distance(&centroids[k], &mean).sqrt();
            centroids[k] = mean;
        }
        if movement < config.epsilon || iterations >= config.max_iterations {
            break;
        }
    }
    let assignments: Vec<usize> = points.iter().map(|p| nearest(&centroids, p)).collect();
    let work = Work {
        operations: record_ops,
        ops: OpCounts {
            record_ops,
            float_ops: (points.len() * config.k * dim * 3) as u64 * iterations as u64,
        },
        input_items: points.len() as u64,
    };
    (centroids, assignments, iterations, work)
}

/// Connected components by label propagation over an undirected graph
/// (given as a bidirectional CSR). Returns per-vertex component labels
/// (the minimum vertex id in the component), iterations and work.
pub fn connected_components(graph: &CsrGraph) -> (Vec<u32>, u32, Work) {
    let n = graph.num_vertices();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut iterations = 0u32;
    let mut record_ops = 0u64;
    let mut changed = n > 0;
    while changed {
        iterations += 1;
        changed = false;
        for v in 0..n as u32 {
            let mut best = labels[v as usize];
            for &t in graph.neighbors(v) {
                best = best.min(labels[t as usize]);
            }
            record_ops += graph.out_degree(v) as u64 + 1;
            if best < labels[v as usize] {
                labels[v as usize] = best;
                changed = true;
            }
        }
    }
    (labels, iterations, label_work(record_ops, n))
}

/// The work of a label-propagation run over `n` vertices.
fn label_work(record_ops: u64, n: usize) -> Work {
    Work {
        operations: record_ops,
        ops: OpCounts { record_ops, float_ops: 0 },
        input_items: n as u64,
    }
}

/// The number of distinct components in a labelling.
pub fn component_count(labels: &[u32]) -> usize {
    labels.iter().collect::<std::collections::BTreeSet<_>>().len()
}

/// Connected components as iterated MapReduce jobs (the Hadoop/Pregel-style
/// formulation BigDataBench runs): each iteration, every vertex sends its
/// current label to its neighbours and adopts the minimum it hears.
pub fn connected_components_mapreduce(
    graph: &CsrGraph,
    job: &JobConfig,
) -> (Vec<u32>, u32, Work) {
    let n = graph.num_vertices();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut iterations = 0u32;
    let mut record_ops = 0u64;
    let mut changed = n > 0;
    let vertices: Vec<u32> = (0..n as u32).collect();
    while changed {
        iterations += 1;
        let r = run_job(
            job,
            &vertices,
            |v: &u32, emit| {
                // A vertex hears its own label plus its neighbours'.
                let label = labels[*v as usize];
                emit(*v, label);
                for &t in graph.neighbors(*v) {
                    emit(t, label);
                }
            },
            |v: &u32, ls: Vec<u32>, out| {
                out((*v, ls.into_iter().min().expect("at least own label")))
            },
        );
        record_ops += r.counters.total_record_ops();
        changed = false;
        for (v, min_label) in r.outputs {
            if min_label < labels[v as usize] {
                labels[v as usize] = min_label;
                changed = true;
            }
        }
    }
    (labels, iterations, label_work(record_ops, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_common::graph::EdgeListGraph;
    use bdb_datagen::corpus::karate_club_graph;

    /// `n` points in `k` blobs, each point's blob chosen at random: blob
    /// `c` is centred at `100·c` on every axis, with uniform jitter of
    /// width `spread`. Returns (points, blob of each point).
    fn blobs(n: usize, k: usize, dim: usize, spread: f64, seed: u64) -> (Vec<Point>, Vec<usize>) {
        let mut rng = Xoshiro256::new(seed);
        (0..n)
            .map(|_| {
                let c = rng.next_bounded(k as u64) as usize;
                let p = (0..dim)
                    .map(|_| c as f64 * 100.0 + (rng.next_f64() - 0.5) * spread)
                    .collect();
                (p, c)
            })
            .unzip()
    }

    #[test]
    fn kmeans_recovers_well_separated_clusters() {
        let (points, truth) = blobs(600, 3, 2, 4.0, 2);
        let cfg = KMeansConfig { k: 3, ..Default::default() };
        let (_, assignments, iters, work) = kmeans_native(&points, &cfg, 11);
        assert!(iters >= 1);
        assert_eq!(work.operations, 600 * u64::from(iters));
        // Cluster purity: points sharing a true component should mostly
        // share an assigned cluster.
        let mut agree = 0usize;
        let mut total = 0usize;
        for i in 0..points.len() {
            for j in (i + 1)..points.len().min(i + 50) {
                total += 1;
                if (truth[i] == truth[j]) == (assignments[i] == assignments[j]) {
                    agree += 1;
                }
            }
        }
        let purity = agree as f64 / total as f64;
        assert!(purity > 0.9, "pair purity {purity}");
    }

    #[test]
    fn kmeans_mapreduce_matches_native() {
        let (points, _) = blobs(300, 3, 2, 4.0, 3);
        let cfg = KMeansConfig { k: 3, epsilon: 1e-9, max_iterations: 50 };
        let (cn, an, _, _) = kmeans_native(&points, &cfg, 5);
        let (cm, am, _, _) = kmeans_mapreduce(&points, &cfg, 5, &JobConfig::default());
        // Same init + same updates = same result.
        for (a, b) in cn.iter().zip(cm.iter()) {
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((x - y).abs() < 1e-6, "{x} vs {y}");
            }
        }
        assert_eq!(an, am);
    }

    #[test]
    fn cc_finds_single_component_of_karate_club() {
        let g = karate_club_graph();
        let (labels, iters, _) = connected_components(&g.to_csr());
        assert!(labels.iter().all(|&l| l == 0), "karate club is connected");
        assert!(iters >= 1);
        assert_eq!(component_count(&labels), 1);
    }

    #[test]
    fn cc_separates_disconnected_parts() {
        let mut g = EdgeListGraph::new(6);
        g.add_undirected_edge(0, 1);
        g.add_undirected_edge(1, 2);
        g.add_undirected_edge(3, 4);
        // vertex 5 isolated
        let (labels, _, _) = connected_components(&g.to_csr());
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_eq!(labels[5], 5);
        assert_eq!(component_count(&labels), 3);
    }

    #[test]
    fn cc_mapreduce_matches_native() {
        let g = karate_club_graph();
        let csr = g.to_csr();
        let (native, _, _) = connected_components(&csr);
        let (mr, _, _) = connected_components_mapreduce(&csr, &JobConfig::default());
        assert_eq!(native, mr);
        // A disconnected graph too.
        let mut g2 = EdgeListGraph::new(8);
        g2.add_undirected_edge(0, 1);
        g2.add_undirected_edge(2, 3);
        g2.add_undirected_edge(3, 4);
        let csr2 = g2.to_csr();
        let (native2, _, _) = connected_components(&csr2);
        let (mr2, _, _) = connected_components_mapreduce(&csr2, &JobConfig::default());
        assert_eq!(native2, mr2);
    }

    #[test]
    fn cc_empty_graph() {
        let g = EdgeListGraph::new(0);
        let (labels, iters, _) = connected_components(&g.to_csr());
        assert!(labels.is_empty());
        assert_eq!(iters, 0);
    }

    #[test]
    #[should_panic(expected = "kmeans needs points")]
    fn kmeans_rejects_empty() {
        let _ = kmeans_native(&[], &KMeansConfig::default(), 1);
    }
}
