//! Graph containers for the social-network data path.
//!
//! The paper treats graphs as a first-class data source (*variety*): social
//! graph volume is measured in vertices (e.g. "2^20 vertices"), and
//! veracity for graphs means preserving structural characteristics such as
//! the degree distribution. [`EdgeListGraph`] is the mutable builder the
//! generators write into; [`CsrGraph`] is the compressed read-optimised form
//! the analytics workloads (PageRank, connected components) run on.


/// A directed graph stored as an edge list; cheap to build incrementally.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeListGraph {
    num_vertices: usize,
    edges: Vec<(u32, u32)>,
}

impl EdgeListGraph {
    /// An empty graph with `n` vertices and no edges.
    pub fn new(num_vertices: usize) -> Self {
        assert!(num_vertices <= u32::MAX as usize, "vertex ids are u32");
        Self { num_vertices, edges: Vec::new() }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Add a directed edge `u -> v`, growing the vertex count if needed.
    pub fn add_edge(&mut self, u: u32, v: u32) {
        let hi = u.max(v) as usize + 1;
        if hi > self.num_vertices {
            self.num_vertices = hi;
        }
        self.edges.push((u, v));
    }

    /// Add both `u -> v` and `v -> u`.
    pub fn add_undirected_edge(&mut self, u: u32, v: u32) {
        self.add_edge(u, v);
        self.add_edge(v, u);
    }

    /// The raw edge list.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Out-degree of every vertex.
    pub fn out_degrees(&self) -> Vec<u32> {
        let mut d = vec![0u32; self.num_vertices];
        for &(u, _) in &self.edges {
            d[u as usize] += 1;
        }
        d
    }

    /// In-degree of every vertex.
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut d = vec![0u32; self.num_vertices];
        for &(_, v) in &self.edges {
            d[v as usize] += 1;
        }
        d
    }

    /// Remove duplicate edges and self-loops.
    pub fn dedup(&mut self) {
        self.edges.retain(|(u, v)| u != v);
        self.edges.sort_unstable();
        self.edges.dedup();
    }

    /// Convert to the compressed sparse-row form.
    pub fn to_csr(&self) -> CsrGraph {
        CsrGraph::from_edges(self.num_vertices, &self.edges)
    }
}

/// A read-only compressed sparse-row graph.
///
/// `offsets[v]..offsets[v+1]` indexes into `targets`, giving `v`'s
/// out-neighbours. Construction counts then places, so it is O(V + E) with
/// no per-vertex allocation — the layout PageRank iterates over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl CsrGraph {
    /// Build from a directed edge list over `n` vertices.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut counts = vec![0usize; n + 1];
        for &(u, _) in edges {
            counts[u as usize + 1] += 1;
        }
        for i in 1..=n {
            counts[i] += counts[i - 1];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut targets = vec![0u32; edges.len()];
        for &(u, v) in edges {
            targets[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
        }
        Self { offsets, targets }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-neighbours of `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: u32) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }
}

/// The degree distribution of a graph: the key structural veracity
/// characteristic for graph data (Section 5.1).
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeDistribution {
    /// `counts[d]` = number of vertices with degree `d`.
    counts: Vec<u64>,
    total_vertices: u64,
}

impl DegreeDistribution {
    /// Compute the out-degree distribution of a graph.
    pub fn from_degrees(degrees: &[u32]) -> Self {
        let max = degrees.iter().copied().max().unwrap_or(0) as usize;
        let mut counts = vec![0u64; max + 1];
        for &d in degrees {
            counts[d as usize] += 1;
        }
        Self { counts, total_vertices: degrees.len() as u64 }
    }

    /// P(degree = d) for each d, as a dense probability vector.
    pub fn pmf(&self) -> Vec<f64> {
        if self.total_vertices == 0 {
            return Vec::new();
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total_vertices as f64)
            .collect()
    }

    /// Mean degree.
    pub fn mean(&self) -> f64 {
        if self.total_vertices == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(d, &c)| d as u64 * c)
            .sum();
        sum as f64 / self.total_vertices as f64
    }

    /// Maximum observed degree.
    pub fn max_degree(&self) -> usize {
        self.counts.len().saturating_sub(1)
    }

    /// Maximum-likelihood estimate of a power-law exponent alpha for
    /// degrees >= `d_min` (Clauset–Shalizi–Newman discrete approximation).
    ///
    /// Returns `None` when fewer than two vertices qualify.
    pub fn power_law_alpha(&self, d_min: usize) -> Option<f64> {
        let d_min = d_min.max(1);
        let mut n = 0u64;
        let mut log_sum = 0.0f64;
        for (d, &c) in self.counts.iter().enumerate().skip(d_min) {
            if c > 0 {
                n += c;
                log_sum += c as f64 * ((d as f64) / (d_min as f64 - 0.5)).ln();
            }
        }
        if n < 2 || log_sum <= 0.0 {
            return None;
        }
        Some(1.0 + n as f64 / log_sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> EdgeListGraph {
        let mut g = EdgeListGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        g
    }

    #[test]
    fn edge_list_basics() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_degrees(), vec![1, 1, 1]);
        assert_eq!(g.in_degrees(), vec![1, 1, 1]);
    }

    #[test]
    fn add_edge_grows_vertex_count() {
        let mut g = EdgeListGraph::new(0);
        g.add_edge(5, 2);
        assert_eq!(g.num_vertices(), 6);
    }

    #[test]
    fn dedup_removes_loops_and_duplicates() {
        let mut g = EdgeListGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        g.add_edge(1, 1);
        g.dedup();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn csr_matches_edge_list() {
        let g = triangle();
        let csr = g.to_csr();
        assert_eq!(csr.num_vertices(), 3);
        assert_eq!(csr.num_edges(), 3);
        assert_eq!(csr.neighbors(0), &[1]);
        assert_eq!(csr.neighbors(2), &[0]);
        assert_eq!(csr.out_degree(1), 1);
    }

    #[test]
    fn csr_handles_isolated_vertices() {
        let csr = CsrGraph::from_edges(4, &[(0, 1)]);
        assert_eq!(csr.neighbors(2), &[] as &[u32]);
        assert_eq!(csr.out_degree(3), 0);
    }

    #[test]
    fn csr_multiple_neighbors_in_order() {
        let edges = vec![(0, 3), (0, 1), (0, 2)];
        let csr = CsrGraph::from_edges(4, &edges);
        // Placement preserves edge-list order.
        assert_eq!(csr.neighbors(0), &[3, 1, 2]);
    }

    #[test]
    fn degree_distribution_pmf_sums_to_one() {
        let degrees = vec![1, 1, 2, 3, 3, 3];
        let dd = DegreeDistribution::from_degrees(&degrees);
        let pmf = dd.pmf();
        let total: f64 = pmf.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((dd.mean() - 13.0 / 6.0).abs() < 1e-12);
        assert_eq!(dd.max_degree(), 3);
    }

    #[test]
    fn power_law_fit_recovers_steepness_ordering() {
        // A steeper (more skewed) distribution should fit a larger alpha.
        let shallow: Vec<u32> = (1..=100).flat_map(|d| vec![d; (1000 / d) as usize]).collect();
        let steep: Vec<u32> = (1..=100)
            .flat_map(|d| vec![d; (10_000 / (d as u64 * d as u64 * d as u64)) as usize])
            .collect();
        let a_shallow = DegreeDistribution::from_degrees(&shallow)
            .power_law_alpha(1)
            .unwrap();
        let a_steep = DegreeDistribution::from_degrees(&steep)
            .power_law_alpha(1)
            .unwrap();
        assert!(a_steep > a_shallow, "{a_steep} vs {a_shallow}");
    }

    #[test]
    fn power_law_fit_needs_data() {
        let dd = DegreeDistribution::from_degrees(&[0]);
        assert_eq!(dd.power_law_alpha(1), None);
    }

    #[test]
    fn empty_distribution() {
        let dd = DegreeDistribution::from_degrees(&[]);
        assert!(dd.pmf().is_empty());
        assert_eq!(dd.mean(), 0.0);
    }
}
