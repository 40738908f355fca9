//! The [`Graph`] type: a node set with both adjacency directions.

use crate::{Coo, Csr, NodeId};

/// A directed graph stored as CSR (out-edges) plus, when the two differ, its
/// transpose (in-edges).
///
/// Degree-Aware quantization keys on *in*-degree (paper §IV), while the
/// aggregation engines stream *out*-neighbors of freshly combined nodes
/// (outer-product dataflow, paper §V-D) — so both directions are first-class.
/// A symmetric graph's transpose is its CSR, so it stores the CSR once and
/// [`Graph::csc`] returns it. The choice is a function of the edges, so
/// equal graphs have equal representations.
///
/// # Example
///
/// ```
/// use mega_graph::Graph;
///
/// let g = Graph::from_directed_edges(3, vec![(0, 1), (2, 1)]);
/// assert_eq!(g.in_degree(1), 2);
/// assert_eq!(g.out_degree(0), 1);
/// assert_eq!(g.out_neighbors(2), &[1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    csr: Csr,
    /// The transpose, stored only if it differs from `csr`.
    csc: Option<Csr>,
}

impl Graph {
    /// Builds a graph from directed edges; duplicates and self-loops are
    /// removed.
    pub fn from_directed_edges(num_nodes: usize, edges: Vec<(NodeId, NodeId)>) -> Self {
        let mut coo = Coo::from_edges(num_nodes, edges);
        coo.dedup();
        Self::from_coo(&coo)
    }

    /// Builds a symmetric graph: each input pair contributes both directions.
    pub fn from_undirected_edges(num_nodes: usize, edges: Vec<(NodeId, NodeId)>) -> Self {
        let mut coo = Coo::from_edges(num_nodes, edges);
        coo.symmetrize();
        Self::from_coo(&coo)
    }

    /// Builds a graph from a canonicalized COO list.
    pub fn from_coo(coo: &Coo) -> Self {
        Self::from_csr(Csr::from_coo(coo))
    }

    /// Builds a graph directly from a canonical out-edge CSR (sorted,
    /// deduplicated rows — see [`Csr::from_parts`]). A symmetric CSR is
    /// kept alone; any other is transposed once for the in-edge view.
    /// Streaming builders use this to avoid materializing an intermediate
    /// COO copy of the edge list.
    pub fn from_csr(csr: Csr) -> Self {
        let csc = (!csr.is_symmetric()).then(|| csr.transpose());
        Self { csr, csc }
    }

    /// Builds a graph from a CSR its builder wrote symmetric (every entry
    /// with its reverse), without [`Graph::from_csr`]'s check: the
    /// generators know their output's symmetry, and at `synth:100k` the
    /// check costs three times the transpose it saves.
    pub(crate) fn from_symmetric_csr(csr: Csr) -> Self {
        debug_assert!(csr.is_symmetric(), "CSR built as symmetric is not");
        Self { csr, csc: None }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.csr.num_rows()
    }

    /// Number of directed edges (a symmetric pair counts twice, matching the
    /// edge counts reported in Table II of the paper).
    pub fn num_edges(&self) -> usize {
        self.csr.nnz()
    }

    /// Out-adjacency in CSR form.
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// In-adjacency (the transpose) in CSR form — i.e. the CSC view of the
    /// adjacency matrix.
    pub fn csc(&self) -> &Csr {
        self.csc.as_ref().unwrap_or(&self.csr)
    }

    /// Consumes the graph, returning its CSR and, unless the graph is
    /// symmetric, its transpose.
    pub fn into_parts(self) -> (Csr, Option<Csr>) {
        (self.csr, self.csc)
    }

    /// Sorted out-neighbors of `v`.
    pub fn out_neighbors(&self, v: usize) -> &[NodeId] {
        self.csr.row(v)
    }

    /// Sorted in-neighbors of `v`.
    pub fn in_neighbors(&self, v: usize) -> &[NodeId] {
        self.csc().row(v)
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: usize) -> usize {
        self.csr.degree(v)
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: usize) -> usize {
        self.csc().degree(v)
    }

    /// All in-degrees, indexed by node.
    pub fn in_degrees(&self) -> Vec<usize> {
        (0..self.num_nodes()).map(|v| self.in_degree(v)).collect()
    }

    /// Mean in-degree (equals mean out-degree).
    pub fn average_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_nodes() as f64
        }
    }

    /// Maximum in-degree over all nodes.
    pub fn max_in_degree(&self) -> usize {
        (0..self.num_nodes())
            .map(|v| self.in_degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Density of the adjacency matrix, `nnz / n^2`.
    pub fn adjacency_density(&self) -> f64 {
        let n = self.num_nodes();
        if n == 0 {
            0.0
        } else {
            self.num_edges() as f64 / (n as f64 * n as f64)
        }
    }

    /// Returns `true` if every edge has its reverse.
    pub fn is_symmetric(&self) -> bool {
        self.csc.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_csr_is_stored_once() {
        let csr = Graph::from_undirected_edges(4, vec![(0, 1), (1, 2), (1, 3)])
            .csr()
            .clone();
        let g = Graph::from_csr(csr.clone());
        assert!(g.csc.is_none(), "a symmetric graph keeps no transpose");
        assert_eq!(g.csc(), &csr);
        assert_eq!(g.in_neighbors(1), &[0, 2, 3]);
        assert_eq!(g.into_parts(), (csr, None));
    }

    #[test]
    fn asymmetric_csr_stores_its_transpose() {
        let csr = Graph::from_directed_edges(3, vec![(0, 1), (1, 0), (1, 2)])
            .csr()
            .clone();
        let g = Graph::from_csr(csr.clone());
        assert_eq!(g.csc, Some(csr.transpose()));
        assert_eq!(g.in_neighbors(2), &[1]);
        assert_eq!(g.out_neighbors(2), &[] as &[NodeId]);
        assert_ne!(g, Graph::from_undirected_edges(3, vec![(0, 1), (1, 2)]));
    }

    #[test]
    fn directed_edges_keep_direction() {
        let g = Graph::from_directed_edges(3, vec![(0, 1), (1, 2)]);
        assert_eq!(g.out_degree(0), 1);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.in_degree(2), 1);
        assert!(!g.is_symmetric());
    }

    #[test]
    fn undirected_edges_are_symmetric() {
        let g = Graph::from_undirected_edges(4, vec![(0, 1), (2, 3), (1, 2)]);
        assert!(g.is_symmetric());
        assert_eq!(g.num_edges(), 6);
        for v in 0..4 {
            assert_eq!(g.in_degree(v), g.out_degree(v));
        }
    }

    #[test]
    fn duplicates_and_self_loops_removed() {
        let g = Graph::from_directed_edges(3, vec![(0, 1), (0, 1), (1, 1), (2, 0)]);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn average_and_max_degree() {
        let g = Graph::from_directed_edges(4, vec![(0, 3), (1, 3), (2, 3)]);
        assert_eq!(g.max_in_degree(), 3);
        assert!((g.average_degree() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_degenerate_stats() {
        let g = Graph::from_directed_edges(0, vec![]);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.max_in_degree(), 0);
    }

    #[test]
    fn adjacency_density_matches_definition() {
        let g = Graph::from_directed_edges(10, vec![(0, 1), (2, 3), (4, 5)]);
        assert!((g.adjacency_density() - 0.03).abs() < 1e-12);
    }
}
