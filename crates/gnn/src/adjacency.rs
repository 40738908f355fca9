//! Normalized adjacency construction for each aggregator — one-shot
//! ([`build_adjacency`]) and incrementally maintained ([`DynAdjacency`]).
//!
//! Every weight of a normalized adjacency is a function of degrees: GCN's
//! `1/sqrt(d̂_dst) · 1/sqrt(d̂_src)`, GIN's `1`, GraphSAGE's
//! `1/(sampled + 1)`. So [`DynAdjacency`] stores only columns (one flat
//! [`RowStore`], the self-loop merged in sorted position) plus, for GCN,
//! one `1/sqrt(d̂)` per node, and [`AdjacencyView::row_weights`] hands the
//! forward pass a [`RowWeights`] that evaluates the same `f32` expression
//! [`build_adjacency`] stores, bit for bit. Per node that is a 12-byte span,
//! four bytes per column, and (GCN) four bytes of `1/sqrt(d̂)`.

use std::rc::Rc;

use mega_graph::dynamic::{DeltaEffect, DynamicGraph};
use mega_graph::generate::shuffle;
use mega_graph::{Graph, NodeId, RowStore};
use mega_tensor::CsrMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The aggregation scheme of a GNN model (paper Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregatorKind {
    /// GCN: symmetric normalization `D̂^{-1/2}(A+I)D̂^{-1/2}`.
    GcnSymmetric,
    /// GIN: unnormalized sum `A + I` (this is what makes aggregated values
    /// grow with in-degree — the paper's Fig. 3 motivation).
    GinSum,
    /// GraphSAGE: row-normalized mean over at most `sample` in-neighbors
    /// plus the node itself.
    SageMean {
        /// Maximum sampled in-neighbors per node (25 in Table III).
        sample: usize,
        /// Sampling seed.
        seed: u64,
    },
}

/// The weights of one adjacency row, aligned with its
/// [`AdjacencyView::row_indices`]: stored, or computed from degrees.
#[derive(Debug, Clone, Copy)]
pub enum RowWeights<'a> {
    /// Stored values, one per column (the static [`CsrMatrix`]).
    Explicit(&'a [f32]),
    /// One weight for every column (GIN: `1`; GraphSAGE: `1 / len`).
    Uniform(f32),
    /// GCN symmetric normalization: column `c` weighs `dst · src[c]`,
    /// where `src` holds every node's `1/sqrt(d̂)` and `dst` is the row's.
    Symmetric {
        /// The row's own `1/sqrt(d̂)`.
        dst: f32,
        /// `1/sqrt(d̂)` of every node, indexed by column id.
        src: &'a [f32],
    },
}

impl RowWeights<'_> {
    /// The weight of the row's `k`-th column, whose id is `col`.
    #[inline]
    pub fn at(&self, k: usize, col: u32) -> f32 {
        match *self {
            RowWeights::Explicit(values) => values[k],
            RowWeights::Uniform(w) => w,
            RowWeights::Symmetric { dst, src } => dst * src[col as usize],
        }
    }
}

/// Read-only row access to a normalized adjacency, the interface the sliced
/// forward pass ([`crate::infer`]) consumes. Implemented by the static
/// [`CsrMatrix`] and the incrementally maintained [`DynAdjacency`], so
/// serving can swap in a mutable adjacency without touching the kernels.
pub trait AdjacencyView {
    /// Number of rows (== columns; adjacencies here are square).
    fn rows(&self) -> usize;
    /// Column indices of row `r`, sorted ascending.
    fn row_indices(&self, r: usize) -> &[u32];
    /// Weights of row `r`, aligned with [`AdjacencyView::row_indices`].
    fn row_weights(&self, r: usize) -> RowWeights<'_>;
}

impl<T: AdjacencyView + ?Sized> AdjacencyView for Rc<T> {
    fn rows(&self) -> usize {
        (**self).rows()
    }
    fn row_indices(&self, r: usize) -> &[u32] {
        (**self).row_indices(r)
    }
    fn row_weights(&self, r: usize) -> RowWeights<'_> {
        (**self).row_weights(r)
    }
}

impl<T: AdjacencyView + ?Sized> AdjacencyView for std::sync::Arc<T> {
    fn rows(&self) -> usize {
        (**self).rows()
    }
    fn row_indices(&self, r: usize) -> &[u32] {
        (**self).row_indices(r)
    }
    fn row_weights(&self, r: usize) -> RowWeights<'_> {
        (**self).row_weights(r)
    }
}

impl AdjacencyView for CsrMatrix {
    fn rows(&self) -> usize {
        CsrMatrix::rows(self)
    }
    fn row_indices(&self, r: usize) -> &[u32] {
        CsrMatrix::row_indices(self, r)
    }
    fn row_weights(&self, r: usize) -> RowWeights<'_> {
        RowWeights::Explicit(CsrMatrix::row_values(self, r))
    }
}

/// The deterministic per-row RNG GraphSAGE sampling draws from.
///
/// Seeding per `(seed, dst)` — instead of one RNG streamed across rows in
/// order — makes each row's sample a pure function of the node's neighbor
/// set, which is what lets [`DynAdjacency`] rebuild a single row after a
/// mutation and land bit-exactly on the from-scratch result.
fn sage_row_rng(seed: u64, dst: NodeId) -> StdRng {
    // splitmix64-style mix of the seed and the row id.
    let mut z = seed ^ (dst as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// In-neighbors of a row after GraphSAGE sampling: at most `sample` of
/// them, sorted ascending.
fn sage_sample(neighbors: &[NodeId], sample: usize, seed: u64, dst: NodeId) -> Vec<NodeId> {
    let mut chosen: Vec<NodeId> = neighbors.to_vec();
    if chosen.len() > sample {
        let mut rng = sage_row_rng(seed, dst);
        shuffle(&mut chosen, &mut rng);
        chosen.truncate(sample);
        chosen.sort_unstable();
    }
    chosen
}

/// `1/sqrt(d̂)` with the self-loop degree `d̂ = in_degree + 1`.
fn gcn_inv_sqrt(in_degree: usize) -> f32 {
    1.0 / ((in_degree + 1) as f32).sqrt()
}

/// Builds the normalized adjacency `Ã` as a sparse matrix whose rows are
/// destinations and columns sources, so aggregation is `Ã · H`.
pub fn build_adjacency(graph: &Graph, kind: AggregatorKind) -> Rc<CsrMatrix> {
    let n = graph.num_nodes();
    let mut triplets: Vec<(u32, u32, f32)> = Vec::with_capacity(graph.num_edges() + n);
    match kind {
        AggregatorKind::GcnSymmetric => {
            // d̂(v) = in_degree + 1 (self-loop).
            let inv_sqrt: Vec<f32> = (0..n).map(|v| gcn_inv_sqrt(graph.in_degree(v))).collect();
            for dst in 0..n {
                triplets.push((dst as u32, dst as u32, inv_sqrt[dst] * inv_sqrt[dst]));
                for &src in graph.in_neighbors(dst) {
                    triplets.push((dst as u32, src, inv_sqrt[dst] * inv_sqrt[src as usize]));
                }
            }
        }
        AggregatorKind::GinSum => {
            for dst in 0..n {
                triplets.push((dst as u32, dst as u32, 1.0));
                for &src in graph.in_neighbors(dst) {
                    triplets.push((dst as u32, src, 1.0));
                }
            }
        }
        AggregatorKind::SageMean { sample, seed } => {
            for dst in 0..n {
                let chosen = sage_sample(graph.in_neighbors(dst), sample, seed, dst as NodeId);
                let w = 1.0 / (chosen.len() + 1) as f32;
                triplets.push((dst as u32, dst as u32, w));
                for src in chosen {
                    triplets.push((dst as u32, src, w));
                }
            }
        }
    }
    Rc::new(CsrMatrix::from_triplets(n, n, &triplets))
}

/// A normalized adjacency under mutation: the columns of every row in one
/// [`RowStore`] (sorted, self-loop merged in), weights computed from
/// degrees ([`RowWeights`]), so a graph delta rewrites only the rows whose
/// in-neighbor set changed instead of rebuilding the whole matrix.
///
/// Rewriting a row is `O(deg)`, and every row reads bit-exactly what
/// [`build_adjacency`] would produce for the same graph (the incremental ==
/// from-scratch equivalence the dynamic-graph property tests assert), so a
/// [`DynAdjacency`] can serve the forward pass directly through
/// [`AdjacencyView`].
#[derive(Debug, Clone, PartialEq)]
pub struct DynAdjacency {
    kind: AggregatorKind,
    cols: RowStore<u32>,
    /// GCN only (empty otherwise): `1/sqrt(d̂)` of every node.
    inv_sqrt: Vec<f32>,
    refreshed: u64,
}

impl DynAdjacency {
    /// Builds every row from scratch for the current state of `graph`,
    /// reserving exactly: a fresh adjacency carries no slack.
    pub fn build(graph: &DynamicGraph, kind: AggregatorKind) -> Self {
        let n = graph.num_nodes();
        let row_len = |v: usize| match kind {
            AggregatorKind::SageMean { sample, .. } => graph.in_degree(v).min(sample) + 1,
            _ => graph.in_degree(v) + 1,
        };
        let entries = (0..n).map(row_len).sum();
        let mut adj = Self {
            kind,
            cols: RowStore::with_capacity(n, entries),
            inv_sqrt: Vec::new(),
            refreshed: 0,
        };
        if matches!(kind, AggregatorKind::GcnSymmetric) {
            adj.inv_sqrt = (0..n).map(|v| gcn_inv_sqrt(graph.in_degree(v))).collect();
        }
        let mut row = Vec::new();
        for v in 0..n {
            adj.columns_into(graph, v as NodeId, &mut row);
            adj.cols.push_row(&row);
        }
        adj
    }

    /// The aggregation scheme the rows encode.
    pub fn kind(&self) -> AggregatorKind {
        self.kind
    }

    /// Cumulative number of rows whose weights or columns
    /// [`DynAdjacency::apply`] changed since construction (the sum of the
    /// [`DynAdjacency::dirty_rows`] it handled). The incremental-cost tests
    /// assert this stays proportional to the touched neighborhoods, not the
    /// graph.
    pub fn rows_refreshed(&self) -> u64 {
        self.refreshed
    }

    /// The rows a [`DeltaEffect`] dirties under this aggregator:
    ///
    /// * every row whose in-neighbor set changed,
    /// * every freshly added node's row, and
    /// * for GCN symmetric normalization only: every row referencing a
    ///   degree-changed node as a *column* (its `1/sqrt(d̂)` factor moved),
    ///   i.e. the out-neighbors of each changed node.
    ///
    /// Sorted and deduplicated.
    pub fn dirty_rows(&self, graph: &DynamicGraph, effect: &DeltaEffect) -> Vec<NodeId> {
        let mut dirty: Vec<NodeId> = effect.rows_changed.clone();
        dirty.extend_from_slice(&effect.added_nodes);
        if matches!(self.kind, AggregatorKind::GcnSymmetric) {
            for &b in &effect.rows_changed {
                dirty.extend_from_slice(graph.out_neighbors(b as usize));
            }
        }
        dirty.sort_unstable();
        dirty.dedup();
        dirty
    }

    /// Catches the adjacency up with a mutation that already happened on
    /// `graph`. Returns how many rows it dirtied.
    ///
    /// `graph` must be the post-mutation state and `effect` the value
    /// [`DynamicGraph::apply`] returned for it.
    pub fn apply(&mut self, graph: &DynamicGraph, effect: &DeltaEffect) -> usize {
        self.apply_dirty(graph, effect).len()
    }

    /// Like [`DynAdjacency::apply`], but returns the sorted
    /// [`DynAdjacency::dirty_rows`]: every row whose columns or weights
    /// changed. Consumers that keep *derived* per-row state (e.g. a serving
    /// engine's logits cache) key their invalidation off this list.
    ///
    /// Only the columns of rows whose in-neighbor set changed and of added
    /// nodes are rewritten (and, under GCN, those nodes' `1/sqrt(d̂)`); the
    /// other dirty rows read their new weights through the degrees.
    pub fn apply_dirty(&mut self, graph: &DynamicGraph, effect: &DeltaEffect) -> Vec<NodeId> {
        // Added nodes first, as empty rows the rewrite below fills (an
        // added node needs its self-loop row even when no edge touched it).
        for _ in self.cols.len()..graph.num_nodes() {
            self.cols.push_row(&[]);
            if matches!(self.kind, AggregatorKind::GcnSymmetric) {
                self.inv_sqrt.push(0.0);
            }
        }
        let mut row = Vec::new();
        for &v in effect.rows_changed.iter().chain(&effect.added_nodes) {
            self.columns_into(graph, v, &mut row);
            self.cols.set_row(v as usize, &row);
            if let Some(inv) = self.inv_sqrt.get_mut(v as usize) {
                *inv = gcn_inv_sqrt(graph.in_degree(v as usize));
            }
        }
        let dirty = self.dirty_rows(graph, effect);
        self.refreshed += dirty.len() as u64;
        dirty
    }

    /// Row `v`'s columns, from scratch, into `out`: the sorted merge of the
    /// self-loop and the (possibly sampled) in-neighbors — the column order
    /// of [`build_adjacency`].
    fn columns_into(&self, graph: &DynamicGraph, v: NodeId, out: &mut Vec<u32>) {
        let sampled;
        let neighbors = match self.kind {
            AggregatorKind::SageMean { sample, seed } => {
                sampled = sage_sample(graph.in_neighbors(v as usize), sample, seed, v);
                &sampled
            }
            _ => graph.in_neighbors(v as usize),
        };
        let split = neighbors.partition_point(|&src| src < v);
        out.clear();
        out.extend_from_slice(&neighbors[..split]);
        out.push(v);
        out.extend_from_slice(&neighbors[split..]);
    }

    /// Heap bytes held: the capacities of the column store and of the
    /// `1/sqrt(d̂)` vector, for serving-side memory telemetry.
    pub fn approx_heap_bytes(&self) -> usize {
        self.cols.heap_bytes() + self.inv_sqrt.capacity() * std::mem::size_of::<f32>()
    }

    /// Freezes the rows, weights evaluated, into a [`CsrMatrix`] (full
    /// copy; equivalence tests and offline consumers only).
    pub fn to_csr(&self) -> CsrMatrix {
        let n = self.cols.len();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for r in 0..n {
            let cols = self.cols.row(r);
            let weights = self.row_weights(r);
            indices.extend_from_slice(cols);
            values.extend(cols.iter().enumerate().map(|(k, &c)| weights.at(k, c)));
            offsets.push(indices.len());
        }
        CsrMatrix::from_raw(n, n, offsets, indices, values)
    }
}

impl AdjacencyView for DynAdjacency {
    fn rows(&self) -> usize {
        self.cols.len()
    }
    fn row_indices(&self, r: usize) -> &[u32] {
        self.cols.row(r)
    }
    fn row_weights(&self, r: usize) -> RowWeights<'_> {
        match self.kind {
            AggregatorKind::GcnSymmetric => RowWeights::Symmetric {
                dst: self.inv_sqrt[r],
                src: &self.inv_sqrt,
            },
            AggregatorKind::GinSum => RowWeights::Uniform(1.0),
            AggregatorKind::SageMean { .. } => {
                RowWeights::Uniform(1.0 / self.cols.row_len(r) as f32)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mega_graph::GraphDelta;

    fn path_graph() -> Graph {
        // 0 - 1 - 2 (symmetric path)
        Graph::from_undirected_edges(3, vec![(0, 1), (1, 2)])
    }

    #[test]
    fn gcn_rows_are_symmetric_normalized() {
        let g = path_graph();
        let a = build_adjacency(&g, AggregatorKind::GcnSymmetric);
        // Node 0: degree 1 -> d̂=2; neighbor 1 has d̂=3.
        let self_w = a.to_dense().get(0, 0);
        let cross_w = a.to_dense().get(0, 1);
        assert!((self_w - 0.5).abs() < 1e-6);
        assert!((cross_w - 1.0 / (2.0f32 * 3.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn gin_sums_with_self_loop() {
        let g = path_graph();
        let a = build_adjacency(&g, AggregatorKind::GinSum).to_dense();
        assert_eq!(a.get(1, 0), 1.0);
        assert_eq!(a.get(1, 1), 1.0);
        assert_eq!(a.get(1, 2), 1.0);
        assert_eq!(a.get(0, 2), 0.0);
    }

    #[test]
    fn sage_rows_sum_to_one() {
        let g = path_graph();
        let a = build_adjacency(
            &g,
            AggregatorKind::SageMean {
                sample: 25,
                seed: 1,
            },
        )
        .to_dense();
        for r in 0..3 {
            let sum: f32 = (0..3).map(|c| a.get(r, c)).sum();
            assert!((sum - 1.0).abs() < 1e-6, "row {r} sums to {sum}");
        }
    }

    #[test]
    fn sage_sampling_caps_neighbors() {
        // Star: node 0 has 10 in-neighbors.
        let edges: Vec<(u32, u32)> = (1..=10).map(|i| (i, 0)).collect();
        let g = Graph::from_directed_edges(11, edges);
        let a = build_adjacency(&g, AggregatorKind::SageMean { sample: 4, seed: 2 });
        // Row 0 has 4 sampled neighbors + self.
        assert_eq!(a.row_indices(0).len(), 5);
        let w = a.row_values(0)[0];
        assert!((w - 0.2).abs() < 1e-6);
    }

    #[test]
    fn sampling_is_deterministic() {
        let edges: Vec<(u32, u32)> = (1..=10).map(|i| (i, 0)).collect();
        let g = Graph::from_directed_edges(11, edges);
        let kind = AggregatorKind::SageMean { sample: 4, seed: 3 };
        let a = build_adjacency(&g, kind);
        let b = build_adjacency(&g, kind);
        assert_eq!(a.row_indices(0), b.row_indices(0));
    }

    #[test]
    fn sage_sampling_is_per_row() {
        // Two rows with identical neighbor *sets* but different ids draw
        // independent samples, and a row's sample ignores other rows.
        let mut edges: Vec<(u32, u32)> = (2..=20).map(|i| (i, 0)).collect();
        edges.extend((2..=20).map(|i| (i, 1)));
        let g = Graph::from_directed_edges(21, edges.clone());
        let kind = AggregatorKind::SageMean { sample: 5, seed: 9 };
        let full = build_adjacency(&g, kind);
        // Same graph minus row 1's edges: row 0's sample must not move.
        let g0 = Graph::from_directed_edges(21, edges[..19].to_vec());
        let only0 = build_adjacency(&g0, kind);
        assert_eq!(full.row_indices(0), only0.row_indices(0));
    }

    #[test]
    fn gin_aggregated_magnitude_grows_with_degree() {
        // The Fig. 3 premise at micro scale: sum aggregation scales with
        // in-degree while GCN normalization dampens it.
        let edges: Vec<(u32, u32)> = (1..=9).map(|i| (i, 0)).collect();
        let g = Graph::from_directed_edges(10, edges);
        let ones = mega_tensor::Matrix::full(10, 1, 1.0);
        let gin = build_adjacency(&g, AggregatorKind::GinSum).spmm(&ones);
        let gcn = build_adjacency(&g, AggregatorKind::GcnSymmetric).spmm(&ones);
        assert_eq!(gin.get(0, 0), 10.0); // 9 neighbors + self
                                         // Sym-norm: 1/10 + 9/sqrt(10) ≈ 2.95, well below the GIN sum.
        assert!(gcn.get(0, 0) < 3.5);
        assert!(gin.get(0, 0) > 3.0 * gin.get(1, 0));
    }

    fn dyn_diamond() -> DynamicGraph {
        DynamicGraph::from_graph(Graph::from_directed_edges(
            4,
            vec![(0, 1), (0, 2), (1, 3), (2, 3)],
        ))
    }

    #[test]
    fn dyn_build_matches_static_build() {
        for kind in [
            AggregatorKind::GcnSymmetric,
            AggregatorKind::GinSum,
            AggregatorKind::SageMean { sample: 2, seed: 5 },
        ] {
            let dg = dyn_diamond();
            let dyn_adj = DynAdjacency::build(&dg, kind);
            let static_adj = build_adjacency(&dg.to_graph(), kind);
            assert_eq!(dyn_adj.to_csr(), *static_adj, "{kind:?}");
        }
    }

    #[test]
    fn incremental_insert_matches_rebuild_and_touches_few_rows() {
        let mut dg = dyn_diamond();
        let mut adj = DynAdjacency::build(&dg, AggregatorKind::GcnSymmetric);
        let mut delta = GraphDelta::new();
        delta.insert_edge(3, 1);
        let effect = dg.apply(&delta).unwrap();
        let refreshed = adj.apply(&dg, &effect);
        // Dirty rows for GCN: row 1 (new in-edge) plus rows referencing
        // node 1 as a column = out-neighbors of 1 = {3}.
        assert_eq!(refreshed, 2);
        assert_eq!(adj.rows_refreshed(), 2);
        assert_eq!(
            adj.to_csr(),
            *build_adjacency(&dg.to_graph(), AggregatorKind::GcnSymmetric)
        );
    }

    #[test]
    fn incremental_gin_touches_only_destination_row() {
        let mut dg = dyn_diamond();
        let mut adj = DynAdjacency::build(&dg, AggregatorKind::GinSum);
        let mut delta = GraphDelta::new();
        delta.insert_edge(3, 0).remove_edge(0, 1);
        let effect = dg.apply(&delta).unwrap();
        let refreshed = adj.apply(&dg, &effect);
        assert_eq!(refreshed, 2); // rows 0 and 1, nothing else
        assert_eq!(
            adj.to_csr(),
            *build_adjacency(&dg.to_graph(), AggregatorKind::GinSum)
        );
    }

    #[test]
    fn added_nodes_get_self_loop_rows() {
        let mut dg = dyn_diamond();
        let mut adj = DynAdjacency::build(&dg, AggregatorKind::GcnSymmetric);
        let mut delta = GraphDelta::new();
        delta.add_node().add_node().insert_edge(4, 5);
        let effect = dg.apply(&delta).unwrap();
        adj.apply(&dg, &effect);
        assert_eq!(AdjacencyView::rows(&adj), 6);
        assert_eq!(adj.row_indices(4), &[4]);
        assert_eq!(adj.row_indices(5), &[4, 5]);
        assert_eq!(
            adj.to_csr(),
            *build_adjacency(&dg.to_graph(), AggregatorKind::GcnSymmetric)
        );
    }

    #[test]
    fn isolation_refreshes_neighbor_rows() {
        let mut dg = dyn_diamond();
        let mut adj = DynAdjacency::build(&dg, AggregatorKind::GcnSymmetric);
        let mut delta = GraphDelta::new();
        delta.isolate_node(3);
        let effect = dg.apply(&delta).unwrap();
        adj.apply(&dg, &effect);
        assert_eq!(adj.row_indices(3), &[3]);
        assert_eq!(
            adj.to_csr(),
            *build_adjacency(&dg.to_graph(), AggregatorKind::GcnSymmetric)
        );
    }
}
