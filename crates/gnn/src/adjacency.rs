//! Normalized adjacency construction for each aggregator — one-shot
//! ([`build_adjacency`]) and incrementally maintained ([`DynAdjacency`]).
//!
//! Every weight of a normalized adjacency is a function of degrees: GCN's
//! `1/sqrt(d̂_dst) · 1/sqrt(d̂_src)`, GIN's `1`, GraphSAGE's
//! `1/(sampled + 1)`. And every row's columns are the node's in-neighbors
//! (GraphSAGE: a seeded sample of them) plus its self-loop. So
//! [`DynAdjacency`] stores no columns at all: it reads the live graph's
//! in-lists and merges the self-loop in while iterating
//! ([`AdjacencyRow::get`]), and [`AdjacencyView::row_weights`] hands the
//! forward pass a [`RowWeights`] that evaluates the same `f32` expression
//! [`build_adjacency`] stores, bit for bit. It owns nothing per node under
//! GCN (each `1/sqrt(d̂)` is computed from the live in-degree) or GIN;
//! GraphSAGE keeps the chosen lists of the rows whose in-degree exceeds the
//! sample size.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use mega_graph::dynamic::{DeltaEffect, DeltaError, DynamicGraph};
use mega_graph::generate::shuffle;
use mega_graph::{Graph, GraphDelta, NodeId};
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

/// One adjacency row: explicit columns, ascending, plus optionally the
/// row's own id as an implicit self-loop. [`AdjacencyRow::get`] is the one
/// merge rule every reader goes through: the own id takes its sorted place
/// among the columns, so a destination sums its sources in ascending id
/// order with the self-loop where a stored column list would hold it.
#[derive(Debug, Clone, Copy)]
pub struct AdjacencyRow<'a> {
    cols: &'a [u32],
    /// The implicit own id and its position in the merged row.
    own: Option<(u32, usize)>,
}

impl<'a> AdjacencyRow<'a> {
    /// A row whose columns are all stored (self-loop included, if any).
    pub fn explicit(cols: &'a [u32]) -> Self {
        Self { cols, own: None }
    }

    /// The row of node `own`: `cols` (ascending, without `own`) plus the
    /// implicit self-loop.
    pub fn with_self_loop(cols: &'a [u32], own: u32) -> Self {
        debug_assert!(cols.binary_search(&own).is_err(), "{own} is implicit");
        let at = cols.partition_point(|&c| c < own);
        Self {
            cols,
            own: Some((own, at)),
        }
    }

    /// The explicit columns, without the implicit self-loop.
    pub fn columns(&self) -> &'a [u32] {
        self.cols
    }

    /// Number of entries, the implicit self-loop included.
    pub fn len(&self) -> usize {
        self.cols.len() + usize::from(self.own.is_some())
    }

    /// Whether the row has no entry at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `k`-th entry of the merged row, `None` past its end.
    #[inline]
    pub fn get(&self, k: usize) -> Option<u32> {
        match self.own {
            None => self.cols.get(k).copied(),
            Some((own, at)) => match k.cmp(&at) {
                std::cmp::Ordering::Less => Some(self.cols[k]),
                std::cmp::Ordering::Equal => Some(own),
                std::cmp::Ordering::Greater => self.cols.get(k - 1).copied(),
            },
        }
    }

    /// The merged entries in order, through [`AdjacencyRow::get`].
    pub fn iter(self) -> impl Iterator<Item = u32> + 'a {
        (0..self.len()).map(move |k| self.get(k).expect("k is below len"))
    }
}

/// The weights of one adjacency row, aligned with its
/// [`AdjacencyView::row`]: stored, or computed from degrees.
#[derive(Debug, Clone, Copy)]
pub enum RowWeights<'a> {
    /// Stored values, one per column (the static [`CsrMatrix`]).
    Explicit(&'a [f32]),
    /// One weight for every column (GIN: `1`; GraphSAGE: `1 / len`).
    Uniform(f32),
    /// GCN symmetric normalization: column `c` weighs
    /// `dst · 1/sqrt(d̂_c)`, where `dst` is the row's own `1/sqrt(d̂)` and
    /// `d̂_c` is one more than `c`'s in-degree in `graph`.
    Symmetric {
        /// The row's own `1/sqrt(d̂)`.
        dst: f32,
        /// The live graph, whose in-degrees give every column's factor.
        graph: &'a DynamicGraph,
    },
}

impl RowWeights<'_> {
    /// The weight of the row's `k`-th column, whose id is `col`.
    #[inline]
    pub fn at(&self, k: usize, col: u32) -> f32 {
        match *self {
            RowWeights::Explicit(values) => values[k],
            RowWeights::Uniform(w) => w,
            RowWeights::Symmetric { dst, graph } => {
                dst * gcn_inv_sqrt(graph.in_degree(col as usize))
            }
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
    /// Row `r`, read through [`AdjacencyRow::get`].
    fn row(&self, r: usize) -> AdjacencyRow<'_>;
    /// Weights of row `r`, aligned with [`AdjacencyView::row`].
    fn row_weights(&self, r: usize) -> RowWeights<'_>;
}

impl<T: AdjacencyView + ?Sized> AdjacencyView for Rc<T> {
    fn rows(&self) -> usize {
        (**self).rows()
    }
    fn row(&self, r: usize) -> AdjacencyRow<'_> {
        (**self).row(r)
    }
    fn row_weights(&self, r: usize) -> RowWeights<'_> {
        (**self).row_weights(r)
    }
}

impl<T: AdjacencyView + ?Sized> AdjacencyView for Arc<T> {
    fn rows(&self) -> usize {
        (**self).rows()
    }
    fn row(&self, r: usize) -> AdjacencyRow<'_> {
        (**self).row(r)
    }
    fn row_weights(&self, r: usize) -> RowWeights<'_> {
        (**self).row_weights(r)
    }
}

impl AdjacencyView for CsrMatrix {
    fn rows(&self) -> usize {
        CsrMatrix::rows(self)
    }
    fn row(&self, r: usize) -> AdjacencyRow<'_> {
        AdjacencyRow::explicit(CsrMatrix::row_indices(self, r))
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
#[inline]
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

/// A normalized adjacency under mutation, as a view over the live graph:
/// row `v` is `v`'s in-list in the [`DynamicGraph`] it shares, with the
/// self-loop merged in by [`AdjacencyRow::get`], and its weights are
/// computed from degrees ([`RowWeights`]). It owns only what the graph
/// cannot give it: GraphSAGE's chosen in-neighbors of the rows whose
/// in-degree exceeds `sample` (nothing under GCN or GIN).
///
/// [`DynAdjacency::apply`] mutates the shared graph and catches those
/// lists up in `O(deg)` per changed row, and every row reads bit-exactly
/// what [`build_adjacency`] would produce for the same graph (the
/// incremental == from-scratch equivalence the dynamic-graph property
/// tests assert), so a [`DynAdjacency`] can serve the forward pass
/// directly through [`AdjacencyView`].
#[derive(Debug)]
pub struct DynAdjacency {
    kind: AggregatorKind,
    /// The live topology, shared with its owner.
    graph: Arc<DynamicGraph>,
    /// GraphSAGE only: the chosen in-neighbors of every row whose
    /// in-degree exceeds `sample`; the other rows read their in-list.
    sampled: HashMap<NodeId, Vec<NodeId>>,
    refreshed: u64,
}

impl DynAdjacency {
    /// Builds every row for the current state of `graph`, holding a second
    /// handle to it. Only [`DynAdjacency::apply`] may mutate it from then
    /// on.
    pub fn build(graph: &Arc<DynamicGraph>, kind: AggregatorKind) -> Self {
        let n = graph.num_nodes();
        let mut adj = Self {
            kind,
            graph: Arc::clone(graph),
            sampled: HashMap::new(),
            refreshed: 0,
        };
        for v in 0..n {
            adj.refresh_row(v as NodeId);
        }
        adj
    }

    /// The aggregation scheme the rows encode.
    pub fn kind(&self) -> AggregatorKind {
        self.kind
    }

    /// Cumulative number of rows whose weights or columns
    /// [`DynAdjacency::apply`] changed since construction (the sum of the
    /// dirty rows it returned). The incremental-cost tests assert this
    /// stays proportional to the touched neighborhoods, not the graph.
    pub fn rows_refreshed(&self) -> u64 {
        self.refreshed
    }

    /// Applies `delta` to the live graph and catches the adjacency up: the
    /// one place the shared topology is mutated. `graph` is the owner's
    /// handle to the graph this adjacency was built over; the adjacency
    /// lets go of its own handle so the graph can be mutated in place, and
    /// takes it back whether the delta applies or is rejected (a rejected
    /// delta changes nothing).
    ///
    /// Returns the graph's [`DeltaEffect`] and the sorted rows whose
    /// columns or weights changed:
    ///
    /// * every row whose in-neighbor set changed,
    /// * every freshly added node's row, and
    /// * for GCN symmetric normalization only: every row referencing a
    ///   degree-changed node as a *column* (its `1/sqrt(d̂)` factor moved),
    ///   i.e. the out-neighbors of each changed node.
    ///
    /// Consumers that keep *derived* per-row state (e.g. a serving
    /// engine's logits cache) key their invalidation off that list.
    ///
    /// # Panics
    ///
    /// Panics if `graph` is not the graph the adjacency was built over, or
    /// if a third handle to it exists.
    pub fn apply(
        &mut self,
        graph: &mut Arc<DynamicGraph>,
        delta: &GraphDelta,
    ) -> Result<(DeltaEffect, Vec<NodeId>), DeltaError> {
        assert!(
            Arc::ptr_eq(&self.graph, graph),
            "the graph this adjacency was built over"
        );
        drop(std::mem::take(&mut self.graph));
        let applied = Arc::get_mut(graph).map(|g| g.apply(delta));
        self.graph = Arc::clone(graph);
        let effect = applied.expect("no third handle to the live graph")?;

        for &v in effect.rows_changed.iter().chain(&effect.added_nodes) {
            self.refresh_row(v);
        }
        let mut dirty: Vec<NodeId> = effect.rows_changed.clone();
        dirty.extend_from_slice(&effect.added_nodes);
        if matches!(self.kind, AggregatorKind::GcnSymmetric) {
            for &b in &effect.rows_changed {
                dirty.extend_from_slice(self.graph.out_neighbors(b as usize));
            }
        }
        dirty.sort_unstable();
        dirty.dedup();
        self.refreshed += dirty.len() as u64;
        Ok((effect, dirty))
    }

    /// Recomputes what the adjacency owns for row `v` from its in-list:
    /// GraphSAGE's chosen list (GCN and GIN own nothing).
    fn refresh_row(&mut self, v: NodeId) {
        if let AggregatorKind::SageMean { sample, seed } = self.kind {
            let neighbors = self.graph.in_neighbors(v as usize);
            if neighbors.len() > sample {
                let chosen = sage_sample(neighbors, sample, seed, v);
                self.sampled.insert(v, chosen);
            } else {
                self.sampled.remove(&v);
            }
        }
    }

    /// Heap bytes owned: the GraphSAGE chosen lists, for serving-side
    /// memory telemetry. The shared graph is not counted.
    pub fn approx_heap_bytes(&self) -> usize {
        let slot = std::mem::size_of::<(NodeId, Vec<NodeId>)>() + 1;
        self.sampled.capacity() * slot
            + self
                .sampled
                .values()
                .map(|chosen| chosen.capacity() * std::mem::size_of::<NodeId>())
                .sum::<usize>()
    }

    /// Freezes the rows, weights evaluated, into a [`CsrMatrix`] (full
    /// copy; equivalence tests and offline consumers only).
    pub fn to_csr(&self) -> CsrMatrix {
        let n = self.rows();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for r in 0..n {
            let weights = self.row_weights(r);
            for (k, c) in self.row(r).iter().enumerate() {
                indices.push(c);
                values.push(weights.at(k, c));
            }
            offsets.push(indices.len());
        }
        CsrMatrix::from_raw(n, n, offsets, indices, values)
    }
}

impl AdjacencyView for DynAdjacency {
    fn rows(&self) -> usize {
        self.graph.num_nodes()
    }
    fn row(&self, r: usize) -> AdjacencyRow<'_> {
        let neighbors = self.graph.in_neighbors(r);
        let cols = match self.kind {
            AggregatorKind::SageMean { sample, .. } if neighbors.len() > sample => {
                &self.sampled[&(r as NodeId)]
            }
            _ => neighbors,
        };
        AdjacencyRow::with_self_loop(cols, r as NodeId)
    }
    fn row_weights(&self, r: usize) -> RowWeights<'_> {
        match self.kind {
            AggregatorKind::GcnSymmetric => RowWeights::Symmetric {
                dst: gcn_inv_sqrt(self.graph.in_degree(r)),
                graph: &self.graph,
            },
            AggregatorKind::GinSum => RowWeights::Uniform(1.0),
            AggregatorKind::SageMean { sample, .. } => {
                RowWeights::Uniform(1.0 / (self.graph.in_degree(r).min(sample) + 1) as f32)
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

    fn dyn_diamond() -> Arc<DynamicGraph> {
        Arc::new(DynamicGraph::from_graph(Graph::from_directed_edges(
            4,
            vec![(0, 1), (0, 2), (1, 3), (2, 3)],
        )))
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
        let (_, dirty) = adj.apply(&mut dg, &delta).unwrap();
        // Dirty rows for GCN: row 1 (new in-edge) plus rows referencing
        // node 1 as a column = out-neighbors of 1 = {3}.
        assert_eq!(dirty, vec![1, 3]);
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
        let (_, dirty) = adj.apply(&mut dg, &delta).unwrap();
        assert_eq!(dirty, vec![0, 1]); // rows 0 and 1, nothing else
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
        adj.apply(&mut dg, &delta).unwrap();
        assert_eq!(AdjacencyView::rows(&adj), 6);
        assert_eq!(adj.row(4).iter().collect::<Vec<_>>(), [4]);
        assert_eq!(adj.row(5).iter().collect::<Vec<_>>(), [4, 5]);
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
        adj.apply(&mut dg, &delta).unwrap();
        assert_eq!(adj.row(3).iter().collect::<Vec<_>>(), [3]);
        assert_eq!(
            adj.to_csr(),
            *build_adjacency(&dg.to_graph(), AggregatorKind::GcnSymmetric)
        );
    }

    #[test]
    fn rejected_delta_leaves_graph_and_rows_attached() {
        let mut dg = dyn_diamond();
        let mut adj = DynAdjacency::build(&dg, AggregatorKind::GcnSymmetric);
        let mut delta = GraphDelta::new();
        delta.insert_edge(0, 9);
        assert!(adj.apply(&mut dg, &delta).is_err());
        assert_eq!(Arc::strong_count(&dg), 2, "the adjacency re-attached");
        assert_eq!(adj.rows_refreshed(), 0);
        assert_eq!(
            adj.to_csr(),
            *build_adjacency(&dg.to_graph(), AggregatorKind::GcnSymmetric)
        );
    }

    #[test]
    fn merged_row_places_the_self_loop_in_sorted_position() {
        for (cols, own, merged) in [
            (vec![], 3, vec![3]),
            (vec![4, 7], 2, vec![2, 4, 7]),
            (vec![1, 4, 7], 5, vec![1, 4, 5, 7]),
            (vec![1, 4], 9, vec![1, 4, 9]),
        ] {
            let row = AdjacencyRow::with_self_loop(&cols, own);
            assert_eq!(row.len(), merged.len());
            assert_eq!(row.iter().collect::<Vec<_>>(), merged);
            assert_eq!(row.get(merged.len()), None);
            assert_eq!(row.columns(), cols.as_slice());
        }
        let explicit = AdjacencyRow::explicit(&[0, 2]);
        assert_eq!(explicit.iter().collect::<Vec<_>>(), [0, 2]);
    }

    /// The adjacency owns nothing under GCN or GIN: every column is a read
    /// of the shared graph, and every weight a function of its degrees.
    #[test]
    fn the_view_owns_only_what_the_graph_cannot_give() {
        let dg = dyn_diamond();
        let gcn = DynAdjacency::build(&dg, AggregatorKind::GcnSymmetric);
        assert_eq!(gcn.approx_heap_bytes(), 0);
        let gin = DynAdjacency::build(&dg, AggregatorKind::GinSum);
        assert_eq!(gin.approx_heap_bytes(), 0);
    }

    /// A GraphSAGE row stores its chosen list only while its in-degree
    /// exceeds `sample`: crossing upward starts reading the stored sample,
    /// crossing back down returns to the in-list, and both steps land on
    /// the rebuild.
    #[test]
    fn sage_row_crossing_the_sample_size_matches_rebuild() {
        let kind = AggregatorKind::SageMean { sample: 3, seed: 7 };
        // Node 0 starts with in-degree 3 (== sample: nothing stored).
        let mut dg = Arc::new(DynamicGraph::from_graph(Graph::from_directed_edges(
            8,
            vec![(1, 0), (2, 0), (3, 0), (4, 5)],
        )));
        let mut adj = DynAdjacency::build(&dg, kind);
        assert_eq!(adj.approx_heap_bytes(), 0);
        let rebuilt = |dg: &DynamicGraph| (*build_adjacency(&dg.to_graph(), kind)).clone();

        let mut up = GraphDelta::new();
        up.insert_edge(6, 0).insert_edge(7, 0);
        let (_, dirty) = adj.apply(&mut dg, &up).unwrap();
        assert_eq!(dirty, vec![0]);
        assert!(adj.approx_heap_bytes() > 0, "row 0 now stores its sample");
        assert_eq!(adj.row(0).len(), 4, "3 sampled + self");
        assert_eq!(adj.to_csr(), rebuilt(&dg));

        let mut down = GraphDelta::new();
        down.remove_edge(6, 0).remove_edge(1, 0);
        adj.apply(&mut dg, &down).unwrap();
        assert_eq!(adj.row(0).columns(), dg.in_neighbors(0));
        assert_eq!(adj.to_csr(), rebuilt(&dg));
        assert_eq!(adj.sampled.len(), 0, "nothing stored at in-degree 3");
    }
}
