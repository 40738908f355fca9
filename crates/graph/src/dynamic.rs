//! Mutable graphs: [`DynamicGraph`] and the [`GraphDelta`] mutation batches
//! applied to them.
//!
//! The static [`crate::Graph`] freezes adjacency into flat CSR arrays —
//! ideal for read-mostly kernels, but inserting one edge would shift `O(E)`
//! indices. [`DynamicGraph`] keeps one sorted in-neighbor list per node
//! instead, as rows of a [`RowStore`] (one flat entry vector with per-row
//! slack), so an edge upsert or removal costs `O(deg)` for the two
//! endpoints and nothing else. Out-lists are stored only where they differ
//! from in-lists: a node whose out-neighbors equal its in-neighbors (every
//! node of a symmetric graph) reads its in-list for both, and any other
//! node keeps an explicit out-list in a side store. Downstream consumers
//! (the incremental normalized adjacency in `mega-gnn`, degree re-tiering
//! in `mega-serve`) key off the [`DeltaEffect`] an application returns:
//! exactly which nodes gained or lost in-neighbors, so they can refresh
//! only the affected rows.
//!
//! Node *removal* is isolation: every incident edge is dropped but the id
//! slot survives as a degree-zero node. Stable ids are what let a serving
//! engine keep request routing, feature rows, and cached per-node metadata
//! aligned across mutations.
//!
//! # Example
//!
//! ```
//! use mega_graph::{DynamicGraph, Graph, GraphDelta};
//!
//! let mut g = DynamicGraph::from_graph(Graph::from_directed_edges(3, vec![(0, 1)]));
//! let mut delta = GraphDelta::new();
//! delta.insert_edge(2, 1).insert_edge(0, 1).remove_edge(0, 1);
//! let effect = g.apply(&delta).unwrap();
//! assert_eq!(g.in_degree(1), 1); // 2→1 inserted, 0→1 removed
//! assert_eq!(effect.rows_changed, vec![1]);
//! ```

use std::collections::HashMap;

use crate::{Csr, Graph, NodeId, RowStore};

/// One graph mutation inside a [`GraphDelta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphOp {
    /// Insert the directed edge `(src, dst)`; a no-op if already present.
    InsertEdge(NodeId, NodeId),
    /// Remove the directed edge `(src, dst)`; a no-op if absent.
    RemoveEdge(NodeId, NodeId),
    /// Append a fresh, isolated node and return its id implicitly
    /// (ids are assigned densely in op order).
    AddNode,
    /// Drop every edge incident to the node, keeping its id slot as an
    /// isolated node.
    IsolateNode(NodeId),
}

/// A batch of graph mutations, applied transactionally by
/// [`DynamicGraph::apply`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphDelta {
    ops: Vec<GraphOp>,
}

impl GraphDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues an edge insertion (upsert: inserting an existing edge is a
    /// no-op).
    pub fn insert_edge(&mut self, src: NodeId, dst: NodeId) -> &mut Self {
        self.ops.push(GraphOp::InsertEdge(src, dst));
        self
    }

    /// Queues an undirected insertion (both directions).
    pub fn insert_undirected(&mut self, a: NodeId, b: NodeId) -> &mut Self {
        self.insert_edge(a, b).insert_edge(b, a)
    }

    /// Queues an edge removal (removing an absent edge is a no-op).
    pub fn remove_edge(&mut self, src: NodeId, dst: NodeId) -> &mut Self {
        self.ops.push(GraphOp::RemoveEdge(src, dst));
        self
    }

    /// Queues a node addition. The new node's id is the graph's node count
    /// at the point this op applies.
    pub fn add_node(&mut self) -> &mut Self {
        self.ops.push(GraphOp::AddNode);
        self
    }

    /// Queues a node isolation (drop all incident edges, keep the slot).
    pub fn isolate_node(&mut self, v: NodeId) -> &mut Self {
        self.ops.push(GraphOp::IsolateNode(v));
        self
    }

    /// The queued ops, in application order.
    pub fn ops(&self) -> &[GraphOp] {
        &self.ops
    }

    /// Number of queued ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no ops are queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of `AddNode` ops in the batch (callers that attach per-node
    /// payloads, e.g. feature rows, size them against this).
    pub fn nodes_added(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, GraphOp::AddNode))
            .count()
    }
}

/// Why a [`GraphDelta`] was rejected. Validation happens before any op is
/// applied, so a rejected delta leaves the graph untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// An op references a node id outside the graph (accounting for
    /// `AddNode` ops earlier in the same delta).
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// Node count at the point the op would have applied.
        nodes: usize,
    },
    /// An edge op has identical endpoints; graphs in this workspace carry
    /// no self-loops (normalization adds its own).
    SelfLoop(NodeId),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} out of range (graph has {nodes} nodes)")
            }
            DeltaError::SelfLoop(v) => write!(f, "self-loop ({v}, {v}) not allowed"),
        }
    }
}

impl std::error::Error for DeltaError {}

/// What applying a [`GraphDelta`] actually changed. Incremental consumers
/// (normalized adjacency, degree-aware re-tiering) refresh exactly the
/// state keyed by these fields.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaEffect {
    /// Edges actually inserted (upserts of present edges do not count).
    pub inserted: usize,
    /// Edges actually removed (including those dropped by isolation).
    pub removed: usize,
    /// Ids of nodes appended by `AddNode` ops, in op order.
    pub added_nodes: Vec<NodeId>,
    /// Nodes whose *in*-neighbor set changed, sorted and deduplicated.
    /// Exactly these nodes changed in-degree; freshly added nodes appear
    /// only if the same delta also wired an in-edge to them.
    pub rows_changed: Vec<NodeId>,
}

impl DeltaEffect {
    /// Whether the delta changed nothing at all.
    pub fn is_noop(&self) -> bool {
        self.inserted == 0 && self.removed == 0 && self.added_nodes.is_empty()
    }
}

/// A directed graph under mutation: one sorted in-neighbor list per node in
/// a [`RowStore`], and an explicit out-list only for the nodes whose
/// out-neighbors differ from their in-neighbors.
///
/// A node is in the out-list side store exactly when its two lists differ;
/// every update restores that, so equal graphs have equal stores. Neighbor
/// lists are kept sorted ascending, matching the row order of
/// [`crate::Csr`], so snapshots ([`DynamicGraph::to_graph`]) and row-level
/// consumers see identical layouts to a from-scratch build. Equality
/// compares neighbor lists, not how the stores laid them out.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DynamicGraph {
    inn: RowStore<NodeId>,
    /// The out-list of every node whose out-list differs from its in-list.
    out: HashMap<NodeId, Vec<NodeId>>,
    num_edges: usize,
}

impl DynamicGraph {
    /// An edgeless graph over `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        let mut g = Self::default();
        for _ in 0..num_nodes {
            g.add_node();
        }
        g
    }

    /// Thaws a static [`Graph`] into mutable form. The in-edge CSR's index
    /// vector moves into the [`RowStore`] as the entry vector
    /// ([`RowStore::from_csr`]), so the neighbor ids are never copied, and
    /// the row spans are written over the offsets in their own buffer. A
    /// symmetric graph keeps nothing else; a directed one copies the
    /// out-list of each node whose lists differ. A caller that still needs
    /// the graph passes a clone.
    pub fn from_graph(graph: Graph) -> Self {
        let num_edges = graph.num_edges();
        let (csr, csc) = graph.into_parts();
        let Some(csc) = csc else {
            let (offsets, indices) = csr.into_parts();
            return Self {
                inn: RowStore::from_csr(offsets, indices),
                out: HashMap::new(),
                num_edges,
            };
        };
        let out = csr
            .iter_rows()
            .filter(|&(v, row)| row != csc.row(v))
            .map(|(v, row)| (v as NodeId, row.to_vec()))
            .collect();
        let (offsets, indices) = csc.into_parts();
        Self {
            inn: RowStore::from_csr(offsets, indices),
            out,
            num_edges,
        }
    }

    /// Freezes the current state back into a static [`Graph`] (full
    /// rebuild, `O(V + E)` — for snapshots and equivalence tests, not the
    /// mutation hot path).
    pub fn to_graph(&self) -> Graph {
        let n = self.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut indices = Vec::with_capacity(self.num_edges);
        offsets.push(0);
        for v in 0..n {
            indices.extend_from_slice(self.out_neighbors(v));
            offsets.push(indices.len());
        }
        Graph::from_csr(Csr::from_parts(n, n, offsets, indices))
    }

    /// Number of nodes (including isolated slots).
    pub fn num_nodes(&self) -> usize {
        self.inn.len()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Heap bytes held: the in-lists' [`RowStore::heap_bytes`] plus
    /// [`DynamicGraph::out_list_bytes`].
    pub fn heap_bytes(&self) -> usize {
        self.inn.heap_bytes() + self.out_list_bytes()
    }

    /// Heap bytes of the out-list side store: its table slots (a key, a
    /// `Vec` header and a control byte each) and the lists' capacities.
    /// Zero for a graph whose every node has equal lists.
    pub fn out_list_bytes(&self) -> usize {
        self.out.capacity() * (std::mem::size_of::<(NodeId, Vec<NodeId>)>() + 1)
            + self
                .out
                .values()
                .map(|row| row.capacity() * std::mem::size_of::<NodeId>())
                .sum::<usize>()
    }

    /// Sorted out-neighbors of `v`.
    pub fn out_neighbors(&self, v: usize) -> &[NodeId] {
        match self.out.get(&(v as NodeId)) {
            Some(row) => row,
            None => self.inn.row(v),
        }
    }

    /// Sorted in-neighbors of `v`.
    pub fn in_neighbors(&self, v: usize) -> &[NodeId] {
        self.inn.row(v)
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: usize) -> usize {
        self.out_neighbors(v).len()
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: usize) -> usize {
        self.inn.row_len(v)
    }

    /// Whether the directed edge `(src, dst)` is present.
    pub fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.in_neighbors(dst as usize).binary_search(&src).is_ok()
    }

    /// Inserts the directed edge `(src, dst)`. Returns `true` if the edge
    /// was new. `O(deg)` for the two endpoints.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or a self-loop; use
    /// [`DynamicGraph::apply`] for validated batches.
    pub fn insert_edge(&mut self, src: NodeId, dst: NodeId) -> bool {
        assert_ne!(src, dst, "self-loop ({src}, {dst}) not allowed");
        let Err(in_slot) = self.in_neighbors(dst as usize).binary_search(&src) else {
            return false;
        };
        self.detach(dst);
        let out = self.detach(src);
        let slot = out.binary_search(&dst).expect_err("out/in lists diverged");
        out.insert(slot, dst);
        self.inn.insert_at(dst as usize, in_slot, src);
        self.reattach(src);
        self.reattach(dst);
        self.num_edges += 1;
        true
    }

    /// Removes the directed edge `(src, dst)`. Returns `true` if it was
    /// present. `O(deg)` for the two endpoints.
    pub fn remove_edge(&mut self, src: NodeId, dst: NodeId) -> bool {
        let Ok(in_slot) = self.in_neighbors(dst as usize).binary_search(&src) else {
            return false;
        };
        self.detach(dst);
        let out = self.detach(src);
        let slot = out.binary_search(&dst).expect("out/in lists diverged");
        out.remove(slot);
        self.inn.remove_at(dst as usize, in_slot);
        self.reattach(src);
        self.reattach(dst);
        self.num_edges -= 1;
        true
    }

    /// Appends a fresh isolated node, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        self.inn.push_row(&[]);
        (self.num_nodes() - 1) as NodeId
    }

    /// Drops every edge incident to `v`, keeping the id slot. Returns the
    /// number of edges removed.
    pub fn isolate_node(&mut self, v: NodeId) -> usize {
        let outgoing = self
            .out
            .remove(&v)
            .unwrap_or_else(|| self.in_neighbors(v as usize).to_vec());
        let incoming = self.in_neighbors(v as usize).to_vec();
        self.inn.clear_row(v as usize);
        for &dst in &outgoing {
            let slot = self
                .in_neighbors(dst as usize)
                .binary_search(&v)
                .expect("out/in lists diverged");
            self.inn.remove_at(dst as usize, slot);
        }
        // A neighbor without its own out-list has `v` in both lists, and
        // its in-list has just lost it; only explicit out-lists are left.
        for &src in &incoming {
            if let Some(out) = self.out.get_mut(&src) {
                let slot = out.binary_search(&v).expect("out/in lists diverged");
                out.remove(slot);
            }
        }
        for &u in outgoing.iter().chain(&incoming) {
            self.reattach(u);
        }
        let dropped = outgoing.len() + incoming.len();
        self.num_edges -= dropped;
        dropped
    }

    /// `v`'s explicit out-list, first copied from its in-list if `v` has
    /// none: called before an update makes `v`'s two lists differ.
    fn detach(&mut self, v: NodeId) -> &mut Vec<NodeId> {
        let inn = &self.inn;
        self.out
            .entry(v)
            .or_insert_with(|| inn.row(v as usize).to_vec())
    }

    /// Drops `v`'s explicit out-list if it equals its in-list again.
    fn reattach(&mut self, v: NodeId) {
        if self
            .out
            .get(&v)
            .is_some_and(|row| row[..] == *self.inn.row(v as usize))
        {
            self.out.remove(&v);
        }
    }

    /// Validates `delta` against the current state without applying it.
    /// `AddNode` ops extend the valid id range for subsequent ops.
    pub fn validate(&self, delta: &GraphDelta) -> Result<(), DeltaError> {
        let mut nodes = self.num_nodes();
        for op in delta.ops() {
            match *op {
                GraphOp::InsertEdge(s, d) | GraphOp::RemoveEdge(s, d) => {
                    if s == d {
                        return Err(DeltaError::SelfLoop(s));
                    }
                    for v in [s, d] {
                        if v as usize >= nodes {
                            return Err(DeltaError::NodeOutOfRange { node: v, nodes });
                        }
                    }
                }
                GraphOp::AddNode => nodes += 1,
                GraphOp::IsolateNode(v) => {
                    if v as usize >= nodes {
                        return Err(DeltaError::NodeOutOfRange { node: v, nodes });
                    }
                }
            }
        }
        Ok(())
    }

    /// Applies every op of `delta` in order, transactionally: the delta is
    /// validated up front and a rejected delta changes nothing.
    ///
    /// Cost is `O(Σ deg)` over the touched endpoints — independent of graph
    /// size, which is what keeps the serving-side update path incremental.
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<DeltaEffect, DeltaError> {
        self.validate(delta)?;
        let mut effect = DeltaEffect::default();
        for op in delta.ops() {
            match *op {
                GraphOp::InsertEdge(s, d) => {
                    if self.insert_edge(s, d) {
                        effect.inserted += 1;
                        effect.rows_changed.push(d);
                    }
                }
                GraphOp::RemoveEdge(s, d) => {
                    if self.remove_edge(s, d) {
                        effect.removed += 1;
                        effect.rows_changed.push(d);
                    }
                }
                GraphOp::AddNode => {
                    effect.added_nodes.push(self.add_node());
                }
                GraphOp::IsolateNode(v) => {
                    // Record before the lists are emptied: out-neighbors
                    // lose an in-edge, so their rows change.
                    effect
                        .rows_changed
                        .extend_from_slice(self.out_neighbors(v as usize));
                    let had_in = self.in_degree(v as usize) > 0;
                    effect.removed += self.isolate_node(v);
                    if had_in {
                        effect.rows_changed.push(v);
                    }
                }
            }
        }
        effect.rows_changed.sort_unstable();
        effect.rows_changed.dedup();
        Ok(effect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn diamond() -> DynamicGraph {
        // 0 → 1 → 3, 0 → 2 → 3
        DynamicGraph::from_graph(Graph::from_directed_edges(
            4,
            vec![(0, 1), (0, 2), (1, 3), (2, 3)],
        ))
    }

    #[test]
    fn thaw_preserves_structure() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(
            g.to_graph(),
            Graph::from_directed_edges(4, vec![(0, 1), (0, 2), (1, 3), (2, 3)])
        );
    }

    #[test]
    fn insert_is_an_upsert() {
        let mut g = diamond();
        assert!(g.insert_edge(3, 0));
        assert!(!g.insert_edge(3, 0), "duplicate insert is a no-op");
        assert_eq!(g.num_edges(), 5);
        assert!(g.has_edge(3, 0));
        assert_eq!(g.in_neighbors(0), &[3]);
    }

    #[test]
    fn remove_missing_edge_is_noop() {
        let mut g = diamond();
        assert!(!g.remove_edge(3, 0));
        assert!(g.remove_edge(0, 1));
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.in_neighbors(1), &[] as &[NodeId]);
    }

    #[test]
    fn isolate_drops_both_directions() {
        let mut g = diamond();
        let dropped = g.isolate_node(3);
        assert_eq!(dropped, 2);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.in_degree(3), 0);
        assert_eq!(g.out_neighbors(1), &[] as &[NodeId]);
        // Slot survives.
        assert_eq!(g.num_nodes(), 4);
    }

    #[test]
    fn apply_reports_exact_effect() {
        let mut g = diamond();
        let mut delta = GraphDelta::new();
        delta
            .insert_edge(3, 0) // new
            .insert_edge(0, 1) // present: no-op
            .remove_edge(2, 3) // present
            .remove_edge(2, 3) // now absent: no-op
            .add_node();
        let effect = g.apply(&delta).unwrap();
        assert_eq!(effect.inserted, 1);
        assert_eq!(effect.removed, 1);
        assert_eq!(effect.added_nodes, vec![4]);
        assert_eq!(effect.rows_changed, vec![0, 3]);
        assert_eq!(g.num_nodes(), 5);
        assert!(!effect.is_noop());
    }

    #[test]
    fn apply_is_transactional_on_error() {
        let mut g = diamond();
        let before = g.clone();
        let mut delta = GraphDelta::new();
        delta.insert_edge(0, 3).insert_edge(0, 99);
        let err = g.apply(&delta).unwrap_err();
        assert!(matches!(err, DeltaError::NodeOutOfRange { node: 99, .. }));
        assert_eq!(g, before, "rejected delta must change nothing");
    }

    #[test]
    fn self_loops_are_rejected() {
        let mut g = diamond();
        let mut delta = GraphDelta::new();
        delta.insert_edge(2, 2);
        assert_eq!(g.apply(&delta).unwrap_err(), DeltaError::SelfLoop(2));
    }

    #[test]
    fn add_node_extends_range_for_later_ops() {
        let mut g = DynamicGraph::new(1);
        let mut delta = GraphDelta::new();
        delta.add_node().insert_edge(0, 1);
        let effect = g.apply(&delta).unwrap();
        assert_eq!(effect.added_nodes, vec![1]);
        assert_eq!(effect.rows_changed, vec![1]);
        assert!(g.has_edge(0, 1));
        assert_eq!(delta.nodes_added(), 1);
    }

    #[test]
    fn isolation_effect_covers_neighbors() {
        let mut g = diamond();
        let mut delta = GraphDelta::new();
        delta.isolate_node(0);
        let effect = g.apply(&delta).unwrap();
        // 0 had no in-edges, so its own row is unchanged; rows of its
        // out-neighbors 1 and 2 lost an in-edge.
        assert_eq!(effect.rows_changed, vec![1, 2]);
        assert_eq!(effect.removed, 2);
    }

    /// The two-list reference: every edge `(src, dst)` in `out` and
    /// reversed in `inn`.
    #[derive(Default)]
    struct Reference {
        nodes: usize,
        out: BTreeSet<(NodeId, NodeId)>,
        inn: BTreeSet<(NodeId, NodeId)>,
    }

    impl Reference {
        fn of(g: &Graph) -> Self {
            let mut r = Self {
                nodes: g.num_nodes(),
                ..Self::default()
            };
            for (src, row) in g.csr().iter_rows() {
                for &dst in row {
                    r.insert(src as NodeId, dst);
                }
            }
            r
        }

        fn insert(&mut self, src: NodeId, dst: NodeId) -> bool {
            self.inn.insert((dst, src));
            self.out.insert((src, dst))
        }

        fn remove(&mut self, src: NodeId, dst: NodeId) -> bool {
            self.inn.remove(&(dst, src));
            self.out.remove(&(src, dst))
        }

        fn list(set: &BTreeSet<(NodeId, NodeId)>, v: NodeId) -> Vec<NodeId> {
            set.range((v, 0)..=(v, NodeId::MAX))
                .map(|&(_, u)| u)
                .collect()
        }

        fn random_edge(&self, rng: &mut StdRng) -> Option<(NodeId, NodeId)> {
            let k = rng.gen_range(0..self.out.len().max(1));
            self.out.iter().nth(k).copied()
        }

        /// Applies `op` and returns the nodes whose in-list changed.
        fn apply(&mut self, op: GraphOp) -> BTreeSet<NodeId> {
            let mut rows = BTreeSet::new();
            match op {
                GraphOp::InsertEdge(s, d) => {
                    if self.insert(s, d) {
                        rows.insert(d);
                    }
                }
                GraphOp::RemoveEdge(s, d) => {
                    if self.remove(s, d) {
                        rows.insert(d);
                    }
                }
                GraphOp::AddNode => self.nodes += 1,
                GraphOp::IsolateNode(v) => {
                    for d in Self::list(&self.out, v) {
                        self.remove(v, d);
                        rows.insert(d);
                    }
                    for s in Self::list(&self.inn, v) {
                        self.remove(s, v);
                        rows.insert(v);
                    }
                }
            }
            rows
        }

        /// Every list of `g` equals the reference's, and exactly the nodes
        /// whose lists differ carry an explicit out-list.
        fn check(&self, g: &DynamicGraph) {
            assert_eq!(g.num_nodes(), self.nodes);
            assert_eq!(g.num_edges(), self.out.len());
            for v in 0..self.nodes {
                let (out, inn) = (
                    Self::list(&self.out, v as NodeId),
                    Self::list(&self.inn, v as NodeId),
                );
                assert_eq!(g.out_neighbors(v), out, "out-list of {v}");
                assert_eq!(g.in_neighbors(v), inn, "in-list of {v}");
                assert_eq!(g.out_degree(v), out.len());
                assert_eq!(
                    g.out.contains_key(&(v as NodeId)),
                    out != inn,
                    "node {v} in the side store iff its lists differ"
                );
            }
        }
    }

    #[test]
    fn random_mutations_match_rebuilt_graph() {
        for symmetric in [true, false] {
            let start = crate::generate::PowerLawSbm {
                nodes: 40,
                directed_edges: 240,
                exponent: 2.1,
                communities: 4,
                homophily: 0.8,
                symmetric,
                seed: 7,
            }
            .generate()
            .graph;
            assert_eq!(start.is_symmetric(), symmetric);
            let mut reference = Reference::of(&start);
            let mut g = DynamicGraph::from_graph(start);
            reference.check(&g);
            assert_eq!(g.out.is_empty(), symmetric);
            let mut rng = StdRng::seed_from_u64(7);
            for _ in 0..600 {
                let n = g.num_nodes() as NodeId;
                let (s, d) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let existing = reference.random_edge(&mut rng);
                let mut delta = GraphDelta::new();
                match rng.gen_range(0..8u32) {
                    0 if s != d => delta.insert_edge(s, d),
                    1 if s != d => delta.insert_undirected(s, d),
                    2 if s != d => delta.remove_edge(s, d),
                    3 => match existing {
                        Some((a, b)) => delta.remove_edge(a, b),
                        None => continue,
                    },
                    4 => match existing {
                        Some((a, b)) => delta.remove_edge(a, b).remove_edge(b, a),
                        None => continue,
                    },
                    // Re-symmetrise: add the missing reverse of an edge.
                    5 => match existing {
                        Some((a, b)) => delta.insert_edge(b, a),
                        None => continue,
                    },
                    6 => delta.isolate_node(s),
                    7 => delta.add_node(),
                    _ => continue,
                };
                let mut rows = BTreeSet::new();
                for &op in delta.ops() {
                    rows.extend(reference.apply(op));
                }
                let effect = g.apply(&delta).unwrap();
                assert_eq!(effect.rows_changed, rows.into_iter().collect::<Vec<_>>());
                reference.check(&g);
            }
            let edges = reference.out.iter().copied().collect();
            assert_eq!(
                g.to_graph(),
                Graph::from_directed_edges(reference.nodes, edges)
            );
        }
    }
}
