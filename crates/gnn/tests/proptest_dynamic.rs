//! Property tests for the dynamic-graph adjacency: after *any* random
//! sequence of edge/node upserts and removals, the incrementally maintained
//! [`DynAdjacency`] is bit-exact with [`build_adjacency`] rebuilt from
//! scratch on the final graph — for every aggregator kind.

use std::sync::Arc;

use mega_gnn::{build_adjacency, AdjacencyView, AggregatorKind, DynAdjacency};
use mega_graph::{DynamicGraph, Graph, GraphDelta, NodeId};
use proptest::prelude::*;

const KINDS: [AggregatorKind; 3] = [
    AggregatorKind::GcnSymmetric,
    AggregatorKind::GinSum,
    AggregatorKind::SageMean {
        sample: 3,
        seed: 11,
    },
];

fn arb_start(
    max_nodes: usize,
    max_edges: usize,
) -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (2..max_nodes).prop_flat_map(move |n| {
        let edge = (0..n as NodeId, 0..n as NodeId);
        proptest::collection::vec(edge, 0..max_edges).prop_map(move |edges| (n, edges))
    })
}

/// Raw mutation ops: `(kind, a, b)` with endpoints mapped modulo the live
/// node count at application time, so every op is valid by construction.
fn arb_ops(max_ops: usize) -> impl Strategy<Value = Vec<(u8, u32, u32)>> {
    proptest::collection::vec((0..10u8, 0..1024u32, 0..1024u32), 1..max_ops)
}

/// Builds deltas from raw ops in chunks of `chunk`, applying each to the
/// graph + incremental adjacency. Returns the number of deltas applied.
fn apply_raw_ops(
    dg: &mut Arc<DynamicGraph>,
    adj: &mut DynAdjacency,
    ops: &[(u8, u32, u32)],
    chunk: usize,
) -> usize {
    let mut deltas = 0;
    for ops_chunk in ops.chunks(chunk.max(1)) {
        let mut delta = GraphDelta::new();
        // Mirror `DynamicGraph::validate`'s running node count so ids of
        // nodes added earlier in the same delta are addressable.
        let mut count = dg.num_nodes();
        for &(kind, a, b) in ops_chunk {
            let s = (a as usize % count) as NodeId;
            let d = (b as usize % count) as NodeId;
            match kind {
                0..=4 => {
                    // Inserts dominate so graphs grow into interesting shapes.
                    if s != d {
                        delta.insert_edge(s, d);
                    }
                }
                5..=6 => {
                    if s != d {
                        delta.remove_edge(s, d);
                    }
                }
                7 => {
                    delta.add_node();
                    count += 1;
                }
                _ => {
                    delta.isolate_node(s);
                }
            }
        }
        adj.apply(dg, &delta).expect("ops valid by construction");
        deltas += 1;
    }
    deltas
}

proptest! {
    /// The satellite property: incremental maintenance == full rebuild,
    /// bit-exact, for all aggregator kinds.
    #[test]
    fn incremental_adjacency_matches_full_rebuild(
        (n, edges) in arb_start(24, 96),
        ops in arb_ops(48),
        chunk in 1..8usize,
    ) {
        for kind in KINDS {
            let start = Graph::from_directed_edges(n, edges.clone());
            let mut dg = Arc::new(DynamicGraph::from_graph(start.clone()));
            let mut adj = DynAdjacency::build(&dg, kind);
            apply_raw_ops(&mut dg, &mut adj, &ops, chunk);
            let rebuilt = build_adjacency(&dg.to_graph(), kind);
            prop_assert_eq!(adj.to_csr(), (*rebuilt).clone(), "kind {:?}", kind);
        }
    }

    /// Chunking must not matter: one op per delta and many ops per delta
    /// land on the same adjacency.
    #[test]
    fn delta_granularity_is_irrelevant(
        (n, edges) in arb_start(16, 48),
        ops in arb_ops(24),
    ) {
        let start = Graph::from_directed_edges(n, edges);
        let kind = AggregatorKind::GcnSymmetric;
        let mut fine_g = Arc::new(DynamicGraph::from_graph(start.clone()));
        let mut fine_a = DynAdjacency::build(&fine_g, kind);
        apply_raw_ops(&mut fine_g, &mut fine_a, &ops, 1);
        let mut coarse_g = Arc::new(DynamicGraph::from_graph(start));
        let mut coarse_a = DynAdjacency::build(&coarse_g, kind);
        apply_raw_ops(&mut coarse_g, &mut coarse_a, &ops, ops.len());
        prop_assert_eq!(fine_g, coarse_g);
        prop_assert_eq!(fine_a.to_csr(), coarse_a.to_csr());
    }

    /// The dynamic graph itself stays consistent with a from-scratch
    /// rebuild of its edge set.
    #[test]
    fn dynamic_graph_matches_rebuilt_graph(
        (n, edges) in arb_start(24, 96),
        ops in arb_ops(48),
        chunk in 1..6usize,
    ) {
        let start = Graph::from_directed_edges(n, edges);
        let mut dg = Arc::new(DynamicGraph::from_graph(start));
        let mut adj = DynAdjacency::build(&dg, AggregatorKind::GinSum);
        apply_raw_ops(&mut dg, &mut adj, &ops, chunk);
        let frozen = dg.to_graph();
        prop_assert_eq!(frozen.num_nodes(), dg.num_nodes());
        prop_assert_eq!(frozen.num_edges(), dg.num_edges());
        for v in 0..dg.num_nodes() {
            prop_assert_eq!(frozen.in_neighbors(v), dg.in_neighbors(v));
            prop_assert_eq!(frozen.out_neighbors(v), dg.out_neighbors(v));
        }
    }
}

/// The acceptance-criterion cost bound, deterministic: a single edge insert
/// refreshes only the destination row plus (for GCN) the rows referencing
/// the destination as a column — asymptotically cheaper than the full
/// rebuild's `n` rows.
#[test]
fn single_insert_touches_only_affected_rows() {
    let spec = mega_graph::DatasetSpec::cora().scaled(0.3);
    let graph = spec.materialize().graph;
    let n = graph.num_nodes();
    let mut dg = Arc::new(DynamicGraph::from_graph(graph.clone()));

    // GCN: dirty set is {dst} ∪ out_neighbors(dst).
    let mut adj = DynAdjacency::build(&dg, AggregatorKind::GcnSymmetric);
    let (src, dst) = (0u32, (n as u32) / 2);
    assert!(!dg.has_edge(src, dst), "pick an absent edge");
    let expected = 1 + dg.out_degree(dst as usize);
    let mut delta = GraphDelta::new();
    delta.insert_edge(src, dst);
    let refreshed = adj.apply(&mut dg, &delta).unwrap().1.len();
    assert_eq!(refreshed, expected);
    assert_eq!(adj.rows_refreshed(), expected as u64);
    assert!(
        refreshed < n / 8,
        "incremental update touched {refreshed} of {n} rows — not asymptotically cheaper"
    );

    // GIN/SAGE: only the destination row.
    for kind in [
        AggregatorKind::GinSum,
        AggregatorKind::SageMean {
            sample: 25,
            seed: 1,
        },
    ] {
        let mut dg2 = Arc::new(DynamicGraph::from_graph(graph.clone()));
        let mut adj2 = DynAdjacency::build(&dg2, kind);
        let mut delta = GraphDelta::new();
        delta.insert_edge(src, dst);
        let (_, dirty) = adj2.apply(&mut dg2, &delta).unwrap();
        assert_eq!(dirty, vec![dst], "{kind:?}");
    }
}

/// GCN weights are computed from degrees, not stored: an insert into `d`
/// moves `1/sqrt(d̂_d)`, so a row `r` reading `d` as a column weighs it
/// anew although `r`'s columns were not rewritten — bit-exactly what a
/// rebuild on the new graph stores.
#[test]
fn gcn_weights_follow_a_column_degree_change() {
    let graph = mega_graph::DatasetSpec::cora()
        .scaled(0.3)
        .materialize()
        .graph;
    let n = graph.num_nodes() as NodeId;
    let mut dg = Arc::new(DynamicGraph::from_graph(graph));
    let kind = AggregatorKind::GcnSymmetric;
    let mut adj = DynAdjacency::build(&dg, kind);
    let d = (0..n)
        .find(|&d| dg.out_degree(d as usize) > 0)
        .expect("a node others read");
    let r = dg.out_neighbors(d as usize)[0];
    let src = (0..n)
        .find(|&s| s != d && s != r && !dg.has_edge(s, d))
        .expect("an absent in-edge of d");
    let columns: Vec<NodeId> = adj.row(r as usize).iter().collect();
    let k = columns.binary_search(&d).expect("r reads d");
    let old = adj.row_weights(r as usize).at(k, d);

    let mut delta = GraphDelta::new();
    delta.insert_edge(src, d);
    let (effect, dirty) = adj.apply(&mut dg, &delta).unwrap();
    assert_eq!(effect.rows_changed, vec![d], "r's in-list is unchanged");
    assert!(dirty.contains(&r), "r is still reported dirty");
    assert_eq!(adj.row(r as usize).iter().collect::<Vec<_>>(), columns);

    let inv_sqrt = |v: NodeId| 1.0 / ((dg.in_degree(v as usize) + 1) as f32).sqrt();
    let new = adj.row_weights(r as usize).at(k, d);
    assert_eq!(new.to_bits(), (inv_sqrt(r) * inv_sqrt(d)).to_bits());
    assert_ne!(new.to_bits(), old.to_bits(), "d's degree moved the weight");
    let rebuilt = build_adjacency(&dg.to_graph(), kind);
    assert_eq!(rebuilt.row_indices(r as usize), columns.as_slice());
    assert_eq!(new.to_bits(), rebuilt.row_values(r as usize)[k].to_bits());
}
