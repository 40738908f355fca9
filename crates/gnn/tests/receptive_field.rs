//! Property tests for the [`ReceptiveField::expand`] invariants the
//! blocked kernel dispatch depends on. The position-array aggregation in
//! `mega_gnn::kernel` indexes `combined` rows by `pos[u]` without a
//! membership check — sound exactly when:
//!
//! 1. every per-level `needed` list is sorted ascending and deduplicated,
//! 2. every aggregation source (the `row` of a level-`l+1` node) is
//!    present in level `l`, and
//! 3. the requested targets are exactly the last level (sorted, deduped).

use mega_gnn::{build_adjacency, AdjacencyView, AggregatorKind, ReceptiveField};
use mega_graph::{Graph, NodeId};
use proptest::prelude::*;

const KINDS: [AggregatorKind; 3] = [
    AggregatorKind::GcnSymmetric,
    AggregatorKind::GinSum,
    AggregatorKind::SageMean { sample: 3, seed: 7 },
];

fn arb_graph_and_targets(
    max_nodes: usize,
    max_edges: usize,
) -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>, Vec<NodeId>)> {
    (2..max_nodes).prop_flat_map(move |n| {
        let edge = (0..n as NodeId, 0..n as NodeId);
        let edges = proptest::collection::vec(edge, 0..max_edges);
        // Duplicates allowed on purpose: expand must dedup them.
        let targets = proptest::collection::vec(0..n as NodeId, 1..12);
        (edges, targets).prop_map(move |(edges, targets)| (n, edges, targets))
    })
}

fn assert_field_invariants<A: AdjacencyView + ?Sized>(
    adjacency: &A,
    targets: &[NodeId],
    layers: usize,
) {
    let field = ReceptiveField::expand(adjacency, targets, layers);
    prop_assert_eq!(field.needed.len(), layers + 1);

    // (1) Every level is strictly ascending — sorted and deduplicated.
    for (l, level) in field.needed.iter().enumerate() {
        prop_assert!(
            level.windows(2).all(|w| w[0] < w[1]),
            "level {} is not sorted + deduped",
            l
        );
        for &v in level {
            prop_assert!((v as usize) < adjacency.rows(), "level {} escapes", l);
        }
    }

    // (3) Targets are exactly the last level.
    let mut expected: Vec<NodeId> = targets.to_vec();
    expected.sort_unstable();
    expected.dedup();
    prop_assert_eq!(&field.needed[layers], &expected);

    // (2) Every aggregation source of level l+1 is present in level l —
    // the exact reads the kernel position array resolves.
    for l in 0..layers {
        let level = &field.needed[l];
        for &v in &field.needed[l + 1] {
            for u in adjacency.row(v as usize).iter() {
                prop_assert!(
                    level.binary_search(&u).is_ok(),
                    "source {} of node {} missing from level {}",
                    u,
                    v,
                    l
                );
            }
        }
    }
}

proptest! {
    /// The invariants hold on arbitrary static graphs, every aggregator,
    /// and every layer count the serving models use.
    #[test]
    fn expand_upholds_position_array_invariants(
        (n, edges, targets) in arb_graph_and_targets(32, 128),
        layers in 1..4usize,
    ) {
        for kind in KINDS {
            let graph = Graph::from_directed_edges(n, edges.clone());
            let adj = build_adjacency(&graph, kind);
            assert_field_invariants(adj.as_ref(), &targets, layers);
        }
    }

    /// `total_rows` and `nodes` stay consistent with the level lists —
    /// the batch-costing and cache-invalidation consumers read these.
    #[test]
    fn field_accessors_match_levels(
        (n, edges, targets) in arb_graph_and_targets(24, 96),
    ) {
        let graph = Graph::from_directed_edges(n, edges);
        let adj = build_adjacency(&graph, AggregatorKind::GcnSymmetric);
        let field = ReceptiveField::expand(adj.as_ref(), &targets, 2);
        prop_assert_eq!(
            field.total_rows(),
            field.needed.iter().map(Vec::len).sum::<usize>()
        );
        let nodes = field.nodes();
        prop_assert!(nodes.windows(2).all(|w| w[0] < w[1]));
        for level in &field.needed {
            for v in level {
                prop_assert!(nodes.binary_search(v).is_ok());
            }
        }
        prop_assert!(field.intersects(&nodes) || nodes.is_empty());
    }
}
