//! Property-based tests for the graph substrate.

use mega_graph::{Coo, Csr, Graph, NodeId};
use proptest::prelude::*;

fn arb_edges(
    max_nodes: usize,
    max_edges: usize,
) -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (2..max_nodes).prop_flat_map(move |n| {
        let edge = (0..n as NodeId, 0..n as NodeId);
        proptest::collection::vec(edge, 0..max_edges).prop_map(move |edges| (n, edges))
    })
}

proptest! {
    #[test]
    fn csr_roundtrips_through_coo((n, edges) in arb_edges(64, 256)) {
        let mut coo = Coo::from_edges(n, edges);
        coo.dedup();
        let csr = Csr::from_coo(&coo);
        let rebuilt = Csr::from_edges(n, n, &csr.to_coo());
        prop_assert_eq!(csr, rebuilt);
    }

    #[test]
    fn transpose_is_involutive((n, edges) in arb_edges(64, 256)) {
        let mut coo = Coo::from_edges(n, edges);
        coo.dedup();
        let csr = Csr::from_coo(&coo);
        prop_assert_eq!(csr.transpose().transpose(), csr);
    }

    #[test]
    fn transpose_preserves_nnz_and_swaps_degrees((n, edges) in arb_edges(48, 200)) {
        let mut coo = Coo::from_edges(n, edges);
        coo.dedup();
        let csr = Csr::from_coo(&coo);
        let t = csr.transpose();
        prop_assert_eq!(csr.nnz(), t.nnz());
        // Every edge (s, d) in csr appears as (d, s) in the transpose.
        for (s, row) in csr.iter_rows() {
            for &d in row {
                prop_assert!(t.contains(d as usize, s as NodeId));
            }
        }
    }

    #[test]
    fn graph_in_out_degree_sums_match((n, edges) in arb_edges(48, 200)) {
        let g = Graph::from_directed_edges(n, edges);
        let total_in: usize = (0..n).map(|v| g.in_degree(v)).sum();
        let total_out: usize = (0..n).map(|v| g.out_degree(v)).sum();
        prop_assert_eq!(total_in, g.num_edges());
        prop_assert_eq!(total_out, g.num_edges());
    }

    #[test]
    fn undirected_graphs_are_symmetric((n, edges) in arb_edges(48, 200)) {
        let g = Graph::from_undirected_edges(n, edges);
        prop_assert!(g.is_symmetric());
        for v in 0..n {
            prop_assert_eq!(g.in_degree(v), g.out_degree(v));
        }
    }

    #[test]
    fn is_symmetric_matches_explicit_transpose(
        (n, edges) in arb_edges(32, 120),
        unmirrored in 0usize..4,
    ) {
        // Every edge gets its reverse except the first `unmirrored`, so both
        // symmetric and nearly symmetric graphs come up.
        let mut all = edges.clone();
        all.extend(edges.iter().skip(unmirrored).map(|&(s, d)| (d, s)));
        let g = Graph::from_directed_edges(n, all);
        let transpose = g.csr().transpose();
        prop_assert_eq!(g.is_symmetric(), *g.csr() == transpose);
        prop_assert_eq!(g.csc(), &transpose);
    }

    #[test]
    fn dedup_is_idempotent((n, edges) in arb_edges(48, 200)) {
        let mut coo = Coo::from_edges(n, edges);
        coo.dedup();
        let once = coo.edges().to_vec();
        coo.dedup();
        prop_assert_eq!(once, coo.edges());
    }
}
