//! The receptive field of a target set: which rows each layer of an
//! `L`-layer GNN must materialize to produce logits for just those targets.
//!
//! An `L`-layer GNN only needs the `L`-hop in-neighborhood of a node to
//! classify it, so serving pays per-request cost proportional to that
//! neighborhood — not to the whole graph. [`ReceptiveField::expand`] walks
//! the normalized adjacency from the targets inward; the forward pass over
//! the field lives in [`crate::kernel`].

use mega_graph::NodeId;

use crate::adjacency::AdjacencyView;

/// The receptive field of a target set: which rows each layer must
/// materialize. `needed[l]` holds the nodes whose layer-`l` activations are
/// required; `needed[layers]` is the deduplicated, sorted target set.
#[derive(Debug, Clone)]
pub struct ReceptiveField {
    /// Per-level sorted node lists, innermost (input) first.
    pub needed: Vec<Vec<NodeId>>,
}

impl ReceptiveField {
    /// Expands `targets` through `layers` hops of `adjacency` rows.
    pub fn expand<A: AdjacencyView + ?Sized>(
        adjacency: &A,
        targets: &[NodeId],
        layers: usize,
    ) -> Self {
        let mut needed = vec![Vec::new(); layers + 1];
        let mut level: Vec<NodeId> = targets.to_vec();
        level.sort_unstable();
        level.dedup();
        needed[layers] = level;
        for l in (0..layers).rev() {
            let mut frontier: Vec<NodeId> = needed[l + 1]
                .iter()
                .flat_map(|&v| adjacency.row(v as usize).iter())
                .collect();
            frontier.sort_unstable();
            frontier.dedup();
            needed[l] = frontier;
        }
        Self { needed }
    }

    /// Total number of node-rows materialized across all levels — the cost
    /// proxy the serving scheduler uses for batch accounting.
    pub fn total_rows(&self) -> usize {
        self.needed.iter().map(Vec::len).sum()
    }

    /// The distinct nodes the field touches at *any* level, sorted
    /// ascending. This is the set a result cache must test a delta's dirty
    /// rows against: a target's cached logits stay valid exactly while its
    /// field's node set is disjoint from every mutated row.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.needed.concat();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Whether the field touches any node of `sorted` (ascending node
    /// ids) — the invalidation predicate behind per-node logits caching,
    /// exposed so callers can cross-check cheaper inverse-reachability
    /// computations against the field definition itself.
    pub fn intersects(&self, sorted: &[NodeId]) -> bool {
        self.needed
            .iter()
            .flatten()
            .any(|v| sorted.binary_search(v).is_ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::build_adjacency;
    use crate::model::GnnKind;
    use mega_graph::datasets::DatasetSpec;
    use mega_tensor::CsrMatrix;

    fn setup() -> std::rc::Rc<CsrMatrix> {
        let d = DatasetSpec::cora()
            .scaled(0.05)
            .with_feature_dim(48)
            .materialize();
        build_adjacency(&d.graph, GnnKind::Gcn.aggregator(1))
    }

    #[test]
    fn receptive_field_shrinks_toward_input() {
        let adj = setup();
        let field = ReceptiveField::expand(&adj, &[0, 1], 2);
        assert_eq!(field.needed[2], vec![0, 1]);
        // Each level expands (or at least keeps) the frontier.
        assert!(field.needed[1].len() >= field.needed[2].len());
        assert!(field.needed[0].len() >= field.needed[1].len());
        assert_eq!(field.total_rows(), field.needed.iter().map(Vec::len).sum());
    }

    #[test]
    fn field_nodes_and_intersection_track_levels() {
        let adj = setup();
        let field = ReceptiveField::expand(&adj, &[0, 1], 2);
        let nodes = field.nodes();
        assert!(nodes.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
        for level in &field.needed {
            assert!(level.iter().all(|v| nodes.binary_search(v).is_ok()));
        }
        assert!(field.intersects(&nodes));
        assert!(field.intersects(&[0]), "targets are part of their field");
        let outside: Vec<NodeId> = (0..adj.rows() as NodeId)
            .filter(|v| nodes.binary_search(v).is_err())
            .take(3)
            .collect();
        assert!(!field.intersects(&outside));
        assert!(!field.intersects(&[]));
    }
}
