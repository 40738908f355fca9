//! Receptive-field closures over a graph's edges.
//!
//! An `L`-layer GNN's logits for a target `t` read every row within `L`
//! in-edge hops of `t` — at one hop, for the nodes of a part, exactly the
//! paper's `eID` lists ([`crate::SparseConnections`], §III-B). The
//! *influence closure* answers the inverse question: which targets does a
//! changed row reach within `L` out-edge hops. A serving result cache uses
//! it to invalidate exactly the logits a mutation can have affected.

use mega_graph::NodeId;

/// Expands `frontier` for `hops` rounds through `neighbors`, marking
/// reached nodes in `seen` and returning every *newly* reached node,
/// sorted ascending. Walking *in*-neighbors yields the rows a target's
/// receptive field reads; [`influence_closure_with`] walks *out*-neighbors
/// (which targets does a dirtied row influence).
fn close_frontier<'a, F>(
    seen: &mut [bool],
    mut frontier: Vec<NodeId>,
    hops: usize,
    neighbors: F,
) -> Vec<NodeId>
where
    F: Fn(usize) -> &'a [NodeId],
{
    let mut reached: Vec<NodeId> = Vec::new();
    for _ in 0..hops {
        let mut next = Vec::new();
        for &v in &frontier {
            for &u in neighbors(v as usize) {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    next.push(u);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        reached.extend_from_slice(&next);
        frontier = next;
    }
    reached.sort_unstable();
    reached
}

/// The *inverse* receptive-field closure: every node within `hops` **out**-edge hops
/// of a seed, including the seeds themselves, sorted ascending.
///
/// Where the in-edge closure answers "which rows does an `L`-layer
/// receptive field *read*", this answers the reverse question a result
/// cache needs for precise invalidation: "which targets' `L`-hop
/// receptive fields *contain* one of these rows". A target `t` reads row
/// `u` iff `u` reaches `t` within `L` out-edge hops, so the returned set
/// is exactly the cached logits a delta dirtying `seeds` can have
/// affected — everything outside it is provably untouched and may keep
/// serving from cache.
///
/// `num_nodes` bounds the id space; `out_neighbors` reads topology, so
/// static and dynamic graphs share one implementation.
///
/// # Panics
///
/// Panics if a seed or neighbor id is `>= num_nodes`.
pub fn influence_closure_with<'a, F>(
    seeds: &[NodeId],
    num_nodes: usize,
    hops: usize,
    out_neighbors: F,
) -> Vec<NodeId>
where
    F: Fn(usize) -> &'a [NodeId],
{
    let mut seen = vec![false; num_nodes];
    let mut frontier: Vec<NodeId> = Vec::with_capacity(seeds.len());
    for &v in seeds {
        if !seen[v as usize] {
            seen[v as usize] = true;
            frontier.push(v);
        }
    }
    let mut closure = frontier.clone();
    closure.extend(close_frontier(&mut seen, frontier, hops, out_neighbors));
    closure.sort_unstable();
    closure
}

#[cfg(test)]
mod tests {
    use super::*;

    use mega_graph::Graph;

    /// Edges 0→1→2→3→4→5 and 5→0: a directed 6-cycle.
    fn cycle() -> Graph {
        Graph::from_directed_edges(6, vec![(0, 1), (1, 2), (3, 4), (4, 5), (2, 3), (5, 0)])
    }

    #[test]
    fn influence_closure_walks_out_edges() {
        let g = cycle();
        let out = |v: usize| g.out_neighbors(v);
        // Seeds alone at zero hops (deduplicated and sorted).
        assert_eq!(influence_closure_with(&[2, 2, 0], 6, 0, out), vec![0, 2]);
        // Edges 0->1, 1->2, 2->3: node 0 influences 1 in one hop, 2 in two.
        assert_eq!(influence_closure_with(&[0], 6, 1, out), vec![0, 1]);
        assert_eq!(influence_closure_with(&[0], 6, 2, out), vec![0, 1, 2]);
        // Saturates once the frontier empties instead of looping.
        let all = influence_closure_with(&[0], 6, 64, out);
        assert!(all.len() <= 6 && all.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn influence_closure_inverts_the_halo_closure() {
        // u is in the L-hop in-closure of t exactly when t is in the L-hop
        // influence (out-)closure of u — on every pair of this graph.
        let g = cycle();
        for hops in 0..3usize {
            for u in 0..6u32 {
                let influenced = influence_closure_with(&[u], 6, hops, |v| g.out_neighbors(v));
                for t in 0..6u32 {
                    let mut seen = vec![false; 6];
                    seen[t as usize] = true;
                    let field = close_frontier(&mut seen, vec![t], hops, |v| g.in_neighbors(v));
                    let field_has_u = u == t || field.binary_search(&u).is_ok();
                    assert_eq!(
                        field_has_u,
                        influenced.binary_search(&t).is_ok(),
                        "hops {hops}: field({t}) ∋ {u} must equal influence({u}) ∋ {t}"
                    );
                }
            }
        }
    }
}
