//! The result of a partitioning run, with the metrics and edge
//! classifications the accelerator models consume.

use mega_graph::{Graph, NodeId};

/// A k-way node assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    assignment: Vec<u32>,
    k: usize,
    /// Node count per part, maintained incrementally so append-heavy
    /// streaming placement ([`Partitioning::push_balanced`]) stays
    /// `O(k + degree)` per node instead of rescanning the assignment.
    sizes: Vec<usize>,
}

/// Classification of a graph's edges under a partitioning, in the paper's
/// terms: *dense subgraph* edges stay within a part, *sparse connections*
/// cross parts (paper §III-B, Fig. 12).
#[derive(Debug, Clone)]
pub struct SparseConnections {
    /// Per destination part: sorted, deduplicated external source node IDs
    /// (the `eID`s consumed by the Condense Unit, Algorithm 1).
    pub external_sources: Vec<Vec<NodeId>>,
    /// Number of intra-part (dense subgraph) edges.
    pub intra_edges: usize,
    /// Number of inter-part (sparse connection) edges.
    pub inter_edges: usize,
}

impl Partitioning {
    /// Wraps an assignment.
    ///
    /// # Panics
    ///
    /// Panics if any part id is `>= k`.
    pub fn new(assignment: Vec<u32>, k: usize) -> Self {
        assert!(
            assignment.iter().all(|&p| (p as usize) < k),
            "part id out of range"
        );
        let mut sizes = vec![0usize; k];
        for &p in &assignment {
            sizes[p as usize] += 1;
        }
        Self {
            assignment,
            k,
            sizes,
        }
    }

    /// Number of parts.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Node→part assignment.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Part of node `v`.
    pub fn part_of(&self, v: usize) -> u32 {
        self.assignment[v]
    }

    /// Streams one more node into a part by linear deterministic greedy
    /// placement (LDG; Stanton & Kliot, KDD 2012): among the parts below
    /// the capacity `C = ⌈1.05 · (len + 1) / k⌉`, choose the one
    /// maximizing `|N(v) ∩ P_i| · (1 − |P_i| / C)`, where `neighbor_parts`
    /// lists the parts of the node's already-placed neighbors (repeats
    /// count). Ties go to the smaller part, then to the lower id. Returns
    /// the chosen part.
    ///
    /// Every part stays within `C`, so a stream of any shape — a path, a
    /// star, a whole graph replayed from empty — fills all `k` parts
    /// instead of following its neighbors into one. A node with no placed
    /// neighbor goes to the smallest eligible part.
    ///
    /// Out-of-range entries in `neighbor_parts` are ignored.
    pub fn push_balanced(&mut self, neighbor_parts: &[u32]) -> u32 {
        // Integer arithmetic keeps the 1.05 slack exact: C = ⌈105·(len+1) / 100k⌉.
        let capacity = (105 * (self.assignment.len() + 1)).div_ceil(100 * self.k);
        let mut shared = vec![0usize; self.k];
        for &p in neighbor_parts {
            if let Some(count) = shared.get_mut(p as usize) {
                *count += 1;
            }
        }
        // The score is `C` times the LDG score, so comparing it in
        // integers is exact. Some part is always below `C`, because
        // `k·C ≥ 1.05·(len + 1) > len`.
        let part = (0..self.k)
            .filter(|&p| self.sizes[p] < capacity)
            .max_by_key(|&p| {
                let score = shared[p] * (capacity - self.sizes[p]);
                (score, std::cmp::Reverse((self.sizes[p], p)))
            })
            .expect("some part is below capacity");
        self.assignment.push(part as u32);
        self.sizes[part] += 1;
        part as u32
    }

    /// Node count per part (`O(k)` — maintained incrementally).
    pub fn part_sizes(&self) -> Vec<usize> {
        self.sizes.clone()
    }

    /// Nodes of each part, in ascending node order.
    pub fn members(&self) -> Vec<Vec<NodeId>> {
        let mut members = vec![Vec::new(); self.k];
        for (v, &p) in self.assignment.iter().enumerate() {
            members[p as usize].push(v as NodeId);
        }
        members
    }

    /// Number of directed edges whose endpoints lie in different parts.
    pub fn edge_cut(&self, graph: &Graph) -> usize {
        let mut cut = 0usize;
        for v in 0..graph.num_nodes() {
            for &u in graph.out_neighbors(v) {
                if self.assignment[v] != self.assignment[u as usize] {
                    cut += 1;
                }
            }
        }
        cut
    }

    /// Fraction of edges cut.
    pub fn cut_fraction(&self, graph: &Graph) -> f64 {
        if graph.num_edges() == 0 {
            0.0
        } else {
            self.edge_cut(graph) as f64 / graph.num_edges() as f64
        }
    }

    /// Maximum part size divided by the ideal size `n/k`.
    pub fn balance(&self) -> f64 {
        let sizes = self.part_sizes();
        let max = *sizes.iter().max().unwrap_or(&0) as f64;
        let ideal = self.assignment.len() as f64 / self.k as f64;
        if ideal == 0.0 {
            1.0
        } else {
            max / ideal
        }
    }

    /// Classifies edges into dense-subgraph vs sparse-connection sets and
    /// computes, per part, the external source nodes whose features must be
    /// fetched when aggregating that part (the paper's `eID` lists).
    pub fn sparse_connections(&self, graph: &Graph) -> SparseConnections {
        let mut external: Vec<Vec<NodeId>> = vec![Vec::new(); self.k];
        let mut intra = 0usize;
        let mut inter = 0usize;
        for dst in 0..graph.num_nodes() {
            let dp = self.assignment[dst] as usize;
            for &src in graph.in_neighbors(dst) {
                if self.assignment[src as usize] as usize == dp {
                    intra += 1;
                } else {
                    inter += 1;
                    external[dp].push(src);
                }
            }
        }
        for list in &mut external {
            list.sort_unstable();
            list.dedup();
        }
        SparseConnections {
            external_sources: external,
            intra_edges: intra,
            inter_edges: inter,
        }
    }
}

impl SparseConnections {
    /// Total distinct external fetches summed over parts (a node needed by
    /// `p` parts counts `p` times, matching the paper's reuse analysis:
    /// within one subgraph a node is fetched once, across subgraphs again).
    pub fn total_external_fetches(&self) -> usize {
        self.external_sources.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0-1-2 in part 0; 3-4-5 in part 1; cross edges 2->3, 5->0.
    fn setup() -> (Graph, Partitioning) {
        let g = Graph::from_directed_edges(6, vec![(0, 1), (1, 2), (3, 4), (4, 5), (2, 3), (5, 0)]);
        let p = Partitioning::new(vec![0, 0, 0, 1, 1, 1], 2);
        (g, p)
    }

    #[test]
    fn cut_counts_cross_part_edges() {
        let (g, p) = setup();
        assert_eq!(p.edge_cut(&g), 2);
        assert!((p.cut_fraction(&g) - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn sparse_connections_lists_external_sources() {
        let (g, p) = setup();
        let sc = p.sparse_connections(&g);
        assert_eq!(sc.intra_edges, 4);
        assert_eq!(sc.inter_edges, 2);
        // Part 0 aggregates node 0 which needs node 5 (external).
        assert_eq!(sc.external_sources[0], vec![5]);
        // Part 1 aggregates node 3 which needs node 2 (external).
        assert_eq!(sc.external_sources[1], vec![2]);
        assert_eq!(sc.total_external_fetches(), 2);
    }

    #[test]
    fn external_sources_dedup_across_multiple_uses() {
        // Node 0 feeds both 2 and 3 in part 1: fetched once.
        let g = Graph::from_directed_edges(4, vec![(0, 2), (0, 3), (1, 2)]);
        let p = Partitioning::new(vec![0, 1, 1, 1], 2);
        let sc = p.sparse_connections(&g);
        assert_eq!(sc.external_sources[1], vec![0]);
        assert_eq!(sc.inter_edges, 2);
    }

    #[test]
    fn members_and_sizes_agree() {
        let (_, p) = setup();
        let m = p.members();
        assert_eq!(m[0], vec![0, 1, 2]);
        assert_eq!(m[1], vec![3, 4, 5]);
        assert_eq!(p.part_sizes(), vec![3, 3]);
    }

    #[test]
    fn balance_of_even_split_is_one() {
        let (_, p) = setup();
        assert!((p.balance() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_part_id_panics() {
        let _ = Partitioning::new(vec![0, 2], 2);
    }

    #[test]
    fn push_balanced_prefers_lightest_neighbor_part() {
        // Sizes [2, 1]; placing node 3 gives C = ⌈1.05 · 4 / 2⌉ = 3.
        let mut p = Partitioning::new(vec![0, 0, 1], 2);
        // One neighbor in each part: scores 1·(3−2) < 1·(3−1), so the
        // lighter part wins.
        assert_eq!(p.push_balanced(&[0, 1]), 1);
        // Sizes [2, 2], C = 3. Three neighbors in part 0 outweigh one in
        // part 1: 3·(3−2) > 1·(3−2).
        assert_eq!(p.push_balanced(&[0, 0, 0, 1]), 0);
        // Sizes [3, 2], C = ⌈1.05 · 6 / 2⌉ = 4. Two neighbors in part 0
        // score 2·(4−3) = 2, one in part 1 scores 1·(4−2) = 2; the tie
        // goes to the smaller part.
        assert_eq!(p.push_balanced(&[0, 0, 1]), 1);
        // Sizes [3, 3], C = ⌈1.05 · 7 / 2⌉ = 4: a lone neighbor part wins.
        assert_eq!(p.push_balanced(&[0]), 0);
        // Sizes [4, 3], C = ⌈1.05 · 8 / 2⌉ = 5: still below C, part 0
        // keeps its locality.
        assert_eq!(p.push_balanced(&[0]), 0);
        // Sizes [5, 3], C = ⌈1.05 · 9 / 2⌉ = 5: part 0 is full, so the
        // node goes to part 1 however many neighbors sit in part 0.
        assert_eq!(p.push_balanced(&[0, 0, 0]), 1);
        assert_eq!(p.part_sizes(), vec![5, 4]);
    }

    #[test]
    fn push_balanced_spreads_a_path_within_capacity() {
        // Grow the path 0 → 1 → … node by node: each node's only placed
        // neighbor is its predecessor. Following the neighbor alone would
        // put the whole path in one part.
        let k = 4;
        let mut p = Partitioning::new(Vec::new(), k);
        for v in 0..1000usize {
            let neighbors: Vec<u32> = v.checked_sub(1).map(|u| p.part_of(u)).into_iter().collect();
            p.push_balanced(&neighbors);
            let capacity = (105 * (v + 1)).div_ceil(100 * k);
            let largest = p.part_sizes().into_iter().max().unwrap();
            assert!(
                largest <= capacity,
                "node {v}: a part holds {largest} > C = {capacity}"
            );
        }
        assert!(p.part_sizes().iter().all(|&s| s > 0));
        // Locality survives: a random 4-way assignment cuts ~3/4 of the
        // path's 999 edges; the stream keeps same-part stretches and cuts
        // under a quarter.
        let path = Graph::from_directed_edges(1000, (1..1000u32).map(|v| (v - 1, v)).collect());
        let cut = p.edge_cut(&path);
        assert!(cut * 4 < 999, "cut {cut}");
    }

    #[test]
    fn push_balanced_falls_back_to_global_minimum() {
        let mut p = Partitioning::new(vec![0, 0, 1, 2], 3);
        // No neighbors at all: globally least-loaded (tie 1 vs 2 -> 1).
        assert_eq!(p.push_balanced(&[]), 1);
        // Stale out-of-range neighbor parts are ignored.
        assert_eq!(p.push_balanced(&[9]), 2);
        assert_eq!(p.part_sizes(), vec![2, 2, 2]);
    }
}
