//! Multilevel k-way graph partitioning (METIS-like) for the MEGA
//! reproduction.
//!
//! The paper's Condense-Edge scheduling strategy (§V-E), as well as the GROW
//! and GCoD baselines, partition the graph with METIS \[28\] before
//! aggregation: dense subgraphs are processed one at a time while *sparse
//! connections* (edges crossing subgraphs) cause the irregular DRAM traffic
//! the paper attacks. METIS itself is unavailable here, so this crate
//! implements the same classic multilevel scheme METIS uses:
//!
//! 1. **Coarsening** — repeated heavy-edge matching merges strongly
//!    connected node pairs until the graph is small ([`coarsen`]);
//! 2. **Initial partitioning** — greedy region growing assigns the coarsest
//!    nodes to `k` balanced parts ([`initial`]);
//! 3. **Uncoarsening + refinement** — the assignment is projected back and
//!    improved by boundary Kernighan–Lin moves ([`refine`]).
//!
//! The serving engine runs none of this. It uses only the streaming
//! placement [`Partitioning::push_balanced`] (one linear deterministic
//! greedy rule for the nodes of a model build and for nodes added at run
//! time) and the receptive-field [`influence_closure_with`].
//!
//! # Example
//!
//! ```
//! use mega_graph::generate::PowerLawSbm;
//! use mega_partition::{partition, PartitionConfig};
//!
//! let g = PowerLawSbm {
//!     nodes: 300, directed_edges: 1200, exponent: 2.1,
//!     communities: 4, homophily: 0.85, symmetric: true, seed: 3,
//! }.generate().graph;
//! let parts = partition(&g, &PartitionConfig::new(4));
//! assert_eq!(parts.k(), 4);
//! // A sensible partition cuts well under half of this homophilous graph.
//! assert!(parts.cut_fraction(&g) < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coarsen;
pub mod halo;
pub mod initial;
pub mod partitioning;
pub mod refine;
pub mod wgraph;

pub use halo::influence_closure_with;
pub use partitioning::{Partitioning, SparseConnections};
pub use wgraph::WGraph;

use mega_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration for [`partition`].
#[derive(Debug, Clone)]
pub struct PartitionConfig {
    /// Number of parts `k`.
    pub k: usize,
    /// Allowed imbalance: a part may weigh up to
    /// `max_imbalance × total/k` (METIS default is 1.03; we default 1.05).
    pub max_imbalance: f64,
    /// Stop coarsening once the graph has at most `coarsen_to × k` nodes.
    pub coarsen_to_per_part: usize,
    /// Refinement passes per uncoarsening level.
    pub refine_passes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl PartitionConfig {
    /// Defaults for `k` parts.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            max_imbalance: 1.05,
            coarsen_to_per_part: 30,
            refine_passes: 4,
            seed: 0x9A97,
        }
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Partitions `graph` into `config.k` balanced parts minimizing edge cut.
///
/// # Panics
///
/// Panics if `k == 0` or `k` exceeds the node count.
pub fn partition(graph: &Graph, config: &PartitionConfig) -> Partitioning {
    assert!(config.k > 0, "k must be positive");
    assert!(config.k <= graph.num_nodes().max(1), "k exceeds node count");
    if config.k == 1 {
        return Partitioning::new(vec![0; graph.num_nodes()], 1);
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut levels: Vec<(WGraph, Vec<u32>)> = Vec::new();
    let mut current = WGraph::from_graph(graph);
    let stop = (config.coarsen_to_per_part * config.k).max(2 * config.k);
    while current.num_nodes() > stop {
        let (coarse, cmap) = coarsen::coarsen_once(&current, &mut rng);
        let stalled = coarse.num_nodes() as f64 > current.num_nodes() as f64 * 0.95;
        levels.push((std::mem::replace(&mut current, coarse), cmap));
        if stalled {
            // Matching degenerates on star-like graphs; stop early rather
            // than looping without progress.
            break;
        }
    }
    let mut assignment = initial::greedy_growing(&current, config.k, &mut rng);
    refine::refine(
        &current,
        &mut assignment,
        config.k,
        config.max_imbalance,
        config.refine_passes,
        &mut rng,
    );
    // Project back through the levels, refining at each.
    while let Some((fine, cmap)) = levels.pop() {
        let mut fine_assignment = vec![0u32; fine.num_nodes()];
        for (v, &cv) in cmap.iter().enumerate() {
            fine_assignment[v] = assignment[cv as usize];
        }
        refine::refine(
            &fine,
            &mut fine_assignment,
            config.k,
            config.max_imbalance,
            config.refine_passes,
            &mut rng,
        );
        assignment = fine_assignment;
    }
    Partitioning::new(assignment, config.k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mega_graph::generate::PowerLawSbm;

    fn test_graph(seed: u64) -> (Graph, Vec<u16>) {
        let out = PowerLawSbm {
            nodes: 600,
            directed_edges: 3000,
            exponent: 2.1,
            communities: 4,
            homophily: 0.9,
            symmetric: true,
            seed,
        }
        .generate();
        (out.graph, out.communities)
    }

    #[test]
    fn produces_k_nonempty_balanced_parts() {
        let (g, _) = test_graph(1);
        let p = partition(&g, &PartitionConfig::new(4));
        let sizes = p.part_sizes();
        assert_eq!(sizes.len(), 4);
        assert!(sizes.iter().all(|&s| s > 0), "empty part: {sizes:?}");
        let max = *sizes.iter().max().unwrap() as f64;
        let ideal = g.num_nodes() as f64 / 4.0;
        assert!(max <= ideal * 1.35, "imbalanced: {sizes:?}");
    }

    #[test]
    fn cut_is_much_better_than_random() {
        let (g, _) = test_graph(2);
        let p = partition(&g, &PartitionConfig::new(4));
        let cut = p.edge_cut(&g);
        // Random 4-way assignment cuts ~75% of edges; on a 0.9-homophily
        // 4-community graph a multilevel partitioner should do far better.
        let random_cut = (g.num_edges() as f64 * 0.75) as usize;
        assert!(
            cut * 2 < random_cut,
            "cut {cut} not < half of random {random_cut}"
        );
    }

    #[test]
    fn k_equal_one_puts_everything_in_part_zero() {
        let (g, _) = test_graph(3);
        let p = partition(&g, &PartitionConfig::new(1));
        assert_eq!(p.edge_cut(&g), 0);
        assert!(p.assignment().iter().all(|&a| a == 0));
    }

    #[test]
    fn deterministic_given_seed() {
        let (g, _) = test_graph(4);
        let a = partition(&g, &PartitionConfig::new(4));
        let b = partition(&g, &PartitionConfig::new(4));
        assert_eq!(a.assignment(), b.assignment());
    }

    #[test]
    fn roughly_recovers_planted_communities() {
        let (g, communities) = test_graph(5);
        let p = partition(&g, &PartitionConfig::new(4));
        // Count pairs of same-community nodes placed in the same part via a
        // contingency check on a sample.
        let mut agree = 0usize;
        let mut total = 0usize;
        for i in (0..g.num_nodes()).step_by(7) {
            for j in ((i + 1)..g.num_nodes()).step_by(11) {
                let same_comm = communities[i] == communities[j];
                let same_part = p.assignment()[i] == p.assignment()[j];
                if same_comm == same_part {
                    agree += 1;
                }
                total += 1;
            }
        }
        let rate = agree as f64 / total as f64;
        assert!(rate > 0.6, "community agreement only {rate}");
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let (g, _) = test_graph(6);
        let _ = partition(&g, &PartitionConfig::new(0));
    }
}
