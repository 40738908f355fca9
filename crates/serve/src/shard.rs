//! Shards as ownership views over a model's global state, and the
//! per-batch hardware cost estimate.
//!
//! A shard is three things: half of the `(model, shard)` key the work
//! queue batches requests by, the partition of the model's logits caches
//! its nodes' entries live in, and a label on the serving metrics. It is not a copy of the graph. A
//! [`Shard`] borrows the model's [`ModelArtifacts`] and answers one
//! question, which nodes its part owns; forward passes, receptive fields
//! and hardware estimates all run in global node ids over the model's one
//! adjacency and packed feature store, so a graph delta has nothing
//! replicated to keep coherent.
//!
//! Cross-partition reads are counted, not copied: [`Shard::halo_rows_in`]
//! is how many of a batch's receptive-field rows other shards own, the
//! traffic the paper's sparse-connection `eID` lists schedule.

use mega_gnn::{AdjacencyView, ModelConfig, ReceptiveField};
use mega_graph::NodeId;
use mega_sim::Workload;

use crate::cache::ModelArtifacts;

/// Shard `part` of a model: an ownership view, see the module docs. Built
/// by [`ModelArtifacts::shard`].
#[derive(Clone, Copy)]
pub struct Shard<'a> {
    /// The part of the model's partitioning this shard serves.
    pub part: u32,
    /// The model state the view is over.
    pub artifacts: &'a ModelArtifacts,
}

impl Shard<'_> {
    /// Whether the shard owns `v` (its partition is `part`).
    pub fn owns(&self, v: NodeId) -> bool {
        self.artifacts.partitioning.part_of(v as usize) == self.part
    }

    /// Counts the distinct nodes of `field` the shard does not own: the
    /// batch's cross-shard reads.
    pub fn halo_rows_in(&self, field: &ReceptiveField) -> usize {
        let mut union: Vec<NodeId> = field.needed.concat();
        union.sort_unstable();
        union.dedup();
        union.into_iter().filter(|&v| !self.owns(v)).count()
    }
}

/// Analytic MEGA cost estimate for one shard-batch (the ROADMAP's
/// hardware-model feedback, minimal slice): cycles from the accelerator's
/// combination/aggregation engine models, DRAM bytes from the
/// Adaptive-Package compressed feature sizes — no DRAM trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HwEstimate {
    /// Estimated MEGA busy cycles (per layer, the slower of the pipelined
    /// combination/aggregation engines).
    pub cycles: u64,
    /// Estimated DRAM bytes: compressed mixed-precision feature maps,
    /// weights, and the receptive field's adjacency slice.
    pub dram_bytes: u64,
}

/// Estimates MEGA cycles/DRAM for executing `field` (a receptive field over
/// `shard`'s model, in global ids) as one inference over the field's
/// subgraph, with every node at the bitwidth `bits_of` assigns it.
/// `input_density` is the dataset's input feature density; hidden layers
/// are assumed half dense (the workload builders' fallback).
pub fn estimate_batch_hw(
    shard: Shard<'_>,
    field: &ReceptiveField,
    config: &ModelConfig,
    weight_bits: u8,
    input_density: f64,
    bits_of: impl Fn(NodeId) -> u8,
) -> HwEstimate {
    // The field's distinct nodes, remapped densely for the subgraph.
    let mut nodes: Vec<NodeId> = field.needed.concat();
    nodes.sort_unstable();
    nodes.dedup();
    if nodes.is_empty() {
        return HwEstimate::default();
    }
    let dense_of = |v: NodeId| nodes.binary_search(&v).expect("field node") as u32;

    // Edges: the aggregation rows the pass actually reads (levels >= 1),
    // minus self-loops (the normalized adjacency adds its own).
    let mut agg_rows: Vec<NodeId> = field.needed[1..].concat();
    agg_rows.sort_unstable();
    agg_rows.dedup();
    let adjacency = &shard.artifacts.adjacency;
    let mut edges = Vec::new();
    for &v in &agg_rows {
        let dv = dense_of(v);
        for &u in adjacency.row_indices(v as usize) {
            if u != v {
                edges.push((dense_of(u), dv));
            }
        }
    }
    let graph = std::rc::Rc::new(mega_graph::Graph::from_directed_edges(nodes.len(), edges));

    let mut dims = vec![config.in_dim];
    for (_, out) in config.layer_dims() {
        dims.push(out);
    }
    let mut densities = vec![input_density];
    densities.extend(std::iter::repeat_n(0.5, dims.len() - 2));
    let bits: Vec<u8> = nodes.iter().map(|&v| bits_of(v)).collect();
    let layer_bits = vec![bits; dims.len() - 1];
    let workload = Workload::mixed(
        "shard-batch",
        "serve",
        graph,
        &dims,
        &densities,
        layer_bits,
        weight_bits,
    );

    let cfg = mega_accel::MegaConfig::default();
    let mut cycles = 0u64;
    let mut dram_bytes = workload.adjacency_bytes();
    for l in 0..workload.layers.len() {
        let comb = mega_accel::combination::cycles(&cfg, &workload, l);
        let agg = mega_accel::aggregation::cycles(&cfg, &workload, l);
        // The two engines pipeline node by node; the slower bounds the
        // layer.
        cycles += comb.max(agg);
        dram_bytes += workload.layers[l].compressed_input_bytes() + workload.weight_bytes(l);
    }
    HwEstimate { cycles, dram_bytes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::RawFeatures;
    use crate::request::ModelKey;
    use mega_format::TierPackedFeatures;
    use mega_gnn::{AggregatorKind, DynAdjacency, Gnn, GnnKind, PackedGnn};
    use mega_graph::datasets::Splits;
    use mega_graph::{DatasetSpec, DynamicGraph, Graph};
    use mega_partition::Partitioning;
    use mega_quant::DegreePolicy;

    const CONFIG: ModelConfig = ModelConfig {
        kind: GnnKind::Gcn,
        in_dim: 16,
        hidden: 8,
        out_dim: 4,
        layers: 2,
        seed: 7,
    };

    /// Six nodes, two parts: 0-1-2 in part 0, 3-4-5 in part 1, cross edges
    /// 2->3 and 5->0.
    fn fixture() -> ModelArtifacts {
        let g = Graph::from_directed_edges(6, vec![(0, 1), (1, 2), (3, 4), (4, 5), (2, 3), (5, 0)]);
        let graph = DynamicGraph::from_graph(g);
        let adjacency = DynAdjacency::build(&graph, AggregatorKind::GcnSymmetric);
        let mut packed_features = TierPackedFeatures::new(2);
        for v in 0..6i32 {
            packed_features.push_row(&[2 * v, 2 * v + 1], 8, 1.0 + v as f32);
        }
        let labels = vec![0u16; 6];
        let model = PackedGnn::from_model(&Gnn::new(CONFIG), 4);
        ModelArtifacts {
            key: ModelKey::new("Fixture", GnnKind::Gcn),
            dataset: mega_graph::Dataset {
                spec: DatasetSpec::cora(),
                graph: Graph::from_directed_edges(0, vec![]),
                features: None,
                synth: None,
                splits: Splits::standard(&labels, 1, 0),
                labels,
            },
            model,
            packed_features,
            graph,
            adjacency,
            raw_features: RawFeatures::Discarded,
            bits: vec![8; 6],
            tiers: vec![0; 6],
            partitioning: Partitioning::new(vec![0, 0, 0, 1, 1, 1], 2),
            logits: Vec::new(),
            policy: DegreePolicy::paper_default(),
            weight_bits: 4,
            input_follows_degree: true,
            version: 0,
        }
    }

    #[test]
    fn shard_view_owns_its_part_and_counts_foreign_field_rows() {
        let a = fixture();
        let shard = a.shard(0).expect("part 0 exists");
        assert!(a.shard(2).is_none(), "two parts, two shards");
        assert!(shard.owns(1) && !shard.owns(4));
        // 0's 2-hop field is {0, 4, 5}: 5 feeds 0, 4 feeds 5.
        let field = ReceptiveField::expand(&a.adjacency, &[0], 2);
        assert_eq!(shard.halo_rows_in(&field), 2);
        assert_eq!(a.shard(1).unwrap().halo_rows_in(&field), 1);
    }

    /// The values the estimate and the halo count had when shards held
    /// local-id slices: the remap was order-preserving, so global ids must
    /// reproduce them exactly.
    #[test]
    fn estimate_and_halo_count_match_the_sliced_values() {
        let a = fixture();
        for (part, targets, halo, cycles, dram, cycles8, dram8) in [
            (0u32, vec![0], 2, 18, 118, 48, 140),
            (0, vec![0, 1, 2], 2, 32, 144, 80, 180),
            (1, vec![3], 2, 18, 118, 48, 140),
            (1, vec![4, 5], 1, 26, 132, 64, 160),
        ] {
            let shard = a.shard(part).unwrap();
            let field = ReceptiveField::expand(&a.adjacency, &targets, 2);
            let mixed = estimate_batch_hw(shard, &field, &CONFIG, 4, 0.5, |v| 2 + (v % 3) as u8);
            let wide = estimate_batch_hw(shard, &field, &CONFIG, 4, 0.5, |_| 8);
            assert_eq!(shard.halo_rows_in(&field), halo, "{targets:?}");
            assert_eq!(
                (mixed.cycles, mixed.dram_bytes),
                (cycles, dram),
                "{targets:?}"
            );
            assert_eq!(
                (wide.cycles, wide.dram_bytes),
                (cycles8, dram8),
                "{targets:?}"
            );
        }
    }

    #[test]
    fn batch_estimate_scales_with_bits() {
        let a = fixture();
        let shard = a.shard(0).unwrap();
        let field = ReceptiveField::expand(&a.adjacency, &[0], 2);
        let low = estimate_batch_hw(shard, &field, &CONFIG, 4, 0.5, |_| 2);
        let high = estimate_batch_hw(shard, &field, &CONFIG, 4, 0.5, |_| 8);
        assert!(low.cycles > 0 && low.dram_bytes > 0);
        assert!(high.cycles > low.cycles, "more bits, more bit-serial beats");
        assert!(high.dram_bytes > low.dram_bytes);
    }
}
