//! Kernel-mode equivalence on the serve path: the register-blocked
//! multi-row engine (`KernelMode::Blocked`, what production runs) must be
//! *bit-exact* with the scalar integer reference (`KernelMode::Scalar`)
//! for every aggregator, for K ∈ {1, 2, 4} shards, across batch shapes
//! that exercise every M-block width (full 8-lane blocks, unaligned
//! remainders, one-lane blocks), and after random churn (node adds,
//! edge inserts/removes) drives rows across tiers.
//!
//! Both modes share one quantize → integer-dot → dequantize pipeline, so
//! equality here is structural, not approximate — any diverging bit is a
//! kernel bug, never float noise.

use mega_gnn::kernel::KernelMode;
use mega_gnn::GnnKind;
use mega_graph::{DatasetSpec, GraphDelta, NodeId};
use mega_serve::{batch_logits_with_mode, ModelArtifacts, ModelSpec};
use proptest::prelude::*;

const KINDS: [GnnKind; 3] = [GnnKind::Gcn, GnnKind::Gin, GnnKind::GraphSage];

/// Batch sizes covering the blocked dispatcher's shapes: single row
/// (an m == 1 block), partial blocks, one exact `MAX_MULTI_ROWS` block,
/// and a full-block-plus-remainder tail.
const BATCH_SHAPES: [usize; 5] = [1, 3, 4, 8, 11];

fn spec(kind: GnnKind, shards: usize) -> ModelSpec {
    ModelSpec::standard(DatasetSpec::cora().scaled(0.08).with_feature_dim(48), kind)
        .with_shards(shards)
}

/// Strided target batches of `len` nodes starting at `start`.
fn batch(artifacts: &ModelArtifacts, start: NodeId, len: usize) -> Vec<NodeId> {
    let n = artifacts.num_nodes() as NodeId;
    (0..len as NodeId).map(|i| (start + i * 5) % n).collect()
}

/// Every batch shape produces bit-identical logits through the blocked
/// engine and the scalar reference — on strided batches and on each
/// shard's owned targets.
fn assert_modes_equal(artifacts: &ModelArtifacts, stride: usize) {
    let classes = artifacts.dataset.spec.num_classes;
    for start in (0..artifacts.num_nodes() as NodeId).step_by(stride.max(1)) {
        for len in BATCH_SHAPES {
            let targets = batch(artifacts, start, len);
            let (scalar, _) = batch_logits_with_mode(artifacts, &targets, KernelMode::Scalar);
            let (blocked, _) = batch_logits_with_mode(artifacts, &targets, KernelMode::Blocked);
            for (r, &node) in targets.iter().enumerate() {
                for c in 0..classes {
                    assert_eq!(
                        blocked.get(r, c).to_bits(),
                        scalar.get(r, c).to_bits(),
                        "node {node} (batch of {len}): blocked diverged from scalar \
                         on the global pass"
                    );
                }
            }
        }
        // Shard batches: group this window's targets by owning shard, as
        // the workers do, so the blocked dispatcher also sees them.
        let targets = batch(artifacts, start, *BATCH_SHAPES.last().unwrap());
        for shard in 0..artifacts.partitioning.k() as u32 {
            let mine: Vec<NodeId> = targets
                .iter()
                .copied()
                .filter(|&t| artifacts.shard_of(t) == shard)
                .collect();
            if mine.is_empty() {
                continue;
            }
            let (scalar, _) = batch_logits_with_mode(artifacts, &mine, KernelMode::Scalar);
            let (blocked, _) = batch_logits_with_mode(artifacts, &mine, KernelMode::Blocked);
            for (r, &node) in mine.iter().enumerate() {
                for c in 0..classes {
                    assert_eq!(
                        blocked.get(r, c).to_bits(),
                        scalar.get(r, c).to_bits(),
                        "node {node} (shard {shard}): blocked diverged from scalar"
                    );
                }
            }
        }
    }
}

#[test]
fn fast_modes_are_bit_exact_with_scalar_for_every_kind_and_k() {
    for kind in KINDS {
        for k in [1usize, 2, 4] {
            let artifacts = ModelArtifacts::build(&spec(kind, k));
            assert_modes_equal(&artifacts, 29);
        }
    }
}

#[test]
fn blocked_equals_scalar_on_large_mixed_tier_batches() {
    // One batch spanning most of the graph: every tier group is populated
    // with many M-blocks plus a remainder, in the same call.
    let artifacts = ModelArtifacts::build(&spec(GnnKind::Gcn, 2));
    let targets: Vec<NodeId> = (0..artifacts.num_nodes() as NodeId).step_by(2).collect();
    let (scalar, _) = batch_logits_with_mode(&artifacts, &targets, KernelMode::Scalar);
    let (blocked, _) = batch_logits_with_mode(&artifacts, &targets, KernelMode::Blocked);
    assert_eq!(scalar.shape(), blocked.shape());
    for r in 0..scalar.rows() {
        for c in 0..scalar.cols() {
            assert_eq!(
                scalar.get(r, c).to_bits(),
                blocked.get(r, c).to_bits(),
                "row {r} class {c}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random churn — node adds with random features, edge inserts and
    /// removals — retiers rows through the packed store; blocked-vs-scalar
    /// equivalence must survive every mutation.
    #[test]
    fn fast_modes_stay_bit_exact_under_random_churn(
        seed_edges in proptest::collection::vec((0u32..180, 0u32..180), 4..10),
        removals in proptest::collection::vec(0usize..16, 1..4),
        feature_scale in 0.05f32..2.5,
    ) {
        for kind in KINDS {
            let mut artifacts = ModelArtifacts::build(&spec(kind, 2));
            let n = artifacts.num_nodes() as NodeId;
            let dim = artifacts.feature_dim();
            let mut delta = GraphDelta::new();
            for &(s, d) in &seed_edges {
                let (s, d) = (s % n, d % n);
                if s != d && !artifacts.graph.has_edge(s, d) {
                    delta.insert_edge(s, d);
                }
            }
            for &r in &removals {
                if let Some(&src) = artifacts.graph.in_neighbors(r % n as usize).first() {
                    delta.remove_edge(src, (r % n as usize) as NodeId);
                }
            }
            delta.add_node();
            delta.insert_edge(n, seed_edges[0].0 % n);
            delta.insert_edge(seed_edges[0].1 % n, n);
            let row: Vec<f32> = (0..dim)
                .map(|j| feature_scale * ((j as f32 * 0.37).sin()))
                .collect();
            artifacts.apply_delta(&delta, &[row]).expect("valid delta");
            assert_modes_equal(&artifacts, 53);
        }
    }
}
