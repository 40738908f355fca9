//! The sharding acceptance suite. A shard is an ownership view over the
//! model's global state, and every node — at build and when a delta adds
//! it — is streamed into its shard by one placement rule
//! (`Partitioning::push_balanced`). So the shard count must not change a
//! single logit: every test builds the same model at K ∈ {2, 4} and at
//! K = 1, applies the same deltas to both, and compares sampled nodes'
//! logits through the worker's entry point at `f32::to_bits` — including
//! added nodes and deltas that cross shard boundaries. A property test
//! drives random mutation streams through both.

use std::sync::Arc;
use std::time::Duration;

use mega_gnn::GnnKind;
use mega_graph::{DatasetSpec, GraphDelta, NodeId};
use mega_serve::{
    batch_logits, shard_logits_with_field, ModelArtifacts, ModelRegistry, ModelSpec,
    SchedulerConfig, ServeConfig, ServeEngine,
};
use proptest::prelude::*;

const KINDS: [GnnKind; 3] = [GnnKind::Gcn, GnnKind::Gin, GnnKind::GraphSage];

fn spec(kind: GnnKind, shards: usize) -> ModelSpec {
    ModelSpec::standard(DatasetSpec::cora().scaled(0.08).with_feature_dim(48), kind)
        .with_shards(shards)
}

/// `node`'s logits bits through the worker's entry point, on its owner.
fn served(artifacts: &ModelArtifacts, node: NodeId) -> Vec<u32> {
    let (logits, _) = shard_logits_with_field(artifacts, artifacts.shard_of(node), &[node]);
    logits.row(0).iter().map(|x| x.to_bits()).collect()
}

/// Every `stride`-th node and the newest one yield the same bits on the
/// sharded artifacts as on the K = 1 reference.
fn assert_independent_of_k(sharded: &ModelArtifacts, reference: &ModelArtifacts, stride: usize) {
    let n = sharded.num_nodes() as NodeId;
    assert_eq!(n as usize, reference.num_nodes());
    for node in (0..n).step_by(stride.max(1)).chain([n - 1]) {
        assert_eq!(
            served(sharded, node),
            served(reference, node),
            "node {node} (shard {}) diverged from K=1",
            sharded.shard_of(node)
        );
    }
}

#[test]
fn sharded_is_bit_exact_for_every_kind_and_k() {
    for kind in KINDS {
        let reference = ModelArtifacts::build(&spec(kind, 1));
        assert!(reference.shard(0).is_some() && reference.shard(1).is_none());
        for k in [2usize, 4] {
            let artifacts = ModelArtifacts::build(&spec(kind, k));
            assert!(artifacts.shard(k as u32).is_none(), "K={k} has {k} shards");
            // Every node is owned by exactly one shard: its partition.
            for node in (0..artifacts.num_nodes() as NodeId).step_by(7) {
                let owners: Vec<u32> = (0..k as u32)
                    .filter(|&p| artifacts.shard(p).unwrap().owns(node))
                    .collect();
                assert_eq!(owners, vec![artifacts.shard_of(node)]);
            }
            assert_independent_of_k(&artifacts, &reference, 7);
        }
    }
}

#[test]
fn resident_memory_does_not_scale_with_shard_count() {
    // Shards are views: no adjacency or feature row is held per shard, so
    // everything but the logits caches costs the same at K = 1 and K = 8.
    let without_logits = |k: usize| {
        let memory = ModelArtifacts::build(&spec(GnnKind::Gcn, k)).resident_bytes();
        memory.total_bytes() - memory.logits_bytes
    };
    assert_eq!(without_logits(1), without_logits(8));
}

/// A delta engineered to cross shard boundaries: edges between nodes owned
/// by different shards, plus a node add wired across shards and a removal.
fn cross_shard_delta(artifacts: &ModelArtifacts) -> (GraphDelta, Vec<Vec<f32>>) {
    let n = artifacts.num_nodes() as NodeId;
    let part0 = (0..n)
        .find(|&v| artifacts.shard_of(v) == 0)
        .expect("shard 0 owns nodes");
    let other = (0..n)
        .find(|&v| artifacts.shard_of(v) != artifacts.shard_of(part0))
        .unwrap_or((part0 + 1) % n);
    let mut delta = GraphDelta::new();
    delta.insert_edge(other, part0).insert_edge(part0, other);
    if let Some(&victim_src) = artifacts.graph.in_neighbors(other as usize).first() {
        delta.remove_edge(victim_src, other);
    }
    delta.add_node();
    delta.insert_edge(n, part0).insert_edge(other, n);
    let dim = artifacts.feature_dim();
    (delta, vec![vec![0.4; dim]])
}

#[test]
fn sharded_stays_bit_exact_after_cross_shard_deltas() {
    for kind in KINDS {
        for k in [2usize, 4] {
            let mut artifacts = ModelArtifacts::build(&spec(kind, k));
            let mut reference = ModelArtifacts::build(&spec(kind, 1));
            let (delta, rows) = cross_shard_delta(&artifacts);
            let effect = artifacts.apply_delta(&delta, &rows).expect("valid delta");
            reference.apply_delta(&delta, &rows).expect("valid delta");
            // Build and growth share one streaming rule, which keeps every
            // shard within its capacity C = ⌈1.05 · n / k⌉: the largest
            // shard is at most C nodes, i.e. `balance` ≤ C · k / n.
            let n = artifacts.num_nodes();
            let capacity = (105 * n).div_ceil(100 * k);
            assert!(effect.balance >= 1.0);
            assert!(
                effect.balance <= (capacity * k) as f64 / n as f64 + 1e-9,
                "K={k}: balance {} exceeds the capacity bound C = {capacity}",
                effect.balance
            );
            // The added node landed on some shard, which owns it.
            let added = effect.added_nodes[0];
            let owner = artifacts.shard_of(added);
            assert!(artifacts.shard(owner).unwrap().owns(added));
            assert_independent_of_k(&artifacts, &reference, 9);
        }
    }
}

#[test]
fn retier_reaches_readers_on_other_shards() {
    // Drive a node across a tier boundary. Its out-neighbours on other
    // shards read its re-quantized row from the one global store, so their
    // post-delta logits must match the K = 1 model's.
    let mut artifacts = ModelArtifacts::build(&spec(GnnKind::Gcn, 4));
    let mut reference = ModelArtifacts::build(&spec(GnnKind::Gcn, 1));
    let n = artifacts.num_nodes() as NodeId;
    let target = (0..n)
        .find(|&v| {
            artifacts.node_tier(v) == 0
                && artifacts
                    .graph
                    .out_neighbors(v as usize)
                    .iter()
                    .any(|&u| artifacts.shard_of(u) != artifacts.shard_of(v))
        })
        .expect("tier-0 node with a reader on another shard exists");
    let mut delta = GraphDelta::new();
    let mut added = 0;
    for src in 0..n {
        if src != target && !artifacts.graph.has_edge(src, target) {
            delta.insert_edge(src, target);
            added += 1;
            if added == 40 {
                break;
            }
        }
    }
    let before_bits = artifacts.node_bits(target);
    artifacts.apply_delta(&delta, &[]).expect("valid delta");
    reference.apply_delta(&delta, &[]).expect("valid delta");
    assert!(artifacts.node_bits(target) > before_bits, "promotion");
    for &reader in artifacts.graph.out_neighbors(target as usize) {
        assert_eq!(served(&artifacts, reader), served(&reference, reader));
    }
    assert_independent_of_k(&artifacts, &reference, 5);
}

/// The engine path: a K=4 sharded engine answers bit-exactly against a
/// lockstep unsharded (K=1) reference, across a mutation mid-stream.
#[test]
fn engine_sharded_matches_unsharded_reference() {
    let sharded_spec = spec(GnnKind::Gcn, 4);
    let mut reference = ModelArtifacts::build(&spec(GnnKind::Gcn, 1));

    let registry = Arc::new(ModelRegistry::new());
    let key = registry.register(sharded_spec);
    let config = ServeConfig {
        workers: 4,
        scheduler: SchedulerConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(1),
        },
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start_detached(config, registry);
    engine.warm(&key).unwrap();
    let wait = Duration::from_secs(60);

    let n = reference.num_nodes() as NodeId;
    let targets: Vec<NodeId> = (0..n).step_by(3).collect();
    let pre: Vec<_> = targets
        .iter()
        .map(|&t| engine.submit(&key, t).unwrap())
        .collect();

    // Mutate mid-stream: cross-shard churn applied to both sides.
    let (delta, rows) = cross_shard_delta(&reference);
    let update = engine
        .submit_update(&key, delta.clone(), rows.clone())
        .unwrap();
    reference.apply_delta(&delta, &rows).unwrap();
    // Submit the post-delta wave only after the ack (FIFO guarantees the
    // delta is applied before these batches run).
    let ack = update.wait_update(wait).expect("no ack");
    assert!(ack.applied(), "{:?}", ack.error);
    assert!(ack.balance >= 1.0);
    let post_targets: Vec<NodeId> = (0..n).step_by(11).chain([n]).collect();
    let post: Vec<_> = post_targets
        .iter()
        .map(|&t| engine.submit(&key, t).unwrap())
        .collect();
    engine.shutdown();

    // Pre-delta responses may have executed against pre-delta state; only
    // post-ack responses are comparable to the mutated reference.
    for ticket in &pre {
        ticket
            .wait_inference(Duration::ZERO)
            .expect("pre-delta answer");
    }
    for (ticket, &node) in post.iter().zip(&post_targets) {
        let r = ticket
            .wait_inference(Duration::ZERO)
            .expect("post-delta answer");
        assert_eq!(r.node, node);
        let expected = batch_logits(&reference, &[node]);
        for (c, &logit) in r.logits.iter().enumerate() {
            assert_eq!(
                logit.to_bits(),
                expected.get(0, c).to_bits(),
                "node {node} diverged between K=4 engine and K=1 reference"
            );
        }
    }
}

// ───────────────────────── property test ─────────────────────────

/// Raw mutation ops `(kind, a, b)` mapped onto valid deltas at application
/// time (mirrors the dynamic-graph proptest idiom).
fn arb_ops(max_ops: usize) -> impl Strategy<Value = Vec<(u8, u32, u32)>> {
    proptest::collection::vec((0..10u8, 0..4096u32, 0..4096u32), 1..max_ops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// After ANY random mutation stream, logits at K ∈ {2, 4} equal the
    /// K = 1 model's bit for bit, for every aggregator.
    #[test]
    fn sharded_serving_is_bit_exact_under_random_churn(
        ops in arb_ops(24),
        kind_idx in 0..3usize,
        k_idx in 0..2usize,
    ) {
        let kind = KINDS[kind_idx];
        let spec = |k: usize| {
            ModelSpec::standard(DatasetSpec::cora().scaled(0.04).with_feature_dim(24), kind)
                .with_shards(k)
        };
        let mut artifacts = ModelArtifacts::build(&spec([2usize, 4][k_idx]));
        let mut reference = ModelArtifacts::build(&spec(1));
        let dim = artifacts.feature_dim();
        for chunk in ops.chunks(6) {
            let mut delta = GraphDelta::new();
            let mut count = artifacts.num_nodes();
            let mut adds = 0;
            for &(op, a, b) in chunk {
                let s = (a as usize % count) as NodeId;
                let d = (b as usize % count) as NodeId;
                match op {
                    0..=5 => {
                        if s != d {
                            delta.insert_edge(s, d);
                        }
                    }
                    6..=7 => {
                        if s != d {
                            delta.remove_edge(s, d);
                        }
                    }
                    8 => {
                        delta.add_node();
                        count += 1;
                        adds += 1;
                    }
                    _ => {
                        delta.isolate_node(s);
                    }
                }
            }
            let rows = vec![vec![0.3; dim]; adds];
            artifacts.apply_delta(&delta, &rows).expect("valid delta");
            reference.apply_delta(&delta, &rows).expect("valid delta");
        }
        // A spread of nodes, including the newest (possibly added) one.
        assert_independent_of_k(&artifacts, &reference, 13);
    }
}
