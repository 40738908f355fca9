//! The logits-cache acceptance suite: a cached answer must be **bit-exact**
//! with a fresh forward pass — for every aggregator, for K ∈ {1, 2, 4},
//! and crucially *across* graph deltas (the delta-precise invalidation
//! path). The property test interleaves random churn with repeated
//! queries through the cache-or-compute serve path and compares every
//! answer against an uncached K = 1 model under the same deltas, so the
//! shard count is checked not to leak into a logit; unit tests pin down the
//! invalidation set itself (sound: everything whose logits changed is
//! dropped; precise: local deltas leave distant entries resident) and the
//! engine-level submit short-circuit.

use std::sync::Arc;
use std::time::Duration;

use mega_gnn::kernel::{forward_targets_packed_with_field, KernelArena, KernelMode};
use mega_gnn::{build_adjacency, GnnKind, ReceptiveField};
use mega_graph::{DatasetSpec, GraphDelta, NodeId};
use mega_serve::{
    batch_logits, shard_logits_with_field, CachedLogits, ModelArtifacts, ModelRegistry, ModelSpec,
    SchedulerConfig, ServeConfig, ServeEngine,
};
use proptest::prelude::*;

const KINDS: [GnnKind; 3] = [GnnKind::Gcn, GnnKind::Gin, GnnKind::GraphSage];

fn spec(kind: GnnKind, shards: usize) -> ModelSpec {
    ModelSpec::standard(DatasetSpec::cora().scaled(0.06).with_feature_dim(32), kind)
        .with_shards(shards)
}

/// The serve path in miniature: answer from the owning shard's logits
/// cache, or compute through the shard entry point and fill the cache.
/// Returns the logits row and whether it was a hit.
fn serve_node(artifacts: &ModelArtifacts, node: NodeId) -> (Vec<f32>, bool) {
    let shard = artifacts.shard_of(node);
    let cache = artifacts.logits_cache(shard).expect("shard cache exists");
    if let Some(hit) = cache.get(node) {
        return (hit.logits, true);
    }
    let (logits, _) = shard_logits_with_field(artifacts, shard, &[node]);
    let row = logits.row(0).to_vec();
    cache.insert(
        node,
        CachedLogits {
            predicted_class: logits.argmax_row(0),
            logits: row.clone(),
            bits: artifacts.node_bits(node),
            tier: artifacts.node_tier(node),
        },
    );
    (row, false)
}

/// Asserts that serving `node` through the cache equals an uncached pass
/// over `reference` bit for bit: the same artifacts, or the same model at
/// K = 1 under the same deltas.
fn assert_cached_equals_fresh(
    artifacts: &ModelArtifacts,
    reference: &ModelArtifacts,
    node: NodeId,
) -> bool {
    let (served, hit) = serve_node(artifacts, node);
    let fresh = batch_logits(reference, &[node]);
    for (c, &logit) in served.iter().enumerate() {
        assert_eq!(
            logit.to_bits(),
            fresh.get(0, c).to_bits(),
            "node {node} (hit={hit}) diverged from a fresh pass at class {c}"
        );
    }
    hit
}

#[test]
fn invalidation_closure_matches_receptive_field_ground_truth() {
    // The inverse halo closure must agree with the field definition: a
    // target is stale exactly when its L-hop receptive field intersects
    // the dirty set.
    let artifacts = ModelArtifacts::build(&spec(GnnKind::Gcn, 4));
    let layers = artifacts.model.config().layers;
    let n = artifacts.num_nodes() as NodeId;
    for dirty in [vec![0], vec![3, 17, 29], (0..n).step_by(41).collect()] {
        let closure = artifacts.invalidation_closure(&dirty);
        assert!(closure.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
        for t in 0..n {
            let field = ReceptiveField::expand(&artifacts.adjacency, &[t], layers);
            assert_eq!(
                field.intersects(&dirty),
                closure.binary_search(&t).is_ok(),
                "target {t}: field-intersects and inverse closure disagree for {dirty:?}"
            );
        }
    }
}

#[test]
fn delta_invalidation_is_sound_and_precise() {
    for kind in KINDS {
        let mut artifacts = ModelArtifacts::build(&spec(kind, 4));
        let n = artifacts.num_nodes() as NodeId;
        // Fill every node's cache entry and remember the pre-delta logits.
        let pre: Vec<Vec<f32>> = (0..n)
            .map(|v| {
                let (row, _) = serve_node(&artifacts, v);
                row
            })
            .collect();
        let resident_before: usize = artifacts.logits.iter().map(|c| c.len()).sum();
        assert_eq!(resident_before, n as usize, "every node cached");

        // A small local delta: one new edge between two existing nodes.
        let (src, dst) = (0u32, n / 2);
        let mut delta = GraphDelta::new();
        delta.insert_edge(src, dst);
        let effect = artifacts.apply_delta(&delta, &[]).expect("valid delta");

        let resident_after: usize = artifacts.logits.iter().map(|c| c.len()).sum();
        assert_eq!(
            resident_before - resident_after,
            effect.logits_invalidated_total(),
            "{kind:?}: reported invalidations must match dropped entries"
        );
        assert!(
            effect.logits_invalidated_total() >= 1,
            "{kind:?}: the mutated target itself must drop"
        );
        assert!(
            resident_after > 0,
            "{kind:?}: a one-edge delta must not flush the whole cache"
        );

        for v in 0..n {
            let shard = artifacts.shard_of(v);
            let cache = artifacts.logits_cache(shard).unwrap();
            let fresh = batch_logits(&artifacts, &[v]);
            let changed = (0..fresh.cols())
                .any(|c| fresh.get(0, c).to_bits() != pre[v as usize][c].to_bits());
            match cache.get(v) {
                Some(cached) => {
                    // Sound: a surviving entry is still bit-exact.
                    assert!(!changed, "{kind:?}: node {v} changed but stayed cached");
                    for (c, &logit) in cached.logits.iter().enumerate() {
                        assert_eq!(logit.to_bits(), fresh.get(0, c).to_bits());
                    }
                }
                None => {
                    // Dropped entries must be inside the influence closure
                    // of the delta (cheap sanity: everything that changed
                    // was dropped is already asserted above).
                }
            }
            if changed {
                // Completeness: any node whose fresh logits moved must
                // have been invalidated before this loop re-served it.
                // (cache.get(v) above returned None for it.)
                let _ = assert_cached_equals_fresh(&artifacts, &artifacts, v);
            }
        }
    }
}

#[test]
fn retier_without_feature_rewrite_still_invalidates() {
    // Bag-of-words inputs (feature_density < 0.05) keep 1-bit feature rows
    // across tier changes, so invalidation must key on the re-tier itself:
    // the hidden-activation quantizer serves the node at its new bitwidth.
    let mut dataset = DatasetSpec::cora().scaled(0.06).with_feature_dim(32);
    dataset.feature_density = 0.04;
    let mut artifacts = ModelArtifacts::build(&ModelSpec::standard(dataset, GnnKind::Gcn));
    assert!(!artifacts.input_follows_degree);
    let n = artifacts.num_nodes() as NodeId;
    let target = (0..n)
        .find(|&v| {
            artifacts.node_tier(v) == 0 && !artifacts.graph.out_neighbors(v as usize).is_empty()
        })
        .expect("tier-0 node with readers");
    // Cache the target and one of its readers.
    let reader = artifacts.graph.out_neighbors(target as usize)[0];
    serve_node(&artifacts, target);
    serve_node(&artifacts, reader);

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
    let effect = artifacts.apply_delta(&delta, &[]).expect("valid delta");
    assert!(artifacts.node_bits(target) > before_bits, "promotion");
    assert!(effect.logits_invalidated_total() >= 1);
    // Both the promoted node and its reader answer bit-fresh afterwards.
    assert_cached_equals_fresh(&artifacts, &artifacts, target);
    assert_cached_equals_fresh(&artifacts, &artifacts, reader);
}

#[test]
fn engine_short_circuits_hot_nodes_and_recovers_after_updates() {
    let registry = Arc::new(ModelRegistry::new());
    let key = registry.register(spec(GnnKind::Gcn, 4));
    let config = ServeConfig {
        workers: 2,
        scheduler: SchedulerConfig {
            max_batch: 4,
            max_delay: Duration::from_millis(1),
        },
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start_detached(config, registry);
    engine.warm(&key).unwrap();
    let node: NodeId = 5;
    let wait = Duration::from_secs(60);

    // First query computes; the second must short-circuit at submit time
    // with identical bits: its ticket is redeemable before submit returns.
    let first = engine.submit_wait(&key, node, wait).unwrap();
    assert!(!first.cached, "cold cache computes");
    let second = engine
        .submit(&key, node)
        .unwrap()
        .wait_inference(Duration::ZERO)
        .expect("a hit is delivered on the submitting thread");
    assert!(second.cached, "warm cache short-circuits");
    assert_eq!(second.batch_size, 1);
    assert_eq!(
        first.logits.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        second
            .logits
            .iter()
            .map(|l| l.to_bits())
            .collect::<Vec<_>>(),
        "cached answer is bit-exact"
    );

    // A delta into the node's receptive field invalidates it; the next
    // query recomputes (and re-fills).
    let mut delta = GraphDelta::new();
    let src = if node == 0 { 1 } else { 0 };
    delta.insert_edge(src, node);
    let ack = engine
        .submit_update_wait(&key, delta, vec![], wait)
        .unwrap();
    assert!(ack.applied(), "{:?}", ack.error);
    assert!(
        ack.logits_invalidated >= 1,
        "the cached target must be invalidated"
    );
    let third = engine.submit_wait(&key, node, wait).unwrap();
    assert!(!third.cached, "invalidated entry recomputes");

    let report = engine.shutdown();
    assert_eq!(report.logits_hits, 1);
    assert_eq!(report.logits_misses, 2);
    assert!((report.logits_hit_rate - 1.0 / 3.0).abs() < 1e-9);
    assert_eq!(report.logits_invalidations, 1);
    assert_eq!(report.completed, 3);
}

/// GCN weights are computed from degrees: an insert into `d` moves the
/// weight a row `r` gives its column `d` without rewriting `r`. A target
/// `t` two hops from `d` (it reads `r`, not `d`) must still lose its
/// cached logits, and its fresh pass must equal the scalar kernel over an
/// adjacency rebuilt from scratch on the new graph.
#[test]
fn engine_drops_a_two_hop_target_of_a_degree_change() {
    let spec = spec(GnnKind::Gcn, 4);
    let mut reference = ModelArtifacts::build(&spec);
    let graph = &reference.graph;
    let n = graph.num_nodes() as NodeId;
    let (d, r, t) = (0..n)
        .flat_map(|d| graph.out_neighbors(d as usize).iter().map(move |&r| (d, r)))
        .find_map(|(d, r)| {
            let t = graph
                .out_neighbors(r as usize)
                .iter()
                .copied()
                .find(|&t| t != d && !graph.has_edge(d, t))?;
            Some((d, r, t))
        })
        .expect("a path d -> r -> t with no edge d -> t");
    let src = (0..n)
        .find(|&s| s != d && s != r && s != t && !graph.has_edge(s, d))
        .expect("an absent in-edge of d");

    let registry = Arc::new(ModelRegistry::new());
    let key = registry.register(spec);
    let engine = ServeEngine::start_detached(ServeConfig::default(), registry);
    engine.warm(&key).unwrap();
    let wait = Duration::from_secs(60);
    assert!(!engine.submit_wait(&key, t, wait).unwrap().cached);
    assert!(
        engine.submit_wait(&key, t, wait).unwrap().cached,
        "t is cached"
    );

    let mut delta = GraphDelta::new();
    delta.insert_edge(src, d);
    let ack = engine
        .submit_update_wait(&key, delta.clone(), vec![], wait)
        .unwrap();
    assert!(ack.applied(), "{:?}", ack.error);
    let fresh = engine.submit_wait(&key, t, wait).unwrap();
    assert!(!fresh.cached, "t's cached logits were dropped");

    reference.apply_delta(&delta, &[]).expect("valid delta");
    let rebuilt = build_adjacency(
        &reference.graph.to_graph(),
        GnnKind::Gcn.aggregator(reference.dataset.spec.seed),
    );
    let (scalar, _) = forward_targets_packed_with_field(
        &reference.model,
        &reference.packed_features,
        rebuilt.as_ref(),
        &[t],
        &mut |v| reference.node_bits(v),
        KernelMode::Scalar,
        &mut KernelArena::default(),
    );
    for (c, logit) in fresh.logits.iter().enumerate() {
        assert_eq!(
            logit.to_bits(),
            scalar.get(0, c).to_bits(),
            "target {t} (reads {r}, which reads {d}) diverged at class {c}"
        );
    }
    engine.shutdown();
}

// ───────────────────────── property test ─────────────────────────

fn arb_ops(max_ops: usize) -> impl Strategy<Value = Vec<(u8, u32, u32)>> {
    proptest::collection::vec((0..10u8, 0..4096u32, 0..4096u32), 1..max_ops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random churn interleaved with repeated queries: every answer the
    /// cache-or-compute path produces equals an uncached K = 1 model under
    /// the same deltas bit for bit, for every aggregator and K ∈ {1, 2, 4}
    /// — and repeated queries actually hit between mutations (the cache is
    /// not degenerately empty).
    #[test]
    fn cached_serving_is_bit_exact_under_random_churn(
        ops in arb_ops(24),
        kind_idx in 0..3usize,
        k_idx in 0..3usize,
    ) {
        let kind = KINDS[kind_idx];
        let k = [1usize, 2, 4][k_idx];
        let spec = |k: usize| {
            ModelSpec::standard(DatasetSpec::cora().scaled(0.04).with_feature_dim(24), kind)
                .with_shards(k)
        };
        let mut artifacts = ModelArtifacts::build(&spec(k));
        let mut reference = ModelArtifacts::build(&spec(1));
        let dim = artifacts.feature_dim();
        let mut hits = 0usize;
        for chunk in ops.chunks(6) {
            // Query a spread twice: the second pass must be able to hit.
            for _pass in 0..2 {
                for node in (0..artifacts.num_nodes() as NodeId).step_by(11) {
                    if assert_cached_equals_fresh(&artifacts, &reference, node) {
                        hits += 1;
                    }
                }
            }
            // Then churn.
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
        // Post-churn pass, including the newest node.
        for node in (0..artifacts.num_nodes() as NodeId).step_by(7) {
            if assert_cached_equals_fresh(&artifacts, &reference, node) {
                hits += 1;
            }
        }
        let last = artifacts.num_nodes() as NodeId - 1;
        assert_cached_equals_fresh(&artifacts, &reference, last);
        prop_assert!(hits > 0, "repeated queries must hit the cache");
    }
}
