//! Mutation-heavy integration suite for the dynamic-graph subsystem: long
//! random update streams against serving artifacts, engine round trips
//! under interleaved churn, and isolation/regrowth cycles — each checked
//! against from-scratch rebuilds for bit-exact equivalence.

use std::sync::Arc;
use std::time::Duration;

use mega_format::planes;
use mega_gnn::{build_adjacency, GnnKind};
use mega_graph::{DatasetSpec, GraphDelta, NodeId};
use mega_serve::{
    batch_logits, ModelArtifacts, ModelRegistry, ModelSpec, SchedulerConfig, ServeConfig,
    ServeEngine,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A Cora-recipe spec with *dense* features, so input rows follow the
/// degree profile and re-tiering exercises the re-quantization path.
fn dense_spec() -> ModelSpec {
    let mut dataset = DatasetSpec::cora().scaled(0.08).with_feature_dim(24);
    dataset.name = "DenseCora".into();
    dataset.feature_density = 0.5;
    ModelSpec::standard(dataset, GnnKind::Gcn)
}

/// Asserts every derived table of `artifacts` equals a from-scratch
/// rebuild of its live graph: normalized adjacency, bits/tiers, and the
/// quantized feature rows.
fn assert_equivalent_to_rebuild(artifacts: &ModelArtifacts, kind: GnnKind, seed: u64) {
    let frozen = artifacts.graph.to_graph();
    let rebuilt = build_adjacency(&frozen, kind.aggregator(seed));
    assert_eq!(
        artifacts.adjacency.to_csr(),
        *rebuilt,
        "incremental adjacency diverged from rebuild"
    );
    let expected_bits = artifacts.policy.profile(&frozen);
    assert_eq!(artifacts.bits, expected_bits, "bits diverged from policy");
    for v in 0..artifacts.num_nodes() {
        assert_eq!(
            artifacts.node_tier(v as NodeId),
            artifacts.policy.tier_of_degree(frozen.in_degree(v)),
            "tier of node {v}"
        );
        let dim = artifacts.feature_dim();
        let mut expected_row = vec![0.0f32; dim];
        assert!(
            artifacts.raw_row_into(v, &mut expected_row),
            "dense spec keeps raw rows resident"
        );
        let input_bits = if artifacts.input_follows_degree {
            artifacts.bits[v]
        } else {
            1
        };
        // The packed store must hold exactly what a fresh quantization of
        // the raw row produces: same bitwidth, same per-row scale, same
        // integer levels.
        let packed = artifacts.packed_features.plane_row(v);
        assert_eq!(packed.bits, input_bits, "packed bits of node {v}");
        let max_abs = expected_row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let alpha = planes::row_alpha(max_abs, input_bits);
        assert_eq!(
            packed.alpha.to_bits(),
            alpha.to_bits(),
            "packed alpha of node {v}"
        );
        let expected_levels: Vec<i32> = if alpha == 0.0 {
            vec![0; dim]
        } else {
            expected_row
                .iter()
                .map(|&x| planes::quantize_level(x, alpha, input_bits))
                .collect()
        };
        let mut actual_levels = vec![0i32; dim];
        planes::unpack_levels(packed.words, packed.bits, dim, &mut actual_levels);
        assert_eq!(
            actual_levels, expected_levels,
            "quantized feature row {v} diverged"
        );
    }
}

/// ~40 random deltas (edge upserts/removals, node adds, isolations)
/// applied to serving artifacts stay bit-exact with from-scratch rebuilds
/// at every checkpoint, and the forward pass stays batch-invariant.
#[test]
fn long_mutation_streams_keep_artifacts_equivalent_to_rebuild() {
    let spec = dense_spec();
    let (kind, seed) = (spec.kind, spec.dataset.seed);
    let mut artifacts = ModelArtifacts::build(&spec);
    assert!(
        artifacts.input_follows_degree,
        "dense spec must follow degree"
    );
    let dim = artifacts.feature_dim();
    let mut rng = StdRng::seed_from_u64(0xD15C0);

    let mut total_retiered = 0usize;
    for round in 0..40 {
        let n = artifacts.num_nodes();
        let mut delta = GraphDelta::new();
        let mut rows: Vec<Vec<f32>> = Vec::new();
        let mut count = n;
        for _ in 0..rng.gen_range(1..8usize) {
            match rng.gen_range(0..10u8) {
                0..=5 => {
                    let s = rng.gen_range(0..count) as NodeId;
                    let d = rng.gen_range(0..count) as NodeId;
                    if s != d {
                        delta.insert_edge(s, d);
                    }
                }
                6..=7 => {
                    let s = rng.gen_range(0..count) as NodeId;
                    let d = rng.gen_range(0..count) as NodeId;
                    if s != d {
                        delta.remove_edge(s, d);
                    }
                }
                8 => {
                    delta.add_node();
                    rows.push((0..dim).map(|_| rng.gen_range(-1.0..1.0f32)).collect());
                    count += 1;
                }
                _ => {
                    delta.isolate_node(rng.gen_range(0..count) as NodeId);
                }
            }
        }
        let effect = artifacts
            .apply_delta(&delta, &rows)
            .expect("generated deltas are valid");
        total_retiered += effect.retiered.len();
        assert_eq!(artifacts.version, round + 1);

        // Spot-check batch invariance on a random target trio.
        let n = artifacts.num_nodes();
        let trio: Vec<NodeId> = (0..3).map(|_| rng.gen_range(0..n) as NodeId).collect();
        let solo = batch_logits(&artifacts, &trio[..1]);
        let grouped = batch_logits(&artifacts, &trio);
        for c in 0..solo.cols() {
            assert_eq!(solo.get(0, c).to_bits(), grouped.get(0, c).to_bits());
        }
        if round % 10 == 9 {
            assert_equivalent_to_rebuild(&artifacts, kind, seed);
        }
    }
    assert_equivalent_to_rebuild(&artifacts, kind, seed);
    assert!(
        total_retiered > 0,
        "a 40-delta stream should cross at least one tier boundary"
    );
}

/// Engine round trip: interleaved updates and inference over multiple
/// rounds, with a lockstep local replica; after each quiesced round the
/// engine's probe agrees with the replica's policy state.
#[test]
fn engine_stays_consistent_under_interleaved_churn() {
    let spec = dense_spec();
    let mut replica = ModelArtifacts::build(&spec);
    let registry = Arc::new(ModelRegistry::new());
    let key = registry.register(spec);
    let config = ServeConfig {
        workers: 4,
        scheduler: SchedulerConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(1),
        },
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start_detached(config, registry);
    let wait = Duration::from_secs(60);
    engine.warm(&key).unwrap();
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);

    let mut total_inferences = 0u64;
    let mut total_updates = 0u64;
    for _round in 0..12 {
        let n = replica.num_nodes();
        let mut deltas = Vec::new();
        for _ in 0..4 {
            let mut delta = GraphDelta::new();
            for _ in 0..rng.gen_range(1..5usize) {
                let s = rng.gen_range(0..n) as NodeId;
                let d = rng.gen_range(0..n) as NodeId;
                if s == d {
                    continue;
                }
                if rng.gen_bool(0.7) {
                    delta.insert_edge(s, d);
                } else {
                    delta.remove_edge(s, d);
                }
            }
            deltas.push(delta);
        }
        // Interleave: update, inference, update, ...
        let mut round = Vec::new();
        for delta in &deltas {
            let ack = engine.submit_update(&key, delta.clone(), vec![]).unwrap();
            total_updates += 1;
            let t = rng.gen_range(0..n) as NodeId;
            round.push((ack, engine.submit(&key, t).unwrap()));
        }
        // Quiesce the round: every ack and every answer arrives.
        for (ack, inference) in &round {
            let ack = ack.wait_update(wait).expect("churn ack");
            assert!(ack.applied(), "churn delta rejected: {:?}", ack.error);
            inference.wait_inference(wait).expect("churn inference");
        }
        total_inferences += round.len() as u64;
        for delta in &deltas {
            replica.apply_delta(delta, &[]).unwrap();
        }
        // Quiesced: the engine agrees with the replica everywhere.
        for v in (0..n as NodeId).step_by(17) {
            let (tier, bits) = engine.probe(&key, v).unwrap();
            assert_eq!(tier, replica.node_tier(v));
            assert_eq!(bits, replica.node_bits(v));
        }
        // And serves bit-exact logits for a replica-checked witness.
        let witness = rng.gen_range(0..n) as NodeId;
        let response = engine.submit_wait(&key, witness, wait).unwrap();
        total_inferences += 1;
        let expected = batch_logits(&replica, &[witness]);
        for (c, &logit) in response.logits.iter().enumerate() {
            assert_eq!(
                logit.to_bits(),
                expected.get(0, c).to_bits(),
                "witness {witness} diverged from replica"
            );
        }
    }
    let report = engine.shutdown();
    assert_eq!(report.updates_applied, total_updates);
    assert_eq!(report.updates_failed, 0);
    assert_eq!(report.completed, total_inferences);
}

/// Isolating a hub demotes it to the lowest tier; regrowing its in-edges
/// promotes it back — with the adjacency bit-exact against rebuilds on
/// both sides of the cycle.
#[test]
fn isolation_and_regrowth_cycles_retier_both_ways() {
    let spec = dense_spec();
    let (kind, seed) = (spec.kind, spec.dataset.seed);
    let mut artifacts = ModelArtifacts::build(&spec);
    let hub = (0..artifacts.num_nodes())
        .max_by_key(|&v| artifacts.graph.in_degree(v))
        .unwrap() as NodeId;
    let original_in: Vec<NodeId> = artifacts.graph.in_neighbors(hub as usize).to_vec();
    assert!(original_in.len() > 8, "hub must sit above tier 1");
    let hub_bits = artifacts.node_bits(hub);

    for cycle in 0..3 {
        let mut isolate = GraphDelta::new();
        isolate.isolate_node(hub);
        let effect = artifacts.apply_delta(&isolate, &[]).unwrap();
        let demotion = effect.retiered.iter().find(|r| r.node == hub).unwrap();
        assert_eq!(demotion.new_tier, 0, "cycle {cycle}: isolation demotes");
        assert_eq!(artifacts.node_bits(hub), artifacts.policy.tier_bits(0));
        assert_eq!(artifacts.graph.in_degree(hub as usize), 0);

        let mut regrow = GraphDelta::new();
        for &s in &original_in {
            regrow.insert_edge(s, hub);
        }
        let effect = artifacts.apply_delta(&regrow, &[]).unwrap();
        assert_eq!(effect.inserted_edges, original_in.len());
        let promotion = effect.retiered.iter().find(|r| r.node == hub).unwrap();
        assert_eq!(promotion.old_tier, 0, "cycle {cycle}: regrowth promotes");
        assert_eq!(artifacts.node_bits(hub), hub_bits);
    }
    assert_equivalent_to_rebuild(&artifacts, kind, seed);
    // Out-edges of the hub stay gone (isolation dropped them and regrowth
    // only restored in-edges) — the graph is genuinely different, yet
    // still equivalent to its own rebuild.
    assert_eq!(artifacts.graph.out_degree(hub as usize), 0);
}
