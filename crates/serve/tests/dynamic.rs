//! Integration tests of serving under graph mutation: a node driven across
//! a `DegreePolicy::paper_default()` tier boundary must change its served
//! bitwidth, batched and sequential logits must stay bit-exact through
//! mutations, stale cached artifacts must never be served, and updates to
//! the same model must apply in submission order.

use std::sync::Arc;
use std::time::Duration;

use mega_gnn::GnnKind;
use mega_graph::{DatasetSpec, GraphDelta, NodeId};
use mega_serve::{
    batch_logits, InferenceResponse, ModelArtifacts, ModelRegistry, ModelSpec, SchedulerConfig,
    ServeConfig, ServeEngine,
};

/// Per-request deadline for every ticket wait in this file.
const WAIT: Duration = Duration::from_secs(30);

fn tiny_spec(kind: GnnKind) -> ModelSpec {
    ModelSpec::standard(DatasetSpec::cora().scaled(0.08).with_feature_dim(48), kind)
}

fn engine_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        scheduler: SchedulerConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(1),
        },
        ..ServeConfig::default()
    }
}

/// The tier-boundary satellite: inserts drive a node across
/// `paper_default()` boundaries; its served bitwidth changes, the logits
/// stay bit-exact with a sequential reference that applied the same
/// deltas, and no response is ever produced from pre-update (stale)
/// artifacts.
#[test]
fn tier_crossing_changes_served_bitwidth_live() {
    let spec = tiny_spec(GnnKind::Gcn);
    // The sequential reference evolves in lockstep with the engine.
    let mut reference = ModelArtifacts::build(&spec);
    let policy = reference.policy.clone();

    let registry = Arc::new(ModelRegistry::new());
    let key = registry.register(spec);
    let engine = ServeEngine::start_detached(engine_config(), registry);
    engine.warm(&key).unwrap();

    let target = (0..reference.num_nodes() as NodeId)
        .find(|&v| reference.node_tier(v) == 0)
        .expect("power-law graphs have tier-0 nodes");
    let (tier0, bits0) = engine.probe(&key, target).unwrap();
    assert_eq!(bits0, reference.node_bits(target));

    // Baseline: served logits equal the sequential reference, bit for bit.
    let response = engine.submit_wait(&key, target, WAIT).unwrap();
    let expected = batch_logits(&reference, &[target]);
    for (c, &logit) in response.logits.iter().enumerate() {
        assert_eq!(logit.to_bits(), expected.get(0, c).to_bits());
    }

    // Feed edges in small deltas until the node has crossed at least two
    // tier boundaries (degree > 8 with the paper policy).
    let mut crossings = Vec::new();
    let mut sources: Vec<NodeId> = (0..reference.num_nodes() as NodeId)
        .filter(|&s| s != target && !reference.graph.has_edge(s, target))
        .take(12)
        .collect();
    assert!(sources.len() >= 12, "graph too small for the crossing test");
    while let Some(chunk) = {
        let take = sources.len().min(3);
        (take > 0).then(|| sources.drain(..take).collect::<Vec<_>>())
    } {
        let mut delta = GraphDelta::new();
        for &s in &chunk {
            delta.insert_edge(s, target);
        }
        let ack = engine
            .submit_update_wait(&key, delta.clone(), vec![], WAIT)
            .unwrap();
        assert!(ack.applied(), "churn delta must apply: {:?}", ack.error);
        assert_eq!(ack.inserted_edges, chunk.len());
        let effect = reference.apply_delta(&delta, &[]).unwrap();
        assert_eq!(ack.dirty_rows, effect.dirty_rows, "same incremental cost");
        crossings.extend(effect.retiered.iter().map(|r| (r.old_bits, r.new_bits)));

        // Post-ack requests observe the mutated graph: bits match the live
        // degree, logits match the mutated reference bit-exactly. A stale
        // cached artifact would fail both.
        let degree = reference.graph.in_degree(target as usize);
        let response = engine.submit_wait(&key, target, WAIT).unwrap();
        assert_eq!(response.bits, policy.bits_for_degree(degree));
        assert_eq!(response.tier, policy.tier_of_degree(degree));
        let expected = batch_logits(&reference, &[target]);
        for (c, &logit) in response.logits.iter().enumerate() {
            assert_eq!(
                logit.to_bits(),
                expected.get(0, c).to_bits(),
                "served logits diverged from the mutated reference (stale artifacts?)"
            );
        }
    }
    let (tier1, bits1) = engine.probe(&key, target).unwrap();
    assert!(tier1 > tier0, "12 inserts must cross a boundary");
    assert!(bits1 > bits0, "served bitwidth must increase");
    assert!(
        !crossings.is_empty() && crossings.iter().all(|&(old, new)| new > old),
        "every recorded retier is a promotion: {crossings:?}"
    );

    let report = engine.shutdown();
    assert_eq!(report.updates_failed, 0);
    assert_eq!(report.updates_applied, 4);
    assert!(report.nodes_retiered >= 2, "two boundaries crossed");
}

/// Batched execution through the engine stays bit-exact with the
/// sequential single-target reference *after* mutations.
#[test]
fn batched_equals_sequential_after_mutation() {
    let spec = tiny_spec(GnnKind::Gin);
    let mut reference = ModelArtifacts::build(&spec);
    let registry = Arc::new(ModelRegistry::new());
    let key = registry.register(spec);
    let engine = ServeEngine::start_detached(engine_config(), registry);
    engine.warm(&key).unwrap();

    // Mutate: a few inserts, removals, an isolation, and a node add.
    let dim = reference.feature_dim();
    let mut delta = GraphDelta::new();
    delta
        .insert_edge(3, 9)
        .insert_edge(30, 9)
        .remove_edge(
            reference
                .graph
                .in_neighbors(17)
                .first()
                .copied()
                .unwrap_or(3),
            17,
        )
        .isolate_node(25)
        .add_node();
    let new_node = reference.num_nodes() as NodeId;
    delta.insert_edge(9, new_node).insert_edge(3, new_node);
    let rows = vec![vec![0.75; dim]];
    let ack = engine
        .submit_update_wait(&key, delta.clone(), rows.clone(), WAIT)
        .unwrap();
    assert!(ack.applied());
    assert_eq!(ack.added_nodes, vec![new_node]);
    reference.apply_delta(&delta, &rows).unwrap();

    // Sequential reference rows for a mixed-tier target set including the
    // isolated and the added node.
    let targets: Vec<NodeId> = vec![9, 3, 25, new_node, 17];
    let sequential: Vec<Vec<f32>> = targets
        .iter()
        .map(|&t| batch_logits(&reference, &[t]).row(0).to_vec())
        .collect();

    // Submit the whole set before redeeming any ticket, so the targets
    // can share batches.
    let tickets: Vec<_> = targets
        .iter()
        .map(|&t| engine.submit(&key, t).unwrap())
        .collect();
    for (i, ticket) in tickets.iter().enumerate() {
        let response = ticket.wait_inference(WAIT).expect("batch response");
        assert_eq!(response.node, targets[i]);
        for (c, &logit) in response.logits.iter().enumerate() {
            assert_eq!(
                logit.to_bits(),
                sequential[i][c].to_bits(),
                "node {} class {c} diverged between batched and sequential",
                targets[i]
            );
        }
    }
    engine.shutdown();
}

/// Updates to one model apply in submission order (the per-model FIFO),
/// and the acknowledged versions are strictly sequential.
#[test]
fn updates_serialize_in_submission_order() {
    let spec = tiny_spec(GnnKind::Gcn);
    let registry = Arc::new(ModelRegistry::new());
    let key = registry.register(spec);
    let engine = ServeEngine::start_detached(engine_config(), registry);
    engine.warm(&key).unwrap();
    assert!(engine.probe(&key, 5).is_ok());

    // Alternating insert/remove of the same edge: only in-order
    // application yields the expected per-step effects.
    let mut tickets = Vec::new();
    for round in 0..6 {
        let mut delta = GraphDelta::new();
        if round % 2 == 0 {
            delta.insert_edge(5, 7);
        } else {
            delta.remove_edge(5, 7);
        }
        tickets.push(engine.submit_update(&key, delta, vec![]).unwrap());
    }
    let mut versions = Vec::new();
    for (round, ticket) in tickets.iter().enumerate() {
        let ack = ticket.wait_update(WAIT).expect("update ack");
        assert!(ack.applied());
        versions.push(ack.version);
        if round % 2 == 0 {
            assert_eq!(
                (ack.inserted_edges, ack.removed_edges),
                (1, 0),
                "round {round} must observe the edge as absent"
            );
        } else {
            assert_eq!(
                (ack.inserted_edges, ack.removed_edges),
                (0, 1),
                "round {round} must observe the edge as present"
            );
        }
    }
    assert_eq!(versions, vec![1, 2, 3, 4, 5, 6]);
    engine.shutdown();
}

/// Heavy updates to one model leave a co-resident model's artifacts
/// untouched: same entry, same logits, no rebuild.
#[test]
fn mutations_do_not_cross_contaminate_models() {
    let registry = Arc::new(ModelRegistry::new());
    let gcn = registry.register(tiny_spec(GnnKind::Gcn));
    let gin = registry.register(tiny_spec(GnnKind::Gin));
    let engine = ServeEngine::start_detached(engine_config(), registry);
    engine.warm(&gcn).unwrap();
    engine.warm(&gin).unwrap();

    let witness: Vec<NodeId> = vec![0, 7, 21];
    let before: Vec<InferenceResponse> = witness
        .iter()
        .map(|&t| engine.submit_wait(&gin, t, WAIT).unwrap())
        .collect();

    for i in 0..20u32 {
        let mut delta = GraphDelta::new();
        delta
            .insert_edge(i, (i + 40) % 60)
            .remove_edge(i, (i + 40) % 60);
        let ack = engine
            .submit_update_wait(&gcn, delta, vec![], WAIT)
            .unwrap();
        assert!(ack.applied());
    }

    for (i, &t) in witness.iter().enumerate() {
        let after = engine.submit_wait(&gin, t, WAIT).unwrap();
        assert_eq!(after.bits, before[i].bits);
        for (c, &logit) in after.logits.iter().enumerate() {
            assert_eq!(
                logit.to_bits(),
                before[i].logits[c].to_bits(),
                "GIN artifacts perturbed by GCN updates"
            );
        }
    }
    let report = engine.shutdown();
    assert_eq!(report.cache_misses, 2, "no rebuilds under mutation");
}
