//! Integration tests of the serving engine: batched execution must be
//! bit-exact with sequential per-request execution, and deadline-triggered
//! flushes must answer partial batches while the engine keeps running.

use std::sync::Arc;
use std::time::Duration;

use mega_gnn::GnnKind;
use mega_graph::{DatasetSpec, NodeId};
use mega_serve::{
    batch_logits, ModelArtifacts, ModelRegistry, ModelSpec, SchedulerConfig, ServeConfig,
    ServeEngine,
};

fn tiny_spec(kind: GnnKind) -> ModelSpec {
    ModelSpec::standard(DatasetSpec::cora().scaled(0.08).with_feature_dim(48), kind)
}

/// The heart of the acceptance criteria: logits served through the batched
/// multi-threaded engine are bit-identical to running each request alone.
#[test]
fn batched_execution_is_bit_exact_with_sequential() {
    let spec = tiny_spec(GnnKind::Gcn);
    let reference = ModelArtifacts::build(&spec);
    let n = reference.num_nodes();

    // Targets spanning every precision tier present in the graph.
    let targets: Vec<NodeId> = (0..n as NodeId).step_by(3).take(48).collect();
    let sequential: Vec<Vec<f32>> = targets
        .iter()
        .map(|&t| {
            let logits = batch_logits(&reference, &[t]);
            logits.row(0).to_vec()
        })
        .collect();

    let registry = Arc::new(ModelRegistry::new());
    let key = registry.register(spec);
    let config = ServeConfig {
        workers: 4,
        scheduler: SchedulerConfig {
            max_batch: 16,
            max_delay: Duration::from_millis(1),
        },
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start_detached(config, registry);
    engine.warm(&key).unwrap();
    let tickets: Vec<_> = targets
        .iter()
        .map(|&t| engine.submit(&key, t).unwrap())
        .collect();
    let report = engine.shutdown();
    assert_eq!(report.completed, targets.len() as u64);

    let mut batched = 0usize;
    for (ticket, (&target, expected)) in tickets.iter().zip(targets.iter().zip(&sequential)) {
        let response = ticket.wait_inference(Duration::ZERO).expect("answered");
        assert_eq!(response.node, target, "response for the submitted target");
        assert_eq!(response.logits.len(), expected.len());
        for (a, b) in response.logits.iter().zip(expected) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "node {} diverged between batched and sequential execution",
                response.node
            );
        }
        if response.batch_size > 1 {
            batched += 1;
        }
    }
    assert!(batched > 0, "expected at least one multi-request batch");
}

/// Responses carry the degree-aware policy's tier and bitwidth for their
/// node, whatever else shared the batch.
#[test]
fn responses_carry_the_policy_tier_and_bits() {
    let spec = tiny_spec(GnnKind::Gcn);
    let reference = ModelArtifacts::build(&spec);
    let registry = Arc::new(ModelRegistry::new());
    let key = registry.register(spec);
    let engine = ServeEngine::start_detached(
        ServeConfig {
            workers: 2,
            scheduler: SchedulerConfig {
                max_batch: 8,
                max_delay: Duration::from_millis(1),
            },
            ..ServeConfig::default()
        },
        registry,
    );
    engine.warm(&key).unwrap();
    let n = reference.num_nodes() as NodeId;
    let tickets: Vec<_> = (0..n.min(120))
        .map(|t| engine.submit(&key, t).unwrap())
        .collect();
    engine.shutdown();

    use std::collections::HashMap;
    let mut by_id: HashMap<u64, (usize, u8)> = HashMap::new();
    for ticket in &tickets {
        let response = ticket.wait_inference(Duration::ZERO).expect("answered");
        assert_eq!(
            response.bits,
            reference.node_bits(response.node),
            "served bits must match the policy profile"
        );
        assert_eq!(response.tier, reference.node_tier(response.node));
        by_id.insert(response.id, (response.tier, response.bits));
    }
    // Every tier that exists in the graph shows up in the traffic.
    let tiers_seen: std::collections::HashSet<usize> = by_id.values().map(|&(t, _)| t).collect();
    assert!(!tiers_seen.is_empty());
}

/// A partial batch must be answered via the deadline path while the
/// engine keeps running — no shutdown-triggered drain involved.
#[test]
fn deadline_flush_answers_partial_batches_live() {
    let registry = Arc::new(ModelRegistry::new());
    let key = registry.register(tiny_spec(GnnKind::Gcn));
    let engine = ServeEngine::start_detached(
        ServeConfig {
            workers: 2,
            scheduler: SchedulerConfig {
                // Far larger than what we submit: only the deadline can
                // flush these.
                max_batch: 1_000,
                max_delay: Duration::from_millis(5),
            },
            ..ServeConfig::default()
        },
        registry,
    );
    engine.warm(&key).unwrap();
    let tickets: Vec<_> = (0..5).map(|t| engine.submit(&key, t).unwrap()).collect();
    for ticket in &tickets {
        let response = ticket
            .wait_inference(Duration::from_secs(10))
            .expect("the deadline must flush the partial batch");
        assert!(response.batch_size <= 5);
    }
    let report = engine.shutdown();
    assert_eq!(report.completed, 5);
    assert!(
        report.deadline_flushes >= 1,
        "expected a deadline-triggered flush, got report {report}"
    );
}

/// Serving two models concurrently keeps artifacts separate and the cache
/// warm.
#[test]
fn multi_model_traffic_hits_the_cache() {
    let registry = Arc::new(ModelRegistry::new());
    let gcn = registry.register(tiny_spec(GnnKind::Gcn));
    let gin = registry.register(tiny_spec(GnnKind::Gin));
    let engine = ServeEngine::start_detached(
        ServeConfig {
            workers: 4,
            scheduler: SchedulerConfig {
                max_batch: 8,
                max_delay: Duration::from_millis(1),
            },
            ..ServeConfig::default()
        },
        registry,
    );
    engine.warm(&gcn).unwrap();
    engine.warm(&gin).unwrap();
    let mut tickets = Vec::new();
    for t in 0..40 {
        tickets.push(engine.submit(&gcn, t).unwrap());
        tickets.push(engine.submit(&gin, t).unwrap());
    }
    let report = engine.shutdown();
    assert_eq!(report.completed, 80);
    assert_eq!(report.cache_misses, 2, "one build per model");
    assert!(report.cache_hit_rate > 0.9);
    let mut per_model = std::collections::HashMap::new();
    for ticket in &tickets {
        let response = ticket.wait_inference(Duration::ZERO).expect("answered");
        *per_model.entry(response.model.clone()).or_insert(0u32) += 1;
    }
    assert_eq!(per_model.len(), 2);
    assert!(per_model.values().all(|&n| n == 40));
}

/// A lane that ran a batch publishes its kernel arena's reserved bytes.
/// The lane stores the gauge just after it answers, so the test polls.
#[test]
fn lanes_publish_their_kernel_arena_size() {
    let registry = Arc::new(ModelRegistry::new());
    let key = registry.register(tiny_spec(GnnKind::Gcn));
    let engine = ServeEngine::start_detached(ServeConfig::default(), registry);
    engine.warm(&key).unwrap();
    assert!(engine
        .metrics()
        .lane_snapshot()
        .iter()
        .all(|lane| lane.arena_bytes == 0));
    engine
        .submit(&key, 5)
        .unwrap()
        .wait_inference(Duration::from_secs(30))
        .expect("answered");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let published = loop {
        let bytes: u64 = engine
            .metrics()
            .lane_snapshot()
            .iter()
            .map(|lane| lane.arena_bytes)
            .sum();
        if bytes > 0 || std::time::Instant::now() > deadline {
            break bytes;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(
        published > 0,
        "the lane that ran the batch reports its arena"
    );
    engine.shutdown();
}
