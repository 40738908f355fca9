//! Event-driven completion: tickets must deliver bit-exact answers in any
//! redemption order, reclaim the slots of tickets dropped unredeemed,
//! survive timeouts, fail fast on dropped requests, and the execution path
//! must read tier/bits from live artifacts so churn between submit and
//! execution never mis-reports what the forward pass served.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mega_gnn::GnnKind;
use mega_graph::{DatasetSpec, GraphDelta, NodeId};
use mega_serve::{
    batch_logits, ArtifactCache, BatchScheduler, CompletionRouter, InferenceRequest, Metrics,
    ModelArtifacts, ModelRegistry, ModelSpec, SchedulerConfig, ServeConfig, ServeEngine,
    ServeError, WaitError, WorkerPool,
};

fn tiny_spec(kind: GnnKind) -> ModelSpec {
    ModelSpec::standard(DatasetSpec::cora().scaled(0.08).with_feature_dim(48), kind)
}

/// One burst of 40 tickets, redeemed in reverse submission order with
/// every fourth dropped unredeemed: each redeemed answer is bit-exact with
/// the sequential reference, and the dropped tickets' requests are still
/// answered and their slots reclaimed.
#[test]
fn ticket_waits_are_bit_exact_in_any_order() {
    let spec = tiny_spec(GnnKind::Gcn);
    let reference = ModelArtifacts::build(&spec);
    let registry = Arc::new(ModelRegistry::new());
    let key = registry.register(spec);
    let engine = ServeEngine::start_detached(
        ServeConfig {
            workers: 2,
            scheduler: SchedulerConfig {
                max_batch: 4,
                max_delay: Duration::from_millis(1),
            },
            ..ServeConfig::default()
        },
        registry,
    );
    engine.warm(&key).unwrap();
    let targets: Vec<NodeId> = (0..40).collect();
    let tickets: Vec<_> = targets
        .iter()
        .map(|&t| engine.submit(&key, t).unwrap())
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate().rev() {
        if i % 4 == 3 {
            drop(ticket);
            continue;
        }
        let response = ticket
            .wait_inference(Duration::from_secs(30))
            .expect("answered");
        assert_eq!((response.id, response.node), (ticket.id(), targets[i]));
        let expected = batch_logits(&reference, &[targets[i]]);
        for (c, &logit) in response.logits.iter().enumerate() {
            assert_eq!(logit.to_bits(), expected.get(0, c).to_bits());
        }
    }
    // A dropped ticket's request may still be executing on another lane;
    // its delivery reclaims the slot all the same.
    let deadline = Instant::now() + Duration::from_secs(30);
    while engine.in_flight() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(engine.in_flight(), 0, "every slot reclaimed on delivery");
    let report = engine.shutdown();
    assert_eq!(report.completed, targets.len() as u64);
}

/// Timeout vs. late delivery: a wait shorter than the batching delay
/// times out, the request stays in flight, and a later wait on the *same*
/// ticket collects the response once the deadline flush answers it.
#[test]
fn ticket_timeout_then_late_delivery() {
    let registry = Arc::new(ModelRegistry::new());
    let key = registry.register(tiny_spec(GnnKind::Gcn));
    let engine = ServeEngine::start_detached(
        ServeConfig {
            workers: 1,
            scheduler: SchedulerConfig {
                // Far larger than one request, so only the deadline (200ms
                // out) can flush — any wait under that must time out.
                max_batch: 1_000,
                max_delay: Duration::from_millis(200),
            },
            ..ServeConfig::default()
        },
        registry,
    );
    engine.warm(&key).unwrap();
    let ticket = engine.submit(&key, 3).unwrap();
    let waited = Instant::now();
    assert_eq!(
        ticket.wait(Duration::from_millis(20)).unwrap_err(),
        WaitError::Timeout(Duration::from_millis(20))
    );
    assert!(waited.elapsed() >= Duration::from_millis(20));
    assert_eq!(engine.in_flight(), 1, "timed-out request stays in flight");
    // The deadline flush delivers; the same ticket collects late.
    let response = ticket
        .wait_inference(Duration::from_secs(30))
        .expect("deadline flush answers");
    assert_eq!(response.node, 3);
    assert!(
        response.latency >= Duration::from_millis(150),
        "deadline-flushed: latency ~max_delay, got {:?}",
        response.latency
    );
    assert_eq!(engine.in_flight(), 0);
    // submit_wait surfaces the same timeout as a ServeError.
    let err = engine
        .submit_wait(&key, 4, Duration::from_millis(10))
        .unwrap_err();
    assert!(matches!(err, ServeError::Wait(WaitError::Timeout(_))));
    engine.shutdown();
}

/// An update ticket acknowledges the mutation, and (FIFO per model) also
/// fences every earlier update to the same model.
#[test]
fn update_tickets_acknowledge_and_fence() {
    let registry = Arc::new(ModelRegistry::new());
    let key = registry.register(tiny_spec(GnnKind::Gcn));
    let engine = ServeEngine::start_detached(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        registry,
    );
    engine.warm(&key).unwrap();
    let target = (0..200u32)
        .find(|&v| engine.probe(&key, v).map(|(t, _)| t == 0).unwrap_or(false))
        .expect("a power-law graph has tier-0 nodes");
    let (tier0, _) = engine.probe(&key, target).unwrap();
    // A burst of edge insertions into the target, acked only via the last
    // ticket: the FIFO fence means every earlier delta must be applied by
    // then.
    let mut last = None;
    let mut sent = 0;
    for src in 0..400u32 {
        if src == target {
            continue;
        }
        let mut delta = GraphDelta::new();
        delta.insert_edge(src, target);
        last = Some(engine.submit_update(&key, delta, vec![]).unwrap());
        sent += 1;
        if sent == 12 {
            break;
        }
    }
    let ack = last
        .unwrap()
        .wait_update(Duration::from_secs(30))
        .expect("acked");
    assert!(ack.applied());
    let (tier_after, _) = engine.probe(&key, target).unwrap();
    assert!(
        tier_after > tier0,
        "12 inserted edges must promote node {target} past tier {tier0}"
    );
    let report = engine.shutdown();
    assert_eq!(report.updates_applied, 12);
}

/// Regression for the stale-stamp bug: a re-tier can land between submit
/// and execution. The worker must read tier/bits from the live artifacts —
/// the response reports what the forward pass actually served, never a
/// submit-time snapshot. Built directly on the scheduler/worker pair so
/// the race is constructed, not hoped for.
#[test]
fn execution_restamps_tier_and_bits_from_live_artifacts() {
    let spec = tiny_spec(GnnKind::Gcn);
    let key = spec.key();
    let registry = Arc::new(ModelRegistry::new());
    registry.register(spec.clone());
    let cache = Arc::new(ArtifactCache::new(4));
    let metrics = Arc::new(Metrics::default());
    let router = Arc::new(CompletionRouter::new());
    let scheduler = Arc::new(BatchScheduler::new(SchedulerConfig {
        max_batch: 64,
        max_delay: Duration::from_secs(60),
    }));
    let pool = WorkerPool::spawn(
        1,
        scheduler.clone(),
        registry.clone(),
        cache.clone(),
        metrics.clone(),
        router.clone(),
    );

    // Read the node's *pre-churn* placement and precision...
    let entry = cache.get_or_build(&key, || ModelArtifacts::build(&spec));
    let node: NodeId = {
        let artifacts = entry.read();
        (0..artifacts.num_nodes() as NodeId)
            .find(|&v| artifacts.node_tier(v) == 0)
            .expect("tier-0 node exists")
    };
    let (stale_tier, stale_bits, stale_shard) = {
        let artifacts = entry.read();
        (
            artifacts.node_tier(node),
            artifacts.node_bits(node),
            artifacts.shard_of(node),
        )
    };
    // ...then promote the node across tier boundaries before execution
    // (the "concurrent re-tier landed first" interleaving, made
    // deterministic).
    let (live_tier, live_bits) = entry.update(|artifacts| {
        let mut delta = GraphDelta::new();
        let n = artifacts.num_nodes() as NodeId;
        let mut inserted = 0;
        for src in 0..n {
            if src != node && !artifacts.graph.has_edge(src, node) {
                delta.insert_edge(src, node);
                inserted += 1;
                if inserted == 12 {
                    break;
                }
            }
        }
        artifacts.apply_delta(&delta, &[]).expect("valid churn");
        (artifacts.node_tier(node), artifacts.node_bits(node))
    });
    assert!(live_tier > stale_tier, "churn must actually re-tier");
    assert_ne!(live_bits, stale_bits);

    let ticket = router.register(0);
    scheduler.submit(InferenceRequest {
        id: 0,
        model: key.clone(),
        node,
        shard: stale_shard,
        submitted_at: Instant::now(),
        trace: mega_serve::RequestTrace::begin(),
    });
    scheduler.close();
    let response = ticket
        .wait_inference(Duration::from_secs(30))
        .expect("executed");
    assert_eq!(
        (response.tier, response.bits),
        (live_tier, live_bits),
        "response must report the tier/bits the forward pass served, not the stale stamp"
    );
    assert!(!response.cached);
    pool.join();
}

/// An idle engine's workers park on the work-queue condvar instead of
/// spin-polling: wakeups while idle stay near zero.
#[test]
fn idle_engine_workers_park() {
    let registry = Arc::new(ModelRegistry::new());
    let key = registry.register(tiny_spec(GnnKind::Gcn));
    let engine = ServeEngine::start_detached(
        ServeConfig {
            workers: 1,
            scheduler: SchedulerConfig {
                max_batch: 8,
                max_delay: Duration::from_millis(2),
            },
            ..ServeConfig::default()
        },
        registry,
    );
    engine.warm(&key).unwrap();
    // Serve something first (the worker wakes and must park again).
    for t in 0..4 {
        engine
            .submit_wait(&key, t, Duration::from_secs(30))
            .expect("answered");
    }
    let before = engine.metrics().queue_wakeups.load(Ordering::Relaxed);
    std::thread::sleep(Duration::from_millis(300));
    let idle_wakeups = engine.metrics().queue_wakeups.load(Ordering::Relaxed) - before;
    assert!(
        idle_wakeups <= 2,
        "idle workers must park, not poll: {idle_wakeups} wakeups in 300ms"
    );
    engine.shutdown();
}
