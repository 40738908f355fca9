//! The serve stack runs on `mega_serve::sync`'s lock-order-checked
//! wrappers in debug builds, which turns this whole test suite into a
//! deadlock detector: any two code paths that disagree about lock
//! acquisition order panic the run, even if no test interleaves them.
//!
//! This file pins down both directions of that claim:
//!
//! * **No false positives** on the hairiest real ordering — the shared
//!   work queue (queue mutex + condvar re-acquisition, the update FIFO
//!   beside it) hammered by three submitters and two `next()` consumers,
//!   then closed; plus a busy engine driving every lock class at once
//!   (work queue, ticket slots, completion router, artifact and logits
//!   caches, metrics, flight recorder).
//! * **The detector is live, not compiled out**: after that traffic,
//!   `mega_serve::sync::order_stats()` must show recorded acquisition-order
//!   edges (in release it reports zeros by design — the wrappers are
//!   std re-exports there).

use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mega_gnn::GnnKind;
use mega_graph::{DatasetSpec, GraphDelta};
use mega_serve::{
    BatchScheduler, InferenceRequest, ModelKey, ModelRegistry, ModelSpec, SchedulerConfig,
    ServeConfig, ServeEngine, UpdateRequest, WorkItem,
};

fn request(id: u64, shard: u32) -> InferenceRequest {
    InferenceRequest {
        id,
        model: ModelKey::new("Cora", GnnKind::Gcn),
        node: id as u32,
        shard,
        submitted_at: Instant::now(),
        trace: mega_serve::RequestTrace::begin(),
    }
}

/// Three submitters (requests plus the odd update) against two workers
/// blocking in `next()`, then `close()`. The detector must stay silent,
/// every request must come out exactly once, and both consumers must exit
/// once the closed queue is drained.
#[test]
fn work_queue_hammer_is_order_clean() {
    let scheduler = Arc::new(BatchScheduler::new(SchedulerConfig {
        max_batch: 4,
        max_delay: Duration::from_micros(500),
    }));
    let wakeups = Arc::new(AtomicU64::new(0));
    let consumers: Vec<_> = (0..2)
        .map(|_| {
            let (scheduler, wakeups) = (scheduler.clone(), wakeups.clone());
            std::thread::spawn(move || {
                let (mut ids, mut updates) = (Vec::new(), 0);
                while let Some(item) = scheduler.next(&wakeups) {
                    match item {
                        WorkItem::Batch(batch) => {
                            assert!(batch.requests.len() <= 4);
                            ids.extend(batch.requests.iter().map(|r| r.id));
                        }
                        WorkItem::Update(model) => {
                            scheduler.take_update(&model).expect("payload parked");
                            updates += 1;
                        }
                        WorkItem::Poison => unreachable!("nothing poisons this queue"),
                    }
                }
                (ids, updates)
            })
        })
        .collect();

    let feeders: Vec<_> = (0..3u64)
        .map(|t| {
            let scheduler = scheduler.clone();
            std::thread::spawn(move || {
                for i in 0..200u64 {
                    scheduler.submit(request(t * 1_000 + i, (i % 3) as u32));
                    if i % 50 == 0 {
                        scheduler.submit_update(UpdateRequest {
                            id: 1_000_000 + t * 1_000 + i,
                            model: ModelKey::new("Cora", GnnKind::Gcn),
                            delta: GraphDelta::new(),
                            node_features: vec![],
                            submitted_at: Instant::now(),
                        });
                    }
                }
            })
        })
        .collect();
    for feeder in feeders {
        feeder
            .join()
            .expect("submit traffic must not trip the detector");
    }
    scheduler.close();
    let mut ids = Vec::new();
    let mut updates = 0;
    for consumer in consumers {
        let (seen, applied) = consumer
            .join()
            .expect("next()/close() must not trip the detector");
        ids.extend(seen);
        updates += applied;
    }
    ids.sort_unstable();
    let expected: Vec<u64> = (0..3u64)
        .flat_map(|t| (0..200).map(move |i| t * 1_000 + i))
        .collect();
    assert_eq!(ids, expected, "every request taken exactly once");
    assert_eq!(updates, 12);
    assert_eq!(scheduler.pending(), 0);
    assert_eq!(scheduler.pending_updates(), 0);
}

/// A busy engine — predict traffic, churn deltas, metrics and memory
/// probes — exercises every serve lock class on the instrumented
/// wrappers. Completing without a panic is the no-cycle proof; in debug
/// builds the order graph must also have *recorded* edges, proving the
/// instrumentation (not the raw std types) is on the hot path.
#[test]
fn busy_engine_is_cycle_free_and_detector_is_live() {
    let registry = Arc::new(ModelRegistry::new());
    let key = registry.register(
        ModelSpec::standard(
            DatasetSpec::cora().scaled(0.1).with_feature_dim(32),
            GnnKind::Gcn,
        )
        .with_shards(2),
    );
    let engine = ServeEngine::start_detached(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        registry,
    );
    engine.warm(&key).unwrap();

    for round in 0..20u32 {
        engine
            .submit_wait(&key, round % 50, Duration::from_secs(30))
            .expect("predict");
        if round % 5 == 0 {
            let mut delta = GraphDelta::new();
            delta.insert_edge(round % 40, (round + 1) % 40);
            engine
                .submit_update(&key, delta, vec![])
                .unwrap()
                .wait_update(Duration::from_secs(30))
                .expect("churn delta");
        }
        let _ = engine.metrics().lane_snapshot();
        let _ = engine.memory();
        assert!(engine.health().ok(), "engine must stay healthy");
    }
    engine.shutdown();

    let stats = mega_serve::sync::order_stats();
    #[cfg(debug_assertions)]
    {
        assert!(
            stats.classes >= 2,
            "expected lock classes to be registered, got {stats:?}"
        );
        assert!(
            stats.edges >= 1,
            "debug builds must record acquisition-order edges — the \
             detector appears to be compiled out: {stats:?}"
        );
    }
    #[cfg(not(debug_assertions))]
    {
        assert_eq!(
            (stats.classes, stats.edges),
            (0, 0),
            "release builds must not carry detector state"
        );
    }
}
