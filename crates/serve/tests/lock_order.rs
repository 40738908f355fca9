//! The serve stack runs on `mega_serve::sync`'s lock-order-checked
//! wrappers in debug builds, which turns this whole test suite into a
//! deadlock detector: any two code paths that disagree about lock
//! acquisition order panic the run, even if no test interleaves them.
//!
//! This file pins down both directions of that claim:
//!
//! * **No false positives** on the hairiest real ordering — the
//!   sweeper's park/re-arm protocol (`sweep_gen` mutex + condvar
//!   re-acquisition under `wake_sweeper` traffic) hammered from multiple
//!   threads, plus a busy engine driving every lock class at once
//!   (scheduler buckets, ticket slots, completion router, artifact and
//!   logits caches, metrics, flight recorder).
//! * **The detector is live, not compiled out**: after that traffic,
//!   `mega_serve::sync::order_stats()` must show recorded acquisition-order
//!   edges (in release it reports zeros by design — the wrappers are
//!   std re-exports there).

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mega_gnn::GnnKind;
use mega_graph::{DatasetSpec, GraphDelta};
use mega_serve::{
    BatchScheduler, InferenceRequest, ModelKey, ModelRegistry, ModelSpec, SchedulerConfig,
    ServeConfig, ServeEngine, WorkRouter,
};

fn request(id: u64, shard: u32, tier: usize) -> InferenceRequest {
    InferenceRequest {
        id,
        model: ModelKey::new("Cora", GnnKind::Gcn),
        node: id as u32,
        shard,
        tier,
        bits: 2,
        submitted_at: Instant::now(),
        trace: mega_serve::RequestTrace::begin(),
    }
}

/// The sweeper protocol — park on the generation condvar until the next
/// deadline, wake, poll, re-arm — interleaved with concurrent submits
/// and explicit wakes from other threads. The detector must stay silent:
/// `sweep_gen` is only ever held inside the park, never across the
/// bucket-map lock.
#[test]
fn sweeper_park_rearm_protocol_is_order_clean() {
    let (tx, rx) = mpsc::channel();
    let scheduler = Arc::new(BatchScheduler::new(
        SchedulerConfig {
            max_batch: 4,
            max_delay: Duration::from_micros(500),
        },
        WorkRouter::single(tx),
    ));

    let sweeper = {
        let scheduler = scheduler.clone();
        std::thread::spawn(move || {
            let shutdown = Instant::now() + Duration::from_millis(100);
            while Instant::now() < shutdown {
                let gen = scheduler.sweep_generation();
                scheduler.poll_deadlines(Instant::now());
                // Cap the park so the loop re-checks `shutdown` even when
                // the buckets are drained (next_deadline() == None would
                // otherwise park forever once the feeders stop).
                let cap = Instant::now() + Duration::from_millis(2);
                let deadline = scheduler.next_deadline().unwrap_or(cap).min(cap);
                scheduler.sweeper_park(gen, Some(deadline));
            }
        })
    };

    let mut feeders = Vec::new();
    for t in 0..3u64 {
        let scheduler = scheduler.clone();
        feeders.push(std::thread::spawn(move || {
            for i in 0..200u64 {
                scheduler.submit(request(t * 1_000 + i, (i % 3) as u32, (i % 2) as usize));
                if i % 7 == 0 {
                    scheduler.wake_sweeper();
                }
            }
        }));
    }
    for feeder in feeders {
        feeder
            .join()
            .expect("submit/wake traffic must not trip the detector");
    }
    scheduler.wake_sweeper();
    sweeper
        .join()
        .expect("park/re-arm must not trip the detector");
    scheduler.flush_all();
    drop(rx);
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
