//! The worker pool: std threads pulling inference batches and graph
//! updates from the shared [`BatchScheduler`] queue and executing them
//! against a model's global artifacts.
//!
//! Inference has one execution path: cache misses are grouped by the shard
//! that owns each node *at execution time* and every group runs through
//! [`shard_logits_with_field`] (blocked kernels over the global adjacency
//! and packed store), so the shard count cannot change a logit.
//!
//! No worker owns a shard or a model: whichever worker is free takes the
//! next due batch or update token ([`BatchScheduler::next`]), so a dead or
//! busy worker leaves nothing stranded behind it. Updates for one model
//! still apply in submission order, because a worker pops the payload from
//! the per-model FIFO inside the model's write lock.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use mega_gnn::infer::ReceptiveField;
use mega_gnn::kernel::{forward_targets_packed_with_field, KernelArena, KernelMode};
use mega_graph::NodeId;
use mega_tensor::Matrix;

use crate::cache::{ArtifactCache, ModelArtifacts};
use crate::logits::CachedLogits;
use crate::metrics::Metrics;
use crate::registry::ModelRegistry;
use crate::request::{
    InferenceRequest, InferenceResponse, ModelKey, ServeResponse, UpdateResponse,
};
use crate::scheduler::{Batch, BatchScheduler, FlushReason, WorkItem};
use crate::shard::estimate_batch_hw;
use crate::ticket::CompletionRouter;
use crate::trace::TraceStage;

/// Clears the lane's liveness flag when its thread exits — by normal
/// drain *or* by panic (`Drop` runs during unwind), which is exactly what
/// lets `/healthz` notice a dead worker.
struct LaneLiveness(Arc<crate::metrics::LaneStat>);

impl Drop for LaneLiveness {
    fn drop(&mut self) {
        self.0
            .alive
            .store(false, std::sync::atomic::Ordering::Relaxed);
    }
}

// Each worker thread reuses one flat kernel arena across every batch it
// executes; steady-state batches allocate nothing. Its reserved size is
// published per lane as `LaneStat::arena_bytes`.
thread_local! {
    static ARENA: std::cell::RefCell<KernelArena> = std::cell::RefCell::new(KernelArena::default());
}

fn with_arena<R>(f: impl FnOnce(&mut KernelArena) -> R) -> R {
    ARENA.with(|arena| f(&mut arena.borrow_mut()))
}

/// Executes the degree-aware quantized forward pass for `targets` against
/// the *global* artifacts and returns their logits (row `i` belongs to
/// `targets[i]`). Runs the register-blocked bit-plane kernels
/// ([`KernelMode::Blocked`]): same-tier combination rows share one
/// weight-tile pass in M-lane blocks.
///
/// The reference path of the equivalence suites: the same pass as
/// [`shard_logits_with_field`], minus the shard check.
pub fn batch_logits(artifacts: &ModelArtifacts, targets: &[NodeId]) -> Matrix {
    batch_logits_with_mode(artifacts, targets, KernelMode::Blocked).0
}

/// [`batch_logits`] with an explicit kernel mode, plus the materialized
/// [`ReceptiveField`] — the blocked-vs-scalar equivalence tests and
/// benchmarks drive both modes through this.
pub fn batch_logits_with_mode(
    artifacts: &ModelArtifacts,
    targets: &[NodeId],
    mode: KernelMode,
) -> (Matrix, ReceptiveField) {
    with_arena(|arena| {
        forward_targets_packed_with_field(
            &artifacts.model,
            &artifacts.packed_model,
            &artifacts.packed_features,
            &artifacts.adjacency,
            targets,
            &mut |v| artifacts.node_bits(v),
            mode,
            arena,
        )
    })
}

/// Executes a shard-batch: the logits of `targets` (row `i` belongs to
/// `targets[i]`) plus the global-id [`ReceptiveField`] the pass
/// materialized. The shard is an ownership view, so the pass runs over the
/// model's global adjacency and packed store, exactly as [`batch_logits`].
///
/// # Panics
///
/// Panics if `shard` does not exist.
pub fn shard_logits_with_field(
    artifacts: &ModelArtifacts,
    shard: u32,
    targets: &[NodeId],
) -> (Matrix, ReceptiveField) {
    assert!(artifacts.shard(shard).is_some(), "shard {shard} exists");
    batch_logits_with_mode(artifacts, targets, KernelMode::Blocked)
}

/// A pool of serving threads sharing one work queue.
pub struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads, each pulling from `scheduler` until it is
    /// closed and drained (engine shutdown). Worker `i` keeps its counters
    /// in lane `i` of `metrics`. Every response leaves through
    /// `completions`, which delivers it into the request's
    /// [`crate::Ticket`] slot, waking its waiter the moment the result
    /// exists.
    pub fn spawn(
        workers: usize,
        scheduler: Arc<BatchScheduler>,
        registry: Arc<ModelRegistry>,
        cache: Arc<ArtifactCache>,
        metrics: Arc<Metrics>,
        completions: Arc<CompletionRouter>,
    ) -> Self {
        let handles = (0..workers.max(1))
            .map(|worker_id| {
                let scheduler = scheduler.clone();
                let registry = registry.clone();
                let cache = cache.clone();
                let metrics = metrics.clone();
                let completions = completions.clone();
                std::thread::Builder::new()
                    .name(format!("mega-serve-worker-{worker_id}"))
                    .spawn(move || {
                        let stat = metrics.lane_stat(worker_id);
                        stat.alive.store(true, std::sync::atomic::Ordering::Relaxed);
                        let _liveness = LaneLiveness(stat.clone());
                        while let Some(item) = scheduler.next(&metrics.queue_wakeups) {
                            let started = Instant::now();
                            match item {
                                WorkItem::Batch(batch) => {
                                    run_batch(
                                        worker_id,
                                        batch,
                                        &registry,
                                        &cache,
                                        &metrics,
                                        &completions,
                                    );
                                    stat.arena_bytes.store(
                                        with_arena(|arena| arena.scratch_bytes()) as u64,
                                        std::sync::atomic::Ordering::Relaxed,
                                    );
                                }
                                WorkItem::Update(model) => run_update(
                                    worker_id,
                                    model,
                                    &registry,
                                    &cache,
                                    &scheduler,
                                    &metrics,
                                    &completions,
                                ),
                                WorkItem::Poison => {
                                    panic!("worker {worker_id} poisoned by fault injection")
                                }
                            }
                            stat.busy_us.fetch_add(
                                started.elapsed().as_micros() as u64,
                                std::sync::atomic::Ordering::Relaxed,
                            );
                            stat.items
                                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        Self { handles }
    }

    /// Number of threads in the pool.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// Per-worker liveness, indexed by worker id: `false` once the
    /// worker's thread has exited (a panic, or — during shutdown — a
    /// worker that already drained). `/healthz` reads this while the engine
    /// is running, where the only way a worker finishes is a panic.
    pub fn alive(&self) -> Vec<bool> {
        self.handles.iter().map(|h| !h.is_finished()).collect()
    }

    /// Waits for every worker to finish (the scheduler must already be
    /// closed, or this blocks forever). A worker that panicked mid-run
    /// (e.g. fault injection via [`crate::ServeEngine::poison_worker`]) is
    /// reported, not propagated — the other workers still drain the queue.
    pub fn join(self) {
        for (worker, handle) in self.handles.into_iter().enumerate() {
            if handle.join().is_err() {
                eprintln!("mega-serve: worker {worker} panicked before shutdown");
            }
        }
    }
}

fn run_batch(
    worker_id: usize,
    mut batch: Batch,
    registry: &ModelRegistry,
    cache: &ArtifactCache,
    metrics: &Metrics,
    completions: &CompletionRouter,
) {
    // One clock read stamps the whole batch's dequeue.
    let dequeued = Instant::now();
    for request in &mut batch.requests {
        request.trace.stamp_at(TraceStage::Dequeued, dequeued);
    }
    // The engine validates models at submit time, so this lookup only fails
    // if a model was dropped from the registry mid-flight; nothing useful
    // can be answered then — but waiters must not hang, so their tickets
    // are failed fast.
    let Some(spec) = registry.get(&batch.model) else {
        for request in &batch.requests {
            completions.drop_request(request.id);
        }
        return;
    };
    let entry = cache.get_or_build(&batch.model, || ModelArtifacts::build(&spec));
    // Hold the read guard across execution: updates to this model wait,
    // and the batch observes one consistent artifact version throughout.
    let artifacts = entry.read();

    // Re-registering a model can shrink its graph or change its shard
    // count between submit-time validation and execution (the cache
    // rebuilds from the new spec). Out-of-range nodes are unanswerable and
    // dropped; re-sharded nodes run under their new owner below.
    let (valid, stale): (Vec<_>, Vec<_>) = batch
        .requests
        .into_iter()
        .partition(|r| (r.node as usize) < artifacts.num_nodes());
    if !stale.is_empty() {
        eprintln!(
            "mega-serve: dropping {} request(s) for {} whose nodes exceed the \
             re-registered model ({} nodes)",
            stale.len(),
            batch.model,
            artifacts.num_nodes()
        );
        for request in &stale {
            completions.drop_request(request.id);
        }
    }
    if valid.is_empty() {
        return;
    }
    match batch.reason {
        FlushReason::Size => {
            metrics
                .size_flushes
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        FlushReason::Deadline => {
            metrics
                .deadline_flushes
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        FlushReason::Barrier | FlushReason::Drain => {}
    }

    // Partial-batch split: a request that missed the logits cache at
    // submit time may have been filled since (an earlier batch computed
    // the same hot node). Answer those straight from the cache; only the
    // remainder pays the forward pass. Safe under the read guard — the
    // cache is only invalidated under the entry's write lock, so a hit
    // here is bit-exact with recomputing against these artifacts.
    //
    // Misses are grouped by the shard that owns them *now*. Normally that
    // is `batch.shard` alone; a re-registration that re-sharded the model
    // after submit sends a request to its new owner instead.
    let mut misses: BTreeMap<u32, Vec<InferenceRequest>> = BTreeMap::new();
    for request in valid {
        let shard = artifacts.shard_of(request.node);
        match artifacts
            .logits_cache(shard)
            .and_then(|c| c.get(request.node))
        {
            Some(hit) => {
                metrics.record_logits_lookup(shard, true);
                respond_cached(worker_id, request, shard, hit, completions, metrics);
            }
            None => misses.entry(shard).or_default().push(request),
        }
    }
    for (shard, requests) in misses {
        execute_shard_batch(worker_id, &artifacts, shard, requests, metrics, completions);
    }
}

/// Sorts `nodes` for the forward pass: returns the sorted targets and, for
/// each sorted row, the index in `nodes` it came from. A stable argsort, so
/// duplicate nodes keep their arrival order.
fn ordered_targets(nodes: &[NodeId]) -> (Vec<NodeId>, Vec<usize>) {
    let mut order: Vec<usize> = (0..nodes.len()).collect();
    order.sort_by_key(|&i| nodes[i]);
    let targets = order.iter().map(|&i| nodes[i]).collect();
    (targets, order)
}

/// Answers one request from a logits-cache hit: no forward pass, no
/// batch — the response carries the cached row verbatim (bit-exact with
/// recomputation by the invalidation guarantee).
fn respond_cached(
    worker_id: usize,
    mut request: InferenceRequest,
    shard: u32,
    hit: CachedLogits,
    completions: &CompletionRouter,
    metrics: &Metrics,
) {
    request.trace.stamp(TraceStage::CacheHit);
    let response = InferenceResponse::from_hit(
        request.id,
        request.model.clone(),
        request.node,
        shard,
        Some(worker_id),
        hit,
        request.submitted_at.elapsed(),
    );
    metrics.record_response(response.bits, response.latency);
    completions.deliver_traced(response, &mut request.trace, &metrics.trace);
}

/// Inserts freshly computed logits rows into their owning shards' caches
/// (deduplicating repeated targets) and charges any evictions to the
/// metrics. Runs under the artifacts read guard, which is what serializes
/// fills against delta invalidation.
fn fill_logits_cache(
    artifacts: &ModelArtifacts,
    targets: &[NodeId],
    logits: &Matrix,
    metrics: &Metrics,
) {
    for (row, &node) in targets.iter().enumerate() {
        if row > 0 && targets[row - 1] == node {
            continue; // targets are sorted; duplicates share one entry
        }
        let shard = artifacts.shard_of(node);
        let Some(cache) = artifacts.logits_cache(shard) else {
            continue;
        };
        if !cache.is_enabled() {
            continue;
        }
        let evicted = cache.insert(
            node,
            CachedLogits {
                logits: logits.row(row).to_vec(),
                predicted_class: logits.argmax_row(row),
                bits: artifacts.node_bits(node),
                tier: artifacts.node_tier(node),
            },
        );
        metrics.record_logits_evictions(shard, evicted);
    }
}

#[allow(clippy::too_many_arguments)]
fn respond_batch(
    worker_id: usize,
    artifacts: &ModelArtifacts,
    requests: &mut [InferenceRequest],
    order: &[usize],
    logits: &Matrix,
    halo_rows: usize,
    completions: &CompletionRouter,
    metrics: &Metrics,
) {
    let batch_size = requests.len();
    for (row, &i) in order.iter().enumerate() {
        let request = &mut requests[i];
        let logits_row = logits.row(row).to_vec();
        let predicted_class = logits.argmax_row(row);
        // Everything placement- and precision-shaped is read from the
        // artifacts the batch *executed against*, so a re-tier or re-shard
        // landing between submit and execution never makes the response
        // mis-report the tier/bits/shard the forward pass served.
        let shard = artifacts.shard_of(request.node);
        let response = InferenceResponse {
            id: request.id,
            model: request.model.clone(),
            node: request.node,
            predicted_class,
            logits: logits_row,
            bits: artifacts.node_bits(request.node),
            tier: artifacts.node_tier(request.node),
            shard,
            halo_rows,
            batch_size,
            worker: Some(worker_id),
            cached: false,
            latency: request.submitted_at.elapsed(),
        };
        metrics.record_logits_lookup(shard, false);
        metrics.record_response(response.bits, response.latency);
        completions.deliver_traced(response, &mut request.trace, &metrics.trace);
    }
}

fn execute_shard_batch(
    worker_id: usize,
    artifacts: &ModelArtifacts,
    shard: u32,
    mut requests: Vec<InferenceRequest>,
    metrics: &Metrics,
    completions: &CompletionRouter,
) {
    let nodes: Vec<NodeId> = requests.iter().map(|r| r.node).collect();
    let (targets, order) = ordered_targets(&nodes);
    let started = Instant::now();
    for request in &mut requests {
        request.trace.stamp_at(TraceStage::ExecStart, started);
    }
    let (logits, field) = shard_logits_with_field(artifacts, shard, &targets);
    let execution = started.elapsed();
    let ended = Instant::now();
    for request in &mut requests {
        request.trace.stamp_at(TraceStage::ExecEnd, ended);
    }

    let view = artifacts.shard(shard).expect("shard exists");
    let halo_rows = view.halo_rows_in(&field);
    // Hardware-model feedback: what would this batch cost on MEGA?
    let est = estimate_batch_hw(
        view,
        &field,
        artifacts.model.config(),
        artifacts.weight_bits,
        artifacts.dataset.spec.feature_density,
        |v| artifacts.node_bits(v),
    );
    metrics.record_batch(requests.len(), field.total_rows(), execution);
    metrics.record_shard_batch(shard, requests.len(), halo_rows, est);
    fill_logits_cache(artifacts, &targets, &logits, metrics);
    let filled = Instant::now();
    for request in &mut requests {
        request.trace.stamp_at(TraceStage::CacheFill, filled);
    }
    respond_batch(
        worker_id,
        artifacts,
        &mut requests,
        &order,
        &logits,
        halo_rows,
        completions,
        metrics,
    );
}

fn run_update(
    worker_id: usize,
    model: ModelKey,
    registry: &ModelRegistry,
    cache: &ArtifactCache,
    scheduler: &BatchScheduler,
    metrics: &Metrics,
    completions: &CompletionRouter,
) {
    let Some(spec) = registry.get(&model) else {
        // The model vanished from the registry mid-flight: consume the
        // token's payload and fail its ticket so no waiter hangs.
        if let Some(update) = scheduler.take_update(&model) {
            completions.drop_request(update.id);
        }
        return;
    };
    let entry = cache.get_or_build(&model, || ModelArtifacts::build(&spec));
    // Pop the payload *inside* the entry's write lock: tokens are
    // interchangeable ("apply one pending update for this model"), so
    // making pop+apply one critical section is what guarantees updates
    // land in FIFO submission order even when several workers race on
    // tokens for the same model. A missing payload means the queue was
    // drained out from under us (only possible at teardown).
    let outcome = entry.update(|artifacts| {
        scheduler.take_update(&model).map(|update| {
            let result = artifacts.apply_delta(&update.delta, &update.node_features);
            // A rejected delta changed nothing; report the standing
            // balance (the success path carries it in the effect).
            let balance = if result.is_err() {
                artifacts.partitioning.balance()
            } else {
                0.0
            };
            (update, result, artifacts.version, balance)
        })
    });
    let Some((update, result, version, balance)) = outcome else {
        return;
    };
    let response = match result {
        Ok(effect) => {
            metrics.record_update(true, effect.retiered.len(), effect.dirty_rows);
            for &(shard, invalidated) in &effect.logits_invalidated {
                metrics.record_logits_invalidations(shard, invalidated);
            }
            let logits_invalidated = effect.logits_invalidated_total();
            UpdateResponse {
                id: update.id,
                model,
                error: None,
                inserted_edges: effect.inserted_edges,
                removed_edges: effect.removed_edges,
                added_nodes: effect.added_nodes,
                retiered: effect.retiered,
                dirty_rows: effect.dirty_rows,
                logits_invalidated,
                balance: effect.balance,
                version,
                latency: update.submitted_at.elapsed(),
                worker: worker_id,
            }
        }
        Err(error) => {
            metrics.record_update(false, 0, 0);
            UpdateResponse {
                id: update.id,
                model,
                error: Some(error),
                inserted_edges: 0,
                removed_edges: 0,
                added_nodes: Vec::new(),
                retiered: Vec::new(),
                dirty_rows: 0,
                logits_invalidated: 0,
                balance,
                version,
                latency: update.submitted_at.elapsed(),
                worker: worker_id,
            }
        }
    };
    completions.deliver(ServeResponse::Update(response));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelSpec;
    use mega_gnn::GnnKind;
    use mega_graph::DatasetSpec;

    fn spec() -> ModelSpec {
        ModelSpec::standard(
            DatasetSpec::cora().scaled(0.05).with_feature_dim(32),
            GnnKind::Gcn,
        )
    }

    fn artifacts() -> ModelArtifacts {
        ModelArtifacts::build(&spec())
    }

    #[test]
    fn batch_logits_shape_and_order_follow_targets() {
        let a = artifacts();
        let targets: Vec<NodeId> = vec![7, 1, 7];
        let logits = batch_logits(&a, &targets);
        assert_eq!(logits.shape(), (3, a.dataset.spec.num_classes));
        // Duplicate targets get identical rows.
        for c in 0..a.dataset.spec.num_classes {
            assert_eq!(logits.get(0, c).to_bits(), logits.get(2, c).to_bits());
        }
    }

    #[test]
    fn quantized_execution_is_batch_invariant() {
        let a = artifacts();
        let solo = batch_logits(&a, &[11]);
        let grouped = batch_logits(&a, &[4, 11, 19, 2]);
        for c in 0..a.dataset.spec.num_classes {
            assert_eq!(solo.get(0, c).to_bits(), grouped.get(1, c).to_bits());
        }
    }

    #[test]
    fn batch_invariance_survives_mutation() {
        let mut a = artifacts();
        let mut delta = mega_graph::GraphDelta::new();
        delta
            .insert_edge(11, 4)
            .insert_edge(19, 11)
            .remove_edge(a.graph.out_neighbors(2).first().copied().unwrap_or(11), 2);
        let _ = a.apply_delta(&delta, &[]);
        let solo = batch_logits(&a, &[11]);
        let grouped = batch_logits(&a, &[4, 11, 19, 2]);
        for c in 0..a.dataset.spec.num_classes {
            assert_eq!(solo.get(0, c).to_bits(), grouped.get(1, c).to_bits());
        }
    }

    #[test]
    fn shard_execution_matches_global_reference() {
        // The same model at K=4 and K=1 (the global reference), under the
        // same delta: every node's logits are bit-identical.
        let mut sharded = ModelArtifacts::build(&spec().with_shards(4));
        let mut reference = ModelArtifacts::build(&spec().with_shards(1));
        let mut delta = mega_graph::GraphDelta::new();
        delta.insert_edge(11, 4).insert_edge(19, 11);
        sharded.apply_delta(&delta, &[]).unwrap();
        reference.apply_delta(&delta, &[]).unwrap();
        for node in (0..sharded.num_nodes() as NodeId).step_by(9) {
            let (got, _) = shard_logits_with_field(&sharded, sharded.shard_of(node), &[node]);
            let (want, _) = shard_logits_with_field(&reference, 0, &[node]);
            for c in 0..sharded.dataset.spec.num_classes {
                assert_eq!(
                    got.get(0, c).to_bits(),
                    want.get(0, c).to_bits(),
                    "node {node} diverged between K=4 and K=1"
                );
            }
        }
    }

    #[test]
    fn ordered_targets_is_a_stable_argsort() {
        let nodes: Vec<NodeId> = vec![9, 3, 9, 1, 3, 9];
        let (targets, order) = ordered_targets(&nodes);
        assert_eq!(targets, vec![1, 3, 3, 9, 9, 9]);
        // Duplicates keep their arrival order.
        assert_eq!(order, vec![3, 1, 4, 0, 2, 5]);
        for (row, &i) in order.iter().enumerate() {
            assert_eq!(nodes[i], targets[row]);
        }
        assert_eq!(ordered_targets(&[]), (vec![], vec![]));
    }

    #[test]
    fn foreign_targets_run_on_their_owning_shard() {
        // The logits cache is off so every request pays the forward pass.
        let registry = ModelRegistry::new();
        let model = registry.register(spec().with_shards(2).with_cache_bytes(0));
        let cache = ArtifactCache::new(1);
        let metrics = Metrics::default();
        let router = CompletionRouter::new();
        let entry = cache.get_or_build(&model, || {
            ModelArtifacts::build(&registry.get(&model).expect("registered"))
        });
        let owned_by_1: Vec<NodeId> = {
            let a = entry.read();
            (0..a.num_nodes() as NodeId)
                .filter(|&v| a.shard_of(v) == 1)
                .take(5)
                .collect()
        };
        assert!(!owned_by_1.is_empty());
        let mut mixed: Vec<NodeId> = vec![0, 1, 2, 2];
        mixed.extend(&owned_by_1);

        // A batch stamped for shard 0 that owns none of its nodes, then one
        // stamped for a shard the model does not have, mixing nodes of
        // both real shards and a duplicate.
        let mut next_id = 0u64;
        for (shard, nodes) in [(0u32, &owned_by_1), (7, &mixed)] {
            let requests: Vec<InferenceRequest> = nodes
                .iter()
                .map(|&node| {
                    next_id += 1;
                    InferenceRequest {
                        id: next_id,
                        model: model.clone(),
                        node,
                        shard,
                        submitted_at: Instant::now(),
                        trace: crate::trace::RequestTrace::begin(),
                    }
                })
                .collect();
            let tickets: Vec<_> = requests.iter().map(|r| router.register(r.id)).collect();
            let batch = Batch {
                model: model.clone(),
                shard,
                requests,
                reason: FlushReason::Size,
            };
            run_batch(0, batch, &registry, &cache, &metrics, &router);

            let artifacts = entry.read();
            for (ticket, &node) in tickets.iter().zip(nodes.iter()) {
                let response = ticket
                    .wait_inference(std::time::Duration::ZERO)
                    .expect("answered before run_batch returns");
                assert_eq!(response.node, node);
                assert_eq!(response.shard, artifacts.shard_of(node));
                let reference = batch_logits(&artifacts, &[node]);
                assert_eq!(response.logits.len(), reference.cols());
                for (c, &x) in response.logits.iter().enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        reference.get(0, c).to_bits(),
                        "node {node} class {c} (batch stamped for shard {shard})"
                    );
                }
            }
        }
    }
}
