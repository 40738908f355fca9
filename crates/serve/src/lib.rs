//! `mega-serve` — a batched, degree-aware mixed-precision inference
//! serving engine over the MEGA reproduction stack.
//!
//! The paper's observation (assign per-node bitwidths by in-degree so
//! memory traffic shrinks without accuracy loss) is exactly the knob an
//! online service wants: low-degree nodes — the overwhelming power-law
//! majority of traffic — are cheap at 2–3 bits, while rare hub nodes get
//! more bits *and* proportionally more compute. The engine turns that into
//! a serving architecture:
//!
//! ```text
//!  submit()──► degree-aware policy ──► LogitsCache ──► BatchScheduler ──────► WorkerPool
//!              shard = owner(node)     per (model,      one FIFO; the head     every worker pulls
//!              tier  = f(in-degree)    shard); HIT      request's (model,      the next due batch
//!                                      answers here,    shard) batch leaves    or update token
//!                                      MISS falls       on size, deadline,        │
//!                                      through          barrier or drain          ▼
//!                    ArtifactCache (LRU): quantized Gnn, live             split late hits from
//!                    DynamicGraph + Ã, packed features, K-way             misses; forward misses over
//!                    partitioning (a shard is a view: the                 the global Ã and packed
//!                    nodes of one part), and per-shard                    store; fill the logits
//!                    byte-budgeted logits caches                          cache on the way out
//! ```
//!
//! * [`ModelRegistry`] holds [`ModelSpec`]s — recipes for everything a
//!   model needs (dataset, architecture, [`mega_quant::DegreePolicy`],
//!   weight bits, shard count).
//! * [`ArtifactCache`] LRU-shares the heavy artifacts across workers and
//!   builds each at most once; entries sit behind a readers/writer lock so
//!   graph mutations serialize against batch execution.
//! * [`BatchScheduler`] is one FIFO of requests and update tokens: the
//!   head request's `(model, shard)` batch leaves on size, deadline,
//!   update barrier or drain.
//! * [`WorkerPool`] threads all pull from that queue, and a worker
//!   executes a batch with [`mega_gnn::forward_targets_packed_with_field`]
//!   over the model's global adjacency and packed store. A [`Shard`] is an
//!   ownership view, not a copy, so logits do not depend on batch
//!   composition, shard count or which worker ran the batch.
//! * [`LogitsCache`] (one per `(model, shard)`) short-circuits the whole
//!   pipeline for hot nodes: a byte-budgeted LRU over final logits rows,
//!   consulted at submit time and again per batch, kept bit-exact under
//!   mutation by delta-precise invalidation (the inverse halo closure of
//!   each delta's dirty rows).
//! * [`Metrics`] tracks throughput, latency percentiles (log histogram),
//!   per-bitwidth counts, flush/cache behaviour, per-shard halo traffic,
//!   logits-cache hits/misses/evictions/invalidations, and an analytic
//!   MEGA hardware estimate (cycles / DRAM bytes) per shard-batch.
//!
//! Cross-shard receptive fields read global state directly; nothing is
//! replicated, so a graph delta has no halo copies to refresh. The rows a
//! batch reads from other shards are counted ([`Shard::halo_rows_in`]).
//!
//! Graphs are *mutable while serving*: [`ServeEngine::submit_update`]
//! routes a [`mega_graph::GraphDelta`] (edge upserts/removals, node
//! adds/isolations) through the same scheduler→worker path as inference.
//! The worker applies it incrementally — [`mega_graph::DynamicGraph`]
//! mutation through [`mega_gnn::DynAdjacency::apply`], which refreshes
//! only what the adjacency owns for the dirtied rows (it reads its columns
//! from the graph), and degree re-tiering that re-quantizes only the nodes whose
//! in-degree crossed a policy boundary — so a node's served bitwidth
//! tracks its live degree (a promoted hub is answered at more bits on the
//! very next batch).
//!
//! Completion is **event-driven**, not polled: every submit registers a
//! [`Ticket`] with the engine's [`CompletionRouter`], and whichever thread
//! produces the response (the submit-time cache-hit path or a worker)
//! moves it into the ticket's slot, waking its waiter that instant. The
//! ticket is the only way a response leaves the engine.
//! [`ServeEngine::submit_wait`] and [`ServeEngine::submit_update_wait`]
//! wrap that into blocking request/response calls with per-request
//! deadlines, and idle workers park on the queue's condvar (until the
//! head batch's deadline, or a submit) instead of sleep-polling. A std-only
//! TCP/HTTP ingress ([`http`]) exposes the same calls over the wire with
//! admission-control backpressure.
//!
//! # Example
//!
//! ```
//! use mega_gnn::GnnKind;
//! use mega_graph::DatasetSpec;
//! use mega_serve::{ModelRegistry, ModelSpec, ServeConfig, ServeEngine};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let registry = Arc::new(ModelRegistry::new());
//! let key = registry.register(ModelSpec::standard(
//!     DatasetSpec::cora().scaled(0.05).with_feature_dim(32),
//!     GnnKind::Gcn,
//! ));
//! let config = ServeConfig { workers: 2, ..ServeConfig::default() };
//! let engine = ServeEngine::start_detached(config, registry);
//! let timeout = Duration::from_secs(30);
//! // Request/response semantics: wait on the ticket...
//! let ticket = engine.submit(&key, 0).expect("registered model");
//! let answer = ticket.wait_inference(timeout).expect("answered");
//! assert_eq!(answer.node, 0);
//! // ...or in one call.
//! let direct = engine.submit_wait(&key, 1, timeout).expect("answered");
//! assert!(!direct.logits.is_empty());
//! // Mutate the graph while serving: wire node 3 into node 0.
//! let mut delta = mega_graph::GraphDelta::new();
//! delta.insert_edge(3, 0);
//! let ack = engine
//!     .submit_update_wait(&key, delta, vec![], timeout)
//!     .expect("applied");
//! assert!(ack.applied());
//! let report = engine.shutdown();
//! assert_eq!(report.completed, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod http;
pub mod logits;
pub mod metrics;
pub mod poison;
pub mod registry;
pub mod request;
pub mod scheduler;
pub mod shard;
pub mod sync;
pub mod ticket;
pub mod trace;
pub mod worker;

pub use cache::{ArtifactCache, ModelArtifacts, ModelEntry, Retier, UpdateEffect};
pub use http::{HttpServer, HttpServerConfig};
pub use logits::{CachedLogits, LogitsCache};
pub use metrics::{
    LaneSnapshot, LaneStat, LogHistogram, Metrics, MetricsReport, ShardReport, ShardStat,
};
pub use registry::{ModelRegistry, ModelSpec};
pub use request::{
    InferenceRequest, InferenceResponse, ModelKey, ServeResponse, UpdateRequest, UpdateResponse,
};
pub use scheduler::{Batch, BatchScheduler, FlushReason, SchedulerConfig, Take, WorkItem};
pub use shard::{HwEstimate, Shard};
pub use ticket::{CompletionRouter, Ticket, WaitError};
pub use trace::{
    process_memory, FlightRecorder, MemorySnapshot, ModelMemory, RequestTrace, TraceConfig,
    TraceRecord, TraceStage, Tracer,
};
pub use worker::{batch_logits, batch_logits_with_mode, shard_logits_with_field, WorkerPool};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mega_graph::{GraphDelta, NodeId};

/// Engine-level knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing batches.
    pub workers: usize,
    /// Batching policy.
    pub scheduler: SchedulerConfig,
    /// Artifact sets kept resident (LRU above this).
    pub cache_capacity: usize,
    /// Flight-recorder knobs: timeline ring capacities and the
    /// slow-outlier threshold ([`trace`]). Tracing itself is always on.
    pub trace: TraceConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .max(4);
        Self {
            workers,
            scheduler: SchedulerConfig::default(),
            cache_capacity: 8,
            trace: TraceConfig::default(),
        }
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The model key is not in the registry.
    UnknownModel(ModelKey),
    /// The node id exceeds the model's graph.
    NodeOutOfRange {
        /// The requested node.
        node: NodeId,
        /// Number of nodes the model serves.
        nodes: usize,
    },
    /// An update payload is malformed (feature rows mismatching the
    /// delta's `AddNode` ops, or a non-finite feature value).
    /// Delta/topology errors surface later in the [`UpdateResponse`],
    /// since the graph may change before application.
    BadUpdate(String),
    /// A `*_wait` call submitted successfully but did not observe the
    /// response: the per-request deadline passed ([`WaitError::Timeout`] —
    /// the request is still in flight) or the engine dropped the request
    /// ([`WaitError::Dropped`]).
    Wait(WaitError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownModel(key) => write!(f, "model {key} is not registered"),
            ServeError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} out of range (model has {nodes} nodes)")
            }
            ServeError::BadUpdate(reason) => write!(f, "bad update: {reason}"),
            ServeError::Wait(wait) => write!(f, "submitted, but {wait}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// What [`ServeEngine::health`] reports (and `GET /healthz` serializes).
#[derive(Debug, Clone)]
pub struct EngineHealth {
    /// Per-worker liveness, indexed by worker (its metrics lane).
    pub lanes_alive: Vec<bool>,
    /// Requests submitted but not yet answered.
    pub in_flight: usize,
    /// Components that recovered from a poisoned lock (see
    /// [`crate::poison`]). The engine keeps serving through poison, but
    /// it signals a panic mid-update somewhere — report unhealthy so the
    /// replica gets drained and recycled rather than trusted forever.
    pub poisoned: Vec<&'static str>,
}

impl EngineHealth {
    /// Healthy means every thread the request path depends on is alive
    /// and no shared lock has been poisoned by a panicking holder.
    pub fn ok(&self) -> bool {
        self.lanes_alive.iter().all(|&alive| alive) && self.poisoned.is_empty()
    }

    /// A human-readable reason when unhealthy.
    pub fn reason(&self) -> Option<String> {
        let dead: Vec<String> = self
            .lanes_alive
            .iter()
            .enumerate()
            .filter(|&(_, &alive)| !alive)
            .map(|(lane, _)| lane.to_string())
            .collect();
        if !dead.is_empty() {
            return Some(format!("worker lane(s) {} dead", dead.join(", ")));
        }
        if !self.poisoned.is_empty() {
            return Some(format!("lock(s) {} poisoned", self.poisoned.join(", ")));
        }
        None
    }
}

/// The serving engine: work queue + worker pool + shared caches + the
/// completion router that wakes per-request waiters.
pub struct ServeEngine {
    registry: Arc<ModelRegistry>,
    cache: Arc<ArtifactCache>,
    scheduler: Arc<BatchScheduler>,
    metrics: Arc<Metrics>,
    pool: WorkerPool,
    next_id: AtomicU64,
    started_at: Instant,
    /// Per-request completion slots ([`Ticket`]s) keyed by request id —
    /// also the engine's exact in-flight count, which admission control
    /// ([`http`]) sheds on. Workers share it; the engine's own handle
    /// answers logits-cache hits right at submit time, never reaching the
    /// scheduler.
    router: Arc<CompletionRouter>,
}

impl ServeEngine {
    /// Starts the workers. Every response is delivered to the [`Ticket`]
    /// its submit call returned.
    pub fn start_detached(config: ServeConfig, registry: Arc<ModelRegistry>) -> Self {
        let cache = Arc::new(ArtifactCache::new(config.cache_capacity));
        let metrics = Arc::new(Metrics::with_trace(&config.trace));
        let router = Arc::new(CompletionRouter::new());
        let scheduler = Arc::new(BatchScheduler::new(config.scheduler.clone()));
        let pool = WorkerPool::spawn(
            config.workers,
            scheduler.clone(),
            registry.clone(),
            cache.clone(),
            metrics.clone(),
            router.clone(),
        );
        Self {
            registry,
            cache,
            scheduler,
            metrics,
            pool,
            next_id: AtomicU64::new(0),
            started_at: Instant::now(),
            router,
        }
    }

    /// Pre-builds (or touches) the artifacts for `key`, so the first
    /// requests do not pay the build latency.
    pub fn warm(&self, key: &ModelKey) -> Result<(), ServeError> {
        let spec = self
            .registry
            .get(key)
            .ok_or_else(|| ServeError::UnknownModel(key.clone()))?;
        self.cache
            .get_or_build(key, || ModelArtifacts::build(&spec));
        Ok(())
    }

    /// Accepts one node-classification request. Returns a [`Ticket`] —
    /// the claim on this request's response, delivered the moment it
    /// exists ([`Ticket::wait`]).
    ///
    /// Hot nodes short-circuit here: if the owning shard's
    /// [`LogitsCache`] holds the node, the response (flagged
    /// [`InferenceResponse::cached`]) is delivered immediately on the
    /// submitting thread — the returned ticket is already redeemable —
    /// and the request never reaches the scheduler. Delta-precise
    /// invalidation is what makes the cached row bit-exact with a fresh
    /// forward pass.
    pub fn submit(&self, key: &ModelKey, node: NodeId) -> Result<Ticket, ServeError> {
        self.submit_traced(key, node, RequestTrace::begin())
    }

    /// [`ServeEngine::submit`] with a caller-started [`RequestTrace`]
    /// (the HTTP ingress starts the trace at request parse, so its
    /// timeline includes ingress and admission time; in-process callers
    /// go through [`ServeEngine::submit`], whose trace starts here).
    pub fn submit_traced(
        &self,
        key: &ModelKey,
        node: NodeId,
        mut trace: RequestTrace,
    ) -> Result<Ticket, ServeError> {
        let entry = self.entry_for(key)?;
        let artifacts = entry.read();
        Self::validate_node(&artifacts, node)?;
        let shard = artifacts.shard_of(node);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // Register the completion slot *before* the request can reach a
        // worker: delivery can then never race registration.
        let ticket = self.router.register(id);
        self.metrics.submitted.fetch_add(1, Ordering::Relaxed);
        let submitted_at = Instant::now();
        trace.stamp_at(TraceStage::Submitted, submitted_at);
        if let Some(hit) = artifacts.logits_cache(shard).and_then(|c| c.get(node)) {
            self.metrics.record_logits_lookup(shard, true);
            trace.stamp(TraceStage::CacheHit);
            let response = InferenceResponse::from_hit(
                id,
                key.clone(),
                node,
                shard,
                None,
                hit,
                submitted_at.elapsed(),
            );
            self.metrics
                .record_response(response.bits, response.latency);
            self.router
                .deliver_traced(response, &mut trace, &self.metrics.trace);
            return Ok(ticket);
        }
        drop(artifacts);
        self.scheduler.submit(InferenceRequest {
            id,
            model: key.clone(),
            node,
            shard,
            submitted_at,
            trace,
        });
        Ok(ticket)
    }

    /// Blocking request/response: submits and waits for the answer with a
    /// per-request deadline. Equivalent to [`ServeEngine::submit`] +
    /// [`Ticket::wait_inference`]; a deadline miss surfaces as
    /// [`ServeError::Wait`] (the request itself stays in flight).
    pub fn submit_wait(
        &self,
        key: &ModelKey,
        node: NodeId,
        timeout: Duration,
    ) -> Result<InferenceResponse, ServeError> {
        let ticket = self.submit(key, node)?;
        ticket.wait_inference(timeout).map_err(ServeError::Wait)
    }

    /// [`ServeEngine::submit_wait`] with a caller-started
    /// [`RequestTrace`] — the HTTP predict handler's path, whose traces
    /// then cover ingress parse and admission, not just engine time.
    pub fn submit_wait_traced(
        &self,
        key: &ModelKey,
        node: NodeId,
        timeout: Duration,
        trace: RequestTrace,
    ) -> Result<InferenceResponse, ServeError> {
        let ticket = self.submit_traced(key, node, trace)?;
        ticket.wait_inference(timeout).map_err(ServeError::Wait)
    }

    /// Accepts one graph-mutation request. The delta is applied by a
    /// worker — serialized per model, interleaved with inference batches.
    ///
    /// `node_features` carries one raw feature row per `AddNode` op in
    /// `delta`. Malformed payloads (a row count that does not match, or a
    /// non-finite value) fail fast here; topology errors (e.g. a
    /// node id that is stale by application time) surface in the response,
    /// rejected deltas changing nothing. The returned [`Ticket`] delivers
    /// the [`UpdateResponse`] acknowledgement; because updates are applied
    /// FIFO per model, waiting on it also fences every earlier update to
    /// the same model.
    pub fn submit_update(
        &self,
        key: &ModelKey,
        delta: GraphDelta,
        node_features: Vec<Vec<f32>>,
    ) -> Result<Ticket, ServeError> {
        if self.registry.get(key).is_none() {
            return Err(ServeError::UnknownModel(key.clone()));
        }
        if node_features.len() != delta.nodes_added() {
            return Err(ServeError::BadUpdate(format!(
                "delta adds {} node(s) but {} feature row(s) were provided",
                delta.nodes_added(),
                node_features.len()
            )));
        }
        if !node_features.iter().flatten().all(|x| x.is_finite()) {
            return Err(ServeError::BadUpdate(
                "feature values must be finite".to_string(),
            ));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let ticket = self.router.register(id);
        self.metrics
            .updates_submitted
            .fetch_add(1, Ordering::Relaxed);
        self.scheduler.submit_update(UpdateRequest {
            id,
            model: key.clone(),
            delta,
            node_features,
            submitted_at: Instant::now(),
        });
        Ok(ticket)
    }

    /// Blocking mutation: submits a delta and waits for its
    /// acknowledgement. Equivalent to [`ServeEngine::submit_update`] +
    /// [`Ticket::wait_update`].
    pub fn submit_update_wait(
        &self,
        key: &ModelKey,
        delta: GraphDelta,
        node_features: Vec<Vec<f32>>,
        timeout: Duration,
    ) -> Result<UpdateResponse, ServeError> {
        let ticket = self.submit_update(key, delta, node_features)?;
        ticket.wait_update(timeout).map_err(ServeError::Wait)
    }

    /// The current `(tier, bits)` the degree-aware policy serves `node`
    /// at — observably changes when updates move the node across a tier
    /// boundary.
    pub fn probe(&self, key: &ModelKey, node: NodeId) -> Result<(usize, u8), ServeError> {
        let (_, tier, bits) = self.locate(key, node)?;
        Ok((tier, bits))
    }

    /// Where and how `node` is served right now: `(shard, tier, bits)`.
    /// The shard is the partition owning the node; its requests batch with
    /// the shard's other requests.
    pub fn locate(&self, key: &ModelKey, node: NodeId) -> Result<(u32, usize, u8), ServeError> {
        let entry = self.entry_for(key)?;
        let artifacts = entry.read();
        Self::validate_node(&artifacts, node)?;
        Ok((
            artifacts.shard_of(node),
            artifacts.node_tier(node),
            artifacts.node_bits(node),
        ))
    }

    /// Resolves `key` to its resident artifact entry, building it from the
    /// registered spec on first access — the single lookup path `submit`
    /// and `locate` share.
    fn entry_for(&self, key: &ModelKey) -> Result<Arc<ModelEntry>, ServeError> {
        let spec = self
            .registry
            .get(key)
            .ok_or_else(|| ServeError::UnknownModel(key.clone()))?;
        Ok(self
            .cache
            .get_or_build(key, || ModelArtifacts::build(&spec)))
    }

    /// Validates `node` against the live (possibly mutated) graph.
    fn validate_node(artifacts: &ModelArtifacts, node: NodeId) -> Result<(), ServeError> {
        if node as usize >= artifacts.num_nodes() {
            return Err(ServeError::NodeOutOfRange {
                node,
                nodes: artifacts.num_nodes(),
            });
        }
        Ok(())
    }

    /// Requests waiting in the work queue (not yet taken by a worker).
    pub fn pending(&self) -> usize {
        self.scheduler.pending()
    }

    /// Updates parked for application (submitted, not yet taken by a
    /// worker).
    pub fn pending_updates(&self) -> usize {
        self.scheduler.pending_updates()
    }

    /// Requests (inference + updates) submitted but not yet answered —
    /// the exact count of outstanding completion slots, and the signal
    /// admission control ([`http`]) sheds load on.
    pub fn in_flight(&self) -> usize {
        self.router.in_flight()
    }

    /// The live metrics handle.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Point-in-time liveness: which workers are running, and how many
    /// requests are in flight. This is what `GET /healthz` reports — a
    /// panicked worker flips the endpoint to 503: the other workers keep
    /// draining the queue, but the panic signals a bug in execution.
    pub fn health(&self) -> EngineHealth {
        EngineHealth {
            lanes_alive: self.pool.alive(),
            in_flight: self.in_flight(),
            poisoned: poison::poisoned_components(),
        }
    }

    /// Per-model resident-bytes breakdown over every artifact set
    /// currently resident in the cache, sorted by model key for stable
    /// exposition. Computed from the live structures (packed features,
    /// adjacency rows, logits caches) — no shadow accounting to drift.
    pub fn memory(&self) -> Vec<ModelMemory> {
        let mut memory: Vec<ModelMemory> = self
            .cache
            .resident()
            .into_iter()
            .map(|(_, entry)| entry.read().resident_bytes())
            .collect();
        memory.sort_by(|a, b| {
            (&a.model.dataset, a.model.kind.name()).cmp(&(&b.model.dataset, b.model.kind.name()))
        });
        memory
    }

    /// Fault injection for liveness testing: makes the next worker to
    /// dequeue panic, exactly as a bug in batch execution would.
    /// `/healthz` must flip to 503 while the other workers keep answering.
    /// Not for production use.
    pub fn poison_worker(&self) {
        self.scheduler.poison_worker();
    }

    /// Point-in-time report including cache behaviour.
    pub fn report(&self) -> MetricsReport {
        let (hits, misses) = self.cache.stats();
        self.metrics.report(self.started_at.elapsed(), hits, misses)
    }

    /// Drains every pending request, stops all threads, and returns the
    /// final report. Blocks until every submitted request was answered.
    pub fn shutdown(self) -> MetricsReport {
        let Self {
            cache,
            scheduler,
            metrics,
            pool,
            started_at,
            ..
        } = self;
        // Workers drain the queue and exit.
        scheduler.close();
        pool.join();
        let (hits, misses) = cache.stats();
        metrics.report(started_at.elapsed(), hits, misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mega_gnn::GnnKind;
    use mega_graph::DatasetSpec;

    fn tiny_registry() -> (Arc<ModelRegistry>, ModelKey) {
        let registry = Arc::new(ModelRegistry::new());
        let key = registry.register(ModelSpec::standard(
            DatasetSpec::cora().scaled(0.05).with_feature_dim(32),
            GnnKind::Gcn,
        ));
        (registry, key)
    }

    #[test]
    fn rejects_unknown_model_and_bad_node() {
        let (registry, key) = tiny_registry();
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let engine = ServeEngine::start_detached(config, registry);
        let missing = ModelKey::new("Nope", GnnKind::Gcn);
        assert_eq!(
            engine.submit(&missing, 0).unwrap_err(),
            ServeError::UnknownModel(missing.clone())
        );
        assert!(engine.warm(&missing).is_err());
        let err = engine.submit(&key, 1_000_000).unwrap_err();
        assert!(matches!(err, ServeError::NodeOutOfRange { .. }));
        assert_eq!(engine.in_flight(), 0, "rejected submits leave no slot");
        let report = engine.shutdown();
        assert_eq!(report.submitted, 0);
    }

    #[test]
    fn serves_every_submitted_request_exactly_once() {
        let (registry, key) = tiny_registry();
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
        let n = 100;
        let tickets: Vec<Ticket> = (0..n)
            .map(|i| engine.submit(&key, (i % 50) as NodeId).unwrap())
            .collect();
        let report = engine.shutdown();
        assert_eq!(report.completed, n as u64);
        assert_eq!(report.submitted, n as u64);
        let mut answered = std::collections::HashSet::new();
        for ticket in &tickets {
            let response = ticket.wait_inference(Duration::ZERO).expect("answered");
            assert_eq!(response.id, ticket.id());
            assert!(answered.insert(response.id), "duplicate response");
            assert!(!response.logits.is_empty());
            assert!(response.batch_size >= 1);
        }
        assert_eq!(answered.len(), n as usize);
        assert!(report.cache_hit_rate > 0.9, "warm cache expected");
        assert!(report.batches > 0 && report.avg_batch >= 1.0);
    }

    #[test]
    fn updates_are_acknowledged_and_validated() {
        let (registry, key) = tiny_registry();
        let config = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let engine = ServeEngine::start_detached(config, registry);
        engine.warm(&key).unwrap();
        // Malformed payloads fail fast: a missing feature row, and a row
        // holding a NaN.
        let mut delta = GraphDelta::new();
        delta.add_node();
        assert!(matches!(
            engine.submit_update(&key, delta.clone(), vec![]),
            Err(ServeError::BadUpdate(_))
        ));
        assert_eq!(
            engine
                .submit_update(&key, delta, vec![vec![f32::NAN; 32]])
                .unwrap_err(),
            ServeError::BadUpdate("feature values must be finite".to_string())
        );
        let missing = ModelKey::new("Nope", GnnKind::Gcn);
        assert!(matches!(
            engine.submit_update(&missing, GraphDelta::new(), vec![]),
            Err(ServeError::UnknownModel(_))
        ));
        // A valid delta and a delta that fails at application time.
        let mut ok = GraphDelta::new();
        ok.insert_edge(1, 0);
        let ok_ticket = engine.submit_update(&key, ok, vec![]).unwrap();
        let mut stale = GraphDelta::new();
        stale.insert_edge(0, 1_000_000);
        let bad_ticket = engine.submit_update(&key, stale, vec![]).unwrap();
        let report = engine.shutdown();
        assert_eq!(report.updates_submitted, 2);
        assert_eq!(report.updates_applied, 1);
        assert_eq!(report.updates_failed, 1);
        let ok_ack = ok_ticket.wait_update(Duration::ZERO).unwrap();
        assert!(ok_ack.applied());
        assert_eq!(ok_ack.version, 1);
        let bad_ack = bad_ticket.wait_update(Duration::ZERO).unwrap();
        assert!(bad_ack.error.as_deref().unwrap().contains("out of range"));
    }
}
