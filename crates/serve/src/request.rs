//! Request/response types of the serving engine.

use std::time::{Duration, Instant};

use mega_gnn::GnnKind;
use mega_graph::{GraphDelta, NodeId};

use crate::cache::Retier;
use crate::trace::RequestTrace;

/// Addresses a registered (dataset, architecture) pair.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelKey {
    /// Registered dataset name (e.g. `"Cora"`).
    pub dataset: String,
    /// GNN architecture.
    pub kind: GnnKind,
}

impl ModelKey {
    /// Convenience constructor.
    pub fn new(dataset: impl Into<String>, kind: GnnKind) -> Self {
        Self {
            dataset: dataset.into(),
            kind,
        }
    }
}

impl std::fmt::Display for ModelKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.dataset, self.kind.name())
    }
}

/// One node-classification request, as tracked inside the engine.
#[derive(Debug, Clone)]
pub struct InferenceRequest {
    /// Engine-assigned id, unique per engine instance.
    pub id: u64,
    /// Which registered model to query.
    pub model: ModelKey,
    /// The node to classify.
    pub node: NodeId,
    /// The shard owning the node (its partition) at submit time — the
    /// work queue batches requests by `(model, shard)`.
    pub shard: u32,
    /// When the engine accepted the request.
    pub submitted_at: Instant,
    /// The stage timeline, stamped in place as the request moves through
    /// work queue, worker, and forward pass ([`crate::trace`]).
    pub trace: RequestTrace,
}

/// The engine's answer to one [`InferenceRequest`].
#[derive(Debug, Clone)]
pub struct InferenceResponse {
    /// Id of the originating request.
    pub id: u64,
    /// The model that served it.
    pub model: ModelKey,
    /// The classified node.
    pub node: NodeId,
    /// Raw output logits, one per class.
    pub logits: Vec<f32>,
    /// `argmax` of `logits`.
    pub predicted_class: usize,
    /// Bitwidth the degree-aware policy served this node at.
    pub bits: u8,
    /// Precision tier (0 = fewest bits).
    pub tier: usize,
    /// Shard that answered the request (the node's owner).
    pub shard: u32,
    /// Receptive-field rows of this request's batch owned by other shards
    /// (cross-shard reads).
    pub halo_rows: usize,
    /// How many requests shared this node's batch.
    pub batch_size: usize,
    /// Worker thread that executed the batch, or `None` when no worker
    /// was involved — a submit-time logits-cache hit is answered on the
    /// submitting thread. (Previously a `usize::MAX` sentinel, which
    /// consumers could silently aggregate into stats.)
    pub worker: Option<usize>,
    /// Whether the logits came from the per-shard [`crate::LogitsCache`]
    /// instead of a forward pass. Cached answers are bit-exact with fresh
    /// ones — delta-precise invalidation is what makes that a guarantee,
    /// not a heuristic.
    pub cached: bool,
    /// Submit-to-response latency.
    pub latency: Duration,
}

impl InferenceResponse {
    /// A response answered from a [`crate::LogitsCache`] hit — the single
    /// constructor both hit paths (submit-time short-circuit and the
    /// worker's partial-batch split) share, so the cached-response
    /// invariants (no batch, no halo reads, `cached` flagged, logits
    /// verbatim from the cache) exist in one place.
    pub fn from_hit(
        id: u64,
        model: ModelKey,
        node: NodeId,
        shard: u32,
        worker: Option<usize>,
        hit: crate::logits::CachedLogits,
        latency: Duration,
    ) -> Self {
        Self {
            id,
            model,
            node,
            predicted_class: hit.predicted_class,
            logits: hit.logits,
            bits: hit.bits,
            tier: hit.tier,
            shard,
            halo_rows: 0,
            batch_size: 1,
            worker,
            cached: true,
            latency,
        }
    }
}

/// One graph-mutation request, as tracked inside the engine. Updates ride
/// the same scheduler→worker path as inference so mutations interleave
/// with serving traffic instead of stopping the world.
#[derive(Debug, Clone)]
pub struct UpdateRequest {
    /// Engine-assigned id, unique per engine instance (shared sequence
    /// with inference requests).
    pub id: u64,
    /// Which registered model's graph to mutate.
    pub model: ModelKey,
    /// The mutation batch.
    pub delta: GraphDelta,
    /// One feature row per `AddNode` op in `delta`, in op order.
    pub node_features: Vec<Vec<f32>>,
    /// When the engine accepted the request.
    pub submitted_at: Instant,
}

/// The engine's answer to one [`UpdateRequest`].
#[derive(Debug, Clone)]
pub struct UpdateResponse {
    /// Id of the originating request.
    pub id: u64,
    /// The mutated model.
    pub model: ModelKey,
    /// `None` on success; otherwise why the delta was rejected (a rejected
    /// delta changes nothing).
    pub error: Option<String>,
    /// Edges actually inserted.
    pub inserted_edges: usize,
    /// Edges actually removed.
    pub removed_edges: usize,
    /// Ids assigned to nodes added by the delta, in op order.
    pub added_nodes: Vec<NodeId>,
    /// Existing nodes whose serving precision changed because the delta
    /// moved them across a degree-tier boundary.
    pub retiered: Vec<Retier>,
    /// Adjacency rows incrementally refreshed (the cost proxy: stays
    /// proportional to the touched neighborhoods, not the graph).
    pub dirty_rows: usize,
    /// Cached logits dropped because this delta reached their receptive
    /// field (summed over shards; the per-shard split rides in
    /// [`crate::UpdateEffect::logits_invalidated`]).
    pub logits_invalidated: usize,
    /// Shard balance after the delta (max owned nodes over the ideal
    /// `n/k`; 1.0 = perfectly even).
    pub balance: f64,
    /// Artifact version after this update (monotone per model).
    pub version: u64,
    /// Submit-to-applied latency.
    pub latency: Duration,
    /// Worker thread that applied the update.
    pub worker: usize,
}

impl UpdateResponse {
    /// Whether the delta was applied.
    pub fn applied(&self) -> bool {
        self.error.is_none()
    }
}

/// What a [`crate::Ticket`] slot holds once its request is answered:
/// the inference result or the update acknowledgement.
#[derive(Debug, Clone)]
pub enum ServeResponse {
    /// A classified node.
    Inference(InferenceResponse),
    /// An applied (or rejected) graph mutation.
    Update(UpdateResponse),
}

impl ServeResponse {
    /// The engine-assigned request id this response answers.
    pub fn id(&self) -> u64 {
        match self {
            ServeResponse::Inference(r) => r.id,
            ServeResponse::Update(r) => r.id,
        }
    }

    /// Consumes into the inference payload, if this is one.
    pub fn into_inference(self) -> Option<InferenceResponse> {
        match self {
            ServeResponse::Inference(r) => Some(r),
            ServeResponse::Update(_) => None,
        }
    }

    /// Consumes into the update payload, if this is one.
    pub fn into_update(self) -> Option<UpdateResponse> {
        match self {
            ServeResponse::Update(r) => Some(r),
            ServeResponse::Inference(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_keys_hash_by_dataset_and_kind() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(ModelKey::new("Cora", GnnKind::Gcn));
        set.insert(ModelKey::new("Cora", GnnKind::Gin));
        set.insert(ModelKey::new("Cora", GnnKind::Gcn));
        assert_eq!(set.len(), 2);
        assert_eq!(ModelKey::new("Cora", GnnKind::Gcn).to_string(), "Cora/GCN");
    }
}
