//! The model registry: which (dataset, architecture) pairs the engine
//! serves, and with what policy/layout knobs.

use crate::sync::RwLock;
use std::collections::HashMap;

use crate::poison::LockRecoverExt;

use mega_gnn::GnnKind;
use mega_graph::DatasetSpec;
use mega_quant::DegreePolicy;

use crate::request::ModelKey;

/// Everything needed to (re)build a served model's artifacts from scratch.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// Dataset recipe (synthetic Table II presets or custom).
    pub dataset: DatasetSpec,
    /// GNN architecture.
    pub kind: GnnKind,
    /// Degree → bitwidth policy for activations.
    pub policy: DegreePolicy,
    /// Bitwidth for (static) weights.
    pub weight_bits: u8,
    /// Shard count: nodes stream into this many parts
    /// ([`mega_partition::Partitioning::push_balanced`]), each with its
    /// own logits cache (batches are keyed per `(model, shard)`).
    pub shards: usize,
    /// Logits-cache byte budget for this model, split evenly across its
    /// shards ([`crate::LogitsCache`]). `0` disables result caching — every
    /// request runs the forward pass.
    pub cache_bytes: usize,
}

impl ModelSpec {
    /// Default per-model logits-cache budget: comfortably holds every node
    /// of the citation datasets while staying a rounding error next to the
    /// artifacts themselves.
    pub const DEFAULT_CACHE_BYTES: usize = 8 << 20;

    /// A spec with the paper-default policy, 4-bit weights, 4 shards, and
    /// an 8 MiB logits cache.
    pub fn standard(dataset: DatasetSpec, kind: GnnKind) -> Self {
        Self {
            dataset,
            kind,
            policy: DegreePolicy::paper_default(),
            weight_bits: 4,
            shards: 4,
            cache_bytes: Self::DEFAULT_CACHE_BYTES,
        }
    }

    /// Replaces the shard count (clamped to the node count at build time).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Replaces the logits-cache byte budget (`0` disables caching).
    pub fn with_cache_bytes(mut self, cache_bytes: usize) -> Self {
        self.cache_bytes = cache_bytes;
        self
    }

    /// The key requests use to address this model.
    pub fn key(&self) -> ModelKey {
        ModelKey::new(self.dataset.name.clone(), self.kind)
    }
}

/// Thread-safe registry of served models.
#[derive(Default)]
pub struct ModelRegistry {
    models: RwLock<HashMap<ModelKey, ModelSpec>>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a model; returns its key.
    pub fn register(&self, spec: ModelSpec) -> ModelKey {
        let key = spec.key();
        self.models
            .write()
            .recover("model-registry")
            .insert(key.clone(), spec);
        key
    }

    /// Looks up the spec for a key.
    pub fn get(&self, key: &ModelKey) -> Option<ModelSpec> {
        self.models
            .read()
            .recover("model-registry")
            .get(key)
            .cloned()
    }

    /// All registered keys, sorted for stable iteration.
    pub fn keys(&self) -> Vec<ModelKey> {
        let mut keys: Vec<ModelKey> = self
            .models
            .read()
            .recover("model-registry")
            .keys()
            .cloned()
            .collect();
        keys.sort_by(|a, b| (&a.dataset, a.kind.name()).cmp(&(&b.dataset, b.kind.name())));
        keys
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.read().recover("model-registry").len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup_roundtrip() {
        let registry = ModelRegistry::new();
        assert!(registry.is_empty());
        let key = registry.register(ModelSpec::standard(
            DatasetSpec::cora().scaled(0.1),
            GnnKind::Gcn,
        ));
        assert_eq!(key, ModelKey::new("Cora", GnnKind::Gcn));
        let spec = registry.get(&key).expect("registered");
        assert_eq!(spec.weight_bits, 4);
        assert_eq!(spec.cache_bytes, ModelSpec::DEFAULT_CACHE_BYTES);
        let uncached = spec.clone().with_cache_bytes(0);
        assert_eq!(uncached.cache_bytes, 0, "0 disables result caching");
        assert!(registry.get(&ModelKey::new("Nope", GnnKind::Gcn)).is_none());
        assert_eq!(registry.keys(), vec![key]);
    }

    #[test]
    fn reregistering_replaces() {
        let registry = ModelRegistry::new();
        let mut spec = ModelSpec::standard(DatasetSpec::cora().scaled(0.1), GnnKind::Gcn);
        registry.register(spec.clone());
        spec.weight_bits = 8;
        let key = registry.register(spec);
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.get(&key).unwrap().weight_bits, 8);
    }
}
