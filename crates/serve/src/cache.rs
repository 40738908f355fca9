//! Heavy per-model artifacts and the LRU cache that shares them across
//! workers.
//!
//! Building a model's artifacts (materializing the dataset, normalizing the
//! adjacency, placing nodes into shards, quantizing weights and features) costs
//! seconds; serving one request costs microseconds. The cache keeps the
//! `capacity` most-recently-used artifact sets alive behind `Arc`s so every
//! worker shares one copy, and builds each missing entry exactly once even
//! under concurrent first access.
//!
//! Artifacts are no longer frozen at build time: each resident entry is a
//! [`ModelEntry`] wrapping the artifacts in an `RwLock`, and
//! [`ModelArtifacts::apply_delta`] advances them *incrementally* — graph
//! mutation through [`DynamicGraph`], normalized-adjacency row refresh
//! through [`DynAdjacency`], and re-quantization of exactly the feature
//! rows whose degree tier moved. Readers (batch execution) and the single
//! writer (an update) serialize on the lock, so a batch never observes a
//! half-applied mutation and stale artifacts are never served.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::sync::{Mutex, RwLock, RwLockReadGuard};

use crate::poison::LockRecoverExt;

use mega_format::TierPackedFeatures;
use mega_gnn::{DynAdjacency, Gnn, ModelConfig, PackedGnn};
use mega_graph::datasets::{Features, RowSynth};
use mega_graph::{Dataset, DynamicGraph, GraphDelta, NodeId};
use mega_partition::{influence_closure_with, Partitioning};
use mega_quant::quantizer::{dequantize, fake_quantize, qmax, quantize};
use mega_quant::DegreePolicy;

use crate::logits::LogitsCache;
use crate::registry::ModelSpec;
use crate::request::ModelKey;
use crate::shard::Shard;

/// A node whose serving precision changed because a mutation moved it
/// across a degree-tier boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retier {
    /// The node.
    pub node: NodeId,
    /// Tier before the mutation (0 = fewest bits).
    pub old_tier: usize,
    /// Tier after.
    pub new_tier: usize,
    /// Activation bitwidth before.
    pub old_bits: u8,
    /// Activation bitwidth after.
    pub new_bits: u8,
}

/// What [`ModelArtifacts::apply_delta`] changed.
#[derive(Debug, Clone, Default)]
pub struct UpdateEffect {
    /// Edges actually inserted.
    pub inserted_edges: usize,
    /// Edges actually removed.
    pub removed_edges: usize,
    /// Ids assigned to added nodes, in op order.
    pub added_nodes: Vec<NodeId>,
    /// Pre-existing nodes whose tier changed.
    pub retiered: Vec<Retier>,
    /// Adjacency rows refreshed by the incremental maintenance.
    pub dirty_rows: usize,
    /// Cached logits dropped per shard because the delta reached their
    /// receptive field: `(shard, entries invalidated)`, only shards that
    /// actually dropped entries appear. Precise, not a flush — see
    /// [`ModelArtifacts::invalidation_closure`].
    pub logits_invalidated: Vec<(u32, usize)>,
    /// Shard balance after the delta: max owned count over the ideal
    /// `n/k` (1.0 = perfectly even). Tracks how well shard-aware
    /// placement of added nodes holds up under growth.
    pub balance: f64,
}

impl UpdateEffect {
    /// Total cached logits invalidated across shards by this delta.
    pub fn logits_invalidated_total(&self) -> usize {
        self.logits_invalidated.iter().map(|&(_, n)| n).sum()
    }
}

/// Where a model's *unquantized* source rows come from when re-tiering
/// needs them (re-quantizing an already-quantized row would compound
/// rounding). A resident f32 matrix is the exception, not the rule: it is
/// kept only for dense datasets that cannot regenerate rows on demand.
pub enum RawFeatures {
    /// Dense within-budget datasets: the materialized matrix, *moved* out
    /// of the dataset at build time (never a second copy).
    Resident(Features),
    /// Streaming `synth:*` datasets: any original row regenerates in
    /// `O(dim)` from the per-node synthesizer, so nothing is stored for
    /// them; only delta-added rows (which the synthesizer cannot produce)
    /// live in the overlay.
    Synth {
        /// Row-on-demand synthesizer, moved from the materialized dataset.
        synth: RowSynth,
        /// Raw rows of delta-added nodes, keyed by global id.
        overlay: HashMap<NodeId, Vec<f32>>,
    },
    /// Binary bag-of-words inputs quantize to 1 bit regardless of degree
    /// tier, so a pre-existing row is never re-quantized; added nodes
    /// quantize straight from the delta payload. Nothing is retained.
    Discarded,
}

impl RawFeatures {
    /// Approximate heap bytes held resident.
    pub fn resident_bytes(&self) -> usize {
        match self {
            Self::Resident(f) => std::mem::size_of_val(f.data()),
            Self::Synth { synth, overlay } => {
                synth.resident_bytes()
                    + overlay
                        .values()
                        .map(|row| std::mem::size_of_val(row.as_slice()))
                        .sum::<usize>()
            }
            Self::Discarded => 0,
        }
    }
}

/// Everything a worker needs to execute batches for one model. Immutable
/// from the forward pass's point of view; mutated only through
/// [`ModelArtifacts::apply_delta`] behind a [`ModelEntry`] write lock.
pub struct ModelArtifacts {
    /// The key these artifacts serve.
    pub key: ModelKey,
    /// Materialized dataset, kept for its spec, labels, and splits. Its
    /// `graph` is emptied after construction — the live topology is
    /// [`Self::graph`] (snapshot via `graph.to_graph()`); keeping the
    /// frozen registration-time copy around would both duplicate the
    /// topology per resident model and hand future callers a silently
    /// stale graph. Its `features` are emptied too: the serving
    /// representation is [`Self::packed_features`], and the unquantized
    /// source rows live in [`Self::raw_features`] (moved, not copied).
    pub dataset: Dataset,
    /// The served model: its configuration, biases, and weights quantized
    /// once to the row-major integer levels the kernels stream — the only
    /// copy of the weights the artifacts keep.
    pub model: PackedGnn,
    /// Input feature rows packed at rest in tier-contiguous bit-plane
    /// arenas — the *only* resident quantized representation; the kernels
    /// execute against it and [`ModelArtifacts::apply_delta`] keeps it
    /// current.
    pub packed_features: TierPackedFeatures,
    /// Live topology under mutation.
    pub graph: DynamicGraph,
    /// Normalized adjacency `Ã` (rows = destinations), incrementally
    /// maintained.
    pub adjacency: DynAdjacency,
    /// Unquantized source rows for re-quantization when a node changes
    /// tier — resident, regenerated on demand, or discarded depending on
    /// the dataset (see [`RawFeatures`]).
    pub raw_features: RawFeatures,
    /// Per-node activation bitwidth from the degree-aware policy.
    pub bits: Vec<u8>,
    /// Per-node precision tier (0 = fewest bits).
    pub tiers: Vec<usize>,
    /// The k-way node-to-shard assignment: shard `p` owns the nodes of
    /// part `p` ([`ModelArtifacts::shard`]). Every node, at build and when
    /// a delta adds it, is placed by one streaming rule
    /// ([`Partitioning::push_balanced`]); nothing is re-partitioned in
    /// place.
    pub partitioning: Partitioning,
    /// Per-shard logits caches, one per part (a node's entry lives in its
    /// owning shard's cache). Kept sound by
    /// [`ModelArtifacts::apply_delta`], which drops exactly the entries
    /// whose receptive field a delta reached.
    pub logits: Vec<LogitsCache>,
    /// The policy that produced `bits`/`tiers`.
    pub policy: DegreePolicy,
    /// Weight bitwidth the model was quantized at (for hardware-model
    /// estimates).
    pub weight_bits: u8,
    /// Whether input rows follow the degree profile (dense inputs) or stay
    /// at 1 bit (binary bag-of-words).
    pub input_follows_degree: bool,
    /// Monotone mutation counter; bumped once per applied delta.
    pub version: u64,
}

/// Places the next unplaced node — id `partitioning.assignment().len()` —
/// with [`Partitioning::push_balanced`], from the parts of its in- and
/// out-neighbors that are already placed (lower ids). The one placement
/// path for a model build and for nodes a delta adds.
fn place_next_node(graph: &DynamicGraph, partitioning: &mut Partitioning) {
    let v = partitioning.assignment().len();
    let placed = |u: &&NodeId| (**u as usize) < v;
    let neighbor_parts: Vec<u32> = graph
        .in_neighbors(v)
        .iter()
        .filter(placed)
        .chain(graph.out_neighbors(v).iter().filter(placed))
        .map(|&u| partitioning.part_of(u as usize))
        .collect();
    partitioning.push_balanced(&neighbor_parts);
}

/// Symmetric per-row fake quantization with a dynamic scale
/// (`α = max|x| / qmax`). Deterministic in the row contents alone, which is
/// what keeps batched and sequential execution bit-exact.
pub fn quantize_row(row: &mut [f32], bits: u8) {
    let max_abs = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
    if max_abs == 0.0 {
        return;
    }
    let alpha = max_abs / qmax(bits) as f32;
    for x in row.iter_mut() {
        *x = fake_quantize(*x, alpha, bits);
    }
}

/// [`quantize_row`] that also yields the integer levels and scale for the
/// packed mirror — one quantization pass feeds both representations, so
/// the f32 row and the bit-plane row cannot drift apart.
fn quantize_row_with_levels(row: &mut [f32], bits: u8, levels: &mut Vec<i32>) -> f32 {
    levels.clear();
    let max_abs = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
    if max_abs == 0.0 {
        levels.resize(row.len(), 0);
        return 0.0;
    }
    let alpha = max_abs / qmax(bits) as f32;
    for x in row.iter_mut() {
        let level = quantize(*x, alpha, bits);
        levels.push(level);
        *x = dequantize(level, alpha);
    }
    alpha
}

impl ModelArtifacts {
    /// Builds everything from a registered spec.
    ///
    /// # Panics
    ///
    /// Panics if the dataset materializes with neither dense features nor
    /// a row synthesizer (serving needs feature values; NELL-sized specs
    /// exceed the dense budget and do not stream).
    pub fn build(spec: &ModelSpec) -> Self {
        let mut dataset = spec.dataset.materialize();
        assert!(
            dataset.has_features() || dataset.synth.is_some(),
            "{} materialized with neither dense features nor a row synthesizer; serving needs one",
            spec.dataset.name
        );
        let bits = spec.policy.profile(&dataset.graph);
        let tiers: Vec<usize> = (0..dataset.graph.num_nodes())
            .map(|v| spec.policy.tier_of_degree(dataset.graph.in_degree(v)))
            .collect();

        // Input features are constant between mutations, so quantize them
        // offline, one row at a time through a scratch buffer — peak
        // memory stays O(dim) over the source rows even for streaming
        // million-node datasets. Binary bag-of-words inputs go to 1 bit
        // regardless of degree (mirrors `mega::workloads::build_quantized`);
        // denser inputs follow the degree profile.
        let input_follows_degree = spec.dataset.feature_density >= 0.05;
        let dim = dataset.spec.feature_dim;
        let mut packed_features = TierPackedFeatures::new(dim);
        let mut levels = Vec::with_capacity(dim);
        let mut scratch = vec![0.0f32; dim];
        for (v, &node_bits) in bits.iter().enumerate().take(dataset.graph.num_nodes()) {
            dataset.fill_row(v, &mut scratch);
            let input_bits = if input_follows_degree { node_bits } else { 1 };
            let alpha = quantize_row_with_levels(&mut scratch, input_bits, &mut levels);
            packed_features.push_row(&levels, input_bits, alpha);
        }
        // Keep unquantized sources only where re-tiering can actually
        // read them back: streaming datasets regenerate, 1-bit inputs
        // never re-quantize, dense matrices move (not copy) out of the
        // dataset. Either way `dataset.features` ends up empty.
        let raw_features = if let Some(synth) = dataset.synth.take() {
            RawFeatures::Synth {
                synth,
                overlay: HashMap::new(),
            }
        } else if input_follows_degree {
            RawFeatures::Resident(dataset.features.take().expect("asserted dense above"))
        } else {
            RawFeatures::Discarded
        };
        dataset.features = None;

        // Weights are static too: per-layer symmetric quantization, done
        // once into the kernel form.
        let config = ModelConfig::for_dataset(spec.kind, &dataset);
        let model = PackedGnn::from_model(&Gnn::new(config), spec.weight_bits);

        // The live topology is `graph`: the frozen CSR's index vectors move
        // into it, and an empty graph takes the snapshot's place, so it can
        // neither waste memory nor serve stale degrees after mutations.
        let graph = DynamicGraph::from_graph(std::mem::replace(
            &mut dataset.graph,
            mega_graph::Graph::from_directed_edges(0, vec![]),
        ));
        let adjacency = DynAdjacency::build(&graph, spec.kind.aggregator(spec.dataset.seed));

        // Build is growth replayed from empty: every node streams into its
        // shard in id order through the rule `apply_delta` uses.
        let n = graph.num_nodes();
        let k = spec.shards.clamp(1, n.max(1));
        let mut partitioning = Partitioning::new(Vec::with_capacity(n), k);
        for _ in 0..n {
            place_next_node(&graph, &mut partitioning);
        }

        // One logits cache per shard, splitting the model's byte budget
        // evenly. A nonzero model budget is clamped so every shard can
        // hold at least one logits row — otherwise a small budget over
        // many shards would round to less than one entry and silently
        // disable a cache the operator asked for. Weight/policy changes
        // only arrive via re-registration, which rebuilds these
        // artifacts — so a live cache never survives anything but graph
        // deltas, which `apply_delta` invalidates.
        let per_shard = if spec.cache_bytes == 0 {
            0
        } else {
            (spec.cache_bytes / k).max(LogitsCache::entry_bytes(model.config().out_dim))
        };
        let logits = (0..k).map(|_| LogitsCache::new(per_shard)).collect();

        Self {
            key: spec.key(),
            dataset,
            model,
            packed_features,
            graph,
            adjacency,
            raw_features,
            bits,
            tiers,
            partitioning,
            logits,
            policy: spec.policy.clone(),
            weight_bits: spec.weight_bits,
            input_follows_degree,
            version: 0,
        }
    }

    /// Applies a graph delta incrementally: mutate the live topology,
    /// refresh only the dirtied adjacency rows, and re-tier / re-quantize
    /// only the nodes whose in-degree moved across a policy boundary.
    ///
    /// `node_features` provides one raw feature row per `AddNode` op. A
    /// rejected delta (`Err`) changes nothing.
    pub fn apply_delta(
        &mut self,
        delta: &GraphDelta,
        node_features: &[Vec<f32>],
    ) -> Result<UpdateEffect, String> {
        // Non-finite feature payloads are rejected by
        // `ServeEngine::submit_update`; anything that reaches this point
        // through another path is a caller bug (quantization would silently map NaN to level 0 and
        // poison every receptive field the row joins).
        debug_assert!(
            node_features
                .iter()
                .all(|row| row.iter().all(|x| x.is_finite())),
            "apply_delta received non-finite feature values"
        );
        let dim = self.packed_features.dim();
        if node_features.len() != delta.nodes_added() {
            return Err(format!(
                "delta adds {} node(s) but {} feature row(s) were provided",
                delta.nodes_added(),
                node_features.len()
            ));
        }
        if let Some(row) = node_features.iter().find(|r| r.len() != dim) {
            return Err(format!(
                "feature row has {} value(s), model expects {dim}",
                row.len()
            ));
        }
        let effect = self.graph.apply(delta).map_err(|e| e.to_string())?;

        // Grow per-node state for added nodes. Quantized rows and
        // bits/tiers are finalized in the re-tier pass below (an added
        // node may also have gained edges inside the same delta).
        for (i, &v) in effect.added_nodes.iter().enumerate() {
            debug_assert_eq!(v as usize, self.bits.len());
            match &mut self.raw_features {
                RawFeatures::Resident(f) => f.push_row(&node_features[i]),
                // The synthesizer only covers original nodes; added rows
                // go to the overlay so later re-tiers can re-read them.
                RawFeatures::Synth { overlay, .. } => {
                    overlay.insert(v, node_features[i].clone());
                }
                // 1-bit inputs never re-quantize: the payload row is
                // consumed by the re-tier pass below and then dropped.
                RawFeatures::Discarded => {}
            }
            self.bits.push(0);
            self.tiers.push(usize::MAX);
            // Placeholder packed row keeps ids aligned; the re-tier pass
            // below rewrites it at the node's final bitwidth.
            self.packed_features.push_empty(1);
            place_next_node(&self.graph, &mut self.partitioning);
        }

        let adjacency_dirty = self.adjacency.apply_dirty(&self.graph, &effect);
        let dirty_rows = adjacency_dirty.len();

        // Re-tier every node whose in-degree changed, plus the added nodes.
        // `feature_dirty` collects the nodes whose *quantized feature row*
        // was rewritten.
        let mut retiered = Vec::new();
        let mut feature_dirty: Vec<NodeId> = Vec::new();
        let mut scratch = vec![0.0f32; dim];
        let added_start = self.num_nodes() - effect.added_nodes.len();
        for &v in effect.rows_changed.iter().chain(&effect.added_nodes) {
            let vu = v as usize;
            let new_tier = self.policy.tier_of_degree(self.graph.in_degree(vu));
            let new_bits = self.policy.tier_bits(new_tier);
            let is_new = vu >= added_start;
            let tier_changed = self.tiers[vu] != new_tier;
            if !is_new && !tier_changed {
                continue;
            }
            if !is_new {
                retiered.push(Retier {
                    node: v,
                    old_tier: self.tiers[vu],
                    new_tier,
                    old_bits: self.bits[vu],
                    new_bits,
                });
            }
            self.tiers[vu] = new_tier;
            self.bits[vu] = new_bits;
            // Only degree-following inputs change representation with the
            // tier; bag-of-words inputs stay at 1 bit.
            let input_bits = if self.input_follows_degree {
                new_bits
            } else {
                1
            };
            if is_new || self.input_follows_degree {
                if is_new {
                    // The freshest raw copy is the delta payload itself
                    // (for `Discarded` sources it is the *only* copy).
                    scratch.copy_from_slice(&node_features[vu - added_start]);
                } else {
                    // `!is_new` here implies degree-following inputs,
                    // which always retain a raw source (`Resident` or
                    // `Synth`) — `Discarded` pairs with 1-bit inputs.
                    let resolved = self.raw_row_into(vu, &mut scratch);
                    debug_assert!(resolved, "re-tier without a raw feature source");
                }
                let mut levels = Vec::with_capacity(dim);
                let alpha = quantize_row_with_levels(&mut scratch, input_bits, &mut levels);
                self.packed_features.set_row(vu, &levels, input_bits, alpha);
                feature_dirty.push(v);
            }
        }
        // Added nodes untouched by any edge op still need their tier
        // finalized (degree 0) — handled above via the chained iterator,
        // but an added node may appear in `rows_changed` too; the `is_new`
        // branch is idempotent so double-processing is harmless.

        // Result-cache invalidation seeds: every per-node input the
        // forward pass reads that this delta changed — normalized
        // adjacency rows (values or in-neighbor sets), rewritten quantized
        // feature rows, and re-tiered nodes (their hidden activations
        // re-quantize at the new bitwidth even when the stored feature row
        // did not change, e.g. 1-bit bag-of-words inputs).
        let mut cache_seeds: Vec<NodeId> = adjacency_dirty.clone();
        cache_seeds.extend_from_slice(&feature_dirty);
        cache_seeds.extend(retiered.iter().map(|r| r.node));
        cache_seeds.sort_unstable();
        cache_seeds.dedup();

        // Drop exactly the cached logits this delta can have affected: the
        // targets whose L-hop receptive field intersects a seed row, i.e.
        // the inverse halo closure of the seeds. Every surviving entry is
        // provably still bit-exact with a fresh pass.
        let stale = self.invalidation_closure(&cache_seeds);
        let mut logits_invalidated = Vec::new();
        for (shard, cache) in self.logits.iter().enumerate() {
            let dropped = cache.invalidate(&stale);
            if dropped > 0 {
                logits_invalidated.push((shard as u32, dropped));
            }
        }

        self.version += 1;
        Ok(UpdateEffect {
            inserted_edges: effect.inserted,
            removed_edges: effect.removed,
            added_nodes: effect.added_nodes,
            retiered,
            dirty_rows,
            logits_invalidated,
            balance: self.partitioning.balance(),
        })
    }

    /// The shard owning `node` (its partition).
    pub fn shard_of(&self, node: NodeId) -> u32 {
        self.partitioning.part_of(node as usize)
    }

    /// The view of shard `part`, or `None` when `part` is not below the
    /// partition count.
    pub fn shard(&self, part: u32) -> Option<Shard<'_>> {
        ((part as usize) < self.partitioning.k()).then_some(Shard {
            part,
            artifacts: self,
        })
    }

    /// The logits cache of shard `part`, if it exists.
    pub fn logits_cache(&self, part: u32) -> Option<&LogitsCache> {
        self.logits.get(part as usize)
    }

    /// The set of targets whose cached logits a mutation of `dirty` rows
    /// can have affected: every node within `L` out-edge hops of a dirty
    /// row (`L` = model layers), including the dirty rows themselves —
    /// the inverse of the `L`-hop halo closure
    /// ([`mega_partition::influence_closure_with`]). A target outside this
    /// set has an `L`-hop receptive field disjoint from every dirty row,
    /// so its logits are a function of unchanged inputs only; the
    /// logits-cache proptests cross-check this against
    /// [`mega_gnn::ReceptiveField::intersects`] directly.
    pub fn invalidation_closure(&self, dirty: &[NodeId]) -> Vec<NodeId> {
        influence_closure_with(dirty, self.num_nodes(), self.model.config().layers, |v| {
            self.graph.out_neighbors(v)
        })
    }

    /// Drops every cached logits row of every shard (the explicit
    /// operator knob; deltas invalidate precisely instead). Returns the
    /// number of entries dropped.
    pub fn flush_logits(&self) -> usize {
        self.logits.iter().map(LogitsCache::flush).sum()
    }

    /// Number of nodes this model currently serves (live topology).
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Input feature dimensionality this model serves.
    pub fn feature_dim(&self) -> usize {
        self.packed_features.dim()
    }

    /// Writes node `v`'s raw (unquantized) feature row into `out`,
    /// resolving through [`RawFeatures`]: the resident matrix, the
    /// delta-row overlay, or on-demand synthesis. Returns `false` when no
    /// raw source exists (`Discarded`), leaving `out` untouched.
    pub fn raw_row_into(&self, v: usize, out: &mut [f32]) -> bool {
        match &self.raw_features {
            RawFeatures::Resident(f) => {
                out.copy_from_slice(f.row(v));
                true
            }
            RawFeatures::Synth { synth, overlay } => {
                if let Some(row) = overlay.get(&(v as NodeId)) {
                    out.copy_from_slice(row);
                } else {
                    synth.fill_row(v as u64, self.dataset.labels[v], out);
                }
                true
            }
            RawFeatures::Discarded => false,
        }
    }

    /// Approximate heap bytes these artifacts hold resident, split by
    /// component (the structures that dominate a model's footprint:
    /// feature matrices, the incremental adjacency, logits caches). Model
    /// weights and per-node policy vectors are small by comparison and not
    /// itemized. Shards are views and hold nothing, so `shard_bytes` is 0.
    /// Feeds `/metrics`' per-model gauges.
    pub fn resident_bytes(&self) -> crate::trace::ModelMemory {
        crate::trace::ModelMemory {
            model: self.key.clone(),
            nodes: self.num_nodes(),
            feature_dim: self.feature_dim(),
            features_bytes: self.packed_features.resident_bytes(),
            raw_features_bytes: self.raw_features.resident_bytes(),
            adjacency_bytes: self.adjacency.approx_heap_bytes(),
            shard_bytes: 0,
            logits_bytes: self.logits.iter().map(LogitsCache::bytes).sum(),
        }
    }

    /// The activation bitwidth served to `node`.
    pub fn node_bits(&self, node: NodeId) -> u8 {
        self.bits[node as usize]
    }

    /// The precision tier of `node`.
    pub fn node_tier(&self, node: NodeId) -> usize {
        self.tiers[node as usize]
    }
}

/// A resident cache entry: the artifacts behind a readers/writer lock.
/// Batches take read guards; updates take the write guard, so execution
/// never sees a half-applied mutation.
pub struct ModelEntry {
    artifacts: RwLock<ModelArtifacts>,
}

impl ModelEntry {
    fn new(artifacts: ModelArtifacts) -> Self {
        Self {
            artifacts: RwLock::new(artifacts),
        }
    }

    /// Read access for batch execution and probes.
    pub fn read(&self) -> RwLockReadGuard<'_, ModelArtifacts> {
        self.artifacts.read().recover("model-artifacts")
    }

    /// Runs `f` with exclusive access (the update path).
    pub fn update<R>(&self, f: impl FnOnce(&mut ModelArtifacts) -> R) -> R {
        f(&mut self.artifacts.write().recover("model-artifacts"))
    }

    /// Whether this entry has applied mutations. Mutated state exists
    /// *only* here — rebuilding from the registry spec would silently
    /// revert acknowledged updates — so dirty entries are pinned against
    /// LRU eviction. Contended entries (an update mid-flight) count as
    /// dirty rather than blocking the cache lock.
    fn is_dirty(&self) -> bool {
        match self.artifacts.try_read() {
            Ok(artifacts) => artifacts.version > 0,
            Err(_) => true,
        }
    }
}

struct Slot {
    entry: Arc<OnceLock<Arc<ModelEntry>>>,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<ModelKey, Slot>,
    tick: u64,
}

/// LRU cache of [`ModelEntry`]s keyed by [`ModelKey`].
pub struct ArtifactCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ArtifactCache {
    /// A cache holding `capacity` artifact sets. Mutated (dirty) entries
    /// are pinned against eviction, so a cache whose every entry carries
    /// applied updates temporarily exceeds `capacity` rather than drop
    /// un-reconstructible state.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Self {
            capacity,
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the entry for `key`, building it with `build` on a miss.
    /// Concurrent first accesses to the same key build once; builds for
    /// *different* keys proceed in parallel (the map lock is not held
    /// while building).
    pub fn get_or_build(
        &self,
        key: &ModelKey,
        build: impl FnOnce() -> ModelArtifacts,
    ) -> Arc<ModelEntry> {
        let entry = {
            let mut inner = self.inner.lock().recover("artifact-cache");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(slot) = inner.map.get_mut(key) {
                slot.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                slot.entry.clone()
            } else {
                self.misses.fetch_add(1, Ordering::Relaxed);
                // Evict the least-recently-used *clean* entry. Entries
                // with applied mutations (or still building / mid-update)
                // are pinned — their state exists nowhere else, so
                // evicting them would silently revert acknowledged
                // updates. With every entry dirty the cache soft-exceeds
                // its capacity instead.
                if inner.map.len() >= self.capacity {
                    if let Some(lru) = inner
                        .map
                        .iter()
                        .filter(|(_, slot)| slot.entry.get().is_some_and(|entry| !entry.is_dirty()))
                        .min_by_key(|(_, slot)| slot.last_used)
                        .map(|(k, _)| k.clone())
                    {
                        inner.map.remove(&lru);
                    }
                }
                let entry = Arc::new(OnceLock::new());
                inner.map.insert(
                    key.clone(),
                    Slot {
                        entry: entry.clone(),
                        last_used: tick,
                    },
                );
                entry
            }
        };
        entry
            .get_or_init(|| Arc::new(ModelEntry::new(build())))
            .clone()
    }

    /// Drops `key`'s entry so the next access rebuilds from the registry
    /// spec (e.g. after a re-registration). Entries for other keys are
    /// untouched — [`ArtifactCache::get_or_build`] rebuilds only
    /// invalidated (dirty) entries. Returns whether an entry was resident.
    ///
    /// Unlike LRU eviction this removes *mutated* entries too: it is the
    /// explicit "discard applied updates and restart from the spec" knob.
    /// In-flight readers holding the old `Arc` finish against the old
    /// artifacts; new lookups see the rebuild.
    pub fn invalidate(&self, key: &ModelKey) -> bool {
        self.inner
            .lock()
            .recover("artifact-cache")
            .map
            .remove(key)
            .is_some()
    }

    /// Whether `key` is resident (does not touch LRU order or counters).
    pub fn contains(&self, key: &ModelKey) -> bool {
        self.inner
            .lock()
            .recover("artifact-cache")
            .map
            .contains_key(key)
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.inner.lock().recover("artifact-cache").map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every fully built resident entry, with its key. Entries still
    /// mid-build (their `OnceLock` unset) are skipped — memory telemetry
    /// samples what exists now rather than waiting on a build. Does not
    /// touch LRU order or hit/miss counters.
    pub fn resident(&self) -> Vec<(ModelKey, Arc<ModelEntry>)> {
        self.inner
            .lock()
            .recover("artifact-cache")
            .map
            .iter()
            .filter_map(|(key, slot)| slot.entry.get().map(|e| (key.clone(), e.clone())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mega_gnn::{build_adjacency, AdjacencyView, GnnKind};
    use mega_graph::DatasetSpec;

    fn tiny_spec(name_seed: u64) -> ModelSpec {
        let mut dataset = DatasetSpec::cora().scaled(0.05).with_feature_dim(32);
        dataset.seed ^= name_seed;
        dataset.name = format!("Tiny{name_seed}");
        ModelSpec::standard(dataset, GnnKind::Gcn)
    }

    #[test]
    fn artifacts_expose_consistent_per_node_metadata() {
        let spec = tiny_spec(0);
        let a = ModelArtifacts::build(&spec);
        assert_eq!(a.bits.len(), a.num_nodes());
        assert_eq!(a.tiers.len(), a.num_nodes());
        for v in 0..a.num_nodes() as NodeId {
            assert_eq!(a.policy.tier_bits(a.node_tier(v)), a.node_bits(v));
        }
        assert_eq!(AdjacencyView::rows(&a.adjacency), a.num_nodes());
        assert_eq!(a.partitioning.assignment().len(), a.num_nodes());
        assert_eq!(a.packed_features.len(), a.num_nodes());
        // Tiny cora is binary bag-of-words (1-bit inputs): no raw rows
        // are retained, and the dense matrix is gone after packing.
        assert!(matches!(a.raw_features, RawFeatures::Discarded));
        assert!(a.dataset.features.is_none());
        assert_eq!(a.version, 0);
    }

    #[test]
    fn built_adjacency_matches_one_shot_construction() {
        let spec = tiny_spec(0);
        let a = ModelArtifacts::build(&spec);
        let reference =
            build_adjacency(&a.graph.to_graph(), spec.kind.aggregator(spec.dataset.seed));
        assert_eq!(a.adjacency.to_csr(), *reference);
    }

    #[test]
    fn quantize_row_is_idempotent_and_bounded() {
        let mut row = vec![0.5f32, -1.5, 0.0, 3.2];
        quantize_row(&mut row, 4);
        let once = row.clone();
        quantize_row(&mut row, 4);
        // Levels stay on the same grid after requantization.
        for (a, b) in once.iter().zip(&row) {
            assert!((a - b).abs() < 1e-6);
        }
        assert_eq!(row[2], 0.0);
        let mut zeros = vec![0.0f32; 4];
        quantize_row(&mut zeros, 2);
        assert!(zeros.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn apply_delta_retiers_across_boundaries() {
        let spec = tiny_spec(0);
        let mut a = ModelArtifacts::build(&spec);
        // Find a node in the lowest tier and a batch of distinct sources.
        let target = (0..a.num_nodes() as NodeId)
            .find(|&v| a.node_tier(v) == 0)
            .expect("tiny cora has low-degree nodes");
        let before_bits = a.node_bits(target);
        let mut delta = GraphDelta::new();
        let mut added = 0;
        for src in 0..a.num_nodes() as NodeId {
            if src != target && !a.graph.has_edge(src, target) {
                delta.insert_edge(src, target);
                added += 1;
                if added == 40 {
                    break;
                }
            }
        }
        assert!(added >= 33, "need enough sources to cross tier 3");
        let effect = a.apply_delta(&delta, &[]).unwrap();
        assert_eq!(effect.inserted_edges, added);
        let promotion = effect
            .retiered
            .iter()
            .find(|r| r.node == target)
            .expect("target must retier");
        assert_eq!(promotion.old_bits, before_bits);
        assert!(promotion.new_bits > before_bits);
        assert_eq!(a.node_bits(target), promotion.new_bits);
        assert_eq!(
            a.node_bits(target),
            a.policy.bits_for_degree(a.graph.in_degree(target as usize))
        );
        assert_eq!(a.version, 1);
        // Incremental adjacency equals a from-scratch rebuild of the
        // mutated graph.
        let rebuilt = build_adjacency(&a.graph.to_graph(), spec.kind.aggregator(spec.dataset.seed));
        assert_eq!(a.adjacency.to_csr(), *rebuilt);
    }

    #[test]
    fn apply_delta_rejects_bad_feature_payloads() {
        let spec = tiny_spec(0);
        let mut a = ModelArtifacts::build(&spec);
        let before_nodes = a.num_nodes();
        let mut delta = GraphDelta::new();
        delta.add_node();
        assert!(a.apply_delta(&delta, &[]).unwrap_err().contains("feature"));
        assert!(a
            .apply_delta(&delta, &[vec![0.0; 3]])
            .unwrap_err()
            .contains("expects"));
        let mut bad_edge = GraphDelta::new();
        bad_edge.insert_edge(0, u32::MAX);
        assert!(a
            .apply_delta(&bad_edge, &[])
            .unwrap_err()
            .contains("out of range"));
        assert_eq!(
            a.num_nodes(),
            before_nodes,
            "rejected deltas change nothing"
        );
        assert_eq!(a.version, 0);
    }

    #[test]
    fn apply_delta_grows_every_per_node_table() {
        let spec = tiny_spec(0);
        let mut a = ModelArtifacts::build(&spec);
        let n0 = a.num_nodes();
        let dim = a.feature_dim();
        let mut delta = GraphDelta::new();
        delta.add_node().insert_edge(0, n0 as NodeId);
        let effect = a.apply_delta(&delta, &[vec![0.25; dim]]).unwrap();
        assert_eq!(effect.added_nodes, vec![n0 as NodeId]);
        assert_eq!(a.num_nodes(), n0 + 1);
        assert_eq!(a.bits.len(), n0 + 1);
        assert_eq!(a.tiers.len(), n0 + 1);
        assert_eq!(a.packed_features.len(), n0 + 1);
        assert_eq!(a.partitioning.assignment().len(), n0 + 1);
        assert_eq!(AdjacencyView::rows(&a.adjacency), n0 + 1);
        assert_eq!(a.node_tier(n0 as NodeId), 0, "one in-edge is tier 0");
    }

    #[test]
    fn synth_specs_serve_without_resident_f32_rows() {
        let spec = ModelSpec::standard(DatasetSpec::synth(500), GnnKind::Gcn);
        let mut a = ModelArtifacts::build(&spec);
        assert!(matches!(a.raw_features, RawFeatures::Synth { .. }));
        assert!(a.dataset.features.is_none(), "no dense matrix resident");
        assert_eq!(a.packed_features.len(), a.num_nodes());
        let dim = a.feature_dim();
        assert_eq!(dim, 64);

        // Original rows regenerate on demand (what re-tiering reads).
        let mut row = vec![0.0f32; dim];
        assert!(a.raw_row_into(7, &mut row));
        assert!(row.iter().any(|&x| x != 0.0), "dense synth row is nonzero");
        let mut again = vec![0.0f32; dim];
        assert!(a.raw_row_into(7, &mut again));
        assert_eq!(row, again, "synthesis is deterministic");

        // A delta-added node lands in the overlay and reads back verbatim.
        let n0 = a.num_nodes();
        let mut delta = GraphDelta::new();
        delta.add_node().insert_edge(0, n0 as NodeId);
        a.apply_delta(&delta, &[vec![0.5; dim]]).unwrap();
        assert!(a.raw_row_into(n0, &mut row));
        assert_eq!(row, vec![0.5; dim]);

        // The memory breakdown reflects the lean layout: no f32 matrix
        // anywhere, only class tables + the one overlay row.
        let memory = a.resident_bytes();
        assert_eq!(memory.nodes, n0 + 1);
        assert_eq!(memory.feature_dim, dim);
        let f32_matrix = memory.nodes * dim * std::mem::size_of::<f32>();
        assert!(
            memory.raw_features_bytes < f32_matrix / 4,
            "raw source bytes {} should be far below a resident matrix {}",
            memory.raw_features_bytes,
            f32_matrix
        );
    }

    #[test]
    fn tiny_nonzero_logits_budget_still_admits_one_entry_per_shard() {
        // A small model budget split across shards must not round below
        // one logits row — that would silently disable a cache the
        // operator turned on.
        let mut spec = tiny_spec(0);
        spec.cache_bytes = 10;
        let a = ModelArtifacts::build(&spec);
        let entry = LogitsCache::entry_bytes(a.model.config().out_dim);
        assert!(!a.logits.is_empty());
        for cache in &a.logits {
            assert!(cache.is_enabled());
            assert!(cache.capacity_bytes() >= entry);
        }
        // Zero stays zero: explicitly disabled.
        spec.cache_bytes = 0;
        let a = ModelArtifacts::build(&spec);
        assert!(a.logits.iter().all(|c| !c.is_enabled()));
    }

    #[test]
    fn cache_hits_misses_and_evicts() {
        let cache = ArtifactCache::new(2);
        let s0 = tiny_spec(0);
        let s1 = tiny_spec(1);
        let s2 = tiny_spec(2);
        let a0 = cache.get_or_build(&s0.key(), || ModelArtifacts::build(&s0));
        let again = cache.get_or_build(&s0.key(), || panic!("must not rebuild"));
        assert!(Arc::ptr_eq(&a0, &again));
        cache.get_or_build(&s1.key(), || ModelArtifacts::build(&s1));
        cache.get_or_build(&s2.key(), || ModelArtifacts::build(&s2)); // evicts s0
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats(), (1, 3));
        // s0 was evicted: fetching it again is a miss that rebuilds.
        cache.get_or_build(&s0.key(), || ModelArtifacts::build(&s0));
        assert_eq!(cache.stats(), (1, 4));
    }

    #[test]
    fn eviction_follows_lru_order() {
        let cache = ArtifactCache::new(2);
        let specs: Vec<ModelSpec> = (0..3).map(tiny_spec).collect();
        cache.get_or_build(&specs[0].key(), || ModelArtifacts::build(&specs[0]));
        cache.get_or_build(&specs[1].key(), || ModelArtifacts::build(&specs[1]));
        // Touch 0 so 1 becomes least-recently-used.
        cache.get_or_build(&specs[0].key(), || panic!("resident"));
        cache.get_or_build(&specs[2].key(), || ModelArtifacts::build(&specs[2]));
        assert!(cache.contains(&specs[0].key()), "recently used survives");
        assert!(!cache.contains(&specs[1].key()), "LRU entry evicted");
        assert!(cache.contains(&specs[2].key()));
    }

    #[test]
    fn mutated_entries_are_pinned_against_eviction() {
        let cache = ArtifactCache::new(2);
        let specs: Vec<ModelSpec> = (0..3).map(tiny_spec).collect();
        let entry = cache.get_or_build(&specs[0].key(), || ModelArtifacts::build(&specs[0]));
        let mut delta = GraphDelta::new();
        delta.insert_edge(0, 1).remove_edge(0, 1);
        entry.update(|a| a.apply_delta(&delta, &[]).unwrap());
        cache.get_or_build(&specs[1].key(), || ModelArtifacts::build(&specs[1]));
        // Capacity pressure: the mutated entry 0 is older than 1 but must
        // survive; the clean LRU (1) goes instead.
        cache.get_or_build(&specs[2].key(), || ModelArtifacts::build(&specs[2]));
        assert!(cache.contains(&specs[0].key()), "dirty entry pinned");
        assert!(!cache.contains(&specs[1].key()), "clean LRU evicted");
        let same = cache.get_or_build(&specs[0].key(), || panic!("must not rebuild"));
        assert_eq!(same.read().version, 1, "applied updates survive pressure");

        // All-dirty caches soft-exceed capacity instead of losing state.
        let e2 = cache.get_or_build(&specs[2].key(), || panic!("resident"));
        e2.update(|a| a.apply_delta(&delta, &[]).unwrap());
        cache.get_or_build(&specs[1].key(), || ModelArtifacts::build(&specs[1]));
        assert_eq!(cache.len(), 3, "no clean entry to evict");
        // Explicit invalidation still removes mutated entries.
        assert!(cache.invalidate(&specs[0].key()));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn invalidation_rebuilds_only_dirty_entries() {
        let cache = ArtifactCache::new(4);
        let s0 = tiny_spec(0);
        let s1 = tiny_spec(1);
        cache.get_or_build(&s0.key(), || ModelArtifacts::build(&s0));
        cache.get_or_build(&s1.key(), || ModelArtifacts::build(&s1));
        assert!(cache.invalidate(&s0.key()));
        assert!(!cache.invalidate(&s0.key()), "already gone");
        assert!(!cache.contains(&s0.key()));
        assert!(cache.contains(&s1.key()));
        let (h0, m0) = cache.stats();
        // The clean entry serves from cache; only the dirty one rebuilds.
        cache.get_or_build(&s1.key(), || panic!("clean entry must not rebuild"));
        cache.get_or_build(&s0.key(), || ModelArtifacts::build(&s0));
        let (h1, m1) = cache.stats();
        assert_eq!(h1 - h0, 1, "clean entry hit");
        assert_eq!(m1 - m0, 1, "dirty entry missed and rebuilt");
    }

    #[test]
    fn entry_lock_serializes_updates_with_reads() {
        let cache = ArtifactCache::new(2);
        let s0 = tiny_spec(0);
        let entry = cache.get_or_build(&s0.key(), || ModelArtifacts::build(&s0));
        let v0 = entry.read().version;
        let mut delta = GraphDelta::new();
        delta.insert_edge(0, 1);
        let _ = entry.update(|a| a.apply_delta(&delta, &[]).unwrap());
        assert_eq!(entry.read().version, v0 + 1);
    }
}
