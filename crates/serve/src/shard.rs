//! Per-shard serving state: the quantized slice a partition-affine worker
//! keeps hot, the halo-exchange bookkeeping that keeps cross-shard
//! receptive fields coherent under mutation, and the per-batch hardware
//! cost estimate.
//!
//! A [`ShardState`] replicates, for one part of the model's partitioning:
//!
//! * the **owned** nodes (the shard answers their requests),
//! * the **halo** — every node within `L` in-edge hops of an owned node
//!   but owned elsewhere (`L` = model layers), exactly the paper's sparse-
//!   connection `eID` lists closed over the receptive-field depth,
//! * a [`LocalAdjacency`] slice of the global normalized adjacency with
//!   columns remapped into local id space, and
//! * packed bit-plane copies of exactly the **halo** rows. Owned rows are
//!   never duplicated — [`ShardPlaneRows`] routes them to the model's
//!   global [`TierPackedFeatures`] store, so the only per-shard feature
//!   bytes are the cross-shard copies the halo exchange actually has to
//!   maintain.
//!
//! Batches execute entirely against this state through
//! [`mega_gnn::forward_targets_local_packed`], bit-exact with the global
//! pass. When a graph delta lands, the owning model routes each dirty row
//! to the shards holding it: the owner shard refreshes in place, and
//! neighbor shards whose halo copies went stale re-fetch them (the halo
//! exchange — counted per shard so the serving metrics expose cross-shard
//! traffic the way the paper's Fig. 12 exposes sparse-connection DRAM
//! traffic).

use mega_format::planes::{PlaneRow, PlaneRows};
use mega_format::TierPackedFeatures;
use mega_gnn::{AdjacencyView, DynAdjacency, LocalAdjacency, ModelConfig, ReceptiveField};
use mega_graph::{DynamicGraph, NodeId};
use mega_partition::Partitioning;
use mega_sim::Workload;

/// One shard's resident state.
pub struct ShardState {
    /// The part this shard serves.
    pub part: u32,
    /// Owned nodes, ascending global ids.
    pub owned: Vec<NodeId>,
    /// Halo nodes (read-only copies of other shards' rows), ascending.
    pub halo: Vec<NodeId>,
    /// `is_halo[local]` flags halo rows in local id space.
    pub is_halo: Vec<bool>,
    /// Shard-local adjacency slice (columns in local ids).
    pub adjacency: LocalAdjacency,
    /// Packed bit-plane copies of this shard's halo rows only (owned rows
    /// read the global store through [`ShardPlaneRows`]).
    pub halo_rows: TierPackedFeatures,
    /// `halo_slot[local]` is the row's index into `halo_rows`, or
    /// [`OWNED`] for owned rows (which have no local copy).
    pub halo_slot: Vec<u32>,
    /// Cumulative halo rows re-fetched from owner shards (halo exchange
    /// traffic).
    pub halo_fetches: u64,
    /// Cumulative slice rebuilds (membership-changing mutations).
    pub rebuilds: u64,
}

/// Sentinel in [`ShardState::halo_slot`]: the local row is owned, not a
/// halo copy.
pub const OWNED: u32 = u32::MAX;

/// What one applied delta did to one shard (reported through
/// [`crate::UpdateResponse`] and the metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRefresh {
    /// The shard.
    pub shard: u32,
    /// Halo rows re-fetched from their owners (stale copies invalidated by
    /// the delta plus rows that newly entered the halo).
    pub halo_fetched: usize,
    /// Whether the shard's slice was rebuilt (membership may have moved).
    pub rebuilt: bool,
}

impl ShardState {
    /// Extracts shard `part` from the global artifacts: `hops` should be
    /// the model's layer count so the halo covers every receptive field of
    /// an owned target.
    pub fn extract(
        part: u32,
        partitioning: &Partitioning,
        graph: &DynamicGraph,
        global_adjacency: &DynAdjacency,
        packed: &TierPackedFeatures,
        hops: usize,
    ) -> Self {
        let spec = partitioning.shard_spec_with(part, hops, |v| graph.in_neighbors(v));
        let locals = spec.locals();
        let adjacency = LocalAdjacency::slice(global_adjacency, &locals);
        let mut halo_rows = TierPackedFeatures::new(packed.dim());
        let mut halo_slot = Vec::with_capacity(locals.len());
        let mut is_halo = Vec::with_capacity(locals.len());
        for &g in &locals {
            if spec.in_halo(g) {
                let slot = halo_rows.push_copy(packed.plane_row(g as usize));
                halo_slot.push(slot as u32);
                is_halo.push(true);
            } else {
                halo_slot.push(OWNED);
                is_halo.push(false);
            }
        }
        Self {
            part,
            owned: spec.owned,
            halo: spec.halo,
            is_halo,
            adjacency,
            halo_rows,
            halo_slot,
            halo_fetches: 0,
            rebuilds: 0,
        }
    }

    /// Whether the shard owns `v`.
    pub fn owns(&self, v: NodeId) -> bool {
        self.owned.binary_search(&v).is_ok()
    }

    /// Whether `v` is resident (owned or halo).
    pub fn contains(&self, v: NodeId) -> bool {
        self.adjacency.local_of(v).is_some()
    }

    /// Number of resident rows.
    pub fn num_locals(&self) -> usize {
        self.adjacency.locals().len()
    }

    /// Approximate heap bytes this slice holds resident: the local
    /// adjacency (ids + rows), the packed halo-row copies, and the
    /// membership bookkeeping (`owned`/`halo`/`is_halo`/`halo_slot`).
    /// Owned feature rows live in the model's global packed store and are
    /// charged there, not here. Feeds the per-model memory gauges
    /// ([`crate::ModelMemory`]).
    pub fn resident_bytes(&self) -> usize {
        self.adjacency.approx_heap_bytes()
            + self.halo_rows.resident_bytes()
            + (self.owned.len() + self.halo.len()) * std::mem::size_of::<NodeId>()
            + self.halo_slot.len() * std::mem::size_of::<u32>()
            + self.is_halo.len()
    }

    /// Counts how many distinct rows of a local-id [`ReceptiveField`]
    /// resolved from halo copies — the batch's cross-shard read traffic.
    pub fn halo_rows_in(&self, field: &ReceptiveField) -> usize {
        let mut union: Vec<NodeId> = field.needed.concat();
        union.sort_unstable();
        union.dedup();
        union
            .into_iter()
            .filter(|&local| self.is_halo[local as usize])
            .count()
    }

    /// Refreshes resident rows in place — the membership-preserving fast
    /// path of the halo exchange, `O(dirty)` instead of a full re-extract.
    /// Sound only when the delta changed no in-neighbor *set* inside this
    /// shard's locals (value-only GCN renormalization, feature re-tiers):
    /// membership is a function of in-neighbor sets, so it cannot have
    /// moved. `adjacency_dirty` rows are re-sliced from the global
    /// adjacency; `feature_dirty` *halo* rows are re-copied from the
    /// global packed store (owned rows need nothing — the shard reads them
    /// from that store directly). Refreshed halo rows count as
    /// halo-exchange fetches.
    pub fn refresh_rows(
        &mut self,
        global_adjacency: &DynAdjacency,
        packed: &TierPackedFeatures,
        adjacency_dirty: &[NodeId],
        feature_dirty: &[NodeId],
    ) -> ShardRefresh {
        let mut fetched_halo: Vec<NodeId> = Vec::new();
        for &v in adjacency_dirty {
            if self.adjacency.refresh_row(global_adjacency, v) && self.in_halo(v) {
                fetched_halo.push(v);
            }
        }
        for &v in feature_dirty {
            if let Some(local) = self.adjacency.local_of(v) {
                let slot = self.halo_slot[local as usize];
                if slot != OWNED {
                    self.halo_rows
                        .set_copy(slot as usize, packed.plane_row(v as usize));
                    fetched_halo.push(v);
                }
            }
        }
        fetched_halo.sort_unstable();
        fetched_halo.dedup();
        self.halo_fetches += fetched_halo.len() as u64;
        ShardRefresh {
            shard: self.part,
            halo_fetched: fetched_halo.len(),
            rebuilt: false,
        }
    }

    /// Whether `v` is one of this shard's halo copies.
    fn in_halo(&self, v: NodeId) -> bool {
        self.halo.binary_search(&v).is_ok()
    }

    /// Rebuilds this shard from current global state, carrying the
    /// cumulative counters forward and charging the halo exchange for
    /// exactly the rows that are new to the halo or were invalidated by
    /// `dirty` (sorted global ids whose adjacency row or feature row
    /// changed).
    pub fn rebuild(
        &mut self,
        partitioning: &Partitioning,
        graph: &DynamicGraph,
        global_adjacency: &DynAdjacency,
        packed: &TierPackedFeatures,
        hops: usize,
        dirty: &[NodeId],
    ) -> ShardRefresh {
        let fresh = Self::extract(
            self.part,
            partitioning,
            graph,
            global_adjacency,
            packed,
            hops,
        );
        let fetched = fresh
            .halo
            .iter()
            .filter(|&&v| self.halo.binary_search(&v).is_err() || dirty.binary_search(&v).is_ok())
            .count();
        let (halo_fetches, rebuilds) = (self.halo_fetches, self.rebuilds);
        *self = fresh;
        self.halo_fetches = halo_fetches + fetched as u64;
        self.rebuilds = rebuilds + 1;
        ShardRefresh {
            shard: self.part,
            halo_fetched: fetched,
            rebuilt: true,
        }
    }
}

/// Local-id [`PlaneRows`] adapter over a shard's split feature residency:
/// **owned** rows resolve through the slice's id map into the model's
/// global packed store (no per-shard copy exists), while **halo** rows
/// read the shard's own packed copies — the rows the halo exchange
/// maintains. Copies are verbatim ([`TierPackedFeatures::push_copy`]), so
/// shard execution stays bit-exact with the global pass.
pub struct ShardPlaneRows<'a> {
    /// The model's global packed feature store (owned rows).
    pub store: &'a TierPackedFeatures,
    /// The shard whose local ids are being resolved (halo copies + id
    /// map).
    pub shard: &'a ShardState,
}

impl PlaneRows for ShardPlaneRows<'_> {
    fn dim(&self) -> usize {
        self.store.dim()
    }

    fn plane_row(&self, row: usize) -> PlaneRow<'_> {
        let slot = self.shard.halo_slot[row];
        if slot == OWNED {
            self.store
                .plane_row(self.shard.adjacency.global_of(row as u32) as usize)
        } else {
            self.shard.halo_rows.plane_row(slot as usize)
        }
    }
}

/// Analytic MEGA cost estimate for one shard-batch (the ROADMAP's
/// hardware-model feedback, minimal slice): cycles from the accelerator's
/// combination/aggregation engine models, DRAM bytes from the
/// Adaptive-Package compressed feature sizes — no DRAM trace, so the
/// estimate costs microseconds per batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HwEstimate {
    /// Estimated MEGA busy cycles (per layer, the slower of the pipelined
    /// combination/aggregation engines).
    pub cycles: u64,
    /// Estimated DRAM bytes: compressed mixed-precision feature maps,
    /// weights, and the receptive field's adjacency slice.
    pub dram_bytes: u64,
}

/// Estimates MEGA cycles/DRAM for executing `field` (a *local-id*
/// receptive field over `shard`) as one inference over the field's
/// subgraph, with every node at the bitwidth `bits_of` assigns its global
/// id. `input_density` is the dataset's input feature density; hidden
/// layers are assumed half dense (the workload builders' fallback).
pub fn estimate_batch_hw(
    shard: &ShardState,
    field: &ReceptiveField,
    config: &ModelConfig,
    weight_bits: u8,
    input_density: f64,
    bits_of: impl Fn(NodeId) -> u8,
) -> HwEstimate {
    // The field's distinct local nodes, remapped densely for the subgraph.
    let mut nodes: Vec<NodeId> = field.needed.concat();
    nodes.sort_unstable();
    nodes.dedup();
    if nodes.is_empty() {
        return HwEstimate::default();
    }
    let dense_of = |local: NodeId| nodes.binary_search(&local).expect("field node") as u32;

    // Edges: the aggregation rows the pass actually reads (levels >= 1),
    // minus self-loops (the normalized adjacency adds its own).
    let mut agg_rows: Vec<NodeId> = field.needed[1..].concat();
    agg_rows.sort_unstable();
    agg_rows.dedup();
    let mut edges = Vec::new();
    for &v in &agg_rows {
        let dv = dense_of(v);
        for &u in shard.adjacency.row_indices(v as usize) {
            if u != v {
                edges.push((dense_of(u), dv));
            }
        }
    }
    let graph = std::rc::Rc::new(mega_graph::Graph::from_directed_edges(nodes.len(), edges));

    let mut dims = vec![config.in_dim];
    for (_, out) in config.layer_dims() {
        dims.push(out);
    }
    let mut densities = vec![input_density];
    densities.extend(std::iter::repeat_n(0.5, dims.len() - 2));
    let bits: Vec<u8> = nodes
        .iter()
        .map(|&local| bits_of(shard.adjacency.global_of(local)))
        .collect();
    let layer_bits = vec![bits; dims.len() - 1];
    let workload = Workload::mixed(
        "shard-batch",
        "serve",
        graph,
        &dims,
        &densities,
        layer_bits,
        weight_bits,
    );

    let cfg = mega_accel::MegaConfig::default();
    let mut cycles = 0u64;
    let mut dram_bytes = workload.adjacency_bytes();
    for l in 0..workload.layers.len() {
        let comb = mega_accel::combination::cycles(&cfg, &workload, l);
        let agg = mega_accel::aggregation::cycles(&cfg, &workload, l);
        // The two engines pipeline node by node; the slower bounds the
        // layer.
        cycles += comb.max(agg);
        dram_bytes += workload.layers[l].compressed_input_bytes() + workload.weight_bytes(l);
    }
    HwEstimate { cycles, dram_bytes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mega_gnn::AggregatorKind;
    use mega_graph::Graph;

    fn fixture() -> (DynamicGraph, Partitioning, DynAdjacency, TierPackedFeatures) {
        // 0-1-2 in part 0; 3-4-5 in part 1; cross edges 2->3, 5->0.
        let g = Graph::from_directed_edges(6, vec![(0, 1), (1, 2), (3, 4), (4, 5), (2, 3), (5, 0)]);
        let dg = DynamicGraph::from_graph(&g);
        let p = Partitioning::new(vec![0, 0, 0, 1, 1, 1], 2);
        let adj = DynAdjacency::build(&dg, AggregatorKind::GcnSymmetric);
        let mut packed = TierPackedFeatures::new(2);
        for v in 0..6i32 {
            packed.push_row(&[2 * v, 2 * v + 1], 8, 1.0 + v as f32);
        }
        (dg, p, adj, packed)
    }

    fn unpacked(store: &TierPackedFeatures, row: usize) -> (Vec<i32>, f32) {
        let mut levels = vec![0i32; store.dim()];
        store.unpack_row(row, &mut levels);
        (levels, store.plane_row(row).alpha)
    }

    #[test]
    fn extract_copies_only_halo_rows() {
        let (dg, p, adj, packed) = fixture();
        let shard = ShardState::extract(0, &p, &dg, &adj, &packed, 2);
        assert_eq!(shard.owned, vec![0, 1, 2]);
        // 1 hop: 5 (feeds 0); 2 hops: 4 (feeds 5).
        assert_eq!(shard.halo, vec![4, 5]);
        assert_eq!(shard.num_locals(), 5);
        assert!(shard.owns(1) && !shard.owns(4));
        assert!(shard.contains(4) && !shard.contains(3));
        assert_eq!(shard.is_halo, vec![false, false, false, true, true]);
        // Exactly the halo rows were copied; owned rows have no slot.
        assert_eq!(shard.halo_rows.len(), 2);
        for local in 0..shard.num_locals() {
            assert_eq!(shard.halo_slot[local] == OWNED, !shard.is_halo[local]);
        }
        // The copies are bit-exact with the global store.
        let local_5 = shard.adjacency.local_of(5).unwrap() as usize;
        let slot = shard.halo_slot[local_5] as usize;
        assert_eq!(unpacked(&shard.halo_rows, slot), unpacked(&packed, 5));
    }

    #[test]
    fn plane_rows_route_owned_to_store_and_halo_to_copies() {
        let (dg, p, adj, packed) = fixture();
        let shard = ShardState::extract(0, &p, &dg, &adj, &packed, 2);
        let rows = ShardPlaneRows {
            store: &packed,
            shard: &shard,
        };
        assert_eq!(rows.dim(), 2);
        for local in 0..shard.num_locals() {
            let global = shard.adjacency.global_of(local as u32) as usize;
            let got = rows.plane_row(local);
            let want = packed.plane_row(global);
            assert_eq!(got.words, want.words, "row {global} words differ");
            assert_eq!(got.bits, want.bits);
            assert_eq!(got.alpha, want.alpha);
        }
    }

    #[test]
    fn rebuild_charges_only_new_or_dirty_halo_rows() {
        let (mut dg, mut p, mut adj, mut packed) = fixture();
        let mut shard = ShardState::extract(0, &p, &dg, &adj, &packed, 2);
        // Wire 3 -> 1: shard 0's halo gains 3 (and keeps 4, 5 untouched).
        let mut delta = mega_graph::GraphDelta::new();
        delta.insert_edge(3, 1);
        let effect = dg.apply(&delta).unwrap();
        let dirty = adj.apply_dirty(&dg, &effect);
        let refresh = shard.rebuild(&p, &dg, &adj, &packed, 2, &dirty);
        assert!(refresh.rebuilt);
        assert_eq!(shard.halo, vec![3, 4, 5]);
        // Fetched: 3 is new; 4 and 5 were clean copies.
        assert_eq!(refresh.halo_fetched, 1);
        assert_eq!(shard.halo_fetches, 1);
        assert_eq!(shard.rebuilds, 1);

        // A feature-only invalidation of an existing halo row re-fetches
        // exactly that row, and the copy picks up the rewrite.
        packed.set_row(5, &[99, 11], 8, 7.5);
        let _ = &mut p; // partitioning unchanged
        let refresh = shard.rebuild(&p, &dg, &adj, &packed, 2, &[5]);
        assert_eq!(refresh.halo_fetched, 1);
        let local_5 = shard.adjacency.local_of(5).unwrap() as usize;
        let slot = shard.halo_slot[local_5] as usize;
        assert_eq!(unpacked(&shard.halo_rows, slot), (vec![99, 11], 7.5));
        assert_eq!(shard.halo_fetches, 2);
    }

    #[test]
    fn refresh_rows_updates_halo_copies_in_place() {
        let (dg, p, adj, mut packed) = fixture();
        let mut shard = ShardState::extract(0, &p, &dg, &adj, &packed, 2);
        // A value-only rewrite of halo row 5 and owned row 1: only the
        // halo copy is re-fetched (owned rows read the global store).
        packed.set_row(5, &[42, 43], 8, 2.5);
        packed.set_row(1, &[7, 8], 8, 3.0);
        let refresh = shard.refresh_rows(&adj, &packed, &[], &[1, 5]);
        assert!(!refresh.rebuilt);
        assert_eq!(refresh.halo_fetched, 1);
        assert_eq!(shard.halo_fetches, 1);
        let local_5 = shard.adjacency.local_of(5).unwrap() as usize;
        let slot = shard.halo_slot[local_5] as usize;
        assert_eq!(unpacked(&shard.halo_rows, slot), (vec![42, 43], 2.5));
        // The adapter serves both rewrites.
        let rows = ShardPlaneRows {
            store: &packed,
            shard: &shard,
        };
        let local_1 = shard.adjacency.local_of(1).unwrap() as usize;
        assert_eq!(rows.plane_row(local_1).alpha, 3.0);
        assert_eq!(rows.plane_row(local_5).alpha, 2.5);
    }

    #[test]
    fn batch_estimate_scales_with_bits() {
        let (dg, p, adj, packed) = fixture();
        let shard = ShardState::extract(0, &p, &dg, &adj, &packed, 2);
        let config = ModelConfig {
            kind: mega_gnn::GnnKind::Gcn,
            in_dim: 16,
            hidden: 8,
            out_dim: 4,
            layers: 2,
            seed: 7,
        };
        let targets = vec![shard.adjacency.local_of(0).unwrap()];
        let field = ReceptiveField::expand(&shard.adjacency, &targets, 2);
        let low = estimate_batch_hw(&shard, &field, &config, 4, 0.5, |_| 2);
        let high = estimate_batch_hw(&shard, &field, &config, 4, 0.5, |_| 8);
        assert!(low.cycles > 0 && low.dram_bytes > 0);
        assert!(high.cycles > low.cycles, "more bits, more bit-serial beats");
        assert!(high.dram_bytes > low.dram_bytes);
    }
}
