//! The serving forward pass: tier-contiguous bit-plane kernels over a
//! target set's receptive field.
//!
//! An `L`-layer GNN only needs the `L`-hop in-neighborhood of a node to
//! classify it, so a request pays for its [`ReceptiveField`], not for the
//! whole graph. Within that field:
//!
//! * **Combination in the integer domain.** Activation rows are quantized
//!   once per row (`α = max|x|/qmax`, at the node's degree-assigned
//!   bitwidth), the dot products run over integer levels, and a *single*
//!   dequantize per output element applies `α_x · α_w`. In
//!   [`KernelMode::Blocked`] (production) same-tier rows are gathered into
//!   register-blocked M-lane tiles, and each weight row streams **once per
//!   block**: ≤ 2 bit rows through the plane walk
//!   ([`mega_format::planes::ternary_dot_multi`]) straight off the packed
//!   words, 3+ bit rows through the sparse level kernel
//!   ([`mega_format::planes::levels_dot_multi`]). [`KernelMode::Scalar`]
//!   computes the *same* exact `i64` sums with a plain `i64`
//!   multiply-accumulate over the same row-major weights; it is the oracle
//!   the blocked kernels are tested against.
//! * **Aggregation stays `f32` in CSR row order** (ascending source ids,
//!   the self-loop in its sorted place), a fixed per-node order,
//!   so a node's logits are identical whichever other nodes share its batch.
//! * **Chunk pipeline.** A level is combined [`CHUNK_ROWS`] rows at a time,
//!   and each chunk is aggregated into the next level before the following
//!   chunk is combined, the way MEGA's combination and aggregation engines
//!   pipeline through bounded buffers. Every destination keeps a cursor
//!   into its adjacency row; since level lists and adjacency rows both
//!   ascend, the cursors visit sources in CSR row order, so the chunking
//!   changes no logit bit.
//! * **Flat arenas.** All scratch (activation slabs, the combination
//!   chunk, lane tiles) lives in one reusable [`KernelArena`] owned by the
//!   worker thread; steady-state batches allocate nothing. Only the
//!   aggregated activations (`needed[l+1]` × width) and the destinations'
//!   cursors scale with the field; nothing scales with the graph.
//!
//! [`forward_targets_packed_with_field`] is the one entry point. It runs in
//! global node ids over any [`AdjacencyView`], with the weights, biases and
//! shape of one [`PackedGnn`]. Input rows arrive packed at rest in a
//! [`TierPackedFeatures`] store, so layer 0 never materializes dequantized
//! features at all.

use mega_format::planes::{
    self, levels_dot_multi, pack_levels, quantize_level, row_alpha, ternary_dot_multi,
    unpack_levels, MAX_MULTI_ROWS, MAX_PLANE_BITS,
};
use mega_format::TierPackedFeatures;
use mega_graph::NodeId;
use mega_tensor::Matrix;

use crate::adjacency::AdjacencyView;
use crate::infer::ReceptiveField;
use crate::model::{Gnn, ModelConfig};

/// Which dot-product engine executes combinations. Both modes share
/// quantization, aggregation, and dequantization code, and compute
/// identical integer sums.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Scalar integer reference (a plain `i64` multiply-accumulate of each
    /// level row against the row-major weights, one row at a time): the
    /// test oracle for [`KernelMode::Blocked`].
    Scalar,
    /// Register-blocked multi-row kernels: each level's same-tier rows are
    /// gathered into M-lane tiles (`M ≤ MAX_MULTI_ROWS`) and every weight
    /// row streams **once per block** instead of once per row
    /// ([`mega_format::planes::ternary_dot_multi`] /
    /// [`mega_format::planes::levels_dot_multi`]). Remainder chunks take
    /// the same entry points with fewer lanes. Bit-exact with `Scalar`:
    /// every lane's `i32` block sums are exact and widen to `i64`.
    Blocked,
}

/// One layer in kernel form: its weights quantized once at build time to
/// row-major integer levels (the blocked kernels stream whole weight rows
/// per non-zero activation), plus its bias row.
pub struct QuantizedLayer {
    /// Per-layer symmetric weight scale (`max|w| / qmax`; 0 for an
    /// all-zero layer).
    pub alpha: f32,
    /// Weight bitwidth.
    pub bits: u8,
    in_dim: usize,
    out_dim: usize,
    /// Row-major levels: `levels[j * out_dim + c]`.
    levels: Vec<i16>,
    bias: Vec<f32>,
}

impl QuantizedLayer {
    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The row-major level matrix (`[j * out_dim + c]`) the kernels
    /// stream.
    pub fn weight_rows(&self) -> &[i16] {
        &self.levels
    }

    /// The bias row (`out_dim` values) added to every combined row.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }
}

/// The served model: its configuration plus every layer in kernel form.
/// The integer levels are the only copy of the weights the engine keeps.
pub struct PackedGnn {
    config: ModelConfig,
    layers: Vec<QuantizedLayer>,
}

impl PackedGnn {
    /// Quantizes `trained`'s weights at `weight_bits`, one symmetric scale
    /// per layer matrix (`α = max|w| / qmax`), and copies its configuration
    /// and biases. `level · α` is the fake-quantized weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight_bits` is outside the plane range `1..=8`.
    pub fn from_model(trained: &Gnn, weight_bits: u8) -> Self {
        // Also the overflow contract of the packed kernels: blocked i32
        // accumulation is exact only with both operands ≤ MAX_PLANE_BITS.
        assert!(
            (1..=MAX_PLANE_BITS).contains(&weight_bits),
            "weight bitwidth {weight_bits} outside the plane range"
        );
        let layers = trained
            .weights()
            .iter()
            .zip(trained.biases())
            .map(|(w, b)| {
                let (in_dim, out_dim) = w.shape();
                let data = w.as_slice();
                let max_abs = data.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
                let alpha = row_alpha(max_abs, weight_bits);
                let levels = if alpha == 0.0 {
                    vec![0; data.len()]
                } else {
                    data.iter()
                        .map(|&x| quantize_level(x, alpha, weight_bits) as i16)
                        .collect()
                };
                QuantizedLayer {
                    alpha,
                    bits: weight_bits,
                    in_dim,
                    out_dim,
                    levels,
                    bias: b.row(0).to_vec(),
                }
            })
            .collect();
        Self {
            config: trained.config().clone(),
            layers,
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Per-layer kernel weights and biases.
    pub fn layers(&self) -> &[QuantizedLayer] {
        &self.layers
    }
}

/// Rows of a level that one combination chunk holds. The forward pass
/// combines a level `CHUNK_ROWS` rows at a time and aggregates each chunk
/// before it combines the next, so the combination slab and its per-row
/// staging stay this size whatever the receptive field's.
pub const CHUNK_ROWS: usize = 256;

/// Reusable scratch for the kernel forward pass. One arena per worker
/// thread serves every batch, and steady-state batches allocate nothing.
///
/// Capacities persist across batches, so what a hub target leaves behind
/// stays reserved. Only three buffers scale with the field: `h`/`next` (a
/// level's aggregated activations, `needed[l+1]` × width) and `cursor`
/// (one per destination). None scales with the graph. The combination
/// slab, its quantization staging and the tier groups are
/// [`CHUNK_ROWS`]-sized; [`KernelArena::scratch_bytes`] reports the total.
#[derive(Default)]
pub struct KernelArena {
    h: Vec<f32>,
    next: Vec<f32>,
    /// One chunk's combined rows (`CHUNK_ROWS` × width at most).
    combined: Vec<f32>,
    levels: Vec<i32>,
    /// One per destination of the current level: how far the chunks so
    /// far have walked its adjacency row.
    cursor: Vec<Cursor>,
    // Blocked-dispatch staging for one chunk: per-row quantization
    // metadata, the tier group lists, and the gathered lane tiles the
    // multi-row kernels consume. `Scalar` reuses `tile_dots` for one
    // row's dots.
    row_scale: Vec<f32>,
    row_qalpha: Vec<f32>,
    row_qbits: Vec<u8>,
    ternary_rows: Vec<u32>,
    levels_rows: Vec<u32>,
    tile_levels: Vec<i32>,
    tile_words: Vec<u64>,
    tile_acc: Vec<i32>,
    tile_dots: Vec<i64>,
}

/// A destination's progress through its adjacency row across the chunks
/// of a level.
#[derive(Clone, Copy)]
struct Cursor {
    /// Sources summed so far: the row index of the next one.
    done: u32,
    /// The next source's node id, `NodeId::MAX` once the row is done. A
    /// chunk skips the destination while this is past its last node, so a
    /// level of `c` chunks costs `c` compares per destination, not `c`
    /// adjacency-row lookups.
    next: NodeId,
}

impl KernelArena {
    /// The summed capacity of every buffer, in bytes: what this arena keeps
    /// reserved between batches.
    pub fn scratch_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        bytes(&self.h)
            + bytes(&self.next)
            + bytes(&self.combined)
            + bytes(&self.levels)
            + bytes(&self.cursor)
            + bytes(&self.row_scale)
            + bytes(&self.row_qalpha)
            + bytes(&self.row_qbits)
            + bytes(&self.ternary_rows)
            + bytes(&self.levels_rows)
            + bytes(&self.tile_levels)
            + bytes(&self.tile_words)
            + bytes(&self.tile_acc)
            + bytes(&self.tile_dots)
    }

    /// Combination of one chunk: the level rows at positions
    /// `base..base + chunk.len()` (nodes `chunk`) into
    /// `combined[..chunk.len() * w_out]`, as integer dots plus one
    /// dequantize per output element. Layer 0 (`first`) reads packed input
    /// rows; deeper layers quantize their `h` rows at `bits_of(node)`.
    #[allow(clippy::too_many_arguments)]
    fn combine_chunk(
        &mut self,
        first: bool,
        layer: &QuantizedLayer,
        rows: &TierPackedFeatures,
        bits_of: &mut dyn FnMut(NodeId) -> u8,
        mode: KernelMode,
        chunk: &[NodeId],
        base: usize,
    ) {
        let (w_in, w_out) = (layer.in_dim, layer.out_dim);
        let bias = layer.bias();
        self.combined.clear();
        self.combined.resize(chunk.len() * w_out, 0.0);
        self.levels.resize(w_in, 0);
        match mode {
            KernelMode::Blocked => {
                // Sweep 1 — classify every row into its tier group and
                // stage the quantization metadata the gather needs. Hidden
                // rows whose activations are all zero short-circuit to the
                // bias row here and join no group.
                self.ternary_rows.clear();
                self.levels_rows.clear();
                self.row_scale.clear();
                self.row_scale.resize(chunk.len(), 0.0);
                self.row_qalpha.clear();
                self.row_qalpha.resize(chunk.len(), 0.0);
                self.row_qbits.clear();
                self.row_qbits.resize(chunk.len(), 0);
                for (i, &u) in chunk.iter().enumerate() {
                    if first {
                        let row = rows.plane_row(u as usize);
                        self.row_scale[i] = row.alpha * layer.alpha;
                        if row.bits <= 2 {
                            self.ternary_rows.push(i as u32);
                        } else {
                            self.levels_rows.push(i as u32);
                        }
                    } else {
                        let hrow = &self.h[(base + i) * w_in..][..w_in];
                        let bits = bits_of(u);
                        let max_abs = hrow.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
                        if max_abs == 0.0 {
                            self.combined[i * w_out..][..w_out].copy_from_slice(bias);
                            continue;
                        }
                        let alpha = row_alpha(max_abs, bits);
                        self.row_qalpha[i] = alpha;
                        self.row_qbits[i] = bits;
                        self.row_scale[i] = alpha * layer.alpha;
                        if bits <= 2 {
                            self.ternary_rows.push(i as u32);
                        } else {
                            self.levels_rows.push(i as u32);
                        }
                    }
                }

                // Sweep 2 — dispatch each tier group in M-lane blocks
                // through one weight-tile pass per block. Remainder blocks
                // reuse the same entry points with fewer lanes.
                let span = 2 * planes::words_for(w_in);
                self.tile_words.resize(MAX_MULTI_ROWS * span, 0);
                self.tile_levels.resize(MAX_MULTI_ROWS * w_in, 0);
                self.tile_acc.resize(2 * MAX_MULTI_ROWS * w_out, 0);
                self.tile_dots.resize(MAX_MULTI_ROWS * w_out, 0);
                for block in self.ternary_rows.chunks(MAX_MULTI_ROWS) {
                    let m = block.len();
                    for (r, &iu) in block.iter().enumerate() {
                        let i = iu as usize;
                        let lane = &mut self.tile_words[r * span..][..span];
                        if first {
                            // ≤ 2 bit rows are exactly two planes at rest,
                            // so the packed words splice straight into the
                            // lane.
                            lane.copy_from_slice(rows.plane_row(chunk[i] as usize).words);
                        } else {
                            let hrow = &self.h[(base + i) * w_in..][..w_in];
                            let (alpha, bits) = (self.row_qalpha[i], self.row_qbits[i]);
                            for (slot, &x) in self.levels.iter_mut().zip(hrow) {
                                *slot = quantize_level(x, alpha, bits);
                            }
                            pack_levels(&self.levels, bits, lane);
                        }
                    }
                    ternary_dot_multi(
                        &self.tile_words[..m * span],
                        m,
                        w_in,
                        layer.weight_rows(),
                        w_out,
                        &mut self.tile_acc[..2 * m * w_out],
                        &mut self.tile_dots[..m * w_out],
                    );
                    scatter_tile(
                        block,
                        &self.tile_dots,
                        &self.row_scale,
                        bias,
                        w_out,
                        &mut self.combined,
                    );
                }
                for block in self.levels_rows.chunks(MAX_MULTI_ROWS) {
                    let m = block.len();
                    for (r, &iu) in block.iter().enumerate() {
                        let i = iu as usize;
                        let lane = &mut self.tile_levels[r * w_in..][..w_in];
                        if first {
                            let row = rows.plane_row(chunk[i] as usize);
                            unpack_levels(row.words, row.bits, w_in, lane);
                        } else {
                            let hrow = &self.h[(base + i) * w_in..][..w_in];
                            let (alpha, bits) = (self.row_qalpha[i], self.row_qbits[i]);
                            for (slot, &x) in lane.iter_mut().zip(hrow) {
                                *slot = quantize_level(x, alpha, bits);
                            }
                        }
                    }
                    levels_dot_multi(
                        &self.tile_levels[..m * w_in],
                        m,
                        layer.weight_rows(),
                        w_out,
                        &mut self.tile_acc[..m * w_out],
                        &mut self.tile_dots[..m * w_out],
                    );
                    scatter_tile(
                        block,
                        &self.tile_dots,
                        &self.row_scale,
                        bias,
                        w_out,
                        &mut self.combined,
                    );
                }
            }
            KernelMode::Scalar => {
                self.tile_dots.resize(w_out, 0);
                for (i, &u) in chunk.iter().enumerate() {
                    let scale = if first {
                        let row = rows.plane_row(u as usize);
                        unpack_levels(row.words, row.bits, w_in, &mut self.levels);
                        row.alpha * layer.alpha
                    } else {
                        let hrow = &self.h[(base + i) * w_in..][..w_in];
                        let bits = bits_of(u);
                        let max_abs = hrow.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
                        if max_abs == 0.0 {
                            self.combined[i * w_out..][..w_out].copy_from_slice(bias);
                            continue;
                        }
                        let alpha = row_alpha(max_abs, bits);
                        for (slot, &x) in self.levels.iter_mut().zip(hrow) {
                            *slot = quantize_level(x, alpha, bits);
                        }
                        alpha * layer.alpha
                    };
                    let dots = &mut self.tile_dots[..w_out];
                    dots.fill(0);
                    for (j, &xj) in self.levels.iter().enumerate() {
                        if xj == 0 {
                            continue;
                        }
                        let wrow = &layer.levels[j * w_out..][..w_out];
                        for (d, &wv) in dots.iter_mut().zip(wrow) {
                            *d += xj as i64 * wv as i64;
                        }
                    }
                    let out_row = &mut self.combined[i * w_out..][..w_out];
                    for ((out, &dot), &b) in out_row.iter_mut().zip(dots.iter()).zip(bias) {
                        *out = dot as f32 * scale + b;
                    }
                }
            }
        }
    }

    /// Aggregation of one combined chunk (level nodes `chunk`) into
    /// `next`: every destination's cursor advances over its sources up to
    /// the chunk's last node, adding `a · s` in `f32`. Both `needed[l]` and
    /// every adjacency row ascend, so a source not yet summed lies in this
    /// chunk exactly when it is at most the chunk's last node, and a search
    /// of the chunk from the previous source's slot finds it. Across the
    /// chunks each destination still sums its sources in CSR row order, one
    /// operation at a time, exactly as one pass over a whole-level slab
    /// would.
    fn aggregate_chunk<A: AdjacencyView + ?Sized>(
        &mut self,
        adjacency: &A,
        chunk: &[NodeId],
        out_nodes: &[NodeId],
        w_out: usize,
    ) {
        let last = chunk[chunk.len() - 1];
        for (vi, &v) in out_nodes.iter().enumerate() {
            let Cursor { done, next } = self.cursor[vi];
            if next > last {
                continue;
            }
            let cols = adjacency.row(v as usize);
            let weights = adjacency.row_weights(v as usize);
            let row = &mut self.next[vi * w_out..][..w_out];
            let (mut k, mut u, mut i) = (done as usize, next, 0);
            while u <= last {
                i += chunk[i..].partition_point(|&x| x < u);
                debug_assert_eq!(
                    chunk.get(i),
                    Some(&u),
                    "aggregation source is in the receptive field"
                );
                let src = &self.combined[i * w_out..][..w_out];
                let a = weights.at(k, u);
                for (dst, &s) in row.iter_mut().zip(src) {
                    *dst += a * s;
                }
                k += 1;
                u = cols.get(k).unwrap_or(NodeId::MAX);
            }
            self.cursor[vi] = Cursor {
                done: k as u32,
                next: u,
            };
        }
    }
}

/// Dequantizes one M-block's lane-major dot tile into the combined rows:
/// `combined[i·w_out + c] = dots[r·w_out + c] · scale_i + bias[c]` — the
/// identical per-element transform the scalar path applies.
fn scatter_tile(
    block: &[u32],
    tile_dots: &[i64],
    row_scale: &[f32],
    bias: &[f32],
    w_out: usize,
    combined: &mut [f32],
) {
    for (r, &iu) in block.iter().enumerate() {
        let i = iu as usize;
        let scale = row_scale[i];
        let dots = &tile_dots[r * w_out..][..w_out];
        let out_row = &mut combined[i * w_out..][..w_out];
        for (c, out) in out_row.iter_mut().enumerate() {
            *out = dots[c] as f32 * scale + bias[c];
        }
    }
}

/// Logits for `targets` (row `i` belongs to `targets[i]`, duplicates
/// allowed) over their receptive field, plus the field itself. Combination
/// runs in the integer domain per `mode`, and every hidden activation row
/// is quantized at `bits_of(node)` as it enters the next combination — the
/// degree-aware transform of the serving policy. Each level is combined
/// and aggregated [`CHUNK_ROWS`] rows at a time.
///
/// # Panics
///
/// Panics if `rows` mismatches the model's input dimension or a target is
/// out of range.
pub fn forward_targets_packed_with_field<A>(
    packed: &PackedGnn,
    rows: &TierPackedFeatures,
    adjacency: &A,
    targets: &[NodeId],
    bits_of: &mut dyn FnMut(NodeId) -> u8,
    mode: KernelMode,
    arena: &mut KernelArena,
) -> (Matrix, ReceptiveField)
where
    A: AdjacencyView + ?Sized,
{
    let n = adjacency.rows();
    let layers = packed.layers.len();
    assert_eq!(
        rows.dim(),
        packed.layers[0].in_dim,
        "packed rows mismatch the model input dimension"
    );
    for &t in targets {
        assert!((t as usize) < n, "target {t} out of range ({n} nodes)");
    }
    let field = ReceptiveField::expand(adjacency, targets, layers);

    // `arena.h` holds level-`l` input activations, flat, indexed by
    // position in `field.needed[l]` (level 0 reads packed rows instead).
    arena.h.clear();
    let mut out_dim = 0;
    for l in 0..layers {
        let layer = &packed.layers[l];
        let w_out = layer.out_dim;
        out_dim = w_out;
        let level_nodes = &field.needed[l];
        let out_nodes = &field.needed[l + 1];

        // Every cursor starts at its row's first source. Each source is in
        // `level_nodes` by the `ReceptiveField` invariant that every
        // aggregation source appears in the previous level
        // (property-tested in `tests/receptive_field.rs`).
        arena.next.clear();
        arena.next.resize(out_nodes.len() * w_out, 0.0);
        arena.cursor.clear();
        arena.cursor.extend(out_nodes.iter().map(|&v| Cursor {
            done: 0,
            next: adjacency.row(v as usize).get(0).unwrap_or(NodeId::MAX),
        }));
        for (c, chunk) in level_nodes.chunks(CHUNK_ROWS).enumerate() {
            let base = c * CHUNK_ROWS;
            arena.combine_chunk(l == 0, layer, rows, bits_of, mode, chunk, base);
            arena.aggregate_chunk(adjacency, chunk, out_nodes, w_out);
        }
        if l + 1 < layers {
            for x in arena.next.iter_mut() {
                *x = x.max(0.0);
            }
        }
        std::mem::swap(&mut arena.h, &mut arena.next);
    }

    let final_nodes = &field.needed[layers];
    let mut data = Vec::with_capacity(targets.len() * out_dim);
    for &t in targets {
        let pos = final_nodes
            .binary_search(&t)
            .expect("targets are the final level of their field");
        data.extend_from_slice(&arena.h[pos * out_dim..][..out_dim]);
    }
    (Matrix::from_vec(targets.len(), out_dim, data), field)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::{build_adjacency, DynAdjacency};
    use crate::model::{GnnKind, ModelConfig};
    use mega_format::TierPackedFeatures;
    use mega_graph::datasets::DatasetSpec;
    use mega_graph::DynamicGraph;
    use std::sync::Arc;

    /// Packs `nodes` raw feature rows (`fill(v, row)`) at per-node
    /// bitwidths.
    fn pack_rows(dim: usize, bits: &[u8], fill: impl Fn(usize, &mut [f32])) -> TierPackedFeatures {
        let mut store = TierPackedFeatures::new(dim);
        let mut row = vec![0.0f32; dim];
        let mut levels = vec![0i32; dim];
        for (v, &row_bits) in bits.iter().enumerate() {
            fill(v, &mut row);
            let max_abs = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            let alpha = row_alpha(max_abs, row_bits);
            for (slot, &x) in levels.iter_mut().zip(&row) {
                *slot = if alpha == 0.0 {
                    0
                } else {
                    quantize_level(x, alpha, row_bits)
                };
            }
            store.push_row(&levels, row_bits, alpha);
        }
        store
    }

    /// The degree tiers the tests serve at.
    fn tier_bits(in_degree: usize) -> u8 {
        match in_degree {
            0..=2 => 2,
            3..=8 => 3,
            9..=32 => 4,
            _ => 5,
        }
    }

    /// A 4-bit kernel model for `cfg`.
    fn quantized_model(cfg: ModelConfig) -> PackedGnn {
        PackedGnn::from_model(&Gnn::new(cfg), 4)
    }

    /// A dataset's model, packed at its degree tiers.
    fn setup_dataset(
        kind: GnnKind,
        spec: DatasetSpec,
    ) -> (mega_graph::Dataset, PackedGnn, TierPackedFeatures) {
        let d = spec.materialize();
        let packed = quantized_model(ModelConfig::for_dataset(kind, &d));
        let bits: Vec<u8> = (0..d.graph.num_nodes())
            .map(|v| tier_bits(d.graph.in_degree(v)))
            .collect();
        let store = pack_rows(d.spec.feature_dim, &bits, |v, row| d.fill_row(v, row));
        (d, packed, store)
    }

    fn setup(kind: GnnKind) -> (mega_graph::Dataset, PackedGnn, TierPackedFeatures) {
        setup_dataset(kind, DatasetSpec::cora().scaled(0.05).with_feature_dim(48))
    }

    /// Logits of the global pass in `mode`, on a fresh arena.
    fn logits(
        packed: &PackedGnn,
        rows: &TierPackedFeatures,
        adj: &impl AdjacencyView,
        targets: &[NodeId],
        bits_of: &mut dyn FnMut(NodeId) -> u8,
        mode: KernelMode,
    ) -> Matrix {
        let mut arena = KernelArena::default();
        forward_targets_packed_with_field(packed, rows, adj, targets, bits_of, mode, &mut arena).0
    }

    fn assert_bit_exact(a: &Matrix, b: &Matrix, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}");
        for r in 0..a.rows() {
            for c in 0..a.cols() {
                assert_eq!(
                    a.get(r, c).to_bits(),
                    b.get(r, c).to_bits(),
                    "{what}: row {r} class {c}"
                );
            }
        }
    }

    #[test]
    fn from_model_keeps_the_fake_quantized_weights_and_source_biases() {
        for kind in [GnnKind::Gcn, GnnKind::Gin, GnnKind::GraphSage] {
            let trained = Gnn::new(ModelConfig {
                kind,
                in_dim: 48,
                hidden: kind.default_hidden(),
                out_dim: 8,
                layers: 2,
                seed: 11,
            });
            let bits = 4;
            let packed = PackedGnn::from_model(&trained, bits);
            assert_eq!(
                format!("{:?}", packed.config()),
                format!("{:?}", trained.config())
            );
            assert_eq!(packed.layers().len(), trained.weights().len());
            for (l, layer) in packed.layers().iter().enumerate() {
                let w = &trained.weights()[l];
                assert_eq!((layer.in_dim(), layer.out_dim()), w.shape());
                assert_eq!(layer.bits, bits);
                // The fake-quantized source weight is `level · α` at
                // `α = max|w| / qmax`.
                let max_abs = w.as_slice().iter().fold(0.0f32, |m, &x| m.max(x.abs()));
                let alpha = max_abs / planes::qmax_level(bits) as f32;
                assert_eq!(layer.alpha.to_bits(), alpha.to_bits(), "layer {l} scale");
                for (k, (&level, &x)) in layer.weight_rows().iter().zip(w.as_slice()).enumerate() {
                    let fake = quantize_level(x, alpha, bits) as f32 * alpha;
                    assert_eq!(
                        (level as f32 * layer.alpha).to_bits(),
                        fake.to_bits(),
                        "{kind:?} layer {l} weight {k}"
                    );
                }
                let bias = trained.biases()[l].row(0);
                assert_eq!(layer.bias().len(), bias.len());
                for (a, b) in layer.bias().iter().zip(bias) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{kind:?} layer {l} bias");
                }
            }
        }
    }

    #[test]
    fn blocked_mode_is_bit_exact_with_scalar_mode() {
        for kind in [GnnKind::Gcn, GnnKind::Gin, GnnKind::GraphSage] {
            let (d, packed, store) = setup(kind);
            let adj = build_adjacency(&d.graph, kind.aggregator(1));
            let targets: Vec<NodeId> = (0..d.graph.num_nodes() as NodeId).step_by(7).collect();
            let mut bits_of = |v: NodeId| tier_bits(d.graph.in_degree(v as usize));
            let scalar = logits(
                &packed,
                &store,
                adj.as_ref(),
                &targets,
                &mut bits_of,
                KernelMode::Scalar,
            );
            let blocked = logits(
                &packed,
                &store,
                adj.as_ref(),
                &targets,
                &mut bits_of,
                KernelMode::Blocked,
            );
            assert_bit_exact(&scalar, &blocked, &format!("{kind:?}"));
        }
    }

    #[test]
    fn blocked_mode_handles_every_remainder_width() {
        // Batch sizes that leave 1..=7-row remainders after chunking at
        // MAX_MULTI_ROWS, including single-row batches (m == 1 blocks).
        let (d, packed, store) = setup(GnnKind::Gcn);
        let adj = build_adjacency(&d.graph, GnnKind::Gcn.aggregator(1));
        let mut bits_of = |v: NodeId| if v.is_multiple_of(3) { 2u8 } else { 4 };
        for take in [1usize, 3, 4, 8, 9, 11] {
            let targets: Vec<NodeId> = (0..take as NodeId).collect();
            let scalar = logits(
                &packed,
                &store,
                adj.as_ref(),
                &targets,
                &mut bits_of,
                KernelMode::Scalar,
            );
            let blocked = logits(
                &packed,
                &store,
                adj.as_ref(),
                &targets,
                &mut bits_of,
                KernelMode::Blocked,
            );
            assert_bit_exact(&scalar, &blocked, &format!("batch of {take}"));
        }
    }

    #[test]
    fn kernel_pass_is_batch_invariant() {
        let (d, packed, store) = setup(GnnKind::Gcn);
        let adj = build_adjacency(&d.graph, GnnKind::Gcn.aggregator(1));
        let mut bits_of = |_v: NodeId| 4u8;
        let solo = logits(
            &packed,
            &store,
            adj.as_ref(),
            &[11],
            &mut bits_of,
            KernelMode::Blocked,
        );
        let grouped = logits(
            &packed,
            &store,
            adj.as_ref(),
            &[4, 11, 19, 2],
            &mut bits_of,
            KernelMode::Blocked,
        );
        for c in 0..solo.cols() {
            assert_eq!(solo.get(0, c).to_bits(), grouped.get(1, c).to_bits());
        }
    }

    /// The whole-level reference for the aggregation order: combines every
    /// row of a level into one slab with scalar integer dots, then pulls
    /// each destination's sources in CSR row order (found by binary search,
    /// not through the kernel's chunk searches or cursors).
    fn whole_level_logits(
        packed: &PackedGnn,
        rows: &TierPackedFeatures,
        adj: &impl AdjacencyView,
        targets: &[NodeId],
        bits_of: &mut dyn FnMut(NodeId) -> u8,
    ) -> Matrix {
        let layers = packed.config().layers;
        let field = ReceptiveField::expand(adj, targets, layers);
        let mut h: Vec<f32> = Vec::new();
        let mut out_dim = 0;
        for (l, layer) in packed.layers().iter().enumerate() {
            let (w_in, w_out) = (layer.in_dim(), layer.out_dim());
            out_dim = w_out;
            let bias = layer.bias();
            // Column-major copies of the weights, so each output element
            // is one `dot_levels` call, not the kernels' row-major loops.
            let w = layer.weight_rows();
            let cols: Vec<Vec<i16>> = (0..w_out)
                .map(|c| (0..w_in).map(|j| w[j * w_out + c]).collect())
                .collect();
            let level = &field.needed[l];
            let mut combined = vec![0.0f32; level.len() * w_out];
            let mut levels = vec![0i32; w_in];
            for (i, &u) in level.iter().enumerate() {
                let out = &mut combined[i * w_out..][..w_out];
                let scale = if l == 0 {
                    let row = rows.plane_row(u as usize);
                    unpack_levels(row.words, row.bits, w_in, &mut levels);
                    row.alpha * layer.alpha
                } else {
                    let hrow = &h[i * w_in..][..w_in];
                    let bits = bits_of(u);
                    let max_abs = hrow.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
                    if max_abs == 0.0 {
                        out.copy_from_slice(bias);
                        continue;
                    }
                    let alpha = row_alpha(max_abs, bits);
                    for (slot, &x) in levels.iter_mut().zip(hrow) {
                        *slot = quantize_level(x, alpha, bits);
                    }
                    alpha * layer.alpha
                };
                for (c, o) in out.iter_mut().enumerate() {
                    *o = planes::dot_levels(&levels, &cols[c]) as f32 * scale + bias[c];
                }
            }
            let out_level = &field.needed[l + 1];
            let mut next = vec![0.0f32; out_level.len() * w_out];
            for (vi, &v) in out_level.iter().enumerate() {
                let row = &mut next[vi * w_out..][..w_out];
                let weights = adj.row_weights(v as usize);
                for (k, u) in adj.row(v as usize).iter().enumerate() {
                    let a = weights.at(k, u);
                    let ui = level.binary_search(&u).expect("source in the field");
                    for (dst, &s) in row.iter_mut().zip(&combined[ui * w_out..][..w_out]) {
                        *dst += a * s;
                    }
                }
                if l + 1 < layers {
                    for x in row.iter_mut() {
                        *x = x.max(0.0);
                    }
                }
            }
            h = next;
        }
        let last = &field.needed[layers];
        let mut data = Vec::new();
        for t in targets {
            let pos = last.binary_search(t).expect("targets are the last level");
            data.extend_from_slice(&h[pos * out_dim..][..out_dim]);
        }
        Matrix::from_vec(targets.len(), out_dim, data)
    }

    /// Chunks `needed[0]` spans (the level with the most rows).
    fn chunks_of(adj: &impl AdjacencyView, targets: &[NodeId]) -> usize {
        ReceptiveField::expand(adj, targets, 2).needed[0]
            .len()
            .div_ceil(CHUNK_ROWS)
    }

    /// Both modes on a shared arena against the whole-level reference.
    #[allow(clippy::too_many_arguments)]
    fn assert_matches_whole_level(
        packed: &PackedGnn,
        rows: &TierPackedFeatures,
        adj: &impl AdjacencyView,
        targets: &[NodeId],
        bits_of: &mut dyn FnMut(NodeId) -> u8,
        arena: &mut KernelArena,
        what: &str,
    ) {
        let reference = whole_level_logits(packed, rows, adj, targets, bits_of);
        for mode in [KernelMode::Blocked, KernelMode::Scalar] {
            let (got, _) =
                forward_targets_packed_with_field(packed, rows, adj, targets, bits_of, mode, arena);
            assert_bit_exact(&reference, &got, &format!("{what} {mode:?}"));
        }
    }

    #[test]
    fn chunked_pass_matches_whole_level_aggregation() {
        // One arena across every case and model, so chunk-sized and
        // field-sized buffers are reused at changing widths (GCN/GIN at
        // hidden 128, then SAGE at hidden 256).
        let mut arena = KernelArena::default();
        for kind in [GnnKind::Gcn, GnnKind::Gin, GnnKind::GraphSage] {
            let (d, packed, store) = setup_dataset(kind, DatasetSpec::synth(4000));
            let adj = build_adjacency(&d.graph, kind.aggregator(1));
            let n = d.graph.num_nodes();
            let mut bits_of = |v: NodeId| tier_bits(d.graph.in_degree(v as usize));
            let hub = (0..n).max_by_key(|&v| d.graph.in_degree(v)).unwrap() as NodeId;
            let mixed: Vec<NodeId> = (0..n as NodeId)
                .step_by(n / 16)
                .chain([hub, 3, hub])
                .collect();
            let small = (0..n as NodeId)
                .find(|&v| d.graph.in_degree(v as usize) <= 2)
                .unwrap();

            // GraphSAGE samples 25 neighbours per row, which caps a lone
            // hub's 2-hop field below 3 chunks; the mixed batch spans 4+
            // for every kind.
            let min_hub_chunks = if kind == GnnKind::GraphSage { 1 } else { 4 };
            assert!(
                chunks_of(adj.as_ref(), &[hub]) >= min_hub_chunks,
                "{kind:?} hub"
            );
            assert!(chunks_of(adj.as_ref(), &mixed) >= 4, "{kind:?} mixed");
            assert_eq!(chunks_of(adj.as_ref(), &[small]), 1, "{kind:?} small");
            // The live-graph view merges each self-loop in while reading;
            // the stored CSR holds it as a column. Same sums, same bits.
            let graph = Arc::new(DynamicGraph::from_graph(d.graph.clone()));
            let view = DynAdjacency::build(&graph, kind.aggregator(1));
            for (targets, what) in [
                (vec![hub], "hub"),
                (mixed, "mixed batch"),
                (vec![small], "sub-chunk field"),
            ] {
                let what = format!("{kind:?} {what}");
                assert_matches_whole_level(
                    &packed,
                    &store,
                    adj.as_ref(),
                    &targets,
                    &mut bits_of,
                    &mut arena,
                    &what,
                );
                assert_bit_exact(
                    &logits(
                        &packed,
                        &store,
                        &view,
                        &targets,
                        &mut bits_of,
                        KernelMode::Blocked,
                    ),
                    &logits(
                        &packed,
                        &store,
                        adj.as_ref(),
                        &targets,
                        &mut bits_of,
                        KernelMode::Blocked,
                    ),
                    &format!("{what}: view vs CSR"),
                );
            }
        }
    }

    #[test]
    fn chunked_pass_matches_whole_level_on_exact_chunk_multiples() {
        // A ring: a contiguous run of targets has a contiguous field that
        // grows one node per side per hop (with or without self-loops), so
        // `needed[0]` of targets `4..4 + 2·CHUNK_ROWS - 4` is exactly two
        // chunks for every aggregator.
        const NODES: usize = 3 * CHUNK_ROWS;
        let edges: Vec<(NodeId, NodeId)> = (0..NODES as NodeId)
            .map(|v| (v, (v + 1) % NODES as NodeId))
            .collect();
        let graph = mega_graph::Graph::from_undirected_edges(NODES, edges);
        let bits: Vec<u8> = (0..NODES).map(|v| [2, 3, 5][v % 3]).collect();
        let store = pack_rows(48, &bits, |v, row| {
            for (j, x) in row.iter_mut().enumerate() {
                *x = ((v * 31 + j * 17) % 23) as f32 / 7.0 - 1.5;
            }
        });
        let targets: Vec<NodeId> = (4..(4 + 2 * CHUNK_ROWS - 4) as NodeId).collect();
        let mut arena = KernelArena::default();
        for kind in [GnnKind::Gcn, GnnKind::Gin, GnnKind::GraphSage] {
            let packed = quantized_model(ModelConfig {
                kind,
                in_dim: 48,
                hidden: kind.default_hidden(),
                out_dim: 8,
                layers: 2,
                seed: 7,
            });
            let adj = build_adjacency(&graph, kind.aggregator(1));
            let field = ReceptiveField::expand(adj.as_ref(), &targets, 2);
            assert_eq!(field.needed[0].len(), 2 * CHUNK_ROWS, "{kind:?}");
            assert_matches_whole_level(
                &packed,
                &store,
                adj.as_ref(),
                &targets,
                &mut |v| bits[v as usize],
                &mut arena,
                &format!("{kind:?} ring"),
            );
        }
    }

    #[test]
    fn scratch_stays_chunk_sized_under_a_hub_field() {
        let (d, packed, store) = setup_dataset(GnnKind::Gcn, DatasetSpec::synth(8000));
        let adj = build_adjacency(&d.graph, GnnKind::Gcn.aggregator(1));
        let n = d.graph.num_nodes();
        let hub = (0..n).max_by_key(|&v| d.graph.in_degree(v)).unwrap() as NodeId;
        let mut arena = KernelArena::default();
        let (_, field) = forward_targets_packed_with_field(
            &packed,
            &store,
            adj.as_ref(),
            &[hub],
            &mut |v| tier_bits(d.graph.in_degree(v as usize)),
            KernelMode::Blocked,
            &mut arena,
        );
        assert!(
            field.needed[0].len() >= 8 * CHUNK_ROWS,
            "the hub field spans many chunks"
        );

        // What may scale: per level past the input, `h`/`next` rows plus a
        // cursor each (doubled for amortized Vec growth). Everything else
        // is chunk- or tile-sized. Nothing here grows with the graph or
        // with `needed[0].len() × width`.
        let width = packed.config().hidden.max(packed.config().in_dim);
        let f32s = std::mem::size_of::<f32>();
        let wide_rows = field.needed[1..].iter().map(Vec::len).max().unwrap();
        let bound =
            2 * wide_rows * (2 * width * f32s + 4) + CHUNK_ROWS * (width * f32s + 16) + 64 * 1024;
        assert!(
            arena.scratch_bytes() <= bound,
            "arena holds {} B, bound {bound} B (needed[0] = {} rows × {width})",
            arena.scratch_bytes(),
            field.needed[0].len()
        );
    }
}
