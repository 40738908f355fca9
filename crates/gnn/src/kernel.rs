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
//!   computes the *same* exact `i64` sums with a scalar integer loop; it is
//!   the oracle the blocked kernels are tested against.
//! * **Aggregation stays `f32` in CSR row order**, a fixed per-node order,
//!   so a node's logits are identical whichever other nodes share its batch.
//! * **Flat arenas.** All scratch (activation slabs, level buffers, lane
//!   tiles) lives in one reusable [`KernelArena`] owned by the worker
//!   thread; steady-state batches allocate nothing.
//!
//! [`forward_targets_packed_with_field`] is the one entry point. It runs in
//! global node ids over any [`AdjacencyView`]; the serving engine's shards
//! call it on the model's global adjacency and packed store. Input rows
//! arrive packed at rest through the [`PlaneRows`] trait (implemented by
//! `mega_format::TierPackedFeatures`), so layer 0 never materializes
//! dequantized features at all.

use mega_format::planes::{
    self, levels_dot_multi, pack_levels, quantize_level, row_alpha, ternary_dot_multi,
    unpack_levels, PlaneRows, MAX_MULTI_ROWS, MAX_PLANE_BITS,
};
use mega_graph::NodeId;
use mega_tensor::Matrix;

use crate::adjacency::AdjacencyView;
use crate::infer::ReceptiveField;
use crate::model::Gnn;

/// Which dot-product engine executes combinations. Both modes share
/// quantization, aggregation, and dequantization code, and compute
/// identical integer sums.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Scalar integer reference (`i64` multiply-accumulate over levels):
    /// the test oracle for [`KernelMode::Blocked`].
    Scalar,
    /// Register-blocked multi-row kernels: each level's same-tier rows are
    /// gathered into M-lane tiles (`M ≤ MAX_MULTI_ROWS`) and every weight
    /// row streams **once per block** instead of once per row
    /// ([`mega_format::planes::ternary_dot_multi`] /
    /// [`mega_format::planes::levels_dot_multi`]). Remainder chunks take
    /// the same entry points — an `m == 1` call delegates to the
    /// single-row kernel. Bit-exact with `Scalar`: every lane folds
    /// `i32 → i64` at the same `ACC_BLOCK` boundaries as the single-row
    /// kernels.
    Blocked,
}

/// One layer's weights, quantized once at build time and held in both
/// layouts the modes need: column-major integer levels for the scalar
/// reference and row-major levels for the blocked kernels (which stream
/// whole weight rows per non-zero activation).
pub struct QuantizedLayer {
    /// Per-layer symmetric weight scale (`max|w| / qmax`; 0 for an
    /// all-zero layer).
    pub alpha: f32,
    /// Weight bitwidth.
    pub bits: u8,
    in_dim: usize,
    out_dim: usize,
    /// Column-major levels: `levels[c * in_dim + j]`.
    levels: Vec<i16>,
    /// Row-major levels: `levels_row[j * out_dim + c]`.
    levels_row: Vec<i16>,
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

    /// Column `c` of the integer level matrix.
    pub fn level_col(&self, c: usize) -> &[i16] {
        &self.levels[c * self.in_dim..][..self.in_dim]
    }

    /// The row-major level matrix (`[j * out_dim + c]`) the blocked
    /// kernels stream.
    pub fn weight_rows(&self) -> &[i16] {
        &self.levels_row
    }
}

/// A model's weights in kernel form, parallel to `Gnn::weights()`.
pub struct PackedGnn {
    layers: Vec<QuantizedLayer>,
}

impl PackedGnn {
    /// Quantizes `trained`'s weights at `weight_bits` and returns the
    /// kernel form **plus** the fake-quantized `f32` matrices
    /// (`level · α`) — callers build the serving `Gnn` from those so the
    /// f32 model and the kernel weights are the same numbers by
    /// construction. The scale is per layer matrix, exactly mirroring the
    /// serving engine's historical `quantize_row` over the full weight
    /// slice.
    ///
    /// # Panics
    ///
    /// Panics if `weight_bits` is outside the plane range `1..=8`.
    pub fn from_model(trained: &Gnn, weight_bits: u8) -> (Self, Vec<Matrix>) {
        // Also the overflow contract of the packed kernels: blocked i32
        // accumulation is exact only with both operands ≤ MAX_PLANE_BITS.
        assert!(
            (1..=MAX_PLANE_BITS).contains(&weight_bits),
            "weight bitwidth {weight_bits} outside the plane range"
        );
        let mut layers = Vec::new();
        let mut dequantized = Vec::new();
        for w in trained.weights() {
            let (in_dim, out_dim) = w.shape();
            let data = w.as_slice();
            let max_abs = data.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            let alpha = row_alpha(max_abs, weight_bits);
            let levels: Vec<i32> = if alpha == 0.0 {
                vec![0; data.len()]
            } else {
                data.iter()
                    .map(|&x| quantize_level(x, alpha, weight_bits))
                    .collect()
            };
            let dequant: Vec<f32> = if alpha == 0.0 {
                // Mirrors `quantize_row`'s all-zero early return: the
                // matrix is left untouched (it is all zeros anyway).
                data.to_vec()
            } else {
                levels.iter().map(|&l| l as f32 * alpha).collect()
            };
            let mut col_major = vec![0i16; in_dim * out_dim];
            for j in 0..in_dim {
                for c in 0..out_dim {
                    col_major[c * in_dim + j] = levels[j * out_dim + c] as i16;
                }
            }
            layers.push(QuantizedLayer {
                alpha,
                bits: weight_bits,
                in_dim,
                out_dim,
                levels: col_major,
                levels_row: levels.iter().map(|&l| l as i16).collect(),
            });
            dequantized.push(Matrix::from_vec(in_dim, out_dim, dequant));
        }
        (Self { layers }, dequantized)
    }

    /// Per-layer kernel weights.
    pub fn layers(&self) -> &[QuantizedLayer] {
        &self.layers
    }
}

/// Reusable scratch for the kernel forward pass: flat activation arenas
/// (one slab per level) plus the quantize/pack/dot staging buffers. One
/// arena per worker thread serves every batch; buffers only ever grow.
#[derive(Default)]
pub struct KernelArena {
    h: Vec<f32>,
    next: Vec<f32>,
    combined: Vec<f32>,
    levels: Vec<i32>,
    /// Node id → position in the current level's `needed` list, one `u32`
    /// per graph row (~4 MB at 10⁶ nodes, reused across batches) —
    /// replaces the per-edge binary search during aggregation. Reads are
    /// valid by the [`ReceptiveField`] invariant that every aggregation
    /// source is present in the previous level.
    pos: Vec<u32>,
    // Blocked-dispatch staging: per-row quantization metadata, the tier
    // group lists, and the gathered lane tiles the multi-row kernels
    // consume.
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

/// Dequantizes one M-block's lane-major dot tile into the combined rows:
/// `combined[i·w_out + c] = dots[r·w_out + c] · scale_i + bias[c]` — the
/// identical per-element transform the scalar path applies.
fn scatter_tile(
    chunk: &[u32],
    tile_dots: &[i64],
    row_scale: &[f32],
    bias: &[f32],
    w_out: usize,
    combined: &mut [f32],
) {
    for (r, &iu) in chunk.iter().enumerate() {
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
/// degree-aware transform of the serving policy.
///
/// # Panics
///
/// Panics if `rows` mismatches the model's input dimension, a target is
/// out of range, or the packed weights do not match `model`.
#[allow(clippy::too_many_arguments)]
pub fn forward_targets_packed_with_field<R, A>(
    model: &Gnn,
    packed: &PackedGnn,
    rows: &R,
    adjacency: &A,
    targets: &[NodeId],
    bits_of: &mut dyn FnMut(NodeId) -> u8,
    mode: KernelMode,
    arena: &mut KernelArena,
) -> (Matrix, ReceptiveField)
where
    R: PlaneRows,
    A: AdjacencyView + ?Sized,
{
    let n = adjacency.rows();
    let layers = model.config().layers;
    assert_eq!(packed.layers.len(), layers, "packed weights mismatch model");
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
        let (w_in, w_out) = (layer.in_dim, layer.out_dim);
        out_dim = w_out;
        let bias = model.biases()[l].row(0);
        let level_nodes = &field.needed[l];

        // Combination: integer dots + one dequantize per output element.
        arena.combined.clear();
        arena.combined.resize(level_nodes.len() * w_out, 0.0);
        arena.levels.resize(w_in, 0);
        match mode {
            KernelMode::Blocked => {
                // Sweep 1 — classify every row into its tier group and
                // stage the quantization metadata the gather needs. Hidden
                // rows whose activations are all zero short-circuit to the
                // bias row here and join no group.
                arena.ternary_rows.clear();
                arena.levels_rows.clear();
                arena.row_scale.clear();
                arena.row_scale.resize(level_nodes.len(), 0.0);
                arena.row_qalpha.clear();
                arena.row_qalpha.resize(level_nodes.len(), 0.0);
                arena.row_qbits.clear();
                arena.row_qbits.resize(level_nodes.len(), 0);
                for (i, &u) in level_nodes.iter().enumerate() {
                    if l == 0 {
                        let row = rows.plane_row(u as usize);
                        arena.row_scale[i] = row.alpha * layer.alpha;
                        if row.bits <= 2 {
                            arena.ternary_rows.push(i as u32);
                        } else {
                            arena.levels_rows.push(i as u32);
                        }
                    } else {
                        let hrow = &arena.h[i * w_in..][..w_in];
                        let bits = bits_of(u);
                        let max_abs = hrow.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
                        if max_abs == 0.0 {
                            arena.combined[i * w_out..][..w_out].copy_from_slice(bias);
                            continue;
                        }
                        let alpha = row_alpha(max_abs, bits);
                        arena.row_qalpha[i] = alpha;
                        arena.row_qbits[i] = bits;
                        arena.row_scale[i] = alpha * layer.alpha;
                        if bits <= 2 {
                            arena.ternary_rows.push(i as u32);
                        } else {
                            arena.levels_rows.push(i as u32);
                        }
                    }
                }

                // Sweep 2 — dispatch each tier group in M-lane blocks
                // through one weight-tile pass per block. Remainder chunks
                // reuse the same entry points: an m == 1 call falls back to
                // the single-row kernel inside `*_dot_multi`.
                let span = 2 * planes::words_for(w_in);
                arena.tile_words.resize(MAX_MULTI_ROWS * span, 0);
                arena.tile_levels.resize(MAX_MULTI_ROWS * w_in, 0);
                arena.tile_acc.resize(2 * MAX_MULTI_ROWS * w_out, 0);
                arena.tile_dots.resize(MAX_MULTI_ROWS * w_out, 0);
                for chunk in arena.ternary_rows.chunks(MAX_MULTI_ROWS) {
                    let m = chunk.len();
                    for (r, &iu) in chunk.iter().enumerate() {
                        let i = iu as usize;
                        let lane = &mut arena.tile_words[r * span..][..span];
                        if l == 0 {
                            // ≤ 2 bit rows are exactly two planes at rest,
                            // so the packed words splice straight into the
                            // lane.
                            lane.copy_from_slice(rows.plane_row(level_nodes[i] as usize).words);
                        } else {
                            let hrow = &arena.h[i * w_in..][..w_in];
                            let (alpha, bits) = (arena.row_qalpha[i], arena.row_qbits[i]);
                            for (slot, &x) in arena.levels.iter_mut().zip(hrow) {
                                *slot = quantize_level(x, alpha, bits);
                            }
                            pack_levels(&arena.levels, bits, lane);
                        }
                    }
                    ternary_dot_multi(
                        &arena.tile_words[..m * span],
                        m,
                        w_in,
                        layer.weight_rows(),
                        w_out,
                        &mut arena.tile_acc[..2 * m * w_out],
                        &mut arena.tile_dots[..m * w_out],
                    );
                    scatter_tile(
                        chunk,
                        &arena.tile_dots,
                        &arena.row_scale,
                        bias,
                        w_out,
                        &mut arena.combined,
                    );
                }
                for chunk in arena.levels_rows.chunks(MAX_MULTI_ROWS) {
                    let m = chunk.len();
                    for (r, &iu) in chunk.iter().enumerate() {
                        let i = iu as usize;
                        let lane = &mut arena.tile_levels[r * w_in..][..w_in];
                        if l == 0 {
                            let row = rows.plane_row(level_nodes[i] as usize);
                            unpack_levels(row.words, row.bits, w_in, lane);
                        } else {
                            let hrow = &arena.h[i * w_in..][..w_in];
                            let (alpha, bits) = (arena.row_qalpha[i], arena.row_qbits[i]);
                            for (slot, &x) in lane.iter_mut().zip(hrow) {
                                *slot = quantize_level(x, alpha, bits);
                            }
                        }
                    }
                    levels_dot_multi(
                        &arena.tile_levels[..m * w_in],
                        m,
                        layer.weight_rows(),
                        w_out,
                        &mut arena.tile_acc[..m * w_out],
                        &mut arena.tile_dots[..m * w_out],
                    );
                    scatter_tile(
                        chunk,
                        &arena.tile_dots,
                        &arena.row_scale,
                        bias,
                        w_out,
                        &mut arena.combined,
                    );
                }
            }
            KernelMode::Scalar => {
                for (i, &u) in level_nodes.iter().enumerate() {
                    let scale = if l == 0 {
                        let row = rows.plane_row(u as usize);
                        unpack_levels(row.words, row.bits, w_in, &mut arena.levels);
                        row.alpha * layer.alpha
                    } else {
                        let hrow = &arena.h[i * w_in..][..w_in];
                        let bits = bits_of(u);
                        let max_abs = hrow.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
                        if max_abs == 0.0 {
                            arena.combined[i * w_out..][..w_out].copy_from_slice(bias);
                            continue;
                        }
                        let alpha = row_alpha(max_abs, bits);
                        for (slot, &x) in arena.levels.iter_mut().zip(hrow) {
                            *slot = quantize_level(x, alpha, bits);
                        }
                        alpha * layer.alpha
                    };
                    let out_row = &mut arena.combined[i * w_out..][..w_out];
                    for (c, out) in out_row.iter_mut().enumerate() {
                        let dot = planes::dot_levels(&arena.levels, layer.level_col(c));
                        *out = dot as f32 * scale + bias[c];
                    }
                }
            }
        }

        // Aggregation: Ã·combined in CSR row order over f32. The position
        // array replaces the per-edge binary search: one write per level
        // row, one O(1) read per edge. Reads are in range by the
        // `ReceptiveField` invariant that every aggregation source appears
        // in the previous level (property-tested in
        // `tests/receptive_field.rs`).
        if arena.pos.len() < n {
            arena.pos.resize(n, u32::MAX);
        }
        for (i, &u) in level_nodes.iter().enumerate() {
            arena.pos[u as usize] = i as u32;
        }
        let out_nodes = &field.needed[l + 1];
        arena.next.clear();
        arena.next.resize(out_nodes.len() * w_out, 0.0);
        for (vi, &v) in out_nodes.iter().enumerate() {
            let row = &mut arena.next[vi * w_out..][..w_out];
            let cols = adjacency.row_indices(v as usize);
            let vals = adjacency.row_values(v as usize);
            for (&u, &a) in cols.iter().zip(vals) {
                let ui = arena.pos[u as usize] as usize;
                debug_assert_eq!(
                    level_nodes.get(ui),
                    Some(&u),
                    "aggregation source is in the receptive field"
                );
                let src = &arena.combined[ui * w_out..][..w_out];
                for (dst, &s) in row.iter_mut().zip(src) {
                    *dst += a * s;
                }
            }
            if l + 1 < layers {
                for x in row.iter_mut() {
                    *x = x.max(0.0);
                }
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
    use crate::adjacency::build_adjacency;
    use crate::model::{GnnKind, ModelConfig};
    use mega_format::TierPackedFeatures;
    use mega_graph::datasets::DatasetSpec;

    /// Packs a dataset's raw features at per-node bitwidths.
    fn pack_features(features: &mega_graph::datasets::Features, bits: &[u8]) -> TierPackedFeatures {
        let mut store = TierPackedFeatures::new(features.dim());
        let mut levels = vec![0i32; features.dim()];
        for (v, &row_bits) in bits.iter().enumerate().take(features.rows()) {
            let row = features.row(v);
            let max_abs = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            let alpha = row_alpha(max_abs, row_bits);
            for (slot, &x) in levels.iter_mut().zip(row) {
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

    fn setup(kind: GnnKind) -> (mega_graph::Dataset, Gnn, PackedGnn, TierPackedFeatures) {
        let d = DatasetSpec::cora()
            .scaled(0.05)
            .with_feature_dim(48)
            .materialize();
        let cfg = ModelConfig::for_dataset(kind, &d);
        let trained = Gnn::new(cfg.clone());
        let (packed, weights) = PackedGnn::from_model(&trained, 4);
        let model = Gnn::from_parts(cfg, weights, trained.biases().to_vec());
        let bits: Vec<u8> = (0..d.graph.num_nodes())
            .map(|v| match d.graph.in_degree(v) {
                0..=2 => 2,
                3..=8 => 3,
                9..=32 => 4,
                _ => 5,
            })
            .collect();
        let store = pack_features(d.features(), &bits);
        (d, model, packed, store)
    }

    /// Logits of the global pass in `mode`, on a fresh arena.
    fn logits(
        model: &Gnn,
        packed: &PackedGnn,
        rows: &impl PlaneRows,
        adj: &impl AdjacencyView,
        targets: &[NodeId],
        bits_of: &mut dyn FnMut(NodeId) -> u8,
        mode: KernelMode,
    ) -> Matrix {
        let mut arena = KernelArena::default();
        forward_targets_packed_with_field(
            model, packed, rows, adj, targets, bits_of, mode, &mut arena,
        )
        .0
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
    fn blocked_mode_is_bit_exact_with_scalar_mode() {
        for kind in [GnnKind::Gcn, GnnKind::Gin, GnnKind::GraphSage] {
            let (d, model, packed, store) = setup(kind);
            let adj = build_adjacency(&d.graph, kind.aggregator(1));
            let targets: Vec<NodeId> = (0..d.graph.num_nodes() as NodeId).step_by(7).collect();
            let mut bits_of = |v: NodeId| match d.graph.in_degree(v as usize) {
                0..=2 => 2u8,
                3..=8 => 3,
                9..=32 => 4,
                _ => 5,
            };
            let scalar = logits(
                &model,
                &packed,
                &store,
                adj.as_ref(),
                &targets,
                &mut bits_of,
                KernelMode::Scalar,
            );
            let blocked = logits(
                &model,
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
        // MAX_MULTI_ROWS, including single-row batches (m == 1 fallback).
        let (d, model, packed, store) = setup(GnnKind::Gcn);
        let adj = build_adjacency(&d.graph, GnnKind::Gcn.aggregator(1));
        let mut bits_of = |v: NodeId| if v.is_multiple_of(3) { 2u8 } else { 4 };
        for take in [1usize, 3, 4, 8, 9, 11] {
            let targets: Vec<NodeId> = (0..take as NodeId).collect();
            let scalar = logits(
                &model,
                &packed,
                &store,
                adj.as_ref(),
                &targets,
                &mut bits_of,
                KernelMode::Scalar,
            );
            let blocked = logits(
                &model,
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
        let (d, model, packed, store) = setup(GnnKind::Gcn);
        let adj = build_adjacency(&d.graph, GnnKind::Gcn.aggregator(1));
        let mut bits_of = |_v: NodeId| 4u8;
        let solo = logits(
            &model,
            &packed,
            &store,
            adj.as_ref(),
            &[11],
            &mut bits_of,
            KernelMode::Blocked,
        );
        let grouped = logits(
            &model,
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
}
