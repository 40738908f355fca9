//! GNN models, training, and graph-statistics experiments for the MEGA
//! reproduction.
//!
//! Implements the three models the paper evaluates (Table III) plus GAT for
//! the §VII-3 discussion:
//!
//! | Model     | Layers | Hidden | Aggregation        |
//! |-----------|--------|--------|--------------------|
//! | GCN       | 2      | 128    | Add (sym-norm)     |
//! | GIN       | 2      | 128    | Add (sum)          |
//! | GraphSage | 2      | 256    | Mean (25 sampled)  |
//! | GAT       | 2      | 128    | Attention (§VII-3) |
//!
//! All models share the paper's Eq. (1) forward pass `X' = σ(Ã·X·W)` with
//! model-specific normalized adjacency `Ã` (built by [`adjacency`]) and are
//! executed with the `A(XW)` ordering the accelerator uses.
//!
//! The [`ForwardHook`] trait is the seam through which `mega-quant` inserts
//! quantize/dequantize ops during quantization-aware training without this
//! crate depending on quantization.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adjacency;
pub mod figstats;
pub mod gat;
pub mod infer;
pub mod kernel;
pub mod model;
pub mod train;

pub use adjacency::{
    build_adjacency, AdjacencyRow, AdjacencyView, AggregatorKind, DynAdjacency, RowWeights,
};
pub use infer::ReceptiveField;
pub use kernel::{
    forward_targets_packed_with_field, KernelArena, KernelMode, PackedGnn, QuantizedLayer,
};
pub use model::{ForwardHook, Gnn, GnnKind, IdentityHook, ModelConfig};
pub use train::{accuracy, TrainReport, Trainer};
