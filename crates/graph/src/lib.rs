//! Graph substrate for the MEGA reproduction.
//!
//! This crate provides the graph data structures and synthetic dataset
//! generators every other crate in the workspace builds on:
//!
//! * [`Csr`] — compressed sparse row adjacency (also used as CSC by storing
//!   the transpose), the canonical representation consumed by the GNN layers,
//!   the partitioner and the accelerator simulators.
//! * [`Graph`] — a node set with both out- (CSR) and in- (CSC) adjacency,
//!   plus degree queries; a symmetric graph stores its CSR once.
//! * [`generate`] — power-law (Chung–Lu style) generators with a
//!   stochastic-block-model community overlay, so generated graphs have both
//!   the in-degree distribution that motivates Degree-Aware quantization
//!   (paper Fig. 3) and a learnable label structure.
//! * [`datasets`] — presets matching Table II of the paper (Cora, CiteSeer,
//!   PubMed, NELL, Reddit) with feature/label/mask synthesis.
//! * [`DynamicGraph`] — the mutable graph serving updates, its neighbor
//!   lists held in a [`RowStore`] (flat rows with per-row slack).
//! * [`stats`] — degree histograms and the in-degree buckets used by Fig. 3.
//!
//! # Example
//!
//! ```
//! use mega_graph::datasets::DatasetSpec;
//!
//! let dataset = DatasetSpec::cora().materialize();
//! assert_eq!(dataset.graph.num_nodes(), 2708);
//! assert!(dataset.graph.num_edges() > 10_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alias;
pub mod coo;
pub mod csr;
pub mod datasets;
pub mod dynamic;
pub mod generate;
pub mod graph;
pub mod rows;
pub mod stats;

pub use coo::Coo;
pub use csr::Csr;
pub use datasets::{Dataset, DatasetSpec, Features};
pub use dynamic::{DeltaEffect, DeltaError, DynamicGraph, GraphDelta, GraphOp};
pub use graph::Graph;
pub use rows::RowStore;

/// Node identifier. Graphs in this workspace are bounded by Reddit's
/// 232,965 nodes, so `u32` is ample and halves index memory versus `usize`.
pub type NodeId = u32;
