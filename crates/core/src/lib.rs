//! # MEGA — full-system reproduction of the HPCA 2024 paper
//!
//! *MEGA: A Memory-Efficient GNN Accelerator Exploiting Degree-Aware
//! Mixed-Precision Quantization* (Zhu, Li, Li, et al., HPCA 2024,
//! arXiv:2311.09775).
//!
//! This facade crate ties the workspace together:
//!
//! | Piece | Crate | Paper section |
//! |---|---|---|
//! | Graphs & synthetic Table II datasets | [`mega_graph`] | §VI-A-1 |
//! | Tensors & autograd | `mega_tensor` | (substrate) |
//! | GCN / GIN / GraphSAGE / GAT | [`mega_gnn`] | Table III, §VII-3 |
//! | Degree-Aware quantization + DQ baseline | [`mega_quant`] | §IV |
//! | Adaptive-Package format | `mega_format` | §V-B |
//! | METIS-like partitioner | `mega_partition` | §V-E |
//! | DRAM / energy / area models | `mega_hw` | §VI-A-3 |
//! | Simulation framework | [`mega_sim`] | §VI-A-3 |
//! | The MEGA accelerator | [`mega_accel`] | §V |
//! | HyGCN / GCNAX / GROW / SGCN | [`mega_baselines`] | §VI-A-2 |
//!
//! plus the high-level helpers used by the examples and the benchmark
//! harness:
//!
//! * [`workloads`] — turn a dataset + model (+ learned bit assignment) into
//!   the hardware [`mega_sim::Workload`];
//! * [`suite`] — the paper's ten evaluation workloads and the comparison
//!   runner behind Figs. 14/16/17.
//!
//! ## Quickstart
//!
//! ```
//! use mega::prelude::*;
//! use mega_sim::Accelerator;
//!
//! // A small synthetic citation graph (Cora recipe, scaled down).
//! let dataset = DatasetSpec::cora().scaled(0.1).materialize();
//! // Hardware workload with the degree-aware mixed-precision profile.
//! let workload = mega::workloads::build_quantized(&dataset, GnnKind::Gcn, None);
//! // Run MEGA and a baseline, compare.
//! let mega_result = Mega::new(MegaConfig::default()).run(&workload);
//! let fp32 = mega::workloads::build_fp32(&dataset, GnnKind::Gcn);
//! let hygcn_result = HyGcn::matched().run(&fp32);
//! assert!(mega_result.speedup_over(&hygcn_result) > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod suite;
pub mod workloads;

pub use mega_accel::{CondenseMode, FeatureStorage, Mega, MegaConfig};
pub use mega_baselines::{Gcnax, Grow, HyGcn, Sgcn};
pub use mega_graph::{Dataset, DatasetSpec, DynamicGraph, Graph, GraphDelta};
pub use mega_quant::{QatConfig, QatOutcome, QatTrainer};
pub use mega_sim::{Accelerator, RunResult, Workload};

/// Convenient glob import for examples and tests.
pub mod prelude {
    pub use mega_accel::{CondenseMode, FeatureStorage, Mega, MegaConfig};
    pub use mega_baselines::{Gcnax, Grow, HyGcn, Sgcn};
    pub use mega_gnn::{DynAdjacency, GnnKind, Trainer};
    pub use mega_graph::datasets::DatasetSpec;
    pub use mega_graph::{DynamicGraph, GraphDelta};
    pub use mega_quant::{QatConfig, QatTrainer};
    pub use mega_sim::{geomean, Accelerator, RunResult, Workload};
}
