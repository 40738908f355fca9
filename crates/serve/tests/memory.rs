//! The adjacency's memory ratchet: at `synth:50k` the counted adjacency is
//! at most 4 B per node under GCN (its `1/sqrt(d̂)`) and exactly 0 under
//! GIN, after build and after single-edge inserts. Every column is a read
//! of the live graph's in-lists, so stored columns, per-row vectors or
//! stored weights cannot creep back. Release-only: the `synth:50k` build
//! is too slow for debug codegen.

#![cfg(not(debug_assertions))]

use mega_gnn::GnnKind;
use mega_graph::{DatasetSpec, GraphDelta, NodeId};
use mega_serve::{ModelArtifacts, ModelSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn adjacency_bytes_per_node(artifacts: &ModelArtifacts) -> f64 {
    let memory = artifacts.resident_bytes();
    memory.adjacency_bytes as f64 / memory.nodes as f64
}

/// Builds `kind` at `synth:50k`, checks the bound, inserts 200 random new
/// edges one delta at a time, and checks it again.
fn assert_adjacency_within(kind: GnnKind, max_bytes_per_node: f64) {
    let spec = ModelSpec::standard(DatasetSpec::synth(50_000), kind);
    let mut artifacts = ModelArtifacts::build(&spec);
    let built = adjacency_bytes_per_node(&artifacts);
    assert!(
        built <= max_bytes_per_node,
        "{kind:?} after build: {built:.2} B/node"
    );
    let n = artifacts.num_nodes() as NodeId;
    let mut rng = StdRng::seed_from_u64(5);
    let mut inserted = 0;
    while inserted < 200 {
        let (src, dst) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if src == dst || artifacts.graph.has_edge(src, dst) {
            continue;
        }
        let mut delta = GraphDelta::new();
        delta.insert_edge(src, dst);
        artifacts.apply_delta(&delta, &[]).expect("valid delta");
        inserted += 1;
    }
    let churned = adjacency_bytes_per_node(&artifacts);
    assert!(
        churned <= max_bytes_per_node,
        "{kind:?} after {inserted} inserts: {churned:.2} B/node (built: {built:.2})"
    );
}

#[test]
fn gcn_adjacency_stays_within_4_bytes_per_node() {
    assert_adjacency_within(GnnKind::Gcn, 4.0);
}

#[test]
fn gin_adjacency_owns_nothing() {
    assert_adjacency_within(GnnKind::Gin, 0.0);
}
