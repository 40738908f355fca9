//! Memory ratchets at `synth:50k`, after build and after single-edge
//! inserts. Release-only: the `synth:50k` build is too slow for debug
//! codegen.
//!
//! * The counted adjacency is exactly 0 B per node under GCN and GIN:
//!   every column is a read of the live graph's in-lists and every weight
//!   a function of its degrees, so stored columns, per-row vectors or
//!   stored weights cannot creep back.
//! * The live graph ([`mega_graph::DynamicGraph::heap_bytes`]) holds at
//!   most an 8 B span per node and direction plus its 4 B entries, with
//!   no slack, right after build.

#![cfg(not(debug_assertions))]

use mega_gnn::GnnKind;
use mega_graph::{DatasetSpec, GraphDelta, NodeId};
use mega_serve::{ModelArtifacts, ModelSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn build(kind: GnnKind) -> ModelArtifacts {
    ModelArtifacts::build(&ModelSpec::standard(DatasetSpec::synth(50_000), kind))
}

fn adjacency_bytes_per_node(artifacts: &ModelArtifacts) -> f64 {
    let memory = artifacts.resident_bytes();
    memory.adjacency_bytes as f64 / memory.nodes as f64
}

/// Builds `kind` at `synth:50k`, checks the bound, inserts 200 random new
/// edges one delta at a time, and checks it again.
fn assert_adjacency_within(kind: GnnKind, max_bytes_per_node: f64) {
    let mut artifacts = build(kind);
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
fn gcn_adjacency_owns_nothing() {
    assert_adjacency_within(GnnKind::Gcn, 0.0);
}

#[test]
fn gin_adjacency_owns_nothing() {
    assert_adjacency_within(GnnKind::Gin, 0.0);
}

#[test]
fn graph_holds_spans_and_entries_only() {
    let artifacts = build(GnnKind::Gcn);
    let graph = &artifacts.graph;
    let n = graph.num_nodes() as f64;
    // Every edge is one entry in each direction.
    let bound = 16.0 + 4.0 * (2 * graph.num_edges()) as f64 / n;
    let per_node = graph.heap_bytes() as f64 / n;
    assert!(
        per_node <= bound,
        "graph after build: {per_node:.2} B/node, bound {bound:.2}"
    );
}
