//! Memory ratchets at `synth:50k`, after build and after single-edge
//! inserts. Release-only: the `synth:50k` build is too slow for debug
//! codegen.
//!
//! * The counted adjacency is exactly 0 B per node under GCN and GIN:
//!   every column is a read of the live graph's in-lists and every weight
//!   a function of its degrees, so stored columns, per-row vectors or
//!   stored weights cannot creep back.
//! * The live graph ([`mega_graph::DynamicGraph::heap_bytes`]) holds at
//!   most an 8 B span per node plus one 4 B in-list entry per edge, with
//!   no slack and no out-list, right after build: 48 B/node. After the
//!   inserts it holds at most that plus one growth step of its row store
//!   plus the out-lists of the nodes the inserts made asymmetric
//!   ([`mega_graph::DynamicGraph::out_list_bytes`]).

#![cfg(not(debug_assertions))]

use mega_gnn::GnnKind;
use mega_graph::{DatasetSpec, DynamicGraph, GraphDelta, NodeId};
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

/// Builds `kind` at `synth:50k`, checks the bound, inserts random new
/// edges, and checks it again.
fn assert_adjacency_within(kind: GnnKind, max_bytes_per_node: f64) {
    let mut artifacts = build(kind);
    let built = adjacency_bytes_per_node(&artifacts);
    assert!(
        built <= max_bytes_per_node,
        "{kind:?} after build: {built:.2} B/node"
    );
    insert_random_edges(&mut artifacts);
    let churned = adjacency_bytes_per_node(&artifacts);
    assert!(
        churned <= max_bytes_per_node,
        "{kind:?} after {INSERTS} inserts: {churned:.2} B/node (built: {built:.2})"
    );
}

/// Single-edge inserts each ratchet runs after build.
const INSERTS: usize = 200;

/// Inserts [`INSERTS`] random new directed edges, one delta at a time.
fn insert_random_edges(artifacts: &mut ModelArtifacts) {
    let n = artifacts.num_nodes() as NodeId;
    let mut rng = StdRng::seed_from_u64(5);
    let mut inserted = 0;
    while inserted < INSERTS {
        let (src, dst) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if src == dst || artifacts.graph.has_edge(src, dst) {
            continue;
        }
        let mut delta = GraphDelta::new();
        delta.insert_edge(src, dst);
        artifacts.apply_delta(&delta, &[]).expect("valid delta");
        inserted += 1;
    }
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
    let mut artifacts = build(GnnKind::Gcn);
    let n = artifacts.num_nodes() as f64;
    // Every edge is one in-list entry; the symmetric graph stores no
    // out-list.
    let bound = |graph: &DynamicGraph| 8.0 + 4.0 * graph.num_edges() as f64 / n;
    let graph = &artifacts.graph;
    let built = graph.heap_bytes() as f64 / n;
    assert_eq!(graph.out_list_bytes(), 0, "built graph stores out-lists");
    assert!(
        built <= bound(graph),
        "graph after build: {built:.2} B/node, bound {:.2}",
        bound(graph)
    );
    insert_random_edges(&mut artifacts);
    let graph = &artifacts.graph;
    let churned = graph.heap_bytes() as f64 / n;
    let out_lists = graph.out_list_bytes() as f64 / n;
    // A row that outgrows its slots relocates, and the entry vector then
    // reserves a sixteenth of its length: one growth step above the bound
    // holds the relocated rows and their capacities.
    let churned_bound = bound(graph) * 17.0 / 16.0 + out_lists;
    println!(
        "graph: {built:.2} B/node after build, {churned:.2} after {INSERTS} inserts \
         ({out_lists:.2} of them out-lists), bound {churned_bound:.2}"
    );
    assert!(
        churned <= churned_bound,
        "graph after {INSERTS} inserts: {churned:.2} B/node, bound {churned_bound:.2}"
    );
}
