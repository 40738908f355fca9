//! The adjacency's memory ratchet: at `synth:50k` under GCN the counted
//! adjacency stays at most 64 B per node (a 12-byte row span, 4 bytes per
//! column, 4 bytes of `1/sqrt(d̂)`), after build and after single-edge
//! inserts, so per-row vectors or stored weights cannot creep back.
//! Release-only: the `synth:50k` build is too slow for debug codegen.

#![cfg(not(debug_assertions))]

use mega_gnn::GnnKind;
use mega_graph::{DatasetSpec, GraphDelta, NodeId};
use mega_serve::{ModelArtifacts, ModelSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MAX_ADJACENCY_BYTES_PER_NODE: f64 = 64.0;

fn adjacency_bytes_per_node(artifacts: &ModelArtifacts) -> f64 {
    let memory = artifacts.resident_bytes();
    memory.adjacency_bytes as f64 / memory.nodes as f64
}

#[test]
fn adjacency_stays_within_64_bytes_per_node() {
    let spec = ModelSpec::standard(DatasetSpec::synth(50_000), GnnKind::Gcn);
    let mut artifacts = ModelArtifacts::build(&spec);
    let built = adjacency_bytes_per_node(&artifacts);
    assert!(
        built <= MAX_ADJACENCY_BYTES_PER_NODE,
        "after build: {built:.2} B/node"
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
        churned <= MAX_ADJACENCY_BYTES_PER_NODE,
        "after {inserted} inserts: {churned:.2} B/node (built: {built:.2})"
    );
}
