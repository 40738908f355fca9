//! The correctness gate: served logits against the scalar reference on
//! independently built artifacts, compared at `f32::to_bits`.

use std::collections::BTreeMap;

use mega_gnn::KernelMode;
use mega_graph::GraphDelta;
use mega_serve::http::json::Json;
use mega_serve::{batch_logits_with_mode, ModelArtifacts};

use rand::rngs::StdRng;
use rand::Rng;

use crate::workloads::same_bits;

#[derive(Debug, Default)]
pub struct GateOutcome {
    pub compared: usize,
    pub mismatched: Vec<u32>,
    /// Nodes answered differently on repeat requests with no update
    /// between them.
    pub inconsistent: usize,
}

impl GateOutcome {
    pub fn passed(&self) -> bool {
        self.compared > 0 && self.mismatched.is_empty() && self.inconsistent == 0
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("passed".into(), Json::Bool(self.passed())),
            ("compared".into(), Json::from(self.compared as u64)),
            (
                "mismatched".into(),
                Json::Arr(
                    self.mismatched
                        .iter()
                        .map(|&v| Json::from(u64::from(v)))
                        .collect(),
                ),
            ),
            (
                "inconsistent_repeats".into(),
                Json::from(self.inconsistent as u64),
            ),
            (
                "reference".into(),
                Json::from("batch_logits_with_mode(KernelMode::Scalar)".to_string()),
            ),
        ])
    }
}

/// Up to `k` served nodes, chosen by `rng` (a partial Fisher–Yates over the
/// sorted served set).
pub fn sample(served: &BTreeMap<u32, Vec<f32>>, k: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut nodes: Vec<u32> = served.keys().copied().collect();
    let k = k.min(nodes.len());
    for i in 0..k {
        let j = rng.gen_range(i..nodes.len());
        nodes.swap(i, j);
    }
    nodes.truncate(k);
    nodes.sort_unstable();
    nodes
}

/// Recomputes `nodes` on `reference` with the scalar kernels and compares
/// every logit bit for bit with what was served.
pub fn compare(
    reference: &ModelArtifacts,
    served: &BTreeMap<u32, Vec<f32>>,
    nodes: &[u32],
) -> GateOutcome {
    let (logits, _) = batch_logits_with_mode(reference, nodes, KernelMode::Scalar);
    let mismatched = nodes
        .iter()
        .enumerate()
        .filter(|&(row, node)| !same_bits(logits.row(row), &served[node]))
        .map(|(_, &node)| node)
        .collect();
    GateOutcome {
        compared: nodes.len(),
        mismatched,
        inconsistent: 0,
    }
}

/// Applies every update edge, in order, to `reference` as one delta. The
/// state a delta leaves is a function of the final graph alone (the
/// incremental adjacency equals a rebuild; tiers and quantized rows follow
/// final degrees), so this reaches the state the engine reached one edge
/// at a time. The test below checks that on the workload's edge stream.
pub fn apply_all(reference: &mut ModelArtifacts, edges: &[(u32, u32)]) -> Result<(), String> {
    if edges.is_empty() {
        return Ok(());
    }
    let mut delta = GraphDelta::new();
    for &(src, dst) in edges {
        delta.insert_edge(src, dst);
    }
    reference.apply_delta(&delta, &[]).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{stream, Zipf};
    use crate::workloads::update_edge;
    use mega_gnn::GnnKind;
    use mega_graph::DatasetSpec;
    use mega_serve::ModelSpec;

    #[test]
    fn sample_is_seeded_sorted_and_bounded() {
        let served: BTreeMap<u32, Vec<f32>> = (0..100).map(|v| (v * 3, vec![])).collect();
        let a = sample(&served, 10, &mut stream(1, 0));
        assert_eq!(a, sample(&served, 10, &mut stream(1, 0)));
        assert_ne!(a, sample(&served, 10, &mut stream(2, 0)));
        assert_eq!(a.len(), 10);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|v| served.contains_key(v)));
        assert_eq!(sample(&served, 500, &mut stream(1, 0)).len(), 100);
    }

    #[test]
    fn one_delta_reaches_the_state_of_edge_by_edge_updates() {
        let nodes = 3_000;
        let spec = ModelSpec::standard(DatasetSpec::synth(nodes).with_seed(9), GnnKind::Gcn);
        let zipf = Zipf::new(nodes, 1.0, &mut stream(9, 2));
        let mut rng = stream(9, 3);
        let edges: Vec<(u32, u32)> = (0..300)
            .map(|_| update_edge(&zipf, &mut rng, nodes as u64))
            .collect();
        let mut each = ModelArtifacts::build(&spec);
        for &(src, dst) in &edges {
            let mut delta = GraphDelta::new();
            delta.insert_edge(src, dst);
            each.apply_delta(&delta, &[])
                .expect("an edge insert applies");
        }
        let mut once = ModelArtifacts::build(&spec);
        apply_all(&mut once, &edges).expect("the edges apply as one delta");
        let all: Vec<u32> = (0..nodes as u32).collect();
        let (a, _) = batch_logits_with_mode(&each, &all, KernelMode::Scalar);
        let (b, _) = batch_logits_with_mode(&once, &all, KernelMode::Scalar);
        for row in 0..nodes {
            assert!(same_bits(a.row(row), b.row(row)), "node {row}");
        }
    }
}
