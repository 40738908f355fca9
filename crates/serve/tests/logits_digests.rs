//! Pins the served logits bit for bit.
//!
//! Each case builds a model, draws seeded targets, runs them through
//! [`batch_logits`] in small batches and hashes the `f32::to_bits` of every
//! logit into one 64-bit digest, checked against a recorded value. The
//! equivalence suites compare the kernel modes and the whole-level
//! reference with each other; all of them read adjacency rows the same
//! way, so a change to the order in which a destination sums its sources
//! would move them together and pass. A digest does not move with them.
//!
//! The churned cases apply seeded edge inserts and removals first, so the
//! incrementally maintained adjacency is pinned too (GraphSAGE rows cross
//! their sample size there).
//!
//! The `synth:100k` case is release-only: debug codegen makes its build too
//! slow for the tier-1 loop (run with `cargo test --release -p mega-serve
//! --test logits_digests`).

use mega_gnn::GnnKind;
use mega_graph::{DatasetSpec, GraphDelta, NodeId};
use mega_serve::{batch_logits, ModelArtifacts, ModelSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One word-at-a-time FNV-1a style mixer: not cryptographic, but any
/// changed, missing or reordered logit changes the result.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Targets per `batch_logits` call: a mix of full and partial kernel
/// blocks.
const BATCH: usize = 6;

/// The digest of `targets` seeded targets' logits.
fn logits_digest(artifacts: &ModelArtifacts, targets: usize, seed: u64) -> u64 {
    let n = artifacts.num_nodes() as NodeId;
    let mut rng = StdRng::seed_from_u64(seed);
    let targets: Vec<NodeId> = (0..targets).map(|_| rng.gen_range(0..n)).collect();
    let mut d = Digest::new();
    for batch in targets.chunks(BATCH) {
        let logits = batch_logits(artifacts, batch);
        d.word(logits.rows() as u64);
        d.word(logits.cols() as u64);
        for &x in logits.as_slice() {
            d.word(u64::from(x.to_bits()));
        }
    }
    d.0
}

/// Applies `ops` seeded single-edge deltas: inserts into hub destinations
/// (so GraphSAGE rows grow past their sample), then removals of the same
/// edges from every other one (so some shrink back).
fn churn(artifacts: &mut ModelArtifacts, ops: usize, seed: u64) {
    let n = artifacts.num_nodes() as NodeId;
    let mut rng = StdRng::seed_from_u64(seed);
    let hubs: Vec<NodeId> = (0..n)
        .filter(|&v| (20..=30).contains(&artifacts.graph.in_degree(v as usize)))
        .take(8)
        .collect();
    let mut inserted = Vec::new();
    while inserted.len() < ops {
        let dst = if hubs.is_empty() {
            rng.gen_range(0..n)
        } else {
            hubs[rng.gen_range(0..hubs.len())]
        };
        let src = rng.gen_range(0..n);
        if src == dst || artifacts.graph.has_edge(src, dst) {
            continue;
        }
        let mut delta = GraphDelta::new();
        delta.insert_edge(src, dst);
        artifacts.apply_delta(&delta, &[]).expect("valid insert");
        inserted.push((src, dst));
    }
    for &(src, dst) in inserted.iter().step_by(2) {
        let mut delta = GraphDelta::new();
        delta.remove_edge(src, dst);
        artifacts.apply_delta(&delta, &[]).expect("valid removal");
    }
}

/// Builds each case and reports every mismatch at once, so one run shows
/// the full table when a change is intended.
fn check(dataset: DatasetSpec, targets: usize, churn_ops: usize, cases: &[(GnnKind, u64)]) {
    let mut wrong = Vec::new();
    for &(kind, want) in cases {
        let mut artifacts = ModelArtifacts::build(&ModelSpec::standard(dataset.clone(), kind));
        if churn_ops > 0 {
            churn(&mut artifacts, churn_ops, 0xC4);
        }
        let got = logits_digest(&artifacts, targets, 0x1061_7500);
        if got != want {
            wrong.push(format!("{kind:?}: got {got:#018x}"));
        }
    }
    assert!(wrong.is_empty(), "logits drifted:\n{}", wrong.join("\n"));
}

#[test]
fn synth_4k_logits_match_pinned_digests() {
    check(
        DatasetSpec::synth(4_000),
        300,
        0,
        &[
            (GnnKind::Gcn, 0x3e04_adf8_2440_43c4),
            (GnnKind::Gin, 0x1938_0dcf_9d41_9071),
            (GnnKind::GraphSage, 0x78b3_0624_be8d_0f7a),
        ],
    );
}

#[test]
fn churned_synth_4k_logits_match_pinned_digests() {
    check(
        DatasetSpec::synth(4_000),
        300,
        60,
        &[
            (GnnKind::Gcn, 0x4908_b661_e5e0_4e47),
            (GnnKind::Gin, 0x04f7_52b9_2a7a_7788),
            (GnnKind::GraphSage, 0x5ae4_2e66_2346_a991),
        ],
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "large build; run in release")]
fn synth_100k_logits_match_pinned_digests() {
    check(
        DatasetSpec::synth(100_000),
        1_000,
        0,
        &[
            (GnnKind::Gcn, 0xc1a0_fdfb_c52a_1c43),
            (GnnKind::Gin, 0x948e_ae2f_587b_e0ad),
            (GnnKind::GraphSage, 0x957a_f669_777b_521b),
        ],
    );
}
