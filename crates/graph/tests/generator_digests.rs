//! Pins every graph the exact (rejection-sampling) generator path produces.
//!
//! Each case hashes the generated CSR (offsets and indices), its CSC, and
//! the planted communities into one 64-bit digest, and checks it together
//! with the edge count against values recorded from the hash-set + COO
//! implementation this path replaced. A generator rewrite that changes one
//! RNG draw, one accepted pair or one row order shows up here. The
//! streaming path (at and above `STREAMING_NODES`) is pinned separately by
//! `million_node_first_edges_are_frozen`.
//!
//! The two largest cases are release-only: debug codegen makes them too
//! slow for the tier-1 loop (run with `cargo test --release -p mega-graph`).

use mega_graph::datasets::DatasetSpec;
use mega_graph::generate::{uniform_random, Generated, PowerLawSbm};
use mega_graph::Csr;

/// One word-at-a-time FNV-1a style mixer: not cryptographic, but any
/// changed, missing or reordered entry changes the result.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn csr(&mut self, csr: &Csr) {
        self.word(csr.num_rows() as u64);
        self.word(csr.num_cols() as u64);
        for &o in csr.offsets() {
            self.word(o as u64);
        }
        for &i in csr.indices() {
            self.word(u64::from(i));
        }
    }
}

fn digest(out: &Generated) -> u64 {
    let mut d = Digest::new();
    d.csr(out.graph.csr());
    d.csr(out.graph.csc());
    d.word(out.communities.len() as u64);
    for &c in &out.communities {
        d.word(u64::from(c));
    }
    d.0
}

/// A small hand-made configuration.
fn config(nodes: usize, directed_edges: usize, symmetric: bool) -> PowerLawSbm {
    PowerLawSbm {
        nodes,
        directed_edges,
        exponent: 2.1,
        communities: 4,
        homophily: 0.8,
        symmetric,
        seed: 0x5A7_D16E,
    }
}

/// Generates each case and reports every mismatch at once, so one run
/// shows the full table when a change is intended.
fn check(cases: Vec<(&str, PowerLawSbm, usize, u64)>) {
    let mut wrong = Vec::new();
    for (name, cfg, edges, want) in cases {
        let out = cfg.generate();
        let got = (out.graph.num_edges(), digest(&out));
        if got != (edges, want) {
            wrong.push(format!("{name}: got ({}, {:#018x})", got.0, got.1));
        }
    }
    assert!(
        wrong.is_empty(),
        "generated graphs drifted:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn generated_graphs_match_pinned_digests() {
    // The saturated configs stop on the attempt cap short of their edge
    // target: 8 nodes fill up completely (28 pairs, 56 directed edges),
    // and the 64-node ones pin where the cap falls on a graph it leaves
    // incomplete.
    check(vec![
        (
            "Cora",
            DatasetSpec::cora().generator(),
            10_556,
            0x80e6_1fe9_1c80_038d,
        ),
        (
            "CiteSeer",
            DatasetSpec::citeseer().generator(),
            9_104,
            0xd098_71a7_489e_30ef,
        ),
        (
            "PubMed",
            DatasetSpec::pubmed().generator(),
            88_648,
            0x84d5_868d_7690_a5ed,
        ),
        (
            "NELL",
            DatasetSpec::nell().generator(),
            251_550,
            0xfb74_a1d1_670b_fa99,
        ),
        (
            "synth:4k",
            DatasetSpec::synth(4_000).generator(),
            40_000,
            0xa96d_dbaf_dbd2_eb33,
        ),
        (
            "synth:50k",
            DatasetSpec::synth(50_000).generator(),
            500_000,
            0xf483_cfac_1baf_ce58,
        ),
        (
            "directed 5k",
            config(5_000, 40_000, false),
            40_000,
            0xd6a8_455c_a307_f6a8,
        ),
        (
            "directed 20k",
            config(20_000, 200_000, false),
            200_000,
            0xa752_9129_d53e_4fd5,
        ),
        (
            "saturated 8 symmetric",
            config(8, 200, true),
            56,
            0xcae1_393c_c5e8_4c10,
        ),
        (
            "saturated 8 directed",
            config(8, 200, false),
            56,
            0xcae1_393c_c5e8_4c10,
        ),
        (
            "saturated 64 symmetric",
            config(64, 4_000, true),
            3_960,
            0x996a_63ae_fdee_9570,
        ),
        (
            "saturated 64 directed",
            config(64, 4_000, false),
            3_974,
            0xcace_8180_aa4c_7430,
        ),
    ]);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "large generation; run in release")]
fn large_generated_graphs_match_pinned_digests() {
    check(vec![
        (
            "Reddit-scaled",
            DatasetSpec::reddit_scaled().generator(),
            7_163_492,
            0x3523_eee1_7b81_d34f,
        ),
        (
            "synth:100k",
            DatasetSpec::synth(100_000).generator(),
            1_000_000,
            0x723e_bf8d_7dde_6069,
        ),
        (
            "synth:100k seed 1",
            DatasetSpec::synth(100_000).with_seed(1).generator(),
            1_000_000,
            0x3239_2ae1_f283_19b8,
        ),
        (
            "synth:100k seed 7",
            DatasetSpec::synth(100_000).with_seed(7).generator(),
            1_000_000,
            0xc3c0_7ff7_ac44_515b,
        ),
    ]);
}

#[test]
fn uniform_random_matches_pinned_digest() {
    // The same rejection loop without a power law; 20k directed edges on
    // 400 nodes leave a few percent of the draws duplicate.
    let g = uniform_random(400, 20_000, 3);
    let mut d = Digest::new();
    d.csr(g.csr());
    d.csr(g.csc());
    assert_eq!((g.num_edges(), d.0), (20_000, 0xa29e_c976_5f96_4385));
}
