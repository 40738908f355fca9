//! Dataset presets matching Table II of the paper, with synthetic
//! feature/label/mask generation.
//!
//! | Dataset  | #Node   | #Edge       | Feature length | Avg. degree |
//! |----------|---------|-------------|----------------|-------------|
//! | Cora     | 2,708   | 10,556      | 1,433          | 3.90        |
//! | CiteSeer | 3,327   | 9,104       | 3,703          | 2.74        |
//! | PubMed   | 19,717  | 88,648      | 500            | 4.50        |
//! | NELL     | 65,755  | 251,550     | 61,278         | 3.83        |
//! | Reddit   | 232,965 | 114,615,892 | 602            | 491.99      |
//!
//! The real datasets are unavailable offline, so [`DatasetSpec::materialize`]
//! synthesizes graphs with matching structure (see [`crate::generate`]) and
//! class-correlated features so semi-supervised node classification is
//! learnable. DESIGN.md §1 documents why this substitution preserves the
//! paper's behaviour.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::generate::{shuffle, standard_normal, PowerLawSbm};
use crate::{Graph, NodeId};

/// Upper bound on `nodes × feature_dim` for dense feature materialization
/// (64 M f32 entries = 256 MB). NELL exceeds this by ~60× and is used only in
/// hardware experiments, which never touch feature *values*.
pub const DENSE_FEATURE_BUDGET: usize = 64 * 1024 * 1024;

/// How feature values are synthesized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureKind {
    /// Sparse 0/1 bag-of-words (Cora, CiteSeer, NELL).
    BinaryBagOfWords,
    /// Sparse positive TF-IDF-like floats (PubMed).
    TfIdf,
    /// Dense Gaussian embeddings with class-dependent means (Reddit).
    DenseEmbedding,
}

/// A dataset recipe: Table II statistics plus generator knobs.
///
/// # Example
///
/// ```
/// use mega_graph::datasets::DatasetSpec;
///
/// let spec = DatasetSpec::citeseer();
/// assert_eq!(spec.nodes, 3327);
/// let tiny = spec.scaled(0.1); // 10% nodes, same average degree
/// assert!(tiny.nodes < 400);
/// ```
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Human-readable name ("Cora", "Reddit", ...).
    pub name: String,
    /// Number of nodes.
    pub nodes: usize,
    /// Number of directed adjacency entries.
    pub directed_edges: usize,
    /// Input feature dimensionality.
    pub feature_dim: usize,
    /// Number of classes (= planted communities).
    pub num_classes: usize,
    /// Power-law exponent of the in-degree distribution.
    pub exponent: f64,
    /// Fraction of edges whose endpoints share a class.
    pub homophily: f64,
    /// Expected fraction of non-zero input features per node.
    pub feature_density: f64,
    /// Feature synthesis style.
    pub feature_kind: FeatureKind,
    /// RNG seed (fixed per preset so every table is reproducible).
    pub seed: u64,
}

impl DatasetSpec {
    /// Cora citation network (Table II row 1).
    pub fn cora() -> Self {
        Self {
            name: "Cora".into(),
            nodes: 2708,
            directed_edges: 10_556,
            feature_dim: 1433,
            num_classes: 7,
            exponent: 2.1,
            homophily: 0.81,
            feature_density: 0.0127,
            feature_kind: FeatureKind::BinaryBagOfWords,
            seed: 0xC04A_1234,
        }
    }

    /// CiteSeer citation network (Table II row 2).
    pub fn citeseer() -> Self {
        Self {
            name: "CiteSeer".into(),
            nodes: 3327,
            directed_edges: 9104,
            feature_dim: 3703,
            num_classes: 6,
            exponent: 2.2,
            homophily: 0.74,
            feature_density: 0.0085,
            feature_kind: FeatureKind::BinaryBagOfWords,
            seed: 0xC17E_5EE5,
        }
    }

    /// PubMed citation network (Table II row 3).
    pub fn pubmed() -> Self {
        Self {
            name: "PubMed".into(),
            nodes: 19_717,
            directed_edges: 88_648,
            feature_dim: 500,
            num_classes: 3,
            exponent: 2.15,
            homophily: 0.80,
            feature_density: 0.10,
            feature_kind: FeatureKind::TfIdf,
            seed: 0x9B_0B_ED,
        }
    }

    /// NELL knowledge graph (Table II row 4). Features are too large to
    /// materialize densely (61,278 dims); hardware experiments use the
    /// statistics only.
    pub fn nell() -> Self {
        Self {
            name: "NELL".into(),
            nodes: 65_755,
            directed_edges: 251_550,
            feature_dim: 61_278,
            num_classes: 186,
            exponent: 2.05,
            homophily: 0.6,
            feature_density: 0.0001,
            feature_kind: FeatureKind::BinaryBagOfWords,
            seed: 0x4E11,
        }
    }

    /// Reddit post graph at full Table II scale (232,965 nodes,
    /// 114.6 M edges). Use [`DatasetSpec::reddit_scaled`] for routine runs.
    pub fn reddit() -> Self {
        Self {
            name: "Reddit".into(),
            nodes: 232_965,
            directed_edges: 114_615_892,
            feature_dim: 602,
            num_classes: 41,
            exponent: 2.3,
            homophily: 0.85,
            feature_density: 1.0,
            feature_kind: FeatureKind::DenseEmbedding,
            seed: 0x4EDD17,
        }
    }

    /// Reddit scaled to 1/16 of the node count with the original average
    /// degree (≈492) preserved — the default for benches so runtimes stay
    /// tractable. The scaling substitution is documented in DESIGN.md §1.
    pub fn reddit_scaled() -> Self {
        let mut spec = Self::reddit().scaled(1.0 / 16.0);
        spec.name = "Reddit".into();
        spec
    }

    /// A serving-scale synthetic power-law dataset: ~10 directed edges per
    /// node, 64-dim dense embeddings synthesized *per row on demand* (see
    /// [`RowSynth`]) rather than as a resident f32 matrix. `nodes` is free;
    /// `synth:1m` (10⁶ nodes, 10⁷ edges) is the capacity-bench shape.
    pub fn synth(nodes: usize) -> Self {
        assert!(nodes >= 64, "synth datasets need at least 64 nodes");
        Self {
            name: format!("synth:{}", format_node_count(nodes)),
            nodes,
            directed_edges: nodes * 10,
            feature_dim: 64,
            num_classes: 32,
            exponent: 2.1,
            homophily: 0.8,
            feature_density: 1.0,
            feature_kind: FeatureKind::DenseEmbedding,
            seed: 0xDE5CA1E,
        }
    }

    /// Whether this spec streams features row-on-demand instead of holding a
    /// resident f32 matrix (the `synth:*` family). Streaming specs never
    /// densely materialize, regardless of [`DENSE_FEATURE_BUDGET`].
    pub fn is_streaming(&self) -> bool {
        self.name.to_ascii_lowercase().starts_with("synth:")
    }

    /// Looks up a preset by its (case-insensitive) Table II name. Reddit
    /// resolves to the bench-scale preset. `synth:<count>` (with optional
    /// `k`/`m` suffix, e.g. `synth:50k`, `synth:1m`) resolves to
    /// [`DatasetSpec::synth`]. Used by serving/config surfaces that address
    /// datasets by string.
    pub fn by_name(name: &str) -> Option<Self> {
        let lower = name.to_ascii_lowercase();
        if let Some(count) = lower.strip_prefix("synth:") {
            return parse_node_count(count).map(Self::synth);
        }
        match lower.as_str() {
            "cora" => Some(Self::cora()),
            "citeseer" => Some(Self::citeseer()),
            "pubmed" => Some(Self::pubmed()),
            "nell" => Some(Self::nell()),
            "reddit" => Some(Self::reddit_scaled()),
            _ => None,
        }
    }

    /// All five Table II presets, Reddit at bench scale.
    pub fn all_bench_scale() -> Vec<Self> {
        vec![
            Self::cora(),
            Self::citeseer(),
            Self::pubmed(),
            Self::nell(),
            Self::reddit_scaled(),
        ]
    }

    /// Scales node and edge counts by `f`, preserving average degree.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < f <= 1`.
    pub fn scaled(mut self, f: f64) -> Self {
        assert!(f > 0.0 && f <= 1.0, "scale factor must be in (0, 1]");
        self.nodes = ((self.nodes as f64 * f).round() as usize).max(16);
        self.directed_edges = ((self.directed_edges as f64 * f).round() as usize).max(32);
        self
    }

    /// Replaces the seed (for multi-seed accuracy tables).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the feature dimension (used to shrink NELL for training
    /// demos; the hardware experiments keep the true dimension).
    pub fn with_feature_dim(mut self, dim: usize) -> Self {
        self.feature_dim = dim;
        self
    }

    /// Average degree implied by the spec.
    pub fn average_degree(&self) -> f64 {
        self.directed_edges as f64 / self.nodes as f64
    }

    /// The graph generator [`DatasetSpec::materialize`] runs: symmetric,
    /// one planted community per class.
    pub fn generator(&self) -> PowerLawSbm {
        PowerLawSbm {
            nodes: self.nodes,
            directed_edges: self.directed_edges,
            exponent: self.exponent,
            communities: self.num_classes,
            homophily: self.homophily,
            symmetric: true,
            seed: self.seed,
        }
    }

    /// Generates the graph, labels, masks, and — when within
    /// [`DENSE_FEATURE_BUDGET`] and not a streaming spec — dense features.
    /// Streaming (`synth:*`) specs get a [`RowSynth`] instead: any row is
    /// reproducible on demand without a resident f32 matrix.
    pub fn materialize(&self) -> Dataset {
        let generated = self.generator().generate();
        let labels = generated.communities;
        let streaming = self.is_streaming();
        let features = if !streaming && self.nodes * self.feature_dim <= DENSE_FEATURE_BUDGET {
            let mut rng = StdRng::seed_from_u64(self.seed ^ 0xFEA7);
            Some(synthesize_features(self, &labels, &mut rng))
        } else {
            None
        };
        let synth = streaming.then(|| RowSynth::new(self));
        let masks = Splits::standard(&labels, self.num_classes, self.seed ^ 0x5EED);
        Dataset {
            spec: self.clone(),
            graph: generated.graph,
            features,
            synth,
            labels,
            splits: masks,
        }
    }
}

/// Formats a node count the way `synth:*` names spell it (`1m`, `50k`,
/// `12345`).
fn format_node_count(nodes: usize) -> String {
    if nodes.is_multiple_of(1_000_000) {
        format!("{}m", nodes / 1_000_000)
    } else if nodes.is_multiple_of(1000) {
        format!("{}k", nodes / 1000)
    } else {
        nodes.to_string()
    }
}

/// Parses `"50k"` / `"1m"` / `"12345"`; returns `None` on malformed input.
fn parse_node_count(s: &str) -> Option<usize> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'k' => (&s[..s.len() - 1], 1000usize),
        b'm' => (&s[..s.len() - 1], 1_000_000),
        _ => (s, 1),
    };
    let n: usize = digits.parse().ok()?;
    n.checked_mul(mult).filter(|&n| n >= 64)
}

/// Dense row-major feature matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Features {
    rows: usize,
    dim: usize,
    data: Vec<f32>,
}

impl Features {
    /// Wraps a row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * dim`.
    pub fn from_vec(rows: usize, dim: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * dim, "feature buffer size mismatch");
        Self { rows, dim, data }
    }

    /// Number of rows (nodes).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The full row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Fraction of non-zero entries.
    pub fn density(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let nnz = self.data.iter().filter(|&&x| x != 0.0).count();
        nnz as f64 / self.data.len() as f64
    }

    /// Number of non-zeros in row `i`.
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row(i).iter().filter(|&&x| x != 0.0).count()
    }

    /// Row `i` as a mutable slice (dynamic-graph re-quantization rewrites
    /// rows in place when a node changes precision tier).
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Appends one row (a freshly added node's features).
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != dim`.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.dim, "feature row length mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }
}

/// Train/validation/test node index splits (Planetoid-style).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Splits {
    /// Training node indices (≈20 per class).
    pub train: Vec<NodeId>,
    /// Validation node indices.
    pub val: Vec<NodeId>,
    /// Test node indices.
    pub test: Vec<NodeId>,
}

impl Splits {
    /// Builds the standard split: 20 labeled nodes per class for training,
    /// then up to 500 validation and 1000 test nodes (scaled down on small
    /// graphs).
    pub fn standard(labels: &[u16], num_classes: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = labels.len();
        let mut order: Vec<NodeId> = (0..n as NodeId).collect();
        shuffle(&mut order, &mut rng);
        let per_class = 20.min((n / num_classes.max(1)).max(1) / 2 + 1);
        let mut taken = vec![0usize; num_classes];
        let mut train = Vec::new();
        let mut rest = Vec::new();
        for &v in &order {
            let c = labels[v as usize] as usize;
            if c < num_classes && taken[c] < per_class {
                taken[c] += 1;
                train.push(v);
            } else {
                rest.push(v);
            }
        }
        let val_size = 500.min(rest.len() / 2);
        let test_size = 1000.min(rest.len() - val_size);
        let val = rest[..val_size].to_vec();
        let test = rest[val_size..val_size + test_size].to_vec();
        Self { train, val, test }
    }
}

/// A fully materialized dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The recipe this dataset came from.
    pub spec: DatasetSpec,
    /// Graph structure.
    pub graph: Graph,
    /// Dense input features, or `None` if the spec exceeds
    /// [`DENSE_FEATURE_BUDGET`] (hardware experiments need only statistics)
    /// or streams rows on demand (see [`Dataset::synth`]).
    pub features: Option<Features>,
    /// Row-on-demand feature synthesizer for streaming (`synth:*`) specs.
    pub synth: Option<RowSynth>,
    /// Class label per node.
    pub labels: Vec<u16>,
    /// Train/val/test node splits.
    pub splits: Splits,
}

impl Dataset {
    /// Borrows the dense features.
    ///
    /// # Panics
    ///
    /// Panics if the dataset was materialized without features; check
    /// [`Dataset::has_features`] or use a spec within budget.
    pub fn features(&self) -> &Features {
        self.features
            .as_ref()
            .expect("dataset materialized without dense features")
    }

    /// Whether dense features were materialized.
    pub fn has_features(&self) -> bool {
        self.features.is_some()
    }

    /// Synthesizes node `v`'s raw feature row into `out` without touching a
    /// resident matrix. Works for dense-features datasets too (copying the
    /// stored row), so serve-side consumers have one entry point.
    ///
    /// # Panics
    ///
    /// Panics if neither dense features nor a synthesizer exist, if `v` is
    /// out of range of the label table, or if `out.len() != feature_dim`.
    pub fn fill_row(&self, v: usize, out: &mut [f32]) {
        if let Some(f) = &self.features {
            out.copy_from_slice(f.row(v));
        } else if let Some(s) = &self.synth {
            s.fill_row(v as u64, self.labels[v], out);
        } else {
            panic!("dataset has neither dense features nor a row synthesizer");
        }
    }
}

/// Deterministic row-on-demand feature synthesis for streaming datasets.
///
/// The sequential `synthesize_features` path draws a variable number of
/// RNG values per node, so row `v` cannot be regenerated without replaying
/// rows `0..v`. `RowSynth` instead derives an independent RNG per node
/// (seed mixed with a SplitMix64 constant), making any row O(dim) to
/// produce — that's what lets million-node datasets serve, re-quantize on
/// tier changes, and rebuild shard halos without a resident `n × dim` f32
/// matrix. Class tables (means or topic pools) are precomputed once from
/// the same `seed ^ 0xFEA7` stream the sequential path uses.
#[derive(Debug, Clone)]
pub struct RowSynth {
    dim: usize,
    kind: FeatureKind,
    mean_nnz: f64,
    seed: u64,
    /// `DenseEmbedding`: class means, `num_classes × dim` row-major.
    means: Vec<f32>,
    /// `BinaryBagOfWords` / `TfIdf`: per-class topic-word pools.
    pools: Vec<Vec<u32>>,
}

impl RowSynth {
    /// Precomputes the class tables for `spec`.
    pub fn new(spec: &DatasetSpec) -> Self {
        let dim = spec.feature_dim;
        let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xFEA7);
        let (means, pools) = match spec.feature_kind {
            FeatureKind::DenseEmbedding => {
                let mut means = vec![0.0f32; spec.num_classes * dim];
                for m in means.iter_mut() {
                    *m = standard_normal(&mut rng) as f32 * 0.9;
                }
                (means, Vec::new())
            }
            FeatureKind::BinaryBagOfWords | FeatureKind::TfIdf => {
                (Vec::new(), class_pools(spec, &mut rng))
            }
        };
        Self {
            dim,
            kind: spec.feature_kind,
            mean_nnz: (spec.feature_density * dim as f64).max(1.0),
            seed: spec.seed,
            means,
            pools,
        }
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Resident bytes of the precomputed class tables.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(self.means.as_slice())
            + self
                .pools
                .iter()
                .map(|p| std::mem::size_of_val(p.as_slice()))
                .sum::<usize>()
    }

    /// Writes node `node`'s feature row (class `class`) into `out`.
    /// Deterministic in `(seed, node, class)` alone.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != dim` or `class` exceeds the class tables.
    pub fn fill_row(&self, node: u64, class: u16, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim, "row buffer length mismatch");
        // SplitMix64-style mixing decorrelates consecutive node seeds.
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ 0xFEA7 ^ node.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let c = class as usize;
        match self.kind {
            FeatureKind::DenseEmbedding => {
                let means = &self.means[c * self.dim..(c + 1) * self.dim];
                for (o, &m) in out.iter_mut().zip(means) {
                    *o = m + standard_normal(&mut rng) as f32 * 0.9;
                }
            }
            FeatureKind::BinaryBagOfWords | FeatureKind::TfIdf => {
                out.fill(0.0);
                let pool = &self.pools[c];
                let jitter = 1.0 + 0.35 * standard_normal(&mut rng);
                let nnz = ((self.mean_nnz * jitter).round() as i64).clamp(1, (self.dim / 2) as i64)
                    as usize;
                for _ in 0..nnz {
                    let j = if rng.gen::<f64>() < 0.8 {
                        pool[rng.gen_range(0..pool.len())] as usize
                    } else {
                        rng.gen_range(0..self.dim)
                    };
                    out[j] = match self.kind {
                        FeatureKind::BinaryBagOfWords => 1.0,
                        FeatureKind::TfIdf => (0.2 + 0.8 * rng.gen::<f32>()).min(1.0),
                        FeatureKind::DenseEmbedding => unreachable!(),
                    };
                }
            }
        }
    }
}

fn synthesize_features(spec: &DatasetSpec, labels: &[u16], rng: &mut StdRng) -> Features {
    let n = labels.len();
    let dim = spec.feature_dim;
    match spec.feature_kind {
        FeatureKind::DenseEmbedding => {
            // Class means on a sphere + isotropic noise.
            let mut means = vec![0.0f32; spec.num_classes * dim];
            for m in means.iter_mut() {
                *m = standard_normal(rng) as f32 * 0.9;
            }
            let mut data = vec![0.0f32; n * dim];
            for v in 0..n {
                let c = labels[v] as usize;
                for j in 0..dim {
                    data[v * dim + j] = means[c * dim + j] + standard_normal(rng) as f32 * 0.9;
                }
            }
            Features::from_vec(n, dim, data)
        }
        FeatureKind::BinaryBagOfWords | FeatureKind::TfIdf => {
            // Each class owns a pool of "topic words"; nodes draw most of
            // their non-zeros from their class pool.
            let mean_nnz = (spec.feature_density * dim as f64).max(1.0);
            let pools = class_pools(spec, rng);
            let mut data = vec![0.0f32; n * dim];
            for v in 0..n {
                let pool = &pools[labels[v] as usize];
                let jitter = 1.0 + 0.35 * standard_normal(rng);
                let nnz = ((mean_nnz * jitter).round() as i64).clamp(1, (dim / 2) as i64) as usize;
                for _ in 0..nnz {
                    let j = if rng.gen::<f64>() < 0.8 {
                        pool[rng.gen_range(0..pool.len())] as usize
                    } else {
                        rng.gen_range(0..dim)
                    };
                    data[v * dim + j] = match spec.feature_kind {
                        FeatureKind::BinaryBagOfWords => 1.0,
                        FeatureKind::TfIdf => (0.2 + 0.8 * rng.gen::<f32>()).min(1.0),
                        FeatureKind::DenseEmbedding => unreachable!(),
                    };
                }
            }
            Features::from_vec(n, dim, data)
        }
    }
}

/// Builds the per-class topic-word pools for sparse feature kinds. One
/// scratch permutation buffer is reused across classes (hoisted out of the
/// per-class loop); refilling `0..dim` before each shuffle keeps the RNG
/// stream — and therefore every generated dataset — byte-identical to the
/// pre-hoist code.
fn class_pools(spec: &DatasetSpec, rng: &mut StdRng) -> Vec<Vec<u32>> {
    let dim = spec.feature_dim;
    let mean_nnz = (spec.feature_density * dim as f64).max(1.0);
    let pool_size = ((mean_nnz * 4.0) as usize).clamp(4, dim);
    let mut dims: Vec<u32> = Vec::with_capacity(dim);
    (0..spec.num_classes)
        .map(|_| {
            dims.clear();
            dims.extend(0..dim as u32);
            shuffle(&mut dims, rng);
            dims[..pool_size].to_vec()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cora_matches_table_ii() {
        let d = DatasetSpec::cora().materialize();
        assert_eq!(d.graph.num_nodes(), 2708);
        let e = d.graph.num_edges();
        assert!(
            (e as i64 - 10_556).unsigned_abs() < 600,
            "edge count {e} too far from 10556"
        );
        assert!((d.graph.average_degree() - 3.90).abs() < 0.3);
        assert!(d.has_features());
        assert_eq!(d.features().dim(), 1433);
    }

    #[test]
    fn citeseer_feature_density_near_spec() {
        let d = DatasetSpec::citeseer().materialize();
        let density = d.features().density();
        assert!(
            (density - 0.0085).abs() < 0.004,
            "density {density} far from 0.0085"
        );
    }

    #[test]
    fn nell_skips_dense_features() {
        // Materializing NELL structure is ~250k edges: fine. Features are not.
        let spec = DatasetSpec::nell().scaled(0.2);
        assert!(spec.nodes * spec.feature_dim > DENSE_FEATURE_BUDGET);
        let d = spec.materialize();
        assert!(!d.has_features());
    }

    #[test]
    fn reddit_scaled_keeps_average_degree() {
        let spec = DatasetSpec::reddit_scaled();
        assert!((spec.average_degree() - 491.99).abs() < 2.0);
        assert_eq!(spec.nodes, 14_560); // 232,965 / 16 rounded to nearest
    }

    #[test]
    fn splits_are_disjoint_and_class_balanced() {
        let d = DatasetSpec::cora().materialize();
        let s = &d.splits;
        let mut seen = vec![false; d.graph.num_nodes()];
        for &v in s.train.iter().chain(&s.val).chain(&s.test) {
            assert!(!seen[v as usize], "node {v} appears in two splits");
            seen[v as usize] = true;
        }
        // 7 classes x 20 = 140 training nodes, Planetoid-style.
        assert_eq!(s.train.len(), 140);
        assert_eq!(s.val.len(), 500);
        assert_eq!(s.test.len(), 1000);
    }

    #[test]
    fn features_correlate_with_labels() {
        let d = DatasetSpec::cora().materialize();
        let f = d.features();
        // Nodes of the same class should share more non-zero dims than nodes
        // of different classes (this is what makes the task learnable).
        let same = avg_overlap(&d, |a, b| d.labels[a] == d.labels[b]);
        let diff = avg_overlap(&d, |a, b| d.labels[a] != d.labels[b]);
        assert!(
            same > 2.0 * diff,
            "same-class overlap {same} not >> cross-class {diff}"
        );
        assert!(f.density() > 0.005 && f.density() < 0.03);
    }

    fn avg_overlap(d: &Dataset, keep: impl Fn(usize, usize) -> bool) -> f64 {
        let f = d.features();
        let mut total = 0.0;
        let mut count = 0usize;
        let step = 37;
        let mut a = 0usize;
        while a + step < d.graph.num_nodes() && count < 300 {
            let b = a + step;
            if keep(a, b) {
                let overlap = f
                    .row(a)
                    .iter()
                    .zip(f.row(b))
                    .filter(|(x, y)| **x != 0.0 && **y != 0.0)
                    .count();
                total += overlap as f64;
                count += 1;
            }
            a += 1;
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }

    #[test]
    fn deterministic_materialization() {
        let a = DatasetSpec::citeseer().materialize();
        let b = DatasetSpec::citeseer().materialize();
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.features, b.features);
        assert_eq!(a.splits, b.splits);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn zero_scale_panics() {
        let _ = DatasetSpec::cora().scaled(0.0);
    }

    #[test]
    fn synth_names_parse_and_round_trip() {
        let spec = DatasetSpec::by_name("synth:1m").expect("synth:1m parses");
        assert_eq!(spec.nodes, 1_000_000);
        assert_eq!(spec.directed_edges, 10_000_000);
        assert_eq!(spec.name, "synth:1m");
        assert!(spec.is_streaming());
        let spec = DatasetSpec::by_name("SYNTH:50K").expect("case-insensitive");
        assert_eq!(spec.nodes, 50_000);
        assert_eq!(spec.name, "synth:50k");
        assert_eq!(DatasetSpec::by_name("synth:2500").unwrap().nodes, 2500);
        assert!(DatasetSpec::by_name("synth:").is_none());
        assert!(DatasetSpec::by_name("synth:abc").is_none());
        assert!(DatasetSpec::by_name("synth:0").is_none());
        assert!(!DatasetSpec::cora().is_streaming());
    }

    #[test]
    fn synth_materializes_without_resident_features() {
        let spec = DatasetSpec::synth(2000);
        let d = spec.materialize();
        assert!(!d.has_features(), "streaming spec must not hold a matrix");
        let s = d.synth.as_ref().expect("row synthesizer present");
        assert_eq!(s.dim(), spec.feature_dim);
        assert_eq!(d.labels.len(), 2000);
        assert!(d.graph.num_nodes() == 2000 && d.graph.is_symmetric());
    }

    #[test]
    fn row_synth_is_deterministic_and_order_free() {
        let spec = DatasetSpec::synth(2000);
        let s = RowSynth::new(&spec);
        let mut a = vec![0.0f32; spec.feature_dim];
        let mut b = vec![0.0f32; spec.feature_dim];
        // Same row twice, with unrelated rows in between: identical output.
        s.fill_row(7, 3, &mut a);
        s.fill_row(1999, 12, &mut b);
        s.fill_row(7, 3, &mut b);
        assert_eq!(a, b);
        // Different rows differ.
        s.fill_row(8, 3, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn row_synth_rows_cluster_by_class() {
        // Rows of the same class share the class mean, so same-class rows
        // must be closer (L2) than cross-class rows on average.
        let spec = DatasetSpec::synth(2000);
        let s = RowSynth::new(&spec);
        let dim = spec.feature_dim;
        let mut rows = vec![vec![0.0f32; dim]; 4];
        s.fill_row(0, 5, &mut rows[0]);
        s.fill_row(1, 5, &mut rows[1]);
        s.fill_row(2, 9, &mut rows[2]);
        s.fill_row(3, 9, &mut rows[3]);
        let dist =
            |a: &[f32], b: &[f32]| -> f32 { a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum() };
        let same = dist(&rows[0], &rows[1]) + dist(&rows[2], &rows[3]);
        let cross = dist(&rows[0], &rows[2]) + dist(&rows[1], &rows[3]);
        assert!(same < cross, "same-class {same} not < cross-class {cross}");
    }

    #[test]
    fn row_synth_sparse_kinds_respect_density() {
        let mut spec = DatasetSpec::cora().scaled(0.05).with_feature_dim(256);
        spec.feature_density = 0.05;
        let s = RowSynth::new(&spec);
        let mut row = vec![0.0f32; 256];
        let mut total_nnz = 0usize;
        for v in 0..64u64 {
            s.fill_row(v, (v % 7) as u16, &mut row);
            total_nnz += row.iter().filter(|&&x| x != 0.0).count();
        }
        let mean = total_nnz as f64 / 64.0;
        let target = 0.05 * 256.0;
        assert!(
            mean > 0.5 * target && mean < 1.5 * target,
            "mean nnz {mean} far from target {target}"
        );
    }

    #[test]
    fn dataset_fill_row_matches_dense_storage() {
        let d = DatasetSpec::cora().scaled(0.05).materialize();
        let mut buf = vec![0.0f32; d.spec.feature_dim];
        d.fill_row(3, &mut buf);
        assert_eq!(buf.as_slice(), d.features().row(3));
    }

    #[test]
    fn pool_hoist_keeps_datasets_byte_identical() {
        // The scratch-buffer hoist in class_pools must not perturb the RNG
        // stream: spot-check a known preset's density & determinism.
        let a = DatasetSpec::cora().scaled(0.1).materialize();
        let b = DatasetSpec::cora().scaled(0.1).materialize();
        assert_eq!(a.features, b.features);
    }
}
