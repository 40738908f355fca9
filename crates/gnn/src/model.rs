//! The GNN model family: parameters, configuration, and the hooked forward
//! pass.

use std::rc::Rc;

use mega_graph::datasets::Dataset;
use mega_tensor::{CsrMatrix, Matrix, Tape, VarId};

use crate::adjacency::AggregatorKind;

/// Which GNN architecture (paper Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GnnKind {
    /// Graph Convolutional Network \[Kipf & Welling\].
    Gcn,
    /// Graph Isomorphism Network \[Xu et al.\].
    Gin,
    /// GraphSAGE with mean aggregation and 25-neighbor sampling.
    GraphSage,
}

impl GnnKind {
    /// Display name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            GnnKind::Gcn => "GCN",
            GnnKind::Gin => "GIN",
            GnnKind::GraphSage => "GraphSage",
        }
    }

    /// The aggregator this model uses.
    pub fn aggregator(&self, seed: u64) -> AggregatorKind {
        match self {
            GnnKind::Gcn => AggregatorKind::GcnSymmetric,
            GnnKind::Gin => AggregatorKind::GinSum,
            GnnKind::GraphSage => AggregatorKind::SageMean { sample: 25, seed },
        }
    }

    /// Hidden width from Table III.
    pub fn default_hidden(&self) -> usize {
        match self {
            GnnKind::Gcn | GnnKind::Gin => 128,
            GnnKind::GraphSage => 256,
        }
    }
}

/// Hyper-parameters of a model instance.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Architecture.
    pub kind: GnnKind,
    /// Input feature dimension.
    pub in_dim: usize,
    /// Hidden width (Table III defaults via [`ModelConfig::for_dataset`]).
    pub hidden: usize,
    /// Output classes.
    pub out_dim: usize,
    /// Number of layers (the paper uses 2 everywhere).
    pub layers: usize,
    /// Parameter-init / sampling seed.
    pub seed: u64,
}

impl ModelConfig {
    /// Table III configuration of `kind` for a dataset.
    pub fn for_dataset(kind: GnnKind, dataset: &Dataset) -> Self {
        Self {
            kind,
            in_dim: dataset.spec.feature_dim,
            hidden: kind.default_hidden(),
            out_dim: dataset.spec.num_classes,
            layers: 2,
            seed: dataset.spec.seed ^ 0x6A11,
        }
    }

    /// Layer input/output dimensions.
    pub fn layer_dims(&self) -> Vec<(usize, usize)> {
        assert!(self.layers >= 1);
        let mut dims = Vec::with_capacity(self.layers);
        for l in 0..self.layers {
            let input = if l == 0 { self.in_dim } else { self.hidden };
            let out = if l + 1 == self.layers {
                self.out_dim
            } else {
                self.hidden
            };
            dims.push((input, out));
        }
        dims
    }
}

/// Customization point for the forward pass: `mega-quant` uses it to insert
/// quantize ops on weights and activations during QAT.
///
/// The default implementations are identity, so a plain model needs only
/// [`IdentityHook`].
pub trait ForwardHook {
    /// Called once at the start of every forward pass, before any layer;
    /// hooks register their own tape parameters here.
    fn begin(&mut self, tape: &mut Tape) {
        let _ = tape;
    }

    /// Transforms the weight variable of layer `layer`.
    fn transform_weight(&mut self, tape: &mut Tape, layer: usize, w: VarId) -> VarId {
        let _ = (tape, layer);
        w
    }

    /// Transforms the activation (the feature map entering layer `layer`;
    /// `layer == 0` is the input features when dense).
    fn transform_activation(&mut self, tape: &mut Tape, layer: usize, h: VarId) -> VarId {
        let _ = (tape, layer);
        h
    }
}

/// The no-op hook.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdentityHook;

impl ForwardHook for IdentityHook {}

/// A GNN with owned parameters.
///
/// # Example
///
/// ```
/// use mega_graph::datasets::DatasetSpec;
/// use mega_gnn::{build_adjacency, Gnn, GnnKind, IdentityHook, ModelConfig};
/// use mega_tensor::Tape;
///
/// let data = DatasetSpec::cora().scaled(0.05).materialize();
/// let cfg = ModelConfig::for_dataset(GnnKind::Gcn, &data);
/// let model = Gnn::new(cfg.clone());
/// let adj = build_adjacency(&data.graph, cfg.kind.aggregator(1));
/// let mut tape = Tape::new();
/// let out = model.forward(&mut tape, &data, &adj, &mut IdentityHook, None);
/// assert_eq!(tape.value(out.logits).shape(), (data.graph.num_nodes(), 7));
/// ```
#[derive(Debug, Clone)]
pub struct Gnn {
    config: ModelConfig,
    weights: Vec<Matrix>,
    biases: Vec<Matrix>,
}

impl Gnn {
    /// Initializes parameters (Xavier-uniform, deterministic in
    /// `config.seed`).
    pub fn new(config: ModelConfig) -> Self {
        let mut weights = Vec::new();
        let mut biases = Vec::new();
        for (l, (i, o)) in config.layer_dims().into_iter().enumerate() {
            weights.push(Matrix::xavier_uniform(
                i,
                o,
                config.seed.wrapping_add(l as u64),
            ));
            biases.push(Matrix::zeros(1, o));
        }
        Self {
            config,
            weights,
            biases,
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Immutable view of layer weights.
    pub fn weights(&self) -> &[Matrix] {
        &self.weights
    }

    /// Immutable view of layer biases (shape `(1, out_dim)` each).
    pub fn biases(&self) -> &[Matrix] {
        &self.biases
    }

    /// Mutable parameter references in optimizer order (weights then biases,
    /// layer by layer).
    pub fn params_mut(&mut self) -> Vec<&mut Matrix> {
        let mut out: Vec<&mut Matrix> = Vec::new();
        for (w, b) in self.weights.iter_mut().zip(self.biases.iter_mut()) {
            out.push(w);
            out.push(b);
        }
        out
    }

    /// Runs the hooked forward pass.
    ///
    /// Input features are taken sparse from the dataset (first-layer `X·W`
    /// exploits bag-of-words sparsity); `dropout_masks`, when given, supply
    /// one mask per hidden layer applied to that layer's input activation
    /// (training-time inverted dropout).
    ///
    /// # Panics
    ///
    /// Panics if the dataset has no dense features or mask shapes mismatch.
    pub fn forward(
        &self,
        tape: &mut Tape,
        dataset: &Dataset,
        adjacency: &Rc<CsrMatrix>,
        hook: &mut dyn ForwardHook,
        dropout_masks: Option<&[Matrix]>,
    ) -> ForwardOutput {
        let x_sparse = Rc::new(CsrMatrix::from_dense(&Matrix::from_vec(
            dataset.features().rows(),
            dataset.features().dim(),
            dataset.features().data().to_vec(),
        )));
        let at = Rc::new(adjacency.transpose());
        self.forward_from_sparse(tape, &x_sparse, adjacency, &at, hook, dropout_masks)
    }

    /// Like [`Gnn::forward`] but takes pre-extracted sparse input features
    /// and a pre-transposed adjacency (avoids recomputing both every epoch).
    pub fn forward_from_sparse(
        &self,
        tape: &mut Tape,
        x_sparse: &Rc<CsrMatrix>,
        adjacency: &Rc<CsrMatrix>,
        adjacency_t: &Rc<CsrMatrix>,
        hook: &mut dyn ForwardHook,
        dropout_masks: Option<&[Matrix]>,
    ) -> ForwardOutput {
        hook.begin(tape);
        let layers = self.config.layers;
        let mut weight_vars = Vec::with_capacity(layers);
        let mut bias_vars = Vec::with_capacity(layers);
        let mut h: Option<VarId> = None;
        let mut logits = None;
        for l in 0..layers {
            let w = tape.param(self.weights[l].clone());
            weight_vars.push(w);
            let w = hook.transform_weight(tape, l, w);
            let b = tape.param(self.biases[l].clone());
            bias_vars.push(b);
            // Combination: X·W (sparse X on layer 0, dense activation after).
            let combined = match h {
                None => tape.spmm_left(x_sparse, w),
                Some(hv) => {
                    let hv = if let Some(masks) = dropout_masks {
                        tape.dropout_with_mask(hv, masks[l - 1].clone())
                    } else {
                        hv
                    };
                    tape.matmul(hv, w)
                }
            };
            let combined = tape.add_bias(combined, b);
            // Aggregation: Ã·(XW) — the paper's A(XW) ordering.
            let aggregated = tape.spmm_left_with_transpose(adjacency, adjacency_t, combined);
            if l + 1 == layers {
                logits = Some(aggregated);
            } else {
                let activated = tape.relu(aggregated);
                let hooked = hook.transform_activation(tape, l + 1, activated);
                h = Some(hooked);
            }
        }
        ForwardOutput {
            logits: logits.expect("layers >= 1"),
            weight_vars,
            bias_vars,
        }
    }
}

/// Result of a forward pass: the logits plus the parameter variables, so
/// training loops can read gradients back from the tape.
#[derive(Debug, Clone)]
pub struct ForwardOutput {
    /// Logits variable, shape `(nodes, classes)`.
    pub logits: VarId,
    /// Weight parameter variable per layer (pre-hook).
    pub weight_vars: Vec<VarId>,
    /// Bias parameter variable per layer.
    pub bias_vars: Vec<VarId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::build_adjacency;
    use mega_graph::datasets::DatasetSpec;

    fn tiny() -> Dataset {
        DatasetSpec::cora()
            .scaled(0.04)
            .with_feature_dim(64)
            .materialize()
    }

    #[test]
    fn layer_dims_follow_table_iii() {
        let d = tiny();
        let cfg = ModelConfig::for_dataset(GnnKind::Gcn, &d);
        assert_eq!(cfg.layer_dims(), vec![(64, 128), (128, 7)]);
        let cfg = ModelConfig::for_dataset(GnnKind::GraphSage, &d);
        assert_eq!(cfg.hidden, 256);
    }

    #[test]
    fn forward_produces_logits_of_right_shape() {
        let d = tiny();
        for kind in [GnnKind::Gcn, GnnKind::Gin, GnnKind::GraphSage] {
            let cfg = ModelConfig::for_dataset(kind, &d);
            let model = Gnn::new(cfg.clone());
            let adj = build_adjacency(&d.graph, kind.aggregator(7));
            let mut tape = Tape::new();
            let out = model.forward(&mut tape, &d, &adj, &mut IdentityHook, None);
            assert_eq!(
                tape.value(out.logits).shape(),
                (d.graph.num_nodes(), d.spec.num_classes)
            );
        }
    }

    #[test]
    fn forward_is_deterministic() {
        let d = tiny();
        let cfg = ModelConfig::for_dataset(GnnKind::Gcn, &d);
        let model = Gnn::new(cfg.clone());
        let adj = build_adjacency(&d.graph, cfg.kind.aggregator(7));
        let mut t1 = Tape::new();
        let o1 = model.forward(&mut t1, &d, &adj, &mut IdentityHook, None);
        let mut t2 = Tape::new();
        let o2 = model.forward(&mut t2, &d, &adj, &mut IdentityHook, None);
        assert_eq!(t1.value(o1.logits), t2.value(o2.logits));
    }

    #[test]
    fn hook_sees_every_layer_weight() {
        #[derive(Default)]
        struct Counting {
            weights_seen: usize,
            activations_seen: usize,
        }
        impl ForwardHook for Counting {
            fn transform_weight(&mut self, _t: &mut Tape, _l: usize, w: VarId) -> VarId {
                self.weights_seen += 1;
                w
            }
            fn transform_activation(&mut self, _t: &mut Tape, _l: usize, h: VarId) -> VarId {
                self.activations_seen += 1;
                h
            }
        }
        let d = tiny();
        let cfg = ModelConfig::for_dataset(GnnKind::Gcn, &d);
        let model = Gnn::new(cfg.clone());
        let adj = build_adjacency(&d.graph, cfg.kind.aggregator(7));
        let mut hook = Counting::default();
        let mut tape = Tape::new();
        let _ = model.forward(&mut tape, &d, &adj, &mut hook, None);
        assert_eq!(hook.weights_seen, 2);
        assert_eq!(hook.activations_seen, 1); // between the two layers
    }

    #[test]
    fn gradients_flow_to_all_parameters() {
        let d = tiny();
        let cfg = ModelConfig::for_dataset(GnnKind::Gcn, &d);
        let model = Gnn::new(cfg.clone());
        let adj = build_adjacency(&d.graph, cfg.kind.aggregator(7));
        let mut tape = Tape::new();
        let out = model.forward(&mut tape, &d, &adj, &mut IdentityHook, None);
        let labels = std::rc::Rc::new(d.labels.clone());
        let idx = std::rc::Rc::new(d.splits.train.clone());
        let loss = tape.softmax_cross_entropy(out.logits, labels, idx);
        tape.backward(loss);
        let l = tape.value(loss).get(0, 0);
        assert!(l.is_finite() && l > 0.0, "loss {l}");
        for (&w, &b) in out.weight_vars.iter().zip(&out.bias_vars) {
            assert!(tape.try_grad(w).is_some(), "weight missing gradient");
            assert!(tape.try_grad(b).is_some(), "bias missing gradient");
        }
    }
}
