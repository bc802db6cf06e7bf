//! Sequential network container.

use crate::layer::{InferScratch, LayerKind};
use crate::loss::softmax;
use crate::simd::ConvEpilogue;
use crate::Tensor;
use serde::{Deserialize, Serialize};

/// Reusable activation buffers for the allocation-free inference path
/// ([`Network::forward_batch_into`]).
///
/// Holds two ping-pong activation tensors plus per-layer scratch. The
/// buffers grow to the largest activation the network produces during the
/// first call and are reused verbatim afterwards, so steady-state
/// inference performs no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct InferBuffers {
    ping: Tensor,
    pong: Tensor,
    scratch: InferScratch,
}

impl InferBuffers {
    /// Creates empty buffers; they are sized lazily on first use.
    pub fn new() -> Self {
        InferBuffers::default()
    }
}

/// A sequential feed-forward network: the paper's IL DNN is an instance
/// (three conv+ReLU+pool blocks, flatten, four dense layers).
///
/// # Example
///
/// ```
/// use icoil_nn::{Network, Tensor, layer::LayerKind};
///
/// let mut net = Network::new(vec![
///     LayerKind::dense(4, 8, 0),
///     LayerKind::relu(),
///     LayerKind::dense(8, 3, 1),
/// ]);
/// let x = Tensor::zeros(vec![2, 4]);
/// let probs = net.predict_proba(&x);
/// assert_eq!(probs.shape(), &[2, 3]);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Network {
    layers: Vec<LayerKind>,
}

/// Removes the first layer of `rest` when it matches, reporting whether
/// it did.
fn take_next(rest: &mut &[LayerKind], matches: impl Fn(&LayerKind) -> bool) -> bool {
    match rest.split_first() {
        Some((layer, tail)) if matches(layer) => {
            *rest = tail;
            true
        }
        _ => false,
    }
}

impl Network {
    /// Builds a network from a layer stack.
    pub fn new(layers: Vec<LayerKind>) -> Self {
        Network { layers }
    }

    /// The paper's IL architecture (§IV-A): three convolution blocks
    /// (conv 3×3 → ReLU → max-pool 2×2) followed by four fully-connected
    /// layers ending in `classes` logits, with dropout in the FC stack.
    /// `input` is `(channels, height, width)`; height and width must be
    /// divisible by 8.
    ///
    /// Dropout is not in the paper's layer list, but the paper grounds
    /// its uncertainty signal in Kendall & Gal \[19\] — dropout-based
    /// Bayesian uncertainty — and without it the softmax collapses to
    /// near-zero entropy, starving the HSA of its signal.
    ///
    /// # Panics
    ///
    /// Panics when height or width is not divisible by 8.
    pub fn il_architecture(input: (usize, usize, usize), classes: usize, seed: u64) -> Self {
        let (c, h, w) = input;
        assert!(
            h % 8 == 0 && w % 8 == 0,
            "IL architecture pools by 8; height and width must be divisible by 8"
        );
        let flat = 32 * (h / 8) * (w / 8);
        Network::new(vec![
            LayerKind::conv2d(c, 8, 3, seed),
            LayerKind::relu(),
            LayerKind::maxpool2d(2),
            LayerKind::conv2d(8, 16, 3, seed.wrapping_add(1)),
            LayerKind::relu(),
            LayerKind::maxpool2d(2),
            LayerKind::conv2d(16, 32, 3, seed.wrapping_add(2)),
            LayerKind::relu(),
            LayerKind::maxpool2d(2),
            LayerKind::flatten(),
            LayerKind::dense(flat, 128, seed.wrapping_add(3)),
            LayerKind::relu(),
            LayerKind::dropout(0.25, seed.wrapping_add(7)),
            LayerKind::dense(128, 64, seed.wrapping_add(4)),
            LayerKind::relu(),
            LayerKind::dropout(0.25, seed.wrapping_add(8)),
            LayerKind::dense(64, 32, seed.wrapping_add(5)),
            LayerKind::relu(),
            LayerKind::dense(32, classes, seed.wrapping_add(6)),
        ])
    }

    /// The layer stack.
    pub fn layers_mut(&mut self) -> &mut [LayerKind] {
        &mut self.layers
    }

    /// Forward pass producing logits. `train = true` caches activations
    /// for [`Network::backward`].
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut h = x.clone();
        for layer in &mut self.layers {
            h = layer.forward(&h, train);
        }
        h
    }

    /// Forward pass followed by row-wise softmax.
    pub fn predict_proba(&mut self, x: &Tensor) -> Tensor {
        let logits = self.forward(x, false);
        softmax(&logits)
    }

    /// Ping-pongs the already-staged `buf.ping` input through the layer
    /// stack; returns `true` when the result landed in `buf.ping`.
    ///
    /// A conv layer runs as one block with the ReLU and the 2×2 max pool
    /// that follow it, when they do ([`crate::layer::Conv2d`]'s fused
    /// inference). A ReLU that no block absorbed runs in place, flatten
    /// only reshapes, and dropout is the identity, so only conv blocks,
    /// dense layers and unabsorbed pools move data between the buffers.
    /// Every element sees the same operations in the same order as in
    /// [`Network::forward`] with `train = false`.
    fn run_layers(&self, buf: &mut InferBuffers) -> bool {
        let InferBuffers {
            ping,
            pong,
            scratch,
        } = buf;
        let (mut cur, mut next) = (ping, pong);
        let mut in_ping = true;
        let mut rest = self.layers.as_slice();
        while let Some((layer, tail)) = rest.split_first() {
            rest = tail;
            match layer {
                LayerKind::Conv2d(conv) => {
                    let relu = take_next(&mut rest, |l| matches!(l, LayerKind::ReLU(_)));
                    let pool = take_next(
                        &mut rest,
                        |l| matches!(l, LayerKind::MaxPool2d(p) if p.size() == 2),
                    );
                    conv.infer_block(cur, ConvEpilogue { relu, pool }, next, scratch);
                }
                LayerKind::Dense(dense) => dense.infer_into(cur, next),
                LayerKind::MaxPool2d(pool) => pool.infer_into(cur, next),
                LayerKind::ReLU(_) => {
                    for v in cur.data_mut() {
                        *v = v.max(0.0);
                    }
                    continue;
                }
                LayerKind::Flatten(_) => {
                    let n = cur.shape()[0];
                    let rest_len = cur.shape()[1..].iter().product::<usize>();
                    cur.reshape_in_place(&[n, rest_len]);
                    continue;
                }
                LayerKind::Dropout(_) => continue,
            }
            std::mem::swap(&mut cur, &mut next);
            in_ping = !in_ping;
        }
        in_ping
    }

    /// Inference over a stacked micro-batch: `samples` are `n` flattened
    /// inputs of identical shape `sample_shape` (e.g. `[channels, h, w]`
    /// BEV images); they are staged into the internal ping buffer as one
    /// `[n, ...sample_shape]` batch and run through the inference layer
    /// loop, and the `[n, classes]` logits are written into `out`.
    ///
    /// Every layer in the inference path treats batch rows independently
    /// with a fixed per-row accumulation order — conv blocks loop per
    /// sample, dense outputs are independent dot products, dropout is the
    /// identity at inference — so row `i` of `out` is bit-identical to a
    /// batch of sample `i` alone, and to `forward(x, false)` on it. The
    /// conformance harness (`batched_single_il`) holds the paths to
    /// exactly that standard.
    ///
    /// Allocation-free after warm-up: activations live in `buf` and `out`
    /// reuses its own storage once grown.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch, when a sample's length does not match
    /// `sample_shape`, or when `sample_shape` has more than 7 axes.
    pub fn forward_batch_into(
        &self,
        samples: &[&[f32]],
        sample_shape: &[usize],
        buf: &mut InferBuffers,
        out: &mut Tensor,
    ) {
        assert!(
            !samples.is_empty(),
            "forward_batch_into needs at least one sample"
        );
        assert!(sample_shape.len() <= 7, "sample rank exceeds 7");
        let sample_len: usize = sample_shape.iter().product();
        // fixed-size shape scratch keeps this path heap-allocation-free
        let mut shape = [0usize; 8];
        shape[0] = samples.len();
        shape[1..=sample_shape.len()].copy_from_slice(sample_shape);
        buf.ping.resize(&shape[..=sample_shape.len()]);
        for (i, sample) in samples.iter().enumerate() {
            assert_eq!(
                sample.len(),
                sample_len,
                "sample {i} does not match sample_shape"
            );
            buf.ping.data_mut()[i * sample_len..(i + 1) * sample_len].copy_from_slice(sample);
        }
        if self.run_layers(buf) {
            out.copy_from(&buf.ping);
        } else {
            out.copy_from(&buf.pong);
        }
    }

    /// Backward pass from a loss gradient; accumulates parameter
    /// gradients.
    ///
    /// # Panics
    ///
    /// Panics when no training-mode forward pass preceded it.
    pub fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mut g = grad.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// Clears all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Mutable (parameter, gradient) pairs across all layers, stable
    /// order.
    pub fn params_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_grads())
            .collect()
    }

    /// Total number of trainable parameters.
    pub fn num_params(&mut self) -> usize {
        self.layers.iter_mut().map(|l| l.num_params()).sum()
    }

    /// Serializes the network (weights only, no caches) to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("network serializes")
    }

    /// Restores a network from [`Network::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns the underlying JSON error for malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{self, softmax_in_place};
    use crate::optim::{Optimizer, Sgd};

    #[test]
    fn il_architecture_shapes() {
        let mut net = Network::il_architecture((2, 32, 32), 21, 0);
        let x = Tensor::zeros(vec![1, 2, 32, 32]);
        let y = net.forward(&x, false);
        assert_eq!(y.shape(), &[1, 21]);
        assert!(net.num_params() > 50_000);
    }

    #[test]
    #[should_panic(expected = "divisible by 8")]
    fn il_architecture_validates_dims() {
        let _ = Network::il_architecture((1, 30, 30), 5, 0);
    }

    #[test]
    fn probabilities_on_simplex() {
        let mut net = Network::il_architecture((1, 16, 16), 7, 1);
        let x = crate::init::uniform(vec![3, 1, 16, 16], 0.0, 1.0, 2);
        let p = net.predict_proba(&x);
        for i in 0..3 {
            let row = &p.data()[i * 7..(i + 1) * 7];
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn training_reduces_loss_on_separable_data() {
        // two gaussian-ish blobs in 2-D
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..20 {
            let t = i as f32 * 0.1;
            xs.extend_from_slice(&[1.0 + t.sin() * 0.1, 1.0 + t.cos() * 0.1]);
            ys.push(0usize);
            xs.extend_from_slice(&[-1.0 - t.sin() * 0.1, -1.0 - t.cos() * 0.1]);
            ys.push(1usize);
        }
        let x = Tensor::from_vec(vec![40, 2], xs).unwrap();
        let mut net = Network::new(vec![
            LayerKind::dense(2, 8, 3),
            LayerKind::relu(),
            LayerKind::dense(8, 2, 4),
        ]);
        let mut opt = Sgd::new(0.1, 0.0);
        let (loss0, _) = loss::cross_entropy(&net.forward(&x, false), &ys);
        for _ in 0..100 {
            let logits = net.forward(&x, true);
            let (_, grad) = loss::cross_entropy(&logits, &ys);
            net.backward(&grad);
            opt.step(&mut net);
            net.zero_grad();
        }
        let (loss1, _) = loss::cross_entropy(&net.forward(&x, false), &ys);
        assert!(loss1 < loss0 * 0.5, "loss {loss0} -> {loss1}");
        assert_eq!(loss::accuracy(&net.forward(&x, false), &ys), 1.0);
    }

    /// `forward_batch_into` over the rows of a stacked `[n, …]` input.
    fn infer_stacked(net: &Network, x: &Tensor, buf: &mut InferBuffers, out: &mut Tensor) {
        let sample_shape = &x.shape()[1..];
        let sample_len: usize = sample_shape.iter().product();
        let samples: Vec<&[f32]> = x.data().chunks_exact(sample_len).collect();
        net.forward_batch_into(&samples, sample_shape, buf, out);
    }

    #[test]
    fn infer_path_matches_forward_bitwise() {
        let mut net = Network::il_architecture((2, 16, 16), 21, 4);
        let x = crate::init::uniform(vec![2, 2, 16, 16], 0.0, 1.0, 5);
        let logits = net.forward(&x, false);
        let mut buf = InferBuffers::new();
        let mut out = Tensor::default();
        infer_stacked(&net, &x, &mut buf, &mut out);
        assert_eq!(logits.data(), out.data());
        let probs = net.predict_proba(&x);
        softmax_in_place(&mut out);
        assert_eq!(probs.data(), out.data());
        // warm buffers must not change the result
        infer_stacked(&net, &x, &mut buf, &mut out);
        softmax_in_place(&mut out);
        assert_eq!(probs.data(), out.data());
        // and a different input through the same buffers stays correct
        let x2 = crate::init::uniform(vec![1, 2, 16, 16], -1.0, 1.0, 6);
        let probs2 = net.predict_proba(&x2);
        infer_stacked(&net, &x2, &mut buf, &mut out);
        softmax_in_place(&mut out);
        assert_eq!(probs2.data(), out.data());
    }

    #[test]
    fn batched_rows_match_single_sample_inference_bitwise() {
        let mut net = Network::il_architecture((2, 16, 16), 21, 4);
        let sample_shape = [2usize, 16, 16];
        let sample_len: usize = sample_shape.iter().product();
        let stacked = crate::init::uniform(vec![16, 2, 16, 16], -1.0, 1.0, 7);
        let mut batch_buf = InferBuffers::new();
        let mut single_buf = InferBuffers::new();
        let mut out = Tensor::default();
        let mut single = Tensor::default();
        for n in [1usize, 2, 7, 16] {
            let samples: Vec<&[f32]> = (0..n)
                .map(|i| &stacked.data()[i * sample_len..(i + 1) * sample_len])
                .collect();
            net.forward_batch_into(&samples, &sample_shape, &mut batch_buf, &mut out);
            assert_eq!(out.shape(), &[n, 21]);
            for (i, sample) in samples.iter().enumerate() {
                let mut x = Tensor::zeros(vec![1, 2, 16, 16]);
                x.data_mut().copy_from_slice(sample);
                let row = &out.data()[i * 21..(i + 1) * 21];
                net.forward_batch_into(&[sample], &sample_shape, &mut single_buf, &mut single);
                assert_eq!(
                    row,
                    single.data(),
                    "batch {n} row {i} diverged from single-sample inference"
                );
                assert_eq!(
                    row,
                    net.forward(&x, false).data(),
                    "batch {n} row {i} diverged from forward()"
                );
            }
        }
    }

    #[test]
    fn json_roundtrip_preserves_inference() {
        let mut net = Network::il_architecture((1, 16, 16), 5, 9);
        let x = crate::init::uniform(vec![2, 1, 16, 16], 0.0, 1.0, 10);
        let y1 = net.forward(&x, false);
        let mut back = Network::from_json(&net.to_json()).unwrap();
        let y2 = back.forward(&x, false);
        assert_eq!(y1.data(), y2.data());
    }

    #[test]
    fn gradient_check_full_network() {
        // tiny conv network; verify d loss / d logits propagated to input
        // parameters via finite differences on a few weights
        let mut net = Network::new(vec![
            LayerKind::conv2d(1, 2, 3, 11),
            LayerKind::relu(),
            LayerKind::maxpool2d(2),
            LayerKind::flatten(),
            LayerKind::dense(2 * 2 * 2, 3, 12),
        ]);
        let x = crate::init::uniform(vec![2, 1, 4, 4], -1.0, 1.0, 13);
        let labels = [0usize, 2];

        let logits = net.forward(&x, true);
        let (_, grad) = loss::cross_entropy(&logits, &labels);
        net.backward(&grad);

        // copy analytic grads out
        let analytic: Vec<Vec<f32>> = net
            .params_grads()
            .iter()
            .map(|(_, g)| g.data().to_vec())
            .collect();

        let eps = 1e-2f32;
        let loss_of = |net: &mut Network| {
            let logits = net.forward(&x, false);
            loss::cross_entropy(&logits, &labels).0
        };
        // probe the first few entries of each parameter tensor
        for (pi, grads) in analytic.iter().enumerate() {
            for (k, &analytic_g) in grads.iter().take(3).enumerate() {
                {
                    let mut pg = net.params_grads();
                    pg[pi].0.data_mut()[k] += eps;
                }
                let fp = loss_of(&mut net);
                {
                    let mut pg = net.params_grads();
                    pg[pi].0.data_mut()[k] -= 2.0 * eps;
                }
                let fm = loss_of(&mut net);
                {
                    let mut pg = net.params_grads();
                    pg[pi].0.data_mut()[k] += eps;
                }
                let num = (fp - fm) / (2.0 * eps);
                assert!(
                    (num - analytic_g).abs() < 2e-2,
                    "param {pi}[{k}]: numeric {num} vs analytic {analytic_g}"
                );
            }
        }
    }
}
