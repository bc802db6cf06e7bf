//! Network layers with hand-derived forward and backward passes.
//!
//! Layers cache whatever the backward pass needs during `forward(…, train
//! = true)`; caches are transient and excluded from serialization, so a
//! deserialized network is immediately usable for inference and resumes
//! training after one forward pass.

use crate::init;
use crate::simd::{ConvEpilogue, ConvScratch, ConvShape, FusedConv};
use crate::Tensor;
use serde::{Deserialize, Serialize};

/// Reusable conv-block buffers of the allocation-free inference path
/// (held by [`crate::InferBuffers`]).
///
/// The buffers grow to the largest size any conv block needs and are
/// then reused verbatim, so repeated inference through the same network
/// performs no heap allocation after the first call.
#[derive(Debug, Clone, Default)]
pub(crate) struct InferScratch {
    /// One zero-padded input sample of the current conv block.
    padded: Vec<f32>,
    /// The conv kernels' own scratch (scalar row accumulators, the
    /// AVX-512 weight pack).
    conv: ConvScratch,
}

/// A sequential network layer.
///
/// The enum (rather than a trait object) keeps layers `Serialize`-able and
/// lets [`crate::Network`] iterate parameters without dynamic downcasts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum LayerKind {
    /// Fully-connected layer.
    Dense(Dense),
    /// 2-D convolution.
    Conv2d(Conv2d),
    /// 2-D max pooling.
    MaxPool2d(MaxPool2d),
    /// Rectified linear activation.
    ReLU(ReLU),
    /// Collapses `[n, c, h, w]` into `[n, c·h·w]`.
    Flatten(Flatten),
    /// Inverted dropout (identity at inference).
    Dropout(Dropout),
}

impl LayerKind {
    /// A fully-connected layer `in_dim → out_dim` (He-initialized).
    pub fn dense(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        LayerKind::Dense(Dense::new(in_dim, out_dim, seed))
    }

    /// A `kernel×kernel` convolution with stride 1 and "same" padding.
    pub fn conv2d(in_ch: usize, out_ch: usize, kernel: usize, seed: u64) -> Self {
        LayerKind::Conv2d(Conv2d::new(in_ch, out_ch, kernel, 1, kernel / 2, seed))
    }

    /// A `size×size` max pool with stride `size`.
    pub fn maxpool2d(size: usize) -> Self {
        LayerKind::MaxPool2d(MaxPool2d::new(size))
    }

    /// A ReLU activation.
    pub fn relu() -> Self {
        LayerKind::ReLU(ReLU::default())
    }

    /// A flatten layer.
    pub fn flatten() -> Self {
        LayerKind::Flatten(Flatten::default())
    }

    /// An inverted-dropout layer with drop probability `p`, seeded for
    /// reproducible training.
    pub fn dropout(p: f64, seed: u64) -> Self {
        LayerKind::Dropout(Dropout::new(p, seed))
    }

    /// Forward pass. With `train = true` the layer caches activations for
    /// a subsequent [`LayerKind::backward`].
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        match self {
            LayerKind::Dense(l) => l.forward(x, train),
            LayerKind::Conv2d(l) => l.forward(x, train),
            LayerKind::MaxPool2d(l) => l.forward(x, train),
            LayerKind::ReLU(l) => l.forward(x, train),
            LayerKind::Flatten(l) => l.forward(x, train),
            LayerKind::Dropout(l) => l.forward(x, train),
        }
    }

    /// Backward pass: accumulates parameter gradients and returns the
    /// gradient with respect to the layer input.
    ///
    /// # Panics
    ///
    /// Panics when called without a preceding training-mode forward pass.
    pub fn backward(&mut self, grad: &Tensor) -> Tensor {
        match self {
            LayerKind::Dense(l) => l.backward(grad),
            LayerKind::Conv2d(l) => l.backward(grad),
            LayerKind::MaxPool2d(l) => l.backward(grad),
            LayerKind::ReLU(l) => l.backward(grad),
            LayerKind::Flatten(l) => l.backward(grad),
            LayerKind::Dropout(l) => l.backward(grad),
        }
    }

    /// Mutable (parameter, gradient) pairs, in a stable order.
    pub fn params_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        match self {
            LayerKind::Dense(l) => vec![
                (&mut l.weight, &mut l.grad_weight),
                (&mut l.bias, &mut l.grad_bias),
            ],
            LayerKind::Conv2d(l) => vec![
                (&mut l.weight, &mut l.grad_weight),
                (&mut l.bias, &mut l.grad_bias),
            ],
            _ => Vec::new(),
        }
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        for (_, g) in self.params_grads() {
            g.scale(0.0);
        }
    }

    /// Number of trainable parameters.
    pub fn num_params(&mut self) -> usize {
        self.params_grads().iter().map(|(p, _)| p.len()).sum()
    }
}

/// Fully-connected layer: `y = x·Wᵀ + b`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    weight: Tensor,
    bias: Tensor,
    #[serde(skip, default = "Tensor::empty_grad")]
    grad_weight: Tensor,
    #[serde(skip, default = "Tensor::empty_grad")]
    grad_bias: Tensor,
    #[serde(skip)]
    cache_input: Option<Tensor>,
}

impl Tensor {
    fn empty_grad() -> Tensor {
        Tensor::zeros(vec![0])
    }
}

impl Dense {
    /// Creates a He-initialized dense layer.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        Dense {
            weight: init::he_uniform(vec![out_dim, in_dim], in_dim, seed),
            bias: Tensor::zeros(vec![out_dim]),
            grad_weight: Tensor::zeros(vec![out_dim, in_dim]),
            grad_bias: Tensor::zeros(vec![out_dim]),
            cache_input: None,
        }
    }

    fn ensure_grads(&mut self) {
        if self.grad_weight.shape() != self.weight.shape() {
            self.grad_weight = Tensor::zeros(self.weight.shape().to_vec());
        }
        if self.grad_bias.shape() != self.bias.shape() {
            self.grad_bias = Tensor::zeros(self.bias.shape().to_vec());
        }
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.ensure_grads();
        let mut y = x.matmul_nt(&self.weight);
        let out_dim = self.bias.len();
        for row in y.data_mut().chunks_mut(out_dim) {
            for (v, b) in row.iter_mut().zip(self.bias.data()) {
                *v += b;
            }
        }
        if train {
            self.cache_input = Some(x.clone());
        }
        y
    }

    pub(crate) fn infer_into(&self, x: &Tensor, out: &mut Tensor) {
        x.matmul_nt_into(&self.weight, out);
        let out_dim = self.bias.len();
        for row in out.data_mut().chunks_mut(out_dim) {
            for (v, b) in row.iter_mut().zip(self.bias.data()) {
                *v += b;
            }
        }
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let x = self
            .cache_input
            .as_ref()
            .expect("Dense::backward without a training forward pass");
        // dW = gradᵀ · x, db = column sums of grad, dx = grad · W
        self.grad_weight.add_assign(&grad.matmul_tn(x));
        let out_dim = self.bias.len();
        {
            let gb = self.grad_bias.data_mut();
            for row in grad.data().chunks(out_dim) {
                for (g, v) in gb.iter_mut().zip(row) {
                    *g += v;
                }
            }
        }
        grad.matmul(&self.weight)
    }
}

/// 2-D convolution: im2col + GEMM for training, a direct convolution
/// fused with its ReLU and 2×2 pool for inference.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Conv2d {
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    /// `[out_ch, in_ch·k·k]`.
    weight: Tensor,
    bias: Tensor,
    #[serde(skip, default = "Tensor::empty_grad")]
    grad_weight: Tensor,
    #[serde(skip, default = "Tensor::empty_grad")]
    grad_bias: Tensor,
    #[serde(skip)]
    cache: Option<ConvCache>,
}

#[derive(Debug, Clone)]
struct ConvCache {
    cols: Vec<Tensor>,
    in_shape: Vec<usize>,
    out_hw: (usize, usize),
}

impl Conv2d {
    /// Creates a He-initialized convolution layer.
    ///
    /// # Panics
    ///
    /// Panics for a zero kernel or stride.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        seed: u64,
    ) -> Self {
        assert!(
            kernel > 0 && stride > 0,
            "kernel and stride must be positive"
        );
        let fan_in = in_ch * kernel * kernel;
        Conv2d {
            in_ch,
            out_ch,
            kernel,
            stride,
            padding,
            weight: init::he_uniform(vec![out_ch, fan_in], fan_in, seed),
            bias: Tensor::zeros(vec![out_ch]),
            grad_weight: Tensor::zeros(vec![out_ch, fan_in]),
            grad_bias: Tensor::zeros(vec![out_ch]),
            cache: None,
        }
    }

    pub(crate) fn out_dim(&self, d: usize) -> usize {
        (d + 2 * self.padding - self.kernel) / self.stride + 1
    }

    fn ensure_grads(&mut self) {
        if self.grad_weight.shape() != self.weight.shape() {
            self.grad_weight = Tensor::zeros(self.weight.shape().to_vec());
        }
        if self.grad_bias.shape() != self.bias.shape() {
            self.grad_bias = Tensor::zeros(self.bias.shape().to_vec());
        }
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.ensure_grads();
        let shape = x.shape();
        assert_eq!(shape.len(), 4, "Conv2d expects [n, c, h, w]");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        assert_eq!(c, self.in_ch, "Conv2d channel mismatch");
        let (oh, ow) = (self.out_dim(h), self.out_dim(w));
        let mut out = Tensor::zeros(vec![n, self.out_ch, oh, ow]);
        let mut cols_cache = Vec::with_capacity(if train { n } else { 0 });
        let sample_len = c * h * w;
        let out_sample_len = self.out_ch * oh * ow;
        for i in 0..n {
            let sample = &x.data()[i * sample_len..(i + 1) * sample_len];
            let cols = self.im2col(sample, h, w, oh, ow);
            let mut y = self.weight.matmul(&cols); // [out_ch, oh·ow]
            for (ch, b) in self.bias.data().iter().enumerate() {
                let row = &mut y.data_mut()[ch * oh * ow..(ch + 1) * oh * ow];
                for v in row {
                    *v += b;
                }
            }
            out.data_mut()[i * out_sample_len..(i + 1) * out_sample_len].copy_from_slice(y.data());
            if train {
                cols_cache.push(cols);
            }
        }
        if train {
            self.cache = Some(ConvCache {
                cols: cols_cache,
                in_shape: shape.to_vec(),
                out_hw: (oh, ow),
            });
        }
        out
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("Conv2d::backward without a training forward pass");
        let (n, _c, h, w) = (
            cache.in_shape[0],
            cache.in_shape[1],
            cache.in_shape[2],
            cache.in_shape[3],
        );
        let (oh, ow) = cache.out_hw;
        let out_sample_len = self.out_ch * oh * ow;
        let mut dx = Tensor::zeros(cache.in_shape.clone());
        let in_sample_len = dx.len() / n;
        for i in 0..n {
            let g = Tensor::from_vec(
                vec![self.out_ch, oh * ow],
                grad.data()[i * out_sample_len..(i + 1) * out_sample_len].to_vec(),
            )
            .expect("gradient slice matches conv output");
            // dW += g · colsᵀ
            self.grad_weight.add_assign(&g.matmul_nt(&cache.cols[i]));
            // db += row sums of g
            {
                let gb = self.grad_bias.data_mut();
                for (ch, gv) in gb.iter_mut().enumerate() {
                    let row = &g.data()[ch * oh * ow..(ch + 1) * oh * ow];
                    *gv += row.iter().sum::<f32>();
                }
            }
            // dcols = Wᵀ · g, then scatter back (col2im)
            let dcols = self.weight.matmul_tn(&g);
            let dst = &mut dx.data_mut()[i * in_sample_len..(i + 1) * in_sample_len];
            self.col2im(&dcols, dst, h, w, oh, ow);
        }
        self.cache = None;
        dx
    }

    /// Inference through one conv block: this convolution, plus the
    /// ReLU and the 2×2 max pool that follow it in the network when
    /// `epilogue` says so, in one pass per sample. The kernel is
    /// prepared once per call (on AVX-512 that packs the weights into
    /// `scratch`); each sample is then padded once into `scratch`, and
    /// the kernel reads its patches straight from there. Bit-identical
    /// to running the layers' `forward(x, false)` one by one; caches
    /// nothing across calls.
    ///
    /// # Panics
    ///
    /// Panics on the same shape mismatches as `forward`.
    pub(crate) fn infer_block(
        &self,
        x: &Tensor,
        epilogue: ConvEpilogue,
        out: &mut Tensor,
        scratch: &mut InferScratch,
    ) {
        let shape = x.shape();
        assert_eq!(shape.len(), 4, "Conv2d expects [n, c, h, w]");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        assert_eq!(c, self.in_ch, "Conv2d channel mismatch");
        let p = self.padding;
        let geom = ConvShape {
            in_ch: c,
            out_ch: self.out_ch,
            kernel: self.kernel,
            stride: self.stride,
            hp: h + 2 * p,
            wp: w + 2 * p,
            oh: self.out_dim(h),
            ow: self.out_dim(w),
        };
        if epilogue.pool {
            out.resize(&[n, self.out_ch, geom.oh / 2, geom.ow / 2]);
        } else {
            out.resize(&[n, self.out_ch, geom.oh, geom.ow]);
        }
        let sample_len = c * h * w;
        let out_sample_len = out.len() / n.max(1);
        let InferScratch { padded, conv } = scratch;
        let mut kernel = FusedConv::new(geom, self.weight.data(), self.bias.data(), epilogue, conv);
        for i in 0..n {
            let sample = &x.data()[i * sample_len..(i + 1) * sample_len];
            pad_sample(sample, c, h, w, p, padded);
            kernel.run(
                padded,
                &mut out.data_mut()[i * out_sample_len..(i + 1) * out_sample_len],
            );
        }
    }

    fn im2col(&self, sample: &[f32], h: usize, w: usize, oh: usize, ow: usize) -> Tensor {
        let k = self.kernel;
        let rows = self.in_ch * k * k;
        // padded positions are skipped below and stay zero
        let mut out = Tensor::zeros(vec![rows, oh * ow]);
        let cols = out.data_mut();
        for c in 0..self.in_ch {
            let plane = &sample[c * h * w..(c + 1) * h * w];
            for ky in 0..k {
                for kx in 0..k {
                    let row = (c * k + ky) * k + kx;
                    let dst = &mut cols[row * oh * ow..(row + 1) * oh * ow];
                    for oy in 0..oh {
                        let iy = (oy * self.stride + ky) as isize - self.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let src_row = &plane[iy as usize * w..(iy as usize + 1) * w];
                        let dst_row = &mut dst[oy * ow..(oy + 1) * ow];
                        if self.stride == 1 {
                            // At stride 1 the in-bounds `ox` range maps to a
                            // contiguous span of the input row: one memcpy
                            // per (row, oy) instead of ow bounds checks.
                            // Same bits, pure data movement.
                            let shift = kx as isize - self.padding as isize;
                            let ox0 = (-shift).max(0) as usize;
                            let ox1 = ow.min((w as isize - shift).max(0) as usize);
                            if ox0 < ox1 {
                                let ix0 = (ox0 as isize + shift) as usize;
                                dst_row[ox0..ox1].copy_from_slice(&src_row[ix0..ix0 + (ox1 - ox0)]);
                            }
                        } else {
                            for (ox, d) in dst_row.iter_mut().enumerate() {
                                let ix = (ox * self.stride + kx) as isize - self.padding as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                *d = src_row[ix as usize];
                            }
                        }
                    }
                }
            }
        }
        out
    }

    fn col2im(&self, dcols: &Tensor, dst: &mut [f32], h: usize, w: usize, oh: usize, ow: usize) {
        let k = self.kernel;
        for c in 0..self.in_ch {
            for ky in 0..k {
                for kx in 0..k {
                    let row = (c * k + ky) * k + kx;
                    let src = &dcols.data()[row * oh * ow..(row + 1) * oh * ow];
                    for oy in 0..oh {
                        let iy = (oy * self.stride + ky) as isize - self.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for ox in 0..ow {
                            let ix = (ox * self.stride + kx) as isize - self.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            dst[c * h * w + iy as usize * w + ix as usize] += src[oy * ow + ox];
                        }
                    }
                }
            }
        }
    }
}

/// Writes `sample` (`[c, h, w]`) into `padded` as `[c, h + 2p, w + 2p]`
/// with a zero border, every element written once.
fn pad_sample(sample: &[f32], c: usize, h: usize, w: usize, p: usize, padded: &mut Vec<f32>) {
    let (hp, wp) = (h + 2 * p, w + 2 * p);
    padded.resize(c * hp * wp, 0.0);
    for (plane, dst) in sample
        .chunks_exact(h * w)
        .zip(padded.chunks_exact_mut(hp * wp))
    {
        let (top, rest) = dst.split_at_mut(p * wp);
        top.fill(0.0);
        let (body, bottom) = rest.split_at_mut(h * wp);
        bottom.fill(0.0);
        for (src_row, dst_row) in plane.chunks_exact(w).zip(body.chunks_exact_mut(wp)) {
            dst_row[..p].fill(0.0);
            dst_row[p..p + w].copy_from_slice(src_row);
            dst_row[p + w..].fill(0.0);
        }
    }
}

/// Max pooling over `size×size` windows with stride `size`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MaxPool2d {
    size: usize,
    #[serde(skip)]
    cache: Option<PoolCache>,
}

#[derive(Debug, Clone)]
struct PoolCache {
    argmax: Vec<usize>,
    in_shape: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a pooling layer.
    ///
    /// # Panics
    ///
    /// Panics for a zero window size.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "pool size must be positive");
        MaxPool2d { size, cache: None }
    }

    pub(crate) fn size(&self) -> usize {
        self.size
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let shape = x.shape();
        assert_eq!(shape.len(), 4, "MaxPool2d expects [n, c, h, w]");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let s = self.size;
        let (oh, ow) = (h / s, w / s);
        let mut out = Tensor::zeros(vec![n, c, oh, ow]);
        let mut argmax = vec![0usize; out.len()];
        let data = x.data();
        let out_data = out.data_mut();
        for i in 0..n {
            for ch in 0..c {
                let plane = (i * c + ch) * h * w;
                let out_plane = (i * c + ch) * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0;
                        for dy in 0..s {
                            for dx in 0..s {
                                let idx = plane + (oy * s + dy) * w + (ox * s + dx);
                                if data[idx] > best {
                                    best = data[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        out_data[out_plane + oy * ow + ox] = best;
                        argmax[out_plane + oy * ow + ox] = best_idx;
                    }
                }
            }
        }
        if train {
            self.cache = Some(PoolCache {
                argmax,
                in_shape: shape.to_vec(),
            });
        }
        out
    }

    /// Inference for a pool that no conv block absorbed (one not right
    /// after a conv, or not 2×2).
    pub(crate) fn infer_into(&self, x: &Tensor, out: &mut Tensor) {
        let shape = x.shape();
        assert_eq!(shape.len(), 4, "MaxPool2d expects [n, c, h, w]");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let s = self.size;
        let (oh, ow) = (h / s, w / s);
        out.resize(&[n, c, oh, ow]);
        let data = x.data();
        let out_data = out.data_mut();
        for i in 0..n {
            for ch in 0..c {
                let plane = (i * c + ch) * h * w;
                let out_plane = (i * c + ch) * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        for dy in 0..s {
                            for dx in 0..s {
                                let idx = plane + (oy * s + dy) * w + (ox * s + dx);
                                if data[idx] > best {
                                    best = data[idx];
                                }
                            }
                        }
                        out_data[out_plane + oy * ow + ox] = best;
                    }
                }
            }
        }
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("MaxPool2d::backward without a training forward pass");
        let mut dx = Tensor::zeros(cache.in_shape);
        let dxd = dx.data_mut();
        for (g, &idx) in grad.data().iter().zip(&cache.argmax) {
            dxd[idx] += g;
        }
        dx
    }
}

/// Rectified linear unit.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ReLU {
    #[serde(skip)]
    mask: Option<Vec<bool>>,
}

impl ReLU {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if train {
            self.mask = Some(x.data().iter().map(|&v| v > 0.0).collect());
        }
        x.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mask = self
            .mask
            .take()
            .expect("ReLU::backward without a training forward pass");
        let data = grad
            .data()
            .iter()
            .zip(&mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(grad.shape().to_vec(), data).expect("mask length matches")
    }
}

/// Flattens `[n, …]` into `[n, prod(…)]`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Flatten {
    #[serde(skip)]
    in_shape: Option<Vec<usize>>,
}

impl Flatten {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let n = x.shape()[0];
        let rest: usize = x.shape()[1..].iter().product();
        if train {
            self.in_shape = Some(x.shape().to_vec());
        }
        x.reshaped(vec![n, rest])
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let shape = self
            .in_shape
            .take()
            .expect("Flatten::backward without a training forward pass");
        grad.reshaped(shape)
    }
}

/// Inverted dropout: during training each element is zeroed with
/// probability `p` and survivors are scaled by `1/(1−p)`, so inference
/// (which applies nothing) sees the same expected activation.
///
/// The mask stream is seeded and advances per training forward pass, so
/// training runs remain reproducible.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dropout {
    p: f64,
    seed: u64,
    #[serde(skip)]
    calls: u64,
    #[serde(skip)]
    mask: Option<Vec<bool>>,
}

impl Dropout {
    /// Creates a dropout layer.
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ [0, 1)`.
    pub fn new(p: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0, 1)"
        );
        Dropout {
            p,
            seed,
            calls: 0,
            mask: None,
        }
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if !train || self.p == 0.0 {
            if train {
                self.mask = Some(vec![true; x.len()]);
            }
            return x.clone();
        }
        self.calls += 1;
        // splitmix64 stream keyed by (seed, call index, element index)
        let base = self
            .seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(self.calls);
        let keep_scale = (1.0 / (1.0 - self.p)) as f32;
        let mut mask = Vec::with_capacity(x.len());
        let data = x
            .data()
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let mut z = base.wrapping_add((i as u64).wrapping_mul(0xBF58476D1CE4E5B9));
                z = (z ^ (z >> 30)).wrapping_mul(0x94D049BB133111EB);
                z ^= z >> 31;
                let keep = (z >> 11) as f64 / (1u64 << 53) as f64 >= self.p;
                mask.push(keep);
                if keep {
                    v * keep_scale
                } else {
                    0.0
                }
            })
            .collect();
        self.mask = Some(mask);
        Tensor::from_vec(x.shape().to_vec(), data).expect("dropout preserves shape")
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mask = self
            .mask
            .take()
            .expect("Dropout::backward without a training forward pass");
        let keep_scale = (1.0 / (1.0 - self.p)) as f32;
        let data = grad
            .data()
            .iter()
            .zip(&mask)
            .map(|(&g, &k)| if k { g * keep_scale } else { 0.0 })
            .collect();
        Tensor::from_vec(grad.shape().to_vec(), data).expect("mask length matches")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_forward_known_values() {
        let mut d = Dense::new(2, 2, 1);
        // overwrite weights with a known matrix
        d.weight = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]).unwrap();
        d.bias = Tensor::from_vec(vec![2], vec![0.5, -0.5]).unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![1., 1.]).unwrap();
        let y = d.forward(&x, false);
        // y = [1+2+0.5, 3+4-0.5]
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn dense_backward_shapes_and_bias_grad() {
        let mut d = Dense::new(3, 2, 1);
        let x = Tensor::from_vec(vec![4, 3], vec![0.1; 12]).unwrap();
        let _ = d.forward(&x, true);
        let g = Tensor::full(vec![4, 2], 1.0);
        let dx = d.backward(&g);
        assert_eq!(dx.shape(), &[4, 3]);
        // bias grad = column sums of g = 4 each
        assert_eq!(d.grad_bias.data(), &[4.0, 4.0]);
    }

    #[test]
    fn relu_masks_negative_gradient() {
        let mut r = ReLU::default();
        let x = Tensor::from_vec(vec![1, 4], vec![-1., 2., -3., 4.]).unwrap();
        let y = r.forward(&x, true);
        assert_eq!(y.data(), &[0., 2., 0., 4.]);
        let g = Tensor::full(vec![1, 4], 1.0);
        let dx = r.backward(&g);
        assert_eq!(dx.data(), &[0., 1., 0., 1.]);
    }

    #[test]
    fn maxpool_forward_backward() {
        let mut p = MaxPool2d::new(2);
        // one 4x4 plane
        #[rustfmt::skip]
        let x = Tensor::from_vec(vec![1, 1, 4, 4], vec![
            1., 2., 5., 6.,
            3., 4., 7., 8.,
            0., 0., 1., 0.,
            0., 9., 0., 1.,
        ]).unwrap();
        let y = p.forward(&x, true);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[4., 8., 9., 1.]);
        let g = Tensor::full(vec![1, 1, 2, 2], 1.0);
        let dx = p.backward(&g);
        // gradient lands exactly on each window's maximum
        assert_eq!(dx.data()[5], 1.0); // value 4
        assert_eq!(dx.data()[7], 1.0); // value 8
        assert_eq!(dx.data()[13], 1.0); // value 9
        assert_eq!(dx.data().iter().sum::<f32>(), 4.0);
    }

    #[test]
    fn conv_same_padding_preserves_dims() {
        let mut c = Conv2d::new(2, 4, 3, 1, 1, 3);
        let x = Tensor::zeros(vec![2, 2, 8, 8]);
        let y = c.forward(&x, false);
        assert_eq!(y.shape(), &[2, 4, 8, 8]);
    }

    #[test]
    fn conv_identity_kernel_reproduces_input() {
        // one input channel, one output channel, 3x3 kernel that is a
        // delta at the center => convolution is identity.
        let mut c = Conv2d::new(1, 1, 3, 1, 1, 5);
        c.weight = Tensor::from_vec(vec![1, 9], vec![0., 0., 0., 0., 1., 0., 0., 0., 0.]).unwrap();
        c.bias = Tensor::zeros(vec![1]);
        let x = Tensor::from_vec(vec![1, 1, 3, 3], (1..=9).map(|v| v as f32).collect()).unwrap();
        let y = c.forward(&x, false);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv_backward_matches_finite_difference() {
        let mut c = Conv2d::new(1, 2, 3, 1, 1, 9);
        let x =
            Tensor::from_vec(vec![1, 1, 4, 4], (0..16).map(|v| v as f32 * 0.1).collect()).unwrap();
        // scalar loss = sum(conv(x)); grad wrt output is ones
        let y = c.forward(&x, true);
        let g = Tensor::full(y.shape().to_vec(), 1.0);
        let dx = c.backward(&g);
        // finite difference on a few input elements
        let eps = 1e-2f32;
        for &i in &[0usize, 5, 10, 15] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let f = |t: &Tensor, cc: &mut Conv2d| cc.forward(t, false).sum();
            let num = (f(&xp, &mut c) - f(&xm, &mut c)) / (2.0 * eps);
            assert!(
                (num - dx.data()[i]).abs() < 1e-2,
                "element {i}: numeric {num} vs analytic {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::default();
        let x = Tensor::zeros(vec![2, 3, 4, 4]);
        let y = f.forward(&x, true);
        assert_eq!(y.shape(), &[2, 48]);
        let dx = f.backward(&Tensor::zeros(vec![2, 48]));
        assert_eq!(dx.shape(), &[2, 3, 4, 4]);
    }

    #[test]
    fn zero_grad_clears() {
        let mut l = LayerKind::dense(2, 2, 1);
        let x = Tensor::full(vec![1, 2], 1.0);
        let _ = l.forward(&x, true);
        let _ = l.backward(&Tensor::full(vec![1, 2], 1.0));
        assert!(l.params_grads()[0].1.data().iter().any(|&v| v != 0.0));
        l.zero_grad();
        assert!(l
            .params_grads()
            .iter()
            .all(|(_, g)| g.data().iter().all(|&v| v == 0.0)));
    }

    #[test]
    fn num_params_counts() {
        let mut l = LayerKind::dense(10, 5, 1);
        assert_eq!(l.num_params(), 55);
        let mut c = LayerKind::conv2d(2, 4, 3, 1);
        assert_eq!(c.num_params(), 4 * 2 * 9 + 4);
        assert_eq!(LayerKind::relu().num_params(), 0);
    }

    #[test]
    fn dropout_inference_is_identity() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::full(vec![4, 4], 2.0);
        let y = d.forward(&x, false);
        assert_eq!(y, x);
    }

    #[test]
    fn dropout_training_zeroes_and_scales() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::full(vec![1, 1000], 1.0);
        let y = d.forward(&x, true);
        let zeros = y.data().iter().filter(|&&v| v == 0.0).count();
        let kept = y.data().iter().filter(|&&v| (v - 2.0).abs() < 1e-6).count();
        assert_eq!(zeros + kept, 1000, "values are either dropped or scaled");
        assert!((300..700).contains(&zeros), "drop rate ~50%, got {zeros}");
        // expectation preserved within sampling error
        let mean: f32 = y.sum() / 1000.0;
        assert!((mean - 1.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn dropout_backward_matches_mask() {
        let mut d = Dropout::new(0.5, 9);
        let x = Tensor::full(vec![1, 64], 1.0);
        let y = d.forward(&x, true);
        let g = Tensor::full(vec![1, 64], 1.0);
        let dx = d.backward(&g);
        for (yv, dv) in y.data().iter().zip(dx.data()) {
            // gradient flows exactly where the activation survived
            assert_eq!(*yv == 0.0, *dv == 0.0);
        }
    }

    #[test]
    fn dropout_zero_probability_is_identity_in_training() {
        let mut d = Dropout::new(0.0, 1);
        let x = Tensor::full(vec![2, 3], 1.5);
        assert_eq!(d.forward(&x, true), x);
    }

    #[test]
    fn serde_skips_caches() {
        let mut l = LayerKind::dense(2, 2, 1);
        let x = Tensor::full(vec![1, 2], 1.0);
        let _ = l.forward(&x, true);
        let json = serde_json::to_string(&l).unwrap();
        let mut back: LayerKind = serde_json::from_str(&json).unwrap();
        // weights survive; deserialized layer runs inference immediately
        let y1 = l.forward(&x, false);
        let y2 = back.forward(&x, false);
        assert_eq!(y1.data(), y2.data());
    }
}
