//! Post-training int8 quantization of the inference path.
//!
//! The quantized lane trades the f32 stack's bitwise reproducibility for
//! ~4× arithmetic density: weights become per-output-channel symmetric
//! int8, activations per-tensor `u8` codes, and every GEMM runs on the
//! [`crate::simd::gemm_nt_i8`] kernel with i32 accumulators. The f32
//! pieces that remain — bias add, requantization, the final logits — keep
//! the numerics well-conditioned, and a calibration pass both picks the
//! activation ranges and *measures* the resulting per-logit error so the
//! caller gets a concrete tolerance ([`QuantizedNetwork::logit_error_bound`])
//! instead of a hope.
//!
//! # Scheme
//!
//! * **Weights** — per output channel, symmetric: `scale_c = amax_c/127`,
//!   codes clamped to `[-127, 127]`. Round-trip error is at most half a
//!   step (`scale_c/2`).
//! * **Activations** — per tensor, unsigned codes in `[0, 127]`. A
//!   calibrated non-negative range (everything downstream of a ReLU) maps
//!   as `scale = amax/127`, zero point 0; a signed range (the BEV speed
//!   plane can be negative when reversing) maps symmetrically around a
//!   zero point of 64 with `scale = max(amax, −amin)/63`. Capping codes
//!   at 127 keeps every `maddubs` i16 pair sum below saturation, which is
//!   what lets the AVX2 kernel stay bit-identical to the scalar one.
//! * **Accumulation** — exact i32 (`k·127·127 ≤ 8.3e6` for the iCOIL CNN,
//!   no overflow), then one f32 requantization per output element:
//!   `(acc − zp·Σw)·(w_scale·act_scale) + bias`, with the trailing ReLU
//!   and the *next* layer's activation quantization fused in, so
//!   activations travel between layers as bytes.
//! * **Max pooling** — runs directly on the `u8` codes: quantization is
//!   monotone, so pooling codes equals quantizing the pooled f32 plane.
//! * **Layout** — byte activations travel channels-last (`[h·w, c]`),
//!   with the weight columns permuted once at calibration time to match.
//!   That turns im2col into a handful of contiguous byte copies per patch
//!   and makes the requantization loop a single linear walk, which is
//!   where the int8 lane's latency win over f32 actually comes from.
//!
//! Calibration is a pure fold over the calibration set (per-tensor
//! min/max), so it is deterministic and independent of frame order.

use crate::layer::LayerKind;
use crate::network::{InferBuffers, Network};
use crate::simd;
use crate::Tensor;

/// A per-tensor activation quantizer: `code = clamp(round(v/scale) + zp)`
/// into `[0, 127]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActQuant {
    /// Real-value step per code.
    pub scale: f32,
    /// The code representing 0.0 (0 for non-negative tensors, 64 for
    /// signed ones).
    pub zero_point: u8,
}

impl ActQuant {
    /// A quantizer covering the calibrated `[amin, amax]` range.
    ///
    /// Degenerate (all-zero) ranges get a scale of 1.0 so the mapping
    /// stays finite; the codes are all `zero_point` then, which
    /// dequantizes to exactly 0.0.
    pub fn from_range(amin: f32, amax: f32) -> ActQuant {
        let amax = amax.max(0.0);
        if amin >= 0.0 {
            let scale = if amax > 0.0 { amax / 127.0 } else { 1.0 };
            ActQuant {
                scale,
                zero_point: 0,
            }
        } else {
            let m = amax.max(-amin);
            let scale = if m > 0.0 { m / 63.0 } else { 1.0 };
            ActQuant {
                scale,
                zero_point: 64,
            }
        }
    }

    /// Quantizes a real value to its `[0, 127]` code (saturating).
    /// Rounding is ties-to-even — the mode that vectorizes to a bare
    /// `vroundps`, and the same mode the requantization hot loops use.
    pub fn quantize(&self, v: f32) -> u8 {
        let q = (v * (1.0 / self.scale)).round_ties_even() + f32::from(self.zero_point);
        q.clamp(0.0, 127.0) as u8
    }

    /// The real value a code represents.
    pub fn dequantize(&self, q: u8) -> f32 {
        (f32::from(q) - f32::from(self.zero_point)) * self.scale
    }
}

/// Symmetric per-row int8 quantization of one weight row; returns the
/// codes and the row scale. Codes saturate at ±127 and round-trip within
/// `scale/2` for in-range weights.
pub fn quantize_weight_row(row: &[f32]) -> (Vec<i8>, f32) {
    let amax = row.iter().fold(0.0f32, |m, &w| m.max(w.abs()));
    let scale = if amax > 0.0 { amax / 127.0 } else { 1.0 };
    let codes = row
        .iter()
        .map(|&w| (w / scale).round().clamp(-127.0, 127.0) as i8)
        .collect();
    (codes, scale)
}

/// The real value a weight code represents under its row scale.
pub fn dequantize_weight(q: i8, scale: f32) -> f32 {
    f32::from(q) * scale
}

/// One quantized GEMM (a conv or dense layer's arithmetic core).
#[derive(Debug, Clone, PartialEq)]
struct QuantGemm {
    /// `[out, k_pad]` weight codes, rows zero-padded to `k_pad`.
    w_q: Vec<i8>,
    /// Per-row code sums (the activation zero-point correction term).
    w_row_sum: Vec<i32>,
    /// Per-row weight scales.
    w_scale: Vec<f32>,
    /// f32 biases, applied at requantization.
    bias: Vec<f32>,
    /// Logical reduction length.
    k: usize,
    /// `k` rounded up to a multiple of 32 (one AVX2 maddubs step).
    k_pad: usize,
    /// Output channels / features.
    out: usize,
    /// Quantizer of this layer's input tensor.
    in_q: ActQuant,
    /// Whether the network's next layer is a ReLU (fused here).
    fuse_relu: bool,
    /// Quantizer of the next GEMM's input — `None` for the final layer,
    /// whose outputs stay f32 logits.
    out_q: Option<ActQuant>,
    /// Precomputed `zp_in · Σw` per row (the zero-point correction).
    zp_corr: Vec<i32>,
    /// Per-row output scale: `w_scale·act_scale`, divided by the output
    /// quantizer's step when the result becomes a byte code.
    s_out: Vec<f32>,
    /// Per-row output offset: the bias under the same scaling as `s_out`.
    b_out: Vec<f32>,
}

impl QuantGemm {
    /// Builds the quantized form of one GEMM layer. `perm` (when present)
    /// reorders each weight row before quantization — `row'[j] =
    /// row[perm[j]]` — which is how the f32 channel-major weight layout is
    /// adapted to the channels-last byte activations once and for all.
    fn new(weight: &Tensor, bias: &Tensor, in_q: ActQuant, perm: Option<&[usize]>) -> QuantGemm {
        let out = weight.shape()[0];
        let k = weight.shape()[1];
        let k_pad = if k == 0 { 0 } else { k.div_ceil(32) * 32 };
        let mut w_q = vec![0i8; out * k_pad];
        let mut w_row_sum = vec![0i32; out];
        let mut w_scale = vec![1.0f32; out];
        let mut permuted = vec![0.0f32; k];
        for oc in 0..out {
            let row = &weight.data()[oc * k..(oc + 1) * k];
            let row = match perm {
                Some(perm) => {
                    debug_assert_eq!(perm.len(), k);
                    for (dst, &src_idx) in permuted.iter_mut().zip(perm) {
                        *dst = row[src_idx];
                    }
                    &permuted[..]
                }
                None => row,
            };
            let (codes, scale) = quantize_weight_row(row);
            w_q[oc * k_pad..oc * k_pad + k].copy_from_slice(&codes);
            w_row_sum[oc] = codes.iter().map(|&c| i32::from(c)).sum();
            w_scale[oc] = scale;
        }
        QuantGemm {
            w_q,
            w_row_sum,
            w_scale,
            bias: bias.data().to_vec(),
            k,
            k_pad,
            out,
            in_q,
            fuse_relu: false,
            out_q: None,
            zp_corr: Vec::new(),
            s_out: Vec::new(),
            b_out: Vec::new(),
        }
    }

    /// Precomputes the per-row requantization affine once `out_q` is
    /// wired, so the hot loop is one fused multiply-add per element (no
    /// per-element division).
    fn finalize(&mut self) {
        let zp_in = i32::from(self.in_q.zero_point);
        self.zp_corr = self.w_row_sum.iter().map(|&s| zp_in * s).collect();
        let inv_out = self.out_q.map_or(1.0, |oq| 1.0 / oq.scale);
        self.s_out = self
            .w_scale
            .iter()
            .map(|&ws| ws * self.in_q.scale * inv_out)
            .collect();
        self.b_out = self.bias.iter().map(|&b| b * inv_out).collect();
    }

    /// The scaled requantization value for one accumulator: the real
    /// output when `out_q` is `None`, otherwise the real output divided
    /// by the output step (ready for round-and-offset into a code). The
    /// trailing ReLU is fused (valid under either scaling: the output
    /// step is positive).
    #[inline]
    fn requant(&self, acc: i32, oc: usize) -> f32 {
        let v = (acc - self.zp_corr[oc]) as f32 * self.s_out[oc] + self.b_out[oc];
        if self.fuse_relu {
            v.max(0.0)
        } else {
            v
        }
    }

    /// Requantizes a `[rows, out]` accumulator plane into byte codes in
    /// place-for-place channels-last order, through the dispatched
    /// [`simd::requant_rows_u8`] kernel — this runs once per conv output
    /// element, so it is one of the lane's two hot loops.
    fn requant_rows(&self, acc: &[i32], zp_out: f32, dst: &mut [u8]) {
        simd::requant_rows_u8(
            acc,
            &self.zp_corr,
            &self.s_out,
            &self.b_out,
            self.fuse_relu,
            zp_out,
            dst,
        );
    }
}

/// One step of the compiled quantized pipeline.
#[derive(Debug, Clone, PartialEq)]
enum QuantOp {
    /// im2col + int8 GEMM + fused requant/ReLU/re-quantize.
    Conv {
        g: QuantGemm,
        in_ch: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    },
    /// int8 GEMM over the flat feature vector.
    Dense { g: QuantGemm },
    /// Max pooling directly on the byte codes.
    Pool { size: usize },
}

/// Reusable buffers for the quantized inference path: two ping-pong byte
/// activation buffers, the quantized im2col patch matrix, and the i32
/// accumulator plane. Grows on first use, allocation-free afterwards.
#[derive(Debug, Clone, Default)]
pub struct QuantScratch {
    q_ping: Vec<u8>,
    q_pong: Vec<u8>,
    cols: Vec<u8>,
    acc: Vec<i32>,
}

impl QuantScratch {
    /// Creates empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        QuantScratch::default()
    }
}

fn grow_u8(buf: &mut Vec<u8>, len: usize) -> &mut [u8] {
    if buf.len() < len {
        buf.resize(len, 0);
    }
    &mut buf[..len]
}

/// A calibrated int8 network: the compiled op pipeline plus the measured
/// calibration error statistics.
///
/// Built once with [`QuantizedNetwork::calibrate`]; inference then runs
/// through [`QuantizedNetwork::forward_batch_into`] with the same
/// batched-rows-match-single-sample property as the f32 path (each
/// sample is processed independently).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedNetwork {
    ops: Vec<QuantOp>,
    input_q: ActQuant,
    classes: usize,
    error_bound: f32,
    calib_errors: Vec<f32>,
}

impl QuantizedNetwork {
    /// Quantizes `net` against the given calibration frames (each a
    /// `[c, h, w]` tensor, e.g. recorded BEV images).
    ///
    /// Three deterministic passes: (1) run the f32 network over the
    /// frames folding per-tensor activation min/max (order-independent);
    /// (2) quantize the weights and compile the fused op pipeline;
    /// (3) run both paths over the frames, recording per-logit absolute
    /// errors — the source of [`QuantizedNetwork::logit_error_bound`].
    ///
    /// # Panics
    ///
    /// Panics on an empty calibration set, on mismatched frame shapes,
    /// or on a layer sequence outside the conv/pool/dense family the
    /// quantizer supports (a ReLU or flatten anywhere the iCOIL CNN
    /// would not have one).
    pub fn calibrate(net: &Network, frames: &[Tensor]) -> QuantizedNetwork {
        assert!(!frames.is_empty(), "calibration needs at least one frame");
        let sample_shape: Vec<usize> = frames[0].shape().to_vec();
        assert_eq!(
            sample_shape.len(),
            3,
            "calibration frames must be [c, h, w]"
        );

        // pass 1: fold activation ranges at every GEMM input, plus the
        // network input itself
        let mut ranges: Vec<(f32, f32)> = Vec::new();
        let mut input_range = (f32::INFINITY, f32::NEG_INFINITY);
        for frame in frames {
            assert_eq!(
                frame.shape(),
                sample_shape,
                "calibration frame shape mismatch"
            );
            for &v in frame.data() {
                input_range.0 = input_range.0.min(v);
                input_range.1 = input_range.1.max(v);
            }
            record_gemm_input_ranges(net, frame, &mut ranges);
        }
        let input_q = ActQuant::from_range(input_range.0, input_range.1);

        // pass 2: quantize weights and compile the fused pipeline. The
        // byte activations are channels-last, so conv rows are permuted
        // from [c][ky][kx] to [ky][kx][c], and the first dense layer after
        // the spatial stack gets its columns permuted from [c][y][x] to
        // [y][x][c]; spatial dims are tracked through the walk to build
        // that permutation.
        let mut ops: Vec<QuantOp> = Vec::new();
        let mut gemm_index = 0usize;
        let mut classes = 0usize;
        let mut spatial: Option<(usize, usize, usize)> =
            Some((sample_shape[0], sample_shape[1], sample_shape[2]));
        for layer in net.layers() {
            match layer {
                LayerKind::Conv2d(c) => {
                    let in_q = if gemm_index == 0 {
                        input_q
                    } else {
                        ActQuant::from_range(ranges[gemm_index].0, ranges[gemm_index].1)
                    };
                    let (in_ch, kernel) = (c.in_ch(), c.kernel());
                    let kk = kernel * kernel;
                    let mut perm = vec![0usize; in_ch * kk];
                    for ky in 0..kernel {
                        for kx in 0..kernel {
                            for ch in 0..in_ch {
                                perm[(ky * kernel + kx) * in_ch + ch] = ch * kk + ky * kernel + kx;
                            }
                        }
                    }
                    ops.push(QuantOp::Conv {
                        g: QuantGemm::new(c.weight(), c.bias(), in_q, Some(&perm)),
                        in_ch,
                        kernel,
                        stride: c.stride(),
                        padding: c.padding(),
                    });
                    let (_, h, w) = spatial.expect("conv layers need spatial input");
                    spatial = Some((c.weight().shape()[0], c.out_dim(h), c.out_dim(w)));
                    gemm_index += 1;
                }
                LayerKind::Dense(d) => {
                    let in_q = if gemm_index == 0 {
                        input_q
                    } else {
                        ActQuant::from_range(ranges[gemm_index].0, ranges[gemm_index].1)
                    };
                    classes = d.weight().shape()[0];
                    let perm = spatial.take().map(|(ch, h, w)| {
                        let hw = h * w;
                        let mut perm = vec![0usize; ch * hw];
                        for p in 0..hw {
                            for c in 0..ch {
                                perm[p * ch + c] = c * hw + p;
                            }
                        }
                        perm
                    });
                    ops.push(QuantOp::Dense {
                        g: QuantGemm::new(d.weight(), d.bias(), in_q, perm.as_deref()),
                    });
                    gemm_index += 1;
                }
                LayerKind::MaxPool2d(p) => {
                    let size = p.size();
                    ops.push(QuantOp::Pool { size });
                    let (ch, h, w) = spatial.expect("pool layers need spatial input");
                    spatial = Some((ch, h / size, w / size));
                }
                LayerKind::ReLU(_) => {
                    let g = ops
                        .iter_mut()
                        .rev()
                        .find_map(|op| match op {
                            QuantOp::Conv { g, .. } | QuantOp::Dense { g } => Some(g),
                            QuantOp::Pool { .. } => None,
                        })
                        .expect("ReLU must follow a conv or dense layer");
                    assert!(!g.fuse_relu, "double ReLU is not supported");
                    g.fuse_relu = true;
                }
                // Flatten is a no-op on the flat byte buffer; dropout is
                // the identity at inference.
                LayerKind::Flatten(_) | LayerKind::Dropout(_) => {}
            }
        }
        // wire each GEMM's output quantizer to the next GEMM's input
        // quantizer (max pooling between them commutes with quantization,
        // so the codes can be produced right at the GEMM output)
        let mut next_in_q: Option<ActQuant> = None;
        for op in ops.iter_mut().rev() {
            if let QuantOp::Conv { g, .. } | QuantOp::Dense { g } = op {
                g.out_q = next_in_q;
                next_in_q = Some(g.in_q);
                g.finalize();
            }
        }

        let mut quantized = QuantizedNetwork {
            ops,
            input_q,
            classes,
            error_bound: 0.0,
            calib_errors: Vec::new(),
        };

        // pass 3: measure the per-logit error over the calibration set
        let mut buf = InferBuffers::new();
        let mut scratch = QuantScratch::new();
        let mut q_out = Tensor::default();
        let mut errors: Vec<f32> = Vec::new();
        for frame in frames {
            let f32_logits = f32_reference_logits(net, frame);
            quantized.forward_batch_into(
                &[frame.data()],
                &sample_shape,
                &mut buf,
                &mut scratch,
                &mut q_out,
            );
            for (&a, &b) in f32_logits.data().iter().zip(q_out.data()) {
                errors.push((a - b).abs());
            }
        }
        // sorted so the struct (and the bound) is independent of frame
        // order — the calibration-determinism contract
        errors.sort_by(f32::total_cmp);
        let max_err = errors.last().copied().unwrap_or(0.0);
        quantized.error_bound = max_err * 4.0 + 0.05;
        quantized.calib_errors = errors;
        quantized
    }

    /// Number of output logits per sample.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The calibrated per-logit absolute error tolerance: conformance
    /// holds |int8 − f32| on held-out frames to this bound (the observed
    /// calibration maximum with 4× headroom plus an absolute floor).
    pub fn logit_error_bound(&self) -> f32 {
        self.error_bound
    }

    /// Per-logit absolute errors observed during calibration, ascending.
    pub fn calibration_errors(&self) -> &[f32] {
        &self.calib_errors
    }

    /// The largest per-logit absolute error observed during calibration.
    pub fn calibration_max_error(&self) -> f32 {
        self.calib_errors.last().copied().unwrap_or(0.0)
    }

    /// Quantized inference over a stacked micro-batch, mirroring
    /// [`Network::forward_batch_into`]: `samples` are flattened
    /// `sample_shape` (`[c, h, w]`) inputs, and `out` receives the
    /// `[n, classes]` f32 logits (staged through `buf`'s ping tensor so
    /// the whole path reuses the pre-sized inference buffers).
    ///
    /// Each sample runs the pipeline independently, so row `i` is
    /// bit-identical to a single-sample call on sample `i` — the same
    /// batching contract the f32 lane honors.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch, a sample whose length does not match
    /// `sample_shape`, or a `sample_shape` that is not `[c, h, w]`.
    pub fn forward_batch_into(
        &self,
        samples: &[&[f32]],
        sample_shape: &[usize],
        buf: &mut InferBuffers,
        scratch: &mut QuantScratch,
        out: &mut Tensor,
    ) {
        assert!(
            !samples.is_empty(),
            "forward_batch_into needs at least one sample"
        );
        assert_eq!(
            sample_shape.len(),
            3,
            "quantized inference expects [c, h, w] samples"
        );
        let sample_len: usize = sample_shape.iter().product();
        let n = samples.len();
        buf.ping.resize(&[n, self.classes]);
        for (i, sample) in samples.iter().enumerate() {
            assert_eq!(
                sample.len(),
                sample_len,
                "sample {i} does not match sample_shape"
            );
            let logits_start = i * self.classes;
            self.forward_sample(sample, sample_shape, scratch, |oc, v| {
                buf.ping.data_mut()[logits_start + oc] = v;
            });
        }
        out.copy_from(&buf.ping);
    }

    /// Runs one sample through the byte pipeline, handing each final
    /// logit to `emit`.
    fn forward_sample(
        &self,
        sample: &[f32],
        sample_shape: &[usize],
        scratch: &mut QuantScratch,
        mut emit: impl FnMut(usize, f32),
    ) {
        let (mut ch, mut h, mut w) = (sample_shape[0], sample_shape[1], sample_shape[2]);
        // quantize the [c, h, w] input into channels-last [h·w, c] bytes:
        // a vectorized contiguous quantize (same math as
        // `ActQuant::quantize`) into the cols scratch, then a byte
        // interleave of the channel planes
        {
            let inv = 1.0 / self.input_q.scale;
            let zp = f32::from(self.input_q.zero_point);
            let hw = h * w;
            let tmp = grow_u8(&mut scratch.cols, sample.len());
            simd::quantize_f32_u8(sample, inv, zp, tmp);
            let q = grow_u8(&mut scratch.q_ping, sample.len());
            for (p, dst_px) in q.chunks_exact_mut(ch).enumerate() {
                for (c, dst) in dst_px.iter_mut().enumerate() {
                    *dst = tmp[c * hw + p];
                }
            }
        }
        let mut in_ping = true;
        for op in &self.ops {
            match op {
                QuantOp::Conv {
                    g,
                    in_ch,
                    kernel,
                    stride,
                    padding,
                } => {
                    debug_assert_eq!(*in_ch, ch, "conv channel mismatch");
                    let oh = (h + 2 * padding - kernel) / stride + 1;
                    let ow = (w + 2 * padding - kernel) / stride + 1;
                    let m = oh * ow;
                    {
                        let (src_buf, dst_buf) = if in_ping {
                            (&mut scratch.q_ping, &mut scratch.q_pong)
                        } else {
                            (&mut scratch.q_pong, &mut scratch.q_ping)
                        };
                        let src = &src_buf[..ch * h * w];
                        let cols = grow_u8(&mut scratch.cols, m * g.k_pad);
                        im2col_u8(
                            src,
                            ch,
                            h,
                            w,
                            *kernel,
                            *stride,
                            *padding,
                            oh,
                            ow,
                            g.in_q.zero_point,
                            g.k_pad,
                            cols,
                        );
                        if scratch.acc.len() < m * g.out {
                            scratch.acc.resize(m * g.out, 0);
                        }
                        let acc = &mut scratch.acc[..m * g.out];
                        simd::gemm_nt_i8(cols, m, g.k_pad, &g.w_q, g.out, acc);
                        // requantize into channels-last codes for the next
                        // layer — `acc[p][oc]` and `dst[p][oc]` share the
                        // layout, so this is one linear walk (the final
                        // layer is always dense, so a conv output always
                        // has an out_q)
                        let out_q = g.out_q.expect("conv layers always feed another layer");
                        let zp_out = f32::from(out_q.zero_point);
                        let dst = grow_u8(dst_buf, m * g.out);
                        g.requant_rows(acc, zp_out, dst);
                    }
                    ch = g.out;
                    h = oh;
                    w = ow;
                    in_ping = !in_ping;
                }
                QuantOp::Pool { size } => {
                    let (oh, ow) = (h / size, w / size);
                    let (src_buf, dst_buf) = if in_ping {
                        (&mut scratch.q_ping, &mut scratch.q_pong)
                    } else {
                        (&mut scratch.q_pong, &mut scratch.q_ping)
                    };
                    let src = &src_buf[..ch * h * w];
                    let dst = grow_u8(dst_buf, ch * oh * ow);
                    maxpool_u8(src, ch, h, w, *size, oh, ow, dst);
                    h = oh;
                    w = ow;
                    in_ping = !in_ping;
                }
                QuantOp::Dense { g } => {
                    let k = ch * h * w;
                    debug_assert_eq!(k, g.k, "dense input length mismatch");
                    {
                        let src_buf = if in_ping {
                            &scratch.q_ping
                        } else {
                            &scratch.q_pong
                        };
                        let src = &src_buf[..k];
                        // stage into the padded patch buffer (pads at the
                        // input zero point; the padded weight codes are 0)
                        let cols = grow_u8(&mut scratch.cols, g.k_pad);
                        cols.fill(g.in_q.zero_point);
                        cols[..k].copy_from_slice(src);
                        if scratch.acc.len() < g.out {
                            scratch.acc.resize(g.out, 0);
                        }
                        let acc = &mut scratch.acc[..g.out];
                        simd::gemm_nt_i8(cols, 1, g.k_pad, &g.w_q, g.out, acc);
                        match g.out_q {
                            Some(out_q) => {
                                let zp_out = f32::from(out_q.zero_point);
                                let dst_buf = if in_ping {
                                    &mut scratch.q_pong
                                } else {
                                    &mut scratch.q_ping
                                };
                                let dst = grow_u8(dst_buf, g.out);
                                g.requant_rows(acc, zp_out, dst);
                            }
                            None => {
                                for (oc, &a) in acc.iter().enumerate() {
                                    emit(oc, g.requant(a, oc));
                                }
                            }
                        }
                    }
                    ch = g.out;
                    h = 1;
                    w = 1;
                    if g.out_q.is_some() {
                        in_ping = !in_ping;
                    }
                }
            }
        }
    }
}

/// Folds the min/max of every GEMM layer's input over one frame into
/// `ranges` (growing it on first use).
fn record_gemm_input_ranges(net: &Network, frame: &Tensor, ranges: &mut Vec<(f32, f32)>) {
    let mut shape = vec![1];
    shape.extend_from_slice(frame.shape());
    let x = Tensor::from_vec(shape, frame.data().to_vec()).expect("frame reshapes");
    let mut gi = 0usize;
    net.visit_gemm_inputs(&x, &mut InferBuffers::new(), |a| {
        if ranges.len() <= gi {
            ranges.push((f32::INFINITY, f32::NEG_INFINITY));
        }
        let r = &mut ranges[gi];
        for &v in a.data() {
            r.0 = r.0.min(v);
            r.1 = r.1.max(v);
        }
        gi += 1;
    });
}

/// The f32 logits for one frame (the calibration error reference).
fn f32_reference_logits(net: &Network, frame: &Tensor) -> Tensor {
    let mut shape = vec![1];
    shape.extend_from_slice(frame.shape());
    let x = Tensor::from_vec(shape, frame.data().to_vec()).expect("frame reshapes");
    let mut buf = InferBuffers::new();
    net.infer_logits(&x, &mut buf).clone()
}

/// Quantized im2col over channels-last bytes, patch-major: row
/// `oy·ow + ox` holds the `k_pad`-wide patch in `[ky][kx][c]` order (the
/// order the quantized conv weights were permuted into), with out-of-image
/// and `k..k_pad` padding positions at the input zero point (the real
/// value 0.0; padded weight codes are 0, so the tail contributes nothing
/// either way).
///
/// Because `kx` and `ix` advance in lockstep and the channel bytes are
/// adjacent, each in-bounds `(patch, ky)` pair is exactly one contiguous
/// byte copy — no per-element bounds checks anywhere on the hot path.
#[allow(clippy::too_many_arguments)]
fn im2col_u8(
    src: &[u8],
    in_ch: usize,
    h: usize,
    w: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    oh: usize,
    ow: usize,
    zero_point: u8,
    k_pad: usize,
    cols: &mut [u8],
) {
    // The `k..k_pad` tail once held the zero point too; now it may keep
    // stale bytes from an earlier layer's patches — always activation
    // codes `<= 127`, and multiplied by the zero weight-code padding, so
    // they can neither reach an output nor saturate a maddubs pair.
    // Skipping the full-plane fill (and filling only patches the padding
    // actually clips) is a measurable win on the 32×32 conv.
    const CHUNK: usize = 16;
    let run = kernel * in_ch;
    // Fixed 16-byte chunk copies (a pair of vector moves, no memcpy call)
    // blind-write up to 15 bytes past the run. Spills always land forward
    // — in this patch's next kernel row, the pad tail, or the first bytes
    // of the next patch row — and patches are emitted in patch-major
    // order, so every spilled-into position is either rewritten later or
    // a stale-tolerant tail byte. A spill never outruns one patch row
    // (15 < k_pad), and the strip guard below falls back to exact byte
    // copies when a blind read/write could cross a buffer end.
    let blind = run.div_ceil(CHUNK) * CHUNK;
    // ox ∈ [x_lo, x_hi) are the patches whose kx window is fully in-image
    let x_lo = padding.div_ceil(stride).min(ow);
    let x_hi = if kernel > w + padding {
        x_lo
    } else {
        ((w + padding - kernel) / stride + 1).clamp(x_lo, ow)
    };
    for oy in 0..oh {
        let iy0 = oy * stride;
        let clipped_y = iy0 < padding || iy0 + kernel > h + padding;
        if clipped_y {
            for ox in 0..ow {
                patch_careful(
                    src, in_ch, h, w, kernel, stride, padding, ow, zero_point, k_pad, cols, oy, ox,
                );
            }
            continue;
        }
        for ox in 0..x_lo {
            patch_careful(
                src, in_ch, h, w, kernel, stride, padding, ow, zero_point, k_pad, cols, oy, ox,
            );
        }
        let n_fast = x_hi - x_lo;
        if n_fast > 0 {
            let iy_top = iy0 - padding;
            let yrow = w * in_ch;
            let src_end =
                ((iy_top + kernel - 1) * w + (x_hi - 1) * stride - padding) * in_ch + blind;
            let dst_end = (oy * ow + x_hi - 1) * k_pad + (kernel - 1) * kernel * in_ch + blind;
            if src_end <= src.len() && dst_end <= cols.len() {
                let mut row = (oy * ow + x_lo) * k_pad;
                let mut sbase = (iy_top * w + x_lo * stride - padding) * in_ch;
                for _ in 0..n_fast {
                    for ky in 0..kernel {
                        let mut s = sbase + ky * yrow;
                        let mut d = row + ky * kernel * in_ch;
                        let mut off = 0;
                        while off < run {
                            let chunk: &[u8; CHUNK] = src[s..s + CHUNK].first_chunk().unwrap();
                            cols[d..d + CHUNK].copy_from_slice(chunk);
                            s += CHUNK;
                            d += CHUNK;
                            off += CHUNK;
                        }
                    }
                    row += k_pad;
                    sbase += stride * in_ch;
                }
            } else {
                for ox in x_lo..x_hi {
                    patch_careful(
                        src, in_ch, h, w, kernel, stride, padding, ow, zero_point, k_pad, cols, oy,
                        ox,
                    );
                }
            }
        }
        for ox in x_hi..ow {
            patch_careful(
                src, in_ch, h, w, kernel, stride, padding, ow, zero_point, k_pad, cols, oy, ox,
            );
        }
    }
}

/// One im2col patch the slow, exact way: zero-point fill, then per-row
/// byte copies that touch only in-image positions. Used for patches the
/// padding clips and as the fallback when a blind chunk copy could cross
/// a buffer end.
#[allow(clippy::too_many_arguments)]
fn patch_careful(
    src: &[u8],
    in_ch: usize,
    h: usize,
    w: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    ow: usize,
    zero_point: u8,
    k_pad: usize,
    cols: &mut [u8],
    oy: usize,
    ox: usize,
) {
    let iy0 = oy * stride;
    let row = (oy * ow + ox) * k_pad;
    let ix_base = ox * stride;
    // kx ∈ [kx0, kx1) keeps ix = ix_base + kx − padding in image
    let kx0 = padding.saturating_sub(ix_base);
    let kx1 = kernel.min((w + padding).saturating_sub(ix_base));
    cols[row..row + k_pad].fill(zero_point);
    if kx0 >= kx1 {
        return;
    }
    let run = (kx1 - kx0) * in_ch;
    for ky in 0..kernel {
        let iy = (iy0 + ky) as isize - padding as isize;
        if iy < 0 || iy >= h as isize {
            continue;
        }
        let src_off = (iy as usize * w + ix_base + kx0 - padding) * in_ch;
        let dst_off = row + (ky * kernel + kx0) * in_ch;
        for (d, &s) in cols[dst_off..dst_off + run].iter_mut().zip(&src[src_off..]) {
            *d = s;
        }
    }
}

/// Channels-last `u8` max pooling (`size×size`, stride `size`): every
/// window row is a max over channel-wide byte slices. Byte comparisons
/// give the same winner as f32 comparisons because the code mapping is
/// monotone, and 0 is the smallest code so it is a safe identity.
#[allow(clippy::too_many_arguments)]
fn maxpool_u8(
    src: &[u8],
    ch: usize,
    h: usize,
    w: usize,
    size: usize,
    oh: usize,
    ow: usize,
    dst: &mut [u8],
) {
    let _ = h;
    if size == 2 {
        // every pool in the iCOIL net is 2×2 over one of these widths
        match ch {
            8 => return pool2_const::<8>(src, w, oh, ow, dst),
            16 => return pool2_const::<16>(src, w, oh, ow, dst),
            32 => return pool2_const::<32>(src, w, oh, ow, dst),
            _ => {}
        }
    }
    for oy in 0..oh {
        for ox in 0..ow {
            let out_px = &mut dst[(oy * ow + ox) * ch..][..ch];
            out_px.fill(0);
            for dy in 0..size {
                let win = &src[((oy * size + dy) * w + ox * size) * ch..][..size * ch];
                for px in win.chunks_exact(ch) {
                    for (m, &v) in out_px.iter_mut().zip(px) {
                        *m = (*m).max(v);
                    }
                }
            }
        }
    }
}

/// 2×2 max pool with the channel count fixed at compile time: the four
/// window pixels become `[u8; N]` arrays, so the max chain lowers to wide
/// byte-max instructions instead of a scalar loop.
fn pool2_const<const N: usize>(src: &[u8], w: usize, oh: usize, ow: usize, dst: &mut [u8]) {
    for oy in 0..oh {
        for ox in 0..ow {
            let top = (2 * oy * w + 2 * ox) * N;
            let bot = top + w * N;
            let a: &[u8; N] = src[top..top + N].first_chunk().expect("window pixel");
            let b: &[u8; N] = src[top + N..top + 2 * N]
                .first_chunk()
                .expect("window pixel");
            let c: &[u8; N] = src[bot..bot + N].first_chunk().expect("window pixel");
            let d: &[u8; N] = src[bot + N..bot + 2 * N]
                .first_chunk()
                .expect("window pixel");
            let mut m = [0u8; N];
            for i in 0..N {
                m[i] = a[i].max(b[i]).max(c[i]).max(d[i]);
            }
            dst[(oy * ow + ox) * N..][..N].copy_from_slice(&m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bev_like_frames(count: usize, c: usize, hw: usize, seed: u64) -> Vec<Tensor> {
        (0..count)
            .map(|i| {
                let data: Vec<f32> = (0..c * hw * hw)
                    .map(|j| {
                        let z = (seed as usize + i * 7919 + j * 37) % 101;
                        // channels 0/1-like occupancy in [0,1], plus a
                        // signed-plane flavor on the last channel
                        if j < (c - 1) * hw * hw {
                            (z as f32) / 100.0
                        } else {
                            (z as f32) / 50.0 - 1.0
                        }
                    })
                    .collect();
                Tensor::from_vec(vec![c, hw, hw], data).unwrap()
            })
            .collect()
    }

    fn il_net() -> Network {
        Network::il_architecture((3, 32, 32), 21, 11)
    }

    #[test]
    fn act_quant_round_trips_within_half_step() {
        let q = ActQuant::from_range(0.0, 6.3);
        for i in 0..128 {
            let v = 6.3 * (i as f32) / 127.0;
            let back = q.dequantize(q.quantize(v));
            assert!((v - back).abs() <= q.scale / 2.0 + 1e-6, "{v} -> {back}");
        }
        let signed = ActQuant::from_range(-1.0, 2.5);
        assert_eq!(signed.zero_point, 64);
        assert_eq!(signed.quantize(0.0), 64);
        for v in [-1.0f32, -0.5, 0.0, 0.7, 2.5] {
            let back = signed.dequantize(signed.quantize(v));
            assert!(
                (v - back).abs() <= signed.scale / 2.0 + 1e-6,
                "{v} -> {back}"
            );
        }
    }

    #[test]
    fn act_quant_saturates_out_of_range() {
        let q = ActQuant::from_range(0.0, 1.0);
        assert_eq!(q.quantize(50.0), 127);
        assert_eq!(q.quantize(-50.0), 0);
        let s = ActQuant::from_range(-1.0, 1.0);
        assert_eq!(s.quantize(50.0), 127);
        assert_eq!(s.quantize(-50.0), 0);
    }

    #[test]
    fn weight_rows_round_trip_within_half_step() {
        let row: Vec<f32> = (0..40)
            .map(|i| ((i * 13 + 5) as f32 * 0.37).sin())
            .collect();
        let (codes, scale) = quantize_weight_row(&row);
        for (&w, &c) in row.iter().zip(&codes) {
            assert!((w - dequantize_weight(c, scale)).abs() <= scale / 2.0 + 1e-6);
        }
        // extremes hit exactly ±127
        let (codes, _) = quantize_weight_row(&[3.0, -3.0, 0.0]);
        assert_eq!(codes, vec![127, -127, 0]);
    }

    #[test]
    fn calibrated_logits_track_f32_within_bound() {
        let net = il_net();
        let frames = bev_like_frames(6, 3, 32, 3);
        let q = QuantizedNetwork::calibrate(&net, &frames[..4]);
        assert_eq!(q.classes(), 21);
        assert!(q.logit_error_bound() > 0.0);
        let mut buf = InferBuffers::new();
        let mut scratch = QuantScratch::new();
        let mut out = Tensor::default();
        // held-out frames from the same distribution stay within bound
        for frame in &frames[4..] {
            let reference = f32_reference_logits(&net, frame);
            q.forward_batch_into(
                &[frame.data()],
                &[3, 32, 32],
                &mut buf,
                &mut scratch,
                &mut out,
            );
            for (&a, &b) in reference.data().iter().zip(out.data()) {
                assert!(
                    (a - b).abs() <= q.logit_error_bound(),
                    "|{a} - {b}| > {}",
                    q.logit_error_bound()
                );
            }
        }
    }

    #[test]
    fn batched_rows_match_single_sample_quantized() {
        let net = il_net();
        let frames = bev_like_frames(5, 3, 32, 9);
        let q = QuantizedNetwork::calibrate(&net, &frames[..2]);
        let mut buf = InferBuffers::new();
        let mut scratch = QuantScratch::new();
        let samples: Vec<&[f32]> = frames.iter().map(|f| f.data()).collect();
        let mut batch = Tensor::default();
        q.forward_batch_into(&samples, &[3, 32, 32], &mut buf, &mut scratch, &mut batch);
        assert_eq!(batch.shape(), &[5, 21]);
        let mut single_buf = InferBuffers::new();
        let mut single_scratch = QuantScratch::new();
        let mut single = Tensor::default();
        for (i, sample) in samples.iter().enumerate() {
            q.forward_batch_into(
                &[sample],
                &[3, 32, 32],
                &mut single_buf,
                &mut single_scratch,
                &mut single,
            );
            assert_eq!(
                &batch.data()[i * 21..(i + 1) * 21],
                single.data(),
                "batch row {i} diverged"
            );
        }
    }

    #[test]
    fn calibration_is_independent_of_frame_order() {
        let net = il_net();
        let frames = bev_like_frames(4, 3, 32, 21);
        let forward = QuantizedNetwork::calibrate(&net, &frames);
        let reversed: Vec<Tensor> = frames.iter().rev().cloned().collect();
        let backward = QuantizedNetwork::calibrate(&net, &reversed);
        assert_eq!(forward, backward);
    }

    #[test]
    fn quantized_path_is_reproducible() {
        let net = il_net();
        let frames = bev_like_frames(3, 3, 32, 5);
        let q = QuantizedNetwork::calibrate(&net, &frames);
        let mut buf = InferBuffers::new();
        let mut scratch = QuantScratch::new();
        let mut a = Tensor::default();
        let mut b = Tensor::default();
        let samples: Vec<&[f32]> = frames.iter().map(|f| f.data()).collect();
        q.forward_batch_into(&samples, &[3, 32, 32], &mut buf, &mut scratch, &mut a);
        q.forward_batch_into(&samples, &[3, 32, 32], &mut buf, &mut scratch, &mut b);
        assert_eq!(
            a.data(),
            b.data(),
            "warm buffers must not change the result"
        );
    }
}
