//! Property-based differential tests for the SIMD kernel layer:
//! scalar-vs-dispatched agreement at deliberately awkward shapes (tail
//! lanes, zero-size edges) and matching NaN propagation, plus the fused
//! conv-block inference held bit for bit to `Network::forward` on each
//! backend. On machines without AVX2 (or under `ICOIL_FORCE_SCALAR=1`)
//! both sides run the scalar path and the cross-backend properties hold
//! trivially.

use icoil_nn::layer::{Conv2d, LayerKind};
use icoil_nn::simd::{self, KernelBackend};
use icoil_nn::{init, InferBuffers, Network, Tensor};
use proptest::prelude::*;

/// Relative tolerance for the `"ulp"`-mode kernels: FMA contraction and
/// lane-split reductions reorder roundings but stay within a few ULP per
/// accumulation step.
fn close(a: f32, b: f32) -> bool {
    (a - b).abs() <= 1e-4 * a.abs().max(b.abs()).max(1.0)
}

fn arb_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    // spans the lane boundary cases: < 8, exactly 8/16, and ragged tails
    (1usize..=19, 1usize..=19, 1usize..=35)
}

/// A conv stack whose blocks take every fused-inference path: 5 output
/// channels (a 4-channel register tile plus a 1-channel tail) with ReLU
/// and 2×2 pool, a pool without a ReLU at stride 1 or 2, and a ReLU
/// without a pool; input sides from 8 to 23 leave 8-column tile tails and
/// odd pool inputs. A few weights are exactly zero (the zero-skip path)
/// and the biases are nonzero.
fn conv_stack(c: usize, h: usize, w: usize, k: usize, stride: usize, seed: u64) -> Network {
    let same = |d: usize| d + 2 * (k / 2) + 1 - k;
    let (h1, w1) = (same(h) / 2, same(w) / 2);
    let strided = |d: usize| (d + 2 - 3) / stride + 1;
    let down = |d: usize| strided(d) / 2;
    let (h2, w2) = (down(h1), down(w1));
    let mut net = Network::new(vec![
        LayerKind::conv2d(c, 5, k, seed),
        LayerKind::relu(),
        LayerKind::maxpool2d(2),
        LayerKind::Conv2d(Conv2d::new(5, 4, 3, stride, 1, seed + 1)),
        LayerKind::maxpool2d(2),
        LayerKind::conv2d(4, 3, 3, seed + 2),
        LayerKind::relu(),
        LayerKind::flatten(),
        LayerKind::dense(3 * h2 * w2, 6, seed + 3),
    ]);
    for (i, (param, _)) in net.params_grads().into_iter().enumerate() {
        if i % 2 == 1 {
            // a bias
            let b = init::uniform(param.shape().to_vec(), -0.5, 0.5, seed + 10 + i as u64);
            param.data_mut().copy_from_slice(b.data());
        } else {
            for v in param.data_mut().iter_mut().step_by(7) {
                *v = 0.0;
            }
        }
    }
    net
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// `forward_batch_into` and `infer_logits` against `forward(x, false)`
/// on the first `n` samples of `stacked`, for each batch width, on the
/// current thread's backend.
fn check_fused_against_forward(
    net: &mut Network,
    stacked: &Tensor,
    widths: &[usize],
) -> Result<(), TestCaseError> {
    let sample_shape = &stacked.shape()[1..];
    let len: usize = sample_shape.iter().product();
    let mut buf = InferBuffers::new();
    let mut out = Tensor::default();
    for &n in widths {
        let mut shape = vec![n];
        shape.extend_from_slice(sample_shape);
        let x = Tensor::from_vec(shape, stacked.data()[..n * len].to_vec()).unwrap();
        let reference = net.forward(&x, false);
        let samples: Vec<&[f32]> = (0..n).map(|i| &x.data()[i * len..(i + 1) * len]).collect();
        net.forward_batch_into(&samples, sample_shape, &mut buf, &mut out);
        prop_assert_eq!(out.shape(), reference.shape());
        prop_assert_eq!(
            bits(out.data()),
            bits(reference.data()),
            "batch width {}",
            n
        );
        let logits = net.infer_logits(&x, &mut buf);
        prop_assert_eq!(
            bits(logits.data()),
            bits(reference.data()),
            "infer_logits width {}",
            n
        );
    }
    Ok(())
}

/// Random inputs in [-1, 1) with every fifth value exactly zero.
fn inputs(shape: Vec<usize>, seed: u64) -> Tensor {
    let mut x = init::uniform(shape, -1.0, 1.0, seed);
    for v in x.data_mut().iter_mut().step_by(5) {
        *v = 0.0;
    }
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_inference_matches_forward_bitwise(
        c in 1usize..=3,
        h in 8usize..=23,
        w in 8usize..=23,
        k in 1usize..=5,
        stride in 1usize..=2,
        seed in 0u64..10_000,
    ) {
        let mut net = conv_stack(c, h, w, k, stride, seed);
        let stacked = inputs(vec![16, c, h, w], seed);
        for backend in [KernelBackend::Scalar, simd::detected()] {
            simd::with_backend(backend, || {
                check_fused_against_forward(&mut net, &stacked, &[1, 2, 7, 16])
            })?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn fused_il_architecture_matches_forward_bitwise(seed in 0u64..10_000) {
        // the served shapes: 3×32×32 BEV input, three conv blocks
        let mut net = Network::il_architecture((3, 32, 32), 21, seed);
        let stacked = inputs(vec![16, 3, 32, 32], seed);
        for backend in [KernelBackend::Scalar, simd::detected()] {
            simd::with_backend(backend, || {
                check_fused_against_forward(&mut net, &stacked, &[1, 2, 7, 16])
            })?;
        }
    }
}

proptest! {
    #[test]
    fn matmul_backends_agree_at_awkward_shapes(
        (m, k, n) in arb_dims(),
        vals in prop::collection::vec(-4.0f32..4.0, 19 * 19 + 19 * 35),
    ) {
        let a = Tensor::from_vec(vec![m, k], vals[..m * k].to_vec()).unwrap();
        let b = Tensor::from_vec(vec![k, n], vals[m * k..m * k + k * n].to_vec()).unwrap();
        let scalar = simd::with_backend(KernelBackend::Scalar, || a.matmul(&b));
        let simd_out = simd::with_backend(simd::detected(), || a.matmul(&b));
        for (i, (x, y)) in scalar.data().iter().zip(simd_out.data()).enumerate() {
            prop_assert!(close(*x, *y), "matmul[{}]: {} vs {}", i, x, y);
        }
    }

    #[test]
    fn matmul_nt_backends_agree_at_awkward_shapes(
        (m, k, n) in arb_dims(),
        vals in prop::collection::vec(-4.0f32..4.0, 19 * 19 + 19 * 35),
    ) {
        let a = Tensor::from_vec(vec![m, k], vals[..m * k].to_vec()).unwrap();
        let b = Tensor::from_vec(vec![n, k], vals[m * k..m * k + n * k].to_vec()).unwrap();
        let scalar = simd::with_backend(KernelBackend::Scalar, || a.matmul_nt(&b));
        let simd_out = simd::with_backend(simd::detected(), || a.matmul_nt(&b));
        for (i, (x, y)) in scalar.data().iter().zip(simd_out.data()).enumerate() {
            prop_assert!(close(*x, *y), "matmul_nt[{}]: {} vs {}", i, x, y);
        }
    }

    #[test]
    fn nan_and_inf_propagation_matches_scalar(
        (m, k, n) in (1usize..=6, 1usize..=17, 1usize..=17),
        poison_at in 0usize..(6 * 17),
        use_inf in any::<bool>(),
    ) {
        // poison one `a` entry; both backends must produce the same
        // non-finite pattern (the zero-skip means a poisoned column of a
        // *zero* row would be skipped identically on both paths)
        let mut a_data: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.21).sin()).collect();
        a_data[poison_at % (m * k)] = if use_inf { f32::INFINITY } else { f32::NAN };
        let a = Tensor::from_vec(vec![m, k], a_data).unwrap();
        let b_data: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.13).cos()).collect();
        let b = Tensor::from_vec(vec![k, n], b_data).unwrap();
        let scalar = simd::with_backend(KernelBackend::Scalar, || a.matmul(&b));
        let simd_out = simd::with_backend(simd::detected(), || a.matmul(&b));
        for (i, (x, y)) in scalar.data().iter().zip(simd_out.data()).enumerate() {
            prop_assert_eq!(
                x.is_finite(),
                y.is_finite(),
                "finiteness[{}]: {} vs {}", i, x, y
            );
            prop_assert_eq!(x.is_nan(), y.is_nan(), "NaN[{}]: {} vs {}", i, x, y);
        }
    }

    #[test]
    fn zero_size_edges_are_consistent(k in 0usize..9, n in 0usize..9) {
        // empty row / empty inner dimension: both backends must agree
        // exactly (empty sums are 0.0, never garbage)
        let a = Tensor::zeros(vec![0, k]);
        let b = Tensor::zeros(vec![k, n]);
        let c = a.matmul(&b);
        prop_assert_eq!(c.shape(), &[0, n]);
        let a1 = Tensor::full(vec![2, k], 1.5);
        let bt = Tensor::full(vec![n, k], -0.5);
        let scalar = simd::with_backend(KernelBackend::Scalar, || a1.matmul_nt(&bt));
        let simd_out = simd::with_backend(simd::detected(), || a1.matmul_nt(&bt));
        prop_assert_eq!(scalar.shape(), &[2, n]);
        for (x, y) in scalar.data().iter().zip(simd_out.data()) {
            prop_assert!(close(*x, *y));
        }
    }
}
