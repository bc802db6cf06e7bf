//! Property-based differential tests for the SIMD kernel layer:
//! scalar-vs-SIMD agreement at deliberately awkward shapes (tail lanes,
//! zero-size edges) and matching NaN propagation, the fused conv-block
//! inference held bit for bit to `Network::forward` on each backend, and
//! the AVX-512 conv tiles held bit for bit to the AVX2 tiles. Every
//! property runs on each backend the CPU supports
//! ([`simd::supported_backends`]), whatever the process-wide dispatch;
//! the AVX-512 properties pass vacuously on a CPU without AVX-512.

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

/// `forward_batch_into` against `forward(x, false)` on the first `n`
/// samples of `stacked`, for each batch width, batched and one sample at
/// a time, on the current thread's backend.
fn check_fused_against_forward(
    net: &mut Network,
    stacked: &Tensor,
    widths: &[usize],
) -> Result<(), TestCaseError> {
    let sample_shape = &stacked.shape()[1..];
    let len: usize = sample_shape.iter().product();
    let mut buf = InferBuffers::new();
    let mut out = Tensor::default();
    let mut single = Tensor::default();
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
        let classes = reference.shape()[1];
        for (i, sample) in samples.iter().enumerate() {
            net.forward_batch_into(&[sample], sample_shape, &mut buf, &mut single);
            prop_assert_eq!(
                bits(single.data()),
                bits(&reference.data()[i * classes..(i + 1) * classes]),
                "width {} sample {} alone",
                n,
                i
            );
        }
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
        for backend in simd::supported_backends() {
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
        for backend in simd::supported_backends() {
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
        for backend in simd::supported_backends() {
            let simd_out = simd::with_backend(backend, || a.matmul(&b));
            for (i, (x, y)) in scalar.data().iter().zip(simd_out.data()).enumerate() {
                prop_assert!(close(*x, *y), "{:?} matmul[{}]: {} vs {}", backend, i, x, y);
            }
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
        for backend in simd::supported_backends() {
            let simd_out = simd::with_backend(backend, || a.matmul_nt(&b));
            for (i, (x, y)) in scalar.data().iter().zip(simd_out.data()).enumerate() {
                prop_assert!(close(*x, *y), "{:?} matmul_nt[{}]: {} vs {}", backend, i, x, y);
            }
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
        for backend in simd::supported_backends() {
            let simd_out = simd::with_backend(backend, || a.matmul(&b));
            for (i, (x, y)) in scalar.data().iter().zip(simd_out.data()).enumerate() {
                prop_assert_eq!(
                    x.is_finite(),
                    y.is_finite(),
                    "{:?} finiteness[{}]: {} vs {}", backend, i, x, y
                );
                prop_assert_eq!(x.is_nan(), y.is_nan(), "{:?} NaN[{}]: {} vs {}", backend, i, x, y);
            }
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
        prop_assert_eq!(scalar.shape(), &[2, n]);
        for backend in simd::supported_backends() {
            let simd_out = simd::with_backend(backend, || a1.matmul_nt(&bt));
            for (x, y) in scalar.data().iter().zip(simd_out.data()) {
                prop_assert!(close(*x, *y));
            }
        }
    }
}

/// One conv block: a `c → out_ch` conv with a `k×k` kernel at `stride`
/// and "same"-style padding `k/2`, then a ReLU and a 2×2 pool when asked.
/// Every `zero_every`-th weight is exactly zero (alternately `+0.0` and
/// `−0.0`), and the biases are nonzero.
#[allow(clippy::too_many_arguments)]
fn conv_block(
    c: usize,
    out_ch: usize,
    k: usize,
    stride: usize,
    relu: bool,
    pool: bool,
    zero_every: usize,
    seed: u64,
) -> Network {
    let mut layers = vec![LayerKind::Conv2d(Conv2d::new(
        c,
        out_ch,
        k,
        stride,
        k / 2,
        seed,
    ))];
    if relu {
        layers.push(LayerKind::relu());
    }
    if pool {
        layers.push(LayerKind::maxpool2d(2));
    }
    let mut net = Network::new(layers);
    let mut params = net.params_grads().into_iter();
    let (weight, _) = params.next().expect("a conv weight");
    for (i, v) in weight.data_mut().iter_mut().step_by(zero_every).enumerate() {
        *v = if i % 2 == 0 { 0.0 } else { -0.0 };
    }
    let (bias, _) = params.next().expect("a conv bias");
    let b = init::uniform(bias.shape().to_vec(), -0.5, 0.5, seed + 1);
    bias.data_mut().copy_from_slice(b.data());
    net
}

/// Inputs in [-1, 1) with every fifth value a signed zero and every
/// `special_every`-th (counted from 3) a NaN or an infinity.
fn special_inputs(shape: Vec<usize>, special_every: usize, seed: u64) -> Tensor {
    let mut x = init::uniform(shape, -1.0, 1.0, seed);
    for (i, v) in x.data_mut().iter_mut().enumerate() {
        if i % 5 == 0 {
            *v = if i % 2 == 0 { 0.0 } else { -0.0 };
        }
        if i % special_every == 3 {
            *v = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][(i / special_every) % 3];
        }
    }
    x
}

/// The bits of `forward_batch_into` on the first `n` samples of
/// `stacked`, for each batch width in {1, 2, 7, 16}, on `backend`.
fn fused_bits(net: &Network, stacked: &Tensor, backend: KernelBackend) -> Vec<Vec<u32>> {
    let sample_shape = &stacked.shape()[1..];
    let len: usize = sample_shape.iter().product();
    let mut buf = InferBuffers::new();
    let mut out = Tensor::default();
    simd::with_backend(backend, || {
        [1, 2, 7, 16]
            .into_iter()
            .map(|n| {
                let samples: Vec<&[f32]> = (0..n)
                    .map(|i| &stacked.data()[i * len..(i + 1) * len])
                    .collect();
                net.forward_batch_into(&samples, sample_shape, &mut buf, &mut out);
                bits(out.data())
            })
            .collect()
    })
}

/// Runs one conv block on both vector backends and holds the AVX-512
/// output to the AVX2 output bit for bit at every batch width. Passes
/// vacuously on a CPU without AVX-512.
#[allow(clippy::too_many_arguments)]
fn check_avx512_against_avx2(
    (c, h, w): (usize, usize, usize),
    out_ch: usize,
    k: usize,
    stride: usize,
    relu: bool,
    pool: bool,
    (zero_every, special_every): (usize, usize),
    seed: u64,
) -> Result<(), TestCaseError> {
    if !simd::supported(KernelBackend::Avx512) {
        return Ok(());
    }
    let net = conv_block(c, out_ch, k, stride, relu, pool, zero_every, seed);
    let stacked = special_inputs(vec![16, c, h, w], special_every, seed);
    let avx2 = fused_bits(&net, &stacked, KernelBackend::Avx2);
    let avx512 = fused_bits(&net, &stacked, KernelBackend::Avx512);
    for (n, (a, b)) in [1, 2, 7, 16].into_iter().zip(avx2.iter().zip(&avx512)) {
        prop_assert_eq!(a.len(), b.len());
        if let Some(i) = (0..a.len()).find(|&i| a[i] != b[i]) {
            prop_assert!(
                false,
                "{}x{}x{} -> {} k{} s{} relu {} pool {}, width {}: element {} is {:e} on AVX2, {:e} on AVX-512",
                c, h, w, out_ch, k, stride, relu, pool, n, i,
                f32::from_bits(a[i]), f32::from_bits(b[i])
            );
        }
    }
    Ok(())
}

/// Each row holds one fused-conv path on the AVX-512 backend: channel
/// lanes (16/32/48 channels) with and without pool and ReLU, with a
/// column tail (width not a multiple of 8) and a row tail (odd height,
/// no pool); column lanes (8, 12, 24 and 40 channels, so 8-channel
/// blocks with and without leftover channels) with a column tail; and
/// the AVX2 fallbacks (stride 2, fewer than 8 channels, too few columns
/// for either lane kind).
#[test]
fn avx512_conv_tiles_match_avx2_on_every_path() {
    let rows = [
        ((8, 16, 16), 16, 3, 1, true, true),
        ((16, 8, 8), 32, 3, 1, true, true),
        ((3, 9, 11), 16, 3, 1, false, true),
        ((2, 7, 13), 32, 3, 1, true, false),
        ((2, 5, 8), 48, 5, 1, false, false),
        ((1, 6, 9), 16, 1, 1, true, false),
        ((3, 32, 32), 8, 3, 1, true, true),
        ((3, 10, 20), 8, 3, 1, false, true),
        ((2, 7, 33), 12, 3, 1, true, false),
        ((1, 5, 17), 24, 5, 1, false, false),
        ((2, 4, 16), 40, 2, 1, true, true),
        ((3, 12, 20), 16, 3, 2, true, true),
        ((2, 9, 33), 8, 3, 2, false, false),
        ((3, 8, 24), 5, 3, 1, true, true),
        ((2, 6, 7), 16, 3, 1, true, false),
        ((2, 6, 12), 8, 3, 1, false, true),
    ];
    for (i, &(input, out_ch, k, stride, relu, pool)) in rows.iter().enumerate() {
        check_avx512_against_avx2(
            input,
            out_ch,
            k,
            stride,
            relu,
            pool,
            (3, 11),
            100 + i as u64,
        )
        .unwrap_or_else(|e| panic!("row {i}: {e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn avx512_conv_blocks_match_avx2_bitwise(
        c in 1usize..=4,
        h in 2usize..=33,
        w in 2usize..=33,
        // half the cases take the channel lanes' counts
        out_ch in (0usize..4, 1usize..=40).prop_map(|(pick, any)| [16, 32, any, any][pick]),
        k in 1usize..=5,
        stride in (0usize..4).prop_map(|pick| if pick == 0 { 2 } else { 1 }),
        relu in any::<bool>(),
        pool in any::<bool>(),
        zero_every in 2usize..=9,
        special_every in 9usize..=60,
        seed in 0u64..10_000,
    ) {
        check_avx512_against_avx2(
            (c, h, w), out_ch, k, stride, relu, pool, (zero_every, special_every), seed,
        )?;
    }
}
