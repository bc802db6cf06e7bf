//! Property-based tests for the int8 quantization lane: quantizer
//! round-trip and saturation contracts, exact i32 accumulation at every
//! reduction length the iCOIL CNN uses, and calibration determinism
//! across calibration-set order and across the vector backends.

use icoil_nn::quant::{dequantize_weight, quantize_weight_row};
use icoil_nn::simd::{self, KernelBackend};
use icoil_nn::{ActQuant, Network, QuantizedNetwork, Tensor};
use proptest::prelude::*;

/// The GEMM reduction lengths (`k_pad`, already rounded up to a multiple
/// of 32) of every conv and dense layer in the iCOIL IL architecture at
/// the deployed 64×64 BEV input: conv stack 27→32, 72→96, 144→160, then
/// dense 2048/128/64/32.
const ICOIL_K_PADS: [usize; 6] = [32, 64, 96, 128, 160, 2048];

fn bev_like_frames(count: usize, c: usize, hw: usize, seed: u64) -> Vec<Tensor> {
    (0..count)
        .map(|i| {
            let data: Vec<f32> = (0..c * hw * hw)
                .map(|j| {
                    let z = (seed as usize + i * 7919 + j * 37) % 101;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn act_quant_round_trips_within_half_step(
        amin in -4.0f32..2.0,
        span in 0.01f32..4.0,
        t in 0.0f32..1.0,
    ) {
        let amax = amin + span;
        let q = ActQuant::from_range(amin, amax);
        prop_assert!(q.scale > 0.0);
        // any value inside the calibrated range round-trips within half
        // a quantization step (plus f32 rounding slack)
        let v = amin + t * span;
        let back = q.dequantize(q.quantize(v));
        prop_assert!(
            (v - back).abs() <= q.scale * 0.5 * (1.0 + 1e-4) + 1e-6,
            "{v} -> {back} (scale {})", q.scale
        );
    }

    #[test]
    fn act_quant_saturates_at_the_code_range_ends(
        amin in -4.0f32..2.0,
        span in 0.01f32..4.0,
        overshoot in 1.0f32..100.0,
    ) {
        let amax = amin + span;
        let q = ActQuant::from_range(amin, amax);
        // far out of range on either side clamps to the end codes —
        // codes can never leave [0, 127], the maddubs contract
        prop_assert_eq!(q.quantize(amax.max(0.0) + overshoot * q.scale * 200.0), 127);
        prop_assert_eq!(q.quantize(amin.min(0.0) - overshoot * q.scale * 200.0), 0);
        // and 0.0 is always exactly representable
        prop_assert_eq!(q.dequantize(q.quantize(0.0)), 0.0);
    }

    #[test]
    fn weight_rows_round_trip_and_saturate(
        row in prop::collection::vec(-8.0f32..8.0, 1..64),
        spike_at in 0usize..64,
        spike in 8.0f32..1e6,
    ) {
        let (codes, scale) = quantize_weight_row(&row);
        prop_assert!(scale > 0.0);
        for (&w, &c) in row.iter().zip(&codes) {
            prop_assert!(
                (w - dequantize_weight(c, scale)).abs()
                    <= scale * 0.5 * (1.0 + 1e-4) + 1e-6,
                "weight {w} code {c} scale {scale}"
            );
        }
        if row.iter().any(|&w| w != 0.0) {
            // the max-magnitude element lands exactly on ±127
            prop_assert_eq!(codes.iter().map(|&c| i32::from(c).abs()).max(), Some(127));
        }
        // a huge outlier saturates at ±127 rather than widening i8
        let mut spiked = row.clone();
        let i = spike_at % spiked.len();
        spiked[i] = if i % 2 == 0 { spike } else { -spike };
        let (codes, _) = quantize_weight_row(&spiked);
        prop_assert_eq!(i32::from(codes[i]).abs(), 127);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn i32_accumulators_are_exact_at_every_icoil_reduction_length(
        k_idx in 0usize..ICOIL_K_PADS.len(),
        a_fill in 0u32..128,
        b_fill in -127i32..128,
        jitter in any::<u64>(),
    ) {
        let a_fill = a_fill as u8;
        let b_fill = b_fill as i8;
        let k = ICOIL_K_PADS[k_idx];
        // worst case first: |k·127·127| must fit an i32 with room to spare
        prop_assert!((k as i64) * 127 * 127 < i64::from(i32::MAX));
        let (m, n) = (3usize, 5usize);
        let a: Vec<u8> = (0..m * k)
            .map(|i| {
                let z = (jitter as usize).wrapping_add(i * 31) % 129;
                if z == 128 { a_fill } else { (z % 128) as u8 }
            })
            .collect();
        let b: Vec<i8> = (0..n * k)
            .map(|i| {
                let z = (jitter as usize).wrapping_add(i * 17) % 256;
                if z == 255 { b_fill } else { (z as i32 - 127) as i8 }
            })
            .collect();
        let mut out = vec![0i32; m * n];
        simd::gemm_nt_i8(&a, m, k, &b, n, &mut out);
        // exact i64 reference: every accumulator must match bit for bit
        // (no silent wraparound anywhere in the reduction)
        for r in 0..m {
            for c in 0..n {
                let want: i64 = (0..k)
                    .map(|j| i64::from(a[r * k + j]) * i64::from(b[c * k + j]))
                    .sum();
                prop_assert_eq!(i64::from(out[r * n + c]), want, "acc[{},{}] k={}", r, c, k);
            }
        }
        // and the scalar reference agrees with whatever was dispatched
        let mut scalar = vec![0i32; m * n];
        simd::with_backend(KernelBackend::Scalar, || {
            simd::gemm_nt_i8(&a, m, k, &b, n, &mut scalar);
        });
        prop_assert_eq!(&out, &scalar);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn calibration_is_deterministic_across_input_order(
        rotate in 0usize..4,
        reverse in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let net = Network::il_architecture((3, 16, 16), 5, seed);
        let frames = bev_like_frames(4, 3, 16, seed);
        let baseline = QuantizedNetwork::calibrate(&net, &frames);
        let mut shuffled = frames.clone();
        shuffled.rotate_left(rotate);
        if reverse {
            shuffled.reverse();
        }
        let permuted = QuantizedNetwork::calibrate(&net, &shuffled);
        // the whole struct — weights, scales, error bound, and the
        // sorted per-logit error list — is order-independent
        prop_assert_eq!(baseline, permuted);
    }
}

/// Calibration folds ranges over f32 conv-block outputs, which the AVX2
/// and AVX-512 backends compute bit for bit alike, so every vector
/// backend the CPU supports calibrates the same scales and error bound.
#[test]
fn calibration_is_identical_on_every_vector_backend() {
    let net = Network::il_architecture((3, 32, 32), 21, 7);
    let frames = bev_like_frames(6, 3, 32, 7);
    let calibrated: Vec<QuantizedNetwork> = simd::supported_backends()
        .filter(|&b| b != KernelBackend::Scalar)
        .map(|b| simd::with_backend(b, || QuantizedNetwork::calibrate(&net, &frames)))
        .collect();
    for other in calibrated.iter().skip(1) {
        assert_eq!(other, &calibrated[0]);
    }
}
