//! Property tests for the versioned binary snapshot codec:
//!
//! * **bit-exactness** — every `f64` payload round-trips by bit
//!   pattern, NaN payloads, negative zero and subnormals included (the
//!   determinism contract compares restored trajectories bitwise, so
//!   the codec may not normalize anything);
//! * **idempotence** — arbitrary serde `Value` trees re-encode to the
//!   same bytes after a decode round trip;
//! * **robustness** — any single-bit corruption, any truncation and
//!   random byte soup decode to a typed `ContainerError`-backed
//!   failure; nothing panics, nothing silently succeeds.

use icoil_co::MpcMemorySnapshot;
use icoil_serve::{decode_snapshot, encode_snapshot};
use icoil_solver::{QpWarmStart, QpWorkspaceSnapshot};
use proptest::collection::vec;
use proptest::prelude::*;
use serde::Value;

/// Arbitrary [`Value`] trees: floats drawn from raw bit patterns so
/// NaNs and subnormals appear, nesting bounded well under the codec's
/// depth guard. (The vendored proptest subset has no recursive-strategy
/// combinator, so this is a hand-rolled [`Strategy`].)
struct ValueTreeStrategy;

fn gen_value(rng: &mut TestRng, depth: u64) -> Value {
    // below depth 4, containers stay on the menu; past it, leaves only
    let pick = if depth < 4 { rng.index(9) } else { rng.index(7) };
    match pick {
        0 => Value::Null,
        1 => Value::Bool(rng.next_u64() & 1 == 1),
        2 => Value::I64(rng.next_u64() as i64),
        3 => Value::U64(rng.next_u64()),
        4 => Value::F64(f64::from_bits(rng.next_u64())),
        5 => Value::F32(f32::from_bits(rng.next_u64() as u32)),
        6 => {
            let len = rng.index(12);
            let s: String = (0..len)
                .map(|_| char::from(b' ' + (rng.index(95) as u8)))
                .collect();
            Value::Str(s)
        }
        7 => Value::Seq(
            (0..rng.index(5))
                .map(|_| gen_value(rng, depth + 1))
                .collect(),
        ),
        _ => Value::Map(
            (0..rng.index(5))
                .map(|i| (format!("key_{i}"), gen_value(rng, depth + 1)))
                .collect(),
        ),
    }
}

impl Strategy for ValueTreeStrategy {
    type Value = Value;
    fn sample(&self, rng: &mut TestRng) -> Value {
        gen_value(rng, 0)
    }
}

/// Finite floats from scaled integers, so derived `PartialEq` on the
/// decoded struct is an exact comparison.
fn finite(v: i32) -> f64 {
    f64::from(v) * 1e-6
}

fn finite_vec(vs: Vec<i32>) -> Vec<f64> {
    vs.into_iter().map(finite).collect()
}

proptest! {
    #[test]
    fn f64_payloads_round_trip_bit_exactly(
        bits in vec(any::<u64>(), 0..64),
    ) {
        let payload: Vec<f64> = bits.iter().copied().map(f64::from_bits).collect();
        let encoded = encode_snapshot(&payload);
        let decoded: Vec<f64> = decode_snapshot(&encoded).expect("round trip");
        let back: Vec<u64> = decoded.iter().map(|v| v.to_bits()).collect();
        // to_bits comparison: NaN payloads and -0.0 must survive intact
        prop_assert_eq!(back, bits);
    }

    #[test]
    fn value_trees_re_encode_identically(tree in ValueTreeStrategy) {
        let encoded = encode_snapshot(&tree);
        let decoded: Value = decode_snapshot(&encoded).expect("round trip");
        // byte-level idempotence is NaN-proof where tree equality is not
        prop_assert_eq!(encode_snapshot(&decoded), encoded);
    }

    #[test]
    fn mpc_memory_snapshots_round_trip(
        has_controls in any::<bool>(),
        controls in vec((-1_000_000i32..1_000_000, -1_000_000i32..1_000_000), 0..5),
        has_warm in any::<bool>(),
        warm_x in vec(-1_000_000i32..1_000_000, 0..6),
        warm_y in vec(-1_000_000i32..1_000_000, 0..6),
        has_scaling in any::<bool>(),
        scale_d in vec(1i32..1_000_000, 0..4),
        scale_e in vec(1i32..1_000_000, 0..4),
    ) {
        let snap = MpcMemorySnapshot {
            controls: has_controls.then(|| {
                controls
                    .into_iter()
                    .map(|(a, s)| [finite(a), finite(s)])
                    .collect()
            }),
            warm: has_warm.then(|| QpWarmStart {
                x: finite_vec(warm_x),
                y: finite_vec(warm_y),
            }),
            workspace: QpWorkspaceSnapshot {
                scaling: has_scaling.then(|| (finite_vec(scale_d), finite_vec(scale_e))),
            },
        };
        let encoded = encode_snapshot(&snap);
        let decoded: MpcMemorySnapshot = decode_snapshot(&encoded).expect("round trip");
        prop_assert_eq!(decoded, snap);
    }

    #[test]
    fn single_bit_corruption_is_always_detected(
        bits in vec(any::<u64>(), 0..16),
        pos_sel in 0usize..1_000_000,
        bit in 0u32..8,
    ) {
        let payload: Vec<f64> = bits.into_iter().map(f64::from_bits).collect();
        let mut bytes = encode_snapshot(&payload);
        let pos = pos_sel % bytes.len();
        bytes[pos] ^= 1 << bit;
        // every byte is load-bearing: magic, version and length are
        // validated, the payload is checksummed, and the checksum field
        // itself must match — so no flip may decode successfully
        prop_assert!(decode_snapshot::<Value>(&bytes).is_err());
    }

    #[test]
    fn truncation_is_always_detected(
        bits in vec(any::<u64>(), 0..16),
        keep_sel in 0usize..1_000_000,
    ) {
        let payload: Vec<f64> = bits.into_iter().map(f64::from_bits).collect();
        let bytes = encode_snapshot(&payload);
        let keep = keep_sel % bytes.len(); // strictly shorter than full
        prop_assert!(decode_snapshot::<Value>(&bytes[..keep]).is_err());
    }

    #[test]
    fn random_byte_soup_never_panics(noise in vec(any::<u8>(), 0..96)) {
        // typed error or (astronomically unlikely) a valid container —
        // the property under test is the absence of panics and of
        // unchecked allocations driven by hostile length fields
        let _ = decode_snapshot::<Value>(&noise);
        let _ = decode_snapshot::<MpcMemorySnapshot>(&noise);
    }
}
