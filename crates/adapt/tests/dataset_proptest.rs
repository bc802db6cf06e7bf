//! Property tests for the versioned `ICDS` dataset container:
//!
//! * **round trip** — arbitrarily filled datasets (any family mix, any
//!   reservoir cap, any push order) decode back equal, and raw f32 bit
//!   patterns (NaNs and subnormals included) re-encode to identical
//!   bytes;
//! * **robustness** — any single-bit flip anywhere in the container
//!   (header and payload alike) and any truncation decode to a typed
//!   [`ContainerError`], classified by the field the damage landed in;
//!   random byte soup never panics;
//! * **versioning** — a container written under any other format
//!   version is refused with `UnsupportedVersion` carrying that
//!   version, and weight-artifact bytes are refused as `BadMagic`;
//! * **reservoir determinism** — the retained subset is a pure function
//!   of (seed, push sequence), including across an encode/decode
//!   boundary mid-stream, because the sampler state travels with the
//!   dataset;
//! * **hostile lengths** — a header declaring a `u64::MAX`-byte payload
//!   is a typed truncation, not an overflow.

use icoil_adapt::{
    encode_container, AdaptDataset, ContainerError, DATASET_MAGIC, DATASET_VERSION, NUM_FAMILIES,
    WEIGHTS_MAGIC, WEIGHTS_VERSION,
};
use icoil_world::MapFamilyKind;
use proptest::collection::vec;
use proptest::prelude::*;

const SHAPE: [usize; 2] = [2, 3];
const ELEMENTS: usize = 6;

/// One scripted push: (family selector, label selector, value seed).
type Push = (usize, usize, i32);

/// Replays a push script into a fresh dataset. Samples are finite and
/// distinct per script entry, so derived `PartialEq` compares exactly.
fn build(cap: usize, seed: u64, script: &[Push]) -> AdaptDataset {
    let mut d = AdaptDataset::new(SHAPE.to_vec(), cap, seed);
    for &(fam, label, v) in script {
        let family = MapFamilyKind::ALL[fam % NUM_FAMILIES];
        let base = f64::from(v) * 1e-3;
        let sample: Vec<f32> = (0..ELEMENTS).map(|i| (base + i as f64) as f32).collect();
        d.push(family, &sample, label % 21);
    }
    d
}

fn script_strategy() -> impl Strategy<Value = Vec<Push>> {
    vec(
        (0usize..NUM_FAMILIES, 0usize..21, -1_000_000i32..1_000_000),
        0..80,
    )
}

proptest! {
    #[test]
    fn filled_datasets_round_trip_equal(
        cap in 1usize..6,
        seed in 0u64..=u64::MAX,
        script in script_strategy(),
    ) {
        let d = build(cap, seed, &script);
        let decoded = AdaptDataset::decode(&d.encode()).expect("round trip");
        prop_assert_eq!(&decoded, &d);
        // metadata the trainer relies on survives too
        prop_assert_eq!(decoded.seen(), script.len() as u64);
        prop_assert_eq!(decoded.cap_per_family(), cap);
        prop_assert_eq!(decoded.sample_shape(), &SHAPE[..]);
    }

    #[test]
    fn raw_bit_patterns_re_encode_identically(
        bits in vec(0u64..=u64::MAX, 1..12),
    ) {
        // NaN payloads and subnormals break tree equality, so the
        // NaN-proof property is byte-level idempotence. Signaling NaNs
        // are excluded: the f32↔f64 hop inside the codec quiets them in
        // hardware, which is IEEE-sanctioned and irrelevant to real BEV
        // samples — quiet NaNs, infinities, -0.0 and subnormals all
        // survive bitwise and stay in the strategy.
        fn quiet(bits: u32) -> f32 {
            let nan = bits & 0x7F80_0000 == 0x7F80_0000 && bits & 0x007F_FFFF != 0;
            f32::from_bits(if nan { bits | 0x0040_0000 } else { bits })
        }
        let mut d = AdaptDataset::new(vec![2], 2, 7);
        for (i, b) in bits.iter().enumerate() {
            let sample = [quiet(*b as u32), quiet((*b >> 32) as u32)];
            d.push(MapFamilyKind::ALL[i % NUM_FAMILIES], &sample, i % 21);
        }
        let encoded = d.encode();
        let decoded = AdaptDataset::decode(&encoded).expect("round trip");
        prop_assert_eq!(decoded.encode(), encoded);
    }

    #[test]
    fn every_single_bit_flip_is_detected_and_classified(
        cap in 1usize..4,
        seed in 0u64..=u64::MAX,
        script in script_strategy(),
        pos_sel in 0usize..1_000_000,
        bit in 0usize..8,
    ) {
        let mut bytes = build(cap, seed, &script).encode();
        let pos = pos_sel % bytes.len();
        bytes[pos] ^= 1 << bit;
        let err = AdaptDataset::decode(&bytes).expect_err("a flipped container decoded");
        // the 24-byte header is magic / version / length / checksum;
        // each field's damage maps to its own typed error, and any
        // payload flip lands on the FNV-1a checksum (the per-byte step
        // is a bijection of the running hash, so no flip cancels out)
        match pos {
            0..=3 => prop_assert_eq!(err, ContainerError::BadMagic),
            4..=7 => prop_assert!(matches!(err, ContainerError::UnsupportedVersion(_))),
            8..=15 => prop_assert!(matches!(
                err,
                ContainerError::Truncated | ContainerError::Corrupted(_)
            )),
            _ => prop_assert!(matches!(err, ContainerError::Corrupted(_))),
        }
    }

    #[test]
    fn every_truncation_is_detected(
        cap in 1usize..4,
        seed in 0u64..=u64::MAX,
        script in script_strategy(),
        keep_sel in 0usize..1_000_000,
    ) {
        let bytes = build(cap, seed, &script).encode();
        let keep = keep_sel % bytes.len(); // strictly shorter than full
        let err = AdaptDataset::decode(&bytes[..keep]).expect_err("a truncated container decoded");
        prop_assert!(matches!(
            err,
            ContainerError::Truncated | ContainerError::BadMagic
        ));
    }

    #[test]
    fn foreign_versions_are_refused_with_the_typed_error(
        cap in 1usize..4,
        script in script_strategy(),
        raw_version in 0u32..=u32::MAX,
    ) {
        let version = if raw_version == DATASET_VERSION {
            raw_version ^ 1
        } else {
            raw_version
        };
        let d = build(cap, 3, &script);
        let bytes = encode_container(DATASET_MAGIC, version, &d);
        prop_assert_eq!(
            AdaptDataset::decode(&bytes),
            Err(ContainerError::UnsupportedVersion(version))
        );
        // and a weight artifact is a different kind entirely
        let weights = encode_container(WEIGHTS_MAGIC, WEIGHTS_VERSION, &d);
        prop_assert_eq!(
            AdaptDataset::decode(&weights),
            Err(ContainerError::BadMagic)
        );
    }

    #[test]
    fn reservoir_retention_is_a_pure_function_of_seed_and_stream(
        cap in 1usize..4,
        seed in 0u64..=u64::MAX,
        script in vec(
            (0usize..NUM_FAMILIES, 0usize..21, -1_000_000i32..1_000_000),
            1..120,
        ),
        split_sel in 0usize..1_000_000,
    ) {
        let straight = build(cap, seed, &script);
        prop_assert_eq!(&build(cap, seed, &script), &straight);

        // the sampler state travels with the container: pushing through
        // an encode/decode boundary retains the same subset
        let split = split_sel % script.len();
        let mut resumed = AdaptDataset::decode(&build(cap, seed, &script[..split]).encode())
            .expect("mid-stream round trip");
        for &(fam, label, v) in &script[split..] {
            let family = MapFamilyKind::ALL[fam % NUM_FAMILIES];
            let base = f64::from(v) * 1e-3;
            let sample: Vec<f32> = (0..ELEMENTS).map(|i| (base + i as f64) as f32).collect();
            resumed.push(family, &sample, label % 21);
        }
        prop_assert_eq!(&resumed, &straight);

        // caps hold no matter the stream
        for (count, offered) in straight.counts().iter().zip(
            MapFamilyKind::ALL
                .iter()
                .map(|k| script.iter().filter(|&&(f, _, _)| f % NUM_FAMILIES == k.index()).count()),
        ) {
            prop_assert!(*count <= cap);
            prop_assert!(*count <= offered);
            prop_assert_eq!(*count, offered.min(cap));
        }
    }

    #[test]
    fn random_byte_soup_never_panics(noise in vec(0usize..256, 0..96)) {
        let noise: Vec<u8> = noise.into_iter().map(|b| b as u8).collect();
        // typed error or (astronomically unlikely) a valid container —
        // the property is the absence of panics and of unchecked
        // allocations driven by hostile length fields
        let _ = AdaptDataset::decode(&noise);
    }
}

#[test]
fn hostile_payload_length_is_a_typed_error() {
    // a valid `ICDS` header declaring a `u64::MAX`-byte payload: a typed
    // error, never an overflow of the header-plus-length sum
    let mut bytes = DATASET_MAGIC.to_vec();
    bytes.extend_from_slice(&DATASET_VERSION.to_le_bytes());
    bytes.extend_from_slice(&u64::MAX.to_le_bytes());
    bytes.extend_from_slice(&0u64.to_le_bytes());
    assert_eq!(AdaptDataset::decode(&bytes), Err(ContainerError::Truncated));
}
