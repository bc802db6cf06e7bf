//! The versioned on-disk demonstration dataset with per-family
//! reservoir caps.
//!
//! Every CO-mode or shed frame a running engine serves is a free expert
//! label: the BEV input the policy saw plus the constrained-optimization
//! action that was (or should have been) applied. The aggregate stream
//! is unbounded and skewed — easy families dominate because they admit
//! more CO work — so the dataset keeps one bounded **reservoir per map
//! family**. Reservoir sampling gives every frame of a family's stream
//! an equal probability of surviving, and the per-family split keeps
//! rare hard-family labels from being crowded out.
//!
//! Determinism: each reservoir carries its own splitmix64 stream seeded
//! from `(dataset seed, family index)`, and the RNG state is serialized
//! with the dataset, so feeding the same frames in the same order —
//! even across save/load boundaries — always retains the same subset.

use crate::container::{decode_container, encode_container, ContainerError};
use icoil_world::MapFamilyKind;
use serde::{Deserialize, Serialize};

/// Magic bytes of the dataset container.
pub const DATASET_MAGIC: [u8; 4] = *b"ICDS";
/// Current dataset container version.
pub const DATASET_VERSION: u32 = 1;

/// Number of map families (the length of [`MapFamilyKind::ALL`]).
pub const NUM_FAMILIES: usize = MapFamilyKind::ALL.len();

/// One harvested demonstration frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DemoRecord {
    /// Which map family produced the frame.
    pub family: MapFamilyKind,
    /// The flattened BEV input the policy saw.
    pub sample: Vec<f32>,
    /// The expert action class (`ActionCodec::encode` of the CO action).
    pub label: usize,
}

/// One family's bounded reservoir.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FamilyReservoir {
    /// Frames offered to this reservoir so far (kept or not).
    seen: u64,
    /// splitmix64 state — serialized so a reloaded dataset continues
    /// the same replacement stream.
    rng: u64,
    /// Retained records, at most `cap_per_family`.
    records: Vec<DemoRecord>,
}

impl FamilyReservoir {
    fn new(seed: u64) -> Self {
        FamilyReservoir {
            seen: 0,
            rng: seed,
            records: Vec::new(),
        }
    }

    /// Classic reservoir step: the `n`-th offered frame survives with
    /// probability `cap / n`.
    fn offer(&mut self, record: DemoRecord, cap: usize) -> bool {
        self.seen += 1;
        if self.records.len() < cap {
            self.records.push(record);
            return true;
        }
        let j = (splitmix64(&mut self.rng) % self.seen) as usize;
        if j < cap {
            self.records[j] = record;
            true
        } else {
            false
        }
    }
}

/// splitmix64 — tiny, seedable, and identical on every platform.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The versioned adaptation dataset: one reservoir per map family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptDataset {
    sample_shape: Vec<usize>,
    cap_per_family: usize,
    seed: u64,
    families: Vec<FamilyReservoir>,
}

impl AdaptDataset {
    /// Creates an empty dataset of samples shaped `sample_shape`, with
    /// at most `cap_per_family` retained records per map family.
    ///
    /// # Panics
    ///
    /// Panics for a zero cap or an empty sample shape.
    pub fn new(sample_shape: Vec<usize>, cap_per_family: usize, seed: u64) -> Self {
        assert!(cap_per_family > 0, "reservoir cap must be positive");
        assert!(!sample_shape.is_empty(), "sample shape must be non-empty");
        let families = (0..NUM_FAMILIES)
            .map(|idx| {
                // decorrelate the per-family streams without touching
                // the dataset-level seed semantics
                let s = seed.wrapping_add((idx as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
                FamilyReservoir::new(s)
            })
            .collect();
        AdaptDataset {
            sample_shape,
            cap_per_family,
            seed,
            families,
        }
    }

    /// Convenience constructor for the BEV geometry the IL model uses
    /// (`[3, size, size]`).
    pub fn for_bev(bev: &icoil_perception::BevConfig, cap_per_family: usize, seed: u64) -> Self {
        AdaptDataset::new(vec![3, bev.size, bev.size], cap_per_family, seed)
    }

    /// Offers one frame to its family's reservoir; returns whether it
    /// was retained.
    ///
    /// # Panics
    ///
    /// Panics when the sample length does not match the dataset shape.
    pub fn push(&mut self, family: MapFamilyKind, sample: &[f32], label: usize) -> bool {
        let expected: usize = self.sample_shape.iter().product();
        assert_eq!(
            sample.len(),
            expected,
            "sample has {} elements but the dataset stores {expected}-element samples",
            sample.len()
        );
        let record = DemoRecord {
            family,
            sample: sample.to_vec(),
            label,
        };
        self.families[family.index()].offer(record, self.cap_per_family)
    }

    /// Retained record counts per family, in [`MapFamilyKind::ALL`] order.
    pub fn counts(&self) -> [usize; NUM_FAMILIES] {
        let mut out = [0usize; NUM_FAMILIES];
        for (slot, fam) in out.iter_mut().zip(&self.families) {
            *slot = fam.records.len();
        }
        out
    }

    /// Total frames ever offered (kept or not), across all families.
    pub fn seen(&self) -> u64 {
        self.families.iter().map(|f| f.seen).sum()
    }

    /// Total retained records across all families.
    pub fn len(&self) -> usize {
        self.families.iter().map(|f| f.records.len()).sum()
    }

    /// Returns `true` when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.families.iter().all(|f| f.records.is_empty())
    }

    /// The shape of one sample.
    pub fn sample_shape(&self) -> &[usize] {
        &self.sample_shape
    }

    /// The per-family reservoir cap.
    pub fn cap_per_family(&self) -> usize {
        self.cap_per_family
    }

    /// The dataset-level seed the reservoir streams derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Flattens the reservoirs (families in [`MapFamilyKind::ALL`]
    /// order, records in retention order) into a trainer-ready dataset.
    pub fn to_training_set(&self) -> icoil_nn::Dataset {
        let mut out = icoil_nn::Dataset::new(self.sample_shape.clone());
        for fam in &self.families {
            for rec in &fam.records {
                out.push(&rec.sample, rec.label)
                    .expect("shape checked on push");
            }
        }
        out
    }

    /// Encodes into the `ICDS` container.
    pub fn encode(&self) -> Vec<u8> {
        encode_container(DATASET_MAGIC, DATASET_VERSION, self)
    }

    /// Decodes an `ICDS` container produced by [`AdaptDataset::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`ContainerError`] for any malformed input.
    pub fn decode(bytes: &[u8]) -> Result<Self, ContainerError> {
        let d: AdaptDataset = decode_container(DATASET_MAGIC, DATASET_VERSION, bytes)?;
        if d.families.len() != NUM_FAMILIES {
            return Err(ContainerError::Decode(format!(
                "expected {NUM_FAMILIES} family reservoirs, found {}",
                d.families.len()
            )));
        }
        Ok(d)
    }

    /// Writes the encoded dataset to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.encode())
    }

    /// Reads a dataset saved by [`AdaptDataset::save`].
    ///
    /// # Errors
    ///
    /// Returns I/O errors verbatim and decode failures as
    /// `InvalidData`.
    pub fn load(path: &std::path::Path) -> std::io::Result<Self> {
        let bytes = std::fs::read(path)?;
        AdaptDataset::decode(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(v: f32) -> Vec<f32> {
        vec![v, v + 1.0, v + 2.0, v + 3.0]
    }

    fn filled(cap: usize, seed: u64, frames: usize) -> AdaptDataset {
        let mut d = AdaptDataset::new(vec![2, 2], cap, seed);
        for i in 0..frames {
            let fam = MapFamilyKind::ALL[i % NUM_FAMILIES];
            d.push(fam, &sample(i as f32), i % 21);
        }
        d
    }

    #[test]
    fn caps_hold_per_family() {
        let d = filled(5, 1, 600);
        assert_eq!(d.counts(), [5; NUM_FAMILIES]);
        assert_eq!(d.len(), 5 * NUM_FAMILIES);
        assert_eq!(d.seen(), 600);
    }

    #[test]
    fn below_cap_keeps_everything_in_order() {
        let mut d = AdaptDataset::new(vec![2, 2], 10, 3);
        for i in 0..4 {
            assert!(d.push(MapFamilyKind::ALL[0], &sample(i as f32), i));
        }
        let t = d.to_training_set();
        assert_eq!(t.labels(), &[0, 1, 2, 3]);
    }

    #[test]
    fn reservoir_is_seed_deterministic() {
        let a = filled(3, 9, 300);
        let b = filled(3, 9, 300);
        assert_eq!(a, b);
        let c = filled(3, 10, 300);
        assert_ne!(a, c, "different seeds should retain different subsets");
    }

    #[test]
    fn determinism_survives_save_load_boundary() {
        // straight-through vs. save/load at the midpoint must agree,
        // because the RNG state travels with the dataset
        let straight = filled(3, 4, 200);
        let mut half = filled(3, 4, 100);
        half = AdaptDataset::decode(&half.encode()).unwrap();
        for i in 100..200 {
            let fam = MapFamilyKind::ALL[i % NUM_FAMILIES];
            half.push(fam, &sample(i as f32), i % 21);
        }
        assert_eq!(straight, half);
    }

    #[test]
    fn training_set_orders_families_stably() {
        let mut d = AdaptDataset::new(vec![1], 4, 0);
        // push out of family order
        d.push(MapFamilyKind::ALL[3], &[3.0], 3);
        d.push(MapFamilyKind::ALL[0], &[0.0], 0);
        d.push(MapFamilyKind::ALL[3], &[3.5], 4);
        let t = d.to_training_set();
        assert_eq!(t.labels(), &[0, 3, 4]);
    }

    #[test]
    fn container_roundtrip() {
        let d = filled(4, 2, 100);
        let bytes = d.encode();
        assert_eq!(&bytes[..4], b"ICDS");
        assert_eq!(AdaptDataset::decode(&bytes).unwrap(), d);
    }

    #[test]
    #[should_panic(expected = "elements")]
    fn shape_mismatch_panics() {
        let mut d = AdaptDataset::new(vec![2, 2], 4, 0);
        d.push(MapFamilyKind::ALL[0], &[1.0], 0);
    }
}
