//! Incremental retraining: generation *g* → generation *g + 1*.
//!
//! The retrainer never trains from scratch. It clones the previous
//! generation's weights and continues optimization on the current
//! aggregate dataset via [`icoil_il::train_incremental`], so the policy
//! accumulates competence across generations instead of relearning the
//! easy families each round. A retraining pass is a pure function of
//! `(previous weights, dataset, config)` — same inputs, bit-identical
//! output weights — which is what makes the serving-side weight pinning
//! and conformance replay meaningful.

use crate::container::{decode_container, encode_container, ContainerError};
use crate::dataset::AdaptDataset;
use icoil_il::{train_incremental, IlModel, TrainConfig, TrainReport};
use serde::{Deserialize, Serialize};

/// Magic bytes of the weight-artifact container.
pub const WEIGHTS_MAGIC: [u8; 4] = *b"ICWT";
/// Current weight-artifact container version.
pub const WEIGHTS_VERSION: u32 = 1;

/// Continues training `prev` on the dataset, returning the next
/// generation's model plus its training curves.
///
/// `prev` is untouched; the returned model starts from its weights.
///
/// # Panics
///
/// Panics for an empty dataset or a sample shape that does not match
/// the model's BEV geometry (same contract as the underlying trainer).
pub fn retrain(
    prev: &IlModel,
    dataset: &AdaptDataset,
    config: &TrainConfig,
) -> (IlModel, TrainReport) {
    let mut model = prev.clone();
    let report = train_incremental(&mut model, &dataset.to_training_set(), config);
    (model, report)
}

/// A versioned, self-describing weight artifact — what the retrainer
/// emits and what the weight store publishes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WeightArtifact {
    /// Generation number (0 = the seed model).
    pub version: u32,
    /// The generation this one warm-started from, if any.
    pub parent: Option<u32>,
    /// Training seed used for this generation.
    pub seed: u64,
    /// Demonstration frames the training set held when this generation
    /// was produced.
    pub examples: u64,
    /// The trained model.
    pub model: IlModel,
}

impl WeightArtifact {
    /// Encodes into the `ICWT` container.
    pub fn encode(&self) -> Vec<u8> {
        encode_container(WEIGHTS_MAGIC, WEIGHTS_VERSION, self)
    }

    /// Decodes an `ICWT` container produced by [`WeightArtifact::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`ContainerError`] for any malformed input.
    pub fn decode(bytes: &[u8]) -> Result<Self, ContainerError> {
        decode_container(WEIGHTS_MAGIC, WEIGHTS_VERSION, bytes)
    }

    /// Writes the encoded artifact to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.encode())
    }

    /// Reads an artifact saved by [`WeightArtifact::save`].
    ///
    /// # Errors
    ///
    /// Returns I/O errors verbatim and decode failures as
    /// `InvalidData`.
    pub fn load(path: &std::path::Path) -> std::io::Result<Self> {
        let bytes = std::fs::read(path)?;
        WeightArtifact::decode(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icoil_perception::BevConfig;
    use icoil_vehicle::{Action, ActionCodec};
    use icoil_world::MapFamilyKind;

    fn tiny_dataset(bev: &BevConfig, codec: &ActionCodec, n: usize) -> AdaptDataset {
        let mut d = AdaptDataset::for_bev(bev, 64, 0);
        let s = bev.size;
        for i in 0..n {
            let mut img = vec![0.0f32; 3 * s * s];
            let left = i % 2 == 0;
            let rows = if left { 0..s / 2 } else { s / 2..s };
            for r in rows {
                for c in s / 2..s {
                    img[r * s + c] = 1.0;
                }
            }
            let steer = if left { -1.0 } else { 1.0 };
            let label = codec.encode(&Action::forward(0.6, steer));
            d.push(
                MapFamilyKind::ALL[i % MapFamilyKind::ALL.len()],
                &img,
                label,
            );
        }
        d
    }

    #[test]
    fn retrain_is_deterministic_and_leaves_prev_untouched() {
        let bev = BevConfig {
            size: 16,
            range: 8.0,
        };
        let codec = ActionCodec::default();
        let d = tiny_dataset(&bev, &codec, 24);
        let prev = IlModel::untrained(codec, bev, 11);
        let before = prev.to_json();
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 8,
            lr: 1e-3,
            seed: 5,
            label_smoothing: 0.1,
        };
        let (m1, r1) = retrain(&prev, &d, &cfg);
        let (m2, r2) = retrain(&prev, &d, &cfg);
        assert_eq!(m1.to_json(), m2.to_json());
        assert_eq!(r1, r2);
        assert_eq!(prev.to_json(), before, "retrain must not mutate its input");
        assert_ne!(m1.to_json(), before, "training must change the weights");
    }

    #[test]
    fn weight_artifact_roundtrips() {
        let bev = BevConfig {
            size: 8,
            range: 8.0,
        };
        let codec = ActionCodec::default();
        let artifact = WeightArtifact {
            version: 3,
            parent: Some(2),
            seed: 42,
            examples: 1234,
            model: IlModel::untrained(codec, bev, 7),
        };
        let bytes = artifact.encode();
        assert_eq!(&bytes[..4], b"ICWT");
        let back = WeightArtifact::decode(&bytes).unwrap();
        assert_eq!(back.version, 3);
        assert_eq!(back.parent, Some(2));
        assert_eq!(back.seed, 42);
        assert_eq!(back.examples, 1234);
        assert_eq!(back.model.to_json(), artifact.model.to_json());
    }

    #[test]
    fn weights_do_not_decode_as_datasets() {
        let bev = BevConfig {
            size: 8,
            range: 8.0,
        };
        let artifact = WeightArtifact {
            version: 0,
            parent: None,
            seed: 0,
            examples: 0,
            model: IlModel::untrained(ActionCodec::default(), bev, 1),
        };
        assert!(matches!(
            AdaptDataset::decode(&artifact.encode()),
            Err(ContainerError::BadMagic)
        ));
    }
}
