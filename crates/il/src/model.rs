//! The trained IL artifact and its inference path.

use icoil_nn::loss::softmax_in_place;
use icoil_nn::{InferBuffers, Network, Tensor};
use icoil_perception::{BevConfig, BevImage};
use icoil_vehicle::{Action, ActionCodec};
use serde::{Deserialize, Serialize};

/// Output of one IL inference.
#[derive(Debug, Clone, PartialEq)]
pub struct InferResult {
    /// The decoded action of the argmax class.
    pub action: Action,
    /// The chosen class index.
    pub class: usize,
    /// The full softmax distribution (input to the HSA uncertainty).
    pub probs: Vec<f64>,
}

/// Everything [`IlModel::infer_batch_with`] writes: activation buffers
/// and the batched-logits tensor. A model shared read-only between
/// threads needs one per thread. Sized on first use and reused verbatim
/// afterwards, so steady-state batches allocate only their results.
#[derive(Debug, Clone, Default)]
pub struct IlScratch {
    buffers: InferBuffers,
    out: Tensor,
}

impl IlScratch {
    /// Empty scratch; the buffers are sized lazily on first use.
    pub fn new() -> Self {
        IlScratch::default()
    }
}

/// A trained IL model: network weights plus the action codec and the BEV
/// geometry it was trained with.
///
/// # Example
///
/// ```
/// use icoil_il::IlModel;
/// use icoil_perception::BevConfig;
/// use icoil_vehicle::ActionCodec;
///
/// let model = IlModel::untrained(ActionCodec::default(), BevConfig::default(), 7);
/// let json = model.to_json();
/// let back = IlModel::from_json(&json).unwrap();
/// assert_eq!(back.codec().num_classes(), 21);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IlModel {
    network: Network,
    codec: ActionCodec,
    bev: BevConfig,
    /// Reusable buffers for [`IlModel::infer`] and
    /// [`IlModel::infer_batch`] (not persisted).
    #[serde(skip)]
    scratch: IlScratch,
}

/// The argmax decode of one softmax row: last maximal index, matching
/// `Tensor::argmax_rows` tie-breaking.
fn decode(codec: &ActionCodec, row: &[f32]) -> InferResult {
    let mut class = 0;
    for (j, &p) in row.iter().enumerate() {
        if p >= row[class] {
            class = j;
        }
    }
    InferResult {
        action: codec.decode(class),
        class,
        probs: row.iter().map(|&v| v as f64).collect(),
    }
}

impl IlModel {
    /// Wraps a trained network.
    pub fn new(network: Network, codec: ActionCodec, bev: BevConfig) -> Self {
        IlModel {
            network,
            codec,
            bev,
            scratch: IlScratch::new(),
        }
    }

    /// A freshly-initialized (untrained) model with the paper's
    /// architecture — useful for tests and as a training starting point.
    pub fn untrained(codec: ActionCodec, bev: BevConfig, seed: u64) -> Self {
        let network = Network::il_architecture(
            (BevImage::CHANNELS, bev.size, bev.size),
            codec.num_classes(),
            seed,
        );
        IlModel::new(network, codec, bev)
    }

    /// The action codec.
    pub fn codec(&self) -> &ActionCodec {
        &self.codec
    }

    /// The BEV geometry the model expects.
    pub fn bev_config(&self) -> &BevConfig {
        &self.bev
    }

    /// Mutable access to the network (the trainer drives this).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Runs inference on one BEV image: [`IlModel::infer_batch`] on a
    /// batch of one.
    ///
    /// The forward pass reuses the model's internal buffers, so after the
    /// first frame it performs no heap allocation; only the returned
    /// [`InferResult`] and the call's small sample and result vectors
    /// are freshly allocated.
    ///
    /// # Panics
    ///
    /// Panics when the image geometry differs from the model's
    /// [`BevConfig`].
    pub fn infer(&mut self, image: &BevImage) -> InferResult {
        self.infer_batch(&[image])
            .pop()
            .expect("one result per image")
    }

    /// Runs inference on a micro-batch of BEV images, one result per
    /// image, in input order.
    ///
    /// The images are stacked into a single `[n, C, H, W]` batch and
    /// pushed through [`Network::forward_batch_into`] in one blocked
    /// pass — the serving engine's IL lane. Batching is a throughput
    /// optimization, not an approximation: every row of the batched
    /// softmax is bit-identical to [`IlModel::infer`] on that image
    /// alone, and the conformance harness (`batched_single_il`) holds
    /// the two paths to exactly that standard.
    ///
    /// Runs [`IlModel::infer_batch_with`] on the model's own scratch.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch or when any image's geometry differs
    /// from the model's [`BevConfig`].
    pub fn infer_batch(&mut self, images: &[&BevImage]) -> Vec<InferResult> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let results = self.infer_batch_with(images, &mut scratch);
        self.scratch = scratch;
        results
    }

    /// [`IlModel::infer_batch`] on a model shared read-only: `scratch`
    /// takes every write, so threads that each bring their own scratch
    /// can run one model at once. Rows are bit-identical to
    /// [`IlModel::infer_batch`].
    ///
    /// The stacked batch runs through the network into `scratch`, then
    /// a row-wise softmax and argmax decode. Samples are processed
    /// independently, so row `i` is bit-identical to a single-image
    /// call.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch or when any image's geometry differs
    /// from the model's [`BevConfig`].
    pub fn infer_batch_with(
        &self,
        images: &[&BevImage],
        scratch: &mut IlScratch,
    ) -> Vec<InferResult> {
        assert!(!images.is_empty(), "infer_batch needs at least one image");
        let size = self.bev.size;
        let samples: Vec<&[f32]> = images
            .iter()
            .map(|image| {
                assert_eq!(image.size, size, "BEV image size does not match the model");
                image.data.as_slice()
            })
            .collect();
        self.network.forward_batch_into(
            &samples,
            &[BevImage::CHANNELS, size, size],
            &mut scratch.buffers,
            &mut scratch.out,
        );
        softmax_in_place(&mut scratch.out);
        let classes = self.codec.num_classes();
        scratch.out.data()[..images.len() * classes]
            .chunks_exact(classes)
            .map(|row| decode(&self.codec, row))
            .collect()
    }

    /// Runs inference through the reference (allocating) forward pass.
    ///
    /// Numerically this must agree with [`IlModel::infer`] bit-for-bit —
    /// the buffered path is an allocation optimization, not an
    /// approximation — and the conformance harness holds the two paths to
    /// exactly that standard on every fuzzed scenario.
    ///
    /// # Panics
    ///
    /// Panics when the image geometry differs from the model's
    /// [`BevConfig`].
    pub fn infer_reference(&mut self, image: &BevImage) -> InferResult {
        assert_eq!(
            image.size, self.bev.size,
            "BEV image size does not match the model"
        );
        let mut input = Tensor::zeros(vec![1, BevImage::CHANNELS, image.size, image.size]);
        input.data_mut().copy_from_slice(&image.data);
        let probs = self.network.predict_proba(&input);
        decode(&self.codec, probs.data())
    }

    /// Serializes weights + codec + geometry to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("model serializes")
    }

    /// Restores a model from [`IlModel::to_json`] output.
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
    use icoil_perception::BevImage;

    fn blank_image(size: usize) -> BevImage {
        BevImage {
            size,
            range: 12.0,
            data: vec![0.0; BevImage::CHANNELS * size * size],
        }
    }

    #[test]
    fn infer_returns_distribution_on_simplex() {
        let mut m = IlModel::untrained(ActionCodec::default(), BevConfig::default(), 1);
        let r = m.infer(&blank_image(32));
        assert_eq!(r.probs.len(), 21);
        let sum: f64 = r.probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        assert!(r.class < 21);
        assert!(r.action.validate().is_ok());
    }

    #[test]
    fn inference_is_deterministic() {
        let mut m = IlModel::untrained(ActionCodec::default(), BevConfig::default(), 2);
        let img = blank_image(32);
        assert_eq!(m.infer(&img), m.infer(&img));
    }

    #[test]
    fn json_roundtrip_preserves_inference() {
        let mut m = IlModel::untrained(ActionCodec::default(), BevConfig::default(), 3);
        let img = blank_image(32);
        let before = m.infer(&img);
        let mut back = IlModel::from_json(&m.to_json()).unwrap();
        assert_eq!(back.infer(&img), before);
    }

    #[test]
    fn reference_path_matches_buffered_path_bitwise() {
        let mut m = IlModel::untrained(ActionCodec::default(), BevConfig::default(), 5);
        let mut img = blank_image(32);
        for (i, v) in img.data.iter_mut().enumerate() {
            *v = ((i * 2654435761) % 1000) as f32 / 1000.0;
        }
        let fast = m.infer(&img);
        let reference = m.infer_reference(&img);
        assert_eq!(fast, reference);
    }

    #[test]
    fn batched_inference_matches_single_sample_bitwise() {
        let mut m = IlModel::untrained(ActionCodec::default(), BevConfig::default(), 6);
        let images: Vec<BevImage> = (0..7)
            .map(|k| {
                let mut img = blank_image(32);
                for (i, v) in img.data.iter_mut().enumerate() {
                    *v = (((i + 31 * k) * 2654435761) % 1000) as f32 / 1000.0;
                }
                img
            })
            .collect();
        for n in [1usize, 2, 7] {
            let refs: Vec<&BevImage> = images[..n].iter().collect();
            let batched = m.infer_batch(&refs);
            assert_eq!(batched.len(), n);
            for (i, b) in batched.iter().enumerate() {
                assert_eq!(*b, m.infer(&images[i]), "batch {n} row {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "size does not match")]
    fn wrong_image_size_panics() {
        let mut m = IlModel::untrained(ActionCodec::default(), BevConfig::default(), 4);
        let _ = m.infer(&blank_image(16));
    }

    fn noisy_images(count: usize, seed: usize) -> Vec<BevImage> {
        (0..count)
            .map(|k| {
                let mut img = blank_image(32);
                for (i, v) in img.data.iter_mut().enumerate() {
                    *v = (((i + 31 * (k + seed)) * 2654435761) % 1000) as f32 / 1000.0;
                }
                img
            })
            .collect()
    }

    #[test]
    fn shared_model_batches_match_the_owned_path_bitwise() {
        let mut m = IlModel::untrained(ActionCodec::default(), BevConfig::default(), 13);
        let images = noisy_images(5, 2);
        let refs: Vec<&BevImage> = images.iter().collect();
        let mut scratch = IlScratch::new();
        let owned = m.infer_batch(&refs);
        // twice, so the second call runs on grown buffers
        for _ in 0..2 {
            assert_eq!(m.infer_batch_with(&refs, &mut scratch), owned);
        }
        let single = m.infer_batch_with(&refs[3..4], &mut scratch);
        assert_eq!(single[0], owned[3], "row 3 alone");
    }
}
