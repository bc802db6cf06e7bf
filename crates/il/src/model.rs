//! The trained IL artifact and its inference path.

use icoil_nn::loss::softmax_in_place;
use icoil_nn::{InferBuffers, Network, QuantScratch, QuantizedNetwork, Tensor};
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

/// Numeric precision of the IL inference lane.
///
/// `F32` is the bit-reproducible reference lane and the default; `Int8`
/// is the calibrated quantized lane — roughly twice as fast per frame,
/// with per-logit error held to the calibrated tolerance
/// ([`IlModel::quant_error_bound`]) rather than to zero. Selecting `Int8`
/// requires a prior [`IlModel::calibrate_int8`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IlPrecision {
    /// The f32 SIMD lane (bit-identical to the reference forward pass).
    #[default]
    F32,
    /// The calibrated int8 lane (tolerance-bounded logits).
    Int8,
}

// Hand-written serde: the wire form is the lowercase label ("f32" /
// "int8"), which the vendored derive cannot express.
impl Serialize for IlPrecision {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.label().to_string())
    }
}

impl Deserialize for IlPrecision {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let s = v
            .as_str()
            .ok_or_else(|| serde::DeError::expected("string", "IlPrecision"))?;
        s.parse().map_err(serde::DeError::custom)
    }
}

impl IlPrecision {
    /// Reads `ICOIL_IL_PRECISION` (`"f32"` or `"int8"`, default `f32`
    /// when unset).
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized value — a typo silently falling back to
    /// f32 would invalidate a benchmark run.
    pub fn from_env() -> IlPrecision {
        match std::env::var("ICOIL_IL_PRECISION") {
            Ok(v) => v
                .parse()
                .unwrap_or_else(|e: String| panic!("ICOIL_IL_PRECISION: {e}")),
            Err(_) => IlPrecision::F32,
        }
    }

    /// The lowercase wire name (`"f32"` / `"int8"`), as used in NDJSON
    /// replies and bench reports.
    pub fn label(self) -> &'static str {
        match self {
            IlPrecision::F32 => "f32",
            IlPrecision::Int8 => "int8",
        }
    }
}

impl std::str::FromStr for IlPrecision {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "f32" => Ok(IlPrecision::F32),
            "int8" => Ok(IlPrecision::Int8),
            other => Err(format!(
                "unknown IL precision {other:?} (expected \"f32\" or \"int8\")"
            )),
        }
    }
}

/// Everything [`IlModel::infer_batch_with`] writes: activation buffers,
/// the batched-logits tensor and the int8 lane's byte buffers. A model
/// shared read-only between threads needs one per thread. Sized on
/// first use and reused verbatim afterwards, so steady-state batches
/// allocate only their results.
#[derive(Debug, Clone, Default)]
pub struct IlScratch {
    buffers: InferBuffers,
    out: Tensor,
    quant: QuantScratch,
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
    /// Reusable input tensor for the hot inference path (not persisted).
    #[serde(skip)]
    input: Tensor,
    /// Reusable activation buffers: after the first frame, inference
    /// performs no heap allocation (not persisted).
    #[serde(skip)]
    buffers: InferBuffers,
    /// Reusable buffers for [`IlModel::infer_batch`] (not persisted).
    #[serde(skip)]
    scratch: IlScratch,
    /// Active inference precision (not persisted; serving pins one per
    /// session and re-selects it after snapshot restore).
    #[serde(skip)]
    precision: IlPrecision,
    /// The calibrated int8 lane, present after
    /// [`IlModel::calibrate_int8`] (not persisted — calibration is a
    /// deterministic function of the weights and the calibration frames,
    /// so restores re-run it).
    #[serde(skip)]
    quant: Option<Box<QuantizedNetwork>>,
}

/// The read-only parts of an [`IlModel`] that batched inference uses,
/// borrowed apart from the model's own scratch so one body serves
/// [`IlModel::infer_batch`] and [`IlModel::infer_batch_with`].
struct ModelRef<'a> {
    network: &'a Network,
    quant: Option<&'a QuantizedNetwork>,
    codec: &'a ActionCodec,
    size: usize,
}

impl ModelRef<'_> {
    /// The stacked batch through the `precision` lane into `scratch`,
    /// then a row-wise softmax and argmax decode. The int8 lane processes
    /// samples independently, as the f32 lane does, so on either lane
    /// row `i` is bit-identical to a single-image call.
    fn infer_batch(
        &self,
        precision: IlPrecision,
        images: &[&BevImage],
        scratch: &mut IlScratch,
    ) -> Vec<InferResult> {
        assert!(!images.is_empty(), "infer_batch needs at least one image");
        let size = self.size;
        let samples: Vec<&[f32]> = images
            .iter()
            .map(|image| {
                assert_eq!(image.size, size, "BEV image size does not match the model");
                image.data.as_slice()
            })
            .collect();
        let shape = [BevImage::CHANNELS, size, size];
        match precision {
            IlPrecision::F32 => self.network.forward_batch_into(
                &samples,
                &shape,
                &mut scratch.buffers,
                &mut scratch.out,
            ),
            IlPrecision::Int8 => self
                .quant
                .expect("int8 precision requires calibrate_int8")
                .forward_batch_into(
                    &samples,
                    &shape,
                    &mut scratch.buffers,
                    &mut scratch.quant,
                    &mut scratch.out,
                ),
        }
        softmax_in_place(&mut scratch.out);
        let classes = self.codec.num_classes();
        scratch.out.data()[..images.len() * classes]
            .chunks_exact(classes)
            .map(|row| {
                let probs: Vec<f64> = row.iter().map(|&v| v as f64).collect();
                // Last maximal index, matching `Tensor::argmax_rows` tie-breaking.
                let mut class = 0;
                for (j, &p) in row.iter().enumerate() {
                    if p >= row[class] {
                        class = j;
                    }
                }
                InferResult {
                    action: self.codec.decode(class),
                    class,
                    probs,
                }
            })
            .collect()
    }
}

impl IlModel {
    /// Wraps a trained network.
    pub fn new(network: Network, codec: ActionCodec, bev: BevConfig) -> Self {
        IlModel {
            network,
            codec,
            bev,
            input: Tensor::default(),
            buffers: InferBuffers::new(),
            scratch: IlScratch::new(),
            precision: IlPrecision::F32,
            quant: None,
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
    ///
    /// Invalidates any int8 calibration: the quantized lane is a function
    /// of the weights, so mutating them drops it (and falls back to f32)
    /// rather than serving stale codes.
    pub fn network_mut(&mut self) -> &mut Network {
        self.quant = None;
        self.precision = IlPrecision::F32;
        &mut self.network
    }

    /// Builds the int8 lane from a deterministic calibration pass over
    /// recorded BEV frames (see [`QuantizedNetwork::calibrate`]). Does
    /// not switch precision by itself — call
    /// [`IlModel::set_precision`] afterwards.
    ///
    /// # Panics
    ///
    /// Panics on an empty calibration set or a frame whose geometry
    /// differs from the model's [`BevConfig`].
    pub fn calibrate_int8(&mut self, frames: &[&BevImage]) {
        assert!(!frames.is_empty(), "calibration needs at least one frame");
        let size = self.bev.size;
        let tensors: Vec<Tensor> = frames
            .iter()
            .map(|image| {
                assert_eq!(
                    image.size, size,
                    "calibration frame size does not match the model"
                );
                Tensor::from_vec(vec![BevImage::CHANNELS, size, size], image.data.clone())
                    .expect("BEV frame reshapes")
            })
            .collect();
        self.quant = Some(Box::new(QuantizedNetwork::calibrate(
            &self.network,
            &tensors,
        )));
    }

    /// Whether the int8 lane has been calibrated.
    pub fn is_calibrated(&self) -> bool {
        self.quant.is_some()
    }

    /// The active inference precision.
    pub fn precision(&self) -> IlPrecision {
        self.precision
    }

    /// Selects the inference lane used by [`IlModel::infer`] and
    /// [`IlModel::infer_batch`]. The f32 lane is always available;
    /// [`IlModel::infer_reference`] stays f32 regardless.
    ///
    /// # Panics
    ///
    /// Panics when selecting [`IlPrecision::Int8`] before
    /// [`IlModel::calibrate_int8`] has run.
    pub fn set_precision(&mut self, precision: IlPrecision) {
        assert!(
            precision == IlPrecision::F32 || self.quant.is_some(),
            "calibrate_int8 must run before selecting the int8 lane"
        );
        self.precision = precision;
    }

    /// The calibrated per-logit absolute error tolerance of the int8
    /// lane, when calibrated.
    pub fn quant_error_bound(&self) -> Option<f32> {
        self.quant.as_ref().map(|q| q.logit_error_bound())
    }

    /// Per-logit absolute errors observed during int8 calibration
    /// (ascending), when calibrated.
    pub fn quant_calibration_errors(&self) -> Option<&[f32]> {
        self.quant.as_ref().map(|q| q.calibration_errors())
    }

    /// Runs inference on one BEV image through the active precision lane
    /// ([`IlModel::set_precision`]).
    ///
    /// The forward pass reuses the model's internal buffers, so after the
    /// first frame it performs no heap allocation (only the returned
    /// [`InferResult`] is freshly allocated).
    ///
    /// # Panics
    ///
    /// Panics when the image geometry differs from the model's
    /// [`BevConfig`].
    pub fn infer(&mut self, image: &BevImage) -> InferResult {
        if self.precision == IlPrecision::Int8 {
            return self
                .infer_batch(&[image])
                .pop()
                .expect("one result per image");
        }
        assert_eq!(
            image.size, self.bev.size,
            "BEV image size does not match the model"
        );
        self.input
            .resize(&[1, BevImage::CHANNELS, image.size, image.size]);
        self.input.data_mut().copy_from_slice(&image.data);
        let probs_t = self.network.infer_proba(&self.input, &mut self.buffers);
        let probs: Vec<f64> = probs_t.data().iter().map(|&v| v as f64).collect();
        // Last maximal index, matching `Tensor::argmax_rows` tie-breaking.
        let mut class = 0;
        for (i, &p) in probs_t.data().iter().enumerate() {
            if p >= probs_t.data()[class] {
                class = i;
            }
        }
        InferResult {
            action: self.codec.decode(class),
            class,
            probs,
        }
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
    /// Runs [`IlModel::infer_batch_with`] at the active precision on the
    /// model's own scratch.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch or when any image's geometry differs
    /// from the model's [`BevConfig`].
    pub fn infer_batch(&mut self, images: &[&BevImage]) -> Vec<InferResult> {
        let model = ModelRef {
            network: &self.network,
            quant: self.quant.as_deref(),
            codec: &self.codec,
            size: self.bev.size,
        };
        model.infer_batch(self.precision, images, &mut self.scratch)
    }

    /// [`IlModel::infer_batch`] on a model shared read-only: `precision`
    /// picks the lane and `scratch` takes every write, so threads that
    /// each bring their own scratch can run one model at once. Rows are
    /// bit-identical to [`IlModel::infer_batch`] at that precision.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch, when any image's geometry differs from
    /// the model's [`BevConfig`], or on [`IlPrecision::Int8`] before
    /// [`IlModel::calibrate_int8`].
    pub fn infer_batch_with(
        &self,
        precision: IlPrecision,
        images: &[&BevImage],
        scratch: &mut IlScratch,
    ) -> Vec<InferResult> {
        let model = ModelRef {
            network: &self.network,
            quant: self.quant.as_deref(),
            codec: &self.codec,
            size: self.bev.size,
        };
        model.infer_batch(precision, images, scratch)
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
        let probs_t = self.network.predict_proba(&input);
        let probs: Vec<f64> = probs_t.data().iter().map(|&v| v as f64).collect();
        // Last maximal index, matching `Tensor::argmax_rows` tie-breaking.
        let mut class = 0;
        for (i, &p) in probs_t.data().iter().enumerate() {
            if p >= probs_t.data()[class] {
                class = i;
            }
        }
        InferResult {
            action: self.codec.decode(class),
            class,
            probs,
        }
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
    fn precision_defaults_to_f32_and_calibration_does_not_change_it() {
        let mut m = IlModel::untrained(ActionCodec::default(), BevConfig::default(), 8);
        assert_eq!(m.precision(), IlPrecision::F32);
        assert!(!m.is_calibrated());
        let images = noisy_images(4, 0);
        let before = m.infer(&images[0]);
        m.calibrate_int8(&images.iter().collect::<Vec<_>>());
        assert!(m.is_calibrated());
        assert_eq!(m.precision(), IlPrecision::F32);
        // the f32 lane is untouched by calibration
        assert_eq!(m.infer(&images[0]), before);
    }

    #[test]
    fn int8_lane_stays_within_calibrated_bound() {
        let mut m = IlModel::untrained(ActionCodec::default(), BevConfig::default(), 9);
        let images = noisy_images(8, 3);
        let calib: Vec<&BevImage> = images[..4].iter().collect();
        m.calibrate_int8(&calib);
        let bound = m.quant_error_bound().unwrap() as f64;
        for img in &images[4..] {
            m.set_precision(IlPrecision::F32);
            let f = m.infer(img);
            m.set_precision(IlPrecision::Int8);
            let q = m.infer(img);
            assert!(q.action.validate().is_ok());
            let sum: f64 = q.probs.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
            // logit-space bound loosely implies the probs stay close; a
            // coarse sanity margin is enough here (conformance check #13
            // holds the logits to the exact calibrated bound)
            for (a, b) in f.probs.iter().zip(&q.probs) {
                assert!((a - b).abs() < bound.max(0.25), "prob drift {a} vs {b}");
            }
        }
    }

    #[test]
    fn int8_batch_matches_single_image_bitwise() {
        let mut m = IlModel::untrained(ActionCodec::default(), BevConfig::default(), 10);
        let images = noisy_images(6, 7);
        m.calibrate_int8(&images.iter().collect::<Vec<_>>());
        m.set_precision(IlPrecision::Int8);
        let refs: Vec<&BevImage> = images.iter().collect();
        let batched = m.infer_batch(&refs);
        for (i, b) in batched.iter().enumerate() {
            assert_eq!(*b, m.infer(&images[i]), "int8 batch row {i}");
        }
    }

    #[test]
    fn shared_model_batches_match_the_owned_path_bitwise() {
        let mut m = IlModel::untrained(ActionCodec::default(), BevConfig::default(), 13);
        let images = noisy_images(5, 2);
        let refs: Vec<&BevImage> = images.iter().collect();
        m.calibrate_int8(&refs);
        let mut scratch = IlScratch::new();
        for precision in [IlPrecision::F32, IlPrecision::Int8] {
            m.set_precision(precision);
            let owned = m.infer_batch(&refs);
            // twice, so the second call runs on grown buffers
            for _ in 0..2 {
                assert_eq!(m.infer_batch_with(precision, &refs, &mut scratch), owned);
            }
            let single = m.infer_batch_with(precision, &refs[3..4], &mut scratch);
            assert_eq!(single[0], owned[3], "{precision:?} row 3 alone");
        }
    }

    #[test]
    #[should_panic(expected = "calibrate_int8 must run")]
    fn int8_without_calibration_panics() {
        let mut m = IlModel::untrained(ActionCodec::default(), BevConfig::default(), 11);
        m.set_precision(IlPrecision::Int8);
    }

    #[test]
    fn weight_mutation_drops_the_calibrated_lane() {
        let mut m = IlModel::untrained(ActionCodec::default(), BevConfig::default(), 12);
        let images = noisy_images(2, 1);
        m.calibrate_int8(&images.iter().collect::<Vec<_>>());
        m.set_precision(IlPrecision::Int8);
        let _ = m.network_mut();
        assert!(!m.is_calibrated());
        assert_eq!(m.precision(), IlPrecision::F32);
    }

    #[test]
    fn precision_parses_and_labels_round_trip() {
        assert_eq!("f32".parse::<IlPrecision>().unwrap(), IlPrecision::F32);
        assert_eq!("INT8".parse::<IlPrecision>().unwrap(), IlPrecision::Int8);
        assert!("fp16".parse::<IlPrecision>().is_err());
        assert_eq!(IlPrecision::F32.label(), "f32");
        assert_eq!(IlPrecision::Int8.label(), "int8");
        assert_eq!(
            serde_json::to_string(&IlPrecision::Int8).unwrap(),
            "\"int8\""
        );
        assert_eq!(IlPrecision::default(), IlPrecision::F32);
    }
}
