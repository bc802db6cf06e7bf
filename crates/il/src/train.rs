//! Supervised training of the IL network (eqs. 2–3).

use crate::model::IlModel;
use icoil_nn::optim::{Adam, Optimizer};
use icoil_nn::{loss, Dataset};
use icoil_perception::BevConfig;
use icoil_vehicle::ActionCodec;
use serde::{Deserialize, Serialize};

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the dataset.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Seed for weight init and shuffling.
    pub seed: u64,
    /// Label-smoothing mass `ε` (0 disables; keeps the softmax from
    /// collapsing to zero entropy, which would blind the HSA).
    pub label_smoothing: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 20,
            batch_size: 32,
            lr: 1e-3,
            seed: 7,
            label_smoothing: 0.1,
        }
    }
}

/// Per-epoch training curves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub losses: Vec<f64>,
    /// Training-set accuracy per epoch.
    pub accuracies: Vec<f64>,
}

impl TrainReport {
    /// Accuracy after the final epoch (`NaN` when training never ran).
    pub fn final_accuracy(&self) -> f64 {
        self.accuracies.last().copied().unwrap_or(f64::NAN)
    }

    /// Loss after the final epoch (`NaN` when training never ran).
    pub fn final_loss(&self) -> f64 {
        self.losses.last().copied().unwrap_or(f64::NAN)
    }
}

/// Trains the paper's IL architecture on a demonstration dataset.
///
/// Returns the trained model and the loss/accuracy curves.
///
/// # Panics
///
/// Panics for an empty dataset or a dataset whose sample shape does not
/// match the BEV geometry.
pub fn train(
    dataset: &Dataset,
    codec: &ActionCodec,
    bev: &BevConfig,
    config: &TrainConfig,
) -> (IlModel, TrainReport) {
    let mut model = IlModel::untrained(*codec, *bev, config.seed);
    let report = train_incremental(&mut model, dataset, config);
    (model, report)
}

/// Continues training an existing model in place — the warm-started
/// entry point the adaptation loop's retrainer uses: generation *g + 1*
/// starts from generation *g*'s weights and sees the grown aggregate
/// dataset, so each retraining pass refines rather than restarts.
///
/// Fresh Adam moments per call; the shuffling stream derives from
/// `config.seed` exactly as in [`train`], so a retraining generation is
/// a pure function of `(previous weights, dataset, config)`.
///
/// # Panics
///
/// Panics for an empty dataset or a dataset whose sample shape does not
/// match the model's BEV geometry.
pub fn train_incremental(
    model: &mut IlModel,
    dataset: &Dataset,
    config: &TrainConfig,
) -> TrainReport {
    assert!(!dataset.is_empty(), "cannot train on an empty dataset");
    assert_eq!(
        dataset.sample_shape(),
        &[3, model.bev_config().size, model.bev_config().size],
        "dataset sample shape must match the BEV geometry"
    );
    let mut opt = Adam::new(config.lr);
    let mut losses = Vec::with_capacity(config.epochs);
    let mut accuracies = Vec::with_capacity(config.epochs);
    for epoch in 0..config.epochs {
        let mut epoch_loss = 0.0f64;
        let mut correct = 0usize;
        let batches = dataset.shuffled_batches(config.batch_size, config.seed ^ (epoch as u64));
        let n_batches = batches.len();
        for idx in batches {
            let (x, y) = dataset.batch(&idx);
            let net = model.network_mut();
            let logits = net.forward(&x, true);
            let (l, grad) = loss::cross_entropy_smoothed(&logits, &y, config.label_smoothing);
            correct += (loss::accuracy(&logits, &y) * y.len() as f64).round() as usize;
            net.backward(&grad);
            opt.step(net);
            net.zero_grad();
            epoch_loss += l as f64;
        }
        losses.push(epoch_loss / n_batches as f64);
        accuracies.push(correct as f64 / dataset.len() as f64);
    }
    TrainReport { losses, accuracies }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icoil_vehicle::Action;

    /// Builds a tiny synthetic dataset where the label is recoverable
    /// from the image: obstacle on the left → steer right, and vice
    /// versa.
    fn synthetic_dataset(bev: &BevConfig, codec: &ActionCodec, n: usize) -> Dataset {
        let mut d = Dataset::new(vec![3, bev.size, bev.size]);
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
            d.push(&img, label).unwrap();
        }
        d
    }

    #[test]
    fn training_learns_synthetic_rule() {
        let bev = BevConfig {
            size: 16,
            range: 8.0,
        };
        let codec = ActionCodec::default();
        let d = synthetic_dataset(&bev, &codec, 40);
        let cfg = TrainConfig {
            epochs: 12,
            batch_size: 8,
            lr: 2e-3,
            seed: 5,
            label_smoothing: 0.05,
        };
        let (_, report) = train(&d, &codec, &bev, &cfg);
        assert_eq!(report.losses.len(), 12);
        assert!(
            report.final_loss() < report.losses[0] * 0.5,
            "loss {} -> {}",
            report.losses[0],
            report.final_loss()
        );
        assert!(
            report.final_accuracy() > 0.9,
            "accuracy {}",
            report.final_accuracy()
        );
    }

    #[test]
    fn training_is_seed_deterministic() {
        let bev = BevConfig {
            size: 16,
            range: 8.0,
        };
        let codec = ActionCodec::default();
        let d = synthetic_dataset(&bev, &codec, 16);
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 8,
            lr: 1e-3,
            seed: 9,
            label_smoothing: 0.1,
        };
        let (_, r1) = train(&d, &codec, &bev, &cfg);
        let (_, r2) = train(&d, &codec, &bev, &cfg);
        assert_eq!(r1, r2);
    }

    #[test]
    fn incremental_training_warm_starts_and_is_deterministic() {
        let bev = BevConfig {
            size: 16,
            range: 8.0,
        };
        let codec = ActionCodec::default();
        let d = synthetic_dataset(&bev, &codec, 24);
        let cfg = TrainConfig {
            epochs: 6,
            batch_size: 8,
            lr: 2e-3,
            seed: 3,
            label_smoothing: 0.05,
        };
        let run = || {
            let (mut model, first) = train(&d, &codec, &bev, &cfg);
            let more = TrainConfig { epochs: 2, ..cfg };
            let second = train_incremental(&mut model, &d, &more);
            (model.to_json(), first, second)
        };
        let (w1, first, second) = run();
        // the continuation starts from the trained weights, not from
        // scratch: its first epoch must sit below the cold first epoch
        assert!(
            second.losses[0] < first.losses[0] * 0.8,
            "warm start {} vs cold start {}",
            second.losses[0],
            first.losses[0]
        );
        let (w2, f2, s2) = run();
        assert_eq!(w1, w2, "retraining must be seed-deterministic");
        assert_eq!((first, second), (f2, s2));
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let bev = BevConfig::default();
        let codec = ActionCodec::default();
        let d = Dataset::new(vec![3, bev.size, bev.size]);
        let _ = train(&d, &codec, &bev, &TrainConfig::default());
    }
}
