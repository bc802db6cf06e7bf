//! The label aggregator: turns served CO work into training labels.
//!
//! Whenever the arbiter routes a frame to constrained optimization the
//! engine already paid for an expert solve — the resulting action is a
//! free DAgger-style label for exactly the state distribution the IL
//! policy visits. Shed frames (CO admission or deadline sheds) are the
//! most valuable of all: they mark states where the *serving system*
//! failed the driver, so a relabeled expert action there directly
//! shrinks the shed rate of the next generation.
//!
//! The aggregator pairs an [`ActionCodec`] with an [`AdaptDataset`]
//! and keeps CO/shed provenance counts for telemetry.

use crate::dataset::AdaptDataset;
use icoil_perception::BevImage;
use icoil_vehicle::{Action, ActionCodec};
use icoil_world::MapFamilyKind;

/// Accumulates (BEV, expert action) pairs from running engines.
#[derive(Debug, Clone)]
pub struct LabelAggregator {
    codec: ActionCodec,
    dataset: AdaptDataset,
    co_frames: u64,
    shed_frames: u64,
}

impl LabelAggregator {
    /// Wraps a dataset with the action codec used to discretize labels.
    pub fn new(codec: ActionCodec, dataset: AdaptDataset) -> Self {
        LabelAggregator {
            codec,
            dataset,
            co_frames: 0,
            shed_frames: 0,
        }
    }

    /// Records a frame the arbiter sent to CO and that CO solved.
    ///
    /// Returns whether the frame was retained by its family reservoir.
    pub fn record_co_frame(
        &mut self,
        family: MapFamilyKind,
        bev: &BevImage,
        expert: &Action,
    ) -> bool {
        self.co_frames += 1;
        let label = self.codec.encode(expert);
        self.dataset.push(family, &bev.data, label)
    }

    /// Records a frame the server shed (degraded brake served instead)
    /// that was later relabeled offline by the expert.
    ///
    /// Returns whether the frame was retained by its family reservoir.
    pub fn record_shed_frame(
        &mut self,
        family: MapFamilyKind,
        bev: &BevImage,
        expert: &Action,
    ) -> bool {
        self.shed_frames += 1;
        let label = self.codec.encode(expert);
        self.dataset.push(family, &bev.data, label)
    }

    /// CO-solved frames offered so far.
    pub fn co_frames(&self) -> u64 {
        self.co_frames
    }

    /// Shed-then-relabeled frames offered so far.
    pub fn shed_frames(&self) -> u64 {
        self.shed_frames
    }

    /// The action codec labels are encoded with.
    pub fn codec(&self) -> &ActionCodec {
        &self.codec
    }

    /// Read access to the underlying dataset.
    pub fn dataset(&self) -> &AdaptDataset {
        &self.dataset
    }

    /// Consumes the aggregator, yielding the dataset for retraining.
    pub fn into_dataset(self) -> AdaptDataset {
        self.dataset
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icoil_perception::BevConfig;

    fn bev_image(config: &BevConfig, fill: f32) -> BevImage {
        BevImage {
            size: config.size,
            range: config.range,
            data: vec![fill; 3 * config.size * config.size],
        }
    }

    #[test]
    fn frames_land_in_the_right_family_with_encoded_labels() {
        let bev = BevConfig {
            size: 8,
            range: 8.0,
        };
        let codec = ActionCodec::default();
        let mut agg = LabelAggregator::new(codec, AdaptDataset::for_bev(&bev, 16, 0));
        let img = bev_image(&bev, 0.5);
        let fwd = Action::forward(0.6, 0.3);
        agg.record_co_frame(MapFamilyKind::ALL[1], &img, &fwd);
        agg.record_shed_frame(MapFamilyKind::ALL[4], &img, &fwd);
        assert_eq!(agg.co_frames(), 1);
        assert_eq!(agg.shed_frames(), 1);
        let counts = agg.dataset().counts();
        assert_eq!(counts[1], 1);
        assert_eq!(counts[4], 1);
        let expected = codec.encode(&fwd);
        let t = agg.into_dataset().to_training_set();
        assert_eq!(t.labels(), &[expected, expected]);
    }
}
