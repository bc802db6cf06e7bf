//! Synthetic object detection (the detector `h`).

use icoil_geom::{Obb, Pose2, Vec2};
use icoil_vehicle::VehicleState;
use icoil_world::NoiseConfig;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the synthetic detector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Maximum detection distance from the ego rear axle (meters).
    pub range: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig { range: 15.0 }
    }
}

/// Produces bounding boxes from ground-truth footprints with
/// configurable degradation (jitter / misses / phantoms) — the noise
/// source of the paper's *hard* difficulty level.
#[derive(Debug, Clone)]
pub struct ObjectDetector {
    config: DetectorConfig,
}

impl ObjectDetector {
    /// Creates a detector.
    ///
    /// # Panics
    ///
    /// Panics for a non-positive range.
    pub fn new(config: DetectorConfig) -> Self {
        assert!(config.range > 0.0, "detector range must be positive");
        ObjectDetector { config }
    }

    /// The detector configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Detects obstacle boxes around the ego vehicle.
    ///
    /// Boxes beyond the detection range are dropped (real detectors have
    /// finite range); within range, noise may jitter the box pose, miss
    /// the box entirely, or hallucinate a phantom box ahead of the
    /// vehicle.
    pub fn detect(
        &self,
        ego: &VehicleState,
        truth: &[Obb],
        noise: &NoiseConfig,
        rng: &mut SmallRng,
    ) -> Vec<Obb> {
        let ego_pos = ego.pose.position();
        let mut out = Vec::with_capacity(truth.len());
        for obb in truth {
            if obb.distance_to_point(ego_pos) > self.config.range {
                continue;
            }
            if noise.false_negative_rate > 0.0 && rng.gen_bool(noise.false_negative_rate) {
                continue;
            }
            let mut detected = *obb;
            if noise.box_jitter > 0.0 {
                detected.center += Vec2::new(
                    rng.gen_range(-1.0..1.0) * noise.box_jitter,
                    rng.gen_range(-1.0..1.0) * noise.box_jitter,
                );
            }
            if noise.heading_jitter > 0.0 {
                detected = Obb::from_pose(
                    Pose2::new(
                        detected.center.x,
                        detected.center.y,
                        detected.theta + rng.gen_range(-1.0..1.0) * noise.heading_jitter,
                    ),
                    detected.length(),
                    detected.width(),
                );
            }
            out.push(detected);
        }
        if noise.phantom_rate > 0.0 && rng.gen_bool(noise.phantom_rate) {
            // phantom box somewhere in front of the vehicle
            let ahead = rng.gen_range(3.0..self.config.range * 0.8);
            let side = rng.gen_range(-3.0..3.0);
            let pos = ego.pose.to_world(Vec2::new(ahead, side));
            out.push(Obb::from_pose(
                Pose2::new(pos.x, pos.y, rng.gen_range(-3.0..3.0)),
                1.5,
                1.5,
            ));
        }
        out
    }
}

impl Default for ObjectDetector {
    fn default() -> Self {
        ObjectDetector::new(DetectorConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ego_at(x: f64, y: f64) -> VehicleState {
        VehicleState::at_rest(Pose2::new(x, y, 0.0))
    }

    fn boxes() -> Vec<Obb> {
        vec![
            Obb::from_pose(Pose2::new(5.0, 0.0, 0.0), 2.0, 2.0),
            Obb::from_pose(Pose2::new(40.0, 0.0, 0.0), 2.0, 2.0), // far away
        ]
    }

    #[test]
    fn clean_detection_passes_through_in_range() {
        let d = ObjectDetector::default();
        let mut rng = SmallRng::seed_from_u64(1);
        let out = d.detect(&ego_at(0.0, 0.0), &boxes(), &NoiseConfig::none(), &mut rng);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], boxes()[0]);
    }

    #[test]
    fn range_limit_respected() {
        let d = ObjectDetector::new(DetectorConfig { range: 50.0 });
        let mut rng = SmallRng::seed_from_u64(1);
        let out = d.detect(&ego_at(0.0, 0.0), &boxes(), &NoiseConfig::none(), &mut rng);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn jitter_moves_but_preserves_size() {
        let d = ObjectDetector::default();
        let noise = NoiseConfig {
            box_jitter: 0.3,
            heading_jitter: 0.1,
            ..NoiseConfig::none()
        };
        let mut rng = SmallRng::seed_from_u64(2);
        let truth = boxes();
        let out = d.detect(&ego_at(0.0, 0.0), &truth, &noise, &mut rng);
        assert_eq!(out.len(), 1);
        assert_ne!(out[0].center, truth[0].center);
        assert!(out[0].center.distance(truth[0].center) <= 0.3 * 2f64.sqrt() + 1e-9);
        assert_eq!(out[0].length(), truth[0].length());
    }

    #[test]
    fn false_negatives_eventually_drop_boxes() {
        let d = ObjectDetector::default();
        let noise = NoiseConfig {
            false_negative_rate: 0.5,
            ..NoiseConfig::none()
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let mut dropped = 0;
        for _ in 0..100 {
            if d.detect(&ego_at(0.0, 0.0), &boxes(), &noise, &mut rng)
                .is_empty()
            {
                dropped += 1;
            }
        }
        assert!(dropped > 20 && dropped < 80, "dropped {dropped}/100");
    }

    #[test]
    fn phantoms_eventually_appear() {
        let d = ObjectDetector::default();
        let noise = NoiseConfig {
            phantom_rate: 0.5,
            ..NoiseConfig::none()
        };
        let mut rng = SmallRng::seed_from_u64(4);
        let mut phantoms = 0;
        for _ in 0..100 {
            let out = d.detect(&ego_at(0.0, 0.0), &[], &noise, &mut rng);
            phantoms += out.len();
        }
        assert!(phantoms > 20, "phantoms {phantoms}/100");
    }

    #[test]
    fn deterministic_under_seed() {
        let d = ObjectDetector::default();
        let noise = NoiseConfig::hard();
        let a = d.detect(
            &ego_at(0.0, 0.0),
            &boxes(),
            &noise,
            &mut SmallRng::seed_from_u64(9),
        );
        let b = d.detect(
            &ego_at(0.0, 0.0),
            &boxes(),
            &noise,
            &mut SmallRng::seed_from_u64(9),
        );
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "range")]
    fn zero_range_panics() {
        let _ = ObjectDetector::new(DetectorConfig { range: 0.0 });
    }
}
