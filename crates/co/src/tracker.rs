//! Frame-to-frame bounding-box tracking and velocity estimation.
//!
//! The MPC's collision constraint (5) is time-indexed: it needs the
//! obstacle position at *future* steps `o_{h+1,k}`. Detections are
//! per-frame boxes with no identity, so the controller tracks them by
//! nearest-center association and estimates velocities with exponential
//! smoothing (robust to the hard level's box jitter).

use icoil_geom::{Obb, Vec2};
use serde::{Deserialize, Serialize};

/// A tracked obstacle: current box plus smoothed velocity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MovingObstacle {
    /// The detected box (as observed this frame).
    pub obb: Obb,
    /// Smoothed velocity estimate (m/s).
    pub velocity: Vec2,
}

impl MovingObstacle {
    /// A stationary obstacle.
    pub fn fixed(obb: Obb) -> Self {
        MovingObstacle {
            obb,
            velocity: Vec2::ZERO,
        }
    }

    /// The box extrapolated `dt` seconds ahead under constant velocity.
    pub fn predicted(&self, dt: f64) -> Obb {
        let mut obb = self.obb;
        obb.center += self.velocity * dt;
        obb
    }

    /// Returns `true` when the speed estimate is below `tol` (treated as
    /// part of the static scene for global planning).
    pub fn is_static(&self, tol: f64) -> bool {
        self.velocity.norm() < tol
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Track {
    smoothed_center: Vec2,
    /// Ring of recent smoothed centers; velocity is measured over this
    /// baseline, which suppresses per-frame jitter far better than a
    /// one-frame finite difference.
    history: std::collections::VecDeque<Vec2>,
    velocity: Vec2,
    last_box: Obb,
    missed: usize,
}

const HISTORY: usize = 12;

/// Associates detections across frames and maintains velocity estimates.
///
/// Serializable so session checkpoints carry track identity, smoothed
/// centers, and velocity EMAs — restoring replays bit-identically.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BoxTracker {
    tracks: Vec<Track>,
    /// EMA factor for the center position (higher = snappier).
    alpha_pos: f64,
    /// EMA factor for the velocity.
    alpha_vel: f64,
    /// Maximum association distance (m).
    gate: f64,
}

impl Default for BoxTracker {
    fn default() -> Self {
        BoxTracker {
            tracks: Vec::new(),
            alpha_pos: 0.35,
            alpha_vel: 0.3,
            gate: 1.5,
        }
    }
}

impl BoxTracker {
    /// Creates a tracker with default smoothing.
    pub fn new() -> Self {
        BoxTracker::default()
    }

    /// Clears all tracks (new episode).
    pub fn reset(&mut self) {
        self.tracks.clear();
    }

    /// Ingests this frame's detections (`dt` seconds since the previous
    /// frame) and returns the tracked obstacles.
    ///
    /// # Panics
    ///
    /// Panics for a non-positive `dt`.
    pub fn update(&mut self, boxes: &[Obb], dt: f64) -> Vec<MovingObstacle> {
        assert!(dt > 0.0, "tracker dt must be positive");
        let mut used = vec![false; self.tracks.len()];
        let mut out = Vec::with_capacity(boxes.len());
        let mut new_tracks: Vec<Track> = Vec::new();
        for obb in boxes {
            // nearest unused track within the gate
            let mut best: Option<(usize, f64)> = None;
            for (i, t) in self.tracks.iter().enumerate() {
                if used[i] {
                    continue;
                }
                let d = t.smoothed_center.distance(obb.center);
                if d < self.gate && best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((i, d));
                }
            }
            match best {
                Some((i, _)) => {
                    used[i] = true;
                    let t = &mut self.tracks[i];
                    let prev = t.smoothed_center;
                    t.smoothed_center = prev + (obb.center - prev) * self.alpha_pos;
                    t.history.push_back(t.smoothed_center);
                    if t.history.len() > HISTORY {
                        t.history.pop_front();
                    }
                    if t.history.len() >= 2 {
                        let span = (t.history.len() - 1) as f64 * dt;
                        let baseline_v = (*t.history.back().expect("non-empty")
                            - *t.history.front().expect("non-empty"))
                            / span;
                        t.velocity = t.velocity + (baseline_v - t.velocity) * self.alpha_vel;
                    }
                    t.last_box = *obb;
                    t.missed = 0;
                    // constraints consume the smoothed center: raw
                    // hard-level jitter would wobble the MPC's collision
                    // boundary by ±15 cm every frame
                    let mut smoothed_box = *obb;
                    smoothed_box.center = t.smoothed_center;
                    out.push(MovingObstacle {
                        obb: smoothed_box,
                        velocity: t.velocity,
                    });
                }
                None => {
                    let mut history = std::collections::VecDeque::with_capacity(HISTORY + 1);
                    history.push_back(obb.center);
                    new_tracks.push(Track {
                        smoothed_center: obb.center,
                        history,
                        velocity: Vec2::ZERO,
                        last_box: *obb,
                        missed: 0,
                    });
                    out.push(MovingObstacle::fixed(*obb));
                }
            }
        }
        // age out unmatched tracks (missed detections / phantoms)
        for (i, t) in self.tracks.iter_mut().enumerate() {
            if !used[i] {
                t.missed += 1;
            }
        }
        self.tracks.retain(|t| t.missed <= 10);
        self.tracks.extend(new_tracks);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icoil_geom::Pose2;

    fn box_at(x: f64, y: f64) -> Obb {
        Obb::from_pose(Pose2::new(x, y, 0.0), 2.0, 1.0)
    }

    #[test]
    fn static_box_gets_zero_velocity() {
        let mut t = BoxTracker::new();
        let mut last = Vec::new();
        for _ in 0..30 {
            last = t.update(&[box_at(5.0, 5.0)], 0.05);
        }
        assert_eq!(last.len(), 1);
        assert!(last[0].velocity.norm() < 1e-6);
        assert!(last[0].is_static(0.2));
    }

    #[test]
    fn moving_box_velocity_converges() {
        let mut t = BoxTracker::new();
        let mut last = Vec::new();
        for i in 0..60 {
            let x = 5.0 + 0.8 * i as f64 * 0.05; // 0.8 m/s along +x
            last = t.update(&[box_at(x, 2.0)], 0.05);
        }
        let v = last[0].velocity;
        assert!((v.x - 0.8).abs() < 0.15, "vx {}", v.x);
        assert!(v.y.abs() < 0.1);
        assert!(!last[0].is_static(0.2));
        // prediction moves the box forward
        let pred = last[0].predicted(1.0);
        assert!(pred.center.x > last[0].obb.center.x + 0.5);
    }

    #[test]
    fn two_boxes_tracked_independently() {
        let mut t = BoxTracker::new();
        let mut last = Vec::new();
        for i in 0..40 {
            let dx = 0.5 * i as f64 * 0.05;
            last = t.update(&[box_at(0.0 + dx, 0.0), box_at(10.0 - dx, 0.0)], 0.05);
        }
        assert_eq!(last.len(), 2);
        assert!(last[0].velocity.x > 0.2);
        assert!(last[1].velocity.x < -0.2);
    }

    #[test]
    fn jittered_static_box_stays_static() {
        // hard-level jitter: ±0.15 m around a fixed center
        let mut t = BoxTracker::new();
        let mut last = Vec::new();
        let jitter = [0.1, -0.12, 0.05, -0.02, 0.14, -0.09, 0.03, -0.13];
        for i in 0..80 {
            let j = jitter[i % jitter.len()];
            last = t.update(&[box_at(5.0 + j, 5.0 - j)], 0.05);
        }
        assert!(
            last[0].is_static(0.5),
            "jittered static box velocity {:?}",
            last[0].velocity
        );
    }

    #[test]
    fn missed_then_reacquired_track_survives() {
        let mut t = BoxTracker::new();
        for _ in 0..10 {
            t.update(&[box_at(3.0, 3.0)], 0.05);
        }
        // five frames with no detection (false negatives)
        for _ in 0..5 {
            let out = t.update(&[], 0.05);
            assert!(out.is_empty());
        }
        let out = t.update(&[box_at(3.0, 3.0)], 0.05);
        assert_eq!(out.len(), 1);
        assert!(out[0].velocity.norm() < 0.3, "track must not see a jump");
    }

    #[test]
    fn reset_clears_tracks() {
        let mut t = BoxTracker::new();
        t.update(&[box_at(0.0, 0.0)], 0.05);
        t.reset();
        // after reset, the same box is a brand-new (zero-velocity) track
        let out = t.update(&[box_at(5.0, 5.0)], 0.05);
        assert_eq!(out[0].velocity, Vec2::ZERO);
    }
}
