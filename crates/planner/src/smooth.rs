//! Gradient-based path smoothing.
//!
//! Hybrid-A* output is built from a handful of primitive arcs and shows
//! small heading kinks at node boundaries. This pass relaxes the interior
//! points of each same-gear segment with a curvature term while pushing
//! away from nearby obstacles — the classic conjugate of lattice planners
//! (cf. Dolgov et al., "Practical search techniques in path planning for
//! autonomous driving").

use crate::hybrid_astar::PlannedPath;
use icoil_geom::{angle_diff, Obb, Pose2, Vec2};
use serde::{Deserialize, Serialize};

/// Smoothing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SmoothConfig {
    /// Weight of the second-difference (curvature) term.
    pub w_smooth: f64,
    /// Weight of the obstacle-repulsion term.
    pub w_obstacle: f64,
    /// Repulsion acts within this clearance (meters).
    pub clearance: f64,
    /// Gradient-descent step size.
    pub step: f64,
    /// Number of iterations.
    pub iterations: usize,
}

impl Default for SmoothConfig {
    fn default() -> Self {
        SmoothConfig {
            w_smooth: 0.4,
            w_obstacle: 0.3,
            clearance: 1.2,
            step: 0.2,
            iterations: 60,
        }
    }
}

/// Smooths a planned path in place, segment by segment.
///
/// Endpoints and gear-change points (cusps) are pinned: they carry the
/// maneuver's structure. Headings are recomputed from the smoothed
/// tangents, flipped on reverse segments so they stay *vehicle* headings.
pub fn smooth_path(path: &PlannedPath, obstacles: &[Obb], config: &SmoothConfig) -> PlannedPath {
    let n = path.poses.len();
    if n < 3 {
        return path.clone();
    }
    let mut points: Vec<Vec2> = path.poses.iter().map(|p| p.position()).collect();
    // pinned: endpoints and cusps
    let mut pinned = vec![false; n];
    pinned[0] = true;
    pinned[n - 1] = true;
    for i in 1..n {
        if path.directions[i] != path.directions[i - 1] {
            pinned[i] = true;
            pinned[i - 1] = true;
        }
    }

    for _ in 0..config.iterations {
        for i in 1..n - 1 {
            if pinned[i] {
                continue;
            }
            // curvature gradient: d/dp_i ||p_{i-1} - 2 p_i + p_{i+1}||²
            let second = points[i - 1] - points[i] * 2.0 + points[i + 1];
            let mut grad = second * (-2.0 * config.w_smooth) * -1.0;
            // obstacle repulsion within the clearance band
            for obb in obstacles {
                let d = obb.distance_to_point(points[i]);
                if d < config.clearance {
                    let away = (points[i] - obb.center).normalized();
                    grad += away * (config.w_obstacle * (config.clearance - d));
                }
            }
            points[i] += grad * config.step;
        }
    }

    // rebuild poses with tangent-consistent headings
    let mut poses = Vec::with_capacity(n);
    for i in 0..n {
        let tangent = if i + 1 < n {
            points[i + 1] - points[i]
        } else {
            points[i] - points[i - 1]
        };
        let dir = path.directions[i.min(path.directions.len() - 1)];
        let theta = if tangent.norm() < 1e-9 {
            path.poses[i].theta
        } else if dir > 0.0 {
            tangent.angle()
        } else {
            (-tangent).angle()
        };
        poses.push(Pose2::from_parts(points[i], theta));
    }
    PlannedPath {
        poses,
        directions: path.directions.clone(),
    }
}

/// Mean absolute heading change between consecutive poses — a roughness
/// measure used to verify smoothing does its job.
pub fn heading_roughness(path: &PlannedPath) -> f64 {
    if path.poses.len() < 2 {
        return 0.0;
    }
    let sum: f64 = path
        .poses
        .windows(2)
        .map(|w| angle_diff(w[1].theta, w[0].theta).abs())
        .sum();
    sum / (path.poses.len() - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A zig-zag forward path that should smooth toward a straight line.
    fn zigzag() -> PlannedPath {
        let pts: Vec<Vec2> = (0..21)
            .map(|i| Vec2::new(i as f64 * 0.5, if i % 2 == 0 { 0.0 } else { 0.3 }))
            .collect();
        let poses: Vec<Pose2> = (0..21)
            .map(|i| {
                let t = if i + 1 < 21 {
                    pts[i + 1] - pts[i]
                } else {
                    pts[i] - pts[i - 1]
                };
                Pose2::from_parts(pts[i], t.angle())
            })
            .collect();
        PlannedPath {
            poses,
            directions: vec![1.0; 21],
        }
    }

    #[test]
    fn smoothing_reduces_roughness_and_length() {
        let raw = zigzag();
        let smoothed = smooth_path(&raw, &[], &SmoothConfig::default());
        assert!(smoothed.length() < raw.length());
        // zigzag amplitude shrinks
        let max_y = smoothed
            .poses
            .iter()
            .map(|p| p.y.abs())
            .fold(0.0f64, f64::max);
        assert!(max_y < 0.3);
    }

    #[test]
    fn endpoints_are_pinned() {
        let raw = zigzag();
        let smoothed = smooth_path(&raw, &[], &SmoothConfig::default());
        assert!(
            smoothed.poses[0]
                .position()
                .distance(raw.poses[0].position())
                < 1e-12
        );
        assert!(
            smoothed
                .poses
                .last()
                .unwrap()
                .position()
                .distance(raw.poses.last().unwrap().position())
                < 1e-12
        );
    }

    #[test]
    fn cusps_are_pinned() {
        let mut raw = zigzag();
        for d in raw.directions.iter_mut().skip(10) {
            *d = -1.0;
        }
        let cusp_pos = raw.poses[10].position();
        let smoothed = smooth_path(&raw, &[], &SmoothConfig::default());
        // the 10th point is where the gear flips: it must not move
        assert!(smoothed.poses[10].position().distance(cusp_pos) < 1e-12);
        assert_eq!(smoothed.directions, raw.directions);
    }

    #[test]
    fn obstacle_repulsion_pushes_away() {
        let raw = PlannedPath {
            poses: (0..21)
                .map(|i| Pose2::new(i as f64 * 0.5, 0.0, 0.0))
                .collect(),
            directions: vec![1.0; 21],
        };
        // obstacle just below the path middle
        let obb = Obb::from_pose(Pose2::new(5.0, -0.6, 0.0), 1.0, 1.0);
        let smoothed = smooth_path(&raw, &[obb], &SmoothConfig::default());
        // the mid-path points move up, away from the obstacle
        let mid = &smoothed.poses[10];
        assert!(mid.y > 0.02, "midpoint pushed to y = {}", mid.y);
    }

    #[test]
    fn reverse_segment_headings_flip() {
        let raw = PlannedPath {
            poses: (0..10)
                .map(|i| Pose2::new(i as f64 * 0.5, 0.0, std::f64::consts::PI))
                .collect(),
            directions: vec![-1.0; 10],
        };
        // moving +x in reverse: vehicle heading must stay ≈ π
        let smoothed = smooth_path(&raw, &[], &SmoothConfig::default());
        for p in &smoothed.poses {
            assert!(
                p.theta.abs() > 3.0,
                "reverse heading flipped wrongly: {}",
                p.theta
            );
        }
    }

    #[test]
    fn tiny_paths_pass_through() {
        let raw = PlannedPath {
            poses: vec![Pose2::default(), Pose2::new(1.0, 0.0, 0.0)],
            directions: vec![1.0, 1.0],
        };
        assert_eq!(smooth_path(&raw, &[], &SmoothConfig::default()), raw);
    }

    #[test]
    fn roughness_metric_zero_for_straight_line() {
        let straight = PlannedPath {
            poses: (0..5).map(|i| Pose2::new(i as f64, 0.0, 0.0)).collect(),
            directions: vec![1.0; 5],
        };
        assert_eq!(heading_roughness(&straight), 0.0);
        assert!(heading_roughness(&zigzag()) > 0.0);
    }
}
