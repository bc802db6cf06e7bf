//! Scenario complexity: the CO-delay model of eq. (8).

use icoil_geom::{Obb, Vec2};
use serde::{Deserialize, Serialize};

/// Parameters of the complexity model (Table I of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComplexityParams {
    /// Length of the CO prediction horizon `H`.
    pub horizon: usize,
    /// Dimension of the action space `Nₐ`.
    pub action_dim: usize,
    /// Most dangerous obstacle distance `D₀` (meters): obstacles at this
    /// distance contribute maximally to the complexity.
    pub d0: f64,
    /// The superlinear exponent (3.5 in the paper).
    pub exponent: f64,
}

impl Default for ComplexityParams {
    fn default() -> Self {
        ComplexityParams {
            horizon: 12,
            action_dim: 2,
            d0: 1.5,
            exponent: 3.5,
        }
    }
}

impl ComplexityParams {
    /// The largest possible instant complexity for `k` obstacles (every
    /// obstacle exactly at the most-dangerous distance).
    pub fn max_for(&self, k: usize) -> f64 {
        ((self.horizon as f64) * (self.action_dim as f64 + k as f64)).powf(self.exponent)
    }

    /// The smallest possible instant complexity (no obstacle influence).
    pub fn min_value(&self) -> f64 {
        ((self.horizon as f64) * self.action_dim as f64).powf(self.exponent)
    }
}

/// Instant scenario complexity at one frame (the bracketed term of
/// eq. 8): `[H(Nₐ + Σ_k e^{-|D₀ − D_k|})]^{3.5}`, where `D_k` is the
/// distance from the ego position to obstacle `k`.
///
/// Obstacles near `D₀` contribute ≈ 1 (they constrain the planner most);
/// both very close obstacles (planning space already reduced) and remote
/// obstacles (no collision risk) contribute less — the interpretation
/// given in §IV-C.
pub fn instant_complexity(ego_position: Vec2, obstacles: &[Obb], params: &ComplexityParams) -> f64 {
    let mut influence = 0.0;
    for obb in obstacles {
        let d = obb.distance_to_point(ego_position);
        influence += (-(params.d0 - d).abs()).exp();
    }
    ((params.horizon as f64) * (params.action_dim as f64 + influence)).powf(params.exponent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use icoil_geom::Pose2;

    fn obstacle_at(x: f64) -> Obb {
        Obb::from_pose(Pose2::new(x, 0.0, 0.0), 2.0, 2.0)
    }

    #[test]
    fn empty_scene_gives_minimum() {
        let p = ComplexityParams::default();
        let c = instant_complexity(Vec2::ZERO, &[], &p);
        assert!((c - p.min_value()).abs() < 1e-9);
    }

    #[test]
    fn obstacle_at_d0_contributes_most() {
        let p = ComplexityParams::default();
        // boundary at exactly D0 (obstacle center at d0 + half size)
        let at_d0 = instant_complexity(Vec2::ZERO, &[obstacle_at(p.d0 + 1.0)], &p);
        let far = instant_complexity(Vec2::ZERO, &[obstacle_at(20.0)], &p);
        let touching = instant_complexity(Vec2::ZERO, &[obstacle_at(1.0)], &p);
        assert!(at_d0 > far, "at-D0 {at_d0} vs far {far}");
        assert!(at_d0 >= touching, "at-D0 {at_d0} vs touching {touching}");
    }

    #[test]
    fn complexity_increases_with_obstacle_count() {
        let p = ComplexityParams::default();
        let one = instant_complexity(Vec2::ZERO, &[obstacle_at(3.0)], &p);
        let two = instant_complexity(Vec2::ZERO, &[obstacle_at(3.0), obstacle_at(-3.0)], &p);
        assert!(two > one);
    }

    #[test]
    fn superlinear_in_horizon() {
        let short = ComplexityParams {
            horizon: 5,
            ..ComplexityParams::default()
        };
        let long = ComplexityParams {
            horizon: 10,
            ..ComplexityParams::default()
        };
        let c_short = instant_complexity(Vec2::ZERO, &[], &short);
        let c_long = instant_complexity(Vec2::ZERO, &[], &long);
        // doubling H multiplies complexity by 2^3.5 ≈ 11.3
        assert!((c_long / c_short - 2f64.powf(3.5)).abs() < 1e-9);
    }

    #[test]
    fn bounds_hold() {
        let p = ComplexityParams::default();
        let obstacles: Vec<Obb> = (0..5).map(|i| obstacle_at(2.0 + i as f64)).collect();
        let c = instant_complexity(Vec2::ZERO, &obstacles, &p);
        assert!(c >= p.min_value());
        assert!(c <= p.max_for(5));
    }
}
