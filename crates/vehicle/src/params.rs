//! Vehicle geometry and dynamic limits.

use serde::{Deserialize, Serialize};

/// Geometric and dynamic parameters of the ego-vehicle.
///
/// Defaults model the compact car used on the MoCAM sandbox (a roughly
/// 1:1-scaled CARLA hatchback): low parking speeds, moderate steering lock.
///
/// # Example
///
/// ```
/// use icoil_vehicle::VehicleParams;
///
/// let p = VehicleParams::default();
/// assert!(p.min_turning_radius() > 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VehicleParams {
    /// Body length (meters).
    pub length: f64,
    /// Body width (meters).
    pub width: f64,
    /// Wheelbase: distance between axles (meters).
    pub wheelbase: f64,
    /// Distance from the rear axle to the rear bumper (meters).
    pub rear_overhang: f64,
    /// Maximum steering-wheel angle at the front wheels (radians).
    pub max_steer: f64,
    /// Maximum forward speed (m/s) — low for parking maneuvers.
    pub max_speed: f64,
    /// Maximum reverse speed (m/s), expressed positive.
    pub max_reverse_speed: f64,
    /// Maximum drive acceleration (m/s²).
    pub max_accel: f64,
    /// Maximum braking deceleration (m/s²), expressed positive.
    pub max_brake: f64,
    /// Linear rolling-drag coefficient (1/s); decelerates the car when
    /// coasting.
    pub drag: f64,
}

impl Default for VehicleParams {
    fn default() -> Self {
        VehicleParams {
            length: 4.2,
            width: 1.8,
            wheelbase: 2.6,
            rear_overhang: 0.8,
            max_steer: 0.6,
            max_speed: 2.5,
            max_reverse_speed: 1.5,
            max_accel: 1.5,
            max_brake: 4.0,
            drag: 0.15,
        }
    }
}

impl VehicleParams {
    /// Minimum turning radius at full steering lock (rear-axle trace).
    pub fn min_turning_radius(&self) -> f64 {
        self.wheelbase / self.max_steer.tan()
    }

    /// Longitudinal offset from the rear axle to the body center.
    pub fn center_offset(&self) -> f64 {
        self.length * 0.5 - self.rear_overhang
    }

    /// The three-circle coverage model of the body footprint, shared by
    /// the global planner and the MPC collision constraints so both use
    /// the *same* conservative approximation (mismatched models wedge the
    /// MPC on paths the planner accepted).
    ///
    /// Returns `(longitudinal offset from the rear axle, radius)` pairs
    /// whose union contains the full body rectangle.
    pub fn coverage_circles(&self) -> [(f64, f64); 3] {
        let seg = self.length / 3.0;
        let half_seg = seg * 0.5;
        let radius = half_seg.hypot(self.width * 0.5);
        let rear = -self.rear_overhang;
        [
            (rear + half_seg, radius),
            (rear + seg + half_seg, radius),
            (rear + 2.0 * seg + half_seg, radius),
        ]
    }

    /// Validates that every parameter is finite and within a sane range.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        let checks: [(&str, bool); 9] = [
            ("length must be positive", self.length > 0.0),
            ("width must be positive", self.width > 0.0),
            (
                "wheelbase must be positive and fit in the body",
                self.wheelbase > 0.0 && self.wheelbase < self.length,
            ),
            (
                "rear overhang must be non-negative and shorter than the body",
                self.rear_overhang >= 0.0 && self.rear_overhang < self.length,
            ),
            (
                "max steer must be in (0, π/2)",
                self.max_steer > 0.0 && self.max_steer < std::f64::consts::FRAC_PI_2,
            ),
            ("max speed must be positive", self.max_speed > 0.0),
            (
                "max reverse speed must be positive",
                self.max_reverse_speed > 0.0,
            ),
            (
                "accel and brake must be positive",
                self.max_accel > 0.0 && self.max_brake > 0.0,
            ),
            ("drag must be non-negative", self.drag >= 0.0),
        ];
        for (msg, ok) in checks {
            if !ok {
                return Err(msg.to_string());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(VehicleParams::default().validate().is_ok());
    }

    #[test]
    fn turning_radius_formula() {
        let p = VehicleParams {
            wheelbase: 2.0,
            max_steer: std::f64::consts::FRAC_PI_4,
            ..VehicleParams::default()
        };
        assert!((p.min_turning_radius() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn center_offset_within_body() {
        let p = VehicleParams::default();
        assert!(p.center_offset() > 0.0 && p.center_offset() < p.length);
    }

    #[test]
    fn coverage_circles_contain_footprint() {
        use icoil_geom::Vec2;
        let p = VehicleParams::default();
        let circles = p.coverage_circles();
        // sample the body rectangle (rear-axle frame) densely; every
        // point must lie inside at least one circle
        let x0 = -p.rear_overhang;
        let x1 = p.length - p.rear_overhang;
        for i in 0..=40 {
            for j in 0..=20 {
                let x = x0 + (x1 - x0) * i as f64 / 40.0;
                let y = -p.width * 0.5 + p.width * j as f64 / 20.0;
                let covered = circles
                    .iter()
                    .any(|&(off, r)| Vec2::new(x - off, y).norm() <= r + 1e-9);
                assert!(covered, "body point ({x:.2}, {y:.2}) uncovered");
            }
        }
    }

    #[test]
    fn validation_rejects_bad_params() {
        let p = VehicleParams {
            width: -1.0,
            ..VehicleParams::default()
        };
        assert!(p.validate().is_err());
        let p = VehicleParams {
            wheelbase: 10.0, // longer than body
            ..VehicleParams::default()
        };
        assert!(p.validate().is_err());
        let p = VehicleParams {
            max_steer: 2.0, // beyond π/2
            ..VehicleParams::default()
        };
        assert!(p.validate().is_err());
    }
}
