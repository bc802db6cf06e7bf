//! CO-module configuration.

use serde::{Deserialize, Serialize};

/// Tuning parameters of the CO module.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoConfig {
    /// Prediction-horizon length `H` (MPC steps).
    pub horizon: usize,
    /// MPC step duration (seconds); larger than the simulation frame so
    /// the horizon looks seconds ahead.
    pub mpc_dt: f64,
    /// Cruise speed magnitude along the reference (m/s).
    pub v_cruise: f64,
    /// State tracking weights `(x, y, θ, v)` of the cost (4).
    pub q_weights: [f64; 4],
    /// Control effort weights `(accel, steer)`.
    pub r_weights: [f64; 2],
    /// Control *rate* weights `(accel, steer)`: penalize changes between
    /// consecutive horizon steps, smoothing the command profile (and the
    /// demonstration labels the IL learns from).
    pub r_rate: [f64; 2],
    /// Extra clearance added to the collision constraints (5) (meters).
    pub safety_margin: f64,
    /// Obstacle-prediction uncertainty growth (m per second of
    /// prediction): predicted boxes are inflated by this rate times the
    /// prediction time, covering turn-arounds and estimation error.
    pub prediction_inflation: f64,
    /// Sequential-convexification iterations per frame.
    pub scp_iterations: usize,
    /// Replan the global path when the vehicle strays this far from it
    /// (meters).
    pub replan_deviation: f64,
    /// Minimum frames between global replans.
    pub replan_cooldown: usize,
}

impl Default for CoConfig {
    fn default() -> Self {
        CoConfig {
            horizon: 12,
            mpc_dt: 0.25,
            v_cruise: 1.8,
            q_weights: [10.0, 10.0, 3.0, 1.0],
            r_weights: [0.3, 1.5],
            r_rate: [0.1, 3.0],
            safety_margin: 0.15,
            prediction_inflation: 0.1,
            scp_iterations: 2,
            replan_deviation: 2.0,
            replan_cooldown: 40,
        }
    }
}

impl CoConfig {
    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.horizon == 0 {
            return Err("horizon must be at least 1".into());
        }
        if self.mpc_dt.is_nan() || self.mpc_dt <= 0.0 {
            return Err("mpc_dt must be positive".into());
        }
        if self.v_cruise.is_nan() || self.v_cruise <= 0.0 {
            return Err("v_cruise must be positive".into());
        }
        if self.scp_iterations == 0 {
            return Err("scp_iterations must be at least 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(CoConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        let c = CoConfig {
            horizon: 0,
            ..CoConfig::default()
        };
        assert!(c.validate().is_err());
        let c = CoConfig {
            mpc_dt: 0.0,
            ..CoConfig::default()
        };
        assert!(c.validate().is_err());
        let c = CoConfig {
            scp_iterations: 0,
            ..CoConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
