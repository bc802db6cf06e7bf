//! The mode-switching rule (eq. 1) with guard-time debouncing.

use crate::complexity::{instant_complexity, ComplexityParams};
use crate::uncertainty::{instant_uncertainty, SlidingMean};
use icoil_geom::{Obb, Vec2};
use serde::{Deserialize, Serialize};

/// The two candidate working modes of iCOIL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mode {
    /// Imitation learning (fast, fragile out of distribution).
    Il,
    /// Constrained optimization (reliable, computationally heavy).
    Co,
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mode::Il => write!(f, "IL"),
            Mode::Co => write!(f, "CO"),
        }
    }
}

/// HSA configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HsaConfig {
    /// Window length `T` (frames) for both averages.
    pub window: usize,
    /// The switching threshold `λ` on `U_i · C_i⁻¹` (eq. 1).
    ///
    /// `U` is entropy in nats (order 0–3 for ~20 actions); `C` is the
    /// raw eq. (8) value (order 10⁴–10⁶), so useful `λ` values are
    /// around 10⁻⁶–10⁻⁵.
    pub lambda: f64,
    /// Frames a raw decision must persist before the mode switches
    /// (the paper smooths transitions with 20 time stamps).
    pub guard_time: usize,
    /// The complexity-model parameters (Table I).
    pub complexity: ComplexityParams,
    /// The mode used before any update arrives.
    pub initial_mode: Mode,
}

impl Default for HsaConfig {
    fn default() -> Self {
        HsaConfig {
            window: 20,
            lambda: 3e-6,
            guard_time: 20,
            complexity: ComplexityParams::default(),
            initial_mode: Mode::Co,
        }
    }
}

/// One frame's HSA outputs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HsaDecision {
    /// The debounced working mode to use this frame.
    pub mode: Mode,
    /// Average scenario uncertainty `U_i` (eq. 7).
    pub uncertainty: f64,
    /// Average scenario complexity `C_i` (eq. 8).
    pub complexity: f64,
    /// The ratio `U_i · C_i⁻¹` compared against `λ`.
    pub ratio: f64,
    /// The un-debounced decision this frame (before the guard time).
    pub raw_mode: Mode,
}

/// The stateful HSA module `f_HSA`.
///
/// Feed it the IL output distribution and the detected obstacle boxes
/// each frame; it returns the working mode, smoothed by the guard time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Hsa {
    config: HsaConfig,
    uncertainty: SlidingMean,
    complexity: SlidingMean,
    mode: Mode,
    pending: Option<(Mode, usize)>,
    ego_position: Vec2,
}

impl Hsa {
    /// Creates the module.
    ///
    /// # Panics
    ///
    /// Panics for a zero window.
    pub fn new(config: HsaConfig) -> Self {
        Hsa {
            uncertainty: SlidingMean::new(config.window),
            complexity: SlidingMean::new(config.window),
            mode: config.initial_mode,
            pending: None,
            ego_position: Vec2::ZERO,
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &HsaConfig {
        &self.config
    }

    /// Current debounced mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Updates the ego position used for obstacle distances `D_{i,k}`.
    pub fn set_ego_position(&mut self, position: Vec2) {
        self.ego_position = position;
    }

    /// Clears all windows (start of a new episode).
    pub fn reset(&mut self) {
        self.uncertainty.reset();
        self.complexity.reset();
        self.mode = self.config.initial_mode;
        self.pending = None;
    }

    /// Processes one frame: `probs` is the IL softmax output, `boxes`
    /// the detected obstacles. Returns the decision for this frame.
    pub fn update(&mut self, probs: &[f64], boxes: &[Obb]) -> HsaDecision {
        let u_inst = instant_uncertainty(probs);
        let c_inst = instant_complexity(self.ego_position, boxes, &self.config.complexity);
        let u = self.uncertainty.push(u_inst);
        let c = self.complexity.push(c_inst);
        let ratio = if c > 0.0 { u / c } else { f64::INFINITY };
        let raw = if ratio <= self.config.lambda {
            Mode::Il
        } else {
            Mode::Co
        };

        // guard-time debounce: a change must persist before taking effect
        if raw == self.mode {
            self.pending = None;
        } else {
            let count = match self.pending {
                Some((m, c)) if m == raw => c + 1,
                _ => 1,
            };
            if count >= self.config.guard_time {
                self.mode = raw;
                self.pending = None;
            } else {
                self.pending = Some((raw, count));
            }
        }

        HsaDecision {
            mode: self.mode,
            uncertainty: u,
            complexity: c,
            ratio,
            raw_mode: raw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icoil_geom::Pose2;

    fn confident(m: usize) -> Vec<f64> {
        let mut p = vec![0.01 / (m as f64 - 1.0); m];
        p[0] = 0.99;
        p
    }

    fn uniform(m: usize) -> Vec<f64> {
        vec![1.0 / m as f64; m]
    }

    fn config_fast() -> HsaConfig {
        HsaConfig {
            window: 4,
            guard_time: 3,
            ..HsaConfig::default()
        }
    }

    #[test]
    fn confident_outputs_select_il() {
        let mut hsa = Hsa::new(config_fast());
        let mut last = None;
        for _ in 0..20 {
            last = Some(hsa.update(&confident(21), &[]));
        }
        let d = last.unwrap();
        assert_eq!(d.mode, Mode::Il);
        assert!(d.uncertainty < 0.2);
    }

    #[test]
    fn uncertain_outputs_select_co() {
        let mut hsa = Hsa::new(HsaConfig {
            initial_mode: Mode::Il,
            ..config_fast()
        });
        let mut last = None;
        for _ in 0..20 {
            last = Some(hsa.update(&uniform(21), &[]));
        }
        let d = last.unwrap();
        assert_eq!(d.mode, Mode::Co);
        assert!(d.uncertainty > 2.5); // ln 21 ≈ 3.04
    }

    #[test]
    fn guard_time_debounces_flapping() {
        let cfg = HsaConfig {
            window: 1,
            guard_time: 5,
            initial_mode: Mode::Co,
            ..HsaConfig::default()
        };
        let mut hsa = Hsa::new(cfg);
        // alternate confident/uncertain every frame: the raw decision
        // flaps, the debounced mode must stay put
        for i in 0..40 {
            let probs = if i % 2 == 0 {
                confident(21)
            } else {
                uniform(21)
            };
            let d = hsa.update(&probs, &[]);
            assert_eq!(d.mode, Mode::Co, "frame {i} must hold the mode");
        }
    }

    #[test]
    fn sustained_change_eventually_switches() {
        let cfg = HsaConfig {
            window: 2,
            guard_time: 4,
            initial_mode: Mode::Co,
            ..HsaConfig::default()
        };
        let mut hsa = Hsa::new(cfg);
        let mut switched_at = None;
        for i in 0..30 {
            let d = hsa.update(&confident(21), &[]);
            if d.mode == Mode::Il && switched_at.is_none() {
                switched_at = Some(i);
            }
        }
        let at = switched_at.expect("must switch to IL");
        assert!(at >= 3, "guard time must delay the switch, got {at}");
    }

    #[test]
    fn nearby_obstacles_raise_complexity_and_favor_il() {
        // same (moderate) uncertainty; complexity decides
        let probs = {
            // entropy ~0.7: two likely actions
            let mut p = vec![0.0; 21];
            p[0] = 0.6;
            p[1] = 0.4;
            p
        };
        let boxes: Vec<Obb> = (0..5)
            .map(|i| Obb::from_pose(Pose2::new(2.0 + i as f64, 0.0, 0.0), 2.0, 2.0))
            .collect();
        let mut free = Hsa::new(config_fast());
        let mut cluttered = Hsa::new(config_fast());
        cluttered.set_ego_position(Vec2::ZERO);
        free.set_ego_position(Vec2::ZERO);
        let mut d_free = None;
        let mut d_clut = None;
        for _ in 0..10 {
            d_free = Some(free.update(&probs, &[]));
            d_clut = Some(cluttered.update(&probs, &boxes));
        }
        let (f, c) = (d_free.unwrap(), d_clut.unwrap());
        assert!(c.complexity > f.complexity);
        assert!(c.ratio < f.ratio, "clutter must lower the ratio");
    }

    #[test]
    fn reset_restores_initial_mode() {
        let mut hsa = Hsa::new(HsaConfig {
            initial_mode: Mode::Co,
            window: 1,
            guard_time: 1,
            ..HsaConfig::default()
        });
        for _ in 0..5 {
            hsa.update(&confident(21), &[]);
        }
        assert_eq!(hsa.mode(), Mode::Il);
        hsa.reset();
        assert_eq!(hsa.mode(), Mode::Co);
    }

    #[test]
    fn decision_reports_both_modes() {
        let mut hsa = Hsa::new(HsaConfig {
            window: 1,
            guard_time: 100, // never actually switches
            initial_mode: Mode::Co,
            ..HsaConfig::default()
        });
        let mut d = hsa.update(&confident(21), &[]);
        for _ in 0..5 {
            d = hsa.update(&confident(21), &[]);
        }
        assert_eq!(d.mode, Mode::Co);
        assert_eq!(d.raw_mode, Mode::Il);
    }
}
