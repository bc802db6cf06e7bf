//! Continuous ↔ discrete action conversion (§IV-A).
//!
//! The paper turns imitation learning into an `M`-way classification
//! problem by discretizing the continuous driving actions. This module
//! provides the codec: `M = 3 × steer_bins` classes, the cartesian product
//! of a speed mode (reverse / stop / forward) and a uniform steering grid.

use crate::Action;
use serde::{Deserialize, Serialize};

/// Longitudinal component of a discretized action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpeedMode {
    /// Drive backwards at the codec throttle.
    Reverse,
    /// Full brake.
    Stop,
    /// Drive forwards at the codec throttle.
    Forward,
}

impl SpeedMode {
    /// All modes, in class-index order.
    pub const ALL: [SpeedMode; 3] = [SpeedMode::Reverse, SpeedMode::Stop, SpeedMode::Forward];

    fn index(self) -> usize {
        match self {
            SpeedMode::Reverse => 0,
            SpeedMode::Stop => 1,
            SpeedMode::Forward => 2,
        }
    }
}

/// Converts between continuous [`Action`]s and discrete class indices.
///
/// # Example
///
/// ```
/// use icoil_vehicle::{Action, ActionCodec};
///
/// let codec = ActionCodec::new(7, 0.6).unwrap();
/// assert_eq!(codec.num_classes(), 21);
/// let class = codec.encode(&Action::forward(0.8, 0.35));
/// let back = codec.decode(class);
/// assert!(!back.reverse);
/// assert!((back.steer - 0.333).abs() < 0.01); // snapped to the grid
/// assert_eq!(codec.encode(&back), class);      // encode∘decode = id
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActionCodec {
    steer_bins: usize,
    throttle: f64,
}

/// Error returned by [`ActionCodec::new`] for invalid configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidCodecError;

impl std::fmt::Display for InvalidCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "action codec needs an odd steer-bin count of at least 3 and throttle in (0, 1]"
        )
    }
}

impl std::error::Error for InvalidCodecError {}

impl Default for ActionCodec {
    /// Seven steering bins at 0.6 throttle — the configuration used by the
    /// paper-scale experiments (`M = 21`).
    fn default() -> Self {
        ActionCodec {
            steer_bins: 7,
            throttle: 0.6,
        }
    }
}

impl ActionCodec {
    /// Creates a codec with `steer_bins` steering levels (odd, ≥ 3, so the
    /// grid contains exactly zero) driving at fixed `throttle`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidCodecError`] when `steer_bins` is even or below 3,
    /// or `throttle` is outside `(0, 1]`.
    pub fn new(steer_bins: usize, throttle: f64) -> Result<Self, InvalidCodecError> {
        if steer_bins < 3
            || steer_bins.is_multiple_of(2)
            || !(0.0..=1.0).contains(&throttle)
            || throttle == 0.0
        {
            return Err(InvalidCodecError);
        }
        Ok(ActionCodec {
            steer_bins,
            throttle,
        })
    }

    /// Number of discrete classes `M`.
    pub fn num_classes(&self) -> usize {
        3 * self.steer_bins
    }

    /// Number of steering bins.
    pub fn steer_bins(&self) -> usize {
        self.steer_bins
    }

    /// Fixed throttle magnitude used by drive classes.
    pub fn throttle(&self) -> f64 {
        self.throttle
    }

    /// The normalized steering value of bin `k`.
    ///
    /// # Panics
    ///
    /// Panics when `k` is out of range.
    pub fn steer_value(&self, k: usize) -> f64 {
        assert!(k < self.steer_bins, "steer bin out of range");
        -1.0 + 2.0 * k as f64 / (self.steer_bins - 1) as f64
    }

    /// The steering bin nearest to a normalized steering value.
    pub fn steer_bin(&self, steer: f64) -> usize {
        let s = steer.clamp(-1.0, 1.0);
        let k = ((s + 1.0) * 0.5 * (self.steer_bins - 1) as f64).round();
        (k as usize).min(self.steer_bins - 1)
    }

    /// Class index of a `(mode, steering-bin)` pair.
    ///
    /// # Panics
    ///
    /// Panics when `steer_bin` is out of range.
    pub fn class_of(&self, mode: SpeedMode, steer_bin: usize) -> usize {
        assert!(steer_bin < self.steer_bins, "steer bin out of range");
        mode.index() * self.steer_bins + steer_bin
    }

    /// Decomposes a class index into `(mode, steering-bin)`.
    ///
    /// # Panics
    ///
    /// Panics when `class` ≥ [`ActionCodec::num_classes`].
    pub fn parts_of(&self, class: usize) -> (SpeedMode, usize) {
        assert!(class < self.num_classes(), "class out of range");
        (
            SpeedMode::ALL[class / self.steer_bins],
            class % self.steer_bins,
        )
    }

    /// Encodes a continuous action into the nearest class.
    ///
    /// The mode is `Stop` when braking dominates or when neither pedal is
    /// meaningfully pressed; otherwise the gear flag selects
    /// forward/reverse.
    pub fn encode(&self, action: &Action) -> usize {
        let a = action.clamped();
        let mode = if a.brake >= 0.5 || (a.throttle < 0.05 && a.brake >= a.throttle) {
            SpeedMode::Stop
        } else if a.reverse {
            SpeedMode::Reverse
        } else {
            SpeedMode::Forward
        };
        self.class_of(mode, self.steer_bin(a.steer))
    }

    /// Decodes a class index into its canonical continuous action.
    ///
    /// # Panics
    ///
    /// Panics when `class` ≥ [`ActionCodec::num_classes`].
    pub fn decode(&self, class: usize) -> Action {
        let (mode, bin) = self.parts_of(class);
        let steer = self.steer_value(bin);
        match mode {
            SpeedMode::Reverse => Action::backward(self.throttle, steer),
            SpeedMode::Forward => Action::forward(self.throttle, steer),
            SpeedMode::Stop => Action {
                throttle: 0.0,
                brake: 1.0,
                steer,
                reverse: false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(ActionCodec::new(7, 0.6).is_ok());
        assert!(ActionCodec::new(6, 0.6).is_err()); // even
        assert!(ActionCodec::new(1, 0.6).is_err()); // too few
        assert!(ActionCodec::new(7, 0.0).is_err()); // zero throttle
        assert!(ActionCodec::new(7, 1.5).is_err()); // out of range
    }

    #[test]
    fn steer_grid_symmetric_and_contains_zero() {
        let c = ActionCodec::new(7, 0.6).unwrap();
        assert_eq!(c.steer_value(0), -1.0);
        assert_eq!(c.steer_value(6), 1.0);
        assert_eq!(c.steer_value(3), 0.0);
        for k in 0..7 {
            assert!((c.steer_value(k) + c.steer_value(6 - k)).abs() < 1e-12);
        }
    }

    #[test]
    fn encode_decode_identity_on_classes() {
        let c = ActionCodec::new(5, 0.7).unwrap();
        for class in 0..c.num_classes() {
            assert_eq!(c.encode(&c.decode(class)), class, "class {class}");
        }
    }

    #[test]
    fn decode_encode_quantizes_steer() {
        let c = ActionCodec::default();
        let a = Action::forward(0.9, 0.29);
        let q = c.decode(c.encode(&a));
        // nearest grid point to 0.29 with 7 bins is 1/3
        assert!((q.steer - 1.0 / 3.0).abs() < 1e-12);
        assert!(!q.reverse);
    }

    #[test]
    fn braking_maps_to_stop() {
        let c = ActionCodec::default();
        let a = Action {
            throttle: 0.0,
            brake: 1.0,
            steer: 0.0,
            reverse: false,
        };
        let (mode, _) = c.parts_of(c.encode(&a));
        assert_eq!(mode, SpeedMode::Stop);
        // coasting with no pedals also maps to Stop
        let (mode, _) = c.parts_of(c.encode(&Action::coast()));
        assert_eq!(mode, SpeedMode::Stop);
    }

    #[test]
    fn reverse_flag_respected() {
        let c = ActionCodec::default();
        let (mode, _) = c.parts_of(c.encode(&Action::backward(0.8, 0.0)));
        assert_eq!(mode, SpeedMode::Reverse);
    }

    #[test]
    fn class_layout_covers_all_pairs() {
        let c = ActionCodec::new(3, 0.5).unwrap();
        let mut seen = std::collections::HashSet::new();
        for mode in SpeedMode::ALL {
            for bin in 0..3 {
                seen.insert(c.class_of(mode, bin));
            }
        }
        assert_eq!(seen.len(), c.num_classes());
        assert_eq!(c.num_classes(), 9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn decode_out_of_range_panics() {
        let c = ActionCodec::default();
        let _ = c.decode(c.num_classes());
    }

    #[test]
    fn decoded_actions_are_valid() {
        let c = ActionCodec::default();
        for class in 0..c.num_classes() {
            assert!(c.decode(class).validate().is_ok());
        }
    }
}
