//! Post-hoc maneuver taxonomy: single-shot vs N-point parking.
//!
//! The paper's evaluation reports success rates but says nothing about
//! *how* an episode parked. The scenario families (angled echelon,
//! dead-end stub, crowded lot) are specifically built to force
//! multi-reversal maneuvers, so the bench harness classifies every traced
//! episode from its gear-reversal count: a clean pull-up-and-reverse-in
//! is a **single shot**; anything needing further direction changes is an
//! **N-point** maneuver (N drive segments separated by N−1 reversals).
//!
//! Classification is a pure function of the recorded
//! [`Trace`](crate::episode::Trace), so replays of the same episode
//! always classify identically.

use crate::episode::Trace;
use serde::{Deserialize, Serialize};

/// How an episode maneuvered, classified from its gear reversals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Maneuver {
    /// At most one gear reversal: one approach plus (at most) one
    /// reverse-in — the textbook parking motion.
    SingleShot,
    /// An `n`-point maneuver: `n` drive segments separated by `n − 1`
    /// gear reversals (`n ≥ 3`).
    NPoint(usize),
}

impl Maneuver {
    /// Stable snake_case label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Maneuver::SingleShot => "single_shot",
            Maneuver::NPoint(_) => "n_point",
        }
    }
}

/// Counts gear reversals in a trace: the number of frames whose executed
/// action flips the `reverse` flag relative to the previous frame.
///
/// The first frame never counts (there is no previous gear), so a
/// forward-only episode reports zero and the canonical reverse-in
/// parking motion reports one.
pub fn gear_reversals(trace: &Trace) -> usize {
    trace
        .windows(2)
        .filter(|w| w[0].action.reverse != w[1].action.reverse)
        .count()
}

/// Classifies a traced episode from its gear-reversal count.
///
/// Zero or one reversal is a [`Maneuver::SingleShot`]; `r ≥ 2` reversals
/// form an [`Maneuver::NPoint`] maneuver with `r + 1` drive segments.
pub fn classify_maneuver(trace: &Trace) -> Maneuver {
    match gear_reversals(trace) {
        0 | 1 => Maneuver::SingleShot,
        r => Maneuver::NPoint(r + 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::episode::TraceFrame;
    use icoil_geom::Pose2;
    use icoil_vehicle::Action;
    use proptest::prelude::*;

    fn frame(i: usize, reverse: bool) -> TraceFrame {
        TraceFrame {
            frame: i,
            time: i as f64 * 0.05,
            pose: Pose2::new(0.0, 0.0, 0.0),
            velocity: 0.0,
            action: if reverse {
                Action::backward(0.3, 0.0)
            } else {
                Action::forward(0.3, 0.0)
            },
            mode: None,
            uncertainty: None,
            complexity: None,
        }
    }

    fn trace_of(gears: &[bool]) -> Trace {
        gears
            .iter()
            .enumerate()
            .map(|(i, &r)| frame(i, r))
            .collect()
    }

    #[test]
    fn forward_only_counts_zero_reversals() {
        let trace = trace_of(&[false; 12]);
        assert_eq!(gear_reversals(&trace), 0);
        assert_eq!(classify_maneuver(&trace), Maneuver::SingleShot);
    }

    #[test]
    fn one_reversal_is_still_single_shot() {
        // pull up forward, then back into the bay
        let trace = trace_of(&[false, false, false, true, true, true]);
        assert_eq!(gear_reversals(&trace), 1);
        assert_eq!(classify_maneuver(&trace), Maneuver::SingleShot);
    }

    #[test]
    fn n_point_sequences_count_every_flip() {
        // F R F R F: a five-segment shuffle with four reversals
        let trace = trace_of(&[
            false, false, true, true, false, false, true, true, false, false,
        ]);
        assert_eq!(gear_reversals(&trace), 4);
        assert_eq!(classify_maneuver(&trace), Maneuver::NPoint(5));
        // three-point turn: F R F
        let three = trace_of(&[false, true, false]);
        assert_eq!(gear_reversals(&three), 2);
        assert_eq!(classify_maneuver(&three), Maneuver::NPoint(3));
    }

    #[test]
    fn empty_and_single_frame_traces_are_single_shot() {
        assert_eq!(gear_reversals(&Vec::new()), 0);
        assert_eq!(classify_maneuver(&trace_of(&[true])), Maneuver::SingleShot);
    }

    proptest! {
        /// The count is invariant under episode replay: re-running the
        /// same generated scenario produces the same trace, hence the
        /// same reversal count and class.
        #[test]
        fn count_is_invariant_under_replay(seed in 0u64..64) {
            use crate::episode::{run_episode, Decision, EpisodeConfig, Observation, Policy};
            use crate::{ProcGen, World};

            /// A deterministic scripted shuffler: alternates gear every
            /// 15 frames — enough to exercise real reversals in-world.
            struct Shuffler;
            impl Policy for Shuffler {
                fn decide(&mut self, obs: &Observation) -> Decision {
                    let phase = (obs.frame() / 15) % 2 == 1;
                    Decision::plain(if phase {
                        Action::backward(0.3, 0.1)
                    } else {
                        Action::forward(0.3, -0.1)
                    })
                }
            }

            let spec = ProcGen::default().generate(seed);
            let run = || {
                let mut world = World::new(spec.build());
                run_episode(
                    &mut world,
                    &mut Shuffler,
                    &EpisodeConfig { max_time: 4.0, record_trace: true },
                )
            };
            let a = run();
            let b = run();
            prop_assert_eq!(&a.trace, &b.trace);
            prop_assert_eq!(gear_reversals(&a.trace), gear_reversals(&b.trace));
            prop_assert_eq!(classify_maneuver(&a.trace), classify_maneuver(&b.trace));
        }
    }
}
