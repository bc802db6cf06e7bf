//! Episode-trace persistence and replay verification.
//!
//! Traces are the experiment artifacts of this reproduction (the paper's
//! figures are drawn from them), so they can be written to and restored
//! from JSON, and a recorded action sequence can be *replayed* through a
//! fresh world to prove a result is reproducible from its scenario seed.

use crate::episode::{EpisodeResult, Outcome};
use crate::{Scenario, World};
use std::path::Path;

/// A self-contained experiment artifact: the scenario (fully seeded) and
/// the episode it produced.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EpisodeRecord {
    /// The scenario the episode ran in.
    pub scenario: Scenario,
    /// The recorded result (must contain a trace for replay).
    pub result: EpisodeResult,
}

impl EpisodeRecord {
    /// Bundles a scenario and its result.
    pub fn new(scenario: Scenario, result: EpisodeResult) -> Self {
        EpisodeRecord { scenario, result }
    }

    /// Writes the record as JSON.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(
            path,
            serde_json::to_string(self).expect("record serializes"),
        )
    }

    /// Reads a record back.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; malformed JSON maps to
    /// `InvalidData`.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        serde_json::from_str(&json)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Replays the recorded actions through a fresh world and checks the
    /// trajectory matches frame by frame.
    ///
    /// Returns the frame index of the first divergence (poses differing
    /// by more than `tol` meters), or `None` when the replay matches.
    pub fn verify_replay(&self, tol: f64) -> Option<usize> {
        let mut world = World::new(self.scenario.clone());
        for (i, frame) in self.result.trace.iter().enumerate() {
            let pose = world.ego().pose;
            if pose.position().distance(frame.pose.position()) > tol {
                return Some(i);
            }
            world.step(&frame.action);
        }
        // terminal outcome must agree
        let replay_outcome = if world.in_collision() {
            Outcome::Collision
        } else if world.at_goal() {
            Outcome::Success
        } else {
            Outcome::Timeout
        };
        if replay_outcome != self.result.outcome && !self.result.trace.is_empty() {
            return Some(self.result.trace.len());
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::episode::{run_episode, Decision, EpisodeConfig, Observation, Policy};
    use crate::{Difficulty, ScenarioConfig};
    use icoil_vehicle::Action;

    struct Wiggle;
    impl Policy for Wiggle {
        fn decide(&mut self, obs: &Observation) -> Decision {
            let steer = if obs.frame() % 40 < 20 { 0.4 } else { -0.4 };
            Decision::plain(Action::forward(0.7, steer))
        }
    }

    fn record() -> EpisodeRecord {
        let scenario = ScenarioConfig::new(Difficulty::Easy, 21).build();
        let mut world = World::new(scenario.clone());
        let result = run_episode(
            &mut world,
            &mut Wiggle,
            &EpisodeConfig {
                max_time: 5.0,
                record_trace: true,
            },
        );
        EpisodeRecord::new(scenario, result)
    }

    #[test]
    fn replay_matches_recording() {
        let r = record();
        assert_eq!(r.verify_replay(1e-9), None);
    }

    #[test]
    fn tampered_trace_is_detected() {
        let mut r = record();
        // corrupt one action mid-trace
        let mid = r.result.trace.len() / 2;
        r.result.trace[mid].action.steer = -r.result.trace[mid].action.steer;
        let divergence = r.verify_replay(1e-6);
        assert!(divergence.is_some());
        assert!(
            divergence.unwrap() > mid,
            "divergence appears after the tamper"
        );
    }

    #[test]
    fn save_load_roundtrip() {
        let r = record();
        let dir = std::env::temp_dir().join("icoil_persist_test");
        let path = dir.join("episode.json");
        r.save(&path).unwrap();
        let back = EpisodeRecord::load(&path).unwrap();
        assert_eq!(r, back);
        assert_eq!(back.verify_replay(1e-9), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join("icoil_persist_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "{not json").unwrap();
        assert!(EpisodeRecord::load(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
