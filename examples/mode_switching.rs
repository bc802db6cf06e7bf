//! Watch the HSA switch working modes during one iCOIL episode.
//!
//! ```text
//! cargo run --release --example mode_switching
//! ```
//!
//! Runs iCOIL with an *untrained* IL model: its near-uniform outputs keep
//! the scenario uncertainty high, so the HSA correctly selects CO
//! everywhere and the episode still parks — the designed failure-
//! containment behaviour of eq. (1). With a trained model (see the
//! benchmark harness) the system instead switches to IL where the DNN is
//! confident.

use icoil_core::{ICoilConfig, ICoilPolicy};
use icoil_il::IlModel;
use icoil_vehicle::ActionCodec;
use icoil_world::episode::{run_episode, EpisodeConfig, ModeTag};
use icoil_world::{Difficulty, ScenarioConfig, World};

fn main() {
    let config = ICoilConfig::default();
    let scenario = ScenarioConfig::new(Difficulty::Normal, 3).build();
    let model = IlModel::untrained(ActionCodec::default(), config.bev, 42);
    let mut policy = ICoilPolicy::new(&config, model, &scenario);
    let mut world = World::new(scenario);

    let result = run_episode(
        &mut world,
        &mut policy,
        &EpisodeConfig {
            max_time: 90.0,
            record_trace: true,
        },
    );

    println!(
        "outcome: {} after {:.1} s",
        result.outcome, result.parking_time
    );
    println!("frame   time   mode  uncertainty   complexity");
    for f in result.trace.iter().step_by(50) {
        println!(
            "{:5}  {:5.1}s  {:>4}  {:11.3}  {:11.0}",
            f.frame,
            f.time,
            f.mode.map_or("-".into(), |m| m.to_string()),
            f.uncertainty.unwrap_or(f64::NAN),
            f.complexity.unwrap_or(f64::NAN),
        );
    }
    let co = result
        .trace
        .iter()
        .filter(|f| f.mode == Some(ModeTag::Co))
        .count();
    println!(
        "CO-mode fraction: {:.0}% (untrained IL is never trusted)",
        100.0 * co as f64 / result.trace.len() as f64
    );
}
