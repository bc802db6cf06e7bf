//! A full CO parking episode through the sparse KKT factorization path.

use icoil_core::{ICoilConfig, PureCoPolicy};
use icoil_world::episode::{run_episode, EpisodeConfig, Outcome};
use icoil_world::{Difficulty, ScenarioConfig, World};

#[test]
fn co_parks_end_to_end() {
    let config = ICoilConfig::default();
    let scenario = ScenarioConfig::new(Difficulty::Easy, 11).build();
    let mut policy = PureCoPolicy::new(&config, &scenario);
    let mut world = World::new(scenario);
    let result = run_episode(
        &mut world,
        &mut policy,
        &EpisodeConfig {
            max_time: 90.0,
            record_trace: false,
        },
    );
    assert_eq!(result.outcome, Outcome::Success);
}
