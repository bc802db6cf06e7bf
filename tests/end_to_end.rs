//! Cross-crate integration tests: full episodes through the real stack.

use icoil_core::{eval, ICoilConfig, Method, PureCoPolicy};
use icoil_il::IlModel;
use icoil_vehicle::ActionCodec;
use icoil_world::episode::{run_episode, EpisodeConfig, ModeTag, Outcome};
use icoil_world::{Difficulty, MapKind, ScenarioConfig, World};

fn untrained(config: &ICoilConfig) -> IlModel {
    IlModel::untrained(ActionCodec::default(), config.bev, 1)
}

#[test]
fn co_parks_on_easy_seed() {
    let config = ICoilConfig::default();
    let scenario = ScenarioConfig::new(Difficulty::Easy, 11).build();
    let mut policy = PureCoPolicy::new(&config, &scenario);
    let mut world = World::new(scenario);
    let result = run_episode(
        &mut world,
        &mut policy,
        &EpisodeConfig {
            max_time: 90.0,
            record_trace: true,
        },
    );
    assert_eq!(
        result.outcome,
        Outcome::Success,
        "CO parks on the easy level"
    );
    // trace sanity: monotone time, valid actions, final pose at the bay
    for pair in result.trace.windows(2) {
        assert!(pair[1].time > pair[0].time);
    }
    for f in &result.trace {
        assert!(f.action.validate().is_ok());
    }
    assert!(world.at_goal());
}

#[test]
fn co_parks_on_the_compact_map() {
    // the stack is not specialized to the Fig. 4 lot. The compact lot is
    // deliberately tight; not every random layout is solved (see
    // DESIGN.md), so this exercises a known-good seed.
    let config = ICoilConfig::default();
    let scenario = ScenarioConfig::new(Difficulty::Easy, 3)
        .with_map(MapKind::Compact)
        .build();
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
    assert_eq!(
        result.outcome,
        Outcome::Success,
        "outcome {:?}",
        result.outcome
    );
}

#[test]
fn co_enters_the_parallel_bay() {
    // The classic pull-past-and-reverse maneuver between two parked
    // cars. Final millimeter alignment inside the 1.4 m-clearance slot
    // is a known limitation of the tracking layer (see DESIGN.md), so
    // this test asserts the *maneuver*: the car must reverse into the
    // bay without hitting either parked car, ending within a meter of
    // the goal.
    let config = ICoilConfig::default();
    let scenario = ScenarioConfig::new(Difficulty::Easy, 1)
        .with_map(MapKind::Parallel)
        .build();
    let bay = scenario.map.bay();
    let goal = scenario.map.goal_pose();
    let mut policy = PureCoPolicy::new(&config, &scenario);
    let mut world = World::new(scenario);
    let result = run_episode(
        &mut world,
        &mut policy,
        &EpisodeConfig {
            max_time: 90.0,
            record_trace: true,
        },
    );
    assert_ne!(
        result.outcome,
        Outcome::Collision,
        "must not hit the parked cars"
    );
    // the maneuver must contain reverse driving and reach the bay
    assert!(result.trace.iter().any(|f| f.action.reverse));
    let last = result.trace.last().expect("non-empty trace");
    assert!(
        bay.inflated(0.5).contains(last.pose.position()),
        "must end inside the bay, ended at {}",
        last.pose
    );
    assert!(
        last.pose.distance(&goal) < 1.3,
        "must end within 1.3 m of the goal, was {:.2} m",
        last.pose.distance(&goal)
    );
}

#[test]
fn episodes_are_deterministic_across_runs() {
    let run = || {
        let config = ICoilConfig::default();
        let model = untrained(&config);
        let sc = ScenarioConfig::new(Difficulty::Normal, 17);
        eval::run_one(
            Method::ICoil,
            &config,
            &model,
            &sc,
            &EpisodeConfig {
                max_time: 10.0,
                record_trace: true,
            },
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seeds must give bit-identical episodes");
}

#[test]
fn icoil_with_untrained_model_degrades_to_co_and_parks() {
    // eq. (1) failure containment: if the DNN is uncertain everywhere,
    // iCOIL must behave exactly like the reliable CO stack
    let config = ICoilConfig::default();
    let model = untrained(&config);
    let sc = ScenarioConfig::new(Difficulty::Easy, 11);
    let result = eval::run_one(
        Method::ICoil,
        &config,
        &model,
        &sc,
        &EpisodeConfig {
            max_time: 90.0,
            record_trace: true,
        },
    );
    assert!(result.is_success(), "outcome {:?}", result.outcome);
    let il_frames = result
        .trace
        .iter()
        .filter(|f| f.mode == Some(ModeTag::Il))
        .count();
    assert_eq!(il_frames, 0, "an untrained model must never be trusted");
}

#[test]
fn hsa_telemetry_present_every_frame() {
    let config = ICoilConfig::default();
    let model = untrained(&config);
    let sc = ScenarioConfig::new(Difficulty::Hard, 2);
    let result = eval::run_one(
        Method::ICoil,
        &config,
        &model,
        &sc,
        &EpisodeConfig {
            max_time: 5.0,
            record_trace: true,
        },
    );
    assert!(!result.trace.is_empty());
    for f in &result.trace {
        let u = f.uncertainty.expect("uncertainty recorded");
        let c = f.complexity.expect("complexity recorded");
        assert!(u.is_finite() && u >= 0.0);
        assert!(c.is_finite() && c > 0.0);
    }
}

#[test]
fn batch_statistics_shape() {
    let config = ICoilConfig::default();
    let model = untrained(&config);
    let scenario_configs: Vec<ScenarioConfig> = (0..3)
        .map(|s| ScenarioConfig::new(Difficulty::Easy, 100 + s))
        .collect();
    let results = eval::run_batch(
        Method::Il,
        &config,
        &model,
        &scenario_configs,
        &EpisodeConfig {
            max_time: 3.0,
            record_trace: false,
        },
    );
    assert_eq!(results.len(), 3);
    let stats = icoil_world::ParkingStats::from_results(&results);
    assert_eq!(stats.episodes, 3);
    // untrained IL cannot park in 3 simulated seconds
    assert_eq!(stats.successes, 0);
}

#[test]
fn co_handles_every_map_and_difficulty_tier() {
    // Both non-default lots at all three difficulty tiers, on seeds
    // probed to be solvable (not every random layout is — see
    // DESIGN.md). Success means parked; for the Easy parallel seed the
    // stack completes the maneuver but times out on final millimeter
    // alignment (the known tracking limitation), so that row asserts
    // the maneuver instead. The seeds are calibrated to the MPC's exact
    // numerics: a change to the solver or the warm-start path shifts
    // episode outcomes, so expect to re-probe each cell (sweep seeds
    // with PureCoPolicy at max_time 90) after touching those layers.
    let table = [
        (MapKind::Parallel, Difficulty::Easy, 1u64, false),
        (MapKind::Parallel, Difficulty::Normal, 19, true),
        (MapKind::Parallel, Difficulty::Hard, 3, true),
        (MapKind::Compact, Difficulty::Easy, 3, true),
        (MapKind::Compact, Difficulty::Normal, 9, true),
        (MapKind::Compact, Difficulty::Hard, 5, true),
    ];
    let config = ICoilConfig::default();
    for (kind, diff, seed, expect_success) in table {
        let scenario = ScenarioConfig::new(diff, seed).with_map(kind).build();
        let goal = scenario.map.goal_pose();
        let mut policy = PureCoPolicy::new(&config, &scenario);
        let mut world = World::new(scenario);
        let result = run_episode(
            &mut world,
            &mut policy,
            &EpisodeConfig {
                max_time: 90.0,
                record_trace: true,
            },
        );
        let label = format!("{kind:?}/{diff:?} seed {seed}");
        assert_ne!(
            result.outcome,
            Outcome::Collision,
            "{label} must not collide"
        );
        if expect_success {
            assert_eq!(
                result.outcome,
                Outcome::Success,
                "{label}: {:?}",
                result.outcome
            );
        } else {
            let last = result.trace.last().expect("non-empty trace");
            assert!(
                result.trace.iter().any(|f| f.action.reverse),
                "{label} must reverse"
            );
            assert!(
                last.pose.distance(&goal) < 1.3,
                "{label} must end within 1.3 m of the goal, was {:.2} m",
                last.pose.distance(&goal)
            );
        }
    }
}
