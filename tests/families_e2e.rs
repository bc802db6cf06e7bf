//! Cross-crate integration: a full iCOIL episode on every procedural
//! map family, with the maneuver taxonomy cross-checked against the
//! live gear-reversal counter.

use icoil_core::{eval, ICoilConfig, ICoilPolicy};
use icoil_il::IlModel;
use icoil_telemetry::Counter;
use icoil_vehicle::ActionCodec;
use icoil_world::episode::{run_episode, EpisodeConfig};
use icoil_world::{
    classify_maneuver, gear_reversals, Maneuver, MapFamilyKind, ProcGen, ProcGenConfig, World,
};

/// Every family generates, builds and survives a short full-stack
/// episode, and the trace-derived reversal count agrees exactly with
/// the policy's `gear_reversals` telemetry counter.
#[test]
fn every_family_runs_a_full_stack_episode() {
    let config = ICoilConfig::default();
    for (i, kind) in MapFamilyKind::ALL.into_iter().enumerate() {
        let gen = ProcGen::new(ProcGenConfig {
            family: Some(kind),
            ..ProcGenConfig::default()
        });
        let spec = gen.generate(900 + i as u64);
        assert_eq!(
            spec.family.kind(),
            kind,
            "generator honors the pinned family"
        );

        let scenario = spec.build();
        let model = IlModel::untrained(ActionCodec::default(), config.bev, 1);
        let mut policy = ICoilPolicy::new(&config, model, &scenario);
        let mut world = World::new(scenario);
        let result = run_episode(
            &mut world,
            &mut policy,
            &EpisodeConfig {
                max_time: 6.0,
                record_trace: true,
            },
        );
        assert!(
            !result.trace.is_empty(),
            "{}: episode produced no frames",
            kind.name()
        );

        let metrics = eval::drain_episode_metrics(&mut policy, &result);
        let traced = gear_reversals(&result.trace) as u64;
        assert_eq!(
            metrics.counter(Counter::GearReversals),
            traced,
            "{}: live counter disagrees with the recorded trace",
            kind.name()
        );
        let maneuver = classify_maneuver(&result.trace);
        match maneuver {
            Maneuver::SingleShot => assert!(traced <= 1),
            Maneuver::NPoint(points) => assert_eq!(points as u64, traced + 1),
        }
    }
}

/// Family names round-trip through the stable-name lookup used by the
/// bench CLI and the scenarios report schema.
#[test]
fn family_names_round_trip() {
    for kind in MapFamilyKind::ALL {
        assert_eq!(MapFamilyKind::from_name(kind.name()), Some(kind));
    }
    assert_eq!(MapFamilyKind::from_name("no_such_family"), None);
}
