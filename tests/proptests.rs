//! Cross-crate property tests on randomized scenarios.

use icoil_perception::{BevConfig, Perception};
use icoil_world::episode::Observation;
use icoil_world::{Difficulty, ScenarioConfig, World};
use proptest::prelude::*;

fn arb_difficulty() -> impl Strategy<Value = Difficulty> {
    prop::sample::select(vec![Difficulty::Easy, Difficulty::Normal, Difficulty::Hard])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn scenarios_spawn_collision_free(d in arb_difficulty(), seed in 0u64..5000) {
        let scenario = ScenarioConfig::new(d, seed).build();
        let world = World::new(scenario);
        prop_assert!(!world.in_collision(), "seed {seed} spawns in collision");
        prop_assert!(!world.at_goal(), "seed {seed} spawns at the goal");
        prop_assert!(world.clearance() > 0.0);
    }

    #[test]
    fn scenario_builds_are_pure(d in arb_difficulty(), seed in 0u64..5000) {
        let a = ScenarioConfig::new(d, seed).build();
        let b = ScenarioConfig::new(d, seed).build();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn sensing_is_pure_per_frame(seed in 0u64..1000) {
        let scenario = ScenarioConfig::new(Difficulty::Hard, seed).build();
        let world = World::new(scenario);
        let mut p1 = Perception::new(BevConfig::default(), world.scenario());
        let mut p2 = Perception::new(BevConfig::default(), world.scenario());
        let o = Observation::new(&world);
        prop_assert_eq!(p1.observe(&o), p2.observe(&o));
    }

    #[test]
    fn bev_pixels_bounded(seed in 0u64..1000, d in arb_difficulty()) {
        let scenario = ScenarioConfig::new(d, seed).build();
        let world = World::new(scenario);
        let mut p = Perception::new(BevConfig::default(), world.scenario());
        let sensing = p.observe(&Observation::new(&world));
        let s = sensing.bev.size;
        // occupancy and goal channels live in [0, 1]
        for v in &sensing.bev.data[..2 * s * s] {
            prop_assert!((0.0..=1.0).contains(v));
        }
        // speed plane in [-1, 1]
        for v in &sensing.bev.data[2 * s * s..] {
            prop_assert!((-1.0..=1.0).contains(v));
        }
    }

    #[test]
    fn stepping_never_breaks_invariants(seed in 0u64..300, throttle in 0.0f64..1.0, steer in -1.0f64..1.0) {
        let scenario = ScenarioConfig::new(Difficulty::Easy, seed).build();
        let mut world = World::new(scenario);
        let action = icoil_vehicle::Action { throttle, brake: 0.0, steer, reverse: false };
        for _ in 0..100 {
            let state = world.step(&action);
            prop_assert!(state.is_finite());
            prop_assert!(state.velocity.abs() <= 2.5 + 1e-9);
            if world.in_collision() {
                break;
            }
        }
    }

    /// The sparse LDLᵀ must agree with the dense Cholesky reference on
    /// the *actual* MPC KKT matrix — the sparsity pattern the solver
    /// factors every frame — across randomized scenarios.
    #[test]
    fn sparse_ldl_matches_dense_on_actual_mpc_kkt(seed in 0u64..500, d in arb_difficulty()) {
        use icoil_co::{build_mpc_qp, CoConfig, RefState};
        use icoil_solver::{SparseKkt, SparseLdl, SymbolicLdl};

        let scenario = ScenarioConfig::new(d, seed).build();
        let config = CoConfig::default();
        let state = scenario.start_state;
        let reference: Vec<RefState> = (1..=config.horizon)
            .map(|h| RefState {
                x: state.pose.x + 0.4 * h as f64,
                y: state.pose.y + 0.1 * h as f64,
                theta: state.pose.theta,
                v: 1.0,
            })
            .collect();
        let nominal_u = vec![[0.3, 0.05]; config.horizon];
        let qp = build_mpc_qp(
            &state,
            &nominal_u,
            &reference,
            &[],
            &scenario.vehicle_params,
            &config,
        );

        let gram = qp.a().gram();
        let mut kkt = SparseKkt::new(qp.p(), &gram);
        let matrix = kkt.assemble(qp.p(), &gram, 1e-6, 0.1);
        prop_assert!(matrix.rows() >= 30, "MPC KKT is {} x {}", matrix.rows(), matrix.cols());

        let sym = SymbolicLdl::analyze(matrix);
        let mut sparse = SparseLdl::factor(sym, matrix).expect("MPC KKT factors");
        let dense = matrix.to_dense().cholesky().expect("MPC KKT is PD");
        let b: Vec<f64> = (0..matrix.rows()).map(|i| (i as f64 * 0.53).sin()).collect();
        let xs = sparse.solve(&b);
        let xd = dense.solve(&b);
        for (a, d) in xs.iter().zip(&xd) {
            prop_assert!((a - d).abs() < 1e-7, "sparse {a} vs dense {d}");
        }
    }
}
