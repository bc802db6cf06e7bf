//! Criterion micro-benchmarks for the §V-E execution-frequency claim and
//! the per-component costs behind it.
//!
//! * `il_inference` — one forward pass of the IL CNN (paper: 75 Hz);
//! * `co_solve` — one full MPC solve with obstacles (paper: 18 Hz);
//! * `co_solve_warm` — the same solve reusing the previous frame's
//!   [`MpcMemory`] (the deployed receding-horizon path);
//! * `qp_solve` — the inner ADMM QP alone;
//! * `qp_solve_warm` — the QP with a warm iterate + cached scaling and
//!   symbolic analysis;
//! * `hybrid_astar` — one global plan (amortized over replans);
//! * `bev_render` + `detect` — the perception substrate;
//! * `hsa_update` — the mode-switching overhead (must be negligible).

use criterion::{criterion_group, criterion_main, Criterion};
use icoil_co::{solve_mpc, solve_mpc_warm, CoConfig, MovingObstacle, MpcMemory, RefState};
use icoil_geom::{Obb, Pose2};
use icoil_hsa::{Hsa, HsaConfig};
use icoil_il::IlModel;
use icoil_perception::{BevConfig, BevRenderer, ObjectDetector};
use icoil_planner::{plan, PlannerConfig, PlanningProblem};
use icoil_solver::{solve_qp, solve_qp_warm, Mat, QpProblem, QpSettings, QpWarmStart, QpWorkspace};
use icoil_vehicle::{ActionCodec, VehicleParams, VehicleState};
use icoil_world::{Difficulty, NoiseConfig, ScenarioConfig};
use rand::SeedableRng;

fn bench_il_inference(c: &mut Criterion) {
    let bev = BevConfig::default();
    let mut model = IlModel::untrained(ActionCodec::default(), bev, 1);
    let scenario = ScenarioConfig::new(Difficulty::Easy, 1).build();
    let renderer = BevRenderer::new(bev);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
    let image = renderer.render(
        &scenario.start_state,
        &scenario.obstacle_footprints(0.0),
        &scenario.map,
        &NoiseConfig::none(),
        &mut rng,
    );
    c.bench_function("il_inference", |b| {
        b.iter(|| std::hint::black_box(model.infer(&image)))
    });
}

fn bench_co_solve(c: &mut Criterion) {
    let params = VehicleParams::default();
    let config = CoConfig::default();
    let scenario = ScenarioConfig::new(Difficulty::Normal, 1).build();
    let state = VehicleState::new(Pose2::new(10.0, 10.0, 0.0), 1.0);
    let obstacles: Vec<MovingObstacle> = scenario
        .obstacle_footprints(0.0)
        .into_iter()
        .map(MovingObstacle::fixed)
        .collect();
    let reference: Vec<RefState> = (1..=config.horizon)
        .map(|i| RefState {
            x: 10.0 + 1.5 * config.mpc_dt * i as f64,
            y: 10.0,
            theta: 0.0,
            v: 1.5,
        })
        .collect();
    c.bench_function("co_solve", |b| {
        b.iter(|| std::hint::black_box(solve_mpc(&state, &reference, &obstacles, &params, &config)))
    });
}

fn bench_co_solve_warm(c: &mut Criterion) {
    let params = VehicleParams::default();
    let config = CoConfig::default();
    let scenario = ScenarioConfig::new(Difficulty::Normal, 1).build();
    let state = VehicleState::new(Pose2::new(10.0, 10.0, 0.0), 1.0);
    let obstacles: Vec<MovingObstacle> = scenario
        .obstacle_footprints(0.0)
        .into_iter()
        .map(MovingObstacle::fixed)
        .collect();
    let reference: Vec<RefState> = (1..=config.horizon)
        .map(|i| RefState {
            x: 10.0 + 1.5 * config.mpc_dt * i as f64,
            y: 10.0,
            theta: 0.0,
            v: 1.5,
        })
        .collect();
    let mut memory = MpcMemory::new();
    // Prime the memory with one frame, as the receding-horizon loop does.
    let _ = solve_mpc_warm(
        &state,
        &reference,
        &obstacles,
        &params,
        &config,
        &mut memory,
    );
    c.bench_function("co_solve_warm", |b| {
        b.iter(|| {
            std::hint::black_box(solve_mpc_warm(
                &state,
                &reference,
                &obstacles,
                &params,
                &config,
                &mut memory,
            ))
        })
    });
}

fn bench_qp_solve(c: &mut Criterion) {
    // MPC-scale QP: 24 vars, 60 rows
    let n = 24;
    let p = Mat::diag(&vec![2.0; n]);
    let q: Vec<f64> = (0..n).map(|i| -0.1 * (i % 5) as f64).collect();
    let m = 60;
    let mut a = Mat::zeros(m, n);
    for i in 0..m {
        *a.at_mut(i, i % n) = 1.0;
        *a.at_mut(i, (i + 7) % n) = -0.5;
    }
    let qp = QpProblem::new(p, q, a, vec![-1.0; m], vec![1.0; m]).unwrap();
    let settings = QpSettings::default();
    c.bench_function("qp_solve", |b| {
        b.iter(|| std::hint::black_box(solve_qp(&qp, &settings)))
    });

    // Warm variant: previous-solution iterate plus the workspace's
    // cached Ruiz scaling and symbolic LDLᵀ analysis; every solve still
    // factors its KKT afresh, as the MPC does on each SCP pass.
    let cold = solve_qp(&qp, &settings);
    let warm = QpWarmStart::from_solution(&cold);
    let mut workspace = QpWorkspace::new();
    let _ = solve_qp_warm(&qp, &settings, Some(&warm), &mut workspace);
    c.bench_function("qp_solve_warm", |b| {
        b.iter(|| std::hint::black_box(solve_qp_warm(&qp, &settings, Some(&warm), &mut workspace)))
    });
}

fn bench_hybrid_astar(c: &mut Criterion) {
    let scenario = ScenarioConfig::new(Difficulty::Easy, 1).build();
    let params = scenario.vehicle_params;
    let obstacles = scenario.static_footprints();
    c.bench_function("hybrid_astar", |b| {
        b.iter(|| {
            let problem = PlanningProblem {
                start: scenario.start_state.pose,
                goal: scenario.map.goal_pose(),
                bounds: scenario.map.bounds(),
                obstacles: &obstacles,
                vehicle: &params,
                safety_margin: 0.35,
            };
            std::hint::black_box(plan(&problem, &PlannerConfig::default()).unwrap())
        })
    });
}

fn bench_perception(c: &mut Criterion) {
    let scenario = ScenarioConfig::new(Difficulty::Hard, 1).build();
    let renderer = BevRenderer::new(BevConfig::default());
    let detector = ObjectDetector::default();
    let footprints = scenario.obstacle_footprints(0.0);
    c.bench_function("bev_render", |b| {
        b.iter(|| {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
            std::hint::black_box(renderer.render(
                &scenario.start_state,
                &footprints,
                &scenario.map,
                &scenario.noise,
                &mut rng,
            ))
        })
    });
    c.bench_function("detect", |b| {
        b.iter(|| {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
            std::hint::black_box(detector.detect(
                &scenario.start_state,
                &footprints,
                &scenario.noise,
                &mut rng,
            ))
        })
    });
}

fn bench_hsa_update(c: &mut Criterion) {
    let mut hsa = Hsa::new(HsaConfig::default());
    let probs = vec![1.0 / 21.0; 21];
    let boxes: Vec<Obb> = (0..5)
        .map(|i| Obb::from_pose(Pose2::new(3.0 + i as f64, 2.0, 0.0), 2.0, 2.0))
        .collect();
    c.bench_function("hsa_update", |b| {
        b.iter(|| std::hint::black_box(hsa.update(&probs, &boxes)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_il_inference, bench_co_solve, bench_co_solve_warm,
              bench_qp_solve, bench_hybrid_astar, bench_perception,
              bench_hsa_update
}
criterion_main!(benches);
