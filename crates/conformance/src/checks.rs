//! The differential checks: each one runs a generated scenario through a
//! pair of implementation paths that must agree.
//!
//! Check functions are pure with respect to their inputs — the same
//! [`ProcScenario`] always produces the same verdict — which is what lets
//! the fuzz loop shrink a failing spec by re-running the check on
//! candidate simplifications.

use icoil_co::{solve_mpc, CoConfig, SolveRecord, MPC_QP_MAX_ITERS, MPC_REPLAN_VIOLATION};
use icoil_core::{run_scenarios_with, EvalConfig, ICoilConfig, ICoilPolicy, PureCoPolicy};
use icoil_hsa::{instant_complexity, instant_uncertainty, ComplexityParams, Hsa, HsaConfig, Mode};
use icoil_il::IlModel;
use icoil_nn::Tensor;
use icoil_perception::Perception;
use icoil_solver::{
    solve_qp, solve_qp_warm, Mat, QpProblem, QpSettings, QpStatus, QpWarmStart, QpWorkspace,
};
use icoil_vehicle::ActionCodec;
use icoil_world::episode::{run_episode, EpisodeConfig, Observation, Policy};
use icoil_world::{gear_reversals, ProcScenario, Scenario, World};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Identifies one differential check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CheckKind {
    /// Warm-started MPC vs a cold solve on identical per-frame inputs.
    WarmColdMpc,
    /// Warm-started ADMM vs a cold solve on random strictly convex QPs.
    QpWarmCold,
    /// `parallelism = 1` vs `parallelism = N` batch evaluation.
    Parallelism,
    /// `InferBuffers` inference vs the reference `forward()` pass.
    Inference,
    /// HSA eq. 7/8 window arithmetic vs a naive reference window.
    HsaWindow,
    /// Guard-time invariant: ≥ `guard_time` frames between mode flips.
    HsaGuard,
    /// The same episode run twice must be bit-identical.
    Determinism,
    /// Micro-batched IL inference vs per-sample inference, bitwise.
    BatchedSingleIl,
    /// SIMD kernel dispatch vs the scalar reference on recorded solver
    /// inputs (bitwise) and real IL frames (within tolerance).
    SimdScalarKernels,
    /// Serving checkpoint/restore: a session evicted mid-episode and
    /// restored — in-process and into fresh engines at different shard
    /// counts — must replay the remaining trajectory bitwise.
    CheckpointRestoreReplay,
    /// Per-family episode determinism: the full iCOIL stack run twice on
    /// the generated scenario (the fuzz loop pins every map family in
    /// turn) must be bit-identical — episode, trace, telemetry counters —
    /// and the trace-derived gear-reversal count must agree with the
    /// policy's live `gear_reversals` counter.
    FamilyDeterminism,
    /// Versioned-weight serving: a session created before a mid-episode
    /// hot-swap keeps its pinned generation and replays bitwise against
    /// a fixed-version reference; sessions created after the publish
    /// ride the new generation; a snapshot carrying a generation the
    /// target server never published is refused with a typed error; and
    /// the IL safety projection is idempotent — already-feasible actions
    /// pass through bitwise unchanged.
    WeightVersionPinning,
    /// A deliberately-failing canary used to exercise shrinking.
    InjectedCanary,
}

impl CheckKind {
    /// Every real check (the canary is opt-in via `--inject`).
    pub const ALL: [CheckKind; 12] = [
        CheckKind::WarmColdMpc,
        CheckKind::QpWarmCold,
        CheckKind::Parallelism,
        CheckKind::Inference,
        CheckKind::HsaWindow,
        CheckKind::HsaGuard,
        CheckKind::Determinism,
        CheckKind::BatchedSingleIl,
        CheckKind::SimdScalarKernels,
        CheckKind::CheckpointRestoreReplay,
        CheckKind::FamilyDeterminism,
        CheckKind::WeightVersionPinning,
    ];

    /// Stable snake_case name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            CheckKind::WarmColdMpc => "warm_cold_mpc",
            CheckKind::QpWarmCold => "qp_warm_cold",
            CheckKind::Parallelism => "parallelism",
            CheckKind::Inference => "inference",
            CheckKind::HsaWindow => "hsa_window",
            CheckKind::HsaGuard => "hsa_guard",
            CheckKind::Determinism => "determinism",
            CheckKind::BatchedSingleIl => "batched_single_il",
            CheckKind::SimdScalarKernels => "simd_scalar_kernels",
            CheckKind::CheckpointRestoreReplay => "checkpoint_restore_replay",
            CheckKind::FamilyDeterminism => "family_determinism",
            CheckKind::WeightVersionPinning => "weight_version_pinning",
            CheckKind::InjectedCanary => "injected_canary",
        }
    }
}

/// Tunables shared by all checks.
#[derive(Debug, Clone, Copy)]
pub struct CheckSettings {
    /// Simulated seconds driven per episode-based check.
    pub episode_time: f64,
    /// Cold re-solve stride in the warm/cold MPC check (every `k`-th
    /// logged solve is re-run cold).
    pub cold_stride: usize,
    /// Per-component tolerance on the first MPC control between the
    /// warm-chained and cold solutions of identical inputs.
    pub mpc_tolerance: f64,
    /// Relative tracking-cost *excess* of the warm solution over the
    /// cold one tolerated from a warm solve that never converged (every
    /// SCP pass hit its ADMM budget). Converged worse-cost solutions are
    /// SCP multi-modality and accepted at any gap as long as they are
    /// not less safe — see `check_warm_cold_mpc`.
    pub mpc_cost_slack: f64,
    /// Accepted *excess* of warm predicted constraint violation over
    /// cold. Defaults to [`MPC_REPLAN_VIOLATION`] so the contract stays
    /// aligned with the MPC's own fallback trigger: a warm plan
    /// predicting more violation than this re-solves cold in-product,
    /// so a larger gap surviving to the check is a fallback regression.
    pub mpc_violation_slack: f64,
    /// Tolerance on QP primal iterates between warm and cold solves.
    pub qp_tolerance: f64,
    /// Batch width of the parallelism check.
    pub batch: usize,
}

impl Default for CheckSettings {
    fn default() -> Self {
        CheckSettings {
            episode_time: 12.0,
            cold_stride: 4,
            mpc_tolerance: 0.05,
            mpc_cost_slack: 0.25,
            mpc_violation_slack: MPC_REPLAN_VIOLATION,
            qp_tolerance: 1e-4,
            batch: 3,
        }
    }
}

impl CheckSettings {
    /// Reduced-cost settings for CI smoke runs.
    pub fn smoke() -> Self {
        CheckSettings {
            episode_time: 6.0,
            cold_stride: 8,
            batch: 2,
            ..CheckSettings::default()
        }
    }
}

/// Runs one check on one scenario spec.
///
/// Returns `Err(detail)` on divergence; the detail string is what lands
/// in the triage report. A panic anywhere under the check (the fuzzer's
/// whole point is reaching states no test reached before — the solver
/// panicking on a generated scenario *is* a finding) is caught and
/// reported as a divergence too, so one crash cannot kill a campaign
/// and the shrinker can minimize crashing scenarios like any other.
///
/// # Errors
///
/// An `Err` is a genuine conformance divergence, not an I/O-style error.
pub fn run_check(
    kind: CheckKind,
    spec: &ProcScenario,
    settings: &CheckSettings,
) -> Result<(), String> {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match kind {
        CheckKind::WarmColdMpc => check_warm_cold_mpc(spec, settings),
        CheckKind::QpWarmCold => check_qp_warm_cold(spec, settings),
        CheckKind::Parallelism => check_parallelism(spec, settings),
        CheckKind::Inference => check_inference(spec),
        CheckKind::HsaWindow => check_hsa_window(spec),
        CheckKind::HsaGuard => check_hsa_guard(spec),
        CheckKind::Determinism => check_determinism(spec, settings),
        CheckKind::BatchedSingleIl => check_batched_single_il(spec),
        CheckKind::SimdScalarKernels => check_simd_scalar_kernels(spec, settings),
        CheckKind::CheckpointRestoreReplay => check_checkpoint_restore_replay(spec, settings),
        CheckKind::FamilyDeterminism => check_family_determinism(spec, settings),
        CheckKind::WeightVersionPinning => check_weight_version_pinning(spec, settings),
        CheckKind::InjectedCanary => check_injected_canary(spec),
    }));
    match outcome {
        Ok(result) => result,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(format!("panicked: {msg}"))
        }
    }
}

fn episode_config(settings: &CheckSettings) -> EpisodeConfig {
    EpisodeConfig {
        max_time: settings.episode_time,
        record_trace: false,
    }
}

/// Replays a (typically minimized) scenario with an instrumented CO
/// policy and returns the nonzero telemetry counters — the solver
/// behavior context (ADMM iterations, regularization bumps, cold
/// restarts, numerical errors, …) that the triage report attaches to
/// each divergence.
///
/// Deterministic for a fixed spec and settings (only counters are taken,
/// never timing histograms). A panic during the replay yields an empty
/// snapshot rather than killing the campaign.
pub fn telemetry_snapshot(spec: &ProcScenario, settings: &CheckSettings) -> Vec<(String, u64)> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let scenario = spec.build();
        let config = ICoilConfig::default();
        let mut policy = PureCoPolicy::new(&config, &scenario);
        let mut world = World::new(scenario);
        let result = run_episode(&mut world, &mut policy, &episode_config(settings));
        icoil_core::eval::drain_episode_metrics(&mut policy, &result).counter_snapshot()
    }))
    .unwrap_or_default()
}

/// Drives one CO episode with the solve log enabled, then re-solves a
/// stride of the recorded per-frame inputs cold (fresh memory, no warm
/// start) and compares each cold first control against the warm-started
/// solution the episode actually used.
///
/// Re-solving *identical inputs* is the point: comparing whole warm vs
/// cold episodes would feed tiny numeric differences back through the
/// plant dynamics and compound them chaotically, making any tolerance
/// either vacuous or flaky. Here divergence means the warm start itself
/// changed the answer.
fn check_warm_cold_mpc(spec: &ProcScenario, settings: &CheckSettings) -> Result<(), String> {
    let scenario = spec.build();
    let config = ICoilConfig::default();
    let params = scenario.vehicle_params;
    let co_config: CoConfig = config.co;
    let mut policy = PureCoPolicy::new(&config, &scenario);
    policy.co_mut().enable_solve_log();
    let mut world = World::new(scenario);
    let _ = run_episode(&mut world, &mut policy, &episode_config(settings));
    let log = policy.co_mut().take_solve_log();

    for (i, record) in log.iter().enumerate() {
        if i % settings.cold_stride != 0 {
            continue;
        }
        let SolveRecord {
            state,
            reference,
            tracked,
            warm,
        } = record;
        let cold = solve_mpc(state, reference, tracked, &params, &co_config);
        let da = (warm.controls[0][0] - cold.controls[0][0]).abs();
        let ds = (warm.controls[0][1] - cold.controls[0][1]).abs();
        if da > settings.mpc_tolerance || ds > settings.mpc_tolerance {
            // The SCP linearizes around a nominal seeded from the warm
            // solution, so warm and cold runs may settle in different
            // local solutions — routinely with the warm one *better*
            // (that is the point of warm-starting), and sometimes in a
            // *worse-cost* basin. A converged worse-cost solution with
            // equal-or-better predicted safety is inherent SCP
            // multi-modality, not a defect: neither basin is "the"
            // answer, and the closed loop re-plans next frame. What the
            // contract does forbid:
            //  * the warm solution being meaningfully *less safe* than
            //    the cold reference, regardless of cost;
            //  * a worse-cost, not-safer solution produced by a solve
            //    that never converged (every SCP pass burned its full
            //    ADMM budget) — the MPC's own best-of-warm-and-cold
            //    fallback must have caught that, so seeing one here is
            //    a real regression in the fallback.
            let cost_gap =
                (warm.tracking_cost - cold.tracking_cost) / cold.tracking_cost.abs().max(1e-9);
            let viol_gap = warm.predicted_violation - cold.predicted_violation;
            let capped = warm.qp_iterations >= co_config.scp_iterations * MPC_QP_MAX_ITERS;
            let pathological_cost =
                capped && cost_gap > settings.mpc_cost_slack && viol_gap > -1e-9;
            if pathological_cost || viol_gap > settings.mpc_violation_slack {
                return Err(format!(
                    "solve {i}: warm {:?} vs cold {:?} (|da|={da:.2e}, |ds|={ds:.2e}, \
                     cost {:.4} vs {:.4} (gap {cost_gap:.2e}), violation gap {viol_gap:.2e}, \
                     warm iters {}, cold iters {})",
                    warm.controls[0],
                    cold.controls[0],
                    warm.tracking_cost,
                    cold.tracking_cost,
                    warm.qp_iterations,
                    cold.qp_iterations
                ));
            }
        }
    }
    Ok(())
}

/// Solves seeded random strictly convex QPs cold, then warm-started from
/// their own solutions: the warm solve must land on the same optimum.
fn check_qp_warm_cold(spec: &ProcScenario, settings: &CheckSettings) -> Result<(), String> {
    let mut rng = SmallRng::seed_from_u64(spec.seed.wrapping_mul(0x9e3779b97f4a7c15));
    for trial in 0..4 {
        let n = 4 + (trial % 3) * 2;
        let m = n + 4;
        // P = MᵀM + 0.1 I is symmetric positive definite
        let mut mdata = vec![0.0; n * n];
        for v in mdata.iter_mut() {
            *v = rng.gen_range(-1.0..1.0);
        }
        let mmat = Mat::from_vec(n, n, mdata);
        let mut p = mmat.gram();
        for i in 0..n {
            *p.at_mut(i, i) += 0.1;
        }
        let q: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut adata = vec![0.0; m * n];
        for v in adata.iter_mut() {
            *v = rng.gen_range(-1.0..1.0);
        }
        let a = Mat::from_vec(m, n, adata);
        let l: Vec<f64> = (0..m).map(|_| rng.gen_range(-2.0..0.0)).collect();
        let u: Vec<f64> = l.iter().map(|lo| lo + rng.gen_range(0.5..3.0)).collect();
        let problem = QpProblem::new(p, q, a, l, u).expect("consistent random QP");
        // generous budget: the warm-start contract needs a *converged*
        // cold optimum to anchor to
        let qp_settings = QpSettings {
            max_iters: 20_000,
            ..QpSettings::default()
        };

        let cold = solve_qp(&problem, &qp_settings);
        if cold.status != QpStatus::Solved {
            // no optimum to compare against — ADMM on a random
            // ill-conditioned QP can legitimately outlast any fixed
            // budget, and warm-starting from a non-optimum then running
            // further proves nothing either way
            continue;
        }
        let warm_start = QpWarmStart::from_solution(&cold);
        let mut workspace = QpWorkspace::new();
        let warm = solve_qp_warm(&problem, &qp_settings, Some(&warm_start), &mut workspace);
        let worst = cold
            .x
            .iter()
            .zip(&warm.x)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max);
        if worst > settings.qp_tolerance {
            return Err(format!(
                "trial {trial}: warm-started primal drifted {worst:.2e} from the cold optimum \
                 (n={n}, m={m}, cold iters {}, warm iters {})",
                cold.iterations, warm.iterations
            ));
        }
        if warm.iterations > cold.iterations {
            return Err(format!(
                "trial {trial}: warm start made ADMM slower ({} > {} iterations)",
                warm.iterations, cold.iterations
            ));
        }
    }
    Ok(())
}

/// Runs a small batch of generated scenarios at `parallelism = 1` and
/// `parallelism = batch` and demands bit-identical result vectors.
fn check_parallelism(spec: &ProcScenario, settings: &CheckSettings) -> Result<(), String> {
    let gen = icoil_world::ProcGen::default();
    let mut scenarios: Vec<Scenario> = vec![spec.build()];
    for i in 1..settings.batch as u64 {
        scenarios.push(gen.generate(spec.seed.wrapping_add(i * 7919)).build());
    }
    let config = ICoilConfig::default();
    let episode = EpisodeConfig {
        // parallel workers only pay off over full episodes; keep these short
        max_time: (settings.episode_time * 0.5).max(3.0),
        record_trace: false,
    };
    let factory = |s: &Scenario| -> Box<dyn Policy> { Box::new(PureCoPolicy::new(&config, s)) };
    let serial = run_scenarios_with(
        &scenarios,
        factory,
        &episode,
        &EvalConfig::with_parallelism(1),
    );
    let parallel = run_scenarios_with(
        &scenarios,
        factory,
        &episode,
        &EvalConfig::with_parallelism(settings.batch.max(2)),
    );
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        if s != p {
            return Err(format!(
                "episode {i}: serial {:?}/{} frames vs parallel {:?}/{} frames",
                s.outcome, s.frames, p.outcome, p.frames
            ));
        }
    }
    Ok(())
}

/// Feeds real sensing frames from the scenario through both inference
/// paths ([`IlModel::infer`] with `InferBuffers` vs
/// [`IlModel::infer_reference`] through the allocating `forward()`),
/// plus one random-tensor probe at the network level — all bit-exact.
fn check_inference(spec: &ProcScenario) -> Result<(), String> {
    let scenario = spec.build();
    let config = ICoilConfig::default();
    let mut model = IlModel::untrained(ActionCodec::default(), config.bev, spec.seed ^ 0xA5A5);
    let mut perception = Perception::new(config.bev, &scenario);
    let mut world = World::new(scenario);
    for frame in 0..3 {
        let sensing = perception.observe(&Observation::new(&world));
        let fast = model.infer(&sensing.bev);
        let reference = model.infer_reference(&sensing.bev);
        if fast != reference {
            return Err(format!(
                "frame {frame}: buffered class {} probs[0..3] {:?} vs reference class {} \
                 probs[0..3] {:?}",
                fast.class,
                &fast.probs[..3.min(fast.probs.len())],
                reference.class,
                &reference.probs[..3.min(reference.probs.len())]
            ));
        }
        for _ in 0..10 {
            world.step(&icoil_vehicle::Action::forward(0.3, 0.05));
        }
    }
    // network-level probe on a random tensor, away from BEV statistics
    let mut rng = SmallRng::seed_from_u64(spec.seed ^ 0x5A5A);
    let size = config.bev.size;
    let mut x = Tensor::zeros(vec![1, icoil_perception::BevImage::CHANNELS, size, size]);
    for v in x.data_mut() {
        *v = rng.gen_range(-1.0_f64..1.0) as f32;
    }
    let mut buffers = icoil_nn::InferBuffers::new();
    let mut buffered = Tensor::default();
    let network = model.network_mut();
    network.forward_batch_into(&[x.data()], &x.shape()[1..], &mut buffers, &mut buffered);
    let forward = network.forward(&x, false);
    if buffered.data() != forward.data() {
        return Err("network-level forward_batch_into differs from forward()".to_string());
    }
    Ok(())
}

/// Replays a seeded synthetic stream of softmax distributions and
/// obstacle sets through [`Hsa`] and through a naive reference
/// implementation of eqs. 7–8 (explicit window vectors, no running
/// sums), comparing every decision's uncertainty/complexity values.
fn check_hsa_window(spec: &ProcScenario) -> Result<(), String> {
    let scenario = spec.build();
    let hsa_config = HsaConfig::default();
    let mut hsa = Hsa::new(hsa_config);
    let cx = ComplexityParams::default();
    let mut u_window: Vec<f64> = Vec::new();
    let mut c_window: Vec<f64> = Vec::new();
    let mut rng = SmallRng::seed_from_u64(spec.seed ^ 0xC0FFEE);
    let ego = scenario.start_state.pose.position();
    for frame in 0..120 {
        // random but normalized probability vector
        let mut probs: Vec<f64> = (0..21).map(|_| rng.gen_range(0.01..1.0)).collect();
        let sum: f64 = probs.iter().sum();
        for p in probs.iter_mut() {
            *p /= sum;
        }
        // obstacle boxes from the scenario at a crawling timestamp
        let boxes = scenario.obstacle_footprints(frame as f64 * 0.05);

        hsa.set_ego_position(ego);
        let decision = hsa.update(&probs, &boxes);

        u_window.push(instant_uncertainty(&probs));
        c_window.push(instant_complexity(ego, &boxes, &cx));
        if u_window.len() > hsa_config.window {
            u_window.remove(0);
            c_window.remove(0);
        }
        let u_ref = u_window.iter().sum::<f64>() / u_window.len() as f64;
        let c_ref = c_window.iter().sum::<f64>() / c_window.len() as f64;
        let u_err = (decision.uncertainty - u_ref).abs() / u_ref.abs().max(1e-12);
        let c_err = (decision.complexity - c_ref).abs() / c_ref.abs().max(1e-12);
        if u_err > 1e-9 || c_err > 1e-9 {
            return Err(format!(
                "frame {frame}: window means drifted from the naive reference \
                 (U {:.12e} vs {u_ref:.12e}, C {:.12e} vs {c_ref:.12e})",
                decision.uncertainty, decision.complexity
            ));
        }
    }
    Ok(())
}

/// Drives [`Hsa`] with an adversarial alternating stream engineered to
/// request a flip every frame, and checks that committed mode changes
/// stay at least `guard_time` frames apart.
fn check_hsa_guard(spec: &ProcScenario) -> Result<(), String> {
    let scenario = spec.build();
    let hsa_config = HsaConfig::default();
    let mut hsa = Hsa::new(hsa_config);
    let ego = scenario.start_state.pose.position();
    let boxes = scenario.obstacle_footprints(0.0);
    let mut rng = SmallRng::seed_from_u64(spec.seed ^ 0xBADCAFE);
    // near-one-hot distribution → tiny entropy → IL requested;
    // uniform → large entropy → CO requested
    let confident: Vec<f64> = {
        let mut p = vec![1e-12; 21];
        p[3] = 1.0 - 20e-12;
        p
    };
    let uniform: Vec<f64> = vec![1.0 / 21.0; 21];

    let mut last_mode: Option<Mode> = None;
    let mut last_flip: Option<usize> = None;
    for frame in 0..600 {
        // random phase lengths keep the stream from syncing to the guard
        let probs = if rng.gen_range(0.0..1.0) < 0.5 {
            &confident
        } else {
            &uniform
        };
        hsa.set_ego_position(ego);
        let decision = hsa.update(probs, &boxes);
        if let Some(prev) = last_mode {
            if decision.mode != prev {
                if let Some(prev_flip) = last_flip {
                    let gap = frame - prev_flip;
                    if gap < hsa_config.guard_time {
                        return Err(format!(
                            "mode flipped after {gap} frames at frame {frame} \
                             (guard_time = {})",
                            hsa_config.guard_time
                        ));
                    }
                }
                last_flip = Some(frame);
            }
        }
        last_mode = Some(decision.mode);
    }
    Ok(())
}

/// Runs the same scenario twice through fresh policies; the results must
/// be bit-identical (no hidden global state, no address-dependent math).
fn check_determinism(spec: &ProcScenario, settings: &CheckSettings) -> Result<(), String> {
    let config = ICoilConfig::default();
    let episode = EpisodeConfig {
        max_time: (settings.episode_time * 0.5).max(3.0),
        record_trace: true,
    };
    let run = || {
        let scenario = spec.build();
        let mut policy = PureCoPolicy::new(&config, &scenario);
        let mut world = World::new(scenario);
        run_episode(&mut world, &mut policy, &episode)
    };
    let first = run();
    let second = run();
    if first != second {
        return Err(format!(
            "re-running the episode diverged: {:?}/{} frames vs {:?}/{} frames",
            first.outcome, first.frames, second.outcome, second.frames
        ));
    }
    Ok(())
}

/// Captures a stream of real BEV frames from the scenario, then runs
/// them through [`IlModel::infer_batch`] at several batch widths and
/// demands every row be *bitwise* equal to the single-sample
/// [`IlModel::infer`] of the same frame — the property the serving
/// engine's determinism contract rests on: batch composition must never
/// leak into any co-batched session's trajectory.
fn check_batched_single_il(spec: &ProcScenario) -> Result<(), String> {
    let scenario = spec.build();
    let config = ICoilConfig::default();
    let mut model = IlModel::untrained(ActionCodec::default(), config.bev, spec.seed ^ 0x17E5);
    let mut perception = Perception::new(config.bev, &scenario);
    let mut world = World::new(scenario);
    let images: Vec<_> = (0..16)
        .map(|_| {
            let bev = perception.observe(&Observation::new(&world)).bev;
            for _ in 0..3 {
                world.step(&icoil_vehicle::Action::forward(0.3, 0.05));
            }
            bev
        })
        .collect();
    let singles: Vec<_> = images.iter().map(|img| model.infer(img)).collect();
    for width in [1usize, 2, 7, 16] {
        let refs: Vec<_> = images[..width].iter().collect();
        let batched = model.infer_batch(&refs);
        for (row, (b, s)) in batched.iter().zip(&singles[..width]).enumerate() {
            if b != s {
                return Err(format!(
                    "batch width {width}, row {row}: batched class {} probs[0..3] {:?} vs \
                     single class {} probs[0..3] {:?}",
                    b.class,
                    &b.probs[..3.min(b.probs.len())],
                    s.class,
                    &s.probs[..3.min(s.probs.len())]
                ));
            }
        }
    }
    Ok(())
}

/// Replays recorded MPC inputs and real BEV frames through the kernel
/// layer twice — once with the scalar reference forced, once with the
/// detected SIMD backend — and holds each side to its declared
/// conformance mode: the solver's `f64` kernels are contracted *bitwise*
/// (no FMA, scalar-order reductions), so whole recorded solves must be
/// bit-identical; the IL `f32` kernels are contracted to ULP-level
/// agreement (FMA tolerated), so inference probabilities are compared
/// within a small tolerance instead. On machines without AVX2 both runs
/// dispatch to scalar and the check passes trivially.
///
/// Where the CPU has AVX-512, a third leg runs the same frames through
/// the `Avx512` and `Avx2` IL backends, one at a time and as one batch,
/// and demands bit-identical probabilities and classes: served
/// trajectories are the same across hosts only because those two agree.
fn check_simd_scalar_kernels(spec: &ProcScenario, settings: &CheckSettings) -> Result<(), String> {
    use icoil_solver::simd::KernelBackend;

    // --- solver leg: recorded MPC solves, bitwise ---
    let scenario = spec.build();
    let config = ICoilConfig::default();
    let params = scenario.vehicle_params;
    let co_config: CoConfig = config.co;
    let mut policy = PureCoPolicy::new(&config, &scenario);
    policy.co_mut().enable_solve_log();
    let mut world = World::new(scenario);
    let _ = run_episode(&mut world, &mut policy, &episode_config(settings));
    let log = policy.co_mut().take_solve_log();

    for (i, record) in log.iter().enumerate() {
        if i % settings.cold_stride != 0 {
            continue;
        }
        let SolveRecord {
            state,
            reference,
            tracked,
            ..
        } = record;
        let scalar = icoil_solver::simd::with_backend(KernelBackend::Scalar, || {
            solve_mpc(state, reference, tracked, &params, &co_config)
        });
        let simd = icoil_solver::simd::with_backend(icoil_solver::simd::detected(), || {
            solve_mpc(state, reference, tracked, &params, &co_config)
        });
        if scalar != simd {
            return Err(format!(
                "solve {i}: scalar and SIMD kernel paths diverged on a bitwise-contracted \
                 solve (scalar cost {:.17e}, {} iters vs simd cost {:.17e}, {} iters)",
                scalar.tracking_cost, scalar.qp_iterations, simd.tracking_cost, simd.qp_iterations
            ));
        }
    }

    // --- IL leg: real BEV frames, ULP-tolerance ---
    let scenario = spec.build();
    let mut model = IlModel::untrained(ActionCodec::default(), config.bev, spec.seed ^ 0x51D0);
    let mut perception = Perception::new(config.bev, &scenario);
    let mut world = World::new(scenario);
    let mut frames = Vec::new();
    for frame in 0..4 {
        let sensing = perception.observe(&Observation::new(&world));
        let scalar = icoil_nn::simd::with_backend(icoil_nn::KernelBackend::Scalar, || {
            model.infer(&sensing.bev)
        });
        let simd =
            icoil_nn::simd::with_backend(icoil_nn::simd::detected(), || model.infer(&sensing.bev));
        let worst = scalar
            .probs
            .iter()
            .zip(&simd.probs)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max);
        // f32 forward pass, FMA tolerated: softmax outputs may differ in
        // the last few ulps but nowhere near decision-relevant scale
        if worst > 1e-4 {
            return Err(format!(
                "frame {frame}: IL probabilities drifted {worst:.2e} between scalar and \
                 SIMD kernels (tolerance 1e-4)"
            ));
        }
        // a class flip is only legitimate at an exact near-tie
        if scalar.class != simd.class {
            let gap = (scalar.probs[scalar.class] - scalar.probs[simd.class]).abs();
            if gap > 1e-6 {
                return Err(format!(
                    "frame {frame}: argmax flipped ({} vs {}) with a non-tied gap {gap:.2e}",
                    scalar.class, simd.class
                ));
            }
        }
        frames.push(sensing.bev);
        for _ in 0..8 {
            world.step(&icoil_vehicle::Action::forward(0.3, 0.05));
        }
    }

    // --- IL leg, AVX-512 against AVX2: bitwise ---
    use icoil_nn::KernelBackend::{Avx2, Avx512};
    if icoil_nn::simd::supported(Avx512) {
        let images: Vec<&icoil_perception::BevImage> = frames.iter().collect();
        let mut run = |backend| {
            icoil_nn::simd::with_backend(backend, || {
                let mut results: Vec<_> = images.iter().map(|image| model.infer(image)).collect();
                results.extend(model.infer_batch(&images));
                results
            })
        };
        let (avx2, avx512) = (run(Avx2), run(Avx512));
        for (i, (a, b)) in avx2.iter().zip(&avx512).enumerate() {
            let same_bits = a.probs.len() == b.probs.len()
                && a.probs
                    .iter()
                    .zip(&b.probs)
                    .all(|(x, y)| x.to_bits() == y.to_bits());
            if a.class != b.class || !same_bits {
                let (frame, how) = if i < frames.len() {
                    (i, "alone")
                } else {
                    (i - frames.len(), "in a batch")
                };
                return Err(format!(
                    "frame {frame} {how}: AVX-512 IL output differs from AVX2 (class {} vs {}, \
                     probs[0..3] {:?} vs {:?})",
                    b.class,
                    a.class,
                    &b.probs[..3.min(b.probs.len())],
                    &a.probs[..3.min(a.probs.len())]
                ));
            }
        }
    }
    Ok(())
}

/// Frame-by-frame bitwise comparison of two served response streams,
/// ignoring only the session id field (a restored-into-a-fresh-engine
/// twin legitimately reuses the original id, but a from-scratch twin
/// gets a new one).
fn same_stream(
    reference: &[icoil_serve::StepResponse],
    got: &[icoil_serve::StepResponse],
    what: &str,
) -> Result<(), String> {
    if reference.len() != got.len() {
        return Err(format!(
            "{what}: stream lengths differ ({} vs {})",
            reference.len(),
            got.len()
        ));
    }
    for (i, (a, b)) in reference.iter().zip(got).enumerate() {
        let mut b = b.clone();
        b.session = a.session;
        if *a != b {
            return Err(format!(
                "{what}: frame {i} diverged (reference frame {} t {:.6} x {:.17e} \
                 mode {} vs frame {} t {:.6} x {:.17e} mode {})",
                a.frame, a.time, a.x, a.mode, b.frame, b.time, b.x, b.mode
            ));
        }
    }
    Ok(())
}

/// Runs the generated scenario through the serving engine, evicts the
/// session at a seed-fuzzed frame, and restores the snapshot three ways
/// — back into the same engine, and into two fresh engines at shard
/// counts 1 and 3 — demanding the remaining trajectory be bitwise
/// identical to an uninterrupted reference run in every case, and that
/// the two fresh engines end with identical telemetry counters. This is
/// the end-to-end form of the serve crate's checkpoint contract: a
/// snapshot carries *every* bit of episode state the next frame reads
/// (warm-start memory, HSA windows, adapted solver scaling included),
/// on any shard layout, in any process.
fn check_checkpoint_restore_replay(
    spec: &ProcScenario,
    settings: &CheckSettings,
) -> Result<(), String> {
    use icoil_serve::{Serve, ServeConfig, SessionSpec};
    use std::time::Duration;

    // ~2 s of simulated driving (1.2 s under smoke settings): enough
    // frames for warm starts, HSA windows and mode flips to accumulate
    // state that a lossy snapshot would betray
    let total: usize = if settings.episode_time >= 12.0 {
        40
    } else {
        24
    };
    let mut rng = SmallRng::seed_from_u64(spec.seed ^ 0xC0DE_5EED);
    let cut = rng.gen_range(1..total);

    // a generous deadline and deep queue make sheds impossible, so the
    // trajectory is the pure function of the scenario the contract needs
    let config = |shards: usize| ServeConfig {
        shards,
        co_deadline: Duration::from_secs(30),
        queue_capacity: 64,
        ..ServeConfig::default()
    };
    let model = || {
        IlModel::untrained(
            ActionCodec::default(),
            ICoilConfig::default().bev,
            spec.seed ^ 0x1C01,
        )
    };
    let session_spec = || SessionSpec::Scenario(Box::new(spec.build()));

    // reference: one uninterrupted session
    let reference = {
        let server = Serve::start(config(1), model());
        let handle = server.handle();
        let id = handle
            .create(session_spec())
            .map_err(|e| format!("create reference: {e}"))?;
        let stream: Result<Vec<_>, _> = (0..total).map(|_| handle.step(id)).collect();
        server.shutdown();
        stream.map_err(|e| format!("step reference: {e}"))?
    };
    if reference.iter().any(|r| r.shed) {
        return Err("reference run shed under a 30 s deadline".to_string());
    }

    // interrupted twin: evict at the fuzzed cut, restore in-process
    let bytes = {
        let server = Serve::start(config(2), model());
        let handle = server.handle();
        let id = handle
            .create(session_spec())
            .map_err(|e| format!("create twin: {e}"))?;
        let mut twin = Vec::with_capacity(total);
        for frame in 0..cut {
            twin.push(
                handle
                    .step(id)
                    .map_err(|e| format!("twin frame {frame}: {e}"))?,
            );
        }
        let bytes = handle
            .evict(id)
            .map_err(|e| format!("evict at frame {cut}: {e}"))?;
        let back = handle
            .restore(&bytes)
            .map_err(|e| format!("in-process restore: {e}"))?;
        if back != id {
            return Err(format!("in-process restore renamed session {id} to {back}"));
        }
        for frame in cut..total {
            twin.push(
                handle
                    .step(id)
                    .map_err(|e| format!("restored twin frame {frame}: {e}"))?,
            );
        }
        server.shutdown();
        same_stream(&reference, &twin, "in-process evict+restore")?;

        // the same bytes restore into fresh engines below
        bytes
    };

    // fresh engines at two shard counts resume the same snapshot
    let mut tails = Vec::new();
    let mut counters = Vec::new();
    for shards in [1usize, 3] {
        let server = Serve::start(config(shards), model());
        let handle = server.handle();
        let id = handle
            .restore(&bytes)
            .map_err(|e| format!("fresh restore at {shards} shard(s): {e}"))?;
        let tail: Result<Vec<_>, _> = (cut..total).map(|_| handle.step(id)).collect();
        let tail = tail.map_err(|e| format!("fresh tail at {shards} shard(s): {e}"))?;
        let metrics = handle
            .metrics()
            .map_err(|e| format!("metrics at {shards} shard(s): {e}"))?;
        counters.push(metrics.counter_snapshot());
        server.shutdown();
        same_stream(
            &reference[cut..],
            &tail,
            &format!("fresh restore at {shards} shard(s)"),
        )?;
        tails.push(tail);
    }
    if tails[0] != tails[1] {
        return Err("fresh restores at shard counts 1 and 3 diverged from each other".to_string());
    }
    if counters[0] != counters[1] {
        return Err(format!(
            "telemetry counters differ across shard counts after identical restored \
             replays: {:?} vs {:?}",
            counters[0], counters[1]
        ));
    }
    Ok(())
}

/// Runs the full iCOIL stack (IL + HSA + CO) twice on the generated
/// scenario — whichever map family it belongs to — and demands
/// bit-identical episodes and telemetry counters, plus agreement between
/// the post-hoc trace-derived gear-reversal count and the policy's live
/// `gear_reversals` counter. The fuzz loop pins every family in turn, so
/// structural obstacles (framing cars, pillar grids, dead-end walls) and
/// scripted crowds all pass through this sweep.
fn check_family_determinism(spec: &ProcScenario, settings: &CheckSettings) -> Result<(), String> {
    let config = ICoilConfig::default();
    let episode = EpisodeConfig {
        max_time: (settings.episode_time * 0.5).max(3.0),
        record_trace: true,
    };
    let family = spec.family.kind().name();
    let run = || {
        let scenario = spec.build();
        let model = IlModel::untrained(ActionCodec::default(), config.bev, spec.seed ^ 0xFA31);
        let mut policy = ICoilPolicy::new(&config, model, &scenario);
        let mut world = World::new(scenario);
        let result = run_episode(&mut world, &mut policy, &episode);
        let counters =
            icoil_core::eval::drain_episode_metrics(&mut policy, &result).counter_snapshot();
        (result, counters)
    };
    let (first, first_counters) = run();
    let (second, second_counters) = run();
    if first != second {
        return Err(format!(
            "family {family}: re-running the full-stack episode diverged: \
             {:?}/{} frames vs {:?}/{} frames",
            first.outcome, first.frames, second.outcome, second.frames
        ));
    }
    if first_counters != second_counters {
        return Err(format!(
            "family {family}: telemetry counters diverged across identical replays: \
             {first_counters:?} vs {second_counters:?}"
        ));
    }
    let traced = gear_reversals(&first.trace) as u64;
    let counted = first_counters
        .iter()
        .find(|(name, _)| name == "gear_reversals")
        .map(|&(_, v)| v)
        .unwrap_or(0);
    if traced != counted {
        return Err(format!(
            "family {family}: trace-derived gear reversals {traced} disagree with the \
             live counter {counted}"
        ));
    }
    Ok(())
}

/// Exercises the versioned-weight serving contract end to end on the
/// generated scenario:
///
/// * a session created before a mid-episode hot-swap keeps the
///   generation pinned at its creation to the very end and replays
///   bitwise against a reference server that never swaps;
/// * a session created after the publish rides the new generation;
/// * a snapshot carrying a generation the target server never published
///   is refused with the typed [`UnknownWeightVersion`] error instead of
///   silently replaying on different weights;
/// * the IL-lane safety projection is idempotent — re-projecting a
///   projected action returns it bitwise unchanged and reports no clip,
///   and actions the first pass already found feasible pass through
///   untouched.
///
/// [`UnknownWeightVersion`]: icoil_serve::ServeError::UnknownWeightVersion
fn check_weight_version_pinning(
    spec: &ProcScenario,
    settings: &CheckSettings,
) -> Result<(), String> {
    use icoil_adapt::{SafetyProjector, WeightStore};
    use icoil_serve::{Serve, ServeConfig, ServeError, SessionSpec};
    use std::sync::Arc;
    use std::time::Duration;

    let total: usize = if settings.episode_time >= 12.0 {
        40
    } else {
        24
    };
    let mut rng = SmallRng::seed_from_u64(spec.seed ^ 0x5AFE_11A0);
    let swap_at = rng.gen_range(1..total);

    // a generous deadline and deep queue make sheds impossible, so both
    // streams are pure functions of (scenario, pinned weights)
    let config = || ServeConfig {
        co_deadline: Duration::from_secs(30),
        queue_capacity: 64,
        ..ServeConfig::default()
    };
    let pinned_model = || {
        IlModel::untrained(
            ActionCodec::default(),
            ICoilConfig::default().bev,
            spec.seed ^ 0xA11A,
        )
    };
    let next_model = || {
        IlModel::untrained(
            ActionCodec::default(),
            ICoilConfig::default().bev,
            spec.seed ^ 0xB22B,
        )
    };
    let session_spec = || SessionSpec::Scenario(Box::new(spec.build()));

    // reference: generation 0 only, never swapped
    let reference = {
        let server = Serve::start(config(), pinned_model());
        let handle = server.handle();
        let id = handle
            .create(session_spec())
            .map_err(|e| format!("create reference: {e}"))?;
        let stream: Result<Vec<_>, _> = (0..total).map(|_| handle.step(id)).collect();
        server.shutdown();
        stream.map_err(|e| format!("step reference: {e}"))?
    };

    // hot-swap twin: generation 1 goes live at the fuzzed frame
    let store = Arc::new(WeightStore::new(pinned_model()));
    let server = Serve::start_with_store(config(), Arc::clone(&store));
    let handle = server.handle();
    let pinned = handle
        .create(session_spec())
        .map_err(|e| format!("create pinned session: {e}"))?;
    let mut stream = Vec::with_capacity(total);
    for frame in 0..swap_at {
        stream.push(
            handle
                .step(pinned)
                .map_err(|e| format!("pinned frame {frame}: {e}"))?,
        );
    }
    let published = store.publish(next_model(), 1);
    if published != 1 {
        return Err(format!(
            "publishing the second generation returned version {published}, expected 1"
        ));
    }
    let fresh = handle
        .create(session_spec())
        .map_err(|e| format!("create post-swap session: {e}"))?;
    let first = handle
        .step(fresh)
        .map_err(|e| format!("post-swap step: {e}"))?;
    if first.weight_version != 1 {
        return Err(format!(
            "a session created after the publish reports weight version {}, expected 1",
            first.weight_version
        ));
    }
    for frame in swap_at..total {
        stream.push(
            handle
                .step(pinned)
                .map_err(|e| format!("pinned frame {frame} after the swap: {e}"))?,
        );
    }
    if let Some(r) = stream.iter().find(|r| r.weight_version != 0) {
        return Err(format!(
            "the pinned session drifted to weight version {} at frame {}",
            r.weight_version, r.frame
        ));
    }
    same_stream(
        &reference,
        &stream,
        &format!("pinned session across a swap at frame {swap_at}"),
    )?;

    // a generation-1 snapshot is refused by a server that never
    // published generation 1
    let bytes = handle
        .evict(fresh)
        .map_err(|e| format!("evict post-swap session: {e}"))?;
    server.shutdown();
    let stale = Serve::start(config(), pinned_model());
    let refused = stale.handle().restore(&bytes);
    stale.shutdown();
    match refused {
        Err(ServeError::UnknownWeightVersion(1)) => {}
        Ok(_) => {
            return Err(
                "a generation-1 snapshot restored onto a server that only knows generation 0"
                    .to_string(),
            )
        }
        Err(other) => {
            return Err(format!(
                "expected UnknownWeightVersion(1) refusing the stale restore, got: {other}"
            ))
        }
    }

    // safety projection idempotence on real frames of this scenario,
    // over the whole action codebook
    let scenario = spec.build();
    let params = scenario.vehicle_params;
    let icoil = ICoilConfig::default();
    let mut safety = icoil.safety;
    safety.enabled = true;
    let projector = SafetyProjector::new(safety);
    let codec = ActionCodec::default();
    let mut perception = Perception::new(icoil.bev, &scenario);
    let mut world = World::new(scenario);
    for frame in 0..8 {
        let sensing = perception.observe(&Observation::new(&world));
        for class in 0..codec.num_classes() {
            let action = codec.decode(class);
            let once = projector.project(world.ego(), &params, &sensing.boxes, action);
            let twice = projector.project(world.ego(), &params, &sensing.boxes, once.action);
            if twice.clipped || twice.action != once.action {
                return Err(format!(
                    "safety projection is not idempotent at frame {frame} class {class}: \
                     first pass {:?} (clipped {}), second pass {:?} (clipped {})",
                    once.action, once.clipped, twice.action, twice.clipped
                ));
            }
            if !once.clipped && once.action != action {
                return Err(format!(
                    "an unclipped projection rewrote the action at frame {frame} class \
                     {class}: {:?} -> {:?}",
                    action, once.action
                ));
            }
        }
        for _ in 0..3 {
            world.step(&icoil_vehicle::Action::forward(0.3, 0.05));
        }
    }
    Ok(())
}

/// The canary "fails" whenever the scenario has a dynamic obstacle —
/// a deliberately scenario-dependent defect that exercises the full
/// report-and-shrink path without touching any real subsystem.
fn check_injected_canary(spec: &ProcScenario) -> Result<(), String> {
    if spec.routes.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "canary: scenario carries {} dynamic route(s)",
            spec.routes.len()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icoil_world::ProcGen;

    #[test]
    fn cheap_checks_pass_on_generated_scenarios() {
        let gen = ProcGen::default();
        for seed in 0..3 {
            let spec = gen.generate(seed);
            assert_eq!(check_qp_warm_cold(&spec, &CheckSettings::default()), Ok(()));
            assert_eq!(check_inference(&spec), Ok(()));
            assert_eq!(check_batched_single_il(&spec), Ok(()));
            assert_eq!(check_hsa_window(&spec), Ok(()));
            assert_eq!(check_hsa_guard(&spec), Ok(()));
        }
    }

    #[test]
    fn canary_fires_only_with_dynamics() {
        let gen = ProcGen::default();
        let with = (0..100)
            .map(|s| gen.generate(s))
            .find(|s| !s.routes.is_empty())
            .expect("a dynamic spec exists");
        let without = (0..100)
            .map(|s| gen.generate(s))
            .find(|s| s.routes.is_empty())
            .expect("a static spec exists");
        assert!(check_injected_canary(&with).is_err());
        assert_eq!(check_injected_canary(&without), Ok(()));
    }

    /// Regression for fuzzer seed 182: a warm seed carried across this
    /// scenario's reference strands ADMM (both SCP passes capped) and
    /// used to return a feasible solution 60x costlier than the cold
    /// solve of the same frame. The MPC's cold-restart fallback now
    /// re-solves such frames from scratch, so the differential check
    /// must come back clean on the campaign's minimized repro.
    #[test]
    fn warm_capped_solves_fall_back_to_cold_on_fuzzer_seed_182() {
        use icoil_geom::{Pose2, Vec2};
        use icoil_world::{MapFamily, RouteSpec, StaticSpec};
        let spec = ProcScenario {
            seed: 182,
            lot_w: 30.0,
            lot_h: 18.875938917286458,
            family: MapFamily::ParallelCurb,
            bay_frac: 0.5,
            statics: vec![StaticSpec {
                pose: Pose2::new(8.95577114397386, 7.470088871181514, -2.687110353761553),
                length: 2.8396619358472193,
                width: 2.5529059057700385,
            }],
            routes: vec![RouteSpec {
                waypoints: vec![
                    Vec2::new(3.0301300666644395, 9.105537526822438),
                    Vec2::new(19.55843279652683, 9.105537526822438),
                ],
                speed: 0.7420768441962187,
            }],
            start: Pose2::new(3.1766061701633737, 6.231569360154387, 0.10085374526121449),
            noise_scale: 0.0,
        };
        // the original divergence fired at solve 140 (t = 7.0 s)
        let settings = CheckSettings {
            episode_time: 8.0,
            ..CheckSettings::default()
        };
        assert_eq!(run_check(CheckKind::WarmColdMpc, &spec, &settings), Ok(()));
    }

    #[test]
    fn check_names_are_stable() {
        let names: Vec<&str> = CheckKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            [
                "warm_cold_mpc",
                "qp_warm_cold",
                "parallelism",
                "inference",
                "hsa_window",
                "hsa_guard",
                "determinism",
                "batched_single_il",
                "simd_scalar_kernels",
                "checkpoint_restore_replay",
                "family_determinism",
                "weight_version_pinning"
            ]
        );
    }

    #[test]
    fn weight_version_pinning_check_passes_on_generated_scenarios() {
        let gen = ProcGen::default();
        for seed in [0u64, 7] {
            let spec = gen.generate(seed);
            assert_eq!(
                run_check(
                    CheckKind::WeightVersionPinning,
                    &spec,
                    &CheckSettings::smoke()
                ),
                Ok(()),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn family_determinism_check_passes_on_every_family() {
        for (i, kind) in icoil_world::MapFamilyKind::ALL.into_iter().enumerate() {
            let gen = ProcGen::new(icoil_world::ProcGenConfig {
                family: Some(kind),
                ..icoil_world::ProcGenConfig::default()
            });
            let spec = gen.generate(40 + i as u64);
            assert_eq!(
                run_check(CheckKind::FamilyDeterminism, &spec, &CheckSettings::smoke()),
                Ok(()),
                "family {}",
                kind.name()
            );
        }
    }
}
