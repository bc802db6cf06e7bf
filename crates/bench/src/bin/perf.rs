//! Emits `BENCH_perf.json` — the repo's performance trajectory tracker.
//!
//! Measures four throughput numbers so future changes can be compared
//! against a recorded baseline:
//!
//! * `episodes_per_sec` — closed-loop CO evaluation throughput through
//!   `icoil-core::eval::run_batch_with` at the configured parallelism;
//! * `il_hz` — IL CNN inference rate on a live BEV image (the paper's
//!   §V-E reports 75 Hz);
//! * `il_hz_int8` — the same inference through the calibrated int8
//!   lane; both lanes are timed in interleaved rounds and reported as
//!   per-lane best so the ratio compares kernels, not scheduler luck;
//! * `gemm_gops_int8` — int8 GEMM throughput of the quantized kernel
//!   at the same network-shaped problem size as the f32 GEMM numbers;
//! * `co_hz` / `co_hz_cold` — CO solve rate along an actual drive with
//!   the deployed warm-start memory vs. with the memory cleared every
//!   frame (paper: 18 Hz);
//! * `mean_admm_iters_warm` / `mean_admm_iters_cold` — mean ADMM
//!   iterations per MPC step, the number the QP warm start exists to cut;
//! * `kkt_factor_us_sparse` / `kkt_nnz_ratio` — per-factorization
//!   microseconds of the sparse LDLᵀ's numeric refactorization over the
//!   cached symbolic analysis on the *actual* MPC KKT matrix of a
//!   mid-episode frame, plus that matrix's fill ratio;
//! * `matmul_gflops_{scalar,simd}` — f32 GEMM throughput of the IL
//!   kernel layer with the scalar reference forced vs the detected SIMD
//!   dispatch, at a network-shaped problem size (best-of-N timing,
//!   `kernel_best_of` and `simd_dispatch` record the discipline).
//!
//! The file lands in the working directory (the repo root under
//! `cargo run`). Run sizes honor `ICOIL_EPISODES` and
//! `ICOIL_PARALLELISM`:
//!
//! ```text
//! cargo run --release -p icoil-bench --bin perf
//! ```
//!
//! An untrained IL model is used throughout: inference cost does not
//! depend on the weight values, and it keeps the bin self-contained.

use icoil_bench::{PerfReport, RunSize};
use icoil_co::{build_mpc_qp, CoConfig, CoController};
use icoil_core::{eval, ICoilConfig, Method};
use icoil_solver::{SparseKkt, SparseLdl, SparseMatrix, SymbolicLdl};
use icoil_il::{IlModel, IlPrecision};
use icoil_perception::Perception;
use icoil_telemetry::{Recorder, Series};
use icoil_vehicle::{Action, ActionCodec};
use icoil_world::episode::{EpisodeConfig, Observation};
use icoil_world::{Difficulty, ScenarioConfig};
use std::time::Instant;

/// Drives `frames` control steps in a fresh world, recording per-frame
/// and CO-stage latencies into `recorder`; returns `(frames/sec, mean
/// ADMM iterations per solved frame)`.
fn drive(seed: u64, frames: usize, cold: bool, recorder: &mut Recorder) -> (f64, f64) {
    let scenario = ScenarioConfig::new(Difficulty::Normal, seed).build();
    let params = scenario.vehicle_params;
    let mut perception = Perception::new(ICoilConfig::default().bev, &scenario);
    let mut world = icoil_world::World::new(scenario);
    let mut co = CoController::new(CoConfig::default(), params);
    // Plan the global path outside the timed region.
    let s = perception.observe(&Observation::new(&world));
    let _ = co.control(&Observation::new(&world), &s.boxes);

    let mut iters = 0usize;
    let mut solves = 0usize;
    let t0 = Instant::now();
    for _ in 0..frames {
        if cold {
            co.reset_warm_start();
        }
        let frame_start = Instant::now();
        let s = perception.observe(&Observation::new(&world));
        let co_start = Instant::now();
        let out = co.control(&Observation::new(&world), &s.boxes);
        let co_end = Instant::now();
        recorder.observe(Series::CoSolve, (co_end - co_start).as_secs_f64());
        recorder.observe(Series::FrameTotal, (co_end - frame_start).as_secs_f64());
        if let Some(mpc) = &out.mpc {
            iters += mpc.qp_iterations;
            solves += 1;
        }
        world.step(&out.action);
    }
    let hz = frames as f64 / t0.elapsed().as_secs_f64();
    (hz, iters as f64 / solves.max(1) as f64)
}

/// Rebuilds the MPC KKT matrix (`P + σI + ρAᵀA`) of a mid-episode frame
/// — the matrix every factorization microbenchmark below times against.
fn mpc_kkt_matrix() -> SparseMatrix {
    // Drive a few frames so the logged solve carries a real reference
    // horizon and tracked obstacles, then rebuild that frame's QP.
    let scenario = ScenarioConfig::new(Difficulty::Normal, 3).build();
    let params = scenario.vehicle_params;
    let mut perception = Perception::new(ICoilConfig::default().bev, &scenario);
    let mut world = icoil_world::World::new(scenario);
    let co_config = CoConfig::default();
    let mut co = CoController::new(co_config, params);
    co.enable_solve_log();
    for _ in 0..10 {
        let s = perception.observe(&Observation::new(&world));
        let out = co.control(&Observation::new(&world), &s.boxes);
        world.step(&out.action);
    }
    let log = co.take_solve_log();
    let record = log.last().expect("drive produced MPC solves");
    let nominal_u = vec![[0.0_f64; 2]; record.reference.len()];
    let qp = build_mpc_qp(
        &record.state,
        &nominal_u,
        &record.reference,
        &record.tracked,
        &params,
        &co_config,
    );

    let gram = qp.a().gram();
    let mut kkt = SparseKkt::new(qp.p(), &gram);
    kkt.assemble(qp.p(), &gram, 1e-6, 0.1).clone()
}

/// Times the sparse LDLᵀ numeric refactorization over the cached
/// symbolic analysis on the real mid-episode MPC KKT matrix — the work
/// each ρ-adaptation repeats. Returns `(sparse_us, kkt_fill_ratio)`.
fn kkt_microbench(matrix: &SparseMatrix) -> (f64, f64) {
    let fill = matrix.fill_ratio();

    let reps = 2000;
    let sym = SymbolicLdl::analyze(matrix);
    let mut factor = SparseLdl::factor(sym, matrix).expect("MPC KKT is quasidefinite");
    let t0 = Instant::now();
    for _ in 0..reps {
        factor.refactor(matrix).expect("refactor succeeds");
        std::hint::black_box(&factor);
    }
    let sparse_us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;

    (sparse_us, fill)
}

/// Number of timed repetitions each kernel microbenchmark takes the
/// best of — minimum-of-N suppresses scheduler noise without needing a
/// long run.
const KERNEL_BEST_OF: usize = 5;

/// f32 GEMM throughput (GFLOP/s) through the nn kernel layer under the
/// given backend, at a network-shaped problem size. Best of
/// [`KERNEL_BEST_OF`] timed repetitions.
fn matmul_gflops(backend: icoil_nn::KernelBackend) -> f64 {
    let (m, k, n) = (64usize, 288usize, 256usize);
    // deterministic non-trivial fill; values do not affect timing
    let a: Vec<f32> = (0..m * k).map(|i| ((i * 37 + 11) % 97) as f32 * 0.013 - 0.6).collect();
    let b: Vec<f32> = (0..k * n).map(|i| ((i * 53 + 7) % 89) as f32 * 0.011 - 0.5).collect();
    let mut out = vec![0.0f32; m * n];
    let flops = 2.0 * m as f64 * k as f64 * n as f64;
    let inner = 40;
    let mut best = f64::INFINITY;
    icoil_nn::simd::with_backend(backend, || {
        for _ in 0..KERNEL_BEST_OF {
            let t0 = Instant::now();
            for _ in 0..inner {
                icoil_nn::simd::matmul(&a, m, k, &b, n, &mut out);
                std::hint::black_box(&out);
            }
            best = best.min(t0.elapsed().as_secs_f64() / inner as f64);
        }
    });
    flops / best / 1e9
}

/// int8 GEMM throughput (giga-ops/s) through the nn kernel layer at the
/// same network-shaped problem size as [`matmul_gflops`]; one
/// multiply-add counts as two ops. Best of [`KERNEL_BEST_OF`] timed
/// repetitions.
fn int8_gemm_gops() -> f64 {
    let (m, k, n) = (64usize, 288usize, 256usize);
    // activation codes stay in [0, 127] — the lane's quantizer contract
    let a: Vec<u8> = (0..m * k).map(|i| ((i * 37 + 11) % 128) as u8).collect();
    let b: Vec<i8> = (0..n * k)
        .map(|i| (((i * 53 + 7) % 255) as i32 - 127) as i8)
        .collect();
    let mut out = vec![0i32; m * n];
    let ops = 2.0 * m as f64 * k as f64 * n as f64;
    let inner = 40;
    let mut best = f64::INFINITY;
    for _ in 0..KERNEL_BEST_OF {
        let t0 = Instant::now();
        for _ in 0..inner {
            icoil_nn::simd::gemm_nt_i8(&a, m, k, &b, n, &mut out);
            std::hint::black_box(&out);
        }
        best = best.min(t0.elapsed().as_secs_f64() / inner as f64);
    }
    ops / best / 1e9
}

fn main() {
    let size = RunSize::from_env();
    let config = ICoilConfig::default();
    let mut model = IlModel::untrained(ActionCodec::default(), config.bev, 1);

    // 1) closed-loop evaluation throughput at the configured parallelism
    let scenarios: Vec<ScenarioConfig> = (0..size.episodes)
        .map(|s| ScenarioConfig::new(Difficulty::Easy, s))
        .collect();
    let episode = EpisodeConfig {
        max_time: 30.0,
        record_trace: false,
    };
    let t0 = Instant::now();
    let results = eval::run_batch_with(
        Method::Co,
        &config,
        &model,
        &scenarios,
        &episode,
        &size.eval_config(),
    );
    let episodes_per_sec = results.len() as f64 / t0.elapsed().as_secs_f64();

    // 2) IL inference rate on a live BEV image, f32 vs the calibrated
    //    int8 lane. The two lanes are timed in interleaved rounds and
    //    each reported as its best round, so the recorded ratio compares
    //    the kernels rather than whichever lane the scheduler disturbed.
    let scenario = ScenarioConfig::new(Difficulty::Normal, 3).build();
    let mut perception = Perception::new(config.bev, &scenario);
    let mut world = icoil_world::World::new(scenario);
    let mut calib = Vec::new();
    for _ in 0..12 {
        let sensing = perception.observe(&Observation::new(&world));
        calib.push(sensing.bev);
        world.step(&Action::forward(0.3, 0.05));
    }
    {
        let frames: Vec<&_> = calib.iter().collect();
        model.calibrate_int8(&frames);
    }
    let bev = &calib[0];
    let il_iters = 400;
    let il_rounds = 8;
    let mut lane_best = [f64::INFINITY; 2];
    for _ in 0..il_rounds {
        for (slot, precision) in [IlPrecision::F32, IlPrecision::Int8].into_iter().enumerate() {
            model.set_precision(precision);
            let t0 = Instant::now();
            for _ in 0..il_iters {
                std::hint::black_box(model.infer(bev));
            }
            lane_best[slot] = lane_best[slot].min(t0.elapsed().as_secs_f64() / il_iters as f64);
        }
    }
    model.set_precision(IlPrecision::F32);
    let il_hz = 1.0 / lane_best[0];
    let il_hz_int8 = 1.0 / lane_best[1];

    // 3) CO solve rate and ADMM iteration counts, warm vs. cold; latency
    //    percentiles come from the warm drive's telemetry histograms
    let frames = 60;
    let mut warm_recorder = Recorder::new();
    let (co_hz, mean_admm_iters_warm) = drive(3, frames, false, &mut warm_recorder);
    let (co_hz_cold, mean_admm_iters_cold) = drive(3, frames, true, &mut Recorder::new());
    let frame_hist = warm_recorder.metrics().series(Series::FrameTotal);
    let solve_hist = warm_recorder.metrics().series(Series::CoSolve);
    let (frame_p50_us, frame_p95_us, frame_p99_us) = (
        frame_hist.quantile(0.50) * 1e6,
        frame_hist.quantile(0.95) * 1e6,
        frame_hist.quantile(0.99) * 1e6,
    );
    let (solve_p50_us, solve_p95_us, solve_p99_us) = (
        solve_hist.quantile(0.50) * 1e6,
        solve_hist.quantile(0.95) * 1e6,
        solve_hist.quantile(0.99) * 1e6,
    );

    // 4) per-frame KKT factorization microbenchmark on the actual MPC
    //    KKT matrix of a mid-episode frame
    let kkt_matrix = mpc_kkt_matrix();
    let (kkt_factor_us_sparse, kkt_nnz_ratio) = kkt_microbench(&kkt_matrix);

    // 5) kernel-layer microbenchmarks: scalar-vs-SIMD f32 GEMM and the
    //    int8 GEMM
    let matmul_gflops_scalar = matmul_gflops(icoil_nn::KernelBackend::Scalar);
    let matmul_gflops_simd = matmul_gflops(icoil_nn::simd::detected());
    let gemm_gops_int8 = int8_gemm_gops();
    let simd_dispatch = icoil_nn::simd::dispatch_target().to_string();

    let mut report = PerfReport {
        episodes_per_sec,
        il_hz,
        il_hz_int8,
        gemm_gops_int8,
        co_hz,
        co_hz_cold,
        mean_admm_iters_warm,
        mean_admm_iters_cold,
        il_over_co_ratio: il_hz / co_hz,
        kkt_factor_us_sparse,
        kkt_nnz_ratio,
        frame_p50_us,
        frame_p95_us,
        frame_p99_us,
        solve_p50_us,
        solve_p95_us,
        solve_p99_us,
        matmul_gflops_scalar,
        matmul_gflops_simd,
        simd_dispatch: simd_dispatch.clone(),
        kernel_best_of: KERNEL_BEST_OF as u64,
        had_nonfinite: false,
        parallelism: size.parallelism,
        episodes: size.episodes,
    };
    if report.sanitize() {
        eprintln!("perf: some measured fields were non-finite; clamped (had_nonfinite=true)");
    }
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write("BENCH_perf.json", &json).expect("write BENCH_perf.json");

    println!("# performance trajectory (wrote BENCH_perf.json)");
    println!("episodes/sec ({} workers): {episodes_per_sec:8.2}", size.parallelism);
    println!("IL inference:  {il_hz:8.1} Hz f32");
    println!(
        "IL int8:       {il_hz_int8:8.1} Hz ({:.2}x f32, calibrated lane, best of {il_rounds} \
         interleaved rounds)",
        il_hz_int8 / il_hz
    );
    println!(
        "CO solve:      {co_hz:8.1} Hz warm ({mean_admm_iters_warm:.0} ADMM iters) \
         vs {co_hz_cold:.1} Hz cold ({mean_admm_iters_cold:.0} iters)"
    );
    println!("ratio IL/CO:   {:8.1}x (paper shape: >= 4x)", il_hz / co_hz);
    println!(
        "KKT factor:    {kkt_factor_us_sparse:8.1} us sparse refactor (fill {kkt_nnz_ratio:.3})"
    );
    println!(
        "frame latency: {frame_p50_us:8.1} us p50 / {frame_p95_us:.1} us p95 / \
         {frame_p99_us:.1} us p99"
    );
    println!(
        "solve latency: {solve_p50_us:8.1} us p50 / {solve_p95_us:.1} us p95 / \
         {solve_p99_us:.1} us p99"
    );
    println!(
        "matmul f32:    {matmul_gflops_scalar:8.2} GFLOP/s scalar vs \
         {matmul_gflops_simd:.2} GFLOP/s {simd_dispatch} \
         ({:.1}x, best of {KERNEL_BEST_OF})",
        matmul_gflops_simd / matmul_gflops_scalar
    );
    println!(
        "gemm int8:     {gemm_gops_int8:8.2} GOP/s {simd_dispatch} (best of {KERNEL_BEST_OF})"
    );
}
