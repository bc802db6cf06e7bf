//! Emits `BENCH_perf.json` — the numbers no other tool in the repo
//! measures:
//!
//! * `mean_admm_iters_warm` / `mean_admm_iters_cold` — mean ADMM
//!   iterations per MPC step along one 60-frame drive, with the deployed
//!   warm-start memory vs with the memory cleared every frame: the
//!   number the QP warm start exists to cut. Iteration counts are a pure
//!   function of the seeded drive, so they do not vary between runs;
//! * `kkt_factor_us_sparse` / `kkt_nnz_ratio` — per-factorization
//!   microseconds of the sparse LDLᵀ's numeric refactorization over the
//!   cached symbolic analysis on the *actual* MPC KKT matrix of a
//!   mid-episode frame, plus that matrix's fill ratio;
//! * `matmul_gflops_{scalar,simd}` — f32 GEMM throughput of the IL
//!   kernel layer with the scalar reference forced vs the detected SIMD
//!   dispatch, at a network-shaped problem size (best-of-N timing,
//!   `kernel_best_of` and `simd_dispatch` record the discipline).
//!
//! IL and CO execution rates belong to the `freq` bin, decide latency
//! and closed-loop throughput to the repository benchmark's
//! `table2_icoil` workload. The file lands in the working directory
//! (the repo root under `cargo run`):
//!
//! ```text
//! cargo run --release -p icoil-bench --bin perf
//! ```

use icoil_bench::PerfReport;
use icoil_co::{build_mpc_qp, CoConfig, CoController};
use icoil_core::ICoilConfig;
use icoil_perception::Perception;
use icoil_solver::{SparseKkt, SparseLdl, SparseMatrix, SymbolicLdl};
use icoil_world::episode::Observation;
use icoil_world::{Difficulty, ScenarioConfig};
use std::time::Instant;

/// Drives `frames` control steps in a fresh world and returns the mean
/// ADMM iterations per solved frame; `cold` clears the warm-start
/// memory before every frame.
fn mean_admm_iters(seed: u64, frames: usize, cold: bool) -> f64 {
    let scenario = ScenarioConfig::new(Difficulty::Normal, seed).build();
    let params = scenario.vehicle_params;
    let mut perception = Perception::new(ICoilConfig::default().bev, &scenario);
    let mut world = icoil_world::World::new(scenario);
    let mut co = CoController::new(CoConfig::default(), params);
    // Plan the global path before the counted frames.
    let s = perception.observe(&Observation::new(&world));
    let _ = co.control(&Observation::new(&world), &s.boxes);

    let mut iters = 0usize;
    let mut solves = 0usize;
    for _ in 0..frames {
        if cold {
            co.reset_warm_start();
        }
        let s = perception.observe(&Observation::new(&world));
        let out = co.control(&Observation::new(&world), &s.boxes);
        if let Some(mpc) = &out.mpc {
            iters += mpc.qp_iterations;
            solves += 1;
        }
        world.step(&out.action);
    }
    iters as f64 / solves.max(1) as f64
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
    let a: Vec<f32> = (0..m * k)
        .map(|i| ((i * 37 + 11) % 97) as f32 * 0.013 - 0.6)
        .collect();
    let b: Vec<f32> = (0..k * n)
        .map(|i| ((i * 53 + 7) % 89) as f32 * 0.011 - 0.5)
        .collect();
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

fn main() {
    // 1) ADMM iterations per MPC step, warm vs. cold, along one drive
    let frames = 60;
    let mean_admm_iters_warm = mean_admm_iters(3, frames, false);
    let mean_admm_iters_cold = mean_admm_iters(3, frames, true);

    // 2) per-frame KKT factorization microbenchmark on the actual MPC
    //    KKT matrix of a mid-episode frame
    let kkt_matrix = mpc_kkt_matrix();
    let (kkt_factor_us_sparse, kkt_nnz_ratio) = kkt_microbench(&kkt_matrix);

    // 3) kernel-layer microbenchmark: scalar-vs-SIMD f32 GEMM
    let matmul_gflops_scalar = matmul_gflops(icoil_nn::KernelBackend::Scalar);
    let matmul_gflops_simd = matmul_gflops(icoil_nn::simd::detected());
    let simd_dispatch = icoil_nn::simd::dispatch_target().to_string();

    let mut report = PerfReport {
        mean_admm_iters_warm,
        mean_admm_iters_cold,
        kkt_factor_us_sparse,
        kkt_nnz_ratio,
        matmul_gflops_scalar,
        matmul_gflops_simd,
        simd_dispatch: simd_dispatch.clone(),
        kernel_best_of: KERNEL_BEST_OF as u64,
        had_nonfinite: false,
    };
    if report.sanitize() {
        eprintln!("perf: some measured fields were non-finite; clamped (had_nonfinite=true)");
    }
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write("BENCH_perf.json", &json).expect("write BENCH_perf.json");

    println!("# kernel ceilings and solver work (wrote BENCH_perf.json)");
    println!(
        "ADMM iters:    {mean_admm_iters_warm:8.1} per MPC step warm vs \
         {mean_admm_iters_cold:.1} cold ({frames} frames)"
    );
    println!(
        "KKT factor:    {kkt_factor_us_sparse:8.1} us sparse refactor (fill {kkt_nnz_ratio:.3})"
    );
    println!(
        "matmul f32:    {matmul_gflops_scalar:8.2} GFLOP/s scalar vs \
         {matmul_gflops_simd:.2} GFLOP/s {simd_dispatch} \
         ({:.1}x, best of {KERNEL_BEST_OF})",
        matmul_gflops_simd / matmul_gflops_scalar
    );
}
