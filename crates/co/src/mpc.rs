//! The finite-horizon constrained optimization (6) solved by sequential
//! convexification.
//!
//! States are `s = (x, y, θ, v)` and controls `u = (a, δ)` under the
//! Ackermann model of §IV-B. Each SCP iteration linearizes the dynamics
//! and the collision constraints around a nominal rollout and solves the
//! resulting QP with the ADMM solver.
//!
//! The QP is posed in the **simultaneous** (multiple-shooting) form: the
//! decision vector is `z = [u_0 … u_{H−1}, s_1 … s_H]` with the
//! linearized dynamics as equality rows, rather than condensing the
//! states onto the controls. Condensing makes the cost Hessian fully
//! dense (and costs an `O(H²)` sensitivity propagation per SCP pass);
//! the simultaneous form keeps every matrix block-banded along the
//! horizon, which is exactly the structure the solver's sparse KKT
//! backend exploits. Constraints are emitted directly as sparse
//! triplets with a *structural* pattern — every coefficient that can be
//! nonzero for some linearization point is present (as an explicit zero
//! if need be), so the KKT sparsity pattern, and with it the solver's
//! cached symbolic factorization, is stable across SCP passes and
//! frames.

use crate::config::CoConfig;
use crate::tracker::MovingObstacle;
use icoil_geom::Obb;
use icoil_solver::{
    solve_qp_warm, Backend, QpDiagnostics, QpProblem, QpSettings, QpSolution, QpStatus,
    QpWarmStart, QpWorkspace, QpWorkspaceSnapshot, TripletBuilder,
};
use icoil_vehicle::{VehicleParams, VehicleState};
use serde::{Deserialize, Serialize};

/// One reference waypoint `s*` of the tracking cost (4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RefState {
    /// Target x (meters).
    pub x: f64,
    /// Target y (meters).
    pub y: f64,
    /// Target heading (radians, unwrapped by the reference builder).
    pub theta: f64,
    /// Target signed speed (m/s).
    pub v: f64,
}

/// Termination status of an MPC solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum MpcStatus {
    /// The solve produced a usable plan.
    #[default]
    Ok,
    /// An inner QP hit non-recoverable numerics (NaN/∞-poisoned data).
    /// The controls are zeros and must not be driven; the controller
    /// degrades to its safe braking action.
    NumericalError,
}

/// Result of [`solve_mpc`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MpcSolution {
    /// Optimal controls `(accel, steer)` over the horizon.
    pub controls: Vec<[f64; 2]>,
    /// Predicted states `(x, y, θ, v)` from the final nonlinear rollout,
    /// length `horizon + 1` (starts at the current state).
    pub predicted: Vec<[f64; 4]>,
    /// Final tracking cost (4) along the predicted trajectory.
    pub tracking_cost: f64,
    /// Total ADMM iterations across all SCP passes.
    pub qp_iterations: usize,
    /// Worst predicted collision-constraint violation (meters; 0 = safe).
    pub predicted_violation: f64,
    /// Whether the solve produced a usable plan.
    #[serde(default)]
    pub status: MpcStatus,
    /// SCP linearization passes performed (including a cold fallback's).
    #[serde(default)]
    pub scp_passes: u32,
    /// Whether the warm-start pathology fallback re-solved this frame
    /// cold (whichever plan was kept).
    #[serde(default)]
    pub cold_restarted: bool,
    /// Always [`Backend::Sparse`]; `perfbench` reads it.
    #[serde(default)]
    pub backend: Backend,
    /// Factorization accounting summed over all inner QP solves.
    #[serde(default)]
    pub diagnostics: QpDiagnostics,
}

const NX: usize = 4;
const NU: usize = 2;

/// Index of control component `j` of step `h` in the decision vector.
#[inline]
fn ui(h: usize, j: usize) -> usize {
    h * NU + j
}

/// Index of state component `i` of step `h ∈ 1..=H` in the decision
/// vector (states follow the `H` control pairs).
#[inline]
fn si(h_len: usize, h: usize, i: usize) -> usize {
    h_len * NU + (h - 1) * NX + i
}

/// Structural pattern of the Ackermann state Jacobian `A` ([`linearize`]):
/// every entry that is nonzero for *some* linearization point. Emitting
/// the full pattern (explicit zeros at, e.g., `v = 0`) keeps the
/// constraint sparsity — and the solver's cached symbolic factorization —
/// stable across SCP passes.
const A_PATTERN: [[bool; NX]; NX] = [
    [true, false, true, true],
    [false, true, true, true],
    [false, false, true, true],
    [false, false, false, true],
];

/// Structural pattern of the control Jacobian `B` ([`linearize`]).
const B_PATTERN: [[bool; NU]; NX] = [[false, false], [false, false], [false, true], [true, false]];

/// Per-SCP-pass ADMM iteration budget of the inner QP.
///
/// Public so conformance checks can tell a *converged* solve from one
/// that ran out of budget: a solve whose total [`MpcSolution::qp_iterations`]
/// reaches `scp_iterations * MPC_QP_MAX_ITERS` never converged in any pass.
pub const MPC_QP_MAX_ITERS: usize = 1500;

/// Predicted safety-margin penetration (meters) above which a
/// warm-started solve is not trusted without a second opinion.
///
/// SCP multi-modality means a warm seed can settle in a cheaper but
/// *less safe* basin than a cold solve of the same frame would find.
/// Whenever the warm plan predicts more than this much violation,
/// [`solve_mpc_warm`] re-solves the frame cold and keeps the safer
/// (then cheaper) of the two plans. Conformance checks reuse the
/// constant as their divergence slack so the contract and the fallback
/// trigger stay aligned.
pub const MPC_REPLAN_VIOLATION: f64 = 0.1;

/// Warm-start state carried across MPC frames and SCP iterations.
///
/// Receding-horizon MPC re-solves a nearly-identical problem every frame,
/// so three kinds of state are worth keeping:
///
/// * the previous frame's optimal controls, *shifted* one step forward
///   (and the last step repeated) as the next frame's SCP nominal — the
///   classic shift-and-extend initialization;
/// * the previous QP iterate, warm-starting ADMM both across SCP
///   iterations within a frame and across frames;
/// * the QP solver's [`QpWorkspace`] (cached Ruiz scaling and the
///   sparse LDLᵀ's symbolic analysis, which keys on the KKT pattern and
///   survives every value change).
///
/// A fresh (or [`reset`](MpcMemory::reset)) memory reproduces the cold
/// [`solve_mpc`] behaviour exactly.
#[derive(Debug, Clone, Default)]
pub struct MpcMemory {
    controls: Option<Vec<[f64; NU]>>,
    warm: Option<QpWarmStart>,
    workspace: QpWorkspace,
}

/// Serializable image of an [`MpcMemory`] for session checkpoints.
///
/// Carries exactly the state that influences subsequent solver iterates:
/// the shift-and-extend control seed, the QP warm-start vectors, and the
/// iterate-affecting workspace slice ([`QpWorkspaceSnapshot`]). Cached
/// factorizations are deliberately omitted — they are recomputed
/// bit-identically on the next solve.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MpcMemorySnapshot {
    /// Previous frame's optimal controls (the SCP nominal seed).
    pub controls: Option<Vec<[f64; NU]>>,
    /// Previous QP iterate (primal/dual warm start).
    pub warm: Option<QpWarmStart>,
    /// Iterate-affecting solver workspace state (the Ruiz scaling).
    pub workspace: QpWorkspaceSnapshot,
}

impl MpcMemory {
    /// A fresh memory: the next solve starts cold.
    pub fn new() -> Self {
        MpcMemory::default()
    }

    /// Drops all carried state (controls, QP iterate, solver workspace).
    ///
    /// Call after discontinuities — a reference switch, a gear change in
    /// the maneuver plan, or a large state jump — where the previous
    /// solution stops being a useful prediction.
    pub fn reset(&mut self) {
        self.controls = None;
        self.warm = None;
        self.workspace.clear();
    }

    /// Whether a previous solution is being carried.
    pub fn is_warm(&self) -> bool {
        self.controls.is_some()
    }

    /// Captures the complete warm-start state for a session checkpoint:
    /// the previous controls, the QP iterate, and the iterate-affecting
    /// slice of the solver workspace. Restoring via
    /// [`MpcMemory::from_snapshot`] replays subsequent solves
    /// bit-identically to the uninterrupted memory.
    pub fn snapshot(&self) -> MpcMemorySnapshot {
        MpcMemorySnapshot {
            controls: self.controls.clone(),
            warm: self.warm.clone(),
            workspace: self.workspace.snapshot(),
        }
    }

    /// Rebuilds a memory from a checkpoint (see [`MpcMemory::snapshot`]).
    pub fn from_snapshot(snap: &MpcMemorySnapshot) -> Self {
        MpcMemory {
            controls: snap.controls.clone(),
            warm: snap.warm.clone(),
            workspace: QpWorkspace::from_snapshot(&snap.workspace),
        }
    }

    /// Shift-and-extend initialization: previous controls advanced one
    /// step, final step repeated. Falls back to zeros on a horizon
    /// mismatch or a cold memory.
    fn seeded_nominal(&self, h_len: usize) -> Vec<[f64; NU]> {
        match &self.controls {
            Some(prev) if prev.len() == h_len => {
                let mut u: Vec<[f64; NU]> = prev[1..].to_vec();
                u.push(*prev.last().expect("non-empty horizon"));
                u
            }
            _ => vec![[0.0; NU]; h_len],
        }
    }
}

/// Solves the MPC problem for the current state.
///
/// `obstacles` are the tracked boxes `z_i` with velocity estimates; the
/// collision constraint (5) is enforced against each obstacle's
/// constant-velocity *prediction* `o_{h+1,k}` at every horizon step,
/// exactly as the paper's time-indexed formulation requires.
///
/// # Panics
///
/// Panics when `reference` is empty or the config is invalid.
pub fn solve_mpc(
    state: &VehicleState,
    reference: &[RefState],
    obstacles: &[MovingObstacle],
    params: &VehicleParams,
    config: &CoConfig,
) -> MpcSolution {
    solve_mpc_warm(
        state,
        reference,
        obstacles,
        params,
        config,
        &mut MpcMemory::new(),
    )
}

/// Solves the MPC problem, carrying warm-start state in `memory`.
///
/// Equivalent to [`solve_mpc`] when `memory` is fresh; on subsequent
/// frames the previous solution seeds the SCP nominal (shift-and-extend)
/// and the QP iterate, which typically cuts ADMM iterations severalfold
/// at identical solution tolerances.
///
/// # Panics
///
/// Panics when `reference` is empty or the config is invalid.
pub fn solve_mpc_warm(
    state: &VehicleState,
    reference: &[RefState],
    obstacles: &[MovingObstacle],
    params: &VehicleParams,
    config: &CoConfig,
    memory: &mut MpcMemory,
) -> MpcSolution {
    let mut frame = ScpFrame::new(state, reference, obstacles, params, config, memory);
    for _scp in 0..config.scp_iterations {
        // a numerical failure leaves nothing worth another pass
        if frame.status != MpcStatus::Ok {
            break;
        }
        // linearize around the nonlinear rollout of the current nominal
        let nominal_s = rollout(&frame.s0, &frame.nominal_u, params, frame.dt);
        let qp = assemble_qp(
            &frame.nominal_u,
            &nominal_s,
            reference,
            obstacles,
            params,
            config,
        );
        let mem = &mut *frame.memory;
        let sol = solve_qp_warm(&qp, &frame.settings, mem.warm.as_ref(), &mut mem.workspace);
        frame.absorb(sol);
    }
    frame.finish()
}

/// The per-frame SCP state of [`solve_mpc_warm`], which drives one frame
/// through `new → (linearize → solve → absorb)* → finish`.
struct ScpFrame<'a> {
    state: &'a VehicleState,
    reference: &'a [RefState],
    obstacles: &'a [MovingObstacle],
    params: &'a VehicleParams,
    config: &'a CoConfig,
    memory: &'a mut MpcMemory,
    s0: [f64; NX],
    h_len: usize,
    dt: f64,
    was_warm: bool,
    settings: QpSettings,
    nominal_u: Vec<[f64; NU]>,
    qp_iters_total: usize,
    status: MpcStatus,
    scp_passes: u32,
    diagnostics: QpDiagnostics,
}

impl<'a> ScpFrame<'a> {
    /// Frame setup: seeds the nominal (shift-and-extend) and the QP
    /// primal guess from the carried memory.
    ///
    /// # Panics
    ///
    /// Panics when `reference` is empty or the config is invalid.
    fn new(
        state: &'a VehicleState,
        reference: &'a [RefState],
        obstacles: &'a [MovingObstacle],
        params: &'a VehicleParams,
        config: &'a CoConfig,
        memory: &'a mut MpcMemory,
    ) -> Self {
        assert!(!reference.is_empty(), "reference horizon must be non-empty");
        config.validate().expect("valid CO config");
        let h_len = reference.len();
        let dt = config.mpc_dt;
        let s0 = [state.pose.x, state.pose.y, state.pose.theta, state.velocity];
        let was_warm = memory.is_warm();
        let settings = QpSettings {
            max_iters: MPC_QP_MAX_ITERS,
            eps_abs: 3e-4,
            ..QpSettings::default()
        };
        let nominal_u = memory.seeded_nominal(h_len);
        // the shifted controls (with their rollout states) are also the
        // best primal guess for the QP
        if memory.is_warm() {
            let x = pack_primal(&s0, &nominal_u, params, dt);
            match memory.warm.as_mut() {
                Some(w) => w.x = x,
                None => memory.warm = Some(QpWarmStart { x, y: Vec::new() }),
            }
        }
        ScpFrame {
            state,
            reference,
            obstacles,
            params,
            config,
            memory,
            s0,
            h_len,
            dt,
            was_warm,
            settings,
            nominal_u,
            qp_iters_total: 0,
            status: MpcStatus::Ok,
            scp_passes: 0,
            diagnostics: QpDiagnostics::default(),
        }
    }

    /// Folds one pass's QP solution into the frame: nominal update, warm
    /// iterate, accounting, and the numerical-failure bail-out.
    fn absorb(&mut self, sol: QpSolution) {
        self.qp_iters_total += sol.iterations;
        self.scp_passes += 1;
        self.diagnostics.absorb(&sol.diagnostics);
        if sol.status == QpStatus::NumericalError {
            // NaN/∞-poisoned data: nothing from this frame is drivable or
            // worth carrying into the next one
            self.status = MpcStatus::NumericalError;
            self.memory.reset();
            self.nominal_u = vec![[0.0; NU]; self.h_len];
            return;
        }
        for (hh, u) in self.nominal_u.iter_mut().enumerate().take(self.h_len) {
            *u = [
                sol.x[ui(hh, 0)].clamp(-self.params.max_brake, self.params.max_accel),
                sol.x[ui(hh, 1)].clamp(-self.params.max_steer, self.params.max_steer),
            ];
        }
        // Carry the primal only: the dual belongs to *this* linearization's
        // constraint rows, and re-linearized collision rows next pass can
        // make a stale dual misleading enough to cost solution quality.
        self.memory.warm = Some(QpWarmStart {
            x: sol.x,
            y: Vec::new(),
        });
    }

    /// Final rollout, cost/violation accounting, and the warm-start
    /// pathology fallback (a cold re-solve when warranted).
    fn finish(self) -> MpcSolution {
        let ScpFrame {
            state,
            reference,
            obstacles,
            params,
            config,
            memory,
            s0,
            h_len: _,
            dt,
            was_warm,
            settings,
            mut nominal_u,
            qp_iters_total,
            mut status,
            scp_passes,
            diagnostics,
        } = self;
        if status == MpcStatus::Ok {
            memory.controls = Some(nominal_u.clone());
        }

        // final nonlinear rollout and diagnostics
        let predicted = rollout(&s0, &nominal_u, params, dt);
        let mut tracking_cost = 0.0;
        for (h, r) in reference.iter().enumerate() {
            let s = predicted[h + 1];
            let e = [s[0] - r.x, s[1] - r.y, s[2] - r.theta, s[3] - r.v];
            for (w, ev) in config.q_weights.iter().zip(&e) {
                tracking_cost += w * ev * ev;
            }
        }
        let circles = params.coverage_circles();
        let mut violation = 0.0f64;
        for (h, s) in predicted.iter().enumerate().skip(1) {
            for mo in obstacles {
                let obb = &mo.predicted(h as f64 * dt);
                for &(off, radius) in &circles {
                    let pc =
                        icoil_geom::Vec2::new(s[0] + off * s[2].cos(), s[1] + off * s[2].sin());
                    let d = obb.distance_to_point(pc);
                    violation = violation.max(radius + config.safety_margin - d);
                }
            }
        }

        // Belt-and-suspenders: a plan that is non-finite anywhere is not a
        // plan, whatever the inner QP statuses said.
        if status == MpcStatus::Ok
            && !(nominal_u.iter().flatten().all(|v| v.is_finite())
                && predicted.iter().flatten().all(|v| v.is_finite())
                && tracking_cost.is_finite())
        {
            status = MpcStatus::NumericalError;
            memory.reset();
            nominal_u.fill([0.0; NU]);
        }

        let warm_solution = MpcSolution {
            controls: nominal_u,
            predicted,
            tracking_cost,
            qp_iterations: qp_iters_total,
            predicted_violation: violation.max(0.0),
            status,
            scp_passes,
            cold_restarted: false,
            backend: Backend::Sparse,
            diagnostics,
        };

        // Two warm-start pathologies call for a second opinion:
        //  * every SCP pass burned its full ADMM budget without converging —
        //    the seed may have stranded the solver in a bad basin (e.g.
        //    carried across a reference discontinuity the caller didn't
        //    reset for), leaving a near-garbage capped iterate; or the frame
        //    is genuinely hard and the warm iterate is the best available;
        //  * the converged warm plan predicts meaningful safety-margin
        //    penetration — SCP multi-modality can put the warm seed in a
        //    cheaper but less safe basin than a cold solve would find.
        // Telling a bad basin from a hard frame needs a reference, so
        // re-solve the frame cold and keep whichever solution is better —
        // safer first, cheaper on a tie — charging both solves' iterations
        // to the result for honest accounting.
        let capped = qp_iters_total >= config.scp_iterations * settings.max_iters;
        if was_warm
            && status == MpcStatus::Ok
            && (capped || warm_solution.predicted_violation > MPC_REPLAN_VIOLATION)
        {
            let warm_iterate = memory.warm.clone();
            memory.reset();
            let cold_solution = solve_mpc_warm(state, reference, obstacles, params, config, memory);
            // a failed cold solve reports predicted_violation 0.0 on its
            // zero-control sentinel — it must never look "safer" than the
            // warm plan it was meant to double-check
            let cold_better = cold_solution.status == MpcStatus::Ok
                && (cold_solution.predicted_violation < warm_solution.predicted_violation - 1e-9
                    || (cold_solution.predicted_violation
                        <= warm_solution.predicted_violation + 1e-9
                        && cold_solution.tracking_cost <= warm_solution.tracking_cost));
            if cold_better {
                let mut sol = cold_solution;
                sol.qp_iterations += warm_solution.qp_iterations;
                sol.scp_passes += warm_solution.scp_passes;
                sol.diagnostics.absorb(&warm_solution.diagnostics);
                sol.cold_restarted = true;
                return sol;
            }
            // the warm iterate stands: restore the memory the cold re-solve
            // overwrote (the workspace keeps the cold solve's scaling and
            // symbolic analysis; reusing either on a same-shape problem is
            // exact)
            memory.controls = Some(warm_solution.controls.clone());
            memory.warm = warm_iterate;
            let mut sol = warm_solution;
            sol.qp_iterations += cold_solution.qp_iterations;
            sol.scp_passes += cold_solution.scp_passes;
            sol.diagnostics.absorb(&cold_solution.diagnostics);
            sol.cold_restarted = true;
            return sol;
        }

        warm_solution
    }
}

/// Packs controls and their nonlinear rollout into the simultaneous
/// decision vector `z = [u_0 … u_{H−1}, s_1 … s_H]`.
fn pack_primal(
    s0: &[f64; NX],
    controls: &[[f64; NU]],
    params: &VehicleParams,
    dt: f64,
) -> Vec<f64> {
    let h_len = controls.len();
    let states = rollout(s0, controls, params, dt);
    let mut z = vec![0.0f64; h_len * (NU + NX)];
    for (h, u) in controls.iter().enumerate() {
        for (j, &uj) in u.iter().enumerate() {
            z[ui(h, j)] = uj;
        }
    }
    for h in 1..=h_len {
        for i in 0..NX {
            z[si(h_len, h, i)] = states[h][i];
        }
    }
    z
}

/// Assembles the QP of one SCP pass around the nominal trajectory
/// `(nominal_u, nominal_s)` — `nominal_s` must be the rollout of
/// `nominal_u` from the current state (its entry 0).
///
/// Decision vector: `z = [u_0 … u_{H−1}, s_1 … s_H]`. Blocks:
///
/// * cost — tracking weights on the state variables and effort/rate
///   weights on the controls (block-diagonal `P`, pattern fixed per
///   config);
/// * dynamics — `s_{h+1} − A_h·s_h − B_h·u_h = f(s̄_h, ū_h) − A_h·s̄_h −
///   B_h·ū_h` as equality rows (`l = u`), with the *structural* Jacobian
///   patterns [`A_PATTERN`]/[`B_PATTERN`] emitted in full;
/// * bounds — single-entry rows for control boxes and velocity limits;
/// * collision — for each active (step, obstacle, coverage-circle)
///   triple, a 3-entry row on `(x, y, θ)` of `s_h` (the linearized
///   signed-distance constraint (5)).
fn assemble_qp(
    nominal_u: &[[f64; NU]],
    nominal_s: &[[f64; NX]],
    reference: &[RefState],
    obstacles: &[MovingObstacle],
    params: &VehicleParams,
    config: &CoConfig,
) -> QpProblem {
    let h_len = reference.len();
    let nz = h_len * (NU + NX);
    let dt = config.mpc_dt;

    // --- quadratic cost: block-diagonal, pattern fixed per config ---
    let mut p = TripletBuilder::with_capacity(nz, nz, nz + 4 * NU * h_len);
    let mut q = vec![0.0f64; nz];
    for (h, r) in reference.iter().enumerate() {
        let target = [r.x, r.y, r.theta, r.v];
        for (i, &t) in target.iter().enumerate() {
            let w = config.q_weights[i];
            let idx = si(h_len, h + 1, i);
            p.push(idx, idx, 2.0 * w);
            q[idx] = -2.0 * w * t;
        }
    }
    for hh in 0..h_len {
        for j in 0..NU {
            p.push(ui(hh, j), ui(hh, j), 2.0 * config.r_weights[j]);
        }
    }
    // control-rate smoothing: Σ_h w_j (u_{h,j} − u_{h−1,j})²
    for hh in 1..h_len {
        for j in 0..NU {
            let w = config.r_rate[j];
            let a = ui(hh, j);
            let b = ui(hh - 1, j);
            p.push(a, a, 2.0 * w);
            p.push(b, b, 2.0 * w);
            p.push(a, b, -2.0 * w);
            p.push(b, a, -2.0 * w);
        }
    }

    // --- constraint rows, emitted as triplets ---
    let mut entries: Vec<(usize, usize, f64)> = Vec::with_capacity(10 * NX * h_len);
    let mut lo: Vec<f64> = Vec::with_capacity((NX + NU + 1) * h_len);
    let mut hi: Vec<f64> = Vec::with_capacity((NX + NU + 1) * h_len);
    let mut row = 0usize;

    // dynamics equalities: s_{h+1} − A_h·s_h − B_h·u_h = rhs_h. The
    // nominal starts at the current state (s̄_0 = s_0 exactly), so the
    // first step has no state columns — s_1 relates to u_0 alone.
    for h in 0..h_len {
        let (a_lin, b_lin) = linearize(&nominal_s[h], &nominal_u[h], params, dt);
        let f_nom = step_model(&nominal_s[h], &nominal_u[h], params, dt);
        for i in 0..NX {
            entries.push((row, si(h_len, h + 1, i), 1.0));
            let mut rhs = f_nom[i];
            if h > 0 {
                for j in 0..NX {
                    if A_PATTERN[i][j] {
                        entries.push((row, si(h_len, h, j), -a_lin[i][j]));
                    }
                    rhs -= a_lin[i][j] * nominal_s[h][j];
                }
            }
            for j in 0..NU {
                if B_PATTERN[i][j] {
                    entries.push((row, ui(h, j), -b_lin[i][j]));
                }
                rhs -= b_lin[i][j] * nominal_u[h][j];
            }
            lo.push(rhs);
            hi.push(rhs);
            row += 1;
        }
    }
    // control boxes
    for hh in 0..h_len {
        entries.push((row, ui(hh, 0), 1.0));
        lo.push(-params.max_brake);
        hi.push(params.max_accel);
        row += 1;
        entries.push((row, ui(hh, 1), 1.0));
        lo.push(-params.max_steer);
        hi.push(params.max_steer);
        row += 1;
    }
    // velocity bounds: direct bounds on the state variables
    for h in 1..=h_len {
        entries.push((row, si(h_len, h, 3), 1.0));
        lo.push(-params.max_reverse_speed);
        hi.push(params.max_speed);
        row += 1;
    }
    // collision constraints: the shared coverage circles per pose
    let circles = params.coverage_circles();
    for (h, &sbar) in nominal_s.iter().enumerate().take(h_len + 1).skip(1) {
        for mo in obstacles {
            let t_ahead = h as f64 * dt;
            let inflation = if mo.velocity.norm() > 0.05 {
                config.prediction_inflation * t_ahead
            } else {
                0.0
            };
            let obb = &mo.predicted(t_ahead).inflated(inflation);
            // skip far-away obstacles (inactive constraints)
            if obb.distance_to_point(icoil_geom::Vec2::new(sbar[0], sbar[1])) > 8.0 {
                continue;
            }
            for &(off, radius) in &circles {
                let circle_radius = radius + config.safety_margin;
                let (ct, st) = (sbar[2].cos(), sbar[2].sin());
                let pc = icoil_geom::Vec2::new(sbar[0] + off * ct, sbar[1] + off * st);
                let (cp, n_hat) = boundary_point_and_normal(obb, pc);
                if n_hat == icoil_geom::Vec2::ZERO {
                    continue;
                }
                // n̂·pc(s_h) ≥ n̂·cp + R, linearized around s̄_h: the
                // circle center depends on (x, y, θ) of s_h only
                let coeff = [n_hat.x, n_hat.y, -n_hat.x * off * st + n_hat.y * off * ct];
                for (i, &c) in coeff.iter().enumerate() {
                    entries.push((row, si(h_len, h, i), c));
                }
                let base = n_hat.dot(pc - cp);
                let nominal_term = coeff[0] * sbar[0] + coeff[1] * sbar[1] + coeff[2] * sbar[2];
                lo.push(circle_radius - base + nominal_term);
                hi.push(1e9);
                row += 1;
            }
        }
    }

    let m = row;
    let mut a = TripletBuilder::with_capacity(m, nz, entries.len());
    for (r, c, v) in entries {
        a.push(r, c, v);
    }
    // bounds may cross when the nominal deeply violates a constraint;
    // relax the lower bound in that case (slack-like behaviour)
    for (l, h) in lo.iter_mut().zip(&hi) {
        if *l > *h {
            *l = *h;
        }
    }
    QpProblem::from_sparse(p.build(), q, a.build(), lo, hi).expect("well-formed MPC QP")
}

/// Assembles (without solving) the QP of one SCP pass around the given
/// nominal controls — the exact problem [`solve_mpc`] hands to the ADMM
/// solver when seeded with those controls. Exposed for benchmarks and
/// conformance tooling that probe the KKT structure of the MPC problem.
///
/// # Panics
///
/// Panics when `nominal_u` and `reference` lengths differ, the reference
/// is empty, or the config is invalid.
pub fn build_mpc_qp(
    state: &VehicleState,
    nominal_u: &[[f64; 2]],
    reference: &[RefState],
    obstacles: &[MovingObstacle],
    params: &VehicleParams,
    config: &CoConfig,
) -> QpProblem {
    assert!(!reference.is_empty(), "reference horizon must be non-empty");
    assert_eq!(
        nominal_u.len(),
        reference.len(),
        "one control per reference step"
    );
    config.validate().expect("valid CO config");
    let s0 = [state.pose.x, state.pose.y, state.pose.theta, state.velocity];
    let nominal_s = rollout(&s0, nominal_u, params, config.mpc_dt);
    assemble_qp(nominal_u, &nominal_s, reference, obstacles, params, config)
}

/// Closest boundary point and outward unit normal of an OBB for a query
/// point. For points *inside* the box the nearest face is used, so the
/// linearized constraint pushes a penetrating nominal back out through
/// the closest face instead of deeper in.
fn boundary_point_and_normal(
    obb: &Obb,
    p: icoil_geom::Vec2,
) -> (icoil_geom::Vec2, icoil_geom::Vec2) {
    use icoil_geom::Vec2;
    let local = (p - obb.center).rotated(-obb.theta);
    let inside = local.x.abs() <= obb.half_length && local.y.abs() <= obb.half_width;
    let (cp_local, n_local) = if inside {
        // distance to each face; exit through the nearest one
        let dx_pos = obb.half_length - local.x;
        let dx_neg = local.x + obb.half_length;
        let dy_pos = obb.half_width - local.y;
        let dy_neg = local.y + obb.half_width;
        let min = dx_pos.min(dx_neg).min(dy_pos).min(dy_neg);
        if min == dx_pos {
            (Vec2::new(obb.half_length, local.y), Vec2::new(1.0, 0.0))
        } else if min == dx_neg {
            (Vec2::new(-obb.half_length, local.y), Vec2::new(-1.0, 0.0))
        } else if min == dy_pos {
            (Vec2::new(local.x, obb.half_width), Vec2::new(0.0, 1.0))
        } else {
            (Vec2::new(local.x, -obb.half_width), Vec2::new(0.0, -1.0))
        }
    } else {
        let cp = Vec2::new(
            local.x.clamp(-obb.half_length, obb.half_length),
            local.y.clamp(-obb.half_width, obb.half_width),
        );
        ((cp), (local - cp).normalized())
    };
    (
        obb.center + cp_local.rotated(obb.theta),
        n_local.rotated(obb.theta),
    )
}

/// Discrete Ackermann step used inside the MPC (simple Euler on v, exact
/// enough at `mpc_dt` because the controller re-solves every frame).
fn step_model(s: &[f64; NX], u: &[f64; NU], params: &VehicleParams, dt: f64) -> [f64; NX] {
    let v_next = (s[3] + u[0] * dt).clamp(-params.max_reverse_speed, params.max_speed);
    let steer = u[1].clamp(-params.max_steer, params.max_steer);
    let omega = s[3] * steer.tan() / params.wheelbase;
    [
        s[0] + s[3] * s[2].cos() * dt,
        s[1] + s[3] * s[2].sin() * dt,
        s[2] + omega * dt,
        v_next,
    ]
}

/// Jacobians `(A, B)` of [`step_model`] at `(s, u)`.
fn linearize(
    s: &[f64; NX],
    u: &[f64; NU],
    params: &VehicleParams,
    dt: f64,
) -> ([[f64; NX]; NX], [[f64; NU]; NX]) {
    let (sin_t, cos_t) = s[2].sin_cos();
    let steer = u[1].clamp(-params.max_steer, params.max_steer);
    let tan_d = steer.tan();
    let sec2 = 1.0 + tan_d * tan_d;
    let l = params.wheelbase;
    let a = [
        [1.0, 0.0, -s[3] * sin_t * dt, cos_t * dt],
        [0.0, 1.0, s[3] * cos_t * dt, sin_t * dt],
        [0.0, 0.0, 1.0, tan_d * dt / l],
        [0.0, 0.0, 0.0, 1.0],
    ];
    let b = [
        [0.0, 0.0],
        [0.0, 0.0],
        [0.0, s[3] * sec2 * dt / l],
        [dt, 0.0],
    ];
    (a, b)
}

/// Nonlinear rollout of the MPC model.
fn rollout(
    s0: &[f64; NX],
    controls: &[[f64; NU]],
    params: &VehicleParams,
    dt: f64,
) -> Vec<[f64; NX]> {
    let mut out = Vec::with_capacity(controls.len() + 1);
    out.push(*s0);
    let mut s = *s0;
    for u in controls {
        s = step_model(&s, u, params, dt);
        out.push(s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use icoil_geom::{Pose2, Vec2};

    fn straight_reference(h: usize, v: f64, dt: f64) -> Vec<RefState> {
        (1..=h)
            .map(|i| RefState {
                x: v * dt * i as f64,
                y: 0.0,
                theta: 0.0,
                v,
            })
            .collect()
    }

    #[test]
    fn tracks_straight_reference() {
        let params = VehicleParams::default();
        let config = CoConfig::default();
        let state = VehicleState::new(Pose2::default(), 0.0);
        let reference = straight_reference(config.horizon, 1.5, config.mpc_dt);
        let sol = solve_mpc(&state, &reference, &[], &params, &config);
        // first control accelerates forward with no steering
        assert!(sol.controls[0][0] > 0.2, "accel {}", sol.controls[0][0]);
        assert!(
            sol.controls[0][1].abs() < 0.1,
            "steer {}",
            sol.controls[0][1]
        );
        assert_eq!(sol.predicted.len(), config.horizon + 1);
    }

    #[test]
    fn steers_toward_lateral_offset() {
        let params = VehicleParams::default();
        let config = CoConfig::default();
        // reference displaced to the left (+y)
        let state = VehicleState::new(Pose2::default(), 1.0);
        let reference: Vec<RefState> = (1..=config.horizon)
            .map(|i| RefState {
                x: 1.0 * config.mpc_dt * i as f64,
                y: 1.0,
                theta: 0.0,
                v: 1.0,
            })
            .collect();
        let sol = solve_mpc(&state, &reference, &[], &params, &config);
        assert!(
            sol.controls[0][1] > 0.05,
            "must steer left, got {}",
            sol.controls[0][1]
        );
    }

    #[test]
    fn reverse_reference_produces_negative_accel() {
        let params = VehicleParams::default();
        let config = CoConfig::default();
        let state = VehicleState::new(Pose2::default(), 0.0);
        let reference: Vec<RefState> = (1..=config.horizon)
            .map(|i| RefState {
                x: -0.8 * config.mpc_dt * i as f64,
                y: 0.0,
                theta: 0.0,
                v: -0.8,
            })
            .collect();
        let sol = solve_mpc(&state, &reference, &[], &params, &config);
        assert!(sol.controls[0][0] < -0.1, "accel {}", sol.controls[0][0]);
        assert!(sol.predicted.last().unwrap()[3] < 0.0);
    }

    #[test]
    fn respects_control_bounds() {
        let params = VehicleParams::default();
        let config = CoConfig::default();
        let state = VehicleState::new(Pose2::default(), 0.0);
        // absurd far reference to push the controls to their limits
        let reference: Vec<RefState> = (1..=config.horizon)
            .map(|i| RefState {
                x: 50.0 * i as f64,
                y: 50.0,
                theta: 1.5,
                v: params.max_speed,
            })
            .collect();
        let sol = solve_mpc(&state, &reference, &[], &params, &config);
        for u in &sol.controls {
            assert!(u[0] <= params.max_accel + 1e-6 && u[0] >= -params.max_brake - 1e-6);
            assert!(u[1].abs() <= params.max_steer + 1e-6);
        }
    }

    #[test]
    fn obstacle_ahead_deflects_or_slows() {
        let params = VehicleParams::default();
        let config = CoConfig::default();
        let state = VehicleState::new(Pose2::default(), 1.5);
        let reference = straight_reference(config.horizon, 1.5, config.mpc_dt);
        let free = solve_mpc(&state, &reference, &[], &params, &config);
        // wall ahead, clear of the car at t = 0 but reached by the horizon
        let wall = Obb::from_pose(Pose2::new(6.0, 0.0, 0.0), 1.5, 6.0);
        let blocked = solve_mpc(
            &state,
            &reference,
            &[MovingObstacle::fixed(wall)],
            &params,
            &config,
        );
        // with the wall the predicted end point stays short of it or dodges
        let end_free = free.predicted.last().unwrap();
        let end_blocked = blocked.predicted.last().unwrap();
        let progressed = end_blocked[0] < end_free[0] - 0.2;
        let dodged = end_blocked[1].abs() > 0.3;
        assert!(
            progressed || dodged,
            "free end {end_free:?} vs blocked end {end_blocked:?}"
        );
        assert!(
            blocked.predicted_violation < 0.35,
            "violation {}",
            blocked.predicted_violation
        );
    }

    #[test]
    fn prediction_matches_model_rollout() {
        let params = VehicleParams::default();
        let config = CoConfig::default();
        let state = VehicleState::new(Pose2::new(1.0, 2.0, 0.3), 0.5);
        let reference = straight_reference(config.horizon, 1.0, config.mpc_dt);
        let sol = solve_mpc(&state, &reference, &[], &params, &config);
        let manual = rollout(&[1.0, 2.0, 0.3, 0.5], &sol.controls, &params, config.mpc_dt);
        assert_eq!(sol.predicted, manual);
    }

    #[test]
    fn tracking_cost_decreases_with_scp_iterations() {
        let params = VehicleParams::default();
        let state = VehicleState::new(Pose2::default(), 0.0);
        let one = CoConfig {
            scp_iterations: 1,
            ..CoConfig::default()
        };
        let three = CoConfig {
            scp_iterations: 3,
            ..CoConfig::default()
        };
        // curved reference requires re-linearization to track well
        let reference: Vec<RefState> = (1..=one.horizon)
            .map(|i| {
                let t = i as f64 * one.mpc_dt;
                RefState {
                    x: 1.5 * t,
                    y: 0.3 * t * t,
                    theta: (0.6 * t).atan(),
                    v: 1.5,
                }
            })
            .collect();
        let c1 = solve_mpc(&state, &reference, &[], &params, &one).tracking_cost;
        let c3 = solve_mpc(&state, &reference, &[], &params, &three).tracking_cost;
        assert!(c3 <= c1 * 1.05, "SCP should not hurt: {c1} -> {c3}");
    }

    #[test]
    fn predicted_mover_is_anticipated() {
        // A mover approaching the ego's lane from the left: its *current*
        // box never blocks the straight reference, but its prediction
        // crosses it mid-horizon. With prediction the plan must differ
        // (slow down or dodge) from the frozen-obstacle plan.
        let params = VehicleParams::default();
        let config = CoConfig::default();
        let state = VehicleState::new(Pose2::default(), 1.5);
        let reference = straight_reference(config.horizon, 1.5, config.mpc_dt);
        let mover_box =
            Obb::from_pose(Pose2::new(6.0, 4.0, -std::f64::consts::FRAC_PI_2), 2.0, 2.0);
        let frozen = solve_mpc(
            &state,
            &reference,
            &[MovingObstacle::fixed(mover_box)],
            &params,
            &config,
        );
        let moving = solve_mpc(
            &state,
            &reference,
            &[MovingObstacle {
                obb: mover_box,
                velocity: Vec2::new(0.0, -2.0),
            }],
            &params,
            &config,
        );
        // frozen: box sits 4 m to the left, never in the way → full speed
        let end_frozen = frozen.predicted.last().unwrap();
        let end_moving = moving.predicted.last().unwrap();
        assert!(
            end_moving[0] < end_frozen[0] - 0.2 || end_moving[1].abs() > 0.3,
            "prediction must alter the plan: frozen {end_frozen:?} vs moving {end_moving:?}"
        );
        assert!(
            moving.predicted_violation < 0.3,
            "violation {}",
            moving.predicted_violation
        );
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_reference_panics() {
        let params = VehicleParams::default();
        let state = VehicleState::new(Pose2::default(), 0.0);
        let _ = solve_mpc(&state, &[], &[], &params, &CoConfig::default());
    }

    #[test]
    fn fresh_memory_reproduces_cold_solve() {
        let params = VehicleParams::default();
        let config = CoConfig::default();
        let state = VehicleState::new(Pose2::default(), 0.5);
        let reference = straight_reference(config.horizon, 1.5, config.mpc_dt);
        let cold = solve_mpc(&state, &reference, &[], &params, &config);
        let warm = solve_mpc_warm(
            &state,
            &reference,
            &[],
            &params,
            &config,
            &mut MpcMemory::new(),
        );
        assert_eq!(cold, warm);
    }

    #[test]
    fn warm_frames_cut_admm_iterations() {
        // simulate a receding-horizon run: apply the first control, step
        // the model, re-solve. Warm memory must spend fewer total ADMM
        // iterations than per-frame cold solves, with matching controls.
        let params = VehicleParams::default();
        let config = CoConfig::default();
        let dt = config.mpc_dt;
        let mut memory = MpcMemory::new();

        let mut s_warm = [0.0, 0.0, 0.0, 0.5];
        let mut s_cold = s_warm;
        let mut warm_iters = 0usize;
        let mut cold_iters = 0usize;
        for frame in 0..6 {
            let reference: Vec<RefState> = (1..=config.horizon)
                .map(|i| RefState {
                    x: s_warm[0] + 1.5 * dt * i as f64,
                    y: 0.0,
                    theta: 0.0,
                    v: 1.5,
                })
                .collect();
            let warm_state =
                VehicleState::new(Pose2::new(s_warm[0], s_warm[1], s_warm[2]), s_warm[3]);
            let warm = solve_mpc_warm(&warm_state, &reference, &[], &params, &config, &mut memory);
            let cold_state =
                VehicleState::new(Pose2::new(s_cold[0], s_cold[1], s_cold[2]), s_cold[3]);
            let cold = solve_mpc(&cold_state, &reference, &[], &params, &config);
            if frame > 0 {
                warm_iters += warm.qp_iterations;
                cold_iters += cold.qp_iterations;
                // both land on essentially the same control
                assert!(
                    (warm.controls[0][0] - cold.controls[0][0]).abs() < 0.05
                        && (warm.controls[0][1] - cold.controls[0][1]).abs() < 0.05,
                    "frame {frame}: warm {:?} vs cold {:?}",
                    warm.controls[0],
                    cold.controls[0]
                );
            }
            s_warm = step_model(&s_warm, &warm.controls[0], &params, dt);
            s_cold = step_model(&s_cold, &cold.controls[0], &params, dt);
        }
        assert!(memory.is_warm());
        assert!(
            warm_iters < cold_iters,
            "warm {warm_iters} vs cold {cold_iters} total ADMM iterations"
        );
    }

    #[test]
    fn memory_reset_restores_cold_behaviour() {
        let params = VehicleParams::default();
        let config = CoConfig::default();
        let state = VehicleState::new(Pose2::default(), 0.5);
        let reference = straight_reference(config.horizon, 1.5, config.mpc_dt);
        let mut memory = MpcMemory::new();
        let first = solve_mpc_warm(&state, &reference, &[], &params, &config, &mut memory);
        assert!(memory.is_warm());
        memory.reset();
        assert!(!memory.is_warm());
        let again = solve_mpc_warm(&state, &reference, &[], &params, &config, &mut memory);
        assert_eq!(first, again);
    }

    #[test]
    fn nan_reference_degrades_to_a_status_not_a_panic() {
        // Regression: a NaN reference poisons the QP cost, which used to
        // escalate the KKT regularization until an assert fired. The MPC
        // must instead report NumericalError with zero-control sentinels
        // and a reset memory.
        let params = VehicleParams::default();
        let config = CoConfig::default();
        let state = VehicleState::new(Pose2::default(), 1.0);
        let mut reference = straight_reference(config.horizon, 1.5, config.mpc_dt);
        reference[3].x = f64::NAN;
        let mut memory = MpcMemory::new();
        let sol = solve_mpc_warm(&state, &reference, &[], &params, &config, &mut memory);
        assert_eq!(sol.status, MpcStatus::NumericalError);
        assert!(sol.controls.iter().flatten().all(|v| *v == 0.0));
        assert!(!memory.is_warm(), "failure must reset the memory");
        assert!(sol.scp_passes >= 1);

        // the same memory must serve the next (healthy) frame cold and
        // reproduce the cold solution exactly
        let good_ref = straight_reference(config.horizon, 1.5, config.mpc_dt);
        let recovered = solve_mpc_warm(&state, &good_ref, &[], &params, &config, &mut memory);
        assert_eq!(recovered.status, MpcStatus::Ok);
        assert_eq!(
            recovered,
            solve_mpc(&state, &good_ref, &[], &params, &config)
        );
    }

    #[test]
    fn nan_state_degrades_to_a_status_not_a_panic() {
        let params = VehicleParams::default();
        let config = CoConfig::default();
        let state = VehicleState::new(Pose2::new(f64::NAN, 0.0, 0.0), 1.0);
        let reference = straight_reference(config.horizon, 1.5, config.mpc_dt);
        let sol = solve_mpc(&state, &reference, &[], &params, &config);
        assert_eq!(sol.status, MpcStatus::NumericalError);
        assert!(sol.controls.iter().flatten().all(|v| *v == 0.0));
    }

    #[test]
    fn solutions_carry_solver_accounting() {
        let params = VehicleParams::default();
        let config = CoConfig::default();
        let state = VehicleState::new(Pose2::default(), 0.0);
        let reference = straight_reference(config.horizon, 1.5, config.mpc_dt);
        let sol = solve_mpc(&state, &reference, &[], &params, &config);
        assert_eq!(sol.status, MpcStatus::Ok);
        assert_eq!(sol.scp_passes as usize, config.scp_iterations);
        assert!(!sol.cold_restarted);
        assert!(sol.diagnostics.factorizations >= 1);
    }
}
