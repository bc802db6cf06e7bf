//! OSQP-style ADMM solver for box-constrained quadratic programs.
//!
//! Solves `min ½xᵀPx + qᵀx  s.t.  l ≤ Ax ≤ u` with the operator-splitting
//! scheme of Stellato et al. (OSQP): one factorization of the KKT matrix
//! `P + σI + AᵀRA` up front, then cheap per-iteration triangular solves
//! and projections. Equality constraints are expressed as `l = u` rows
//! and get a ×1000-stiffer entry in the penalty matrix `R = diag(ρ_i)`
//! (OSQP's equality boost): a scalar ρ tuned for inequality rows would
//! leave equalities — the MPC's dynamics rows — enforced so loosely at
//! practical tolerances that collision constraints written on the state
//! variables stop protecting the actual rollout.
//!
//! Problem data is held in CSC sparse form ([`SparseMatrix`]) and the
//! KKT matrix is factorized with a sparse LDLᵀ ([`SparseLdl`]). Its
//! symbolic phase (fill-reducing ordering + elimination tree) is computed
//! once per sparsity pattern and cached in the [`QpWorkspace`]; each
//! solve factors the KKT afresh over that analysis, and a ρ-adaptation
//! inside the solve refactors the same storage in place.

use crate::ldl::{SparseLdl, SymbolicLdl};
use crate::linalg::Mat;
use crate::simd::{self, LaneSlices};
use crate::sparse::{SparseKkt, SparseMatrix};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The one KKT factorization backend, kept because `perfbench` reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Backend {
    /// The sparse LDLᵀ over the workspace's cached symbolic analysis.
    #[default]
    Sparse,
}

/// A quadratic program `min ½xᵀPx + qᵀx  s.t.  l ≤ Ax ≤ u`.
///
/// `P` and `A` are stored in CSC sparse form regardless of how the
/// problem was constructed; [`QpProblem::new`] accepts dense matrices for
/// convenience (and keeps exactly their nonzero entries), while
/// [`QpProblem::from_sparse`] takes pre-assembled sparse matrices whose
/// *structural* pattern (explicit zeros included) is preserved — which is
/// what keeps the cached symbolic factorization valid across MPC frames.
#[derive(Debug, Clone)]
pub struct QpProblem {
    p: SparseMatrix,
    /// Linear cost vector, length `n`.
    pub q: Vec<f64>,
    a: SparseMatrix,
    /// Constraint lower bounds, length `m` (may contain `-∞`).
    pub l: Vec<f64>,
    /// Constraint upper bounds, length `m` (may contain `+∞`).
    pub u: Vec<f64>,
}

/// Error returned by [`QpProblem::new`] for dimensionally-inconsistent or
/// ill-ordered problems.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QpError {
    /// `P` is not square or does not match `q`.
    BadCost,
    /// `A`, `l`, `u` dimensions are inconsistent.
    BadConstraints,
    /// Some `l[i] > u[i]`.
    CrossedBounds,
}

impl std::fmt::Display for QpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QpError::BadCost => write!(f, "cost dimensions are inconsistent"),
            QpError::BadConstraints => write!(f, "constraint dimensions are inconsistent"),
            QpError::CrossedBounds => write!(f, "some lower bound exceeds its upper bound"),
        }
    }
}

impl std::error::Error for QpError {}

impl QpProblem {
    /// Validates and assembles a QP from dense matrices (nonzero entries
    /// are kept; zeros are dropped from the pattern).
    ///
    /// # Errors
    ///
    /// Returns a [`QpError`] describing the first inconsistency.
    pub fn new(p: Mat, q: Vec<f64>, a: Mat, l: Vec<f64>, u: Vec<f64>) -> Result<Self, QpError> {
        Self::from_sparse(
            SparseMatrix::from_dense(&p),
            q,
            SparseMatrix::from_dense(&a),
            l,
            u,
        )
    }

    /// Validates and assembles a QP from sparse matrices, preserving
    /// their structural patterns (explicit zeros included).
    ///
    /// # Errors
    ///
    /// Returns a [`QpError`] describing the first inconsistency.
    pub fn from_sparse(
        p: SparseMatrix,
        q: Vec<f64>,
        a: SparseMatrix,
        l: Vec<f64>,
        u: Vec<f64>,
    ) -> Result<Self, QpError> {
        let n = q.len();
        if p.rows() != n || p.cols() != n {
            return Err(QpError::BadCost);
        }
        let m = a.rows();
        if a.cols() != n || l.len() != m || u.len() != m {
            return Err(QpError::BadConstraints);
        }
        if l.iter().zip(&u).any(|(lo, hi)| lo > hi) {
            return Err(QpError::CrossedBounds);
        }
        Ok(QpProblem { p, q, a, l, u })
    }

    /// The quadratic cost matrix `P` (CSC).
    pub fn p(&self) -> &SparseMatrix {
        &self.p
    }

    /// The constraint matrix `A` (CSC).
    pub fn a(&self) -> &SparseMatrix {
        &self.a
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.q.len()
    }

    /// Number of constraint rows.
    pub fn num_constraints(&self) -> usize {
        self.l.len()
    }

    /// Objective value `½xᵀPx + qᵀx` at `x`.
    pub fn objective(&self, x: &[f64]) -> f64 {
        let px = self.p.mul_vec(x);
        0.5 * dot(x, &px) + dot(&self.q, x)
    }

    /// Worst constraint violation at `x` (zero when feasible).
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        let ax = self.a.mul_vec(x);
        ax.iter()
            .zip(self.l.iter().zip(&self.u))
            .map(|(v, (lo, hi))| (lo - v).max(v - hi).max(0.0))
            .fold(0.0, f64::max)
    }
}

/// ADMM iteration parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QpSettings {
    /// Step size ρ (constraint weight).
    pub rho: f64,
    /// Regularization σ added to `P` for factorization robustness.
    pub sigma: f64,
    /// Over-relaxation α in `(0, 2)`.
    pub alpha: f64,
    /// Maximum ADMM iterations.
    pub max_iters: usize,
    /// Absolute primal/dual residual tolerance.
    pub eps_abs: f64,
}

impl Default for QpSettings {
    fn default() -> Self {
        QpSettings {
            rho: 0.1,
            sigma: 1e-6,
            alpha: 1.6,
            max_iters: 4000,
            eps_abs: 1e-6,
        }
    }
}

/// Termination status of [`solve_qp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QpStatus {
    /// Residuals reached the tolerance.
    Solved,
    /// Iteration budget exhausted; `x` is the best iterate.
    MaxIterations,
    /// The solve hit non-recoverable numerics: the KKT matrix could not
    /// be made positive definite within the bounded regularization
    /// budget, or iterates became non-finite (NaN/∞ in the problem
    /// data). `x`/`y` are zeros and the residuals are `∞`; callers must
    /// treat the solution as unusable and degrade (the CO controller
    /// falls back to braking).
    NumericalError,
}

/// Per-solve factorization accounting, accumulated by [`solve_qp`] /
/// [`solve_qp_warm`] and surfaced through telemetry. All integer content,
/// hence deterministic for a deterministic solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QpDiagnostics {
    /// Diagonal regularization bumps escalated while factorizing.
    pub reg_bumps: u32,
    /// Numeric factorizations performed (initial + ρ-adaptations).
    pub factorizations: u32,
    /// Sparse symbolic analyses served from the workspace cache.
    pub symbolic_cache_hits: u32,
    /// Sparse symbolic analyses computed fresh.
    pub symbolic_rebuilds: u32,
    /// Always 0 (no solve reuses a whole factor); `perfbench` reads it.
    pub factor_cache_hits: u32,
}

impl QpDiagnostics {
    /// Adds another solve's accounting into this one (e.g. across the SCP
    /// passes of an MPC solve).
    pub fn absorb(&mut self, other: &QpDiagnostics) {
        self.reg_bumps += other.reg_bumps;
        self.factorizations += other.factorizations;
        self.symbolic_cache_hits += other.symbolic_cache_hits;
        self.symbolic_rebuilds += other.symbolic_rebuilds;
        self.factor_cache_hits += other.factor_cache_hits;
    }
}

/// Result of [`solve_qp`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QpSolution {
    /// Primal solution (projected to be feasible for box rows).
    pub x: Vec<f64>,
    /// Dual variables for the constraint rows.
    pub y: Vec<f64>,
    /// Termination status.
    pub status: QpStatus,
    /// Number of ADMM iterations performed.
    pub iterations: usize,
    /// Final primal residual `‖Ax − z‖∞`.
    pub primal_residual: f64,
    /// Final dual residual `‖Px + q + Aᵀy‖∞`.
    pub dual_residual: f64,
    /// Factorization accounting for this solve.
    #[serde(default)]
    pub diagnostics: QpDiagnostics,
}

/// A primal/dual iterate carried between related solves (OSQP-style warm
/// starting). MPC re-solves nearly-identical problems every frame; starting
/// ADMM from the previous optimum typically cuts iterations severalfold.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QpWarmStart {
    /// Primal iterate from a previous solve (length `n`).
    pub x: Vec<f64>,
    /// Dual iterate from a previous solve (length `m`).
    pub y: Vec<f64>,
}

impl QpWarmStart {
    /// Captures the iterates of a finished solve.
    pub fn from_solution(sol: &QpSolution) -> Self {
        QpWarmStart {
            x: sol.x.clone(),
            y: sol.y.clone(),
        }
    }

    /// Whether this warm start fits a problem with `n` variables and `m`
    /// constraint rows.
    pub fn fits(&self, n: usize, m: usize) -> bool {
        self.x.len() == n && self.y.len() == m
    }
}

/// Reusable setup state cached across solves of structurally-similar
/// problems, in the spirit of OSQP's setup/update split. Two caches:
///
/// * the Ruiz scaling vectors `D`, `E`, keyed on the problem's shape —
///   equilibration is a change of variables, so reusing the previous
///   scaling on slightly-changed data stays exact and skips the
///   iterative scaling passes;
/// * the **symbolic** sparse analysis (fill-reducing permutation +
///   elimination tree), keyed on the KKT *pattern* and therefore
///   surviving every value change — ρ-adaptations, SCP passes, and
///   warm/cold re-solves of a frame all factor over it.
#[derive(Debug, Clone, Default)]
pub struct QpWorkspace {
    scaling: Option<(Vec<f64>, Vec<f64>)>,
    symbolic: Option<Arc<SymbolicLdl>>,
}

/// The serializable slice of a [`QpWorkspace`]: exactly the carried state
/// that *changes solver iterates* and therefore must survive a session
/// checkpoint for bit-identical replay.
///
/// The cached Ruiz scaling is reused verbatim on slightly-changed data
/// (a change of variables, not a convergence tweak), so it alters every
/// subsequent iterate. The symbolic analysis is *not* captured: it is
/// recomputed bit-identically from the (scaled) problem pattern on the
/// first post-restore solve — dropping it costs one analysis, not one
/// ulp.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QpWorkspaceSnapshot {
    /// Cached Ruiz scaling vectors `D` (variables) and `E` (constraints).
    pub scaling: Option<(Vec<f64>, Vec<f64>)>,
}

/// Stiffness multiplier applied to the ADMM penalty of equality rows
/// (`l = u`), as in OSQP.
const RHO_EQ_SCALE: f64 = 1e3;
/// Clamp range of every per-constraint penalty ρ_i.
const RHO_MIN: f64 = 1e-6;
/// See [`RHO_MIN`].
const RHO_MAX: f64 = 1e6;

/// Expands the scalar ρ into the per-constraint penalty vector: equality
/// rows get `ρ·RHO_EQ_SCALE`, everything clamped to `[RHO_MIN, RHO_MAX]`.
fn fill_rho_vec(rho: f64, eq: &[bool], out: &mut Vec<f64>) {
    out.clear();
    out.extend(eq.iter().map(|&is_eq| {
        let r = if is_eq { rho * RHO_EQ_SCALE } else { rho };
        r.clamp(RHO_MIN, RHO_MAX)
    }));
}

impl QpWorkspace {
    /// A fresh workspace (first solve runs the full setup).
    pub fn new() -> Self {
        QpWorkspace::default()
    }

    /// Drops all cached state (scaling and symbolic analysis).
    pub fn clear(&mut self) {
        self.scaling = None;
        self.symbolic = None;
    }

    /// The cached symbolic LDLᵀ analysis, if a solve has run through this
    /// workspace.
    pub fn symbolic(&self) -> Option<&Arc<SymbolicLdl>> {
        self.symbolic.as_ref()
    }

    /// Captures the iterate-affecting carried state (the scaling) for a
    /// session checkpoint. See [`QpWorkspaceSnapshot`].
    pub fn snapshot(&self) -> QpWorkspaceSnapshot {
        QpWorkspaceSnapshot {
            scaling: self.scaling.clone(),
        }
    }

    /// Rebuilds a workspace from a checkpoint. The symbolic cache starts
    /// empty and is recomputed bit-identically on the first solve, so a
    /// restored workspace replays exactly like the captured one.
    pub fn from_snapshot(snap: &QpWorkspaceSnapshot) -> Self {
        QpWorkspace {
            scaling: snap.scaling.clone(),
            symbolic: None,
        }
    }
}

/// Solves a QP with ADMM (cold start, no state reuse).
///
/// The problem is first *equilibrated* (modified Ruiz scaling of rows and
/// columns, as in OSQP §5.1): ADMM's convergence rate degrades badly when
/// constraint rows or cost columns span orders of magnitude, which is the
/// normal situation for condensed MPC problems. The returned solution is
/// unscaled back to the original problem's variables and duals.
///
/// Never panics on a well-formed [`QpProblem`]; an indefinite `P` is
/// handled by the σ-regularization (the solution then corresponds to the
/// regularized problem, which is the standard OSQP behaviour). Data the
/// regularization cannot repair — NaN/∞-poisoned or structurally broken
/// matrices — terminates with [`QpStatus::NumericalError`] instead of
/// panicking or looping.
pub fn solve_qp(problem: &QpProblem, settings: &QpSettings) -> QpSolution {
    solve_qp_warm(problem, settings, None, &mut QpWorkspace::new())
}

/// Solves a QP with ADMM, warm-starting from a previous iterate and
/// reusing cached setup work from `workspace` where valid.
///
/// `warm` is ignored unless its dimensions fit the problem. Scaling reuse
/// keys on dimensions and the symbolic analysis on the KKT pattern; the
/// numeric factorization is always computed from the problem actually
/// passed in.
pub fn solve_qp_warm(
    problem: &QpProblem,
    settings: &QpSettings,
    warm: Option<&QpWarmStart>,
    workspace: &mut QpWorkspace,
) -> QpSolution {
    let n = problem.num_vars();
    let m = problem.num_constraints();
    // NaN-poisoned problem data fails fast, before any of it reaches the
    // equilibration or the factorization. This is not redundant with the
    // in-loop iterate check: NaN *bounds* would panic the hot loop's
    // `clamp` (min > max assert) before any residual is ever measured.
    if data_is_poisoned(problem) {
        workspace.clear();
        return numerical_error_solution(n, m, 0, QpDiagnostics::default());
    }
    let reuse_scaling = matches!(
        &workspace.scaling,
        Some((d, e)) if d.len() == n && e.len() == m
    );
    if !reuse_scaling {
        workspace.scaling = Some(compute_scaling(problem));
    }
    let (d, e) = workspace.scaling.as_ref().expect("scaling just ensured");
    let scaled = apply_scaling(problem, d, e);

    // scale the warm start into the equilibrated coordinates:
    // x = D·x̃ → x̃ = D⁻¹x; y = E·ỹ → ỹ = E⁻¹y. A primal of the right
    // length is useful even when the constraint rows changed (the dual
    // then restarts at zero), which is the common MPC re-solve case.
    let start = warm.filter(|w| w.x.len() == n).map(|w| {
        let x: Vec<f64> = w.x.iter().zip(d).map(|(xi, di)| xi / di).collect();
        let y: Vec<f64> = if w.y.len() == m {
            w.y.iter().zip(e).map(|(yi, ei)| yi / ei).collect()
        } else {
            vec![0.0; m]
        };
        let z = scaled.a.mul_vec(&x);
        (x, y, z)
    });

    let mut sol = solve_qp_scaled(&scaled, settings, start, workspace);
    if sol.status == QpStatus::NumericalError {
        // drop every cached artifact — scaling computed from poisoned
        // data would silently condition the next solve — and keep the
        // sentinel zeros/∞-residuals rather than "residuals" recomputed
        // at the all-zeros point
        workspace.clear();
        return sol;
    }
    let (d, e) = workspace.scaling.as_ref().expect("scaling retained");
    // unscale: x = D·x̃, y = E·ỹ
    for (x, di) in sol.x.iter_mut().zip(d) {
        *x *= di;
    }
    for (y, ei) in sol.y.iter_mut().zip(e) {
        *y *= ei;
    }
    // report residuals in original units (approximately): recompute
    sol.primal_residual = problem.max_violation(&sol.x);
    let px = problem.p.mul_vec(&sol.x);
    let aty = problem.a.t_mul_vec(&sol.y);
    sol.dual_residual = (0..problem.num_vars())
        .map(|i| (px[i] + problem.q[i] + aty[i]).abs())
        .fold(0.0, f64::max);
    sol
}

/// Modified Ruiz equilibration passes: returns the column scales `D` and
/// row scales `E` such that `DPD` / `EAD` have near-unit row/column norms.
///
/// Each pass computes all row (then column) norms of the current scaled
/// data before applying the updates, so the result is independent of
/// storage order.
fn compute_scaling(problem: &QpProblem) -> (Vec<f64>, Vec<f64>) {
    let n = problem.num_vars();
    let m = problem.num_constraints();
    let mut d = vec![1.0f64; n];
    let mut e = vec![1.0f64; m];
    let mut p = problem.p.clone();
    let mut a = problem.a.clone();
    let clamp = |v: f64| v.clamp(1e-6, 1e6);
    // The *cumulative* scale per row/column is bounded (OSQP's
    // MIN_SCALING/MAX_SCALING): per-pass clamps alone still compound
    // across passes, and a near-zero constraint row can otherwise pick
    // up a ~1e24 scale. The workspace reuses scaling vectors on
    // changed data of the same shape (an exact change of variables),
    // which is only safe because this bound caps how badly a stale
    // scale can condition new rows.
    let bound = |v: f64| v.clamp(1e-4, 1e4);
    let mut row_norm = vec![0.0f64; m];
    let mut col_a = vec![0.0f64; n];
    let mut col_p = vec![0.0f64; n];
    let mut row_s = vec![1.0f64; m];
    let mut col_s = vec![1.0f64; n];
    for _ in 0..8 {
        // row norms of A
        a.row_abs_max_into(&mut row_norm);
        for i in 0..m {
            row_s[i] = if row_norm[i] > 0.0 {
                let s = bound(e[i] / clamp(row_norm[i]).sqrt()) / e[i];
                e[i] *= s;
                s
            } else {
                1.0
            };
        }
        a.scale_rows(&row_s);
        // column norms over A and P
        a.col_abs_max_into(&mut col_a);
        p.col_abs_max_into(&mut col_p);
        for j in 0..n {
            let c = col_a[j].max(col_p[j]);
            col_s[j] = if c > 0.0 {
                let s = bound(d[j] / clamp(c).sqrt()) / d[j];
                d[j] *= s;
                s
            } else {
                1.0
            };
        }
        a.scale_cols(&col_s);
        // symmetric scaling of P: rows and columns
        p.scale_rows(&col_s);
        p.scale_cols(&col_s);
    }
    (d, e)
}

/// Applies scaling vectors to a problem: the scaled program is
/// `min ½x̃ᵀ(DPD)x̃ + (Dq)ᵀx̃  s.t.  El ≤ (EAD)x̃ ≤ Eu` with `x = Dx̃`.
fn apply_scaling(problem: &QpProblem, d: &[f64], e: &[f64]) -> QpProblem {
    let mut p = problem.p.clone();
    p.scale_rows(d);
    p.scale_cols(d);
    let mut a = problem.a.clone();
    a.scale_rows(e);
    a.scale_cols(d);
    let q: Vec<f64> = problem.q.iter().zip(d).map(|(qi, di)| qi * di).collect();
    let l: Vec<f64> = problem.l.iter().zip(e).map(|(li, ei)| li * ei).collect();
    let u: Vec<f64> = problem.u.iter().zip(e).map(|(ui, ei)| ui * ei).collect();
    QpProblem { p, q, a, l, u }
}

/// All per-problem mutable state of one ADMM solve: iterates, the
/// per-constraint penalty, residuals, and the hot-loop scratch.
///
/// [`solve_qp_scaled`] drives it; the unit tests step the same
/// [`AdmmState::iterate`] against a CSC reference iteration, so the
/// iteration body is tested apart from the loop's control flow.
struct AdmmState {
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    rho: f64,
    rho_v: Vec<f64>,
    eq: Vec<bool>,
    primal_res: f64,
    dual_res: f64,
    /// `A` sliced by columns (for `Aᵀ·v`) and by rows (for `A·v`).
    a_cols: LaneSlices,
    a_rows: LaneSlices,
    // hot-loop scratch, allocated once per solve — the per-iteration
    // body is allocation-free. `x_tilde` and `tmp_m` are dot-product
    // inputs and carry one trailing zero slot beyond `n` and `m`.
    rhs: Vec<f64>,
    x_tilde: Vec<f64>,
    tmp_m: Vec<f64>,
    z_tilde: Vec<f64>,
    px: Vec<f64>,
    aty: Vec<f64>,
}

impl AdmmState {
    /// State for one (already scaled) problem, starting from `start`
    /// (cold zeros otherwise) with the resolved initial ρ. Slices the
    /// problem's `A` for the hot loop, so [`AdmmState::iterate`] and
    /// [`AdmmState::measure_residuals`] must be given this same problem.
    fn new(
        problem: &QpProblem,
        rho: f64,
        eq: Vec<bool>,
        start: Option<(Vec<f64>, Vec<f64>, Vec<f64>)>,
    ) -> AdmmState {
        let n = problem.num_vars();
        let m = problem.num_constraints();
        // the projection kernel's precondition (`clamp` would panic on
        // the first iteration): bounds edited through the public fields
        // bypass `QpProblem::from_sparse`'s check
        assert!(
            problem.l.iter().zip(&problem.u).all(|(lo, hi)| lo <= hi),
            "every lower bound must be at most its upper bound"
        );
        let (x, y, z) = start.unwrap_or_else(|| (vec![0.0; n], vec![0.0; m], vec![0.0; m]));
        let mut st = AdmmState {
            x,
            y,
            z,
            rho,
            rho_v: Vec::with_capacity(m),
            eq,
            primal_res: f64::INFINITY,
            dual_res: f64::INFINITY,
            a_cols: LaneSlices::columns_of(&problem.a),
            a_rows: LaneSlices::rows_of(&problem.a),
            rhs: vec![0.0; n],
            x_tilde: vec![0.0; n + 1],
            tmp_m: vec![0.0; m + 1],
            z_tilde: vec![0.0; m],
            px: vec![0.0; n],
            aty: vec![0.0; n],
        };
        fill_rho_vec(st.rho, &st.eq, &mut st.rho_v);
        st
    }

    /// Installs a rebalanced ρ and refreshes the per-constraint vector.
    fn set_rho(&mut self, rho: f64) {
        self.rho = rho;
        fill_rho_vec(self.rho, &self.eq, &mut self.rho_v);
    }

    /// One ADMM iteration: x̃-update, over-relaxation, projection and
    /// dual update. `solve` applies the current KKT factor
    /// (`out = M⁻¹·rhs`); the sparse products run on the lane slices of
    /// `A` and everything else is element-wise, all through the
    /// bitwise-preserving [`crate::simd`] kernels.
    fn iterate(
        &mut self,
        problem: &QpProblem,
        settings: &QpSettings,
        solve: &mut dyn FnMut(&[f64], &mut [f64]),
    ) {
        let (n, m) = (self.x.len(), self.z.len());
        // x̃-update: (P + σI + AᵀRA) x̃ = σx − q + Aᵀ(Rz − y)
        simd::mul_sub(&mut self.tmp_m[..m], &self.rho_v, &self.z, &self.y);
        self.a_cols.dot_into(&self.tmp_m, &mut self.rhs);
        simd::add_scaled_sub(&mut self.rhs, settings.sigma, &self.x, &problem.q);
        solve(&self.rhs, &mut self.x_tilde[..n]);
        self.a_rows.dot_into(&self.x_tilde, &mut self.z_tilde);

        // over-relaxation on both x and z (OSQP alg. 1), projection onto
        // [l, u] and the dual update
        simd::relax(&mut self.x, settings.alpha, &self.x_tilde[..n]);
        simd::project_dual(
            &mut self.z,
            &mut self.y,
            &self.z_tilde,
            &self.rho_v,
            &problem.l,
            &problem.u,
            settings.alpha,
        );
    }

    /// Residual measurement at the current iterate (the every-10-iters
    /// block of the hot loop). The max-folds stay scalar on purpose:
    /// `f64::max` *skips* NaN where the AVX2 max does not, and
    /// [`AdmmState::poisoned`] relies on exactly that behaviour.
    ///
    /// Borrows `x_tilde`, `z_tilde` and `tmp_m` as scratch: `iterate`
    /// writes each of them before reading it.
    fn measure_residuals(&mut self, problem: &QpProblem) {
        let (n, m) = (self.x.len(), self.z.len());
        self.x_tilde[..n].copy_from_slice(&self.x);
        self.a_rows.dot_into(&self.x_tilde, &mut self.z_tilde);
        self.primal_res = self
            .z_tilde
            .iter()
            .zip(&self.z)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        problem.p.mul_vec_into(&self.x, &mut self.px);
        self.tmp_m[..m].copy_from_slice(&self.y);
        self.a_cols.dot_into(&self.tmp_m, &mut self.aty);
        self.dual_res = (0..problem.num_vars())
            .map(|i| (self.px[i] + problem.q[i] + self.aty[i]).abs())
            .fold(0.0, f64::max);
    }

    /// NaN/∞-poisoned iterates (a NaN in the problem data, or iterates
    /// that overflowed) must not be consumed by anything downstream.
    /// The residual folds skip NaN (a poisoned residual reads 0.0), so
    /// the iterate itself is checked too.
    fn poisoned(&self) -> bool {
        !self.primal_res.is_finite()
            || !self.dual_res.is_finite()
            || self.x.iter().any(|v| !v.is_finite())
    }

    /// Whether the measured residuals meet the tolerance.
    fn converged(&self, eps_abs: f64) -> bool {
        self.primal_res < eps_abs && self.dual_res < eps_abs
    }

    /// Adaptive-ρ decision (OSQP §5.2): rebalance when the residuals
    /// diverge by more than an order of magnitude. Returns the new ρ only
    /// when it actually changed (i.e. a refactorization is due).
    fn rho_rebalance(&self, settings: &QpSettings) -> Option<f64> {
        let scale = if self.primal_res > 10.0 * self.dual_res && self.primal_res > settings.eps_abs
        {
            Some(self.rho * 5.0)
        } else if self.dual_res > 10.0 * self.primal_res && self.dual_res > settings.eps_abs {
            Some(self.rho / 5.0)
        } else {
            None
        };
        let new_rho = scale?.clamp(RHO_MIN, RHO_MAX);
        ((new_rho - self.rho).abs() > f64::EPSILON).then_some(new_rho)
    }
}

/// The core ADMM loop on an (already scaled) problem: assembles the KKT
/// matrix, factors it over `workspace`'s cached symbolic analysis, then
/// iterates.
fn solve_qp_scaled(
    problem: &QpProblem,
    settings: &QpSettings,
    start: Option<(Vec<f64>, Vec<f64>, Vec<f64>)>,
    workspace: &mut QpWorkspace,
) -> QpSolution {
    let n = problem.num_vars();
    let m = problem.num_constraints();
    let rho = settings.rho.clamp(RHO_MIN, RHO_MAX);
    // equality rows (l = u) get the stiffer penalty; scaling multiplies
    // both bounds by the same row scale, so the pattern is scale-invariant
    let eq: Vec<bool> = problem
        .l
        .iter()
        .zip(&problem.u)
        .map(|(lo, hi)| lo == hi)
        .collect();

    // KKT matrix M = P + σI + AᵀRA with R = diag(ρ_i), factorized once
    // per ρ value
    let mut diag = QpDiagnostics::default();
    let mut rho_v = Vec::with_capacity(m);
    fill_rho_vec(rho, &eq, &mut rho_v);
    let gram = problem.a.gram_weighted(&rho_v);
    let mut kkt = SparseKkt::new(&problem.p, &gram);
    let Some(mut factor) = build_factor(
        &mut kkt,
        &problem.p,
        &gram,
        settings.sigma,
        &mut workspace.symbolic,
        None,
        &mut diag,
    ) else {
        // the KKT matrix cannot be factorized at any bump
        return numerical_error_solution(n, m, 0, diag);
    };

    let mut st = AdmmState::new(problem, rho, eq, start);
    let mut iters = 0;
    let mut status = QpStatus::MaxIterations;

    for it in 0..settings.max_iters {
        iters = it + 1;
        st.iterate(problem, settings, &mut |b, out| factor.solve_into(b, out));

        if it % 10 == 9 || it == settings.max_iters - 1 {
            st.measure_residuals(problem);
            if st.poisoned() {
                status = QpStatus::NumericalError;
                break;
            }
            if st.converged(settings.eps_abs) {
                status = QpStatus::Solved;
                break;
            }
            if let Some(new_rho) = st.rho_rebalance(settings) {
                st.set_rho(new_rho);
                // the weighted Gram changes with R; its pattern does
                // not, so the assembly maps and symbolic analysis
                // both survive and only the numeric refactor runs
                let gram = problem.a.gram_weighted(&st.rho_v);
                match build_factor(
                    &mut kkt,
                    &problem.p,
                    &gram,
                    settings.sigma,
                    &mut workspace.symbolic,
                    Some(factor),
                    &mut diag,
                ) {
                    Some(f) => factor = f,
                    None => return numerical_error_solution(n, m, iters, diag),
                }
            }
        }
    }

    if status == QpStatus::NumericalError {
        return numerical_error_solution(n, m, iters, diag);
    }
    QpSolution {
        x: st.x,
        y: st.y,
        status,
        iterations: iters,
        primal_residual: st.primal_res,
        dual_residual: st.dual_res,
        diagnostics: diag,
    }
}

/// Whether any problem entry is NaN, or a cost/matrix entry non-finite
/// (constraint bounds may legitimately be ±∞; nothing else may).
fn data_is_poisoned(problem: &QpProblem) -> bool {
    problem.q.iter().any(|v| !v.is_finite())
        || problem.l.iter().any(|v| v.is_nan())
        || problem.u.iter().any(|v| v.is_nan())
        || problem.p.values().iter().any(|v| !v.is_finite())
        || problem.a.values().iter().any(|v| !v.is_finite())
}

/// The canonical [`QpStatus::NumericalError`] result: zero iterates (the
/// only point guaranteed finite), infinite residuals.
fn numerical_error_solution(
    n: usize,
    m: usize,
    iterations: usize,
    diagnostics: QpDiagnostics,
) -> QpSolution {
    QpSolution {
        x: vec![0.0; n],
        y: vec![0.0; m],
        status: QpStatus::NumericalError,
        iterations,
        primal_residual: f64::INFINITY,
        dual_residual: f64::INFINITY,
        diagnostics,
    }
}

/// Assembles `K = P + (σ + bump)·I + AᵀRA` (the Gram matrix arrives
/// already ρ-weighted) and factorizes it with the sparse LDLᵀ,
/// escalating the diagonal bump along `σ, σ+1e-9, σ+1.1e-8, …` while
/// the matrix is not positive definite.
///
/// The symbolic analysis is taken from (or installed into) `symbolic`,
/// and the numeric storage of `prev` is reused in place when it was
/// built for the same analysis — the ρ-adaptation path then allocates
/// nothing beyond the re-weighted Gram.
///
/// Returns `None` when the bump escalation exhausts its budget without
/// producing a positive-definite factor — a pathological (typically
/// NaN-poisoned) cost matrix. This is a status, not a panic: the caller
/// reports [`QpStatus::NumericalError`] and the stack degrades gracefully.
fn build_factor(
    kkt: &mut SparseKkt,
    p: &SparseMatrix,
    gram: &SparseMatrix,
    sigma: f64,
    symbolic: &mut Option<Arc<SymbolicLdl>>,
    mut reuse: Option<SparseLdl>,
    diag: &mut QpDiagnostics,
) -> Option<SparseLdl> {
    let mut bump = 0.0f64;
    let mut step = 1e-9;
    loop {
        let k = kkt.assemble(p, gram, sigma + bump, 1.0);
        diag.factorizations += 1;
        let sym = match symbolic.as_ref() {
            Some(s) if s.matches(k) => {
                diag.symbolic_cache_hits += 1;
                s.clone()
            }
            _ => {
                let s = SymbolicLdl::analyze(k);
                *symbolic = Some(s.clone());
                diag.symbolic_rebuilds += 1;
                s
            }
        };
        let attempt = match reuse.take() {
            Some(mut f) if Arc::ptr_eq(f.symbolic(), &sym) => f.refactor(k).map(|()| f),
            _ => SparseLdl::factor(sym, k),
        };
        if let Ok(f) = attempt {
            if f.is_positive_definite() {
                return Some(f);
            }
            // quasidefinite/indefinite: keep the storage, bump and retry
            reuse = Some(f);
        }
        // a bump budget spanning 15 decades: anything a finite diagonal
        // shift can repair is repaired well before this; what remains is
        // non-finite or structurally broken data
        if step >= 1e6 {
            return None;
        }
        bump += step;
        step *= 10.0;
        diag.reg_bumps += 1;
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletBuilder;

    fn settings() -> QpSettings {
        QpSettings::default()
    }

    #[test]
    fn unconstrained_minimum() {
        // min (x-3)²  → x = 3; constraint row is vacuous
        let qp = QpProblem::new(
            Mat::diag(&[2.0]),
            vec![-6.0],
            Mat::identity(1),
            vec![-1e9],
            vec![1e9],
        )
        .unwrap();
        let sol = solve_qp(&qp, &settings());
        assert_eq!(sol.status, QpStatus::Solved);
        assert!((sol.x[0] - 3.0).abs() < 1e-4, "x = {}", sol.x[0]);
    }

    #[test]
    fn active_box_constraint() {
        // min (x-3)² s.t. x ≤ 1 → x = 1
        let qp = QpProblem::new(
            Mat::diag(&[2.0]),
            vec![-6.0],
            Mat::identity(1),
            vec![-1e9],
            vec![1.0],
        )
        .unwrap();
        let sol = solve_qp(&qp, &settings());
        assert!((sol.x[0] - 1.0).abs() < 1e-4);
        // KKT: gradient 2x-6 = -4 balanced by dual ≈ 4 on the upper bound
        assert!((sol.y[0] + (2.0 * sol.x[0] - 6.0)).abs() < 1e-3);
    }

    #[test]
    fn equality_constraint_via_tight_bounds() {
        // min x² + y² s.t. x + y = 2 → x = y = 1
        let qp = QpProblem::new(
            Mat::diag(&[2.0, 2.0]),
            vec![0.0, 0.0],
            Mat::from_rows(&[&[1.0, 1.0]]),
            vec![2.0],
            vec![2.0],
        )
        .unwrap();
        let sol = solve_qp(&qp, &settings());
        assert!((sol.x[0] - 1.0).abs() < 1e-4);
        assert!((sol.x[1] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn projection_onto_halfspace() {
        // min ‖x − (2, 2)‖² s.t. x₀ + x₁ ≤ 2 → x = (1, 1)
        let qp = QpProblem::new(
            Mat::diag(&[2.0, 2.0]),
            vec![-4.0, -4.0],
            Mat::from_rows(&[&[1.0, 1.0]]),
            vec![-1e9],
            vec![2.0],
        )
        .unwrap();
        let sol = solve_qp(&qp, &settings());
        assert!((sol.x[0] - 1.0).abs() < 1e-3);
        assert!((sol.x[1] - 1.0).abs() < 1e-3);
        assert!(qp.max_violation(&sol.x) < 1e-4);
    }

    #[test]
    fn multi_constraint_qp_kkt_residuals() {
        // a less trivial QP: coupled cost, two inequality rows, one box
        let p = Mat::from_rows(&[&[4.0, 1.0, 0.0], &[1.0, 3.0, 0.5], &[0.0, 0.5, 2.0]]);
        let q = vec![-1.0, 2.0, -3.0];
        let a = Mat::from_rows(&[&[1.0, 1.0, 1.0], &[1.0, -1.0, 0.0], &[0.0, 0.0, 1.0]]);
        let l = vec![-1.0, -2.0, -0.5];
        let u = vec![1.5, 2.0, 0.5];
        let qp = QpProblem::new(p, q, a, l, u).unwrap();
        let sol = solve_qp(&qp, &settings());
        assert_eq!(sol.status, QpStatus::Solved);
        assert!(qp.max_violation(&sol.x) < 1e-4);
        assert!(sol.primal_residual < 1e-5);
        assert!(sol.dual_residual < 1e-5);
        // objective below any feasible probe point
        let probes = [
            vec![0.0, 0.0, 0.0],
            vec![0.5, -0.5, 0.5],
            vec![-0.3, 0.2, -0.5],
        ];
        for probe in probes {
            if qp.max_violation(&probe) < 1e-9 {
                assert!(qp.objective(&sol.x) <= qp.objective(&probe) + 1e-6);
            }
        }
    }

    #[test]
    fn validation_errors() {
        assert_eq!(
            QpProblem::new(
                Mat::zeros(2, 3),
                vec![0.0, 0.0],
                Mat::identity(2),
                vec![0.0; 2],
                vec![0.0; 2]
            )
            .unwrap_err(),
            QpError::BadCost
        );
        assert_eq!(
            QpProblem::new(
                Mat::identity(2),
                vec![0.0, 0.0],
                Mat::identity(2),
                vec![0.0; 3],
                vec![0.0; 3]
            )
            .unwrap_err(),
            QpError::BadConstraints
        );
        assert_eq!(
            QpProblem::new(
                Mat::identity(1),
                vec![0.0],
                Mat::identity(1),
                vec![1.0],
                vec![-1.0]
            )
            .unwrap_err(),
            QpError::CrossedBounds
        );
    }

    #[test]
    fn indefinite_cost_is_regularized_not_fatal() {
        // P has a negative eigenvalue; the regularization-bump escalation
        // (negative pivots → bump → retry) must still terminate.
        let qp = QpProblem::new(
            Mat::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]),
            vec![0.0, 0.0],
            Mat::identity(2),
            vec![-1.0, -1.0],
            vec![1.0, 1.0],
        )
        .unwrap();
        let sol = solve_qp(&qp, &settings());
        assert!(sol.x.iter().all(|v| v.is_finite()));
        assert!(qp.max_violation(&sol.x) < 1e-3);
    }

    #[test]
    fn mpc_scale_problem_solves_quickly() {
        // tracking QP with 40 variables and 80 rows, diagonal-dominant
        let n = 40;
        let p = Mat::diag(&vec![2.0; n]);
        let q: Vec<f64> = (0..n).map(|i| -((i % 7) as f64) * 0.1).collect();
        let mut rows = Mat::zeros(2 * n, n);
        for i in 0..n {
            *rows.at_mut(i, i) = 1.0; // box
            *rows.at_mut(n + i, i) = 1.0;
            if i + 1 < n {
                *rows.at_mut(n + i, i + 1) = -1.0; // rate limit
            }
        }
        let l = vec![-1.0; 2 * n];
        let u = vec![1.0; 2 * n];
        let qp = QpProblem::new(p, q, rows, l, u).unwrap();
        let sol = solve_qp(&qp, &settings());
        assert_eq!(sol.status, QpStatus::Solved);
        assert!(qp.max_violation(&sol.x) < 1e-4);
    }

    /// MPC-like tracking QP with `n` variables, a perturbable linear
    /// term, boxes and rate limits — stands in for consecutive frames.
    fn tracking_qp(n: usize, drift: f64) -> QpProblem {
        let p = Mat::diag(&vec![2.0; n]);
        // strong pull so many boxes and rate limits are active: the cold
        // solve has to discover the active set, the warm one starts on it
        let q: Vec<f64> = (0..n)
            .map(|i| -((i % 7) as f64) * 1.5 + drift * (1.0 + (i % 3) as f64))
            .collect();
        let mut rows = Mat::zeros(2 * n, n);
        for i in 0..n {
            *rows.at_mut(i, i) = 1.0;
            *rows.at_mut(n + i, i) = 1.0;
            if i + 1 < n {
                *rows.at_mut(n + i, i + 1) = -1.0;
            }
        }
        QpProblem::new(p, q, rows, vec![-1.0; 2 * n], vec![1.0; 2 * n]).unwrap()
    }

    #[test]
    fn from_sparse_keeps_structural_zeros() {
        // a structural zero in A must survive into the problem pattern
        let mut pa = TripletBuilder::new(2, 2);
        pa.push(0, 0, 2.0);
        pa.push(1, 1, 2.0);
        let mut aa = TripletBuilder::new(2, 2);
        aa.push(0, 0, 1.0);
        aa.push(0, 1, 0.0); // structural slot, numerically zero
        aa.push(1, 1, 1.0);
        let qp = QpProblem::from_sparse(
            pa.build(),
            vec![-2.0, -2.0],
            aa.build(),
            vec![-1.0, -1.0],
            vec![1.0, 1.0],
        )
        .unwrap();
        assert_eq!(qp.a().nnz(), 3);
        let sol = solve_qp(&qp, &settings());
        assert_eq!(sol.status, QpStatus::Solved);
        assert!((sol.x[0] - 1.0).abs() < 1e-4);
        assert!((sol.x[1] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn symbolic_cache_survives_value_updates() {
        // re-solving same-pattern problems through one workspace must
        // analyze the KKT pattern exactly once
        let s = settings();
        let mut ws = QpWorkspace::new();
        solve_qp_warm(&tracking_qp(40, 0.0), &s, None, &mut ws);
        let sym = ws.symbolic().expect("a solve populates the cache").clone();
        let second = solve_qp_warm(&tracking_qp(40, 0.5), &s, None, &mut ws);
        assert_eq!(second.status, QpStatus::Solved);
        let sym2 = ws.symbolic().expect("cache retained");
        assert!(Arc::ptr_eq(&sym, sym2), "same pattern must not re-analyze");
    }

    #[test]
    fn warm_start_meets_kkt_tolerances_with_fewer_iterations() {
        // frame 2 is a small perturbation of frame 1: warm-started ADMM
        // must hit the same KKT tolerances in (strictly) fewer iterations
        let frame1 = tracking_qp(40, 0.0);
        let frame2 = tracking_qp(40, 0.01);
        let s = settings();

        let cold = solve_qp(&frame2, &s);
        assert_eq!(cold.status, QpStatus::Solved);

        let mut ws = QpWorkspace::new();
        let first = solve_qp_warm(&frame1, &s, None, &mut ws);
        let warm = QpWarmStart::from_solution(&first);
        let second = solve_qp_warm(&frame2, &s, Some(&warm), &mut ws);

        assert_eq!(second.status, QpStatus::Solved);
        // KKT quality is as good as the cold solve's tolerances …
        assert!(frame2.max_violation(&second.x) < 1e-4);
        assert!(second.primal_residual < 1e-4);
        // … with measurably fewer ADMM iterations
        assert!(
            second.iterations < cold.iterations,
            "warm {} vs cold {}",
            second.iterations,
            cold.iterations
        );
        // and the two solves agree on the optimum
        for (a, b) in second.x.iter().zip(&cold.x) {
            assert!((a - b).abs() < 1e-3, "warm {a} vs cold {b}");
        }
    }

    #[test]
    fn workspace_factor_reuse_is_exact() {
        // solving the identical problem twice through one workspace must
        // reproduce the cold solution (cache reuse changes no results)
        let qp = tracking_qp(12, 0.0);
        let s = settings();
        let cold = solve_qp(&qp, &s);
        let mut ws = QpWorkspace::new();
        let first = solve_qp_warm(&qp, &s, None, &mut ws);
        assert_eq!(first.x, cold.x);
        let warm = QpWarmStart::from_solution(&first);
        let again = solve_qp_warm(&qp, &s, Some(&warm), &mut ws);
        assert_eq!(again.status, QpStatus::Solved);
        assert!(again.iterations <= first.iterations);
        for (a, b) in again.x.iter().zip(&cold.x) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn warm_start_with_stale_dual_dimensions_still_solves() {
        // constraint rows changed between frames (MPC collision rows come
        // and go): the primal is reused, the dual restarts at zero
        let frame1 = tracking_qp(10, 0.0);
        let s = settings();
        let mut ws = QpWorkspace::new();
        let first = solve_qp_warm(&frame1, &s, None, &mut ws);
        let warm = QpWarmStart::from_solution(&first);

        // same variables, one extra constraint row
        let mut rows = Mat::zeros(21, 10);
        for i in 0..10 {
            *rows.at_mut(i, i) = 1.0;
            *rows.at_mut(10 + i, i) = 1.0;
        }
        *rows.at_mut(20, 0) = 1.0;
        *rows.at_mut(20, 1) = 1.0;
        let frame2 = QpProblem::new(
            Mat::diag(&[2.0; 10]),
            frame1.q.clone(),
            rows,
            vec![-1.0; 21],
            vec![1.0; 21],
        )
        .unwrap();
        let sol = solve_qp_warm(&frame2, &s, Some(&warm), &mut ws);
        assert_eq!(sol.status, QpStatus::Solved);
        assert!(frame2.max_violation(&sol.x) < 1e-4);
    }

    #[test]
    fn scaling_reuse_survives_degenerate_then_regular_rows() {
        // Regression (conformance fuzzer, seed 114): frame 1 has a
        // near-zero constraint row, whose Ruiz scale must stay bounded;
        // frame 2 reuses the cached scaling vectors on a same-shape
        // problem where that row is regular. Unbounded cumulative
        // scaling (~1e24) made the reused-scaling KKT matrix so ill-
        // conditioned that Cholesky failed at every regularization and
        // the solver panicked.
        let n = 6;
        let s = settings();
        let make = |row_scale: f64| {
            let mut rows = Mat::zeros(n + 1, n);
            for i in 0..n {
                *rows.at_mut(i, i) = 1.0;
            }
            // the troublesome row: near-zero in frame 1, regular in frame 2
            *rows.at_mut(n, 0) = row_scale;
            *rows.at_mut(n, 1) = row_scale;
            let mut l = vec![-1.0; n + 1];
            let mut u = vec![1.0; n + 1];
            l[n] = -1e9;
            u[n] = 1e9;
            QpProblem::new(Mat::diag(&vec![2.0; n]), vec![-1.0; n], rows, l, u).unwrap()
        };
        let frame1 = make(1e-30);
        let frame2 = make(1.0);

        let mut ws = QpWorkspace::new();
        let first = solve_qp_warm(&frame1, &s, None, &mut ws);
        assert_eq!(first.status, QpStatus::Solved);
        let warm = QpWarmStart::from_solution(&first);
        let second = solve_qp_warm(&frame2, &s, Some(&warm), &mut ws);
        assert_eq!(second.status, QpStatus::Solved);
        assert!(frame2.max_violation(&second.x) < 1e-4);
        // both frames share the unconstrained optimum x_i = 0.5
        for v in &second.x {
            assert!((v - 0.5).abs() < 1e-3, "x = {v}");
        }
    }

    /// A QP whose cost matrix is NaN-poisoned (what an upstream
    /// linearization bug would produce).
    fn nan_cost_qp() -> QpProblem {
        let mut p = Mat::diag(&[2.0; 4]);
        *p.at_mut(1, 1) = f64::NAN;
        QpProblem::new(
            p,
            vec![0.0; 4],
            Mat::identity(4),
            vec![-1.0; 4],
            vec![1.0; 4],
        )
        .unwrap()
    }

    #[test]
    fn nan_cost_matrix_is_a_status_not_a_panic() {
        // Regression: the sparse LDLᵀ sees NaN pivots as "not positive
        // definite" and the regularization loop escalated its diagonal
        // bump forever, ending in a panic. It must now report
        // NumericalError.
        let sol = solve_qp(&nan_cost_qp(), &settings());
        assert_eq!(sol.status, QpStatus::NumericalError);
        assert!(sol.x.iter().all(|v| *v == 0.0));
        assert!(sol.primal_residual.is_infinite());
        assert!(sol.dual_residual.is_infinite());
    }

    #[test]
    fn nan_linear_cost_is_a_status_not_a_panic() {
        let qp = QpProblem::new(
            Mat::diag(&[2.0, 2.0]),
            vec![f64::NAN, 0.0],
            Mat::identity(2),
            vec![-1.0; 2],
            vec![1.0; 2],
        )
        .unwrap();
        let sol = solve_qp(&qp, &settings());
        assert_eq!(sol.status, QpStatus::NumericalError);
        assert!(sol.x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn bump_budget_is_bounded_on_unfactorizable_kkt() {
        // −1e300 on the diagonal is finite (so it passes the upfront
        // poison check) but stays ~−1e292 after the bounded equilibration
        // — beyond what any bump in the budget (~1e5) can repair. The
        // escalation must stop at its budget with a status, not loop or
        // panic, and the diagnostics must show it ran.
        let qp = QpProblem::new(
            Mat::diag(&[-1e300, -1e300]),
            vec![0.0; 2],
            Mat::identity(2),
            vec![-1.0; 2],
            vec![1.0; 2],
        )
        .unwrap();
        let sol = solve_qp(&qp, &settings());
        assert_eq!(sol.status, QpStatus::NumericalError);
        assert!(
            (10..=20).contains(&sol.diagnostics.reg_bumps),
            "bumps = {}",
            sol.diagnostics.reg_bumps
        );
        assert_eq!(sol.iterations, 0, "never entered the ADMM loop");
    }

    #[test]
    fn extreme_indefinite_cost_terminates_without_panic() {
        // −1e12 on the diagonal: equilibration scales it into the range
        // the diagonal bump can repair, so the solve terminates cleanly
        // on the regularized problem — the point is bounded termination
        // with finite iterates, whatever the status
        let qp = QpProblem::new(
            Mat::diag(&[-1e12, -1e12]),
            vec![0.0; 2],
            Mat::identity(2),
            vec![-1.0; 2],
            vec![1.0; 2],
        )
        .unwrap();
        let sol = solve_qp(&qp, &settings());
        assert!(
            sol.status != QpStatus::NumericalError || sol.x.iter().all(|v| *v == 0.0),
            "a numerical error must come with the sentinel iterate"
        );
        assert!(sol.x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn workspace_recovers_after_a_numerical_error() {
        // a poisoned frame must not leave state behind that conditions
        // the next (healthy) frame: the workspace clears itself and the
        // follow-up solve matches a cold solve exactly
        let s = settings();
        let mut ws = QpWorkspace::new();
        let good = tracking_qp(12, 0.0);
        let first = solve_qp_warm(&good, &s, None, &mut ws);
        assert_eq!(first.status, QpStatus::Solved);

        let failed = solve_qp_warm(&nan_cost_qp(), &s, None, &mut ws);
        assert_eq!(failed.status, QpStatus::NumericalError);
        assert!(ws.symbolic().is_none(), "failure must clear the workspace");
        assert_eq!(ws.snapshot(), QpWorkspaceSnapshot::default());

        let recovered = solve_qp_warm(&good, &s, None, &mut ws);
        assert_eq!(recovered.status, QpStatus::Solved);
        assert_eq!(recovered.x, solve_qp(&good, &s).x);
    }

    /// The ADMM iteration on CSC matvecs and the scalar projection loop:
    /// the arithmetic [`AdmmState::iterate`] must replay bit for bit.
    fn iterate_csc(
        st: &mut AdmmState,
        problem: &QpProblem,
        settings: &QpSettings,
        solve: &mut dyn FnMut(&[f64], &mut [f64]),
    ) {
        let (n, m) = (st.x.len(), st.z.len());
        simd::mul_sub(&mut st.tmp_m[..m], &st.rho_v, &st.z, &st.y);
        problem.a.t_mul_vec_into(&st.tmp_m[..m], &mut st.rhs);
        simd::add_scaled_sub(&mut st.rhs, settings.sigma, &st.x, &problem.q);
        solve(&st.rhs, &mut st.x_tilde[..n]);
        problem.a.mul_vec_into(&st.x_tilde[..n], &mut st.z_tilde);
        let alpha = settings.alpha;
        simd::relax(&mut st.x, alpha, &st.x_tilde[..n]);
        for i in 0..m {
            let relaxed = alpha * st.z_tilde[i] + (1.0 - alpha) * st.z[i];
            let zi = (relaxed + st.y[i] / st.rho_v[i]).clamp(problem.l[i], problem.u[i]);
            st.y[i] += st.rho_v[i] * (relaxed - zi);
            st.z[i] = zi;
        }
    }

    /// [`AdmmState::measure_residuals`] on CSC matvecs.
    fn measure_residuals_csc(st: &mut AdmmState, problem: &QpProblem) {
        let m = st.z.len();
        problem.a.mul_vec_into(&st.x, &mut st.tmp_m[..m]);
        st.primal_res = st.tmp_m[..m]
            .iter()
            .zip(&st.z)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        problem.p.mul_vec_into(&st.x, &mut st.px);
        problem.a.t_mul_vec_into(&st.y, &mut st.aty);
        st.dual_res = (0..problem.num_vars())
            .map(|i| (st.px[i] + problem.q[i] + st.aty[i]).abs())
            .fold(0.0, f64::max);
    }

    fn lcg(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5
    }

    /// A random sparse QP: coupled positive-definite `P`, an `A` with
    /// explicit zeros, empty rows and columns and lanes of uneven length,
    /// and bounds mixing equality rows, ±∞, ±1e9 and finite intervals.
    fn random_qp(seed: u64) -> QpProblem {
        let mut s = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let n = 5 + (seed as usize * 7) % 31;
        let m = n + (seed as usize * 13) % (2 * n);
        let mut p = TripletBuilder::new(n, n);
        for i in 0..n {
            p.push(i, i, 2.0 + lcg(&mut s));
            if i + 1 < n {
                let v = 0.5 * lcg(&mut s);
                p.push(i, i + 1, v);
                p.push(i + 1, i, v);
            }
        }
        let mut a = TripletBuilder::new(m, n);
        for r in 0..m {
            if r % 11 == 5 {
                continue; // an empty row
            }
            let len = 1 + (r * 5 + seed as usize) % 6;
            for k in 0..len {
                let c = (r * 3 + k * 7 + seed as usize) % n;
                if c % 9 == 4 {
                    continue; // column 4 (and every 9th) stays empty
                }
                let v = if k == 2 { 0.0 } else { lcg(&mut s) * 4.0 };
                a.push(r, c, v);
            }
        }
        let q: Vec<f64> = (0..n)
            .map(|i| if i % 5 == 0 { 0.0 } else { lcg(&mut s) * 3.0 })
            .collect();
        let (mut l, mut u) = (Vec::with_capacity(m), Vec::with_capacity(m));
        for r in 0..m {
            let c = lcg(&mut s);
            let (lo, hi) = match r % 5 {
                0 => (c, c),
                1 => (f64::NEG_INFINITY, c + 0.3),
                2 => (c - 0.3, f64::INFINITY),
                3 => (-1e9, 1e9),
                _ => (c - 0.2, c + 0.2),
            };
            l.push(lo);
            u.push(hi);
        }
        QpProblem::from_sparse(p.build(), q, a.build(), l, u).unwrap()
    }

    #[test]
    fn sliced_iteration_replays_csc_iteration_bitwise() {
        // From the same state and factor, the lane-sliced iteration and
        // the dispatch-free LDLᵀ solve must leave every iterate and both
        // residuals bit-identical to the CSC iteration with per-column
        // sweeps, from cold zeros and from a warm start holding ±0.0.
        let s = settings();
        let mut cases = vec![tracking_qp(40, 0.3), tracking_qp(7, -0.2)];
        cases.extend((0..8).map(random_qp));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for backend in [simd::KernelBackend::Scalar, simd::detected()] {
            simd::with_backend(backend, || {
                for (case, qp) in cases.iter().enumerate() {
                    let (d, e) = compute_scaling(qp);
                    let scaled = apply_scaling(qp, &d, &e);
                    let (n, m) = (scaled.num_vars(), scaled.num_constraints());
                    let eq: Vec<bool> = scaled
                        .l
                        .iter()
                        .zip(&scaled.u)
                        .map(|(lo, hi)| lo == hi)
                        .collect();
                    let mut rho_v = Vec::new();
                    fill_rho_vec(s.rho, &eq, &mut rho_v);
                    let gram = scaled.a.gram_weighted(&rho_v);
                    let mut kkt = SparseKkt::new(&scaled.p, &gram);
                    let factor = build_factor(
                        &mut kkt,
                        &scaled.p,
                        &gram,
                        s.sigma,
                        &mut None,
                        None,
                        &mut QpDiagnostics::default(),
                    );
                    let Some(mut ldl) = factor else {
                        panic!("case {case}: factor expected");
                    };
                    let reference = ldl.clone();
                    let mut seed = case as u64;
                    let mut signed = |len: usize| -> Vec<f64> {
                        (0..len)
                            .map(|i| match i % 4 {
                                0 => 0.0,
                                1 => -0.0,
                                _ => lcg(&mut seed),
                            })
                            .collect()
                    };
                    let warm = (signed(n), signed(m), signed(m));
                    for start in [None, Some(warm)] {
                        let mut new = AdmmState::new(&scaled, s.rho, eq.clone(), start.clone());
                        let mut old = AdmmState::new(&scaled, s.rho, eq.clone(), start);
                        for it in 0..200 {
                            new.iterate(&scaled, &s, &mut |b, out| ldl.solve_into(b, out));
                            iterate_csc(&mut old, &scaled, &s, &mut |b, out| {
                                reference.solve_per_column(b, out)
                            });
                            if it % 10 == 9 {
                                new.measure_residuals(&scaled);
                                measure_residuals_csc(&mut old, &scaled);
                                let label = format!("{backend:?} case {case} iteration {it}");
                                assert_eq!(bits(&new.x), bits(&old.x), "{label}: x");
                                assert_eq!(bits(&new.y), bits(&old.y), "{label}: y");
                                assert_eq!(bits(&new.z), bits(&old.z), "{label}: z");
                                assert_eq!(new.primal_res.to_bits(), old.primal_res.to_bits());
                                assert_eq!(new.dual_res.to_bits(), old.dual_res.to_bits());
                            }
                        }
                    }
                }
            });
        }
    }

    #[test]
    #[should_panic(expected = "every lower bound must be at most its upper bound")]
    fn crossed_bounds_set_through_public_fields_panic_before_the_loop() {
        // on every kernel backend, as the scalar clamp would
        let mut qp = tracking_qp(6, 0.0);
        qp.l[0] = 2.0;
        solve_qp(&qp, &settings());
    }

    #[test]
    fn diagnostics_report_cache_reuse() {
        let qp = tracking_qp(12, 0.0);
        let s = settings();
        let mut ws = QpWorkspace::new();
        let first = solve_qp_warm(&qp, &s, None, &mut ws);
        assert!(first.diagnostics.factorizations >= 1);
        assert_eq!(first.diagnostics.symbolic_rebuilds, 1);
        let warm = QpWarmStart::from_solution(&first);
        let second = solve_qp_warm(&qp, &s, Some(&warm), &mut ws);
        assert_eq!(second.diagnostics.symbolic_rebuilds, 0);
        assert!(second.diagnostics.symbolic_cache_hits >= 1);
    }
}
