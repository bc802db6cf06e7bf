//! An ADMM quadratic-program solver over a sparse LDLᵀ KKT factorization
//! — the CVXPY substitute for the iCOIL CO module.
//!
//! The paper convexifies the nonconvex parking problem (eq. 6) and hands
//! the resulting convex subproblems to "open-source optimization software
//! (e.g., CVXPY)". This crate plays that role:
//!
//! * [`QpProblem`] / [`solve_qp`] — an OSQP-style ADMM solver for
//!   `min ½xᵀPx + qᵀx  s.t.  l ≤ Ax ≤ u`, factoring its KKT matrix with
//!   [`SparseLdl`];
//! * [`Mat`] — a small dense `f64` matrix for building problems, with a
//!   Cholesky factorization that tests hold the sparse LDLᵀ against.
//!
//! The sequential-convexification loop that *produces* those QPs lives in
//! `icoil-co`, next to the MPC formulation it linearizes.
//!
//! # Example
//!
//! ```
//! use icoil_solver::{Mat, QpProblem, solve_qp, QpSettings};
//!
//! // minimize (x0-1)² + (x1+2)²  subject to  -0.5 ≤ x ≤ 0.5 (element-wise)
//! let p = Mat::diag(&[2.0, 2.0]);
//! let q = vec![-2.0, 4.0];
//! let a = Mat::identity(2);
//! let qp = QpProblem::new(p, q, a, vec![-0.5, -0.5], vec![0.5, 0.5]).unwrap();
//! let sol = solve_qp(&qp, &QpSettings::default());
//! assert!((sol.x[0] - 0.5).abs() < 1e-4);
//! assert!((sol.x[1] + 0.5).abs() < 1e-4);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod ldl;
pub mod linalg;
pub mod qp;
pub mod simd;
pub mod sparse;

pub use ldl::{LdlError, SparseLdl, SymbolicLdl};
pub use linalg::{Cholesky, Mat};
pub use qp::{
    solve_qp, solve_qp_warm, Backend, QpDiagnostics, QpProblem, QpSettings, QpSolution, QpStatus,
    QpWarmStart, QpWorkspace, QpWorkspaceSnapshot,
};
pub use sparse::{SparseKkt, SparseMatrix, TripletBuilder};
