//! Property-based tests for the solver crate: every solved QP must
//! satisfy feasibility and first-order (KKT) conditions, the sparse
//! LDLᵀ factorization must agree with the dense Cholesky reference on
//! whatever sparsity pattern it is handed, and the ADMM kernels must
//! match the scalar loops they replace bit for bit on both backends.

use icoil_solver::simd::{self, KernelBackend, LaneSlices};
use icoil_solver::{
    solve_qp, Mat, QpProblem, QpSettings, QpStatus, SparseLdl, SparseMatrix, SymbolicLdl,
    TripletBuilder,
};
use proptest::prelude::*;

/// Both kernel backends the host CPU can run (scalar, then the detected
/// one, which may be scalar again).
fn backends() -> [KernelBackend; 2] {
    [KernelBackend::Scalar, simd::detected()]
}

/// The bits of every entry, with all NaNs read as one: Rust leaves the
/// sign and payload of a NaN result unspecified (LLVM may commute the
/// operands of an add), so only NaN-ness is part of the contract.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter()
        .map(|x| {
            if x.is_nan() {
                f64::NAN.to_bits()
            } else {
                x.to_bits()
            }
        })
        .collect()
}

/// A dot-product input entry: mostly finite, with exact `+0.0` and
/// `−0.0` (the row kernel's zero skip), NaN and `±∞`.
fn arb_input() -> impl Strategy<Value = f64> {
    (0u32..12, -4.0f64..4.0).prop_map(|(kind, x)| match kind {
        0 | 1 => 0.0,
        2 => -0.0,
        3 => f64::NAN,
        4 => f64::INFINITY,
        5 => f64::NEG_INFINITY,
        _ => x,
    })
}

/// A random `rows × cols` matrix (either may be zero) with explicit
/// `+0.0`/`−0.0` entries, empty rows and columns and lanes of uneven
/// length, plus an input for `A·x` and one for `Aᵀ·y`. A few entries are
/// `±∞` or NaN, the only values whose product with a zero input is not
/// a zero, so the row kernel's zero skip shows.
fn arb_matvec() -> impl Strategy<Value = (SparseMatrix, Vec<f64>, Vec<f64>)> {
    (0usize..14, 0usize..14).prop_flat_map(|(rows, cols)| {
        (
            prop::collection::vec(
                (0..rows.max(1), 0..cols.max(1), 0u32..24, -3.0f64..3.0),
                0..2 * rows * cols + 1,
            ),
            prop::collection::vec(arb_input(), cols),
            prop::collection::vec(arb_input(), rows),
        )
            .prop_map(move |(entries, x, y)| {
                let mut b = TripletBuilder::new(rows, cols);
                if rows > 0 && cols > 0 {
                    for (r, c, kind, v) in entries {
                        let v = match kind {
                            0..=2 => 0.0,
                            3 => -0.0,
                            4 => f64::INFINITY,
                            5 => f64::NEG_INFINITY,
                            6 => f64::NAN,
                            _ => v,
                        };
                        b.push(r, c, v);
                    }
                }
                (b.build(), x, y)
            })
    })
}

/// A projection row: an iterate triple (NaN and ±∞ included, or all
/// three the same signed zero), a positive ρ and bounds that are equal,
/// one-sided, infinite, ±1e9 or a finite box around a centre that is
/// sometimes `±0.0` — where `clamp` keeps a `−0.0` iterate below a
/// `+0.0` bound.
fn arb_projection_row() -> impl Strategy<Value = [f64; 6]> {
    (
        (arb_input(), arb_input(), arb_input(), 0u32..8),
        -6.0f64..6.0,
        0u32..6,
        (0u32..3, -2.0f64..2.0),
    )
        .prop_map(|((z, y, zt, zeros), log_rho, kind, (centre, c))| {
            let (z, y, zt) = match zeros {
                0 => (0.0, 0.0, 0.0),
                1 => (-0.0, -0.0, -0.0),
                _ => (z, y, zt),
            };
            let c = match centre {
                0 => 0.0,
                1 => -0.0,
                _ => c,
            };
            let (l, u) = match kind {
                0 => (c, c),
                1 => (f64::NEG_INFINITY, c),
                2 => (c, f64::INFINITY),
                3 => (-1e9, 1e9),
                4 => (f64::NEG_INFINITY, f64::INFINITY),
                _ => (c - 0.5, c + 0.5),
            };
            [z, y, zt, 10f64.powf(log_rho), l, u]
        })
}

/// Random strictly-convex diagonal QP with box constraints — the solution
/// is known in closed form: clamp(-q_i / p_i, l_i, u_i).
fn arb_box_qp() -> impl Strategy<Value = (QpProblem, Vec<f64>)> {
    (2usize..8).prop_flat_map(|n| {
        (
            prop::collection::vec(0.5f64..5.0, n),
            prop::collection::vec(-3.0f64..3.0, n),
            prop::collection::vec(-2.0f64..0.0, n),
            prop::collection::vec(0.0f64..2.0, n),
        )
            .prop_map(|(pd, q, l, u)| {
                let expected: Vec<f64> = pd
                    .iter()
                    .zip(&q)
                    .zip(l.iter().zip(&u))
                    .map(|((p, qi), (lo, hi))| (-qi / p).clamp(*lo, *hi))
                    .collect();
                let n = pd.len();
                let qp = QpProblem::new(Mat::diag(&pd), q, Mat::identity(n), l, u).unwrap();
                (qp, expected)
            })
    })
}

/// Random symmetric positive definite matrix with a random sparsity
/// pattern: a handful of off-diagonal entries plus a diagonal made
/// dominant enough to guarantee positive definiteness.
fn arb_sparse_spd() -> impl Strategy<Value = SparseMatrix> {
    (3usize..12).prop_flat_map(|n| {
        (
            Just(n),
            prop::collection::vec((0..n, 0..n, -1.0f64..1.0), 0..3 * n),
            prop::collection::vec(0.1f64..2.0, n),
        )
            .prop_map(|(n, offdiag, diag)| {
                let mut b = TripletBuilder::new(n, n);
                let mut row_sums = vec![0.0; n];
                for (i, j, v) in offdiag {
                    if i == j {
                        continue;
                    }
                    // symmetrize so the matrix stays factorizable as LDLᵀ
                    b.push(i, j, v);
                    b.push(j, i, v);
                    row_sums[i] += v.abs();
                    row_sums[j] += v.abs();
                }
                for (i, d) in diag.iter().enumerate() {
                    // strict diagonal dominance ⇒ positive definite
                    b.push(i, i, row_sums[i] + d);
                }
                b.build()
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn diagonal_box_qp_matches_closed_form((qp, expected) in arb_box_qp()) {
        let sol = solve_qp(&qp, &QpSettings::default());
        prop_assert_eq!(sol.status, QpStatus::Solved);
        for (got, want) in sol.x.iter().zip(&expected) {
            prop_assert!((got - want).abs() < 1e-3, "got {} want {}", got, want);
        }
    }

    #[test]
    fn solutions_are_feasible_and_stationary(
        n in 2usize..6,
        seed in 0u64..500,
    ) {
        // random PSD P = GᵀG + I, random A, sorted bounds
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let g = Mat::from_vec(n, n, (0..n * n).map(|_| next()).collect());
        let mut p = g.gram();
        p.add_scaled(&Mat::identity(n), 1.0);
        let q: Vec<f64> = (0..n).map(|_| next()).collect();
        let m = n + 1;
        let a = Mat::from_vec(m, n, (0..m * n).map(|_| next()).collect());
        // Bounds straddle a known point so the feasible set is non-empty
        // (independent random slabs can otherwise have empty intersection).
        let x0: Vec<f64> = (0..n).map(|_| next()).collect();
        let ax0 = a.mul_vec(&x0);
        let (l, u): (Vec<f64>, Vec<f64>) = ax0
            .iter()
            .map(|&c| {
                let below = 0.1 + next().abs();
                let above = 0.1 + next().abs();
                (c - below, c + above)
            })
            .unzip();
        let qp = QpProblem::new(p, q, a, l, u).unwrap();
        let sol = solve_qp(&qp, &QpSettings::default());
        // feasibility
        prop_assert!(qp.max_violation(&sol.x) < 1e-3, "violation {}", qp.max_violation(&sol.x));
        // stationarity: Px + q + Aᵀy ≈ 0
        prop_assert!(sol.dual_residual < 1e-3, "dual residual {}", sol.dual_residual);
    }

    #[test]
    fn objective_no_worse_than_origin_when_origin_feasible(
        (qp, _) in arb_box_qp(),
    ) {
        // origin is feasible for these box QPs (l ≤ 0 ≤ u)
        let sol = solve_qp(&qp, &QpSettings::default());
        let zero = vec![0.0; qp.num_vars()];
        prop_assert!(qp.objective(&sol.x) <= qp.objective(&zero) + 1e-6);
    }

    #[test]
    fn sparse_ldl_solves_match_dense_cholesky(
        k in arb_sparse_spd(),
        rhs_seed in 0u64..1000,
    ) {
        let n = k.rows();
        let b: Vec<f64> = (0..n)
            .map(|i| {
                let s = rhs_seed
                    .wrapping_add(i as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15);
                ((s >> 33) as f64 / (1u64 << 31) as f64) - 0.5
            })
            .collect();
        let sym = SymbolicLdl::analyze(&k);
        let mut sparse = SparseLdl::factor(sym, &k).expect("SPD factors");
        prop_assert!(sparse.is_positive_definite());
        let xs = sparse.solve(&b);
        let dense = k.to_dense().cholesky().expect("SPD factors densely");
        let xd = dense.solve(&b);
        for (a, d) in xs.iter().zip(&xd) {
            prop_assert!((a - d).abs() < 1e-8, "sparse {a} vs dense {d}");
        }
        // permutation round-trip: applying K to the solution recovers b
        let kb = k.mul_vec(&xs);
        for (got, want) in kb.iter().zip(&b) {
            prop_assert!((got - want).abs() < 1e-7, "K·x = {got} vs b = {want}");
        }
    }

    #[test]
    fn sparse_ldl_factors_quasidefinite_kkt_forms(
        k in arb_sparse_spd(),
        m_extra in 1usize..5,
    ) {
        // Assemble the quasidefinite saddle form [[K, Bᵀ], [B, −I]] the
        // OSQP KKT family produces, with a random coupling block B.
        let n = k.rows();
        let total = n + m_extra;
        let mut b = TripletBuilder::new(total, total);
        for j in 0..n {
            for idx in k.col_ptr()[j]..k.col_ptr()[j + 1] {
                b.push(k.row_ind()[idx], j, k.values()[idx]);
            }
        }
        for r in 0..m_extra {
            let i = n + r;
            let j = r % n;
            b.push(i, j, 0.5);
            b.push(j, i, 0.5);
            b.push(i, i, -1.0);
        }
        let kkt = b.build();
        let sym = SymbolicLdl::analyze(&kkt);
        let mut f = SparseLdl::factor(sym, &kkt).expect("quasidefinite factors");
        prop_assert!(!f.is_positive_definite());
        let rhs: Vec<f64> = (0..total).map(|i| (i as f64 * 0.37).sin()).collect();
        let x = f.solve(&rhs);
        let back = kkt.mul_vec(&x);
        for (got, want) in back.iter().zip(&rhs) {
            prop_assert!((got - want).abs() < 1e-7, "K·x = {got} vs b = {want}");
        }
    }

    #[test]
    fn symbolic_reuse_is_bitwise_identical_to_fresh_factorization(
        k in arb_sparse_spd(),
        scale in 0.5f64..2.0,
    ) {
        // refactor with rescaled values over the cached symbolic analysis
        let sym = SymbolicLdl::analyze(&k);
        let mut reused = SparseLdl::factor(sym.clone(), &k).expect("SPD factors");
        let mut scaled = k.clone();
        for v in scaled.values_mut() {
            *v *= scale;
        }
        reused.refactor(&scaled).expect("same pattern refactors");
        let fresh = SparseLdl::factor(SymbolicLdl::analyze(&scaled), &scaled)
            .expect("scaled SPD factors");
        prop_assert_eq!(reused.diag().to_vec(), fresh.diag().to_vec());
        let rhs: Vec<f64> = (0..k.rows()).map(|i| (i as f64 * 0.71).cos()).collect();
        let mut fresh = fresh;
        prop_assert_eq!(reused.solve(&rhs), fresh.solve(&rhs));
    }

    #[test]
    fn lane_sliced_dot_products_match_csc_loops((a, x, y) in arb_matvec()) {
        let mut want_ax = vec![0.0; a.rows()];
        a.mul_vec_into(&x, &mut want_ax);
        let mut want_aty = vec![0.0; a.cols()];
        a.t_mul_vec_into(&y, &mut want_aty);
        // the sliced inputs carry one trailing zero slot
        let (mut xp, mut yp) = (x.clone(), y.clone());
        xp.push(0.0);
        yp.push(0.0);
        let (rows, cols) = (LaneSlices::rows_of(&a), LaneSlices::columns_of(&a));
        for backend in backends() {
            let (ax, aty) = simd::with_backend(backend, || {
                let mut ax = vec![f64::NAN; a.rows()];
                rows.dot_into(&xp, &mut ax);
                let mut aty = vec![f64::NAN; a.cols()];
                cols.dot_into(&yp, &mut aty);
                (ax, aty)
            });
            prop_assert_eq!(bits(&ax), bits(&want_ax), "{:?}: A·x vs mul_vec_into", backend);
            prop_assert_eq!(bits(&aty), bits(&want_aty), "{:?}: Aᵀ·y vs t_mul_vec_into", backend);
        }
    }

    #[test]
    fn project_dual_matches_scalar_loop(
        rows in prop::collection::vec(arb_projection_row(), 0..19),
        alpha in 0.1f64..1.9,
    ) {
        let col = |k: usize| rows.iter().map(|r| r[k]).collect::<Vec<f64>>();
        let (z0, y0, zt, rho, l, u) = (col(0), col(1), col(2), col(3), col(4), col(5));
        let (mut want_z, mut want_y) = (z0.clone(), y0.clone());
        for i in 0..rows.len() {
            let relaxed = alpha * zt[i] + (1.0 - alpha) * want_z[i];
            let zi = (relaxed + want_y[i] / rho[i]).clamp(l[i], u[i]);
            want_y[i] += rho[i] * (relaxed - zi);
            want_z[i] = zi;
        }
        for backend in backends() {
            let (mut z, mut y) = (z0.clone(), y0.clone());
            simd::with_backend(backend, || {
                simd::project_dual(&mut z, &mut y, &zt, &rho, &l, &u, alpha)
            });
            prop_assert_eq!(bits(&z), bits(&want_z), "{:?}: z", backend);
            prop_assert_eq!(bits(&y), bits(&want_y), "{:?}: y", backend);
        }
    }
}
