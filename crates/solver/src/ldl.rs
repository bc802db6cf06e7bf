//! Sparse LDLᵀ factorization with a cached symbolic phase.
//!
//! The ADMM inner loop factors the same KKT matrix pattern over and over:
//! every ρ-adaptation, every SCP pass, and every warm/cold re-solve of an
//! MPC frame changes only the *values* of `K = P + σI + ρAᵀA`, never its
//! block-banded structure. The expensive, pattern-only work — the
//! fill-reducing permutation, the elimination tree, and the column counts
//! of the factor `L` — is therefore split into [`SymbolicLdl`] and
//! computed **once per sparsity pattern**; [`SparseLdl::refactor`] then
//! runs only the `O(|L|)` numeric sweep, and
//! [`solve_into`](SparseLdl::solve_into) does allocation-free
//! forward/backward substitution.
//!
//! The numeric phase is the up-looking algorithm of QDLDL (the solver
//! inside OSQP): row `k` of `L` is obtained from a sparse triangular
//! solve whose nonzero pattern is read off the elimination tree, so the
//! factorization touches only structural entries. `D` is diagonal (not
//! necessarily positive): symmetric *quasidefinite* matrices factor
//! without pivoting, which is what makes the scheme safe for KKT systems.

// The solve sweeps index unchecked, relying on invariants of the
// symbolic analysis and of `L` that only this module establishes.
#![allow(unsafe_code)]

use crate::sparse::SparseMatrix;
use std::sync::Arc;

/// Error from the numeric factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LdlError {
    /// Column at which a zero pivot was met.
    pub column: usize,
}

impl std::fmt::Display for LdlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "zero pivot in LDLᵀ at column {}", self.column)
    }
}

impl std::error::Error for LdlError {}

/// Pattern-only analysis of a symmetric sparse matrix, reusable across
/// any number of numeric factorizations with the same structure.
///
/// Holds the fill-reducing permutation (exact minimum degree — cheap and
/// deterministic at MPC sizes), the permuted upper-triangular pattern
/// with a scatter map from the original matrix, the elimination tree,
/// and the column pointers of `L`.
#[derive(Debug)]
pub struct SymbolicLdl {
    n: usize,
    /// `perm[new] = old`: position `new` of the permuted matrix takes
    /// row/column `old` of the original.
    perm: Vec<usize>,
    /// `iperm[old] = new` (inverse of `perm`).
    iperm: Vec<usize>,
    /// Permuted upper-triangular pattern (CSC, rows sorted, diagonal
    /// included).
    up_col_ptr: Vec<usize>,
    up_row_ind: Vec<usize>,
    /// For each stored entry of the permuted upper pattern, the value
    /// index in the *original* full CSC matrix it is copied from.
    up_src: Vec<usize>,
    /// Elimination-tree parent per column (`usize::MAX` = root).
    etree: Vec<usize>,
    /// Column pointers of `L` (strictly-below-diagonal entries).
    l_col_ptr: Vec<usize>,
    /// The original full pattern this analysis was computed for, kept so
    /// caches can validate reuse ([`SymbolicLdl::matches`]).
    src_col_ptr: Vec<usize>,
    src_row_ind: Vec<usize>,
}

const NONE: usize = usize::MAX;

impl SymbolicLdl {
    /// Analyzes the pattern of a square symmetric matrix stored as full
    /// CSC (both triangles). Values are ignored; explicit zeros count as
    /// structural entries.
    ///
    /// # Panics
    ///
    /// Panics when `k` is not square.
    pub fn analyze(k: &SparseMatrix) -> Arc<SymbolicLdl> {
        let n = k.cols();
        assert_eq!(k.rows(), n, "LDLᵀ needs a square matrix");
        let perm = min_degree_order(k);
        let mut iperm = vec![0usize; n];
        for (new, &old) in perm.iter().enumerate() {
            iperm[old] = new;
        }

        // permuted upper-triangular pattern: entry (old_r, old_c) lands at
        // (iperm[old_r], iperm[old_c]); keep new_r <= new_c.
        let col_ptr = k.col_ptr();
        let row_ind = k.row_ind();
        let mut entries: Vec<(usize, usize, usize)> = Vec::new(); // (new_c, new_r, src_idx)
        for old_c in 0..n {
            let (lo, hi) = (col_ptr[old_c], col_ptr[old_c + 1]);
            for (idx, &old_r) in (lo..hi).zip(&row_ind[lo..hi]) {
                let (new_r, new_c) = (iperm[old_r], iperm[old_c]);
                if new_r <= new_c {
                    entries.push((new_c, new_r, idx));
                }
            }
        }
        entries.sort_unstable();
        let mut up_col_ptr = vec![0usize; n + 1];
        let mut up_row_ind = Vec::with_capacity(entries.len());
        let mut up_src = Vec::with_capacity(entries.len());
        for (c, r, src) in entries {
            up_row_ind.push(r);
            up_src.push(src);
            up_col_ptr[c + 1] = up_row_ind.len();
        }
        for c in 0..n {
            if up_col_ptr[c + 1] < up_col_ptr[c] {
                up_col_ptr[c + 1] = up_col_ptr[c];
            }
        }

        // elimination tree + column counts of L (QDLDL_etree): walking
        // each above-diagonal entry up the partially-built tree marks
        // exactly the columns of L that gain an entry in row c.
        let mut etree = vec![NONE; n];
        let mut l_nz = vec![0usize; n];
        let mut work = vec![NONE; n];
        for c in 0..n {
            work[c] = c;
            for &row in &up_row_ind[up_col_ptr[c]..up_col_ptr[c + 1]] {
                let mut i = row;
                if i == c {
                    continue;
                }
                while work[i] != c {
                    if etree[i] == NONE {
                        etree[i] = c;
                    }
                    l_nz[i] += 1;
                    work[i] = c;
                    i = etree[i];
                }
            }
        }
        let mut l_col_ptr = vec![0usize; n + 1];
        for i in 0..n {
            l_col_ptr[i + 1] = l_col_ptr[i] + l_nz[i];
        }

        Arc::new(SymbolicLdl {
            n,
            perm,
            iperm,
            up_col_ptr,
            up_row_ind,
            up_src,
            etree,
            l_col_ptr,
            src_col_ptr: col_ptr.to_vec(),
            src_row_ind: row_ind.to_vec(),
        })
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of strictly-below-diagonal entries of `L` (the fill).
    pub fn l_nnz(&self) -> usize {
        self.l_col_ptr[self.n]
    }

    /// The fill-reducing permutation (`perm[new] = old`).
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// The inverse permutation (`iperm[old] = new`).
    pub fn iperm(&self) -> &[usize] {
        &self.iperm
    }

    /// Whether this analysis applies to `k` (identical full pattern).
    pub fn matches(&self, k: &SparseMatrix) -> bool {
        k.rows() == self.n
            && k.cols() == self.n
            && k.col_ptr() == self.src_col_ptr.as_slice()
            && k.row_ind() == self.src_row_ind.as_slice()
    }
}

/// Exact minimum-degree ordering on the adjacency graph of a symmetric
/// pattern: repeatedly eliminate the minimum-degree node (ties broken by
/// index, keeping the order deterministic) and connect its neighbours
/// into a clique. Quadratic in the worst case, which is irrelevant at
/// MPC sizes (n ≲ a few hundred) and avoids the bookkeeping subtleties
/// of approximate variants.
fn min_degree_order(k: &SparseMatrix) -> Vec<usize> {
    let n = k.cols();
    let col_ptr = k.col_ptr();
    let row_ind = k.row_ind();
    // adjacency sets as sorted vecs, diagonal excluded
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for c in 0..n {
        for &r in &row_ind[col_ptr[c]..col_ptr[c + 1]] {
            if r != c {
                adj[c].push(r);
            }
        }
    }
    for a in adj.iter_mut() {
        a.sort_unstable();
        a.dedup();
    }
    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let v = (0..n)
            .filter(|&i| !eliminated[i])
            .min_by_key(|&i| (adj[i].len(), i))
            .expect("an uneliminated node remains");
        eliminated[v] = true;
        order.push(v);
        let neighbours: Vec<usize> = adj[v].iter().copied().filter(|&u| !eliminated[u]).collect();
        // neighbours of the pivot become a clique
        for &u in &neighbours {
            let au = &mut adj[u];
            au.retain(|&w| w != v && !eliminated[w]);
            for &w in &neighbours {
                if w != u && !au.contains(&w) {
                    au.push(w);
                }
            }
        }
    }
    order
}

/// Numeric-phase scratch of a [`SparseLdl`]: refactors and solves
/// allocate nothing once the scratch exists.
#[derive(Debug, Clone)]
struct LdlScratch {
    y_vals: Vec<f64>,
    y_mark: Vec<usize>,
    y_idx: Vec<usize>,
    elim: Vec<usize>,
    l_next: Vec<usize>,
    /// Solve scratch (permuted right-hand side).
    rhs: Vec<f64>,
}

impl LdlScratch {
    fn new(n: usize) -> Self {
        LdlScratch {
            y_vals: vec![0.0; n],
            y_mark: vec![NONE; n],
            y_idx: vec![0; n],
            elim: vec![0; n],
            l_next: vec![0; n],
            rhs: vec![0.0; n],
        }
    }
}

/// The up-looking numeric factorization behind [`SparseLdl::refactor`],
/// writing `L` and `D` into the factor's storage. The inner column
/// scatter is a plain loop, one multiply and one subtract per entry: it
/// beats a 4-wide kernel here, whose per-call dispatch costs more than
/// it saves on columns of a few entries.
fn refactor_core(
    sym: &SymbolicLdl,
    kv: &[f64],
    l_row_ind: &mut [usize],
    l_values: &mut [f64],
    d: &mut [f64],
    dinv: &mut [f64],
    s: &mut LdlScratch,
) -> Result<(), LdlError> {
    let n = sym.n;
    s.l_next.copy_from_slice(&sym.l_col_ptr[..n]);
    // up-looking factorization, one (permuted) row k at a time
    for row in 0..n {
        d[row] = 0.0;
        s.y_mark[row] = row; // paths stop before the current row
        let mut nnz_y = 0usize;
        for idx in sym.up_col_ptr[row]..sym.up_col_ptr[row + 1] {
            let i = sym.up_row_ind[idx];
            let v = kv[sym.up_src[idx]];
            if i == row {
                d[row] = v;
                continue;
            }
            s.y_vals[i] = v;
            // walk the elimination tree, recording the new part of
            // the path; reversing it onto the stack yields a
            // topological (ascending-dependency) processing order
            let mut next = i;
            let mut nnz_e = 0usize;
            while s.y_mark[next] != row {
                s.y_mark[next] = row;
                s.elim[nnz_e] = next;
                nnz_e += 1;
                next = sym.etree[next];
                debug_assert!(next != NONE, "etree path must reach the current row");
            }
            while nnz_e > 0 {
                nnz_e -= 1;
                s.y_idx[nnz_y] = s.elim[nnz_e];
                nnz_y += 1;
            }
        }
        // sparse triangular solve against the already-computed columns
        for i in (0..nnz_y).rev() {
            let c = s.y_idx[i];
            let yc = s.y_vals[c];
            s.y_vals[c] = 0.0;
            // unmark (QDLDL resets its markers here too): a mark equal to
            // `row` must not survive into the next factorization over this
            // scratch, or a column whose path is touched by exactly one
            // row would be skipped on every refactor after the first
            s.y_mark[c] = NONE;
            let (lo, hi) = (sym.l_col_ptr[c], s.l_next[c]);
            for (&i, &lv) in l_row_ind[lo..hi].iter().zip(&l_values[lo..hi]) {
                s.y_vals[i] -= lv * yc;
            }
            let slot = s.l_next[c];
            s.l_next[c] += 1;
            let lkc = yc * dinv[c];
            l_row_ind[slot] = row;
            l_values[slot] = lkc;
            d[row] -= yc * lkc;
        }
        if d[row] == 0.0 {
            return Err(LdlError {
                column: sym.perm[row],
            });
        }
        dinv[row] = 1.0 / d[row];
    }
    Ok(())
}

/// The permuted forward/diagonal/backward solve behind
/// [`SparseLdl::solve_into`]: plain loops over the stored entries of `L`,
/// one multiply and one subtract per entry in ascending order within each
/// column, with no per-column kernel dispatch and no per-entry bounds
/// checks. The diagonal scaling
/// and the output permutation ride on the backward sweep. The unchecked
/// indexing is kept for its measured gain: the same sweeps over zipped
/// `l_row_ind`/`l_values` slices, which leave only `w[i]` checked, take
/// about 30% longer per solve and 10% longer per capped ADMM solve.
///
/// # Safety
///
/// Every entry of `l_row_ind` must be `< sym.n`.
unsafe fn solve_core(
    sym: &SymbolicLdl,
    l_row_ind: &[usize],
    l_values: &[f64],
    dinv: &[f64],
    b: &[f64],
    out: &mut [f64],
    w: &mut [f64],
) {
    let n = sym.n;
    assert_eq!(b.len(), n, "dimension mismatch");
    assert_eq!(out.len(), n, "output dimension mismatch");
    assert_eq!(dinv.len(), n, "diagonal dimension mismatch");
    let l_nnz = sym.l_nnz();
    assert!(
        l_row_ind.len() == l_nnz && l_values.len() == l_nnz,
        "factor storage mismatch"
    );
    debug_assert!(
        l_row_ind.iter().all(|&i| i < n),
        "row index of L out of range"
    );
    let w = &mut w[..n];
    let lp = &sym.l_col_ptr;
    // SAFETY: with the lengths asserted above, every index is in bounds
    // by invariants `SymbolicLdl::analyze` establishes on its private
    // fields — `perm` is a permutation of 0..n and `l_col_ptr` holds
    // n + 1 nondecreasing offsets ending at l_nnz — plus the caller's
    // contract that every `l_row_ind` entry is < n.
    unsafe {
        for (new, &old) in sym.perm.iter().enumerate() {
            *w.get_unchecked_mut(new) = *b.get_unchecked(old);
        }
        // forward: L w = w (unit diagonal); column rows are strictly
        // below the diagonal, so the scatter never aliases w[j]
        for j in 0..n {
            let wj = *w.get_unchecked(j);
            if wj != 0.0 {
                for p in *lp.get_unchecked(j)..*lp.get_unchecked(j + 1) {
                    let i = *l_row_ind.get_unchecked(p);
                    *w.get_unchecked_mut(i) -= *l_values.get_unchecked(p) * wj;
                }
            }
        }
        // diagonal and backward: Lᵀ x = D⁻¹w. Column j reads only
        // w[i > j], which are final by then, so scaling w[j] as its
        // column starts gives the same values as a separate sweep.
        for j in (0..n).rev() {
            let mut acc = *w.get_unchecked(j) * *dinv.get_unchecked(j);
            for p in *lp.get_unchecked(j)..*lp.get_unchecked(j + 1) {
                let i = *l_row_ind.get_unchecked(p);
                acc -= *l_values.get_unchecked(p) * *w.get_unchecked(i);
            }
            *w.get_unchecked_mut(j) = acc;
            *out.get_unchecked_mut(*sym.perm.get_unchecked(j)) = acc;
        }
    }
}

/// A numeric LDLᵀ factor bound to a shared [`SymbolicLdl`] analysis.
///
/// `L` is unit lower triangular (unit diagonal implicit) in CSC, `D`
/// diagonal. [`refactor`](SparseLdl::refactor) overwrites the numeric
/// data in place for new matrix values with the same pattern;
/// [`solve_into`](SparseLdl::solve_into) performs the permuted
/// forward/diagonal/backward sweeps without allocating.
#[derive(Debug, Clone)]
pub struct SparseLdl {
    sym: Arc<SymbolicLdl>,
    /// Row index of each stored entry of `L`. Every entry is < n: the
    /// vector starts zeroed and only `refactor_core` writes it, with the
    /// row it is factoring. `solve_core` relies on this.
    l_row_ind: Vec<usize>,
    l_values: Vec<f64>,
    d: Vec<f64>,
    dinv: Vec<f64>,
    scratch: LdlScratch,
}

impl SparseLdl {
    /// Factors `k` using a previously computed symbolic analysis.
    ///
    /// # Errors
    ///
    /// Returns [`LdlError`] on a zero pivot (structurally or numerically
    /// singular matrix).
    ///
    /// # Panics
    ///
    /// Panics when `sym` was analyzed for a different pattern.
    pub fn factor(sym: Arc<SymbolicLdl>, k: &SparseMatrix) -> Result<SparseLdl, LdlError> {
        let n = sym.n;
        let l_nnz = sym.l_nnz();
        let mut f = SparseLdl {
            l_row_ind: vec![0; l_nnz],
            l_values: vec![0.0; l_nnz],
            d: vec![0.0; n],
            dinv: vec![0.0; n],
            scratch: LdlScratch::new(n),
            sym,
        };
        f.refactor(k)?;
        Ok(f)
    }

    /// The symbolic analysis this factor is bound to.
    pub fn symbolic(&self) -> &Arc<SymbolicLdl> {
        &self.sym
    }

    /// The diagonal `D` of the factorization (permuted order).
    pub fn diag(&self) -> &[f64] {
        &self.d
    }

    /// Whether every pivot is strictly positive (the matrix is positive
    /// definite, not merely quasidefinite).
    pub fn is_positive_definite(&self) -> bool {
        self.d.iter().all(|&v| v > 0.0)
    }

    /// Recomputes the numeric factor for new values of the same pattern.
    /// Pattern-only state (permutation, elimination tree, `L` structure)
    /// is reused verbatim; nothing is allocated.
    ///
    /// # Errors
    ///
    /// Returns [`LdlError`] on a zero pivot; the factor contents are then
    /// unspecified and must not be used for solves.
    ///
    /// # Panics
    ///
    /// Panics when `k`'s pattern differs from the analyzed one.
    pub fn refactor(&mut self, k: &SparseMatrix) -> Result<(), LdlError> {
        assert!(
            self.sym.matches(k),
            "matrix pattern differs from the symbolic analysis"
        );
        refactor_core(
            &self.sym,
            k.values(),
            &mut self.l_row_ind,
            &mut self.l_values,
            &mut self.d,
            &mut self.dinv,
            &mut self.scratch,
        )
    }

    /// Solves `K·x = b`, allocating the result vector.
    ///
    /// # Panics
    ///
    /// Panics when `b.len()` differs from the matrix dimension.
    pub fn solve(&mut self, b: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.sym.n];
        self.solve_into(b, &mut out);
        out
    }

    /// Allocation-free solve `out = K⁻¹·b` via the permuted sweeps
    /// `L·w = Pb`, `w ← D⁻¹w`, `Lᵀ·(Px) = w`.
    ///
    /// (`&mut self` only for the internal permuted-RHS scratch; the
    /// factor itself is not modified.)
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn solve_into(&mut self, b: &[f64], out: &mut [f64]) {
        // SAFETY: every entry of `l_row_ind` is < n (see the field).
        unsafe {
            solve_core(
                &self.sym,
                &self.l_row_ind,
                &self.l_values,
                &self.dinv,
                b,
                out,
                &mut self.scratch.rhs,
            );
        }
    }
}

#[cfg(test)]
impl SparseLdl {
    /// The solve in its per-column form — a column scatter per column
    /// forward, a per-column reduction backward, each a separate pass —
    /// which [`solve_core`] must match bit for bit.
    pub(crate) fn solve_per_column(&self, b: &[f64], out: &mut [f64]) {
        let sym = &self.sym;
        let mut w: Vec<f64> = sym.perm.iter().map(|&old| b[old]).collect();
        for j in 0..sym.n {
            let wj = w[j];
            if wj != 0.0 {
                let (lo, hi) = (sym.l_col_ptr[j], sym.l_col_ptr[j + 1]);
                for (&i, &lv) in self.l_row_ind[lo..hi].iter().zip(&self.l_values[lo..hi]) {
                    w[i] -= lv * wj;
                }
            }
        }
        for (wi, &di) in w.iter_mut().zip(&self.dinv) {
            *wi *= di;
        }
        for j in (0..sym.n).rev() {
            let (lo, hi) = (sym.l_col_ptr[j], sym.l_col_ptr[j + 1]);
            let mut acc = w[j];
            for (&i, &lv) in self.l_row_ind[lo..hi].iter().zip(&self.l_values[lo..hi]) {
                acc -= lv * w[i];
            }
            w[j] = acc;
        }
        for (new, &old) in sym.perm.iter().enumerate() {
            out[old] = w[new];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletBuilder;

    fn lcg(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5
    }

    /// Random sparse SPD matrix `AᵀA + αI` with a banded-ish pattern.
    fn random_spd(n: usize, seed: u64) -> SparseMatrix {
        let mut s = seed;
        let mut b = TripletBuilder::new(n, n);
        for c in 0..n {
            for _ in 0..3 {
                let r = ((lcg(&mut s) + 0.5) * n as f64) as usize % n;
                b.push(r, c, lcg(&mut s));
            }
        }
        let a = b.build();
        let mut g = a.gram();
        // add αI on the full pattern (gram may miss diagonal entries for
        // empty columns, so go through a fresh builder)
        let mut out = TripletBuilder::new(n, n);
        let (cp, ri, vs) = (
            g.col_ptr().to_vec(),
            g.row_ind().to_vec(),
            g.values().to_vec(),
        );
        for c in 0..n {
            for k in cp[c]..cp[c + 1] {
                out.push(ri[k], c, vs[k]);
            }
            out.push(c, c, 1.0 + lcg(&mut s).abs());
        }
        g = out.build();
        g
    }

    #[test]
    fn factor_solve_matches_dense_cholesky() {
        for seed in 0..6u64 {
            let n = 10 + (seed as usize % 4) * 7;
            let k = random_spd(n, seed * 31 + 1);
            let sym = SymbolicLdl::analyze(&k);
            let mut f = SparseLdl::factor(sym, &k).expect("SPD factors");
            assert!(f.is_positive_definite());
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
            let x = f.solve(&b);
            let dense = k.to_dense().cholesky().expect("dense SPD");
            let xd = dense.solve(&b);
            for (a, c) in x.iter().zip(&xd) {
                assert!((a - c).abs() < 1e-8, "{a} vs {c}");
            }
        }
    }

    #[test]
    fn solve_matches_per_column_sweeps_bitwise() {
        // right-hand sides with signed zeros (the forward sweep's zero
        // skip is visible only there), NaN and ±∞ entries
        for seed in 0..6u64 {
            let n = 10 + (seed as usize % 4) * 7;
            let k = random_spd(n, seed * 31 + 1);
            let mut f = SparseLdl::factor(SymbolicLdl::analyze(&k), &k).expect("SPD factors");
            let specials = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
            let b: Vec<f64> = (0..n)
                .map(|i| match i % 7 {
                    0..=4 if (i / 7 + seed as usize).is_multiple_of(2) => specials[i % 7],
                    _ => (i as f64 * 0.7).sin(),
                })
                .collect();
            let zeros: Vec<f64> = (0..n)
                .map(|i| if i % 2 == 0 { 0.0 } else { -0.0 })
                .collect();
            for rhs in [b, zeros] {
                let mut want = vec![0.0; n];
                f.solve_per_column(&rhs, &mut want);
                let got = f.solve(&rhs);
                for (g, w) in got.iter().zip(&want) {
                    assert!(
                        g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                        "{g} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn quasidefinite_factors_without_pivoting() {
        // K = [[P, Aᵀ], [A, -I]] with P SPD — symmetric quasidefinite:
        // LDLᵀ exists for any symmetric permutation, D has mixed signs.
        let mut b = TripletBuilder::new(5, 5);
        b.push(0, 0, 4.0);
        b.push(1, 1, 3.0);
        b.push(0, 1, 1.0);
        b.push(1, 0, 1.0);
        // A block (rows 2..5 of cols 0..2 and symmetric)
        let a_entries = [(2, 0, 1.0), (2, 1, 2.0), (3, 0, -1.0), (4, 1, 0.5)];
        for &(r, c, v) in &a_entries {
            b.push(r, c, v);
            b.push(c, r, v);
        }
        for i in 2..5 {
            b.push(i, i, -1.0);
        }
        let k = b.build();
        let sym = SymbolicLdl::analyze(&k);
        let mut f = SparseLdl::factor(sym, &k).expect("quasidefinite factors");
        assert!(!f.is_positive_definite());
        assert!(f.diag().iter().any(|&d| d < 0.0));
        let rhs = [1.0, -2.0, 0.5, 3.0, -1.0];
        let x = f.solve(&rhs);
        let back = k.to_dense().mul_vec(&x);
        for (u, v) in back.iter().zip(&rhs) {
            assert!((u - v).abs() < 1e-9, "{u} vs {v}");
        }
    }

    #[test]
    fn refactor_reuses_symbolic_and_matches_fresh() {
        let k1 = random_spd(20, 77);
        let sym = SymbolicLdl::analyze(&k1);
        let mut f = SparseLdl::factor(sym.clone(), &k1).unwrap();
        // scale the values (same pattern), refactor in place
        let mut k2 = k1.clone();
        for v in k2.values_mut() {
            *v *= 3.0;
        }
        f.refactor(&k2).unwrap();
        let mut fresh = SparseLdl::factor(SymbolicLdl::analyze(&k2), &k2).unwrap();
        // bitwise-identical numeric data: the symbolic phase fully
        // determines the computation order
        assert_eq!(f.l_values, fresh.l_values);
        assert_eq!(f.d, fresh.d);
        let b: Vec<f64> = (0..20).map(|i| i as f64 - 10.0).collect();
        assert_eq!(f.solve(&b), fresh.solve(&b));
    }

    #[test]
    fn permutation_round_trips() {
        let k = random_spd(15, 5);
        let sym = SymbolicLdl::analyze(&k);
        let (perm, iperm) = (sym.perm(), sym.iperm());
        let mut seen = [false; 15];
        for (new, &old) in perm.iter().enumerate() {
            assert_eq!(iperm[old], new);
            assert!(!seen[old]);
            seen[old] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn singular_matrix_reports_zero_pivot() {
        let mut b = TripletBuilder::new(3, 3);
        b.push(0, 0, 1.0);
        b.push(1, 1, 1.0);
        b.push(2, 2, 0.0); // structurally present, numerically zero
        let k = b.build();
        let sym = SymbolicLdl::analyze(&k);
        assert!(SparseLdl::factor(sym, &k).is_err());
    }

    #[test]
    fn refactor_is_correct_when_columns_have_singleton_paths() {
        // Regression: the arrowhead's leaf columns are each touched by
        // exactly one (permuted) row — the hub's. Without the QDLDL-style
        // marker reset, their `y_mark` stamps survive the first numeric
        // pass and the second refactor skips every leaf, silently keeping
        // the previous factor's values.
        let n = 12;
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 4.0);
            if i > 0 {
                b.push(0, i, 1.0);
                b.push(i, 0, 1.0);
            }
        }
        let k1 = b.build();
        let sym = SymbolicLdl::analyze(&k1);
        let mut f = SparseLdl::factor(sym, &k1).unwrap();
        let mut k2 = k1.clone();
        for v in k2.values_mut() {
            *v *= 2.0;
        }
        f.refactor(&k2).unwrap();
        let mut fresh = SparseLdl::factor(SymbolicLdl::analyze(&k2), &k2).unwrap();
        assert_eq!(f.l_values, fresh.l_values);
        assert_eq!(f.d, fresh.d);
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        assert_eq!(f.solve(&rhs), fresh.solve(&rhs));
    }

    #[test]
    fn min_degree_reduces_fill_on_arrow_matrix() {
        // arrowhead: dense first row/column + diagonal. Natural order
        // fills in completely; eliminating the hub last keeps L sparse.
        let n = 12;
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 4.0);
            if i > 0 {
                b.push(0, i, 1.0);
                b.push(i, 0, 1.0);
            }
        }
        let k = b.build();
        let sym = SymbolicLdl::analyze(&k);
        // perfect elimination: only the hub column carries entries
        assert_eq!(sym.l_nnz(), n - 1, "min-degree must avoid arrowhead fill");
        let mut f = SparseLdl::factor(sym, &k).unwrap();
        let b_vec: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let x = f.solve(&b_vec);
        let back = k.to_dense().mul_vec(&x);
        for (u, v) in back.iter().zip(&b_vec) {
            assert!((u - v).abs() < 1e-9);
        }
    }
}
