//! Compressed-sparse-column (CSC) matrices for the structured-KKT path.
//!
//! MPC QPs assembled in the simultaneous (multiple-shooting) form are
//! overwhelmingly zeros: the KKT matrix `P + σI + ρAᵀA` is block-banded
//! along the horizon. This module provides the storage and the handful of
//! operations the ADMM solver needs to exploit that —
//!
//! * [`TripletBuilder`] — coordinate-form assembly (the natural output of
//!   a constraint emitter), finalized into sorted, deduplicated CSC;
//! * [`SparseMatrix`] — CSC with `O(nnz)` matvecs (`A·x`, `Aᵀ·y`),
//!   transpose, and a sparse Gram product `AᵀA` computed directly on the
//!   fill pattern (never densified);
//! * [`SparseKkt`] — the KKT matrix `P + σI + ρAᵀA` with a **fixed**
//!   fill pattern and precomputed scatter maps, so ρ-adaptations and
//!   value-only updates reassemble in `O(nnz)` without reallocating (and
//!   without invalidating a cached symbolic factorization, which keys on
//!   the pattern).
//!
//! Explicit zeros are kept: emitters push *structural* entries (every
//! coefficient that can be nonzero for some linearization point), which
//! keeps the fill pattern — and therefore the cached symbolic
//! factorization — stable across SCP passes and MPC frames.

use crate::linalg::Mat;
use serde::{Deserialize, Serialize};

/// A sparse `f64` matrix in compressed-sparse-column (CSC) form.
///
/// Row indices are strictly increasing within each column; duplicate
/// coordinates are summed at build time. Explicit zeros are allowed (and
/// deliberately used) to keep fill patterns stable across value updates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    /// `cols + 1` offsets into `row_ind`/`values`.
    col_ptr: Vec<usize>,
    /// Row index of each stored entry, sorted within each column.
    row_ind: Vec<usize>,
    /// Stored entry values, aligned with `row_ind`.
    values: Vec<f64>,
}

/// Coordinate-form (triplet) assembly of a [`SparseMatrix`].
///
/// Push entries in any order; duplicates are summed by [`build`]
/// (`TripletBuilder::build`). Pushing an explicit zero keeps the slot in
/// the pattern, which is how emitters pin a stable structure.
#[derive(Debug, Clone)]
pub struct TripletBuilder {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl TripletBuilder {
    /// An empty builder for a `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        TripletBuilder {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// An empty builder with room for `cap` entries.
    pub fn with_capacity(rows: usize, cols: usize, cap: usize) -> Self {
        TripletBuilder {
            rows,
            cols,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Records `self[r][c] += v` (duplicates are summed at build time).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range coordinates.
    pub fn push(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "triplet out of range");
        self.entries.push((r, c, v));
    }

    /// Number of (pre-deduplication) entries pushed so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Finalizes into CSC: sorts column-major, sums duplicates.
    pub fn build(mut self) -> SparseMatrix {
        self.entries.sort_unstable_by_key(|e| (e.1, e.0));
        let mut col_ptr = vec![0usize; self.cols + 1];
        let mut row_ind = Vec::with_capacity(self.entries.len());
        let mut values: Vec<f64> = Vec::with_capacity(self.entries.len());
        let mut last: Option<(usize, usize)> = None;
        for (r, c, v) in self.entries {
            // duplicates are adjacent after the sort → accumulate
            if last == Some((r, c)) {
                *values.last_mut().expect("previous entry exists") += v;
                continue;
            }
            last = Some((r, c));
            row_ind.push(r);
            values.push(v);
            col_ptr[c + 1] = row_ind.len();
        }
        // forward-fill empty columns
        for c in 0..self.cols {
            if col_ptr[c + 1] < col_ptr[c] {
                col_ptr[c + 1] = col_ptr[c];
            }
        }
        SparseMatrix {
            rows: self.rows,
            cols: self.cols,
            col_ptr,
            row_ind,
            values,
        }
    }
}

impl SparseMatrix {
    /// An empty (all-zero, no stored entries) matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        SparseMatrix {
            rows,
            cols,
            col_ptr: vec![0; cols + 1],
            row_ind: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The identity pattern with unit values.
    pub fn identity(n: usize) -> Self {
        SparseMatrix {
            rows: n,
            cols: n,
            col_ptr: (0..=n).collect(),
            row_ind: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Converts a dense matrix, keeping exactly its nonzero entries.
    pub fn from_dense(m: &Mat) -> Self {
        let mut b = TripletBuilder::new(m.rows(), m.cols());
        for c in 0..m.cols() {
            for r in 0..m.rows() {
                let v = m.at(r, c);
                if v != 0.0 {
                    b.push(r, c, v);
                }
            }
        }
        b.build()
    }

    /// Densifies (for the dense reference checks in tests and benches).
    pub fn to_dense(&self) -> Mat {
        let mut out = Mat::zeros(self.rows, self.cols);
        for c in 0..self.cols {
            for k in self.col_ptr[c]..self.col_ptr[c + 1] {
                *out.at_mut(self.row_ind[k], c) = self.values[k];
            }
        }
        out
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries (explicit zeros included).
    pub fn nnz(&self) -> usize {
        self.row_ind.len()
    }

    /// Stored entries over total entries, in `[0, 1]`.
    pub fn fill_ratio(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows * self.cols) as f64
        }
    }

    /// Column pointer array (length `cols + 1`).
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Row index array (length `nnz`).
    pub fn row_ind(&self) -> &[usize] {
        &self.row_ind
    }

    /// Stored values (length `nnz`).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable stored values (the pattern is immutable by design).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Matrix–vector product `A·v`.
    ///
    /// # Panics
    ///
    /// Panics when `v.len() != cols`.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.rows];
        self.mul_vec_into(v, &mut out);
        out
    }

    /// Allocation-free `out = A·v`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn mul_vec_into(&self, v: &[f64], out: &mut [f64]) {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        assert_eq!(out.len(), self.rows, "output dimension mismatch");
        out.fill(0.0);
        for (c, &vc) in v.iter().enumerate() {
            if vc == 0.0 {
                continue;
            }
            for k in self.col_ptr[c]..self.col_ptr[c + 1] {
                out[self.row_ind[k]] += self.values[k] * vc;
            }
        }
    }

    /// Transposed matrix–vector product `Aᵀ·v`.
    ///
    /// # Panics
    ///
    /// Panics when `v.len() != rows`.
    pub fn t_mul_vec(&self, v: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        self.t_mul_vec_into(v, &mut out);
        out
    }

    /// Allocation-free `out = Aᵀ·v`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn t_mul_vec_into(&self, v: &[f64], out: &mut [f64]) {
        assert_eq!(v.len(), self.rows, "dimension mismatch");
        assert_eq!(out.len(), self.cols, "output dimension mismatch");
        for (c, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in self.col_ptr[c]..self.col_ptr[c + 1] {
                acc += self.values[k] * v[self.row_ind[k]];
            }
            *o = acc;
        }
    }

    /// The transposed matrix (CSC of `Aᵀ`, equivalently CSR of `A`).
    pub fn transpose(&self) -> SparseMatrix {
        let mut col_ptr = vec![0usize; self.rows + 1];
        for &r in &self.row_ind {
            col_ptr[r + 1] += 1;
        }
        for i in 0..self.rows {
            col_ptr[i + 1] += col_ptr[i];
        }
        let mut next = col_ptr.clone();
        let mut row_ind = vec![0usize; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        for c in 0..self.cols {
            for k in self.col_ptr[c]..self.col_ptr[c + 1] {
                let r = self.row_ind[k];
                let slot = next[r];
                next[r] += 1;
                row_ind[slot] = c;
                values[slot] = self.values[k];
            }
        }
        SparseMatrix {
            rows: self.cols,
            cols: self.rows,
            col_ptr,
            row_ind,
            values,
        }
    }

    /// The Gram matrix `AᵀA` as a sparse matrix, computed column by
    /// column with a scatter workspace (Gustavson) — the dense `m·n²`
    /// product is never formed. The result pattern is exactly the
    /// structural fill of `AᵀA` (symmetric, explicit zeros possible).
    pub fn gram(&self) -> SparseMatrix {
        self.gram_impl(None)
    }

    /// The weighted Gram matrix `AᵀWA` with `W = diag(weights)` (one
    /// weight per *row* of `A`) — the KKT contribution of a per-constraint
    /// ADMM penalty vector. The structural pattern is identical to
    /// [`SparseMatrix::gram`]: weights scale values, never the fill.
    ///
    /// # Panics
    ///
    /// Panics when `weights.len() != rows`.
    pub fn gram_weighted(&self, weights: &[f64]) -> SparseMatrix {
        assert_eq!(weights.len(), self.rows, "one weight per constraint row");
        self.gram_impl(Some(weights))
    }

    fn gram_impl(&self, weights: Option<&[f64]>) -> SparseMatrix {
        let at = self.transpose();
        let n = self.cols;
        let mut col_ptr = vec![0usize; n + 1];
        let mut row_ind: Vec<usize> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        // scatter workspace: accumulator + generation marker per row
        let mut acc = vec![0.0f64; n];
        let mut mark = vec![usize::MAX; n];
        let mut touched: Vec<usize> = Vec::with_capacity(n);
        for j in 0..n {
            touched.clear();
            // (AᵀWA)·e_j = Aᵀ·W·(A·e_j); A·e_j is column j of A
            for k in self.col_ptr[j]..self.col_ptr[j + 1] {
                let r = self.row_ind[k];
                let x = match weights {
                    Some(w) => w[r] * self.values[k],
                    None => self.values[k],
                };
                // row r of A == column r of Aᵀ
                for kk in at.col_ptr[r]..at.col_ptr[r + 1] {
                    let i = at.row_ind[kk];
                    if mark[i] != j {
                        mark[i] = j;
                        acc[i] = 0.0;
                        touched.push(i);
                    }
                    acc[i] += at.values[kk] * x;
                }
            }
            touched.sort_unstable();
            for &i in &touched {
                row_ind.push(i);
                values.push(acc[i]);
            }
            col_ptr[j + 1] = row_ind.len();
        }
        SparseMatrix {
            rows: n,
            cols: n,
            col_ptr,
            row_ind,
            values,
        }
    }

    /// Scales row `i` of every entry by `e[i]` (`A ← diag(e)·A`).
    ///
    /// # Panics
    ///
    /// Panics when `e.len() != rows`.
    pub fn scale_rows(&mut self, e: &[f64]) {
        assert_eq!(e.len(), self.rows, "dimension mismatch");
        for (v, &r) in self.values.iter_mut().zip(&self.row_ind) {
            *v *= e[r];
        }
    }

    /// Scales column `j` of every entry by `d[j]` (`A ← A·diag(d)`).
    ///
    /// # Panics
    ///
    /// Panics when `d.len() != cols`.
    pub fn scale_cols(&mut self, d: &[f64]) {
        assert_eq!(d.len(), self.cols, "dimension mismatch");
        for (c, &dc) in d.iter().enumerate() {
            for k in self.col_ptr[c]..self.col_ptr[c + 1] {
                self.values[k] *= dc;
            }
        }
    }

    /// Writes the per-row maximum absolute value into `out` (rows with no
    /// stored entry get 0).
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != rows`.
    pub fn row_abs_max_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.rows, "dimension mismatch");
        out.fill(0.0);
        for (v, &r) in self.values.iter().zip(&self.row_ind) {
            out[r] = out[r].max(v.abs());
        }
    }

    /// Writes the per-column maximum absolute value into `out`.
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != cols`.
    pub fn col_abs_max_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.cols, "dimension mismatch");
        for (c, o) in out.iter_mut().enumerate() {
            let mut m = 0.0f64;
            for k in self.col_ptr[c]..self.col_ptr[c + 1] {
                m = m.max(self.values[k].abs());
            }
            *o = m;
        }
    }
}

/// The ADMM KKT matrix `K = P + σI + ρ·AᵀA` with a fixed fill pattern.
///
/// Construction computes the pattern union (P ∪ diagonal ∪ Gram) once and
/// records, for every stored entry of `P` and of the Gram matrix, its
/// destination slot in `K`. [`assemble`](SparseKkt::assemble) then
/// rebuilds the values in `O(nnz)` for any `(σ, ρ)` — the pattern (and
/// with it any cached symbolic factorization of `K`) is never
/// invalidated by a value-only update.
#[derive(Debug, Clone)]
pub struct SparseKkt {
    kkt: SparseMatrix,
    p_map: Vec<usize>,
    gram_map: Vec<usize>,
    diag_map: Vec<usize>,
}

impl SparseKkt {
    /// Builds the union pattern of `P`, the diagonal, and `gram = AᵀA`.
    ///
    /// # Panics
    ///
    /// Panics when `p` and `gram` are not square matrices of equal size.
    pub fn new(p: &SparseMatrix, gram: &SparseMatrix) -> Self {
        let n = p.cols();
        assert!(
            p.rows() == n && gram.rows() == n && gram.cols() == n,
            "KKT terms must be n × n"
        );
        let mut col_ptr = vec![0usize; n + 1];
        let mut row_ind: Vec<usize> = Vec::new();
        let mut p_map = vec![0usize; p.nnz()];
        let mut gram_map = vec![0usize; gram.nnz()];
        let mut diag_map = vec![0usize; n];
        for j in 0..n {
            // three-way sorted merge of P col j, gram col j, and {j}
            let (mut ip, pe) = (p.col_ptr[j], p.col_ptr[j + 1]);
            let (mut ig, ge) = (gram.col_ptr[j], gram.col_ptr[j + 1]);
            let mut diag_pending = true;
            loop {
                let rp = if ip < pe { p.row_ind[ip] } else { usize::MAX };
                let rg = if ig < ge {
                    gram.row_ind[ig]
                } else {
                    usize::MAX
                };
                let rd = if diag_pending { j } else { usize::MAX };
                let r = rp.min(rg).min(rd);
                if r == usize::MAX {
                    break;
                }
                let slot = row_ind.len();
                row_ind.push(r);
                if rp == r {
                    p_map[ip] = slot;
                    ip += 1;
                }
                if rg == r {
                    gram_map[ig] = slot;
                    ig += 1;
                }
                if rd == r {
                    diag_map[j] = slot;
                    diag_pending = false;
                }
            }
            col_ptr[j + 1] = row_ind.len();
        }
        let nnz = row_ind.len();
        SparseKkt {
            kkt: SparseMatrix {
                rows: n,
                cols: n,
                col_ptr,
                row_ind,
                values: vec![0.0; nnz],
            },
            p_map,
            gram_map,
            diag_map,
        }
    }

    /// Recomputes `K = P + σI + ρ·gram` in place and returns it.
    ///
    /// # Panics
    ///
    /// Panics when `p`/`gram` do not have the entry counts this assembly
    /// was built for (the pattern is fixed at construction).
    pub fn assemble(
        &mut self,
        p: &SparseMatrix,
        gram: &SparseMatrix,
        sigma: f64,
        rho: f64,
    ) -> &SparseMatrix {
        assert_eq!(
            p.nnz(),
            self.p_map.len(),
            "P pattern changed under the assembly"
        );
        assert_eq!(
            gram.nnz(),
            self.gram_map.len(),
            "Gram pattern changed under the assembly"
        );
        self.kkt.values.fill(0.0);
        for (&slot, &v) in self.p_map.iter().zip(&p.values) {
            self.kkt.values[slot] += v;
        }
        for (&slot, &v) in self.gram_map.iter().zip(&gram.values) {
            self.kkt.values[slot] += rho * v;
        }
        for &slot in &self.diag_map {
            self.kkt.values[slot] += sigma;
        }
        &self.kkt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5
    }

    fn random_sparse(rows: usize, cols: usize, per_col: usize, seed: u64) -> SparseMatrix {
        let mut s = seed;
        let mut b = TripletBuilder::new(rows, cols);
        for c in 0..cols {
            for _ in 0..per_col {
                let r = ((lcg(&mut s) + 0.5) * rows as f64) as usize % rows;
                b.push(r, c, lcg(&mut s));
            }
        }
        b.build()
    }

    #[test]
    fn triplets_round_trip_through_dense() {
        let mut b = TripletBuilder::new(3, 4);
        b.push(2, 1, 5.0);
        b.push(0, 0, 1.0);
        b.push(2, 1, -2.0); // duplicate: summed
        b.push(1, 3, 7.0);
        b.push(0, 1, 0.0); // explicit zero kept in the pattern
        let m = b.build();
        assert_eq!(m.nnz(), 4);
        let d = m.to_dense();
        assert_eq!(d.at(2, 1), 3.0);
        assert_eq!(d.at(0, 0), 1.0);
        assert_eq!(d.at(1, 3), 7.0);
        assert_eq!(SparseMatrix::from_dense(&d).to_dense().data(), d.data());
    }

    #[test]
    fn matvecs_match_dense() {
        let a = random_sparse(7, 5, 3, 42);
        let d = a.to_dense();
        let v: Vec<f64> = (0..5).map(|i| (i as f64) - 2.0).collect();
        let w: Vec<f64> = (0..7).map(|i| 0.5 * i as f64 - 1.0).collect();
        let ax = a.mul_vec(&v);
        let dax = d.mul_vec(&v);
        for (x, y) in ax.iter().zip(&dax) {
            assert!((x - y).abs() < 1e-12);
        }
        let aty = a.t_mul_vec(&w);
        let daty = d.t_mul_vec(&w);
        for (x, y) in aty.iter().zip(&daty) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn transpose_and_gram_match_dense() {
        let a = random_sparse(9, 6, 4, 7);
        let d = a.to_dense();
        assert_eq!(a.transpose().to_dense().data(), d.transposed().data());
        let g = a.gram().to_dense();
        let dg = d.gram();
        for (x, y) in g.data().iter().zip(dg.data()) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn kkt_assembly_matches_dense_formula() {
        let a = random_sparse(8, 5, 3, 99);
        let p = {
            // SPD-ish pattern: diagonal plus a band entry
            let mut b = TripletBuilder::new(5, 5);
            for i in 0..5 {
                b.push(i, i, 2.0 + i as f64);
            }
            b.push(0, 2, 0.5);
            b.push(2, 0, 0.5);
            b.build()
        };
        let gram = a.gram();
        let mut kkt = SparseKkt::new(&p, &gram);
        for &(sigma, rho) in &[(1e-6, 0.1), (0.5, 3.0)] {
            let k = kkt.assemble(&p, &gram, sigma, rho).to_dense();
            let mut want = p.to_dense();
            want.add_scaled(&Mat::identity(5), sigma);
            want.add_scaled(&gram.to_dense(), rho);
            for (x, y) in k.data().iter().zip(want.data()) {
                assert!((x - y).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn scaling_and_norm_helpers_match_dense() {
        let mut a = random_sparse(6, 4, 3, 5);
        let d0 = a.to_dense();
        let mut rmax = vec![0.0; 6];
        let mut cmax = vec![0.0; 4];
        a.row_abs_max_into(&mut rmax);
        a.col_abs_max_into(&mut cmax);
        for (i, &got) in rmax.iter().enumerate() {
            let want = (0..4).map(|j| d0.at(i, j).abs()).fold(0.0, f64::max);
            assert!((got - want).abs() < 1e-15);
        }
        for (j, &got) in cmax.iter().enumerate() {
            let want = (0..6).map(|i| d0.at(i, j).abs()).fold(0.0, f64::max);
            assert!((got - want).abs() < 1e-15);
        }
        let e: Vec<f64> = (0..6).map(|i| 1.0 + 0.1 * i as f64).collect();
        let c: Vec<f64> = (0..4).map(|j| 2.0 - 0.2 * j as f64).collect();
        a.scale_rows(&e);
        a.scale_cols(&c);
        let d1 = a.to_dense();
        for (i, &ei) in e.iter().enumerate() {
            for (j, &cj) in c.iter().enumerate() {
                assert!((d1.at(i, j) - d0.at(i, j) * ei * cj).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn fill_ratio_and_empty_columns() {
        let mut b = TripletBuilder::new(4, 4);
        b.push(0, 0, 1.0);
        b.push(3, 3, 1.0);
        let m = b.build();
        assert_eq!(m.nnz(), 2);
        assert!((m.fill_ratio() - 2.0 / 16.0).abs() < 1e-15);
        // columns 1 and 2 are empty; matvec must still be correct
        assert_eq!(m.mul_vec(&[1.0, 5.0, 5.0, 2.0]), vec![1.0, 0.0, 0.0, 2.0]);
    }
}
