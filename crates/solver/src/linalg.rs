//! Small dense `f64` matrices and Cholesky factorization.

use serde::{Deserialize, Serialize};

/// A dense row-major `f64` matrix.
///
/// Sized for MPC-scale problems (tens to a few hundred variables); all
/// operations are straightforward O(n³)/O(n²) loops with no panics on
/// well-shaped inputs.
///
/// # Example
///
/// ```
/// use icoil_solver::Mat;
///
/// let a = Mat::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]);
/// let x = a.mul_vec(&[1.0, 2.0]);
/// assert_eq!(x, vec![2.0, 6.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// A diagonal matrix from its diagonal entries.
    pub fn diag(d: &[f64]) -> Self {
        let n = d.len();
        let mut m = Mat::zeros(n, n);
        for (i, &v) in d.iter().enumerate() {
            m.data[i * n + i] = v;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics when rows have inconsistent lengths or the input is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Mat {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Wraps a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Mat { rows, cols, data }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics for out-of-range indices.
    pub fn at(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    ///
    /// # Panics
    ///
    /// Panics for out-of-range indices.
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        &mut self.data[r * self.cols + c]
    }

    /// Flat row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Matrix–vector product `A·v`.
    ///
    /// # Panics
    ///
    /// Panics when `v.len() != cols`.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        let mut out = vec![0.0; self.rows];
        for (i, o) in out.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            *o = row.iter().zip(v).map(|(a, b)| a * b).sum();
        }
        out
    }

    /// Transposed matrix–vector product `Aᵀ·v`.
    ///
    /// # Panics
    ///
    /// Panics when `v.len() != rows`.
    pub fn t_mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows, "dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (o, &a) in out.iter_mut().zip(row) {
                *o += a * vi;
            }
        }
        out
    }

    /// Matrix product `A·B`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn mul(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = Mat::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let brow = &other.data[k * other.cols..(k + 1) * other.cols];
                let orow = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `AᵀA` (always symmetric positive semidefinite).
    pub fn gram(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.cols);
        for k in 0..self.rows {
            let row = &self.data[k * self.cols..(k + 1) * self.cols];
            for i in 0..self.cols {
                let a = row[i];
                if a == 0.0 {
                    continue;
                }
                for (j, &b) in row.iter().enumerate() {
                    out.data[i * self.cols + j] += a * b;
                }
            }
        }
        out
    }

    /// The transposed matrix.
    pub fn transposed(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// In-place scaled addition `self += s · other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Mat, s: f64) {
        assert!(
            self.rows == other.rows && self.cols == other.cols,
            "shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
    }

    /// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite
    /// matrix.
    ///
    /// # Errors
    ///
    /// Returns `Err(pivot)` when a non-positive pivot is met (matrix not
    /// positive definite), with `pivot` the failing index.
    pub fn cholesky(&self) -> Result<Cholesky, usize> {
        assert_eq!(self.rows, self.cols, "Cholesky needs a square matrix");
        let n = self.rows;
        let mut l = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self.data[i * n + j];
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(i);
                    }
                    l[i * n + i] = sum.sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        Ok(Cholesky { n, l })
    }
}

/// A Cholesky factor `L` with forward/backward substitution.
#[derive(Debug, Clone)]
pub struct Cholesky {
    n: usize,
    l: Vec<f64>,
}

impl Cholesky {
    /// Solves `A·x = b` given `A = L·Lᵀ`.
    ///
    /// # Panics
    ///
    /// Panics when `b.len()` differs from the matrix dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x);
        x
    }

    /// Allocation-free solve `out = A⁻¹·b`; `out` doubles as the
    /// substitution scratch.
    ///
    /// # Panics
    ///
    /// Panics when `b.len()` or `out.len()` differ from the matrix
    /// dimension.
    pub fn solve_into(&self, b: &[f64], out: &mut [f64]) {
        assert_eq!(b.len(), self.n, "dimension mismatch");
        assert_eq!(out.len(), self.n, "output dimension mismatch");
        let n = self.n;
        out.copy_from_slice(b);
        // forward: L y = b
        for i in 0..n {
            for k in 0..i {
                out[i] -= self.l[i * n + k] * out[k];
            }
            out[i] /= self.l[i * n + i];
        }
        // backward: Lᵀ x = y
        for i in (0..n).rev() {
            for k in i + 1..n {
                out[i] -= self.l[k * n + i] * out[k];
            }
            out[i] /= self.l[i * n + i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let i = Mat::identity(3);
        assert_eq!(i.at(0, 0), 1.0);
        assert_eq!(i.at(0, 1), 0.0);
        let d = Mat::diag(&[1.0, 2.0]);
        assert_eq!(d.at(1, 1), 2.0);
    }

    #[test]
    fn mat_vec_products() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(a.mul_vec(&[1.0, 1.0]), vec![3.0, 7.0, 11.0]);
        assert_eq!(a.t_mul_vec(&[1.0, 1.0, 1.0]), vec![9.0, 12.0]);
    }

    #[test]
    fn mat_mul_and_transpose() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let c = a.mul(&b);
        assert_eq!(c.data(), &[2.0, 1.0, 4.0, 3.0]);
        let at = a.transposed();
        assert_eq!(at.at(0, 1), 3.0);
        assert_eq!(at.transposed(), a);
    }

    #[test]
    fn gram_matches_explicit() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[0.0, 1.0]]);
        let g = a.gram();
        let explicit = a.transposed().mul(&a);
        assert_eq!(g, explicit);
        // symmetric
        assert_eq!(g.at(0, 1), g.at(1, 0));
    }

    #[test]
    fn cholesky_solves_spd_system() {
        // A = [[4, 2], [2, 3]] is SPD
        let a = Mat::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let f = a.cholesky().unwrap();
        let b = vec![2.0, 1.0];
        let x = f.solve(&b);
        let back = a.mul_vec(&x);
        for (u, v) in back.iter().zip(&b) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(a.cholesky().is_err());
    }

    #[test]
    fn cholesky_large_random_spd() {
        // build SPD as AᵀA + I from a deterministic pseudo-random A
        let n = 12;
        let mut data = Vec::with_capacity(n * n);
        let mut s = 1u64;
        for _ in 0..n * n {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            data.push(((s >> 33) as f64 / (1u64 << 31) as f64) - 0.5);
        }
        let a = Mat::from_vec(n, n, data);
        let mut spd = a.gram();
        spd.add_scaled(&Mat::identity(n), 1.0);
        let f = spd.cholesky().unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let x = f.solve(&b);
        let back = spd.mul_vec(&x);
        for (u, v) in back.iter().zip(&b) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = Mat::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }
}
