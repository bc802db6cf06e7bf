//! Dense row-major `f32` tensors.

use serde::{Deserialize, Serialize};

/// A dense tensor of `f32` values in row-major order.
///
/// Shapes are dynamic (a `Vec<usize>`); the common cases in this crate are
/// matrices `[rows, cols]` and batched images `[n, c, h, w]`.
///
/// # Example
///
/// ```
/// use icoil_nn::Tensor;
///
/// let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
/// let b = Tensor::from_vec(vec![3, 2], vec![1., 0., 0., 1., 1., 1.]).unwrap();
/// let c = a.matmul(&b);
/// assert_eq!(c.shape(), &[2, 2]);
/// assert_eq!(c.data(), &[4., 5., 10., 11.]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

/// Error returned when a shape does not match the supplied data length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// The requested shape.
    pub shape: Vec<usize>,
    /// The supplied element count.
    pub len: usize,
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shape {:?} requires {} elements but {} were supplied",
            self.shape,
            self.shape.iter().product::<usize>(),
            self.len
        )
    }
}

impl std::error::Error for ShapeError {}

impl Default for Tensor {
    /// An empty `[0]` tensor — a lazily-sized buffer for the `*_into`
    /// methods.
    fn default() -> Self {
        Tensor::zeros(vec![0])
    }
}

impl Tensor {
    /// A tensor of zeros.
    pub fn zeros(shape: Vec<usize>) -> Self {
        let n = shape.iter().product();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// A tensor filled with `value`.
    pub fn full(shape: Vec<usize>, value: f32) -> Self {
        let n = shape.iter().product();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Wraps a data vector with a shape.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `data.len()` does not equal the shape
    /// product.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Result<Self, ShapeError> {
        if shape.iter().product::<usize>() != data.len() {
            return Err(ShapeError {
                shape,
                len: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// The tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the elements (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the elements (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its elements.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics when the element counts differ.
    pub fn reshaped(&self, shape: Vec<usize>) -> Tensor {
        assert_eq!(
            shape.iter().product::<usize>(),
            self.data.len(),
            "reshape must preserve the element count"
        );
        Tensor {
            shape,
            data: self.data.clone(),
        }
    }

    /// Number of rows of a matrix (`shape[0]`), or the leading dimension.
    ///
    /// # Panics
    ///
    /// Panics on a 0-dimensional tensor.
    pub fn rows(&self) -> usize {
        self.shape[0]
    }

    /// Matrix element accessor.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is 2-D and the indices are in range.
    pub fn at(&self, r: usize, c: usize) -> f32 {
        assert_eq!(self.shape.len(), 2, "at() requires a matrix");
        self.data[r * self.shape[1] + c]
    }

    /// Resizes the tensor in place, reusing the existing allocation when
    /// the capacity suffices. Element values are unspecified afterwards;
    /// callers are expected to overwrite them.
    pub fn resize(&mut self, shape: &[usize]) {
        let n = shape.iter().product();
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self.data.resize(n, 0.0);
    }

    /// Changes the shape in place, keeping every element (a flatten
    /// without the copy).
    ///
    /// # Panics
    ///
    /// Panics unless `shape` holds exactly as many elements.
    pub(crate) fn reshape_in_place(&mut self, shape: &[usize]) {
        assert_eq!(
            shape.iter().product::<usize>(),
            self.data.len(),
            "reshape must preserve the element count"
        );
        self.shape.clear();
        self.shape.extend_from_slice(shape);
    }

    /// Makes this tensor an element-wise copy of `other`, reusing the
    /// existing allocation when the capacity suffices.
    pub fn copy_from(&mut self, other: &Tensor) {
        self.resize(&other.shape);
        self.data.copy_from_slice(&other.data);
    }

    /// Matrix product `self · other` for 2-D tensors.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 2-D with compatible inner
    /// dimensions.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(vec![0]);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Tensor::matmul`] writing into a caller-provided tensor, which is
    /// resized as needed: repeated products of the same dimensions reuse
    /// the allocation. Results are bit-identical to [`Tensor::matmul`].
    ///
    /// The kernel is dispatched through [`crate::simd`] (AVX2/FMA lanes
    /// when the CPU supports them, the scalar reference otherwise). On
    /// either backend each output element accumulates over `k` in
    /// ascending order, so cache blocking and lane tiling cannot change
    /// the floating-point result of any individual element.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 2-D with compatible inner
    /// dimensions.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        let (m, k) = self.matrix_dims();
        let (k2, n) = other.matrix_dims();
        assert_eq!(k, k2, "matmul inner dimensions must agree");
        out.resize(&[m, n]);
        crate::simd::matmul(&self.data, m, k, &other.data, n, &mut out.data);
    }

    /// Matrix product `selfᵀ · other` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 2-D with `self.rows == other.rows`.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let (k, m) = self.matrix_dims();
        let (k2, n) = other.matrix_dims();
        assert_eq!(k, k2, "matmul_tn leading dimensions must agree");
        let mut out = vec![0.0f32; m * n];
        for kk in 0..k {
            let a_row = &self.data[kk * m..(kk + 1) * m];
            let b_row = &other.data[kk * n..(kk + 1) * n];
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out[i * n..(i + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        Tensor {
            shape: vec![m, n],
            data: out,
        }
    }

    /// Matrix product `self · otherᵀ` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 2-D with matching column counts.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(vec![0]);
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// [`Tensor::matmul_nt`] writing into a caller-provided tensor, which
    /// is resized as needed (no allocation once warm). Each output element
    /// is an independent dot product (on whichever [`crate::simd`] backend
    /// is active), so results are bit-identical to [`Tensor::matmul_nt`]
    /// and a row's values never depend on the batch width.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 2-D with matching column counts.
    pub fn matmul_nt_into(&self, other: &Tensor, out: &mut Tensor) {
        let (m, k) = self.matrix_dims();
        let (n, k2) = other.matrix_dims();
        assert_eq!(k, k2, "matmul_nt column counts must agree");
        out.resize(&[m, n]);
        crate::simd::matmul_nt(&self.data, m, k, &other.data, n, &mut out.data);
    }

    /// The transposed matrix.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is 2-D.
    pub fn transposed(&self) -> Tensor {
        let (m, n) = self.matrix_dims();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor {
            shape: vec![n, m],
            data: out,
        }
    }

    /// Element-wise in-place addition.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place multiplication by a scalar.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Returns a new tensor with `f` applied element-wise.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Index of the maximum element of each row of a matrix.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is a non-empty 2-D matrix.
    pub fn argmax_rows(&self) -> Vec<usize> {
        let (m, n) = self.matrix_dims();
        assert!(n > 0, "argmax over empty rows");
        (0..m)
            .map(|i| {
                let row = &self.data[i * n..(i + 1) * n];
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite values"))
                    .map(|(j, _)| j)
                    .expect("non-empty row")
            })
            .collect()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Returns `true` when every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    fn matrix_dims(&self) -> (usize, usize) {
        assert_eq!(self.shape.len(), 2, "operation requires a 2-D tensor");
        (self.shape[0], self.shape[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: Vec<usize>, data: Vec<f32>) -> Tensor {
        Tensor::from_vec(shape, data).unwrap()
    }

    #[test]
    fn construction_and_shape_errors() {
        assert!(Tensor::from_vec(vec![2, 2], vec![1.0; 3]).is_err());
        let z = Tensor::zeros(vec![3, 4]);
        assert_eq!(z.len(), 12);
        assert!(z.data().iter().all(|&v| v == 0.0));
        let f = Tensor::full(vec![2], 7.0);
        assert_eq!(f.data(), &[7.0, 7.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = t(vec![2, 2], vec![1., 2., 3., 4.]);
        let i = t(vec![2, 2], vec![1., 0., 0., 1.]);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = t(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = t(vec![3, 1], vec![1., 1., 1.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 1]);
        assert_eq!(c.data(), &[6., 15.]);
    }

    #[test]
    fn matmul_into_reuses_dirty_buffer_and_matches() {
        // irrational-ish values so accumulation-order bugs show up in bits
        let a = t(
            vec![3, 4],
            (0..12)
                .map(|i| ((i * 7 + 3) as f32 * 0.137).sin())
                .collect(),
        );
        let b = t(
            vec![4, 5],
            (0..20)
                .map(|i| ((i * 5 + 1) as f32 * 0.219).cos())
                .collect(),
        );
        let expected = a.matmul(&b);
        // wrong-shaped buffer full of garbage must be fully overwritten
        let mut out = Tensor::full(vec![7, 2], 3.5);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, expected);

        let expected_nt = a.matmul_nt(&b.transposed());
        let mut out_nt = Tensor::full(vec![1, 1], -9.0);
        a.matmul_nt_into(&b.transposed(), &mut out_nt);
        assert_eq!(out_nt, expected_nt);
        // plain and transposed-B products use different reduction
        // kernels (accumulate-over-k vs dot product), so they agree to
        // rounding, not necessarily bitwise
        for (p, q) in expected.data().iter().zip(expected_nt.data()) {
            assert!((p - q).abs() <= 1e-5 * p.abs().max(1.0), "{p} vs {q}");
        }
    }

    #[test]
    fn matmul_blocking_spans_wide_outputs() {
        // wider than one column block so the tiled loop crosses a block
        // boundary; compare against a naive triple loop
        let (m, k, n) = (3, 5, 300);
        let a = t(
            vec![m, k],
            (0..m * k).map(|i| (i as f32 * 0.31).sin()).collect(),
        );
        let b = t(
            vec![k, n],
            (0..k * n).map(|i| (i as f32 * 0.17).cos()).collect(),
        );
        // the scalar backend IS the naive accumulation order: bitwise
        let c_scalar =
            crate::simd::with_backend(crate::simd::KernelBackend::Scalar, || a.matmul(&b));
        // the dispatched backend may fuse multiply-adds: rounding-close
        let c = a.matmul(&b);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a.at(i, kk) * b.at(kk, j);
                }
                assert_eq!(c_scalar.at(i, j), acc, "scalar element ({i}, {j})");
                let got = c.at(i, j);
                assert!(
                    (got - acc).abs() <= 1e-5 * acc.abs().max(1.0),
                    "element ({i}, {j}): {got} vs {acc}"
                );
            }
        }
    }

    #[test]
    fn resize_and_copy_from_reuse_capacity() {
        let mut buf = Tensor::default();
        buf.resize(&[4, 4]);
        assert_eq!(buf.shape(), &[4, 4]);
        let src = t(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        buf.copy_from(&src);
        assert_eq!(buf, src);
    }

    #[test]
    fn transposed_variants_agree() {
        let a = t(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = t(vec![2, 4], vec![1., 0., 2., 1., 0., 1., 1., 3.]);
        // aᵀ·b via matmul_tn equals explicit transpose
        let tn = a.matmul_tn(&b);
        let explicit = a.transposed().matmul(&b);
        assert_eq!(tn, explicit);
        // a·cᵀ via matmul_nt equals explicit transpose
        let c = t(vec![5, 3], (0..15).map(|i| i as f32).collect());
        let nt = a.matmul_nt(&c);
        let explicit = a.matmul(&c.transposed());
        assert_eq!(nt, explicit);
    }

    #[test]
    fn transpose_involution() {
        let a = t(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transposed().transposed(), a);
    }

    #[test]
    fn elementwise_ops() {
        let mut a = t(vec![2], vec![1., 2.]);
        a.add_assign(&t(vec![2], vec![3., 4.]));
        assert_eq!(a.data(), &[4., 6.]);
        a.scale(0.5);
        assert_eq!(a.data(), &[2., 3.]);
        let m = a.map(|v| v * v);
        assert_eq!(m.data(), &[4., 9.]);
        assert_eq!(m.sum(), 13.0);
    }

    #[test]
    fn argmax_rows_picks_maximum() {
        let a = t(vec![2, 3], vec![0.1, 0.7, 0.2, 0.9, 0.05, 0.05]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = t(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = a.reshaped(vec![3, 2]);
        assert_eq!(b.shape(), &[3, 2]);
        assert_eq!(b.data(), a.data());
    }

    #[test]
    #[should_panic(expected = "reshape")]
    fn bad_reshape_panics() {
        let a = Tensor::zeros(vec![4]);
        let _ = a.reshaped(vec![3]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn bad_matmul_panics() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![2, 3]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn finite_check() {
        let mut a = Tensor::zeros(vec![2]);
        assert!(a.is_finite());
        a.data_mut()[0] = f32::NAN;
        assert!(!a.is_finite());
    }
}
