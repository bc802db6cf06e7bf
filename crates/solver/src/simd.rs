//! Runtime-dispatched SIMD kernels for the solver's `f64` hot loops.
//!
//! Unlike the `f32` NN kernels (where FMA reordering is tolerated and
//! checked to a ULP budget), **every kernel in this module is
//! bitwise-preserving**: the AVX2 paths perform exactly the same
//! floating-point operations as the scalar loops — separate multiply
//! and add/subtract, never a fused multiply-add, never a reduction-order
//! change — so the CO trajectory contract (bit-identical episodes across
//! worker counts, shard counts and kernel backends) survives
//! vectorization.
//! The lanes only batch *independent* element updates:
//!
//! * elementwise ADMM vector updates (`ρz−y`, `σx−q` accumulation, the
//!   over-relaxation blend, the relax–project–dual step) — each element
//!   is its own dependency chain;
//! * the sparse dot products `Aᵀ·v` and `A·v` ([`LaneSlices`]) — each
//!   lane accumulates one whole column (or row) in storage order, so
//!   four independent sums advance side by side.
//!
//! Residual ∞-norm folds are deliberately **not** vectorized:
//! `f64::max` skips NaN operands where `_mm256_max_pd` would not, and
//! the ADMM loop relies on that NaN-skip to reach its explicit
//! non-finite iterate check.
//!
//! Dispatch mirrors `icoil_nn::simd`: process-wide detection (honoring
//! `ICOIL_FORCE_SCALAR=1`) plus a thread-local override for
//! differential tests, which accepts only a backend the CPU supports.
//! The conformance harness drives both crates' overrides independently.
//! This crate has no AVX-512 backend: its kernels keep their AVX2 bodies
//! on every AVX2 host.

// `unsafe` here is `core::arch` intrinsics behind runtime feature
// detection (the LDLᵀ solve sweeps in `ldl.rs` are the crate's only
// other unsafe code).
#![allow(unsafe_code)]

use std::cell::Cell;
use std::sync::OnceLock;

/// Which kernel implementation services the f64 hot loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// Portable scalar loops (the reference path).
    Scalar,
    /// x86-64 AVX2 lanes (no FMA — bitwise-preserving).
    Avx2,
}

impl KernelBackend {
    /// Stable label for bench metadata (`"scalar"` / `"avx2"`).
    pub fn label(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Avx2 => "avx2",
        }
    }
}

/// Whether this CPU can run `backend`'s kernels. The one feature probe
/// behind both [`detected`] and [`with_backend`]; unlike [`detected`] it
/// ignores `ICOIL_FORCE_SCALAR`.
pub fn supported(backend: KernelBackend) -> bool {
    match backend {
        KernelBackend::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
        #[cfg(not(target_arch = "x86_64"))]
        KernelBackend::Avx2 => false,
    }
}

fn detect() -> KernelBackend {
    if std::env::var("ICOIL_FORCE_SCALAR").is_ok_and(|v| v == "1")
        || !supported(KernelBackend::Avx2)
    {
        return KernelBackend::Scalar;
    }
    KernelBackend::Avx2
}

/// The process-wide backend chosen at first use.
pub fn detected() -> KernelBackend {
    static DETECTED: OnceLock<KernelBackend> = OnceLock::new();
    *DETECTED.get_or_init(detect)
}

thread_local! {
    static OVERRIDE: Cell<Option<KernelBackend>> = const { Cell::new(None) };
}

/// The backend the current thread will use: always one the CPU
/// [`supported`], which every dispatched `unsafe` kernel call relies on.
pub fn active() -> KernelBackend {
    OVERRIDE.with(Cell::get).unwrap_or_else(detected)
}

/// The active backend's label, for bench metadata.
pub fn dispatch_target() -> &'static str {
    active().label()
}

/// Runs `f` with this thread's kernels pinned to `backend`, restoring
/// the previous dispatch afterwards (also on panic).
///
/// # Panics
///
/// Panics when the CPU does not support `backend` (see [`supported`]):
/// its kernels would execute instructions the CPU lacks.
pub fn with_backend<R>(backend: KernelBackend, f: impl FnOnce() -> R) -> R {
    assert!(
        supported(backend),
        "kernel backend {:?} is not supported by this CPU",
        backend
    );
    struct Restore(Option<KernelBackend>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(backend))));
    f()
}

/// Per-kernel conformance modes. All solver kernels are `"bitwise"` by
/// design; the table exists so docs, bench JSON and the conformance
/// harness state the contract explicitly.
pub fn kernel_modes() -> &'static [(&'static str, &'static str)] {
    &[
        ("admm_elementwise_f64", "bitwise"),
        ("sparse_col_dot_f64", "bitwise"),
        ("sparse_row_dot_f64", "bitwise"),
        ("admm_project_dual_f64", "bitwise"),
    ]
}

/// Whether the AVX2 bodies run. The `unsafe` calls they guard rely on
/// `active` returning only a backend the CPU supports: `detected` picks
/// AVX2 only after `supported` found it, and `with_backend` asserts
/// `supported`.
#[cfg(target_arch = "x86_64")]
fn use_avx2() -> bool {
    active() == KernelBackend::Avx2
}

/// `tmp[i] = rho[i] * z[i] - y[i]` — the ADMM x̃-RHS precursor.
///
/// # Panics
///
/// Panics when the slice lengths differ.
#[inline]
pub fn mul_sub(tmp: &mut [f64], rho: &[f64], z: &[f64], y: &[f64]) {
    assert!(
        tmp.len() == rho.len() && tmp.len() == z.len() && tmp.len() == y.len(),
        "mul_sub: slice lengths differ"
    );
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: the CPU supports avx2 (see `use_avx2`), and the assert
        // above makes every slice tmp.len() long.
        unsafe { mul_sub_avx2(tmp, rho, z, y) };
        return;
    }
    for i in 0..tmp.len() {
        tmp[i] = rho[i] * z[i] - y[i];
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mul_sub_avx2(tmp: &mut [f64], rho: &[f64], z: &[f64], y: &[f64]) {
    use std::arch::x86_64::*;
    let chunks = tmp.len() / 4 * 4;
    let mut i = 0;
    while i < chunks {
        // SAFETY: i + 4 <= chunks <= every slice length.
        let vr = unsafe { _mm256_loadu_pd(rho.as_ptr().add(i)) };
        let vz = unsafe { _mm256_loadu_pd(z.as_ptr().add(i)) };
        let vy = unsafe { _mm256_loadu_pd(y.as_ptr().add(i)) };
        let v = _mm256_sub_pd(_mm256_mul_pd(vr, vz), vy);
        unsafe { _mm256_storeu_pd(tmp.as_mut_ptr().add(i), v) };
        i += 4;
    }
    for ii in chunks..tmp.len() {
        tmp[ii] = rho[ii] * z[ii] - y[ii];
    }
}

/// `rhs[i] += sigma * x[i] - q[i]` — the σ-regularized ADMM RHS update.
///
/// # Panics
///
/// Panics when the slice lengths differ.
#[inline]
pub fn add_scaled_sub(rhs: &mut [f64], sigma: f64, x: &[f64], q: &[f64]) {
    assert!(
        rhs.len() == x.len() && rhs.len() == q.len(),
        "add_scaled_sub: slice lengths differ"
    );
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: the CPU supports avx2 (see `use_avx2`), and the assert
        // above makes every slice rhs.len() long.
        unsafe { add_scaled_sub_avx2(rhs, sigma, x, q) };
        return;
    }
    for i in 0..rhs.len() {
        rhs[i] += sigma * x[i] - q[i];
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn add_scaled_sub_avx2(rhs: &mut [f64], sigma: f64, x: &[f64], q: &[f64]) {
    use std::arch::x86_64::*;
    let vs = _mm256_set1_pd(sigma);
    let chunks = rhs.len() / 4 * 4;
    let mut i = 0;
    while i < chunks {
        // SAFETY: i + 4 <= chunks <= every slice length.
        let vx = unsafe { _mm256_loadu_pd(x.as_ptr().add(i)) };
        let vq = unsafe { _mm256_loadu_pd(q.as_ptr().add(i)) };
        let vr = unsafe { _mm256_loadu_pd(rhs.as_ptr().add(i)) };
        let v = _mm256_add_pd(vr, _mm256_sub_pd(_mm256_mul_pd(vs, vx), vq));
        unsafe { _mm256_storeu_pd(rhs.as_mut_ptr().add(i), v) };
        i += 4;
    }
    for ii in chunks..rhs.len() {
        rhs[ii] += sigma * x[ii] - q[ii];
    }
}

/// `x[i] = alpha * xt[i] + (1 - alpha) * x[i]` — ADMM over-relaxation.
///
/// # Panics
///
/// Panics when the slice lengths differ.
#[inline]
pub fn relax(x: &mut [f64], alpha: f64, xt: &[f64]) {
    assert_eq!(x.len(), xt.len(), "relax: slice lengths differ");
    let beta = 1.0 - alpha;
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: the CPU supports avx2 (see `use_avx2`), and the assert
        // above makes both slices x.len() long.
        unsafe { relax_avx2(x, alpha, beta, xt) };
        return;
    }
    for (xi, &ti) in x.iter_mut().zip(xt) {
        *xi = alpha * ti + beta * *xi;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn relax_avx2(x: &mut [f64], alpha: f64, beta: f64, xt: &[f64]) {
    use std::arch::x86_64::*;
    let va = _mm256_set1_pd(alpha);
    let vb = _mm256_set1_pd(beta);
    let chunks = x.len() / 4 * 4;
    let mut i = 0;
    while i < chunks {
        // SAFETY: i + 4 <= chunks <= both slice lengths.
        let vt = unsafe { _mm256_loadu_pd(xt.as_ptr().add(i)) };
        let vx = unsafe { _mm256_loadu_pd(x.as_ptr().add(i)) };
        let v = _mm256_add_pd(_mm256_mul_pd(va, vt), _mm256_mul_pd(vb, vx));
        unsafe { _mm256_storeu_pd(x.as_mut_ptr().add(i), v) };
        i += 4;
    }
    for ii in chunks..x.len() {
        x[ii] = alpha * xt[ii] + beta * x[ii];
    }
}

/// The ADMM relax–project–dual step over every constraint row:
///
/// ```text
/// relaxed = α·z̃ᵢ + (1 − α)·zᵢ
/// zᵢ ← clamp(relaxed + yᵢ/ρᵢ, lᵢ, uᵢ)
/// yᵢ ← yᵢ + ρᵢ·(relaxed − zᵢ)
/// ```
///
/// The AVX2 path divides with `vdivpd` and replays `f64::clamp` as two
/// compare-and-blends: below `l` gives `l`, then above `u` gives `u`, and
/// a NaN compares false both times and passes through, exactly as in
/// `clamp`. Callers guarantee `l ≤ u` row by row, where the scalar
/// `clamp` would panic otherwise.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn project_dual(
    z: &mut [f64],
    y: &mut [f64],
    z_tilde: &[f64],
    rho: &[f64],
    l: &[f64],
    u: &[f64],
    alpha: f64,
) {
    let m = z.len();
    assert!(
        y.len() == m && z_tilde.len() == m && rho.len() == m && l.len() == m && u.len() == m,
        "dimension mismatch"
    );
    let beta = 1.0 - alpha;
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: the CPU supports avx2 (see `use_avx2`); every slice is
        // m long (asserted above).
        unsafe { project_dual_avx2(z, y, z_tilde, rho, l, u, alpha, beta) };
        return;
    }
    project_dual_scalar(z, y, z_tilde, rho, l, u, alpha, beta, 0);
}

/// The scalar form of [`project_dual`] from row `from` on.
#[allow(clippy::too_many_arguments)]
fn project_dual_scalar(
    z: &mut [f64],
    y: &mut [f64],
    z_tilde: &[f64],
    rho: &[f64],
    l: &[f64],
    u: &[f64],
    alpha: f64,
    beta: f64,
    from: usize,
) {
    for i in from..z.len() {
        let relaxed = alpha * z_tilde[i] + beta * z[i];
        let zi = (relaxed + y[i] / rho[i]).clamp(l[i], u[i]);
        y[i] += rho[i] * (relaxed - zi);
        z[i] = zi;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn project_dual_avx2(
    z: &mut [f64],
    y: &mut [f64],
    z_tilde: &[f64],
    rho: &[f64],
    l: &[f64],
    u: &[f64],
    alpha: f64,
    beta: f64,
) {
    use std::arch::x86_64::*;
    let va = _mm256_set1_pd(alpha);
    let vb = _mm256_set1_pd(beta);
    let chunks = z.len() / 4 * 4;
    let mut i = 0;
    while i < chunks {
        // SAFETY: i + 4 <= chunks <= z.len(), and every slice is z.len()
        // long (asserted by project_dual).
        let (vzt, vz, vy, vr, vl, vu) = unsafe {
            (
                _mm256_loadu_pd(z_tilde.as_ptr().add(i)),
                _mm256_loadu_pd(z.as_ptr().add(i)),
                _mm256_loadu_pd(y.as_ptr().add(i)),
                _mm256_loadu_pd(rho.as_ptr().add(i)),
                _mm256_loadu_pd(l.as_ptr().add(i)),
                _mm256_loadu_pd(u.as_ptr().add(i)),
            )
        };
        let relaxed = _mm256_add_pd(_mm256_mul_pd(va, vzt), _mm256_mul_pd(vb, vz));
        let mut zi = _mm256_add_pd(relaxed, _mm256_div_pd(vy, vr));
        zi = _mm256_blendv_pd(zi, vl, _mm256_cmp_pd::<_CMP_LT_OQ>(zi, vl));
        zi = _mm256_blendv_pd(zi, vu, _mm256_cmp_pd::<_CMP_GT_OQ>(zi, vu));
        let vy = _mm256_add_pd(vy, _mm256_mul_pd(vr, _mm256_sub_pd(relaxed, zi)));
        // SAFETY: as for the loads.
        unsafe {
            _mm256_storeu_pd(y.as_mut_ptr().add(i), vy);
            _mm256_storeu_pd(z.as_mut_ptr().add(i), zi);
        }
        i += 4;
    }
    project_dual_scalar(z, y, z_tilde, rho, l, u, alpha, beta, chunks);
}

/// A sparse matrix sliced for lane-parallel dot products: one *lane*
/// per output, that is per column of `A` for `Aᵀ·v`
/// ([`LaneSlices::columns_of`]) or per row for `A·v`
/// ([`LaneSlices::rows_of`]).
///
/// Lanes are taken four at a time, longest first. Step `k` of a group
/// holds the `k`-th stored entry of each of its four lanes, so one
/// gather, one multiply and one add advance four independent sums. Each
/// lane adds its products to `+0.0` in the order the scalar CSC loop
/// does — a column's storage order for `Aᵀ·v`, ascending column for a
/// row of `A·v` — so [`LaneSlices::dot_into`] is bitwise
/// [`SparseMatrix::t_mul_vec_into`] or [`SparseMatrix::mul_vec_into`].
///
/// Two details keep that true where lanes or inputs are uneven:
///
/// * a lane shorter than its group is padded with the value `0.0`
///   pointing at a trailing zero slot of the input. The padded product
///   is `±0.0`, and a sum that starts at `+0.0` is never `−0.0` (a sum
///   is `−0.0` only when both addends are), so adding it changes
///   nothing;
/// * the row form replays the scatter's skip of zero inputs
///   (`mul_vec_into` never visits column `c` when `v[c] == 0.0`): a
///   product whose input compares equal to zero is masked to `+0.0`,
///   which the same argument makes a no-op, so `∞·0` and `NaN·0` never
///   reach the sum.
///
/// [`SparseMatrix::t_mul_vec_into`]: crate::SparseMatrix::t_mul_vec_into
/// [`SparseMatrix::mul_vec_into`]: crate::SparseMatrix::mul_vec_into
#[derive(Debug, Clone)]
pub struct LaneSlices {
    /// Number of lanes (outputs).
    lanes: usize,
    /// Input length, not counting the trailing zero slot.
    input_len: usize,
    /// Whether products of a zero input are masked (the row form).
    skip_zero: bool,
    /// Lanes in slicing order: group `g` is `order[4g..4g + 4]`.
    order: Vec<usize>,
    /// Entry offset of each group into `idx`/`vals` (multiples of 4),
    /// plus the end.
    group_ptr: Vec<usize>,
    /// Input index per entry, four per step; padding holds `input_len`.
    idx: Vec<i32>,
    /// Value per entry, four per step; padding holds `0.0`.
    vals: Vec<f64>,
}

impl LaneSlices {
    /// Slices `a` by columns: [`LaneSlices::dot_into`] computes `Aᵀ·v`.
    ///
    /// # Panics
    ///
    /// Panics when `a` has `i32::MAX` rows or more, or its column
    /// pointers or row indices are out of range.
    pub fn columns_of(a: &crate::SparseMatrix) -> Self {
        Self::slice(a, false)
    }

    /// Slices `a` by rows: [`LaneSlices::dot_into`] computes `A·v`.
    ///
    /// # Panics
    ///
    /// Panics when `a` has `i32::MAX` columns or more, or its column
    /// pointers or row indices are out of range.
    pub fn rows_of(a: &crate::SparseMatrix) -> Self {
        Self::slice(a, true)
    }

    fn slice(a: &crate::SparseMatrix, by_rows: bool) -> Self {
        let (lanes, input_len) = if by_rows {
            (a.rows(), a.cols())
        } else {
            (a.cols(), a.rows())
        };
        let pad = i32::try_from(input_len).expect("input length fits a 32-bit gather index");
        let (col_ptr, row_ind, values) = (a.col_ptr(), a.row_ind(), a.values());
        // a deserialized matrix carries its fields unchecked
        assert!(
            col_ptr.len() == a.cols() + 1 && col_ptr.windows(2).all(|w| w[0] <= w[1]),
            "malformed column pointers"
        );
        assert!(
            row_ind.iter().all(|&r| r < a.rows()),
            "stored row index out of range"
        );
        let mut lane_len = vec![0usize; lanes];
        if by_rows {
            for &r in row_ind {
                lane_len[r] += 1;
            }
        } else {
            for (len, w) in lane_len.iter_mut().zip(col_ptr.windows(2)) {
                *len = w[1] - w[0];
            }
        }
        // longest first, ties in lane order: a counting sort on the
        // distance from the longest length
        let longest = lane_len.iter().copied().max().unwrap_or(0);
        let mut start = vec![0usize; longest + 2];
        for &len in &lane_len {
            start[longest - len + 1] += 1;
        }
        for b in 1..start.len() {
            start[b] += start[b - 1];
        }
        let mut order = vec![0usize; lanes];
        for (lane, &len) in lane_len.iter().enumerate() {
            let b = longest - len;
            order[start[b]] = lane;
            start[b] += 1;
        }
        // next free entry of each lane: its group's offset plus its
        // position in the group, advancing by 4 per stored entry
        let mut next = vec![0usize; lanes];
        let mut group_ptr = Vec::with_capacity(lanes.div_ceil(4) + 1);
        let mut total = 0;
        group_ptr.push(total);
        for group in order.chunks(4) {
            for (k, &lane) in group.iter().enumerate() {
                next[lane] = total + k;
            }
            total += 4 * lane_len[group[0]];
            group_ptr.push(total);
        }
        let mut idx = vec![pad; total];
        let mut vals = vec![0.0; total];
        // visited column by column, so a column lane takes its entries in
        // storage order and a row lane in ascending column order
        for (c, w) in col_ptr.windows(2).enumerate() {
            for (&r, &v) in row_ind[w[0]..w[1]].iter().zip(&values[w[0]..w[1]]) {
                let (lane, input) = if by_rows { (r, c) } else { (c, r) };
                // the AVX2 gather reads v[input] unchecked
                assert!(input < input_len, "stored index out of range");
                let e = next[lane];
                // input < input_len <= i32::MAX
                idx[e] = input as i32;
                vals[e] = v;
                next[lane] = e + 4;
            }
        }
        LaneSlices {
            lanes,
            input_len,
            skip_zero: by_rows,
            order,
            group_ptr,
            idx,
            vals,
        }
    }

    /// `out = Aᵀ·v` (column slices) or `out = A·v` (row slices), bitwise
    /// equal to the CSC loop. `v` carries the input — one entry per row
    /// of `A` for column slices, per column for row slices — followed by
    /// one zero slot that padding entries point at.
    ///
    /// # Panics
    ///
    /// Panics when `v` is not one entry longer than the input, its last
    /// entry is not zero, or `out` does not have one entry per lane.
    pub fn dot_into(&self, v: &[f64], out: &mut [f64]) {
        assert_eq!(
            v.len(),
            self.input_len + 1,
            "input needs one trailing zero slot"
        );
        assert!(
            v[self.input_len] == 0.0,
            "the trailing input slot must be zero"
        );
        assert_eq!(out.len(), self.lanes, "output dimension mismatch");
        #[cfg(target_arch = "x86_64")]
        if use_avx2() {
            // SAFETY: the CPU supports avx2 (see `use_avx2`); `slice` stores
            // only indices <= input_len (entries asserted < input_len, padding
            // = input_len), and `v` is input_len + 1 long (asserted above).
            unsafe {
                if self.skip_zero {
                    self.dot_avx2::<true>(v, out);
                } else {
                    self.dot_avx2::<false>(v, out);
                }
            }
            return;
        }
        if self.skip_zero {
            self.dot_scalar::<true>(v, out);
        } else {
            self.dot_scalar::<false>(v, out);
        }
    }

    fn dot_scalar<const SKIP_ZERO: bool>(&self, v: &[f64], out: &mut [f64]) {
        for (span, lanes) in self.group_ptr.windows(2).zip(self.order.chunks(4)) {
            let mut acc = [0.0f64; 4];
            let steps = self.idx[span[0]..span[1]].chunks_exact(4);
            for (ix, a) in steps.zip(self.vals[span[0]..span[1]].chunks_exact(4)) {
                for k in 0..4 {
                    let x = v[ix[k] as usize];
                    if SKIP_ZERO && x == 0.0 {
                        continue;
                    }
                    acc[k] += a[k] * x;
                }
            }
            for (&lane, &sum) in lanes.iter().zip(&acc) {
                out[lane] = sum;
            }
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX2, and `v.len()` must exceed every stored
    /// index (`v.len() > input_len`).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn dot_avx2<const SKIP_ZERO: bool>(&self, v: &[f64], out: &mut [f64]) {
        use std::arch::x86_64::*;
        let zero = _mm256_setzero_pd();
        // `slice` builds group_ptr nondecreasing, in multiples of 4, ending
        // at the length of idx and vals
        let end = *self.group_ptr.last().expect("group_ptr starts non-empty");
        assert!(self.idx.len() == end && self.vals.len() == end);
        for (span, lanes) in self.group_ptr.windows(2).zip(self.order.chunks(4)) {
            let mut acc = _mm256_setzero_pd();
            for e in (span[0]..span[1]).step_by(4) {
                // SAFETY: e + 4 <= span[1] <= end, within idx and vals
                // (asserted above); every index is < v.len() (the
                // caller's contract).
                let (x, a) = unsafe {
                    let ix = _mm_loadu_si128(self.idx.as_ptr().add(e).cast());
                    (
                        _mm256_i32gather_pd::<8>(v.as_ptr(), ix),
                        _mm256_loadu_pd(self.vals.as_ptr().add(e)),
                    )
                };
                let mut prod = _mm256_mul_pd(a, x);
                if SKIP_ZERO {
                    prod = _mm256_andnot_pd(_mm256_cmp_pd::<_CMP_EQ_OQ>(x, zero), prod);
                }
                acc = _mm256_add_pd(acc, prod);
            }
            let mut sums = [0.0f64; 4];
            // SAFETY: sums holds four f64.
            unsafe { _mm256_storeu_pd(sums.as_mut_ptr(), acc) };
            for (&lane, &sum) in lanes.iter().zip(&sums) {
                out[lane] = sum;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wavy(len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| ((i * 13 + 5) as f64 * 0.173).sin())
            .collect()
    }

    /// Every kernel must agree with the scalar backend *bitwise* — the
    /// whole point of the no-FMA discipline. Exercises ragged tails.
    #[test]
    fn all_kernels_are_bitwise_vs_scalar() {
        for n in [0usize, 1, 3, 4, 5, 8, 11, 17] {
            let rho = wavy(n);
            let z = wavy(n).iter().map(|v| v + 0.5).collect::<Vec<_>>();
            let y = wavy(n).iter().map(|v| v - 0.25).collect::<Vec<_>>();
            let q = wavy(n);
            let xt = wavy(n).iter().map(|v| v * 2.0).collect::<Vec<_>>();

            let mut a1 = wavy(n);
            let mut a2 = a1.clone();
            with_backend(KernelBackend::Scalar, || mul_sub(&mut a1, &rho, &z, &y));
            with_backend(detected(), || mul_sub(&mut a2, &rho, &z, &y));
            assert_eq!(a1, a2, "mul_sub n={n}");

            let mut b1 = wavy(n);
            let mut b2 = b1.clone();
            with_backend(KernelBackend::Scalar, || {
                add_scaled_sub(&mut b1, 1e-6, &z, &q)
            });
            with_backend(detected(), || add_scaled_sub(&mut b2, 1e-6, &z, &q));
            assert_eq!(b1, b2, "add_scaled_sub n={n}");

            let mut c1 = wavy(n);
            let mut c2 = c1.clone();
            with_backend(KernelBackend::Scalar, || relax(&mut c1, 1.6, &xt));
            with_backend(detected(), || relax(&mut c2, 1.6, &xt));
            assert_eq!(c1, c2, "relax n={n}");

            // bounds around the iterate so both clamp branches fire
            let lo = wavy(n).iter().map(|v| v - 0.1).collect::<Vec<_>>();
            let hi = wavy(n).iter().map(|v| v + 0.1).collect::<Vec<_>>();
            let rho_pos = rho.iter().map(|v| v.abs() + 0.5).collect::<Vec<_>>();
            let (mut z1, mut y1) = (z.clone(), y.clone());
            let (mut z2, mut y2) = (z.clone(), y.clone());
            with_backend(KernelBackend::Scalar, || {
                project_dual(&mut z1, &mut y1, &xt, &rho_pos, &lo, &hi, 1.6)
            });
            with_backend(detected(), || {
                project_dual(&mut z2, &mut y2, &xt, &rho_pos, &lo, &hi, 1.6)
            });
            assert_eq!((z1, y1), (z2, y2), "project_dual n={n}");
        }
    }

    #[test]
    fn nan_passes_through_identically() {
        let xt = vec![2.0, 2.0, f64::NAN, 2.0, 2.0];
        let mut x1 = vec![1.0, f64::NAN, 3.0, 4.0, 5.0];
        let mut x2 = x1.clone();
        with_backend(KernelBackend::Scalar, || relax(&mut x1, 1.6, &xt));
        with_backend(detected(), || relax(&mut x2, 1.6, &xt));
        // a NaN iterate passes the clamp unchanged on both backends
        let (lo, hi) = (vec![-1.0; 5], vec![1.0; 5]);
        let (mut z1, mut y1) = (x1.clone(), vec![0.5; 5]);
        let (mut z2, mut y2) = (x2.clone(), vec![0.5; 5]);
        with_backend(KernelBackend::Scalar, || {
            project_dual(&mut z1, &mut y1, &xt, &[0.1; 5], &lo, &hi, 1.6)
        });
        with_backend(detected(), || {
            project_dual(&mut z2, &mut y2, &xt, &[0.1; 5], &lo, &hi, 1.6)
        });
        assert!(z1[1].is_nan() && z1[2].is_nan());
        // NaN sign and payload are unspecified; NaN-ness and every other
        // bit must match
        for (a, b) in x1
            .iter()
            .chain(&z1)
            .chain(&y1)
            .zip(x2.iter().chain(&z2).chain(&y2))
        {
            assert!(a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()));
        }
    }

    #[test]
    fn malformed_deserialized_matrices_panic_when_sliced() {
        // deserialization leaves the fields unchecked: an over-long
        // col_ptr (its third column would be stored as input index 2 of
        // a one-column matrix), descending pointers, a row past the end
        for json in [
            r#"{"rows":1,"cols":1,"col_ptr":[0,0,0,1],"row_ind":[0],"values":[1.0]}"#,
            r#"{"rows":1,"cols":1,"col_ptr":[0,0,0,0,0,0,1],"row_ind":[0],"values":[1.0]}"#,
            r#"{"rows":2,"cols":2,"col_ptr":[0,2,1],"row_ind":[0,1],"values":[1.0,2.0]}"#,
            r#"{"rows":1,"cols":1,"col_ptr":[0,1],"row_ind":[3],"values":[1.0]}"#,
        ] {
            let a: crate::SparseMatrix = serde_json::from_str(json).expect("parses");
            assert!(
                std::panic::catch_unwind(|| LaneSlices::rows_of(&a)).is_err(),
                "rows_of {json}"
            );
            assert!(
                std::panic::catch_unwind(|| LaneSlices::columns_of(&a)).is_err(),
                "columns_of {json}"
            );
        }
    }

    #[test]
    fn override_accepts_exactly_the_supported_backends() {
        for backend in [KernelBackend::Scalar, KernelBackend::Avx2] {
            let pinned = std::panic::catch_unwind(|| with_backend(backend, active));
            if supported(backend) {
                assert_eq!(pinned.ok(), Some(backend), "{backend:?} is supported");
            } else {
                assert!(
                    pinned.is_err(),
                    "{backend:?} is not supported but was accepted"
                );
            }
        }
        assert!(supported(detected()));
    }

    // A slice one element short must panic on every backend, release
    // builds included: the AVX2 bodies index through raw pointers sized
    // by the first slice.

    #[test]
    #[should_panic(expected = "mul_sub: slice lengths differ")]
    fn mul_sub_rejects_a_short_slice() {
        mul_sub(&mut wavy(8), &wavy(8), &wavy(8), &wavy(7));
    }

    #[test]
    #[should_panic(expected = "add_scaled_sub: slice lengths differ")]
    fn add_scaled_sub_rejects_a_short_slice() {
        add_scaled_sub(&mut wavy(8), 1e-6, &wavy(8), &wavy(7));
    }

    #[test]
    #[should_panic(expected = "relax: slice lengths differ")]
    fn relax_rejects_a_short_slice() {
        relax(&mut wavy(8), 1.6, &wavy(7));
    }

    #[test]
    fn kernel_mode_table_is_all_bitwise() {
        for (kernel, mode) in kernel_modes() {
            assert_eq!(*mode, "bitwise", "{kernel}");
        }
    }
}
