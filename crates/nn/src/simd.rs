//! Runtime-dispatched SIMD kernels for the crate's `f32` hot paths.
//!
//! Three backends implement the kernels:
//!
//! * **scalar** — the original portable loops, unchanged, so
//!   `ICOIL_FORCE_SCALAR=1` reproduces pre-SIMD results bit-for-bit;
//! * **avx2** — x86-64 AVX2/FMA `f32x8` lanes, selected at runtime when
//!   the CPU reports both `avx2` and `fma`;
//! * **avx512** — selected when the CPU also reports `avx512f`. The fused
//!   conv blocks run on 512-bit tiles, every other kernel (GEMM and the
//!   Dense GEMM-NT) keeps its AVX2 body. The conv tiles
//!   replay the AVX2 sequence of every output element, so this backend's
//!   results equal the AVX2 backend's bit for bit.
//!
//! # Determinism contract
//!
//! Each kernel declares a conformance *mode* against the scalar backend
//! (see [`kernel_modes`]):
//!
//! * `"bitwise"` — the SIMD path performs the same floating-point
//!   operations in the same order as the scalar path (pure data movement
//!   or lane-independent updates), so both backends agree bit-for-bit.
//! * `"ulp"` — FMA contraction and lane-split reductions reorder
//!   roundings, so backends agree only to a small relative tolerance.
//!   Crucially, each *output element's* value is still a pure function of
//!   its own inputs on a given backend: lane tiling and batch width never
//!   leak into an element's accumulation order, preserving the
//!   batched-vs-single and worker-count bit-identity contracts *within*
//!   a backend.
//!
//! Between `avx512` and `avx2` every kernel is bitwise: the two run the
//! same body except the fused conv, whose 512-bit tiles keep each
//! element's AVX2 operation sequence. A served trajectory therefore does
//! not depend on which of the two a host detects.
//!
//! Dispatch is process-wide (cached on first use, honoring
//! `ICOIL_FORCE_SCALAR=1`) with a thread-local override
//! ([`with_backend`]) so differential tests can compare backends in one
//! process. The override accepts only a backend the CPU supports, so
//! every dispatched `unsafe` call runs on instructions the CPU has.

// This module is the one place in the crate allowed to use `unsafe`: the
// SIMD kernels require `core::arch` intrinsics, which are only callable
// from `#[target_feature]` functions guarded by runtime detection.
#![allow(unsafe_code)]

use std::cell::Cell;
use std::sync::OnceLock;

/// Which kernel implementation services the f32 hot paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// Portable scalar loops (the pre-SIMD reference path).
    Scalar,
    /// x86-64 AVX2 + FMA `f32x8` lanes.
    Avx2,
    /// x86-64 AVX-512F: the fused conv blocks on `f32x16` tiles, bit for
    /// bit with [`KernelBackend::Avx2`]; the other kernels run their AVX2
    /// bodies.
    Avx512,
}

impl KernelBackend {
    /// Every backend, narrowest first.
    const ALL: [KernelBackend; 3] = [
        KernelBackend::Scalar,
        KernelBackend::Avx2,
        KernelBackend::Avx512,
    ];

    /// The backend's stable label, as recorded in bench JSON
    /// (`"scalar"` / `"avx2"` / `"avx512"`).
    pub fn label(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Avx2 => "avx2",
            KernelBackend::Avx512 => "avx512",
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
        KernelBackend::Avx2 => {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx512 => {
            supported(KernelBackend::Avx2) && std::arch::is_x86_feature_detected!("avx512f")
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => false,
    }
}

/// Every backend this CPU supports, narrowest first: what differential
/// tests loop over.
pub fn supported_backends() -> impl Iterator<Item = KernelBackend> {
    KernelBackend::ALL.into_iter().filter(|&b| supported(b))
}

fn detect() -> KernelBackend {
    if std::env::var("ICOIL_FORCE_SCALAR").is_ok_and(|v| v == "1") {
        return KernelBackend::Scalar;
    }
    supported_backends().last().unwrap_or(KernelBackend::Scalar)
}

/// The process-wide backend chosen at first use: scalar when
/// `ICOIL_FORCE_SCALAR=1`, otherwise the widest the CPU supports.
pub fn detected() -> KernelBackend {
    static DETECTED: OnceLock<KernelBackend> = OnceLock::new();
    *DETECTED.get_or_init(detect)
}

thread_local! {
    static OVERRIDE: Cell<Option<KernelBackend>> = const { Cell::new(None) };
}

/// The backend the *current thread* will use: a [`with_backend`] override
/// when one is active, the process-wide [`detected`] backend otherwise.
/// Either way it is a backend the CPU [`supported`], which is what every
/// dispatched `unsafe` kernel call relies on.
pub fn active() -> KernelBackend {
    OVERRIDE.with(Cell::get).unwrap_or_else(detected)
}

/// The active backend's label (`"avx512"` / `"avx2"` / `"scalar"`), for
/// bench metadata.
pub fn dispatch_target() -> &'static str {
    active().label()
}

/// Runs `f` with the current thread's kernels pinned to `backend`,
/// restoring the previous dispatch afterwards (also on panic), so
/// differential tests can compare backends in-process.
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

/// Per-kernel conformance modes against the scalar backend: `(kernel,
/// mode)` where mode is `"bitwise"` (backends agree bit-for-bit) or
/// `"ulp"` (tolerance-bounded agreement; FMA/lane reductions reorder
/// roundings). See the module docs for what each mode guarantees. The
/// `avx512` backend is bitwise against `avx2` in every kernel, the
/// fused conv (`conv2d_f32`) included, so its modes against scalar are
/// the ones listed.
pub fn kernel_modes() -> &'static [(&'static str, &'static str)] {
    &[
        ("matmul_f32", "ulp"),
        ("matmul_nt_f32", "ulp"),
        ("conv2d_f32", "ulp"),
    ]
}

/// `rows · cols`, the element count a dimension pair promises.
///
/// # Panics
///
/// Panics when the product overflows `usize`: no slice can be that long,
/// and a wrapped product would pass the length checks that the SIMD
/// bodies' unchecked indexing relies on.
fn elems(rows: usize, cols: usize) -> usize {
    rows.checked_mul(cols)
        .expect("matrix dimensions overflow usize")
}

/// `out[m×n] = a[m×k] · b[k×n]`, row-major. `out` is fully overwritten.
///
/// Both backends accumulate each output element over `k` in ascending
/// order and skip `a == 0.0` entries, so an element's value depends only
/// on its own row of `a` and column of `b` — never on the tiling.
///
/// # Panics
///
/// Panics when the slice lengths disagree with the dimensions.
pub fn matmul(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), elems(m, k), "matmul: a is not m×k");
    assert_eq!(b.len(), elems(k, n), "matmul: b is not k×n");
    assert_eq!(out.len(), elems(m, n), "matmul: out is not m×n");
    match active() {
        KernelBackend::Scalar => matmul_scalar(a, m, k, b, n, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active` returns only a backend the CPU supports
        // (`detected` picks among supported ones and `with_backend`
        // asserts `supported`), and both SIMD backends include avx2+fma;
        // the asserts above bound every index the kernel reads or writes.
        KernelBackend::Avx2 | KernelBackend::Avx512 => unsafe { matmul_avx2(a, m, k, b, n, out) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => matmul_scalar(a, m, k, b, n, out),
    }
}

/// `out[m×n] = a[m×k] · b[n×k]ᵀ`, row-major. `out` is fully overwritten.
///
/// Each output element is an independent dot product over `k`, so the
/// result row for `a`'s row `i` is identical whatever the batch width
/// `m` — the property the serve IL micro-batch relies on.
pub fn matmul_nt(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    match active() {
        KernelBackend::Scalar => matmul_nt_scalar(a, m, k, b, n, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `matmul`, the active backend is supported and
        // includes avx2+fma; the kernel slices its rows with bounds checks.
        KernelBackend::Avx2 | KernelBackend::Avx512 => unsafe {
            matmul_nt_avx2(a, m, k, b, n, out)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => matmul_nt_scalar(a, m, k, b, n, out),
    }
}

/// The pre-SIMD column-blocked matmul, kept verbatim as the scalar
/// reference: a panel of `b` columns stays in cache across all rows of
/// `a`, each element accumulating over `k` in ascending order.
fn matmul_scalar(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    const BLOCK: usize = 128;
    out.fill(0.0);
    let mut jb = 0;
    while jb < n {
        let je = (jb + BLOCK).min(n);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n + jb..i * n + je];
            for (kk, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &b[kk * n + jb..kk * n + je];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        jb = je;
    }
}

/// The pre-SIMD per-element dot product, kept verbatim as the scalar
/// reference.
fn matmul_nt_scalar(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            out[i * n + j] = acc;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn matmul_avx2(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    use std::arch::x86_64::*;
    out.fill(0.0);
    // Register-tiled core: a 4-row × 16-column tile of `out` lives in
    // eight ymm accumulators across the whole k loop, so each k step is
    // two panel loads plus eight independent FMA chains — enough to keep
    // both FMA ports busy instead of round-tripping `out` through L1 on
    // every k step. Per element the math is unchanged: one FMA per
    // nonzero `a` entry, k ascending, so the tiling never leaks into a
    // value and row results are independent of the batch height `m`.
    const NR: usize = 16;
    const MR: usize = 4;
    let n_main = n - n % NR;
    let m_main = m - m % MR;
    let mut jb = 0;
    while jb < n_main {
        let mut ib = 0;
        while ib < m_main {
            // SAFETY: ib + MR <= m and jb + NR <= n, so every a/b/out
            // index below is in bounds.
            unsafe {
                let bp = b.as_ptr().add(jb);
                let mut acc = [[_mm256_setzero_ps(); 2]; MR];
                for kk in 0..k {
                    let brow = bp.add(kk * n);
                    let b0 = _mm256_loadu_ps(brow);
                    let b1 = _mm256_loadu_ps(brow.add(8));
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let av = *a.get_unchecked((ib + r) * k + kk);
                        if av == 0.0 {
                            continue;
                        }
                        let va = _mm256_set1_ps(av);
                        accr[0] = _mm256_fmadd_ps(va, b0, accr[0]);
                        accr[1] = _mm256_fmadd_ps(va, b1, accr[1]);
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    let op = out.as_mut_ptr().add((ib + r) * n + jb);
                    _mm256_storeu_ps(op, accr[0]);
                    _mm256_storeu_ps(op.add(8), accr[1]);
                }
            }
            ib += MR;
        }
        // Row tail (m % MR): one row at a time, accumulators still held
        // in registers across k — the same per-element op sequence as
        // the 4-row tile.
        for i in m_main..m {
            // SAFETY: i < m and jb + NR <= n.
            unsafe {
                let bp = b.as_ptr().add(jb);
                let mut acc0 = _mm256_setzero_ps();
                let mut acc1 = _mm256_setzero_ps();
                for kk in 0..k {
                    let av = *a.get_unchecked(i * k + kk);
                    if av == 0.0 {
                        continue;
                    }
                    let brow = bp.add(kk * n);
                    let va = _mm256_set1_ps(av);
                    acc0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow), acc0);
                    acc1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow.add(8)), acc1);
                }
                let op = out.as_mut_ptr().add(i * n + jb);
                _mm256_storeu_ps(op, acc0);
                _mm256_storeu_ps(op.add(8), acc1);
            }
        }
        jb += NR;
    }
    // Column tail (n % NR): stream the leftover columns per (i, k) with
    // the same fmadd lane semantics (8-lane vectors, then `mul_add` for
    // the rest — both compile to vfmadd, so tail columns see the same
    // rounding as tiled ones).
    if n_main < n {
        let span = n - n_main;
        let lanes = span - span % 8;
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            for (kk, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &b[kk * n + n_main..(kk + 1) * n];
                let out_row = &mut out[i * n + n_main..(i + 1) * n];
                let va = _mm256_set1_ps(av);
                let mut j = 0;
                while j < lanes {
                    // SAFETY: j + 8 <= lanes <= span == both slice lengths.
                    let vb = unsafe { _mm256_loadu_ps(b_row.as_ptr().add(j)) };
                    let vo = unsafe { _mm256_loadu_ps(out_row.as_ptr().add(j)) };
                    let fused = _mm256_fmadd_ps(va, vb, vo);
                    unsafe { _mm256_storeu_ps(out_row.as_mut_ptr().add(j), fused) };
                    j += 8;
                }
                for j in lanes..span {
                    out_row[j] = av.mul_add(b_row[j], out_row[j]);
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn matmul_nt_avx2(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    // Each output element is one lane-split dot product. A tile of two
    // rows × four columns runs eight of them side by side — independent
    // FMA chains instead of one chain waiting on its own latency, with
    // each `b` load shared by both rows — without touching any element's
    // sequence, so the result is independent of m, n and the tiling.
    let mut i = 0;
    while i < m {
        let mi = if m - i >= 2 { 2 } else { 1 };
        let mut j = 0;
        while j < n {
            let nj = if n - j >= 4 { 4 } else { 1 };
            // SAFETY: avx2+fma are enabled here; i + mi <= m, j + nj <= n.
            unsafe {
                match (mi, nj) {
                    (2, 4) => dot_tile_avx2::<2, 4>(a, k, b, n, (i, j), out),
                    (2, _) => dot_tile_avx2::<2, 1>(a, k, b, n, (i, j), out),
                    (_, 4) => dot_tile_avx2::<1, 4>(a, k, b, n, (i, j), out),
                    _ => dot_tile_avx2::<1, 1>(a, k, b, n, (i, j), out),
                }
            }
            j += nj;
        }
        i += mi;
    }
}

/// Output elements `(i..i + MI) × (j..j + NJ)` of [`matmul_nt_avx2`]:
/// per element, eight lane accumulators over `k` in steps of 8 (one FMA
/// each), the fixed-order horizontal sum, then the scalar tail with
/// `mul_add` — the same reduction tree for every element.
///
/// # Safety
///
/// avx2+fma must be available. (Rows are sliced with bounds checks, so
/// short inputs panic.)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot_tile_avx2<const MI: usize, const NJ: usize>(
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    (i, j): (usize, usize),
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let lanes = k - k % 8;
    let a_rows: [&[f32]; MI] = std::array::from_fn(|r| &a[(i + r) * k..(i + r + 1) * k]);
    let b_rows: [&[f32]; NJ] = std::array::from_fn(|c| &b[(j + c) * k..(j + c + 1) * k]);
    let mut acc = [[_mm256_setzero_ps(); NJ]; MI];
    let mut kk = 0;
    while kk < lanes {
        // SAFETY: kk + 8 <= lanes <= k, the length of every row slice.
        unsafe {
            let mut vb = [_mm256_setzero_ps(); NJ];
            for (v, b_row) in vb.iter_mut().zip(&b_rows) {
                *v = _mm256_loadu_ps(b_row.as_ptr().add(kk));
            }
            for (acc_r, a_row) in acc.iter_mut().zip(&a_rows) {
                let va = _mm256_loadu_ps(a_row.as_ptr().add(kk));
                for (x, &v) in acc_r.iter_mut().zip(&vb) {
                    *x = _mm256_fmadd_ps(va, v, *x);
                }
            }
        }
        kk += 8;
    }
    for (r, (acc_r, a_row)) in acc.iter().zip(&a_rows).enumerate() {
        for (c, (&v, b_row)) in acc_r.iter().zip(&b_rows).enumerate() {
            let lo = _mm256_castps256_ps128(v);
            let hi = _mm256_extractf128_ps(v, 1);
            let s = _mm_add_ps(lo, hi);
            let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
            let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
            let mut sum = _mm_cvtss_f32(s);
            for kk in lanes..k {
                sum = a_row[kk].mul_add(b_row[kk], sum);
            }
            out[(i + r) * n + j + c] = sum;
        }
    }
}

/// Geometry of one direct 2-D convolution over a zero-padded sample:
/// the input is `[in_ch, hp, wp]` with the padding already written out,
/// the convolution output `[out_ch, oh, ow]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConvShape {
    /// Input channels.
    pub in_ch: usize,
    /// Output channels.
    pub out_ch: usize,
    /// Side of the square kernel.
    pub kernel: usize,
    /// Stride along both axes.
    pub stride: usize,
    /// Padded input height.
    pub hp: usize,
    /// Padded input width.
    pub wp: usize,
    /// Convolution output height.
    pub oh: usize,
    /// Convolution output width.
    pub ow: usize,
}

impl ConvShape {
    /// Reduction length per output element (`in_ch·k·k`).
    fn k_len(&self) -> usize {
        self.in_ch * self.kernel * self.kernel
    }
}

/// What follows the accumulation of every conv output element, fused
/// into the same pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConvEpilogue {
    /// Apply `max(v, 0)` after the bias.
    pub relu: bool,
    /// Apply a 2×2 stride-2 max pool; the output is then
    /// `[out_ch, oh/2, ow/2]`.
    pub pool: bool,
}

/// The register tiles that run a fused conv block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConvTiles {
    /// Row accumulators on the scalar backend.
    Scalar,
    /// `f32x8` tiles of 4 output channels × 8 columns × 2 rows: every
    /// block on the AVX2 backend, and every AVX-512 block that neither
    /// 512-bit tile serves.
    Avx2,
    /// AVX-512 column lanes: `f32x16` tiles of 8 output channels × 16
    /// columns × 2 rows, for stride-1 blocks of at least 8 channels and
    /// 16 columns (the IL CNN's 3→8 conv at 32×32).
    Columns,
    /// AVX-512 channel lanes: one `f32x16` holds 16 output channels of
    /// one output pixel, in tiles of 8 columns × 2 rows, for stride-1
    /// blocks whose channel count is a multiple of 16 (the 8→16 and
    /// 16→32 convs).
    Channels,
}

impl ConvTiles {
    fn choose(backend: KernelBackend, s: &ConvShape) -> Self {
        match backend {
            KernelBackend::Scalar => ConvTiles::Scalar,
            KernelBackend::Avx2 => ConvTiles::Avx2,
            KernelBackend::Avx512
                if s.stride == 1
                    && s.out_ch.is_multiple_of(16)
                    && s.ow >= 8
                    && s.k_len() <= i32::MAX as usize / 16 =>
            {
                ConvTiles::Channels
            }
            KernelBackend::Avx512 if s.stride == 1 && s.out_ch >= 8 && s.ow >= 16 => {
                ConvTiles::Columns
            }
            KernelBackend::Avx512 => ConvTiles::Avx2,
        }
    }
}

/// Kernel scratch of the fused conv blocks, held by the inference
/// buffers: the scalar backend's row accumulators and the AVX-512
/// channel-lane weight pack. Both grow on first use and are then reused,
/// so inference stays allocation-free after warm-up.
#[derive(Debug, Clone, Default)]
pub(crate) struct ConvScratch {
    /// Two rows of scalar accumulators.
    rows: Vec<f32>,
    /// The weights tap-major: `packed[t·out_ch + o] = weight[o·k_len + t]`.
    packed: Vec<f32>,
    /// `masks[t·out_ch/16 + g]` has bit `l` set when output channel
    /// `16g + l` has a nonzero weight at tap `t`.
    masks: Vec<u16>,
}

impl ConvScratch {
    /// Packs `weight` (`[out_ch, k_len]`) for the channel lanes, with the
    /// zero-skip mask of every tap and 16-channel group: one gather of 16
    /// channels' weights per tap and group.
    ///
    /// # Safety
    ///
    /// avx512f must be available; `out_ch` must be a multiple of 16,
    /// `16·k_len` must fit an `i32`, and `weight` must hold
    /// `out_ch·k_len` entries.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn pack_channel_lanes(&mut self, s: &ConvShape, weight: &[f32]) {
        use std::arch::x86_64::*;
        let (kl, oc) = (s.k_len(), s.out_ch);
        let groups = oc / 16;
        self.packed.resize(kl * oc, 0.0);
        self.masks.resize(kl * groups, 0);
        // lane l reads channel 16g + l's row, kl entries further each
        let rows = _mm512_mullo_epi32(
            _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
            _mm512_set1_epi32(kl as i32),
        );
        for g in 0..groups {
            for t in 0..kl {
                // SAFETY: lane l reads weight[(16g + l)·kl + t] <
                // out_ch·kl <= weight.len(); the store fills
                // packed[t·out_ch + 16g..][..16] inside packed.
                let v = unsafe {
                    let v = _mm512_i32gather_ps::<4>(rows, weight.as_ptr().add(16 * g * kl + t));
                    _mm512_storeu_ps(self.packed.as_mut_ptr().add(t * oc + 16 * g), v);
                    v
                };
                // the AVX2 tiles skip a weight that compares equal to
                // zero; NEQ_UQ is its negation, NaN included
                self.masks[t * groups + g] =
                    _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(v, _mm512_setzero_ps());
            }
        }
    }
}

/// Whether `outputs` positions of a kernel of side `kernel` at `stride`
/// fit a padded side of `padded`.
fn conv_fits(outputs: usize, stride: usize, kernel: usize, padded: usize) -> bool {
    outputs == 0
        || (outputs - 1)
            .checked_mul(stride)
            .and_then(|v| v.checked_add(kernel))
            .is_some_and(|end| end <= padded)
}

/// A fused conv block ready to run sample by sample on the current
/// thread's backend: direct convolution of one zero-padded sample, fused
/// with the bias and the [`ConvEpilogue`] — no im2col matrix, no
/// separate bias, ReLU or pool pass.
///
/// Every output element keeps the op sequence of the im2col route
/// (`matmul` over the patch matrix, then the bias, ReLU and pool
/// layers): the accumulator starts at `+0.0` and takes one
/// multiply-accumulate per nonzero weight, `(c, ky, kx)` ascending — one
/// FMA on the SIMD backends, a multiply then an add on the scalar
/// backend, exactly as [`matmul`] — then `+ bias`, then `max(v, 0)`, then
/// the pool's `>` scan over its window in row-major order starting from
/// `−∞`. Tiling never changes an element's sequence, so on a given
/// backend the result is bit-identical to running the layers one by
/// one, and the AVX-512 tiles give the AVX2 tiles' bits.
pub(crate) struct FusedConv<'a> {
    shape: ConvShape,
    weight: &'a [f32],
    bias: &'a [f32],
    epilogue: ConvEpilogue,
    tiles: ConvTiles,
    /// Elements of one padded input sample.
    in_len: usize,
    /// Elements of one output sample.
    out_len: usize,
    /// Exclusively borrowed, so the pack `new` wrote stays the pack of
    /// `weight` for as long as this block exists.
    scratch: &'a mut ConvScratch,
}

impl<'a> FusedConv<'a> {
    /// Prepares one block for any number of samples: checks that the
    /// weights (`[out_ch, in_ch·k·k]` in `(c, ky, kx)` order), the biases
    /// and the output fit the shape, picks the active backend's tiles,
    /// and for the AVX-512 channel lanes packs the weights — once per
    /// call, never per sample.
    ///
    /// # Panics
    ///
    /// Panics when the weights or biases are shorter than the shape
    /// requires, or the output does not fit the padded input.
    pub(crate) fn new(
        shape: ConvShape,
        weight: &'a [f32],
        bias: &'a [f32],
        epilogue: ConvEpilogue,
        scratch: &'a mut ConvScratch,
    ) -> Self {
        let s = &shape;
        let k_len = elems(s.in_ch, elems(s.kernel, s.kernel));
        assert!(
            weight.len() >= elems(s.out_ch, k_len) && bias.len() >= s.out_ch,
            "conv weights or biases too short"
        );
        assert!(
            s.oh == 0
                || s.ow == 0
                || (conv_fits(s.oh, s.stride, s.kernel, s.hp)
                    && conv_fits(s.ow, s.stride, s.kernel, s.wp)),
            "conv output exceeds the padded input"
        );
        let in_len = elems(s.in_ch, elems(s.hp, s.wp));
        let out_len = if epilogue.pool {
            elems(s.out_ch, elems(s.oh / 2, s.ow / 2))
        } else {
            elems(s.out_ch, elems(s.oh, s.ow))
        };
        let tiles = ConvTiles::choose(active(), s);
        match tiles {
            ConvTiles::Scalar if scratch.rows.len() < 2 * s.ow => {
                scratch.rows.resize(2 * s.ow, 0.0)
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: channel lanes are chosen only on the avx512 backend,
            // which the CPU supports (see `matmul`), for out_ch a multiple
            // of 16 and 16·k_len within i32; the weights were asserted
            // above.
            ConvTiles::Channels => unsafe { scratch.pack_channel_lanes(s, weight) },
            _ => {}
        }
        FusedConv {
            shape,
            weight,
            bias,
            epilogue,
            tiles,
            in_len,
            out_len,
            scratch,
        }
    }

    /// Runs the block on one zero-padded sample `xpad` (`[in_ch, hp,
    /// wp]`), writing `[out_ch, oh, ow]` (or the pooled `[out_ch, oh/2,
    /// ow/2]`) to the front of `out`.
    ///
    /// # Panics
    ///
    /// Panics when `xpad` or `out` is shorter than the shape requires.
    pub(crate) fn run(&mut self, xpad: &[f32], out: &mut [f32]) {
        assert!(xpad.len() >= self.in_len, "padded input too short");
        assert!(out.len() >= self.out_len, "conv output buffer too short");
        let (s, weight, bias, epilogue) = (&self.shape, self.weight, self.bias, self.epilogue);
        match self.tiles {
            ConvTiles::Scalar => {
                conv2d_fused_scalar(xpad, s, weight, bias, epilogue, &mut self.scratch.rows, out)
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `new` chose the tiles from the active backend, which
            // the CPU supports (see `matmul`) and which includes avx2+fma;
            // `new` asserted that weight, bias and the output fit the
            // shape, and the asserts above that xpad and out hold a sample.
            ConvTiles::Avx2 => unsafe {
                conv_block_avx2(xpad, s, weight, bias, epilogue, 0..s.out_ch, 0, out)
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as for `Avx2`; column lanes are chosen only on the
            // avx512 backend (avx512f+avx2+fma), at stride 1 with at least
            // 8 output channels and 16 output columns.
            ConvTiles::Columns => unsafe {
                conv_column_lanes_avx512(xpad, s, weight, bias, epilogue, out)
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as for `Avx2`; channel lanes are chosen only on the
            // avx512 backend (avx512f+avx2+fma), at stride 1 with out_ch a
            // multiple of 16 and at least 8 output columns, and `new`
            // packed this weight for this shape into the scratch it still
            // borrows exclusively.
            ConvTiles::Channels => unsafe {
                conv_channel_lanes_avx512(
                    xpad,
                    s,
                    weight,
                    bias,
                    epilogue,
                    (&self.scratch.packed, &self.scratch.masks),
                    out,
                )
            },
            #[cfg(not(target_arch = "x86_64"))]
            _ => conv2d_fused_scalar(xpad, s, weight, bias, epilogue, &mut self.scratch.rows, out),
        }
    }
}

/// `acc + bias`, then (optionally) the ReLU as the `ReLU` layer applies
/// it, `f32::max(v, 0.0)`: the epilogue of every scalar path.
#[inline]
fn bias_relu_f32(acc: f32, bias: f32, relu: bool) -> f32 {
    let v = acc + bias;
    if relu {
        v.max(0.0)
    } else {
        v
    }
}

/// One 2×2 pool window: the `>` scan from `−∞` over `[v00, v01, v10,
/// v11]`, in that order (the `MaxPool2d` loop).
#[inline]
fn pool_scan(window: [f32; 4]) -> f32 {
    let mut best = f32::NEG_INFINITY;
    for v in window {
        if v > best {
            best = v;
        }
    }
    best
}

/// The scalar backend: per output channel and row, a row of accumulators
/// takes `acc += w·x` per nonzero weight (LLVM vectorizes across the row
/// without contracting, so each element sees the `matmul_scalar`
/// sequence), then the epilogue runs over the finished row(s).
fn conv2d_fused_scalar(
    xpad: &[f32],
    s: &ConvShape,
    weight: &[f32],
    bias: &[f32],
    epilogue: ConvEpilogue,
    rows: &mut [f32],
    out: &mut [f32],
) {
    let kl = s.k_len();
    let ow = s.ow;
    let finish = |v: f32, b: f32| bias_relu_f32(v, b, epilogue.relu);
    let (r0, r1) = rows[..2 * ow].split_at_mut(ow);
    for (o, &b) in bias[..s.out_ch].iter().enumerate() {
        let w_row = &weight[o * kl..(o + 1) * kl];
        if epilogue.pool {
            let (ph, pw) = (s.oh / 2, ow / 2);
            for py in 0..ph {
                accumulate_row(xpad, s, w_row, 2 * py, r0);
                accumulate_row(xpad, s, w_row, 2 * py + 1, r1);
                let dst = &mut out[(o * ph + py) * pw..(o * ph + py + 1) * pw];
                for (px, d) in dst.iter_mut().enumerate() {
                    *d = pool_scan([
                        finish(r0[2 * px], b),
                        finish(r0[2 * px + 1], b),
                        finish(r1[2 * px], b),
                        finish(r1[2 * px + 1], b),
                    ]);
                }
            }
        } else {
            for oy in 0..s.oh {
                let dst = &mut out[(o * s.oh + oy) * ow..(o * s.oh + oy + 1) * ow];
                accumulate_row(xpad, s, w_row, oy, dst);
                for v in dst.iter_mut() {
                    *v = finish(*v, b);
                }
            }
        }
    }
}

/// `acc[ox] = Σ w[k]·x_k(oy, ox)` over the nonzero weights of one output
/// channel, `k` ascending, one multiply then one add per term.
fn accumulate_row(xpad: &[f32], s: &ConvShape, w_row: &[f32], oy: usize, acc: &mut [f32]) {
    acc.fill(0.0);
    let k = s.kernel;
    for c in 0..s.in_ch {
        for ky in 0..k {
            let start = (c * s.hp + oy * s.stride + ky) * s.wp;
            let row = &xpad[start..start + s.wp];
            for kx in 0..k {
                let w = w_row[(c * k + ky) * k + kx];
                if w == 0.0 {
                    continue;
                }
                if s.stride == 1 {
                    for (a, &x) in acc.iter_mut().zip(&row[kx..kx + s.ow]) {
                        *a += w * x;
                    }
                } else {
                    for (ox, a) in acc.iter_mut().enumerate() {
                        *a += w * row[ox * s.stride + kx];
                    }
                }
            }
        }
    }
}

/// The AVX2 tiles over output channels `channels` and output columns
/// `x_from..ow`: stride-1 convolutions run a register tile of up to four
/// output channels × 8 columns × 2 rows straight off the padded input
/// (the 8 input values under one kernel tap are contiguous), with bias,
/// ReLU and the 2×2 pool applied in registers. Column tails and strided
/// convolutions take per-element FMAs with the same sequence.
///
/// # Safety
///
/// avx2+fma must be available; the slices must satisfy the bounds
/// [`FusedConv`] asserts; `channels.end <= out_ch`; `x_from <= ow`, even
/// when the epilogue pools, and 0 unless the stride is 1.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn conv_block_avx2(
    xpad: &[f32],
    s: &ConvShape,
    weight: &[f32],
    bias: &[f32],
    epilogue: ConvEpilogue,
    channels: std::ops::Range<usize>,
    x_from: usize,
    out: &mut [f32],
) {
    let kl = s.k_len();
    let mut o0 = channels.start;
    while o0 < channels.end {
        let mr = if channels.end - o0 >= 4 { 4 } else { 1 };
        let w = &weight[o0 * kl..(o0 + mr) * kl];
        let b = &bias[o0..o0 + mr];
        let at = (o0, x_from);
        // Trained weights are practically never exactly zero, so the
        // zero-skip test is hoisted out of the tile: a tile with no zero
        // weight runs branch-free (same sequence — nothing to skip).
        let has_zero = w.iter().fold(false, |z, &v| z | (v == 0.0));
        // SAFETY: avx2+fma are enabled on this function; the caller's
        // contract bounds every index the blocks touch.
        unsafe {
            match (mr, has_zero) {
                (4, false) => conv_channels_avx2::<4, false>(xpad, s, w, b, epilogue, at, out),
                (4, true) => conv_channels_avx2::<4, true>(xpad, s, w, b, epilogue, at, out),
                (_, false) => conv_channels_avx2::<1, false>(xpad, s, w, b, epilogue, at, out),
                (_, true) => conv_channels_avx2::<1, true>(xpad, s, w, b, epilogue, at, out),
            }
        }
        o0 += mr;
    }
}

/// Output channels `o0..o0 + MR`, columns `x_from..ow` of
/// [`conv_block_avx2`]; `w` and `b` are those channels' weight rows and
/// biases.
///
/// # Safety
///
/// As for [`conv_block_avx2`], with `o0 + MR <= out_ch`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn conv_channels_avx2<const MR: usize, const CHECK: bool>(
    xpad: &[f32],
    s: &ConvShape,
    w: &[f32],
    b: &[f32],
    epilogue: ConvEpilogue,
    (o0, x_from): (usize, usize),
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let kl = s.k_len();
    // full 8-column tiles; strided convolutions read scattered patches and
    // go per element
    let tiles = if s.stride == 1 {
        (s.ow - x_from) / 8
    } else {
        0
    };
    let x_tail = x_from + 8 * tiles;
    // SAFETY (whole function): tiles only exist at stride 1, where
    // oy + ry + ky < hp and x0 + kx + 8 <= wp for every tile load (the
    // output fits the padded input), and every store lands inside out's
    // [out_ch, oh', ow'] plane for o0 + r < out_ch.
    unsafe {
        if epilogue.pool {
            let (ph, pw) = (s.oh / 2, s.ow / 2);
            for py in 0..ph {
                for t in 0..tiles {
                    let x0 = x_from + 8 * t;
                    let acc = conv_tile_avx2::<MR, 2, CHECK>(xpad, s, w, 2 * py, x0);
                    for (r, acc_r) in acc.iter().enumerate() {
                        let top = bias_relu_avx2(acc_r[0], b[r], epilogue.relu);
                        let bottom = bias_relu_avx2(acc_r[1], b[r], epilogue.relu);
                        let dst = out.as_mut_ptr().add(((o0 + r) * ph + py) * pw + x0 / 2);
                        _mm_storeu_ps(dst, pool2x2_avx2(top, bottom));
                    }
                }
                for px in x_tail / 2..pw {
                    for r in 0..MR {
                        let w_row = &w[r * kl..(r + 1) * kl];
                        let at = |dy: usize, dx: usize| {
                            let acc = conv_point_fma(xpad, s, w_row, 2 * py + dy, 2 * px + dx);
                            bias_relu_f32(acc, b[r], epilogue.relu)
                        };
                        out[((o0 + r) * ph + py) * pw + px] =
                            pool_scan([at(0, 0), at(0, 1), at(1, 0), at(1, 1)]);
                    }
                }
            }
        } else {
            let mut oy = 0;
            while oy < s.oh {
                let ry = if oy + 1 < s.oh { 2 } else { 1 };
                for t in 0..tiles {
                    let x0 = x_from + 8 * t;
                    if ry == 2 {
                        let acc = conv_tile_avx2::<MR, 2, CHECK>(xpad, s, w, oy, x0);
                        for (r, acc_r) in acc.iter().enumerate() {
                            for (dy, &a) in acc_r.iter().enumerate() {
                                let dst = out
                                    .as_mut_ptr()
                                    .add(((o0 + r) * s.oh + oy + dy) * s.ow + x0);
                                _mm256_storeu_ps(dst, bias_relu_avx2(a, b[r], epilogue.relu));
                            }
                        }
                    } else {
                        let acc = conv_tile_avx2::<MR, 1, CHECK>(xpad, s, w, oy, x0);
                        for (r, acc_r) in acc.iter().enumerate() {
                            let dst = out.as_mut_ptr().add(((o0 + r) * s.oh + oy) * s.ow + x0);
                            _mm256_storeu_ps(dst, bias_relu_avx2(acc_r[0], b[r], epilogue.relu));
                        }
                    }
                }
                for y in oy..oy + ry {
                    for ox in x_tail..s.ow {
                        for r in 0..MR {
                            let acc = conv_point_fma(xpad, s, &w[r * kl..(r + 1) * kl], y, ox);
                            out[((o0 + r) * s.oh + y) * s.ow + ox] =
                                bias_relu_f32(acc, b[r], epilogue.relu);
                        }
                    }
                }
                oy += ry;
            }
        }
    }
}

/// Accumulators of one register tile: output channels `0..MR` of `w`
/// (rows of `in_ch·k·k`), output rows `oy..oy + RY`, columns
/// `x0..x0 + 8`, at stride 1. Per element: one FMA per nonzero weight,
/// `(c, ky, kx)` ascending, from `+0.0` (`CHECK` = false promises `w`
/// has no zero, so the skip test is compiled out).
///
/// # Safety
///
/// avx2+fma must be available; the tile must lie inside the output
/// (`oy + RY <= oh`, `x0 + 8 <= ow`) of a stride-1 shape whose output
/// fits the padded input.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn conv_tile_avx2<const MR: usize, const RY: usize, const CHECK: bool>(
    xpad: &[f32],
    s: &ConvShape,
    w: &[f32],
    oy: usize,
    x0: usize,
) -> [[std::arch::x86_64::__m256; RY]; MR] {
    use std::arch::x86_64::*;
    let k = s.kernel;
    let kl = s.k_len();
    let mut acc = [[_mm256_setzero_ps(); RY]; MR];
    // SAFETY: per the contract, every load reads
    // xpad[(c·hp + oy + ry + ky)·wp + x0 + kx ..][..8] inside the padded
    // sample, and every weight read w[r·kl + kk] has r < MR, kk < kl.
    unsafe {
        let mut wk = w.as_ptr();
        for c in 0..s.in_ch {
            for ky in 0..k {
                let row = xpad.as_ptr().add((c * s.hp + oy + ky) * s.wp + x0);
                for kx in 0..k {
                    let mut xv = [_mm256_setzero_ps(); RY];
                    for (ry, v) in xv.iter_mut().enumerate() {
                        *v = _mm256_loadu_ps(row.add(ry * s.wp + kx));
                    }
                    for (r, acc_r) in acc.iter_mut().enumerate() {
                        let wv = *wk.add(r * kl);
                        if CHECK && wv == 0.0 {
                            continue;
                        }
                        let va = _mm256_set1_ps(wv);
                        for (a, &x) in acc_r.iter_mut().zip(&xv) {
                            *a = _mm256_fmadd_ps(va, x, *a);
                        }
                    }
                    wk = wk.add(1);
                }
            }
        }
    }
    acc
}

/// `acc + bias`, then (optionally) `max(v, 0)`: `maxps(v, 0)` returns
/// `v > 0 ? v : 0`, which is `f32::max(v, 0.0)` for every `v` but `−0.0`
/// (where `f32::max` may return either zero). `acc + bias` is `−0.0`
/// only when the bias is `−0.0` itself, which training never produces
/// from the `+0.0` initialization.
///
/// # Safety
///
/// avx2 must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn bias_relu_avx2(
    acc: std::arch::x86_64::__m256,
    bias: f32,
    relu: bool,
) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let v = _mm256_add_ps(acc, _mm256_set1_ps(bias));
    if relu {
        _mm256_max_ps(v, _mm256_setzero_ps())
    } else {
        v
    }
}

/// 2×2 max pool of two 8-column rows into 4 outputs, as the `>` scan:
/// `maxps(v, best)` is `v > best ? v : best` (NaN and ties keep `best`),
/// applied to the window's top-left, top-right, bottom-left and
/// bottom-right lanes in that order, starting from `−∞`.
///
/// # Safety
///
/// avx2 must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn pool2x2_avx2(
    top: std::arch::x86_64::__m256,
    bottom: std::arch::x86_64::__m256,
) -> std::arch::x86_64::__m128 {
    use std::arch::x86_64::*;
    // per 128-bit half: even = [t0 t2 b0 b2], odd = [t1 t3 b1 b3]; the
    // 64-bit permute then gathers [t-pairs of both halves | b-pairs]
    let even = _mm256_shuffle_ps::<0x88>(top, bottom);
    let odd = _mm256_shuffle_ps::<0xDD>(top, bottom);
    let even = _mm256_castpd_ps(_mm256_permute4x64_pd::<0xD8>(_mm256_castps_pd(even)));
    let odd = _mm256_castpd_ps(_mm256_permute4x64_pd::<0xD8>(_mm256_castps_pd(odd)));
    let mut best = _mm_set1_ps(f32::NEG_INFINITY);
    best = _mm_max_ps(_mm256_castps256_ps128(even), best);
    best = _mm_max_ps(_mm256_castps256_ps128(odd), best);
    best = _mm_max_ps(_mm256_extractf128_ps::<1>(even), best);
    _mm_max_ps(_mm256_extractf128_ps::<1>(odd), best)
}

/// One conv output element's accumulator with FMAs — the AVX2 sequence
/// for elements outside the register tiles.
///
/// # Safety
///
/// fma must be available (it is what makes `mul_add` a single
/// instruction here), and `(oy, ox)` must be an output position of `s`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn conv_point_fma(xpad: &[f32], s: &ConvShape, w_row: &[f32], oy: usize, ox: usize) -> f32 {
    let k = s.kernel;
    let mut acc = 0.0f32;
    for c in 0..s.in_ch {
        for ky in 0..k {
            let start = (c * s.hp + oy * s.stride + ky) * s.wp + ox * s.stride;
            for (kx, &x) in xpad[start..start + k].iter().enumerate() {
                let w = w_row[(c * k + ky) * k + kx];
                if w != 0.0 {
                    acc = w.mul_add(x, acc);
                }
            }
        }
    }
    acc
}

/// The AVX-512 column lanes: per block of 8 output channels, `f32x16`
/// tiles of 16 columns × 2 rows (16 accumulators), each tap one load per
/// row and one broadcast weight per channel, as [`conv_tile_avx2`] at
/// twice the width. Columns past the last full 16 and channels past the
/// last full 8 run on the AVX2 tiles.
///
/// # Safety
///
/// avx512f, avx2 and fma must be available; the shape must have stride 1
/// and the slices must satisfy the bounds [`FusedConv`] asserts.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn conv_column_lanes_avx512(
    xpad: &[f32],
    s: &ConvShape,
    weight: &[f32],
    bias: &[f32],
    epilogue: ConvEpilogue,
    out: &mut [f32],
) {
    let kl = s.k_len();
    let cols = s.ow - s.ow % 16;
    let lane_channels = s.out_ch - s.out_ch % 8;
    for o0 in (0..lane_channels).step_by(8) {
        let w = &weight[o0 * kl..(o0 + 8) * kl];
        let b = &bias[o0..o0 + 8];
        // SAFETY: the target features are enabled here, o0 + 8 <= out_ch
        // and cols <= ow is a multiple of 16; the caller's contract bounds
        // the rest.
        unsafe {
            if w.contains(&0.0) {
                column_block_avx512::<true>(xpad, s, w, b, epilogue, (o0, cols), out);
            } else {
                column_block_avx512::<false>(xpad, s, w, b, epilogue, (o0, cols), out);
            }
        }
    }
    // SAFETY: avx2+fma are enabled here; both channel ranges end at or
    // below out_ch, cols <= ow is even, and the stride is 1.
    unsafe {
        if cols < s.ow {
            conv_block_avx2(xpad, s, weight, bias, epilogue, 0..lane_channels, cols, out);
        }
        conv_block_avx2(
            xpad,
            s,
            weight,
            bias,
            epilogue,
            lane_channels..s.out_ch,
            0,
            out,
        );
    }
}

/// Output channels `o0..o0 + 8`, columns `0..cols` of
/// [`conv_column_lanes_avx512`]; `w` and `b` are those channels' weight
/// rows and biases.
///
/// # Safety
///
/// As for [`conv_column_lanes_avx512`], with `o0 + 8 <= out_ch` and
/// `cols <= ow` a multiple of 16.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn column_block_avx512<const CHECK: bool>(
    xpad: &[f32],
    s: &ConvShape,
    w: &[f32],
    b: &[f32],
    epilogue: ConvEpilogue,
    (o0, cols): (usize, usize),
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let bias: [__m512; 8] = std::array::from_fn(|r| _mm512_set1_ps(b[r]));
    // SAFETY (whole function): each tile covers rows oy..oy + RY <= oh and
    // columns x0..x0 + 16 <= cols <= ow, and every store lands inside
    // out's [out_ch, oh', ow'] plane for o0 + r < out_ch.
    unsafe {
        if epilogue.pool {
            let (ph, pw) = (s.oh / 2, s.ow / 2);
            for py in 0..ph {
                for x0 in (0..cols).step_by(16) {
                    let acc = column_tile_avx512::<2, CHECK>(xpad, s, w, 2 * py, x0);
                    for (r, acc_r) in acc.iter().enumerate() {
                        let top = bias_relu_avx512(acc_r[0], bias[r], epilogue.relu);
                        let bottom = bias_relu_avx512(acc_r[1], bias[r], epilogue.relu);
                        let dst = out.as_mut_ptr().add(((o0 + r) * ph + py) * pw + x0 / 2);
                        _mm256_storeu_ps(dst, pool2x2_avx512(top, bottom));
                    }
                }
            }
        } else {
            let mut oy = 0;
            while oy < s.oh {
                let ry = if oy + 1 < s.oh { 2 } else { 1 };
                for x0 in (0..cols).step_by(16) {
                    let at = |r: usize, dy: usize| ((o0 + r) * s.oh + oy + dy) * s.ow + x0;
                    if ry == 2 {
                        let acc = column_tile_avx512::<2, CHECK>(xpad, s, w, oy, x0);
                        for (r, acc_r) in acc.iter().enumerate() {
                            for (dy, &a) in acc_r.iter().enumerate() {
                                let v = bias_relu_avx512(a, bias[r], epilogue.relu);
                                _mm512_storeu_ps(out.as_mut_ptr().add(at(r, dy)), v);
                            }
                        }
                    } else {
                        let acc = column_tile_avx512::<1, CHECK>(xpad, s, w, oy, x0);
                        for (r, acc_r) in acc.iter().enumerate() {
                            let v = bias_relu_avx512(acc_r[0], bias[r], epilogue.relu);
                            _mm512_storeu_ps(out.as_mut_ptr().add(at(r, 0)), v);
                        }
                    }
                }
                oy += ry;
            }
        }
    }
}

/// Accumulators of one column-lane tile: output channels `0..8` of `w`,
/// rows `oy..oy + RY`, columns `x0..x0 + 16`, at stride 1 — per element
/// the [`conv_tile_avx2`] sequence.
///
/// # Safety
///
/// avx512f+fma must be available; `w` must hold 8 weight rows; the tile
/// must lie inside the output (`oy + RY <= oh`, `x0 + 16 <= ow`) of a
/// stride-1 shape whose output fits the padded input.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn column_tile_avx512<const RY: usize, const CHECK: bool>(
    xpad: &[f32],
    s: &ConvShape,
    w: &[f32],
    oy: usize,
    x0: usize,
) -> [[std::arch::x86_64::__m512; RY]; 8] {
    use std::arch::x86_64::*;
    let k = s.kernel;
    let kl = s.k_len();
    let mut acc = [[_mm512_setzero_ps(); RY]; 8];
    // SAFETY: per the contract, every load reads
    // xpad[(c·hp + oy + ry + ky)·wp + x0 + kx ..][..16] inside the padded
    // sample, and every weight read w[r·kl + kk] has r < 8, kk < kl.
    unsafe {
        let mut wk = w.as_ptr();
        for c in 0..s.in_ch {
            for ky in 0..k {
                let row = xpad.as_ptr().add((c * s.hp + oy + ky) * s.wp + x0);
                for kx in 0..k {
                    let mut xv = [_mm512_setzero_ps(); RY];
                    for (ry, v) in xv.iter_mut().enumerate() {
                        *v = _mm512_loadu_ps(row.add(ry * s.wp + kx));
                    }
                    for (r, acc_r) in acc.iter_mut().enumerate() {
                        let wv = *wk.add(r * kl);
                        if CHECK && wv == 0.0 {
                            continue;
                        }
                        let va = _mm512_set1_ps(wv);
                        for (a, &x) in acc_r.iter_mut().zip(&xv) {
                            *a = _mm512_fmadd_ps(va, x, *a);
                        }
                    }
                    wk = wk.add(1);
                }
            }
        }
    }
    acc
}

/// The AVX-512 channel lanes: one `f32x16` holds 16 output channels of
/// one output pixel. Per tap, one load of the packed weights feeds a
/// tile of 8 columns × 2 rows, each input value broadcast, and each FMA
/// masked by the tap's nonzero-weight mask, so a zero weight leaves its
/// lane untouched exactly as the AVX2 skip does, even against a NaN or
/// infinite input. Columns past the last full 8 run on the AVX2 tiles.
///
/// # Safety
///
/// avx512f, avx2 and fma must be available; the shape must have stride 1
/// and `out_ch % 16 == 0`; `pack` must be the
/// [`ConvScratch::pack_channel_lanes`] pack of `weight` for `s`; the
/// slices must satisfy the bounds [`FusedConv`] asserts.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn conv_channel_lanes_avx512(
    xpad: &[f32],
    s: &ConvShape,
    weight: &[f32],
    bias: &[f32],
    epilogue: ConvEpilogue,
    pack: (&[f32], &[u16]),
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let cols = s.ow - s.ow % 8;
    let (ph, pw) = (s.oh / 2, s.ow / 2);
    let plane = if epilogue.pool { ph * pw } else { s.oh * s.ow };
    for g in 0..s.out_ch / 16 {
        // channel 16g's plane: lane l of a register stores `plane` further
        let base = 16 * g * plane;
        // SAFETY (whole loop): g < out_ch/16, so bias[16g..16g + 16] is
        // inside bias; every tile lies inside the output: rows
        // oy..oy + RY <= oh, columns x0..x0 + 8 <= cols <= ow.
        unsafe {
            let vb = _mm512_loadu_ps(bias.as_ptr().add(16 * g));
            if epilogue.pool {
                for py in 0..ph {
                    for x0 in (0..cols).step_by(8) {
                        let acc = channel_tile_avx512::<2>(xpad, s, pack, g, 2 * py, x0);
                        for j in 0..4 {
                            let mut best = _mm512_set1_ps(f32::NEG_INFINITY);
                            for a in [
                                acc[0][2 * j],
                                acc[0][2 * j + 1],
                                acc[1][2 * j],
                                acc[1][2 * j + 1],
                            ] {
                                best = _mm512_max_ps(bias_relu_avx512(a, vb, epilogue.relu), best);
                            }
                            store_channel_lanes(out, base + py * pw + x0 / 2 + j, plane, best);
                        }
                    }
                }
            } else {
                let mut oy = 0;
                while oy < s.oh {
                    let ry = if oy + 1 < s.oh { 2 } else { 1 };
                    for x0 in (0..cols).step_by(8) {
                        if ry == 2 {
                            let acc = channel_tile_avx512::<2>(xpad, s, pack, g, oy, x0);
                            for (dy, acc_r) in acc.iter().enumerate() {
                                for (dx, &a) in acc_r.iter().enumerate() {
                                    let v = bias_relu_avx512(a, vb, epilogue.relu);
                                    store_channel_lanes(
                                        out,
                                        base + (oy + dy) * s.ow + x0 + dx,
                                        plane,
                                        v,
                                    );
                                }
                            }
                        } else {
                            let acc = channel_tile_avx512::<1>(xpad, s, pack, g, oy, x0);
                            for (dx, &a) in acc[0].iter().enumerate() {
                                let v = bias_relu_avx512(a, vb, epilogue.relu);
                                store_channel_lanes(out, base + oy * s.ow + x0 + dx, plane, v);
                            }
                        }
                    }
                    oy += ry;
                }
            }
        }
    }
    if cols < s.ow {
        // SAFETY: avx2+fma are enabled here; cols <= ow is even and the
        // stride is 1.
        unsafe { conv_block_avx2(xpad, s, weight, bias, epilogue, 0..s.out_ch, cols, out) };
    }
}

/// Accumulators of one channel-lane tile: channels `16g..16g + 16`, rows
/// `oy..oy + RY`, columns `x0..x0 + 8`, at stride 1. Per element: one
/// FMA per nonzero weight, `(c, ky, kx)` ascending, from `+0.0` — the
/// masked FMA leaves a lane whose weight is zero unchanged.
///
/// # Safety
///
/// avx512f+fma must be available; `pack` must be the channel-lane pack
/// for `s` and `g < out_ch/16`; the tile must lie inside the output
/// (`oy + RY <= oh`, `x0 + 8 <= ow`) of a stride-1 shape whose output
/// fits the padded input.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn channel_tile_avx512<const RY: usize>(
    xpad: &[f32],
    s: &ConvShape,
    (packed, masks): (&[f32], &[u16]),
    g: usize,
    oy: usize,
    x0: usize,
) -> [[std::arch::x86_64::__m512; 8]; RY] {
    use std::arch::x86_64::*;
    let k = s.kernel;
    let groups = s.out_ch / 16;
    let mut acc = [[_mm512_setzero_ps(); 8]; RY];
    // SAFETY: per the contract, every input read is
    // xpad[(c·hp + oy + ry + ky)·wp + x0 + kx + dx] with dx < 8, inside the
    // padded sample; tap t's weights are packed[t·out_ch + 16g..][..16]
    // and its mask masks[t·groups + g], with t < k_len.
    unsafe {
        let mut wt = packed.as_ptr().add(16 * g);
        let mut mt = masks.as_ptr().add(g);
        for c in 0..s.in_ch {
            for ky in 0..k {
                let row = xpad.as_ptr().add((c * s.hp + oy + ky) * s.wp + x0);
                for kx in 0..k {
                    let wv = _mm512_loadu_ps(wt);
                    let m = *mt;
                    for (ry, acc_r) in acc.iter_mut().enumerate() {
                        let xr = row.add(ry * s.wp + kx);
                        for (dx, a) in acc_r.iter_mut().enumerate() {
                            *a = _mm512_mask3_fmadd_ps(wv, _mm512_set1_ps(*xr.add(dx)), *a, m);
                        }
                    }
                    wt = wt.add(s.out_ch);
                    mt = mt.add(groups);
                }
            }
        }
    }
    acc
}

/// Stores lane `l` of `v` at `out[at + l·plane]`: a channel-lane
/// register's 16 channels go to 16 output planes. The stores are bounds
/// checked, so a wrong offset panics instead of escaping `out`.
///
/// # Safety
///
/// avx512f must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn store_channel_lanes(
    out: &mut [f32],
    at: usize,
    plane: usize,
    v: std::arch::x86_64::__m512,
) {
    let mut lanes = [0.0f32; 16];
    // SAFETY: lanes holds 16 f32.
    unsafe { std::arch::x86_64::_mm512_storeu_ps(lanes.as_mut_ptr(), v) };
    for (l, &x) in lanes.iter().enumerate() {
        out[at + l * plane] = x;
    }
}

/// [`bias_relu_avx2`] on 16 lanes: `vmaxps` has the same operand rule at
/// every width.
///
/// # Safety
///
/// avx512f must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn bias_relu_avx512(
    acc: std::arch::x86_64::__m512,
    bias: std::arch::x86_64::__m512,
    relu: bool,
) -> std::arch::x86_64::__m512 {
    use std::arch::x86_64::*;
    let v = _mm512_add_ps(acc, bias);
    if relu {
        _mm512_max_ps(v, _mm512_setzero_ps())
    } else {
        v
    }
}

/// 2×2 max pool of two 16-column rows into 8 outputs, as the `>` scan of
/// [`pool2x2_avx2`]: top-left, top-right, bottom-left, bottom-right.
///
/// # Safety
///
/// avx512f must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2")]
#[inline]
unsafe fn pool2x2_avx512(
    top: std::arch::x86_64::__m512,
    bottom: std::arch::x86_64::__m512,
) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    // [even columns | odd columns] of each row
    let split = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15);
    let top = _mm512_castps_pd(_mm512_permutexvar_ps(split, top));
    let bottom = _mm512_castps_pd(_mm512_permutexvar_ps(split, bottom));
    let mut best = _mm256_set1_ps(f32::NEG_INFINITY);
    best = _mm256_max_ps(_mm256_castpd_ps(_mm512_castpd512_pd256(top)), best);
    best = _mm256_max_ps(_mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(top)), best);
    best = _mm256_max_ps(_mm256_castpd_ps(_mm512_castpd512_pd256(bottom)), best);
    _mm256_max_ps(_mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(bottom)), best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wavy(len: usize, scale: f32) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 7 + 3) as f32 * scale).sin())
            .collect()
    }

    fn assert_close(a: &[f32], b: &[f32], what: &str) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= 1e-5 * x.abs().max(1.0),
                "{what}[{i}]: {x} vs {y}"
            );
        }
    }

    #[test]
    fn override_is_scoped_and_restored() {
        let before = active();
        with_backend(KernelBackend::Scalar, || {
            assert_eq!(active(), KernelBackend::Scalar);
            assert_eq!(dispatch_target(), "scalar");
        });
        assert_eq!(active(), before);
    }

    #[test]
    fn override_accepts_exactly_the_supported_backends() {
        for backend in KernelBackend::ALL {
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
        assert_eq!(supported_backends().next(), Some(KernelBackend::Scalar));
        assert!(supported(detected()));
    }

    #[test]
    fn override_survives_panic() {
        let before = active();
        let caught = std::panic::catch_unwind(|| {
            with_backend(KernelBackend::Scalar, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(active(), before, "override must unwind with the panic");
    }

    #[test]
    fn backends_agree_on_matmul_within_tolerance() {
        // deliberately awkward: k and n not multiples of 8
        let (m, k, n) = (5, 13, 21);
        let a = wavy(m * k, 0.137);
        let b = wavy(k * n, 0.219);
        let mut scalar = vec![0.0; m * n];
        with_backend(KernelBackend::Scalar, || {
            matmul(&a, m, k, &b, n, &mut scalar)
        });
        for backend in supported_backends() {
            let mut simd = vec![0.0; m * n];
            with_backend(backend, || matmul(&a, m, k, &b, n, &mut simd));
            assert_close(&scalar, &simd, backend.label());
        }
    }

    #[test]
    fn backends_agree_on_matmul_nt_within_tolerance() {
        let (m, k, n) = (7, 19, 9);
        let a = wavy(m * k, 0.091);
        let b = wavy(n * k, 0.173);
        let mut scalar = vec![0.0; m * n];
        with_backend(KernelBackend::Scalar, || {
            matmul_nt(&a, m, k, &b, n, &mut scalar)
        });
        for backend in supported_backends() {
            let mut simd = vec![0.0; m * n];
            with_backend(backend, || matmul_nt(&a, m, k, &b, n, &mut simd));
            assert_close(&scalar, &simd, backend.label());
        }
    }

    #[test]
    fn zero_dimensions_are_safe() {
        let mut out = vec![0.0f32; 0];
        matmul(&[], 0, 3, &[0.0; 9], 3, &mut out);
        matmul_nt(&[], 0, 4, &[0.0; 8], 2, &mut out);
        let mut out1 = vec![7.0f32; 2];
        // k = 0: every element is an empty sum
        matmul_nt(&[], 1, 0, &[], 2, &mut out1);
        assert_eq!(out1, [0.0, 0.0]);
    }

    #[test]
    fn nan_propagation_matches_scalar() {
        let (m, k, n) = (2, 9, 5);
        let mut a = wavy(m * k, 0.2);
        a[3] = f32::NAN;
        let b = wavy(k * n, 0.3);
        let mut scalar = vec![0.0; m * n];
        with_backend(KernelBackend::Scalar, || {
            matmul(&a, m, k, &b, n, &mut scalar)
        });
        for backend in supported_backends() {
            let mut simd = vec![0.0; m * n];
            with_backend(backend, || matmul(&a, m, k, &b, n, &mut simd));
            for (s, v) in scalar.iter().zip(&simd) {
                assert_eq!(
                    s.is_nan(),
                    v.is_nan(),
                    "{backend:?}: NaN pattern must match"
                );
            }
        }
    }

    #[test]
    fn kernel_mode_table_is_complete() {
        let modes = kernel_modes();
        assert_eq!(modes.len(), 3);
        for (kernel, mode) in modes {
            assert!(
                *mode == "bitwise" || *mode == "ulp",
                "{kernel}: unknown mode {mode}"
            );
        }
    }

    // A slice one element short of its stated dimensions must panic on
    // every backend, release builds included: the SIMD bodies index
    // through raw pointers sized by the dimensions.

    #[test]
    #[should_panic(expected = "matmul: a is not m×k")]
    fn matmul_rejects_a_short_slice() {
        let (m, k, n) = (4, 8, 16);
        let mut out = vec![0.0; m * n];
        matmul(&wavy(m * k - 1, 0.1), m, k, &wavy(k * n, 0.2), n, &mut out);
    }
}
