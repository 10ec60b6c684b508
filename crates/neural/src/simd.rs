//! Runtime-dispatched SIMD kernels for the matrix hot loops.
//!
//! Only operations that are **bitwise identical** across every dispatch
//! path are provided: SIMD lanes hold independent output elements, each
//! lane performs the same IEEE-754 single-precision *fused* multiply-add
//! sequence as the scalar loop (`f32::mul_add` in the scalar kernels,
//! hardware FMA in the vector kernels — a single rounding per term either
//! way), with no reassociation across the reduction dimension: every
//! output element accumulates its products in ascending-`k` order into a
//! single chain. This keeps every determinism and batched-equivalence
//! guarantee in the workspace intact while running the GEMMs at the FMA
//! units' throughput — twice that of split multiply-then-add chains.
//!
//! Fusing the multiply and add is a deliberate (tiny) model change
//! relative to unfused kernels — one rounding per term instead of two —
//! in the same spirit as the polynomial kernels in `fastmath`: fine for
//! this codebase, whose committed artifacts are re-generated by the bench
//! suite, because the reference and hot paths share these kernels and so
//! remain mutually bitwise identical.
//!
//! Ragged widths never change that order either. `gemm_row` fuses the
//! columns after its 32-wide tiles into one k loop of 8-wide, 4-wide and
//! scalar accumulators; `gemm_row4` runs them as a single masked tile,
//! 16 lanes wide or 8 when at most 8 columns remain (`maskload`/
//! `maskstore`, whose dead lanes neither read nor write memory), so each
//! live lane is exactly a full-tile lane.
//!
//! On non-x86_64 targets (or CPUs without AVX and FMA) everything falls
//! back to scalar `mul_add` loops with the identical accumulation order.

/// `dst[j] += alpha * src[j]` — `Matrix::axpy` and friends.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub(crate) fn add_scaled(dst: &mut [f32], src: &[f32], alpha: f32) {
    assert_eq!(dst.len(), src.len(), "add_scaled length mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        if avx_available() && fma_available() {
            // SAFETY: AVX and FMA support was just verified at runtime.
            unsafe { add_scaled_avx(dst, src, alpha) };
            return;
        }
    }
    add_scaled_scalar(dst, src, alpha);
}

#[inline]
fn add_scaled_scalar(dst: &mut [f32], src: &[f32], alpha: f32) {
    for (o, &b) in dst.iter_mut().zip(src) {
        *o = alpha.mul_add(b, *o);
    }
}

/// One output row of a GEMM: `o_row[j] += Σ_k coeff(k) · b[k·ldb + j]`,
/// where `coeff(k) = a[k · a_stride]` and the sum runs `k = 0..k_count` in
/// ascending order (zero coefficients skipped, as in the scalar kernels).
///
/// `matmul` uses `a_stride == 1` (a row of the left operand); `matmul_tn`
/// uses `a_stride == cols` (a column). The SIMD path tiles `j` and keeps
/// the accumulators in registers across the whole `k` loop, which is what
/// makes it faster than per-`k` axpys — the store/reload of the output row
/// disappears. Accumulation order per element is unchanged.
///
/// # Panics
///
/// Panics if the coefficient or `b` slices are too short for the given
/// strides and widths.
#[inline]
pub(crate) fn gemm_row(
    a: &[f32],
    a_stride: usize,
    k_count: usize,
    b: &[f32],
    ldb: usize,
    o_row: &mut [f32],
) {
    if k_count == 0 {
        return;
    }
    assert!(
        a.len() > (k_count - 1) * a_stride,
        "coefficient slice too short"
    );
    assert!(
        b.len() >= (k_count - 1) * ldb + o_row.len(),
        "b slice too short"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if avx_available() && fma_available() {
            // SAFETY: AVX and FMA verified at runtime; bounds asserted above.
            unsafe { gemm_row_avx(a, a_stride, k_count, b, ldb, o_row) };
            return;
        }
    }
    gemm_row_scalar(a, a_stride, k_count, b, ldb, o_row);
}

#[inline]
fn gemm_row_scalar(
    a: &[f32],
    a_stride: usize,
    k_count: usize,
    b: &[f32],
    ldb: usize,
    o_row: &mut [f32],
) {
    let w = o_row.len();
    for k in 0..k_count {
        let aik = a[k * a_stride];
        if aik == 0.0 {
            continue;
        }
        let b_row = &b[k * ldb..k * ldb + w];
        add_scaled_scalar(o_row, b_row, aik);
    }
}

/// Four output rows of a GEMM in one sweep: row `r` of the block computes
/// `o[r·n + j] += Σ_k a[r·a_row_step + k·a_k_stride] · b[k·ldb + j]` where
/// `n = o.len() / 4`, each sum in ascending-`k` order with zero
/// coefficients skipped — every output element performs exactly the
/// multiply-then-add sequence of [`gemm_row`], so results are bitwise
/// identical to four separate calls; the blocking only interleaves
/// *independent* accumulator chains. That interleaving is the point: a
/// narrow output row (n < 32) gives [`gemm_row`] a single FP-add chain per
/// tile, so the k loop runs at add *latency*, not throughput. Four rows
/// share each `b` load and keep four chains in flight, which is worth
/// ~2-3x at this codebase's layer widths (15/30-wide autoencoder rows).
///
/// The SIMD path walks `j` in 16-wide tiles (two YMM halves × four rows =
/// eight register accumulators) and finishes the 1-15 columns left over
/// as one more tile with its dead lanes masked off (its high half only
/// when more than 8 columns remain): a ragged width such as the 15-wide
/// Sub-Q head at M = 30 then costs a single pass over `k` with all eight
/// accumulator chains in flight.
///
/// `matmul` passes four consecutive rows (`a_row_step = cols`,
/// `a_k_stride = 1`); `matmul_tn` passes four consecutive columns
/// (`a_row_step = 1`, `a_k_stride = cols`).
///
/// # Panics
///
/// Panics if `o.len()` is not a multiple of four or the coefficient/`b`
/// slices are too short for the given strides and widths.
#[inline]
pub(crate) fn gemm_row4(
    a: &[f32],
    a_row_step: usize,
    a_k_stride: usize,
    k_count: usize,
    b: &[f32],
    ldb: usize,
    o: &mut [f32],
) {
    assert_eq!(o.len() % 4, 0, "gemm_row4 output must hold four rows");
    let n = o.len() / 4;
    if k_count == 0 || n == 0 {
        return;
    }
    assert!(
        a.len() > 3 * a_row_step + (k_count - 1) * a_k_stride,
        "coefficient slice too short"
    );
    assert!(b.len() >= (k_count - 1) * ldb + n, "b slice too short");
    #[cfg(target_arch = "x86_64")]
    {
        if avx_available() && fma_available() {
            // SAFETY: AVX and FMA verified at runtime; bounds asserted above.
            unsafe { gemm_row4_avx(a, a_row_step, a_k_stride, k_count, b, ldb, o) };
            return;
        }
    }
    for (r, o_row) in o.chunks_exact_mut(n).enumerate() {
        gemm_row_scalar(&a[r * a_row_step..], a_k_stride, k_count, b, ldb, o_row);
    }
}

#[cfg(target_arch = "x86_64")]
fn avx_available() -> bool {
    use std::sync::OnceLock;
    static AVX: OnceLock<bool> = OnceLock::new();
    *AVX.get_or_init(|| std::is_x86_feature_detected!("avx"))
}

#[cfg(target_arch = "x86_64")]
fn fma_available() -> bool {
    use std::sync::OnceLock;
    static FMA: OnceLock<bool> = OnceLock::new();
    *FMA.get_or_init(|| std::is_x86_feature_detected!("fma"))
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    use std::sync::OnceLock;
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::is_x86_feature_detected!("avx2"))
}

/// In-place ELU over a slice: `x` for `x ≥ 0`, `α(e^x - 1)` otherwise,
/// with `e^x` the [`crate::fastmath::exp`] kernel. The AVX2 path runs the
/// identical operation sequence eight lanes at a time, so scalar and
/// vector results agree bit for bit.
#[inline]
pub(crate) fn elu_inplace(xs: &mut [f32], alpha: f32) {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { elu_inplace_avx2(xs, alpha) };
            return;
        }
    }
    for x in xs {
        if *x < 0.0 {
            *x = alpha * (crate::fastmath::exp(*x) - 1.0);
        }
    }
}

/// In-place logistic sigmoid over a slice (see [`elu_inplace`] on the
/// scalar/vector bitwise agreement).
#[inline]
pub(crate) fn sigmoid_inplace(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { sigmoid_inplace_avx2(xs) };
            return;
        }
    }
    for x in xs {
        *x = crate::fastmath::sigmoid(*x);
    }
}

/// In-place tanh over a slice (see [`elu_inplace`] on the scalar/vector
/// bitwise agreement).
#[inline]
pub(crate) fn tanh_inplace(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { tanh_inplace_avx2(xs) };
            return;
        }
    }
    for x in xs {
        *x = crate::fastmath::tanh(*x);
    }
}

/// Eight-lane mirror of [`crate::fastmath::exp`]: the same clamp,
/// magic-constant round, two-part ln2 reduction, Horner polynomial, and
/// exponent-bit scaling, in the same order — each lane is bitwise
/// identical to the scalar kernel (every op involved is exactly rounded,
/// and `cvtps` on the already-integral `kf` is exact).
///
/// # Safety
///
/// Caller must ensure AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn exp256(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let magic = _mm256_set1_ps(12_582_912.0);
    let x = _mm256_max_ps(
        _mm256_set1_ps(-87.0),
        _mm256_min_ps(_mm256_set1_ps(88.0), x),
    );
    let kf = _mm256_sub_ps(
        _mm256_add_ps(
            _mm256_mul_ps(x, _mm256_set1_ps(crate::fastmath::LOG2_E)),
            magic,
        ),
        magic,
    );
    let r = _mm256_sub_ps(
        _mm256_sub_ps(
            x,
            _mm256_mul_ps(kf, _mm256_set1_ps(crate::fastmath::LN2_HI)),
        ),
        _mm256_mul_ps(kf, _mm256_set1_ps(crate::fastmath::LN2_LO)),
    );
    // p = 1 + r(1 + r(1/2 + r(1/6 + r(1/24 + r(1/120 + r·(1/720))))))
    let mut p = _mm256_mul_ps(r, _mm256_set1_ps(1.0 / 720.0));
    p = _mm256_mul_ps(r, _mm256_add_ps(_mm256_set1_ps(1.0 / 120.0), p));
    p = _mm256_mul_ps(r, _mm256_add_ps(_mm256_set1_ps(1.0 / 24.0), p));
    p = _mm256_mul_ps(r, _mm256_add_ps(_mm256_set1_ps(1.0 / 6.0), p));
    p = _mm256_mul_ps(r, _mm256_add_ps(_mm256_set1_ps(0.5), p));
    p = _mm256_mul_ps(r, _mm256_add_ps(_mm256_set1_ps(1.0), p));
    p = _mm256_add_ps(_mm256_set1_ps(1.0), p);
    let k = _mm256_cvtps_epi32(kf);
    let two_k = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
        k,
        _mm256_set1_epi32(127),
    )));
    _mm256_mul_ps(two_k, p)
}

/// # Safety
///
/// Caller must ensure AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn elu_inplace_avx2(xs: &mut [f32], alpha: f32) {
    use std::arch::x86_64::*;
    let n = xs.len();
    let zero = _mm256_setzero_ps();
    let one = _mm256_set1_ps(1.0);
    let al = _mm256_set1_ps(alpha);
    let mut j = 0;
    while j + 8 <= n {
        let x = _mm256_loadu_ps(xs.as_ptr().add(j));
        let neg = _mm256_mul_ps(al, _mm256_sub_ps(exp256(x), one));
        let keep = _mm256_cmp_ps::<_CMP_GE_OQ>(x, zero);
        _mm256_storeu_ps(xs.as_mut_ptr().add(j), _mm256_blendv_ps(neg, x, keep));
        j += 8;
    }
    for x in &mut xs[j..] {
        if *x < 0.0 {
            *x = alpha * (crate::fastmath::exp(*x) - 1.0);
        }
    }
}

/// # Safety
///
/// Caller must ensure AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sigmoid_inplace_avx2(xs: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = xs.len();
    let one = _mm256_set1_ps(1.0);
    let sign = _mm256_set1_ps(-0.0);
    let mut j = 0;
    while j + 8 <= n {
        let x = _mm256_loadu_ps(xs.as_ptr().add(j));
        // 1 / (1 + exp(-x))
        let e = exp256(_mm256_xor_ps(x, sign));
        let y = _mm256_div_ps(one, _mm256_add_ps(one, e));
        _mm256_storeu_ps(xs.as_mut_ptr().add(j), y);
        j += 8;
    }
    for x in &mut xs[j..] {
        *x = crate::fastmath::sigmoid(*x);
    }
}

/// # Safety
///
/// Caller must ensure AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tanh_inplace_avx2(xs: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = xs.len();
    let sign = _mm256_set1_ps(-0.0);
    let one = _mm256_set1_ps(1.0);
    let two = _mm256_set1_ps(2.0);
    let mut j = 0;
    while j + 8 <= n {
        let x = _mm256_loadu_ps(xs.as_ptr().add(j));
        let ax = _mm256_andnot_ps(sign, x);
        let sx = _mm256_and_ps(sign, x);
        // Polynomial branch (|x| < 0.625): x + x·z·P(z), z = x².
        let z = _mm256_mul_ps(x, x);
        let mut p = _mm256_add_ps(
            _mm256_mul_ps(_mm256_set1_ps(-5.704_988_7e-3), z),
            _mm256_set1_ps(2.063_908_8e-2),
        );
        p = _mm256_add_ps(_mm256_mul_ps(p, z), _mm256_set1_ps(-5.373_971_5e-2));
        p = _mm256_add_ps(_mm256_mul_ps(p, z), _mm256_set1_ps(1.333_144_2e-1));
        p = _mm256_add_ps(_mm256_mul_ps(p, z), _mm256_set1_ps(-3.333_328e-1));
        p = _mm256_mul_ps(p, z);
        let poly = _mm256_add_ps(_mm256_mul_ps(x, p), x);
        // Exp branch: sign(x) · (1 - 2/(exp(2|x|) + 1)).
        let t = exp256(_mm256_mul_ps(two, ax));
        let ye = _mm256_sub_ps(one, _mm256_div_ps(two, _mm256_add_ps(t, one)));
        let ye = _mm256_or_ps(ye, sx);
        // Saturation branch (|x| > 9): ±1.
        let ys = _mm256_or_ps(one, sx);
        let big = _mm256_cmp_ps::<_CMP_GT_OQ>(ax, _mm256_set1_ps(9.0));
        let small = _mm256_cmp_ps::<_CMP_LT_OQ>(ax, _mm256_set1_ps(0.625));
        let y = _mm256_blendv_ps(_mm256_blendv_ps(ye, ys, big), poly, small);
        _mm256_storeu_ps(xs.as_mut_ptr().add(j), y);
        j += 8;
    }
    for x in &mut xs[j..] {
        *x = crate::fastmath::tanh(*x);
    }
}

/// # Safety
///
/// The caller must ensure the CPU supports AVX and FMA and that the
/// slices cover the strides/widths (asserted by [`gemm_row`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
unsafe fn gemm_row_avx(
    a: &[f32],
    a_stride: usize,
    k_count: usize,
    b: &[f32],
    ldb: usize,
    o_row: &mut [f32],
) {
    use std::arch::x86_64::*;
    let n = o_row.len();
    let op = o_row.as_mut_ptr();
    let bp0 = b.as_ptr();
    let mut j = 0;
    // 64-wide then 32-wide j-tiles: the YMM accumulators live in registers
    // across the entire k loop, so the output row is loaded and stored
    // exactly once, and eight independent add chains hide the FP-add
    // latency of the in-order per-element accumulation.
    while j + 64 <= n {
        let mut acc0 = _mm256_loadu_ps(op.add(j));
        let mut acc1 = _mm256_loadu_ps(op.add(j + 8));
        let mut acc2 = _mm256_loadu_ps(op.add(j + 16));
        let mut acc3 = _mm256_loadu_ps(op.add(j + 24));
        let mut acc4 = _mm256_loadu_ps(op.add(j + 32));
        let mut acc5 = _mm256_loadu_ps(op.add(j + 40));
        let mut acc6 = _mm256_loadu_ps(op.add(j + 48));
        let mut acc7 = _mm256_loadu_ps(op.add(j + 56));
        for k in 0..k_count {
            let aik = *a.get_unchecked(k * a_stride);
            if aik == 0.0 {
                continue;
            }
            let av = _mm256_set1_ps(aik);
            let bp = bp0.add(k * ldb + j);
            acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp), acc0);
            acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(8)), acc1);
            acc2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(16)), acc2);
            acc3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(24)), acc3);
            acc4 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(32)), acc4);
            acc5 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(40)), acc5);
            acc6 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(48)), acc6);
            acc7 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(56)), acc7);
        }
        _mm256_storeu_ps(op.add(j), acc0);
        _mm256_storeu_ps(op.add(j + 8), acc1);
        _mm256_storeu_ps(op.add(j + 16), acc2);
        _mm256_storeu_ps(op.add(j + 24), acc3);
        _mm256_storeu_ps(op.add(j + 32), acc4);
        _mm256_storeu_ps(op.add(j + 40), acc5);
        _mm256_storeu_ps(op.add(j + 48), acc6);
        _mm256_storeu_ps(op.add(j + 56), acc7);
        j += 64;
    }
    while j + 32 <= n {
        let mut acc0 = _mm256_loadu_ps(op.add(j));
        let mut acc1 = _mm256_loadu_ps(op.add(j + 8));
        let mut acc2 = _mm256_loadu_ps(op.add(j + 16));
        let mut acc3 = _mm256_loadu_ps(op.add(j + 24));
        for k in 0..k_count {
            let aik = *a.get_unchecked(k * a_stride);
            if aik == 0.0 {
                continue;
            }
            let av = _mm256_set1_ps(aik);
            let bp = bp0.add(k * ldb + j);
            acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp), acc0);
            acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(8)), acc1);
            acc2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(16)), acc2);
            acc3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(24)), acc3);
        }
        _mm256_storeu_ps(op.add(j), acc0);
        _mm256_storeu_ps(op.add(j + 8), acc1);
        _mm256_storeu_ps(op.add(j + 16), acc2);
        _mm256_storeu_ps(op.add(j + 24), acc3);
        j += 32;
    }
    let rem = n - j;
    if rem == 0 {
        return;
    }
    // Fused remainder: everything narrower than one 32-tile shares a
    // SINGLE k loop — up to three 8-wide, one 4-wide, and three scalar
    // accumulators all stay live together. Walking these as separate
    // k loops (the obvious tiling) leaves a narrow row with one add
    // chain at a time, so deep reductions (e.g. the LSTM's 1 x 120 by
    // 120 x 31 input-gradient row) run at FP-add *latency*; fusing keeps
    // every remaining chain in flight. Per-element accumulation order —
    // ascending `k`, zero coefficients skipped, multiply-then-add — is
    // exactly that of the loops above, so results are bitwise unchanged.
    let n8 = rem / 8; // 0..=3 eight-wide tiles
    let has4 = rem % 8 >= 4;
    let ns = rem % 4; // 0..=3 scalar lanes
    let j4 = j + n8 * 8;
    let js = j4 + if has4 { 4 } else { 0 };
    let mut y0 = if n8 > 0 {
        _mm256_loadu_ps(op.add(j))
    } else {
        _mm256_setzero_ps()
    };
    let mut y1 = if n8 > 1 {
        _mm256_loadu_ps(op.add(j + 8))
    } else {
        _mm256_setzero_ps()
    };
    let mut y2 = if n8 > 2 {
        _mm256_loadu_ps(op.add(j + 16))
    } else {
        _mm256_setzero_ps()
    };
    let mut x0 = if has4 {
        _mm_loadu_ps(op.add(j4))
    } else {
        _mm_setzero_ps()
    };
    let mut s = [0.0f32; 3];
    for (i, si) in s.iter_mut().enumerate().take(ns) {
        *si = *op.add(js + i);
    }
    for k in 0..k_count {
        let aik = *a.get_unchecked(k * a_stride);
        if aik == 0.0 {
            continue;
        }
        let bp = bp0.add(k * ldb);
        if n8 > 0 {
            let av = _mm256_set1_ps(aik);
            y0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(j)), y0);
            if n8 > 1 {
                y1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(j + 8)), y1);
            }
            if n8 > 2 {
                y2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(j + 16)), y2);
            }
        }
        if has4 {
            x0 = _mm_fmadd_ps(_mm_set1_ps(aik), _mm_loadu_ps(bp.add(j4)), x0);
        }
        for (i, si) in s.iter_mut().enumerate().take(ns) {
            *si = aik.mul_add(*bp.add(js + i), *si);
        }
    }
    if n8 > 0 {
        _mm256_storeu_ps(op.add(j), y0);
        if n8 > 1 {
            _mm256_storeu_ps(op.add(j + 8), y1);
        }
        if n8 > 2 {
            _mm256_storeu_ps(op.add(j + 16), y2);
        }
    }
    if has4 {
        _mm_storeu_ps(op.add(j4), x0);
    }
    for (i, si) in s.iter().enumerate().take(ns) {
        *op.add(js + i) = *si;
    }
}

/// # Safety
///
/// The caller must ensure the CPU supports AVX and FMA and that the
/// slices cover the strides/widths (asserted by [`gemm_row4`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
unsafe fn gemm_row4_avx(
    a: &[f32],
    a_row_step: usize,
    a_k_stride: usize,
    k_count: usize,
    b: &[f32],
    ldb: usize,
    o: &mut [f32],
) {
    use std::arch::x86_64::*;
    let n = o.len() / 4;
    let op = o.as_mut_ptr();
    let bp0 = b.as_ptr();
    let ap = a.as_ptr();
    let mut j = 0;
    // 16-wide j-tiles, four rows each: eight accumulators stay in
    // registers across the whole k loop, every `b` vector feeds four
    // independent add chains. `c<row><half>` naming.
    while j + 16 <= n {
        let mut c00 = _mm256_loadu_ps(op.add(j));
        let mut c01 = _mm256_loadu_ps(op.add(j + 8));
        let mut c10 = _mm256_loadu_ps(op.add(n + j));
        let mut c11 = _mm256_loadu_ps(op.add(n + j + 8));
        let mut c20 = _mm256_loadu_ps(op.add(2 * n + j));
        let mut c21 = _mm256_loadu_ps(op.add(2 * n + j + 8));
        let mut c30 = _mm256_loadu_ps(op.add(3 * n + j));
        let mut c31 = _mm256_loadu_ps(op.add(3 * n + j + 8));
        for k in 0..k_count {
            let bp = bp0.add(k * ldb + j);
            let b0 = _mm256_loadu_ps(bp);
            let b1 = _mm256_loadu_ps(bp.add(8));
            let ak = ap.add(k * a_k_stride);
            let a0 = *ak;
            if a0 != 0.0 {
                let av = _mm256_set1_ps(a0);
                c00 = _mm256_fmadd_ps(av, b0, c00);
                c01 = _mm256_fmadd_ps(av, b1, c01);
            }
            let a1 = *ak.add(a_row_step);
            if a1 != 0.0 {
                let av = _mm256_set1_ps(a1);
                c10 = _mm256_fmadd_ps(av, b0, c10);
                c11 = _mm256_fmadd_ps(av, b1, c11);
            }
            let a2 = *ak.add(2 * a_row_step);
            if a2 != 0.0 {
                let av = _mm256_set1_ps(a2);
                c20 = _mm256_fmadd_ps(av, b0, c20);
                c21 = _mm256_fmadd_ps(av, b1, c21);
            }
            let a3 = *ak.add(3 * a_row_step);
            if a3 != 0.0 {
                let av = _mm256_set1_ps(a3);
                c30 = _mm256_fmadd_ps(av, b0, c30);
                c31 = _mm256_fmadd_ps(av, b1, c31);
            }
        }
        _mm256_storeu_ps(op.add(j), c00);
        _mm256_storeu_ps(op.add(j + 8), c01);
        _mm256_storeu_ps(op.add(n + j), c10);
        _mm256_storeu_ps(op.add(n + j + 8), c11);
        _mm256_storeu_ps(op.add(2 * n + j), c20);
        _mm256_storeu_ps(op.add(2 * n + j + 8), c21);
        _mm256_storeu_ps(op.add(3 * n + j), c30);
        _mm256_storeu_ps(op.add(3 * n + j + 8), c31);
        j += 16;
    }
    // The 1-15 columns left over run as one masked tile.
    let (bp, op) = (bp0.add(j), op.add(j));
    match n - j {
        0 => {}
        rem @ 1..=8 => {
            gemm_row4_masked::<false>(ap, a_row_step, a_k_stride, k_count, bp, ldb, op, n, rem)
        }
        rem => gemm_row4_masked::<true>(ap, a_row_step, a_k_stride, k_count, bp, ldb, op, n, rem),
    }
}

/// The masked remainder tile of [`gemm_row4_avx`]: the last `rem` (1-15)
/// columns of its four output rows, starting at `op` (row stride `n`),
/// against `b` columns starting at `bp` (row stride `ldb`). A `WIDE` tile
/// holds two YMM halves per row (eight accumulators, for `rem > 8`);
/// otherwise only the low half exists, so a narrow remainder does not pay
/// for a dead one. Lanes past `rem` are masked off: masked loads read them
/// as zero without touching memory and masked stores leave them alone, so
/// every live lane performs exactly the per-element FMA sequence of the
/// full tiles (ascending `k`, zero coefficients skipped), with the
/// accumulators in registers for the whole `k` loop.
///
/// # Safety
///
/// The caller must ensure AVX and FMA support, `rem` in `1..=8` (`WIDE =
/// false`) or `9..=15` (`WIDE = true`), and that the four output rows and
/// the `k_count` rows of `b` hold `rem` columns from `op`/`bp` on.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx,fma")]
unsafe fn gemm_row4_masked<const WIDE: bool>(
    ap: *const f32,
    a_row_step: usize,
    a_k_stride: usize,
    k_count: usize,
    bp: *const f32,
    ldb: usize,
    op: *mut f32,
    n: usize,
    rem: usize,
) {
    use std::arch::x86_64::*;
    let (m0, m1) = remainder_masks(rem);
    let rows = [op, op.add(n), op.add(2 * n), op.add(3 * n)];
    let mut lo = [_mm256_setzero_ps(); 4];
    let mut hi = [_mm256_setzero_ps(); 4];
    for r in 0..4 {
        lo[r] = _mm256_maskload_ps(rows[r], m0);
        if WIDE {
            hi[r] = _mm256_maskload_ps(rows[r].add(8), m1);
        }
    }
    for k in 0..k_count {
        let bk = bp.add(k * ldb);
        let b0 = _mm256_maskload_ps(bk, m0);
        let b1 = if WIDE {
            _mm256_maskload_ps(bk.add(8), m1)
        } else {
            _mm256_setzero_ps()
        };
        let ak = ap.add(k * a_k_stride);
        for r in 0..4 {
            let a = *ak.add(r * a_row_step);
            if a != 0.0 {
                let av = _mm256_set1_ps(a);
                lo[r] = _mm256_fmadd_ps(av, b0, lo[r]);
                if WIDE {
                    hi[r] = _mm256_fmadd_ps(av, b1, hi[r]);
                }
            }
        }
    }
    for r in 0..4 {
        _mm256_maskstore_ps(rows[r], m0, lo[r]);
        if WIDE {
            _mm256_maskstore_ps(rows[r].add(8), m1, hi[r]);
        }
    }
}

/// Lane masks for a tile of which only the first `rem` lanes (`1..=15`)
/// are live: the low and high eight-lane halves, all-ones on live lanes.
/// Loaded from a sliding window over a constant table, so building them
/// needs only AVX (no AVX2 integer compares).
///
/// # Safety
///
/// The caller must ensure AVX support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn remainder_masks(rem: usize) -> (std::arch::x86_64::__m256i, std::arch::x86_64::__m256i) {
    use std::arch::x86_64::*;
    /// Sixteen live lanes then sixteen dead ones: the window starting at
    /// `16 - live` holds `live` ones first.
    static TABLE: [i32; 32] = [
        -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, //
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    ];
    assert!(
        (1..16).contains(&rem),
        "remainder tile width {rem} not in 1..16"
    );
    let tp = TABLE.as_ptr();
    (
        _mm256_loadu_si256(tp.add(16 - rem).cast()),
        _mm256_loadu_si256(tp.add(24 - rem).cast()),
    )
}

/// # Safety
///
/// The caller must ensure the CPU supports AVX and FMA and
/// `dst.len() == src.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
unsafe fn add_scaled_avx(dst: &mut [f32], src: &[f32], alpha: f32) {
    use std::arch::x86_64::*;
    let n = dst.len();
    let a = _mm256_set1_ps(alpha);
    let mut j = 0;
    // Eight lanes per step; each lane is one output element's own
    // mul-then-add, exactly as in the scalar loop.
    while j + 8 <= n {
        let b = _mm256_loadu_ps(src.as_ptr().add(j));
        let o = _mm256_loadu_ps(dst.as_ptr().add(j));
        let sum = _mm256_fmadd_ps(a, b, o);
        _mm256_storeu_ps(dst.as_mut_ptr().add(j), sum);
        j += 8;
    }
    add_scaled_scalar(&mut dst[j..], &src[j..], alpha);
}

/// One fused Adam update over a parameter tensor:
/// `m ← β₁m + (1-β₁)g`, `v ← β₂v + (1-β₂)g·g`,
/// `p ← p - lr·(m/bias₁) / (√(v/bias₂) + ε)`.
///
/// The SIMD path is bitwise identical to the scalar loop: every operation
/// involved (mul, add, sub, div, sqrt) is correctly rounded in both scalar
/// and vector form, and lanes are independent elements.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn adam_update(
    p: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    lr: f32,
    b1: f32,
    b2: f32,
    eps: f32,
    bias1: f32,
    bias2: f32,
) {
    assert!(
        p.len() == g.len() && p.len() == m.len() && p.len() == v.len(),
        "adam_update length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if avx_available() {
            // SAFETY: AVX verified at runtime; lengths asserted above.
            unsafe { adam_update_avx(p, g, m, v, lr, b1, b2, eps, bias1, bias2) };
            return;
        }
    }
    adam_update_scalar(p, g, m, v, lr, b1, b2, eps, bias1, bias2);
}

#[allow(clippy::too_many_arguments)]
#[inline]
fn adam_update_scalar(
    p: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    lr: f32,
    b1: f32,
    b2: f32,
    eps: f32,
    bias1: f32,
    bias2: f32,
) {
    for ((pk, &gk), (mk, vk)) in p.iter_mut().zip(g).zip(m.iter_mut().zip(v.iter_mut())) {
        *mk = b1 * *mk + (1.0 - b1) * gk;
        *vk = b2 * *vk + (1.0 - b2) * gk * gk;
        let m_hat = *mk / bias1;
        let v_hat = *vk / bias2;
        *pk -= lr * m_hat / (v_hat.sqrt() + eps);
    }
}

/// # Safety
///
/// The caller must ensure the CPU supports AVX and that all slices have
/// equal length (asserted by [`adam_update`]).
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx")]
unsafe fn adam_update_avx(
    p: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    lr: f32,
    b1: f32,
    b2: f32,
    eps: f32,
    bias1: f32,
    bias2: f32,
) {
    use std::arch::x86_64::*;
    let n = p.len();
    let b1v = _mm256_set1_ps(b1);
    let b2v = _mm256_set1_ps(b2);
    let one_m_b1 = _mm256_set1_ps(1.0 - b1);
    let one_m_b2 = _mm256_set1_ps(1.0 - b2);
    let lrv = _mm256_set1_ps(lr);
    let epsv = _mm256_set1_ps(eps);
    let bias1v = _mm256_set1_ps(bias1);
    let bias2v = _mm256_set1_ps(bias2);
    let mut j = 0;
    while j + 8 <= n {
        let gk = _mm256_loadu_ps(g.as_ptr().add(j));
        let mk = _mm256_add_ps(
            _mm256_mul_ps(b1v, _mm256_loadu_ps(m.as_ptr().add(j))),
            _mm256_mul_ps(one_m_b1, gk),
        );
        // (1-b2)*gk*gk evaluated as ((1-b2)*gk)*gk, matching the scalar.
        let vk = _mm256_add_ps(
            _mm256_mul_ps(b2v, _mm256_loadu_ps(v.as_ptr().add(j))),
            _mm256_mul_ps(_mm256_mul_ps(one_m_b2, gk), gk),
        );
        _mm256_storeu_ps(m.as_mut_ptr().add(j), mk);
        _mm256_storeu_ps(v.as_mut_ptr().add(j), vk);
        let m_hat = _mm256_div_ps(mk, bias1v);
        let v_hat = _mm256_div_ps(vk, bias2v);
        let denom = _mm256_add_ps(_mm256_sqrt_ps(v_hat), epsv);
        let step = _mm256_div_ps(_mm256_mul_ps(lrv, m_hat), denom);
        let pk = _mm256_sub_ps(_mm256_loadu_ps(p.as_ptr().add(j)), step);
        _mm256_storeu_ps(p.as_mut_ptr().add(j), pk);
        j += 8;
    }
    adam_update_scalar(
        &mut p[j..],
        &g[j..],
        &mut m[j..],
        &mut v[j..],
        lr,
        b1,
        b2,
        eps,
        bias1,
        bias2,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_scaled_matches_scalar_for_all_remainder_lengths() {
        // Lengths 0..40 cover every remainder class around the 8-lane width.
        for n in 0..40usize {
            let src: Vec<f32> = (0..n).map(|i| (i as f32 - 7.5) * 0.3).collect();
            let mut fast: Vec<f32> = (0..n).map(|i| (i as f32) * 0.11 - 1.0).collect();
            let mut slow = fast.clone();
            add_scaled(&mut fast, &src, -1.37);
            add_scaled_scalar(&mut slow, &src, -1.37);
            for (a, b) in fast.iter().zip(&slow) {
                assert_eq!(a.to_bits(), b.to_bits(), "n = {n}");
            }
        }
    }

    #[test]
    fn gemm_row_matches_scalar_across_widths_strides_and_zeros() {
        // Widths cover the 32-tile, 8-tile, and scalar-tail paths; strides
        // cover the matmul (1) and matmul_tn (column) access patterns.
        for &w in &[1usize, 5, 8, 15, 32, 39, 64, 71] {
            for &stride in &[1usize, 3] {
                for k_count in [1usize, 2, 7] {
                    let a: Vec<f32> = (0..(k_count - 1) * stride + 1)
                        .map(|i| {
                            if i % 4 == 0 {
                                0.0
                            } else {
                                (i as f32) * 0.17 - 1.1
                            }
                        })
                        .collect();
                    let b: Vec<f32> = (0..(k_count - 1) * w + w)
                        .map(|i| (i as f32) * 0.07 - 2.3)
                        .collect();
                    let mut fast: Vec<f32> = (0..w).map(|i| i as f32 * 0.01).collect();
                    let mut slow = fast.clone();
                    gemm_row(&a, stride, k_count, &b, w, &mut fast);
                    gemm_row_scalar(&a, stride, k_count, &b, w, &mut slow);
                    for (x, y) in fast.iter().zip(&slow) {
                        assert_eq!(x.to_bits(), y.to_bits(), "w={w} stride={stride}");
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_row4_matches_four_gemm_row_calls_bitwise() {
        // Every width 1..=48: each masked remainder (1-15 columns) alone,
        // after one 16-tile and after two; the (row_step, k_stride) pairs
        // cover the matmul (rows) and matmul_tn (columns) access patterns.
        for w in 1usize..=48 {
            for &(row_step, k_stride) in &[(7usize, 1usize), (1, 4)] {
                for k_count in [1usize, 2, 7] {
                    let a_len = 3 * row_step + (k_count - 1) * k_stride + 1;
                    let a: Vec<f32> = (0..a_len)
                        .map(|i| {
                            if i % 5 == 0 {
                                0.0
                            } else {
                                (i as f32) * 0.19 - 1.3
                            }
                        })
                        .collect();
                    let b: Vec<f32> = (0..(k_count - 1) * w + w)
                        .map(|i| (i as f32) * 0.05 - 1.7)
                        .collect();
                    let mut fast: Vec<f32> = (0..4 * w).map(|i| i as f32 * 0.02).collect();
                    let mut slow = fast.clone();
                    gemm_row4(&a, row_step, k_stride, k_count, &b, w, &mut fast);
                    for (r, o_row) in slow.chunks_exact_mut(w).enumerate() {
                        gemm_row_scalar(&a[r * row_step..], k_stride, k_count, &b, w, o_row);
                    }
                    for (i, (x, y)) in fast.iter().zip(&slow).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "w={w} row_step={row_step} k_stride={k_stride} k={k_count} i={i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "add_scaled length mismatch")]
    fn mismatched_lengths_rejected() {
        add_scaled(&mut [0.0], &[1.0, 2.0], 1.0);
    }

    #[test]
    fn activation_kernels_match_scalar_bitwise_for_all_remainder_lengths() {
        // Lengths straddle the 8-lane width so both the vector body and the
        // scalar tail are exercised; values cover every tanh branch
        // (polynomial, exp formulation, saturation) and the ELU sign split.
        for n in 0..40usize {
            let base: Vec<f32> = (0..n)
                .map(|i| (i as f32 - 17.0) * 0.61 + if i % 3 == 0 { 0.013 } else { -0.27 })
                .collect();
            let mut elu_fast = base.clone();
            elu_inplace(&mut elu_fast, 1.0);
            let mut sig_fast = base.clone();
            sigmoid_inplace(&mut sig_fast);
            let mut tanh_fast = base.clone();
            tanh_inplace(&mut tanh_fast);
            for (i, &x) in base.iter().enumerate() {
                let elu_ref = if x < 0.0 {
                    crate::fastmath::exp(x) - 1.0
                } else {
                    x
                };
                assert_eq!(elu_fast[i].to_bits(), elu_ref.to_bits(), "elu n={n} i={i}");
                assert_eq!(
                    sig_fast[i].to_bits(),
                    crate::fastmath::sigmoid(x).to_bits(),
                    "sigmoid n={n} i={i}"
                );
                assert_eq!(
                    tanh_fast[i].to_bits(),
                    crate::fastmath::tanh(x).to_bits(),
                    "tanh n={n} i={i}"
                );
            }
        }
    }

    #[test]
    fn adam_update_matches_scalar_bitwise() {
        for n in [1usize, 7, 8, 9, 31, 64] {
            let g: Vec<f32> = (0..n).map(|i| (i as f32 - 3.0) * 0.21).collect();
            let mut p1: Vec<f32> = (0..n).map(|i| i as f32 * 0.1).collect();
            let mut m1: Vec<f32> = (0..n).map(|i| i as f32 * -0.03).collect();
            let mut v1: Vec<f32> = (0..n).map(|i| i as f32 * 0.02).collect();
            let (mut p2, mut m2, mut v2) = (p1.clone(), m1.clone(), v1.clone());
            adam_update(
                &mut p1, &g, &mut m1, &mut v1, 1e-3, 0.9, 0.999, 1e-8, 0.1, 0.002,
            );
            adam_update_scalar(
                &mut p2, &g, &mut m2, &mut v2, 1e-3, 0.9, 0.999, 1e-8, 0.1, 0.002,
            );
            for (a, b) in p1
                .iter()
                .zip(&p2)
                .chain(m1.iter().zip(&m2))
                .chain(v1.iter().zip(&v2))
            {
                assert_eq!(a.to_bits(), b.to_bits(), "n = {n}");
            }
        }
    }
}
