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
//! Dispatch is by CPU detection alone, once per process (`OnceLock`).
//! The batched GEMM `gemm_row4` tries three tiers in order: AVX-512F (four
//! rows × 64 columns, four 16-lane ZMM quarters per row), then AVX with
//! FMA (four rows × 16 columns, two 8-lane YMM halves per row), then its
//! scalar twin. The other kernels have an AVX (or AVX2) tier and a scalar
//! one. All tiers agree bit for bit because a tier only changes how many
//! output elements one instruction covers: each element's chain of FMAs,
//! one per `k` in ascending order, is the same in all of them.
//!
//! Ragged widths never change that order either. `gemm_row` runs the
//! columns after its 64-wide tiles as one tile of ⌈rest/8⌉ eight-lane
//! accumulators, the last one masked; `gemm_row4` runs them as a single
//! masked tile: up to 63 columns under AVX-512 (as many ZMM quarters per
//! row as they fill), up to 15 under AVX (one YMM half when at most 8
//! remain). Masked lanes (`maskload`/`maskstore`, and AVX-512's
//! mask-register loads and stores) neither read nor write memory, so each
//! live lane is exactly a full-tile lane.
//!
//! The wide tiles want 64-byte rows. A ZMM load is 64 bytes, a whole cache
//! line, so it splits two lines unless its address is a multiple of 64.
//! [`crate::matrix::Matrix`] starts its elements on a 64-byte boundary, so
//! a row whose width is a multiple of 16 floats, such as the Sub-Q's
//! 128-wide hidden layer, starts a line too, and so does every tile of it;
//! with the 16-byte alignment the heap gives, three of four placements
//! would make every ZMM load of such a row a split load.
//!
//! Zero coefficients: the single-row `gemm_row` skips them, and the
//! four-row `gemm_row4` feeds every coefficient to its FMA. Each kernel's
//! scalar twin follows the same rule, so each dispatch pair agrees bit for
//! bit on every input, non-finite ones included. Both rules compute the
//! same bits wherever `b` is finite and no accumulator holds `−0.0`,
//! because `fma(±0, b, acc)` then returns `acc` exactly. Accumulators
//! start at `+0.0`, and `x + (−x)` rounds to `+0.0`, so one reaches `−0.0`
//! only when a step's exact result is a negative number below 2⁻¹⁵⁰ in
//! magnitude. The skip pays on a decision's few sparse rows, which run
//! through `gemm_row`. In the batched products (training forward, target
//! sweep, weight gradients) a per-coefficient test costs a compare and a
//! mispredicted branch for every two FMAs, so `gemm_row4` does without it.
//!
//! On non-x86_64 targets (or CPUs without AVX and FMA) everything falls
//! back to scalar `mul_add` loops with the identical accumulation order.
//! [`gemm_tier`] names the tier `gemm_row4` runs at, so a timing can say
//! which kernel it measured.

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
/// ascending order, zero coefficients skipped (in the scalar twin too).
/// The skip stays because this kernel serves the sparse rows: a
/// global-tier decision runs its encoder and Sub-Q products over its K
/// group rows (two at the paper's M = 30, too few for [`gemm_row4`]'s
/// blocks), and about a third of a state row's features are zero. Without
/// the skip, the benchmark's `hier-m30-frozen` workload, which only
/// decides, ran about 15% slower.
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
/// `n = o.len() / 4`, each sum in ascending-`k` order with one FMA per
/// coefficient, zero or not. The blocking only interleaves *independent*
/// accumulator chains. That interleaving is the point: a narrow output row
/// (n < 32) gives [`gemm_row`] a single FP-add chain per tile, so the k
/// loop runs at add *latency*, not throughput. Four rows share each `b`
/// load and keep four chains in flight, which is worth ~2-3x at this
/// codebase's layer widths (15/30-wide autoencoder rows).
///
/// No zero test: state rows are about a third zeros, so a per-coefficient
/// branch mispredicts and, with the broadcast it guards, costs more than
/// the two FMAs it saves. The result equals four [`gemm_row`] calls bit for
/// bit wherever `b` is finite and no accumulator holds `−0.0` (see the
/// module doc); the scalar twin feeds every coefficient too, so the AVX and
/// scalar paths agree on every input.
///
/// The AVX-512 tier walks `j` in 64-wide tiles (four ZMM quarters × four
/// rows = sixteen register accumulators), the AVX tier in 16-wide ones
/// (two YMM halves × four rows = eight); each finishes the columns left
/// over as one more tile with its dead lanes masked off and only the
/// vectors it needs: a ragged width such as the 15-wide Sub-Q head at
/// M = 30 then costs a single pass over `k`.
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
        if avx512f_available() {
            // SAFETY: AVX-512F verified at runtime; bounds asserted above.
            unsafe { gemm_row4_avx512(a, a_row_step, a_k_stride, k_count, b, ldb, o) };
            return;
        }
        if avx_available() && fma_available() {
            // SAFETY: AVX and FMA verified at runtime; bounds asserted above.
            unsafe { gemm_row4_avx(a, a_row_step, a_k_stride, k_count, b, ldb, o) };
            return;
        }
    }
    gemm_row4_scalar(a, a_row_step, a_k_stride, k_count, b, ldb, o);
}

/// The instruction-set tier the batched GEMM kernel (every product of four
/// or more rows: training forward passes, weight gradients, target sweeps)
/// runs at on this CPU: `"avx512f"`, `"avx+fma"` or `"scalar"`, the first
/// the CPU supports in that order. Every tier computes the same bits; the
/// name says only which one a timing measured.
pub fn gemm_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if avx512f_available() {
            return "avx512f";
        }
        if avx_available() && fma_available() {
            return "avx+fma";
        }
    }
    "scalar"
}

/// Scalar twin of [`gemm_row4`]: the same per-element `mul_add` chain,
/// every coefficient fed, zero or not.
#[inline]
fn gemm_row4_scalar(
    a: &[f32],
    a_row_step: usize,
    a_k_stride: usize,
    k_count: usize,
    b: &[f32],
    ldb: usize,
    o: &mut [f32],
) {
    let n = o.len() / 4;
    for (r, o_row) in o.chunks_exact_mut(n).enumerate() {
        for k in 0..k_count {
            let b_row = &b[k * ldb..k * ldb + n];
            add_scaled_scalar(o_row, b_row, a[r * a_row_step + k * a_k_stride]);
        }
    }
}

/// Writes the transpose of the row-major `rows x cols` matrix `src` into
/// `dst` (`cols x rows`, row-major). The AVX path moves 8 x 8 blocks
/// through registers with the ragged edge blocks masked, where the scalar
/// loop strides the whole output once per element.
///
/// # Panics
///
/// Panics unless both slices hold `rows · cols` values.
pub(crate) fn transpose(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    assert!(
        src.len() == rows * cols && dst.len() == rows * cols,
        "transpose shape mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if avx_available() {
            // SAFETY: AVX verified at runtime; lengths asserted above.
            unsafe { transpose_avx(src, rows, cols, dst) };
            return;
        }
    }
    for (i, row) in src.chunks_exact(cols.max(1)).enumerate() {
        for (j, &x) in row.iter().enumerate() {
            dst[j * rows + i] = x;
        }
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
fn avx512f_available() -> bool {
    use std::sync::OnceLock;
    static AVX512F: OnceLock<bool> = OnceLock::new();
    *AVX512F.get_or_init(|| std::is_x86_feature_detected!("avx512f"))
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

/// `g[j] *= elu'(x[j])`: each gradient times the ELU derivative in the
/// form `Activation::derivative` takes from the pre-activation `x` and the
/// output `y`, `1` where `x > 0` and `y + alpha` otherwise (a NaN `x`
/// included, as the scalar `if` does). The AVX path runs an ordered
/// greater-than compare, a blend and a multiply eight lanes at a time: the
/// same IEEE operations per element as the scalar loop, so the two agree
/// bit for bit.
///
/// # Panics
///
/// Panics unless the three slices have equal length.
#[inline]
pub(crate) fn mul_elu_derivative(g: &mut [f32], x: &[f32], y: &[f32], alpha: f32) {
    assert!(
        g.len() == x.len() && g.len() == y.len(),
        "mul_elu_derivative length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if avx_available() {
            // SAFETY: AVX support was just verified at runtime; lengths
            // asserted above.
            unsafe { mul_elu_derivative_avx(g, x, y, alpha) };
            return;
        }
    }
    mul_elu_derivative_scalar(g, x, y, alpha);
}

#[inline]
fn mul_elu_derivative_scalar(g: &mut [f32], x: &[f32], y: &[f32], alpha: f32) {
    for ((g, &x), &y) in g.iter_mut().zip(x).zip(y) {
        *g *= if x > 0.0 { 1.0 } else { y + alpha };
    }
}

/// # Safety
///
/// The caller must ensure AVX support and equal slice lengths (asserted by
/// [`mul_elu_derivative`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn mul_elu_derivative_avx(g: &mut [f32], x: &[f32], y: &[f32], alpha: f32) {
    use std::arch::x86_64::*;
    let n = g.len();
    let (zero, one, al) = (
        _mm256_setzero_ps(),
        _mm256_set1_ps(1.0),
        _mm256_set1_ps(alpha),
    );
    let mut j = 0;
    while j + 8 <= n {
        // `_CMP_GT_OQ` is false on NaN, so a NaN `x` takes `y + alpha`.
        let pos = _mm256_cmp_ps::<_CMP_GT_OQ>(_mm256_loadu_ps(x.as_ptr().add(j)), zero);
        let neg = _mm256_add_ps(_mm256_loadu_ps(y.as_ptr().add(j)), al);
        let d = _mm256_blendv_ps(neg, one, pos);
        let gp = g.as_mut_ptr().add(j);
        _mm256_storeu_ps(gp, _mm256_mul_ps(_mm256_loadu_ps(gp), d));
        j += 8;
    }
    mul_elu_derivative_scalar(&mut g[j..], &x[j..], &y[j..], alpha);
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

/// One fused batch-1 LSTM cell step: `gates = act(z·W + b)` in
/// `[i | f | o | g]` order (sigmoid on the first `3h` lanes, tanh on the
/// last `h`), then `c ← f∘c + i∘g`, `tanh_c = tanh(c)` and `h = o∘tanh_c`.
/// `c` holds the previous cell state on entry; `w` is the row-major
/// `z.len() x 4h` gate-weight matrix.
///
/// Bitwise identical to `LstmCell`'s scalar helper chain: the product runs
/// [`gemm_row`]'s tiles from `+0.0` accumulators, the bias is one add after
/// it, the activations are the [`sigmoid_inplace`]/[`tanh_inplace`]
/// eight-lane bodies (a vector straddling lane `3h` computes both and
/// blends), and the cell update is mul, mul, add with no FMA contraction.
///
/// Returns `false`, writing nothing, when the CPU lacks AVX2 or FMA; the
/// caller then runs that helper chain.
///
/// # Panics
///
/// Panics unless `b` and `gates` hold `4h` values, `tanh_c` and `h` hold
/// `h = c.len()`, and `w` holds `z.len() · 4h`.
pub(crate) fn lstm_cell_step(
    z: &[f32],
    w: &[f32],
    b: &[f32],
    gates: &mut [f32],
    c: &mut [f32],
    tanh_c: &mut [f32],
    h: &mut [f32],
) -> bool {
    let hw = c.len();
    assert!(
        b.len() == 4 * hw && gates.len() == 4 * hw && tanh_c.len() == hw && h.len() == hw,
        "lstm_cell_step width mismatch"
    );
    assert_eq!(w.len(), z.len() * 4 * hw, "lstm_cell_step weight shape");
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() && fma_available() {
            // SAFETY: AVX2 and FMA verified at runtime; lengths asserted above.
            unsafe { lstm_cell_step_avx2(z, w, b, gates, c, tanh_c, h) };
            return true;
        }
    }
    false
}

/// The elementwise half of one batch-1 BPTT step: from one step's
/// post-activation `gates` (`[i | f | o | g]`), `c_prev`, `tanh_c` and the
/// gradients `dh`, `dc` w.r.t. its outputs, writes the pre-activation gate
/// gradients `da = [da_i | da_f | da_o | da_g]` and `dc_prev`, eight hidden
/// units per vector with the per-element expression order of `LstmCell`'s
/// scalar loop:
///
/// ```text
/// dc_total = dh·o·(1 - tanh_c²) + dc
/// da_i = dc_total·g·i·(1 - i)     da_f = dc_total·c_prev·f·(1 - f)
/// da_o = dh·tanh_c·o·(1 - o)      da_g = dc_total·i·(1 - g²)
/// dc_prev = dc_total·f
/// ```
///
/// Returns `false`, writing nothing, when the CPU lacks AVX; the caller then
/// runs the scalar loop.
///
/// # Panics
///
/// Panics unless `gates` and `da` hold `4h` values and the other slices
/// `h = dh.len()`.
pub(crate) fn lstm_gate_grads(
    gates: &[f32],
    c_prev: &[f32],
    tanh_c: &[f32],
    dh: &[f32],
    dc: &[f32],
    da: &mut [f32],
    dc_prev: &mut [f32],
) -> bool {
    let hw = dh.len();
    assert!(
        gates.len() == 4 * hw
            && da.len() == 4 * hw
            && c_prev.len() == hw
            && tanh_c.len() == hw
            && dc.len() == hw
            && dc_prev.len() == hw,
        "lstm_gate_grads width mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if avx_available() {
            // SAFETY: AVX verified at runtime; lengths asserted above.
            unsafe { lstm_gate_grads_avx(gates, c_prev, tanh_c, dh, dc, da, dc_prev) };
            return true;
        }
    }
    false
}

/// # Safety
///
/// The caller must ensure AVX2 and FMA support and the slice lengths
/// asserted by [`lstm_cell_step`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn lstm_cell_step_avx2(
    z: &[f32],
    w: &[f32],
    b: &[f32],
    gates: &mut [f32],
    c: &mut [f32],
    tanh_c: &mut [f32],
    h: &mut [f32],
) {
    use std::arch::x86_64::*;
    let hw = c.len();
    let (gw, sig) = (4 * hw, 3 * hw);
    let (gp, bp) = (gates.as_mut_ptr(), b.as_ptr());
    gates.fill(0.0);
    // Each span's bias and activations come right after its product, so
    // their latency chains overlap the next span's FMA chains.
    for j0 in (0..gw).step_by(64) {
        let end = (j0 + 64).min(gw);
        gemm_row_span(
            z.as_ptr(),
            1,
            z.len(),
            w.as_ptr().add(j0),
            gw,
            gp.add(j0),
            end - j0,
        );
        for j in (j0..end).step_by(8) {
            let m = lane_mask((end - j).min(8));
            let x = _mm256_add_ps(
                _mm256_maskload_ps(gp.add(j), m),
                _mm256_maskload_ps(bp.add(j), m),
            );
            let y = if j + 8 <= sig {
                sigmoid256(x)
            } else if j >= sig {
                tanh256(x)
            } else {
                let sig_lanes = _mm256_castsi256_ps(lane_mask(sig - j));
                _mm256_blendv_ps(tanh256(x), sigmoid256(x), sig_lanes)
            };
            _mm256_maskstore_ps(gp.add(j), m, y);
        }
    }
    let (cp, tp, hp) = (c.as_mut_ptr(), tanh_c.as_mut_ptr(), h.as_mut_ptr());
    let mut j = 0;
    while j < hw {
        let m = lane_mask((hw - j).min(8));
        let gate = |block: usize| _mm256_maskload_ps(gp.add(block * hw + j), m);
        let (i, f, o, g) = (gate(0), gate(1), gate(2), gate(3));
        let cn = _mm256_add_ps(
            _mm256_mul_ps(f, _mm256_maskload_ps(cp.add(j), m)),
            _mm256_mul_ps(i, g),
        );
        let tc = tanh256(cn);
        _mm256_maskstore_ps(cp.add(j), m, cn);
        _mm256_maskstore_ps(tp.add(j), m, tc);
        _mm256_maskstore_ps(hp.add(j), m, _mm256_mul_ps(o, tc));
        j += 8;
    }
}

/// # Safety
///
/// The caller must ensure AVX support and the slice lengths asserted by
/// [`lstm_gate_grads`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn lstm_gate_grads_avx(
    gates: &[f32],
    c_prev: &[f32],
    tanh_c: &[f32],
    dh: &[f32],
    dc: &[f32],
    da: &mut [f32],
    dc_prev: &mut [f32],
) {
    use std::arch::x86_64::*;
    let hw = dh.len();
    let one = _mm256_set1_ps(1.0);
    let (gp, dap) = (gates.as_ptr(), da.as_mut_ptr());
    let mut j = 0;
    while j < hw {
        let m = lane_mask((hw - j).min(8));
        let load = |p: *const f32| _mm256_maskload_ps(p.add(j), m);
        let (i, f, o, g) = (
            load(gp),
            load(gp.add(hw)),
            load(gp.add(2 * hw)),
            load(gp.add(3 * hw)),
        );
        let (tc, cp) = (load(tanh_c.as_ptr()), load(c_prev.as_ptr()));
        let (dhv, dcv) = (load(dh.as_ptr()), load(dc.as_ptr()));
        // `1.0 · dc` in the scalar loop is exact, so adding `dc` is too.
        let dc_total = _mm256_add_ps(
            _mm256_mul_ps(
                _mm256_mul_ps(dhv, o),
                _mm256_sub_ps(one, _mm256_mul_ps(tc, tc)),
            ),
            dcv,
        );
        let da_i = _mm256_mul_ps(
            _mm256_mul_ps(_mm256_mul_ps(dc_total, g), i),
            _mm256_sub_ps(one, i),
        );
        let da_f = _mm256_mul_ps(
            _mm256_mul_ps(_mm256_mul_ps(dc_total, cp), f),
            _mm256_sub_ps(one, f),
        );
        let da_o = _mm256_mul_ps(
            _mm256_mul_ps(_mm256_mul_ps(dhv, tc), o),
            _mm256_sub_ps(one, o),
        );
        let da_g = _mm256_mul_ps(
            _mm256_mul_ps(dc_total, i),
            _mm256_sub_ps(one, _mm256_mul_ps(g, g)),
        );
        _mm256_maskstore_ps(dap.add(j), m, da_i);
        _mm256_maskstore_ps(dap.add(hw + j), m, da_f);
        _mm256_maskstore_ps(dap.add(2 * hw + j), m, da_o);
        _mm256_maskstore_ps(dap.add(3 * hw + j), m, da_g);
        _mm256_maskstore_ps(dc_prev.as_mut_ptr().add(j), m, _mm256_mul_ps(dc_total, f));
        j += 8;
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

/// Eight-lane mirror of [`crate::fastmath::sigmoid`], `1 / (1 + exp(-x))`
/// with [`exp256`]: each lane is bitwise identical to the scalar kernel.
///
/// # Safety
///
/// Caller must ensure AVX2 support.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn sigmoid256(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let one = _mm256_set1_ps(1.0);
    let e = exp256(_mm256_xor_ps(x, _mm256_set1_ps(-0.0)));
    _mm256_div_ps(one, _mm256_add_ps(one, e))
}

/// Eight-lane mirror of [`crate::fastmath::tanh`]: every lane computes all
/// three branches and keeps the one the scalar kernel takes, so each lane
/// is bitwise identical to it.
///
/// # Safety
///
/// Caller must ensure AVX2 support.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn tanh256(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let sign = _mm256_set1_ps(-0.0);
    let one = _mm256_set1_ps(1.0);
    let two = _mm256_set1_ps(2.0);
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
    _mm256_blendv_ps(_mm256_blendv_ps(ye, ys, big), poly, small)
}

/// # Safety
///
/// Caller must ensure AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sigmoid_inplace_avx2(xs: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = xs.len();
    let mut j = 0;
    while j + 8 <= n {
        let x = _mm256_loadu_ps(xs.as_ptr().add(j));
        _mm256_storeu_ps(xs.as_mut_ptr().add(j), sigmoid256(x));
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
    let mut j = 0;
    while j + 8 <= n {
        let x = _mm256_loadu_ps(xs.as_ptr().add(j));
        _mm256_storeu_ps(xs.as_mut_ptr().add(j), tanh256(x));
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
    let n = o_row.len();
    let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), o_row.as_mut_ptr());
    for j in (0..n).step_by(64) {
        gemm_row_span(
            ap,
            a_stride,
            k_count,
            bp.add(j),
            ldb,
            op.add(j),
            (n - j).min(64),
        );
    }
}

/// `width` (1-64) columns of [`gemm_row_avx`] from `op`/`bp` on, as one
/// tile of ⌈width/8⌉ accumulators, the last one masked. A per-width tile
/// count keeps every accumulator in a register (a runtime count spills
/// them), and all chains stay in flight together: a narrow row such as the
/// LSTM's 1 x 120 by 120 x 31 input gradient would otherwise run its deep
/// reduction at FP-add latency one chain at a time.
///
/// # Safety
///
/// The caller must ensure AVX and FMA support, `width` in `1..=64`, that
/// `ap` holds `k_count` coefficients at stride `a_stride`, and that the
/// output row and the `k_count` rows of `b` hold `width` columns from
/// `op`/`bp` on.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx,fma")]
unsafe fn gemm_row_span(
    ap: *const f32,
    a_stride: usize,
    k_count: usize,
    bp: *const f32,
    ldb: usize,
    op: *mut f32,
    width: usize,
) {
    let tiles = width.div_ceil(8);
    let live = width + 8 - 8 * tiles;
    match tiles {
        1 => gemm_row_tile::<1>(ap, a_stride, k_count, bp, ldb, op, live),
        2 => gemm_row_tile::<2>(ap, a_stride, k_count, bp, ldb, op, live),
        3 => gemm_row_tile::<3>(ap, a_stride, k_count, bp, ldb, op, live),
        4 => gemm_row_tile::<4>(ap, a_stride, k_count, bp, ldb, op, live),
        5 => gemm_row_tile::<5>(ap, a_stride, k_count, bp, ldb, op, live),
        6 => gemm_row_tile::<6>(ap, a_stride, k_count, bp, ldb, op, live),
        7 => gemm_row_tile::<7>(ap, a_stride, k_count, bp, ldb, op, live),
        8 => gemm_row_tile::<8>(ap, a_stride, k_count, bp, ldb, op, live),
        _ => unreachable!("span width {width} not in 1..=64"),
    }
}

/// One register tile of [`gemm_row_avx`]: the `8(T-1) + live` output
/// columns from `op` (`live` in `1..=8` lanes of the last accumulator),
/// against `b` columns from `bp` (row stride `ldb`), with coefficients
/// `ap[k · a_stride]`. The `T` accumulators stay in registers for the whole
/// `k` loop; the last one's dead lanes are masked off, so every live lane
/// performs exactly the per-element FMA sequence of the scalar kernel
/// (ascending `k`, zero coefficients skipped).
///
/// # Safety
///
/// The caller must ensure AVX and FMA support, `T` in `1..=8`, `live` in
/// `1..=8`, that `ap` holds `k_count` coefficients at stride `a_stride`,
/// and that the output row and the `k_count` rows of `b` hold the tile's
/// columns from `op`/`bp` on.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx,fma")]
unsafe fn gemm_row_tile<const T: usize>(
    ap: *const f32,
    a_stride: usize,
    k_count: usize,
    bp: *const f32,
    ldb: usize,
    op: *mut f32,
    live: usize,
) {
    use std::arch::x86_64::*;
    let mask = lane_mask(live);
    let last = 8 * (T - 1);
    let mut acc = [_mm256_setzero_ps(); T];
    for (t, v) in acc.iter_mut().enumerate().take(T - 1) {
        *v = _mm256_loadu_ps(op.add(8 * t));
    }
    acc[T - 1] = _mm256_maskload_ps(op.add(last), mask);
    for k in 0..k_count {
        let aik = *ap.add(k * a_stride);
        if aik == 0.0 {
            continue;
        }
        let av = _mm256_set1_ps(aik);
        let bk = bp.add(k * ldb);
        for (t, v) in acc.iter_mut().enumerate().take(T - 1) {
            *v = _mm256_fmadd_ps(av, _mm256_loadu_ps(bk.add(8 * t)), *v);
        }
        acc[T - 1] = _mm256_fmadd_ps(av, _mm256_maskload_ps(bk.add(last), mask), acc[T - 1]);
    }
    for (t, v) in acc.iter().enumerate().take(T - 1) {
        _mm256_storeu_ps(op.add(8 * t), *v);
    }
    _mm256_maskstore_ps(op.add(last), mask, acc[T - 1]);
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
    // independent add chains, and each coefficient is one broadcast load
    // feeding two FMAs, with no branch. `c<row><half>` naming.
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
            let a0 = _mm256_broadcast_ss(&*ak);
            c00 = _mm256_fmadd_ps(a0, b0, c00);
            c01 = _mm256_fmadd_ps(a0, b1, c01);
            let a1 = _mm256_broadcast_ss(&*ak.add(a_row_step));
            c10 = _mm256_fmadd_ps(a1, b0, c10);
            c11 = _mm256_fmadd_ps(a1, b1, c11);
            let a2 = _mm256_broadcast_ss(&*ak.add(2 * a_row_step));
            c20 = _mm256_fmadd_ps(a2, b0, c20);
            c21 = _mm256_fmadd_ps(a2, b1, c21);
            let a3 = _mm256_broadcast_ss(&*ak.add(3 * a_row_step));
            c30 = _mm256_fmadd_ps(a3, b0, c30);
            c31 = _mm256_fmadd_ps(a3, b1, c31);
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
/// full tiles (ascending `k`, every coefficient fed, zero or not), with
/// the accumulators in registers for the whole `k` loop.
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
    let m0 = lane_mask(rem.min(8));
    let m1 = lane_mask(rem.saturating_sub(8));
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
            let av = _mm256_broadcast_ss(&*ak.add(r * a_row_step));
            lo[r] = _mm256_fmadd_ps(av, b0, lo[r]);
            if WIDE {
                hi[r] = _mm256_fmadd_ps(av, b1, hi[r]);
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

/// The AVX-512 tier of [`gemm_row4`]: 64-wide j-tiles, four rows each,
/// then the 1-63 columns left over as one masked tile (see
/// [`gemm_row4_tile512`]). Every output element runs the FMA chain of the
/// AVX and scalar tiers (ascending `k`, every coefficient fed), so the
/// tiers agree bit for bit; only the lane count per instruction differs.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX-512F and that the slices
/// cover the strides/widths (asserted by [`gemm_row4`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_row4_avx512(
    a: &[f32],
    a_row_step: usize,
    a_k_stride: usize,
    k_count: usize,
    b: &[f32],
    ldb: usize,
    o: &mut [f32],
) {
    let n = o.len() / 4;
    let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), o.as_mut_ptr());
    let (rs, ks) = (a_row_step, a_k_stride);
    let mut j = 0;
    while j + 64 <= n {
        let (bj, oj) = (bp.add(j), op.add(j));
        gemm_row4_tile512::<4>(ap, rs, ks, k_count, bj, ldb, oj, n, u16::MAX);
        j += 64;
    }
    if j == n {
        return;
    }
    let quarters = (n - j).div_ceil(16);
    let last = lanes512(n - j - 16 * (quarters - 1));
    let (bj, oj) = (bp.add(j), op.add(j));
    match quarters {
        1 => gemm_row4_tile512::<1>(ap, rs, ks, k_count, bj, ldb, oj, n, last),
        2 => gemm_row4_tile512::<2>(ap, rs, ks, k_count, bj, ldb, oj, n, last),
        3 => gemm_row4_tile512::<3>(ap, rs, ks, k_count, bj, ldb, oj, n, last),
        _ => gemm_row4_tile512::<4>(ap, rs, ks, k_count, bj, ldb, oj, n, last),
    }
}

/// The mask of the first `live` (`1..=16`) lanes of a sixteen-lane vector.
#[cfg(target_arch = "x86_64")]
#[inline]
fn lanes512(live: usize) -> u16 {
    debug_assert!((1..=16).contains(&live));
    (u32::MAX >> (32 - live)) as u16
}

/// One tile of [`gemm_row4_avx512`]: `Q` sixteen-column quarters of its
/// four output rows, starting at `op` (row stride `n`), against `b`
/// columns starting at `bp` (row stride `ldb`); the last quarter's lanes
/// are masked by `last`. The `4·Q` accumulators stay in registers for the
/// whole `k` loop, every `b` vector feeds four independent chains, and each
/// coefficient is one broadcast feeding `Q` FMAs, with no branch. A full
/// tile (`Q = 4`, all lanes live) needs 16 accumulators, four `b` vectors
/// and one broadcast: 21 of the 32 ZMM registers. Masked-off lanes are
/// neither read nor written: masked loads fill them with zero without
/// touching memory and masked stores leave them alone, so every live lane
/// performs exactly the per-element FMA sequence of the full tiles, and a
/// ragged width such as the 15-wide Sub-Q head at M = 30 costs one pass
/// over `k`.
///
/// # Safety
///
/// The caller must ensure AVX-512F support, `Q` in `1..=4`, and that the
/// four output rows and the `k_count` rows of `b` hold the `16·(Q − 1)`
/// columns before the last quarter and that quarter's live columns, from
/// `op`/`bp` on.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_row4_tile512<const Q: usize>(
    ap: *const f32,
    a_row_step: usize,
    a_k_stride: usize,
    k_count: usize,
    bp: *const f32,
    ldb: usize,
    op: *mut f32,
    n: usize,
    last: u16,
) {
    use std::arch::x86_64::*;
    let rows = [op, op.add(n), op.add(2 * n), op.add(3 * n)];
    let mask = |q: usize| if q + 1 == Q { last } else { u16::MAX };
    let mut acc = [[_mm512_setzero_ps(); Q]; 4];
    for (row, acc) in rows.iter().zip(&mut acc) {
        for (q, v) in acc.iter_mut().enumerate() {
            *v = _mm512_maskz_loadu_ps(mask(q), row.add(16 * q));
        }
    }
    for k in 0..k_count {
        let bk = bp.add(k * ldb);
        let mut bv = [_mm512_setzero_ps(); Q];
        for (q, v) in bv.iter_mut().enumerate() {
            *v = _mm512_maskz_loadu_ps(mask(q), bk.add(16 * q));
        }
        let ak = ap.add(k * a_k_stride);
        for (r, acc) in acc.iter_mut().enumerate() {
            let av = _mm512_set1_ps(*ak.add(r * a_row_step));
            for (v, &bq) in acc.iter_mut().zip(&bv) {
                *v = _mm512_fmadd_ps(av, bq, *v);
            }
        }
    }
    for (row, acc) in rows.iter().zip(&acc) {
        for (q, v) in acc.iter().enumerate() {
            _mm512_mask_storeu_ps(row.add(16 * q), mask(q), *v);
        }
    }
}

/// # Safety
///
/// The caller must ensure AVX support and that `src` and `dst` hold
/// `rows · cols` values (asserted by [`transpose`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn transpose_avx(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    use std::arch::x86_64::*;
    let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
    for i0 in (0..rows).step_by(8) {
        let live_rows = (rows - i0).min(8);
        for j0 in (0..cols).step_by(8) {
            let live_cols = (cols - j0).min(8);
            // Rows past the matrix stay zero and are never stored.
            let mut r = [_mm256_setzero_ps(); 8];
            let src_at = |k: usize| sp.add((i0 + k) * cols + j0);
            let dst_at = |k: usize| dp.add((j0 + k) * rows + i0);
            if live_rows == 8 && live_cols == 8 {
                for (k, v) in r.iter_mut().enumerate() {
                    *v = _mm256_loadu_ps(src_at(k));
                }
                transpose8(&mut r);
                for (k, v) in r.iter().enumerate() {
                    _mm256_storeu_ps(dst_at(k), *v);
                }
            } else {
                let col_mask = lane_mask(live_cols);
                for (k, v) in r.iter_mut().enumerate().take(live_rows) {
                    *v = _mm256_maskload_ps(src_at(k), col_mask);
                }
                transpose8(&mut r);
                let row_mask = lane_mask(live_rows);
                for (k, v) in r.iter().enumerate().take(live_cols) {
                    _mm256_maskstore_ps(dst_at(k), row_mask, *v);
                }
            }
        }
    }
}

/// Transposes the 8 x 8 block held one row per vector in `r`, in place:
/// unpack pairs of rows, shuffle pairs of pairs, then swap 128-bit halves.
///
/// # Safety
///
/// The caller must ensure AVX support.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx")]
unsafe fn transpose8(r: &mut [std::arch::x86_64::__m256; 8]) {
    use std::arch::x86_64::*;
    let t0 = _mm256_unpacklo_ps(r[0], r[1]);
    let t1 = _mm256_unpackhi_ps(r[0], r[1]);
    let t2 = _mm256_unpacklo_ps(r[2], r[3]);
    let t3 = _mm256_unpackhi_ps(r[2], r[3]);
    let t4 = _mm256_unpacklo_ps(r[4], r[5]);
    let t5 = _mm256_unpackhi_ps(r[4], r[5]);
    let t6 = _mm256_unpacklo_ps(r[6], r[7]);
    let t7 = _mm256_unpackhi_ps(r[6], r[7]);
    let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
    let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
    let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
    let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
    let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
    let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
    let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
    let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
    r[0] = _mm256_permute2f128_ps::<0x20>(u0, u4);
    r[1] = _mm256_permute2f128_ps::<0x20>(u1, u5);
    r[2] = _mm256_permute2f128_ps::<0x20>(u2, u6);
    r[3] = _mm256_permute2f128_ps::<0x20>(u3, u7);
    r[4] = _mm256_permute2f128_ps::<0x31>(u0, u4);
    r[5] = _mm256_permute2f128_ps::<0x31>(u1, u5);
    r[6] = _mm256_permute2f128_ps::<0x31>(u2, u6);
    r[7] = _mm256_permute2f128_ps::<0x31>(u3, u7);
}

/// The lane mask of an eight-lane vector of which only the first `live`
/// lanes (`0..=8`) are live: all-ones on live lanes, zero on dead ones.
/// Loaded from a sliding window over a constant table, so building it
/// needs only AVX (no AVX2 integer compares).
///
/// # Safety
///
/// The caller must ensure AVX support.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx")]
unsafe fn lane_mask(live: usize) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    /// Eight live lanes then eight dead ones: the window starting at
    /// `8 - live` holds `live` ones first.
    static TABLE: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];
    assert!(live <= 8, "lane count {live} exceeds 8");
    _mm256_loadu_si256(TABLE.as_ptr().add(8 - live).cast())
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
/// A new moment of magnitude below `f32::MIN_POSITIVE` is stored as a zero
/// of its sign. Without the flush, a first moment fed exact-zero gradients
/// decays ×β₁ into the subnormals and sticks there (`β₁·m` rounds back to
/// `m`), and every later step runs on subnormal operands, an order of
/// magnitude slower on x86-64. Such a moment's update `lr·m̂` is already
/// below the smallest subnormal, so the flush leaves the parameters alone.
///
/// The SIMD path is bitwise identical to the scalar loop: every operation
/// involved (mul, add, sub, div, sqrt, the flush) is exact or correctly
/// rounded in both scalar and vector form, and lanes are independent
/// elements.
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
            let avx = match (bias1 == 1.0, bias2 == 1.0) {
                (false, false) => adam_update_avx::<true, true>,
                (true, false) => adam_update_avx::<false, true>,
                (false, true) => adam_update_avx::<true, false>,
                (true, true) => adam_update_avx::<false, false>,
            };
            // SAFETY: AVX verified at runtime; lengths asserted above; a
            // division is skipped only where its divisor is 1.0.
            unsafe { avx(p, g, m, v, lr, b1, b2, eps, bias1, bias2) };
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
        *mk = flush_subnormal(b1 * *mk + (1.0 - b1) * gk);
        *vk = flush_subnormal(b2 * *vk + (1.0 - b2) * gk * gk);
        let m_hat = *mk / bias1;
        let v_hat = *vk / bias2;
        *pk -= lr * m_hat / (v_hat.sqrt() + eps);
    }
}

/// `x`, or a zero of its sign when `|x|` is below `f32::MIN_POSITIVE`.
#[inline]
fn flush_subnormal(x: f32) -> f32 {
    if x.abs() < f32::MIN_POSITIVE {
        0.0_f32.copysign(x)
    } else {
        x
    }
}

/// Eight-lane [`flush_subnormal`]: clears every bit but the sign on lanes
/// whose magnitude is below `f32::MIN_POSITIVE`.
///
/// # Safety
///
/// Caller must ensure AVX support.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx")]
unsafe fn flush_subnormal256(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let sign = _mm256_set1_ps(-0.0);
    let tiny =
        _mm256_cmp_ps::<_CMP_LT_OQ>(_mm256_andnot_ps(sign, x), _mm256_set1_ps(f32::MIN_POSITIVE));
    _mm256_andnot_ps(_mm256_andnot_ps(sign, tiny), x)
}

/// The AVX path of [`adam_update`], dividing the first moment by `bias1`
/// only when `DIV1` and the second by `bias2` only when `DIV2`. A bias
/// correction of exactly `1.0` (`bias1` from step 165 on at β₁ = 0.9)
/// needs no division: `x / 1.0` returns `x` bit for bit for every `f32`,
/// ±0, subnormals, ±∞ and NaN included, so skipping it changes only the
/// divider's time, which bounds this loop.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX, that all slices have
/// equal length (asserted by [`adam_update`]), and that a skipped divisor
/// equals `1.0`.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx")]
unsafe fn adam_update_avx<const DIV1: bool, const DIV2: bool>(
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
        let mk = flush_subnormal256(_mm256_add_ps(
            _mm256_mul_ps(b1v, _mm256_loadu_ps(m.as_ptr().add(j))),
            _mm256_mul_ps(one_m_b1, gk),
        ));
        // (1-b2)*gk*gk evaluated as ((1-b2)*gk)*gk, matching the scalar.
        let vk = flush_subnormal256(_mm256_add_ps(
            _mm256_mul_ps(b2v, _mm256_loadu_ps(v.as_ptr().add(j))),
            _mm256_mul_ps(_mm256_mul_ps(one_m_b2, gk), gk),
        ));
        _mm256_storeu_ps(m.as_mut_ptr().add(j), mk);
        _mm256_storeu_ps(v.as_mut_ptr().add(j), vk);
        let m_hat = if DIV1 { _mm256_div_ps(mk, bias1v) } else { mk };
        let v_hat = if DIV2 { _mm256_div_ps(vk, bias2v) } else { vk };
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
        // Every width 1..=96: each tile count and masked last vector alone,
        // and after one full 64-wide span; strides cover the matmul (1) and
        // matmul_tn (column) access patterns.
        for w in 1usize..=96 {
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
    fn gemm_row4_paths_feed_zero_coefficients_alike() {
        // Zero coefficients meet ±inf and NaN in `b`, and some outputs
        // start at −0.0: the two inputs on which feeding a zero and
        // skipping it differ. Widths 1..=40 cover the 16-wide tiles and
        // both masked remainders, and the (row_step, k_stride) pairs the
        // matmul and matmul_tn access patterns. The NaN in `b` has the bits
        // of x86's default NaN (what `0 · inf` yields), so every NaN here
        // is the same whichever FMA operand the hardware propagates.
        let special = [f32::INFINITY, f32::NEG_INFINITY, -f32::NAN, 0.75, -1.25];
        for w in 1usize..=40 {
            for &(row_step, k_stride) in &[(7usize, 1usize), (1, 4)] {
                for k_count in [1usize, 2, 7] {
                    let a_len = 3 * row_step + (k_count - 1) * k_stride + 1;
                    let a: Vec<f32> = (0..a_len)
                        .map(|i| match i % 3 {
                            0 => 0.0,
                            1 => -0.0,
                            _ => (i as f32) * 0.19 - 1.3,
                        })
                        .collect();
                    let b: Vec<f32> = (0..(k_count - 1) * w + w)
                        .map(|i| {
                            if i % 4 == 1 {
                                special[i / 4 % special.len()]
                            } else {
                                (i as f32) * 0.05 - 1.7
                            }
                        })
                        .collect();
                    let mut fast: Vec<f32> = (0..4 * w)
                        .map(|i| if i % 2 == 0 { -0.0 } else { i as f32 * 0.02 })
                        .collect();
                    let mut slow = fast.clone();
                    gemm_row4(&a, row_step, k_stride, k_count, &b, w, &mut fast);
                    gemm_row4_scalar(&a, row_step, k_stride, k_count, &b, w, &mut slow);
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
        // The rule itself, on both paths: an all-zero coefficient column
        // turns a −0.0 start into +0.0 and meets an infinity as NaN, where
        // the skipping `gemm_row` leaves both outputs alone.
        let b = [2.0, f32::INFINITY];
        for dispatched in [true, false] {
            let mut o = [-0.0_f32; 8];
            if dispatched {
                gemm_row4(&[0.0; 4], 1, 1, 1, &b, 2, &mut o);
            } else {
                gemm_row4_scalar(&[0.0; 4], 1, 1, 1, &b, 2, &mut o);
            }
            for row in o.chunks_exact(2) {
                assert_eq!(row[0].to_bits(), 0.0_f32.to_bits(), "{dispatched}");
                assert!(row[1].is_nan(), "{dispatched}");
            }
        }
        let mut skipped = [-0.0_f32; 2];
        gemm_row(&[0.0], 1, 1, &b, 2, &mut skipped);
        assert!(skipped.iter().all(|x| x.to_bits() == (-0.0_f32).to_bits()));
    }

    #[test]
    fn every_gemm_row4_tier_matches_the_scalar_twin_bitwise() {
        // Each vector tier the CPU has, called directly, so the AVX tier
        // stays pinned on hosts that dispatch to AVX-512. Widths 1..=70
        // cover every masked remainder of the 64-column tiles, alone and
        // after a full tile (and the AVX tier's 16-wide tiles); k spans one
        // step to the Sub-Q's 109; both coefficient layouts run. Zero
        // coefficients (±0) meet ±inf and NaN in `b`, some outputs start
        // at −0.0, and every operand starts 0-15 floats past a 64-byte
        // boundary. The NaNs carry x86's default NaN bits (what `0 · inf`
        // yields), so every NaN here is the same whichever FMA operand the
        // hardware propagates.
        // SAFETY: a type only; each kernel is called below once its CPU
        // features are detected.
        type Kernel = unsafe fn(&[f32], usize, usize, usize, &[f32], usize, &mut [f32]);
        let mut tiers: Vec<(&str, Kernel)> = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if avx512f_available() {
                tiers.push(("avx512f", gemm_row4_avx512));
            }
            if avx_available() && fma_available() {
                tiers.push(("avx+fma", gemm_row4_avx));
            }
        }
        let special = [f32::INFINITY, f32::NEG_INFINITY, -f32::NAN, 0.75, -1.25];
        // Aligned backing stores; each operand is a slice `off` floats in.
        let backing = |len: usize, off: usize, f: &dyn Fn(usize) -> f32| {
            let mut m = crate::matrix::Matrix::zeros(1, len + off);
            for (i, x) in m.as_mut_slice()[off..].iter_mut().enumerate() {
                *x = f(i);
            }
            m
        };
        let mut case = 0usize;
        for w in 1usize..=70 {
            for k_count in [1usize, 7, 32, 109] {
                // (row_step, k_stride): matmul passes four rows of a
                // k-wide left operand, matmul_tn four columns of a 4-wide one.
                for (row_step, k_stride) in [(k_count, 1usize), (1, 4)] {
                    case += 1;
                    let (off_a, off_b, off_o) = (case % 16, (case * 7) % 16, (case * 11) % 16);
                    let a_len = 3 * row_step + (k_count - 1) * k_stride + 1;
                    let a = backing(a_len, off_a, &|i| match i % 5 {
                        0 => 0.0,
                        1 => -0.0,
                        _ => (i as f32) * 0.19 - 1.3,
                    });
                    let b = backing(k_count * w, off_b, &|i| {
                        if i % 9 == 4 {
                            special[i / 9 % special.len()]
                        } else {
                            (i as f32) * 0.05 - 1.7
                        }
                    });
                    let o = backing(4 * w, off_o, &|i| {
                        if i % 3 == 0 {
                            -0.0
                        } else {
                            i as f32 * 0.02
                        }
                    });
                    let (a, b) = (&a.as_slice()[off_a..], &b.as_slice()[off_b..]);
                    let mut expected = o.as_slice()[off_o..].to_vec();
                    gemm_row4_scalar(a, row_step, k_stride, k_count, b, w, &mut expected);
                    for &(tier, kernel) in &tiers {
                        let mut out = o.clone();
                        let out = &mut out.as_mut_slice()[off_o..];
                        // SAFETY: the tier's features were detected above,
                        // and the slices cover the four rows, the strides
                        // and the `k_count` rows of `b` at width `w`.
                        unsafe { kernel(a, row_step, k_stride, k_count, b, w, out) };
                        for (i, (x, y)) in out.iter().zip(&expected).enumerate() {
                            assert_eq!(
                                x.to_bits(),
                                y.to_bits(),
                                "{tier} w={w} k={k_count} row_step={row_step} \
                                 offsets=({off_a},{off_b},{off_o}) i={i}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn mul_elu_derivative_matches_the_per_element_derivative_bitwise() {
        // Every length 0..=17 runs the eight-lane body, the scalar tail or
        // both; the pre-activations cycle through ±0, subnormals, ±inf,
        // NaN and ordinary values, so each lands in every lane position.
        let pre_values = [
            0.0,
            -0.0,
            1e-40,
            -1e-40,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            0.3,
            -2.5,
            f32::MIN_POSITIVE,
        ];
        for alpha in [1.0_f32, 0.5] {
            for n in 0..=17usize {
                let pre: Vec<f32> = (0..n)
                    .map(|i| pre_values[(i + n) % pre_values.len()])
                    .collect();
                let post: Vec<f32> = pre
                    .iter()
                    .enumerate()
                    .map(|(i, &x)| {
                        if x.is_nan() {
                            0.5
                        } else {
                            crate::activation::Activation::Elu(alpha).apply(x) + i as f32 * 1e-3
                        }
                    })
                    .collect();
                let grads: Vec<f32> = (0..n).map(|i| (i as f32 - 6.5) * 0.37).collect();
                let mut fast = grads.clone();
                mul_elu_derivative(&mut fast, &pre, &post, alpha);
                let mut slow = grads.clone();
                for ((g, &x), &y) in slow.iter_mut().zip(&pre).zip(&post) {
                    *g *= crate::activation::Activation::Elu(alpha).derivative(x, y);
                }
                for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "alpha={alpha} n={n} i={i}");
                    if pre[i].is_nan() {
                        // NaN takes the `y + alpha` side, as the scalar `if`.
                        assert_eq!(*a, grads[i] * (0.5 + alpha), "alpha={alpha} n={n} i={i}");
                    }
                }
            }
        }
    }

    #[test]
    fn transpose_matches_scalar_for_every_edge_shape() {
        // Shapes up to 19 x 19 give every combination of full 8 x 8 blocks
        // and masked edge blocks; 31 x 120 is the LSTM gate-weight shape.
        let shapes = (1..=19).flat_map(|r| (1..=19).map(move |c| (r, c)));
        for (rows, cols) in shapes.chain([(31, 120)]) {
            let src: Vec<f32> = (0..rows * cols).map(|i| i as f32 * 0.5 - 3.0).collect();
            let mut fast = vec![f32::NAN; rows * cols];
            transpose(&src, rows, cols, &mut fast);
            for i in 0..rows {
                for j in 0..cols {
                    assert_eq!(
                        fast[j * rows + i].to_bits(),
                        src[i * cols + j].to_bits(),
                        "{rows}x{cols} at ({i},{j})"
                    );
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
        // Moments near and below `f32::MIN_POSITIVE` (some fed zero
        // gradients) exercise the subnormal flush of both paths; ±0, ±inf
        // and NaN reach every operand. Bias corrections of exactly 1.0,
        // which the vector path does not divide by, run next to ordinary
        // ones. The NaNs carry x86's default NaN bits, the ones every
        // invalid operation here yields, so each NaN result is the same
        // whichever operand the hardware propagates.
        let tiny = [
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::MIN_POSITIVE * 1.2,
            f32::MIN_POSITIVE * 0.9,
            -6e-45,
            1e-40,
            0.0,
            -0.0,
        ];
        let special = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -f32::NAN,
            1e-40,
        ];
        for (bias1, bias2) in [(0.1, 0.002), (1.0, 0.002), (0.1, 1.0), (1.0, 1.0)] {
            for n in [1usize, 7, 8, 9, 31, 64] {
                let g: Vec<f32> = (0..n)
                    .map(|i| match i % 5 {
                        0 => 0.0,
                        4 => special[i / 5 % special.len()],
                        _ => (i as f32 - 3.0) * 0.21,
                    })
                    .collect();
                let mut p1: Vec<f32> = (0..n)
                    .map(|i| {
                        if i % 7 == 6 {
                            special[i / 7 % special.len()]
                        } else {
                            i as f32 * 0.1
                        }
                    })
                    .collect();
                let mut m1: Vec<f32> = (0..n)
                    .map(|i| match i % 4 {
                        0 | 2 => tiny[i / 2 % 8],
                        3 => special[i / 4 % special.len()],
                        _ => i as f32 * -0.03,
                    })
                    .collect();
                let mut v1: Vec<f32> = (0..n)
                    .map(|i| match i % 4 {
                        1 => tiny[i / 2 % 8].abs(),
                        2 => special[(i / 4 + 2) % special.len()],
                        _ => i as f32 * 0.02,
                    })
                    .collect();
                let (mut p2, mut m2, mut v2) = (p1.clone(), m1.clone(), v1.clone());
                adam_update(
                    &mut p1, &g, &mut m1, &mut v1, 1e-3, 0.9, 0.999, 1e-8, bias1, bias2,
                );
                adam_update_scalar(
                    &mut p2, &g, &mut m2, &mut v2, 1e-3, 0.9, 0.999, 1e-8, bias1, bias2,
                );
                for (i, (a, b)) in p1
                    .iter()
                    .zip(&p2)
                    .chain(m1.iter().zip(&m2))
                    .chain(v1.iter().zip(&v2))
                    .enumerate()
                {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "bias=({bias1}, {bias2}) n={n} i={i}"
                    );
                }
            }
        }
    }
}
