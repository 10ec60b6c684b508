//! A minimal dense row-major `f32` matrix used throughout the neural substrate.
//!
//! The networks in this crate are tiny (at most a few hundred units per
//! layer), so a straightforward cache-friendly implementation is more than
//! fast enough and keeps the crate dependency-free.

use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::ops::{Deref, DerefMut, Index, IndexMut};

/// A dense row-major matrix of `f32` values.
///
/// Rows are the batch dimension throughout this crate: a batch of `n`
/// feature vectors of width `d` is an `n x d` matrix.
///
/// The elements start on a 64-byte boundary: `as_slice().as_ptr()` is
/// 64-byte aligned for every non-empty matrix, however it was built
/// (constructors, `clone`, reshaping, deserialization). A row whose width
/// is a multiple of 16 then starts a cache line too, so the GEMM kernels'
/// 64-byte vector loads of it never split one (see the `simd` module doc);
/// with the 16-byte alignment of a plain `Vec<f32>`, where the heap
/// happened to put a buffer decided that. The storage holds up to 15
/// floats of padding ahead of the elements to get there; no view, clone
/// or serialization shows them.
///
/// # Examples
///
/// ```
/// use hierdrl_neural::matrix::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
/// let c = a.matmul(&b);
/// assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
/// assert_eq!(c.as_slice().as_ptr() as usize % 64, 0);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: AlignedBuf,
}

/// The alignment, in bytes, of every matrix's first element.
const ALIGN: usize = 64;

/// Floats a buffer holds beyond its elements so that a 64-byte boundary
/// falls within its first sixteen floats, wherever the heap puts it (an
/// `f32` allocation is at least 4-byte aligned).
const PAD: usize = ALIGN / 4 - 1;

/// `Vec<f32>` storage whose elements start on a 64-byte boundary: `buf`
/// holds `start` leading floats of padding, then the elements, so that
/// `buf[start..]` is aligned; `start` is at most [`PAD`]. An empty buffer
/// holds nothing, padding included. It serializes as the float array a
/// `Vec<f32>` gives.
#[derive(Default)]
struct AlignedBuf {
    buf: Vec<f32>,
    start: usize,
}

impl AlignedBuf {
    /// `len` zeros, in memory the allocator hands out zeroed (`vec!`'s
    /// path), as `Vec<f32>` storage got them.
    fn zeros(len: usize) -> Self {
        if len == 0 {
            return Self::default();
        }
        let mut buf = vec![0.0; len + PAD];
        let start = aligned_start(&buf);
        buf.truncate(start + len);
        Self { buf, start }
    }

    /// A copy of `values`.
    fn from_slice(values: &[f32]) -> Self {
        let mut out = Self::default();
        out.assign(values);
        out
    }

    /// Empties the buffer and makes room for `len` aligned floats, leaving
    /// `buf` holding just the padding before them. The allocation is kept
    /// when it holds `len` plus [`PAD`] floats, and otherwise grows the way
    /// `Vec::reserve` grows it, as `Vec`'s `clear` and `resize` would. The
    /// test is on sizes alone, not on where the allocation starts, so which
    /// calls allocate never depends on where the heap put a buffer.
    fn clear_for(&mut self, len: usize) {
        self.buf.clear();
        self.start = 0;
        if len == 0 {
            return;
        }
        if len + PAD > self.buf.capacity() {
            self.buf.reserve(len + PAD);
        }
        self.start = aligned_start(&self.buf);
        self.buf.resize(self.start, 0.0);
    }

    /// Becomes `len` zeros, reusing the allocation (see
    /// [`AlignedBuf::clear_for`]).
    fn reset_zeros(&mut self, len: usize) {
        self.clear_for(len);
        self.buf.resize(self.start + len, 0.0);
    }

    /// Becomes a copy of `src`, reusing the allocation (see
    /// [`AlignedBuf::clear_for`]).
    fn assign(&mut self, src: &[f32]) {
        self.clear_for(src.len());
        self.buf.extend_from_slice(src);
    }
}

/// How many floats into `buf`'s allocation its first 64-byte boundary
/// lies.
fn aligned_start(buf: &[f32]) -> usize {
    let addr = buf.as_ptr() as usize;
    (ALIGN - addr % ALIGN) % ALIGN / 4
}

impl Clone for AlignedBuf {
    fn clone(&self) -> Self {
        Self::from_slice(self)
    }
}

impl Deref for AlignedBuf {
    type Target = [f32];

    #[inline]
    fn deref(&self) -> &[f32] {
        &self.buf[self.start..]
    }
}

impl DerefMut for AlignedBuf {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf[self.start..]
    }
}

impl PartialEq for AlignedBuf {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Serialize for AlignedBuf {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Deserialize for AlignedBuf {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Vec::<f32>::from_value(v).map(|data| AlignedBuf::from_slice(&data))
    }
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows
            .checked_mul(cols)
            .expect("matrix dimensions overflow usize");
        Self {
            rows,
            cols,
            data: AlignedBuf::zeros(len),
        }
    }

    /// Creates a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        m.data.fill(value);
        m
    }

    /// Creates a matrix from a flat row-major vector, copied once into
    /// aligned storage.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self {
            rows,
            cols,
            data: AlignedBuf::from_slice(&data),
        }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut m = Self::zeros(rows.len(), cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "row {i} has inconsistent length");
            m.row_mut(i).copy_from_slice(r);
        }
        m
    }

    /// Creates a `1 x n` row vector from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Self {
            rows: 1,
            cols: values.len(),
            data: AlignedBuf::from_slice(values),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data, starting on a 64-byte boundary.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data, starting on a 64-byte
    /// boundary.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies row `r` into a new `1 x cols` matrix.
    pub fn row_matrix(&self, r: usize) -> Matrix {
        Matrix::row_vector(self.row(r))
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Writes the transpose into `out` (reshaped in place, reusing its
    /// allocation). Bitwise identical to [`Matrix::transpose`].
    pub fn transpose_into(&self, out: &mut Matrix) {
        let (rows, cols) = self.shape();
        out.shape_for_overwrite(cols, rows);
        crate::simd::transpose(&self.data, rows, cols, &mut out.data);
    }

    /// Gives the matrix the shape `rows x cols` for a pass that overwrites
    /// every element: it reallocates (zeroed) only when the shape changes,
    /// and otherwise keeps the stale contents instead of zeroing them.
    pub(crate) fn shape_for_overwrite(&mut self, rows: usize, cols: usize) {
        if self.shape() != (rows, cols) {
            self.resize_to(rows, cols);
        }
    }

    /// Becomes an element-wise copy of `src`, adopting its shape while
    /// reusing the existing allocation — unlike [`Matrix::resize_to`] the
    /// previous contents are simply replaced, with no zeroing pass.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.assign(&src.data);
    }

    /// Reshapes to `rows x cols` in place, reusing the existing allocation
    /// when it is large enough. All elements are reset to zero; any previous
    /// contents are discarded.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn resize_to(&mut self, rows: usize, cols: usize) {
        let len = rows
            .checked_mul(cols)
            .expect("matrix dimensions overflow usize");
        self.rows = rows;
        self.cols = cols;
        self.data.reset_zeros(len);
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix product `self * rhs`, written into `out` (resized and zeroed
    /// first, reusing its allocation). Produces bitwise-identical results to
    /// [`Matrix::matmul`].
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            rhs.rows,
            "matmul shape mismatch: {:?} x {:?}",
            self.shape(),
            rhs.shape()
        );
        out.resize_to(self.rows, rhs.cols);
        // Narrow outputs (fewer columns than one SIMD lane-group) would run
        // almost entirely in the scalar tail; computing the transposed
        // product instead makes the wide `self.rows` dimension the
        // vectorized one. Every output element still accumulates its
        // products in ascending-`k` order, so the result is bitwise
        // identical: whether a zero operand's `±0.0` term is skipped
        // (`gemm_row`) or added (`gemm_row4`), it cannot change a finite
        // accumulation that does not hold `−0.0` (see the `simd` module
        // doc).
        if rhs.cols < 8 && self.rows >= 8 && self.cols >= 8 {
            let at = self.transpose();
            let mut out_t = Matrix::zeros(rhs.cols, self.rows);
            let mut j = 0;
            while j + 4 <= rhs.cols {
                crate::simd::gemm_row4(
                    &rhs.data[j..],
                    1,
                    rhs.cols,
                    rhs.rows,
                    &at.data,
                    at.cols,
                    &mut out_t.data[j * self.rows..(j + 4) * self.rows],
                );
                j += 4;
            }
            for j in j..rhs.cols {
                let o_row = &mut out_t.data[j * self.rows..(j + 1) * self.rows];
                crate::simd::gemm_row(&rhs.data[j..], rhs.cols, rhs.rows, &at.data, at.cols, o_row);
            }
            for i in 0..self.rows {
                for j in 0..rhs.cols {
                    out.data[i * rhs.cols + j] = out_t.data[j * self.rows + i];
                }
            }
            return;
        }
        // Register-blocked GEMM rows: each output element accumulates its
        // products in ascending-`k` order, so the vectorized kernel is
        // bitwise identical to the naive i-k-j loop this replaces. Rows go
        // four at a time so narrow outputs still keep several independent
        // add chains in flight; the four-row blocks feed every coefficient
        // and the leftover rows skip zero ones (see `simd::gemm_row4`).
        let mut i = 0;
        while i + 4 <= self.rows {
            crate::simd::gemm_row4(
                &self.data[i * self.cols..(i + 4) * self.cols],
                self.cols,
                1,
                self.cols,
                &rhs.data,
                rhs.cols,
                &mut out.data[i * rhs.cols..(i + 4) * rhs.cols],
            );
            i += 4;
        }
        for i in i..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let o_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            crate::simd::gemm_row(a_row, 1, self.cols, &rhs.data, rhs.cols, o_row);
        }
    }

    /// Computes `self * rhs^T`.
    ///
    /// Shapes: `self` is `n x a`, `rhs` is `m x a`, result is `n x m`.
    ///
    /// Internally materializes `rhs^T` and runs the streaming `matmul`
    /// kernel: row-of-`rhs^T` axpys vectorize across output columns, where
    /// the direct row-dot formulation is latency-bound on the sequential
    /// FP-add chain (~2.5x slower at the DQN back-prop shapes). Each output
    /// element still accumulates its products in ascending shared-dimension
    /// order, so results are bitwise identical to the direct form.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            rhs.cols,
            "matmul_nt shape mismatch: {:?} x {:?}",
            self.shape(),
            rhs.shape()
        );
        self.matmul(&rhs.transpose())
    }

    /// Accumulates `a^T * b` into `self` without materializing the product
    /// (`self[i][j] += Σ_n a[n][i]·b[n][j]`, terms added in ascending `n`
    /// per element). This is the crate's one `a^T b` kernel: every weight
    /// gradient accumulates through it.
    ///
    /// # Panics
    ///
    /// Panics if the row counts of `a` and `b` differ or `self` is not
    /// `a.cols x b.cols`.
    pub fn add_matmul_tn(&mut self, a: &Matrix, b: &Matrix) {
        assert_eq!(a.rows, b.rows, "add_matmul_tn row count mismatch");
        assert_eq!(
            self.shape(),
            (a.cols, b.cols),
            "add_matmul_tn output shape mismatch"
        );
        // The gemm kernels accumulate into the output row, so they serve
        // the += contract directly: output row `i` is column `i` of `a`
        // against the rows of `b`, terms in ascending `n` — the same
        // per-element order as the rank-1 axpy sweep this replaces, but
        // with `b`'s rows loaded once per four output rows instead of once
        // per output row. Four-row blocks feed zero coefficients, leftover
        // rows skip them (see the `simd` module doc on why both rules
        // agree).
        let mut i = 0;
        while i + 4 <= a.cols {
            crate::simd::gemm_row4(
                &a.data[i..],
                1,
                a.cols,
                a.rows,
                &b.data,
                b.cols,
                &mut self.data[i * b.cols..(i + 4) * b.cols],
            );
            i += 4;
        }
        for i in i..a.cols {
            crate::simd::gemm_row(
                &a.data[i..],
                a.cols,
                a.rows,
                &b.data,
                b.cols,
                &mut self.data[i * b.cols..(i + 1) * b.cols],
            );
        }
    }

    /// In-place `self += alpha * rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, rhs: &Matrix) {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "axpy shape mismatch: {:?} vs {:?}",
            self.shape(),
            rhs.shape()
        );
        crate::simd::add_scaled(&mut self.data, &rhs.data, alpha);
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale(&mut self, alpha: f32) {
        for x in self.data.iter_mut() {
            *x *= alpha;
        }
    }

    /// Sets every element to zero.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Adds a `1 x cols` row vector to every row (broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 x self.cols`.
    pub fn add_row_broadcast(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (x, &b) in row.iter_mut().zip(bias.data.iter()) {
                *x += b;
            }
        }
    }

    /// Sums the rows into a `1 x cols` row vector.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::default();
        self.sum_rows_into(&mut out);
        out
    }

    /// Sums the rows into `out` as a `1 x cols` row vector (resized in
    /// place, reusing its allocation). Bitwise identical to
    /// [`Matrix::sum_rows`].
    pub fn sum_rows_into(&self, out: &mut Matrix) {
        out.resize_to(1, self.cols);
        for r in 0..self.rows {
            for (o, &x) in out.data.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
    }

    /// Squared Frobenius norm (sum of squared elements).
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Horizontally concatenates matrices with identical row counts.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or row counts differ.
    pub fn hcat(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "hcat requires at least one matrix");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|m| m.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut offset = 0;
            for m in parts {
                assert_eq!(m.rows, rows, "hcat row count mismatch");
                out.data[r * cols + offset..r * cols + offset + m.cols].copy_from_slice(m.row(r));
                offset += m.cols;
            }
        }
        out
    }

    /// Extracts columns `[start, start + width)` into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the matrix width.
    pub fn slice_cols(&self, start: usize, width: usize) -> Matrix {
        assert!(
            start + width <= self.cols,
            "column slice {}..{} out of bounds (cols = {})",
            start,
            start + width,
            self.cols
        );
        let mut out = Matrix::zeros(self.rows, width);
        for r in 0..self.rows {
            out.row_mut(r)
                .copy_from_slice(&self.row(r)[start..start + width]);
        }
        out
    }

    /// `true` if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Default for Matrix {
    /// An empty `0 x 0` matrix (useful as the initial state of reusable
    /// workspace buffers).
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(12) {
                write!(f, "{:9.4}", self[(r, c)])?;
                if c + 1 < self.cols.min(12) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 12 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_correct_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn add_matmul_tn_accumulates_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0, 7.0], &[8.0, 9.0, 10.0]]);
        let mut acc = Matrix::filled(2, 3, 1.0);
        acc.add_matmul_tn(&a, &b);
        let mut expected = Matrix::filled(2, 3, 1.0);
        expected.axpy(1.0, &a.transpose().matmul(&b));
        assert_eq!(acc, expected);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[2.0, 1.0, 0.0]]);
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_row_broadcast_adds_bias_to_every_row() {
        let mut a = Matrix::zeros(3, 2);
        a.add_row_broadcast(&Matrix::row_vector(&[1.0, -2.0]));
        for r in 0..3 {
            assert_eq!(a.row(r), &[1.0, -2.0]);
        }
    }

    #[test]
    fn sum_rows_collapses_batch() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.sum_rows(), Matrix::row_vector(&[4.0, 6.0]));
    }

    #[test]
    fn hcat_concatenates_columns() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let c = Matrix::hcat(&[&a, &b]);
        assert_eq!(c, Matrix::from_rows(&[&[1.0, 3.0, 4.0], &[2.0, 5.0, 6.0]]));
    }

    #[test]
    fn slice_cols_extracts_block() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(
            a.slice_cols(1, 2),
            Matrix::from_rows(&[&[2.0, 3.0], &[5.0, 6.0]])
        );
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::filled(2, 2, 1.0);
        a.axpy(2.0, &Matrix::filled(2, 2, 3.0));
        assert_eq!(a, Matrix::filled(2, 2, 7.0));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "row 5 out of bounds")]
    fn row_out_of_bounds_panics() {
        let a = Matrix::zeros(2, 2);
        let _ = a.row(5);
    }

    #[test]
    fn resize_to_reuses_allocation_and_zeroes() {
        let mut m = Matrix::filled(4, 4, 7.0);
        m.resize_to(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        m.resize_to(5, 5);
        assert_eq!(m.shape(), (5, 5));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn matmul_into_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let mut out = Matrix::filled(7, 1, 9.0); // stale shape and contents
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
    }

    #[test]
    fn serde_round_trip() {
        let a = Matrix::from_rows(&[&[1.5, -2.5], &[0.0, 4.25]]);
        let json = serde_json::to_string(&a).unwrap();
        let b: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(a, b);
    }

    /// Whether `m`'s first element sits on a 64-byte boundary.
    fn aligned(m: &Matrix) -> bool {
        (m.as_slice().as_ptr() as usize).is_multiple_of(64)
    }

    #[test]
    fn every_way_of_building_a_matrix_aligns_its_storage() {
        // Sizes from one float to several cache lines, none a multiple of
        // sixteen floats, so no size lands on a boundary by luck.
        for (rows, cols) in [(1, 1), (1, 15), (3, 7), (5, 17), (9, 109)] {
            let len = rows * cols;
            let values: Vec<f32> = (0..len).map(|i| i as f32 * 0.5 - 3.0).collect();
            let row_slices: Vec<&[f32]> = values.chunks(cols).collect();
            let built = [
                ("zeros", Matrix::zeros(rows, cols)),
                ("filled", Matrix::filled(rows, cols, 2.5)),
                ("from_vec", Matrix::from_vec(rows, cols, values.clone())),
                ("from_rows", Matrix::from_rows(&row_slices)),
            ];
            for (how, m) in &built {
                assert!(aligned(m), "{how} {rows}x{cols}");
                assert_eq!(m.len(), len, "{how} {rows}x{cols}");
            }
            let m = &built[2].1;
            assert_eq!(m.as_slice(), &values[..]);
            assert!(aligned(&m.clone()), "clone {rows}x{cols}");
            // Growing from a smaller allocation moves the buffer, so the
            // padding before the first element is recomputed.
            let mut grown = Matrix::zeros(1, 1);
            grown.resize_to(rows, cols + 40);
            assert!(aligned(&grown), "resize_to {rows}x{cols}");
            assert!(grown.as_slice().iter().all(|&x| x == 0.0));
            let mut copied = Matrix::zeros(1, 1);
            copied.copy_from(m);
            assert!(aligned(&copied), "copy_from {rows}x{cols}");
            assert_eq!(copied, *m);
            let mut t = Matrix::zeros(1, 1);
            m.transpose_into(&mut t);
            assert!(aligned(&t), "transpose_into {rows}x{cols}");
            assert_eq!(t, m.transpose());
            let json = serde_json::to_string(m).unwrap();
            let back: Matrix = serde_json::from_str(&json).unwrap();
            assert!(aligned(&back), "deserialized {rows}x{cols}");
            assert_eq!(back, *m);
        }
    }

    #[test]
    fn storage_reuse_depends_on_sizes_not_on_addresses() {
        // If whether a reshape keeps its allocation depended on where the
        // heap put the buffer, one allocation shifted anywhere before it
        // would change which later reshapes allocate, and with them the
        // layout of the whole heap.
        for len in [1, 15, 16, 17, 109, 1000] {
            for spare in 0..2 * PAD {
                let mut b = AlignedBuf {
                    buf: Vec::with_capacity(len + spare),
                    start: 0,
                };
                b.clear_for(len);
                if spare >= PAD {
                    assert_eq!(b.buf.capacity(), len + spare, "len {len}, spare {spare}");
                } else {
                    assert!(b.buf.capacity() >= len + PAD, "len {len}, spare {spare}");
                }
                assert!((b.as_ptr() as usize).is_multiple_of(ALIGN));
            }
        }
    }

    #[test]
    fn json_wire_format_is_rows_cols_and_the_flat_data() {
        // Byte-equal to what the `Vec<f32>`-backed matrix printed: aligned
        // storage adds padding that no view or serialization shows.
        let m = Matrix::from_rows(&[
            &[1.5, -2.5, 0.0, 1e-3, -0.0, 3.0e38, 7.0, 0.1, 1e-40],
            &[
                4.25,
                f32::MIN_POSITIVE,
                -1.0,
                2.0,
                0.333_333_34,
                12_345.678,
                -9.5,
                0.5,
                100.0,
            ],
        ]);
        let expected = concat!(
            r#"{"rows":2,"cols":9,"data":[1.5,-2.5,0.0,0.0010000000474974513,-0.0,"#,
            r#"300000000549775580000000000000000000000,7.0,0.10000000149011612,"#,
            r#"0.0000000000000000000000000000000000000000999994610111476,4.25,"#,
            r#"0.000000000000000000000000000000000000011754943508222875,-1.0,2.0,"#,
            r#"0.3333333432674408,12345.677734375,-9.5,0.5,100.0]}"#,
        );
        let json = serde_json::to_string(&m).unwrap();
        assert_eq!(json, expected);
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(back.shape(), (2, 9));
        for (a, b) in back.as_slice().iter().zip(m.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for empty in [Matrix::default(), Matrix::zeros(0, 3)] {
            let json = serde_json::to_string(&empty).unwrap();
            assert_eq!(
                json,
                format!(r#"{{"rows":0,"cols":{},"data":[]}}"#, empty.cols())
            );
            assert_eq!(serde_json::from_str::<Matrix>(&json).unwrap(), empty);
        }
    }
}
