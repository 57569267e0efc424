//! Dense row-major `f32` matrices: the tensor type of the NN substrate.
//!
//! Kept deliberately small: exactly the operations the MLP, optimizers, and
//! K-FAC need, with shape checks on every operation.

use crate::simd::GemmKernel;
use rand::Rng;
use serde::{Deserialize, Serialize, Value};
use std::cell::RefCell;
use std::fmt;
use std::ops::{Deref, DerefMut};

/// A dense row-major matrix of `f32`, whose first element sits on a
/// 64-byte boundary.
///
/// # Example
///
/// ```
/// use dosco_nn::matrix::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Debug, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: AlignedBuf,
}

/// The empty `0 × 0` matrix, which allocates nothing: a buffer's state
/// before its first use.
impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

/// `clone_from` copies into the allocation it already has whenever that is
/// large enough: what a buffer kept from one update to the next, or a
/// snapshot's weights, is overwritten with.
impl Clone for Matrix {
    fn clone(&self) -> Self {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

/// A matrix's `f32` storage, starting on a 64-byte boundary: a row of a
/// kernel tile then spans whole cache lines, and no 32-byte load splits
/// across two. The allocator only promises 16 bytes — a block of 128 KiB
/// or more is its own `mmap` and starts 16 bytes into a page — so the
/// buffer over-allocates by [`AlignedBuf::SLACK`] elements and starts
/// `off` elements in. Every new allocation re-derives `off`, which is why
/// `Clone` is written out: a derived one would copy the old offset.
struct AlignedBuf {
    /// `off` elements of padding, then the contents.
    buf: Vec<f32>,
    off: usize,
}

impl AlignedBuf {
    /// The most padding a 64-byte boundary can need from an `f32` address.
    const SLACK: usize = 64 / std::mem::size_of::<f32>() - 1;

    /// An empty buffer, which allocates nothing.
    const fn new() -> Self {
        AlignedBuf {
            buf: Vec::new(),
            off: 0,
        }
    }

    /// How many elements past `start` the first 64-byte boundary is.
    fn offset(start: *const f32) -> usize {
        start.align_offset(64).min(Self::SLACK)
    }

    /// `len` zeros, from the allocator's zeroed path.
    fn zeros(len: usize) -> Self {
        if len == 0 {
            return Self::new();
        }
        let mut buf = vec![0.0; len + Self::SLACK];
        let off = Self::offset(buf.as_ptr());
        buf.truncate(off + len);
        AlignedBuf { buf, off }
    }

    /// The first `len` elements of `items`, written straight into a fresh
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if `items` holds fewer than `len` elements.
    fn collect(len: usize, items: impl IntoIterator<Item = f32>) -> Self {
        if len == 0 {
            return Self::new();
        }
        let mut buf = Vec::with_capacity(len + Self::SLACK);
        let off = Self::offset(buf.as_ptr());
        buf.resize(off, 0.0);
        buf.extend(items.into_iter().take(len));
        assert_eq!(buf.len() - off, len, "buffer needs {len} elements");
        AlignedBuf { buf, off }
    }

    /// Resizes to `len` elements, contents unspecified: in place while the
    /// allocation has room, else in a fresh one.
    fn resize(&mut self, len: usize) {
        if self.off + len <= self.buf.capacity() {
            self.buf.resize(self.off + len, 0.0);
        } else {
            *self = Self::zeros(len);
        }
    }

    /// The first `len` elements, growing the buffer first (contents
    /// unspecified) if it is shorter.
    fn prefix_mut(&mut self, len: usize) -> &mut [f32] {
        if self.len() < len {
            self.resize(len);
        }
        &mut self[..len]
    }
}

impl Deref for AlignedBuf {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.buf[self.off..]
    }
}

impl DerefMut for AlignedBuf {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf[self.off..]
    }
}

impl Clone for AlignedBuf {
    fn clone(&self) -> Self {
        Self::collect(self.len(), self.iter().copied())
    }

    fn clone_from(&mut self, source: &Self) {
        self.resize(source.len());
        self.copy_from_slice(source);
    }
}

impl PartialEq for AlignedBuf {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for AlignedBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// The contents alone, as the `Vec<f32>` this type replaced wrote them.
impl Serialize for AlignedBuf {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

/// Rejects a `data` array whose length is not `rows · cols`.
impl Deserialize for Matrix {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::new("expected object for Matrix"))?;
        let rows: usize = serde::field(obj, "rows", "Matrix")?;
        let cols: usize = serde::field(obj, "cols", "Matrix")?;
        let items = v
            .get("data")
            .and_then(Value::as_array)
            .ok_or_else(|| serde::Error::new("field `data` of Matrix: expected array"))?;
        let len = rows
            .checked_mul(cols)
            .filter(|&len| len == items.len())
            .ok_or_else(|| {
                serde::Error::new(format!(
                    "Matrix data has {} elements, but {rows}x{cols} needs {}",
                    items.len(),
                    rows.saturating_mul(cols)
                ))
            })?;
        let mut error = Ok(());
        let data = AlignedBuf::collect(
            len,
            items.iter().map(|item| {
                f32::from_value(item).unwrap_or_else(|e| {
                    error = Err(e);
                    f32::NAN
                })
            }),
        );
        error.map_err(|e| serde::Error::new(format!("field `data` of Matrix: {e}")))?;
        Ok(Matrix { rows, cols, data })
    }
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: AlignedBuf::zeros(rows * cols),
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let cells = (0..rows).flat_map(|r| (0..cols).map(move |c| (r, c)));
        Matrix {
            rows,
            cols,
            data: AlignedBuf::collect(rows * cols, cells.map(|(r, c)| f(r, c))),
        }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths or there are no rows.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have the same length");
        }
        Matrix {
            rows: rows.len(),
            cols,
            data: AlignedBuf::collect(rows.len() * cols, rows.iter().copied().flatten().copied()),
        }
    }

    /// Copies an existing buffer into a matrix.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix {
            rows,
            cols,
            data: AlignedBuf::collect(rows * cols, data),
        }
    }

    /// A single-row matrix (e.g. one observation).
    pub fn row_vector(values: &[f32]) -> Self {
        Matrix::from_rows(&[values])
    }

    /// Xavier/Glorot-uniform initialization for a `fan_in × fan_out` weight
    /// matrix, suitable for tanh networks (Sec. V-A2 uses tanh).
    pub fn xavier_uniform<R: Rng + ?Sized>(fan_in: usize, fan_out: usize, rng: &mut R) -> Self {
        let limit = (6.0 / (fan_in + fan_out) as f64).sqrt() as f32;
        Matrix::from_fn(fan_in, fan_out, |_, _| rng.gen_range(-limit..limit))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The `(r, c)` element.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets the `(r, c)` element.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshapes to `rows × cols` in place, reusing the allocation where
    /// possible and leaving the contents unspecified: for scratch buffers
    /// whose next use overwrites every element.
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols);
    }

    /// Matrix product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// Matrix product `self · other` written into a preallocated `out`
    /// (`self.rows × other.cols`), overwriting its contents. The kernel is
    /// register-tiled and walks `out` in row blocks; each output element
    /// accumulates in ascending-`k` order with a single `f32` accumulator,
    /// so the result is bit-identical to [`Matrix::matmul_ref`].
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch or if `out` has the wrong shape.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_into_with(other, out, crate::simd::active());
    }

    /// [`Matrix::matmul_into`] with an explicitly forced GEMM kernel,
    /// clamped to the best the CPU supports
    /// ([`GemmKernel::best_available`]). Lets benches and equivalence
    /// tests compare scalar/AVX2/AVX-512 in one process regardless of
    /// `DOSCO_SIMD`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch or if `out` has the wrong shape.
    pub fn matmul_into_with(&self, other: &Matrix, out: &mut Matrix, kernel: GemmKernel) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.cols),
            "matmul output shape mismatch"
        );
        gemm(&self.data, &other.data, self.cols, out, false, kernel);
    }

    /// `selfᵀ · other`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch (`self.rows != other.rows`).
    pub fn transpose_matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.transpose_matmul_into(other, &mut out);
        out
    }

    /// `selfᵀ · other` written into a preallocated `out`
    /// (`self.cols × other.cols`), overwriting its contents: `selfᵀ` is
    /// packed into a per-thread scratch buffer and the product runs on the
    /// [`Matrix::matmul_into`] kernel, so it is bit-identical to
    /// [`Matrix::transpose_matmul_ref`].
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or if `out` has the wrong shape.
    pub fn transpose_matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        self.transpose_matmul_into_with(other, out, crate::simd::active());
    }

    /// [`Matrix::transpose_matmul_into`] with an explicitly forced GEMM
    /// kernel, clamped to the best the CPU supports.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or if `out` has the wrong shape.
    pub fn transpose_matmul_into_with(&self, other: &Matrix, out: &mut Matrix, kernel: GemmKernel) {
        assert_eq!(
            self.rows, other.rows,
            "transpose_matmul shape mismatch: {}x{} vs {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, other.cols),
            "transpose_matmul output shape mismatch"
        );
        with_packed_transpose(self, |at| {
            gemm(at, &other.data, self.rows, out, false, kernel)
        });
    }

    /// The upper triangle of the Gram matrix `selfᵀ · self` into a
    /// preallocated `out` (`self.cols × self.cols`): every element on or
    /// above the diagonal equals the [`Matrix::transpose_matmul_into`]
    /// result bit for bit, and what `out` holds below the diagonal is
    /// unspecified. The product is symmetric bit for bit (`a·b == b·a`,
    /// same `k` order), so the lower half is the caller's to mirror.
    ///
    /// # Panics
    ///
    /// Panics if `out` has the wrong shape.
    pub fn gram_upper_into(&self, out: &mut Matrix) {
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, self.cols),
            "gram output shape mismatch"
        );
        let kernel = crate::simd::active();
        with_packed_transpose(self, |at| {
            gemm(at, &self.data, self.rows, out, true, kernel)
        });
    }

    /// `self · otherᵀ`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch (`self.cols != other.cols`).
    pub fn matmul_transpose(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_transpose_into(other, &mut out);
        out
    }

    /// `self · otherᵀ` written into a preallocated `out`
    /// (`self.rows × other.rows`), overwriting its contents: `otherᵀ` is
    /// packed into a per-thread scratch buffer and the product runs on the
    /// [`Matrix::matmul_into`] kernel, so it is bit-identical to
    /// [`Matrix::matmul_transpose_ref`].
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or if `out` has the wrong shape.
    pub fn matmul_transpose_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_transpose_into_with(other, out, crate::simd::active());
    }

    /// [`Matrix::matmul_transpose_into`] with an explicitly forced GEMM
    /// kernel, clamped to the best the CPU supports.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or if `out` has the wrong shape.
    pub fn matmul_transpose_into_with(&self, other: &Matrix, out: &mut Matrix, kernel: GemmKernel) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose shape mismatch: {}x{} vs {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.rows),
            "matmul_transpose output shape mismatch"
        );
        with_packed_transpose(other, |bt| {
            gemm(&self.data, bt, self.cols, out, false, kernel)
        });
    }

    /// Reference (naive triple-loop) `self · other`: the specification the
    /// blocked kernel is property-tested against. Accumulates each output
    /// element in ascending-`k` order, with no zero-skip fast path (a
    /// skipped `0 · ∞` or `0 · NaN` would silently drop non-finite
    /// operands instead of propagating them).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_ref(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for (k, &a) in a_row.iter().enumerate() {
                let b_row = &other.data[k * other.cols..(k + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Reference (naive) `selfᵀ · other`; see [`Matrix::matmul_ref`].
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch (`self.rows != other.rows`).
    pub fn transpose_matmul_ref(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "transpose_matmul shape mismatch: {}x{} vs {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        for k in 0..self.rows {
            let a_row = &self.data[k * self.cols..(k + 1) * self.cols];
            let b_row = &other.data[k * other.cols..(k + 1) * other.cols];
            for (i, &a) in a_row.iter().enumerate() {
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Reference (naive) `self · otherᵀ`; see [`Matrix::matmul_ref`].
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch (`self.cols != other.cols`).
    pub fn matmul_transpose_ref(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose shape mismatch: {}x{} vs {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            for j in 0..other.rows {
                let b_row = &other.data[j * other.cols..(j + 1) * other.cols];
                let mut s = 0.0;
                for (&a, &b) in a_row.iter().zip(b_row) {
                    s += a * b;
                }
                out.data[i * other.rows + j] = s;
            }
        }
        out
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        transpose_into(self, &mut out.data);
        out
    }

    /// Element-wise sum `self + other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise difference `self − other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a - b)
    }

    fn zip_with(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "element-wise op shape mismatch"
        );
        let pairs = self.data.iter().zip(other.data.iter());
        self.with_data(pairs.map(|(&a, &b)| f(a, b)))
    }

    /// A matrix of `self`'s shape holding `items`.
    fn with_data(&self, items: impl IntoIterator<Item = f32>) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: AlignedBuf::collect(self.data.len(), items),
        }
    }

    /// In-place `self += scale · other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Matrix, scale: f32) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add_scaled shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += scale * b;
        }
    }

    /// Returns `self` scaled by a constant.
    pub fn scaled(&self, scale: f32) -> Matrix {
        self.map(|v| v * scale)
    }

    /// In-place scaling.
    pub fn scale_in_place(&mut self, scale: f32) {
        for v in self.data.iter_mut() {
            *v *= scale;
        }
    }

    /// Adds a row vector (e.g. a bias) to every row.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != self.cols()`.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (v, &b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Applies `f` element-wise, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        self.with_data(self.data.iter().map(|&v| f(v)))
    }

    /// Column sums (length `cols`) — e.g. bias gradients from a batch.
    pub fn column_sums(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.column_sums_into(&mut out);
        out
    }

    /// [`Matrix::column_sums`] into `out`, reusing its allocation.
    pub(crate) fn column_sums_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.cols, 0.0);
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }

    /// Sum of element-wise products — the Frobenius inner product
    /// `⟨self, other⟩`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn dot(&self, other: &Matrix) -> f32 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "dot shape mismatch"
        );
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.dot(self).sqrt()
    }

    /// Largest absolute element.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }
}

/// `src` transposed into `dst` (`src.cols × src.rows`, row-major), as a
/// blocked copy: source columns and destination rows both stay
/// cache-resident within a tile, and the inner loop writes a destination
/// row contiguously.
fn transpose_into(src: &Matrix, dst: &mut [f32]) {
    const TB: usize = 32;
    let (rows, cols) = (src.rows, src.cols);
    assert_eq!(
        dst.len(),
        rows * cols,
        "transpose destination size mismatch"
    );
    for c0 in (0..cols).step_by(TB) {
        let c1 = (c0 + TB).min(cols);
        for r0 in (0..rows).step_by(TB) {
            let r1 = (r0 + TB).min(rows);
            for c in c0..c1 {
                let column = &src.data[r0 * cols + c..];
                for (k, d) in dst[c * rows + r0..c * rows + r1].iter_mut().enumerate() {
                    *d = column[k * cols];
                }
            }
        }
    }
}

thread_local! {
    /// The packed transposed operand of the `Aᵀ·B` / `A·Bᵀ` entry points,
    /// reused across calls: it is at most one activation batch or one
    /// weight matrix, and a fresh buffer that size per product would be an
    /// allocator round trip each.
    static PACKED: RefCell<AlignedBuf> = const { RefCell::new(AlignedBuf::new()) };
}

/// Runs `f` on `mᵀ` (row-major) packed into this thread's scratch buffer.
fn with_packed_transpose<R>(m: &Matrix, f: impl FnOnce(&[f32]) -> R) -> R {
    PACKED.with(|cell| {
        let mut buf = cell.borrow_mut();
        let packed = buf.prefix_mut(m.data.len());
        transpose_into(m, packed);
        f(packed)
    })
}

/// Rows of `out` per kernel call. The partition never affects values (each
/// element belongs to exactly one block); with `upper` it sets how finely
/// the skipped region follows the diagonal.
const ROW_BLOCK: usize = 32;

/// `out = A · B` for row-major `a` (`out.rows × kk`) and `b`
/// (`kk × out.cols`): the one kernel family under every product, run one
/// block of [`ROW_BLOCK`] rows at a time. With `upper`, a block skips the
/// columns left of its first row's diagonal tile.
fn gemm(a: &[f32], b: &[f32], kk: usize, out: &mut Matrix, upper: bool, kernel: GemmKernel) {
    let _span = dosco_obs::span(dosco_obs::SpanKind::Gemm);
    let kernel = kernel.best_available();
    let n = out.cols;
    if n == 0 || out.rows == 0 {
        return;
    }
    let ab = Operands::new(a, kk, b, n);
    for (block_idx, out_block) in out.data.chunks_mut(ROW_BLOCK * n).enumerate() {
        let row0 = block_idx * ROW_BLOCK;
        let j_start = if upper { row0 - row0 % MM_JT } else { 0 };
        matmul_block_dispatch(ab, out_block, row0, j_start, kernel);
    }
}

/// What a kernel call reads: `A` row-major with `kk` columns, and `B`
/// row-major `kk × n`. `n` is also the row stride of `C`.
#[derive(Clone, Copy)]
pub(crate) struct Operands<'a> {
    pub(crate) a: &'a [f32],
    pub(crate) kk: usize,
    pub(crate) b: &'a [f32],
    pub(crate) n: usize,
}

impl<'a> Operands<'a> {
    /// # Panics
    ///
    /// Panics unless `b` is exactly `kk` rows of `n`: the kernels walk
    /// `b.chunks_exact(n)` beside `0..kk`.
    fn new(a: &'a [f32], kk: usize, b: &'a [f32], n: usize) -> Self {
        assert_eq!(b.len(), kk * n, "B operand is not {kk} rows of {n}");
        Operands { a, kk, b, n }
    }
}

/// Output-column width of the scalar register micro-kernel: `MM_JT`
/// accumulators per row fit a couple of SIMD registers. The SIMD kernels
/// pick their own tile widths (see `simd.rs`).
const MM_JT: usize = 16;

/// Register-tiled inner kernel: `RT` rows × (up to) [`MM_JT`] columns of
/// `C` from column `j_start` on, with the accumulators living in registers
/// for the *entire* `k` loop; `out` starts at the tile's first row. Each
/// `B` element is loaded once per `RT` rows — this weight reuse is why a
/// batched forward costs less per row than single-row forwards. Every
/// accumulator is still one `f32` chain over ascending `k`, so the result
/// stays bit-identical to the naive `(i, k, j)` loop.
#[inline(always)]
fn mm_tile<const RT: usize>(ab: Operands<'_>, out: &mut [f32], arow0: usize, j_start: usize) {
    let Operands { a, kk, b, n } = ab;
    // The tile's rows of `A` sliced once, and `B` walked row by row beside
    // `0..kk`: the `k` loop then carries no bounds check on either.
    let a_rows: [&[f32]; RT] = std::array::from_fn(|rr| &a[(arow0 + rr) * kk..][..kk]);
    let mut j0 = j_start;
    // Full-width tiles: fixed trip counts so the accumulator arrays stay
    // in registers and the column loop vectorizes.
    while j0 + MM_JT <= n {
        let mut acc = [[0.0f32; MM_JT]; RT];
        for (k, b_row) in (0..kk).zip(b.chunks_exact(n)) {
            #[allow(
                clippy::expect_used,
                reason = "the slice is MM_JT long by construction; the conversion cannot fail"
            )]
            let b_seg: &[f32; MM_JT] = b_row[j0..j0 + MM_JT].try_into().expect("tile width");
            for rr in 0..RT {
                let av = a_rows[rr][k];
                for jj in 0..MM_JT {
                    acc[rr][jj] += av * b_seg[jj];
                }
            }
        }
        for rr in 0..RT {
            out[rr * n + j0..rr * n + j0 + MM_JT].copy_from_slice(&acc[rr]);
        }
        j0 += MM_JT;
    }
    // Column remainder (n % MM_JT), same accumulation order.
    if j0 < n {
        let jt = n - j0;
        let mut acc = [[0.0f32; MM_JT]; RT];
        for (k, b_row) in (0..kk).zip(b.chunks_exact(n)) {
            let b_seg = &b_row[j0..j0 + jt];
            for rr in 0..RT {
                let av = a_rows[rr][k];
                for (x, &bv) in acc[rr][..jt].iter_mut().zip(b_seg) {
                    *x += av * bv;
                }
            }
        }
        for rr in 0..RT {
            out[rr * n + j0..rr * n + j0 + jt].copy_from_slice(&acc[rr][..jt]);
        }
    }
}

/// `C[row0.., j_start..] = A[row0.., :] · B[:, j_start..]` for the
/// `out.len() / n` rows of `C` that `out` holds (`j_start` a multiple of
/// [`MM_JT`]). Register-tiled over 4/2/1-row panels ([`mm_tile`]); per
/// element the accumulation is a single `f32` chain over ascending `k`,
/// identical to the naive `(i, k, j)` loop — blocked vs naive vs any batch
/// split is bit-identical.
fn matmul_block(ab: Operands<'_>, out: &mut [f32], row0: usize, j_start: usize) {
    let n = ab.n;
    let rows = out.len() / n;
    let mut r = 0;
    while r + 4 <= rows {
        mm_tile::<4>(ab, &mut out[r * n..], row0 + r, j_start);
        r += 4;
    }
    if r + 2 <= rows {
        mm_tile::<2>(ab, &mut out[r * n..], row0 + r, j_start);
        r += 2;
    }
    if r < rows {
        mm_tile::<1>(ab, &mut out[r * n..], row0 + r, j_start);
    }
}

/// Routes one row block to the scalar or SIMD kernel. The kernel arrives
/// pre-clamped by [`GemmKernel::best_available`], so the SIMD arms are
/// only reachable when the CPU supports them (re-asserted inside
/// `simd::x86`).
fn matmul_block_dispatch(
    ab: Operands<'_>,
    out: &mut [f32],
    row0: usize,
    j_start: usize,
    kernel: GemmKernel,
) {
    match kernel {
        GemmKernel::Scalar => matmul_block(ab, out, row0, j_start),
        #[cfg(target_arch = "x86_64")]
        GemmKernel::Avx2 | GemmKernel::Avx512 => {
            crate::simd::x86::run_matmul_block(kernel, ab, out, row0, j_start)
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => matmul_block(ab, out, row0, j_start),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transpose_matmul_consistent() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert_eq!(a.transpose_matmul(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_transpose_consistent() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0, 9.0]]);
        assert_eq!(a.matmul_transpose(&b), a.matmul(&b.transpose()));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_rows(&[&[1.5, -2.0], &[0.25, 4.0]]);
        assert_eq!(a.matmul(&Matrix::identity(2)), a);
        assert_eq!(Matrix::identity(2).matmul(&a), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(a.add(&b), Matrix::from_rows(&[&[4.0, 7.0]]));
        assert_eq!(b.sub(&a), Matrix::from_rows(&[&[2.0, 3.0]]));
        assert_eq!(a.scaled(2.0), Matrix::from_rows(&[&[2.0, 4.0]]));
    }

    #[test]
    fn add_scaled_and_broadcast() {
        let mut a = Matrix::zeros(2, 2);
        a.add_scaled(&Matrix::identity(2), 3.0);
        assert_eq!(a.get(0, 0), 3.0);
        a.add_row_broadcast(&[1.0, 2.0]);
        assert_eq!(a.row(0), &[4.0, 2.0]);
        assert_eq!(a.row(1), &[1.0, 5.0]);
    }

    #[test]
    fn column_sums_and_dot() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.column_sums(), vec![4.0, 6.0]);
        assert_eq!(a.dot(&a), 1.0 + 4.0 + 9.0 + 16.0);
        assert!((a.norm() - 30.0f32.sqrt()).abs() < 1e-6);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn xavier_within_limit_and_seeded() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Matrix::xavier_uniform(16, 256, &mut rng);
        let limit = (6.0f32 / (16.0 + 256.0)).sqrt();
        assert!(m.as_slice().iter().all(|v| v.abs() <= limit));
        let mut rng2 = StdRng::seed_from_u64(1);
        assert_eq!(m, Matrix::xavier_uniform(16, 256, &mut rng2));
    }

    #[test]
    fn map_and_row_access() {
        let m = Matrix::from_rows(&[&[1.0, -2.0]]).map(f32::abs);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        let mut m = m;
        m.row_mut(0)[1] = 7.0;
        assert_eq!(m.get(0, 1), 7.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_bounds_checked() {
        Matrix::zeros(1, 1).get(0, 1);
    }

    #[test]
    fn serde_round_trip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let json = serde_json::to_string(&m).unwrap();
        assert_eq!(json, r#"{"rows":2,"cols":2,"data":[1.0,2.0,3.0,4.0]}"#);
        assert_eq!(serde_json::from_str::<Matrix>(&json).unwrap(), m);
    }

    #[test]
    fn deserialize_rejects_data_of_the_wrong_length() {
        for json in [
            r#"{"rows":2,"cols":2,"data":[1.0,2.0,3.0]}"#,
            r#"{"rows":1,"cols":2,"data":[1.0,2.0,3.0]}"#,
            r#"{"rows":4294967296,"cols":4294967296,"data":[]}"#,
        ] {
            let err = serde_json::from_str::<Matrix>(json).unwrap_err();
            assert!(err.to_string().contains("needs"), "{json}: {err}");
        }
        let err = serde_json::from_str::<Matrix>(r#"{"rows":1,"cols":2,"data":[1.0,"x"]}"#);
        assert!(err.unwrap_err().to_string().contains("field `data`"));
    }

    /// Every way a matrix comes to own storage starts it on a cache line,
    /// at sizes on both sides of glibc's 128 KiB `mmap` threshold.
    /// `clone_from` copies shape and contents, and writes into the
    /// allocation it has whenever that is large enough.
    #[test]
    fn clone_from_copies_into_the_allocation_it_has() {
        let big = Matrix::from_fn(64, 65, |r, c| (r * 65 + c) as f32);
        let small = Matrix::from_fn(3, 2, |r, c| (r + c) as f32 - 1.5);
        let mut kept = Matrix::zeros(0, 0);
        kept.clone_from(&big);
        assert_eq!(kept, big);
        let start = kept.as_slice().as_ptr();
        for source in [&small, &big, &small] {
            kept.clone_from(source);
            assert_eq!(&kept, source);
            assert_eq!(kept.as_slice().as_ptr(), start);
        }
    }

    #[test]
    fn every_matrix_starts_on_a_cache_line() {
        fn check(m: &Matrix, what: &str) {
            let addr = m.as_slice().as_ptr() as usize;
            assert_eq!(
                addr % 64,
                0,
                "{what} {}x{} starts at {addr:#x}",
                m.rows,
                m.cols
            );
        }
        let mut rng = StdRng::seed_from_u64(3);
        for (rows, cols) in [(1, 16), (1, 256), (256, 256), (257, 257)] {
            let values: Vec<f32> = (0..rows * cols).map(|i| i as f32).collect();
            let row_slices: Vec<&[f32]> = values.chunks(cols).collect();
            let m = Matrix::from_rows(&row_slices);
            let other = Matrix::from_fn(rows, cols, |r, c| (r + 2 * c) as f32);
            for (built, what) in [
                (Matrix::zeros(rows, cols), "zeros"),
                (Matrix::identity(cols), "identity"),
                (other.clone(), "from_fn"),
                (m.clone(), "from_rows"),
                (Matrix::from_vec(rows, cols, values.clone()), "from_vec"),
                (Matrix::row_vector(&values), "row_vector"),
                (
                    Matrix::xavier_uniform(rows, cols, &mut rng),
                    "xavier_uniform",
                ),
                (m.clone(), "clone"),
                (
                    serde_json::from_str(&serde_json::to_string(&m).unwrap()).unwrap(),
                    "serde",
                ),
                (m.map(f32::abs), "map"),
                (m.scaled(0.5), "scaled"),
                (m.add(&other), "add"),
                (m.transpose(), "transpose"),
                (m.matmul(&other.transpose()), "matmul"),
                (m.transpose_matmul(&other), "transpose_matmul"),
                (m.matmul_transpose(&other), "matmul_transpose"),
            ] {
                check(&built, what);
            }
            let mut grown = Matrix::row_vector(&values[..cols]);
            grown.reshape(rows + 1, cols + 1);
            check(&grown, "reshape");
            let mut copied = Matrix::row_vector(&values[..1]);
            copied.clone_from(&m);
            check(&copied, "clone_from");
            with_packed_transpose(&m, |packed| {
                assert_eq!(packed.as_ptr() as usize % 64, 0, "packed {rows}x{cols}");
            });
        }
        // The forward's last layer reuses the first one's 16-wide buffer
        // and grows it to 257 columns.
        let net = crate::Mlp::new(&[4, 16, 8, 257], crate::Activation::Tanh, &mut rng);
        check(&net.forward(&Matrix::zeros(1, 4)), "Mlp::forward");
        // An empty matrix allocates nothing.
        assert_eq!(Matrix::zeros(0, 0).data.buf.capacity(), 0);
        assert_eq!(Matrix::zeros(3, 0).clone().data.buf.capacity(), 0);
    }
}
