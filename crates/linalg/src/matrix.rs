use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use crate::lu::LuDecomposition;
use crate::{DVector, LinalgError};

/// A dense, row-major matrix of `f64` values.
///
/// `DMatrix` stores the Jacobian blocks `Jxx`, `Jxy`, `Jyx`, `Jyy` of the
/// linearised model (Eq. 2 of the paper) as well as the assembled point
/// total-step matrix `A` whose stability governs the explicit integration step
/// size (Eq. 7). Matrices in this problem domain are small (tens of rows), so
/// all operations are straightforward dense loops.
///
/// # Example
///
/// ```
/// use harvsim_linalg::{DMatrix, DVector};
///
/// # fn main() -> Result<(), harvsim_linalg::LinalgError> {
/// let a = DMatrix::identity(3).scaled(2.0);
/// let x = DVector::from_slice(&[1.0, 2.0, 3.0]);
/// assert_eq!(a.mul_vector(&x).as_slice(), &[2.0, 4.0, 6.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DMatrix {
    rows: usize,
    cols: usize,
    /// Row-major storage: element `(r, c)` lives at `r * cols + c`.
    data: Vec<f64>,
}

impl DMatrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DMatrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a diagonal matrix from the entries of `diag`.
    pub fn from_diagonal(diag: &DVector) -> Self {
        let n = diag.len();
        let mut m = DMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = diag[i];
        }
        m
    }

    /// Creates a matrix from row slices. All rows must have the same length.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        if rows.is_empty() {
            return Ok(DMatrix::zeros(0, 0));
        }
        let cols = rows[0].len();
        if rows.iter().any(|r| r.len() != cols) {
            return Err(LinalgError::InvalidArgument(
                "all rows must have the same number of columns".to_string(),
            ));
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            data.extend_from_slice(row);
        }
        Ok(DMatrix { rows: rows.len(), cols, data })
    }

    /// Creates a `rows × cols` matrix whose `(r, c)` entry is `f(r, c)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = DMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if `data.len() != rows * cols`.
    pub fn from_row_major(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidArgument(format!(
                "expected {} elements for a {}x{} matrix, got {}",
                rows * cols,
                rows,
                cols,
                data.len()
            )));
        }
        Ok(DMatrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Returns `true` if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major storage (element `(r, c)` at
    /// `r * cols + c`) — the target of the assembler's flat scatter maps.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Returns element `(r, c)`, or `None` if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> Option<f64> {
        if r < self.rows && c < self.cols {
            Some(self.data[r * self.cols + c])
        } else {
            None
        }
    }

    /// Sets element `(r, c)` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn set(&mut self, r: usize, c: usize, value: f64) {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c] = value;
    }

    /// Adds `value` to element `(r, c)` (the "stamping" primitive used by MNA
    /// assembly and block composition).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn add_to(&mut self, r: usize, c: usize, value: f64) {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c] += value;
    }

    /// Borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow row `r` as a mutable slice (the assembler's bulk-stamping
    /// primitive: a block row is written with one `copy_from_slice` instead of
    /// per-element indexed adds).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrows row `read` immutably and row `write` mutably at the same time,
    /// so row-level kernels (LU elimination and the all-columns substitution
    /// sweeps) can run as four-lane slice updates instead of per-element
    /// double indexing.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds or the rows coincide.
    pub fn row_pair_mut(&mut self, read: usize, write: usize) -> (&[f64], &mut [f64]) {
        assert!(read < self.rows && write < self.rows, "row index out of bounds");
        assert_ne!(read, write, "row pair must be distinct");
        let cols = self.cols;
        if read < write {
            let (head, tail) = self.data.split_at_mut(write * cols);
            (&head[read * cols..read * cols + cols], &mut tail[..cols])
        } else {
            let (head, tail) = self.data.split_at_mut(read * cols);
            (&tail[..cols], &mut head[write * cols..write * cols + cols])
        }
    }

    /// Swaps rows `a` and `b` as whole slices (the LU pivoting primitive).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        assert!(a < self.rows && b < self.rows, "row index out of bounds");
        if a == b {
            return;
        }
        let cols = self.cols;
        let (lo, hi) = (a.min(b), a.max(b));
        let (head, tail) = self.data.split_at_mut(hi * cols);
        head[lo * cols..lo * cols + cols].swap_with_slice(&mut tail[..cols]);
    }

    /// Copies the main diagonal into a vector (length `min(rows, cols)`).
    pub fn diagonal(&self) -> DVector {
        let n = self.rows.min(self.cols);
        DVector::from_fn(n, |i| self[(i, i)])
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> DMatrix {
        DMatrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Returns the matrix scaled by `alpha`.
    pub fn scaled(&self, alpha: f64) -> DMatrix {
        DMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| alpha * x).collect(),
        }
    }

    /// Scales the matrix in place by `alpha`.
    pub fn scale_mut(&mut self, alpha: f64) {
        self.data.iter_mut().for_each(|x| *x *= alpha);
    }

    /// Matrix–vector product `A · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vector(&self, x: &DVector) -> DVector {
        let mut out = DVector::zeros(self.rows);
        self.mul_vector_into(x, &mut out);
        out
    }

    /// Matrix–vector product `out = A · x` into a caller-owned buffer
    /// (the allocation-free kernel behind [`DMatrix::mul_vector`], used on the
    /// solver hot path).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `out.len() != self.rows()`.
    pub fn mul_vector_into(&self, x: &DVector, out: &mut DVector) {
        assert_eq!(x.len(), self.cols, "matrix-vector dimension mismatch");
        assert_eq!(out.len(), self.rows, "matrix-vector output dimension mismatch");
        row_dots(&self.data, x.as_slice(), out.as_mut_slice(), |o, dot| *o = dot);
    }

    /// Accumulating matrix–vector product `out += A · x` (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `out.len() != self.rows()`.
    pub fn mul_vector_add_into(&self, x: &DVector, out: &mut DVector) {
        assert_eq!(x.len(), self.cols, "matrix-vector dimension mismatch");
        assert_eq!(out.len(), self.rows, "matrix-vector output dimension mismatch");
        row_dots(&self.data, x.as_slice(), out.as_mut_slice(), |o, dot| *o += dot);
    }

    /// Matrix–matrix product `A · B`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `self.cols() != other.rows()`.
    pub fn mul_matrix(&self, other: &DMatrix) -> Result<DMatrix, LinalgError> {
        let mut out = DMatrix::zeros(self.rows, other.cols);
        self.mul_matrix_into(other, &mut out)?;
        Ok(out)
    }

    /// Matrix–matrix product `out = A · B` into a caller-owned buffer (the
    /// allocation-free kernel behind [`DMatrix::mul_matrix`]).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `self.cols() != other.rows()`
    /// or `out` is not `self.rows() × other.cols()`.
    pub fn mul_matrix_into(&self, other: &DMatrix, out: &mut DMatrix) -> Result<(), LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                operation: "matrix multiply",
                left: self.shape(),
                right: other.shape(),
            });
        }
        if out.shape() != (self.rows, other.cols) {
            return Err(LinalgError::DimensionMismatch {
                operation: "matrix multiply output",
                left: (self.rows, other.cols),
                right: out.shape(),
            });
        }
        out.data.iter_mut().for_each(|v| *v = 0.0);
        // Row-major ikj order with the four-lane row kernel: each scalar of a
        // row of `self` scales a contiguous row of `other` into a contiguous
        // row of `out` (an `axpy`, which the autovectoriser packs), instead of
        // strided per-element indexing. `expm::phi1_phi2_into` reproduces
        // this accumulation order bit for bit; its tests fail if it changes.
        for r in 0..self.rows {
            let out_row = &mut out.data[r * other.cols..(r + 1) * other.cols];
            for (k, &a) in self.row(r).iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                axpy_chunked(out_row, a, other.row(k));
            }
        }
        Ok(())
    }

    /// Overwrites this matrix with the contents of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn copy_from(&mut self, other: &DMatrix) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in matrix copy_from");
        self.data.copy_from_slice(&other.data);
    }

    /// Fills every entry with `value` (used to reset preallocated assembly
    /// workspaces before re-stamping).
    pub fn fill(&mut self, value: f64) {
        self.data.iter_mut().for_each(|v| *v = value);
    }

    /// Copies `block` into this matrix with its top-left corner at `(row, col)`.
    ///
    /// This is the primitive the state-space assembler uses to place per-block
    /// Jacobians into the global system matrices.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit.
    pub fn set_block(&mut self, row: usize, col: usize, block: &DMatrix) {
        assert!(
            row + block.rows <= self.rows && col + block.cols <= self.cols,
            "block does not fit at the requested position"
        );
        for r in 0..block.rows {
            for c in 0..block.cols {
                self[(row + r, col + c)] = block[(r, c)];
            }
        }
    }

    /// Extracts the `height × width` sub-matrix whose top-left corner is `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the requested block extends past the matrix bounds.
    pub fn block(&self, row: usize, col: usize, height: usize, width: usize) -> DMatrix {
        assert!(
            row + height <= self.rows && col + width <= self.cols,
            "requested block extends past the matrix bounds"
        );
        DMatrix::from_fn(height, width, |r, c| self[(row + r, col + c)])
    }

    /// Infinity norm (maximum absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows).map(|r| self.row(r).iter().map(|x| x.abs()).sum::<f64>()).fold(0.0, f64::max)
    }

    /// Largest absolute entry of the matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |acc: f64, x| acc.max(x.abs()))
    }

    /// Largest absolute element-wise difference to another matrix.
    ///
    /// Used by the linearisation-error monitor, which watches how much the
    /// Jacobian entries move between consecutive time points (Eq. 3 discussion).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the shapes differ.
    pub fn max_abs_diff(&self, other: &DMatrix) -> Result<f64, LinalgError> {
        Ok(self.max_abs_and_diff(other)?.1)
    }

    /// Fused single pass computing both the largest absolute entry of `self`
    /// and the largest absolute element-wise difference to `other`, returned
    /// as `(max_abs, max_diff)`.
    ///
    /// This is the kernel behind the solver's per-step Eq. 3 monitor, which
    /// needs exactly these two maxima over every Jacobian block; four
    /// accumulator lanes break the serial `max` dependency chains (maxima are
    /// order-independent, so the result matches a naive fold bit for bit).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the shapes differ.
    pub fn max_abs_and_diff(&self, other: &DMatrix) -> Result<(f64, f64), LinalgError> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                operation: "max_abs_diff",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let mut abs = [0.0_f64; 4];
        let mut diff = [0.0_f64; 4];
        let mut chunks_a = self.data.chunks_exact(4);
        let mut chunks_b = other.data.chunks_exact(4);
        for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
            abs[0] = abs[0].max(ca[0].abs());
            abs[1] = abs[1].max(ca[1].abs());
            abs[2] = abs[2].max(ca[2].abs());
            abs[3] = abs[3].max(ca[3].abs());
            diff[0] = diff[0].max((ca[0] - cb[0]).abs());
            diff[1] = diff[1].max((ca[1] - cb[1]).abs());
            diff[2] = diff[2].max((ca[2] - cb[2]).abs());
            diff[3] = diff[3].max((ca[3] - cb[3]).abs());
        }
        for (a, b) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
            abs[0] = abs[0].max(a.abs());
            diff[0] = diff[0].max((a - b).abs());
        }
        Ok((
            abs[0].max(abs[1]).max(abs[2]).max(abs[3]),
            diff[0].max(diff[1]).max(diff[2]).max(diff[3]),
        ))
    }

    /// Returns `true` if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// LU-factorises the matrix with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square matrices and
    /// [`LinalgError::Singular`] when a pivot is numerically zero.
    pub fn lu(&self) -> Result<LuDecomposition, LinalgError> {
        LuDecomposition::new(self)
    }

    /// Solves `A · x = b` for `x` via LU factorisation.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`DMatrix::lu`] and from the solve
    /// (dimension mismatch between `A` and `b`).
    pub fn solve(&self, b: &DVector) -> Result<DVector, LinalgError> {
        self.lu()?.solve(b)
    }

    /// Computes the matrix inverse via LU factorisation.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`DMatrix::lu`].
    pub fn inverse(&self) -> Result<DMatrix, LinalgError> {
        self.lu()?.inverse()
    }
}

/// In-place scaled accumulation `dst[i] += alpha * src[i]` over equal-length
/// slices in fixed four-lane chunks — the store-side counterpart of
/// [`dot_unrolled`]. The four independent update lanes match the pattern the
/// autovectoriser turns into packed multiply-adds, and because the update is
/// element-wise (no reduction) the result is bit-identical to the naive loop
/// in any order. This is the row kernel behind the Adams–Bashforth state
/// update, the matrix-product inner loop and the LU elimination/substitution
/// sweeps.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub fn axpy_chunked(dst: &mut [f64], alpha: f64, src: &[f64]) {
    assert_eq!(dst.len(), src.len(), "length mismatch in axpy");
    let mut dst_chunks = dst.chunks_exact_mut(4);
    let mut src_chunks = src.chunks_exact(4);
    for (d, s) in (&mut dst_chunks).zip(&mut src_chunks) {
        d[0] += alpha * s[0];
        d[1] += alpha * s[1];
        d[2] += alpha * s[2];
        d[3] += alpha * s[3];
    }
    for (d, s) in dst_chunks.into_remainder().iter_mut().zip(src_chunks.remainder()) {
        *d += alpha * s;
    }
}

/// Dot product of two equal-length slices with four independent accumulators.
/// Breaking the serial floating-point-add dependency chain lets the mat-vec
/// kernels on the solver hot path run near multiply throughput instead of add
/// latency (a ~3× win on the 12-wide rows of the harvester model). The
/// summation order differs from a naive left fold, which is inside the
/// tolerance of every consumer — the engine monitors Jacobian changes far
/// above rounding noise.
///
/// Exposed so fused row-kernels elsewhere in the workspace (e.g. the combined
/// terminal-elimination/state-derivative routines in `harvsim-core`) share the
/// exact same reduction.
#[inline]
pub fn dot_unrolled(a: &[f64], b: &[f64]) -> f64 {
    let mut chunks_a = a.chunks_exact(4);
    let mut chunks_b = b.chunks_exact(4);
    let mut acc = [0.0f64; 4];
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let mut tail = 0.0;
    for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        tail += x * y;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// [`row_dots`] for rows exactly `N` wide: [`dot_unrolled`] over arrays,
/// whose length the optimiser then knows, so its chunk loop unrolls
/// completely and the remainder bookkeeping folds away.
#[inline(always)]
fn row_dots_fixed<const N: usize>(
    data: &[f64],
    x: &[f64],
    out: &mut [f64],
    apply: impl Fn(&mut f64, f64),
) {
    let x: &[f64; N] = x.try_into().expect("row width matches the vector");
    for (o, row) in out.iter_mut().zip(data.chunks_exact(N)) {
        let row: &[f64; N] = row.try_into().expect("chunks are N wide");
        apply(o, dot_unrolled(row, x));
    }
}

/// The row kernel of the mat-vec products: `apply(&mut out[r], d)` with `d`
/// the [`dot_unrolled`] of row `r` of the row-major `data` (rows `x.len()`
/// wide) with `x`. Rows up to 16 wide — every Jacobian block of the
/// harvester — run through [`row_dots_fixed`], one monomorphised loop per
/// width; wider rows take [`dot_unrolled`] over slices.
#[inline]
fn row_dots(data: &[f64], x: &[f64], out: &mut [f64], apply: impl Fn(&mut f64, f64)) {
    macro_rules! fixed_widths {
        ($($n:literal)*) => {
            match x.len() {
                // `chunks_exact` rejects width 0; an empty dot is +0, as
                // `dot_unrolled` returns it.
                0 => out.iter_mut().for_each(|o| apply(o, 0.0)),
                $($n => row_dots_fixed::<$n>(data, x, out, apply),)*
                cols => {
                    for (o, row) in out.iter_mut().zip(data.chunks_exact(cols)) {
                        apply(o, dot_unrolled(row, x));
                    }
                }
            }
        };
    }
    fixed_widths!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16)
}

impl Index<(usize, usize)> for DMatrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for DMatrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for DMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DMatrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{:>12.4e} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

impl Add<&DMatrix> for &DMatrix {
    type Output = DMatrix;
    fn add(self, rhs: &DMatrix) -> DMatrix {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch in matrix addition");
        DMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect(),
        }
    }
}

impl Sub<&DMatrix> for &DMatrix {
    type Output = DMatrix;
    fn sub(self, rhs: &DMatrix) -> DMatrix {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch in matrix subtraction");
        DMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect(),
        }
    }
}

impl AddAssign<&DMatrix> for DMatrix {
    fn add_assign(&mut self, rhs: &DMatrix) {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch in matrix +=");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl SubAssign<&DMatrix> for DMatrix {
    fn sub_assign(&mut self, rhs: &DMatrix) {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch in matrix -=");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl Mul<f64> for &DMatrix {
    type Output = DMatrix;
    fn mul(self, rhs: f64) -> DMatrix {
        self.scaled(rhs)
    }
}

impl Mul<&DMatrix> for f64 {
    type Output = DMatrix;
    fn mul(self, rhs: &DMatrix) -> DMatrix {
        rhs.scaled(self)
    }
}

impl Mul<&DVector> for &DMatrix {
    type Output = DVector;
    fn mul(self, rhs: &DVector) -> DVector {
        self.mul_vector(rhs)
    }
}

impl Mul<&DMatrix> for &DMatrix {
    type Output = DMatrix;
    fn mul(self, rhs: &DMatrix) -> DMatrix {
        self.mul_matrix(rhs).expect("matrix multiply dimension mismatch")
    }
}

impl Neg for &DMatrix {
    type Output = DMatrix;
    fn neg(self) -> DMatrix {
        self.scaled(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DMatrix {
        DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap()
    }

    #[test]
    fn constructors_and_shape() {
        let z = DMatrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(!z.is_square());
        assert!(DMatrix::identity(3).is_square());
        assert_eq!(DMatrix::identity(2)[(0, 0)], 1.0);
        assert_eq!(DMatrix::identity(2)[(0, 1)], 0.0);

        let d = DMatrix::from_diagonal(&DVector::from_slice(&[1.0, 2.0]));
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(1, 0)], 0.0);

        let f = DMatrix::from_fn(2, 2, |r, c| (r * 10 + c) as f64);
        assert_eq!(f[(1, 1)], 11.0);

        assert!(DMatrix::from_rows(&[&[1.0], &[1.0, 2.0]]).is_err());
        assert!(DMatrix::from_row_major(2, 2, vec![1.0]).is_err());
        assert!(DMatrix::from_row_major(1, 2, vec![1.0, 2.0]).is_ok());
        assert!(DMatrix::zeros(0, 0).is_empty());
    }

    #[test]
    fn indexing_rows_columns_diagonal() {
        let m = sample();
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.get(1, 0), Some(3.0));
        assert_eq!(m.get(2, 0), None);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.diagonal().as_slice(), &[1.0, 4.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(0, 1)], 3.0);
    }

    #[test]
    fn matvec_and_matmul() {
        let m = sample();
        let x = DVector::from_slice(&[1.0, 1.0]);
        assert_eq!(m.mul_vector(&x).as_slice(), &[3.0, 7.0]);

        let i = DMatrix::identity(2);
        assert_eq!(m.mul_matrix(&i).unwrap(), m);
        let p = m.mul_matrix(&m).unwrap();
        assert_eq!(p[(0, 0)], 7.0);
        assert_eq!(p[(1, 1)], 22.0);
        assert!(m.mul_matrix(&DMatrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn in_place_products_match_allocating_variants() {
        let m = sample();
        let x = DVector::from_slice(&[1.0, 1.0]);
        let mut out = DVector::zeros(2);
        m.mul_vector_into(&x, &mut out);
        assert_eq!(out.as_slice(), m.mul_vector(&x).as_slice());
        m.mul_vector_add_into(&x, &mut out);
        assert_eq!(out.as_slice(), &[6.0, 14.0]);

        let mut prod = DMatrix::zeros(2, 2);
        m.mul_matrix_into(&m, &mut prod).unwrap();
        assert_eq!(prod, m.mul_matrix(&m).unwrap());
        // The output buffer is cleared first, so stale contents do not leak in.
        m.mul_matrix_into(&DMatrix::identity(2), &mut prod).unwrap();
        assert_eq!(prod, m);
        // Mismatched shapes are rejected.
        assert!(m.mul_matrix_into(&DMatrix::zeros(3, 3), &mut prod).is_err());
        let mut wrong = DMatrix::zeros(3, 3);
        assert!(m.mul_matrix_into(&m, &mut wrong).is_err());
    }

    #[test]
    fn copy_from_and_fill() {
        let m = sample();
        let mut dst = DMatrix::zeros(2, 2);
        dst.copy_from(&m);
        assert_eq!(dst, m);
        dst.fill(0.0);
        assert_eq!(dst, DMatrix::zeros(2, 2));
    }

    #[test]
    fn blocks_and_stamping() {
        let mut m = DMatrix::zeros(3, 3);
        m.set_block(1, 1, &sample());
        assert_eq!(m[(1, 1)], 1.0);
        assert_eq!(m[(2, 2)], 4.0);
        assert_eq!(m.block(1, 1, 2, 2)[(1, 1)], 4.0);
        m.add_to(0, 0, 2.5);
        assert_eq!(m[(0, 0)], 2.5);
    }

    #[test]
    fn norms() {
        let m = sample();
        assert_eq!(m.norm_inf(), 7.0);
        assert_eq!(m.max_abs(), 4.0);
        let other = DMatrix::zeros(2, 2);
        assert_eq!(m.max_abs_diff(&other).unwrap(), 4.0);
        assert!(m.max_abs_diff(&DMatrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn arithmetic() {
        let m = sample();
        let i = DMatrix::identity(2);
        assert_eq!((&m + &i)[(0, 0)], 2.0);
        assert_eq!((&m - &i)[(1, 1)], 3.0);
        assert_eq!((2.0 * &m)[(1, 0)], 6.0);
        assert_eq!((&m * 0.5)[(0, 1)], 1.0);
        assert_eq!((-&m)[(0, 0)], -1.0);
        let mut a = m.clone();
        a += &i;
        assert_eq!(a[(0, 0)], 2.0);
        a -= &i;
        assert_eq!(a[(0, 0)], 1.0);
        let v = DVector::from_slice(&[1.0, 0.0]);
        assert_eq!((&m * &v).as_slice(), &[1.0, 3.0]);
        assert_eq!((&m * &i), m);
    }

    #[test]
    fn finiteness() {
        let mut m = sample();
        assert!(m.is_finite());
        m[(0, 0)] = f64::NAN;
        assert!(!m.is_finite());
    }

    #[test]
    fn solve_and_inverse_small_system() {
        let a = DMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let b = DVector::from_slice(&[3.0, 5.0]);
        let x = a.solve(&b).unwrap();
        assert!((a.mul_vector(&x) - &b).norm_inf() < 1e-12);
        let inv = a.inverse().unwrap();
        let prod = a.mul_matrix(&inv).unwrap();
        assert!(prod.max_abs_diff(&DMatrix::identity(2)).unwrap() < 1e-12);
    }

    #[test]
    fn display_contains_dimensions() {
        let s = format!("{}", sample());
        assert!(s.contains("2x2"));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_index_panics() {
        let m = sample();
        let _ = m[(5, 0)];
    }

    #[test]
    fn axpy_chunked_matches_naive_update_at_every_length() {
        for len in 0..13 {
            let src: Vec<f64> = (0..len).map(|i| i as f64 * 0.7 - 2.0).collect();
            let mut dst: Vec<f64> = (0..len).map(|i| (i * i) as f64 * 0.1).collect();
            let mut reference = dst.clone();
            axpy_chunked(&mut dst, -1.3, &src);
            for (r, s) in reference.iter_mut().zip(&src) {
                *r += -1.3 * s;
            }
            assert_eq!(dst, reference, "length {len}");
        }
    }

    /// The bits of `v`, with every NaN mapped to one value: which NaN an
    /// operation returns is not reproducible (the optimiser may commute an
    /// addition, and that picks the NaN that propagates).
    fn bits(v: f64) -> u64 {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    /// `mul_vector_into` / `mul_vector_add_into` row by row against
    /// [`dot_unrolled`], bit for bit.
    fn assert_row_kernel_matches_dot_unrolled(m: &DMatrix, x: &DVector) {
        let reference: Vec<u64> =
            (0..m.rows()).map(|r| bits(dot_unrolled(m.row(r), x.as_slice()))).collect();
        let mut out = DVector::from_vec(vec![f64::NAN; m.rows()]);
        m.mul_vector_into(x, &mut out);
        let kernel: Vec<u64> = out.as_slice().iter().map(|&v| bits(v)).collect();
        assert_eq!(kernel, reference, "{m:?} · {x:?}");
        let start: Vec<f64> = (0..m.rows()).map(|r| r as f64 - 1.5).collect();
        let mut acc = DVector::from_vec(start.clone());
        m.mul_vector_add_into(x, &mut acc);
        for (r, &value) in acc.as_slice().iter().enumerate() {
            let expected = start[r] + dot_unrolled(m.row(r), x.as_slice());
            assert_eq!(bits(value), bits(expected), "row {r} of {m:?}");
        }
    }

    #[test]
    fn row_kernel_matches_dot_unrolled_at_every_width() {
        for cols in 0..=20 {
            let m = DMatrix::from_fn(3, cols, |r, c| ((r * 7 + c * 3) % 11) as f64 * 0.37 - 1.9);
            let x = DVector::from_fn(cols, |c| (c as f64 * 1.3).sin() * 1e3);
            assert_row_kernel_matches_dot_unrolled(&m, &x);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn axpy_chunked_panics_on_mismatch() {
        axpy_chunked(&mut [0.0; 3], 1.0, &[0.0; 4]);
    }

    #[test]
    fn row_pair_mut_and_swap_rows() {
        let mut m = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        {
            let (read, write) = m.row_pair_mut(0, 2);
            assert_eq!(read, &[1.0, 2.0]);
            write[0] = 50.0;
        }
        {
            // Read row below the written row works too.
            let (read, write) = m.row_pair_mut(2, 1);
            assert_eq!(read, &[50.0, 6.0]);
            write[1] = 40.0;
        }
        assert_eq!(m.row(1), &[3.0, 40.0]);
        m.swap_rows(0, 2);
        assert_eq!(m.row(0), &[50.0, 6.0]);
        assert_eq!(m.row(2), &[1.0, 2.0]);
        m.swap_rows(1, 1); // no-op
        assert_eq!(m.row(1), &[3.0, 40.0]);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn row_pair_mut_rejects_identical_rows() {
        let mut m = DMatrix::identity(2);
        let _ = m.row_pair_mut(1, 1);
    }

    /// One entry from `(kind, sign, exponent)`: exact zeros of both signs,
    /// NaN and ±∞ about one in twelve each, otherwise magnitudes 1e-3…1e3 of
    /// either sign (so the lane sums round differently in every order).
    fn entry((kind, sign, exponent): (usize, f64, f64)) -> f64 {
        match kind {
            0 => 0.0,
            1 => -0.0,
            2 => f64::NAN,
            3 => f64::INFINITY.copysign(sign),
            _ => sign.signum() * 10f64.powf(exponent),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(400))]

        #[test]
        fn row_kernel_matches_dot_unrolled_bit_for_bit(
            rows in 0usize..=5,
            cols in 0usize..=20,
            values in proptest::collection::vec((0usize..24, -1.0f64..1.0, -3.0f64..3.0), 100),
            vector in proptest::collection::vec((0usize..24, -1.0f64..1.0, -3.0f64..3.0), 20),
        ) {
            let m = DMatrix::from_fn(rows, cols, |r, c| entry(values[r * 20 + c]));
            let x = DVector::from_fn(cols, |c| entry(vector[c]));
            assert_row_kernel_matches_dot_unrolled(&m, &x);
        }
    }
}
