//! LU factorisation with partial pivoting.
//!
//! The linearised state-space technique eliminates the non-state (terminal)
//! variables at every accepted time point by solving the algebraic system
//! `Jyy · y = −Jyx · x` (Eq. 4 of the paper). `Jyy` is small and changes only
//! when the piecewise-linear device models switch segment, so an LU
//! factorisation that can be cached and re-used for many right-hand sides is
//! the natural tool. The same factorisation backs the Newton–Raphson iterations
//! of the baseline (implicit) solvers.

use crate::{axpy_chunked, dot_unrolled, DMatrix, DVector, LinalgError};

/// LU factorisation of a square matrix with partial (row) pivoting.
///
/// The factorisation satisfies `P · A = L · U` where `P` is a permutation,
/// `L` is unit lower triangular and `U` is upper triangular. Both factors are
/// stored compactly in a single matrix.
///
/// # Example
///
/// ```
/// use harvsim_linalg::{DMatrix, DVector};
///
/// # fn main() -> Result<(), harvsim_linalg::LinalgError> {
/// let a = DMatrix::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]])?; // needs pivoting
/// let lu = a.lu()?;
/// let x = lu.solve(&DVector::from_slice(&[2.0, 2.0]))?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    /// Combined storage: strictly-lower part holds `L` (unit diagonal implied),
    /// upper part (including diagonal) holds `U`.
    lu: DMatrix,
    /// Row permutation: row `i` of the factorised matrix came from row `perm[i]`
    /// of the original.
    perm: Vec<usize>,
    /// Threshold below which a pivot is considered numerically zero.
    pivot_tolerance: f64,
}

impl LuDecomposition {
    /// Factorises `a` using partial pivoting and the default pivot tolerance
    /// ([`crate::DEFAULT_EPS`] scaled by the matrix magnitude).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::Singular`] if a pivot smaller than the tolerance is found.
    pub fn new(a: &DMatrix) -> Result<Self, LinalgError> {
        let scale = a.max_abs().max(1.0);
        Self::with_tolerance(a, crate::DEFAULT_EPS * scale)
    }

    /// Factorises `a` with an explicit absolute pivot tolerance.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`LuDecomposition::new`].
    fn with_tolerance(a: &DMatrix, pivot_tolerance: f64) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { rows: a.rows(), cols: a.cols() });
        }
        let n = a.rows();
        let mut decomposition =
            LuDecomposition { lu: a.clone(), perm: (0..n).collect(), pivot_tolerance };
        decomposition.eliminate()?;
        Ok(decomposition)
    }

    /// Re-factorises `a` in place, reusing this decomposition's storage: no heap
    /// allocation happens when `a` has the same dimension as the previous
    /// factorisation. This is the kernel behind the solver's cached terminal
    /// (`Jyy`) factorisation — the matrix is re-factorised only on a
    /// relinearisation refresh, and even then without allocator traffic.
    ///
    /// The pivot tolerance is recomputed for the new matrix exactly as
    /// [`LuDecomposition::new`] does.
    ///
    /// On error the decomposition is left in an unspecified (but safe) state and
    /// must be refreshed with another successful factorisation before use.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`LuDecomposition::new`].
    pub fn factor_into(&mut self, a: &DMatrix) -> Result<(), LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { rows: a.rows(), cols: a.cols() });
        }
        let n = a.rows();
        if self.lu.shape() == a.shape() {
            self.lu.copy_from(a);
        } else {
            self.lu = a.clone();
            self.perm = (0..n).collect();
        }
        for (i, p) in self.perm.iter_mut().enumerate() {
            *p = i;
        }
        self.pivot_tolerance = crate::DEFAULT_EPS * a.max_abs().max(1.0);
        self.eliminate()
    }

    /// Gaussian elimination with partial pivoting over the already-loaded
    /// `self.lu` storage (shared by [`LuDecomposition::with_tolerance`] and
    /// [`LuDecomposition::factor_into`]).
    fn eliminate(&mut self) -> Result<(), LinalgError> {
        let n = self.lu.rows();
        for k in 0..n {
            // Find the pivot row: largest magnitude in column k at or below row k.
            let mut pivot_row = k;
            let mut pivot_val = self.lu[(k, k)].abs();
            for r in (k + 1)..n {
                let v = self.lu[(r, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val <= self.pivot_tolerance {
                return Err(LinalgError::Singular { pivot: k, value: pivot_val });
            }
            if pivot_row != k {
                self.lu.swap_rows(k, pivot_row);
                self.perm.swap(k, pivot_row);
            }
            // Eliminate below the pivot: each row update is a contiguous
            // four-lane axpy on the trailing sub-row (bit-identical to the
            // per-element loop — the update is element-wise).
            let pivot = self.lu[(k, k)];
            for r in (k + 1)..n {
                let (upper, lower) = self.lu.row_pair_mut(k, r);
                let factor = lower[k] / pivot;
                lower[k] = factor;
                axpy_chunked(&mut lower[k + 1..], -factor, &upper[k + 1..]);
            }
        }
        Ok(())
    }

    /// Dimension of the factorised matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A · x = b` using the stored factorisation.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &DVector) -> Result<DVector, LinalgError> {
        let mut x = DVector::zeros(self.dim());
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A · x = b` into a caller-owned buffer, with no heap allocation
    /// (the hot-path variant of [`LuDecomposition::solve`]).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()` or
    /// `out.len() != self.dim()`.
    pub fn solve_into(&self, b: &DVector, out: &mut DVector) -> Result<(), LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                operation: "LU solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        if out.len() != n {
            return Err(LinalgError::DimensionMismatch {
                operation: "LU solve output",
                left: (n, 1),
                right: (out.len(), 1),
            });
        }
        // Apply the permutation: out = P b.
        for i in 0..n {
            out[i] = b[self.perm[i]];
        }
        // Forward substitution with the unit lower factor: each inner sum is
        // the four-lane dot of the row prefix with the already-solved entries.
        for i in 0..n {
            let acc = dot_unrolled(&self.lu.row(i)[..i], &out.as_slice()[..i]);
            out[i] -= acc;
        }
        // Back substitution with the upper factor, dotting the row suffix.
        for i in (0..n).rev() {
            let row = self.lu.row(i);
            let acc = dot_unrolled(&row[i + 1..], &out.as_slice()[i + 1..]);
            out[i] = (out[i] - acc) / row[i];
        }
        Ok(())
    }

    /// Solves `A · X = B` into a fresh matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `B.rows() != self.dim()`.
    fn solve_matrix(&self, b: &DMatrix) -> Result<DMatrix, LinalgError> {
        let mut out = DMatrix::zeros(self.dim(), b.cols());
        self.solve_matrix_into(b, &mut out)?;
        Ok(out)
    }

    /// Solves `A · X = B` for all columns simultaneously into a caller-owned
    /// buffer, with no heap allocation: the permuted copy of `B` is written
    /// into `out` and the forward/back substitutions then run across every
    /// column of `out` at once (better cache behaviour than solving column
    /// by column).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `B.rows() != self.dim()`
    /// or `out` does not have `B`'s shape.
    pub fn solve_matrix_into(&self, b: &DMatrix, out: &mut DMatrix) -> Result<(), LinalgError> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                operation: "LU matrix solve",
                left: (n, n),
                right: b.shape(),
            });
        }
        if out.shape() != b.shape() {
            return Err(LinalgError::DimensionMismatch {
                operation: "LU matrix solve output",
                left: b.shape(),
                right: out.shape(),
            });
        }
        // Apply the permutation: out = P B, row by row as bulk copies.
        for i in 0..n {
            out.row_mut(i).copy_from_slice(b.row(self.perm[i]));
        }
        // Forward substitution with the unit lower factor, all columns at
        // once: every (i, j) update is a contiguous four-lane axpy of row j
        // onto row i (bit-identical to the per-element loop).
        for i in 0..n {
            for j in 0..i {
                let l = self.lu[(i, j)];
                if l == 0.0 {
                    continue;
                }
                let (src, dst) = out.row_pair_mut(j, i);
                axpy_chunked(dst, -l, src);
            }
        }
        // Back substitution with the upper factor.
        for i in (0..n).rev() {
            for j in (i + 1)..n {
                let u = self.lu[(i, j)];
                if u == 0.0 {
                    continue;
                }
                let (src, dst) = out.row_pair_mut(j, i);
                axpy_chunked(dst, -u, src);
            }
            let pivot = self.lu[(i, i)];
            for v in out.row_mut(i) {
                *v /= pivot;
            }
        }
        Ok(())
    }

    /// Inverse of the original matrix.
    ///
    /// # Errors
    ///
    /// Propagates solve errors (which cannot occur for a successfully
    /// factorised matrix of matching dimension).
    pub fn inverse(&self) -> Result<DMatrix, LinalgError> {
        self.solve_matrix(&DMatrix::identity(self.dim()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_matrix() -> DMatrix {
        DMatrix::from_rows(&[&[4.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 2.0]]).unwrap()
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd_matrix();
        let x_true = DVector::from_slice(&[1.0, -2.0, 3.0]);
        let b = a.mul_vector(&x_true);
        let x = a.lu().unwrap().solve(&b).unwrap();
        assert!(x.max_abs_diff(&x_true).unwrap() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = DMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = a.lu().unwrap().solve(&DVector::from_slice(&[2.0, 3.0])).unwrap();
        assert_eq!(x.as_slice(), &[3.0, 2.0]);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(a.lu(), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn non_square_rejected() {
        let a = DMatrix::zeros(2, 3);
        assert!(matches!(LuDecomposition::new(&a), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn inverse_multiplies_to_identity() {
        let a = spd_matrix();
        let inv = a.lu().unwrap().inverse().unwrap();
        let prod = a.mul_matrix(&inv).unwrap();
        assert!(prod.max_abs_diff(&DMatrix::identity(3)).unwrap() < 1e-12);
    }

    #[test]
    fn solve_matrix_right_hand_sides() {
        let a = spd_matrix();
        let b = DMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap();
        let x = a.lu().unwrap().solve_matrix(&b).unwrap();
        let back = a.mul_matrix(&x).unwrap();
        assert!(back.max_abs_diff(&b).unwrap() < 1e-12);
    }

    #[test]
    fn dimension_mismatch_errors() {
        let lu = spd_matrix().lu().unwrap();
        assert!(lu.solve(&DVector::zeros(2)).is_err());
        assert!(lu.solve_matrix(&DMatrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn factor_into_reuses_storage_and_matches_fresh_factorisation() {
        let a = spd_matrix();
        let mut lu = a.lu().unwrap();
        // Refactor a different matrix of the same size in place.
        let b =
            DMatrix::from_rows(&[&[2.0, 1.0, 0.5], &[1.0, 4.0, 1.0], &[0.5, 1.0, 3.0]]).unwrap();
        lu.factor_into(&b).unwrap();
        let fresh = b.lu().unwrap();
        let rhs = DVector::from_slice(&[1.0, -1.0, 2.0]);
        assert_eq!(lu.solve(&rhs).unwrap(), fresh.solve(&rhs).unwrap());
        // Dimension changes still work (with reallocation), pivoting included.
        let small = DMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        lu.factor_into(&small).unwrap();
        assert_eq!(lu.dim(), 2);
        assert_eq!(lu.solve(&DVector::from_slice(&[2.0, 3.0])).unwrap().as_slice(), &[3.0, 2.0]);
        // Singular input is reported.
        let singular = DMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(lu.factor_into(&singular), Err(LinalgError::Singular { .. })));
        assert!(matches!(
            lu.factor_into(&DMatrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn solve_into_matches_solve() {
        let a = spd_matrix();
        let lu = a.lu().unwrap();
        let b = DVector::from_slice(&[1.0, 2.0, 3.0]);
        let mut out = DVector::zeros(3);
        lu.solve_into(&b, &mut out).unwrap();
        assert_eq!(out, lu.solve(&b).unwrap());
        let mut wrong = DVector::zeros(2);
        assert!(lu.solve_into(&b, &mut wrong).is_err());
        assert!(lu.solve_into(&DVector::zeros(2), &mut out).is_err());
    }

    #[test]
    fn solve_matrix_into_matches_solve_matrix() {
        let a = spd_matrix();
        let lu = a.lu().unwrap();
        let b = DMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap();
        let mut out = DMatrix::zeros(3, 2);
        lu.solve_matrix_into(&b, &mut out).unwrap();
        assert_eq!(out, lu.solve_matrix(&b).unwrap());
        let mut wrong = DMatrix::zeros(2, 2);
        assert!(lu.solve_matrix_into(&b, &mut wrong).is_err());
        assert!(lu.solve_matrix_into(&DMatrix::zeros(2, 2), &mut out).is_err());
    }

    #[test]
    fn tolerance_is_recorded() {
        let lu = LuDecomposition::with_tolerance(&spd_matrix(), 1e-6).unwrap();
        assert_eq!(lu.pivot_tolerance, 1e-6);
        assert_eq!(lu.dim(), 3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Strategy: well-conditioned matrices built as `D + R` with a dominant diagonal.
    fn diag_dominant_matrix(n: usize) -> impl Strategy<Value = DMatrix> {
        prop::collection::vec(-1.0f64..1.0, n * n).prop_map(move |vals| {
            let mut m = DMatrix::from_row_major(n, n, vals).expect("size matches");
            for i in 0..n {
                let row_sum: f64 = m.row(i).iter().map(|x| x.abs()).sum();
                m[(i, i)] = row_sum + 1.0;
            }
            m
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn lu_solve_residual_is_small(
            m in diag_dominant_matrix(5),
            b in prop::collection::vec(-10.0f64..10.0, 5),
        ) {
            let b = DVector::from_vec(b);
            let x = m.lu().unwrap().solve(&b).unwrap();
            let residual = (m.mul_vector(&x) - &b).norm_inf();
            prop_assert!(residual < 1e-9, "residual {residual}");
        }

        #[test]
        fn inverse_roundtrip(a in diag_dominant_matrix(4)) {
            let inv = a.inverse().unwrap();
            let prod = a.mul_matrix(&inv).unwrap();
            prop_assert!(prod.max_abs_diff(&DMatrix::identity(4)).unwrap() < 1e-9);
        }
    }
}
