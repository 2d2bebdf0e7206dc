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
    /// The structure-only substitutions of [`LuDecomposition::plan_solves`];
    /// inactive until requested and after every refactorisation.
    plan: SolvePlan,
}

/// One kept term of a planned substitution row: the factor entry at `col`
/// and the [`dot_unrolled`] accumulator it lands in (`0..4`, or 4 for the
/// tail).
#[derive(Debug, Clone, Copy)]
struct PlanTerm {
    col: usize,
    lane: usize,
    value: f64,
}

/// A substitution row that does work: the terms past the previous row's
/// `end` up to its own are its kept terms, and it divides by `pivot` unless
/// that is 1.0 (forward rows carry 1.0: `L` has a unit diagonal).
#[derive(Debug, Clone, Copy)]
struct PlanRow {
    row: usize,
    end: usize,
    pivot: f64,
}

/// The substitutions of a factorisation reduced to the operations that can
/// change a bit: the exactly-nonzero `L` multipliers and `U` entries in dense
/// order, and the pivots other than 1.0. A row with neither is left out.
#[derive(Debug, Clone, Default)]
struct SolvePlan {
    active: bool,
    /// Forward rows, ascending; their terms are `lower_terms`.
    lower: Vec<PlanRow>,
    lower_terms: Vec<PlanTerm>,
    /// Back rows, descending; their terms are `upper_terms`.
    upper: Vec<PlanRow>,
    upper_terms: Vec<PlanTerm>,
}

/// The [`dot_unrolled`] accumulator of element `index` of a `len`-element
/// dot: lane `index mod 4` inside the four-wide chunks, else the tail (4).
fn lane_of(index: usize, len: usize) -> usize {
    if index < len / 4 * 4 {
        index % 4
    } else {
        4
    }
}

/// [`dot_unrolled`] over a row's kept terms against `x`: every term in its
/// own lane, combined as the dense kernel combines its accumulators.
#[inline]
fn planned_dot(terms: &[PlanTerm], x: &[f64]) -> f64 {
    let mut acc = [0.0_f64; 5];
    for term in terms {
        acc[term.lane] += term.value * x[term.col];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + acc[4]
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
        let mut decomposition = LuDecomposition {
            lu: a.clone(),
            perm: (0..n).collect(),
            pivot_tolerance,
            plan: SolvePlan::default(),
        };
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
        self.plan.active = false;
        self.eliminate()
    }

    /// Records a solve plan for this factorisation, so that
    /// [`LuDecomposition::solve_into`] performs only the operations that can
    /// change a bit: the exactly-nonzero `L` multipliers and `U` entries, in
    /// dense order, and the divisions by pivots other than 1.0. Worth it
    /// for a factorisation reused over many right-hand sides (the terminal
    /// `Jyy` of a march, a row permutation with one coupling entry, is solved
    /// tens of thousands of times per factorisation); a factorisation used
    /// once should not pay for it. The plan reuses its storage and lasts
    /// until the next [`LuDecomposition::factor_into`].
    ///
    /// Results are bit-identical to the dense substitutions. Each kept term
    /// goes to the [`dot_unrolled`] accumulator the dense kernel puts it in
    /// (lane `j mod 4` below `4⌊len/4⌋`, else the tail), and the accumulators
    /// combine in the same order. An accumulator starts at `+0` and, without
    /// fused multiply-adds, never holds `−0`, so a dropped term (an exact
    /// zero times a finite value) adds nothing, and `x − (+0)` and `x / 1.0`
    /// are `x`. Only a non-finite value breaks the argument (a dense `0 · ∞`
    /// is NaN): a non-finite right-hand side or an overflow always leaves a
    /// non-finite result, so a planned solve whose result is not finite is
    /// redone on the dense path.
    pub fn plan_solves(&mut self) {
        let n = self.dim();
        let plan = &mut self.plan;
        plan.lower.clear();
        plan.lower_terms.clear();
        plan.upper.clear();
        plan.upper_terms.clear();
        for i in 0..n {
            let row = self.lu.row(i);
            for (j, &value) in row[..i].iter().enumerate() {
                if value != 0.0 {
                    plan.lower_terms.push(PlanTerm { col: j, lane: lane_of(j, i), value });
                }
            }
            let end = plan.lower_terms.len();
            if end > plan.lower.last().map_or(0, |last| last.end) {
                plan.lower.push(PlanRow { row: i, end, pivot: 1.0 });
            }
        }
        for i in (0..n).rev() {
            let row = self.lu.row(i);
            let len = n - i - 1;
            for (p, &value) in row[i + 1..].iter().enumerate() {
                if value != 0.0 {
                    plan.upper_terms.push(PlanTerm {
                        col: i + 1 + p,
                        lane: lane_of(p, len),
                        value,
                    });
                }
            }
            let end = plan.upper_terms.len();
            let pivot = row[i];
            if pivot != 1.0 || end > plan.upper.last().map_or(0, |last| last.end) {
                plan.upper.push(PlanRow { row: i, end, pivot });
            }
        }
        plan.active = true;
    }

    /// The planned forward and back substitutions of `out` (already holding
    /// `P b`) — the kernel behind [`LuDecomposition::plan_solves`].
    fn substitute_planned(&self, out: &mut [f64]) {
        let plan = &self.plan;
        let mut start = 0;
        for row in &plan.lower {
            let acc = planned_dot(&plan.lower_terms[start..row.end], out);
            out[row.row] -= acc;
            start = row.end;
        }
        start = 0;
        for row in &plan.upper {
            let acc = planned_dot(&plan.upper_terms[start..row.end], out);
            let value = out[row.row] - acc;
            out[row.row] = if row.pivot != 1.0 { value / row.pivot } else { value };
            start = row.end;
        }
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
        if self.plan.active {
            self.substitute_planned(out.as_mut_slice());
            if out.is_finite() {
                return Ok(());
            }
            for i in 0..n {
                out[i] = b[self.perm[i]];
            }
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

    /// Solves `b` with `lu` twice, without and with a solve plan, and
    /// asserts the two results agree bit for bit.
    pub(super) fn assert_planned_matches_dense(lu: &LuDecomposition, b: &DVector) {
        let n = lu.dim();
        let mut planned = lu.clone();
        planned.plan_solves();
        let (mut dense_x, mut planned_x) = (DVector::zeros(n), DVector::zeros(n));
        lu.solve_into(b, &mut dense_x).unwrap();
        planned.solve_into(b, &mut planned_x).unwrap();
        // Every NaN compares as one value: which NaN an operation returns
        // is not reproducible under optimisation.
        let bits = |v: &[f64]| {
            v.iter().map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(planned_x.as_slice()), bits(dense_x.as_slice()), "{:?} b {b:?}", lu.lu);
    }

    #[test]
    fn planned_solve_matches_dense_on_the_harvester_terminal_matrix() {
        // The harvester's `Jyy` pattern: a row permutation with one coupling
        // entry, which factors into perm [2, 0, 1, 3], one multiplier and
        // unit pivots — the plan keeps one term and no division.
        for coupling in [-0.411, -0.471, 0.25] {
            let jyy = DMatrix::from_rows(&[
                &[0.0, 1.0, 0.0, 0.0],
                &[0.0, 0.0, 1.0, 0.0],
                &[1.0, 0.0, 0.0, 0.0],
                &[0.0, 0.0, coupling, 1.0],
            ])
            .unwrap();
            let mut lu = jyy.lu().unwrap();
            lu.plan_solves();
            assert_eq!(lu.perm, [2, 0, 1, 3]);
            assert_eq!(lu.plan.lower_terms.len() + lu.plan.upper_terms.len(), 1);
            assert!(lu.plan.upper.iter().all(|row| row.pivot != 1.0));
            for b in [
                [0.3, -1.7, 2.2e-3, 4.0],
                [0.0, -0.0, 0.0, -0.0],
                [-0.0, 1.0, -0.0, 1e308],
                [f64::NAN, 0.0, 1.0, 2.0],
                [1.0, f64::INFINITY, 0.0, 0.0],
                [1.0, 0.0, f64::NEG_INFINITY, 0.0],
            ] {
                assert_planned_matches_dense(&lu, &DVector::from_slice(&b));
            }
        }
    }

    #[test]
    fn a_new_factorisation_drops_the_plan() {
        let mut lu = spd_matrix().lu().unwrap();
        lu.plan_solves();
        assert!(lu.plan.active);
        lu.factor_into(&DMatrix::identity(3).scaled(2.0)).unwrap();
        assert!(!lu.plan.active, "a stale plan would solve with the old factors");
        assert_eq!(
            lu.solve(&DVector::from_slice(&[2.0, 4.0, 6.0])).unwrap().as_slice(),
            &[1.0, 2.0, 3.0]
        );
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
    use super::tests::assert_planned_matches_dense;
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

    /// One matrix or right-hand-side entry from `(kind, sign, exponent)`:
    /// about one in four an exact zero of either sign, one in eight ±1.0,
    /// the rest magnitudes 1e-3…1e3.
    fn entry((kind, sign, exponent): (usize, f64, f64)) -> f64 {
        match kind {
            0 => 0.0,
            1 => -0.0,
            2 => sign.signum(),
            _ => sign.signum() * 10f64.powf(exponent),
        }
    }

    fn entries(len: usize) -> impl Strategy<Value = Vec<f64>> {
        prop::collection::vec((0usize..8, -1.0f64..1.0, -3.0f64..3.0), len)
            .prop_map(|raw| raw.into_iter().map(entry).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random 1–16-wide matrices with planted zeros of both signs and
        /// pivots of exactly ±1, against right-hand sides that may hold
        /// NaN or ±∞: the planned solve returns the dense solve's bits.
        #[test]
        fn planned_solve_matches_dense_bit_for_bit(
            n in 1usize..=16,
            values in entries(256),
            rhs in entries(16),
            special in (0usize..16, 0usize..6),
        ) {
            let a = DMatrix::from_fn(n, n, |r, c| values[r * 16 + c]);
            let Ok(lu) = a.lu() else { return Ok(()) };
            let mut b = DVector::from_slice(&rhs[..n]);
            let (at, which) = special;
            b[at % n] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, b[at % n], 1e300, -1e300][which];
            assert_planned_matches_dense(&lu, &b);
        }

        /// Permutation-plus-coupling matrices like the harvester's `Jyy`: a
        /// random row permutation of a unit upper-triangular matrix with a
        /// few ±1 or random couplings.
        #[test]
        fn planned_solve_matches_dense_on_permuted_couplings(
            n in 1usize..=16,
            shuffle in prop::collection::vec(0usize..16, 16),
            couplings in prop::collection::vec((0usize..16, 0usize..16, (0usize..8, -1.0f64..1.0, -3.0f64..3.0)), 0..5),
            rhs in entries(16),
        ) {
            let mut perm: Vec<usize> = (0..n).collect();
            for (i, &j) in shuffle.iter().take(n).enumerate() {
                perm.swap(i, j % n);
            }
            let mut a = DMatrix::identity(n);
            for &(r, c, raw) in &couplings {
                let (r, c) = (r % n, c % n);
                if r != c {
                    a[(r.min(c), r.max(c))] = entry(raw);
                }
            }
            let permuted = DMatrix::from_fn(n, n, |r, c| a[(perm[r], c)]);
            let lu = permuted.lu().expect("a permuted unit triangle factors");
            assert_planned_matches_dense(&lu, &DVector::from_slice(&rhs[..n]));
        }

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
