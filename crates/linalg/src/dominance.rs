//! Diagonal-dominance step-size control.
//!
//! The paper's key stability argument (Section II) is that the analogue parts of
//! an energy harvester — microgenerator, power conditioning and supercapacitor —
//! are passive systems, so the explicit-integration stability condition
//! `ρ(I + h·A) < 1` (Eq. 7) "can be ensured in a straightforward way by
//! adjusting the step-size such that the point total-step matrix is diagonally
//! dominant". This module implements that rule: [`max_stable_step`] is the
//! largest `h` for which `I + h·A` remains strictly row-diagonally dominant
//! (with every diagonal entry inside the unit circle), which by the Gershgorin
//! theorem implies `ρ(I + h·A) ≤ 1`.

use crate::{DMatrix, LinalgError};

/// Largest step size `h` for which every Gershgorin row disc of `I + h·A`
/// lies strictly inside the unit circle, i.e. `|1 + h·a_ii| + h·Σ_{j≠i}|a_ij| < 1`
/// for every row `i`.
///
/// For each row `i` with diagonal `a_ii < 0` and off-diagonal absolute sum
/// `r_i`, the disc `|1 + h·a_ii| + h·r_i < 1` holds for
/// `0 < h < 2|a_ii| / (a_ii² − r_i²) · …` — rather than carrying the exact
/// algebra for every sign case, the routine derives the per-row limit directly:
///
/// * if `a_ii ≥ 0` or `r_i ≥ |a_ii|` the row can never satisfy strict dominance
///   with margin, and the routine returns `None` (the matrix is not suitable for
///   the heuristic — e.g. an undamped row); callers then fall back to the exact
///   spectral-radius check or to a conservative fixed step.
/// * otherwise the binding constraint is `h < 2 / (|a_ii| + r_i)` before the
///   disc escapes through −1, scaled by the `safety` factor.
///
/// The returned value is multiplied by `safety` (e.g. 0.9) to stay clear of the
/// boundary.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] for non-square input and
/// [`LinalgError::InvalidArgument`] if `safety` is not in `(0, 1]`.
pub fn max_stable_step(a: &DMatrix, safety: f64) -> Result<Option<f64>, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { rows: a.rows(), cols: a.cols() });
    }
    if !(safety > 0.0 && safety <= 1.0) {
        return Err(LinalgError::InvalidArgument(format!(
            "safety factor must be in (0, 1], got {safety}"
        )));
    }
    let mut h_max = f64::INFINITY;
    for i in 0..a.rows() {
        let diag = a[(i, i)];
        let off: f64 =
            a.row(i).iter().enumerate().filter(|(j, _)| *j != i).map(|(_, x)| x.abs()).sum();
        if diag == 0.0 && off == 0.0 {
            // Row of zeros: 1 + h*0 = 1, disc radius 0 — marginally stable
            // (pure integrator row such as displacement = ∫ velocity). The row
            // does not constrain the step; stability is governed by the other rows.
            continue;
        }
        if diag >= 0.0 || off >= -diag {
            // The row cannot be made strictly dominant for any h > 0.
            return Ok(None);
        }
        // Constraint: |1 + h*diag| + h*off < 1 with diag < 0.
        // For h <= 1/|diag| the expression is 1 + h*(diag + off) < 1, true since diag + off < 0.
        // For h > 1/|diag| it becomes h*(|diag| + off) - 1 < 1  =>  h < 2/(|diag| + off).
        let row_limit = 2.0 / (diag.abs() + off);
        h_max = h_max.min(row_limit);
    }
    if h_max.is_infinite() {
        // All rows were pure-integrator rows; no dominance information available.
        return Ok(None);
    }
    Ok(Some(safety * h_max))
}

/// Returns `true` if the point total-step matrix `I + h·A` satisfies the paper's
/// diagonal-dominance stability heuristic for step size `h`: the row test that
/// the tests check [`max_stable_step`] against.
///
/// The test requires, for every row `i`:
///
/// * `|1 + h·a_ii| + h·Σ_{j≠i}|a_ij| < 1` — the Gershgorin disc of the row lies
///   strictly inside the unit circle, which is sufficient for `ρ(I + h·A) < 1`.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] for a non-square `a` and
/// [`LinalgError::InvalidArgument`] for a non-positive `h`.
#[cfg(test)]
fn step_is_diagonally_stable(a: &DMatrix, h: f64) -> Result<bool, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { rows: a.rows(), cols: a.cols() });
    }
    if h <= 0.0 || !h.is_finite() {
        return Err(LinalgError::InvalidArgument(format!("step size must be positive, got {h}")));
    }
    for i in 0..a.rows() {
        let diag = 1.0 + h * a[(i, i)];
        let off: f64 =
            a.row(i).iter().enumerate().filter(|(j, _)| *j != i).map(|(_, x)| h * x.abs()).sum();
        if diag.abs() + off >= 1.0 {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::spectral_radius;
    use crate::DVector;

    #[test]
    fn stable_step_for_decay_matrix() {
        // A = diag(-100, -10): forward Euler stable for h < 0.02.
        let a = DMatrix::from_diagonal(&DVector::from_slice(&[-100.0, -10.0]));
        let h = max_stable_step(&a, 1.0).unwrap().unwrap();
        assert!((h - 0.02).abs() < 1e-12);
        assert!(step_is_diagonally_stable(&a, 0.9 * h).unwrap());
        assert!(!step_is_diagonally_stable(&a, 1.1 * h).unwrap());
    }

    #[test]
    fn safety_factor_shrinks_step() {
        let a = DMatrix::from_diagonal(&DVector::from_slice(&[-50.0]));
        let full = max_stable_step(&a, 1.0).unwrap().unwrap();
        let safe = max_stable_step(&a, 0.5).unwrap().unwrap();
        assert!((safe - 0.5 * full).abs() < 1e-15);
        assert!(max_stable_step(&a, 0.0).is_err());
        assert!(max_stable_step(&a, 1.5).is_err());
    }

    #[test]
    fn positive_diagonal_row_yields_none() {
        let a = DMatrix::from_rows(&[&[1.0, 0.0], &[0.0, -1.0]]).unwrap();
        assert_eq!(max_stable_step(&a, 0.9).unwrap(), None);
    }

    #[test]
    fn non_dominatable_row_yields_none() {
        // |off-diagonal| exceeds |diagonal|: cannot be made dominant.
        let a = DMatrix::from_rows(&[&[-1.0, 5.0], &[0.0, -1.0]]).unwrap();
        assert_eq!(max_stable_step(&a, 0.9).unwrap(), None);
    }

    #[test]
    fn zero_rows_do_not_constrain() {
        // Pure integrator row + damped row.
        let a = DMatrix::from_rows(&[&[0.0, 0.0], &[0.0, -10.0]]).unwrap();
        let h = max_stable_step(&a, 1.0).unwrap().unwrap();
        assert!((h - 0.2).abs() < 1e-12);
        // All-zero matrix: no information.
        assert_eq!(max_stable_step(&DMatrix::zeros(3, 3), 0.9).unwrap(), None);
    }

    #[test]
    fn dominance_step_implies_spectral_stability() {
        // The heuristic must be sufficient (never admit an unstable step).
        let a =
            DMatrix::from_rows(&[&[-200.0, 30.0, 0.0], &[10.0, -80.0, 20.0], &[0.0, 5.0, -400.0]])
                .unwrap();
        let h = max_stable_step(&a, 0.99).unwrap().unwrap();
        let m = &DMatrix::identity(3) + &a.scaled(h);
        assert!(spectral_radius(&m).unwrap() < 1.0 + 1e-9);
    }

    #[test]
    fn step_stability_rejects_bad_arguments() {
        let a = DMatrix::from_diagonal(&DVector::from_slice(&[-1.0]));
        assert!(step_is_diagonally_stable(&a, 0.0).is_err());
        assert!(step_is_diagonally_stable(&a, f64::NAN).is_err());
        assert!(step_is_diagonally_stable(&DMatrix::zeros(1, 2), 0.1).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::eigen::spectral_radius;
    use proptest::prelude::*;

    /// Passive-looking matrices: strictly negative diagonal, modest coupling.
    fn passive_matrix(n: usize) -> impl Strategy<Value = DMatrix> {
        (prop::collection::vec(1.0f64..500.0, n), prop::collection::vec(-20.0f64..20.0, n * n))
            .prop_map(move |(diag, off)| {
                let mut m = DMatrix::from_row_major(n, n, off).expect("size matches");
                for i in 0..n {
                    // Make the diagonal strictly dominate the row.
                    let row_sum: f64 = m
                        .row(i)
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| *j != i)
                        .map(|(_, x)| x.abs())
                        .sum();
                    m[(i, i)] = -(diag[i] + row_sum);
                }
                m
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn heuristic_step_never_violates_eq7(a in passive_matrix(5)) {
            if let Some(h) = max_stable_step(&a, 0.95).unwrap() {
                let m = &DMatrix::identity(5) + &a.scaled(h);
                let rho = spectral_radius(&m).unwrap();
                prop_assert!(rho < 1.0 + 1e-6, "rho = {rho} at h = {h}");
            }
        }

        #[test]
        fn accepted_steps_pass_the_row_test(a in passive_matrix(4)) {
            if let Some(h) = max_stable_step(&a, 0.9).unwrap() {
                prop_assert!(step_is_diagonally_stable(&a, h).unwrap());
            }
        }
    }
}
